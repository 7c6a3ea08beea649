//! Substitutions.

use crate::literal::Literal;
use crate::term::{Term, Var};
use std::collections::HashMap;

/// A substitution mapping variables to terms.
///
/// Substitutions are *idempotent* by construction: bindings are fully
/// dereferenced when inserted via [`Subst::bind`], so applying a
/// substitution once reaches a fixpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Subst {
    map: HashMap<Var, Term>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Subst {
        Subst::default()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a binding.
    pub fn get(&self, var: &Var) -> Option<&Term> {
        self.map.get(var)
    }

    /// Fully dereferences a term through this substitution.
    pub fn resolve(&self, t: &Term) -> Term {
        let mut cur = t;
        // Cycle-free by the occurs discipline in `bind`; bound depth is
        // small in practice, so a simple loop suffices.
        let mut steps = 0;
        while let Some(next) = cur.as_var().and_then(|v| self.map.get(v)) {
            cur = next;
            steps += 1;
            debug_assert!(steps <= self.map.len() + 1, "cyclic substitution");
        }
        cur.clone()
    }

    /// Binds `var` to `t` (after dereferencing `t`). Binding a variable to
    /// itself is a no-op.
    pub fn bind(&mut self, var: &Var, t: &Term) {
        let rt = self.resolve(t);
        if rt.as_var() != Some(var) {
            self.map.insert(var.clone(), rt);
        }
    }

    /// Applies the substitution to every term of `l`, aggregate patterns
    /// included: callers must keep aggregate-local variables renamed apart
    /// from outer variables (the parsers and the XPathLog mapping maintain
    /// this invariant).
    pub fn apply(&self, l: &mut Literal) {
        for t in l.terms_mut() {
            if t.as_var().is_some_and(|v| self.map.contains_key(v)) {
                *t = self.resolve(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::literal::{AggFunc, Aggregate, CompOp};

    fn v(n: &str) -> Term {
        Term::var(n)
    }

    #[test]
    fn bindings_dereference_through_chains() {
        let mut s = Subst::new();
        s.bind(&Var::new("X"), &v("Y"));
        s.bind(&Var::new("Y"), &Term::str("a"));
        assert_eq!(s.resolve(&v("X")), Term::str("a"));
        s.bind(&Var::new("Z"), &v("Z"));
        assert_eq!(s.len(), 2, "binding a variable to itself is a no-op");
        assert_eq!(s.get(&Var::new("Y")), Some(&Term::str("a")));
    }

    #[test]
    fn apply_substitutes_aggregates() {
        let mut s = Subst::new();
        s.bind(&Var::new("Ir"), &Term::param("ir"));
        let pattern = vec![Atom::new("sub", vec![v("S"), v("Ir")])];
        let agg = Aggregate::new(AggFunc::Cnt, None, pattern);
        let mut lit = Literal::Agg(agg, CompOp::Gt, Term::int(4));
        s.apply(&mut lit);
        assert_eq!(lit.to_string(), "cnt(; sub(S, $ir)) > 4");
    }
}
