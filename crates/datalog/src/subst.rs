//! Substitutions and unification.

use crate::atom::Atom;
use crate::literal::{Aggregate, Literal};
use crate::term::Term;
use std::collections::HashMap;

/// A substitution mapping variable names to terms.
///
/// Substitutions are *idempotent* by construction: bindings are fully
/// dereferenced when inserted via [`Subst::bind`], so applying a
/// substitution once reaches a fixpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Subst {
    map: HashMap<String, Term>,
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
    pub fn get(&self, var: &str) -> Option<&Term> {
        self.map.get(var)
    }

    /// Fully dereferences a term through this substitution.
    pub fn resolve(&self, t: &Term) -> Term {
        let mut cur = t.clone();
        // Cycle-free by the occurs discipline in `bind`; bound depth is
        // small in practice, so a simple loop suffices.
        let mut steps = 0;
        while let Term::Var(v) = &cur {
            match self.map.get(v) {
                Some(next) => {
                    cur = next.clone();
                    steps += 1;
                    debug_assert!(steps <= self.map.len() + 1, "cyclic substitution");
                }
                None => break,
            }
        }
        cur
    }

    /// Binds `var` to `t` (after dereferencing `t`). Binding a variable to
    /// itself is a no-op.
    pub fn bind(&mut self, var: &str, t: &Term) {
        let rt = self.resolve(t);
        if rt.var_name() == Some(var) {
            return;
        }
        self.map.insert(var.to_string(), rt);
    }

    /// Applies the substitution to a term.
    pub fn apply_term(&self, t: &Term) -> Term {
        self.resolve(t)
    }

    /// Applies the substitution to an atom.
    pub fn apply_atom(&self, a: &Atom) -> Atom {
        Atom::new(
            a.pred.clone(),
            a.args.iter().map(|t| self.apply_term(t)).collect(),
        )
    }

    /// Applies the substitution to an aggregate expression. Local pattern
    /// variables are substituted like any other: callers must keep
    /// aggregate-local variables renamed apart from outer variables (the
    /// parsers and the XPathLog mapping maintain this invariant).
    pub fn apply_aggregate(&self, agg: &Aggregate) -> Aggregate {
        Aggregate::new(
            agg.func,
            agg.term.as_ref().map(|t| self.apply_term(t)),
            agg.pattern.iter().map(|a| self.apply_atom(a)).collect(),
        )
    }

    /// Applies the substitution to a literal.
    pub fn apply_literal(&self, l: &Literal) -> Literal {
        match l {
            Literal::Pos(a) => Literal::Pos(self.apply_atom(a)),
            Literal::Neg(a) => Literal::Neg(self.apply_atom(a)),
            Literal::Comp(a, op, b) => {
                Literal::Comp(self.apply_term(a), *op, self.apply_term(b))
            }
            Literal::Agg(agg, op, t) => {
                Literal::Agg(self.apply_aggregate(agg), *op, self.apply_term(t))
            }
        }
    }

    /// Iterates over `(variable, term)` bindings in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Term)> {
        self.map.iter()
    }
}

/// Unifies two terms under an evolving substitution. Parameters unify only
/// with themselves or with variables: their runtime value is unknown, so
/// `$a` and `"x"` must *not* unify during simplification (treating them as
/// distinct constants is exactly the paper's reading of placeholders).
pub fn unify_terms(a: &Term, b: &Term, s: &mut Subst) -> bool {
    let ra = s.resolve(a);
    let rb = s.resolve(b);
    match (&ra, &rb) {
        (Term::Var(x), Term::Var(y)) if x == y => true,
        (Term::Var(x), _) => {
            s.bind(x, &rb);
            true
        }
        (_, Term::Var(y)) => {
            s.bind(y, &ra);
            true
        }
        (Term::Const(u), Term::Const(v)) => u == v,
        (Term::Param(p), Term::Param(q)) => p == q,
        // Constant vs parameter: unknown at compile time, treated as
        // non-unifiable here; `After` keeps an explicit equality literal
        // when this distinction matters.
        _ => false,
    }
}

/// Unifies two atoms, extending `s`. Returns false (leaving `s` in an
/// unspecified but consistent state only on success) if they do not unify;
/// callers should clone `s` if they need rollback.
pub fn unify_atoms(a: &Atom, b: &Atom, s: &mut Subst) -> bool {
    if a.pred != b.pred || a.args.len() != b.args.len() {
        return false;
    }
    a.args
        .iter()
        .zip(&b.args)
        .all(|(x, y)| unify_terms(x, y, s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Term {
        Term::var(n)
    }

    #[test]
    fn unify_basic() {
        let mut s = Subst::new();
        assert!(unify_terms(&v("X"), &Term::int(3), &mut s));
        assert_eq!(s.apply_term(&v("X")), Term::int(3));
        assert!(unify_terms(&v("X"), &Term::int(3), &mut s));
        assert!(!unify_terms(&v("X"), &Term::int(4), &mut s));
    }

    #[test]
    fn unify_var_chain() {
        let mut s = Subst::new();
        assert!(unify_terms(&v("X"), &v("Y"), &mut s));
        assert!(unify_terms(&v("Y"), &Term::str("a"), &mut s));
        assert_eq!(s.apply_term(&v("X")), Term::str("a"));
    }

    #[test]
    fn params_unify_only_with_themselves() {
        let mut s = Subst::new();
        assert!(unify_terms(&Term::param("a"), &Term::param("a"), &mut s));
        assert!(!unify_terms(&Term::param("a"), &Term::param("b"), &mut s));
        assert!(!unify_terms(&Term::param("a"), &Term::str("x"), &mut s));
        assert!(unify_terms(&v("X"), &Term::param("a"), &mut s));
        assert_eq!(s.apply_term(&v("X")), Term::param("a"));
    }

    #[test]
    fn unify_atoms_mismatched() {
        let mut s = Subst::new();
        let a = Atom::new("p", vec![v("X")]);
        let b = Atom::new("q", vec![Term::int(1)]);
        assert!(!unify_atoms(&a, &b, &mut s));
        let c = Atom::new("p", vec![Term::int(1), Term::int(2)]);
        assert!(!unify_atoms(&a, &c, &mut s));
    }

    #[test]
    fn apply_literal_substitutes_aggregates() {
        let mut s = Subst::new();
        s.bind("Ir", &Term::param("ir"));
        let agg = Aggregate::new(
            crate::literal::AggFunc::Cnt,
            None,
            vec![Atom::new("sub", vec![v("S"), v("Ir")])],
        );
        let lit = Literal::Agg(agg, crate::literal::CompOp::Gt, Term::int(4));
        let out = s.apply_literal(&lit);
        assert_eq!(out.to_string(), "cnt(; sub(S, $ir)) > 4");
    }
}
