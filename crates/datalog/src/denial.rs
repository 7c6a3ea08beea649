//! Denials: headless clauses expressing integrity constraints.

use crate::atom::Atom;
use crate::literal::Literal;
use crate::subst::Subst;
use crate::term::Term;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// A denial `← L1 ∧ … ∧ Ln`: the database is consistent with it iff no
/// variable binding satisfies the whole body (Section 3 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Denial {
    /// Conjunction of body literals.
    pub body: Vec<Literal>,
}

impl Denial {
    /// Creates a denial from its body literals.
    pub fn new(body: Vec<Literal>) -> Denial {
        Denial { body }
    }

    /// The denial with an empty body, i.e. `← true`, which is violated by
    /// every database. Produced when simplification detects that an update
    /// pattern can never be legal.
    pub fn always_violated() -> Denial {
        Denial { body: Vec::new() }
    }

    /// All variable names in first-occurrence order (including
    /// aggregate-local variables).
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        for l in &self.body {
            l.collect_vars(&mut out);
        }
        out
    }

    /// All parameter names, in first-occurrence order.
    pub fn params(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut push = |t: &Term| {
            if let Term::Param(p) = t {
                if !out.iter().any(|o| o == p) {
                    out.push(p.clone());
                }
            }
        };
        let atom = |a: &Atom, push: &mut dyn FnMut(&Term)| {
            for t in &a.args {
                push(t);
            }
        };
        for l in &self.body {
            match l {
                Literal::Pos(a) | Literal::Neg(a) => atom(a, &mut push),
                Literal::Comp(a, _, b) => {
                    push(a);
                    push(b);
                }
                Literal::Agg(agg, _, t) => {
                    if let Some(at) = &agg.term {
                        push(at);
                    }
                    for a in &agg.pattern {
                        atom(a, &mut push);
                    }
                    push(t);
                }
            }
        }
        out
    }

    /// Applies a substitution to the whole body.
    pub fn apply(&self, s: &Subst) -> Denial {
        Denial::new(self.body.iter().map(|l| s.apply_literal(l)).collect())
    }

    /// Renames every variable with a fresh name drawn from `gen`, so the
    /// result shares no variables with any other clause. Used before
    /// unification-based operations (subsumption, `After` on aggregates).
    pub fn rename_apart(&self, gen: &mut VarGen) -> Denial {
        let mut s = Subst::new();
        for v in self.vars() {
            s.bind(&v, &Term::Var(gen.fresh(&v)));
        }
        self.apply(&s)
    }

    /// Replaces parameters with concrete values. Parameters missing from
    /// `bindings` are left in place.
    pub fn instantiate(&self, bindings: &HashMap<String, Value>) -> Denial {
        fn inst_term(t: &Term, b: &HashMap<String, Value>) -> Term {
            match t {
                Term::Param(p) => match b.get(p) {
                    Some(v) => Term::Const(v.clone()),
                    None => t.clone(),
                },
                other => other.clone(),
            }
        }
        fn inst_atom(a: &Atom, b: &HashMap<String, Value>) -> Atom {
            Atom::new(
                a.pred.clone(),
                a.args.iter().map(|t| inst_term(t, b)).collect(),
            )
        }
        Denial::new(
            self.body
                .iter()
                .map(|l| match l {
                    Literal::Pos(a) => Literal::Pos(inst_atom(a, bindings)),
                    Literal::Neg(a) => Literal::Neg(inst_atom(a, bindings)),
                    Literal::Comp(a, op, c) => {
                        Literal::Comp(inst_term(a, bindings), *op, inst_term(c, bindings))
                    }
                    Literal::Agg(agg, op, t) => Literal::Agg(
                        crate::literal::Aggregate::new(
                            agg.func,
                            agg.term.as_ref().map(|x| inst_term(x, bindings)),
                            agg.pattern.iter().map(|a| inst_atom(a, bindings)).collect(),
                        ),
                        *op,
                        inst_term(t, bindings),
                    ),
                })
                .collect(),
        )
    }

    /// True if `self` and `other` are equal up to a bijective variable
    /// renaming and reordering of body literals (the *variant* relation).
    /// Used to deduplicate the output of `After`.
    pub fn is_variant_of(&self, other: &Denial) -> bool {
        if self.body.len() != other.body.len() {
            return false;
        }
        // Canonical form comparison: normalize variable names by first
        // occurrence over sorted literal strings. Cheap and adequate for
        // the small clauses produced by simplification; a false negative
        // only costs a duplicate denial, never soundness.
        self.canonical_key() == other.canonical_key()
    }

    /// A canonical string for variant comparison: literals are rendered,
    /// variables replaced by their first-occurrence index, and the literal
    /// list sorted.
    pub fn canonical_key(&self) -> String {
        let mut rendered: Vec<String> = self.body.iter().map(|l| l.to_string()).collect();
        rendered.sort();
        let joined = rendered.join(" & ");
        // Replace variable names with occurrence indexes. Variables are
        // identifiers starting with an uppercase letter or underscore in
        // our rendering; re-tokenize the rendered string.
        let mut map: HashMap<String, usize> = HashMap::new();
        let mut out = String::with_capacity(joined.len());
        let mut chars = joined.chars().peekable();
        // A variable token may only start where an identifier is not
        // already in progress (otherwise `$v0_0` would be split into a
        // parameter prefix and a spurious variable `_0`).
        let mut in_ident = false;
        while let Some(c) = chars.next() {
            if c == '"' {
                // Skip string literal verbatim.
                in_ident = false;
                out.push(c);
                for d in chars.by_ref() {
                    out.push(d);
                    if d == '"' {
                        break;
                    }
                }
            } else if !in_ident && (c.is_ascii_uppercase() || c == '_') {
                let mut name = String::new();
                name.push(c);
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' {
                        name.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let n = map.len();
                let idx = *map.entry(name).or_insert(n);
                out.push_str(&format!("V{idx}"));
            } else {
                in_ident = c.is_ascii_alphanumeric() || c == '_' || c == '$';
                out.push(c);
            }
        }
        out
    }
}

impl fmt::Display for Denial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<-")?;
        if self.body.is_empty() {
            return write!(f, " true");
        }
        for (i, l) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, " &")?;
            }
            write!(f, " {l}")?;
        }
        Ok(())
    }
}

/// A generator of fresh variable names. Names are of the form `base_k`
/// with a globally increasing `k`, so clauses renamed with the same
/// generator never share variables.
#[derive(Debug, Default)]
pub struct VarGen {
    next: u64,
}

impl VarGen {
    /// Creates a generator starting at suffix 0.
    pub fn new() -> VarGen {
        VarGen::default()
    }

    /// Returns a fresh variable name based on `base` (its existing numeric
    /// suffix, if any, is kept — only uniqueness matters).
    pub fn fresh(&mut self, base: &str) -> String {
        let stem: &str = base.split("__").next().unwrap_or(base);
        let n = self.next;
        self.next += 1;
        format!("{stem}__{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_denial;

    #[test]
    fn vars_and_params() {
        let d = parse_denial("<- rev(Ir,_,_,R) & sub(Is,_,Ir,$t) & R != $n").unwrap();
        let vs = d.vars();
        assert!(vs.contains(&"Ir".to_string()));
        assert!(vs.contains(&"R".to_string()));
        assert!(vs.contains(&"Is".to_string()));
        assert_eq!(d.params(), vec!["t", "n"]);
    }

    #[test]
    fn rename_apart_disjoint() {
        let d = parse_denial("<- p(X,Y) & q(Y,Z)").unwrap();
        let mut g = VarGen::new();
        let r1 = d.rename_apart(&mut g);
        let r2 = d.rename_apart(&mut g);
        let v1: std::collections::HashSet<_> = r1.vars().into_iter().collect();
        let v2: std::collections::HashSet<_> = r2.vars().into_iter().collect();
        assert!(v1.is_disjoint(&v2));
        assert!(r1.is_variant_of(&d));
    }

    #[test]
    fn instantiate_params() {
        let d = parse_denial("<- p($i, Y) & Y != $t").unwrap();
        let mut b = HashMap::new();
        b.insert("i".to_string(), Value::from(7));
        let out = d.instantiate(&b);
        assert_eq!(out.to_string(), "<- p(7, Y) & Y != $t");
    }

    #[test]
    fn variant_detects_renaming_and_reordering() {
        let a = parse_denial("<- p(X,Y) & q(Y)").unwrap();
        let b = parse_denial("<- q(B) & p(A,B)").unwrap();
        assert!(a.is_variant_of(&b));
        let c = parse_denial("<- p(X,X) & q(X)").unwrap();
        assert!(!a.is_variant_of(&c));
    }

    #[test]
    fn variant_respects_constants_in_strings() {
        // Uppercase letters inside string constants must not be treated as
        // variables by the canonical key.
        let a = parse_denial("<- p(X, \"Goofy\")").unwrap();
        let b = parse_denial("<- p(X, \"Duckburg\")").unwrap();
        assert!(!a.is_variant_of(&b));
    }

    #[test]
    fn canonical_key_does_not_split_param_names() {
        // `$v0_0` and `$v0_1` are distinct parameters; the underscore must
        // not start a spurious variable token.
        let a = parse_denial("<- $v0_0 >= 3").unwrap();
        let b = parse_denial("<- $v0_1 >= 3").unwrap();
        assert_ne!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn empty_denial_displays_true() {
        assert_eq!(Denial::always_violated().to_string(), "<- true");
    }
}
