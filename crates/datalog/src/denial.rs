//! Denials: headless clauses expressing integrity constraints.

use crate::literal::Literal;
use crate::term::{Term, Var, VarGen};
use std::collections::HashMap;
use std::fmt;
use std::sync::LazyLock;

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

    /// A canonical form for variant comparison: the literals sorted by
    /// their rendering, each variable replaced by the number of its first
    /// occurrence in that order.
    pub fn canonical_key(&self) -> Denial {
        static NUMBERED: LazyLock<Var> = LazyLock::new(|| Var::new("V"));
        let mut sorted: Vec<&Literal> = self.body.iter().collect();
        sorted.sort_by_cached_key(|l| l.to_string());
        let (mut numbers, mut numbered) = (VarGen::default(), HashMap::new());
        let mut body = Vec::with_capacity(sorted.len());
        for l in sorted {
            let mut key = l.clone();
            for (t, k) in l.terms().zip(key.terms_mut()) {
                if let Term::Var(v) = t {
                    let n = numbered.entry(v).or_insert_with(|| numbers.fresh(&NUMBERED));
                    *k = Term::Var(n.clone());
                }
            }
            body.push(key);
        }
        Denial::new(body)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::parse::parse_denial;

    #[test]
    fn variant_detects_renaming_and_reordering() {
        let a = parse_denial("<- p(X,Y) & q(Y)").unwrap();
        let b = parse_denial("<- q(B) & p(A,B)").unwrap();
        assert!(a.is_variant_of(&b));
        let c = parse_denial("<- p(X,X) & q(X)").unwrap();
        assert!(!a.is_variant_of(&c));
    }

    #[test]
    fn variant_keeps_predicates_named_like_variables() {
        let on = |pred: &str, var: &str| {
            Denial::new(vec![Literal::Pos(Atom::new(pred, vec![Term::var(var)]))])
        };
        assert!(!on("Book", "X").is_variant_of(&on("Paper", "X")));
        assert!(!on("_b", "X").is_variant_of(&on("_p", "X")));
        assert!(on("Book", "X").is_variant_of(&on("Book", "Y")));
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
    fn variant_respects_escaped_quotes_in_constants() {
        // Read back from rendered text, `Foo` and `Bar` after an escaped
        // quote were numbered as one variable.
        let on = |c: &str| {
            Denial::new(vec![Literal::Pos(Atom::new("p", vec![Term::var("X"), Term::str(c)]))])
        };
        assert!(!on("a \"Foo\" b").is_variant_of(&on("a \"Bar\" b")));
        assert!(on("a \"Foo\" b").is_variant_of(&on("a \"Foo\" b")));
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
