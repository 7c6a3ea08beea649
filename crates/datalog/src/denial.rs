//! Denials: headless clauses expressing integrity constraints.

use crate::atom::Atom;
use crate::literal::Literal;
use crate::subst::Subst;
use crate::term::Term;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt::{self, Write};

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
        let mut names: Vec<&str> = Vec::new();
        let mut out = String::with_capacity(joined.len());
        let mut rest = joined.as_str();
        // A variable token may only start where an identifier is not
        // already in progress (otherwise `$v0_0` would be split into a
        // parameter prefix and a spurious variable `_0`).
        let mut in_ident = false;
        while let Some(c) = rest.chars().next() {
            let len = if c == '"' {
                // Skip string literal verbatim.
                in_ident = false;
                let len = rest[1..].find('"').map_or(rest.len(), |j| j + 2);
                out.push_str(&rest[..len]);
                len
            } else if !in_ident && (c.is_ascii_uppercase() || c == '_') {
                let len = rest
                    .find(|d: char| !(d.is_ascii_alphanumeric() || d == '_'))
                    .unwrap_or(rest.len());
                let name = &rest[..len];
                if rest[len..].starts_with('(') {
                    // A predicate named like a variable: an XML tag may
                    // start with a capital or an underscore.
                    out.push_str(name);
                } else {
                    let idx = names.iter().position(|n| *n == name).unwrap_or_else(|| {
                        names.push(name);
                        names.len() - 1
                    });
                    let _ = write!(out, "V{idx}");
                }
                len
            } else {
                in_ident = c.is_ascii_alphanumeric() || c == '_' || c == '$';
                out.push(c);
                c.len_utf8()
            };
            rest = &rest[len..];
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

    /// Skips `n` names, as `n` calls of [`VarGen::fresh`] would.
    pub fn skip(&mut self, n: usize) {
        self.next += n as u64;
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
    fn instantiate_params() {
        let d = parse_denial("<- p($i, Y) & Y != $t").unwrap();
        let mut b = HashMap::new();
        b.insert("i".to_string(), Value::from(7));
        let out = d.instantiate(&b);
        assert_eq!(out.to_string(), "<- p(7, Y) & Y != $t");
    }

    #[test]
    fn var_gen_names_are_fresh() {
        let mut g = VarGen::new();
        let names = [g.fresh("X"), g.fresh("X"), g.fresh("X__0"), g.fresh("Y")];
        assert_eq!(names, ["X__0", "X__1", "X__2", "Y__3"]);
        g.skip(2);
        assert_eq!(g.fresh("Z"), "Z__6");
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
