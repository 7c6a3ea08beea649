//! Datalog substrate for XML integrity checking.
//!
//! This crate implements the relational side of the EDBT 2006 pipeline:
//! integrity constraints are *denials* — headless Datalog clauses whose body
//! must never be satisfiable — over a flat relational image of an XML
//! document (see `xic-mapping` for the shredding).
//!
//! The pieces provided here:
//!
//! * [`Value`], [`Term`], [`Var`]: constants, variables and *parameters*
//!   (the boldface placeholders of the paper, standing for update-time
//!   values); a variable is a value, spelled only when printed;
//! * [`Atom`], [`Literal`], [`Denial`]: clause syntax, including built-in
//!   comparisons and aggregate literals (`Cnt`, `Cnt_D`, `Sum`, `Max`,
//!   `Min`) over conjunctive patterns;
//! * [`Database`]: an in-memory relational store with per-column indexes;
//! * [`eval`]: a backtracking conjunctive-query evaluator used as the
//!   ground-truth semantics (Theorem 1 of the paper is property-tested
//!   against it);
//! * [`parse`]: a compact text syntax for denials, used pervasively in
//!   tests, examples and documentation.
//!
//! In the system-inventory table of `DESIGN.md` this crate is item 6 (Datalog substrate).

pub mod atom;
pub mod denial;
pub mod eval;
pub mod literal;
pub mod parse;
pub mod pretty;
pub mod store;
pub mod subst;
pub mod term;
pub mod value;

pub use atom::Atom;
pub use denial::Denial;
pub use eval::{denial_holds, denials_hold, find_violation, EvalError};
pub use literal::{AggFunc, Aggregate, CompOp, Literal};
pub use parse::{parse_denial, parse_denials, parse_update, ParseError};
pub use store::{Database, Relation};
pub use subst::Subst;
pub use term::{Term, Var, VarGen};
pub use value::Value;

/// An update transaction: a set of ground-modulo-parameters atoms that will
/// be **added** to the database (the paper restricts itself to insertions,
/// "consistently with the fact that XML documents typically grow").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Update {
    /// Tuples to be inserted. Arguments are constants or parameters.
    pub additions: Vec<Atom>,
}

impl Update {
    /// Creates an update from a list of addition atoms.
    ///
    /// # Panics
    /// Panics if any atom contains a variable: updates are ground modulo
    /// parameters by definition (Section 5 of the paper).
    pub fn new(additions: Vec<Atom>) -> Self {
        for a in &additions {
            for t in &a.args {
                assert!(
                    !matches!(t, Term::Var(_)),
                    "update atoms must not contain variables: {a}"
                );
            }
        }
        Update { additions }
    }

    /// All additions whose predicate is `pred`.
    pub fn additions_on<'a>(&'a self, pred: &'a str) -> impl Iterator<Item = &'a Atom> + 'a {
        self.additions.iter().filter(move |a| a.pred == pred)
    }

    /// The set of predicate names touched by this update.
    pub fn predicates(&self) -> std::collections::BTreeSet<&str> {
        self.additions.iter().map(|a| a.pred.as_str()).collect()
    }

    /// Names of all parameters occurring in the update, in first-occurrence
    /// order.
    pub fn parameters(&self) -> Vec<String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for a in &self.additions {
            for t in &a.args {
                if let Term::Param(p) = t {
                    if seen.insert(p.clone()) {
                        out.push(p.clone());
                    }
                }
            }
        }
        out
    }

    /// Substitutes parameters with concrete values, producing a fully ground
    /// update ready to be applied to a [`Database`].
    ///
    /// Returns an error naming the first parameter missing from `bindings`.
    pub fn instantiate(
        &self,
        bindings: &std::collections::HashMap<String, Value>,
    ) -> Result<Update, String> {
        let mut additions = Vec::with_capacity(self.additions.len());
        for a in &self.additions {
            let mut args = Vec::with_capacity(a.args.len());
            for t in &a.args {
                match t {
                    Term::Param(p) => match bindings.get(p) {
                        Some(v) => args.push(Term::Const(v.clone())),
                        None => return Err(format!("unbound parameter ${p}")),
                    },
                    other => args.push(other.clone()),
                }
            }
            additions.push(Atom::new(a.pred.clone(), args));
        }
        Ok(Update { additions })
    }

    /// Applies a fully ground update to `db`.
    ///
    /// # Panics
    /// Panics if the update still contains parameters; call
    /// [`Update::instantiate`] first.
    pub fn apply(&self, db: &mut Database) {
        for a in &self.additions {
            let tuple: Vec<Value> = a
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(v) => v.clone(),
                    other => panic!("cannot apply non-ground update term {other}"),
                })
                .collect();
            db.insert(&a.pred, tuple);
        }
    }
}

impl std::fmt::Display for Update {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.additions.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_parameters_in_order() {
        let u = parse_update("{sub($is, $ps, $ir, $t), auts($ia, $pa, $is, $n)}").unwrap();
        assert_eq!(u.parameters(), vec!["is", "ps", "ir", "t", "ia", "pa", "n"]);
    }

    #[test]
    fn update_instantiate_and_apply() {
        let u = parse_update("{p($i, $t)}").unwrap();
        let mut b = std::collections::HashMap::new();
        b.insert("i".to_string(), Value::from(7));
        b.insert("t".to_string(), Value::from("x"));
        let g = u.instantiate(&b).unwrap();
        let mut db = Database::new();
        g.apply(&mut db);
        assert_eq!(db.relation("p").unwrap().len(), 1);
    }

    #[test]
    fn update_instantiate_missing_param() {
        let u = parse_update("{p($i)}").unwrap();
        let err = u.instantiate(&std::collections::HashMap::new()).unwrap_err();
        assert!(err.contains("$i"), "{err}");
    }

    #[test]
    #[should_panic(expected = "must not contain variables")]
    fn update_rejects_variables() {
        Update::new(vec![Atom::new("p", vec![Term::var("X")])]);
    }
}
