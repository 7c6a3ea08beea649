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

/// An update transaction: ground-modulo-parameters atoms that will be
/// **added** to the database (the paper restricts itself to insertions,
/// "consistently with the fact that XML documents typically grow") and,
/// for a modification, the tuples it deletes first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Update {
    /// Tuples to be inserted. Arguments are constants or parameters.
    pub additions: Vec<Atom>,
    /// Tuples to be deleted, each named in full. The first column is a key
    /// of its relation (an XML node id), so a removal is identified by it
    /// alone: the surviving tuples of `p` are `p(t̄) ∧ t₁ ≠ r₁`. A text
    /// update is the removal of its owner's tuple plus the addition of the
    /// tuple with the new value under the same id.
    pub removals: Vec<Atom>,
}

impl Update {
    /// Creates an update from a list of addition atoms.
    ///
    /// # Panics
    /// Panics if any atom contains a variable: updates are ground modulo
    /// parameters by definition (Section 5 of the paper).
    pub fn new(additions: Vec<Atom>) -> Self {
        Update::modification(Vec::new(), additions)
    }

    /// Creates an update that deletes `removals`, then adds `additions`.
    ///
    /// # Panics
    /// Panics if any atom contains a variable, as [`Update::new`] does.
    pub fn modification(removals: Vec<Atom>, additions: Vec<Atom>) -> Self {
        for a in removals.iter().chain(&additions) {
            for t in &a.args {
                assert!(
                    !matches!(t, Term::Var(_)),
                    "update atoms must not contain variables: {a}"
                );
            }
        }
        Update { additions, removals }
    }

    /// All additions whose predicate is `pred`.
    pub fn additions_on<'a>(&'a self, pred: &'a str) -> impl Iterator<Item = &'a Atom> + 'a {
        self.additions.iter().filter(move |a| a.pred == pred)
    }

    /// All removals whose predicate is `pred`.
    pub fn removals_on<'a>(&'a self, pred: &'a str) -> impl Iterator<Item = &'a Atom> + 'a {
        self.removals.iter().filter(move |a| a.pred == pred)
    }

    /// The set of predicate names touched by this update.
    pub fn predicates(&self) -> std::collections::BTreeSet<&str> {
        self.atoms().map(|a| a.pred.as_str()).collect()
    }

    /// Removals, then additions.
    fn atoms(&self) -> impl Iterator<Item = &Atom> {
        self.removals.iter().chain(&self.additions)
    }

    /// Names of all parameters occurring in the update, in first-occurrence
    /// order (removals first).
    pub fn parameters(&self) -> Vec<String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for a in self.atoms() {
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
        let ground = |atoms: &[Atom]| -> Result<Vec<Atom>, String> {
            let mut out = Vec::with_capacity(atoms.len());
            for a in atoms {
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
                out.push(Atom::new(a.pred.clone(), args));
            }
            Ok(out)
        };
        Ok(Update { additions: ground(&self.additions)?, removals: ground(&self.removals)? })
    }

    /// Applies a fully ground update to `db`: the removals, then the
    /// additions.
    ///
    /// # Panics
    /// Panics if the update still contains parameters; call
    /// [`Update::instantiate`] first.
    pub fn apply(&self, db: &mut Database) {
        let tuple = |a: &Atom| -> Vec<Value> {
            a.args
                .iter()
                .map(|t| match t {
                    Term::Const(v) => v.clone(),
                    other => panic!("cannot apply non-ground update term {other}"),
                })
                .collect()
        };
        for a in &self.removals {
            db.remove(&a.pred, &tuple(a));
        }
        for a in &self.additions {
            db.insert(&a.pred, tuple(a));
        }
    }
}

impl std::fmt::Display for Update {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        let removals = self.removals.iter().map(|a| ("-", a));
        for (i, (sign, a)) in removals.chain(self.additions.iter().map(|a| ("", a))).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{sign}{a}")?;
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
    fn a_modification_removes_before_it_adds() {
        let u = parse_update("{-p($i, $o), p($i, $t)}").unwrap();
        assert_eq!(u.to_string(), "{-p($i, $o), p($i, $t)}");
        assert_eq!(u.parameters(), vec!["i", "o", "t"]);
        let b = [("i", 1.into()), ("o", "old".into()), ("t", "new".into())]
            .map(|(k, v): (&str, Value)| (k.to_string(), v))
            .into_iter()
            .collect();
        let mut db = Database::new();
        db.insert("p", vec![Value::from(1), Value::from("old")]);
        u.instantiate(&b).unwrap().apply(&mut db);
        assert!(db.contains("p", &[Value::from(1), Value::from("new")]));
        assert_eq!(db.relation("p").unwrap().len(), 1);
    }

    #[test]
    #[should_panic(expected = "must not contain variables")]
    fn update_rejects_variables() {
        Update::new(vec![Atom::new("p", vec![Term::var("X")])]);
    }
}
