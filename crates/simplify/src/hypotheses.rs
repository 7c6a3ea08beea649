//! Automatic generation of trusted hypotheses Δ from an update pattern.
//!
//! In Example 6 the fact that `is` and `ia` are *new* node identifiers is
//! expressed as extra hypotheses: `← sub(is,_,_,_)`, `← auts(_,_,is,_)`,
//! `← auts(ia,_,_,_)`. This module derives exactly that shape from any
//! update pattern: for every parameter declared fresh,
//!
//! * if it occurs in the **id column** (first argument) of an added atom on
//!   predicate `p`, the present state contains no `p` tuple with that id;
//! * if it occurs in the **parent column** (third argument) of an added
//!   atom on `p`, the present state contains no `p` tuple with that parent
//!   (the parent is itself a new node, so it has no pre-existing children).
//!
//! Both follow from node-id freshness in the XML store, where identifiers
//! are allocated from a monotone counter and never reused.

use std::collections::{BTreeSet, HashSet};
use xic_datalog::{Atom, Denial, Literal, Term, Update};

/// Column layout constants of the XML relational mapping (Section 4.1).
const ID_COL: usize = 0;
/// Parent-id column in the XML relational mapping.
const PARENT_COL: usize = 2;

/// Generates freshness hypotheses for `update`, where `fresh_params` names
/// the parameters standing for newly allocated node ids.
pub fn freshness_hypotheses(update: &Update, fresh_params: &BTreeSet<String>) -> Vec<Denial> {
    let mut out: Vec<Denial> = Vec::new();
    let mut seen: HashSet<Denial> = HashSet::new();
    let mut push = |pred: &str, arity: usize, col: usize, param: &str| {
        let args: Vec<Term> = (0..arity)
            .map(|j| {
                if j == col {
                    Term::param(param)
                } else {
                    Term::var(format!("_F{j}"))
                }
            })
            .collect();
        let d = Denial::new(vec![Literal::Pos(Atom::new(pred, args))]);
        if seen.insert(d.canonical_key()) {
            out.push(d);
        }
    };
    for a in &update.additions {
        for col in [ID_COL, PARENT_COL] {
            if let Some(Term::Param(p)) = a.args.get(col) {
                if fresh_params.contains(p) {
                    push(&a.pred, a.args.len(), col, p);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_datalog::parse_update;

    #[test]
    fn example_6_hypotheses() {
        let u = parse_update("{sub($is, $ps, $ir, $t), auts($ia, $pa, $is, $n)}").unwrap();
        let fresh: BTreeSet<String> = ["is", "ia"].iter().map(|s| (*s).to_string()).collect();
        let hs = freshness_hypotheses(&u, &fresh);
        let strs: Vec<String> = hs.iter().map(std::string::ToString::to_string).collect();
        // sub id fresh, auts id fresh, auts parent fresh. $ir is not fresh
        // (it is the pre-existing target reviewer), so no sub-parent
        // hypothesis is produced.
        assert_eq!(hs.len(), 3, "{strs:?}");
        assert!(strs.iter().any(|s| s.starts_with("<- sub($is")), "{strs:?}");
        assert!(strs.iter().any(|s| s.starts_with("<- auts($ia")), "{strs:?}");
        assert!(
            strs.iter().any(|s| s.contains("auts(") && s.contains("$is)")
                || s.contains("auts(_F0, _F1, $is")),
            "{strs:?}"
        );
    }

    #[test]
    fn no_fresh_params_no_hypotheses() {
        let u = parse_update("{p($a, $b, $c, $d)}").unwrap();
        assert!(freshness_hypotheses(&u, &BTreeSet::new()).is_empty());
    }

    #[test]
    fn short_atoms_without_parent_column() {
        let u = parse_update("{p($a)}").unwrap();
        let fresh: BTreeSet<String> = std::iter::once("a".to_string()).collect();
        let hs = freshness_hypotheses(&u, &fresh);
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].to_string(), "<- p($a)");
    }
}
