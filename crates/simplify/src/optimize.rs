//! The `Optimize_Δ` operator: redundancy elimination against trusted
//! hypotheses.
//!
//! Given a set of denials (typically the output of
//! [`after`](crate::after::after)) and a set Δ of denials known to hold in
//! the present state (the original constraints plus, e.g., node-id
//! freshness hypotheses), `optimize`:
//!
//! 1. normalizes every denial with [`reduce`],
//!    discarding trivially satisfied ones;
//! 2. de-duplicates variants;
//! 3. removes every denial subsumed by a hypothesis in Δ (it is redundant
//!    in any state consistent with Δ);
//! 4. removes every denial subsumed by another kept denial.
//!
//! Each step only ever shrinks clauses or the clause set, so the procedure
//! terminates trivially — the restriction-to-unit-proofs counterpart of
//! the size-restricted resolution proofs of \[16\].

use crate::reduce::{reduce, Reduced};
use crate::subsume::Prepared;
use std::collections::HashSet;
use xic_datalog::Denial;

/// Runs `Optimize_Δ` over `denials`. The hypotheses `delta` are assumed to
/// hold in the state where the result will be evaluated.
pub fn optimize(denials: Vec<Denial>, delta: &[Denial]) -> Vec<Denial> {
    // Phase 1 + 2: reduce and de-duplicate.
    let mut list: Vec<Denial> = Vec::with_capacity(denials.len());
    let mut seen: HashSet<Denial> = HashSet::new();
    for d in denials {
        if let Reduced::Denial(r) = reduce(d) {
            if seen.insert(r.canonical_key()) {
                list.push(r);
            }
        }
    }
    optimize_reduced(list, delta)
}

/// Phases 3 and 4 of [`optimize`], over denials already reduced and
/// de-duplicated — what [`after`](crate::after::after) returns. Every
/// clause and hypothesis is prepared for subsumption once.
pub(crate) fn optimize_reduced(list: Vec<Denial>, delta: &[Denial]) -> Vec<Denial> {
    // Phase 3: hypothesis subsumption. Hypotheses are reduced first so
    // that, e.g., `← q(X,X,Y) ∧ X=X` still subsumes its own normal form.
    let delta: Vec<Denial> = delta
        .iter()
        .filter_map(|h| reduce(h.clone()).into_denial())
        .collect();
    let hypotheses: Vec<Prepared> = delta.iter().map(Prepared::new).collect();
    let prepared: Vec<Prepared> = list.iter().map(Prepared::new).collect();
    let mut order: Vec<usize> = (0..list.len())
        .filter(|&i| !hypotheses.iter().any(|h| h.subsumes(&prepared[i])))
        .collect();

    // Phase 4: internal subsumption. Shorter clauses are stronger
    // subsumers, so process in ascending body length (a stable sort: the
    // first of equally long variants survives); a clause is dropped if an
    // already-kept clause subsumes it.
    order.sort_by_key(|&i| list[i].body.len());
    let mut kept: Vec<usize> = Vec::with_capacity(order.len());
    for i in order {
        if !kept.iter().any(|&k| prepared[k].subsumes(&prepared[i])) {
            kept.push(i);
        }
    }
    xic_obs::add(
        xic_obs::Counter::DenialsSubsumed,
        (list.len() - kept.len()) as u64,
    );
    let mut list: Vec<Option<Denial>> = list.into_iter().map(Some).collect();
    kept.iter().filter_map(|&i| list[i].take()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_datalog::{parse_denial, parse_denials};

    fn opt(input: &str, delta: &str) -> Vec<String> {
        let ds = parse_denials(input).unwrap();
        let hs = parse_denials(delta).unwrap();
        optimize(ds, &hs)
            .iter()
            .map(std::string::ToString::to_string)
            .collect()
    }

    #[test]
    fn removes_copies_of_hypotheses() {
        let out = opt("<- p(X, Y) & p(X, Z) & Y != Z", "<- p(A, B) & p(A, C) & B != C");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn removes_tautologies_and_duplicates() {
        let out = opt(
            "<- p(X) & 1 = 2. <- p(X) & q(X). <- p(A) & q(A).",
            "",
        );
        assert_eq!(out, vec!["<- p(X) & q(X)"]);
    }

    #[test]
    fn internal_subsumption_keeps_strongest() {
        let out = opt("<- p(X) & q(X). <- p(Y).", "");
        assert_eq!(out, vec!["<- p(Y)"]);
    }

    #[test]
    fn freshness_hypothesis_removal() {
        let ds = parse_denials("<- rev(Ir,_,_,$n) & sub($is,_,Ir,_). <- rev($ir,_,_,$n).")
            .unwrap();
        let hs = parse_denials("<- sub($is,_,_,_)").unwrap();
        let out = optimize(ds, &hs);
        assert_eq!(out.len(), 1, "{out:?}");
        let want = parse_denial("<- rev($ir,_,_,$n)").unwrap();
        assert!(crate::subsume::variants(&out[0], &want), "{}", out[0]);
    }

    #[test]
    fn empty_body_denial_dominates() {
        let out = opt("<- true. <- p(X).", "");
        assert_eq!(out, vec!["<- true"]);
    }

    #[test]
    fn keeps_unrelated_denials() {
        let out = opt("<- p(X). <- q(X).", "<- r(X)");
        assert_eq!(out.len(), 2);
    }
}
