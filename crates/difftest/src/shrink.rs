//! Greedy test-case minimization: drop statement operations one at a
//! time, then prune document subtrees largest-first, keeping every change
//! that preserves the original oracle failure.
//!
//! Candidate documents must stay well-formed, DTD-valid, and
//! constraint-consistent — otherwise the shrunk case could "fail" for a
//! confounded reason (the paper's Σ-consistency precondition would no
//! longer hold) and the minimized reproducer would be misleading.

use crate::{check_case, Case};
use xic_xml::{parse_document, serialize, Dtd, NodeId};
use xicheck::Checker;

/// Upper bound on document-prune attempts per discrepancy (each attempt
/// re-runs the full oracle stack).
const MAX_PRUNE_ATTEMPTS: usize = 160;

/// Minimizes `case`, preserving failure of `oracle`. Every attempted
/// reduction increments the `difftest_shrink_step` tally.
pub fn minimize(case: &Case, oracle: &'static str) -> Case {
    let mut cur = case.clone();
    // Pass 1: drop whole operations.
    let mut i = 0;
    while cur.ops.len() > 1 && i < cur.ops.len() {
        let mut cand = cur.clone();
        cand.ops.remove(i);
        if still_fails(&cand, oracle) {
            cur = cand;
        } else {
            i += 1;
        }
    }
    // Pass 2: prune document subtrees, largest first.
    let mut attempts = 0;
    let mut progress = true;
    while progress && attempts < MAX_PRUNE_ATTEMPTS {
        progress = false;
        let Ok((doc, _)) = parse_document(&cur.doc_xml) else {
            break;
        };
        let Some(root) = doc.root_element() else {
            break;
        };
        // Element indices in a fixed traversal order; re-parsing the same
        // text reproduces identical NodeIds, so indices stay meaningful.
        let mut candidates: Vec<NodeId> = doc
            .descendants(root)
            .filter(|&n| doc.name(n).is_some())
            .collect();
        candidates.sort_by_key(|&n| std::cmp::Reverse(doc.descendants(n).count()));
        for target in candidates {
            attempts += 1;
            if attempts >= MAX_PRUNE_ATTEMPTS {
                break;
            }
            let mut pruned = doc.clone();
            pruned.detach(target);
            let mut cand = cur.clone();
            cand.doc_xml = serialize(&pruned);
            if valid_case(&cand) && still_fails(&cand, oracle) {
                cur = cand;
                progress = true;
                break;
            }
        }
    }
    cur
}

/// A candidate must keep the case's preconditions: parse, validate
/// against the DTD, and satisfy the constraints initially.
fn valid_case(case: &Case) -> bool {
    let Ok((doc, _)) = parse_document(&case.doc_xml) else {
        return false;
    };
    let Ok(dtd) = Dtd::parse(&case.dtd) else {
        return false;
    };
    if dtd.validate(&doc).is_err() {
        return false;
    }
    match Checker::new(&case.doc_xml, &case.dtd, &case.constraints) {
        Ok(checker) => matches!(checker.check_full(), Ok(None)),
        Err(_) => false,
    }
}

fn still_fails(case: &Case, oracle: &'static str) -> bool {
    crate::tally::incr(crate::tally::Tally::ShrinkStep);
    matches!(check_case(case), Err((o, _)) if o == oracle)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic failing case: the constraint machinery is healthy, but
    /// we minimize against the "generator" oracle by handing `minimize` a
    /// case whose statement does not parse — every op-drop keeps failing,
    /// so the shrinker must reduce to a single op.
    #[test]
    fn shrinks_ops_to_one_when_failure_persists() {
        let case = Case {
            seed: 0,
            mode: "paper",
            dtd: crate::PAPER_DTD.to_string(),
            doc_xml: "<collection><dblp><pub><title>P</title><aut><name>a</name></aut></pub>\
                      </dblp><review><track><name>T</name><rev><name>r</name>\
                      <sub><title>S</title><auts><name>b</name></auts></sub></rev>\
                      </track></review></collection>"
                .to_string(),
            constraints: xic_workload::conflict_constraint().to_string(),
            ops: vec![
                "<xupdate:frobnicate select=\"/x\"/>".to_string(),
                "<xupdate:frobnicate select=\"/y\"/>".to_string(),
                "<xupdate:frobnicate select=\"/z\"/>".to_string(),
            ],
        };
        let (oracle, _) = check_case(&case).expect_err("case must fail");
        assert_eq!(oracle, "generator");
        let min = minimize(&case, oracle);
        assert_eq!(min.ops.len(), 1, "ops not minimized: {:?}", min.ops);
        assert!(matches!(check_case(&min), Err(("generator", _))));
    }
}
