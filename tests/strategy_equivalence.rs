//! System-level property: for every insertion statement, the optimized
//! strategy (simplified pre-update check) and the baseline strategy
//! (apply to a copy + full check) must take the same accept/reject
//! decision and leave equivalent documents behind.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xic_workload::{generate, WorkloadConfig};
use xic_xml::{serialize, Document, XUpdateDoc, XUpdateOp};
use xicheck::{Checker, CheckerError, Strategy};

const DTD: &str = "<!ELEMENT collection (dblp, review)>\n<!ELEMENT dblp (pub)*>\n\
    <!ELEMENT pub (title, aut+)>\n<!ELEMENT aut (name)>\n\
    <!ELEMENT review (track)+>\n<!ELEMENT track (name,rev+)>\n\
    <!ELEMENT rev (name, sub+)>\n<!ELEMENT sub (title, auts+)>\n\
    <!ELEMENT title (#PCDATA)>\n<!ELEMENT auts (name)>\n\
    <!ELEMENT name (#PCDATA)>";

/// Applies the baseline strategy by hand: apply to a copy of the
/// checker's document and evaluate every full-check query on the copy.
/// Returns the copy when no constraint is violated.
fn baseline_decide(checker: &Checker, stmt: &XUpdateDoc) -> Option<Document> {
    let mut copy = checker.doc().clone();
    xic_xml::apply(&mut copy, stmt, &xicheck::xpath_resolver)
        .map_err(|(e, _)| e)
        .expect("statement applies");
    let violated = checker.full_queries().iter().any(|q| {
        let query = xic_xquery::parse_query(&q.text).expect("full check parses");
        xic_xquery::eval_query_exists(&query, &copy).expect("full check")
    });
    (!violated).then_some(copy)
}

fn submission_stmt(track: usize, rev: usize, authors: &[String]) -> String {
    let auts: String = authors
        .iter()
        .map(|a| format!("<auts><name>{a}</name></auts>"))
        .collect();
    format!(
        r#"<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:append select="/collection/review/track[{}]/rev[{}]">
    <sub><title>prop</title>{auts}</sub>
  </xupdate:append>
</xupdate:modifications>"#,
        track + 1,
        rev + 1
    )
}

fn op_kind(op: &XUpdateOp) -> &'static str {
    match op {
        XUpdateOp::InsertBefore { .. } => "insert-before",
        XUpdateOp::InsertAfter { .. } => "insert-after",
        XUpdateOp::Append { .. } => "append",
        XUpdateOp::Remove { .. } => "remove",
        XUpdateOp::Update { .. } => "update",
        XUpdateOp::Rename { .. } => "rename",
    }
}

/// The whole update language, not just insertions: statements drawn from
/// the workload's random generator (all six operation kinds, including
/// multi-op batches) must get the same verdict from `try_update` — which
/// picks the optimized path when it can and the baseline otherwise — as
/// from the explicit baseline `decide_only(FullWithRollback)`, with
/// agreement extending to statement errors and final document states.
#[test]
fn all_op_kinds_agree_with_rollback_decision() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let w = generate(WorkloadConfig::sized_kib(8, 7));
    let constraint = xic_workload::conflict_constraint();
    let mut kinds_seen = std::collections::BTreeSet::new();
    for i in 0..120 {
        let stmt_text = if i % 4 == 0 {
            xic_workload::random_batch(&mut rng, &w, 2)
        } else {
            xic_workload::random_statement(&mut rng, &w)
        };
        let stmt = XUpdateDoc::parse(&stmt_text).unwrap();
        for op in &stmt.ops {
            kinds_seen.insert(op_kind(op));
        }

        let mut opt = Checker::new(&w.xml, DTD, constraint).unwrap();
        let base = Checker::new(&w.xml, DTD, constraint).unwrap();
        let decision = base.decide_only(&stmt, Strategy::FullWithRollback);
        assert_eq!(
            serialize(base.doc()),
            w.xml,
            "decide_only must leave the document untouched (case {i})"
        );
        let outcome = opt.try_update(&stmt);
        match (&decision, &outcome) {
            (Err(CheckerError::Statement(_)), Err(CheckerError::Statement(_))) => {
                assert_eq!(
                    serialize(opt.doc()),
                    w.xml,
                    "failed statement must be rolled back (case {i}: {stmt_text})"
                );
            }
            (Ok(verdict), Ok(out)) => {
                assert_eq!(
                    verdict.is_none(),
                    out.applied(),
                    "strategies disagree (case {i}: {stmt_text})"
                );
                if out.applied() {
                    // The accepted final state must equal plain application.
                    let (mut plain, _) = xic_xml::parse_document(&w.xml).unwrap();
                    xic_xml::apply(&mut plain, &stmt, &xicheck::xpath_resolver)
                        .map_err(|(e, _)| e)
                        .expect("accepted statement applies plainly");
                    assert_eq!(
                        serialize(opt.doc()),
                        serialize(&plain),
                        "final state diverges from plain application (case {i})"
                    );
                } else {
                    assert_eq!(
                        serialize(opt.doc()),
                        w.xml,
                        "rejected statement must leave the document untouched (case {i})"
                    );
                }
            }
            (d, o) => panic!("divergent failure modes (case {i}: {stmt_text}): {d:?} vs {o:?}"),
        }
    }
    assert_eq!(
        kinds_seen.len(),
        6,
        "all six operation kinds must occur; saw {kinds_seen:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn optimized_equals_baseline(
        seed in 0u64..500,
        track_pick in 0usize..8,
        rev_pick in 0usize..8,
        // Author selection: indexes into the name pool (biased low, like
        // the generator) plus sometimes the reviewer's own name.
        author_kind in 0usize..4,
        author_idx in 0usize..80,
    ) {
        let w = generate(WorkloadConfig::sized_kib(8, seed));
        let track = track_pick % w.config.tracks;
        let rev = rev_pick % w.config.revs_per_track;
        let reviewer = w.reviewers[track][rev].clone();
        let author = match author_kind {
            0 => reviewer.clone(),                    // guaranteed conflict
            1 => format!("newcomer{author_idx:05}"),  // guaranteed fresh
            _ => format!("author{author_idx:05}"),    // pool member: maybe a coauthor
        };
        let stmt_text = submission_stmt(track, rev, &[author]);
        let stmt = XUpdateDoc::parse(&stmt_text).unwrap();

        let mut optimized = Checker::new(&w.xml, DTD, xic_workload::conflict_constraint()).unwrap();
        let baseline = Checker::new(&w.xml, DTD, xic_workload::conflict_constraint()).unwrap();

        let out = optimized.try_update(&stmt).unwrap();
        prop_assert_eq!(
            out.strategy(),
            xicheck::Strategy::Optimized,
            "insertions must use the optimized path"
        );
        let accepted_baseline = baseline_decide(&baseline, &stmt);
        prop_assert_eq!(
            out.applied(),
            accepted_baseline.is_some(),
            "strategies disagree on {}",
            stmt_text
        );
        // When both accept, the resulting documents are identical.
        if let Some(copy) = accepted_baseline {
            prop_assert_eq!(serialize(optimized.doc()), serialize(&copy));
        } else {
            // When both reject, the optimized document is untouched.
            prop_assert_eq!(serialize(optimized.doc()), w.xml.clone());
        }
        // The baseline decided on a copy.
        prop_assert_eq!(serialize(baseline.doc()), w.xml.clone());
    }

    #[test]
    fn aggregate_strategy_agreement(
        seed in 0u64..200,
        extra in 1usize..4,
    ) {
        // Review-load constraint: inserting `extra` submissions at once is
        // legal iff subs_per_rev + extra <= bound.
        let w = generate(WorkloadConfig::sized_kib(8, seed));
        let bound = w.config.subs_per_rev + 2;
        let constraint = xic_workload::review_load_constraint(bound);
        let authors: Vec<String> = (0..extra).map(|i| format!("fresh{i:03}")).collect();
        let stmt = XUpdateDoc::parse(&submission_stmt(0, 0, &[authors[0].clone()])).unwrap();
        // Build a multi-sub statement by appending each author separately
        // in one modifications document.
        let subs: String = authors
            .iter()
            .map(|a| format!(
                "<xupdate:append select=\"/collection/review/track[1]/rev[1]\">\
                 <sub><title>b</title><auts><name>{a}</name></auts></sub></xupdate:append>"
            ))
            .collect();
        let multi = XUpdateDoc::parse(&format!(
            "<xupdate:modifications xmlns:xupdate=\"x\">{subs}</xupdate:modifications>"
        ))
        .unwrap();
        let _ = stmt;

        let mut optimized = Checker::new(&w.xml, DTD, &constraint).unwrap();
        let baseline = Checker::new(&w.xml, DTD, &constraint).unwrap();
        let out = optimized.try_update(&multi).unwrap();
        let accepted_baseline = baseline_decide(&baseline, &multi).is_some();
        prop_assert_eq!(out.applied(), accepted_baseline);
        let expect_legal = w.config.subs_per_rev + extra <= bound;
        prop_assert_eq!(out.applied(), expect_legal, "bound {}, extra {}", bound, extra);
    }
}
