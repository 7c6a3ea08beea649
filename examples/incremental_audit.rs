//! A longer-running scenario: stream a batch of generated update
//! statements through the checker and audit how each strategy performed —
//! the operational view of Section 7's two scenarios.
//!
//! Run with `cargo run --release --example incremental_audit`.

use xic_workload::{generate, WorkloadConfig};
use xicheck::{Checker, Strategy, UpdateOutcome};

fn main() {
    let w = generate(WorkloadConfig::sized_kib(24, 7));
    let dtd = "<!ELEMENT collection (dblp, review)>\n<!ELEMENT dblp (pub)*>\n\
               <!ELEMENT pub (title, aut+)>\n<!ELEMENT aut (name)>\n\
               <!ELEMENT review (track)+>\n<!ELEMENT track (name,rev+)>\n\
               <!ELEMENT rev (name, sub+)>\n<!ELEMENT sub (title, auts+)>\n\
               <!ELEMENT title (#PCDATA)>\n<!ELEMENT auts (name)>\n\
               <!ELEMENT name (#PCDATA)>";
    let mut checker =
        Checker::new(&w.xml, dtd, xic_workload::conflict_constraint()).expect("setup");
    println!(
        "corpus: {} KiB, {} tracks x {} reviewers x {} submissions",
        w.xml.len() / 1024,
        w.config.tracks,
        w.config.revs_per_track,
        w.config.subs_per_rev
    );

    // Register the single-author submission pattern once, up front.
    checker
        .register_pattern_str(&xic_workload::legal_insert(0, 0, 1))
        .expect("pattern");

    let mut applied = 0usize;
    let mut rejected = 0usize;
    let mut serial = 100_000;
    for round in 0..40 {
        let track = round % w.config.tracks;
        let rev = round % w.config.revs_per_track;
        // Every 4th statement tries to sneak in a self-review.
        let stmt = if round % 4 == 3 {
            xic_workload::illegal_insert(track, rev, &w.reviewers[track][rev])
        } else {
            serial += 1;
            xic_workload::legal_insert(track, rev, serial)
        };
        match checker.try_update_str(&stmt).expect("update") {
            UpdateOutcome::Applied { strategy } => {
                assert_eq!(strategy, Strategy::Optimized);
                applied += 1;
            }
            UpdateOutcome::Rejected { strategy, violation } => {
                assert_eq!(strategy, Strategy::Optimized);
                rejected += 1;
                if rejected == 1 {
                    println!("first rejection: {}", violation.denial);
                }
            }
        }
    }
    // Every rejection was early: no rollback ever needed.
    println!("applied: {applied}, rejected early: {rejected}");
    assert_eq!(applied, 30);
    assert_eq!(rejected, 10);

    // Final audit: the document really is still consistent.
    let v = checker.check_full().expect("full check");
    println!("final full check: {}", if v.is_none() { "consistent" } else { "violated!" });
    assert!(v.is_none());
}
