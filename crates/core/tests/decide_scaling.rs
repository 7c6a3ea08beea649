//! The optimized pre-update check answered from the document's indexes:
//! how the work of one decision grows with the document, by counts —
//! engine steps repeat exactly, so nothing here can flake on a slow
//! host. Figure 1's shape (claim C1 of EXPERIMENTS.md): the optimized
//! decision stays flat while the full check doubles with the document;
//! C2: on a corpus whose reviewers' neighbourhood is fixed, every
//! decision is flat in size, the slowest too; C3: an illegal update is
//! rejected early at flat cost, far below copy + apply + full check.

use xic_workload::{
    conflict_constraint, generate, illegal_insert, legal_insert, review_load_constraint,
    workload_constraint, Workload, WorkloadConfig,
};
use xicheck::obs::{self, Counter};
use xicheck::protocol::{execute, Command};
use xicheck::{Checker, CheckerService, Executor, Strategy, XUpdateDoc};

const DTD: &str = "<!ELEMENT collection (dblp, review)>\n\
    <!ELEMENT dblp (pub)*>\n<!ELEMENT pub (title, aut+)>\n\
    <!ELEMENT aut (name)>\n<!ELEMENT review (track)+>\n\
    <!ELEMENT track (name,rev+)>\n<!ELEMENT rev (name, sub+)>\n\
    <!ELEMENT sub (title, auts+)>\n<!ELEMENT title (#PCDATA)>\n\
    <!ELEMENT auts (name)>\n<!ELEMENT name (#PCDATA)>";

fn steps() -> u64 {
    obs::counter(Counter::XpathNodesVisited) + obs::counter(Counter::XqueryBindingsVisited)
}

/// A `kib` KiB corpus under the suite's Γ, the `legal_insert` pattern
/// registered.
fn corpus(kib: usize) -> (Workload, Checker) {
    corpus_of(WorkloadConfig::sized_kib(kib, 1))
}

fn corpus_of(config: WorkloadConfig) -> (Workload, Checker) {
    let w = generate(config);
    let gamma = format!(
        "{}. {}. {}",
        conflict_constraint(),
        workload_constraint(3, 100_000),
        review_load_constraint(100_000)
    );
    let mut c = Checker::new(&w.xml, DTD, &gamma).expect("corpus loads");
    c.register_pattern_str(&legal_insert(0, 0, 0)).expect("pattern compiles");
    (w, c)
}

/// Mean engine steps of an optimized decision of the `legal_insert`
/// pattern (over the first reviewers of the corpus: what one decision
/// reads depends on the reviewer it adds to) after the pattern's first —
/// which builds the three indexes the others read, one pass over each
/// shape's members, once per document — and the engine steps of one full
/// check, over a `kib` KiB corpus under the suite's Γ.
fn decision_and_full_check_steps(kib: usize) -> (u64, u64) {
    const DECISIONS: usize = 16;
    let (w, c) = corpus(kib);
    let mut decide = |i: usize| {
        let (track, rev) = (i % w.config.tracks, i % w.config.revs_per_track);
        let stmt = XUpdateDoc::parse(&legal_insert(track, rev, i)).expect("statement parses");
        assert_eq!(c.decide_only(&stmt, Strategy::Optimized).expect("decides"), None);
    };
    obs::reset();
    decide(DECISIONS);
    assert_eq!(obs::counter(Counter::IndexBuild), 3, "the first decision builds what it asks for");
    obs::reset();
    (0..DECISIONS).for_each(&mut decide);
    let decision = steps() / DECISIONS as u64;
    assert_eq!(obs::counter(Counter::IndexBuild), 0, "and no later one builds");
    assert!(obs::counter(Counter::IndexProbe) >= 3 * DECISIONS as u64, "templates 3 and 4 probe");
    obs::reset();
    assert_eq!(c.check_full().expect("check runs"), None);
    (decision, steps())
}

#[test]
fn the_optimized_decision_is_flat_while_the_full_check_doubles() {
    let sizes = [32, 64, 128, 256, 512];
    let measured: Vec<(u64, u64)> = sizes.into_iter().map(decision_and_full_check_steps).collect();
    let (small, large) = (measured[0].0, measured[4].0);
    assert!(
        large as f64 <= 1.5 * small as f64,
        "a decision took {small} steps at 32 KiB and {large} at 512 KiB: {measured:?}"
    );
    // 4 550, 9 652, 18 769, 46 324 and 91 458 steps: ×2.12, ×1.94, ×2.47 and
    // ×1.97. The co-author check reads each reviewer's own pubs, and those
    // go from 750 to 2 621 auts between the 128 and the 256 KiB corpus.
    for pair in measured.windows(2) {
        let (before, after) = (pair[0].1, pair[1].1);
        assert!(
            after as f64 >= 1.7 * before as f64 && after as f64 <= 2.6 * before as f64,
            "a full check took {before} → {after} steps over one doubling: {measured:?}"
        );
    }
}

/// Engine steps of the optimized decisions of 64 `legal_insert`s, one per
/// reviewer spread evenly over a fixed-neighbourhood corpus of `kib` KiB,
/// sorted, after a first decision that builds the indexes.
fn steps_per_reviewer(kib: usize) -> Vec<u64> {
    let (w, c) = corpus_of(WorkloadConfig::fixed_neighbourhood_kib(kib, 1));
    let (per_track, reviewers) = (w.config.revs_per_track, w.config.tracks * w.config.revs_per_track);
    let decide = |i: usize| {
        let k = i % 64 * reviewers / 64;
        let stmt = XUpdateDoc::parse(&legal_insert(k / per_track, k % per_track, i)).expect("parses");
        let before = steps();
        assert_eq!(c.decide_only(&stmt, Strategy::Optimized).expect("decides"), None);
        steps() - before
    };
    decide(64);
    let mut steps: Vec<u64> = (0..64).map(decide).collect();
    steps.sort_unstable();
    steps
}

/// C2. Where the neighbourhood is fixed — 8 submissions per reviewer,
/// the catalog's pubs per name as they were — a decision reads as much
/// of a 1 MiB document as of a 32 KiB one, but for the select's
/// positional steps, which visit every track and every rev of the track
/// (19 of them at 32 KiB, 48 at 1 MiB): medians of 77, 88 and 106 steps
/// at 32 KiB, 256 KiB and 1 MiB. The power-law head gives a few reviewers
/// many pubs; their decisions are the slowest (87, 150 and 215 steps),
/// within 3× the median. A template that read the whole document would
/// grow with it, as the full check does.
#[test]
fn on_a_fixed_neighbourhood_every_decision_is_flat_in_size() {
    let measured = [32, 256, 1024].map(steps_per_reviewer);
    let median_and_max = |steps: &Vec<u64>| (steps[32], steps[63]);
    for steps in &measured {
        let (median, max) = median_and_max(steps);
        assert!(max <= 3 * median, "the slowest of 64 decisions against the median: {steps:?}");
    }
    let (small, large) = (median_and_max(&measured[0]).0, median_and_max(&measured[2]).0);
    assert!(
        large as f64 <= 1.5 * small as f64,
        "a median decision took {small} steps at 32 KiB and {large} at 1 MiB"
    );
}

/// Engine steps, beyond resolving the statement's select, of rejecting
/// an illegal append (the reviewer as the submission's author) on the
/// optimized path and by the baseline (copy, apply, full check), on a
/// fixed-neighbourhood corpus of `kib` KiB. Both resolve the same select.
fn rejection_steps(kib: usize) -> (u64, u64) {
    let (w, c) = corpus_of(WorkloadConfig::fixed_neighbourhood_kib(kib, 1));
    let stmt = XUpdateDoc::parse(&illegal_insert(0, 0, &w.reviewers[0][0])).expect("parses");
    let before = steps();
    xicheck::xpath_resolver(c.doc(), stmt.ops[0].select()).expect("select resolves");
    let select = steps() - before;
    let beyond_select = |strategy: Strategy| {
        let before = steps();
        assert!(c.decide_only(&stmt, strategy).expect("decides").is_some(), "{strategy:?}");
        steps() - before - select
    };
    (beyond_select(Strategy::Optimized), beyond_select(Strategy::FullWithRollback))
}

/// C3, early detection: the optimized rejection reads the same steps of a
/// 512 KiB document as of a 32 KiB one (11), and under a tenth of what
/// the baseline reads to reach the same verdict (91 and 342), although
/// the baseline's full check stops at its first witness, the appended
/// submission. The select is left out because it grows with the review
/// tree's widths, not with what either strategy checks (23 and 40 steps).
#[test]
fn an_illegal_update_is_rejected_early_at_flat_cost() {
    let (small, large) = (rejection_steps(32), rejection_steps(512));
    assert!(large.0 as f64 <= 1.5 * small.0 as f64, "{small:?} → {large:?}");
    assert!(10 * large.0 < large.1, "optimized and baseline at 512 KiB: {large:?}");
}

/// A text update of the first author of reviewer (track, rev)'s `sub`-th
/// submission, 0-based, to `name`.
fn update_author(track: usize, rev: usize, sub: usize, name: &str) -> XUpdateDoc {
    XUpdateDoc::parse(&format!(
        "<xupdate:modifications xmlns:xupdate=\"http://www.xmldb.org/xupdate\"><xupdate:update \
         select=\"/collection/review/track[{}]/rev[{}]/sub[{}]/auts[1]/name\">{name}</xupdate:update>\
         </xupdate:modifications>",
        track + 1,
        rev + 1,
        sub + 1
    ))
    .expect("statement parses")
}

/// Mean engine steps of deciding 16 author renames over a `kib` KiB
/// corpus, on the optimized path (after a first decision, which builds
/// the indexes) and by the baseline's copy + apply + masked full check.
fn text_update_steps(kib: usize) -> (u64, u64) {
    const DECISIONS: usize = 16;
    let (w, c) = corpus(kib);
    let stmt = |i: usize| {
        let (track, rev, sub) = (i % w.config.tracks, i % w.config.revs_per_track, i % w.config.subs_per_rev);
        update_author(track, rev, sub, &format!("newcomer{i:05}"))
    };
    let mean = |strategy: Strategy| {
        let before = steps();
        for i in 0..DECISIONS {
            assert_eq!(c.decide_only(&stmt(i), strategy).expect("decides"), None, "{strategy:?}");
        }
        (steps() - before) / DECISIONS as u64
    };
    assert_eq!(c.decide_only(&stmt(DECISIONS), Strategy::Optimized).expect("decides"), None);
    (mean(Strategy::Optimized), mean(Strategy::FullWithRollback))
}

/// A text update is one modified cell, decided pre-update like an
/// insertion: an author's new name reads as much of a 512 KiB document
/// as of a 32 KiB one (53 and 72 steps, the select's widths the
/// difference), while copy + apply + the full check of the two co-author
/// queries it keeps live grows with the document: 3 981, 8 458, 16 329,
/// 41 491 and 81 484 steps from 32 to 512 KiB.
#[test]
fn a_text_update_is_decided_at_flat_cost_while_the_baseline_grows() {
    let measured: Vec<(u64, u64)> = [32, 64, 128, 256, 512].into_iter().map(text_update_steps).collect();
    let (small, large) = (measured[0].0, measured[4].0);
    assert!(
        large as f64 <= 1.5 * small as f64,
        "a decision took {small} steps at 32 KiB and {large} at 512 KiB: {measured:?}"
    );
    for pair in measured.windows(2) {
        let (before, after) = (pair[0].1, pair[1].1);
        assert!(after as f64 >= 1.7 * before as f64, "the baseline over one doubling: {measured:?}");
    }
    let (_, c) = corpus(32);
    let mut c = c;
    let out = c.try_update(&update_author(0, 0, 0, "newcomer99999")).expect("decides");
    assert!(out.applied() && out.strategy() == Strategy::Optimized, "{out:?}");
}

/// The `insert-stream` shape: every statement decided pre-update, then
/// committed. An append puts ids out of document order, and nothing a
/// decision asks can observe the order: no set is put in it.
#[test]
fn the_decisions_of_an_insert_stream_put_nothing_in_document_order() {
    let (w, mut c) = corpus(64);
    obs::reset();
    for i in 0..100 {
        let (track, rev) = (i % w.config.tracks, i % w.config.revs_per_track);
        let out = c.try_update_str(&legal_insert(track, rev, i)).expect("decides");
        assert!(out.applied() && out.strategy() == Strategy::Optimized);
    }
    assert_eq!(obs::counter(Counter::DocOrderSort), 0);
    // Template 3's join and template 4's two keyed steps, per statement;
    // the first statement built their indexes.
    assert_eq!((obs::counter(Counter::IndexProbe), obs::counter(Counter::IndexBuild)), (300, 3));
    c.doc().audit_indexes().expect("a hundred commits on, the indexes equal a scan");
}

/// Where a decision's cost used to hide a tail: many readers of one
/// snapshot after a non-tail insert. Each of 1 000 decisions of one
/// statement takes the same steps as the first, none puts a set in
/// document order, and neither does a full check of that version.
#[test]
fn a_snapshot_after_an_insert_before_decides_alike_a_thousand_times() {
    let (_, c) = corpus(64);
    let service = CheckerService::new(c, Executor::Sync);
    let early = r#"<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:insert-before select="/collection/review/track[1]/rev[1]/sub[1]">
    <sub><title>Early</title><auts><name>newcomer99999</name></auts></sub>
  </xupdate:insert-before>
</xupdate:modifications>"#;
    assert!(service.submit(early).expect("commits").outcome.applied());
    let snapshot = service.snapshot();
    let stmt = XUpdateDoc::parse(&legal_insert(0, 0, 1)).expect("statement parses");
    assert_eq!(snapshot.decide(&stmt).expect("decides"), None, "the first builds the indexes");
    obs::reset();
    let per_decision: Vec<u64> = (0..1_000)
        .map(|_| {
            let before = steps();
            assert_eq!(snapshot.decide(&stmt).expect("decides"), None);
            steps() - before
        })
        .collect();
    assert!(per_decision.iter().all(|&n| n == per_decision[0]), "{per_decision:?}");
    assert_eq!(obs::counter(Counter::DocOrderSort), 0);
    assert_eq!(snapshot.check_full().expect("check runs"), None);
    assert_eq!(obs::counter(Counter::DocOrderSort), 0, "the full check");
}

/// The chunk copies of each of 100 `legal_insert` commits through a
/// service, which publishes a snapshot after every one: what a commit
/// writes is copied out of the chunks the last snapshot shares.
fn chunk_copies_per_commit(kib: usize) -> Vec<u64> {
    let (w, c) = corpus(kib);
    let service = CheckerService::new(c, Executor::Sync);
    (0..100)
        .map(|i| {
            let (track, rev) = (i % w.config.tracks, i % w.config.revs_per_track);
            obs::reset();
            let out = service.submit(&legal_insert(track, rev, i)).expect("commits");
            assert!(out.outcome.applied() && out.outcome.strategy() == Strategy::Optimized);
            obs::counter(Counter::ChunkCopy)
        })
        .collect()
}

/// Publish is O(Δ): a commit copies the same few chunks of a 32 KiB and
/// of a 512 KiB document, and the snapshot keeps the rest.
#[test]
fn a_commit_copies_as_many_chunks_at_32_as_at_512_kib() {
    let (small, large) = (chunk_copies_per_commit(32), chunk_copies_per_commit(512));
    assert_eq!(small, large, "chunk copies per commit at 32 and at 512 KiB");
    assert!(small.iter().all(|&n| (1..=4).contains(&n)), "{small:?}");
}

/// Whoever asks a document first builds, and a snapshot is the writer's
/// committed version, not a copy of it: the index the first `DECIDE`
/// builds on the snapshot is the one the writer's first `UPDATE` probes,
/// and the snapshot published after it carries the index on, so nothing
/// is built twice. `STATS` counts the reads of both.
#[test]
fn stats_count_probes_and_builds_on_the_writer_and_on_snapshots() {
    let w = generate(WorkloadConfig::sized_kib(8, 1));
    let checker = Checker::new(&w.xml, DTD, conflict_constraint()).expect("corpus loads");
    let service = CheckerService::new(checker, Executor::Sync);
    let reads = |service: &CheckerService| {
        let line = execute(service, &Command::Stats).render();
        let field = |name: &str| -> u64 {
            let at = line.find(name).unwrap_or_else(|| panic!("{name} in {line}")) + name.len();
            line[at..].split(' ').next().unwrap().parse().unwrap()
        };
        (field(" index_probes="), field(" index_builds="))
    };
    assert_eq!(reads(&service), (0, 0));
    // First sight on a snapshot: the pattern's join builds `//aut` by name.
    let decide = |i| execute(&service, &Command::Decide(legal_insert(0, 0, i), None)).render();
    assert_eq!(decide(1), "OK 0 LEGAL");
    assert_eq!(reads(&service), (1, 1));
    assert_eq!(decide(2), "OK 0 LEGAL");
    assert_eq!(reads(&service), (2, 1));
    // The writer's document is the one the snapshot built on: it probes,
    // commits a copy that carries the index, and publishes that.
    let update = execute(&service, &Command::Update(legal_insert(0, 0, 3), None)).render();
    assert_eq!(update, "OK 1 APPLIED optimized");
    assert_eq!(reads(&service), (3, 1));
    assert_eq!(decide(4), "OK 1 LEGAL");
    assert_eq!(reads(&service), (4, 1));
}
