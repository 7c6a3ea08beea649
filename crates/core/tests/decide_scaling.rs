//! The optimized pre-update check answered from the document's indexes:
//! how the work of one decision grows with the document, by counts —
//! engine steps repeat exactly, so nothing here can flake on a slow
//! host. Figure 1's shape: the optimized decision stays flat while the
//! full check doubles with the document.

use xic_workload::{
    conflict_constraint, generate, legal_insert, review_load_constraint, workload_constraint,
    Workload, WorkloadConfig,
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
    let w = generate(WorkloadConfig::sized_kib(kib, 1));
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
    let (w, mut c) = corpus(kib);
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
    for pair in measured.windows(2) {
        let (before, after) = (pair[0].1, pair[1].1);
        assert!(
            after as f64 >= 1.7 * before as f64 && after as f64 <= 2.3 * before as f64,
            "a full check took {before} → {after} steps over one doubling: {measured:?}"
        );
    }
}

/// The `insert-stream` shape: every statement decided pre-update, then
/// committed. A commit makes the rank table stale; putting the few hits
/// of the next decision's probes in document order must not rebuild it.
#[test]
fn the_decisions_of_an_insert_stream_never_rebuild_the_rank_table() {
    let (w, mut c) = corpus(64);
    obs::reset();
    for i in 0..100 {
        let (track, rev) = (i % w.config.tracks, i % w.config.revs_per_track);
        let out = c.try_update_str(&legal_insert(track, rev, i)).expect("decides");
        assert!(out.applied() && out.strategy() == Strategy::Optimized);
    }
    assert_eq!(obs::counter(Counter::OrderCacheRebuild), 0);
    // Template 3's join and template 4's two keyed steps, per statement;
    // the first statement built their indexes.
    assert_eq!((c.stats().index_probes, c.stats().index_builds), (300, 3));
    c.doc().audit_indexes().expect("a hundred commits on, the indexes equal a scan");
}

/// Whoever asks a document first builds: the snapshot a pattern's first
/// `DECIDE` reads, then the writer at its first `UPDATE` — whose next
/// snapshot carries the index, so the next `DECIDE` builds nothing.
/// `STATS` counts both.
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
    // The writer's document was never asked: it builds, and publishes.
    let update = execute(&service, &Command::Update(legal_insert(0, 0, 3), None)).render();
    assert_eq!(update, "OK 1 APPLIED optimized");
    assert_eq!(reads(&service), (3, 2));
    assert_eq!(decide(4), "OK 1 LEGAL");
    assert_eq!(reads(&service), (4, 2));
}
