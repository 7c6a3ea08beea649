//! Concurrent-correctness tests for the checker service (DESIGN.md row
//! 19): N snapshot readers + M writers under `thread::scope`, with the
//! oracle that every acknowledged verdict — and the final state — must
//! match a sequential replay in acknowledgement (version) order.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use xicheck::service::apply_batch;
use xicheck::{Checker, CheckerService, Executor};

const DTD: &str = "<!ELEMENT collection (dblp, review)>\n\
    <!ELEMENT dblp (pub)*>\n<!ELEMENT pub (title, aut+)>\n\
    <!ELEMENT aut (name)>\n<!ELEMENT review (track)+>\n\
    <!ELEMENT track (name,rev+)>\n<!ELEMENT rev (name, sub+)>\n\
    <!ELEMENT sub (title, auts+)>\n<!ELEMENT title (#PCDATA)>\n\
    <!ELEMENT auts (name)>\n<!ELEMENT name (#PCDATA)>";

const CORPUS: &str = "<collection><dblp>\
    <pub><title>P1</title><aut><name>ann</name></aut><aut><name>bob</name></aut></pub>\
    </dblp><review><track><name>T</name>\
    <rev><name>ann</name><sub><title>S1</title><auts><name>cat</name></auts></sub></rev>\
    <rev><name>dan</name><sub><title>S2</title><auts><name>eve</name></auts></sub></rev>\
    </track></review></collection>";

const CONFLICT: &str = "<- //rev[name/text() -> R]/sub/auts/name/text() -> A \
    & (A = R | //pub[aut/name/text() -> A & aut/name/text() -> R])";

fn insert_sub(rev_sel: &str, author: &str) -> String {
    format!(
        "<xupdate:modifications xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
         <xupdate:append select=\"{rev_sel}\">\
         <sub><title>New</title><auts><name>{author}</name></auts></sub>\
         </xupdate:append></xupdate:modifications>"
    )
}

/// A statement legal in every state: a fresh author reviews for dan.
fn legal(tag: &str) -> String {
    insert_sub("//rev[name/text() = 'dan']", &format!("fresh-{tag}"))
}

/// A statement illegal in every state: ann reviews her own submission.
fn illegal() -> String {
    insert_sub("//rev[name/text() = 'ann']", "ann")
}

fn journal_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("xic-service-{}-{tag}-{n}.store", std::process::id()))
}

fn checker() -> Checker {
    Checker::new(CORPUS, DTD, CONFLICT).expect("corpus setup")
}

/// The main stress oracle, run for both executors: M writers submit a
/// deterministic legal/illegal mix while N readers hammer snapshots;
/// afterwards the acknowledged commits, replayed sequentially in
/// version order, must reproduce the service's final state byte for
/// byte — and recovery from the service's journal must agree too.
fn stress(executor: Executor, tag: &str) {
    const WRITERS: usize = 4;
    const READERS: usize = 3;
    const PER_WRITER: usize = 25;

    let path = journal_path(tag);
    let mut c = checker();
    c.attach_store(&path, true).expect("attach store");
    let service = CheckerService::new(c, executor);

    let done = AtomicBool::new(false);
    // (version, stmt) for every acknowledged *applied* statement.
    let mut applied: Vec<(u64, String)> = Vec::new();
    std::thread::scope(|scope| {
        let service = &service;
        let done = &done;
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                scope.spawn(move || {
                    let mut acks = Vec::new();
                    for i in 0..PER_WRITER {
                        // Every fifth statement is a guaranteed
                        // violation; verdicts are state-independent, so
                        // any interleaving must reproduce them exactly.
                        let stmt = if i % 5 == 4 { illegal() } else { legal(&format!("w{w}i{i}")) };
                        let out = service.submit(&stmt).expect("submit");
                        if out.outcome.applied() {
                            acks.push((out.version, stmt));
                        } else {
                            assert!(
                                i % 5 == 4,
                                "legal statement rejected (writer {w}, statement {i})"
                            );
                        }
                    }
                    acks
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(move || {
                    let mut last = 0u64;
                    let mut reads = 0u64;
                    while !done.load(Ordering::Acquire) {
                        let snap = service.snapshot();
                        assert!(
                            snap.version() >= last,
                            "snapshot version went backwards: {} after {last}",
                            snap.version()
                        );
                        last = snap.version();
                        // Applied updates all preserve integrity, so
                        // every published snapshot must check clean.
                        if reads % 7 == 0 {
                            assert!(
                                snap.check_full().expect("snapshot check").is_none(),
                                "published snapshot violates the constraint set"
                            );
                        }
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        for handle in writers {
            applied.extend(handle.join().expect("writer thread"));
        }
        done.store(true, Ordering::Release);
        for handle in readers {
            assert!(handle.join().expect("reader thread") > 0, "reader never ran");
        }
    });

    // Acknowledged versions are dense and unique: 1..=n in some order.
    applied.sort_by_key(|(v, _)| *v);
    let versions: Vec<u64> = applied.iter().map(|(v, _)| *v).collect();
    let expected: Vec<u64> = (1..=applied.len() as u64).collect();
    assert_eq!(versions, expected, "acknowledged versions must be dense");
    assert_eq!(applied.len(), WRITERS * (PER_WRITER - PER_WRITER / 5));

    let final_snapshot = service.snapshot();
    assert_eq!(final_snapshot.version(), applied.len() as u64);
    let live = service.shutdown().expect("first shutdown succeeds");
    assert_eq!(xic_xml::serialize(live.doc()), final_snapshot.serialize());

    // Sequential replay oracle: the same statements, one writer, no
    // service — same verdicts, byte-identical final state.
    let mut twin = checker();
    for (_, stmt) in &applied {
        assert!(twin.try_update_str(stmt).expect("twin update").applied());
    }
    assert_eq!(
        xic_xml::serialize(twin.doc()),
        final_snapshot.serialize(),
        "concurrent execution diverged from sequential replay"
    );

    // And the journal agrees: recovery replays exactly the acknowledged
    // commits.
    let gamma = xicheck::SharedGamma::compile(DTD, CONFLICT).expect("Γ compiles");
    let (recovered, report) =
        Checker::recover_store(&path, CORPUS, &gamma, true).expect("recover");
    assert_eq!(report.replayed, applied.len());
    assert_eq!(xic_xml::serialize(recovered.doc()), final_snapshot.serialize());
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn group_commit_matches_sequential_replay() {
    stress(Executor::group_commit(), "group");
}

#[test]
fn small_batches_match_sequential_replay() {
    // max_batch 2 forces many tiny batches → many publishes, exercising
    // the snapshot-handoff path rather than one giant batch.
    stress(Executor::GroupCommit { max_batch: 2 }, "group2");
}

#[test]
fn sync_executor_matches_sequential_replay() {
    stress(Executor::Sync, "sync");
}

#[test]
fn rejected_statement_does_not_poison_batch_mates() {
    let path = journal_path("reject");
    let mut c = checker();
    c.attach_store(&path, true).expect("attach store");
    let stmts = [legal("a"), illegal(), legal("b")];
    let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
    let results = apply_batch(&mut c, &refs);
    assert!(results[0].as_ref().expect("first").outcome.applied());
    assert!(!results[1].as_ref().expect("second").outcome.applied());
    assert!(results[2].as_ref().expect("third").outcome.applied(), "batch-mate poisoned");
    assert!(!c.poisoned());
    assert_eq!(c.committed(), 2);
    // The batch's deferred-sync scope is over: a commit outside a batch
    // fsyncs its own record again.
    let before = journal_fsyncs();
    assert!(c.try_update_str(&legal("c")).expect("update").applied());
    assert_eq!(journal_fsyncs() - before, 1, "batch must leave the configured sync mode in force");
    let _ = std::fs::remove_dir_all(&path);
}

/// This thread's `journal_fsyncs` counter.
fn journal_fsyncs() -> u64 {
    xicheck::obs::snapshot().counter(xicheck::obs::Counter::JournalFsync)
}

/// A batch that crosses automatic rotations stays deferred on the
/// segments rotated in: no record is fsync'd on its own, whichever
/// segment it lands on.
#[test]
fn batch_across_a_rotation_shares_one_fsync() {
    let dir = journal_path("rotate");
    let mut c = checker();
    c.attach_store(&dir, true).expect("attach store");
    c.set_checkpoint_policy(xicheck::CheckpointPolicy::every_commits(2));
    let before = journal_fsyncs();
    let stmts: Vec<String> = (0..5).map(|i| legal(&format!("r{i}"))).collect();
    let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
    for r in apply_batch(&mut c, &refs) {
        assert!(r.expect("outcome").outcome.applied());
    }
    assert_eq!(c.store_generation(), 2, "rotations after commits 2 and 4");
    // Each rotation fsyncs the header of the segment it creates; the five
    // records share the batch's one flush.
    assert_eq!(journal_fsyncs() - before, 2 + 1, "a record was fsync'd on its own");
    // Outside the batch the rotated-in segment fsyncs per record.
    c.set_checkpoint_policy(xicheck::CheckpointPolicy::default());
    let before = journal_fsyncs();
    assert!(c.try_update_str(&legal("after")).expect("update").applied());
    assert_eq!(journal_fsyncs() - before, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_shares_one_fsync() {
    let path = journal_path("fsync");
    let mut c = checker();
    c.attach_store(&path, true).expect("attach store");
    let before = xicheck::obs::snapshot();
    let stmts: Vec<String> = (0..8).map(|i| legal(&format!("f{i}"))).collect();
    let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
    for r in apply_batch(&mut c, &refs) {
        assert!(r.expect("outcome").outcome.applied());
    }
    let after = xicheck::obs::snapshot();
    let delta = |name: &str| {
        after.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
            - before.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    };
    assert_eq!(delta("journal_appends"), 8);
    assert_eq!(delta("journal_fsyncs"), 1, "one shared fsync per batch");
    assert_eq!(delta("group_commit_batches"), 1);
    assert_eq!(delta("group_commit_statements"), 8);
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn old_snapshots_stay_immutable_while_commits_proceed() {
    let service = CheckerService::new(checker(), Executor::group_commit());
    let old = service.snapshot();
    let old_bytes = old.serialize();
    assert_eq!(old.version(), 0);
    for i in 0..3 {
        let out = service.submit(&legal(&format!("s{i}"))).expect("submit");
        assert!(out.outcome.applied());
    }
    // The old handle still reads version 0's bytes; a fresh snapshot
    // sees all three commits.
    assert_eq!(old.version(), 0);
    assert_eq!(old.serialize(), old_bytes);
    let new = service.snapshot();
    assert_eq!(new.version(), 3);
    assert_ne!(new.serialize(), old_bytes);
    // decide_full on the old snapshot commits nothing anywhere.
    let stmt = xicheck::XUpdateDoc::parse(&illegal()).expect("parse");
    assert!(old.decide_full(&stmt).expect("decide").is_some());
    assert_eq!(service.version(), 3);
    service.shutdown().expect("first shutdown succeeds");
}
