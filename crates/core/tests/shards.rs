//! Shard-set robustness tests (DESIGN.md row 24): N documents share one
//! compiled Γ; a shard that poisons or degrades is isolated from its
//! siblings; per-shard recovery replays only the victim's generations;
//! and parallel whole-set recovery equals the sequential fan-out
//! byte-for-byte.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use xic_faults::{Fault, FaultMode, Faulty, Op, Target, WRITE_PATH};
use xicheck::{
    CheckpointPolicy, Health, ShardSet, ShardSetConfig, ShardSetError,
};

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

fn legal(tag: &str) -> String {
    format!(
        "<xupdate:modifications xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
         <xupdate:append select=\"//rev[name/text() = 'dan']\">\
         <sub><title>New</title><auts><name>fresh-{tag}</name></auts></sub>\
         </xupdate:append></xupdate:modifications>"
    )
}

fn root_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("xic-shards-{}-{tag}-{n}", std::process::id()))
}

#[test]
fn shards_commit_independently_and_share_the_pattern_cache() {
    let root = root_dir("indep");
    let bases = [CORPUS, CORPUS, CORPUS];
    let set =
        ShardSet::create(&root, &bases, DTD, CONFLICT, ShardSetConfig::default()).expect("create");
    assert_eq!(set.len(), 3);

    // Commits land only on the shard they were routed to.
    assert!(set.submit(0, &legal("a")).expect("shard 0").outcome.applied());
    assert!(set.submit(0, &legal("b")).expect("shard 0").outcome.applied());
    assert!(set.submit(2, &legal("c")).expect("shard 2").outcome.applied());
    let health = set.health();
    let versions: Vec<u64> = health.shards.iter().map(|s| s.version).collect();
    assert_eq!(versions, vec![2, 0, 1]);
    assert_eq!(health.overall(), Health::Ok);

    // All three submissions share one statement shape: the pattern was
    // compiled once and adopted through the cross-shard cache, not
    // recompiled per shard.
    assert_eq!(set.patterns().len(), 1, "one compiled pattern shared by every shard");

    // Out-of-range routing is a typed error.
    assert!(matches!(
        set.submit(7, &legal("x")),
        Err(ShardSetError::NoSuchShard { id: 7, count: 3 })
    ));
    set.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

/// A set with no store has nothing to replay a shard from:
/// `recover_shard` says so with a typed error and leaves the shard as it
/// was, and its siblings keep serving.
#[test]
fn recovering_a_shard_of_an_in_memory_set_is_refused() {
    let set = ShardSet::in_memory(&[CORPUS, CORPUS], DTD, CONFLICT, ShardSetConfig::default())
        .expect("in-memory set");
    assert!(set.submit(0, &legal("a")).expect("shard 0").outcome.applied());
    assert!(matches!(set.recover_shard(0), Err(ShardSetError::NoStore { id: 0 })));
    assert!(set.submit(0, &legal("b")).expect("shard 0 still serves").outcome.applied());
    assert!(set.submit(1, &legal("c")).expect("shard 1").outcome.applied());
    let versions: Vec<u64> = set.health().shards.iter().map(|s| s.version).collect();
    assert_eq!(versions, vec![2, 1]);
    assert_eq!(set.health().overall(), Health::Ok);
    set.shutdown().expect("shutdown");
}

#[test]
fn root_layout_refuses_foreign_entries() {
    let root = root_dir("layout");
    std::fs::create_dir_all(&root).expect("mk root");
    std::fs::write(root.join("notes.txt"), b"scratch").expect("plant foreign file");
    match ShardSet::create(&root, &[CORPUS], DTD, CONFLICT, ShardSetConfig::default()) {
        Err(ShardSetError::ForeignEntry { dir, name }) => {
            assert_eq!(dir, root);
            assert_eq!(name, "notes.txt");
        }
        other => panic!("expected ForeignEntry, got {other:?}", other = other.err()),
    }
    std::fs::remove_file(root.join("notes.txt")).expect("clear");

    // A shard directory beyond the configured count is foreign too: it
    // would otherwise hold unreachable (silently ignored) data.
    std::fs::create_dir_all(root.join("shard-5")).expect("plant stray shard");
    match ShardSet::create(&root, &[CORPUS], DTD, CONFLICT, ShardSetConfig::default()) {
        Err(ShardSetError::ForeignEntry { name, .. }) => assert_eq!(name, "shard-5"),
        other => panic!("expected ForeignEntry, got {other:?}", other = other.err()),
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The headline oracle, for every operation of the write path in both
/// modes: a fault that fails one shard's file operation stays in that
/// shard. Siblings keep their service, their bytes and their health; a
/// victim the fault poisoned or degraded is rebuilt by `recover_shard`
/// from its own store at exactly its acknowledged version (one more where
/// the fault struck after the statement's record was whole,
/// [`record_survives`]) and takes writes again.
#[test]
fn poisoned_shard_is_isolated_and_recovered_in_place() {
    for target in WRITE_PATH {
        for mode in [FaultMode::Error, FaultMode::Panic] {
            fault_one_shard(target, mode);
        }
    }
}

/// True where a fault strikes only after the statement's journal record
/// is whole: every operation but the commit's own append. A failed append
/// leaves nothing of the statement.
fn record_survives(target: Target) -> bool {
    target != Target { op: Op::Append, ending: ".wal" }
}

fn fault_one_shard(target: Target, mode: FaultMode) {
    let case = format!("{target} {mode:?}");
    let root = root_dir("poison");
    // Every commit rotates, and from the second on expires a generation, so
    // every operation of the write path runs in the faulted commit.
    let policy = CheckpointPolicy::every_commits(1);
    let config = ShardSetConfig { policy, ..Default::default() };
    let faulty = Faulty::real();
    let bases = [CORPUS, CORPUS, CORPUS];
    let set = ShardSet::create_in(faulty.dir(), &root, &bases, DTD, CONFLICT, config).expect("create");

    // Two acknowledged commits on the future victim, one on a sibling.
    assert!(set.submit(1, &legal("v1")).expect("victim").outcome.applied());
    assert!(set.submit(1, &legal("v2")).expect("victim").outcome.applied());
    assert!(set.submit(0, &legal("s1")).expect("sibling").outcome.applied());
    let siblings: Vec<_> = [0, 2]
        .into_iter()
        .map(|id| (id, set.shard(id).expect("sibling"), set.snapshot(id).expect("read").serialize()))
        .collect();

    faulty.arm(Fault { target, under: root.join("shard-1"), nth: 1, mode });
    let answer = set.submit(1, &legal("boom"));
    assert!(faulty.fired(), "{case}: the fault never fired");
    if let Err(e) = &answer {
        assert!(matches!(e, ShardSetError::Service { id: 1, .. }), "{case}: {e:?}");
    }

    // Isolation: every sibling is healthy, still the same service, at
    // the same bytes.
    for (id, handle, bytes) in &siblings {
        assert_eq!(set.status(*id).expect("sibling").health, Health::Ok, "{case}");
        assert!(std::sync::Arc::ptr_eq(handle, &set.shard(*id).expect("sibling")), "{case}");
        assert_eq!(&set.snapshot(*id).expect("sibling").serialize(), bytes, "{case}");
    }
    assert!(set.submit(2, &legal("s2")).expect("sibling write").outcome.applied(), "{case}");

    let acked = 2 + answer.is_ok() as u64;
    let health = set.status(1).expect("victim").health;
    if health == Health::Ok {
        assert_eq!(set.status(1).expect("victim").version, acked, "{case}");
    } else {
        // The aggregate names the victim; it still answers reads and
        // refuses writes until it is rebuilt.
        let sick = health.as_str();
        assert_eq!(set.health().summary(), format!("{sick} shard-0=ok shard-1={sick} shard-2=ok"));
        let restored = acked + record_survives(target) as u64;
        let read = set.snapshot(1).expect("victim read").version();
        assert!(read == acked || read == restored, "{case}: reads at version {read}");
        assert!(set.submit(1, &legal("refused")).is_err(), "{case}");
        let report = set.recover_shard(1).expect("recover victim");
        assert!(!report.degraded, "{case}");
        assert_eq!(report.base_commit_seq + report.replayed as u64, restored, "{case}: {report:?}");
        let status = set.status(1).expect("recovered");
        assert_eq!(status.health, Health::Ok, "{case}");
        assert_eq!(status.version, restored, "{case}");
    }
    assert!(set.submit(1, &legal("v3")).expect("victim writes").outcome.applied(), "{case}");
    for (id, handle, _) in &siblings {
        assert!(std::sync::Arc::ptr_eq(handle, &set.shard(*id).expect("sibling")), "{case}");
    }
    set.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

/// An I/O error in one shard's store says nothing about its generations:
/// that shard alone comes up degraded over its base and writes nothing,
/// its siblings serve, and once the error is gone `recover_shard`
/// restores every acknowledged commit.
#[test]
fn an_io_error_in_one_store_degrades_only_that_shard() {
    let root = root_dir("io");
    let bases = [CORPUS, CORPUS];
    let config = ShardSetConfig::default();
    let set = ShardSet::create(&root, &bases, DTD, CONFLICT, config).expect("create");
    assert!(set.submit(1, &legal("a")).expect("shard 1").outcome.applied());
    set.shutdown().expect("shutdown");
    drop(set);
    // A directory where a snapshot should be: reading it fails, and not
    // as a missing file.
    let victim = root.join("shard-1");
    let planted = victim.join("gen-9.ckpt");
    std::fs::create_dir(&planted).expect("plant");
    let segment = std::fs::read(victim.join("gen-0.wal")).expect("segment");

    let (set, report) =
        ShardSet::recover(&root, &bases, DTD, CONFLICT, config, true).expect("the set comes up");
    assert_eq!(report.degraded_shards(), vec![1]);
    let reasons = &report.shards[1].fallback_reasons;
    assert!(reasons.len() == 1 && reasons[0].contains("I/O error"), "{reasons:?}");
    assert!(set.submit(0, &legal("b")).expect("shard 0").outcome.applied());
    assert_eq!(set.snapshot(1).expect("shard 1 reads").version(), 0, "it serves its base");
    assert!(set.submit(1, &legal("c")).is_err(), "a degraded shard refuses writes");
    assert_eq!(std::fs::read(victim.join("gen-0.wal")).expect("segment"), segment);
    assert_eq!(std::fs::read_dir(&victim).expect("list").count(), 2, "nothing written");

    std::fs::remove_dir(&planted).expect("clear");
    let restored = set.recover_shard(1).expect("recover shard 1");
    assert!(!restored.degraded);
    assert_eq!(set.status(1).expect("shard 1").version, 1);
    assert_eq!(set.health().overall(), Health::Ok);
    set.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

/// Crash-and-recover the whole set: parallel fan-out must reconstruct
/// exactly what the sequential fan-out does, shard by shard, byte for
/// byte — including per-shard versions and fallback-free reports.
#[test]
fn parallel_recovery_equals_sequential_recovery() {
    let root = root_dir("par");
    let bases = [CORPUS, CORPUS, CORPUS, CORPUS];
    let set =
        ShardSet::create(&root, &bases, DTD, CONFLICT, ShardSetConfig::default()).expect("create");
    for (shard, commits) in [(0usize, 3usize), (1, 1), (3, 2)] {
        for i in 0..commits {
            assert!(set
                .submit(shard, &legal(&format!("s{shard}c{i}")))
                .expect("seed commit")
                .outcome
                .applied());
        }
    }
    // Simulate a crash: drop the services without checkpointing.
    set.shutdown().expect("shutdown");
    drop(set);

    let config = ShardSetConfig::default();
    let (seq, seq_report) =
        ShardSet::recover(&root, &bases, DTD, CONFLICT, config, false).expect("sequential");
    let seq_docs: Vec<String> =
        (0..4).map(|i| seq.snapshot(i).expect("seq snapshot").serialize()).collect();
    let seq_versions: Vec<u64> =
        seq.health().shards.iter().map(|s| s.version).collect();
    seq.shutdown().expect("shutdown sequential");
    drop(seq);

    let (par, par_report) =
        ShardSet::recover(&root, &bases, DTD, CONFLICT, config, true).expect("parallel");
    assert!(par_report.parallel && !seq_report.parallel);
    assert_eq!(par_report.shards, seq_report.shards, "identical per-shard reports");
    assert_eq!(par_report.total_replayed(), 6);
    assert!(par_report.degraded_shards().is_empty());
    let par_versions: Vec<u64> =
        par.health().shards.iter().map(|s| s.version).collect();
    assert_eq!(par_versions, seq_versions);
    assert_eq!(par_versions, vec![3, 1, 0, 2]);
    for (i, seq_doc) in seq_docs.iter().enumerate() {
        assert_eq!(
            &par.snapshot(i).expect("par snapshot").serialize(),
            seq_doc,
            "shard {i} diverged between parallel and sequential recovery"
        );
    }
    // The recovered set keeps serving.
    assert!(par.submit(2, &legal("post")).expect("post-recovery write").outcome.applied());
    par.shutdown().expect("shutdown parallel");
    let _ = std::fs::remove_dir_all(&root);
}
