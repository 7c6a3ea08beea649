//! Checkpoint + rotation integration tests: bounded-suffix recovery from
//! the newest snapshot, automatic rotation policy, generation-by-generation
//! fallback when a snapshot is corrupt, missing-segment handling (crash
//! between snapshot rename and segment create), degraded read-only mode
//! when nothing validates, the refusal of a directory that is not a store,
//! and the checkpoint-off path never rotating.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use xicheck::{Checker, CheckerError, CheckpointPolicy, Store, Strategy};

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

fn insert_sub(author: &str) -> String {
    format!(
        r#"<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
          <xupdate:append select="//rev[name/text() = 'dan']">
            <sub><title>New</title><auts><name>{author}</name></auts></sub>
          </xupdate:append>
        </xupdate:modifications>"#
    )
}

fn store_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("xic-ckpt-store-{}-{tag}-{n}", std::process::id()))
}

/// Recovers the store at `dir` over a freshly compiled Γ.
fn recover_store(
    dir: &std::path::Path,
    sync: bool,
) -> Result<(Checker, xicheck::RecoveryReport), CheckerError> {
    let gamma = xicheck::SharedGamma::compile(DTD, CONFLICT)?;
    Checker::recover_store(dir, CORPUS, &gamma, sync)
}

fn serialize(c: &Checker) -> String {
    xic_xml::serialize(c.doc())
}

/// Commits `n` distinct legal inserts (authors `w<start>..`).
fn commit_n(c: &mut Checker, start: usize, n: usize) {
    for i in start..start + n {
        assert!(c.try_update_str(&insert_sub(&format!("w{i}"))).unwrap().applied());
    }
}

/// Flips one byte inside a file's payload (corrupts its checksum).
fn flip_byte(path: &std::path::Path, offset: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[offset] ^= 0x01;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn explicit_checkpoint_bounds_recovery_to_the_suffix() {
    let dir = store_dir("explicit");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&dir, true).unwrap();
    assert_eq!(c.store_generation(), 0);

    commit_n(&mut c, 0, 3);
    assert_eq!(c.checkpoint().unwrap(), 1);
    commit_n(&mut c, 3, 2);
    let committed_state = serialize(&c);
    assert_eq!(c.committed(), 5);
    drop(c); // crash

    let (r, report) = recover_store(&dir, true).unwrap();
    assert_eq!(report.generation, 1, "newest snapshot must win");
    assert_eq!(report.base_commit_seq, 3, "snapshot bakes in the first 3 commits");
    assert_eq!(report.replayed, 2, "only the suffix is replayed");
    assert_eq!(report.fallbacks, 0);
    assert!(!report.degraded);
    assert_eq!(serialize(&r), committed_state, "recovered state must be byte-identical");
    assert_eq!(r.committed(), 5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn automatic_policy_rotates_and_recovery_prefers_newest_generation() {
    let dir = store_dir("auto");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&dir, false).unwrap();
    c.set_checkpoint_policy(CheckpointPolicy::every_commits(2));
    xic_obs::reset();
    commit_n(&mut c, 0, 7);
    let generation = c.store_generation();
    assert!(generation >= 3, "7 commits at every-2 must have rotated ≥ 3 times, got {generation}");
    let snap = xic_obs::snapshot();
    let count = |n: &str| snap.counters.iter().find(|(k, _)| k == n).map_or(0, |(_, v)| *v);
    assert!(count("rotations") >= 3, "{:?}", snap.counters);
    assert!(count("checkpoints_written") >= 3, "{:?}", snap.counters);
    let committed_state = serialize(&c);
    drop(c);

    let (r, report) = recover_store(&dir, true).unwrap();
    assert_eq!(report.generation, generation);
    assert!(report.replayed <= 2, "replay is bounded by the rotation interval");
    assert_eq!(report.base_commit_seq as usize + report.replayed, 7);
    assert_eq!(serialize(&r), committed_state);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_bytes_policy_also_rotates() {
    let dir = store_dir("bytes");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&dir, false).unwrap();
    // Each commit record is a few hundred bytes of XUpdate text; a 1-byte
    // threshold rotates after every commit.
    c.set_checkpoint_policy(CheckpointPolicy::every_journal_bytes(1));
    commit_n(&mut c, 0, 2);
    assert_eq!(c.store_generation(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_newest_snapshot_falls_back_one_generation() {
    let dir = store_dir("fallback");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&dir, true).unwrap();
    commit_n(&mut c, 0, 2);
    assert_eq!(c.checkpoint().unwrap(), 1);
    let state_at_ckpt1 = serialize(&c);
    commit_n(&mut c, 2, 2);
    drop(c);

    // Media corruption of the newest snapshot: flip a byte in its
    // document payload. Fallback restores the older *consistent* prefix
    // (generation 0 replays its own full segment, which ends where the
    // corrupt snapshot began).
    flip_byte(&Store::ckpt_path(&dir, 1), 32);
    let (r, report) = recover_store(&dir, true).unwrap();
    assert_eq!(report.generation, 0, "must fall back to the base generation");
    assert_eq!(report.fallbacks, 1);
    assert_eq!(report.fallback_reasons.len(), 1);
    assert!(
        report.fallback_reasons[0].contains("generation 1"),
        "{:?}",
        report.fallback_reasons
    );
    assert!(!report.degraded);
    assert_eq!(report.replayed, 2, "generation 0 replays its own segment in full");
    assert_eq!(serialize(&r), state_at_ckpt1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_segment_recovers_snapshot_with_empty_suffix() {
    // A crash between the snapshot's dir-fsync and the new segment's
    // create leaves ckpt-N durable with no wal-N: recovery must use the
    // snapshot as-is and start the segment.
    let dir = store_dir("nosegment");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&dir, true).unwrap();
    commit_n(&mut c, 0, 3);
    assert_eq!(c.checkpoint().unwrap(), 1);
    let state_at_ckpt = serialize(&c);
    drop(c);
    std::fs::remove_file(Store::wal_path(&dir, 1)).unwrap();

    let (mut r, report) = recover_store(&dir, true).unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(report.base_commit_seq, 3);
    assert_eq!(report.replayed, 0);
    assert_eq!(serialize(&r), state_at_ckpt);
    assert!(Store::wal_path(&dir, 1).exists(), "recovery must start the missing segment");
    // And the recovered checker journals into it.
    commit_n(&mut r, 3, 1);
    assert_eq!(r.committed(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_mode_serves_reads_but_refuses_mutations() {
    let dir = store_dir("degraded");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&dir, true).unwrap();
    commit_n(&mut c, 0, 2);
    assert_eq!(c.checkpoint().unwrap(), 1);
    commit_n(&mut c, 2, 1);
    drop(c);

    // Corrupt every generation: snapshot payload and both segments'
    // headers. (The bad magic must span a full header — anything shorter
    // reads as a torn create and recovers to zero records.)
    flip_byte(&Store::ckpt_path(&dir, 1), 32);
    std::fs::write(Store::wal_path(&dir, 1), b"NOTAJOURNAL!").unwrap();
    std::fs::write(Store::wal_path(&dir, 0), b"NOTAJOURNAL!").unwrap();

    let (mut r, report) = recover_store(&dir, true).unwrap();
    assert!(report.degraded);
    assert!(r.degraded());
    assert_eq!(report.fallbacks, 2, "generations 1 and 0 both failed");
    assert_eq!(report.fallback_reasons.len(), 2);
    assert_eq!(report.replayed, 0);

    // Reads still work against the base document…
    assert!(r.check_full().unwrap().is_none());
    let stmt = xicheck::XUpdateDoc::parse(&insert_sub("zoe")).unwrap();
    assert!(r.decide_only(&stmt, Strategy::Optimized).unwrap().is_none());
    assert!(r.decide_only(&stmt, Strategy::FullWithRollback).unwrap().is_none());
    // …but every mutating entry point is refused.
    assert!(matches!(r.try_update(&stmt), Err(CheckerError::Degraded)));
    assert!(matches!(r.apply_unchecked(&stmt), Err(CheckerError::Degraded)));
    assert!(matches!(r.checkpoint(), Err(CheckerError::Degraded)));
    assert!(matches!(
        r.attach_store(&store_dir("degraded-new"), true),
        Err(CheckerError::Degraded)
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_store_checker_resumes_rotating() {
    let dir = store_dir("resume");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&dir, true).unwrap();
    commit_n(&mut c, 0, 2);
    assert_eq!(c.checkpoint().unwrap(), 1);
    drop(c);

    let (mut r, report) = recover_store(&dir, true).unwrap();
    assert_eq!(report.generation, 1);
    commit_n(&mut r, 2, 2);
    assert_eq!(r.checkpoint().unwrap(), 2, "rotation resumes from the recovered generation");
    commit_n(&mut r, 4, 1);
    let state = serialize(&r);
    drop(r);

    let (r2, report2) = recover_store(&dir, true).unwrap();
    assert_eq!(report2.generation, 2);
    assert_eq!(report2.base_commit_seq, 4);
    assert_eq!(report2.replayed, 1);
    assert_eq!(serialize(&r2), state);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn policy_off_by_default_and_checkpoint_requires_a_store() {
    let dir = store_dir("off");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    assert!(
        matches!(c.checkpoint(), Err(CheckerError::Checkpoint(_))),
        "checkpoint without a store must be a clean error"
    );
    // With a store but no policy, nothing rotates on its own.
    c.attach_store(&dir, false).unwrap();
    commit_n(&mut c, 0, 4);
    assert_eq!(c.store_generation(), 0);
    assert_eq!(Store::snapshot_generations(&dir), Vec::<u64>::new());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fallback_counter_increments_on_generation_skips() {
    let dir = store_dir("counter");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&dir, true).unwrap();
    commit_n(&mut c, 0, 1);
    assert_eq!(c.checkpoint().unwrap(), 1);
    drop(c);
    flip_byte(&Store::ckpt_path(&dir, 1), 32);

    xic_obs::reset();
    let (_r, report) = recover_store(&dir, true).unwrap();
    assert_eq!(report.fallbacks, 1);
    let snap = xic_obs::snapshot();
    assert_eq!(snap.counter(xic_obs::Counter::RecoveryGenerationFallback), 1);
    assert_eq!(snap.counter(xic_obs::Counter::Recovery), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_rotation_then_commits_then_crash_loses_nothing() {
    // The reviewer scenario for the orphan-snapshot hazard: a rotation
    // fails *after* its snapshot became durable, the checker keeps
    // committing to the old segment, and only later does the process
    // crash. Recovery must restore every acknowledged commit instead of
    // preferring the failed rotation's snapshot.
    let dir = store_dir("roterr");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&dir, true).unwrap();
    commit_n(&mut c, 0, 1);

    xic_faults::disarm_all();
    xic_faults::arm("rotation.pre_new_segment", 1, xic_faults::FaultMode::Error);
    assert!(matches!(c.checkpoint(), Err(CheckerError::Checkpoint(_))));
    xic_faults::disarm_all();
    assert_eq!(c.store_generation(), 0, "failed rotation must not advance");
    assert!(
        Store::snapshot_generations(&dir).is_empty(),
        "the failed rotation's durable snapshot must be unlinked"
    );

    // Commits keep flowing to the old segment after the failure…
    commit_n(&mut c, 1, 2);
    let state = serialize(&c);
    drop(c);

    // …and a crash now must recover all three commits.
    let (r, report) = recover_store(&dir, true).unwrap();
    assert_eq!(report.generation, 0);
    assert_eq!(report.replayed, 3);
    assert_eq!(report.fallbacks, 0);
    assert_eq!(serialize(&r), state);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn orphan_snapshot_with_newer_commits_on_an_older_segment_is_rejected() {
    // Defense in depth behind the orphan unlink: if an orphan snapshot
    // *does* survive (the unlink is best-effort) while the old segment
    // holds commits acknowledged after it, recovery must treat the
    // missing-segment snapshot as a failed-rotation orphan and fall back
    // rather than silently truncating history to its sequence number.
    let dir = store_dir("orphan");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&dir, true).unwrap();
    commit_n(&mut c, 0, 1);
    let state_after_1 = serialize(&c);
    commit_n(&mut c, 1, 1);
    let state_after_2 = serialize(&c);
    drop(c);

    // Plant the orphan: a valid gen-1 snapshot at commit 1 with no
    // segment, while gen-0.wal holds commits 1 and 2.
    xic_xml::checkpoint::write_atomic(
        &Store::ckpt_path(&dir, 1),
        &xic_xml::checkpoint::Checkpoint { commit_seq: 1, doc_xml: state_after_1 },
    )
    .unwrap();

    let (r, report) = recover_store(&dir, true).unwrap();
    assert_eq!(report.generation, 0, "the orphan must not win");
    assert_eq!(report.fallbacks, 1);
    assert!(
        report.fallback_reasons[0].contains("failed-rotation orphan"),
        "{:?}",
        report.fallback_reasons
    );
    assert_eq!(report.replayed, 2);
    assert_eq!(serialize(&r), state_after_2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reattaching_a_store_does_not_resurrect_the_previous_incarnation() {
    // Store::create on a reused directory must clear stale generations:
    // a previous incarnation's (self-consistent) snapshot pair would
    // otherwise win a later recovery over the new incarnation's history.
    let dir = store_dir("reuse");
    let mut old = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    old.attach_store(&dir, true).unwrap();
    commit_n(&mut old, 0, 2);
    assert_eq!(old.checkpoint().unwrap(), 1);
    drop(old);

    // New incarnation on the same directory, with different history.
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&dir, true).unwrap();
    assert!(Store::snapshot_generations(&dir).is_empty(), "stale generations must be gone");
    commit_n(&mut c, 10, 1);
    let state = serialize(&c);
    drop(c);

    let (r, report) = recover_store(&dir, true).unwrap();
    assert_eq!(report.generation, 0);
    assert_eq!(report.replayed, 1);
    assert_eq!(serialize(&r), state, "recovery must restore the new incarnation");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_store_resumes_in_the_sync_mode_it_is_given() {
    let dir = store_dir("opts");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&dir, true).unwrap();
    commit_n(&mut c, 0, 1);
    assert_eq!(c.checkpoint().unwrap(), 1);
    drop(c);
    let fsyncs = || xic_obs::snapshot().counter(xic_obs::Counter::JournalFsync);

    // The mode is the caller's to restate, in either direction: without
    // sync no commit fsyncs, on the recovered segment or on one a later
    // rotation creates.
    let (mut r, _report) = recover_store(&dir, false).unwrap();
    let before = fsyncs();
    commit_n(&mut r, 1, 1);
    assert_eq!(r.checkpoint().unwrap(), 2);
    commit_n(&mut r, 2, 1);
    assert_eq!(fsyncs() - before, 0, "sync = false must not fsync journal records");
    drop(r);

    // With sync every commit fsyncs its record (plus one fsync for the
    // header of the segment the rotation creates).
    let (mut r2, _) = recover_store(&dir, true).unwrap();
    let before = fsyncs();
    commit_n(&mut r2, 3, 1);
    assert_eq!(fsyncs() - before, 1);
    assert_eq!(r2.checkpoint().unwrap(), 3);
    commit_n(&mut r2, 4, 1);
    assert_eq!(fsyncs() - before, 3);
    // Retention is the constant: the live generation plus one fallback.
    assert_eq!(Store::snapshot_generations(&dir), vec![3, 2]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn opening_a_directory_with_foreign_entries_is_refused_not_degraded() {
    // A directory holding something that is not a store artifact is not
    // ours to open — with or without valid generations beside it — and
    // the refusal is the typed one `attach_store` gives, not a degraded
    // checker over the base document.
    let dir = store_dir("foreign");
    let gamma = xicheck::SharedGamma::compile(DTD, CONFLICT).unwrap();
    for with_generation in [false, true] {
        if with_generation {
            let (mut c, _) = Checker::open_store(&dir, CORPUS, &gamma, true).unwrap();
            commit_n(&mut c, 0, 1);
        }
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("notes.txt"), b"not ours").unwrap();
        match Checker::open_store(&dir, CORPUS, &gamma, true) {
            Err(CheckerError::Checkpoint(m)) => assert!(m.contains("\"notes.txt\""), "{m}"),
            Err(e) => panic!("expected a checkpoint error, got {e}"),
            Ok((c, report)) => {
                panic!("opened: degraded = {}, {:?}", c.degraded(), report.fallback_reasons)
            }
        }
        assert!(matches!(recover_store(&dir, true), Err(CheckerError::Checkpoint(_))));
        std::fs::remove_file(dir.join("notes.txt")).unwrap();
    }
    // Without the intruder the same directory opens and replays.
    let (c, report) = Checker::open_store(&dir, CORPUS, &gamma, true).unwrap();
    assert!(!c.degraded());
    assert_eq!(report.replayed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
