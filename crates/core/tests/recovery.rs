//! Durability and fault-tolerance integration tests over a store that
//! never rotates until it is reopened (a plain write-ahead journal):
//! commit/recover, refusals and mid-batch apply failures that write
//! nothing, segments from older builds holding abort records, panic
//! containment with poisoning, evaluation-budget exhaustion, and the
//! recovery edge cases (empty journal, torn-tail-only journal, double
//! recovery, snapshot newer than the journal head).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use xic_faults::{Fault, FaultMode, Faulty, Op, Target};
use xic_xml::journal::RecordKind;
use xicheck::{Checker, CheckerError, CheckpointPolicy, EvalBudget, RecoveryReport, Store, Strategy};

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
        r#"<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
          <xupdate:append select="{rev_sel}">
            <sub><title>New</title><auts><name>{author}</name></auts></sub>
          </xupdate:append>
        </xupdate:modifications>"#
    )
}

/// A three-op non-insertion batch (forces the baseline strategy, which
/// applies before checking). All three ops are individually legal.
const TEXT_BATCH: &str = r#"<xupdate:modifications xmlns:xupdate="x">
      <xupdate:update select="//track/name">T2</xupdate:update>
      <xupdate:update select="//pub/title">P1b</xupdate:update>
      <xupdate:update select="//rev[name/text() = 'dan']/sub/title">S2b</xupdate:update>
    </xupdate:modifications>"#;

fn journal_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("xic-recovery-{}-{tag}-{n}.store", std::process::id()))
}

/// Reopens the store at `dir` onto `base_xml` over a freshly compiled Γ.
fn recover(base_xml: &str, dir: &std::path::Path) -> (Checker, RecoveryReport) {
    let gamma = xicheck::SharedGamma::compile(DTD, CONFLICT).unwrap();
    Checker::open_store(dir, base_xml, &gamma, true).unwrap()
}

/// A checker over `CORPUS` whose fresh store at `dir` syncs and does its
/// file I/O in the returned `Faulty`.
fn faulty_checker(dir: &Path) -> (Checker, Faulty) {
    let faulty = Faulty::real();
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store_in(faulty.dir(), dir, true).unwrap();
    (c, faulty)
}

/// Arms `faulty` to strike the first `op` on a file ending in `ending`
/// under `dir`.
fn arm(faulty: &Faulty, dir: &Path, op: Op, ending: &'static str, mode: FaultMode) {
    let target = Target { op, ending };
    faulty.arm(Fault { target, under: dir.to_path_buf(), nth: 1, mode });
}

/// This thread's journal append and fsync counts.
fn journal_writes() -> [u64; 2] {
    let snap = xic_obs::snapshot();
    [xic_obs::Counter::JournalAppend, xic_obs::Counter::JournalFsync].map(|c| snap.counter(c))
}

fn serialize(c: &Checker) -> String {
    xic_xml::serialize(c.doc())
}

#[test]
fn journal_commits_and_recovery_replays_them() {
    let path = journal_path("replay");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&path, true).unwrap();

    // One optimized-path commit, one baseline-path commit, one rejection
    // (rejections leave no record), one more optimized-path commit.
    assert!(c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "zoe")).unwrap().applied());
    assert!(c.try_update_str(TEXT_BATCH).unwrap().applied());
    assert!(!c.try_update_str(&insert_sub("//rev[name/text() = 'ann']", "ann")).unwrap().applied());
    assert!(c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "kim")).unwrap().applied());
    assert_eq!(c.committed(), 3);
    let committed_state = serialize(&c);
    drop(c); // crash: the in-memory tree is gone

    let (r, report) = recover(CORPUS, &path);
    assert_eq!(report.replayed, 3);
    assert_eq!(report.aborts_skipped, 0);
    assert!(!report.torn_tail_truncated);
    assert_eq!(serialize(&r), committed_state, "recovered state must be byte-identical");
    assert_eq!(r.committed(), 3);
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn recovered_checker_keeps_journaling() {
    let path = journal_path("resume");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&path, false).unwrap();
    assert!(c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "zoe")).unwrap().applied());
    drop(c);

    let (mut r, report) = recover(CORPUS, &path);
    assert_eq!(report.replayed, 1);
    assert!(r.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "kim")).unwrap().applied());
    assert_eq!(r.store_generation(), 1, "the first write after the replay checkpoints");
    let state = serialize(&r);
    drop(r);

    let (r2, report2) = recover(CORPUS, &path);
    assert_eq!(
        (report2.generation, report2.base_commit_seq, report2.replayed),
        (1, 1, 1),
        "post-recovery commits land in the rotated generation"
    );
    assert_eq!(serialize(&r2), state);
    let _ = std::fs::remove_dir_all(&path);
}

/// A bare checker's flush fails the way a batch's does: the commit is not
/// acknowledged, the checker turns degraded — it refuses the next write
/// and still answers reads, from a document that still holds the
/// unacknowledged statement — and reopening the store brings back every
/// acknowledged commit.
#[test]
fn a_failed_flush_degrades_a_bare_checker_until_the_store_is_reopened() {
    let path = journal_path("flush");
    let (mut c, faulty) = faulty_checker(&path);
    let dan = |author: &str| insert_sub("//rev[name/text() = 'dan']", author);
    assert!(c.try_update_str(&dan("zoe")).unwrap().applied());
    arm(&faulty, &path, Op::SyncData, ".wal", FaultMode::Error);
    // A rejected statement appends nothing, so there is nothing to flush:
    // the armed fsync is not reached.
    assert!(!c.try_update_str(&insert_sub("//rev[name/text() = 'ann']", "ann")).unwrap().applied());
    assert_eq!(faulty.hits(), 0);
    let err = c.try_update_str(&dan("kim")).unwrap_err();
    assert!(faulty.fired());
    assert!(matches!(err, CheckerError::Journal(_)), "{err}");
    assert!(c.degraded());
    // The failed flush leaves its statement applied in memory: the
    // degraded checker reads the state the caller was told failed.
    assert_eq!(c.committed(), 2);
    assert!(serialize(&c).contains("<name>kim</name>"));
    assert!(matches!(c.try_update_str(&dan("lee")), Err(CheckerError::Degraded)));
    assert_eq!(c.committed(), 2, "a refused write changes nothing");
    assert!(c.check_full().unwrap().is_none(), "a degraded checker still reads");
    drop(c);

    let gamma = xicheck::SharedGamma::compile(DTD, CONFLICT).unwrap();
    let (mut r, report) = Checker::open_store(&path, CORPUS, &gamma, true).unwrap();
    assert!(!report.degraded && !r.degraded());
    // The unacknowledged record was written before its fsync failed, so
    // replay may find it; the acknowledged one it must.
    assert!(report.replayed >= 1);
    assert!(serialize(&r).contains("<name>zoe</name>"));
    assert!(r.try_update_str(&dan("lee")).unwrap().applied());
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn a_mid_batch_apply_failure_leaves_no_record_at_every_op_index() {
    // The batch has 3 ops; each index in turn selects nothing, so the
    // statement fails to apply there.
    let selects = ["//track/name", "//pub/title", "//rev[name/text() = 'dan']/sub/title"];
    for (op_index, select) in selects.into_iter().enumerate() {
        let path = journal_path("midbatch");
        let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
        c.attach_store(&path, true).unwrap();
        let before = serialize(&c);
        let writes = journal_writes();

        let batch = TEXT_BATCH.replacen(select, "//track/nothing", 1);
        let err = c.try_update_str(&batch).unwrap_err();
        assert!(
            matches!(&err, CheckerError::Statement(m) if m.contains("matched no nodes")),
            "op {op_index}: {err}"
        );
        assert_eq!(serialize(&c), before, "op {op_index}: the copy is dropped");
        assert!(!c.poisoned(), "an apply error is handled, not a panic");
        assert_eq!(c.committed(), 0);
        assert_eq!(journal_writes(), writes, "op {op_index}: no append, no fsync");

        // The segment holds no record: replay yields the base document.
        drop(c);
        let (r, report) = recover(CORPUS, &path);
        assert_eq!((report.replayed, report.aborts_skipped), (0, 0), "op {op_index}");
        assert_eq!(serialize(&r), before, "op {op_index}");
        let _ = std::fs::remove_dir_all(&path);
    }
}

/// A refused statement — one whose `select` matches nothing, on the
/// optimized path or the baseline, or one that violates Γ — appends no
/// record, so the flush after it costs no fsync: through `try_update`
/// and through a service `submit` alike.
#[test]
fn a_refusal_writes_nothing() {
    let path = journal_path("refusal");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&path, true).unwrap();
    let refused = [
        insert_sub("//rev[name/text() = 'nobody']", "zoe"),
        r#"<xupdate:modifications xmlns:xupdate="x">
          <xupdate:update select="//rev[name/text() = 'nobody']/name">x</xupdate:update>
        </xupdate:modifications>"#
            .to_string(),
        insert_sub("//rev[name/text() = 'ann']", "ann"),
    ];
    for stmt in &refused {
        let writes = journal_writes();
        assert!(!c.try_update_str(stmt).is_ok_and(|out| out.applied()), "{stmt}");
        assert_eq!(journal_writes(), writes, "try_update: {stmt}");
    }
    let service = xicheck::CheckerService::new(c, xicheck::Executor::GroupCommit);
    for stmt in &refused {
        let writes = journal_writes();
        assert!(!service.submit(stmt).is_ok_and(|out| out.outcome.applied()), "{stmt}");
        assert_eq!(journal_writes(), writes, "submit: {stmt}");
    }
    // A legal statement still appends its record and fsyncs it once.
    let [appends, fsyncs] = journal_writes();
    let legal = insert_sub("//rev[name/text() = 'dan']", "zoe");
    assert!(service.submit(&legal).unwrap().outcome.applied());
    assert_eq!(journal_writes(), [appends + 1, fsyncs + 1]);
    drop(service.shutdown().unwrap());
    let (_, report) = recover(CORPUS, &path);
    assert_eq!((report.replayed, report.aborts_skipped), (1, 0));
    let _ = std::fs::remove_dir_all(&path);
}

/// A segment written by an older build, which appended an abort record
/// for a statement that did not apply, still opens: replay skips the
/// abort, applies both commits, and the first write after it checkpoints
/// into generation 1.
#[test]
fn a_store_holding_abort_records_still_opens() {
    let path = journal_path("aborts");
    let zoe = insert_sub("//rev[name/text() = 'dan']", "zoe");
    let kim = insert_sub("//rev[name/text() = 'dan']", "kim");
    let mut twin = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    let base_crc = xic_xml::journal::crc32(serialize(&twin).as_bytes());
    let mut store = Store::create(std::sync::Arc::new(xic_xml::dir::Real), &path, base_crc, true).unwrap();
    store.append(RecordKind::Commit, 1, &zoe).unwrap();
    store.append(RecordKind::Abort, 2, &insert_sub("//rev[name/text() = 'nobody']", "x")).unwrap();
    store.append(RecordKind::Commit, 2, &kim).unwrap();
    store.sync_now().unwrap();
    drop(store);
    assert!(twin.try_update_str(&zoe).unwrap().applied());
    assert!(twin.try_update_str(&kim).unwrap().applied());

    let (mut r, report) = recover(CORPUS, &path);
    assert_eq!((report.replayed, report.aborts_skipped), (2, 1));
    assert!(!report.degraded);
    assert_eq!(serialize(&r), serialize(&twin));
    assert_eq!(r.committed(), 2);
    assert!(r.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "lee")).unwrap().applied());
    assert_eq!(r.store_generation(), 1);
    let _ = std::fs::remove_dir_all(&path);
}

/// The budget armed around a call is the only evaluation bound: when it
/// runs out in the pre-update check, `try_update` answers
/// `BudgetExhausted` at once, with the document as it was, nothing
/// journaled (no abort record either) and no retry on the baseline; the
/// first allowance that suffices changes nothing. The check resolves the
/// statement's `select`, and the commit applies from what it found, so
/// the allowance the check takes is all the commit takes.
#[test]
fn an_exhausted_budget_is_the_answer_and_leaves_no_trace() {
    let path = journal_path("budget");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&path, true).unwrap();
    let before = serialize(&c);
    let legal =
        xicheck::XUpdateDoc::parse(&insert_sub("//rev[name/text() = 'dan']", "zoe")).unwrap();
    let appends = || xic_obs::snapshot().counter(xic_obs::Counter::JournalAppend);
    let appends_before = appends();
    // Full checks this thread ran: the baseline's.
    let full_checks = || xic_obs::snapshot().phase("check/full").map_or(0, |p| p.calls);
    let full_checks_before = full_checks();
    let arm = |steps| xic_xpath::budget::arm(EvalBudget::new(steps));

    // The steps one whole pre-update check of the statement takes.
    let check_steps = (0..)
        .find(|&steps| {
            let _armed = arm(steps);
            c.decide_only(&legal, Strategy::Optimized).is_ok()
        })
        .unwrap();
    assert!(check_steps > 1, "{check_steps}");
    // Every allowance short of the whole call, one step at a time.
    let mut allowance = 0;
    let out = loop {
        let _armed = arm(allowance);
        match c.try_update(&legal) {
            Ok(out) => break out,
            Err(err) => {
                assert!(
                    matches!(err, CheckerError::BudgetExhausted),
                    "allowance {allowance}: {err}"
                );
                assert_eq!(serialize(&c), before, "allowance {allowance}");
                assert_eq!(c.committed(), 0, "allowance {allowance}");
                assert_eq!(appends(), appends_before, "allowance {allowance}");
                allowance += 1;
            }
        }
    };
    assert!(allowance <= check_steps, "apply evaluates no select: {allowance} / {check_steps}");
    assert!(out.applied());
    assert_eq!(out.strategy(), Strategy::Optimized, "a sufficient budget changes nothing");
    assert_eq!(full_checks(), full_checks_before, "a spent budget is never retried on the baseline");
    assert_eq!(c.committed(), 1);
    assert_eq!(appends(), appends_before + 1);
    let committed_state = serialize(&c);
    drop(c);

    let (r, report) = recover(CORPUS, &path);
    assert_eq!((report.replayed, report.aborts_skipped), (1, 0));
    assert_eq!(serialize(&r), committed_state);
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn contained_panic_poisons_checker_until_recovery() {
    let path = journal_path("panic");
    let (mut c, faulty) = faulty_checker(&path);
    assert!(c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "zoe")).unwrap().applied());
    let committed_state = serialize(&c);

    // The commit's append panics after writing half its record.
    arm(&faulty, &path, Op::Append, ".wal", FaultMode::Panic);
    xic_obs::reset();
    let err = c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "kim")).unwrap_err();
    assert!(matches!(&err, CheckerError::Panicked(m) if m.contains("injected fault")), "{err}");
    assert!(c.poisoned());
    let snap = xic_obs::snapshot();
    let contained =
        snap.counters.iter().find(|(k, _)| k == "panics_contained").map_or(0, |(_, v)| *v);
    assert_eq!(contained, 1);

    // Every mutating entry point refuses until recovery.
    assert!(matches!(
        c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "kim")),
        Err(CheckerError::Poisoned)
    ));
    let stmt = xicheck::XUpdateDoc::parse(&insert_sub("//rev[name/text() = 'dan']", "kim")).unwrap();
    assert!(matches!(
        c.decide_only(&stmt, Strategy::FullWithRollback),
        Err(CheckerError::Poisoned)
    ));

    // Recovery rebuilds the committed prefix; the panicked statement's
    // half record is a torn tail, so it is not replayed.
    drop(c);
    let (mut r, report) = recover(CORPUS, &path);
    assert_eq!((report.replayed, report.torn_tail_truncated), (1, true));
    assert!(!r.poisoned());
    assert_eq!(serialize(&r), committed_state);
    assert!(r.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "kim")).unwrap().applied());
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn recovery_of_empty_journal_yields_base_document() {
    let path = journal_path("empty");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&path, true).unwrap();
    let base = serialize(&c);
    drop(c); // crash before any update

    let (r, report) = recover(CORPUS, &path);
    assert_eq!(report.replayed, 0);
    assert!(!report.torn_tail_truncated);
    assert_eq!(serialize(&r), base);
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn recovery_of_torn_tail_only_journal_yields_base_document() {
    let path = journal_path("tornonly");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&path, true).unwrap();
    let base = serialize(&c);
    let header = std::fs::metadata(Store::wal_path(&path, 0)).unwrap().len();
    assert!(c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "zoe")).unwrap().applied());
    drop(c);

    // A crash halfway through the very first record, at every cut: the
    // journal holds nothing but a torn tail.
    let wal = Store::wal_path(&path, 0);
    let bytes = std::fs::read(&wal).unwrap();
    let gamma = xicheck::SharedGamma::compile(DTD, CONFLICT).unwrap();
    let recover = |base_xml, dir| Checker::open_store(dir, base_xml, &gamma, true).unwrap();
    for cut in header as usize + 1..bytes.len() {
        std::fs::write(&wal, &bytes[..cut]).unwrap();
        let (r, report) = recover(CORPUS, &path);
        assert_eq!(report.replayed, 0, "cut at {cut}");
        assert!(report.torn_tail_truncated, "cut at {cut}: the half-record must be detected");
        assert_eq!(serialize(&r), base, "cut at {cut}: an uncommitted update must not survive");

        // Double recovery is idempotent: the tail is already truncated.
        drop(r);
        let (r2, report2) = recover(CORPUS, &path);
        assert_eq!(report2.replayed, 0);
        assert!(!report2.torn_tail_truncated);
        assert_eq!(serialize(&r2), base);
    }
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn double_recovery_is_idempotent() {
    let path = journal_path("double");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&path, true).unwrap();
    assert!(c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "zoe")).unwrap().applied());
    assert!(c.try_update_str(TEXT_BATCH).unwrap().applied());
    let committed_state = serialize(&c);
    drop(c);

    let (r1, rep1) = recover(CORPUS, &path);
    drop(r1);
    let (r2, rep2) = recover(CORPUS, &path);
    assert_eq!(rep1.replayed, 2);
    assert_eq!(rep2.replayed, 2);
    assert_eq!(serialize(&r2), committed_state);
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn recovery_rejects_snapshot_newer_than_journal_base() {
    let path = journal_path("newer");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&path, true).unwrap();
    assert!(c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "zoe")).unwrap().applied());
    let newer_snapshot = serialize(&c); // already contains the journaled update
    drop(c);

    // Recovering onto the newer snapshot would double-apply record 1; the
    // base checksum catches the mismatch, and with no generation left the
    // checker serves the document it was given read-only.
    let (mut r, report) = recover(&newer_snapshot, &path);
    assert!(report.degraded && r.degraded());
    assert!(report.fallback_reasons[0].contains("does not match"), "{:?}", report.fallback_reasons);
    assert_eq!(serialize(&r), newer_snapshot, "nothing was replayed onto it");
    assert!(matches!(
        r.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "kim")),
        Err(CheckerError::Degraded)
    ));
    // The true base still recovers.
    let (_, report) = recover(CORPUS, &path);
    assert!(!report.degraded);
    assert_eq!(report.replayed, 1);
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn recovery_rejects_non_monotonic_version_records() {
    // Commit versions must run 1, 2, 3… consecutively; a hand-built
    // journal that skips (or repeats) a version is unreplayable — it
    // means records were lost or duplicated, not merely torn — and with
    // its only generation rejected the store comes up degraded.
    for versions in [[1u64, 3], [2, 3], [1, 1]] {
        let path = journal_path("nonmono");
        let c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
        let base_crc = xic_xml::journal::crc32(serialize(&c).as_bytes());
        drop(c);
        let mut j = Store::create(std::sync::Arc::new(xic_xml::dir::Real), &path, base_crc, true).unwrap();
        for v in versions {
            j.append(
                xic_xml::journal::RecordKind::Commit,
                v,
                &insert_sub("//rev[name/text() = 'dan']", &format!("w{v}")),
            )
            .unwrap();
        }
        drop(j);
        let (mut r, report) = recover(CORPUS, &path);
        assert!(report.degraded, "versions {versions:?} must be rejected");
        assert!(
            report.fallback_reasons[0].contains("out of sequence"),
            "versions {versions:?}: {:?}",
            report.fallback_reasons
        );
        assert!(matches!(
            r.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "kim")),
            Err(CheckerError::Degraded)
        ));
        let _ = std::fs::remove_dir_all(&path);
    }
}

#[test]
fn a_record_renaming_to_a_non_name_is_a_typed_recovery_failure() {
    // A segment written by a build that let a statement rename to
    // something that is not an XML name: replay refuses the record by
    // name instead of building an element no parser could read back.
    let path = journal_path("badname");
    std::fs::create_dir_all(&path).unwrap();
    let base_crc = xic_xml::journal::crc32(CORPUS.as_bytes());
    let mut j =
        xic_xml::journal::Journal::create(&Store::wal_path(&path, 0), base_crc, true).unwrap();
    let commit = xic_xml::journal::RecordKind::Commit;
    j.append(commit, 1, &insert_sub("//rev[name/text() = 'dan']", "zoe")).unwrap();
    let rename = r#"<xupdate:modifications xmlns:xupdate="x">
          <xupdate:rename select="//pub/title">1 title</xupdate:rename>
        </xupdate:modifications>"#;
    j.append(commit, 2, rename).unwrap();
    drop(j);
    let (r, report) = recover(CORPUS, &path);
    assert!(report.degraded && r.degraded(), "{report:?}");
    let reason = &report.fallback_reasons[0];
    assert!(
        reason.contains("record 2 does not parse") && reason.contains("is not an XML name"),
        "{reason}"
    );
    assert_eq!(serialize(&r), CORPUS, "the base is served read-only");
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn journal_append_failure_rolls_the_update_back() {
    let path = journal_path("appenderr");
    let (mut c, faulty) = faulty_checker(&path);
    let base = serialize(&c);

    // The append fails after writing half its record; the journal rewinds.
    arm(&faulty, &path, Op::Append, ".wal", FaultMode::Error);
    let err = c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "zoe")).unwrap_err();
    assert!(matches!(err, CheckerError::Journal(_)), "{err}");
    assert_eq!(serialize(&c), base, "unjournalable update must be rolled back");
    assert!(!c.poisoned(), "a clean pre-write failure does not poison");
    assert_eq!(c.committed(), 0);

    // The checker remains usable and consistent with its journal.
    assert!(c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "kim")).unwrap().applied());
    let state = serialize(&c);
    drop(c);
    let (r, report) = recover(CORPUS, &path);
    assert_eq!((report.replayed, report.torn_tail_truncated), (1, false));
    assert_eq!(serialize(&r), state);
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn failure_after_durable_commit_poisons_instead_of_diverging() {
    // Every commit rotates, and the rotation after this one panics at its
    // first file operation: the record is whole on disk, the statement
    // unacknowledged.
    let path = journal_path("postcommit");
    let (mut c, faulty) = faulty_checker(&path);
    c.set_checkpoint_policy(CheckpointPolicy::every_commits(1));
    arm(&faulty, &path, Op::Create, "", FaultMode::Panic);
    let err = c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "zoe")).unwrap_err();
    assert!(matches!(&err, CheckerError::Panicked(m) if m.contains("injected fault")), "{err}");
    assert!(c.poisoned(), "commit is durable but the caller saw an error: state suspect");
    assert_eq!(c.committed(), 1);
    let in_memory = serialize(&c);
    assert!(in_memory.contains("zoe"), "the checker stays in step with its journal");
    drop(c);

    // Recovery replays the durable commit — it agrees with the in-memory
    // state the poisoned checker was carrying.
    let (r, report) = recover(CORPUS, &path);
    assert_eq!(report.replayed, 1);
    assert_eq!(serialize(&r), in_memory);
    let _ = std::fs::remove_dir_all(&path);
}

/// A title emptied by an update holds no text node, so every checkpoint
/// taken after it comes back from its own serialization: reopening
/// restores all four acknowledged commits from the newest generation
/// instead of rejecting every checkpoint keyed to `<title></title>`.
#[test]
fn checkpoints_after_an_emptied_text_still_open() {
    let path = journal_path("empty-text");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&path, true).unwrap();
    let empty = r#"<xupdate:modifications xmlns:xupdate="x">
          <xupdate:update select="//pub[1]/title"></xupdate:update>
        </xupdate:modifications>"#;
    assert!(c.try_update_str(empty).unwrap().applied());
    c.checkpoint().unwrap();
    for author in ["fay", "gus"] {
        assert!(c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", author)).unwrap().applied());
        c.checkpoint().unwrap();
    }
    assert!(c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "hal")).unwrap().applied());
    let live = serialize(&c);
    drop(c);

    let (r, report) = recover(CORPUS, &path);
    assert!(!report.degraded, "{report:?}");
    assert_eq!((report.fallbacks, report.generation, report.replayed), (0, 3, 1), "{report:?}");
    assert_eq!(r.committed(), 4);
    assert_eq!(serialize(&r), live);
    assert!(live.contains("<title/>"), "{live}");
    let _ = std::fs::remove_dir_all(&path);
}
