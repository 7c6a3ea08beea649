//! Durability and fault-tolerance integration tests over a store that
//! never rotates (a plain write-ahead journal): commit/recover, mid-batch
//! abort records, panic containment with poisoning, evaluation-budget
//! exhaustion, and the recovery edge cases (empty journal, torn-tail-only
//! journal, double recovery, snapshot newer than the journal head).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use xic_faults::FaultMode;
use xicheck::{Checker, CheckerError, EvalBudget, RecoveryReport, Store, Strategy};

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

/// Recovers the store at `dir` onto `base_xml` over a freshly compiled Γ.
fn recover(base_xml: &str, dir: &std::path::Path) -> (Checker, RecoveryReport) {
    let gamma = xicheck::SharedGamma::compile(DTD, CONFLICT).unwrap();
    Checker::recover_store(dir, base_xml, &gamma, true).unwrap()
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
    // (rejections leave no record), one unchecked apply (journaled too).
    assert!(c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "zoe")).unwrap().applied());
    assert!(c.try_update_str(TEXT_BATCH).unwrap().applied());
    assert!(!c.try_update_str(&insert_sub("//rev[name/text() = 'ann']", "ann")).unwrap().applied());
    let extra = xicheck::XUpdateDoc::parse(&insert_sub("//rev[name/text() = 'dan']", "kim")).unwrap();
    c.apply_unchecked(&extra).unwrap();
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
    let state = serialize(&r);
    drop(r);

    let (r2, report2) = recover(CORPUS, &path);
    assert_eq!(report2.replayed, 2, "post-recovery commits land in the same journal");
    assert_eq!(serialize(&r2), state);
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn mid_batch_apply_failure_rolls_back_and_journals_abort_at_every_op_index() {
    // The batch has 3 ops; inject an apply failure at each index in turn.
    for op_index in 1..=3u64 {
        let path = journal_path("midbatch");
        let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
        c.attach_store(&path, true).unwrap();
        let before = serialize(&c);

        xic_faults::disarm_all();
        xic_faults::arm("xupdate.apply.op", op_index, FaultMode::Error);
        let err = c.try_update_str(TEXT_BATCH).unwrap_err();
        xic_faults::disarm_all();
        assert!(
            matches!(&err, CheckerError::Statement(m) if m.contains("injected fault")),
            "op {op_index}: {err}"
        );
        assert_eq!(serialize(&c), before, "op {op_index}: prefix must be rolled back");
        assert!(!c.poisoned(), "an apply error is handled, not a panic");
        assert_eq!(c.committed(), 0);

        // The abort record is on disk; recovery skips it and yields the
        // base document.
        drop(c);
        let (r, report) = recover(CORPUS, &path);
        assert_eq!(report.replayed, 0, "op {op_index}");
        assert_eq!(report.aborts_skipped, 1, "op {op_index}");
        assert_eq!(serialize(&r), before, "op {op_index}");
        let _ = std::fs::remove_dir_all(&path);
    }
}

/// The budget armed around a call is the only evaluation bound: when it
/// runs out — in the pre-update check or in `apply`'s own `select` —
/// `try_update` answers `BudgetExhausted` at once, with the document as
/// it was, nothing journaled (no abort record either) and no retry on the
/// baseline; the first allowance that suffices changes nothing.
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
    assert!(allowance > check_steps, "apply's select is charged too: {allowance} / {check_steps}");
    assert!(out.applied());
    assert_eq!(out.strategy(), Strategy::Optimized, "a sufficient budget changes nothing");
    assert_eq!(c.stats().full_checks, 0, "a spent budget is never retried on the baseline");
    assert_eq!(c.stats().rollbacks, 0);
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
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&path, true).unwrap();
    assert!(c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "zoe")).unwrap().applied());
    let committed_state = serialize(&c);

    xic_faults::disarm_all();
    xic_faults::arm("xupdate.apply.op", 1, FaultMode::Panic);
    xic_obs::reset();
    let err = c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "kim")).unwrap_err();
    xic_faults::disarm_all();
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
    assert!(matches!(c.apply_unchecked(&stmt), Err(CheckerError::Poisoned)));
    assert!(matches!(
        c.decide_only(&stmt, Strategy::FullWithRollback),
        Err(CheckerError::Poisoned)
    ));

    // Recovery rebuilds the committed prefix; the panicked statement never
    // committed, so it is not replayed.
    drop(c);
    let (mut r, report) = recover(CORPUS, &path);
    assert_eq!(report.replayed, 1);
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

    // Crash (panic, contained) halfway through the very first record: the
    // journal holds nothing but a torn tail.
    xic_faults::disarm_all();
    xic_faults::arm("journal.append.mid", 1, FaultMode::Panic);
    let err = c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "zoe")).unwrap_err();
    xic_faults::disarm_all();
    assert!(matches!(err, CheckerError::Panicked(_)), "{err}");
    drop(c);

    let (r, report) = recover(CORPUS, &path);
    assert_eq!(report.replayed, 0);
    assert!(report.torn_tail_truncated, "the half-record must be detected");
    assert_eq!(serialize(&r), base, "an uncommitted update must not survive");

    // Double recovery is idempotent: the tail is already truncated.
    drop(r);
    let (r2, report2) = recover(CORPUS, &path);
    assert_eq!(report2.replayed, 0);
    assert!(!report2.torn_tail_truncated);
    assert_eq!(serialize(&r2), base);
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
        let mut j = Store::create(&path, base_crc, true).unwrap();
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
fn journal_append_failure_rolls_the_update_back() {
    let path = journal_path("appenderr");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&path, true).unwrap();
    let base = serialize(&c);

    xic_faults::disarm_all();
    xic_faults::arm("journal.append.pre", 1, FaultMode::Error);
    let err = c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "zoe")).unwrap_err();
    xic_faults::disarm_all();
    assert!(matches!(err, CheckerError::Journal(_)), "{err}");
    assert_eq!(serialize(&c), base, "unjournalable update must be rolled back");
    assert!(!c.poisoned(), "a clean pre-write failure does not poison");
    assert_eq!(c.committed(), 0);

    // The checker remains usable and consistent with its journal.
    assert!(c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "kim")).unwrap().applied());
    let state = serialize(&c);
    drop(c);
    let (r, report) = recover(CORPUS, &path);
    assert_eq!(report.replayed, 1);
    assert_eq!(serialize(&r), state);
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn failure_after_durable_commit_poisons_instead_of_diverging() {
    let path = journal_path("postcommit");
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    c.attach_store(&path, true).unwrap();

    xic_faults::disarm_all();
    xic_faults::arm("checker.commit.post", 1, FaultMode::Error);
    let err = c.try_update_str(&insert_sub("//rev[name/text() = 'dan']", "zoe")).unwrap_err();
    xic_faults::disarm_all();
    assert!(matches!(&err, CheckerError::Journal(m) if m.contains("poisoned")), "{err}");
    assert!(c.poisoned(), "commit is durable but the caller saw an error: state suspect");
    let in_memory = serialize(&c);
    drop(c);

    // Recovery replays the durable commit — it agrees with the in-memory
    // state the poisoned checker was carrying.
    let (r, report) = recover(CORPUS, &path);
    assert_eq!(report.replayed, 1);
    assert_eq!(serialize(&r), in_memory);
    let _ = std::fs::remove_dir_all(&path);
}
