//! Overload- and failure-resilience tests for the checker service
//! (DESIGN.md row 22): bounded admission sheds excess submissions,
//! per-request deadlines time out, a persistently failing batch fsync
//! degrades the service to read-only until an explicit recovery, and
//! shutdown drains cleanly with live read handles outstanding.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use xic_faults::FaultMode;
use xicheck::{Checker, CheckerService, Executor, Health, ServiceConfig, ServiceError};

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

/// Serializes the tests that arm process-global (`any_thread`) faults so
/// they cannot steal each other's single-shot trigger.
static FAULTS: Mutex<()> = Mutex::new(());

fn legal(tag: &str) -> String {
    format!(
        "<xupdate:modifications xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
         <xupdate:append select=\"//rev[name/text() = 'dan']\">\
         <sub><title>New</title><auts><name>fresh-{tag}</name></auts></sub>\
         </xupdate:append></xupdate:modifications>"
    )
}

fn journal_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("xic-resil-{}-{tag}-{n}.store", std::process::id()))
}

fn checker() -> Checker {
    Checker::new(CORPUS, DTD, CONFLICT).expect("corpus setup")
}

/// Bounded admission under contention: with `queue_depth = 1` and two
/// threads hammering the sequential executor, the loser of each
/// admission race is shed with `Overloaded` *before* blocking on the
/// writer — and because shedding is advisory (the client retries), every
/// statement still lands exactly once.
#[test]
fn overload_sheds_excess_submissions_without_losing_retries() {
    const PER_THREAD: usize = 60;
    let service = CheckerService::with_config(
        checker(),
        ServiceConfig {
            executor: Executor::Sync,
            queue_depth: 1,
            ..Default::default()
        },
    );
    let shed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let service = &service;
        let shed = &shed;
        for t in 0..2 {
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let stmt = legal(&format!("t{t}i{i}"));
                    loop {
                        match service.submit(&stmt) {
                            Ok(out) => {
                                assert!(out.outcome.applied());
                                break;
                            }
                            Err(ServiceError::Overloaded { depth }) => {
                                assert_eq!(depth, 1);
                                shed.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    }
                }
            });
        }
    });
    assert!(
        shed.load(Ordering::Relaxed) > 0,
        "two threads against queue_depth=1 never collided"
    );
    assert_eq!(service.stats().requests_shed, shed.load(Ordering::Relaxed));
    assert_eq!(service.version(), (2 * PER_THREAD) as u64, "a retry was lost");
    assert_eq!(service.health(), Health::Ok);
    service.shutdown().expect("shutdown");
}

/// An already-expired deadline is refused with `Timeout` and never
/// executes: the writer expires it at dequeue, so the next commit is
/// still version 1.
#[test]
fn expired_deadline_times_out_without_executing() {
    let service = CheckerService::new(checker(), Executor::group_commit());
    match service.submit_with(&legal("dead"), Some(0)) {
        Err(ServiceError::Timeout { ms: 0 }) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(service.stats().requests_timed_out >= 1);
    // The writer has provably processed (and expired) the timed-out
    // request once this later submission is acknowledged behind it.
    let out = service.submit(&legal("alive")).expect("undeadlined submit");
    assert!(out.outcome.applied());
    assert_eq!(out.version, 1, "expired request must not have committed");
    assert_eq!(service.version(), 1);
    service.shutdown().expect("shutdown");
}

/// A deadline that runs out on a snapshot is counted where it happens:
/// a library caller of the deadlined reads moves `requests_timed_out`
/// with no protocol layer to count on the snapshot's behalf.
#[test]
fn snapshot_read_timeouts_are_counted_by_the_snapshot() {
    let service = CheckerService::new(checker(), Executor::Sync);
    let snapshot = service.snapshot();
    assert!(matches!(snapshot.check_full_deadline(0), Err(ServiceError::Timeout { ms: 0 })));
    assert_eq!(service.stats().requests_timed_out, 1);
    let stmt = xic_xml::XUpdateDoc::parse(&legal("late")).expect("statement parses");
    assert!(matches!(snapshot.decide_deadline(&stmt, 0), Err(ServiceError::Timeout { ms: 0 })));
    assert_eq!(service.stats().requests_timed_out, 2);
    assert!(matches!(snapshot.check_full_deadline(60_000), Ok(None)));
    assert_eq!(service.stats().requests_timed_out, 2, "a read within its deadline counts nothing");
    service.shutdown().expect("shutdown");
}

/// A generous deadline changes nothing: the statement commits normally.
#[test]
fn generous_deadline_commits_normally() {
    let service = CheckerService::with_config(
        checker(),
        ServiceConfig {
            default_deadline_ms: Some(60_000),
            ..Default::default()
        },
    );
    let out = service.submit(&legal("roomy")).expect("submit");
    assert!(out.outcome.applied());
    assert_eq!(service.stats().requests_timed_out, 0);
    service.shutdown().expect("shutdown");
}

/// One injected fsync failure is absorbed by the batch retry budget:
/// the commit is acknowledged, the retry is counted, and the service
/// never leaves `Health::Ok`.
#[test]
fn fsync_retry_absorbs_a_transient_failure() {
    let _guard = FAULTS.lock().expect("fault serialization");
    let path = journal_path("retry");
    let mut c = checker();
    c.attach_store(&path, true).expect("attach store");
    let service = CheckerService::new(c, Executor::group_commit());

    xic_faults::arm_any_thread("journal.sync", 1, FaultMode::Error);
    let out = service.submit(&legal("absorbed")).expect("retried submit");
    xic_faults::disarm_all();
    assert!(out.outcome.applied());
    assert_eq!(service.health(), Health::Ok);
    assert!(service.stats().fsync_retries >= 1, "the retry was not counted");
    assert_eq!(service.stats().service_degraded, 0);
    service.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&path);
}

/// With the retry budget exhausted (`fsync_attempts = 1`) a failing
/// batch fsync degrades the service: the submitter learns its commit is
/// unacknowledged, writes are refused with `Degraded`, reads keep
/// serving the last durable snapshot, and an explicit `recover()`
/// flushes the journal and re-opens writes.
#[test]
fn persistent_fsync_failure_degrades_then_recovers() {
    let _guard = FAULTS.lock().expect("fault serialization");
    let path = journal_path("degrade");
    let mut c = checker();
    c.attach_store(&path, true).expect("attach store");
    let service = CheckerService::with_config(
        c,
        ServiceConfig {
            fsync_attempts: 1,
            ..Default::default()
        },
    );
    let before = service.snapshot();

    xic_faults::arm_any_thread("journal.sync", 1, FaultMode::Error);
    let err = service.submit(&legal("doomed")).expect_err("fsync must fail");
    xic_faults::disarm_all();
    assert!(
        matches!(err, ServiceError::SyncFailed(_)),
        "expected SyncFailed, got {err:?}"
    );
    assert!(format!("{err}").contains("commit not acknowledged"));

    // Degraded mode: health says so, writes are refused, reads serve the
    // last durable snapshot and it still checks clean.
    assert_eq!(service.health(), Health::Degraded);
    assert_eq!(service.stats().service_degraded, 1);
    match service.submit(&legal("refused")) {
        Err(ServiceError::Degraded) => {}
        other => panic!("expected Degraded, got {other:?}"),
    }
    let during = service.snapshot();
    assert_eq!(during.version(), before.version());
    assert_eq!(during.serialize(), before.serialize());
    assert!(during.check_full().expect("degraded read").is_none());

    // The fault is spent, so recovery flushes the journal, republishes
    // (the un-acknowledged commit turns out durable) and re-opens writes.
    service.recover().expect("recover");
    assert_eq!(service.health(), Health::Ok);
    assert_eq!(service.version(), 1);
    let out = service.submit(&legal("after")).expect("post-recovery submit");
    assert!(out.outcome.applied());
    assert_eq!(out.version, 2);
    service.shutdown().expect("shutdown");

    // And the journal agrees: both commits replay.
    let gamma = xicheck::SharedGamma::compile(DTD, CONFLICT).expect("Γ compiles");
    let (recovered, report) =
        Checker::recover_store(&path, CORPUS, &gamma, true).expect("recover");
    assert_eq!(report.replayed, 2);
    assert_eq!(recovered.committed(), 2);
    let _ = std::fs::remove_dir_all(&path);
}

/// A failed batch and the recovery after it leave the log in the sync
/// mode it was attached with: the mode is fixed at attach, the batch
/// path only defers it for the length of a batch.
#[test]
fn recover_keeps_the_configured_sync_mode() {
    let _guard = FAULTS.lock().expect("fault serialization");
    let dir = {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("xic-resil-store-{}-{n}", std::process::id()))
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut c = checker();
    c.attach_store(&dir, true).expect("attach store");
    let service = CheckerService::with_config(
        c,
        ServiceConfig { fsync_attempts: 1, ..Default::default() },
    );
    assert!(service.submit(&legal("pre")).expect("submit").outcome.applied());

    xic_faults::arm_any_thread("journal.sync", 1, FaultMode::Error);
    let err = service.submit(&legal("doomed")).expect_err("fsync must fail");
    xic_faults::disarm_all();
    assert!(matches!(err, ServiceError::SyncFailed(_)), "got {err:?}");
    assert_eq!(service.health(), Health::Degraded);

    service.recover().expect("recover");
    assert_eq!(service.health(), Health::Ok);
    let out = service.submit(&legal("after")).expect("post-recovery submit");
    assert!(out.outcome.applied());

    // Back on this thread (whose counters we can read): every commit
    // outside a batch fsyncs its own record.
    let mut recovered = service.shutdown().expect("shutdown");
    let fsyncs = || xicheck::obs::snapshot().counter(xicheck::obs::Counter::JournalFsync);
    for tag in ["direct-1", "direct-2"] {
        let before = fsyncs();
        assert!(recovered.try_update_str(&legal(tag)).expect("update").applied());
        assert_eq!(fsyncs() - before, 1, "sync = true must survive the failed batch and recover()");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `recover()` on a healthy service is a harmless journal flush.
#[test]
fn recover_is_a_no_op_when_healthy() {
    let service = CheckerService::new(checker(), Executor::group_commit());
    service.recover().expect("no-op recover");
    assert_eq!(service.health(), Health::Ok);
    assert_eq!(service.version(), 0);
    service.shutdown().expect("shutdown");
}

/// Shutdown drains and returns the checker even with read handles still
/// alive; those handles keep working afterwards, and every later call
/// reports `Draining`/`Stopped` instead of panicking (the PR9 fix —
/// this used to `Arc::try_unwrap` and die).
#[test]
fn shutdown_survives_live_read_handles() {
    let service = CheckerService::new(checker(), Executor::group_commit());
    let early = service.snapshot();
    for i in 0..2 {
        service.submit(&legal(&format!("s{i}"))).expect("submit");
    }
    let late = service.snapshot();

    let live = service.shutdown().expect("first shutdown succeeds");
    assert_eq!(live.committed(), 2);

    // Outstanding snapshots are unaffected by the writer going away.
    assert_eq!(early.version(), 0);
    assert_eq!(late.version(), 2);
    assert!(late.check_full().expect("post-shutdown read").is_none());

    // The drained service answers instead of panicking.
    assert_eq!(service.health(), Health::Draining);
    assert!(matches!(service.submit(&legal("x")), Err(ServiceError::Draining)));
    assert!(matches!(service.recover(), Err(ServiceError::Stopped)));
    assert!(matches!(service.shutdown(), Err(ServiceError::Stopped)));
}

/// Same drain contract under the sequential executor.
#[test]
fn sync_executor_shutdown_is_a_result_too() {
    let service = CheckerService::new(checker(), Executor::Sync);
    service.submit(&legal("one")).expect("submit");
    let live = service.shutdown().expect("first shutdown succeeds");
    assert_eq!(live.committed(), 1);
    assert!(matches!(service.submit(&legal("y")), Err(ServiceError::Draining)));
    assert!(matches!(service.shutdown(), Err(ServiceError::Stopped)));
}

/// Client input never reaches the contained-panic path: every operation
/// aimed at a node kind it is not defined for — a `select` hands text,
/// comment, processing-instruction and document nodes through like
/// elements — is answered with a typed `ERR` over the wire, before the
/// first mutation, and the server stays healthy for everyone else.
/// (`rename` of a text node used to poison the checker.)
#[test]
fn an_operation_aimed_at_the_wrong_node_kind_is_an_error_not_a_panic() {
    const COMMENTED: &str = "<collection><!--note--><?app data?><dblp>\
        <pub><title>P1</title><aut><name>ann</name></aut></pub></dblp><review><track>\
        <name>T</name><rev><name>dan</name><sub><title>S</title><auts><name>eve</name></auts>\
        </sub></rev></track></review></collection>";
    const TARGETS: [(&str, &str, &[&str]); 5] = [
        ("//pub/title/text()", "a text node", &["rename", "append", "update"]),
        ("/collection/comment()", "a comment", &["rename", "append", "update"]),
        ("/collection/node()[2]", "a processing instruction", &["rename", "append", "update"]),
        (
            "/",
            "the document node",
            &["rename", "append", "update", "remove", "insert-before", "insert-after"],
        ),
        ("/collection", "the root element", &["remove", "insert-before", "insert-after"]),
    ];
    let service = CheckerService::new(
        Checker::new(COMMENTED, DTD, CONFLICT).expect("corpus setup"),
        Executor::group_commit(),
    );
    for (select, what, ops) in TARGETS {
        for op in ops {
            // A second op behind a legal first one: the prefix is undone.
            let request = format!(
                "UPDATE <xupdate:modifications xmlns:xupdate=\"x\">\
                 <xupdate:update select=\"//track/name\">T2</xupdate:update>\
                 <xupdate:{op} select=\"{select}\">x</xupdate:{op}>\
                 </xupdate:modifications>\nHEALTH\n"
            );
            let mut replies = Vec::new();
            xicheck::protocol::serve_connection(&service, request.as_bytes(), &mut replies)
                .expect("in-memory connection");
            let replies = String::from_utf8(replies).expect("replies are text");
            let (refusal, health) = replies.trim_end().split_once('\n').expect("two replies");
            assert!(
                refusal.starts_with("ERR bad statement: ") && refusal.contains(what),
                "{op} {select}: {refusal}"
            );
            assert_eq!(health, "OK 0 ok", "{op} {select}");
            assert_eq!(service.snapshot().serialize(), COMMENTED, "{op} {select}");
        }
    }
    let out = service.submit(&legal("after")).expect("the writer still commits");
    assert!(out.outcome.applied());
    service.shutdown().expect("shutdown");
}
