//! Overload- and failure-resilience tests for the checker service
//! (DESIGN.md row 22): bounded admission sheds excess submissions,
//! per-request deadlines time out, a failed batch fsync degrades the
//! service to read-only for good — it comes back only by replaying its
//! store — and shutdown drains cleanly with live read handles
//! outstanding.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use xic_faults::{Fault, FaultMode, Faulty, Op, Target};
use xicheck::protocol::{execute, execute_sharded, serve_connection};
use xicheck::service::{apply_batch, BatchDisposition, BatchStmt};
use xicheck::{
    Checker, CheckerService, Executor, Health, ServiceConfig, ServiceError, ShardSet,
    ShardSetConfig, SharedGamma, Store, XUpdateDoc,
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

fn journal_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("xic-resil-{}-{tag}-{n}.store", std::process::id()))
}

fn checker() -> Checker {
    Checker::new(CORPUS, DTD, CONFLICT).expect("corpus setup")
}

/// A checker whose fresh store at `dir` syncs and does its file I/O in
/// the returned `Faulty`.
fn faulty_checker(dir: &Path) -> (Checker, Faulty) {
    let faulty = Faulty::real();
    let mut c = checker();
    c.attach_store_in(faulty.dir(), dir, true).expect("attach store");
    (c, faulty)
}

/// Arms `faulty` to fail the `nth` segment fsync under `dir` from now on.
fn fail_fsync(faulty: &Faulty, dir: &Path, nth: u64) {
    let target = Target { op: Op::SyncData, ending: ".wal" };
    faulty.arm(Fault { target, under: dir.to_path_buf(), nth, mode: FaultMode::Error });
}

/// This thread's `journal_fsyncs` counter.
fn fsyncs() -> u64 {
    xicheck::obs::snapshot().counter(xicheck::obs::Counter::JournalFsync)
}

/// Runs one protocol session against a sharded server; its replies.
fn sharded(set: &ShardSet, requests: &str) -> Vec<String> {
    let mut replies = Vec::new();
    serve_connection(|c| execute_sharded(set, c), requests.as_bytes(), &mut replies)
        .expect("in-memory connection");
    String::from_utf8(replies).expect("replies are text").lines().map(str::to_string).collect()
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
    let (offered, shed) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|scope| {
        let (service, offered, shed) = (&service, &offered, &shed);
        for t in 0..2 {
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let stmt = legal(&format!("t{t}i{i}"));
                    loop {
                        offered.fetch_add(1, Ordering::Relaxed);
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
    let (offered, shed) = (offered.load(Ordering::Relaxed), shed.load(Ordering::Relaxed));
    assert!(shed > 0, "two threads against queue_depth=1 never collided");
    assert_eq!(service.stats().requests_shed, shed);
    assert_eq!(service.version(), (2 * PER_THREAD) as u64, "a retry was lost");
    assert_eq!(service.version() + shed, offered, "acked + shed = offered");
    assert_eq!(service.health(), Health::Ok);
    assert_eq!(service.shutdown().expect("shutdown").committed(), (2 * PER_THREAD) as u64);
}

/// An already-expired deadline is refused with `Timeout` and never
/// executes: the writer expires it at dequeue, so the next commit is
/// still version 1.
#[test]
fn expired_deadline_times_out_without_executing() {
    let service = CheckerService::new(checker(), Executor::GroupCommit);
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

/// A deadline expires when it passes, not on arrival: under
/// `Executor::Sync` the submitter runs its batch at once, with most of a
/// 1 ms deadline left, and a legal statement whose pattern is already
/// compiled is applied. A submitter descheduled for the whole millisecond
/// (a busy host) times out and applies nothing, so that is allowed twice;
/// a deadline that expired on arrival would fail all three tries.
#[test]
fn a_one_millisecond_deadline_is_met_by_a_legal_insert() {
    let mut c = checker();
    c.register_pattern(&XUpdateDoc::parse(&legal("quick")).expect("statement parses"))
        .expect("pattern compiles");
    let service = CheckerService::new(c, Executor::Sync);
    let mut timed_out = 0;
    let out = loop {
        match service.submit_with(&legal("quick"), Some(1)) {
            Ok(out) => break out,
            Err(ServiceError::Timeout { ms: 1 }) if timed_out < 2 => {
                timed_out += 1;
                assert_eq!(service.version(), 0, "a timed-out statement applies nothing");
            }
            other => panic!("try {}: expected an applied insert, got {other:?}", timed_out + 1),
        }
    };
    assert!(out.outcome.applied());
    assert_eq!(out.version, 1);
    assert_eq!(service.stats().requests_timed_out, timed_out);
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

/// A failed batch fsync is final. On the batch path each batch fsyncs
/// its segment once; the failed one fsyncs nothing and nothing tries it
/// again. Through the group-commit service the
/// submitter learns its commit is unacknowledged, the service degrades
/// and stays degraded — later writes are refused without touching the
/// journal — and reads keep serving the last durable snapshot.
#[test]
fn a_failed_batch_fsync_degrades_for_good() {
    let batch = |c: &mut Checker, tags: &[&str]| {
        let stmts: Vec<XUpdateDoc> =
            tags.iter().map(|tag| XUpdateDoc::parse(&legal(tag)).expect("parses")).collect();
        let items: Vec<BatchStmt> =
            stmts.iter().map(|stmt| BatchStmt { stmt, budget: None }).collect();
        apply_batch(c, &items).disposition
    };
    let path = journal_path("batch");
    let (mut c, faulty) = faulty_checker(&path);
    fail_fsync(&faulty, &path, 2);
    let before = fsyncs();
    assert_eq!(batch(&mut c, &["b1", "b2"]), BatchDisposition::Committed);
    assert_eq!((faulty.count(Op::SyncData), fsyncs() - before), (1, 1));
    assert!(matches!(batch(&mut c, &["b3"]), BatchDisposition::SyncFailed(_)));
    assert_eq!((faulty.count(Op::SyncData), fsyncs() - before), (2, 1));
    drop(c);
    let _ = std::fs::remove_dir_all(&path);

    let path = journal_path("degrade");
    let (c, faulty) = faulty_checker(&path);
    let service = CheckerService::new(c, Executor::GroupCommit);
    assert!(service.submit(&legal("pre")).expect("submit").outcome.applied());
    let before = service.snapshot();
    fail_fsync(&faulty, &path, 1);
    let err = service.submit(&legal("doomed")).expect_err("fsync must fail");
    assert!(matches!(err, ServiceError::SyncFailed(_)), "expected SyncFailed, got {err:?}");
    assert!(format!("{err}").contains("commit not acknowledged"));
    let touched = || [Op::Append, Op::SyncData].map(|op| faulty.count(op));
    let after_failure = touched();

    // Degraded for good: every later write is refused before it reaches
    // the journal, on the library API and on the wire alike.
    for tag in ["refused-1", "refused-2"] {
        assert!(matches!(service.submit(&legal(tag)), Err(ServiceError::Degraded)));
    }
    let mut replies = Vec::new();
    let requests = format!("UPDATE {}\nHEALTH\n", legal("wire"));
    serve_connection(|c| execute(&service, c), requests.as_bytes(), &mut replies)
        .expect("in-memory connection");
    let replies = String::from_utf8(replies).expect("replies are text");
    let replies: Vec<&str> = replies.lines().collect();
    assert!(replies[0].starts_with("ERR degraded"), "{}", replies[0]);
    assert_eq!(replies[1], "OK 1 degraded");
    assert_eq!(touched(), after_failure, "a degraded writer touched the journal");
    assert_eq!(service.health(), Health::Degraded);
    assert_eq!(service.stats().service_degraded, 1);
    let during = service.snapshot();
    assert_eq!(during.version(), before.version());
    assert_eq!(during.serialize(), before.serialize());
    assert!(during.check_full().expect("degraded read").is_none());
    service.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&path);
}

/// The sequential executor runs the same batch path, flush included, on
/// the submitting thread, and a failed fsync there is final exactly as
/// under group commit: the
/// commit is not acknowledged, `HEALTH` turns degraded, the next
/// `UPDATE` is refused and reads serve the last published snapshot.
#[test]
fn a_failed_fsync_degrades_the_sync_executor_too() {
    let path = journal_path("sync-executor");
    let (c, faulty) = faulty_checker(&path);
    let service = CheckerService::new(c, Executor::Sync);
    assert!(service.submit(&legal("pre")).expect("submit").outcome.applied());
    let before = service.snapshot();
    fail_fsync(&faulty, &path, 1);
    let err = service.submit(&legal("doomed")).expect_err("fsync must fail");
    assert_eq!(faulty.hits(), 1);
    assert!(matches!(err, ServiceError::SyncFailed(_)), "expected SyncFailed, got {err:?}");

    let mut replies = Vec::new();
    let requests = format!("HEALTH\nUPDATE {}\nCHECK\nVERSION\n", legal("refused"));
    serve_connection(|c| execute(&service, c), requests.as_bytes(), &mut replies)
        .expect("in-memory connection");
    let replies = String::from_utf8(replies).expect("replies are text");
    let replies: Vec<&str> = replies.lines().collect();
    assert_eq!(replies[0], "OK 1 degraded");
    assert!(replies[1].starts_with("ERR degraded"), "{}", replies[1]);
    assert_eq!(replies[2..], ["OK 1 CONSISTENT", "OK 1"]);
    assert_eq!(service.snapshot().serialize(), before.serialize());
    assert_eq!(service.stats().service_degraded, 1);
    service.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&path);
}

/// A checker that recovered degraded (no generation validated) refuses
/// every write itself. Under either executor its service passes that
/// refusal on: the refused batch appended nothing, so nothing is flushed,
/// no fsync fails and the service does not turn degraded.
#[test]
fn a_checker_recovered_degraded_refuses_updates_without_degrading_its_service() {
    let path = journal_path("recovered-degraded");
    let mut c = checker();
    c.attach_store(&path, true).expect("attach store");
    assert!(c.try_update_str(&legal("pre")).expect("update").applied());
    drop(c);
    let gamma = SharedGamma::compile(DTD, CONFLICT).expect("gamma");
    // A base the journal was not keyed to: no generation validates.
    let other_base = CORPUS.replace("P1", "P9");
    for executor in [Executor::Sync, Executor::GroupCommit] {
        let (c, report) =
            Checker::open_store(&path, &other_base, &gamma, true).expect("recover");
        assert!(report.degraded && c.degraded());
        let service = CheckerService::new(c, executor);
        let before = fsyncs();
        let mut replies = Vec::new();
        let requests = format!("UPDATE {}\nHEALTH\nCHECK\n", legal("refused"));
        serve_connection(|c| execute(&service, c), requests.as_bytes(), &mut replies)
            .expect("in-memory connection");
        let replies = String::from_utf8(replies).expect("replies are text");
        let replies: Vec<&str> = replies.lines().collect();
        assert!(replies[0].starts_with("ERR checker is in degraded"), "{}", replies[0]);
        assert_eq!(replies[1..], ["OK 0 ok", "OK 0 CONSISTENT"], "{executor:?}");
        assert_eq!(service.health(), Health::Ok);
        assert_eq!(service.stats().service_degraded, 0, "{executor:?}");
        assert_eq!(fsyncs() - before, 0, "{executor:?}");
        service.shutdown().expect("shutdown");
    }
    let _ = std::fs::remove_dir_all(&path);
}

/// Degraded and poisoned share one way back, over the wire of a sharded
/// server: the degraded shard is refused, its sibling keeps committing,
/// and `recover_shard` replays the shard, checkpoints it (one generation
/// up) and puts a healthy service in its slot whose commits survive a
/// whole-set recovery byte for byte.
#[test]
fn a_degraded_shard_comes_back_by_replay() {
    let root = journal_path("shards");
    let faulty = Faulty::real();
    let bases = [CORPUS, CORPUS];
    let set = ShardSet::create_in(faulty.dir(), &root, &bases, DTD, CONFLICT, ShardSetConfig::default())
        .expect("shard set");
    let update = |doc: usize, tag: &str| format!("DOC {doc} UPDATE {}\n", legal(tag));
    assert_eq!(sharded(&set, &update(0, "pre")), ["OK 1 APPLIED optimized"]);

    fail_fsync(&faulty, &root.join("shard-0"), 1);
    let replies = sharded(&set, &update(0, "doomed"));
    assert_eq!(faulty.hits(), 1);
    assert!(replies[0].starts_with("ERR group-commit fsync failed"), "{}", replies[0]);
    assert_eq!(sharded(&set, "HEALTH\n"), ["OK 1 degraded shard-0=degraded shard-1=ok"]);
    assert_eq!(sharded(&set, &update(1, "sibling")), ["OK 1 APPLIED optimized"]);
    assert!(sharded(&set, &update(0, "refused"))[0].starts_with("ERR degraded"));

    let report = set.recover_shard(0).expect("recover_shard");
    assert_eq!(report.generation, 0);
    let checkpointed = || Store::ckpt_path(&root.join("shard-0"), 1).exists();
    assert!(!checkpointed(), "replay alone wrote a checkpoint");
    let health = sharded(&set, "HEALTH\n");
    assert!(health[0].ends_with(" ok shard-0=ok shard-1=ok"), "{health:?}");
    // The failed batch's record was written before its fsync failed;
    // replay may or may not find it — never acknowledged either way.
    let version = sharded(&set, "DOC 0 VERSION\n");
    assert!(version == ["OK 1"] || version == ["OK 2"], "{version:?}");
    // The first write moves the shard one generation up before it
    // appends: nothing acknowledged lands behind the failed segment.
    let replies = sharded(&set, &update(0, "after"));
    assert!(replies[0].ends_with("APPLIED optimized"), "{}", replies[0]);
    assert!(checkpointed(), "the first write after the replay did not checkpoint");
    let live = set.snapshot(0).expect("snapshot").serialize();
    set.shutdown().expect("shutdown");
    drop(set);

    let (set, report) =
        ShardSet::recover(&root, &[CORPUS, CORPUS], DTD, CONFLICT, ShardSetConfig::default(), true)
            .expect("whole-set recovery");
    assert_eq!(report.shards[0].generation, 1);
    assert_eq!(set.snapshot(0).expect("snapshot").serialize(), live);
    set.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

/// A restart over the store after a failed batch fsync — how a
/// single-document server comes back: `open_store` replays it, and its
/// first write checkpoints before appending, so no commit lands behind
/// the segment whose fsync failed. The checker
/// journals in the sync mode it is reopened with: every commit outside a
/// batch fsyncs its own record.
#[test]
fn a_replayed_checker_keeps_the_configured_sync_mode() {
    let dir = journal_path("sync-mode");
    let (c, faulty) = faulty_checker(&dir);
    let service = CheckerService::new(c, Executor::GroupCommit);
    assert!(service.submit(&legal("pre")).expect("submit").outcome.applied());
    fail_fsync(&faulty, &dir, 1);
    let err = service.submit(&legal("doomed")).expect_err("fsync must fail");
    assert!(matches!(err, ServiceError::SyncFailed(_)), "got {err:?}");
    drop(service.shutdown().expect("shutdown"));

    let gamma = SharedGamma::compile(DTD, CONFLICT).expect("Γ compiles");
    let (mut recovered, report) =
        Checker::open_store(&dir, CORPUS, &gamma, true).expect("restart over the store");
    assert!(!report.degraded);
    assert_eq!((report.generation, recovered.store_generation()), (0, 0));
    assert!(recovered.check_full().expect("read").is_none());
    assert!(!Store::ckpt_path(&dir, 1).exists(), "a read checkpointed");
    assert!(recovered.try_update_str(&legal("first")).expect("update").applied());
    assert_eq!(recovered.store_generation(), 1, "the first write appended behind the replay");
    assert!(Store::ckpt_path(&dir, 1).exists());
    for tag in ["direct-1", "direct-2"] {
        let before = fsyncs();
        assert!(recovered.try_update_str(&legal(tag)).expect("update").applied());
        assert_eq!(fsyncs() - before, 1, "sync = true must hold on the replayed checker");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutdown drains and returns the checker even with read handles still
/// alive; those handles keep working afterwards, and every later call
/// reports `Draining`/`Stopped` instead of panicking (the PR9 fix —
/// this used to `Arc::try_unwrap` and die).
#[test]
fn shutdown_survives_live_read_handles() {
    let service = CheckerService::new(checker(), Executor::GroupCommit);
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
    // (select, content, what the refusal names, ops)
    const TARGETS: [(&str, &str, &str, &[&str]); 6] = [
        ("//pub/title/text()", "x", "a text node", &["rename", "append", "update"]),
        ("/collection/comment()", "x", "a comment", &["rename", "append", "update"]),
        ("/collection/node()[2]", "x", "a processing instruction", &["rename", "append", "update"]),
        (
            "/",
            "x",
            "the document node",
            &["rename", "append", "update", "remove", "insert-before", "insert-after"],
        ),
        ("/collection", "x", "the root element", &["remove", "insert-before", "insert-after"]),
        ("//pub/title", "2nd title", "is not an XML name", &["rename"]),
    ];
    let service = CheckerService::new(
        Checker::new(COMMENTED, DTD, CONFLICT).expect("corpus setup"),
        Executor::GroupCommit,
    );
    for (select, content, what, ops) in TARGETS {
        for op in ops {
            // A second op behind a legal first one: the prefix is undone.
            let stmt = format!(
                "<xupdate:modifications xmlns:xupdate=\"x\">\
                 <xupdate:update select=\"//track/name\">T2</xupdate:update>\
                 <xupdate:{op} select=\"{select}\">{content}</xupdate:{op}>\
                 </xupdate:modifications>"
            );
            let request = format!("UPDATE {stmt}\nDECIDE {stmt}\nHEALTH\n");
            let mut replies = Vec::new();
            serve_connection(|c| execute(&service, c), request.as_bytes(), &mut replies)
                .expect("in-memory connection");
            let replies = String::from_utf8(replies).expect("replies are text");
            let replies: Vec<&str> = replies.lines().collect();
            let [update, decide, health] = replies[..] else { panic!("{replies:?}") };
            for refusal in [update, decide] {
                assert!(
                    refusal.starts_with("ERR bad statement: ") && refusal.contains(what),
                    "{op} {select}: {refusal}"
                );
            }
            assert_eq!(health, "OK 0 ok", "{op} {select}");
            assert_eq!(service.snapshot().serialize(), COMMENTED, "{op} {select}");
        }
    }
    let out = service.submit(&legal("after")).expect("the writer still commits");
    assert!(out.outcome.applied());
    service.shutdown().expect("shutdown");
}
