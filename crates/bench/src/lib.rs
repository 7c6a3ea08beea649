//! Shared harness for the Section 7 experiments.
//!
//! Each figure of the paper compares, across document sizes, the time to
//! (i) verify the original constraint against the whole document, (ii)
//! verify the optimized (simplified, pre-update) constraint, and (iii)
//! execute an update, verify the original constraint, and undo the update
//! — the paper's diamonds, squares and triangles.
//!
//! In the system-inventory table of `DESIGN.md` this crate is item 13 (benchmark harness).

use std::time::{Duration, Instant};
use xic_workload::{generate, Workload, WorkloadConfig};
use xic_xml::{apply, undo, XUpdateDoc};
use xicheck::{Checker, CheckerService, Executor, UpdateOutcome};

/// Which of the two running examples an experiment exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Figure 1(a): conflict of interests (Examples 1/3/6).
    ConflictOfInterests,
    /// Figure 1(b): conference workload (the aggregate constraints of
    /// Examples 2 and 7).
    ConferenceWorkload,
}

/// A prepared experiment instance: checker + one legal and one illegal
/// statement matching the compiled pattern.
pub struct Instance {
    /// The checker, loaded with the sized corpus.
    pub checker: Checker,
    /// Corpus size in bytes (serialized).
    pub corpus_bytes: usize,
    /// A statement that passes the constraint.
    pub legal: XUpdateDoc,
    /// A statement that violates it.
    pub illegal: XUpdateDoc,
}

/// The paper's combined DTD.
pub fn dtd_text() -> &'static str {
    "<!ELEMENT collection (dblp, review)>\n<!ELEMENT dblp (pub)*>\n\
     <!ELEMENT pub (title, aut+)>\n<!ELEMENT aut (name)>\n\
     <!ELEMENT review (track)+>\n<!ELEMENT track (name,rev+)>\n\
     <!ELEMENT rev (name, sub+)>\n<!ELEMENT sub (title, auts+)>\n\
     <!ELEMENT title (#PCDATA)>\n<!ELEMENT auts (name)>\n\
     <!ELEMENT name (#PCDATA)>"
}

/// A statement appending `n` fresh-author submissions to one reviewer.
fn multi_insert(track: usize, rev: usize, n: usize, serial: usize) -> String {
    let mut subs = String::new();
    for i in 0..n {
        subs.push_str(&format!(
            "<sub><title>Batch {serial}-{i}</title>\
             <auts><name>newcomer{serial:05}x{i}</name></auts></sub>"
        ));
    }
    format!(
        r#"<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:append select="/collection/review/track[{}]/rev[{}]">{subs}</xupdate:append>
</xupdate:modifications>"#,
        track + 1,
        rev + 1
    )
}

/// Builds an experiment instance at roughly `kib` KiB.
///
/// For the conference-workload experiment the aggregate thresholds are
/// derived from the corpus so that it starts exactly consistent: the
/// per-reviewer-node bound sits one above the generated fan-out, making a
/// single-submission insert legal and a two-submission batch illegal.
pub fn instance(exp: Experiment, kib: usize, seed: u64) -> Instance {
    let w: Workload = generate(WorkloadConfig::sized_kib(kib, seed));
    let corpus_bytes = w.xml.len();
    let (constraints, legal_text, illegal_text) = match exp {
        Experiment::ConflictOfInterests => (
            xic_workload::conflict_constraint().to_string(),
            xic_workload::legal_insert(0, 0, 900_001),
            xic_workload::illegal_insert(0, 0, &w.reviewers[0][0]),
        ),
        Experiment::ConferenceWorkload => {
            // Highest per-name submission load in the corpus.
            let mut counts = std::collections::HashMap::new();
            for track in &w.reviewers {
                for r in track {
                    *counts.entry(r.as_str()).or_insert(0usize) += w.config.subs_per_rev;
                }
            }
            let max_name_subs = counts.values().copied().max().unwrap_or(0);
            let constraints = format!(
                "{}. {}",
                xic_workload::workload_constraint(3, max_name_subs + 1),
                xic_workload::review_load_constraint(w.config.subs_per_rev + 1),
            );
            (
                constraints,
                xic_workload::legal_insert(0, 0, 900_001),
                multi_insert(0, 0, 2, 900_002),
            )
        }
    };
    let mut checker =
        Checker::new(&w.xml, dtd_text(), &constraints).expect("generated corpus must load");
    let legal = XUpdateDoc::parse(&legal_text).expect("legal stmt");
    let illegal = XUpdateDoc::parse(&illegal_text).expect("illegal stmt");
    // Schema-design-time compilation: register both patterns once.
    checker.register_pattern(&legal).expect("pattern registration");
    checker
        .register_pattern(&illegal)
        .expect("pattern registration");
    Instance {
        checker,
        corpus_bytes,
        legal,
        illegal,
    }
}

/// Times `f` over `iters` runs and returns the mean duration (with one
/// warm-up run, as in the paper's protocol).
pub fn time_mean<F: FnMut()>(iters: usize, mut f: F) -> Duration {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / u32::try_from(iters.max(1)).expect("small iter counts")
}

/// One row of a figure: mean milliseconds for the three curves.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Corpus size in KiB (x axis).
    pub kib: usize,
    /// Actual serialized bytes.
    pub bytes: usize,
    /// (i) full check of the original constraint (diamonds).
    pub full_ms: f64,
    /// (ii) optimized pre-update check (squares).
    pub optimized_ms: f64,
    /// (iii) update + full check + undo (triangles).
    pub update_full_undo_ms: f64,
}

/// Measures one figure row.
pub fn measure_row(exp: Experiment, kib: usize, seed: u64, iters: usize) -> Row {
    let mut inst = instance(exp, kib, seed);

    let full = time_mean(iters, || {
        let v = inst.checker.check_full().expect("full check");
        assert!(v.is_none(), "corpus must be consistent");
    });

    let legal = inst.legal.clone();
    let optimized = time_mean(iters, || {
        let v = inst.checker.check_optimized(&legal).expect("optimized");
        assert!(v.is_none(), "legal update must pass");
    });

    let update_full_undo = time_mean(iters, || {
        let doc = inst.checker.doc_mut();
        let applied = apply(doc, &legal, &xicheck::xpath_resolver).expect("apply");
        let v = inst.checker.check_full().expect("full check");
        assert!(v.is_none());
        undo(inst.checker.doc_mut(), applied);
    });

    Row {
        kib,
        bytes: inst.corpus_bytes,
        full_ms: full.as_secs_f64() * 1e3,
        optimized_ms: optimized.as_secs_f64() * 1e3,
        update_full_undo_ms: update_full_undo.as_secs_f64() * 1e3,
    }
}

/// End-to-end handling of an illegal statement under both strategies
/// (E5): optimized = reject before execution; baseline = apply + full
/// check + compensating rollback.
#[derive(Debug, Clone, Copy)]
pub struct IllegalRow {
    /// Corpus size in KiB.
    pub kib: usize,
    /// Optimized end-to-end rejection time (ms).
    pub optimized_reject_ms: f64,
    /// Baseline apply + check + rollback time (ms).
    pub baseline_reject_ms: f64,
}

/// Measures the illegal-update scenario.
pub fn measure_illegal(exp: Experiment, kib: usize, seed: u64, iters: usize) -> IllegalRow {
    let mut inst = instance(exp, kib, seed);
    let illegal = inst.illegal.clone();

    let optimized = time_mean(iters, || {
        let out = inst.checker.try_update(&illegal).expect("try_update");
        assert!(!out.applied(), "illegal update must be rejected");
        assert!(matches!(out, UpdateOutcome::Rejected { .. }));
    });

    // Baseline: apply + full check + undo (the violation fires, so the
    // compensating action always runs).
    let baseline = time_mean(iters, || {
        let doc = inst.checker.doc_mut();
        let applied = apply(doc, &illegal, &xicheck::xpath_resolver).expect("apply");
        let v = inst.checker.check_full().expect("full check");
        assert!(v.is_some(), "violation must be detected post-update");
        undo(inst.checker.doc_mut(), applied);
    });

    IllegalRow {
        kib,
        optimized_reject_ms: optimized.as_secs_f64() * 1e3,
        baseline_reject_ms: baseline.as_secs_f64() * 1e3,
    }
}

fn counter_value(snap: &xic_obs::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| *v)
}

/// Cached document-order ranks vs from-scratch path keys on a
/// deduplication-heavy query.
#[derive(Debug, Clone, Copy)]
pub struct OrderCacheRow {
    /// Corpus size in KiB.
    pub kib: usize,
    /// Query time with the order cache enabled (ms).
    pub cached_ms: f64,
    /// Same query on a cache-disabled clone (ms).
    pub uncached_ms: f64,
    /// Rank-based sorts taken by one cached evaluation.
    pub fast_sorts: u64,
    /// Path-key sorts taken by one uncached evaluation.
    pub path_sorts: u64,
}

/// Measures a dedupe-heavy parent-step query (`//name/..` — every hit is
/// produced once per `name` child, so the sort/dedupe pass dominates)
/// with and without the document-order rank cache.
pub fn measure_order_cache(kib: usize, seed: u64, iters: usize) -> OrderCacheRow {
    let w: Workload = generate(WorkloadConfig::sized_kib(kib, seed));
    let (doc, _) = xic_xml::parse_document(&w.xml).expect("corpus parses");
    let mut plain = doc.clone();
    plain.disable_order_cache();
    let expr = xic_xpath::parse("//name/..").expect("query parses");

    let run = |d: &xic_xml::Document| {
        let hits = xic_xpath::evaluate_nodes(&expr, &xic_xpath::Context::root(d)).expect("eval");
        assert!(!hits.is_empty());
    };
    xic_obs::reset();
    run(&doc);
    let fast_sorts = counter_value(&xic_obs::snapshot(), "doc_order_fast_sort");
    xic_obs::reset();
    run(&plain);
    let path_sorts = counter_value(&xic_obs::snapshot(), "doc_order_path_sort");

    let cached = time_mean(iters, || run(&doc));
    let uncached = time_mean(iters, || run(&plain));
    OrderCacheRow {
        kib,
        cached_ms: cached.as_secs_f64() * 1e3,
        uncached_ms: uncached.as_secs_f64() * 1e3,
        fast_sorts,
        path_sorts,
    }
}

/// Per-update cost of the write-ahead journal on the Section 7 update
/// workload (a stream of legal pattern-matching inserts through
/// [`Checker::try_update`]), with the journal detached, attached without
/// fsync, and attached with per-record fsync.
#[derive(Debug, Clone, Copy)]
pub struct JournalRow {
    /// Corpus size in KiB.
    pub kib: usize,
    /// Mean per-update time with no journal (ms).
    pub off_ms: f64,
    /// Mean per-update time with the journal on, fsync off (ms).
    pub nosync_ms: f64,
    /// Mean per-update time with the journal on, fsync per record (ms).
    pub fsync_ms: f64,
    /// `(nosync - off) / off`, in percent.
    pub nosync_overhead_pct: f64,
    /// Journal records appended during the fsync run.
    pub appends: u64,
    /// `sync_data` calls during the fsync run.
    pub fsyncs: u64,
}

fn journal_tmp(tag: &str, kib: usize, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "xic-bench-{}-{tag}-{kib}k-{seed}.wal",
        std::process::id()
    ))
}

/// Measures [`JournalRow`]. Every configuration drives the same statement
/// stream from the same starting corpus (each insert adds a fresh-author
/// submission, which the conflict constraint always accepts, so the
/// document grows identically under all three configurations). The
/// journal's per-record cost (microseconds) is far below the run-to-run
/// noise of the millisecond-scale optimized check it rides on, so each
/// configuration is repeated and the *fastest* repetition is kept — the
/// standard way to measure a small additive overhead.
pub fn measure_journal(exp: Experiment, kib: usize, seed: u64, iters: usize) -> JournalRow {
    const REPS: usize = 3;
    let run = |sync: Option<bool>, tag: &str| -> (Duration, u64, u64) {
        let mut best: Option<(Duration, u64, u64)> = None;
        for rep in 0..REPS {
            let mut inst = instance(exp, kib, seed);
            let path = journal_tmp(&format!("{tag}{rep}"), kib, seed);
            if let Some(sync) = sync {
                inst.checker
                    .attach_journal(&path, sync)
                    .expect("journal attaches");
            }
            let legal = inst.legal.clone();
            xic_obs::reset();
            let t = time_mean(iters, || {
                let out = inst.checker.try_update(&legal).expect("legal update");
                assert!(out.applied());
            });
            let snap = xic_obs::snapshot();
            let _ = std::fs::remove_file(&path);
            let sample = (
                t,
                counter_value(&snap, "journal_appends"),
                counter_value(&snap, "journal_fsyncs"),
            );
            if best.is_none_or(|(b, _, _)| t < b) {
                best = Some(sample);
            }
        }
        best.expect("REPS > 0")
    };
    let (off, _, _) = run(None, "off");
    let (nosync, _, _) = run(Some(false), "nosync");
    let (fsync, appends, fsyncs) = run(Some(true), "fsync");
    let off_ms = off.as_secs_f64() * 1e3;
    let nosync_ms = nosync.as_secs_f64() * 1e3;
    JournalRow {
        kib,
        off_ms,
        nosync_ms,
        fsync_ms: fsync.as_secs_f64() * 1e3,
        nosync_overhead_pct: (nosync_ms - off_ms) / off_ms * 100.0,
        appends,
        fsyncs,
    }
}

/// Cost of evaluation-step budgeting on the optimized existential fast
/// path: the same pre-update check unbudgeted and under a generous budget
/// (charging enabled, never exhausted), plus the verdict-preserving
/// fallback when a tiny budget exhausts.
#[derive(Debug, Clone, Copy)]
pub struct BudgetRow {
    /// Corpus size in KiB.
    pub kib: usize,
    /// Optimized check, no budget armed (ms).
    pub unbudgeted_ms: f64,
    /// Optimized check under a never-exhausting budget (ms).
    pub budgeted_ms: f64,
    /// `(budgeted - unbudgeted) / unbudgeted`, in percent.
    pub overhead_pct: f64,
    /// End-to-end `try_update` time when a zero budget forces the
    /// baseline fallback (ms) — the graceful-degradation cost ceiling.
    pub exhausted_fallback_ms: f64,
}

/// Measures [`BudgetRow`] on the legal statement's optimized check.
pub fn measure_budget(exp: Experiment, kib: usize, seed: u64, iters: usize) -> BudgetRow {
    let mut inst = instance(exp, kib, seed);
    let legal = inst.legal.clone();

    inst.checker.set_eval_budget(None);
    let unbudgeted = time_mean(iters, || {
        assert!(inst.checker.check_optimized(&legal).expect("check").is_none());
    });
    inst.checker.set_eval_budget(Some(xicheck::EvalBudget::new(u64::MAX / 2)));
    let budgeted = time_mean(iters, || {
        assert!(inst.checker.check_optimized(&legal).expect("check").is_none());
    });

    // Exhaustion path: a zero budget trips on the first visit and
    // try_update degrades to apply + full check + rollback-on-violation.
    inst.checker.set_eval_budget(Some(xicheck::EvalBudget::new(0)));
    let fallback = time_mean(iters, || {
        let out = inst.checker.try_update(&legal).expect("fallback update");
        assert!(out.applied());
        assert_eq!(out.strategy(), xicheck::Strategy::FullWithRollback);
    });

    let unbudgeted_ms = unbudgeted.as_secs_f64() * 1e3;
    let budgeted_ms = budgeted.as_secs_f64() * 1e3;
    BudgetRow {
        kib,
        unbudgeted_ms,
        budgeted_ms,
        overhead_pct: (budgeted_ms - unbudgeted_ms) / unbudgeted_ms * 100.0,
        exhausted_fallback_ms: fallback.as_secs_f64() * 1e3,
    }
}

/// Recovery time versus committed-history length, with and without
/// checkpointing. Without checkpoints, [`Checker::recover`] replays the
/// whole history — cost linear in `history`. With an automatic rotation
/// policy, [`Checker::recover_store`] replays only the suffix since the
/// newest snapshot — cost bounded by the rotation interval, flat in
/// `history` (the durability analogue of the paper's Simp making check
/// cost flat in document size).
#[derive(Debug, Clone, Copy)]
pub struct CheckpointRow {
    /// Committed statements before the simulated crash.
    pub history: usize,
    /// Rotation interval (statements) for the checkpointed run.
    pub interval: u64,
    /// Full-history recovery time, no checkpoints (ms).
    pub no_ckpt_recover_ms: f64,
    /// Suffix recovery time from the newest snapshot (ms).
    pub ckpt_recover_ms: f64,
    /// Commits replayed by the checkpointed recovery (≤ `interval`).
    pub ckpt_replayed: usize,
    /// Generation the checkpointed recovery restored from.
    pub generation: u64,
}

fn store_tmp(tag: &str, n: usize, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "xic-bench-store-{}-{tag}-{n}-{seed}",
        std::process::id()
    ))
}

/// Measures [`CheckpointRow`] on the conflict-of-interests workload (its
/// constraint set is corpus-independent, so the recovery entry points can
/// be handed the same base text the journaled run started from).
///
/// The committed history alternates a legal insert with the removal of
/// the inserted submission, so the document — and therefore every
/// snapshot — stays at its base size however long the history grows.
/// That isolates the variable under test: replay length.
pub fn measure_checkpoint(history: usize, interval: u64, kib: usize, seed: u64, iters: usize) -> CheckpointRow {
    let w = generate(WorkloadConfig::sized_kib(kib, seed));
    let constraints = xic_workload::conflict_constraint();
    let legal = XUpdateDoc::parse(&xic_workload::legal_insert(0, 0, 900_001)).expect("legal stmt");
    // The insert appends to track 1 / rev 1, so the new sub sits right
    // after the generator's fixed per-reviewer fan-out.
    let remove_text = format!(
        r#"<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:remove select="/collection/review/track[1]/rev[1]/sub[{}]"/>
</xupdate:modifications>"#,
        w.config.subs_per_rev + 1
    );
    let remove = XUpdateDoc::parse(&remove_text).expect("remove stmt");
    let commit_history = |checker: &mut Checker| {
        for i in 0..history {
            let stmt = if i % 2 == 0 { &legal } else { &remove };
            assert!(checker.try_update(stmt).expect("legal update").applied());
        }
    };

    // Without checkpoints: one journal holding the entire history.
    let path = journal_tmp("ckpt-none", history, seed);
    {
        let mut checker = Checker::new(&w.xml, dtd_text(), constraints).expect("corpus loads");
        checker.register_pattern(&legal).expect("pattern registration");
        checker.attach_journal(&path, false).expect("journal attaches");
        commit_history(&mut checker);
    } // crash
    let no_ckpt = time_mean(iters, || {
        let (_c, rep) = Checker::recover(&w.xml, dtd_text(), constraints, &path)
            .expect("recovery");
        assert_eq!(rep.replayed, history);
    });
    let _ = std::fs::remove_file(&path);

    // With checkpoints: same history, automatic rotation every `interval`.
    let dir = store_tmp("ckpt", history, seed);
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut checker = Checker::new(&w.xml, dtd_text(), constraints).expect("corpus loads");
        checker.register_pattern(&legal).expect("pattern registration");
        checker.attach_store(&dir, false).expect("store attaches");
        checker.set_checkpoint_policy(xicheck::CheckpointPolicy::every_commits(interval));
        commit_history(&mut checker);
    } // crash
    let gamma = xicheck::SharedGamma::compile(dtd_text(), constraints).expect("Γ compiles");
    let (_c, rep) =
        Checker::recover_store(&dir, &w.xml, &gamma, true).expect("store recovery");
    assert!(!rep.degraded);
    assert_eq!(rep.base_commit_seq as usize + rep.replayed, history);
    let (ckpt_replayed, generation) = (rep.replayed, rep.generation);
    let ckpt = time_mean(iters, || {
        let (_c, rep) =
            Checker::recover_store(&dir, &w.xml, &gamma, true).expect("store recovery");
        assert!(!rep.degraded);
    });
    let _ = std::fs::remove_dir_all(&dir);

    CheckpointRow {
        history,
        interval,
        no_ckpt_recover_ms: no_ckpt.as_secs_f64() * 1e3,
        ckpt_recover_ms: ckpt.as_secs_f64() * 1e3,
        ckpt_replayed,
        generation,
    }
}

/// Cost of one atomic checkpoint (serialize + tmp write + fsync + rename
/// + dir fsync + fresh segment) as the document grows.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointWriteRow {
    /// Corpus size in KiB.
    pub kib: usize,
    /// Serialized snapshot bytes actually written.
    pub bytes: usize,
    /// Mean cost of [`Checker::checkpoint`] (ms).
    pub write_ms: f64,
}

/// Measures [`CheckpointWriteRow`]; every iteration rotates to a fresh
/// generation (retention keeps the store directory bounded).
pub fn measure_checkpoint_write(exp: Experiment, kib: usize, seed: u64, iters: usize) -> CheckpointWriteRow {
    let mut inst = instance(exp, kib, seed);
    let dir = store_tmp("write", kib, seed);
    let _ = std::fs::remove_dir_all(&dir);
    inst.checker.attach_store(&dir, false).expect("store attaches");
    let legal = inst.legal.clone();
    assert!(inst.checker.try_update(&legal).expect("legal update").applied());
    let bytes = xic_xml::serialize(inst.checker.doc()).len();
    let write = time_mean(iters, || {
        inst.checker.checkpoint().expect("checkpoint");
    });
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointWriteRow {
        kib,
        bytes,
        write_ms: write.as_secs_f64() * 1e3,
    }
}

/// Multi-client service throughput and latency (E10): `clients` writer
/// threads each submit a stream of legal pattern-matching inserts
/// through a [`CheckerService`] whose journal fsyncs — under the
/// sequential executor (one fsync per commit) and the group-commit
/// executor (one shared fsync per batch).
#[derive(Debug, Clone, Copy)]
pub struct ServiceRow {
    /// Concurrent writer clients.
    pub clients: usize,
    /// Executor under test: `"sync"` or `"group-commit"`.
    pub executor: &'static str,
    /// Total acknowledged updates across all clients.
    pub updates: usize,
    /// Wall-clock time for the whole run (ms).
    pub wall_ms: f64,
    /// Acknowledged updates per second.
    pub throughput_per_s: f64,
    /// Median submit→ack latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile submit→ack latency (ms).
    pub p99_ms: f64,
}

/// Measures [`ServiceRow`] on the conflict-of-interests workload. Every
/// statement is a fresh-author insert (always legal, and hitting the
/// registered pattern's optimized check), so throughput differences
/// between the executors isolate the commit path — per-commit fsyncs
/// versus one shared fsync per batch. Latency is measured per submit on
/// each client thread, from the call to the durable acknowledgement.
pub fn measure_service(
    kib: usize,
    seed: u64,
    clients: usize,
    per_client: usize,
    executor: Executor,
) -> ServiceRow {
    let name = match executor {
        Executor::Sync => "sync",
        Executor::GroupCommit { .. } => "group-commit",
    };
    let w = generate(WorkloadConfig::sized_kib(kib, seed));
    let constraints = xic_workload::conflict_constraint();
    let mut checker = Checker::new(&w.xml, dtd_text(), constraints).expect("corpus loads");
    let pattern =
        XUpdateDoc::parse(&xic_workload::legal_insert(0, 0, 900_001)).expect("legal stmt");
    checker.register_pattern(&pattern).expect("pattern registration");
    let path = journal_tmp(&format!("svc-{name}-{clients}"), kib, seed);
    let _ = std::fs::remove_file(&path);
    checker.attach_journal(&path, true).expect("journal attaches");
    let service = CheckerService::new(checker, executor);

    let start = Instant::now();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(clients * per_client);
    std::thread::scope(|scope| {
        let service = &service;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut lats = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        // Distinct serials keep every author fresh, so
                        // each insert stays legal as the run proceeds.
                        let serial = 100_000 + c * per_client + i;
                        let stmt = xic_workload::legal_insert(0, 0, serial);
                        let t = Instant::now();
                        let out = service.submit(&stmt).expect("legal update");
                        lats.push(t.elapsed().as_secs_f64() * 1e3);
                        assert!(out.outcome.applied());
                    }
                    lats
                })
            })
            .collect();
        for h in handles {
            latencies_ms.extend(h.join().expect("client thread"));
        }
    });
    let wall = start.elapsed();
    let live = service.shutdown().expect("first shutdown succeeds");
    assert_eq!(live.committed(), (clients * per_client) as u64);
    let _ = std::fs::remove_file(&path);

    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: usize| latencies_ms[(latencies_ms.len() * p / 100).min(latencies_ms.len() - 1)];
    let updates = clients * per_client;
    ServiceRow {
        clients,
        executor: name,
        updates,
        wall_ms: wall.as_secs_f64() * 1e3,
        throughput_per_s: updates as f64 / wall.as_secs_f64(),
        p50_ms: pct(50),
        p99_ms: pct(99),
    }
}

/// One point on the overload curve (E13): `clients` closed-loop writers
/// against a service with a deliberately small admission queue, counting
/// what the service sheds versus what it commits.
#[derive(Debug, Clone, Copy)]
pub struct OverloadRow {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Admission bound the service was configured with.
    pub queue_depth: usize,
    /// Submit attempts across all clients (acks + sheds = offered load).
    pub offered: usize,
    /// Acknowledged commits (the goodput numerator).
    pub acked: usize,
    /// Attempts refused with `Overloaded`.
    pub shed: usize,
    /// Wall-clock time for the whole run (ms).
    pub wall_ms: f64,
    /// Acknowledged commits per second.
    pub goodput_per_s: f64,
    /// Submit attempts per second (offered load).
    pub offered_per_s: f64,
    /// 99th-percentile latency of *successful* submits (ms).
    pub p99_ms: f64,
}

impl OverloadRow {
    /// Fraction of attempts shed, in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

/// Measures [`OverloadRow`]: each client submits `per_client` legal
/// pattern-matching inserts and, when shed, retries after a
/// seed-deterministic jittered exponential backoff (1–2, 2–4, 4–8 … ms,
/// capped at 32 ms) — the protocol's documented client discipline. Every
/// statement therefore commits exactly once; what the curve shows is how
/// goodput plateaus and shed rate grows as clients outnumber the
/// admission queue, instead of latency collapsing.
pub fn measure_overload(
    kib: usize,
    seed: u64,
    clients: usize,
    per_client: usize,
    queue_depth: usize,
) -> OverloadRow {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xicheck::{ServiceConfig, ServiceError};

    let w = generate(WorkloadConfig::sized_kib(kib, seed));
    let constraints = xic_workload::conflict_constraint();
    let mut checker = Checker::new(&w.xml, dtd_text(), constraints).expect("corpus loads");
    let pattern =
        XUpdateDoc::parse(&xic_workload::legal_insert(0, 0, 900_002)).expect("legal stmt");
    checker.register_pattern(&pattern).expect("pattern registration");
    let path = journal_tmp(&format!("ovl-{clients}"), kib, seed);
    let _ = std::fs::remove_file(&path);
    checker.attach_journal(&path, true).expect("journal attaches");
    let service = CheckerService::with_config(
        checker,
        ServiceConfig {
            queue_depth,
            ..Default::default()
        },
    );

    let start = Instant::now();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(clients * per_client);
    let mut offered = 0usize;
    let mut shed = 0usize;
    std::thread::scope(|scope| {
        let service = &service;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng =
                        StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9e37_79b9));
                    let mut lats = Vec::with_capacity(per_client);
                    let mut attempts = 0usize;
                    let mut rejected = 0usize;
                    for i in 0..per_client {
                        let serial = 200_000 + c * per_client + i;
                        let stmt = xic_workload::legal_insert(0, 0, serial);
                        let mut backoff_ms = 1u64;
                        loop {
                            attempts += 1;
                            let t = Instant::now();
                            match service.submit(&stmt) {
                                Ok(out) => {
                                    assert!(out.outcome.applied());
                                    lats.push(t.elapsed().as_secs_f64() * 1e3);
                                    break;
                                }
                                Err(ServiceError::Overloaded { .. }) => {
                                    rejected += 1;
                                    let jitter =
                                        rng.gen_range(backoff_ms..=backoff_ms.saturating_mul(2));
                                    std::thread::sleep(Duration::from_millis(jitter));
                                    backoff_ms = (backoff_ms * 2).min(32);
                                }
                                Err(e) => panic!("unexpected submit error: {e}"),
                            }
                        }
                    }
                    (lats, attempts, rejected)
                })
            })
            .collect();
        for h in handles {
            let (lats, attempts, rejected) = h.join().expect("client thread");
            latencies_ms.extend(lats);
            offered += attempts;
            shed += rejected;
        }
    });
    let wall = start.elapsed();
    let stats = service.stats();
    assert_eq!(stats.requests_shed as usize, shed, "shed accounting disagrees");
    let live = service.shutdown().expect("first shutdown succeeds");
    let acked = clients * per_client;
    assert_eq!(live.committed(), acked as u64);
    let _ = std::fs::remove_file(&path);

    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let p99 = latencies_ms[(latencies_ms.len() * 99 / 100).min(latencies_ms.len() - 1)];
    OverloadRow {
        clients,
        queue_depth,
        offered,
        acked,
        shed,
        wall_ms: wall.as_secs_f64() * 1e3,
        goodput_per_s: acked as f64 / wall.as_secs_f64(),
        offered_per_s: offered as f64 / wall.as_secs_f64(),
        p99_ms: p99,
    }
}

/// One row of the independence experiment (E12): per-update latency of
/// the same region-local update stream against `constraints` constraints
/// with the static independence mask on vs off, and the masked run's
/// static skip rate.
#[derive(Debug, Clone, Copy)]
pub struct IndependenceRow {
    /// Total constraints registered (two per tenant region).
    pub constraints: usize,
    /// Statements driven through `try_update`.
    pub updates: usize,
    /// Mean per-update latency with the mask on (ms).
    pub on_ms: f64,
    /// Mean per-update latency with the mask off (ms).
    pub off_ms: f64,
    /// Constraint checks statically skipped during the masked run.
    pub skipped: u64,
    /// Constraint checks retained during the masked run.
    pub retained: u64,
}

impl IndependenceRow {
    /// Fraction of constraint checks the analysis skipped, in `[0, 1]`.
    pub fn skip_rate(&self) -> f64 {
        let total = self.skipped + self.retained;
        if total == 0 {
            0.0
        } else {
            self.skipped as f64 / total as f64
        }
    }

    /// `off_ms / on_ms` — how much the mask buys on this stream.
    pub fn speedup(&self) -> f64 {
        self.off_ms / self.on_ms.max(f64::EPSILON)
    }
}

/// Measures [`IndependenceRow`] on the multi-tenant workload
/// ([`xic_workload::multi`]): `constraints / 2` tenant regions, each
/// carrying a key-uniqueness join and a capacity aggregate, driven by a
/// Zipf-skewed stream of region-local statements covering all six
/// operation kinds. The identical pre-parsed stream replays against a
/// masked and an unmasked checker, so the latency difference isolates
/// the checks the analysis proves irrelevant (plus the footprint
/// computation itself, which the masked run pays).
pub fn measure_independence(constraints: usize, seed: u64, updates: usize) -> IndependenceRow {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xic_workload::multi::{generate_multi, random_multi_statement, MultiConfig};

    assert!(
        constraints >= 2 && constraints % 2 == 0,
        "constraints must be even (two per region)"
    );
    let mut cfg = MultiConfig::with_regions(constraints / 2, seed);
    // Enough capacity headroom that the stream's appends stay legal.
    cfg.cap = cfg.items_per_region + updates;
    let w = generate_multi(cfg);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
    let stmts: Vec<XUpdateDoc> = (0..updates)
        .map(|_| {
            XUpdateDoc::parse(&random_multi_statement(&mut rng, &w))
                .expect("generated statement parses")
        })
        .collect();

    let run = |mask: bool| -> (f64, u64, u64) {
        let mut c = Checker::new(&w.xml, &w.dtd, &w.constraints_text())
            .expect("multi-tenant corpus assembles");
        c.set_independence(mask);
        xicheck::obs::reset();
        let start = Instant::now();
        for stmt in &stmts {
            // A select can legitimately stop matching after earlier
            // removes; both runs see the identical stream, so errors are
            // symmetric and simply not counted as work.
            let _ = c.try_update(stmt);
        }
        let per_update = start.elapsed().as_secs_f64() * 1e3 / updates.max(1) as f64;
        let snap = xicheck::obs::snapshot();
        (
            per_update,
            snap.counter(xicheck::obs::Counter::ChecksSkippedStatic),
            snap.counter(xicheck::obs::Counter::ChecksRetainedStatic),
        )
    };
    let (on_ms, skipped, retained) = run(true);
    let (off_ms, off_skipped, _) = run(false);
    assert_eq!(off_skipped, 0, "unmasked run must not skip");
    IndependenceRow {
        constraints,
        updates,
        on_ms,
        off_ms,
        skipped,
        retained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_builds_and_checks() {
        for exp in [Experiment::ConflictOfInterests, Experiment::ConferenceWorkload] {
            let mut inst = instance(exp, 8, 42);
            assert!(inst.checker.check_full().unwrap().is_none(), "{exp:?}");
            assert!(
                inst.checker.check_optimized(&inst.legal).unwrap().is_none(),
                "{exp:?}"
            );
            let out = inst.checker.try_update(&inst.illegal).unwrap();
            assert!(!out.applied(), "{exp:?}");
        }
    }

    #[test]
    fn independence_rows_skip_disjoint_regions() {
        let r = measure_independence(8, 3, 12);
        assert!(r.on_ms > 0.0 && r.off_ms > 0.0);
        assert!(r.skipped > 0, "{r:?}");
        assert!(r.skip_rate() > 0.5, "{r:?}");
    }

    #[test]
    fn rows_have_positive_times() {
        let row = measure_row(Experiment::ConflictOfInterests, 8, 1, 1);
        assert!(row.full_ms > 0.0);
        assert!(row.optimized_ms > 0.0);
        assert!(row.update_full_undo_ms > 0.0);
        assert!(row.bytes > 4096);
    }

    #[test]
    fn illegal_rows_measure_both_paths() {
        let r = measure_illegal(Experiment::ConferenceWorkload, 8, 2, 1);
        assert!(r.optimized_reject_ms > 0.0);
        assert!(r.baseline_reject_ms > 0.0);
    }

    #[test]
    fn journal_rows_measure_all_three_configurations() {
        let r = measure_journal(Experiment::ConflictOfInterests, 8, 5, 1);
        assert!(r.off_ms > 0.0 && r.nosync_ms > 0.0 && r.fsync_ms > 0.0);
        assert!(r.appends > 0, "fsync run must journal every commit");
        assert!(r.fsyncs > 0, "fsync run must sync every record");
    }

    #[test]
    fn budget_rows_measure_overhead_and_fallback() {
        let r = measure_budget(Experiment::ConflictOfInterests, 8, 6, 1);
        assert!(r.unbudgeted_ms > 0.0 && r.budgeted_ms > 0.0);
        assert!(r.exhausted_fallback_ms > 0.0);
    }

    #[test]
    fn checkpoint_rows_bound_replay_to_the_suffix() {
        let r = measure_checkpoint(12, 4, 8, 7, 1);
        assert!(r.no_ckpt_recover_ms > 0.0 && r.ckpt_recover_ms > 0.0);
        assert!(r.generation >= 2, "12 commits at interval 4 must rotate");
        assert!(
            r.ckpt_replayed <= 4,
            "checkpointed recovery must replay at most one interval, got {}",
            r.ckpt_replayed
        );
    }

    #[test]
    fn checkpoint_write_rows_report_snapshot_bytes() {
        let r = measure_checkpoint_write(Experiment::ConflictOfInterests, 8, 8, 1);
        assert!(r.write_ms > 0.0);
        assert!(r.bytes > 4096, "8 KiB corpus snapshot should exceed 4 KiB");
    }

    #[test]
    fn service_rows_measure_both_executors() {
        for executor in [Executor::Sync, Executor::group_commit()] {
            let r = measure_service(8, 9, 2, 3, executor);
            assert_eq!(r.updates, 6);
            assert!(r.wall_ms > 0.0 && r.throughput_per_s > 0.0);
            assert!(r.p50_ms > 0.0 && r.p99_ms >= r.p50_ms);
        }
    }

    #[test]
    fn order_cache_rows_take_the_fast_path() {
        let r = measure_order_cache(8, 4, 1);
        assert!(r.cached_ms > 0.0 && r.uncached_ms > 0.0);
        assert!(r.fast_sorts > 0, "cached run must use rank sorts");
        assert!(r.path_sorts > 0, "uncached run must fall back to path keys");
    }
}
