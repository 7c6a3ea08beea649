//! Shared harness for the Section 7 experiments.
//!
//! Each figure of the paper compares, across document sizes, the time to
//! (i) verify the original constraint against the whole document, (ii)
//! verify the optimized (simplified, pre-update) constraint, and (iii)
//! execute an update, verify the original constraint, and undo the update
//! — the paper's diamonds, squares and triangles.
//!
//! Beside the paper's measurements the crate keeps the two sweeps no
//! metric of the wire-level suite (`benchmark/`) covers — recovery time
//! against history length (E9) and the overload curve (E13).
//!
//! In the system-inventory table of `DESIGN.md` this crate is item 13 (benchmark harness).

pub mod report;

use std::time::{Duration, Instant};
use xic_workload::{generate, Workload, WorkloadConfig};
use xic_xml::{apply, undo, XUpdateDoc};
use xicheck::{Checker, CheckerService, Strategy, UpdateOutcome};

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
        let v = inst.checker.decide_only(&legal, Strategy::Optimized).expect("optimized");
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

/// A scratch store directory private to this process.
fn scratch_path(tag: &str, n: usize, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("xic-bench-{}-{tag}-{n}-{seed}", std::process::id()))
}

/// Recovery time versus committed-history length, with and without
/// checkpointing. A store that never rotates is one journal:
/// [`Checker::recover_store`] replays the whole history — cost linear in
/// `history`. With an automatic rotation policy it replays only the
/// suffix since the newest snapshot — cost bounded by the rotation
/// interval, flat in `history` (the durability analogue of the paper's
/// Simp making check cost flat in document size).
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

    let gamma = xicheck::SharedGamma::compile(dtd_text(), constraints).expect("Γ compiles");
    // The same history into a fresh store under `policy`, then a crash;
    // returns the mean recovery time and what recovery reported.
    let crash_and_recover = |tag: &str, policy: xicheck::CheckpointPolicy| {
        let dir = scratch_path(tag, history, seed);
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut checker = Checker::new(&w.xml, dtd_text(), constraints).expect("corpus loads");
            checker.register_pattern(&legal).expect("pattern registration");
            checker.attach_store(&dir, false).expect("store attaches");
            checker.set_checkpoint_policy(policy);
            commit_history(&mut checker);
        } // crash
        let recover = || {
            let (_c, rep) =
                Checker::recover_store(&dir, &w.xml, &gamma, true).expect("store recovery");
            assert!(!rep.degraded);
            assert_eq!(rep.base_commit_seq as usize + rep.replayed, history);
            rep
        };
        let report = recover();
        let mean = time_mean(iters, || {
            recover();
        });
        let _ = std::fs::remove_dir_all(&dir);
        (mean, report)
    };

    // Without checkpoints: rotation off, one segment holding the entire
    // history. With: the same history, automatic rotation every `interval`.
    let (no_ckpt, rep) = crash_and_recover("ckpt-none", xicheck::CheckpointPolicy::default());
    assert_eq!(rep.replayed, history);
    let (ckpt, rep) =
        crash_and_recover("ckpt-store", xicheck::CheckpointPolicy::every_commits(interval));
    let (ckpt_replayed, generation) = (rep.replayed, rep.generation);

    CheckpointRow {
        history,
        interval,
        no_ckpt_recover_ms: no_ckpt.as_secs_f64() * 1e3,
        ckpt_recover_ms: ckpt.as_secs_f64() * 1e3,
        ckpt_replayed,
        generation,
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
    let path = scratch_path(&format!("ovl-{clients}"), kib, seed);
    let _ = std::fs::remove_dir_all(&path);
    checker.attach_store(&path, true).expect("store attaches");
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
    let _ = std::fs::remove_dir_all(&path);

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_builds_and_checks() {
        for exp in [Experiment::ConflictOfInterests, Experiment::ConferenceWorkload] {
            let mut inst = instance(exp, 8, 42);
            assert!(inst.checker.check_full().unwrap().is_none(), "{exp:?}");
            assert!(
                inst.checker.decide_only(&inst.legal, Strategy::Optimized).unwrap().is_none(),
                "{exp:?}"
            );
            let out = inst.checker.try_update(&inst.illegal).unwrap();
            assert!(!out.applied(), "{exp:?}");
        }
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
    fn overload_rows_account_for_every_attempt() {
        let r = measure_overload(8, 9, 2, 3, 4);
        assert_eq!((r.clients, r.acked), (2, 6));
        assert_eq!(r.acked + r.shed, r.offered);
        assert!(r.goodput_per_s > 0.0 && r.p99_ms > 0.0);
    }
}
