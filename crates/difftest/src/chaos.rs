//! Chaos pass: failure-resilience oracle for the service's group-commit
//! write path (PR 9; DESIGN.md row 22).
//!
//! Where the crash matrix (`crash.rs`) proves *recovery after death* —
//! panic, process gone, rebuild from the journal — the chaos pass proves
//! the service **survives** faults that are not fatal: transient append
//! errors, failed batch fsyncs, contained panics. Each case is a pure
//! function of its `u64` seed:
//!
//! 1. Materialize the seed's [`Case`] and derive a **fault plan**: a
//!    site (journal write path, plus checkpoint/rotation sites when the
//!    store rotates), a [`FaultMode`] (`Error` / `Transient` / `Panic`), a
//!    1-based trigger hit, a batch size, and the service-level
//!    [`fsync_attempts`](xicheck::service::apply_batch_resilient) knob
//!    (1 = degrade on first sync failure, 3 = bounded retry absorbs a
//!    one-shot failure).
//! 2. **Twin run** (no faults, no store): the reference
//!    committed-prefix states.
//! 3. **Chaos run**: the same statements through the *production batch
//!    path* ([`apply_batch_resilient`] — unsynced appends, one shared
//!    fsync, catch_unwind around the flush), with the fault armed.
//!    Batches model concurrent submitters drained from the queue; the
//!    path is driven in-thread because fault arming is thread-scoped
//!    (real writer-thread traffic is covered by the
//!    `service_resilience` integration tests via `arm_any_thread`).
//! 4. **Oracles**, checked as the stream runs and after it ends:
//!    * *No acked commit lost*: recovery replays at least every commit
//!      from a batch whose shared fsync succeeded (those were
//!      acknowledged to their submitters).
//!    * *Degraded reads are correct*: when the shared fsync fails, the
//!      service's published state must equal the twin's state on the
//!      acknowledged prefix, and a fresh read-only checker over it must
//!      report it consistent — exactly what degraded-mode CHECK serves.
//!    * *Recovery re-arms*: after the (single-shot) fault is spent,
//!      `sync_journal` must succeed — the in-thread equivalent of
//!      [`CheckerService::recover`] — and the stream continues.
//!    * *Terminal state*: every case ends healthy, recovered, or
//!      poisoned-by-contained-panic — never wedged mid-batch, never an
//!      unwound thread.
//!    * *Replay fidelity*: for non-poisoned terminal states the
//!      recovered document is byte-identical to the chaos run's final
//!      in-memory state (a fault-skipped statement is simply absent
//!      from both); for poisoned states — where the in-memory tree is
//!      suspect — it must equal the twin's committed prefix.
//!
//! Divergences print a single-line replay command
//! (`cargo run -p xic-difftest -- --chaos --seed N --cases 1`); the
//! whole plan is re-derived from the seed.
//!
//! [`CheckerService::recover`]: xicheck::service::CheckerService::recover

use std::path::Path;
use xic_faults::FaultMode;
use xicheck::service::{apply_batch_resilient, BatchDisposition, BatchStmt, ServiceError};
use xicheck::{Checker, CheckerError, CheckpointPolicy};

use crate::{each_case, fault_floor, generate_case, Case, Config, Outcome};

/// Sites the chaos pass arms whether or not the store rotates: the
/// group-commit write path from statement apply to the shared fsync.
pub(crate) const JOURNAL_SITES: &[&str] = &[
    "xupdate.apply.op",
    "journal.append.pre",
    "journal.append.mid",
    "journal.append.post_write",
    "journal.append.post_fsync",
    "journal.sync",
    "checker.commit.pre",
    "checker.commit.post",
];

/// Checkpoint/rotation sites, reachable only when the store rotates
/// (automatic rotation runs inside the commit path).
pub(crate) const STORE_SITES: &[&str] = &[
    "checkpoint.tmp.mid_write",
    "checkpoint.tmp.pre_fsync",
    "checkpoint.pre_rename",
    "checkpoint.pre_dir_fsync",
    "rotation.pre_new_segment",
    "rotation.pre_old_unlink",
];

/// The fault plan derived from a seed (a pure function of it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The armed fault site.
    pub site: &'static str,
    /// Injection mode (`Error`, `Transient` or `Panic`).
    pub mode: FaultMode,
    /// 1-based hit on which the fault triggers (single-shot).
    pub nth: u64,
    /// Statements per group-commit batch.
    pub batch_size: usize,
    /// Service-level attempts for the shared batch fsync.
    pub fsync_attempts: u32,
    /// Whether the run's store rotates automatically (reaching the
    /// checkpoint/rotation sites) or stays a plain journal.
    pub rotating: bool,
}

/// SplitMix64-style field mixer: plan fields drawn by *dividing* the
/// seed correlate through shared parities (e.g. an odd site index can
/// make some (site, mode, attempts) combinations unreachable for every
/// seed); hashing the seed with a per-field salt decorrelates them while
/// staying a pure function of the seed.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the chaos plan for `seed`. Fields are hash-mixed (not
/// divided) out of the seed, so a window of a few hundred seeds covers
/// every (site, mode, retry-budget) combination that matters.
pub fn chaos_plan(seed: u64) -> ChaosPlan {
    let mode = match mix(seed, 1) % 3 {
        0 => FaultMode::Error,
        1 => FaultMode::Transient,
        _ => FaultMode::Panic,
    };
    let fsync_attempts = if mix(seed, 2) % 2 == 0 { 1 } else { 3 };
    let nth = 1 + mix(seed, 3) % 3;
    let batch_size = 2 + mix(seed, 4) as usize % 3;
    let rotating = mix(seed, 5) % 2 == 1;
    let site = if rotating {
        // Rotating runs alternate between write-path and rotation sites.
        let all: Vec<&'static str> =
            JOURNAL_SITES.iter().chain(STORE_SITES).copied().collect();
        all[(mix(seed, 6) % all.len() as u64) as usize]
    } else {
        JOURNAL_SITES[(mix(seed, 6) % JOURNAL_SITES.len() as u64) as usize]
    };
    ChaosPlan { site, mode, nth, batch_size, fsync_attempts, rotating }
}

/// Terminal service state a chaos case ended in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// Every batch committed (the fault was absorbed or never fired).
    Healthy,
    /// The shared fsync failed, the service degraded, and the recovery
    /// step re-armed it; the stream then ran to completion.
    Recovered,
    /// A contained panic poisoned the checker; writes were refused from
    /// then on (the crash matrix owns the rebuild story).
    Poisoned,
}

/// A confirmed chaos-oracle failure.
#[derive(Debug, Clone)]
pub struct ChaosDivergence {
    /// The failing seed.
    pub seed: u64,
    /// The seed's fault plan.
    pub plan: ChaosPlan,
    /// What went wrong.
    pub detail: String,
}

impl ChaosDivergence {
    /// One-paragraph report with a replay command.
    pub fn report(&self) -> String {
        format!(
            "chaos divergence (seed {seed}, site {site}, mode {mode:?}, hit {nth}, \
             batch {batch}, fsync_attempts {fa}{rotating})\n  {detail}\n  replay: \
             cargo run -p xic-difftest -- --chaos --seed {seed} --cases 1",
            seed = self.seed,
            site = self.plan.site,
            mode = self.plan.mode,
            nth = self.plan.nth,
            batch = self.plan.batch_size,
            fa = self.plan.fsync_attempts,
            rotating = if self.plan.rotating { ", rotating" } else { "" },
            detail = self.detail,
        )
    }
}

/// Aggregate chaos-pass report.
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// The run's parameters.
    pub config: Config,
    /// Cases in which the armed fault actually fired.
    pub fired: u64,
    /// Cases that entered (and left) read-only degraded mode.
    pub degraded: u64,
    /// Cases in which the service-level fsync retry absorbed the fault
    /// without degrading (disposition stayed `Committed`).
    pub retry_absorbed: u64,
    /// Cases ending poisoned by a contained panic.
    pub poisoned: u64,
    /// Cases whose store rotated automatically.
    pub rotating_cases: u64,
    /// Total acknowledged commits across all cases.
    pub acked: u64,
    /// Total commits restored by the per-case recovery check.
    pub replayed: u64,
    /// All divergences, in seed order.
    pub divergences: Vec<ChaosDivergence>,
}

impl ChaosReport {
    /// The run's [`Outcome`]. Floor: a fault fired (`fault_floor`).
    pub fn outcome(&self) -> Outcome {
        let Config { seed, cases } = self.config;
        let summary = format!(
            "chaos: {cases} cases from seed {seed} — {} divergences, {} faults fired, \
             {} degraded, {} absorbed by fsync retry, {} poisoned, \
             {} rotating cases, {} commits acked, {} commits replayed",
            self.divergences.len(),
            self.fired,
            self.degraded,
            self.retry_absorbed,
            self.poisoned,
            self.rotating_cases,
            self.acked,
            self.replayed,
        );
        let divergences = self.divergences.iter().map(ChaosDivergence::report).collect();
        Outcome { summary, divergences, floor: fault_floor("chaos", cases, self.fired) }
    }
}

struct ChaosOutcome {
    fired: bool,
    degraded: bool,
    retry_absorbed: bool,
    terminal: Terminal,
    acked: usize,
    replayed: usize,
}

/// Runs the chaos oracle for one seed (see the module docs).
fn run_chaos_case(seed: u64, dir: &Path) -> Result<ChaosOutcome, ChaosDivergence> {
    let plan = chaos_plan(seed);
    let diverge = |detail: String| ChaosDivergence { seed, plan, detail };
    let case: Case = generate_case(seed);
    let statements: Vec<String> = case.ops.iter().map(|op| crate::crash::wrap_op(op)).collect();

    // Twin run: sequential, no faults, no store.
    let mut twin = Checker::new(&case.doc_xml, &case.dtd, &case.constraints)
        .map_err(|e| diverge(format!("twin checker setup failed: {e}")))?;
    let base_xml = xic_xml::serialize(twin.doc());
    let mut snaps: Vec<String> = Vec::new();
    for stmt in &statements {
        match twin.try_update_str(stmt) {
            Ok(out) if out.applied() => snaps.push(xic_xml::serialize(twin.doc())),
            Ok(_) | Err(CheckerError::Statement(_)) => {}
            Err(e) => return Err(diverge(format!("twin run failed: {e}"))),
        }
    }

    // Chaos run: store attached, the plan's fault armed.
    let store_dir = dir.join(crate::scratch_name("chaos-store", seed));
    let cleanup = || {
        let _ = std::fs::remove_dir_all(&store_dir);
    };
    let mut checker = Checker::new(&case.doc_xml, &case.dtd, &case.constraints)
        .map_err(|e| diverge(format!("chaos checker setup failed: {e}")))?;
    checker
        .attach_store(&store_dir, true)
        .map_err(|e| diverge(format!("attach_store failed: {e}")))?;
    if plan.rotating {
        // Aggressive cadence so rotation sites are reachable in-batch.
        checker.set_checkpoint_policy(CheckpointPolicy::every_commits(1 + (seed / 9) % 3));
    }
    xic_faults::disarm_all();
    xic_faults::arm(plan.site, plan.nth, plan.mode);

    let mut acked = 0usize;
    // The service's "last published snapshot": state after the last
    // batch whose shared fsync succeeded. Degraded reads serve this.
    let mut published_xml = base_xml.clone();
    let mut published_commits = 0usize;
    let mut terminal = Terminal::Healthy;
    let mut degraded = false;
    let mut retry_absorbed = false;
    let fail = |detail: String| {
        xic_faults::disarm_all();
        diverge(detail)
    };
    'stream: for chunk in statements.chunks(plan.batch_size) {
        let items: Vec<BatchStmt> =
            chunk.iter().map(|s| BatchStmt { stmt: s, budget: None }).collect();
        let outcome = apply_batch_resilient(&mut checker, &items, plan.fsync_attempts);
        let mut batch_applied = 0usize;
        for result in &outcome.results {
            match result {
                Ok(out) if out.outcome.applied() => batch_applied += 1,
                Ok(_) => {}
                // A failed append rolled its statement back; an injected
                // fault surfacing as a refusal is graceful by definition.
                Err(ServiceError::Checker(
                    CheckerError::Statement(_) | CheckerError::Journal(_),
                )) => {}
                Err(ServiceError::SyncFailed(_)) => {} // via disposition below
                Err(ServiceError::Checker(
                    CheckerError::Panicked(_) | CheckerError::Poisoned,
                )) => {
                    terminal = Terminal::Poisoned;
                }
                Err(e) => {
                    cleanup();
                    return Err(fail(format!("unexpected batch result: {e}")));
                }
            }
        }
        if outcome.fsync_retries > 0
            && outcome.disposition == BatchDisposition::Committed
        {
            retry_absorbed = true;
        }
        match outcome.disposition {
            BatchDisposition::Committed => {
                if terminal == Terminal::Poisoned {
                    break 'stream; // writes are refused from here on
                }
                acked += batch_applied;
                published_commits += batch_applied;
                published_xml = xic_xml::serialize(checker.doc());
            }
            BatchDisposition::SyncFailed(_) => {
                degraded = true;
                // Degraded-read oracle: the service keeps serving the
                // last durably published snapshot. It must equal the
                // twin's state on the acknowledged prefix, and a fresh
                // read-only checker over it must find it consistent.
                let expected = if published_commits == 0 {
                    &base_xml
                } else {
                    &snaps[published_commits - 1]
                };
                if published_xml != *expected {
                    cleanup();
                    return Err(fail(format!(
                        "degraded snapshot differs from the twin's state after \
                         {published_commits} acked commits\n  expected: {expected}\n  \
                         got: {published_xml}"
                    )));
                }
                let ro = Checker::new(&published_xml, &case.dtd, &case.constraints)
                    .map_err(|e| fail(format!("read-only checker setup failed: {e}")))
                    .inspect_err(|_| cleanup())?;
                match ro.check_full() {
                    Ok(None) => {}
                    Ok(Some(v)) => {
                        cleanup();
                        return Err(fail(format!(
                            "degraded snapshot fails its own constraints: {v}"
                        )));
                    }
                    Err(e) => {
                        cleanup();
                        return Err(fail(format!("degraded read check failed: {e}")));
                    }
                }
                // Recovery oracle: the single-shot fault is spent, so
                // re-arming must succeed (CheckerService::recover does
                // exactly this flush on the writer thread).
                if let Err(e) = checker.sync_journal() {
                    cleanup();
                    return Err(fail(format!(
                        "service stuck degraded: recovery flush still failing \
                         after the fault was spent: {e}"
                    )));
                }
                terminal = Terminal::Recovered;
                // The recovered flush made the failed batch's commits
                // durable (never acknowledged — the standard ambiguity);
                // the service republishes its live state.
                published_commits += batch_applied;
                published_xml = xic_xml::serialize(checker.doc());
            }
        }
    }
    let fired = xic_faults::hits(plan.site) >= plan.nth;
    xic_faults::disarm_all();
    if degraded {
        terminal = Terminal::Recovered;
    } else if terminal != Terminal::Poisoned {
        terminal = Terminal::Healthy;
    }
    let final_xml = xic_xml::serialize(checker.doc());
    let committed_total = checker.committed() as usize;
    drop(checker);

    // Replay-fidelity oracle: rebuild from disk and compare.
    let (recovered, report) = crate::recover_store(&store_dir, &case).map_err(|e| {
        cleanup();
        diverge(format!("recovery failed: {e}"))
    })?;
    cleanup();
    if report.degraded {
        return Err(diverge(format!(
            "recovery entered degraded mode: {}",
            report.fallback_reasons.join("; ")
        )));
    }
    let p = report.base_commit_seq as usize + report.replayed;
    if p < acked {
        return Err(diverge(format!(
            "recovery lost acknowledged commits: {acked} were acked but only {p} restored"
        )));
    }
    let got = xic_xml::serialize(recovered.doc());
    match terminal {
        // The in-memory tree stayed consistent (rollback on every
        // refusal), so the journal must reproduce it exactly.
        Terminal::Healthy | Terminal::Recovered => {
            if p != committed_total {
                return Err(diverge(format!(
                    "recovery restored {p} commits but the chaos run committed \
                     {committed_total}"
                )));
            }
            if got != final_xml {
                return Err(diverge(format!(
                    "recovered document differs from the chaos run's final state \
                     ({p} commits)\n  expected: {final_xml}\n  recovered: {got}"
                )));
            }
        }
        // The in-memory tree is suspect; the twin's prefix is the truth.
        Terminal::Poisoned => {
            if p > snaps.len() {
                return Err(diverge(format!(
                    "recovery restored {p} commits but the twin only committed {}",
                    snaps.len()
                )));
            }
            let expected = if p == 0 { &base_xml } else { &snaps[p - 1] };
            if got != *expected {
                return Err(diverge(format!(
                    "recovered document differs from the twin's state after {p} \
                     commits\n  expected: {expected}\n  recovered: {got}"
                )));
            }
        }
    }
    Ok(ChaosOutcome { fired, degraded, retry_absorbed, terminal, acked, replayed: p })
}

/// Runs `config.cases` chaos cases starting at `config.seed`. On-disk
/// artifacts live in the system temp directory, removed per case.
pub fn run_chaos(config: Config) -> ChaosReport {
    let mut report = ChaosReport { config, ..Default::default() };
    each_case(config, |seed, dir| {
        report.rotating_cases += chaos_plan(seed).rotating as u64;
        match run_chaos_case(seed, dir) {
            Ok(out) => {
                report.fired += out.fired as u64;
                report.degraded += out.degraded as u64;
                report.retry_absorbed += out.retry_absorbed as u64;
                report.poisoned += (out.terminal == Terminal::Poisoned) as u64;
                report.acked += out.acked as u64;
                report.replayed += out.replayed as u64;
            }
            Err(d) => report.divergences.push(d),
        }
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::is_rotation_site;

    #[test]
    fn plans_are_deterministic_and_cover_the_space() {
        assert_eq!(chaos_plan(777), chaos_plan(777));
        let plans: Vec<ChaosPlan> = (0..108).map(chaos_plan).collect();
        assert!(plans.iter().any(|p| p.mode == FaultMode::Error));
        assert!(plans.iter().any(|p| p.mode == FaultMode::Transient));
        assert!(plans.iter().any(|p| p.mode == FaultMode::Panic));
        assert!(plans.iter().any(|p| p.fsync_attempts == 1));
        assert!(plans.iter().any(|p| p.fsync_attempts == 3));
        assert!(plans.iter().any(|p| p.rotating));
        assert!(plans.iter().any(|p| !p.rotating));
        assert!(plans.iter().any(|p| p.site == "journal.sync"));
        assert!(plans.iter().any(|p| is_rotation_site(p.site)));
        // Rotation/checkpoint sites only appear when the store rotates,
        // where they are reachable.
        assert!(plans.iter().all(|p| !is_rotation_site(p.site) || p.rotating));
    }

    #[test]
    fn floor_catches_a_run_in_which_no_fault_fired() {
        let report = |cases, fired| ChaosReport {
            config: Config { seed: 1, cases },
            fired,
            ..Default::default()
        };
        let floor = report(crate::FAULT_FLOOR_CASES, 0).outcome().floor.unwrap_err();
        assert_eq!(floor, "chaos: no armed fault ever fired in 40 cases");
        assert_eq!(report(crate::FAULT_FLOOR_CASES - 1, 0).outcome().floor, Ok(()));
        assert_eq!(report(100, 47).outcome().floor, Ok(()));
    }

    #[test]
    fn small_chaos_run_has_no_divergences() {
        // Enough seeds to hit every mode × retry-budget combination on
        // the sync site at least once; ci.sh runs the 100-case gate.
        let report = run_chaos(Config { seed: 1, cases: 60 });
        for d in &report.divergences {
            eprintln!("{}", d.report());
        }
        assert!(report.divergences.is_empty());
        assert!(report.fired > 0, "no armed fault ever fired");
        assert!(report.acked > 0, "no commit was ever acknowledged");
        assert!(
            report.replayed >= report.acked,
            "recovery lost acknowledged commits somewhere"
        );
    }

    #[test]
    fn sync_failures_degrade_and_recover() {
        // Seeds pinned to journal.sync with fsync_attempts == 1: the
        // first sync failure must degrade, and recovery must re-arm.
        let mut degraded_seen = 0;
        for seed in 0..400u64 {
            let plan = chaos_plan(seed);
            if plan.site != "journal.sync"
                || plan.fsync_attempts != 1
                || plan.mode == FaultMode::Transient
            {
                // Transient sync faults are absorbed inside the journal's
                // own retry; they never reach the service level.
                continue;
            }
            let out = run_chaos_case(seed, &std::env::temp_dir())
                .unwrap_or_else(|d| panic!("{}", d.report()));
            if out.fired {
                assert!(out.degraded, "seed {seed}: sync failure did not degrade");
                assert_eq!(out.terminal, Terminal::Recovered, "seed {seed}");
                degraded_seen += 1;
            }
            if degraded_seen >= 3 {
                return;
            }
        }
        assert!(degraded_seen > 0, "no pinned seed ever fired the sync fault");
    }

    #[test]
    fn retry_budget_absorbs_one_shot_sync_failures() {
        // Same failure, fsync_attempts == 3: the bounded retry must
        // absorb the single-shot fault with no degradation at all.
        let mut absorbed_seen = 0;
        for seed in 0..400u64 {
            let plan = chaos_plan(seed);
            if plan.site != "journal.sync"
                || plan.fsync_attempts != 3
                || plan.mode == FaultMode::Transient
            {
                continue;
            }
            let out = run_chaos_case(seed, &std::env::temp_dir())
                .unwrap_or_else(|d| panic!("{}", d.report()));
            if out.fired {
                assert!(!out.degraded, "seed {seed}: retry budget should absorb");
                assert!(out.retry_absorbed, "seed {seed}: no retry recorded");
                assert_eq!(out.terminal, Terminal::Healthy, "seed {seed}");
                absorbed_seen += 1;
            }
            if absorbed_seen >= 3 {
                return;
            }
        }
        assert!(absorbed_seen > 0, "no pinned seed ever fired the sync fault");
    }
}
