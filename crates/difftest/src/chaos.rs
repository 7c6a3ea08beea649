//! Chaos pass: failure-resilience oracle for the service's batch write
//! path (DESIGN.md row 22), the one both executors run.
//!
//! Where the crash matrix (`crash.rs`) proves *recovery after death* —
//! panic, process gone, rebuild from the journal — the chaos pass proves
//! every fault that is not fatal lands in a defined state: a refused
//! statement rolled back, a failed batch fsync that degrades, a contained
//! panic that poisons — and that degraded and poisoned share one way
//! back, replay from the store. Each case is a pure function of its `u64`
//! seed:
//!
//! 1. Materialize the seed's [`Case`] and derive a **fault plan**: a
//!    site (journal write path, plus checkpoint/rotation sites when the
//!    store rotates), a [`FaultMode`] (`Error` / `Panic`), a 1-based
//!    trigger hit and a batch size.
//! 2. **Twin run** (no faults, no store): the reference
//!    committed-prefix states.
//! 3. **Chaos run**: the same statements through the *production batch
//!    path* ([`apply_batch`] — unsynced appends, one flush that contains
//!    a panic and degrades the checker on failure), with the fault
//!    armed. Batches
//!    model concurrent submitters drained from the queue; the path is
//!    driven in-thread because fault arming is thread-scoped (real
//!    writer-thread traffic is covered by the `service_resilience`
//!    integration tests via `arm_any_thread`).
//! 4. **Oracles**, checked as the stream runs and after it ends:
//!    * *Degraded reads are correct*: when the shared fsync fails (the
//!      checker must then be degraded) or the checker poisons, the
//!      service's published state — what degraded-mode CHECK serves —
//!      must equal the twin's state on the acknowledged prefix and,
//!      after a failed fsync, check clean under a fresh checker.
//!    * *One way back*: the case then drops the checker and reopens the
//!      store with `Checker::open_store` (replay; the first write then
//!      checkpoints before it appends) — what a restart and
//!      `ShardSet::recover_shard` do — and recovery
//!      must restore `p` commits with
//!      `acked ≤ p ≤ committed` (a panic inside an append may leave the
//!      whole record on disk uncounted, so a poisoned checker's bound is
//!      one higher), the document being the chaos run's own state after
//!      `p` commits, and consistent. The stream continues on the
//!      recovered checker.
//!    * *Never retried*: a case armed at `journal.sync` hits it at most
//!      once per batch, and once in every batch that committed.
//!    * *Terminal state*: every case ends [`Terminal::Healthy`] or
//!      [`Terminal::Replayed`] — never wedged mid-batch, never an
//!      unwound thread.
//!    * *Replay fidelity*: recovering the store after the stream ends
//!      restores every acknowledged commit, and the document is
//!      byte-identical to the chaos run's final in-memory state (a
//!      fault-skipped statement is simply absent from both).
//!
//! Divergences print a single-line replay command
//! (`cargo run -p xic-difftest -- --chaos --seed N --cases 1`); the
//! whole plan is re-derived from the seed.

use std::path::Path;
use xic_faults::FaultMode;
use xicheck::service::{apply_batch, BatchDisposition, BatchStmt, ServiceError};
use xicheck::{Checker, CheckerError, CheckpointPolicy};

use crate::{each_case, fault_floor, generate_case, Case, Config, Outcome, COVERAGE_FLOOR_CASES};

/// Sites the chaos pass arms whether or not the store rotates: the
/// write path from statement apply to the batch's flush.
pub(crate) const JOURNAL_SITES: &[&str] = &[
    "xupdate.apply.op",
    "journal.append.pre",
    "journal.append.mid",
    "journal.append.post_write",
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
    /// Injection mode (`Error` or `Panic`).
    pub mode: FaultMode,
    /// 1-based hit on which the fault triggers (single-shot).
    pub nth: u64,
    /// Statements per group-commit batch.
    pub batch_size: usize,
    /// Whether the run's store rotates automatically (reaching the
    /// checkpoint/rotation sites) or stays a plain journal.
    pub rotating: bool,
}

/// SplitMix64-style field mixer: plan fields drawn by *dividing* the
/// seed correlate through shared parities (e.g. an odd site index can
/// make some (site, mode) combinations unreachable for every seed);
/// hashing the seed with a per-field salt decorrelates them while
/// staying a pure function of the seed.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the chaos plan for `seed`. Fields are hash-mixed (not
/// divided) out of the seed, so a window of a few hundred seeds covers
/// every (site, mode) combination that matters.
pub fn chaos_plan(seed: u64) -> ChaosPlan {
    let mode = if mix(seed, 1) % 2 == 0 { FaultMode::Error } else { FaultMode::Panic };
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
    ChaosPlan { site, mode, nth, batch_size, rotating }
}

/// Terminal state a chaos case ended in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// Every batch committed (the fault never fired, or the statement it
    /// hit was refused and rolled back).
    Healthy,
    /// A batch fsync failed (the checker degraded) or a contained panic
    /// poisoned the checker; either way the checker was replaced by
    /// replaying its store, and the stream ran to completion on the
    /// replacement.
    Replayed,
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
             batch {batch}{rotating})\n  {detail}\n  replay: \
             cargo run -p xic-difftest -- --chaos --seed {seed} --cases 1",
            seed = self.seed,
            site = self.plan.site,
            mode = self.plan.mode,
            nth = self.plan.nth,
            batch = self.plan.batch_size,
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
    /// Cases in which a batch fsync failed and the checker was replaced
    /// by replaying its store.
    pub degraded: u64,
    /// Cases in which a contained panic poisoned the checker and it was
    /// replaced by replaying its store.
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
    /// The run's [`Outcome`]. Floors: a fault fired (`fault_floor`), and
    /// a batch fsync failed in a run of at least 100 cases.
    pub fn outcome(&self) -> Outcome {
        let Config { seed, cases } = self.config;
        let summary = format!(
            "chaos: {cases} cases from seed {seed} — {} divergences, {} faults fired, \
             {} degraded then replayed, {} poisoned then replayed, \
             {} rotating cases, {} commits acked, {} commits replayed",
            self.divergences.len(),
            self.fired,
            self.degraded,
            self.poisoned,
            self.rotating_cases,
            self.acked,
            self.replayed,
        );
        let divergences = self.divergences.iter().map(ChaosDivergence::report).collect();
        let floor = fault_floor("chaos", cases, self.fired).and_then(|()| {
            if cases >= COVERAGE_FLOOR_CASES && self.degraded == 0 {
                return Err(format!("chaos: no batch fsync failed in {cases} cases"));
            }
            Ok(())
        });
        Outcome { summary, divergences, floor }
    }
}

struct ChaosOutcome {
    fired: bool,
    /// A batch fsync failed (otherwise a `Replayed` case was poisoned).
    degraded: bool,
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
    let parsed = statements
        .iter()
        .map(|stmt| xic_xml::XUpdateDoc::parse(stmt))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| diverge(format!("a statement does not parse: {e}")))?;

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
    // Before its one fault fires the chaos run commits exactly the twin's
    // statements, so its own state after `p` commits is the twin's.
    let twin_state = |p: usize| if p == 0 { &base_xml } else { &snaps[p - 1] };

    // Chaos run: store attached, the plan's fault armed.
    let store_dir = dir.join(crate::scratch_name("chaos-store", seed));
    let fail = |detail: String| {
        xic_faults::disarm_all();
        let _ = std::fs::remove_dir_all(&store_dir);
        diverge(detail)
    };
    let mut checker = Checker::new(&case.doc_xml, &case.dtd, &case.constraints)
        .map_err(|e| diverge(format!("chaos checker setup failed: {e}")))?;
    checker
        .attach_store(&store_dir, true)
        .map_err(|e| diverge(format!("attach_store failed: {e}")))?;
    // Aggressive cadence so rotation sites are reachable in-batch.
    let policy = CheckpointPolicy::every_commits(1 + (seed / 9) % 3);
    if plan.rotating {
        checker.set_checkpoint_policy(policy);
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
    for chunk in parsed.chunks(plan.batch_size) {
        let items: Vec<BatchStmt> =
            chunk.iter().map(|stmt| BatchStmt { stmt, budget: None }).collect();
        let (sync_hits, commits) = (xic_faults::hits("journal.sync"), checker.committed());
        let outcome = apply_batch(&mut checker, &items);
        // Counted only while `journal.sync` is the armed site: a batch
        // reaches the fsync at most once, and must when it committed.
        let flushes = xic_faults::hits("journal.sync") - sync_hits;
        let must_flush = plan.site == "journal.sync" && checker.committed() > commits;
        if flushes > 1 || (must_flush && flushes == 0) {
            return Err(fail(format!(
                "a batch reached journal.sync {flushes} times: a fsync was retried or skipped"
            )));
        }
        let mut batch_applied = 0usize;
        for result in &outcome.results {
            match result {
                Ok(out) if out.outcome.applied() => batch_applied += 1,
                // A failed append rolled its statement back; an injected
                // fault surfacing as a refusal is graceful by definition.
                // A failed fsync or a poisoned checker is resolved below.
                Ok(_)
                | Err(ServiceError::SyncFailed(_))
                | Err(ServiceError::Checker(
                    CheckerError::Statement(_)
                    | CheckerError::Journal(_)
                    | CheckerError::Panicked(_)
                    | CheckerError::Poisoned,
                )) => {}
                Err(e) => return Err(fail(format!("unexpected batch result: {e}"))),
            }
        }
        let sync_failed = matches!(outcome.disposition, BatchDisposition::SyncFailed(_));
        if !sync_failed && !checker.poisoned() {
            acked += batch_applied;
            published_commits = checker.committed() as usize;
            published_xml = xic_xml::serialize(checker.doc());
            continue;
        }
        if terminal == Terminal::Replayed {
            return Err(fail("a second fault after the single-shot one was spent".to_string()));
        }
        // Degraded-read oracle: the service keeps serving the last
        // durably published snapshot. It must equal the twin's state on
        // the acknowledged prefix (a state the twin's checks accepted),
        // and after a failed fsync a fresh read-only checker over it must
        // find it consistent.
        let expected = twin_state(published_commits);
        if published_xml != *expected {
            return Err(fail(format!(
                "degraded snapshot differs from the twin's state after \
                 {published_commits} acked commits\n  expected: {expected}\n  \
                 got: {published_xml}"
            )));
        }
        if sync_failed {
            if !checker.degraded() {
                return Err(fail("a failed batch fsync left the checker writable".to_string()));
            }
            let ro = Checker::new(&published_xml, &case.dtd, &case.constraints)
                .map_err(|e| fail(format!("read-only checker setup failed: {e}")))?;
            match ro.check_full() {
                Ok(None) => {}
                Ok(Some(v)) => {
                    return Err(fail(format!("degraded snapshot fails its own constraints: {v}")))
                }
                Err(e) => return Err(fail(format!("degraded read check failed: {e}"))),
            }
        }
        // The one way back: drop the checker and reopen the store as a
        // restarted server does.
        let poisoned = checker.poisoned();
        let committed = checker.committed() as usize + poisoned as usize;
        let own = (!poisoned).then(|| xic_xml::serialize(checker.doc()));
        drop(checker);
        let (mut recovered, report) = crate::reopen(&store_dir, &case)
            .map_err(|e| fail(format!("reopening the store after the fault failed: {e}")))?;
        if report.degraded {
            return Err(fail(format!(
                "replay after the fault came up degraded: {}",
                report.fallback_reasons.join("; ")
            )));
        }
        if plan.rotating {
            recovered.set_checkpoint_policy(policy);
        }
        let p = report.base_commit_seq as usize + report.replayed;
        if p < acked || p > committed || p > snaps.len() {
            return Err(fail(format!(
                "replay restored {p} commits; {acked} were acked, {committed} committed"
            )));
        }
        let got = xic_xml::serialize(recovered.doc());
        let expected = match &own {
            Some(own) if p == committed => own,
            _ => twin_state(p),
        };
        if got != *expected {
            return Err(fail(format!(
                "replayed document differs from the chaos run's state after {p} \
                 commits\n  expected: {expected}\n  recovered: {got}"
            )));
        }
        match recovered.check_full() {
            Ok(None) => {}
            Ok(Some(v)) => return Err(fail(format!("replayed state fails its constraints: {v}"))),
            Err(e) => return Err(fail(format!("check of the replayed state failed: {e}"))),
        }
        checker = recovered;
        terminal = Terminal::Replayed;
        degraded = sync_failed;
        published_commits = p;
        published_xml = got;
    }
    let fired = xic_faults::hits(plan.site) >= plan.nth;
    xic_faults::disarm_all();
    let final_xml = xic_xml::serialize(checker.doc());
    let committed_total = checker.committed() as usize;
    drop(checker);

    // Replay-fidelity oracle: rebuild from disk and compare.
    let (recovered, report) = crate::reopen(&store_dir, &case)
        .map_err(|e| fail(format!("recovery failed: {e}")))?;
    let _ = std::fs::remove_dir_all(&store_dir);
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
    if p != committed_total {
        return Err(diverge(format!(
            "recovery restored {p} commits but the chaos run committed {committed_total}"
        )));
    }
    let got = xic_xml::serialize(recovered.doc());
    if got != final_xml {
        return Err(diverge(format!(
            "recovered document differs from the chaos run's final state ({p} commits)\n  \
             expected: {final_xml}\n  recovered: {got}"
        )));
    }
    Ok(ChaosOutcome { fired, degraded, terminal, acked, replayed: p })
}

/// Runs `config.cases` chaos cases starting at `config.seed`. On-disk
/// artifacts live in the system temp directory, removed per case.
pub fn run_chaos(config: Config) -> ChaosReport {
    let mut report = ChaosReport { config, ..Default::default() };
    each_case(config, |seed, dir| {
        report.rotating_cases += chaos_plan(seed).rotating as u64;
        match run_chaos_case(seed, dir) {
            Ok(out) => {
                let replayed = out.terminal == Terminal::Replayed;
                report.fired += out.fired as u64;
                report.degraded += out.degraded as u64;
                report.poisoned += (replayed && !out.degraded) as u64;
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
        assert!(plans.iter().any(|p| p.mode == FaultMode::Panic));
        assert!(plans.iter().any(|p| p.rotating));
        assert!(plans.iter().any(|p| !p.rotating));
        assert!(plans.iter().any(|p| p.site == "journal.sync"));
        assert!(plans.iter().any(|p| is_rotation_site(p.site)));
        // Rotation/checkpoint sites only appear when the store rotates,
        // where they are reachable.
        assert!(plans.iter().all(|p| !is_rotation_site(p.site) || p.rotating));
    }

    #[test]
    fn floors_catch_a_run_with_no_fault_or_no_failed_fsync() {
        let report = |cases, fired, degraded| ChaosReport {
            config: Config { seed: 1, cases },
            fired,
            degraded,
            ..Default::default()
        };
        let floor = report(crate::FAULT_FLOOR_CASES, 0, 0).outcome().floor.unwrap_err();
        assert_eq!(floor, "chaos: no armed fault ever fired in 40 cases");
        assert_eq!(report(crate::FAULT_FLOOR_CASES - 1, 0, 0).outcome().floor, Ok(()));
        let floor = report(100, 47, 0).outcome().floor.unwrap_err();
        assert_eq!(floor, "chaos: no batch fsync failed in 100 cases");
        assert_eq!(report(99, 47, 0).outcome().floor, Ok(()));
        assert_eq!(report(100, 47, 1).outcome().floor, Ok(()));
    }

    #[test]
    fn small_chaos_run_has_no_divergences() {
        // Enough seeds to hit both modes on the sync site at least once;
        // ci.sh runs the 100-case gate.
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
    fn sync_failures_degrade_then_replay() {
        // Seeds pinned to journal.sync, in both modes: a fired fault
        // must degrade, and the case must end replayed from the store.
        let mut seen = [0; 2];
        for seed in 0..400u64 {
            let plan = chaos_plan(seed);
            if plan.site != "journal.sync" {
                continue;
            }
            let out = run_chaos_case(seed, &std::env::temp_dir())
                .unwrap_or_else(|d| panic!("{}", d.report()));
            if out.fired {
                assert!(out.degraded, "seed {seed}: sync failure did not degrade");
                assert_eq!(out.terminal, Terminal::Replayed, "seed {seed}");
                seen[(plan.mode == FaultMode::Panic) as usize] += 1;
            }
            if seen.iter().all(|&n| n >= 2) {
                return;
            }
        }
        panic!("pinned seeds fired the sync fault {seen:?} times (error, panic)");
    }
}
