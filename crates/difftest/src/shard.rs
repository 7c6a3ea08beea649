//! Shard-level fault matrix and chaos pass: fault **one** shard of a
//! multi-document [`ShardSet`] while its siblings commit, and prove the
//! blast radius stays inside the victim (DESIGN.md row 24).
//!
//! Each case is a pure function of its `u64` seed:
//!
//! 1. Derive a [`ShardPlan`]: shard count (2–4), victim shard, fault
//!    site (the full write-path + checkpoint/rotation list — every shard
//!    runs a checkpointed store with an aggressive rotation cadence, so
//!    "crash mid-rotation" is a reachable plan), fault mode, and the
//!    victim statement index at which the fault is armed.
//! 2. Materialize per-shard corpora and statement streams (each shard
//!    gets its *own* workload document, so cross-shard contamination is
//!    byte-observable), plus one never-faulted **twin checker per
//!    shard** driven in lockstep with the live set.
//! 3. Drive the streams round-robin through [`ShardSet::submit`]. The
//!    services run the sync executor, so a fault armed on the driving
//!    thread immediately before a victim submission (and disarmed right
//!    after) hits exactly the victim — thread-scoped arming *is*
//!    shard-scoped arming.
//! 4. **Oracles.** Siblings must stay healthy, keep committing, and end
//!    byte-identical to their twins. In the **matrix** (`chaos =
//!    false`, panic faults) the victim stops at the injected crash; the
//!    whole set is then dropped mid-flight and recovered twice — once
//!    sequentially, once in parallel — and the two recoveries must be
//!    byte-identical, report-identical, sibling-lossless, and restore
//!    the victim to its acknowledged prefix (±1 for the standard
//!    crashed-mid-commit ambiguity, resolved against an explicitly
//!    computed candidate state). A victim that crashed mid-rotation may
//!    *fall back a generation* (counted, and allowed only on the
//!    victim). In the **chaos pass** (`chaos = true`, error/transient/
//!    panic faults) a failed victim is instead rebuilt in place with
//!    [`ShardSet::recover_shard`] while the siblings' services are
//!    untouched, the durability of the faulted statement is resolved
//!    from the recovery report, and the stream then runs to completion
//!    before the same double recovery closes the case.
//!
//! Divergences print a single-line replay command
//! (`cargo run -p xic-difftest -- --shard-matrix --seed N --cases 1`,
//! or `--shard-chaos`); the whole plan is re-derived from the seed.

use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xic_faults::FaultMode;
use xic_workload::{conflict_constraint, generate, random_batch, WorkloadConfig};
use xicheck::service::ServiceError;
use xicheck::{
    Checker, CheckerError, CheckpointPolicy, Executor, Health, ServiceConfig, ShardSet,
    ShardSetConfig, ShardSetError,
};

use crate::chaos::{mix, JOURNAL_SITES, STORE_SITES};
use crate::{each_case, fault_floor, Config, Outcome, PAPER_DTD};

/// The per-seed fault plan (a pure function of the seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of shards in the set (2–4).
    pub shards: usize,
    /// The shard the fault targets.
    pub victim: usize,
    /// The armed fault site. Every shard runs a checkpointed store, so
    /// checkpoint/rotation sites are as reachable as write-path sites.
    pub site: &'static str,
    /// Injection mode: always `Panic` for the matrix; `Error`,
    /// `Transient` or `Panic` for the chaos pass.
    pub mode: FaultMode,
    /// Victim statement index from which the fault is armed (it stays
    /// armed, per victim submission, until it fires).
    pub fire_stmt: usize,
    /// Automatic rotation cadence (commits per segment) for every
    /// shard, aggressive so mid-rotation crashes are reachable.
    pub rotate_every: u64,
    /// Statements in every shard's stream.
    pub per_shard: usize,
}

/// Derives the plan for `seed` (hash-mixed fields, like
/// [`crate::chaos::chaos_plan`]).
pub fn shard_plan(seed: u64, chaos: bool) -> ShardPlan {
    let shards = 2 + (mix(seed, 11) % 3) as usize;
    let victim = (mix(seed, 12) % shards as u64) as usize;
    let per_shard = 3 + (mix(seed, 13) % 3) as usize;
    let fire_stmt = (mix(seed, 14) % per_shard as u64) as usize;
    let rotate_every = 1 + mix(seed, 15) % 2;
    let all: Vec<&'static str> = JOURNAL_SITES.iter().chain(STORE_SITES).copied().collect();
    let site = all[(mix(seed, 16) % all.len() as u64) as usize];
    let mode = if chaos {
        match mix(seed, 17) % 3 {
            0 => FaultMode::Error,
            1 => FaultMode::Transient,
            _ => FaultMode::Panic,
        }
    } else {
        FaultMode::Panic
    };
    ShardPlan { shards, victim, site, mode, fire_stmt, rotate_every, per_shard }
}

/// A fully materialized shard case: one corpus and statement stream per
/// shard, one shared constraint set.
struct ShardCase {
    constraints: String,
    bases: Vec<String>,
    streams: Vec<Vec<String>>,
}

fn shard_case(seed: u64, plan: &ShardPlan) -> ShardCase {
    let mut rng = StdRng::seed_from_u64(mix(seed, 18));
    let mut bases = Vec::with_capacity(plan.shards);
    let mut streams = Vec::with_capacity(plan.shards);
    for _ in 0..plan.shards {
        let config = WorkloadConfig {
            seed: rng.gen::<u64>(),
            pubs: 4 + rng.gen_range(0..6),
            tracks: 1 + rng.gen_range(0..2),
            revs_per_track: 1 + rng.gen_range(0..3),
            subs_per_rev: 1 + rng.gen_range(0..3),
            name_pool: 12,
        };
        let w = generate(config);
        let stream: Vec<String> =
            (0..plan.per_shard).map(|_| random_batch(&mut rng, &w, 1)).collect();
        bases.push(w.xml);
        streams.push(stream);
    }
    ShardCase { constraints: conflict_constraint().to_string(), bases, streams }
}

/// A confirmed shard-oracle failure.
#[derive(Debug, Clone)]
pub struct ShardDivergence {
    /// The failing seed.
    pub seed: u64,
    /// The seed's plan.
    pub plan: ShardPlan,
    /// Whether the failing run was the chaos pass.
    pub chaos: bool,
    /// What went wrong.
    pub detail: String,
}

impl ShardDivergence {
    /// One-paragraph report with a replay command.
    pub fn report(&self) -> String {
        format!(
            "shard divergence (seed {seed}, {k} shards, victim {v}, site {site}, \
             mode {mode:?}, fire at stmt {at}, rotate every {rot})\n  {detail}\n  \
             replay: cargo run -p xic-difftest -- {flag} --seed {seed} --cases 1",
            seed = self.seed,
            k = self.plan.shards,
            v = self.plan.victim,
            site = self.plan.site,
            mode = self.plan.mode,
            at = self.plan.fire_stmt,
            rot = self.plan.rotate_every,
            detail = self.detail,
            flag = if self.chaos { "--shard-chaos" } else { "--shard-matrix" },
        )
    }
}

/// Aggregate shard-pass report.
#[derive(Debug, Default)]
pub struct ShardReport {
    /// The run's parameters.
    pub config: Config,
    /// `false`: crash matrix (panic faults, recovery after death).
    /// `true`: chaos pass (all fault modes, in-place shard rebuild).
    pub chaos: bool,
    /// Cases in which the armed fault actually fired on the victim.
    pub fired: u64,
    /// Cases whose victim ended (at any point) poisoned.
    pub poisoned: u64,
    /// Chaos cases in which [`ShardSet::recover_shard`] rebuilt the
    /// victim in place (always 0 for the matrix).
    pub in_place_recoveries: u64,
    /// Cases whose victim recovery fell back at least one generation.
    pub fallback_cases: u64,
    /// Total acknowledged commits across every shard of every case.
    pub acked: u64,
    /// Total commits restored by the final (parallel) recoveries.
    pub replayed: u64,
    /// All divergences, in seed order.
    pub divergences: Vec<ShardDivergence>,
}

impl ShardReport {
    /// The run's [`Outcome`]. Floor: a fault fired (`fault_floor`).
    pub fn outcome(&self) -> Outcome {
        let Config { seed, cases } = self.config;
        let name = if self.chaos { "shard-chaos" } else { "shard-matrix" };
        let summary = format!(
            "{name}: {cases} cases from seed {seed} — {} divergences, {} faults fired, \
             {} victims poisoned, {} in-place recoveries, {} fallback cases, \
             {} commits acked, {} commits restored",
            self.divergences.len(),
            self.fired,
            self.poisoned,
            self.in_place_recoveries,
            self.fallback_cases,
            self.acked,
            self.replayed,
        );
        let divergences = self.divergences.iter().map(ShardDivergence::report).collect();
        Outcome { summary, divergences, floor: fault_floor(name, cases, self.fired) }
    }
}

struct ShardOutcome {
    fired: bool,
    poisoned: bool,
    in_place: bool,
    fallback: bool,
    acked: usize,
    replayed: usize,
}

/// Runs the shard oracle for one seed (see the module docs).
fn run_shard_case(seed: u64, chaos: bool, dir: &Path) -> Result<ShardOutcome, ShardDivergence> {
    let plan = shard_plan(seed, chaos);
    let diverge = |detail: String| ShardDivergence { seed, plan, chaos, detail };
    let case = shard_case(seed, &plan);
    let k = plan.shards;

    // One never-faulted twin per shard, driven in lockstep.
    let mut twins: Vec<Checker> = Vec::with_capacity(k);
    for base in &case.bases {
        twins.push(
            Checker::new(base, PAPER_DTD, &case.constraints)
                .map_err(|e| diverge(format!("twin setup failed: {e}")))?,
        );
    }

    let root = dir.join(crate::scratch_name("shardcase", seed));
    let root_par = dir.join(crate::scratch_name("shardcase-par", seed));
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&root_par);
    let cleanup = || {
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&root_par);
    };
    let cfg = ShardSetConfig {
        service: ServiceConfig { executor: Executor::Sync, ..Default::default() },
        sync: true,
        policy: CheckpointPolicy::every_commits(plan.rotate_every),
    };
    let refs: Vec<&str> = case.bases.iter().map(String::as_str).collect();
    let set = ShardSet::create(&root, &refs, PAPER_DTD, &case.constraints, cfg)
        .map_err(|e| diverge(format!("shard set setup failed: {e}")))?;

    let mut acked = vec![0usize; k];
    let mut fired = false;
    let mut poisoned = false;
    let mut in_place = false;
    let mut fallback = false;
    let mut victim_stopped = false;
    // Matrix mode: the statement the victim crashed on — it may or may
    // not have committed before the fault surfaced.
    let mut crashed_stmt: Option<String> = None;
    let fail = |detail: String| {
        xic_faults::disarm_all();
        cleanup();
        diverge(detail)
    };

    for round in 0..plan.per_shard {
        for s in 0..k {
            if s == plan.victim && victim_stopped {
                continue;
            }
            let stmt = &case.streams[s][round];
            // Shard-scoped injection: the fault is armed only around
            // victim submissions (the sync executor runs them on this
            // thread), re-armed each round until it fires.
            let armed = s == plan.victim && !fired && round >= plan.fire_stmt;
            if armed {
                xic_faults::disarm_all();
                xic_faults::arm(plan.site, 1, plan.mode);
            }
            let res = set.submit(s, stmt);
            if armed {
                fired = xic_faults::hits(plan.site) >= 1;
                xic_faults::disarm_all();
            }
            match res {
                Ok(out) if out.outcome.applied() => {
                    match twins[s].try_update_str(stmt) {
                        Ok(t) if t.applied() => {}
                        Ok(_) => {
                            return Err(fail(format!(
                                "shard {s} applied a statement its twin refused"
                            )))
                        }
                        Err(e) => return Err(fail(format!("twin apply failed: {e}"))),
                    }
                    acked[s] += 1;
                }
                Ok(_) => match twins[s].try_update_str(stmt) {
                    Ok(t) if !t.applied() => {}
                    Ok(_) => {
                        return Err(fail(format!(
                            "shard {s} refused a statement its twin applied"
                        )))
                    }
                    Err(e) => return Err(fail(format!("twin refusal check failed: {e}"))),
                },
                Err(e) => {
                    // A generated statement can fail organically (its
                    // select no longer matches after earlier ops in the
                    // same stream); that is a graceful rollback, and the
                    // twin must fail the same way. Injected faults on
                    // the victim are recognizable: they only happen on
                    // an armed submission whose site actually fired.
                    let organic = matches!(
                        &e,
                        ShardSetError::Service {
                            source: ServiceError::Checker(CheckerError::Statement(_)),
                            ..
                        }
                    ) && !(armed && fired);
                    if organic {
                        match twins[s].try_update_str(stmt) {
                            Err(CheckerError::Statement(_)) => continue,
                            other => {
                                return Err(fail(format!(
                                    "shard {s} rejected a statement ({e}) its twin \
                                     handled differently ({other:?})"
                                )))
                            }
                        }
                    }
                    if s != plan.victim {
                        return Err(fail(format!(
                            "sibling shard {s} failed while only shard {} was faulted: {e}",
                            plan.victim
                        )));
                    }
                    let health =
                        set.status(s).map_err(|e| fail(format!("victim status: {e}")))?.health;
                    poisoned |= health == Health::Poisoned;
                    if chaos {
                        // Rebuild the victim in place and resolve the
                        // faulted statement's durability from the report.
                        let report = set
                            .recover_shard(s)
                            .map_err(|e| fail(format!("recover_shard failed: {e}")))?;
                        in_place = true;
                        if report.degraded {
                            return Err(fail(format!(
                                "victim recovered degraded: {}",
                                report.fallback_reasons.join("; ")
                            )));
                        }
                        fallback |= report.fallbacks > 0;
                        let durable = report.base_commit_seq as usize + report.replayed;
                        if durable == acked[s] + 1 {
                            // Committed before the fault surfaced.
                            match twins[s].try_update_str(stmt) {
                                Ok(t) if t.applied() => {}
                                _ => {
                                    return Err(fail(
                                        "victim recovered a commit its twin cannot reproduce"
                                            .to_string(),
                                    ))
                                }
                            }
                            acked[s] += 1;
                        } else if durable != acked[s] {
                            return Err(fail(format!(
                                "victim recovery restored {durable} commits but {} were acked",
                                acked[s]
                            )));
                        }
                        let got = set
                            .snapshot(s)
                            .map_err(|e| fail(format!("victim snapshot: {e}")))?
                            .serialize();
                        let expected = xic_xml::serialize(twins[s].doc());
                        if got != expected {
                            return Err(fail(format!(
                                "rebuilt victim differs from its twin after {} commits\n  \
                                 expected: {expected}\n  got: {got}",
                                acked[s]
                            )));
                        }
                        let health = set
                            .status(s)
                            .map_err(|e| fail(format!("victim status: {e}")))?
                            .health;
                        if health != Health::Ok {
                            return Err(fail(format!(
                                "victim still {health:?} after recover_shard"
                            )));
                        }
                    } else {
                        // Matrix: the victim is down until whole-set
                        // recovery; remember the statement it crashed on
                        // so the ±1 durability ambiguity can be resolved
                        // against the twin once recovery reports how many
                        // commits actually survived.
                        victim_stopped = true;
                        crashed_stmt = Some(stmt.clone());
                    }
                }
            }
        }
    }
    xic_faults::disarm_all();

    // Isolation oracle: siblings (and, in the chaos pass, the rebuilt
    // victim) are healthy, at their acked version, and byte-identical
    // to their twins — the victim's failure never leaked across.
    for s in 0..k {
        if s == plan.victim && victim_stopped {
            continue;
        }
        let status = set.status(s).map_err(|e| fail(format!("status({s}): {e}")))?;
        if status.health != Health::Ok {
            return Err(fail(format!(
                "shard {s} is {:?} though only shard {} was faulted",
                status.health, plan.victim
            )));
        }
        if status.version != acked[s] as u64 {
            return Err(fail(format!(
                "shard {s} at version {} but {} commits were acked",
                status.version, acked[s]
            )));
        }
        let got =
            set.snapshot(s).map_err(|e| fail(format!("snapshot({s}): {e}")))?.serialize();
        let expected = xic_xml::serialize(twins[s].doc());
        if got != expected {
            return Err(fail(format!(
                "shard {s} diverged from its twin (cross-shard contamination?)\n  \
                 expected: {expected}\n  got: {got}"
            )));
        }
    }

    // Crash the set (matrix: drop mid-flight; chaos: graceful stop) and
    // recover it twice — sequentially and in parallel fan-out — over two
    // *copies* of the crashed root: recovery repairs what it finds (torn
    // tails truncated, rotations resumed), so the second recovery must
    // not run over the first one's repairs.
    if chaos {
        let _ = set.shutdown();
    }
    drop(set);
    copy_dir(&root, &root_par).map_err(|e| fail(format!("copying the crashed root: {e}")))?;
    let (seq, seq_report) =
        ShardSet::recover(&root, &refs, PAPER_DTD, &case.constraints, cfg, false)
            .map_err(|e| fail(format!("sequential recovery failed: {e}")))?;
    let mut seq_docs = Vec::with_capacity(k);
    for s in 0..k {
        seq_docs.push(
            seq.snapshot(s).map_err(|e| fail(format!("seq snapshot({s}): {e}")))?.serialize(),
        );
    }
    let _ = seq.shutdown();
    drop(seq);
    let (par, par_report) =
        ShardSet::recover(&root_par, &refs, PAPER_DTD, &case.constraints, cfg, true)
            .map_err(|e| fail(format!("parallel recovery failed: {e}")))?;
    if par_report.shards != seq_report.shards {
        return Err(fail(format!(
            "parallel and sequential recovery reports differ\n  sequential: \
             {:?}\n  parallel: {:?}",
            seq_report.shards, par_report.shards
        )));
    }
    let mut replayed = 0usize;
    for s in 0..k {
        let got =
            par.snapshot(s).map_err(|e| fail(format!("par snapshot({s}): {e}")))?.serialize();
        if got != seq_docs[s] {
            return Err(fail(format!(
                "shard {s}: parallel recovery diverged from sequential recovery"
            )));
        }
        let report = &par_report.shards[s];
        if report.degraded {
            return Err(fail(format!(
                "shard {s} recovered degraded: {}",
                report.fallback_reasons.join("; ")
            )));
        }
        if report.fallbacks > 0 {
            if s == plan.victim {
                fallback = true;
            } else {
                return Err(fail(format!(
                    "sibling shard {s} fell back {} generation(s) though only shard {} \
                     was faulted",
                    report.fallbacks, plan.victim
                )));
            }
        }
        let durable = report.base_commit_seq as usize + report.replayed;
        replayed += durable;
        if s == plan.victim && victim_stopped {
            // The crashed victim: its acked prefix must be intact; the
            // statement it crashed on may additionally have committed
            // (e.g. the fault fired in the post-commit rotation). The
            // twin resolves the ambiguity: replay the crashed statement
            // on it iff recovery says the commit survived.
            if durable == acked[s] + 1 {
                let stmt = crashed_stmt
                    .as_ref()
                    .ok_or_else(|| fail("victim stopped without a crashed stmt".into()))?;
                match twins[s].try_update_str(stmt) {
                    Ok(t) if t.applied() => {}
                    other => {
                        return Err(fail(format!(
                            "victim recovered a commit its twin cannot reproduce: {other:?}"
                        )))
                    }
                }
                acked[s] += 1;
            } else if durable != acked[s] {
                return Err(fail(format!(
                    "victim recovery restored {durable} commits but {} were acked",
                    acked[s]
                )));
            }
            let twin_xml = xic_xml::serialize(twins[s].doc());
            if got != twin_xml {
                return Err(fail(format!(
                    "victim recovery restored {durable} commits but not the twin's \
                     state\n  expected: {twin_xml}\n  got: {got}"
                )));
            }
        } else if durable != acked[s] || got != xic_xml::serialize(twins[s].doc()) {
            let twin_xml = xic_xml::serialize(twins[s].doc());
            return Err(fail(format!(
                "shard {s}: recovery restored {durable} commits (acked {}) and {} the \
                 twin's bytes",
                acked[s],
                if got == twin_xml { "matches" } else { "does not match" }
            )));
        }
    }
    let _ = par.shutdown();
    drop(par);
    cleanup();
    Ok(ShardOutcome { fired, poisoned, in_place, fallback, acked: acked.iter().sum(), replayed })
}

/// Recursively copies a crashed shard root so sequential and parallel
/// recovery each see the same pre-repair bytes (recovery truncates torn
/// tails in place, so running both over one directory would let the
/// first run repair the evidence the second one is measured against).
fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

/// Runs `config.cases` shard cases starting at `config.seed` — the
/// matrix, or with `chaos` the chaos pass. On-disk shard roots live in
/// the system temp directory, removed per case.
pub fn run_shards(config: Config, chaos: bool) -> ShardReport {
    let mut report = ShardReport { config, chaos, ..Default::default() };
    each_case(config, |seed, dir| match run_shard_case(seed, chaos, dir) {
        Ok(out) => {
            report.fired += out.fired as u64;
            report.poisoned += out.poisoned as u64;
            report.in_place_recoveries += out.in_place as u64;
            report.fallback_cases += out.fallback as u64;
            report.acked += out.acked as u64;
            report.replayed += out.replayed as u64;
        }
        Err(d) => report.divergences.push(d),
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::is_rotation_site;

    #[test]
    fn shard_plans_are_deterministic_and_cover_the_space() {
        assert_eq!(shard_plan(99, false), shard_plan(99, false));
        let matrix: Vec<ShardPlan> = (0..200).map(|s| shard_plan(s, false)).collect();
        assert!(matrix.iter().all(|p| p.mode == FaultMode::Panic));
        assert!(matrix.iter().all(|p| p.victim < p.shards));
        assert!(matrix.iter().any(|p| p.shards == 2));
        assert!(matrix.iter().any(|p| p.shards == 4));
        assert!(matrix.iter().any(|p| is_rotation_site(p.site)));
        assert!(matrix.iter().any(|p| p.site == "journal.sync"));
        let chaos: Vec<ShardPlan> = (0..200).map(|s| shard_plan(s, true)).collect();
        assert!(chaos.iter().any(|p| p.mode == FaultMode::Error));
        assert!(chaos.iter().any(|p| p.mode == FaultMode::Transient));
        assert!(chaos.iter().any(|p| p.mode == FaultMode::Panic));
    }

    #[test]
    fn floor_catches_a_run_in_which_no_fault_fired() {
        let report = |cases, chaos, fired| ShardReport {
            config: Config { seed: 1, cases },
            chaos,
            fired,
            ..Default::default()
        };
        let floor = report(60, false, 0).outcome().floor.unwrap_err();
        assert_eq!(floor, "shard-matrix: no armed fault ever fired in 60 cases");
        let floor = report(crate::FAULT_FLOOR_CASES, true, 0).outcome().floor.unwrap_err();
        assert_eq!(floor, "shard-chaos: no armed fault ever fired in 40 cases");
        assert_eq!(report(crate::FAULT_FLOOR_CASES - 1, true, 0).outcome().floor, Ok(()));
        assert_eq!(report(60, true, 45).outcome().floor, Ok(()));
    }

    #[test]
    fn small_shard_matrix_has_no_divergences() {
        // ci.sh runs the full SHARD_CRASH_CASES gate; this is the smoke
        // slice.
        let report = run_shards(Config { seed: 1, cases: 20 }, false);
        for d in &report.divergences {
            eprintln!("{}", d.report());
        }
        assert!(report.divergences.is_empty());
        assert!(report.fired > 0, "no armed fault ever fired");
        assert!(report.acked > 0, "no commit was ever acknowledged");
        assert!(report.replayed >= report.acked, "recovery lost acked commits");
    }

    #[test]
    fn small_shard_chaos_rebuilds_victims_in_place() {
        let report = run_shards(Config { seed: 1, cases: 20 }, true);
        for d in &report.divergences {
            eprintln!("{}", d.report());
        }
        assert!(report.divergences.is_empty());
        assert!(report.fired > 0, "no armed fault ever fired");
        assert!(
            report.in_place_recoveries > 0,
            "no victim was ever rebuilt with recover_shard"
        );
    }
}
