//! The fault harness: a seeded fault lands on one shard of a set of one
//! to four, and every shard must come back at exactly its checked,
//! acknowledged prefix (DESIGN.md rows 19, 22 and 24).
//!
//! The checker decides a statement before it applies it, so a refused
//! statement never reaches the journal; whatever the fault, a store
//! therefore recovers every commit it acknowledged, plus at most the
//! statement in flight. Each case is a pure function of its `u64` seed:
//!
//! 1. [`fault_plan`] draws the case: K shards and a victim; a fault site,
//!    a [`FaultMode`] and a trigger hit; a batch size; a [`Rotation`];
//!    whether the stores fsync; what follows a fault that poisons or
//!    degrades the victim ([`After`]); and the [`Corpus`]. Consecutive
//!    seeds walk the site list, then the two modes, then the two
//!    K-classes (K = 1, K ≥ 2), so every (site, mode, K-class) cell is
//!    drawn once per `4 × sites` seeds; the other fields are hash-mixed
//!    out of the seed.
//! 2. The corpus gives one DTD and denial set, compiled into one shared
//!    Γ, and every shard a base document and a statement stream of its
//!    own; each shard gets a store in [`ShardSet`]'s layout
//!    (`root/shard-k`) and a never-faulted twin checker.
//! 3. The driver runs the streams round-robin, a batch at a time, through
//!    [`apply_batch`] — the function every `ShardSet::submit` runs; a
//!    batch of one is what a lone client gets — on the harness thread.
//!    The fault is armed only around the victim's batches (and its
//!    explicit checkpoint), so thread-scoped arming is shard-scoped
//!    arming. The victim runs on past its stream until its fault fires.
//!    At the end every checker is dropped, as in a crash, and the root is
//!    recovered twice with `ShardSet::recover`, sequentially and in
//!    parallel, over two copies of it (recovery repairs what it finds).
//! 4. **The oracle**, the same for every plan:
//!    * every answer matches the twin's, which takes exactly the
//!      statements its shard committed; siblings are never faulted and
//!      stay byte-identical to their twins;
//!    * every recovery — a rebuilt victim's and every shard's at the end
//!      — restores `p` commits with `acked ≤ p ≤ committed` (one more
//!      after a contained panic, whose statement's record may be whole on
//!      disk), and the twin's bytes at `p`, its indexes audited;
//!    * a batch reaches `journal.sync` at most once, and once if it
//!      appended to a store that fsyncs;
//!    * a failed flush degrades the checker, and the last acknowledged
//!      state — what degraded reads serve — passes the full check;
//!    * sequential and parallel recovery agree, report for report and
//!      byte for byte, for K = 1 as well.
//!
//! Divergences print a one-line replay command (`cargo run -p
//! xic-difftest -- --faults --seed N --cases 1`, plus the run's `--sites`
//! filter, from which the plan is derived).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xic_faults::{FaultMode, SITES};
use xic_workload::{conflict_constraint, generate, random_batch, WorkloadConfig};
use xic_xml::{serialize, Document, XUpdateDoc};
use xicheck::service::{apply_batch, BatchDisposition, BatchStmt, ServiceError, SubmitOutcome};
use xicheck::{
    Checker, CheckerError, CheckpointPolicy, RecoveryReport, ServiceConfig, ShardSet,
    ShardSetConfig, SharedGamma,
};

use crate::{each_case, gen, modifications, scratch_name, Config, Outcome, PAPER_DTD};

/// Statements every shard runs.
const STREAM: usize = 6;

/// How far the victim runs on past [`STREAM`] while its fault has not
/// fired (a third trigger hit on a rotation every three commits is a
/// dozen statements away).
const STREAM_CAP: usize = 24;

/// From this many draws of every (site, mode, K-class) cell on, a cell
/// whose fault fired in no case fails the run.
const CELL_ROUNDS: u64 = 3;

/// The coverage table's columns: (mode, K-class) pairs.
const COLUMNS: [&str; 4] = ["Error K=1", "Error K≥2", "Panic K=1", "Panic K≥2"];

/// Resolves a `--sites` filter against [`xic_faults::SITES`]: each
/// comma-separated pattern matches by substring; `None` keeps all sites.
pub fn filter_sites(filter: Option<&str>) -> Vec<&'static str> {
    let patterns: Vec<&str> =
        filter.map_or(vec![""], |f| f.split(',').filter(|p| !p.is_empty()).collect());
    SITES.iter().copied().filter(|site| patterns.iter().any(|p| site.contains(p))).collect()
}

/// True for sites that only fire while a checkpoint rotation runs.
fn is_rotation_site(site: &str) -> bool {
    site.starts_with("checkpoint.") || site.starts_with("rotation.")
}

/// SplitMix64-style field mixer: hashing the seed with a per-field salt
/// keeps the fields independent of each other and of the round-robin
/// walk, while staying a pure function of the seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How the shards' stores rotate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rotation {
    /// Generation 0 only: a plain write-ahead journal.
    Never,
    /// Automatically, every this many commits.
    Every(u64),
    /// Once, by an explicit `Checker::checkpoint` in mid-stream; a fault
    /// there in `Error` mode fails the rotation and commits go on to the
    /// old segment.
    Once,
}

/// What follows a fault that poisons or degrades the victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum After {
    /// The victim is down until whole-set recovery.
    Stop,
    /// The victim is rebuilt from its store at once (what
    /// `ShardSet::recover_shard` does) and runs the rest of its stream.
    Rebuild,
}

/// Where a case's schema, documents and statements come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// The paper's conference schema and conflict-of-interest denial;
    /// every shard holds a workload document of its own and runs
    /// statements drawn by `xic_workload::random_batch`.
    Paper,
    /// A generated DTD and denial set ([`crate::gen`]); every shard starts
    /// from the one generated document and runs statements drawn by
    /// [`gen::random_ops`] over the document its earlier statements leave.
    Random,
}

/// A case's plan, a pure function of its seed and the site list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Shards in the set (1–4).
    pub shards: usize,
    /// The shard the fault is armed on.
    pub victim: usize,
    /// The armed site.
    pub site: &'static str,
    /// `Error` or `Panic`.
    pub mode: FaultMode,
    /// The victim's hit of the site on which the fault triggers (1–3;
    /// 1 where the plan reaches the site once).
    pub nth: u64,
    /// Statements per batch (1–4).
    pub batch: usize,
    /// How the stores rotate (never only for a site outside rotation).
    pub rotation: Rotation,
    /// Whether the stores fsync at their flush (always for
    /// `journal.sync`, which only an fsync reaches).
    pub sync: bool,
    /// What follows a fault that poisons or degrades the victim.
    pub after: After,
    /// The schema, documents and statements.
    pub corpus: Corpus,
}

impl FaultPlan {
    /// The plan's column of the coverage table (see [`COLUMNS`]).
    fn column(&self) -> usize {
        2 * (self.mode == FaultMode::Panic) as usize + (self.shards > 1) as usize
    }

    /// The statements shard `k` is given: the victim runs on past
    /// [`STREAM`] until its fault fires.
    fn stream(&self, k: usize) -> usize {
        if k == self.victim { STREAM_CAP } else { STREAM }
    }

    /// The automatic rotation policy every shard's checker runs.
    fn policy(&self) -> CheckpointPolicy {
        match self.rotation {
            Rotation::Every(n) => CheckpointPolicy::every_commits(n),
            Rotation::Never | Rotation::Once => CheckpointPolicy::default(),
        }
    }
}

/// Derives the plan for `seed` over `sites` (see the module docs); a
/// replay must repeat the run's `--sites` filter.
pub fn fault_plan(sites: &[&'static str], seed: u64) -> FaultPlan {
    let n = sites.len() as u64;
    let site = sites[(seed % n) as usize];
    let mode = if (seed / n) % 2 == 0 { FaultMode::Error } else { FaultMode::Panic };
    let shards = if (seed / (2 * n)) % 2 == 0 { 1 } else { 2 + (mix(seed, 1) % 3) as usize };
    let rotation = match mix(seed, 2) % 5 {
        4 => Rotation::Once,
        0 if !is_rotation_site(site) => Rotation::Never,
        r => Rotation::Every(1 + r % 3),
    };
    let once = rotation == Rotation::Once && is_rotation_site(site);
    FaultPlan {
        shards,
        victim: (mix(seed, 3) % shards as u64) as usize,
        site,
        mode,
        nth: if once { 1 } else { 1 + mix(seed, 4) % 3 },
        batch: 1 + (mix(seed, 5) % 4) as usize,
        rotation,
        sync: site == "journal.sync" || mix(seed, 6) % 2 == 0,
        after: if mix(seed, 7) % 2 == 0 { After::Stop } else { After::Rebuild },
        corpus: if mix(seed, 9) % 2 == 0 { Corpus::Paper } else { Corpus::Random },
    }
}

/// A confirmed oracle failure.
#[derive(Debug, Clone)]
pub struct FaultDivergence {
    /// The failing seed.
    pub seed: u64,
    /// Its plan.
    pub plan: FaultPlan,
    /// The run's `--sites` filter (the plan is derived from the filtered
    /// list, so the replay repeats it).
    pub sites: Option<String>,
    /// What went wrong.
    pub detail: String,
}

impl FaultDivergence {
    /// A multi-line report ending in the one-line replay command.
    pub fn report(&self) -> String {
        let p = &self.plan;
        let filter = self.sites.as_deref().map(|s| format!(" --sites {s}")).unwrap_or_default();
        format!(
            "fault divergence (seed {seed}, {k} shards, victim {v}, site {site}, mode {mode:?}, \
             hit {nth}, batch {batch}, rotation {rotation:?}, sync {sync}, after {after:?}, \
             corpus {corpus:?})\n  \
             {detail}\n  \
             replay: cargo run -p xic-difftest -- --faults --seed {seed} --cases 1{filter}",
            seed = self.seed,
            k = p.shards,
            v = p.victim,
            site = p.site,
            mode = p.mode,
            nth = p.nth,
            batch = p.batch,
            rotation = p.rotation,
            sync = p.sync,
            after = p.after,
            corpus = p.corpus,
            detail = self.detail,
        )
    }
}

/// Outcome of a run.
#[derive(Debug, Default)]
pub struct FaultReport {
    /// The run's parameters.
    pub config: Config,
    /// The `--sites` filter; `None` walked every registered site.
    pub sites: Option<String>,
    /// Cases whose fault fired.
    pub fired: u64,
    /// Of those, the cases on a [`Corpus::Random`] schema.
    pub fired_random: u64,
    /// Cases whose victim a contained panic (or a fault after an append)
    /// poisoned.
    pub poisoned: u64,
    /// Cases whose victim a failed flush degraded.
    pub degraded: u64,
    /// Cases whose victim was rebuilt from its store mid-stream.
    pub rebuilt: u64,
    /// Recoveries that truncated a torn tail.
    pub torn_tails: u64,
    /// Commits restored by the final recoveries, over every shard.
    pub restored: u64,
    /// Per site of the run's list, the cases whose fault fired, by
    /// column: (Error, K = 1), (Error, K ≥ 2), (Panic, K = 1), (Panic,
    /// K ≥ 2).
    pub cells: Vec<(&'static str, [u64; 4])>,
    /// All divergences, in seed order.
    pub divergences: Vec<FaultDivergence>,
}

impl FaultReport {
    /// The (site, column) cells whose fault fired in no case.
    pub fn silent_cells(&self) -> Vec<String> {
        let cells = self.cells.iter().flat_map(|(site, fired)| {
            fired
                .iter()
                .zip(COLUMNS)
                .filter(|(n, _)| **n == 0)
                .map(move |(_, c)| format!("{site} {c}"))
        });
        cells.collect()
    }

    /// The run's [`Outcome`]. The summary line is followed by the
    /// coverage line; floor: once every cell was drawn three times, a
    /// cell that never fired has fallen off the write path, and a run
    /// whose faults all fired on the paper's schema never put a generated
    /// one under faults.
    pub fn outcome(&self) -> Outcome {
        let Config { seed, cases } = self.config;
        let filter = self.sites.as_deref().map(|s| format!(" (sites: {s})")).unwrap_or_default();
        let table: Vec<String> = self
            .cells
            .iter()
            .map(|(site, n)| format!("{site}={}/{}/{}/{}", n[0], n[1], n[2], n[3]))
            .collect();
        let summary = format!(
            "faults: {cases} cases from seed {seed}{filter} — {} divergences, {} faults fired, \
             {} of them on random schemas, {} victims poisoned, {} degraded, {} rebuilt in \
             place, {} torn tails truncated, {} commits restored\nfired by site ({}): {}",
            self.divergences.len(),
            self.fired,
            self.fired_random,
            self.poisoned,
            self.degraded,
            self.rebuilt,
            self.torn_tails,
            self.restored,
            COLUMNS.join(" / "),
            table.join(" "),
        );
        let silent = self.silent_cells();
        let floor = if self.cells.is_empty() {
            Err("faults: the --sites filter matches no registered fault site".to_string())
        } else if cases < CELL_ROUNDS * 4 * self.cells.len() as u64 {
            Ok(())
        } else if !silent.is_empty() {
            Err(format!("faults: cells that fired in none of {cases} cases: {}", silent.join(", ")))
        } else if self.fired_random == 0 {
            Err(format!("faults: no fault fired on a random schema in {cases} cases"))
        } else {
            Ok(())
        };
        let divergences = self.divergences.iter().map(FaultDivergence::report).collect();
        Outcome { summary, divergences, floor }
    }
}

/// Runs `config.cases` cases from `config.seed` over the sites
/// `sites_arg` keeps (see [`filter_sites`]). Shard roots live in the
/// system temp directory and are removed per case.
pub fn run_faults(config: Config, sites_arg: Option<&str>) -> FaultReport {
    let sites = filter_sites(sites_arg);
    let mut report = FaultReport {
        config,
        sites: sites_arg.map(str::to_string),
        cells: sites.iter().map(|&site| (site, [0; 4])).collect(),
        ..Default::default()
    };
    if sites.is_empty() {
        return report;
    }
    each_case(config, |seed, dir| {
        let plan = fault_plan(&sites, seed);
        let root = dir.join(scratch_name("faults", seed));
        let copy = dir.join(scratch_name("faults-copy", seed));
        let result = run_case(plan, seed, &root, &copy);
        xic_faults::disarm_all();
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&copy);
        match result {
            Ok(out) => {
                report.fired += out.fired as u64;
                report.fired_random += (out.fired && plan.corpus == Corpus::Random) as u64;
                if let Some((_, fired)) = report.cells.iter_mut().find(|(s, _)| *s == plan.site) {
                    fired[plan.column()] += out.fired as u64;
                }
                report.poisoned += out.poisoned as u64;
                report.degraded += out.degraded as u64;
                report.rebuilt += out.rebuilt as u64;
                report.torn_tails += out.torn_tails;
                report.restored += out.restored;
            }
            Err(detail) => report.divergences.push(FaultDivergence {
                seed,
                plan,
                sites: report.sites.clone(),
                detail,
            }),
        }
    });
    report
}

/// What one case did, for the report.
#[derive(Debug, Default)]
struct CaseOutcome {
    fired: bool,
    poisoned: bool,
    degraded: bool,
    rebuilt: bool,
    torn_tails: u64,
    restored: u64,
}

/// A case's corpus, drawn: its Γ and Γ's sources and, per shard, a base
/// document and its statements ([`STREAM_CAP`] for the victim, which may
/// run on, [`STREAM`] for the others).
struct Drawn {
    gamma: Arc<SharedGamma>,
    dtd: String,
    constraints: String,
    shards: Vec<(String, Vec<XUpdateDoc>)>,
}

/// Draws the plan's corpus for `seed` (see [`Corpus`]).
fn draw(plan: FaultPlan, seed: u64) -> Result<Drawn, String> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 8));
    let parse = |text: &str| {
        XUpdateDoc::parse(text).map_err(|e| format!("a generated statement does not parse: {e}"))
    };
    let compile = |dtd: &str, constraints: &str| {
        SharedGamma::compile(dtd, constraints).map_err(|e| format!("compiling Γ failed: {e}"))
    };
    let mut shards = Vec::with_capacity(plan.shards);
    if plan.corpus == Corpus::Paper {
        for k in 0..plan.shards {
            let w = generate(WorkloadConfig {
                seed: rng.gen::<u64>(),
                pubs: 4 + rng.gen_range(0..6),
                tracks: 1 + rng.gen_range(0..2),
                revs_per_track: 1 + rng.gen_range(0..3),
                subs_per_rev: 1 + rng.gen_range(0..3),
                name_pool: 12,
            });
            let stream = (0..plan.stream(k))
                .map(|_| parse(&random_batch(&mut rng, &w, 1)))
                .collect::<Result<_, _>>()?;
            shards.push((w.xml, stream));
        }
        let (dtd, constraints) = (PAPER_DTD.to_string(), conflict_constraint().to_string());
        return Ok(Drawn { gamma: compile(&dtd, &constraints)?, dtd, constraints, shards });
    }
    let schema = gen::random_schema(&mut rng);
    let base = gen::random_document(&mut rng, &schema);
    let constraints = gen::random_constraints(&mut rng, &schema, &base);
    let gamma = compile(&schema.dtd_text, &constraints)?;
    for k in 0..plan.shards {
        // Each statement is drawn over the document the earlier ones
        // leave, as a fault-free run commits them, so that later selects
        // still match.
        let mut scratch = Checker::from_shared(&base, &gamma).map_err(|e| e.to_string())?;
        let mut stream = Vec::with_capacity(plan.stream(k));
        for _ in 0..plan.stream(k) {
            let stmt = parse(&modifications(&gen::random_ops(&mut rng, &schema, scratch.doc())))?;
            let _ = scratch.try_update(&stmt);
            stream.push(stmt);
        }
        shards.push((base.clone(), stream));
    }
    Ok(Drawn { gamma, dtd: schema.dtd_text, constraints, shards })
}

/// Runs one case (see the module docs).
fn run_case(plan: FaultPlan, seed: u64, root: &Path, copy: &Path) -> Result<CaseOutcome, String> {
    let Drawn { gamma, dtd, constraints, shards: drawn } = draw(plan, seed)?;
    let mut shards = Vec::with_capacity(plan.shards);
    for (k, (base, stream)) in drawn.into_iter().enumerate() {
        let setup = |e: CheckerError| format!("shard {k}: setup failed: {e}");
        let dir = root.join(format!("shard-{k}"));
        let mut live = Checker::from_shared(&base, &gamma).map_err(setup)?;
        live.attach_store(&dir, plan.sync).map_err(setup)?;
        live.set_checkpoint_policy(plan.policy());
        let twin = Checker::from_shared(&base, &gamma).map_err(setup)?;
        shards.push(Shard {
            dir,
            states: vec![serialize(twin.doc())],
            base,
            stream,
            next: 0,
            checkpointed: false,
            live: Some(live),
            twin,
            log: Vec::new(),
            acked: 0,
            in_flight: None,
        });
    }
    let trigger = Trigger { site: plan.site, mode: plan.mode, left: plan.nth, fired: false };
    let mut driver =
        Driver { plan, gamma, dtd, constraints, shards, trigger, out: CaseOutcome::default() };
    driver.run()?;
    driver.recover_all(root, copy)?;
    driver.out.fired = driver.trigger.fired;
    Ok(driver.out)
}

/// The plan's fault, armed only around the victim's work.
struct Trigger {
    site: &'static str,
    mode: FaultMode,
    /// Hits still to go before the one that triggers.
    left: u64,
    fired: bool,
}

impl Trigger {
    /// Runs `f`, with the fault armed if `on` and it has not fired yet,
    /// counting the hits `f` takes toward the trigger; returns them
    /// (`None`: not armed).
    fn around<T>(&mut self, on: bool, f: impl FnOnce() -> T) -> (T, Option<u64>) {
        if !on || self.fired {
            return (f(), None);
        }
        xic_faults::disarm_all();
        xic_faults::arm(self.site, self.left, self.mode);
        let out = f();
        let hits = xic_faults::hits(self.site);
        xic_faults::disarm_all();
        self.fired = hits >= self.left;
        self.left = self.left.saturating_sub(hits);
        (out, Some(hits))
    }
}

/// One shard under the driver: its store and live checker, its twin,
/// and what the twin says the store must hold.
struct Shard {
    dir: PathBuf,
    base: String,
    stream: Vec<XUpdateDoc>,
    /// The next statement of the stream to run.
    next: usize,
    /// Whether the `Once` rotation's checkpoint was taken.
    checkpointed: bool,
    /// `None` once the shard was stopped.
    live: Option<Checker>,
    /// Never faulted; takes exactly the statements the shard committed.
    twin: Checker,
    /// The shard's commits, in order.
    log: Vec<XUpdateDoc>,
    /// `states[i]`: the twin's document after `log[..i]`.
    states: Vec<String>,
    /// Commits a flush acknowledged, or a recovery restored.
    acked: usize,
    /// The statement a contained panic or a fault after an append
    /// poisoned the shard on: its record may be whole on disk, uncounted.
    in_flight: Option<XUpdateDoc>,
}

impl Shard {
    /// Holds one statement's batch result to the twin, which takes the
    /// statement iff the shard committed it. `faulted`: the fault fired in
    /// this batch, which `poisoned` the shard.
    fn step(
        &mut self,
        stmt: &XUpdateDoc,
        result: &Result<SubmitOutcome, ServiceError>,
        faulted: bool,
        poisoned: bool,
    ) -> Result<(), String> {
        use CheckerError as E;
        let expect = match result {
            Ok(out) => Some(out.outcome.applied()),
            // Applied, its record written, but not acknowledged.
            Err(ServiceError::SyncFailed(_)) => Some(true),
            Err(ServiceError::Checker(E::Statement(m))) if !m.contains("injected fault") => None,
            // The faulted batch only: the statement the fault hit, and
            // those a poisoned checker then refused.
            Err(ServiceError::Checker(E::Panicked(_) | E::Journal(_)))
                if faulted && poisoned && self.in_flight.is_none() =>
            {
                self.in_flight = Some(stmt.clone());
                return Ok(());
            }
            Err(ServiceError::Checker(E::Statement(_) | E::Journal(_) | E::Poisoned))
                if faulted =>
            {
                return Ok(())
            }
            Err(e) => return Err(format!("unexpected batch result: {e}")),
        };
        let twin = self.twin.try_update(stmt);
        let agrees = match (expect, &twin) {
            (Some(applied), Ok(out)) => out.applied() == applied,
            (None, Err(E::Statement(_))) => true,
            _ => false,
        };
        if !agrees {
            let shard =
                answered(result.as_ref().map(|o| o.outcome.applied()).map_err(|e| e.to_string()));
            let twin = answered(twin.as_ref().map(|o| o.applied()).map_err(|e| e.to_string()));
            return Err(format!("a statement was {shard} where its twin {twin} it"));
        }
        if expect == Some(true) {
            self.log.push(stmt.clone());
            self.states.push(serialize(self.twin.doc()));
        }
        Ok(())
    }

    /// Holds a recovery of this shard's store (`doc`, `report`) to the
    /// oracle and moves the twin to what it restored; returns `p`.
    fn settle(
        &mut self,
        doc: &Document,
        report: &RecoveryReport,
        victim: bool,
        gamma: &Arc<SharedGamma>,
    ) -> Result<usize, String> {
        if report.degraded {
            return Err(format!(
                "recovery came up degraded: {}",
                report.fallback_reasons.join("; ")
            ));
        }
        if report.fallbacks > 0 && !victim {
            return Err(format!(
                "recovery fell back {} generation(s) on a shard never faulted",
                report.fallbacks
            ));
        }
        doc.audit_indexes().map_err(|e| format!("indexes corrupt after replay: {e}"))?;
        let p = report.base_commit_seq as usize + report.replayed;
        let committed = self.log.len();
        if p < self.acked || p > committed + self.in_flight.is_some() as usize {
            return Err(format!(
                "recovery restored {p} commits (generation {}); {} were acked, \
                 {committed} committed",
                report.generation, self.acked
            ));
        }
        if let Some(stmt) = self.in_flight.take().filter(|_| p > committed) {
            match self.twin.try_update(&stmt) {
                Ok(out) if out.applied() => {
                    self.log.push(stmt);
                    self.states.push(serialize(self.twin.doc()));
                }
                other => return Err(format!(
                    "recovery restored the statement in flight, which its twin answers {other:?}"
                )),
            }
        }
        let got = serialize(doc);
        if got != self.states[p] {
            return Err(format!(
                "recovery restored {p} commits unlike its twin\n  expected: {}\n  recovered: {got}",
                self.states[p]
            ));
        }
        if p < self.log.len() {
            self.log.truncate(p);
            self.states.truncate(p + 1);
            self.twin = Checker::from_shared(&self.base, gamma).map_err(|e| e.to_string())?;
            for stmt in &self.log {
                self.twin.try_update(stmt).map_err(|e| e.to_string())?;
            }
        }
        self.acked = p;
        Ok(p)
    }
}

/// How a statement was answered, for a divergence report.
fn answered(applied: Result<bool, String>) -> String {
    match applied {
        Ok(true) => "applied".to_string(),
        Ok(false) => "refused".to_string(),
        Err(e) => format!("failed ({e})"),
    }
}

struct Driver {
    plan: FaultPlan,
    gamma: Arc<SharedGamma>,
    /// Γ's sources, for the final `ShardSet::recover`.
    dtd: String,
    constraints: String,
    shards: Vec<Shard>,
    trigger: Trigger,
    out: CaseOutcome,
}

impl Driver {
    /// Runs the streams round-robin, a batch per shard per round, until
    /// every live shard is through its stream.
    fn run(&mut self) -> Result<(), String> {
        loop {
            let mut ran = false;
            for s in 0..self.shards.len() {
                let end =
                    if s == self.plan.victim && !self.trigger.fired { STREAM_CAP } else { STREAM };
                let shard = &self.shards[s];
                if shard.live.is_none() || shard.next >= end {
                    continue;
                }
                ran = true;
                if self.plan.rotation == Rotation::Once
                    && !shard.checkpointed
                    && shard.next >= STREAM / 2
                {
                    self.checkpoint(s).map_err(|e| format!("shard {s}: {e}"))?;
                    continue;
                }
                let batch =
                    shard.stream[shard.next..end.min(shard.next + self.plan.batch)].to_vec();
                self.shards[s].next += batch.len();
                self.batch(s, &batch).map_err(|e| format!("shard {s}: {e}"))?;
            }
            if !ran {
                return Ok(());
            }
        }
    }

    /// Runs one batch on shard `s` and holds it to the oracle.
    fn batch(&mut self, s: usize, stmts: &[XUpdateDoc]) -> Result<(), String> {
        let victim = s == self.plan.victim;
        let shard = &mut self.shards[s];
        let checker = shard.live.as_mut().ok_or("a stopped shard ran a batch")?;
        let items: Vec<BatchStmt> =
            stmts.iter().map(|stmt| BatchStmt { stmt, budget: None }).collect();
        let before = checker.committed();
        let (outcome, hits) = self.trigger.around(victim, || apply_batch(checker, &items));
        let faulted = hits.is_some() && self.trigger.fired;
        let (poisoned, degraded) = (checker.poisoned(), checker.degraded());
        let appended = checker.committed() > before;
        let state = serialize(checker.doc());
        if let Some(hits) = hits.filter(|_| self.plan.site == "journal.sync") {
            if hits > 1 || (self.plan.sync && appended && hits == 0) {
                return Err(format!("a batch reached journal.sync {hits} times"));
            }
        }
        let sync_failed = matches!(outcome.disposition, BatchDisposition::SyncFailed(_));
        if sync_failed && !degraded {
            return Err("a failed flush left the checker writable".to_string());
        }
        if !faulted && (sync_failed || poisoned) {
            return Err(format!(
                "a batch failed ({:?}) with no fault fired on it",
                outcome.disposition
            ));
        }
        if faulted && self.plan.mode == FaultMode::Panic && !poisoned && !degraded {
            return Err("the injected panic was not contained".to_string());
        }
        if sync_failed {
            // The twin has not taken this batch: it holds the last
            // acknowledged state, the one degraded reads serve.
            match shard.twin.check_full() {
                Ok(None) => {}
                other => {
                    return Err(format!(
                        "the last acknowledged state fails the full check: {other:?}"
                    ))
                }
            }
        }
        for (stmt, result) in stmts.iter().zip(&outcome.results) {
            shard.step(stmt, result, faulted, poisoned)?;
        }
        if !sync_failed && !poisoned {
            shard.acked = shard.log.len();
            if state != shard.states[shard.acked] {
                return Err(format!(
                    "after {} commits the shard differs from its twin\n  \
                     expected: {}\n  got: {state}",
                    shard.acked, shard.states[shard.acked]
                ));
            }
            return Ok(());
        }
        self.out.poisoned |= poisoned;
        self.out.degraded |= degraded;
        self.after_fault(s)
    }

    /// Takes the `Once` rotation's explicit checkpoint on shard `s`.
    fn checkpoint(&mut self, s: usize) -> Result<(), String> {
        let victim = s == self.plan.victim;
        let shard = &mut self.shards[s];
        shard.checkpointed = true;
        let checker = shard.live.as_mut().ok_or("a stopped shard took a checkpoint")?;
        let (result, hits) =
            self.trigger.around(victim, || catch_unwind(AssertUnwindSafe(|| checker.checkpoint())));
        let faulted = hits.is_some() && self.trigger.fired;
        match result {
            // A fault before the unlink fails the rotation; the old
            // generation stays live, and the crash comes later.
            Ok(Ok(_))
                if faulted
                    && self.plan.mode == FaultMode::Error
                    && self.plan.site != "rotation.pre_old_unlink" =>
            {
                Err(format!(
                    "checkpoint() reported success over an injected error at {}",
                    self.plan.site
                ))
            }
            Ok(Ok(_)) => Ok(()),
            Ok(Err(_)) if faulted => Ok(()),
            Ok(Err(e)) => Err(format!("an unfaulted checkpoint failed: {e}")),
            // Nothing contains a panic in an explicit checkpoint: the
            // process dies mid-rotation.
            Err(_) if faulted => self.after_fault(s),
            Err(_) => Err("an unfaulted checkpoint panicked".to_string()),
        }
    }

    /// The victim was poisoned, degraded or killed: drop its checker, and
    /// either leave it down or rebuild it from its store, as
    /// `ShardSet::recover_shard` does.
    fn after_fault(&mut self, s: usize) -> Result<(), String> {
        let shard = &mut self.shards[s];
        drop(shard.live.take());
        if self.plan.after == After::Stop {
            return Ok(());
        }
        let (mut checker, report) =
            Checker::open_store(&shard.dir, &shard.base, &self.gamma, self.plan.sync)
                .map_err(|e| format!("rebuilding from the store failed: {e}"))?;
        checker.set_checkpoint_policy(self.plan.policy());
        shard
            .settle(checker.doc(), &report, true, &self.gamma)
            .map_err(|e| format!("rebuilt: {e}"))?;
        shard.live = Some(checker);
        self.out.rebuilt = true;
        self.out.torn_tails += report.torn_tail_truncated as u64;
        Ok(())
    }

    /// The crash: every checker is dropped, and the root is recovered
    /// sequentially and, over a copy, in parallel.
    fn recover_all(&mut self, root: &Path, copy: &Path) -> Result<(), String> {
        for shard in &mut self.shards {
            drop(shard.live.take());
        }
        copy_dir(root, copy).map_err(|e| format!("copying the root: {e}"))?;
        let bases: Vec<String> = self.shards.iter().map(|shard| shard.base.clone()).collect();
        let bases: Vec<&str> = bases.iter().map(String::as_str).collect();
        let config = ShardSetConfig {
            service: ServiceConfig::default(),
            sync: self.plan.sync,
            policy: self.plan.policy(),
        };
        let (dtd, constraints) = (&self.dtd, &self.constraints);
        let recover = |dir: &Path, parallel: bool| {
            ShardSet::recover(dir, &bases, dtd, constraints, config, parallel)
                .map_err(|e| format!("recovery (parallel: {parallel}) failed: {e}"))
        };
        let (seq, seq_report) = recover(root, false)?;
        let (par, par_report) = recover(copy, true)?;
        if par_report.shards != seq_report.shards {
            return Err(format!(
                "parallel and sequential recovery report differently\n  \
                 sequential: {:?}\n  parallel: {:?}",
                seq_report.shards, par_report.shards
            ));
        }
        for (s, report) in seq_report.shards.iter().enumerate() {
            let snapshot = |set: &ShardSet| set.snapshot(s).map_err(|e| e.to_string());
            let (doc, par_doc) = (snapshot(&seq)?, snapshot(&par)?);
            if doc.serialize() != par_doc.serialize() {
                return Err(format!(
                    "shard {s}: parallel recovery differs from sequential recovery"
                ));
            }
            let p = self.shards[s]
                .settle(doc.doc(), report, s == self.plan.victim, &self.gamma)
                .map_err(|e| format!("shard {s}: {e}"))?;
            self.out.restored += p as u64;
            self.out.torn_tails += report.torn_tail_truncated as u64;
        }
        let _ = seq.shutdown();
        let _ = par.shutdown();
        Ok(())
    }
}

/// Copies a shard root, so that the two recoveries each see the bytes
/// the crash left.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_draw_every_value_in_both_k_classes() {
        assert_eq!(fault_plan(SITES, 4242), fault_plan(SITES, 4242));
        let plans: Vec<FaultPlan> = (1..=400).map(|seed| fault_plan(SITES, seed)).collect();
        for multi in [false, true] {
            let class: Vec<&FaultPlan> = plans.iter().filter(|p| (p.shards > 1) == multi).collect();
            let draws = |f: &dyn Fn(&FaultPlan) -> bool| class.iter().any(|p| f(p));
            for site in SITES {
                for mode in [FaultMode::Error, FaultMode::Panic] {
                    assert!(draws(&|p| p.site == *site && p.mode == mode), "{site} {mode:?}");
                }
            }
            let shards: &[usize] = if multi { &[2, 3, 4] } else { &[1] };
            for &k in shards {
                assert!(draws(&|p| p.shards == k), "K = {k}");
                for v in 0..k {
                    assert!(draws(&|p| p.shards == k && p.victim == v), "K = {k}, victim {v}");
                }
            }
            for nth in 1..=3 {
                assert!(draws(&|p| p.nth == nth), "hit {nth}");
            }
            for batch in 1..=4 {
                assert!(draws(&|p| p.batch == batch), "batch {batch}");
            }
            let rotations = [
                Rotation::Never,
                Rotation::Every(1),
                Rotation::Every(2),
                Rotation::Every(3),
                Rotation::Once,
            ];
            for rotation in rotations {
                assert!(draws(&|p| p.rotation == rotation), "{rotation:?}");
            }
            for sync in [false, true] {
                assert!(draws(&|p| p.sync == sync), "sync {sync}");
            }
            for after in [After::Stop, After::Rebuild] {
                assert!(draws(&|p| p.after == after), "{after:?}");
            }
            for corpus in [Corpus::Paper, Corpus::Random] {
                assert!(draws(&|p| p.corpus == corpus), "{corpus:?}");
            }
        }
        // A site is drawn only where the plan can reach it.
        assert!(plans.iter().all(|p| !is_rotation_site(p.site) || p.rotation != Rotation::Never));
        assert!(plans.iter().all(|p| p.site != "journal.sync" || p.sync));
        assert!(plans.iter().all(|p| p.victim < p.shards));
    }

    #[test]
    fn site_filter_restricts_the_walk() {
        let rotation = filter_sites(Some("checkpoint,rotation"));
        assert_eq!(rotation.len(), 6);
        assert!(rotation.iter().all(|s| is_rotation_site(s)), "{rotation:?}");
        assert!((0..24).all(|seed| is_rotation_site(fault_plan(&rotation, seed).site)));
        assert!(filter_sites(Some("no-such-site")).is_empty());
        let none = run_faults(Config { seed: 1, cases: 1 }, Some("no-such-site")).outcome();
        assert!(none.floor.is_err(), "an empty site list passed");
        assert_eq!(filter_sites(None), SITES);
    }

    #[test]
    fn the_floor_names_a_cell_that_never_fired_and_wants_random_schemas() {
        let report = |cases, cells: Vec<(&'static str, [u64; 4])>| FaultReport {
            config: Config { seed: 1, cases },
            cells,
            fired_random: 1,
            ..Default::default()
        };
        // Two sites, eight cells: the floor holds from 24 cases on.
        let one_silent =
            || vec![("journal.sync", [1, 2, 1, 1]), ("checker.commit.pre", [3, 0, 2, 2])];
        let floor = report(24, one_silent()).outcome().floor.unwrap_err();
        assert_eq!(
            floor,
            "faults: cells that fired in none of 24 cases: checker.commit.pre Error K≥2"
        );
        assert_eq!(report(23, one_silent()).outcome().floor, Ok(()));
        assert_eq!(report(24, vec![("journal.sync", [1, 1, 1, 1])]).outcome().floor, Ok(()));
        let paper_only = FaultReport { fired_random: 0, ..report(24, one_silent()) };
        let paper_only = FaultReport { cells: vec![("journal.sync", [1, 1, 1, 1])], ..paper_only };
        assert_eq!(
            paper_only.outcome().floor.unwrap_err(),
            "faults: no fault fired on a random schema in 24 cases"
        );
        let lines = report(24, one_silent()).outcome().summary;
        assert_eq!(lines.lines().count(), 2, "{lines}");
        assert!(
            lines.lines().nth(1).is_some_and(|l| l.contains("checker.commit.pre=3/0/2/2")),
            "{lines}"
        );
    }

    #[test]
    fn small_run_has_no_divergences_and_fires_in_both_k_classes() {
        let report = run_faults(Config { seed: 1, cases: 2 * SITES.len() as u64 * 2 }, None);
        for d in &report.divergences {
            eprintln!("{}", d.report());
        }
        assert!(report.divergences.is_empty());
        assert_eq!(report.fired, report.config.cases, "{}", report.outcome().summary);
        assert!(
            report.poisoned > 0 && report.degraded > 0 && report.rebuilt > 0
                && report.fired_random > 0,
            "{}",
            report.outcome().summary
        );
        assert!(report.restored > 0, "no commit was restored");
    }

    #[test]
    fn every_planned_journal_sync_fault_fires_and_degrades_then_replays() {
        // The flush is the one durability point, reached once by every
        // batch that appended; the victim runs on until the fault fires.
        // A fired sync fault degrades the victim in both modes, and the
        // oracle then holds its recovery — a rebuild or the final one —
        // to the acknowledged prefix.
        let sync = filter_sites(Some("journal.sync"));
        let report = run_faults(Config { seed: 1, cases: 16 }, Some("journal.sync"));
        for d in &report.divergences {
            eprintln!("{}", d.report());
        }
        assert!(report.divergences.is_empty());
        assert_eq!(report.fired, 16, "{}", report.outcome().summary);
        assert_eq!(report.degraded, 16, "{}", report.outcome().summary);
        let rebuilds =
            (1..=16).filter(|&seed| fault_plan(&sync, seed).after == After::Rebuild).count();
        assert!(rebuilds > 0);
        assert_eq!(report.rebuilt, rebuilds as u64, "{}", report.outcome().summary);
        assert!(report.cells[0].1.iter().all(|&n| n == 4), "{:?}", report.cells);
    }
}
