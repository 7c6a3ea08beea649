//! The fault harness: a seeded fault fails one file operation of one
//! shard of a set of one to four, or a SIGKILL hits the live server over
//! the whole set, and every shard must come back at exactly its checked,
//! acknowledged prefix (DESIGN.md rows 17, 19, 22 and 24).
//!
//! The checker decides a statement before it applies it, so a refused
//! statement never reaches the journal, and a fault can change what is on
//! disk only at one of the store's file operations: whatever the fault, a
//! store recovers every commit it acknowledged, plus at most the statement
//! in flight. Each case is a pure function of its `u64` seed:
//!
//! 1. [`fault_plan`] draws the case: K shards and a [`Kind`]. Every ninth
//!    seed is a [`Kind::Kill`]; its plan draws how many replies the
//!    harness reads before the kill, whether the stores fsync, and the
//!    [`Corpus`]. The other seeds walk the in-process plans
//!    ([`walk_plan`]): a victim, an operation of [`WRITE_PATH`], `Error`
//!    or `Panic` and which of the victim's operations of that kind it
//!    strikes (one the plan reaches); a batch size; a [`Rotation`] (one that rotates where only a
//!    rotation performs the operation); whether the stores fsync (always
//!    for the flush's `sync_data`); what follows a fault that poisons or
//!    degrades the victim ([`After`]); and the corpus. The walk goes
//!    through the operations, then the two modes, then the two K-classes
//!    (K = 1, K ≥ 2), so every cell is drawn once per `4 × operations`
//!    positions; the other fields are hash-mixed out of the position. The
//!    walk skips the Kill seeds: 225 cases from seed 1 are the first 200
//!    in-process plans plus 25 Kills.
//! 2. The corpus gives one DTD and denial set, compiled into one shared
//!    Γ, and every shard a base document (one for every shard of a Kill,
//!    since a server starts them all from one `--xml`) and a statement
//!    stream of its own; each shard gets a store in [`ShardSet`]'s layout
//!    (`root/shard-k`) and a never-faulted twin checker.
//! 3. In process, only the victim's store does its file I/O in a
//!    [`Faulty`], armed once the store is set up, so the fault is the
//!    victim's by construction. The driver runs the streams round-robin, a
//!    batch at a time, through [`apply_batch`] — the function every
//!    `ShardSet::submit` runs. The victim runs on past its stream until
//!    its fault fires. At the end
//!    every checker is dropped, as in a crash, and the root is recovered
//!    twice with `ShardSet::recover`, sequentially and in parallel, over
//!    two copies of it (recovery repairs what it finds).
//!
//!    A Kill spawns the `xic-serve` beside this executable over the root
//!    (`--shards K --store --socket`, `--no-sync` where the plan does not
//!    sync) and writes every shard's stream down a connection of its own,
//!    all connections concurrently, with at most `KILL_WINDOW` (4)
//!    statements unanswered over all of them. Once the harness has read the
//!    plan's number of replies it SIGKILLs the server, reads what the
//!    sockets still hold, and recovers two copies of the root the same
//!    way. The seed fixes the plan, not the interleaving, so the oracle
//!    holds for every interleaving.
//! 4. **The oracle**, the same for every plan:
//!    * every answer matches the twin's, which takes exactly the
//!      statements its shard committed; siblings are never faulted and
//!      stay byte-identical to their twins. A killed server's replies
//!      equal, byte for byte, what an in-memory `ShardSet` twin answers to
//!      the same lines through `protocol::execute_sharded`;
//!    * every recovery — a rebuilt victim's and every shard's at the end
//!      — restores `p` commits with `acked ≤ p ≤ committed` (one more
//!      after a contained panic, or for the statement a killed server's
//!      connection was executing, whose record may be whole on disk), and
//!      the twin's bytes at `p`, its indexes audited;
//!    * a batch fsyncs the victim's segment at most once, and once if it
//!      appended to a store that fsyncs;
//!    * a failed flush degrades the checker, and the last acknowledged
//!      state — what degraded reads serve — passes the full check;
//!    * sequential and parallel recovery agree, report for report and
//!      byte for byte, for K = 1 as well;
//!    * a killed server, restarted over its root and its stale socket,
//!      answers every shard's `VERSION` with `p` and `CHECK` with
//!      `CONSISTENT`, and commits one more statement, as the twin does.
//!
//! Divergences print a one-line replay command (`cargo run -p
//! xic-difftest -- --faults --seed N --cases 1`, from which the plan is
//! derived; a Kill's replays the release build, beside its `xic-serve`).

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xic_faults::{Fault, FaultMode, Faulty, Op, Target, WRITE_PATH};
use xic_workload::{conflict_constraint, generate, random_batch, WorkloadConfig};
use xic_xml::checkpoint::Store;
use xic_xml::dir::{Dir, Real};
use xic_xml::{journal, serialize, Document, XUpdateDoc};
use xicheck::protocol::{execute_sharded, parse_command, Reply};
use xicheck::service::{apply_batch, BatchDisposition, BatchStmt, ServiceError, SubmitOutcome};
use xicheck::{
    Checker, CheckerError, CheckpointPolicy, RecoveryReport, ServiceConfig, ShardSet,
    ShardSetConfig, SharedGamma,
};

use crate::{each_case, gen, modifications, scratch_name, Config, Outcome, PAPER_DTD};

/// Statements every shard runs.
const STREAM: usize = 6;

/// How far the victim runs on past [`STREAM`] while its fault has not
/// fired (a third remove, two rotations into a rotation every three
/// commits, is a dozen statements away).
const STREAM_CAP: usize = 24;

/// Statements every shard of a Kill runs.
const KILL_STREAM: usize = 48;

/// Statements a Kill keeps written but unanswered, over all its
/// connections: a kill after reply n finds statement n + 1 executing or
/// unread whenever more than this many remain, however the host
/// schedules the server.
const KILL_WINDOW: usize = 4;

/// From this many draws of every (operation, mode, K-class) cell on, a
/// cell whose fault fired in no case fails the run.
const CELL_ROUNDS: u64 = 3;

/// The seeds divisible by this are Kill cases.
const KILL_EVERY: u64 = 9;

/// How long a server may take to come up, and a connection to answer.
const SERVER_TIMEOUT: Duration = Duration::from_secs(30);

/// A Unix socket's path must fit `sun_path`, terminator included.
const SUN_PATH: usize = 108;

/// The coverage table's columns: (kind, K-class) pairs. The first four
/// are counted per operation, the Kill pair once.
const COLUMNS: [&str; 6] =
    ["Error K=1", "Error K≥2", "Panic K=1", "Panic K≥2", "Kill K=1", "Kill K≥2"];

/// SplitMix64-style field mixer: hashing the seed with a per-field salt
/// keeps the fields independent of each other and of the round-robin
/// walk, while staying a pure function of the seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a case does to its shard set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The planned operation fails with an I/O error ([`FaultMode::Error`]).
    Error,
    /// The planned operation panics ([`FaultMode::Panic`]), contained
    /// in-thread.
    Panic,
    /// A SIGKILL of the live `xic-serve` over the whole set.
    Kill,
}

/// How the shards' stores rotate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rotation {
    /// Generation 0 only: a plain write-ahead journal.
    Never,
    /// Automatically, every this many commits.
    Every(u64),
    /// Once, by an explicit `Checker::checkpoint` in mid-stream. (What a
    /// crash between two file operations of a rotation leaves is
    /// enumerated by `--crash-states`.)
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

/// A case's plan, a pure function of its seed. A Kill reads `shards`,
/// `nth`, `sync` and `corpus`; its other fields are fixed (no target,
/// batches of one, no rotation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Shards in the set (1–4).
    pub shards: usize,
    /// The shard whose store the fault is given to.
    pub victim: usize,
    /// The operation of the write path the fault strikes (`None` for a
    /// Kill).
    pub target: Option<Target>,
    /// `Error`, `Panic` or `Kill`.
    pub kind: Kind,
    /// Which of the victim's operations of the target the fault strikes
    /// (1–3, at most as many as the plan performs); for a Kill, the replies the harness reads before it kills
    /// the server (up to every reply).
    pub nth: u64,
    /// Statements per batch (1–4).
    pub batch: usize,
    /// How the stores rotate.
    pub rotation: Rotation,
    /// Whether the stores fsync at their flush (always for the flush's
    /// `sync_data`, which only an fsync reaches).
    pub sync: bool,
    /// What follows a fault that poisons or degrades the victim.
    pub after: After,
    /// The schema, documents and statements.
    pub corpus: Corpus,
    /// The seed they are drawn from.
    pub corpus_seed: u64,
}

impl FaultPlan {
    /// The plan's column of the coverage table (see [`COLUMNS`]).
    fn column(&self) -> usize {
        2 * self.kind as usize + (self.shards > 1) as usize
    }

    /// The statements shard `k` is given: the victim runs on past
    /// [`STREAM`] until its fault fires; a Kill's shards run
    /// [`KILL_STREAM`].
    fn stream(&self, k: usize) -> usize {
        match self.kind {
            Kind::Kill => KILL_STREAM,
            _ if k == self.victim => STREAM_CAP,
            _ => STREAM,
        }
    }

    /// The automatic rotation policy every shard's checker runs.
    fn policy(&self) -> CheckpointPolicy {
        match self.rotation {
            Rotation::Every(n) => CheckpointPolicy::every_commits(n),
            Rotation::Never | Rotation::Once => CheckpointPolicy::default(),
        }
    }
}

/// Derives the plan for `seed` (see the module docs): every ninth seed is
/// a Kill, and the others walk the in-process plans, skipping the Kills.
pub fn fault_plan(seed: u64) -> FaultPlan {
    match seed % KILL_EVERY {
        0 => kill_plan(seed),
        _ => walk_plan(seed - seed / KILL_EVERY),
    }
}

/// The in-process plan at walk position `position` (see the module docs).
pub fn walk_plan(position: u64) -> FaultPlan {
    let n = WRITE_PATH.len() as u64;
    let target = WRITE_PATH[(position % n) as usize];
    let kind = if (position / n) % 2 == 0 { Kind::Error } else { Kind::Panic };
    let shards = if (position / (2 * n)) % 2 == 0 { 1 } else { 2 + (mix(position, 1) % 3) as usize };
    // An operation only a rotation performs is drawn where the stores
    // rotate, and a remove where a generation expires.
    let r = mix(position, 2);
    let rotation = match (target.op, target.ending) {
        (Op::Append, ".wal") | (Op::SyncData, _) => match r % 5 {
            4 => Rotation::Once,
            0 => Rotation::Never,
            r => Rotation::Every(1 + r % 3),
        },
        (Op::Remove, _) => Rotation::Every(1 + r % 3),
        _ => match r % 4 {
            3 => Rotation::Once,
            r => Rotation::Every(1 + r),
        },
    };
    // A single checkpoint writes one snapshot (one append, one rename)
    // and two files (two creates, two directory syncs): a later hit of
    // those would never fire.
    let reach = match (rotation, target.op) {
        (Rotation::Once, Op::Append | Op::Rename) if target.ending != ".wal" => 1,
        (Rotation::Once, Op::Create | Op::SyncDir) => 2,
        _ => 3,
    };
    FaultPlan {
        shards,
        victim: (mix(position, 3) % shards as u64) as usize,
        target: Some(target),
        kind,
        nth: 1 + mix(position, 4) % reach,
        batch: 1 + (mix(position, 5) % 4) as usize,
        rotation,
        sync: target.op == Op::SyncData || mix(position, 6) % 2 == 0,
        after: if mix(position, 7) % 2 == 0 { After::Stop } else { After::Rebuild },
        corpus: if mix(position, 9) % 2 == 0 { Corpus::Paper } else { Corpus::Random },
        corpus_seed: mix(position, 8),
    }
}

/// A Kill seed's plan: consecutive Kills alternate K-classes, and the kill
/// lands after any number of the replies, or after the last one in about
/// a sixth of the plans.
fn kill_plan(seed: u64) -> FaultPlan {
    let shards = if (seed / KILL_EVERY) % 2 == 0 { 1 } else { 2 + (mix(seed, 1) % 3) as usize };
    let replies = (shards * KILL_STREAM) as u64;
    FaultPlan {
        shards,
        victim: 0,
        target: None,
        kind: Kind::Kill,
        nth: (mix(seed, 4) % (replies + replies / 5 + 1)).min(replies),
        batch: 1,
        rotation: Rotation::Never,
        sync: mix(seed, 6) % 2 == 0,
        after: After::Stop,
        corpus: if mix(seed, 9) % 2 == 0 { Corpus::Paper } else { Corpus::Random },
        corpus_seed: mix(seed, 8),
    }
}

/// A confirmed oracle failure.
#[derive(Debug, Clone)]
pub struct FaultDivergence {
    /// The failing seed.
    pub seed: u64,
    /// Its plan.
    pub plan: FaultPlan,
    /// What went wrong.
    pub detail: String,
}

impl FaultDivergence {
    /// A multi-line report ending in the one-line replay command.
    pub fn report(&self) -> String {
        let FaultDivergence { seed, ref detail, .. } = *self;
        let FaultPlan { shards, victim, target, kind, nth, batch, rotation, sync, after, corpus, .. } =
            self.plan;
        let Some(target) = target else {
            return format!(
                "fault divergence (seed {seed}, {shards} shards, Kill after {nth} replies, sync \
                 {sync}, corpus {corpus:?})\n  {detail}\n  \
                 replay: cargo build --release && target/release/difftest --faults --seed {seed} \
                 --cases 1"
            );
        };
        format!(
            "fault divergence (seed {seed}, {shards} shards, victim {victim}, operation {target}, \
             mode {kind:?}, hit {nth}, batch {batch}, rotation {rotation:?}, sync {sync}, after \
             {after:?}, corpus {corpus:?})\n  {detail}\n  \
             replay: cargo run -p xic-difftest -- --faults --seed {seed} --cases 1"
        )
    }
}

/// Outcome of a run.
#[derive(Debug, Default)]
pub struct FaultReport {
    /// The run's parameters.
    pub config: Config,
    /// Cases whose fault fired.
    pub fired: u64,
    /// Of those, the cases on a [`Corpus::Random`] schema.
    pub fired_random: u64,
    /// Cases whose victim a contained panic poisoned.
    pub poisoned: u64,
    /// Cases whose victim a failed flush degraded.
    pub degraded: u64,
    /// Cases whose victim was rebuilt from its store mid-stream.
    pub rebuilt: u64,
    /// Recoveries that truncated a torn tail.
    pub torn_tails: u64,
    /// Commits restored by the final recoveries, over every shard.
    pub restored: u64,
    /// Per operation of [`WRITE_PATH`], the cases whose fault fired, by
    /// column: (Error, K = 1), (Error, K ≥ 2), (Panic, K = 1), (Panic,
    /// K ≥ 2).
    pub cells: Vec<(Target, [u64; 4])>,
    /// Kill cases drawn.
    pub kill_cases: u64,
    /// Kill cases that SIGKILLed a live server and passed, by K-class.
    pub kills: [u64; 2],
    /// Of those, the kills that found a statement executing or unread.
    pub kills_mid_stream: u64,
    /// All divergences, in seed order.
    pub divergences: Vec<FaultDivergence>,
}

impl FaultReport {
    /// The (operation, column) cells whose fault fired in no case, then
    /// the Kill columns that killed no live server.
    pub fn silent_cells(&self) -> Vec<String> {
        let cells = self.cells.iter().flat_map(|(target, fired)| {
            fired
                .iter()
                .zip(COLUMNS)
                .filter(|(n, _)| **n == 0)
                .map(move |(_, c)| format!("{target} {c}"))
        });
        let kills = self.kills.iter().zip(&COLUMNS[4..]).filter(|(n, _)| **n == 0);
        cells.chain(kills.map(|(_, c)| c.to_string())).collect()
    }

    /// The run's [`Outcome`]. The summary line is followed by the
    /// coverage line; floors: once every in-process cell was drawn three
    /// times, a cell that never fired has fallen off the write path, and a
    /// run whose faults all fired on the paper's schema never put a
    /// generated one under faults; once each Kill column was drawn three
    /// times, it must have killed a live server, and at least half the
    /// kills must have found a statement executing or unread.
    pub fn outcome(&self) -> Outcome {
        let Config { seed, cases } = self.config;
        let table: Vec<String> = self
            .cells
            .iter()
            .map(|(target, n)| format!("{target}={}/{}/{}/{}", n[0], n[1], n[2], n[3]))
            .collect();
        let FaultReport { fired, fired_random, poisoned, degraded, rebuilt, .. } = *self;
        let FaultReport { torn_tails, restored, kills, kills_mid_stream, .. } = *self;
        let killed = kills[0] + kills[1];
        let summary = format!(
            "faults: {cases} cases from seed {seed} — {} divergences, {fired} faults fired, \
             {fired_random} of them on random schemas, {poisoned} victims poisoned, {degraded} \
             degraded, {rebuilt} rebuilt in place, {killed} live servers killed, \
             {kills_mid_stream} of them with a statement executing or unread, {torn_tails} torn \
             tails truncated, {restored} commits restored\nfired by operation ({}): {}; killed \
             ({}): {}/{}",
            self.divergences.len(),
            COLUMNS[..4].join(" / "),
            table.join(" "),
            COLUMNS[4..].join(" / "),
            kills[0],
            kills[1],
        );
        let in_process = cases - self.kill_cases;
        let cells_drawn = in_process >= CELL_ROUNDS * 4 * self.cells.len() as u64;
        let kills_drawn = self.kill_cases >= CELL_ROUNDS * 2;
        let silent: Vec<String> = self
            .silent_cells()
            .into_iter()
            .filter(|cell| if cell.starts_with("Kill") { kills_drawn } else { cells_drawn })
            .collect();
        let floor = if !silent.is_empty() {
            Err(format!("faults: cells that fired in none of {cases} cases: {}", silent.join(", ")))
        } else if cells_drawn && self.fired_random == 0 {
            Err(format!("faults: no fault fired on a random schema in {cases} cases"))
        } else if kills_drawn && 2 * self.kills_mid_stream < killed {
            Err(format!(
                "faults: only {} of {killed} kills found a statement executing or unread",
                self.kills_mid_stream
            ))
        } else {
            Ok(())
        };
        let divergences = self.divergences.iter().map(FaultDivergence::report).collect();
        Outcome { summary, divergences, floor }
    }
}

/// Runs `config.cases` cases from `config.seed`, each the plan `plan`
/// derives from its seed ([`fault_plan`] for a run of the pass). Each
/// case's files live in the system temp directory and are removed after
/// it.
pub fn run_faults(config: Config, plan: impl Fn(u64) -> FaultPlan) -> FaultReport {
    let cells = WRITE_PATH.iter().map(|&target| (target, [0; 4])).collect();
    let mut report = FaultReport { config, cells, ..Default::default() };
    each_case(config, |seed, dir| {
        let plan = plan(seed);
        let case = dir.join(scratch_name("faults", seed));
        let result = run_case(plan, &case);
        let _ = std::fs::remove_dir_all(&case);
        report.kill_cases += (plan.kind == Kind::Kill) as u64;
        let out = match result {
            Ok(out) => out,
            Err(detail) => return report.divergences.push(FaultDivergence { seed, plan, detail }),
        };
        report.torn_tails += out.torn_tails;
        report.restored += out.restored;
        if plan.kind == Kind::Kill {
            report.kills[plan.column() - 4] += 1;
            report.kills_mid_stream += out.mid_stream as u64;
            return;
        }
        report.fired += out.fired as u64;
        report.fired_random += (out.fired && plan.corpus == Corpus::Random) as u64;
        if let Some((_, fired)) = report.cells.iter_mut().find(|(t, _)| Some(*t) == plan.target) {
            fired[plan.column()] += out.fired as u64;
        }
        report.poisoned += out.poisoned as u64;
        report.degraded += out.degraded as u64;
        report.rebuilt += out.rebuilt as u64;
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
    /// A Kill found a statement executing or unread.
    mid_stream: bool,
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
fn draw(plan: FaultPlan) -> Result<Drawn, String> {
    let mut rng = StdRng::seed_from_u64(plan.corpus_seed);
    let parse = |text: &str| {
        XUpdateDoc::parse(text).map_err(|e| format!("a generated statement does not parse: {e}"))
    };
    let compile = |dtd: &str, constraints: &str| {
        SharedGamma::compile(dtd, constraints).map_err(|e| format!("compiling Γ failed: {e}"))
    };
    let mut shards = Vec::with_capacity(plan.shards);
    if plan.corpus == Corpus::Paper {
        let mut w = None;
        for k in 0..plan.shards {
            // A server starts every shard from one `--xml`: the shards of
            // a Kill share shard 0's document.
            if w.is_none() || plan.kind != Kind::Kill {
                w = Some(generate(WorkloadConfig {
                    seed: rng.gen::<u64>(),
                    pubs: 4 + rng.gen_range(0..6),
                    tracks: 1 + rng.gen_range(0..2),
                    revs_per_track: 1 + rng.gen_range(0..3),
                    subs_per_rev: 1 + rng.gen_range(0..3),
                    name_pool: 12,
                }));
            }
            let w = w.as_ref().expect("drawn above");
            let stream = (0..plan.stream(k))
                .map(|_| parse(&random_batch(&mut rng, w, 1)))
                .collect::<Result<_, _>>()?;
            shards.push((w.xml.clone(), stream));
        }
        let (dtd, constraints) = (PAPER_DTD.to_string(), conflict_constraint().to_string());
        return Ok(Drawn { gamma: compile(&dtd, &constraints)?, dtd, constraints, shards });
    }
    // A rotation's later operations are a dozen commits into the victim's
    // stream: an in-process plan draws its schema again, up to eight
    // times, while the denials refuse more than half of that stream.
    for draws in 1.. {
        let schema = gen::random_schema(&mut rng);
        let base = gen::random_document(&mut rng, &schema);
        let constraints = gen::random_constraints(&mut rng, &schema, &base);
        let gamma = compile(&schema.dtd_text, &constraints)?;
        let mut victim_commits = 0;
        shards.clear();
        for k in 0..plan.shards {
            // Each statement is drawn over the document the earlier ones
            // leave, as a fault-free run commits them, so that later
            // selects still match.
            let mut scratch = Checker::from_shared(&base, &gamma).map_err(|e| e.to_string())?;
            let mut stream = Vec::with_capacity(plan.stream(k));
            for _ in 0..plan.stream(k) {
                let stmt =
                    parse(&modifications(&gen::random_ops(&mut rng, &schema, scratch.doc())))?;
                let applied = scratch.try_update(&stmt).is_ok_and(|o| o.applied());
                victim_commits += (applied && k == plan.victim) as usize;
                stream.push(stmt);
            }
            shards.push((base.clone(), stream));
        }
        let enough = plan.kind == Kind::Kill || 2 * victim_commits >= plan.stream(plan.victim);
        if enough || draws == 8 {
            return Ok(Drawn { gamma, dtd: schema.dtd_text, constraints, shards });
        }
    }
    unreachable!("the loop returns at its last draw")
}

/// Runs one case (see the module docs); its files go under `case`.
fn run_case(plan: FaultPlan, case: &Path) -> Result<CaseOutcome, String> {
    let Drawn { gamma, dtd, constraints, shards: drawn } = draw(plan)?;
    let root = case.join("root");
    let faulty = Faulty::real();
    let mut shards = Vec::with_capacity(plan.shards);
    for (k, (base, stream)) in drawn.into_iter().enumerate() {
        let setup = |e: CheckerError| format!("shard {k}: setup failed: {e}");
        let dir = root.join(format!("shard-{k}"));
        // A killed server owns its stores; in process, the harness does.
        let live = match plan.kind {
            Kind::Kill => None,
            Kind::Error | Kind::Panic => {
                let mut live = Checker::from_shared(&base, &gamma).map_err(setup)?;
                let fs = if k == plan.victim { faulty.dir() } else { Arc::new(Real) };
                live.attach_store_in(fs, &dir, plan.sync).map_err(setup)?;
                live.set_checkpoint_policy(plan.policy());
                Some(live)
            }
        };
        let twin = Checker::from_shared(&base, &gamma).map_err(setup)?;
        shards.push(Shard {
            dir,
            states: vec![serialize(twin.doc())],
            base,
            stream,
            next: 0,
            checkpointed: false,
            live,
            twin,
            log: Vec::new(),
            acked: 0,
            in_flight: None,
        });
    }
    let mut driver =
        Driver { plan, gamma, dtd, constraints, shards, faulty, out: CaseOutcome::default() };
    let Some(target) = plan.target else {
        driver.kill(case)?;
        return Ok(driver.out);
    };
    let mode = if plan.kind == Kind::Panic { FaultMode::Panic } else { FaultMode::Error };
    let under = root.join(format!("shard-{}", plan.victim));
    driver.faulty.arm(Fault { target, under, nth: plan.nth, mode });
    driver.run()?;
    driver.recover_all(&root, &case.join("copy"))?;
    driver.out.fired = driver.faulty.fired();
    Ok(driver.out)
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
    /// The statement a contained panic poisoned the shard on: its record
    /// may be whole on disk, uncounted.
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
            // A statement that does not apply, as on the twin.
            Err(ServiceError::Checker(E::Statement(_))) => None,
            // The faulted batch only: the statement whose panic poisoned
            // the shard, the one whose append failed, and those a
            // poisoned checker then refused.
            Err(ServiceError::Checker(E::Panicked(_)))
                if faulted && poisoned && self.in_flight.is_none() =>
            {
                self.in_flight = Some(stmt.clone());
                return Ok(());
            }
            Err(ServiceError::Checker(E::Journal(_) | E::Poisoned)) if faulted => return Ok(()),
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

    /// Moves the twin on by a statement the shard committed.
    fn commit(&mut self, stmt: &XUpdateDoc) -> Result<(), String> {
        match self.twin.try_update(stmt) {
            Ok(out) if out.applied() => {
                self.log.push(stmt.clone());
                self.states.push(serialize(self.twin.doc()));
                Ok(())
            }
            other => Err(format!("the twin answers {other:?} to a statement its shard committed")),
        }
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
            let restored = self.commit(&stmt);
            restored.map_err(|e| format!("recovery restored the statement in flight: {e}"))?;
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

/// Every segment of the store in `dir` up to its live generation, read
/// through `fs`, is whole records: a failed append was rewound, leaving
/// its segment as long as before the call (a later append in the batch
/// adds only whole records). A segment a rotation removed is skipped.
fn segments_whole(fs: &dyn Dir, dir: &Path, live: u64) -> Result<(), String> {
    for g in 0..=live {
        let path = Store::wal_path(dir, g);
        let bytes = match fs.read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(format!("reading {}: {e}", path.display())),
        };
        let whole = match journal::decode(&bytes) {
            Ok(Some((_, _, whole))) => whole,
            other => return Err(format!("{} does not decode: {other:?}", path.display())),
        };
        if whole != bytes.len() {
            return Err(format!(
                "a failed append left gen-{g}.wal {} bytes longer than its {whole} of whole records",
                bytes.len() - whole
            ));
        }
    }
    Ok(())
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
    /// The victim's store's file system, the plan's fault armed in it.
    faulty: Faulty,
    out: CaseOutcome,
}

impl Driver {
    /// Runs the streams round-robin, a batch per shard per round, until
    /// every live shard is through its stream.
    fn run(&mut self) -> Result<(), String> {
        loop {
            let mut ran = false;
            for s in 0..self.shards.len() {
                let end = if s == self.plan.victim && !self.faulty.fired() { STREAM_CAP } else { STREAM };
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
        // The victim's store is in the `Faulty` until its fault fired (a
        // rebuilt victim's is in the real file system).
        let armed = s == self.plan.victim && !self.faulty.fired();
        let hits = self.faulty.hits();
        let shard = &mut self.shards[s];
        let checker = shard.live.as_mut().ok_or("a stopped shard ran a batch")?;
        let items: Vec<BatchStmt> =
            stmts.iter().map(|stmt| BatchStmt { stmt, budget: None }).collect();
        let before = checker.committed();
        let outcome = apply_batch(checker, &items);
        let faulted = armed && self.faulty.fired();
        let append = Target { op: Op::Append, ending: ".wal" };
        if faulted && self.plan.kind == Kind::Error && self.plan.target == Some(append) {
            let fs = self.faulty.dir();
            segments_whole(&*fs, &shard.dir, checker.store_generation())?;
        }
        let (poisoned, degraded) = (checker.poisoned(), checker.degraded());
        let appended = checker.committed() > before;
        let state = serialize(checker.doc());
        let flush = Target { op: Op::SyncData, ending: ".wal" };
        if armed && self.plan.target == Some(flush) {
            let fsyncs = self.faulty.hits() - hits;
            if fsyncs > 1 || (self.plan.sync && appended && fsyncs == 0) {
                return Err(format!("a batch fsynced its segment {fsyncs} times"));
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
        if faulted && self.plan.kind == Kind::Panic && !poisoned && !degraded {
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
        let armed = s == self.plan.victim && !self.faulty.fired();
        let shard = &mut self.shards[s];
        shard.checkpointed = true;
        let checker = shard.live.as_mut().ok_or("a stopped shard took a checkpoint")?;
        let result = catch_unwind(AssertUnwindSafe(|| checker.checkpoint()));
        let faulted = armed && self.faulty.fired();
        match result {
            // A failed rotation leaves the old generation live, and the
            // crash comes later. (A remove, whose failure a rotation
            // survives, is drawn only where rotations are automatic.)
            Ok(Ok(_)) if faulted && self.plan.kind == Kind::Error => {
                Err("checkpoint() reported success over an injected error".to_string())
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
        // A Kill strikes every shard alike: none may fall back.
        let victim = |s: usize| self.plan.kind != Kind::Kill && s == self.plan.victim;
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
                .settle(doc.doc(), report, victim(s), &self.gamma)
                .map_err(|e| format!("shard {s}: {e}"))?;
            self.out.restored += p as u64;
            self.out.torn_tails += report.torn_tail_truncated as u64;
        }
        let _ = seq.shutdown();
        let _ = par.shutdown();
        Ok(())
    }
}

impl Driver {
    /// A Kill (see the module docs): drives a live `xic-serve` over the
    /// root, SIGKILLs it once the plan's replies are read, holds the
    /// replies to a `ShardSet` twin, recovers two copies of the root, and
    /// restarts the server over the root itself.
    fn kill(&mut self, case: &Path) -> Result<(), String> {
        let write = |name: &str, text: &str| {
            std::fs::write(case.join(name), text).map_err(|e| format!("writing {name}: {e}"))
        };
        std::fs::create_dir_all(case).map_err(|e| format!("creating {}: {e}", case.display()))?;
        write("doc.xml", &self.shards[0].base)?;
        write("schema.dtd", &self.dtd)?;
        write("gamma.xpl", &self.constraints)?;
        for shard in &mut self.shards {
            // The wire carries a statement per line.
            shard.stream.retain(|stmt| !stmt.to_xml().contains(['\n', '\r']));
        }
        let texts: Vec<Vec<String>> = (self.shards.iter())
            .map(|shard| shard.stream.iter().map(XUpdateDoc::to_xml).collect())
            .collect();
        let updates: Vec<Vec<String>> = (texts.iter().enumerate())
            .map(|(k, texts)| texts.iter().map(|text| format!("DOC {k} UPDATE {text}\n")).collect())
            .collect();
        let kill_at = (self.plan.nth as usize).min(texts.iter().map(Vec::len).sum());
        let drained = drive_until_killed(case, &self.plan, &updates, kill_at)?;

        // Every reply read, before the kill or drained after it, is the
        // twin's; an applied one is acknowledged.
        let bases = vec![self.shards[0].base.as_str(); self.plan.shards];
        let twin = ShardSet::in_memory(&bases, &self.dtd, &self.constraints, Default::default())
            .map_err(|e| format!("the twin set: {e}"))?;
        let answer =
            |line: &str| parse_command(line).map(|command| execute_sharded(&twin, &command));
        for (k, replies) in drained.iter().enumerate() {
            let shard = &mut self.shards[k];
            for (i, reply) in replies.iter().enumerate() {
                let expected = answer(&format!("DOC {k} UPDATE {}", texts[k][i]))?;
                if *reply != expected.render() {
                    return Err(format!(
                        "shard {k}: reply {} was {reply:?} where its twin answers {:?}",
                        i + 1,
                        expected.render()
                    ));
                }
                if matches!(&expected, Reply::Ok { detail, .. } if detail.starts_with("APPLIED")) {
                    let stmt = shard.stream[i].clone();
                    shard.commit(&stmt).map_err(|e| format!("shard {k}: {e}"))?;
                }
            }
            shard.acked = shard.log.len();
            shard.in_flight = shard.stream.get(replies.len()).cloned();
            self.out.mid_stream |= replies.len() < texts[k].len();
        }

        let root = case.join("root");
        let seq = case.join("seq");
        copy_dir(&root, &seq).map_err(|e| format!("copying the root: {e}"))?;
        let acked: Vec<usize> = self.shards.iter().map(|shard| shard.acked).collect();
        self.recover_all(&seq, &case.join("par"))?;

        // The restart: the twin first takes the statement in flight where
        // recovery restored it, then answers what the restarted server is
        // asked.
        let (server, mut streams) = Server::start(case, &self.plan, 1)?;
        let mut client = BufReader::new(streams.pop().expect("one connection"));
        for (k, replies) in drained.iter().enumerate() {
            let p = self.shards[k].acked;
            let restored_in_flight = p > acked[k];
            if restored_in_flight {
                answer(&format!("DOC {k} UPDATE {}", texts[k][replies.len()]))?;
            }
            let next = replies.len() + restored_in_flight as usize;
            // One more commit: the first statement from `next` on,
            // wrapping, that the twin would apply.
            let n = texts[k].len();
            let commit = (0..n).map(|i| &texts[k][(next + i) % n]).find(|text| {
                answer(&format!("DOC {k} DECIDE {text}"))
                    .is_ok_and(|r| matches!(r, Reply::Ok { detail, .. } if detail == "LEGAL"))
            });
            let mut lines = vec![
                (format!("DOC {k} VERSION"), Some(format!("OK {p}"))),
                (format!("DOC {k} CHECK"), Some(format!("OK {p} CONSISTENT"))),
            ];
            lines.extend(commit.map(|text| (format!("DOC {k} UPDATE {text}"), None)));
            for (line, want) in lines {
                let expected = answer(&line)?.render();
                let got = call(&mut client, &line)
                    .map_err(|e| format!("restarted: {e}\n{}", server.log()))?;
                if got != expected || want.is_some_and(|want| want != got) {
                    return Err(format!(
                        "restarted, shard {k} answered {got:?} to {line:.40}… where its twin \
                         answers {expected:?}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Starts the server over `case`, writes shard `k`'s `DOC k UPDATE`
/// lines, `updates[k]`, down a connection of its own, pipelined but never
/// more than [`KILL_WINDOW`] unanswered over all connections, SIGKILLs the
/// server once `kill_at` replies are read, and returns every shard's
/// replies, those the sockets still held after the kill included.
fn drive_until_killed(
    case: &Path,
    plan: &FaultPlan,
    updates: &[Vec<String>],
    kill_at: usize,
) -> Result<Vec<Vec<String>>, String> {
    let (server, readers) = Server::start(case, plan, updates.len())?;
    let writers = (readers.iter().map(UnixStream::try_clone))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cloning a connection: {e}"))?;
    let (read, signalled, killed) = (AtomicUsize::new(0), AtomicBool::new(false), OnceLock::new());
    // (statements written, replies read, stopped), over all connections.
    let window = (Mutex::new((0usize, 0usize, false)), Condvar::new());
    let stop = || {
        window.0.lock().unwrap_or_else(PoisonError::into_inner).2 = true;
        window.1.notify_all();
    };
    let kill = || {
        signalled.store(true, Ordering::SeqCst);
        let alive = *killed.get_or_init(|| server.kill());
        stop();
        alive
    };
    if kill_at == 0 {
        kill();
    }
    let drained = std::thread::scope(|scope| {
        for (mut writer, updates) in writers.into_iter().zip(updates) {
            // On a thread of its own; a write the kill cuts short is what
            // a crashing client sees.
            let window = &window;
            scope.spawn(move || {
                for line in updates {
                    let mut w = window.0.lock().unwrap_or_else(PoisonError::into_inner);
                    while !w.2 && w.0 >= w.1 + KILL_WINDOW {
                        w = window.1.wait(w).unwrap_or_else(PoisonError::into_inner);
                    }
                    if w.2 {
                        return;
                    }
                    w.0 += 1;
                    drop(w);
                    if writer.write_all(line.as_bytes()).is_err() {
                        return;
                    }
                }
            });
        }
        let (read, signalled, kill, window) = (&read, &signalled, &kill, &window);
        let readers: Vec<_> = (readers.into_iter())
            .map(|stream| {
                scope.spawn(move || {
                    let mut replies = Vec::new();
                    for reply in BufReader::new(stream).lines() {
                        match reply {
                            Ok(reply) => replies.push(reply),
                            // A killed peer may reset rather than close.
                            Err(_) if signalled.load(Ordering::SeqCst) => break,
                            Err(e) => return Err(format!("reading a reply: {e}")),
                        }
                        if read.fetch_add(1, Ordering::SeqCst) + 1 == kill_at {
                            kill();
                        }
                        // The window moves only after the kill: statement
                        // n + KILL_WINDOW + 1 is never written.
                        window.0.lock().unwrap_or_else(PoisonError::into_inner).1 += 1;
                        window.1.notify_all();
                    }
                    Ok(replies)
                })
            })
            .collect();
        let drained = (readers.into_iter())
            .map(|r| r.join().expect("a reader returns its errors"))
            .collect::<Result<Vec<_>, String>>();
        stop();
        drained
    })?;
    if killed.get().is_none() {
        return Err(format!(
            "the connections closed after {} of the {kill_at} replies the kill waits for\n{}",
            read.load(Ordering::SeqCst),
            server.log()
        ));
    }
    if !kill() {
        return Err(format!("xic-serve was gone before its kill\n{}", server.log()));
    }
    Ok(drained)
}

/// One request and its reply over a connection.
fn call(client: &mut BufReader<UnixStream>, line: &str) -> Result<String, String> {
    client.get_mut().write_all(format!("{line}\n").as_bytes()).map_err(|e| e.to_string())?;
    let mut reply = String::new();
    match client.read_line(&mut reply) {
        Ok(0) => Err("the connection closed".to_string()),
        Ok(_) => Ok(reply.trim_end_matches('\n').to_string()),
        Err(e) => Err(e.to_string()),
    }
}

/// The `xic-serve` a Kill runs: the one beside this executable, where
/// `cargo build --release` puts both.
fn serve_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating difftest: {e}"))?;
    let binary = exe.with_file_name("xic-serve");
    if !binary.is_file() {
        return Err(format!(
            "{} not found: a Kill case runs the xic-serve beside difftest; build both with \
             `cargo build --release`",
            binary.display()
        ));
    }
    Ok(binary)
}

/// A spawned `xic-serve` over a case's files, SIGKILLed and waited for
/// when dropped: no server outlives its case, a divergence or a panic
/// included.
struct Server {
    child: Mutex<Child>,
    log: PathBuf,
}

impl Server {
    /// Starts the server over `case`'s root, socket and input files, and
    /// opens `connections` connections once it listens.
    fn start(
        case: &Path,
        plan: &FaultPlan,
        connections: usize,
    ) -> Result<(Server, Vec<UnixStream>), String> {
        let binary = serve_binary()?;
        let socket = case.join("sock");
        if socket.as_os_str().len() >= SUN_PATH {
            return Err(format!(
                "socket path {} does not fit sun_path's {SUN_PATH} bytes",
                socket.display()
            ));
        }
        let log = case.join("server.log");
        let stderr = std::fs::File::options()
            .create(true)
            .append(true)
            .open(&log)
            .map_err(|e| format!("opening {}: {e}", log.display()))?;
        let mut command = Command::new(&binary);
        command
            .arg("--xml")
            .arg(case.join("doc.xml"))
            .arg("--dtd")
            .arg(case.join("schema.dtd"))
            .arg("--constraints")
            .arg(case.join("gamma.xpl"))
            .arg("--shards")
            .arg(plan.shards.to_string())
            .arg("--store")
            .arg(case.join("root"))
            .arg("--socket")
            .arg(&socket);
        if !plan.sync {
            command.arg("--no-sync");
        }
        let child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let server = Server { child: Mutex::new(child), log };
        // A stale socket refuses connections until the server rebinds it.
        let started = Instant::now();
        let first = loop {
            if let Ok(stream) = UnixStream::connect(&socket) {
                break stream;
            }
            if !server.running() || started.elapsed() > SERVER_TIMEOUT {
                return Err(format!("xic-serve did not come up\n{}", server.log()));
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let mut streams = vec![first];
        for _ in 1..connections {
            streams.push(UnixStream::connect(&socket).map_err(|e| format!("connecting: {e}"))?);
        }
        for stream in &streams {
            stream.set_read_timeout(Some(SERVER_TIMEOUT)).map_err(|e| e.to_string())?;
        }
        Ok((server, streams))
    }

    /// The child, whatever a panicking holder left: a `Child` stays valid,
    /// and `Drop` must not panic.
    fn child(&self) -> std::sync::MutexGuard<'_, Child> {
        self.child.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn running(&self) -> bool {
        matches!(self.child().try_wait(), Ok(None))
    }

    /// SIGKILLs the server and waits for it; true if it was still running.
    fn kill(&self) -> bool {
        let alive = self.running();
        let mut child = self.child();
        let _ = child.kill();
        let _ = child.wait();
        alive
    }

    /// What the server wrote to stderr, for a divergence report.
    fn log(&self) -> String {
        let log = std::fs::read_to_string(&self.log).unwrap_or_default();
        format!("--- xic-serve stderr ---\n{log}")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
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
        assert_eq!(walk_plan(4242), walk_plan(4242));
        let plans: Vec<FaultPlan> = (1..=400).map(walk_plan).collect();
        for multi in [false, true] {
            let class: Vec<&FaultPlan> = plans.iter().filter(|p| (p.shards > 1) == multi).collect();
            let draws = |f: &dyn Fn(&FaultPlan) -> bool| class.iter().any(|p| f(p));
            for target in WRITE_PATH {
                for kind in [Kind::Error, Kind::Panic] {
                    assert!(draws(&|p| p.target == Some(target) && p.kind == kind), "{target} {kind:?}");
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
        // An operation is drawn only where the plan can reach it: the
        // flush's fsync where the stores sync, a rotation's operations
        // where they rotate, a remove where a generation expires.
        for p in &plans {
            let target = p.target.expect("an in-process plan");
            match target.op {
                Op::SyncData => assert!(p.sync, "{p:?}"),
                Op::Append if target.ending == ".wal" => {}
                Op::Remove => assert!(matches!(p.rotation, Rotation::Every(_)), "{p:?}"),
                _ => assert!(p.rotation != Rotation::Never, "{p:?}"),
            }
            if p.rotation == Rotation::Once {
                match (target.op, target.ending) {
                    (Op::Append, ".wal") | (Op::SyncData, _) => {}
                    (Op::Create | Op::SyncDir, _) => assert!(p.nth <= 2, "{p:?}"),
                    _ => assert_eq!(p.nth, 1, "{p:?}"),
                }
            }
            assert!(p.victim < p.shards);
        }
    }

    #[test]
    fn every_ninth_seed_is_a_kill_and_the_others_walk_the_in_process_plans() {
        let plans: Vec<FaultPlan> = (1..=225).map(fault_plan).collect();
        let (kills, in_process): (Vec<&FaultPlan>, Vec<&FaultPlan>) =
            plans.iter().partition(|p| p.kind == Kind::Kill);
        assert_eq!(kills.len(), 25);
        let walked: Vec<FaultPlan> = (1..=200).map(walk_plan).collect();
        assert!(in_process.into_iter().eq(walked.iter()), "the in-process walk moved");
        let draws = |f: &dyn Fn(&FaultPlan) -> bool| kills.iter().filter(|p| f(p)).count();
        assert_eq!(draws(&|p| p.shards == 1), 12);
        for k in 2..=4 {
            assert!(draws(&|p| p.shards == k) > 0, "K = {k}");
        }
        for sync in [false, true] {
            assert!(draws(&|p| p.sync == sync) > 0, "sync {sync}");
        }
        for corpus in [Corpus::Paper, Corpus::Random] {
            assert!(draws(&|p| p.corpus == corpus) > 0, "{corpus:?}");
        }
        // After the last reply in a few plans (a server that answers
        // before it appends loses a commit there, whatever the timing),
        // before it in the rest.
        let last = |p: &FaultPlan| p.nth as usize == p.shards * KILL_STREAM;
        assert!((2..=8).contains(&draws(&last)), "{} kills after the last reply", draws(&last));
        assert!(kills.iter().all(|p| p.nth as usize <= p.shards * KILL_STREAM));
        assert!(kills.iter().all(|p| p.target.is_none() && p.rotation == Rotation::Never));
    }

    #[test]
    fn the_floor_names_a_cell_that_never_fired_and_wants_random_schemas() {
        let (append, sync) = (WRITE_PATH[0], WRITE_PATH[1]);
        let report = |cases, cells: Vec<(Target, [u64; 4])>| FaultReport {
            config: Config { seed: 1, cases },
            cells,
            fired_random: 1,
            ..Default::default()
        };
        // Two operations, eight cells: the floor holds from 24 cases on.
        let one_silent = || vec![(sync, [1, 2, 1, 1]), (append, [3, 0, 2, 2])];
        let floor = report(24, one_silent()).outcome().floor.unwrap_err();
        assert_eq!(floor, "faults: cells that fired in none of 24 cases: append(.wal) Error K≥2");
        assert_eq!(report(23, one_silent()).outcome().floor, Ok(()));
        assert_eq!(report(24, vec![(sync, [1, 1, 1, 1])]).outcome().floor, Ok(()));
        let paper_only = FaultReport { fired_random: 0, ..report(24, one_silent()) };
        let paper_only = FaultReport { cells: vec![(sync, [1, 1, 1, 1])], ..paper_only };
        assert_eq!(
            paper_only.outcome().floor.unwrap_err(),
            "faults: no fault fired on a random schema in 24 cases"
        );
        let lines = report(24, one_silent()).outcome().summary;
        assert_eq!(lines.lines().count(), 2, "{lines}");
        assert!(lines.ends_with("; killed (Kill K=1 / Kill K≥2): 0/0"), "{lines}");
        assert!(
            lines.lines().nth(1).is_some_and(|l| l.contains("append(.wal)=3/0/2/2")),
            "{lines}"
        );
    }

    #[test]
    fn the_kill_floor_wants_both_k_classes_and_half_the_kills_mid_stream() {
        let report = |kill_cases, kills, kills_mid_stream| FaultReport {
            config: Config { seed: 1, cases: kill_cases },
            cells: vec![(WRITE_PATH[1], [0; 4])],
            kill_cases,
            kills,
            kills_mid_stream,
            ..Default::default()
        };
        // Each K-class drawn three times from six Kills on.
        assert_eq!(report(5, [3, 0], 0).outcome().floor, Ok(()));
        assert_eq!(
            report(6, [3, 0], 3).outcome().floor.unwrap_err(),
            "faults: cells that fired in none of 6 cases: Kill K≥2"
        );
        assert_eq!(
            report(6, [3, 3], 2).outcome().floor.unwrap_err(),
            "faults: only 2 of 6 kills found a statement executing or unread"
        );
        assert_eq!(report(6, [3, 3], 3).outcome().floor, Ok(()));
    }

    #[test]
    fn small_run_has_no_divergences_and_fires_in_both_k_classes() {
        // The first two rounds of the walk, every cell twice: no Kill,
        // which spawns the server built beside the binary (`tests/cli.rs`
        // runs those).
        let cases = 2 * 4 * WRITE_PATH.len() as u64;
        let report = run_faults(Config { seed: 1, cases }, walk_plan);
        for d in &report.divergences {
            eprintln!("{}", d.report());
        }
        assert!(report.divergences.is_empty());
        let summary = report.outcome().summary;
        assert_eq!(report.fired, report.config.cases, "{summary}");
        assert!(
            report.poisoned > 0 && report.degraded > 0 && report.rebuilt > 0
                && report.fired_random > 0,
            "{summary}"
        );
        assert!(report.restored > 0, "no commit was restored");
    }

    #[test]
    fn every_planned_flush_fault_fires_and_degrades_then_replays() {
        // The flush is the one durability point, reached once by every
        // batch that appended; the victim runs on until the fault fires.
        // A fired fsync fault degrades the victim in both modes, and the
        // oracle then holds its recovery — a rebuild or the final one —
        // to the acknowledged prefix. Walk positions 1, 8, 15, … are the
        // flush's, in every column in turn.
        let n = WRITE_PATH.len() as u64;
        assert_eq!(WRITE_PATH[1], Target { op: Op::SyncData, ending: ".wal" });
        let flush = |i: u64| walk_plan(1 + n * i);
        let report = run_faults(Config { seed: 0, cases: 16 }, flush);
        for d in &report.divergences {
            eprintln!("{}", d.report());
        }
        assert!(report.divergences.is_empty());
        assert_eq!(report.fired, 16, "{}", report.outcome().summary);
        assert_eq!(report.degraded, 16, "{}", report.outcome().summary);
        let rebuilds = (0..16).filter(|&i| flush(i).after == After::Rebuild).count();
        assert!(rebuilds > 0);
        assert_eq!(report.rebuilt, rebuilds as u64, "{}", report.outcome().summary);
        assert_eq!(report.cells[1].1, [4; 4], "{:?}", report.cells);
    }
}
