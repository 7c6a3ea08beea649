//! Concurrent checker service: snapshot reads, group-commit writes,
//! bounded admission, per-request deadlines, degraded-mode survival.
//!
//! The [`Checker`] façade is single-threaded by construction — every
//! mutating entry point takes `&mut self` and, with a journal attached,
//! pays one fsync per committed statement (0.2–0.5 ms on the benchmark
//! machine, `journal.sync_us` in the wire-level suite), a hard ~2–5k
//! updates/s ceiling. This module turns it into a service:
//!
//! * **Readers never block writers.** Read-only entry points
//!   ([`ReadSnapshot::check_full`], [`ReadSnapshot::decide`]) run
//!   against an immutable, versioned [`ReadSnapshot`] published by the
//!   writer once per committed batch. Taking a snapshot is an `Arc`
//!   clone under a briefly-held lock; checking it touches no writer
//!   state at all.
//! * **A pre-update decision is a read.** [`ReadSnapshot::decide`] runs
//!   the same optimized check the writer commits with
//!   ([`crate::optimized`]) on the reader's own thread against the
//!   snapshot — no copy of the document, no apply, no writer
//!   round-trip — through the [`PatternCache`] the service shares with
//!   its writer; the baseline ([`ReadSnapshot::decide_full`]: copy,
//!   apply, check all of Γ) only decides what the writer also sends
//!   down the baseline.
//! * **Writers group-commit.** One writer thread owns the `Checker`;
//!   concurrent submitters' statements are drained into a batch
//!   ([`apply_batch`]), their journal records appended *unsynced*, and
//!   the whole batch made durable with **one shared fsync**
//!   ([`Journal::sync_now`][sync-now]) before any submitter is
//!   acknowledged. A rejected statement appends no record and cannot
//!   poison its batch-mates.
//! * **Overload sheds instead of queueing without bound.** Admission is
//!   bounded by [`ServiceConfig::queue_depth`]: once that many
//!   submissions are waiting, further ones fail fast with
//!   [`ServiceError::Overloaded`] (wire reply `ERR overloaded`) and the
//!   client retries with jittered backoff. Goodput plateaus at
//!   saturation instead of collapsing under unbounded queueing
//!   (EXPERIMENTS.md E13, `experiments -- overload`).
//! * **Requests carry deadlines.** A `deadline_ms` budget (from the
//!   protocol's optional `UPDATE 250 <stmt>` prefix, or
//!   [`ServiceConfig::default_deadline_ms`], for reads as for writes)
//!   bounds queue wait *and* evaluation: expired requests are dropped
//!   with [`ServiceError::Timeout`], and the remaining allowance is
//!   armed as an [`EvalBudget`] around the check so a pathological
//!   statement/constraint pair times out instead of hanging.
//! * **A failed batch fsync degrades, it does not kill.** The shared
//!   fsync is retried with bounded backoff (the journal's own
//!   `Interrupted` retry policy plus [`ServiceConfig::fsync_attempts`]
//!   service-level attempts); if the journal stays unwritable the
//!   service enters read-only **degraded mode** — CHECK/DECIDE keep
//!   serving the last *durably published* snapshot, UPDATE gets
//!   [`ServiceError::Degraded`] — until an explicit
//!   [`CheckerService::recover`] re-arms it after the journal heals.
//! * **The sequential path survives as the deterministic executor.**
//!   The [`Executor`] enum selects between `Sync` (in-thread execution
//!   on the caller, fsync per commit — the pre-service behavior) and
//!   `GroupCommit`; tests, difftest and the wire-level benchmark's
//!   in-process twins drive `Sync`, where no writer thread or batch
//!   stands between a submit and its effect.
//!
//! The batching rules, the snapshot-handoff protocol (when readers
//! observe a new version) and the failure-mode state machine
//! (ok → degraded → recovered, drain-on-shutdown) are specified in
//! `DESIGN.md`'s *Concurrency architecture* section (system-inventory
//! rows 19 and 22).
//!
//! [sync-now]: xic_xml::journal::Journal::sync_now

use crate::checker::{
    index_reads, panic_message, Checker, CheckerError, UpdateOutcome, Violation,
};
use crate::gamma::{Baseline, SharedGamma};
use crate::optimized::{Fallback, OptimizedCheck, PatternCache, Verdict};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xic_xml::{serialize, Document, XUpdateDoc};
use xic_xpath::EvalBudget;

/// Default cap on statements drained into one group-commit batch. Large
/// enough that 16 concurrent submitters usually share one fsync, small
/// enough that a slow statement cannot starve later submitters for long.
pub const DEFAULT_MAX_BATCH: usize = 32;

/// Default bound on submissions waiting for the writer (admission
/// control): the 257th concurrent waiter on a default-configured service
/// is shed with [`ServiceError::Overloaded`] rather than queued. Eight
/// default batches deep — enough to ride out a slow batch, small enough
/// that a queued request waits for a bounded number of fsyncs.
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// Default service-level attempts for the shared batch fsync (the first
/// try plus bounded-backoff retries) before the service declares the
/// journal unwritable and degrades.
pub const DEFAULT_FSYNC_ATTEMPTS: u32 = 3;

/// Evaluation steps granted per deadline millisecond when a
/// `deadline_ms` is converted into an [`EvalBudget`]. A *step* is one
/// node visited or binding iterated (see `xic_xpath::budget`); 50k
/// steps/ms is a conservative calibration of the compiled engine on the
/// benchmark machine, so a deadline bounds evaluation work even where
/// wall-clock checks cannot reach (mid-traversal).
pub const DEADLINE_STEPS_PER_MS: u64 = 50_000;

/// How the service executes submitted updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// Deterministic in-thread executor: submitters take a mutex on the
    /// checker and commit one at a time on their own thread, fsync'ing
    /// per commit exactly like a bare [`Checker`]. It is what tests,
    /// difftest and the wire-level benchmark's in-process twins drive.
    Sync,
    /// Group commit: a dedicated writer thread owns the checker, drains
    /// up to `max_batch` queued statements per round, and shares one
    /// fsync across the batch.
    GroupCommit {
        /// Per-batch statement cap (see [`DEFAULT_MAX_BATCH`]).
        max_batch: usize,
    },
}

impl Executor {
    /// The group-commit executor with the default batch cap.
    pub fn group_commit() -> Executor {
        Executor::GroupCommit { max_batch: DEFAULT_MAX_BATCH }
    }
}

/// Full service configuration (the executor plus the resilience knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Sequential or group-commit execution (see [`Executor`]).
    pub executor: Executor,
    /// Bounded-admission depth: submissions beyond this many waiting are
    /// shed with [`ServiceError::Overloaded`]. Clamped to at least 1.
    pub queue_depth: usize,
    /// Deadline applied to requests that do not carry their own:
    /// [`CheckerService::submit`] and, through the protocol, all three
    /// checking verbs — `CHECK` and `DECIDE` on a snapshot as well as
    /// `UPDATE` (`None`: no deadline — requests may wait and evaluate
    /// without bound, the pre-PR9 behavior).
    pub default_deadline_ms: Option<u64>,
    /// Total attempts for the shared batch fsync (first try + retries
    /// with exponential backoff) before the service degrades. Clamped to
    /// at least 1.
    pub fsync_attempts: u32,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            executor: Executor::group_commit(),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            default_deadline_ms: None,
            fsync_attempts: DEFAULT_FSYNC_ATTEMPTS,
        }
    }
}

/// The service's liveness state, reported by [`CheckerService::health`]
/// and the protocol's `HEALTH` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Accepting reads and writes.
    Ok,
    /// Read-only: the journal stayed unwritable through the bounded
    /// fsync retries. CHECK/DECIDE serve the last durably published
    /// snapshot; UPDATE is refused with [`ServiceError::Degraded`] until
    /// [`CheckerService::recover`] succeeds.
    Degraded,
    /// The writer's checker was poisoned by a contained panic
    /// mid-statement: every further UPDATE fails with
    /// [`CheckerError::Poisoned`]. Reads keep serving the last
    /// published snapshot. A poisoned service cannot be re-armed in
    /// place — replace it by recovering the shard from its store
    /// (`ShardSet::recover_shard`).
    Poisoned,
    /// Shutting down: no new submissions, the in-flight queue drains.
    Draining,
}

impl Health {
    /// The lowercase wire word (`ok` / `degraded` / `poisoned` /
    /// `draining`).
    pub fn as_str(self) -> &'static str {
        match self {
            Health::Ok => "ok",
            Health::Degraded => "degraded",
            Health::Poisoned => "poisoned",
            Health::Draining => "draining",
        }
    }
}

/// A service-level failure (wraps per-statement [`CheckerError`]s).
#[derive(Debug, Clone)]
pub enum ServiceError {
    /// The statement itself failed (parse error, poisoned checker, …).
    Checker(CheckerError),
    /// The shared batch fsync failed *after* this statement's record was
    /// appended: the commit may not be durable, so it is not
    /// acknowledged. The service transitions to degraded mode.
    SyncFailed(String),
    /// Admission control shed this submission: `queue_depth` requests
    /// were already waiting. Retry with backoff.
    Overloaded {
        /// The configured queue depth that was reached.
        depth: usize,
    },
    /// The request's deadline elapsed — in the queue, waiting for the
    /// ack, or mid-evaluation (its [`EvalBudget`] ran out). For an
    /// UPDATE that timed out *waiting for the ack* the verdict is
    /// unknown: the statement may still commit after the caller gave up.
    Timeout {
        /// The deadline that was exceeded, in milliseconds.
        ms: u64,
    },
    /// The service is in read-only degraded mode (the journal stayed
    /// unwritable); UPDATE is refused until [`CheckerService::recover`].
    Degraded,
    /// The service is draining for shutdown: the in-flight queue still
    /// gets its verdicts, but no new submissions are admitted. Distinct
    /// from [`ServiceError::Stopped`] so clients can tell an orderly
    /// drain (reads still answer) from a writer that is simply gone.
    Draining,
    /// The writer thread is gone (the service was shut down).
    Stopped,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Checker(e) => write!(f, "{e}"),
            ServiceError::SyncFailed(m) => {
                write!(f, "group-commit fsync failed (commit not acknowledged): {m}")
            }
            ServiceError::Overloaded { depth } => {
                write!(f, "overloaded: {depth} submissions already queued; retry with backoff")
            }
            ServiceError::Timeout { ms } => {
                write!(f, "timeout: deadline of {ms} ms exceeded")
            }
            ServiceError::Degraded => f.write_str(
                "degraded: journal unwritable, service is read-only until recovery",
            ),
            ServiceError::Draining => f.write_str(
                "draining: service is shutting down, no new submissions",
            ),
            ServiceError::Stopped => f.write_str("service stopped"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Checker(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckerError> for ServiceError {
    fn from(e: CheckerError) -> ServiceError {
        ServiceError::Checker(e)
    }
}

/// A successfully decided submission: the verdict plus the document
/// version (committed-statement count) the submitter's statement left
/// the service at. For a rejected statement this is the version whose
/// state rejected it.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// Applied or rejected, and under which strategy.
    pub outcome: UpdateOutcome,
    /// Committed-statement count after this statement was decided.
    pub version: u64,
}

/// Point-in-time values of the service's resilience counters (also
/// exported process-wide through `xic_obs`; these are the per-service
/// atomics behind the protocol's `STATS` reply).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submissions shed by bounded admission.
    pub requests_shed: u64,
    /// Requests that exceeded their deadline.
    pub requests_timed_out: u64,
    /// Transitions into degraded mode since the service started.
    pub service_degraded: u64,
    /// Service-level batch-fsync retries.
    pub fsync_retries: u64,
    /// Planned joins and keyed steps answered from a document's value
    /// index ([`crate::Stats::index_probes`]): the snapshot reads', plus
    /// the writer's as of the last publish.
    pub index_probes: u64,
    /// Value indexes those probes built ([`crate::Stats::index_builds`]);
    /// it keeps growing when readers ask a shape the writer never does,
    /// built again on every published snapshot.
    pub index_builds: u64,
    /// [`ReadSnapshot::decide`] calls answered by the optimized
    /// pre-update check.
    pub decides_optimized: u64,
    /// … that fell back to [`ReadSnapshot::decide_full`] because the
    /// statement is not a pure insertion.
    pub decides_fallback_non_insertion: u64,
    /// … because the statement's target could not be mapped to an update
    /// pattern in the snapshot's state.
    pub decides_fallback_unmappable: u64,
    /// … because the statement's pattern has no incremental check.
    pub decides_fallback_non_incremental: u64,
    /// … because the insert shifts existing siblings whose position a
    /// constraint reads.
    pub decides_fallback_pos_shift: u64,
}

#[derive(Default)]
struct StatsCells {
    shed: AtomicU64,
    degraded_transitions: AtomicU64,
    fsync_retries: AtomicU64,
}

/// How [`ReadSnapshot::decide`] answered, counted where it happens: the
/// snapshots of one service share these through their [`CheckSet`].
#[derive(Default)]
struct DecideCells {
    /// Index probes and builds of the snapshot reads, and (stored at each
    /// publish) of the writer's checker.
    index_reads: [AtomicU64; 2],
    writer_index_reads: [AtomicU64; 2],
    optimized: AtomicU64,
    fallback_non_insertion: AtomicU64,
    fallback_unmappable: AtomicU64,
    fallback_non_incremental: AtomicU64,
    fallback_pos_shift: AtomicU64,
}

/// Converts a deadline's remaining milliseconds into an [`EvalBudget`]
/// (see [`DEADLINE_STEPS_PER_MS`]). A zero remainder yields a zero-step
/// budget, which exhausts on the first charge.
pub fn deadline_budget(remaining_ms: u64) -> EvalBudget {
    EvalBudget::new(remaining_ms.saturating_mul(DEADLINE_STEPS_PER_MS))
}

/// The check inputs, shared immutably by every snapshot the service
/// publishes: the checker's [`SharedGamma`] (denials, query texts,
/// compiled programs, footprints) and the [`PatternCache`] the writer's
/// checker compiles into and looks up from. The gamma `Arc` (and, in a
/// `ShardSet`, the cache) is the same compiled set shared across every
/// shard — publishing a snapshot never re-compiles anything.
struct CheckSet {
    gamma: Arc<SharedGamma>,
    patterns: Arc<PatternCache>,
    /// Whether the writer's checker ran the static independence analysis
    /// at service start; snapshot decisions follow the same setting.
    independence: bool,
    decides: DecideCells,
    /// Requests that exceeded their deadline, on the write path or on a
    /// snapshot: counted where it happens, like `decides`.
    timed_out: AtomicU64,
}

impl CheckSet {
    /// Captures `checker`'s check inputs: readers and the writer share its
    /// Γ and its pattern store.
    fn from_checker(checker: &Checker) -> CheckSet {
        CheckSet {
            gamma: Arc::clone(checker.shared_gamma()),
            patterns: Arc::clone(checker.pattern_cache()),
            independence: checker.independence(),
            decides: DecideCells::default(),
            timed_out: AtomicU64::new(0),
        }
    }

    fn note_timeout(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
        xic_obs::incr(xic_obs::Counter::RequestTimedOut);
    }

    /// The baseline evaluator over the writer's Γ and settings.
    fn baseline(&self) -> Baseline<'_> {
        Baseline { gamma: &self.gamma, independence: self.independence }
    }

    /// Runs a snapshot read, counting its index probes and builds.
    fn read<T>(&self, f: impl FnOnce() -> T) -> T {
        let (value, reads) = index_reads(f);
        for (cell, n) in self.decides.index_reads.iter().zip(reads) {
            cell.fetch_add(n, Ordering::Relaxed);
        }
        value
    }
}

/// An immutable, versioned view of the document, served to concurrent
/// readers while the writer keeps committing. Snapshots are published
/// once per committed batch (not per statement); a reader holding one
/// keeps it valid forever — later publishes swap the service's slot,
/// they never mutate snapshots already handed out.
pub struct ReadSnapshot {
    doc: Document,
    version: u64,
    checks: Arc<CheckSet>,
}

impl ReadSnapshot {
    /// The committed-statement count this snapshot reflects.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The snapshotted document.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// Serializes the snapshotted document.
    pub fn serialize(&self) -> String {
        serialize(&self.doc)
    }

    /// Runs the full constraint check against the snapshot, returning
    /// the first violation (in constraint order), if any. Exactly
    /// [`Checker::check_full`]'s verdict, but against the snapshot — safe
    /// to call from any number of threads while the writer commits.
    pub fn check_full(&self) -> Result<Option<Violation>, CheckerError> {
        self.checks.read(|| self.checks.baseline().run(&self.doc, None))
    }

    /// [`ReadSnapshot::check_full`] bounded by `deadline_ms`: the
    /// deadline's step budget is armed around the evaluation, and
    /// exhaustion is reported as [`ServiceError::Timeout`] instead of
    /// letting a pathological constraint/document pair hang the reader.
    pub fn check_full_deadline(
        &self,
        deadline_ms: u64,
    ) -> Result<Option<Violation>, ServiceError> {
        let _budget = xic_xpath::budget::arm(deadline_budget(deadline_ms));
        self.check_full().map_err(|e| self.timeout_or(e, deadline_ms))
    }

    /// Decides — without committing — whether `stmt` would be legal in
    /// this snapshot's state, exactly as the writer would at this
    /// version: the optimized pre-update check first ([`crate::optimized`]
    /// — evaluated on the calling thread against the immutable snapshot,
    /// with no copy of the document and nothing applied), the baseline
    /// [`ReadSnapshot::decide_full`] only for what
    /// [`Checker::try_update`] also sends down the baseline: a
    /// non-insertion statement, a target that does not map to an update
    /// pattern here, a pattern without an incremental check, a non-tail
    /// insert shifting siblings whose position Γ reads. A pattern
    /// no one has seen yet is compiled here and published to the cache
    /// the writer shares (first publisher wins; the writer adopts the
    /// entry on its next local miss).
    ///
    /// The answer is the one `UPDATE` would give at this version —
    /// same verdict, same violated denial, same error for a statement
    /// that does not apply — minus the commit. A budget armed by the
    /// caller that runs out is reported as
    /// [`CheckerError::BudgetExhausted`], never retried on the costlier
    /// path.
    ///
    /// Note the decision is against **this snapshot's version**; a
    /// commit racing past it can invalidate the answer, exactly as with
    /// any read-your-writes-free read replica.
    pub fn decide(&self, stmt: &XUpdateDoc) -> Result<Option<Violation>, CheckerError> {
        let checks = &*self.checks;
        let check = OptimizedCheck {
            doc: &self.doc,
            gamma: &checks.gamma,
            independence: checks.independence,
        };
        let decides = &checks.decides;
        let optimized = |verdict| {
            decides.optimized.fetch_add(1, Ordering::Relaxed);
            Ok(verdict)
        };
        match checks.read(|| check.decide(stmt, &checks.patterns)).0? {
            Verdict::Legal => optimized(None),
            Verdict::Violated(violation) => optimized(Some(violation)),
            Verdict::NotIncremental(fallback) => {
                match fallback {
                    Fallback::NonInsertion => &decides.fallback_non_insertion,
                    Fallback::Unmappable(_) => &decides.fallback_unmappable,
                    Fallback::NonIncremental { .. } => &decides.fallback_non_incremental,
                    Fallback::PosShift { .. } => &decides.fallback_pos_shift,
                }
                .fetch_add(1, Ordering::Relaxed);
                self.decide_full(stmt)
            }
        }
    }

    /// [`ReadSnapshot::decide`] bounded by `deadline_ms` (see
    /// [`ReadSnapshot::check_full_deadline`]).
    pub fn decide_deadline(
        &self,
        stmt: &XUpdateDoc,
        deadline_ms: u64,
    ) -> Result<Option<Violation>, ServiceError> {
        let _budget = xic_xpath::budget::arm(deadline_budget(deadline_ms));
        self.decide(stmt).map_err(|e| self.timeout_or(e, deadline_ms))
    }

    /// The baseline decision: applies `stmt` to a private copy of the
    /// snapshot document, full-checks the result, and discards the copy
    /// — [`Checker::decide_only`] under
    /// [`crate::Strategy::FullWithRollback`], for concurrent readers.
    /// [`ReadSnapshot::decide`] falls back to this; it costs a deep
    /// clone of the document plus an evaluation of the constraints the
    /// delta applied to the copy can reach (all of Γ with the
    /// independence analysis off) — the writer's mask, from the same
    /// code.
    ///
    /// Like every snapshot read, the decision is against **this
    /// snapshot's version**.
    pub fn decide_full(&self, stmt: &XUpdateDoc) -> Result<Option<Violation>, CheckerError> {
        let mut doc = self.doc.clone();
        self.checks.read(|| self.checks.baseline().decide_by_rollback(&mut doc, stmt))
    }

    /// Maps a deadline-budget exhaustion to [`ServiceError::Timeout`],
    /// counting it into the service's `requests_timed_out`; any other
    /// checker error passes through.
    fn timeout_or(&self, e: CheckerError, deadline_ms: u64) -> ServiceError {
        if matches!(e, CheckerError::BudgetExhausted) {
            self.checks.note_timeout();
            ServiceError::Timeout { ms: deadline_ms }
        } else {
            ServiceError::Checker(e)
        }
    }
}

/// A request's deadline: the wall-clock expiry plus the originally
/// requested budget (for error reporting).
#[derive(Debug, Clone, Copy)]
struct Deadline {
    expires: Instant,
    ms: u64,
}

impl Deadline {
    fn new(ms: u64) -> Deadline {
        Deadline { expires: Instant::now() + Duration::from_millis(ms), ms }
    }

    /// Whole milliseconds left before expiry (0 once expired).
    fn remaining_ms(&self, now: Instant) -> u64 {
        self.expires.saturating_duration_since(now).as_millis() as u64
    }
}

/// One queued submission awaiting the writer thread.
struct UpdateReq {
    stmt: String,
    deadline: Option<Deadline>,
    reply: mpsc::SyncSender<Result<SubmitOutcome, ServiceError>>,
}

/// Queue messages for the writer thread: submissions, plus the
/// control-plane recovery request (which bypasses admission).
enum Request {
    Update(UpdateReq),
    Recover(mpsc::SyncSender<Result<(), ServiceError>>),
}

enum Inner {
    // The checker is boxed so the enum isn't sized by it; the Option is
    // taken by `shutdown`, which therefore needs no exclusive ownership
    // of the service (live reader handles stay valid).
    Sync(Mutex<Option<Box<Checker>>>),
    Group {
        tx: Mutex<Option<mpsc::Sender<Request>>>,
        handle: Mutex<Option<JoinHandle<Checker>>>,
    },
}

/// The concurrent checker service (DESIGN.md rows 19 and 22): one
/// logical writer, any number of snapshot readers, bounded admission,
/// per-request deadlines, and a read-only degraded mode instead of
/// permanent breakage when the journal stops accepting the batch fsync.
///
/// Constructed over a fully-configured [`Checker`] (attach the journal
/// or store, set policies and budgets *first* — the service takes
/// ownership and, under [`Executor::GroupCommit`], hands the checker to
/// its writer thread). [`CheckerService::shutdown`] stops admission,
/// drains the queue, and gives the checker back.
pub struct CheckerService {
    snapshot: RwLock<Arc<ReadSnapshot>>,
    checks: Arc<CheckSet>,
    config: ServiceConfig,
    /// Read-only mode: the batch fsync stayed failed after its bounded
    /// retries. Cleared by [`CheckerService::recover`].
    degraded: AtomicBool,
    /// The writer's checker took a contained panic mid-statement and
    /// refuses all further mutations. Sticky: only replacing the
    /// service (shard-level recovery) clears it.
    poisoned: AtomicBool,
    /// Set by [`CheckerService::shutdown`]: no new submissions.
    draining: AtomicBool,
    /// Submissions admitted but not yet picked up by the writer (group
    /// mode) / in flight (sync mode); the admission bound.
    queued: AtomicUsize,
    stats: StatsCells,
    inner: Inner,
}

impl CheckerService {
    /// Starts a service over `checker` with the given executor and
    /// default resilience knobs (see [`ServiceConfig`]).
    pub fn new(checker: Checker, executor: Executor) -> Arc<CheckerService> {
        CheckerService::with_config(checker, ServiceConfig { executor, ..Default::default() })
    }

    /// Starts a service over `checker` with the full configuration.
    pub fn with_config(checker: Checker, config: ServiceConfig) -> Arc<CheckerService> {
        let config = ServiceConfig {
            queue_depth: config.queue_depth.max(1),
            fsync_attempts: config.fsync_attempts.max(1),
            ..config
        };
        let checks = Arc::new(CheckSet::from_checker(&checker));
        let initial = Arc::new(ReadSnapshot {
            doc: checker.doc().clone(),
            version: checker.committed(),
            checks: checks.clone(),
        });
        // The service is created inside an `Arc` because the writer
        // thread and every client share it.
        Arc::new_cyclic(|weak: &std::sync::Weak<CheckerService>| {
            let inner = match config.executor {
                Executor::Sync => Inner::Sync(Mutex::new(Some(Box::new(checker)))),
                Executor::GroupCommit { max_batch } => {
                    let (tx, rx) = mpsc::channel::<Request>();
                    let weak = weak.clone();
                    let fsync_attempts = config.fsync_attempts;
                    let max_batch = max_batch.max(1);
                    let handle = std::thread::Builder::new()
                        .name("xic-service-writer".to_string())
                        .spawn(move || writer_loop(checker, rx, weak, max_batch, fsync_attempts))
                        .expect("spawn service writer thread");
                    Inner::Group {
                        tx: Mutex::new(Some(tx)),
                        handle: Mutex::new(Some(handle)),
                    }
                }
            };
            CheckerService {
                snapshot: RwLock::new(initial),
                checks,
                config,
                degraded: AtomicBool::new(false),
                poisoned: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                queued: AtomicUsize::new(0),
                stats: StatsCells::default(),
                inner,
            }
        })
    }

    /// The executor this service was started with.
    pub fn executor(&self) -> Executor {
        self.config.executor
    }

    /// The full configuration this service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The service's liveness state (the protocol's `HEALTH` verb).
    pub fn health(&self) -> Health {
        if self.draining.load(Ordering::Acquire) {
            Health::Draining
        } else if self.poisoned.load(Ordering::Acquire) {
            Health::Poisoned
        } else if self.degraded.load(Ordering::Acquire) {
            Health::Degraded
        } else {
            Health::Ok
        }
    }

    /// Point-in-time resilience and decision counters (the protocol's
    /// `STATS` reply).
    pub fn stats(&self) -> ServiceStats {
        let decides = &self.checks.decides;
        let reads = |i: usize| {
            decides.index_reads[i].load(Ordering::Relaxed)
                + decides.writer_index_reads[i].load(Ordering::Relaxed)
        };
        ServiceStats {
            requests_shed: self.stats.shed.load(Ordering::Relaxed),
            requests_timed_out: self.checks.timed_out.load(Ordering::Relaxed),
            service_degraded: self.stats.degraded_transitions.load(Ordering::Relaxed),
            fsync_retries: self.stats.fsync_retries.load(Ordering::Relaxed),
            index_probes: reads(0),
            index_builds: reads(1),
            decides_optimized: decides.optimized.load(Ordering::Relaxed),
            decides_fallback_non_insertion: decides.fallback_non_insertion.load(Ordering::Relaxed),
            decides_fallback_unmappable: decides.fallback_unmappable.load(Ordering::Relaxed),
            decides_fallback_non_incremental: decides
                .fallback_non_incremental
                .load(Ordering::Relaxed),
            decides_fallback_pos_shift: decides.fallback_pos_shift.load(Ordering::Relaxed),
        }
    }

    /// The current read snapshot (an `Arc` clone; never blocks on
    /// writer I/O — the writer swaps the slot only after its batch is
    /// durable, holding the write lock just for the pointer swap).
    pub fn snapshot(&self) -> Arc<ReadSnapshot> {
        xic_obs::incr(xic_obs::Counter::SnapshotRead);
        self.snapshot.read().expect("snapshot slot poisoned").clone()
    }

    /// The committed version the current snapshot reflects.
    pub fn version(&self) -> u64 {
        self.snapshot.read().expect("snapshot slot poisoned").version
    }

    /// Submits one XUpdate statement for checked execution, blocking
    /// until its verdict is durable (group mode: until the shared batch
    /// fsync). Concurrent callers are safe; ordering between them is
    /// the writer's arrival order. Applies the configured
    /// [`ServiceConfig::default_deadline_ms`], if any.
    pub fn submit(&self, stmt: &str) -> Result<SubmitOutcome, ServiceError> {
        self.submit_with(stmt, self.config.default_deadline_ms)
    }

    /// [`CheckerService::submit`] with an explicit deadline (overriding
    /// the configured default; `None` waits without bound). The deadline
    /// bounds queue wait and evaluation; an expired request fails with
    /// [`ServiceError::Timeout`]. A timeout *while waiting for the ack*
    /// leaves the verdict unknown — the statement may still commit.
    pub fn submit_with(
        &self,
        stmt: &str,
        deadline_ms: Option<u64>,
    ) -> Result<SubmitOutcome, ServiceError> {
        if self.draining.load(Ordering::Acquire) {
            return Err(ServiceError::Draining);
        }
        if self.degraded.load(Ordering::Acquire) {
            return Err(ServiceError::Degraded);
        }
        let deadline = deadline_ms.map(Deadline::new);
        // Bounded admission: shed before queueing, not after.
        if self.queued.fetch_add(1, Ordering::AcqRel) >= self.config.queue_depth {
            self.queued.fetch_sub(1, Ordering::AcqRel);
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            xic_obs::incr(xic_obs::Counter::RequestShed);
            return Err(ServiceError::Overloaded { depth: self.config.queue_depth });
        }
        match &self.inner {
            Inner::Sync(slot) => {
                // The counter bounds concurrent submitters (queue wait =
                // mutex wait under the sequential executor).
                let result = self.submit_sync(slot, stmt, deadline);
                self.queued.fetch_sub(1, Ordering::AcqRel);
                result
            }
            Inner::Group { tx, .. } => {
                let sender = match tx.lock().expect("submit queue poisoned").as_ref() {
                    Some(sender) => sender.clone(),
                    None => {
                        self.queued.fetch_sub(1, Ordering::AcqRel);
                        return Err(ServiceError::Stopped);
                    }
                };
                let (reply_tx, reply_rx) = mpsc::sync_channel(1);
                let req =
                    UpdateReq { stmt: stmt.to_string(), deadline, reply: reply_tx };
                if sender.send(Request::Update(req)).is_err() {
                    self.queued.fetch_sub(1, Ordering::AcqRel);
                    return Err(ServiceError::Stopped);
                }
                // The writer decrements `queued` when it dequeues.
                match deadline {
                    None => reply_rx.recv().map_err(|_| ServiceError::Stopped)?,
                    Some(d) => {
                        let wait = d.expires.saturating_duration_since(Instant::now());
                        match reply_rx.recv_timeout(wait) {
                            Ok(result) => result,
                            Err(mpsc::RecvTimeoutError::Timeout) => {
                                self.checks.note_timeout();
                                Err(ServiceError::Timeout { ms: d.ms })
                            }
                            Err(mpsc::RecvTimeoutError::Disconnected) => {
                                Err(ServiceError::Stopped)
                            }
                        }
                    }
                }
            }
        }
    }

    /// The sequential-executor submit path: mutex, optional deadline
    /// budget, per-commit fsync inside the checker.
    fn submit_sync(
        &self,
        slot: &Mutex<Option<Box<Checker>>>,
        stmt: &str,
        deadline: Option<Deadline>,
    ) -> Result<SubmitOutcome, ServiceError> {
        let mut guard = slot.lock().expect("sync-executor checker poisoned");
        let checker = guard.as_mut().ok_or(ServiceError::Stopped)?;
        let budget = match deadline {
            None => None,
            Some(d) => {
                let left = d.remaining_ms(Instant::now());
                if left == 0 {
                    self.checks.note_timeout();
                    return Err(ServiceError::Timeout { ms: d.ms });
                }
                Some((deadline_budget(left), d.ms))
            }
        };
        let _armed = budget.map(|(b, _)| xic_xpath::budget::arm(b));
        let attempted = checker.try_update_str(stmt);
        if checker.poisoned() {
            self.note_poisoned();
        }
        let outcome = attempted.map_err(|e| match (e, budget) {
            (CheckerError::BudgetExhausted, Some((_, ms))) => {
                self.checks.note_timeout();
                ServiceError::Timeout { ms }
            }
            (e, _) => ServiceError::Checker(e),
        })?;
        let result = SubmitOutcome { version: checker.committed(), outcome };
        if result.outcome.applied() {
            self.publish(checker);
        }
        Ok(result)
    }

    /// Re-arms a degraded service: flushes the journal (group mode: on
    /// the writer thread, behind any in-flight batch), republishes the
    /// writer state, and leaves degraded mode. A no-op flush on a
    /// healthy service. Fails with the flush error if the journal is
    /// still unwritable (the service stays degraded), or with
    /// [`ServiceError::Stopped`] after shutdown.
    pub fn recover(&self) -> Result<(), ServiceError> {
        match &self.inner {
            Inner::Sync(slot) => {
                let mut guard = slot.lock().expect("sync-executor checker poisoned");
                let checker = guard.as_mut().ok_or(ServiceError::Stopped)?;
                checker
                    .sync_journal()
                    .map_err(|e| ServiceError::SyncFailed(e.to_string()))?;
                self.publish(checker);
                self.degraded.store(false, Ordering::Release);
                Ok(())
            }
            Inner::Group { tx, .. } => {
                let sender = tx
                    .lock()
                    .expect("submit queue poisoned")
                    .as_ref()
                    .cloned()
                    .ok_or(ServiceError::Stopped)?;
                let (reply_tx, reply_rx) = mpsc::sync_channel(1);
                sender
                    .send(Request::Recover(reply_tx))
                    .map_err(|_| ServiceError::Stopped)?;
                reply_rx.recv().map_err(|_| ServiceError::Stopped)?
            }
        }
    }

    /// Publishes the checker's current state as the new read snapshot.
    fn publish(&self, checker: &Checker) {
        let snap = Arc::new(ReadSnapshot {
            doc: checker.doc().clone(),
            version: checker.committed(),
            checks: self.checks.clone(),
        });
        *self.snapshot.write().expect("snapshot slot poisoned") = snap;
        let stats = checker.stats();
        let writer = &self.checks.decides.writer_index_reads;
        writer[0].store(stats.index_probes, Ordering::Relaxed);
        writer[1].store(stats.index_builds, Ordering::Relaxed);
        xic_obs::incr(xic_obs::Counter::SnapshotPublish);
    }

    /// Enters read-only degraded mode (the batch fsync stayed failed).
    fn enter_degraded(&self) {
        if !self.degraded.swap(true, Ordering::AcqRel) {
            self.stats.degraded_transitions.fetch_add(1, Ordering::Relaxed);
            xic_obs::incr(xic_obs::Counter::ServiceDegraded);
        }
    }

    /// Records that the writer's checker is poisoned (sticky; see
    /// [`Health::Poisoned`]).
    fn note_poisoned(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn note_fsync_retries(&self, n: u32) {
        if n > 0 {
            self.stats.fsync_retries.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Stops the service and returns the checker: admission closes
    /// ([`ServiceError::Draining`] for new submissions), the queue
    /// drains — every queued submission still gets its durable verdict
    /// (or its degraded/timeout refusal) — and the writer thread joins.
    /// Safe with any number of live service or snapshot handles; a
    /// second call returns [`ServiceError::Stopped`].
    pub fn shutdown(&self) -> Result<Checker, ServiceError> {
        self.draining.store(true, Ordering::Release);
        match &self.inner {
            Inner::Sync(slot) => slot
                .lock()
                .expect("sync-executor checker poisoned")
                .take()
                .map(|boxed| *boxed)
                .ok_or(ServiceError::Stopped),
            Inner::Group { tx, handle } => {
                // Closing the queue lets the writer loop drain and exit.
                drop(tx.lock().expect("submit queue poisoned").take());
                let handle = handle
                    .lock()
                    .expect("writer handle poisoned")
                    .take()
                    .ok_or(ServiceError::Stopped)?;
                // The writer contains batch panics, so a join error is
                // unreachable short of a bug in the loop itself.
                handle.join().map_err(|_| ServiceError::Stopped)
            }
        }
    }
}

/// The writer loop: drain a batch, apply it via
/// [`apply_batch_resilient`], publish one snapshot, acknowledge every
/// submitter. A failed batch fsync (after its bounded retries) flips
/// the service into degraded mode but keeps the loop alive, so queued
/// submitters get answers and [`CheckerService::recover`] has a writer
/// to talk to.
fn writer_loop(
    mut checker: Checker,
    rx: mpsc::Receiver<Request>,
    service: std::sync::Weak<CheckerService>,
    max_batch: usize,
    fsync_attempts: u32,
) -> Checker {
    let note_dequeued = |n: usize| {
        if n > 0 {
            if let Some(service) = service.upgrade() {
                service.queued.fetch_sub(n, Ordering::AcqRel);
            }
        }
    };
    loop {
        let first = match rx.recv() {
            Ok(request) => request,
            Err(_) => break, // queue closed and drained: shutdown
        };
        let mut batch: Vec<UpdateReq> = Vec::new();
        let mut controls: Vec<mpsc::SyncSender<Result<(), ServiceError>>> = Vec::new();
        match first {
            Request::Update(req) => {
                note_dequeued(1);
                batch.push(req);
            }
            Request::Recover(reply) => controls.push(reply),
        }
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(Request::Update(req)) => {
                    note_dequeued(1);
                    batch.push(req);
                }
                // A recovery request acts as a batch boundary: it must
                // observe the flush outcome of everything before it.
                Ok(Request::Recover(reply)) => {
                    controls.push(reply);
                    break;
                }
                Err(_) => break,
            }
        }
        if !batch.is_empty() {
            let degraded =
                service.upgrade().is_some_and(|s| s.degraded.load(Ordering::Acquire));
            if degraded {
                // Read-only: refuse without touching the checker, so the
                // in-memory state stays at the last (unflushed) batch.
                for req in batch {
                    let _ = req.reply.send(Err(ServiceError::Degraded));
                }
            } else {
                run_batch(&mut checker, batch, &service, fsync_attempts);
            }
        }
        for reply in controls {
            let _ = reply.send(writer_recover(&mut checker, &service));
        }
    }
    checker
}

/// Executes one admitted batch on the writer thread: expire overdue
/// requests, run the resilient batch path, publish on success or
/// degrade on a failed flush, acknowledge every submitter.
fn run_batch(
    checker: &mut Checker,
    batch: Vec<UpdateReq>,
    service: &std::sync::Weak<CheckerService>,
    fsync_attempts: u32,
) {
    let now = Instant::now();
    let mut live: Vec<UpdateReq> = Vec::with_capacity(batch.len());
    for req in batch {
        match req.deadline {
            Some(d) if d.remaining_ms(now) == 0 => {
                if let Some(service) = service.upgrade() {
                    service.checks.note_timeout();
                }
                let _ = req.reply.send(Err(ServiceError::Timeout { ms: d.ms }));
            }
            _ => live.push(req),
        }
    }
    if live.is_empty() {
        return;
    }
    let items: Vec<BatchStmt> = live
        .iter()
        .map(|req| BatchStmt {
            stmt: &req.stmt,
            budget: req.deadline.map(|d| deadline_budget(d.remaining_ms(now))),
        })
        .collect();
    let before = checker.committed();
    let outcome = apply_batch_resilient(checker, &items, fsync_attempts);
    if let Some(service) = service.upgrade() {
        service.note_fsync_retries(outcome.fsync_retries);
        if checker.poisoned() {
            service.note_poisoned();
        }
        match &outcome.disposition {
            BatchDisposition::Committed => {
                if checker.committed() != before {
                    service.publish(checker);
                }
            }
            // The batch's commits are not durable: readers keep the last
            // published (durable) snapshot, the service goes read-only.
            BatchDisposition::SyncFailed(_) => service.enter_degraded(),
        }
    }
    // Acknowledge only now: every commit in the batch is durable (or
    // reported as SyncFailed/Timeout). A submitter that gave up waiting
    // closed its reply channel; that is its loss, not an error here.
    for (req, result) in live.into_iter().zip(outcome.results) {
        let result = match (result, req.deadline) {
            // An exhausted deadline budget surfaces as a timeout, not a
            // bare budget error.
            (Err(ServiceError::Checker(CheckerError::BudgetExhausted)), Some(d)) => {
                if let Some(service) = service.upgrade() {
                    service.checks.note_timeout();
                }
                Err(ServiceError::Timeout { ms: d.ms })
            }
            (result, _) => result,
        };
        let _ = req.reply.send(result);
    }
}

/// The writer-side recovery step: flush the journal; on success,
/// republish the writer state (now durable) and leave degraded mode.
fn writer_recover(
    checker: &mut Checker,
    service: &std::sync::Weak<CheckerService>,
) -> Result<(), ServiceError> {
    checker
        .sync_journal()
        .map_err(|e| ServiceError::SyncFailed(e.to_string()))?;
    if let Some(service) = service.upgrade() {
        service.publish(checker);
        service.degraded.store(false, Ordering::Release);
    }
    Ok(())
}

/// One statement of a resilient batch: the text plus an optional
/// evaluation budget (a deadline's remaining allowance) armed around
/// its check.
pub struct BatchStmt<'a> {
    /// The XUpdate statement.
    pub stmt: &'a str,
    /// Armed around this statement's evaluation; exhaustion surfaces as
    /// [`CheckerError::BudgetExhausted`] in the statement's result.
    pub budget: Option<EvalBudget>,
}

/// Terminal state of one batch through [`apply_batch_resilient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchDisposition {
    /// The shared fsync succeeded: every `Applied` outcome is durable
    /// and acknowledged.
    Committed,
    /// The shared fsync failed every attempt (the message is the last
    /// failure): applied outcomes were downgraded to
    /// [`ServiceError::SyncFailed`] and the service should degrade.
    SyncFailed(String),
}

/// What [`apply_batch_resilient`] returns: per-statement results, the
/// batch's terminal disposition, and how many service-level fsync
/// retries it spent.
pub struct BatchOutcome {
    /// Per-statement results, in submission order.
    pub results: Vec<Result<SubmitOutcome, ServiceError>>,
    /// Whether the shared fsync eventually succeeded.
    pub disposition: BatchDisposition,
    /// Service-level fsync retries spent (0 when the first try
    /// succeeded).
    pub fsync_retries: u32,
}

/// Applies one group-commit batch to `checker`: every statement is
/// checked and (when legal) applied with its journal record appended
/// *unsynced*, then one shared fsync makes the whole batch durable.
///
/// Per-statement outcomes are independent — a rejected or failed
/// statement appends no commit record and cannot poison its
/// batch-mates (a contained panic *does* poison the checker, so
/// statements after it in the batch fail with
/// [`CheckerError::Poisoned`]; their submitters are told so
/// individually). If the shared fsync fails, every `Applied` outcome
/// in the batch is downgraded to [`ServiceError::SyncFailed`], because
/// its record may not have reached stable storage.
///
/// This is a free function (not a writer-thread-only method) so the
/// crash and chaos oracles in `xic-difftest` can drive the exact
/// production batch path under thread-scoped fault injection.
pub fn apply_batch(
    checker: &mut Checker,
    stmts: &[&str],
) -> Vec<Result<SubmitOutcome, ServiceError>> {
    let items: Vec<BatchStmt> =
        stmts.iter().map(|stmt| BatchStmt { stmt, budget: None }).collect();
    apply_batch_resilient(checker, &items, 1).results
}

/// [`apply_batch`] with the service's resilience semantics: optional
/// per-statement deadline budgets, and the shared fsync attempted up to
/// `fsync_attempts` times (exponential backoff between attempts, capped
/// at 16 ms; a panic during the flush is contained and counts as a
/// failed attempt). This *is* the production write path — the writer
/// thread calls it for every batch — so the difftest chaos pass drives
/// it directly under fault injection.
pub fn apply_batch_resilient(
    checker: &mut Checker,
    items: &[BatchStmt],
    fsync_attempts: u32,
) -> BatchOutcome {
    // The whole batch appends unsynced — a segment rotated in by an
    // automatic checkpoint mid-batch included — and is flushed once below.
    let mut results = checker.with_deferred_sync(|checker| {
        items
            .iter()
            .map(|item| {
                xic_obs::incr(xic_obs::Counter::GroupCommitStatement);
                let _budget = item.budget.map(xic_xpath::budget::arm);
                checker
                    .try_update_str(item.stmt)
                    .map(|outcome| SubmitOutcome { version: checker.committed(), outcome })
                    .map_err(ServiceError::Checker)
            })
            .collect::<Vec<_>>()
    });
    xic_obs::incr(xic_obs::Counter::GroupCommitBatch);
    let attempts = fsync_attempts.max(1);
    let mut retries = 0u32;
    let mut flush: Result<(), String> = Ok(());
    for attempt in 1..=attempts {
        flush = match catch_unwind(AssertUnwindSafe(|| checker.sync_journal())) {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(e.to_string()),
            Err(payload) => {
                Err(format!("panic during batch fsync: {}", panic_message(payload.as_ref())))
            }
        };
        if flush.is_ok() {
            break;
        }
        if attempt < attempts {
            retries += 1;
            xic_obs::incr(xic_obs::Counter::FsyncRetry);
            // 1, 2, 4, 8, 16 ms — bounded, so a drained shutdown with a
            // dead disk still terminates promptly.
            std::thread::sleep(Duration::from_millis(1 << (attempt - 1).min(4)));
        }
    }
    match flush {
        Ok(()) => BatchOutcome {
            results,
            disposition: BatchDisposition::Committed,
            fsync_retries: retries,
        },
        Err(msg) => {
            for result in results.iter_mut() {
                if matches!(result, Ok(out) if out.outcome.applied()) {
                    *result = Err(ServiceError::SyncFailed(msg.clone()));
                }
            }
            BatchOutcome {
                results,
                disposition: BatchDisposition::SyncFailed(msg),
                fsync_retries: retries,
            }
        }
    }
}
