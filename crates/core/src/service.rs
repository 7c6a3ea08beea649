//! Concurrent checker service: snapshot reads, group-commit writes,
//! bounded admission, per-request deadlines, degraded-mode survival.
//!
//! The [`Checker`] façade is single-threaded by construction — every
//! mutating entry point takes `&mut self` and, with a journal attached,
//! flushes once per committed statement (0.2–0.5 ms per fsync on the
//! benchmark machine, `journal.sync_us` in the wire-level suite), a hard
//! ~2–5k updates/s ceiling. This module turns it into a service:
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
//!   round-trip — through the pattern store of the Γ the writer checks
//!   with; the baseline ([`ReadSnapshot::decide_full`]: copy,
//!   apply, check all of Γ) only decides what the writer also sends
//!   down the baseline.
//! * **Submitters group-commit their own batches.** The `Checker` sits
//!   behind one *commit lock*, and there is no writer thread. A submitter
//!   queues its parsed statement; if no batch is running it becomes the
//!   *leader*: it takes the commit lock, drains the queue into a batch
//!   ([`apply_batch`]) whose journal records are appended *unsynced* and
//!   made durable with **one shared fsync**
//!   ([`Journal::sync_now`][sync-now], the one durability point) before
//!   any submitter is acknowledged, then hands the lead to the first
//!   submitter still queued. Everyone else waits for its answer, so an
//!   uncontended `UPDATE` runs start to finish on its own thread, while
//!   statements that arrive during a batch's fsync share the next one. A
//!   rejected statement appends no record and cannot poison its
//!   batch-mates.
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
//!   statement/constraint pair times out instead of hanging. A waiting
//!   submitter answers `Timeout` at its deadline; one with a deadline that
//!   leads takes only its own statement, so no batch-mate's evaluation
//!   delays its answer.
//! * **A failed batch fsync degrades, it does not kill.** The shared
//!   fsync is attempted once and never retried (after a failed fsync the
//!   kernel may have dropped the batch's pages, so a second one that
//!   succeeds proves nothing). The checker and the service enter
//!   read-only **degraded mode** — CHECK/DECIDE keep serving the last
//!   *durably published* snapshot, UPDATE gets [`ServiceError::Degraded`]
//!   — and stay there: like a poisoned one, a degraded service is
//!   replaced by replaying its store (`ShardSet::recover_shard`, or a
//!   restart over `--store`).
//! * **One batch path, two batch caps.** Every batch runs
//!   [`apply_batch`]. [`Executor::GroupCommit`], every server's, caps a
//!   batch at [`DEFAULT_MAX_BATCH`]; [`Executor::Sync`] caps it at one
//!   statement (tests and the wire-level benchmark's in-process twins
//!   run it).
//!
//! The batching rules, the snapshot-handoff protocol (when readers
//! observe a new version) and the failure-mode state machine (ok →
//! degraded or poisoned → replaced, drain-on-shutdown) are specified in
//! `DESIGN.md`'s *Concurrency architecture* section (system-inventory
//! rows 19 and 22).
//!
//! [sync-now]: xic_xml::journal::Journal::sync_now

use crate::checker::{index_reads, Checker, CheckerError, UpdateOutcome, Violation};
use crate::gamma::SharedGamma;
use crate::optimized::{Fallback, Verdict};
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};
use xic_xml::{serialize, Document, XUpdateDoc};
use xic_xpath::EvalBudget;

/// Default cap on statements drained into one group-commit batch. Large
/// enough that 16 concurrent submitters usually share one fsync, small
/// enough that a slow statement cannot starve later submitters for long.
pub const DEFAULT_MAX_BATCH: usize = 32;

/// Default bound on submissions waiting for a batch (admission
/// control): the 257th concurrent waiter on a default-configured service
/// is shed with [`ServiceError::Overloaded`] rather than queued. Eight
/// default batches deep — enough to ride out a slow batch, small enough
/// that a queued request waits for a bounded number of fsyncs.
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// Evaluation steps granted per deadline millisecond when a
/// `deadline_ms` is converted into an [`EvalBudget`]. A *step* is one
/// node visited or binding iterated (see `xic_xpath::budget`); 50k
/// steps/ms is a conservative calibration of the compiled engine on the
/// benchmark machine, so a deadline bounds evaluation work even where
/// wall-clock checks cannot reach (mid-traversal).
pub const DEADLINE_STEPS_PER_MS: u64 = 50_000;

/// How many queued statements one batch may take. Under both, the
/// submitter that finds no batch running leads the next one under the
/// commit lock, on its own thread, through the same batch path
/// ([`apply_batch`]); the executor only sets the batch cap (and the word
/// `STATS` prints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// Batches of one: every statement is decided, applied and flushed on
    /// its own submitting thread, one after another. Tests and the
    /// wire-level benchmark's in-process twins run it.
    Sync,
    /// Group commit: a leader drains up to [`DEFAULT_MAX_BATCH`] queued
    /// statements and shares one fsync across the batch.
    GroupCommit,
}

impl Executor {
    /// The most queued statements one batch takes.
    fn max_batch(self) -> usize {
        match self {
            Executor::Sync => 1,
            Executor::GroupCommit => DEFAULT_MAX_BATCH,
        }
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
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            executor: Executor::GroupCommit,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            default_deadline_ms: None,
        }
    }
}

/// The service's liveness state, reported by [`CheckerService::health`]
/// and the protocol's `HEALTH` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Accepting reads and writes.
    Ok,
    /// Read-only: a journal fsync failed, under either executor.
    /// CHECK/DECIDE serve the last durably published snapshot; UPDATE is
    /// refused with [`ServiceError::Degraded`]. Sticky, like
    /// [`Health::Poisoned`].
    Degraded,
    /// The checker was poisoned by a contained panic
    /// mid-statement: every further UPDATE fails with
    /// [`CheckerError::Poisoned`]. Reads keep serving the last
    /// published snapshot. Neither this nor [`Health::Degraded`] is left
    /// in place — the service is replaced by replaying its store
    /// (`ShardSet::recover_shard`, or a restart over `--store`).
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
    /// The service is in read-only degraded mode (a batch fsync failed);
    /// UPDATE is refused until the service is replaced from its store.
    Degraded,
    /// The service is draining for shutdown: the in-flight queue still
    /// gets its verdicts, but no new submissions are admitted. Distinct
    /// from [`ServiceError::Stopped`] so clients can tell an orderly
    /// drain (reads still answer) from a service already shut down.
    Draining,
    /// The service was shut down: its checker has been handed back.
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
    /// Planned joins and keyed steps answered from a document's value
    /// index ([`crate::Stats::index_probes`]): the snapshot reads', plus
    /// the writer's as of the last publish.
    pub index_probes: u64,
    /// Value indexes those probes built ([`crate::Stats::index_builds`]);
    /// it keeps growing when readers ask a shape the writer never does,
    /// built again on every published snapshot.
    pub index_builds: u64,
    /// Update patterns compiled into the store of the service's Γ
    /// ([`SharedGamma::patterns`]), by any checker, snapshot or shard
    /// over that Γ.
    pub patterns_compiled: u64,
    /// Their total wall time, in µs.
    pub pattern_compile_us: u64,
    /// [`ReadSnapshot::decide`] calls answered by the optimized
    /// pre-update check.
    pub decides_optimized: u64,
    /// … that fell back to [`ReadSnapshot::decide_full`], by why, in the
    /// order `STATS` names them: the statement is not a pure insertion
    /// (`non_insertion`); a later operation's `select` could observe an
    /// earlier operation of the statement (`observes_earlier_op`); its
    /// target could not be mapped to an update pattern in the snapshot's
    /// state (`unmappable`); its pattern has no incremental check
    /// (`non_incremental`); the insert shifts existing siblings whose
    /// position a constraint reads (`pos_shift`).
    pub decides_fallback: [u64; Fallback::NAMES.len()],
}

#[derive(Default)]
struct StatsCells {
    shed: AtomicU64,
    degraded_transitions: AtomicU64,
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
    /// Per [`Fallback::kind`].
    fallback: [AtomicU64; Fallback::NAMES.len()],
}

/// The step budget for `left` of a deadline, counted in µs
/// ([`DEADLINE_STEPS_PER_MS`] per ms: 0.95 ms is 47 500 steps). A zero
/// `left` yields a zero-step budget, which exhausts on the first charge.
fn deadline_steps(left: Duration) -> EvalBudget {
    let us = u64::try_from(left.as_micros()).unwrap_or(u64::MAX);
    EvalBudget::new(us.saturating_mul(DEADLINE_STEPS_PER_MS) / 1000)
}

/// The check inputs, shared immutably by every snapshot the service
/// publishes: the writer's [`SharedGamma`] (denials, query texts,
/// compiled programs, footprints, the independence setting and the
/// pattern store), the same `Arc` every shard of a `ShardSet` holds —
/// publishing a snapshot never re-compiles anything.
struct CheckSet {
    gamma: Arc<SharedGamma>,
    decides: DecideCells,
    /// Requests that exceeded their deadline, on the write path or on a
    /// snapshot: counted where it happens, like `decides`.
    timed_out: AtomicU64,
}

impl CheckSet {
    fn note_timeout(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
        xic_obs::incr(xic_obs::Counter::RequestTimedOut);
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
/// they never mutate snapshots already handed out. A snapshot holds the
/// writer's committed version itself: the writer applies each statement
/// to a copy and never edits a version in place, so publishing copies no
/// document.
pub struct ReadSnapshot {
    doc: Arc<Document>,
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
        self.checks.read(|| self.checks.gamma.check_full(&self.doc, None))
    }

    /// [`ReadSnapshot::check_full`] bounded by `deadline_ms`: the
    /// deadline's step budget is armed around the evaluation, and
    /// exhaustion is reported as [`ServiceError::Timeout`] instead of
    /// letting a pathological constraint/document pair hang the reader.
    pub fn check_full_deadline(
        &self,
        deadline_ms: u64,
    ) -> Result<Option<Violation>, ServiceError> {
        let _budget = xic_xpath::budget::arm(deadline_steps(Duration::from_millis(deadline_ms)));
        self.check_full().map_err(|e| self.timeout_or(e, deadline_ms))
    }

    /// Decides — without committing — whether `stmt` would be legal in
    /// this snapshot's state, exactly as the writer would at this
    /// version: the optimized pre-update check first ([`crate::optimized`]
    /// — evaluated on the calling thread against the immutable snapshot,
    /// with no copy of the document and nothing applied), the baseline
    /// [`ReadSnapshot::decide_full`] only for what
    /// [`Checker::try_update`] also sends down the baseline: a
    /// non-insertion statement, a later `select` that could observe an
    /// earlier operation, a target that does not map to an update
    /// pattern here, a pattern without an incremental check, a non-tail
    /// insert shifting siblings whose position Γ reads. A pattern
    /// no one has seen yet is compiled here and published to Γ's store,
    /// which the writer shares (first publisher wins).
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
        let decides = &checks.decides;
        let optimized = |verdict| {
            decides.optimized.fetch_add(1, Ordering::Relaxed);
            Ok(verdict)
        };
        match checks.read(|| checks.gamma.decide_optimized(&self.doc, stmt)).0? {
            Verdict::Legal => optimized(None),
            Verdict::Violated(violation) => optimized(Some(violation)),
            Verdict::NotIncremental(fallback) => {
                decides.fallback[fallback.kind()].fetch_add(1, Ordering::Relaxed);
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
        let _budget = xic_xpath::budget::arm(deadline_steps(Duration::from_millis(deadline_ms)));
        self.decide(stmt).map_err(|e| self.timeout_or(e, deadline_ms))
    }

    /// The baseline decision: applies `stmt` to a private copy of the
    /// snapshot document, full-checks the copy, and drops it — the code
    /// [`Checker::decide_only`] under
    /// [`crate::Strategy::FullWithRollback`] and the writer's fallback
    /// run, for concurrent readers.
    /// [`ReadSnapshot::decide`] falls back to this; it costs a copy that
    /// shares every chunk of the snapshot's document but the ones the
    /// apply writes, plus an evaluation of the constraints the delta
    /// applied to the copy can reach (all of Γ with the
    /// independence analysis off) — the writer's mask, from the same
    /// code.
    ///
    /// Like every snapshot read, the decision is against **this
    /// snapshot's version**.
    pub fn decide_full(&self, stmt: &XUpdateDoc) -> Result<Option<Violation>, CheckerError> {
        self.checks.read(|| self.checks.gamma.decide_full(&self.doc, stmt)).map(|(_, v)| v)
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

    /// The step budget for the time left at `now`, or `None` once `now`
    /// has reached the expiry.
    fn budget(&self, now: Instant) -> Option<EvalBudget> {
        let left = self.expires.checked_duration_since(now).filter(|d| !d.is_zero())?;
        Some(deadline_steps(left))
    }
}

/// One admitted submission: its parsed statement, its deadline, and the
/// channel its submitter waits on.
struct UpdateReq {
    /// Names the request in the queue, for a follower that withdraws.
    ticket: u64,
    stmt: XUpdateDoc,
    deadline: Option<Deadline>,
    wake: mpsc::SyncSender<Wake>,
}

/// What a queued submitter is woken with: at most one of each, the lead
/// first.
enum Wake {
    /// Lead the next batch.
    Lead,
    /// The statement's answer.
    Answer(Result<SubmitOutcome, ServiceError>),
}

impl UpdateReq {
    /// Answers the submitter. The first answer is the one it gets; a
    /// submitter that gave up has dropped its end.
    fn answer(&self, result: Result<SubmitOutcome, ServiceError>) {
        let _ = self.wake.try_send(Wake::Answer(result));
    }
}

/// The submissions waiting for a batch, and whether a leader is running
/// one.
#[derive(Default)]
struct Queue {
    pending: VecDeque<UpdateReq>,
    /// Tickets handed out so far.
    tickets: u64,
    /// A submitter leads: it runs one batch under the commit lock, then
    /// promotes `pending`'s front. While this is false `pending` is empty,
    /// so a leader's own statement is always at the front of the batch it
    /// drains.
    leading: bool,
}

/// The concurrent checker service (DESIGN.md rows 19 and 22): one
/// logical writer, any number of snapshot readers, bounded admission,
/// per-request deadlines, and a read-only degraded mode, reads still
/// served, once a batch fsync fails.
///
/// Constructed over a fully-configured [`Checker`] (attach the journal
/// or store, set policies and budgets *first* — the service takes
/// ownership and keeps it behind its commit lock, where the submitter
/// leading each batch uses it). [`CheckerService::shutdown`] stops
/// admission, drains the queue, and gives the checker back.
pub struct CheckerService {
    snapshot: RwLock<Arc<ReadSnapshot>>,
    checks: Arc<CheckSet>,
    config: ServiceConfig,
    /// Read-only mode: a batch fsync failed. Sticky, like `poisoned`.
    degraded: AtomicBool,
    /// A panic interrupted a batch — one the checker contained, or one
    /// the leader caught — and every further UPDATE is refused. Sticky:
    /// only replacing the service (shard-level recovery) clears it.
    poisoned: AtomicBool,
    /// Set by [`CheckerService::shutdown`]: no new submissions.
    draining: AtomicBool,
    /// Submissions admitted and not yet drained into a batch (under
    /// `Sync`: not yet run): the admission bound.
    queued: AtomicUsize,
    stats: StatsCells,
    /// The commit lock: held by the leading submitter for one batch.
    /// `None` once [`CheckerService::shutdown`] has taken the checker.
    checker: Mutex<Option<Checker>>,
    queue: Mutex<Queue>,
    /// Signalled when the lead lapses with nothing queued.
    idle: Condvar,
}

impl CheckerService {
    /// Starts a service over `checker` with the given executor and
    /// default resilience knobs (see [`ServiceConfig`]).
    pub fn new(checker: Checker, executor: Executor) -> Arc<CheckerService> {
        CheckerService::with_config(checker, ServiceConfig { executor, ..Default::default() })
    }

    /// Starts a service over `checker` with the full configuration.
    pub fn with_config(checker: Checker, config: ServiceConfig) -> Arc<CheckerService> {
        let config = ServiceConfig { queue_depth: config.queue_depth.max(1), ..config };
        let checks = Arc::new(CheckSet {
            gamma: Arc::clone(checker.shared_gamma()),
            decides: DecideCells::default(),
            timed_out: AtomicU64::new(0),
        });
        let initial = Arc::new(ReadSnapshot {
            doc: Arc::clone(&checker.doc),
            version: checker.committed(),
            checks: checks.clone(),
        });
        Arc::new(CheckerService {
            snapshot: RwLock::new(initial),
            checks,
            config,
            degraded: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            queued: AtomicUsize::new(0),
            stats: StatsCells::default(),
            checker: Mutex::new(Some(checker)),
            queue: Mutex::new(Queue::default()),
            idle: Condvar::new(),
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
        let (patterns_compiled, pattern_compile_us) = self.checks.gamma.patterns().compile_stats();
        ServiceStats {
            requests_shed: self.stats.shed.load(Ordering::Relaxed),
            requests_timed_out: self.checks.timed_out.load(Ordering::Relaxed),
            service_degraded: self.stats.degraded_transitions.load(Ordering::Relaxed),
            index_probes: reads(0),
            index_builds: reads(1),
            patterns_compiled,
            pattern_compile_us,
            decides_optimized: decides.optimized.load(Ordering::Relaxed),
            decides_fallback: decides.fallback.each_ref().map(|n| n.load(Ordering::Relaxed)),
        }
    }

    /// The current read snapshot (an `Arc` clone; never blocks on
    /// commit I/O — a leader swaps the slot only after its batch is
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
    /// until its verdict is durable (until its batch's shared fsync).
    /// Concurrent callers are safe; ordering between them is their
    /// arrival order in the queue. Applies the configured
    /// [`ServiceConfig::default_deadline_ms`], if any.
    pub fn submit(&self, stmt: &str) -> Result<SubmitOutcome, ServiceError> {
        self.submit_with(stmt, self.config.default_deadline_ms)
    }

    /// [`CheckerService::submit`] with an explicit deadline (overriding
    /// the configured default; `None` waits without bound). The deadline
    /// bounds queue wait and evaluation; an expired request fails with
    /// [`ServiceError::Timeout`]. A timeout *while waiting for the ack*
    /// leaves the verdict unknown — the statement may still commit.
    ///
    /// The statement is parsed on the calling thread, before admission. It
    /// then queues; if no batch is running, the caller leads the next one
    /// itself, otherwise it waits for its answer or for the lead.
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
        let stmt = XUpdateDoc::parse(stmt).map_err(|e| CheckerError::Statement(e.to_string()))?;
        // Bounded admission: shed before queueing, not after.
        if self.queued.fetch_add(1, Ordering::AcqRel) >= self.config.queue_depth {
            self.queued.fetch_sub(1, Ordering::AcqRel);
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            xic_obs::incr(xic_obs::Counter::RequestShed);
            return Err(ServiceError::Overloaded { depth: self.config.queue_depth });
        }
        let (wake, woken) = mpsc::sync_channel(1);
        // The deadline starts as the request queues: it bounds the wait for
        // a batch and the evaluation, not the parse.
        let deadline = deadline_ms.map(Deadline::new);
        let (ticket, lead) = {
            let mut queue = self.queue();
            queue.tickets += 1;
            let ticket = queue.tickets;
            queue.pending.push_back(UpdateReq { ticket, stmt, deadline, wake });
            (ticket, !std::mem::replace(&mut queue.leading, true))
        };
        if lead {
            self.lead(&woken, deadline)
        } else {
            self.follow(ticket, &woken, deadline)
        }
    }

    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("submission queue poisoned")
    }

    /// Leads one batch on the calling thread, under the commit lock, then
    /// passes the lead on. The caller's own statement is the front of the
    /// batch, so the batch answers it. A caller with a deadline takes only
    /// its own statement: its batch-mates' evaluation is not bounded by
    /// that deadline. A panic the checker did not contain poisons the
    /// service and refuses the rest of the batch, so no follower waits on a
    /// leader that stopped.
    fn lead(
        &self,
        woken: &mpsc::Receiver<Wake>,
        deadline: Option<Deadline>,
    ) -> Result<SubmitOutcome, ServiceError> {
        let cap = if deadline.is_some() { 1 } else { self.config.executor.max_batch() };
        {
            // Nothing unwinds past this guard (the batch runs under
            // `catch_unwind`), so the lock is never poisoned.
            let mut checker = self.checker.lock().expect("commit lock poisoned");
            let batch = self.drain(cap);
            // Under `GroupCommit` a drained statement stops counting
            // against the admission bound at once; under `Sync` it counts
            // until its batch has run, so the bound counts every submitter
            // in flight there, the one running included.
            let release = |n| self.queued.fetch_sub(n, Ordering::AcqRel);
            let sync = self.config.executor == Executor::Sync;
            if !sync {
                release(batch.len());
            }
            match checker.as_mut() {
                Some(checker) => {
                    let ran = catch_unwind(AssertUnwindSafe(|| self.run_batch(checker, &batch)));
                    if ran.is_err() {
                        self.note_poisoned();
                        for req in &batch {
                            req.answer(Err(CheckerError::Poisoned.into()));
                        }
                    }
                }
                None => {
                    for req in &batch {
                        req.answer(Err(ServiceError::Stopped));
                    }
                }
            }
            if sync {
                release(batch.len());
            }
        }
        self.pass_lead(&mut self.queue());
        match woken.try_recv() {
            Ok(Wake::Answer(result)) => result,
            _ => unreachable!("a batch answers every statement it drains, its leader's first"),
        }
    }

    /// Takes the next batch, up to `cap` statements, off the queue.
    fn drain(&self, cap: usize) -> Vec<UpdateReq> {
        let mut queue = self.queue();
        let n = queue.pending.len().min(cap);
        queue.pending.drain(..n).collect()
    }

    /// Hands the lead to the first queued submitter, or lets it lapse when
    /// nobody is queued.
    fn pass_lead(&self, queue: &mut Queue) {
        match queue.pending.front() {
            Some(next) => {
                // The front has not been drained, so nothing answered it.
                let _ = next.wake.try_send(Wake::Lead);
            }
            None => {
                queue.leading = false;
                self.idle.notify_all();
            }
        }
    }

    /// Waits for the statement's answer, or for the lead, which it then
    /// takes. A deadline that passes first withdraws the statement.
    fn follow(
        &self,
        ticket: u64,
        woken: &mpsc::Receiver<Wake>,
        deadline: Option<Deadline>,
    ) -> Result<SubmitOutcome, ServiceError> {
        let wake = match deadline {
            None => woken.recv().map_err(|_| ServiceError::Stopped)?,
            Some(d) => {
                let left = d.expires.saturating_duration_since(Instant::now());
                match woken.recv_timeout(left) {
                    Ok(wake) => wake,
                    Err(_) => return self.withdraw(ticket, woken, d),
                }
            }
        };
        match wake {
            Wake::Lead => self.lead(woken, deadline),
            Wake::Answer(result) => result,
        }
    }

    /// A follower whose deadline passed leaves the queue, so its statement
    /// never runs, and passes the lead on if it was just promoted. A
    /// statement a running batch already holds may still commit: the
    /// timeout leaves its verdict unknown.
    fn withdraw(
        &self,
        ticket: u64,
        woken: &mpsc::Receiver<Wake>,
        d: Deadline,
    ) -> Result<SubmitOutcome, ServiceError> {
        // The lead is only handed on under the queue lock: holding it, the
        // channel says whether this follower was promoted.
        let mut queue = self.queue();
        let promoted = match woken.try_recv() {
            Ok(Wake::Answer(result)) => return result,
            Ok(Wake::Lead) => true,
            Err(_) => false,
        };
        if let Some(at) = queue.pending.iter().position(|req| req.ticket == ticket) {
            queue.pending.remove(at);
            self.queued.fetch_sub(1, Ordering::AcqRel);
        }
        if promoted {
            self.pass_lead(&mut queue);
        }
        drop(queue);
        self.checks.note_timeout();
        Err(ServiceError::Timeout { ms: d.ms })
    }

    /// Executes one drained batch on the leader's thread: refuse it if the
    /// service is degraded or poisoned, expire overdue requests, run the
    /// batch path, publish on success or degrade on a failed flush,
    /// answer every submitter.
    fn run_batch(&self, checker: &mut Checker, batch: &[UpdateReq]) {
        let refusal = if self.degraded.load(Ordering::Acquire) {
            Some(ServiceError::Degraded)
        } else if self.poisoned.load(Ordering::Acquire) {
            Some(CheckerError::Poisoned.into())
        } else {
            None
        };
        if let Some(refusal) = refusal {
            // Refuse without touching the checker, so the in-memory state
            // stays at the last (unflushed) batch.
            for req in batch {
                req.answer(Err(refusal.clone()));
            }
            return;
        }
        let now = Instant::now();
        let mut live: Vec<(&UpdateReq, Option<EvalBudget>)> = Vec::with_capacity(batch.len());
        for req in batch {
            let budget = req.deadline.map(|d| d.budget(now));
            if let (Some(d), Some(None)) = (req.deadline, budget) {
                self.checks.note_timeout();
                req.answer(Err(ServiceError::Timeout { ms: d.ms }));
                continue;
            }
            live.push((req, budget.flatten()));
        }
        if live.is_empty() {
            return;
        }
        let items: Vec<BatchStmt> =
            live.iter().map(|(req, budget)| BatchStmt { stmt: &req.stmt, budget: *budget }).collect();
        let before = checker.committed();
        let outcome = apply_batch(checker, &items);
        if checker.poisoned() {
            self.note_poisoned();
        }
        match &outcome.disposition {
            BatchDisposition::Committed => {
                if checker.committed() != before {
                    self.publish(checker);
                }
            }
            // The batch's commits are not durable: readers keep the last
            // published (durable) snapshot, the service goes read-only.
            BatchDisposition::SyncFailed(_) => self.enter_degraded(),
        }
        // Acknowledge only now: every commit in the batch is durable (or
        // reported as SyncFailed/Timeout). A submitter that gave up
        // waiting drops its answer.
        for ((req, _), result) in live.into_iter().zip(outcome.results) {
            let result = match (result, req.deadline) {
                // An exhausted deadline budget surfaces as a timeout, not
                // a bare budget error.
                (Err(ServiceError::Checker(CheckerError::BudgetExhausted)), Some(d)) => {
                    self.checks.note_timeout();
                    Err(ServiceError::Timeout { ms: d.ms })
                }
                (result, _) => result,
            };
            req.answer(result);
        }
    }

    /// Publishes the checker's committed version as the new read
    /// snapshot: the snapshot shares the version's `Arc`.
    fn publish(&self, checker: &Checker) {
        let snap = Arc::new(ReadSnapshot {
            doc: Arc::clone(&checker.doc),
            version: checker.committed(),
            checks: self.checks.clone(),
        });
        // Swap under the write lock, drop the old snapshot after releasing
        // it: a reader's `snapshot()` / `version()` never waits on a free.
        let old = {
            let mut slot = self.snapshot.write().expect("snapshot slot poisoned");
            std::mem::replace(&mut *slot, snap)
        };
        drop(old);
        let stats = checker.stats();
        let writer = &self.checks.decides.writer_index_reads;
        writer[0].store(stats.index_probes, Ordering::Relaxed);
        writer[1].store(stats.index_builds, Ordering::Relaxed);
        xic_obs::incr(xic_obs::Counter::SnapshotPublish);
    }

    /// Enters read-only degraded mode (a batch fsync failed).
    fn enter_degraded(&self) {
        if !self.degraded.swap(true, Ordering::AcqRel) {
            self.stats.degraded_transitions.fetch_add(1, Ordering::Relaxed);
            xic_obs::incr(xic_obs::Counter::ServiceDegraded);
        }
    }

    /// Records that a panic interrupted a batch (sticky; see
    /// [`Health::Poisoned`]).
    fn note_poisoned(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Stops the service and returns the checker: admission closes
    /// ([`ServiceError::Draining`] for new submissions), the queue
    /// drains — every queued submission still gets its durable verdict
    /// (or its degraded/timeout refusal) from the leaders — and the
    /// checker is taken from behind the commit lock once the lead has
    /// lapsed. Safe with any number of live service or snapshot handles; a
    /// second call returns [`ServiceError::Stopped`].
    pub fn shutdown(&self) -> Result<Checker, ServiceError> {
        self.draining.store(true, Ordering::Release);
        let idle = self.idle.wait_while(self.queue(), |queue| queue.leading);
        drop(idle.expect("submission queue poisoned"));
        self.checker.lock().expect("commit lock poisoned").take().ok_or(ServiceError::Stopped)
    }
}

/// One statement of a batch: the parsed statement plus an optional
/// evaluation budget (a deadline's remaining allowance) armed around its
/// check.
pub struct BatchStmt<'a> {
    /// The XUpdate statement.
    pub stmt: &'a XUpdateDoc,
    /// Armed around this statement's evaluation; exhaustion surfaces as
    /// [`CheckerError::BudgetExhausted`] in the statement's result.
    pub budget: Option<EvalBudget>,
}

/// Terminal state of one batch through [`apply_batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchDisposition {
    /// The shared fsync succeeded: every `Applied` outcome is durable
    /// and acknowledged.
    Committed,
    /// The shared fsync failed (the message says how): applied outcomes
    /// were downgraded to [`ServiceError::SyncFailed`] and the service
    /// degrades.
    SyncFailed(String),
}

/// What [`apply_batch`] returns: per-statement results and the batch's
/// terminal disposition.
pub struct BatchOutcome {
    /// Per-statement results, in submission order.
    pub results: Vec<Result<SubmitOutcome, ServiceError>>,
    /// Whether the shared fsync succeeded.
    pub disposition: BatchDisposition,
}

/// Applies one batch to `checker`: every statement is checked (under its
/// budget, if any) and, when legal, applied with its journal record
/// appended *unsynced*; then one flush makes the whole batch durable. A
/// batch that appended nothing has nothing to flush: it costs no fsync
/// and cannot fail one.
///
/// Per-statement outcomes are independent — a rejected or failed
/// statement appends no record and cannot poison its
/// batch-mates (a contained panic *does* poison the checker, so
/// statements after it in the batch fail with
/// [`CheckerError::Poisoned`]; their submitters are told so
/// individually). The fsync is attempted exactly once — a panic during
/// it is contained and counts as a failure — and if it fails, the
/// checker turns degraded and every `Applied` outcome in the batch is
/// downgraded to [`ServiceError::SyncFailed`], because its record may
/// not have reached stable storage.
///
/// This *is* the production write path — both executors call it for
/// every batch, and a lone submitter's batch of one runs it on the
/// submitting thread — and a free function so the fault harness in
/// `xic-difftest` can drive each shard's batches directly under
/// thread-scoped fault injection.
pub fn apply_batch(checker: &mut Checker, items: &[BatchStmt]) -> BatchOutcome {
    let mut results: Vec<_> = items
        .iter()
        .map(|item| {
            xic_obs::incr(xic_obs::Counter::GroupCommitStatement);
            let _budget = item.budget.map(xic_xpath::budget::arm);
            checker
                .update_unflushed(item.stmt)
                .map(|outcome| SubmitOutcome { version: checker.committed(), outcome })
                .map_err(ServiceError::Checker)
        })
        .collect();
    xic_obs::incr(xic_obs::Counter::GroupCommitBatch);
    let flush = match checker.flush() {
        Ok(()) => return BatchOutcome { results, disposition: BatchDisposition::Committed },
        Err(e) => e.to_string(),
    };
    for result in results.iter_mut() {
        if matches!(result, Ok(out) if out.outcome.applied()) {
            *result = Err(ServiceError::SyncFailed(flush.clone()));
        }
    }
    BatchOutcome { results, disposition: BatchDisposition::SyncFailed(flush) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_faults::FaultMode;

    const DTD: &str = "<!ELEMENT collection (dblp, review)>\n<!ELEMENT dblp (pub)*>\n\
                       <!ELEMENT pub (title, aut+)>\n<!ELEMENT aut (name)>\n\
                       <!ELEMENT review (track)+>\n<!ELEMENT track (name,rev+)>\n\
                       <!ELEMENT rev (name, sub+)>\n<!ELEMENT sub (title, auts+)>\n\
                       <!ELEMENT title (#PCDATA)>\n<!ELEMENT auts (name)>\n\
                       <!ELEMENT name (#PCDATA)>";

    const XML: &str = "<collection><dblp><pub><title>P</title>\
                       <aut><name>alice</name></aut></pub></dblp>\
                       <review><track><name>T</name><rev><name>bob</name>\
                       <sub><title>S</title><auts><name>carol</name></auts></sub>\
                       </rev></track></review></collection>";

    const CONFLICT: &str = "<- //rev[name/text() -> R]/sub/auts/name/text() -> A & A = R";

    /// More submitters queued behind a leader than one batch takes, so
    /// the lead is handed on under either executor.
    const FOLLOWERS: usize = DEFAULT_MAX_BATCH + 8;

    type Answer = Result<SubmitOutcome, ServiceError>;

    fn legal(author: &str) -> String {
        format!(
            "<xupdate:modifications version=\"1.0\" \
             xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
             <xupdate:append select=\"/collection/review/track[1]/rev[1]\">\
             <sub><title>N</title><auts><name>{author}</name></auts></sub>\
             </xupdate:append></xupdate:modifications>"
        )
    }

    fn service(executor: Executor) -> Arc<CheckerService> {
        CheckerService::new(Checker::new(XML, DTD, CONFLICT).expect("setup"), executor)
    }

    fn wait_for_queued(service: &CheckerService, n: usize) {
        while service.queue().pending.len() < n {
            std::thread::yield_now();
        }
    }

    /// Holds the commit lock while `lead` submits (and so leads, blocked
    /// on the lock) and `FOLLOWERS` legal statements queue behind it, then
    /// lets the batches run. Every submitter's answer, the leader's first.
    fn answers_behind_a_held_lead(
        service: &CheckerService,
        lead: impl FnOnce() -> Answer + Send,
    ) -> Vec<Answer> {
        let held = service.checker.lock().expect("commit lock");
        std::thread::scope(|scope| {
            let leader = scope.spawn(lead);
            wait_for_queued(service, 1);
            let followers: Vec<_> = (0..FOLLOWERS)
                .map(|i| scope.spawn(move || service.submit(&legal(&format!("f{i}")))))
                .collect();
            wait_for_queued(service, 1 + FOLLOWERS);
            drop(held);
            std::iter::once(leader)
                .chain(followers)
                .map(|submitter| submitter.join().expect("submitter thread"))
                .collect()
        })
    }

    /// A leader whose statement panics under an armed fault site still
    /// answers its batch and hands the lead on: every follower gets the
    /// poisoned refusal, none waits on a leader that stopped.
    #[test]
    fn a_leader_whose_statement_panics_answers_every_follower() {
        for executor in [Executor::Sync, Executor::GroupCommit] {
            let service = service(executor);
            let answers = answers_behind_a_held_lead(&service, || {
                xic_faults::arm("xupdate.apply.op", 1, FaultMode::Panic);
                let answer = service.submit(&legal("boom"));
                xic_faults::disarm_all();
                answer
            });
            let (leader, followers) = answers.split_first().expect("the leader's answer");
            assert!(
                matches!(leader, Err(ServiceError::Checker(CheckerError::Panicked(_)))),
                "{executor:?}: {leader:?}"
            );
            for answer in followers {
                assert!(
                    matches!(answer, Err(ServiceError::Checker(CheckerError::Poisoned))),
                    "{executor:?}: {answer:?}"
                );
            }
            assert_eq!(service.health(), Health::Poisoned);
            assert_eq!(service.version(), 0);
            assert_eq!(service.shutdown().expect("shutdown").committed(), 0);
        }
    }

    /// A panic the checker does not contain — here the publish, over a
    /// snapshot slot a panicking thread poisoned — is caught by the
    /// leader: the service turns poisoned, the leader and every follower
    /// are answered, and the lead passes on.
    #[test]
    fn a_panic_outside_the_checker_poisons_the_service_and_answers_everyone() {
        for executor in [Executor::Sync, Executor::GroupCommit] {
            let service = service(executor);
            std::thread::scope(|scope| {
                let poisoner = scope.spawn(|| {
                    let _slot = service.snapshot.write();
                    panic!("poisons the snapshot slot");
                });
                assert!(poisoner.join().is_err());
            });
            let answers = answers_behind_a_held_lead(&service, || service.submit(&legal("first")));
            for answer in &answers {
                assert!(
                    matches!(answer, Err(ServiceError::Checker(CheckerError::Poisoned))),
                    "{executor:?}: {answer:?}"
                );
            }
            assert_eq!(service.health(), Health::Poisoned);
            assert!(service.queue().pending.is_empty() && !service.queue().leading);
            service.shutdown().expect("shutdown");
        }
    }

    /// A follower's deadline holds while a batch ahead of it runs: it
    /// answers `Timeout` by the deadline, leaves the queue, and its
    /// statement never runs.
    #[test]
    fn a_follower_times_out_by_its_deadline_and_never_runs() {
        let service = service(Executor::GroupCommit);
        let held = service.checker.lock().expect("commit lock");
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| service.submit(&legal("first")));
            wait_for_queued(&service, 1);
            let late = service.submit_with(&legal("late"), Some(20));
            assert!(matches!(late, Err(ServiceError::Timeout { ms: 20 })), "{late:?}");
            assert_eq!(service.queue().pending.len(), 1, "the follower left the queue");
            drop(held);
            let first = leader.join().expect("leader").expect("the leader commits");
            assert_eq!(first.version, 1);
        });
        assert_eq!(service.version(), 1, "the withdrawn statement ran");
        assert_eq!(service.stats().requests_timed_out, 1);
        service.shutdown().expect("shutdown");
    }

    /// A follower with a deadline that is promoted leads a batch of its own
    /// statement only: the undeadlined statements queued behind it, whose
    /// evaluation no deadline bounds, wait for the next leader instead of
    /// holding its answer. Counted on the follower's thread, where the
    /// batches it leads run.
    #[test]
    fn a_promoted_follower_with_a_deadline_leads_only_its_own_statement() {
        const MATES: usize = 8;
        let service = service(Executor::GroupCommit);
        let ran = || xic_obs::counter(xic_obs::Counter::GroupCommitStatement);
        let held = service.checker.lock().expect("commit lock");
        let (deadlined, others) = std::thread::scope(|scope| {
            let service = &service;
            let spawn = |tags: std::ops::Range<usize>| -> Vec<_> {
                tags.map(|i| scope.spawn(move || service.submit(&legal(&format!("s{i}")))))
                    .collect()
            };
            // The leader and the rest of its full batch.
            let mut others = spawn(0..1);
            wait_for_queued(service, 1);
            others.extend(spawn(1..DEFAULT_MAX_BATCH));
            wait_for_queued(service, DEFAULT_MAX_BATCH);
            // Front of the queue once that batch is drained.
            let deadlined = scope.spawn(move || {
                let before = ran();
                let answer = service.submit_with(&legal("deadlined"), Some(60_000));
                (answer, ran() - before)
            });
            wait_for_queued(service, DEFAULT_MAX_BATCH + 1);
            others.extend(spawn(DEFAULT_MAX_BATCH..DEFAULT_MAX_BATCH + MATES));
            wait_for_queued(service, DEFAULT_MAX_BATCH + 1 + MATES);
            drop(held);
            let others: Vec<Answer> =
                others.into_iter().map(|t| t.join().expect("submitter thread")).collect();
            (deadlined.join().expect("deadlined submitter"), others)
        });
        let (answer, statements_run) = deadlined;
        let out = answer.expect("the deadlined statement commits");
        assert_eq!(out.version, DEFAULT_MAX_BATCH as u64 + 1, "it commits after the first batch");
        assert_eq!(statements_run, 1, "it ran its batch-mates");
        for answer in &others {
            assert!(matches!(answer, Ok(out) if out.outcome.applied()), "{answer:?}");
        }
        assert_eq!(service.version(), (DEFAULT_MAX_BATCH + 1 + MATES) as u64);
        service.shutdown().expect("shutdown");
    }
}
