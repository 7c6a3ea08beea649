//! Concurrent checker service: snapshot reads, group-commit writes,
//! bounded admission, per-request deadlines, degraded-mode survival.
//!
//! The [`Checker`] façade is single-threaded — every mutating entry point
//! takes `&mut self` and, with a journal attached, fsyncs once per commit
//! (0.2–0.5 ms on the benchmark machine, `journal.sync_us`). This module
//! turns it into a service:
//!
//! * **Readers never block writers.** [`ReadSnapshot::check_full`] and
//!   [`ReadSnapshot::decide`] run on the reader's own thread against an
//!   immutable, versioned snapshot the writer publishes once per committed
//!   batch; taking one is an `Arc` clone under a briefly-held lock. A
//!   pre-update decision is such a read: the optimized check the writer
//!   commits with ([`crate::optimized`]), no copy, no apply, and the
//!   baseline ([`ReadSnapshot::decide_full`]) only where the writer takes
//!   it too.
//! * **Submitters group-commit their own batches.** There is no writer
//!   thread: the `Checker` sits behind one *commit lock*, and the
//!   submitter that finds no batch running leads the next on its own
//!   thread through [`apply_batch`], whose records are appended *unsynced*
//!   and made durable by **one shared fsync**
//!   ([`Journal::sync_now`][sync-now]) before anyone is acknowledged, so
//!   statements that arrive during a batch's fsync share the next one. A
//!   batch is at most [`DEFAULT_MAX_BATCH`] statements, one under
//!   [`Executor::Sync`].
//! * **One state machine decides.** Who leads, what a batch takes, and
//!   when a request is answered, refused or expired are the pure
//!   `Protocol` of `commit_protocol.rs`, whose every interleaving of three
//!   submitters its tests explore; the service feeds it events under one
//!   lock and performs its actions. So admission is bounded by
//!   [`ServiceConfig::queue_depth`] ([`ServiceError::Overloaded`]: retry
//!   with backoff); a deadline (the protocol's `UPDATE 250 <stmt>` prefix,
//!   or [`ServiceConfig::default_deadline_ms`]) bounds a request's wait
//!   ([`ServiceError::Timeout`]) and, armed as an [`EvalBudget`], its
//!   evaluation; a leader with a deadline takes only its own statement.
//! * **A failed batch fsync degrades, it does not kill.** The fsync is
//!   never retried (the kernel may have dropped the batch's pages, so a
//!   second one that succeeds proves nothing). The service turns read-only
//!   — reads serve the last *durably published* snapshot, UPDATE gets
//!   [`ServiceError::Degraded`] — and, like a poisoned one, is replaced by
//!   replaying its store (`ShardSet::recover_shard`, or a restart).
//!
//! DESIGN.md's *Concurrency architecture* specifies the snapshot handoff
//! (inventory rows 19 and 22).
//!
//! [sync-now]: xic_xml::journal::Journal::sync_now

use crate::checker::{Checker, CheckerError, UpdateOutcome, Violation};
use crate::commit_protocol::{Action, Event, Lead, Protocol, Reply, Ticket};
use crate::gamma::SharedGamma;
use crate::optimized::Fallback;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::{self, Thread};
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

/// Full service configuration (the executor plus the resilience knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Sequential or group-commit execution (see [`Executor`]).
    pub executor: Executor,
    /// Bounded-admission depth: submissions beyond this many waiting are
    /// shed with [`ServiceError::Overloaded`]. Clamped to at least 1.
    pub queue_depth: usize,
    /// Deadline applied to requests that do not carry their own:
    /// [`CheckerService::submit`] and, through the protocol, `CHECK`,
    /// `DECIDE` and `UPDATE` (`None`: wait and evaluate without bound).
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
    /// Read-only: a batch fsync failed. Reads serve the last durably
    /// published snapshot; UPDATE gets [`ServiceError::Degraded`].
    Degraded,
    /// A panic interrupted a batch: every further UPDATE fails with
    /// [`CheckerError::Poisoned`]; reads serve the last published
    /// snapshot. Like [`Health::Degraded`], sticky until the service is
    /// replaced from its store (`ShardSet::recover_shard`, or a restart).
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

/// Point-in-time values of the service's counters: the per-service
/// atomics behind the protocol's `STATS` reply, counted on whichever
/// thread the event happens.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submissions shed by bounded admission.
    pub requests_shed: u64,
    /// Requests that exceeded their deadline.
    pub requests_timed_out: u64,
    /// Transitions into degraded mode since the service started.
    pub service_degraded: u64,
    /// Planned joins and keyed steps answered from a document's value
    /// index ([`xic_obs::Counter::IndexProbe`]): the snapshot reads' and
    /// the batches'.
    pub index_probes: u64,
    /// Value indexes those probes built ([`xic_obs::Counter::IndexBuild`]);
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
    /// order `STATS` names them: the statement is neither insertions nor
    /// one text update of a compacted column (`non_insertion`); a later
    /// operation's `select` could observe an earlier operation of the
    /// statement (`observes_earlier_op`); its
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
    /// Index probes and builds of the snapshot reads and the batches.
    index_reads: [AtomicU64; 2],
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
    }

    /// Runs a snapshot read or a batch, counting the index probes and
    /// builds it made (this thread's [`xic_obs::Counter::IndexProbe`] /
    /// `IndexBuild` deltas).
    fn read<T>(&self, f: impl FnOnce() -> T) -> T {
        let counts = || [xic_obs::Counter::IndexProbe, xic_obs::Counter::IndexBuild].map(xic_obs::counter);
        let before = counts();
        let value = f();
        for ((cell, after), before) in self.decides.index_reads.iter().zip(counts()).zip(before) {
            cell.fetch_add(after.saturating_sub(before), Ordering::Relaxed);
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
    /// [`Checker::try_update`] also sends down the baseline: a remove, a
    /// rename or another text update, a later `select` that could observe an
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
        let decides = &self.checks.decides;
        let decision = self.checks.read(|| self.checks.gamma.decide(&self.doc, stmt));
        if let Some(fallback) = &decision.fallback {
            decides.fallback[fallback.kind()].fetch_add(1, Ordering::Relaxed);
        } else if decision.verdict.is_ok() {
            decides.optimized.fetch_add(1, Ordering::Relaxed);
        }
        Ok(decision.verdict?.err())
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

/// A request's deadline: its expiry, and the budget it was given.
#[derive(Debug, Clone, Copy)]
struct Deadline {
    expires: Instant,
    ms: u64,
}

/// One admitted submission, the commit protocol's payload: its statement,
/// its deadline, and the thread waiting for its answer.
struct Req {
    stmt: XUpdateDoc,
    deadline: Option<Deadline>,
    waiter: Thread,
}

type Answer = Result<SubmitOutcome, ServiceError>;

/// The commit protocol, and beside it under its lock: the answers not
/// collected yet, the shutdown callers waiting for the lead to lapse, and
/// whom to wake once the lock is released.
struct Commit {
    model: Protocol<Arc<Req>>,
    answers: HashMap<Ticket, Answer>,
    closers: Vec<Thread>,
    woken: Vec<Thread>,
}

/// Releases the protocol lock, then wakes whom its steps woke.
fn unlock(mut commit: MutexGuard<'_, Commit>) {
    let woken = std::mem::take(&mut commit.woken);
    drop(commit);
    woken.iter().for_each(Thread::unpark);
}

/// The concurrent checker service (DESIGN.md rows 19 and 22): one batch
/// at a time, any number of snapshot readers. Built over a
/// fully-configured [`Checker`] — attach the journal or store and set
/// policies *first*: the service keeps it behind its commit lock.
/// [`CheckerService::shutdown`] drains the queue and gives it back.
pub struct CheckerService {
    snapshot: RwLock<Arc<ReadSnapshot>>,
    checks: Arc<CheckSet>,
    config: ServiceConfig,
    stats: StatsCells,
    /// The commit lock: held by the leading submitter for one batch.
    /// `None` once [`CheckerService::shutdown`] has taken the checker.
    checker: Mutex<Option<Checker>>,
    commit: Mutex<Commit>,
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
        let cap = if config.executor == Executor::Sync { 1 } else { DEFAULT_MAX_BATCH };
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
            stats: StatsCells::default(),
            checker: Mutex::new(Some(checker)),
            commit: Mutex::new(Commit {
                model: Protocol::new(cap, config.queue_depth),
                answers: HashMap::new(),
                closers: Vec::new(),
                woken: Vec::new(),
            }),
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
        let commit = self.commit();
        let m = &commit.model;
        [(m.draining, Health::Draining), (m.poisoned, Health::Poisoned), (m.degraded, Health::Degraded)]
            .into_iter()
            .find_map(|(is, health)| is.then_some(health))
            .unwrap_or(Health::Ok)
    }

    /// Point-in-time resilience and decision counters (the protocol's
    /// `STATS` reply).
    pub fn stats(&self) -> ServiceStats {
        let decides = &self.checks.decides;
        let reads = |i: usize| decides.index_reads[i].load(Ordering::Relaxed);
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
    /// bounds queue wait and evaluation ([`ServiceError::Timeout`]); a
    /// timeout *while its batch runs* leaves the verdict unknown. The
    /// statement is parsed on the calling thread, then queues: the caller
    /// leads the next batch itself or waits for its answer or the lead.
    pub fn submit_with(
        &self,
        stmt: &str,
        deadline_ms: Option<u64>,
    ) -> Result<SubmitOutcome, ServiceError> {
        // Refused before the parse; admission checks again under the lock.
        match self.health() {
            Health::Draining => return Err(ServiceError::Draining),
            Health::Degraded => return Err(ServiceError::Degraded),
            Health::Ok | Health::Poisoned => {}
        }
        let stmt = XUpdateDoc::parse(stmt).map_err(|e| CheckerError::Statement(e.to_string()))?;
        // The deadline starts as the request queues: it bounds the wait for
        // a batch and the evaluation, not the parse.
        let deadline = deadline_ms
            .map(|ms| Deadline { expires: Instant::now() + Duration::from_millis(ms), ms });
        let payload = Arc::new(Req { stmt, deadline, waiter: thread::current() });
        let mut commit = self.commit();
        let submit = Event::Submit { payload, deadline: deadline.is_some() };
        let ticket = match self.step(&mut commit, submit, &mut Vec::new()).pop() {
            Some(Action::Queued(ticket)) => ticket,
            Some(Action::Refuse(refusal)) => return Err(self.refused(refusal)),
            _ => unreachable!("a submission is queued or refused"),
        };
        loop {
            if let Some(answer) = commit.answers.remove(&ticket) {
                unlock(commit);
                return answer;
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| d.expires <= now) {
                self.step(&mut commit, Event::Expired(ticket), &mut Vec::new());
                continue;
            }
            let lead = commit.model.lead == Lead::Handed(ticket);
            unlock(commit);
            match deadline {
                _ if lead => self.lead(ticket),
                Some(d) => thread::park_timeout(d.expires - now),
                None => thread::park(),
            }
            commit = self.commit();
        }
    }

    fn commit(&self) -> MutexGuard<'_, Commit> {
        self.commit.lock().expect("commit protocol poisoned")
    }

    /// Feeds `event` to the protocol and performs its actions but those
    /// it returns for the caller: a submission's `Queued` or `Refuse`, a
    /// batch to `Run`, a `Publish`. An answer goes to the mailbox — a
    /// batch's from `ran` — and its submitter is woken, like a promoted
    /// leader and the shutdown callers a lapse frees.
    fn step(
        &self,
        commit: &mut Commit,
        event: Event<Arc<Req>>,
        ran: &mut Vec<(Ticket, Answer)>,
    ) -> Vec<Action<Arc<Req>>> {
        let mut left = Vec::new();
        for action in commit.model.step(event) {
            match action {
                Action::Answer(ticket, req, reply) => {
                    let answer = match reply {
                        Reply::Ran | Reply::Unsynced => {
                            let at = ran.iter().position(|(t, _)| *t == ticket);
                            ran.swap_remove(at.expect("a batch answers what it ran")).1
                        }
                        // A deadline that passed answers like one whose
                        // budget ran out mid-evaluation.
                        Reply::TimedOut => Err(CheckerError::BudgetExhausted.into()),
                        refusal => Err(self.refused(refusal)),
                    };
                    let answer = match (answer, req.deadline) {
                        (Err(ServiceError::Checker(CheckerError::BudgetExhausted)), Some(d)) => {
                            self.checks.note_timeout();
                            Err(ServiceError::Timeout { ms: d.ms })
                        }
                        (answer, _) => answer,
                    };
                    commit.answers.insert(ticket, answer);
                    commit.woken.push(req.waiter.clone());
                }
                Action::Hand(_, req) => commit.woken.push(req.waiter.clone()),
                Action::Lapse => commit.woken.append(&mut commit.closers),
                Action::Degrade => {
                    self.stats.degraded_transitions.fetch_add(1, Ordering::Relaxed);
                }
                other => left.push(other),
            }
        }
        left
    }

    fn refused(&self, refusal: Reply) -> ServiceError {
        match refusal {
            Reply::Draining => ServiceError::Draining,
            Reply::Degraded => ServiceError::Degraded,
            Reply::Poisoned => CheckerError::Poisoned.into(),
            Reply::Ran | Reply::Unsynced | Reply::TimedOut => unreachable!("not a refusal"),
            Reply::Overloaded => {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                ServiceError::Overloaded { depth: self.config.queue_depth }
            }
        }
    }

    /// Leads one batch on the calling thread, under the commit lock: takes
    /// it from the protocol, expires its overdue requests, runs the rest
    /// and tells the protocol how that went. A panic outside the checker,
    /// in the batch or in its publish, is caught and reported as one.
    fn lead(&self, ticket: Ticket) {
        // Nothing unwinds past this guard, so the lock is never poisoned.
        let mut guard = self.checker.lock().expect("commit lock poisoned");
        let mut commit = self.commit();
        let Some(Action::Run(batch)) = self.step(&mut commit, Event::Start(ticket), &mut Vec::new()).pop()
        else {
            return unlock(commit);
        };
        // Overdue requests expire as the batch starts; the rest run under
        // the step budgets their deadlines have left.
        let now = Instant::now();
        let mut live = Vec::with_capacity(batch.len());
        for (t, req) in batch {
            let left = req.deadline.map(|d| d.expires.saturating_duration_since(now));
            if left.is_some_and(|left| left.is_zero()) {
                self.step(&mut commit, Event::Expired(t), &mut Vec::new());
            } else {
                live.push((t, req, left.map(deadline_steps)));
            }
        }
        unlock(commit);
        let checker = guard.as_mut().expect("the checker is taken only once no one leads");
        let mut results = Vec::new();
        let ran = catch_unwind(AssertUnwindSafe(|| {
            if live.is_empty() {
                return Event::Returned { appended: false, synced: true, poisoned: false };
            }
            let items: Vec<BatchStmt> =
                live.iter().map(|(_, req, budget)| BatchStmt { stmt: &req.stmt, budget: *budget }).collect();
            let before = checker.committed();
            let outcome = self.checks.read(|| apply_batch(checker, &items));
            results = live.iter().map(|(t, ..)| *t).zip(outcome.results).collect();
            Event::Returned {
                appended: checker.committed() != before,
                synced: outcome.disposition == BatchDisposition::Committed,
                poisoned: checker.poisoned(),
            }
        }))
        .unwrap_or(Event::Panicked);
        let mut commit = self.commit();
        if let Some(Action::Publish) = self.step(&mut commit, ran, &mut results).pop() {
            let published = catch_unwind(AssertUnwindSafe(|| self.publish(checker)));
            let ran = if published.is_ok() { Event::Published } else { Event::Panicked };
            self.step(&mut commit, ran, &mut results);
        }
        unlock(commit);
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
    }

    /// Stops the service and returns the checker: admission closes
    /// ([`ServiceError::Draining`]), every queued submission is still
    /// answered by the leaders, and the checker is taken once the lead has
    /// lapsed. Safe with live service or snapshot handles; a second call
    /// returns [`ServiceError::Stopped`].
    pub fn shutdown(&self) -> Result<Checker, ServiceError> {
        let mut commit = self.commit();
        self.step(&mut commit, Event::Shutdown, &mut Vec::new());
        while commit.model.lead != Lead::Idle {
            commit.closers.push(thread::current());
            unlock(commit);
            thread::park();
            commit = self.commit();
        }
        unlock(commit);
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
/// Every batch of the service runs it, on its leader's thread; it is a
/// free function so the fault harness in `xic-difftest` can drive each
/// shard's batches directly, its victim's store over a faulty `Dir`.
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
    use xic_faults::{Fault, FaultMode, Faulty, Op, Target};

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
        while service.commit().model.pending.len() < n {
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

    /// A leader whose statement panics — its store's append panics —
    /// still answers its batch and hands the lead on: every follower gets
    /// the poisoned refusal, none waits on a leader that stopped.
    #[test]
    fn a_leader_whose_statement_panics_answers_every_follower() {
        for executor in [Executor::Sync, Executor::GroupCommit] {
            let dir = std::env::temp_dir()
                .join(format!("xic-service-panic-{}-{executor:?}", std::process::id()));
            let faulty = Faulty::real();
            let mut checker = Checker::new(XML, DTD, CONFLICT).expect("setup");
            checker.attach_store_in(faulty.dir(), &dir, false).expect("store");
            let service = CheckerService::new(checker, executor);
            let answers = answers_behind_a_held_lead(&service, || {
                let target = Target { op: Op::Append, ending: ".wal" };
                faulty.arm(Fault { target, under: dir.clone(), nth: 1, mode: FaultMode::Panic });
                service.submit(&legal("boom"))
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
            let _ = std::fs::remove_dir_all(&dir);
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
            let commit = service.commit();
            assert!(commit.model.pending.is_empty() && commit.model.lead == Lead::Idle);
            drop(commit);
            service.shutdown().expect("shutdown");
        }
    }

    /// A batch's index reads reach `STATS`: after one `UPDATE`, the
    /// service's `index_probes` / `index_builds` are what a twin checker
    /// counts on its own thread deciding and committing the same statement
    /// (the conflict check's join asks the document for the `aut` index).
    #[test]
    fn stats_count_an_updates_index_reads_as_a_twin_counts_them_in_thread() {
        let w = xic_workload::generate(xic_workload::WorkloadConfig::sized_kib(8, 1));
        let checker = || Checker::new(&w.xml, DTD, xic_workload::conflict_constraint()).expect("setup");
        let stmt = xic_workload::legal_insert(0, 0, 1);
        let reads = || [xic_obs::Counter::IndexProbe, xic_obs::Counter::IndexBuild].map(xic_obs::counter);
        let mut twin = checker();
        let before = reads();
        assert!(twin.try_update_str(&stmt).expect("decides").applied());
        let twin_reads = [reads()[0] - before[0], reads()[1] - before[1]];
        assert_eq!(twin_reads, [1, 1], "one probe, which builds the index");
        for executor in [Executor::Sync, Executor::GroupCommit] {
            let service = CheckerService::new(checker(), executor);
            assert!(service.submit(&stmt).expect("commits").outcome.applied());
            let stats = service.stats();
            assert_eq!([stats.index_probes, stats.index_builds], twin_reads, "{executor:?}");
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
            assert_eq!(service.commit().model.pending.len(), 1, "the follower left the queue");
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
