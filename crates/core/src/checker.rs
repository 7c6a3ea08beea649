//! The runtime integrity checker.

use crate::compile::{compile_pattern_with, CompiledPattern};
use crate::footprint::IndependenceIndex;
use crate::optimized::{OptimizedCheck, PatternCache, PatternEntry, Verdict};
use crate::resolver::xpath_resolver;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xic_datalog::Denial;
use xic_mapping::{map_denials, map_update, RelSchema};
use xic_simplify::{live_set, read_footprints, ReadFootprint};
use xic_translate::{translate_denials, QueryTemplate};
use xic_xml::checkpoint::{fsync_dir, Store, DEFAULT_RETAIN};
use xic_xml::journal::{crc32, Journal, RecordKind};
use xic_xml::{
    apply, parse_document, serialize, undo, AppliedUpdate, Document, Dtd, XUpdateDoc,
};
use xic_xpath::EvalBudget;
use xic_xquery::{parse_query, XProgram, XQueryError};

/// Documents below this node count are always checked sequentially: the
/// per-thread spawn/merge overhead dominates the §7 small-document regime.
const PARALLEL_FULL_MIN_NODES: usize = 8192;

/// Process-wide default for the static update/constraint independence
/// analysis on newly constructed checkers (on by default). An atomic
/// rather than a constructor parameter so ablation harnesses (the
/// difftest `--independence` flag, the benchmark driver) reach checkers
/// built deep inside library code.
static DEFAULT_INDEPENDENCE: AtomicBool = AtomicBool::new(true);

/// Sets whether subsequently constructed [`Checker`]s run the static
/// independence analysis (constraint skipping on the full-check paths and
/// read-footprint pre-filtering at pattern compile time). Existing
/// checkers are unaffected (use [`Checker::set_independence`]).
pub fn set_default_independence(enabled: bool) {
    DEFAULT_INDEPENDENCE.store(enabled, Ordering::Relaxed);
}

/// The current process-wide default for the independence analysis.
pub fn default_independence() -> bool {
    DEFAULT_INDEPENDENCE.load(Ordering::Relaxed)
}

/// Which strategy handled an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Optimized: the simplified check ran *before* the update; illegal
    /// statements were never executed.
    Optimized,
    /// Baseline: the update was applied, the full constraints checked in
    /// the new state, and a compensating rollback performed on violation.
    FullWithRollback,
}

/// A constraint violation report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The (possibly simplified) denial that fired.
    pub denial: String,
    /// The XQuery check that reported it.
    pub query: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "violation of `{}` (query: {})", self.denial, self.query)
    }
}

/// The outcome of [`Checker::try_update`].
#[derive(Debug, Clone)]
pub enum UpdateOutcome {
    /// The update passed its checks and is now applied.
    Applied {
        /// The strategy used.
        strategy: Strategy,
    },
    /// The update would violate integrity; the document is unchanged.
    Rejected {
        /// The strategy used.
        strategy: Strategy,
        /// What fired.
        violation: Violation,
    },
}

impl UpdateOutcome {
    /// True if the document was modified.
    pub fn applied(&self) -> bool {
        matches!(self, UpdateOutcome::Applied { .. })
    }

    /// The strategy that handled the statement.
    pub fn strategy(&self) -> Strategy {
        match self {
            UpdateOutcome::Applied { strategy } | UpdateOutcome::Rejected { strategy, .. } => {
                *strategy
            }
        }
    }
}

/// Checker failure.
#[derive(Debug, Clone)]
pub enum CheckerError {
    /// Malformed document/DTD/constraints at construction.
    Setup(String),
    /// Malformed XUpdate statement.
    Statement(String),
    /// Internal query failure (a bug or an unsupported corner).
    Query(String),
    /// The armed [`EvalBudget`] ran out of steps before the check
    /// finished. Only surfaced by the explicit check entry points
    /// ([`Checker::check_optimized`]); [`Checker::try_update`] instead
    /// degrades to the baseline pass.
    BudgetExhausted,
    /// A panic escaped from evaluation or apply and was contained; the
    /// payload message is preserved. The checker is now poisoned.
    Panicked(String),
    /// A mutating operation was refused because an earlier contained
    /// panic left the in-memory state suspect. Rebuild via
    /// [`Checker::recover`] (or a fresh constructor).
    Poisoned,
    /// Write-ahead journal failure: create/append/fsync, or a recovery
    /// that cannot proceed (base-snapshot mismatch, out-of-sequence or
    /// unreplayable record).
    Journal(String),
    /// A checkpoint snapshot or rotation failure (explicit
    /// [`Checker::checkpoint`] only; automatic-policy failures are
    /// non-fatal because the previous generation stays recoverable).
    Checkpoint(String),
    /// A mutating operation was refused because the checker came up in
    /// degraded read-only mode: [`Checker::recover_store`] found no
    /// generation that validates, so only the base document is being
    /// served and writes cannot be made durable.
    Degraded,
}

impl fmt::Display for CheckerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckerError::Setup(m) => write!(f, "setup error: {m}"),
            CheckerError::Statement(m) => write!(f, "bad statement: {m}"),
            CheckerError::Query(m) => write!(f, "query error: {m}"),
            CheckerError::BudgetExhausted => f.write_str("evaluation budget exhausted"),
            CheckerError::Panicked(m) => write!(f, "panic contained (checker poisoned): {m}"),
            CheckerError::Poisoned => {
                f.write_str("checker is poisoned by a contained panic; recover before mutating")
            }
            CheckerError::Journal(m) => write!(f, "journal error: {m}"),
            CheckerError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            CheckerError::Degraded => f.write_str(
                "checker is in degraded read-only mode (no journal generation validated); \
                 mutations are refused",
            ),
        }
    }
}

impl std::error::Error for CheckerError {}

/// Runtime counters, useful for the experiments.
///
/// These are per-[`Checker`] totals. For system-wide instrumentation —
/// phase timings and counters contributed by the XPath/XQuery engines and
/// the simplifier — see [`Checker::obs_snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Updates checked through a compiled pattern.
    pub optimized_checks: u64,
    /// Updates checked through apply + full check (+ rollback).
    pub full_checks: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Statements rejected before execution.
    pub early_rejections: u64,
    /// Updates whose pattern was already compiled when they arrived.
    pub pattern_cache_hits: u64,
    /// Updates whose pattern had to be compiled on first sight.
    pub pattern_cache_misses: u64,
    /// Optimized checks abandoned because the [`EvalBudget`] ran out
    /// (each one fell back to the baseline pass, so it is also counted
    /// in `full_checks`).
    pub budget_exhausted: u64,
}

/// What [`Checker::recover`] / [`Checker::recover_store`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Commit records replayed onto the recovery base (the winning
    /// snapshot, or the external base document for generation 0).
    pub replayed: usize,
    /// Abort records skipped (rolled-back batches; nothing to replay).
    pub aborts_skipped: usize,
    /// True if a torn or corrupt tail was detected and truncated.
    pub torn_tail_truncated: bool,
    /// The generation that won recovery (0 = the external base document;
    /// plain [`Checker::recover`] always reports 0).
    pub generation: u64,
    /// Committed-statement count already baked into the winning snapshot
    /// (replay resumed at version `base_commit_seq + 1`).
    pub base_commit_seq: u64,
    /// Newer generations that failed validation and were skipped before
    /// one won (or before degraded mode was entered).
    pub fallbacks: u64,
    /// Why each skipped generation was rejected, newest first.
    pub fallback_reasons: Vec<String>,
    /// True if *no* generation validated: the checker is serving the base
    /// document read-only (see [`CheckerError::Degraded`]).
    pub degraded: bool,
}

/// Configuration the store resumes under after
/// [`Checker::recover_store_with`]: crashed handles can't carry their
/// settings across the crash, so the caller restates them here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverOptions {
    /// Whether the recovered journal (and segments created by future
    /// rotations) fsync per record. Recovery itself always fsyncs what it
    /// writes regardless.
    pub sync: bool,
    /// Retention window for future rotations (see
    /// [`Checker::set_checkpoint_retain`]).
    pub retain: u64,
}

impl Default for RecoverOptions {
    /// The conservative defaults [`Checker::recover_store`] uses:
    /// fsync-per-record and [`DEFAULT_RETAIN`] generations.
    fn default() -> Self {
        RecoverOptions { sync: true, retain: DEFAULT_RETAIN }
    }
}

/// When to take an automatic checkpoint (rotation). The default is
/// entirely off: rotations happen only via explicit
/// [`Checker::checkpoint`] calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Rotate once this many statements have committed to the current
    /// journal segment.
    pub every_commits: Option<u64>,
    /// Rotate once the current segment exceeds this many bytes on disk.
    pub every_journal_bytes: Option<u64>,
}

impl CheckpointPolicy {
    /// Rotate every `n` committed statements (`n` clamped to ≥ 1).
    pub fn every_commits(n: u64) -> CheckpointPolicy {
        CheckpointPolicy { every_commits: Some(n.max(1)), every_journal_bytes: None }
    }

    /// Rotate once the segment exceeds `n` bytes.
    pub fn every_journal_bytes(n: u64) -> CheckpointPolicy {
        CheckpointPolicy { every_commits: None, every_journal_bytes: Some(n.max(1)) }
    }

    /// True when either trigger has been reached.
    fn due(&self, commits_in_segment: u64, segment_bytes: u64) -> bool {
        self.every_commits.is_some_and(|n| commits_in_segment >= n)
            || self.every_journal_bytes.is_some_and(|n| segment_bytes >= n)
    }
}

/// The compiled constraint-template set Γ plus everything derived from
/// the DTD: relational schema, Datalog denials, translated full-check
/// queries (parsed and IR-compiled), per-constraint read footprints and
/// the DTD name-graph independence index.
///
/// None of it depends on a document *instance*, only on the schema and
/// the constraints — so one `SharedGamma` is compiled once and shared
/// (`Arc`) by every [`Checker`] over the same schema. This is what makes
/// a [`crate::shards::ShardSet`] cheap: N shards hold N documents but
/// one Γ; the mapping, translation, IR compilation and footprint
/// analysis are paid once, not N times.
pub struct SharedGamma {
    dtd: Dtd,
    schema: RelSchema,
    /// Γ: the full constraint set as Datalog denials.
    gamma: Vec<Denial>,
    /// Closed XQuery checks for Γ (the "non-simplified" curve).
    full_queries: Vec<QueryTemplate>,
    /// `full_queries` parsed and compiled once, in the same order (they
    /// are closed, so the programs never change): [`Checker::check_full`]
    /// never re-parses the constraint set per statement.
    full_ir: Vec<XProgram>,
    /// Per-constraint read footprints, in `gamma` order.
    read_fps: Vec<ReadFootprint>,
    /// DTD name-graph index for statement-level write footprints.
    indep_index: IndependenceIndex,
}

impl SharedGamma {
    /// Compiles DTD text and an XPathLog constraint list (`.`-separated)
    /// into a shareable Γ.
    pub fn compile(dtd: &str, constraints: &str) -> Result<Arc<SharedGamma>, CheckerError> {
        let dtd = Dtd::parse(dtd).map_err(CheckerError::Setup)?;
        let ldenials = xic_xpathlog::parse_denials(constraints)
            .map_err(|e| CheckerError::Setup(e.to_string()))?;
        SharedGamma::from_parts(dtd, &ldenials)
    }

    /// Compiles a shareable Γ from parsed parts.
    pub fn from_parts(
        dtd: Dtd,
        constraints: &[xic_xpathlog::LDenial],
    ) -> Result<Arc<SharedGamma>, CheckerError> {
        let schema = RelSchema::from_dtd(&dtd).map_err(|e| CheckerError::Setup(e.to_string()))?;
        let gamma =
            map_denials(constraints, &schema, &dtd).map_err(|e| CheckerError::Setup(e.to_string()))?;
        let full_queries =
            translate_denials(&gamma, &schema).map_err(|e| CheckerError::Setup(e.to_string()))?;
        let full_ir = full_queries
            .iter()
            .map(|q| match parse_query(&q.text) {
                Ok(parsed) => Ok(XProgram::compile(&parsed)),
                Err(e) => Err(CheckerError::Setup(format!("{}: {e}", q.text))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let (read_fps, indep_index) = {
            let _compile = xic_obs::phase("compile");
            let _footprint = xic_obs::phase("footprint");
            (read_footprints(&gamma), IndependenceIndex::new(&dtd, &schema))
        };
        Ok(Arc::new(SharedGamma {
            dtd,
            schema,
            gamma,
            full_queries,
            full_ir,
            read_fps,
            indep_index,
        }))
    }

    /// The DTD.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// The relational schema.
    pub fn schema(&self) -> &RelSchema {
        &self.schema
    }

    /// The mapped constraint set Γ.
    pub fn constraints(&self) -> &[Denial] {
        &self.gamma
    }

    /// The translated full-check queries.
    pub fn full_queries(&self) -> &[QueryTemplate] {
        &self.full_queries
    }

    /// The compiled programs for [`SharedGamma::full_queries`], in order.
    pub(crate) fn full_ir(&self) -> &[XProgram] {
        &self.full_ir
    }

    /// Per-constraint read footprints, in [`SharedGamma::constraints`] order.
    pub(crate) fn read_fps(&self) -> &[ReadFootprint] {
        &self.read_fps
    }

    /// The DTD name-graph index backing statement write footprints.
    pub(crate) fn indep_index(&self) -> &IndependenceIndex {
        &self.indep_index
    }
}

/// The integrity checker: document + DTD + compiled constraints.
/// The integrity-checking façade: document + DTD + compiled constraint
/// set, with optional journal/store durability.
///
/// # Ownership under concurrency
///
/// A `Checker` is `Send` but deliberately **not** shared: all mutating
/// entry points take `&mut self`, so concurrent use means handing the
/// whole value to a single writer — exactly what
/// [`crate::service::CheckerService`] does (one writer thread owns the
/// `Checker`; readers see immutable [`crate::service::ReadSnapshot`]s
/// published per committed batch). Do not wrap a `Checker` in a lock
/// shared by readers and writers to "parallelize" it: read entry points
/// would serialize behind commits and the fsync in every commit would
/// stall them (the service exists to avoid precisely that).
pub struct Checker {
    doc: Document,
    /// The compiled constraint-template set Γ: everything derived from
    /// the DTD and the constraints but independent of the document
    /// instance. Shared (`Arc`) across every checker built over the same
    /// schema — see [`SharedGamma`].
    shared: Arc<SharedGamma>,
    /// Compiled update patterns, by pattern key.
    patterns: HashMap<String, Arc<PatternEntry>>,
    /// Optional cross-checker pattern cache (see [`PatternCache`]): local
    /// misses consult it before compiling, local compiles publish to it.
    pattern_cache: Option<Arc<PatternCache>>,
    /// Whether the static independence analysis masks the full-check
    /// paths and pre-filters pattern compilation (seeded from
    /// [`default_independence`] at construction).
    independence: bool,
    /// True while every parent→child element edge in `doc` is known to be
    /// DTD-licensed (see [`crate::footprint`]). Seeded by an edge walk at
    /// construction and degraded monotonically on commits that are not
    /// provably conformance-preserving; the reachability-based write
    /// footprints fall back to "all live" once it is lost.
    nesting_trusted: bool,
    /// `Some(b)` forces the full check to run parallel (`true`) or
    /// sequential (`false`); `None` picks by document size and core count.
    parallel_full: Option<bool>,
    /// Write-ahead journal; when attached, every committed update is
    /// durable before [`Checker::try_update`] returns its verdict.
    journal: Option<Journal>,
    /// Checkpointed store the journal is a segment of (when attached via
    /// [`Checker::attach_store`] / recovered via [`Checker::recover_store`]).
    store: Option<Store>,
    /// Automatic rotation policy (default: off).
    policy: CheckpointPolicy,
    /// Committed-statement count baked into the live generation's
    /// snapshot; the current segment holds versions `base_commit_seq + 1…`.
    base_commit_seq: u64,
    /// Set by [`Checker::recover_store`] when no generation validated:
    /// the checker serves reads but refuses mutations.
    degraded: bool,
    /// Committed-statement count — the version stamped on journal records.
    committed: u64,
    /// Set when a contained panic leaves the in-memory tree suspect;
    /// mutating operations are refused until recovery.
    poisoned: bool,
    /// Step budget armed around the optimized pre-update check.
    eval_budget: Option<EvalBudget>,
    stats: Stats,
}

impl Checker {
    /// Builds a checker from XML text, DTD text and XPathLog constraints
    /// (a `.`-separated list).
    pub fn new(xml: &str, dtd: &str, constraints: &str) -> Result<Checker, CheckerError> {
        let (doc, inline_dtd) = parse_document(xml).map_err(|e| CheckerError::Setup(e.to_string()))?;
        let dtd = if dtd.trim().is_empty() {
            inline_dtd.ok_or_else(|| CheckerError::Setup("no DTD provided".to_string()))?
        } else {
            Dtd::parse(dtd).map_err(CheckerError::Setup)?
        };
        let ldenials = xic_xpathlog::parse_denials(constraints)
            .map_err(|e| CheckerError::Setup(e.to_string()))?;
        Checker::from_parts(doc, dtd, &ldenials)
    }

    /// Builds a checker from parsed parts.
    pub fn from_parts(
        doc: Document,
        dtd: Dtd,
        constraints: &[xic_xpathlog::LDenial],
    ) -> Result<Checker, CheckerError> {
        dtd.validate(&doc)
            .map_err(|e| CheckerError::Setup(e.to_string()))?;
        let shared = SharedGamma::from_parts(dtd, constraints)?;
        Ok(Checker::assemble(doc, shared))
    }

    /// Builds a checker for `xml` over an already-compiled constraint set
    /// (validating the document against Γ's DTD). This is the shard
    /// constructor: N documents over one `Arc<SharedGamma>` pay Γ's
    /// compilation once.
    pub fn from_shared(xml: &str, shared: &Arc<SharedGamma>) -> Result<Checker, CheckerError> {
        let (doc, _) = parse_document(xml).map_err(|e| CheckerError::Setup(e.to_string()))?;
        shared
            .dtd
            .validate(&doc)
            .map_err(|e| CheckerError::Setup(e.to_string()))?;
        Ok(Checker::assemble(doc, Arc::clone(shared)))
    }

    /// [`Checker::from_parts`] / [`Checker::from_shared`] minus the DTD
    /// validation pass: used when rebuilding from a checkpoint snapshot,
    /// which records a *committed* state. Updates are not required to
    /// preserve DTD validity, so a snapshot may legitimately fail
    /// re-validation even though replaying the same history from the base
    /// document would accept it; integrity of the snapshot bytes is
    /// already guaranteed by its crc.
    fn assemble(doc: Document, shared: Arc<SharedGamma>) -> Checker {
        let nesting_trusted = {
            let _compile = xic_obs::phase("compile");
            let _footprint = xic_obs::phase("footprint");
            shared.indep_index.edges_conform(&doc)
        };
        Checker {
            doc,
            shared,
            patterns: HashMap::new(),
            pattern_cache: None,
            independence: default_independence(),
            nesting_trusted,
            parallel_full: None,
            journal: None,
            store: None,
            policy: CheckpointPolicy::default(),
            base_commit_seq: 0,
            degraded: false,
            committed: 0,
            poisoned: false,
            eval_budget: None,
            stats: Stats::default(),
        }
    }

    /// The compiled constraint set this checker evaluates (shareable
    /// across checkers; see [`SharedGamma`]).
    pub fn shared_gamma(&self) -> &Arc<SharedGamma> {
        &self.shared
    }

    /// Attaches a cross-checker pattern cache: patterns this checker
    /// already holds are published to it, pattern compilations it
    /// performs from now on are too, and patterns a sibling (or a
    /// snapshot reader) already compiled are adopted from it instead of
    /// recompiled. All sharing checkers must be built over the same
    /// [`SharedGamma`] (pattern keys are schema-scoped).
    pub fn set_pattern_cache(&mut self, cache: Arc<PatternCache>) {
        for (key, entry) in &mut self.patterns {
            *entry = cache.publish(key, Arc::clone(entry));
        }
        self.pattern_cache = Some(cache);
    }

    /// The attached cross-checker pattern cache, attaching a fresh one
    /// first when there is none (see [`Checker::set_pattern_cache`]).
    pub(crate) fn ensure_pattern_cache(&mut self) -> Arc<PatternCache> {
        if let Some(cache) = &self.pattern_cache {
            return Arc::clone(cache);
        }
        let cache = PatternCache::new();
        self.set_pattern_cache(Arc::clone(&cache));
        cache
    }

    /// The document.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// Mutable document access (for setup code such as workload loading).
    ///
    /// Untracked mutation invalidates the nesting-trust bit behind the
    /// independence analysis, so this conservatively clears it; call
    /// [`Checker::refresh_nesting_trust`] after setup to re-establish it
    /// with an O(n) edge walk.
    pub fn doc_mut(&mut self) -> &mut Document {
        self.nesting_trusted = false;
        &mut self.doc
    }

    /// Recomputes the nesting-trust bit by walking the document's element
    /// edges against the DTD name graph (used after direct mutation via
    /// [`Checker::doc_mut`]).
    pub fn refresh_nesting_trust(&mut self) {
        self.nesting_trusted = self.shared.indep_index.edges_conform(&self.doc);
    }

    /// The DTD.
    pub fn dtd(&self) -> &Dtd {
        &self.shared.dtd
    }

    /// The relational schema.
    pub fn schema(&self) -> &RelSchema {
        &self.shared.schema
    }

    /// The mapped constraint set Γ.
    pub fn constraints(&self) -> &[Denial] {
        &self.shared.gamma
    }

    /// The translated full-check queries.
    pub fn full_queries(&self) -> &[QueryTemplate] {
        &self.shared.full_queries
    }

    /// Whether the static independence analysis is active on this checker.
    pub fn independence(&self) -> bool {
        self.independence
    }

    /// Enables/disables the static independence analysis for this checker
    /// (ablation hook; the initial value comes from
    /// [`default_independence`] at construction).
    ///
    /// When on, the full-check paths of [`Checker::try_update`] and
    /// [`Checker::decide_only`] evaluate only the constraints whose read
    /// footprint intersects the statement's write footprint, and pattern
    /// compilation pre-filters Γ by relation overlap. Soundness rests on
    /// the paper's consistency premise (Theorem 1): like the simplified
    /// optimized checks, a skip assumes the pre-state satisfies the
    /// skipped constraint — which holds inductively from a consistent
    /// initial state, since every retained check guards its own
    /// constraint. Note that patterns compiled under one flag value are
    /// cached and not recompiled if the flag is flipped later (their
    /// templates are identical either way; only compile cost and the
    /// skip/retain counters differ).
    pub fn set_independence(&mut self, enabled: bool) {
        self.independence = enabled;
    }

    /// Whether the document's element nesting is currently known to be
    /// DTD-licensed (see [`crate::footprint::IndependenceIndex`]).
    pub fn nesting_trusted(&self) -> bool {
        self.nesting_trusted
    }

    /// The live-constraint mask for `stmt` on the *current* document
    /// state, or `None` when the analysis is off or every constraint is
    /// live. Computed before the statement is applied (the write footprint
    /// over-approximates the delta, so pre-state trust is the right
    /// premise).
    fn statement_live_mask(&self, stmt: &XUpdateDoc) -> Option<Vec<bool>> {
        if !self.independence {
            return None;
        }
        let _footprint = xic_obs::phase("footprint");
        let wfp = self.shared.indep_index.write_footprint(stmt, self.nesting_trusted);
        Some(live_set(&self.shared.read_fps, &wfp))
    }

    /// Lowers the nesting-trust bit after committing `stmt` unless the
    /// statement is provably conformance-preserving.
    fn note_committed(&mut self, stmt: &XUpdateDoc) {
        if self.nesting_trusted && !self.shared.indep_index.stmt_preserves_nesting(stmt) {
            self.nesting_trusted = false;
        }
    }

    /// Runtime counters.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// A JSON-serializable snapshot of the system-wide observability
    /// state: phase timings (`compile/after`, `check/full`, `update/apply`,
    /// …) and event counters contributed by every layer this thread drove
    /// (pattern cache, name index, XPath/XQuery node visits, simplifier
    /// clause counts). See [`xic_obs`] for the underlying machinery.
    ///
    /// The sink is thread-local and shared by all checkers on the thread;
    /// pair with [`Checker::obs_reset`] to scope a measurement.
    pub fn obs_snapshot(&self) -> xic_obs::Snapshot {
        xic_obs::snapshot()
    }

    /// Clears this thread's observability counters and phase accumulators
    /// (the per-checker [`Stats`] are unaffected).
    pub fn obs_reset(&self) {
        xic_obs::reset();
    }

    /// Registered patterns.
    pub fn patterns(&self) -> impl Iterator<Item = &CompiledPattern> {
        self.patterns.values().map(|e| &e.compiled)
    }

    /// Registers (at schema design time) the update pattern exemplified by
    /// `stmt`, compiling its simplified checks. Returns the pattern key.
    pub fn register_pattern(&mut self, stmt: &XUpdateDoc) -> Result<String, CheckerError> {
        let mapped = map_update(&self.doc, &self.shared.schema, stmt, &xpath_resolver)
            .map_err(|e| CheckerError::Statement(e.to_string()))?;
        let compiled =
            compile_pattern_with(&mapped, &self.shared.gamma, &self.shared.schema, self.independence);
        let key = compiled.key.clone();
        self.insert_pattern(key.clone(), compiled);
        Ok(key)
    }

    /// Caches a compiled pattern together with its IR precompilation (one
    /// compiled program per template; a `None` entry is instantiated,
    /// parsed and compiled at check time).
    fn insert_pattern(&mut self, key: String, compiled: CompiledPattern) {
        let entry = PatternEntry::build(compiled);
        let entry = publish_pattern(self.pattern_cache.as_ref(), &key, entry);
        self.patterns.insert(key, entry);
    }

    /// Local pattern lookup falling back to the shared cache (read-only;
    /// `&self` paths cannot adopt the entry into the local map).
    fn lookup_pattern(&self, key: &str) -> Option<Arc<PatternEntry>> {
        if let Some(entry) = self.patterns.get(key) {
            return Some(Arc::clone(entry));
        }
        self.pattern_cache.as_ref().and_then(|c| c.get(key))
    }

    /// The evaluator's view of this checker: the live document, Γ and the
    /// engine settings (see [`crate::optimized`]).
    fn optimized_check(&self) -> OptimizedCheck<'_> {
        OptimizedCheck {
            doc: &self.doc,
            gamma: &self.shared,
            independence: self.independence,
            budget: self.eval_budget,
        }
    }

    /// Runs the optimized pre-update check for `stmt`, compiling its
    /// pattern on first sight: a local miss adopts a sibling's entry from
    /// the shared cache (no compilation runs) or compiles and publishes.
    /// Also reports whether the pattern was a cache hit (local or
    /// shared); `None` when the statement never got as far as a pattern
    /// key.
    fn pre_check(&mut self, stmt: &XUpdateDoc) -> (Result<Verdict, CheckerError>, Option<bool>) {
        // Field-wise borrows: the evaluator reads the document and Γ
        // while the lookup grows the local pattern map.
        let check = OptimizedCheck {
            doc: &self.doc,
            gamma: &self.shared,
            independence: self.independence,
            budget: self.eval_budget,
        };
        let (patterns, cache) = (&mut self.patterns, self.pattern_cache.as_ref());
        let mut hit = None;
        let verdict = check.decide(stmt, |key, compile| {
            if let Some(entry) = patterns.get(key) {
                hit = Some(true);
                return Some(Arc::clone(entry));
            }
            let adopted = cache.and_then(|c| c.get(key));
            hit = Some(adopted.is_some());
            let entry = adopted.unwrap_or_else(|| publish_pattern(cache, key, compile()));
            patterns.insert(key.to_string(), Arc::clone(&entry));
            Some(entry)
        });
        (verdict, hit)
    }

    /// Registers a pattern from XUpdate text.
    pub fn register_pattern_str(&mut self, stmt: &str) -> Result<String, CheckerError> {
        let stmt = XUpdateDoc::parse(stmt).map_err(|e| CheckerError::Statement(e.to_string()))?;
        self.register_pattern(&stmt)
    }

    /// Overrides the parallel-dispatch heuristic of [`Checker::check_full`]:
    /// `Some(true)` always fans constraints out across threads, `Some(false)`
    /// always checks sequentially, `None` (the default) decides by document
    /// size and available cores.
    pub fn set_parallel_full(&mut self, force: Option<bool>) {
        self.parallel_full = force;
    }

    /// Attaches a write-ahead journal at `path` (created/truncated),
    /// stamped with a checksum of the *current* document state — the base
    /// the journal replays onto. From now on every statement committed by
    /// [`Checker::try_update`] / [`Checker::apply_unchecked`] is appended
    /// (and, with `sync`, fsync'd) before the verdict is returned.
    ///
    /// To recover after a crash, call [`Checker::recover`] with the same
    /// base document text. Note that — like the store variants — recovery
    /// does **not** remember this `sync` flag: the recovered journal
    /// always resumes with fsync-per-record enabled (the conservative
    /// choice; restate a different mode with
    /// [`Checker::set_journal_sync`], or use
    /// [`Checker::recover_store_with`]'s [`RecoverOptions`] on stores).
    pub fn attach_journal(&mut self, path: &Path, sync: bool) -> Result<(), CheckerError> {
        self.refuse_if_degraded()?;
        let base_crc = crc32(serialize(&self.doc).as_bytes());
        let journal = Journal::create(path, base_crc, sync)
            .map_err(|e| CheckerError::Journal(e.to_string()))?;
        self.journal = Some(journal);
        self.store = None;
        self.committed = 0;
        self.base_commit_seq = 0;
        Ok(())
    }

    /// Attaches a *checkpointed store* at directory `dir` (created if
    /// absent): generation 0 starts as a fresh journal segment keyed to
    /// the current document state, and [`Checker::checkpoint`] (or the
    /// automatic [`CheckpointPolicy`]) rotates to snapshot-backed
    /// generations from there. Recover with [`Checker::recover_store`].
    pub fn attach_store(&mut self, dir: &Path, sync: bool) -> Result<(), CheckerError> {
        self.refuse_if_degraded()?;
        let base_crc = crc32(serialize(&self.doc).as_bytes());
        let (store, journal) =
            Store::create(dir, base_crc, sync).map_err(|e| CheckerError::Checkpoint(e.to_string()))?;
        self.journal = Some(journal);
        self.store = Some(store);
        self.committed = 0;
        self.base_commit_seq = 0;
        Ok(())
    }

    /// True if a checkpointed store is attached.
    pub fn store_attached(&self) -> bool {
        self.store.is_some()
    }

    /// The live store generation (0 without a store or before the first
    /// rotation).
    pub fn store_generation(&self) -> u64 {
        self.store.as_ref().map_or(0, Store::generation)
    }

    /// Sets the automatic checkpoint policy (default: off). The policy is
    /// evaluated after every durable commit; a due rotation that *fails*
    /// is non-fatal — the current generation simply keeps growing and the
    /// next commit retries — because the old (snapshot, journal) pair
    /// remains fully recoverable throughout.
    pub fn set_checkpoint_policy(&mut self, policy: CheckpointPolicy) {
        self.policy = policy;
    }

    /// The automatic checkpoint policy.
    pub fn checkpoint_policy(&self) -> CheckpointPolicy {
        self.policy
    }

    /// How many generations the store retains as corruption fallbacks
    /// (see [`xic_xml::checkpoint::DEFAULT_RETAIN`]).
    pub fn set_checkpoint_retain(&mut self, retain: u64) {
        if let Some(s) = self.store.as_mut() {
            s.set_retain(retain);
        }
    }

    /// The store's configured retention window ([`DEFAULT_RETAIN`] when
    /// no store is attached) — what a recovery must restate to resume
    /// under the same configuration (see [`RecoverOptions`]).
    pub fn checkpoint_retain(&self) -> u64 {
        self.store.as_ref().map_or(DEFAULT_RETAIN, Store::retain)
    }

    /// Takes an explicit checkpoint: durably snapshots the current
    /// document (atomic tmp → fsync → rename → dir-fsync), starts a fresh
    /// journal segment keyed to it, and unlinks generations outside the
    /// retention window. Returns the new generation number.
    ///
    /// Requires an attached store. On failure the checker stays on its
    /// current generation, which remains fully recoverable.
    pub fn checkpoint(&mut self) -> Result<u64, CheckerError> {
        self.refuse_if_poisoned()?;
        self.refuse_if_degraded()?;
        let Some(store) = self.store.as_mut() else {
            return Err(CheckerError::Checkpoint(
                "no store attached (see Checker::attach_store)".to_string(),
            ));
        };
        let _d = xic_obs::phase("durability");
        let _c = xic_obs::phase("checkpoint");
        let xml = serialize(&self.doc);
        let journal =
            store.rotate(self.committed, &xml).map_err(|e| CheckerError::Checkpoint(e.to_string()))?;
        self.journal = Some(journal);
        self.base_commit_seq = self.committed;
        Ok(self.store_generation())
    }

    /// Runs a due automatic rotation after a durable commit. Failures are
    /// swallowed: the old generation is still recoverable and the policy
    /// stays due, so the next commit retries.
    fn maybe_auto_checkpoint(&mut self) {
        if self.store.is_none() {
            return;
        }
        let commits_in_segment = self.committed - self.base_commit_seq;
        let segment_bytes = self.journal.as_ref().map_or(0, Journal::byte_len);
        if self.policy.due(commits_in_segment, segment_bytes) {
            let _ = self.checkpoint();
        }
    }

    /// True if a journal is attached.
    pub fn journal_attached(&self) -> bool {
        self.journal.is_some()
    }

    /// Toggles fsync-per-commit on the attached journal (no-op without
    /// one). Disabling trades durability of the last few records for
    /// throughput; the journal structure stays crash-consistent.
    ///
    /// The group-commit executor ([`crate::service`]) runs a batch with
    /// sync disabled and then makes the whole batch durable at once with
    /// [`Checker::sync_journal`] before acknowledging any submitter.
    pub fn set_journal_sync(&mut self, sync: bool) {
        if let Some(j) = self.journal.as_mut() {
            j.set_sync(sync);
        }
    }

    /// Whether the attached journal fsyncs on every append (`false` when
    /// no journal is attached).
    pub fn journal_sync(&self) -> bool {
        self.journal.as_ref().is_some_and(Journal::sync)
    }

    /// Flushes every appended-but-unsynced journal record to stable
    /// storage with one fsync (no-op without a journal). This is the
    /// group-commit flush point: records appended with sync disabled are
    /// not durable until this returns `Ok` (see DESIGN.md row 19).
    pub fn sync_journal(&mut self) -> Result<(), CheckerError> {
        match self.journal.as_mut() {
            None => Ok(()),
            Some(j) => j.sync_now().map_err(|e| CheckerError::Journal(e.to_string())),
        }
    }

    /// Statements committed (and journaled, when a journal is attached)
    /// since construction or recovery.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Arms (or disarms, with `None`) a step budget for the optimized
    /// pre-update check. When the budget runs out mid-check,
    /// [`Checker::try_update`] degrades to the baseline pass (apply, full
    /// check, rollback on violation) — same verdict, bounded
    /// optimized-path latency — and [`Checker::check_optimized`] returns
    /// [`CheckerError::BudgetExhausted`]. The baseline pass itself always
    /// runs unbudgeted.
    pub fn set_eval_budget(&mut self, budget: Option<EvalBudget>) {
        self.eval_budget = budget;
    }

    /// The armed optimized-check budget, if any.
    pub fn eval_budget(&self) -> Option<EvalBudget> {
        self.eval_budget
    }

    /// True once a contained panic has poisoned this checker: the
    /// in-memory tree may be half-updated, so mutating operations return
    /// [`CheckerError::Poisoned`]. Rebuild the state with
    /// [`Checker::recover`].
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    fn refuse_if_poisoned(&self) -> Result<(), CheckerError> {
        if self.poisoned {
            Err(CheckerError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// True if [`Checker::recover_store`] found no generation that
    /// validates and came up in degraded read-only mode: `check_full`,
    /// `check_optimized` and `decide_only` still serve answers against
    /// the base document, but mutating entry points return
    /// [`CheckerError::Degraded`].
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    fn refuse_if_degraded(&self) -> Result<(), CheckerError> {
        if self.degraded {
            Err(CheckerError::Degraded)
        } else {
            Ok(())
        }
    }

    /// Rebuilds a checker after a crash: parses the *base* document (the
    /// state the journal was attached on), scans the journal at `journal`
    /// — truncating any torn tail — and replays the committed records in
    /// order. Abort records are skipped. The journal is left attached, so
    /// the recovered checker resumes journaling where the crashed one
    /// stopped.
    ///
    /// Like [`Checker::recover_store`], the resumed journal runs with
    /// **fsync-per-record enabled regardless of the crashed process's
    /// sync mode** — that configuration lived only in the lost process
    /// and the conservative default cannot lose acknowledged commits.
    /// Call [`Checker::set_journal_sync`] afterwards to restate a
    /// throughput-oriented mode (there is no `RecoverOptions` plumbing
    /// here because a bare journal has no retention window to restate).
    ///
    /// Fails with [`CheckerError::Journal`] if the base document does not
    /// match the journal's base checksum (e.g. a snapshot newer than the
    /// journal head), or if records are out of sequence or unreplayable.
    pub fn recover(
        xml: &str,
        dtd: &str,
        constraints: &str,
        journal: &Path,
    ) -> Result<(Checker, RecoveryReport), CheckerError> {
        let mut checker = Checker::new(xml, dtd, constraints)?;
        let base_crc = crc32(serialize(&checker.doc).as_bytes());
        let recovered = Journal::recover(journal, Some(base_crc))
            .map_err(|e| CheckerError::Journal(e.to_string()))?;
        let (replayed, aborts_skipped) = replay_into(&mut checker, &recovered.records, 0)?;
        checker.committed = replayed as u64;
        checker.journal = Some(recovered.journal);
        xic_obs::incr(xic_obs::Counter::Recovery);
        Ok((
            checker,
            RecoveryReport {
                replayed,
                aborts_skipped,
                torn_tail_truncated: recovered.torn,
                ..RecoveryReport::default()
            },
        ))
    }

    /// Rebuilds a checker from a checkpointed store directory (see
    /// [`Checker::attach_store`]), preferring the **newest valid
    /// checkpoint** and replaying only the journal suffix recorded since
    /// it — recovery cost is bounded by the rotation interval, not the
    /// full committed history.
    ///
    /// When the newest generation fails validation (corrupt snapshot,
    /// mismatched or unreplayable segment), recovery falls back
    /// generation by generation — each fallback is counted and its reason
    /// recorded in the [`RecoveryReport`] — ending at generation 0: the
    /// external `base_xml` plus its original segment. If *no* generation
    /// validates, the checker comes up in **degraded read-only mode**
    /// serving `check_full`/`decide_only` against the base document while
    /// refusing mutations ([`CheckerError::Degraded`]), instead of
    /// erroring out entirely.
    ///
    /// The recovered checker resumes under the conservative
    /// [`RecoverOptions::default`] — fsync-per-record and the default
    /// retention window — *regardless* of how the crashed store was
    /// configured (that configuration lived only in the lost process).
    /// Use [`Checker::recover_store_with`] to restate a different one.
    pub fn recover_store(
        dir: &Path,
        base_xml: &str,
        dtd: &str,
        constraints: &str,
    ) -> Result<(Checker, RecoveryReport), CheckerError> {
        Checker::recover_store_with(dir, base_xml, dtd, constraints, RecoverOptions::default())
    }

    /// [`Checker::recover_store`] with an explicit resume configuration
    /// (journal sync mode and rotation retention window). Γ is compiled
    /// **once** here and shared by every generation attempt (each used to
    /// re-parse and re-compile the constraint set from text).
    pub fn recover_store_with(
        dir: &Path,
        base_xml: &str,
        dtd: &str,
        constraints: &str,
        opts: RecoverOptions,
    ) -> Result<(Checker, RecoveryReport), CheckerError> {
        let shared = SharedGamma::compile(dtd, constraints)?;
        Checker::recover_store_shared(dir, base_xml, &shared, opts)
    }

    /// [`Checker::recover_store_with`] over an already-compiled Γ — the
    /// per-shard recovery entry point: a [`crate::shards::ShardSet`]
    /// compiles Γ once and fans this out across its shard directories
    /// (sequentially or in parallel), so recovery cost scales with the
    /// journal suffixes, not with N × constraint compilation.
    pub fn recover_store_shared(
        dir: &Path,
        base_xml: &str,
        shared: &Arc<SharedGamma>,
        opts: RecoverOptions,
    ) -> Result<(Checker, RecoveryReport), CheckerError> {
        let mut fallback_reasons: Vec<String> = Vec::new();
        let mut candidates = Store::snapshot_generations(dir);
        candidates.push(0); // the external base document is the final fallback
        for g in candidates {
            match Checker::recover_generation(dir, g, base_xml, shared, opts) {
                Ok((checker, mut report)) => {
                    report.fallbacks = fallback_reasons.len() as u64;
                    report.fallback_reasons = fallback_reasons;
                    xic_obs::incr(xic_obs::Counter::Recovery);
                    return Ok((checker, report));
                }
                Err(e) => {
                    xic_obs::incr(xic_obs::Counter::RecoveryGenerationFallback);
                    fallback_reasons.push(format!("generation {g}: {e}"));
                }
            }
        }
        // Every generation failed: serve the base document read-only
        // rather than refusing to come up at all.
        let mut checker = Checker::from_shared(base_xml, shared)?;
        checker.degraded = true;
        xic_obs::incr(xic_obs::Counter::Recovery);
        let report = RecoveryReport {
            degraded: true,
            fallbacks: fallback_reasons.len() as u64,
            fallback_reasons,
            ..RecoveryReport::default()
        };
        Ok((checker, report))
    }

    /// Attempts recovery from one specific generation; any error means
    /// "fall back to an older one".
    fn recover_generation(
        dir: &Path,
        generation: u64,
        base_xml: &str,
        shared: &Arc<SharedGamma>,
        opts: RecoverOptions,
    ) -> Result<(Checker, RecoveryReport), CheckerError> {
        let (mut checker, base_seq) = if generation == 0 {
            (Checker::from_shared(base_xml, shared)?, 0)
        } else {
            let ckpt = xic_xml::checkpoint::read(&Store::ckpt_path(dir, generation))
                .map_err(|e| CheckerError::Checkpoint(e.to_string()))?;
            // The snapshot is a committed state whose integrity the crc
            // already vouches for; DTD validity is not re-imposed because
            // updates need not preserve it (journal replay from the base
            // document doesn't re-validate either).
            let (doc, _) = xic_xml::parse_document(&ckpt.doc_xml)
                .map_err(|e| CheckerError::Checkpoint(e.to_string()))?;
            (Checker::assemble(doc, Arc::clone(shared)), ckpt.commit_seq)
        };
        let base_crc = crc32(serialize(&checker.doc).as_bytes());
        let wal = Store::wal_path(dir, generation);
        let (journal, records, torn) = if generation > 0 && !wal.exists() {
            // Crash between the snapshot's dir-fsync and the segment
            // create: the snapshot is durable with an empty suffix, so
            // start its segment now. But the same on-disk shape is left
            // by a *failed* rotation whose best-effort orphan unlink
            // didn't stick while commits kept flowing to the old
            // segment — accepting the snapshot then would silently
            // discard those acknowledged commits. Cross-check the older
            // segments first and fall back if any holds a commit past
            // the snapshot's sequence number.
            if let Some((og, v)) = newest_commit_in_older_segments(dir, generation, base_seq) {
                return Err(CheckerError::Checkpoint(format!(
                    "snapshot at commit {base_seq} has no segment while generation {og}'s \
                     segment holds committed version {v}; treating it as a failed-rotation \
                     orphan"
                )));
            }
            let j = Journal::create(&wal, base_crc, opts.sync)
                .map_err(|e| CheckerError::Journal(e.to_string()))?;
            // Mirror rotation protocol step 5: without a directory fsync
            // an OS crash could drop the fresh segment's name — and every
            // commit appended to it — while the snapshot survives,
            // re-entering this path and losing those commits.
            fsync_dir(dir).map_err(|e| CheckerError::Journal(e.to_string()))?;
            (j, Vec::new(), false)
        } else {
            let rec = Journal::recover(&wal, Some(base_crc))
                .map_err(|e| CheckerError::Journal(e.to_string()))?;
            (rec.journal, rec.records, rec.torn)
        };
        let (replayed, aborts_skipped) = replay_into(&mut checker, &records, base_seq)?;
        checker.committed = base_seq + replayed as u64;
        checker.base_commit_seq = base_seq;
        checker.journal = Some(journal);
        let mut store = Store::resume(dir, generation, opts.sync);
        store.set_retain(opts.retain);
        checker.store = Some(store);
        Ok((
            checker,
            RecoveryReport {
                replayed,
                aborts_skipped,
                torn_tail_truncated: torn,
                generation,
                base_commit_seq: base_seq,
                ..RecoveryReport::default()
            },
        ))
    }

    /// Runs the full (non-simplified) constraint check against the current
    /// document state. Returns the first violation, if any.
    ///
    /// Constraints are evaluated *existentially* — each check stops at the
    /// first witness binding instead of materializing every violation. With
    /// more than one constraint, a large document and more than one core,
    /// the constraints are fanned out over scoped threads (the verdict —
    /// first violation in constraint order — is identical to the
    /// sequential pass; see [`Checker::set_parallel_full`]).
    pub fn check_full(&self) -> Result<Option<Violation>, CheckerError> {
        self.check_full_masked(None)
    }

    /// [`Checker::check_full`] restricted to the constraints `live` marks
    /// `true` (all of them when `live` is `None`) — the bitset-guarded
    /// evaluation behind the static independence analysis. The verdict on
    /// a masked run equals the unmasked one whenever the skipped
    /// constraints' verdicts could not have changed, which is what the
    /// caller's footprint intersection established.
    fn check_full_masked(&self, live: Option<&[bool]>) -> Result<Option<Violation>, CheckerError> {
        let _check = xic_obs::phase("check");
        let _full = xic_obs::phase("full");
        let n = self.shared.full_ir.len();
        let indices: Vec<usize> = match live {
            None => (0..n).collect(),
            Some(mask) => {
                let retained: Vec<usize> =
                    (0..n).filter(|&i| mask.get(i).copied().unwrap_or(true)).collect();
                xic_obs::add(
                    xic_obs::Counter::ChecksSkippedStatic,
                    (n - retained.len()) as u64,
                );
                xic_obs::add(xic_obs::Counter::ChecksRetainedStatic, retained.len() as u64);
                retained
            }
        };
        let parallel = self.parallel_full.unwrap_or_else(|| {
            indices.len() > 1
                && self.doc.node_count() >= PARALLEL_FULL_MIN_NODES
                && std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
        });
        if parallel {
            self.check_full_parallel(&indices)
        } else {
            self.check_full_seq(&indices)
        }
    }

    /// Evaluates full-check constraint `i` existentially.
    fn eval_full_exists(&self, i: usize) -> Result<bool, XQueryError> {
        self.shared.full_ir[i].eval_exists(&self.doc, &[])
    }

    fn check_full_seq(&self, indices: &[usize]) -> Result<Option<Violation>, CheckerError> {
        for &i in indices {
            // A budget exhausted *here* can only be an externally armed
            // one (a per-request deadline): the checker's own budget is
            // scoped to the optimized pre-check. Keep it distinguishable
            // so the service can answer "timeout" instead of "query
            // error".
            let violated = self.eval_full_exists(i).map_err(|e| {
                if e.is_budget_exhausted() {
                    CheckerError::BudgetExhausted
                } else {
                    CheckerError::Query(format!("{}: {e}", self.shared.full_queries[i].text))
                }
            })?;
            if violated {
                return Ok(Some(Violation {
                    denial: self.shared.gamma[i].to_string(),
                    query: self.shared.full_queries[i].text.clone(),
                }));
            }
        }
        Ok(None)
    }

    /// Fans the constraint set out over scoped threads reading the shared
    /// `&Document`. Each worker evaluates a contiguous chunk existentially
    /// and ships its thread-local observability snapshot back; the parent
    /// merges the snapshots and resolves verdicts at the minimal constraint
    /// index, so the outcome is bit-identical to [`Checker::check_full_seq`].
    fn check_full_parallel(&self, indices: &[usize]) -> Result<Option<Violation>, CheckerError> {
        /// Per-worker result: indexed verdicts for the worker's chunk,
        /// plus its thread-local observability snapshot.
        type WorkerResult = (Vec<(usize, Result<bool, String>)>, xic_obs::Snapshot);
        xic_obs::incr(xic_obs::Counter::CheckFullParallel);
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(indices.len())
            .max(1);
        let chunk = indices.len().div_ceil(workers).max(1);
        let doc = &self.doc;
        let ir = &self.shared.full_ir;
        let per_worker: Vec<WorkerResult> = std::thread::scope(|s| {
                let handles: Vec<_> = indices
                    .chunks(chunk)
                    .map(|idxs| {
                        s.spawn(move || {
                            let verdicts = idxs
                                .iter()
                                .map(|&i| {
                                    let verdict =
                                        ir[i].eval_exists(doc, &[]).map_err(|e| e.to_string());
                                    (i, verdict)
                                })
                                .collect();
                            (verdicts, xic_obs::snapshot())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("full-check worker panicked"))
                    .collect()
            });
        let mut verdicts = Vec::with_capacity(indices.len());
        for (vs, snapshot) in per_worker {
            xic_obs::merge(&snapshot);
            verdicts.extend(vs);
        }
        verdicts.sort_unstable_by_key(|(i, _)| *i);
        for (i, verdict) in verdicts {
            match verdict {
                Err(e) => {
                    return Err(CheckerError::Query(format!(
                        "{}: {e}",
                        self.shared.full_queries[i].text
                    )))
                }
                Ok(true) => {
                    return Ok(Some(Violation {
                        denial: self.shared.gamma[i].to_string(),
                        query: self.shared.full_queries[i].text.clone(),
                    }))
                }
                Ok(false) => {}
            }
        }
        Ok(None)
    }

    /// The pre-PR3 baseline: runs the full constraint check with the
    /// *materializing* evaluator (every violation witness is enumerated
    /// before the boolean verdict is taken). Kept for the benchmarks and
    /// the differential oracles; production paths use [`Checker::check_full`].
    pub fn check_full_materialized(&self) -> Result<Option<Violation>, CheckerError> {
        let _check = xic_obs::phase("check");
        let _full = xic_obs::phase("full_materialized");
        for (i, program) in self.shared.full_ir.iter().enumerate() {
            let violated = program.eval_bool(&self.doc, &[]).map_err(|e| {
                CheckerError::Query(format!("{}: {e}", self.shared.full_queries[i].text))
            })?;
            if violated {
                return Ok(Some(Violation {
                    denial: self.shared.gamma[i].to_string(),
                    query: self.shared.full_queries[i].text.clone(),
                }));
            }
        }
        Ok(None)
    }

    /// Runs only the *optimized* pre-update check for `stmt` (no document
    /// modification). `Ok(None)`: the update is legal; `Ok(Some(v))`: it
    /// would violate `v`. Errors when the statement matches no compiled
    /// incremental pattern.
    pub fn check_optimized(&self, stmt: &XUpdateDoc) -> Result<Option<Violation>, CheckerError> {
        let verdict =
            self.optimized_check().decide(stmt, |key, _compile| self.lookup_pattern(key))?;
        decision(verdict)
    }

    /// Decides whether `stmt` would be accepted under the given strategy
    /// **without leaving any modification behind** — the hook the
    /// differential-fuzzing oracles compare strategies through.
    ///
    /// * [`Strategy::Optimized`] compiles the statement's pattern on first
    ///   sight (like [`Checker::try_update`]) and runs the simplified
    ///   pre-update checks; the document is never touched. Errors when the
    ///   pattern is not incrementally checkable.
    /// * [`Strategy::FullWithRollback`] applies the statement, runs the
    ///   full constraint check in the new state, and **always** rolls
    ///   back, whatever the verdict. A statement that fails to apply is
    ///   rolled back from its partial state and reported as a
    ///   [`CheckerError::Statement`].
    ///
    /// Returns `Ok(None)` when the update would be accepted and
    /// `Ok(Some(v))` when it would be rejected with violation `v`. The
    /// per-checker [`Stats`] are not affected.
    pub fn decide_only(
        &mut self,
        stmt: &XUpdateDoc,
        strategy: Strategy,
    ) -> Result<Option<Violation>, CheckerError> {
        self.refuse_if_poisoned()?;
        match strategy {
            Strategy::Optimized => decision(self.pre_check(stmt).0?),
            Strategy::FullWithRollback => {
                let live = self.statement_live_mask(stmt);
                let applied = {
                    let _update = xic_obs::phase("update");
                    let _apply = xic_obs::phase("apply");
                    apply(&mut self.doc, stmt, &xpath_resolver).map_err(|(e, partial)| {
                        undo(&mut self.doc, partial);
                        CheckerError::Statement(e.to_string())
                    })?
                };
                let verdict = self.check_full_masked(live.as_deref());
                {
                    let _update = xic_obs::phase("update");
                    let _rollback = xic_obs::phase("rollback");
                    undo(&mut self.doc, applied);
                }
                verdict
            }
        }
    }

    /// Applies `stmt` without any integrity check (workload setup). With a
    /// journal attached the statement is journaled like a committed
    /// update, so recovery replays it.
    pub fn apply_unchecked(&mut self, stmt: &XUpdateDoc) -> Result<(), CheckerError> {
        self.refuse_if_poisoned()?;
        self.refuse_if_degraded()?;
        let applied = self.apply_or_abort(stmt)?;
        self.note_committed(stmt);
        self.commit_journal(stmt, applied)
    }

    /// Applies `stmt`; on a mid-batch failure rolls the already-applied
    /// prefix back and journals an abort record before reporting the
    /// error (the document is unchanged either way).
    fn apply_or_abort(&mut self, stmt: &XUpdateDoc) -> Result<AppliedUpdate, CheckerError> {
        let _update = xic_obs::phase("update");
        let _apply = xic_obs::phase("apply");
        match apply(&mut self.doc, stmt, &xpath_resolver) {
            Ok(applied) => Ok(applied),
            Err((e, partial)) => {
                undo(&mut self.doc, partial);
                self.journal_abort(stmt);
                Err(CheckerError::Statement(e.to_string()))
            }
        }
    }

    /// Best-effort abort record: documents a rolled-back batch. Failure to
    /// append it is swallowed — the statement already failed, the document
    /// is restored, and replay skips aborts anyway.
    fn journal_abort(&mut self, stmt: &XUpdateDoc) {
        let next = self.committed + 1;
        if let Some(j) = self.journal.as_mut() {
            let _ = j.append(RecordKind::Abort, next, &stmt.to_xml());
        }
    }

    /// Appends the commit record for an update that is applied in memory,
    /// fsync'ing (per the journal's sync mode) before returning — i.e.
    /// before the caller sees the verdict. On append failure the update is
    /// rolled back so document and journal stay in step; on a failure
    /// *after* the record is durable the checker is poisoned instead,
    /// because in-memory and on-disk state now agree with each other but
    /// not with the error the caller sees.
    fn commit_journal(
        &mut self,
        stmt: &XUpdateDoc,
        applied: AppliedUpdate,
    ) -> Result<(), CheckerError> {
        if self.journal.is_none() {
            // Still a commit: `committed()` counts committed statements
            // (and is the service's snapshot version) whether or not a
            // journal records them.
            self.committed += 1;
            return Ok(());
        }
        let next = self.committed + 1;
        let append = match xic_faults::fire("checker.commit.pre") {
            Err(e) => Err(xic_xml::JournalError::from(e)),
            Ok(()) => self
                .journal
                .as_mut()
                .expect("journal presence checked above")
                .append(RecordKind::Commit, next, &stmt.to_xml()),
        };
        match append {
            Ok(()) => {
                self.committed = next;
                if let Err(e) = xic_faults::fire("checker.commit.post") {
                    self.poisoned = true;
                    return Err(CheckerError::Journal(format!(
                        "{e} (after durable commit; checker poisoned)"
                    )));
                }
                self.maybe_auto_checkpoint();
                Ok(())
            }
            Err(e) => {
                undo(&mut self.doc, applied);
                Err(CheckerError::Journal(e.to_string()))
            }
        }
    }

    /// Checks and (when legal) applies an update statement given as text.
    pub fn try_update_str(&mut self, stmt: &str) -> Result<UpdateOutcome, CheckerError> {
        let stmt = XUpdateDoc::parse(stmt).map_err(|e| CheckerError::Statement(e.to_string()))?;
        self.try_update(&stmt)
    }

    /// Checks and (when legal) applies an update statement.
    ///
    /// * If the statement matches a compiled incremental pattern, the
    ///   simplified checks run against the **current** state; on violation
    ///   the statement is rejected without being executed.
    /// * Otherwise the baseline strategy runs: apply, full check in the
    ///   new state, compensating rollback on violation.
    ///
    /// Statements new to the checker are compiled on first sight (the
    /// paper generates simplifications at schema design time; compiling
    /// lazily here only changes *when* the one-off cost is paid — see the
    /// `simplify_time` benchmark for its magnitude).
    /// Any panic escaping evaluation or apply is contained here
    /// (`catch_unwind`): it is returned as [`CheckerError::Panicked`] and
    /// the checker is poisoned — mutating operations are refused until the
    /// state is rebuilt with [`Checker::recover`]. With a journal attached
    /// the commit record is durable before the verdict is returned.
    pub fn try_update(&mut self, stmt: &XUpdateDoc) -> Result<UpdateOutcome, CheckerError> {
        self.refuse_if_poisoned()?;
        self.refuse_if_degraded()?;
        match catch_unwind(AssertUnwindSafe(|| self.try_update_inner(stmt))) {
            Ok(result) => result,
            Err(payload) => {
                self.poisoned = true;
                xic_obs::incr(xic_obs::Counter::PanicContained);
                Err(CheckerError::Panicked(panic_message(&*payload)))
            }
        }
    }

    fn try_update_inner(&mut self, stmt: &XUpdateDoc) -> Result<UpdateOutcome, CheckerError> {
        // Try the optimized path; anything but a verdict degrades to the
        // baseline pass (non-insertion statement, no incremental pattern,
        // or evaluation budget exhausted).
        let (verdict, hit) = self.pre_check(stmt);
        match hit {
            // A hit in the shared cache counts too: either way no
            // compilation ran for this statement.
            Some(true) => {
                self.stats.pattern_cache_hits += 1;
                xic_obs::incr(xic_obs::Counter::PatternCacheHit);
            }
            Some(false) => {
                self.stats.pattern_cache_misses += 1;
                xic_obs::incr(xic_obs::Counter::PatternCacheMiss);
            }
            None => {}
        }
        // Anything else — an evaluation error included — means the
        // simplified checks ran.
        if !matches!(verdict, Ok(Verdict::NotIncremental(_))) {
            self.stats.optimized_checks += 1;
        }
        match verdict? {
            Verdict::NotIncremental(_) => {}
            Verdict::Exhausted => {
                // Degrade gracefully: the (unbudgeted) baseline pass below
                // materializes the update and full-checks the new state,
                // returning the verdict the optimized check would have.
                self.stats.budget_exhausted += 1;
            }
            Verdict::Violated(violation) => {
                self.stats.early_rejections += 1;
                return Ok(UpdateOutcome::Rejected {
                    strategy: Strategy::Optimized,
                    violation,
                });
            }
            Verdict::Legal => {
                // Legal: now (and only now) execute the update, then make
                // the commit durable before returning the verdict.
                let applied = self.apply_or_abort(stmt)?;
                self.note_committed(stmt);
                self.commit_journal(stmt, applied)?;
                return Ok(UpdateOutcome::Applied {
                    strategy: Strategy::Optimized,
                });
            }
        }
        // Baseline: apply, check (masked to the statically live
        // constraints), roll back on violation. The mask is computed
        // against the pre-state, whose nesting trust justifies the
        // footprint's reachability arguments.
        self.stats.full_checks += 1;
        let live = self.statement_live_mask(stmt);
        let trusted_before = self.nesting_trusted;
        let applied = self.apply_or_abort(stmt)?;
        self.note_committed(stmt);
        // A check *error* (an exhausted per-request deadline budget, an
        // engine failure) rolls the applied update back before
        // propagating: verdict-or-error, never a modified document with
        // no commit record — the journal and the in-memory state must
        // not diverge under the service's batch path.
        let checked = match self.check_full_masked(live.as_deref()) {
            Ok(verdict) => verdict,
            Err(e) => {
                {
                    let _update = xic_obs::phase("update");
                    let _rollback = xic_obs::phase("rollback");
                    undo(&mut self.doc, applied);
                }
                self.nesting_trusted = trusted_before;
                return Err(e);
            }
        };
        match checked {
            None => {
                self.commit_journal(stmt, applied)?;
                Ok(UpdateOutcome::Applied {
                    strategy: Strategy::FullWithRollback,
                })
            }
            Some(violation) => {
                {
                    let _update = xic_obs::phase("update");
                    let _rollback = xic_obs::phase("rollback");
                    undo(&mut self.doc, applied);
                }
                self.nesting_trusted = trusted_before;
                self.stats.rollbacks += 1;
                Ok(UpdateOutcome::Rejected {
                    strategy: Strategy::FullWithRollback,
                    violation,
                })
            }
        }
    }
}

/// Publishes a freshly compiled entry to the shared cache, when one is
/// attached, and returns the entry to keep: the cache's (first publisher
/// wins), or `entry` itself without a cache.
fn publish_pattern(
    cache: Option<&Arc<PatternCache>>,
    key: &str,
    entry: Arc<PatternEntry>,
) -> Arc<PatternEntry> {
    match cache {
        Some(cache) => cache.publish(key, entry),
        None => entry,
    }
}

/// An optimized-check verdict as the explicit check entry points report
/// it: no pattern and an exhausted budget are errors there, not
/// fallbacks.
fn decision(verdict: Verdict) -> Result<Option<Violation>, CheckerError> {
    match verdict {
        Verdict::Legal => Ok(None),
        Verdict::Violated(v) => Ok(Some(v)),
        Verdict::Exhausted => Err(CheckerError::BudgetExhausted),
        Verdict::NotIncremental(reason) => Err(CheckerError::Statement(reason.to_string())),
    }
}

/// Scans the segments of generations older than `generation` for commit
/// records with versions past `commit_seq`, returning the generation and
/// highest such version found. A hit means `generation`'s snapshot is a
/// failed-rotation orphan: commits were durably acknowledged on an older
/// segment *after* the snapshot was taken, so recovering the snapshot
/// with an empty suffix would discard them. Unreadable segments prove
/// nothing and are skipped (their own recovery attempt will surface the
/// problem).
fn newest_commit_in_older_segments(
    dir: &Path,
    generation: u64,
    commit_seq: u64,
) -> Option<(u64, u64)> {
    let mut newest: Option<(u64, u64)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(g) = name
            .strip_prefix("gen-")
            .and_then(|rest| rest.strip_suffix(".wal"))
            .and_then(|g| g.parse::<u64>().ok())
        else {
            continue;
        };
        if g >= generation {
            continue;
        }
        // Versions matter here, not the base document, so skip the
        // base-crc expectation. (`Journal::recover` truncates a torn
        // tail in passing — exactly what recovering this segment as a
        // fallback would do anyway.)
        let Ok(rec) = Journal::recover(&entry.path(), None) else { continue };
        let max = rec
            .records
            .iter()
            .filter(|r| matches!(r.kind, RecordKind::Commit))
            .map(|r| r.version)
            .max();
        if let Some(v) = max {
            if v > commit_seq && newest.is_none_or(|(_, best)| v > best) {
                newest = Some((g, v));
            }
        }
    }
    newest
}

/// Replays journal records onto `checker`'s document. Commit versions
/// must run `base_seq + 1, base_seq + 2, …` consecutively (the recovery
/// base already contains the first `base_seq` statements); abort records
/// are skipped. Returns `(replayed, aborts_skipped)`.
fn replay_into(
    checker: &mut Checker,
    records: &[xic_xml::JournalRecord],
    base_seq: u64,
) -> Result<(usize, usize), CheckerError> {
    let mut replayed = 0usize;
    let mut aborts_skipped = 0usize;
    for rec in records {
        match rec.kind {
            RecordKind::Abort => aborts_skipped += 1,
            RecordKind::Commit => {
                let expected = base_seq + replayed as u64 + 1;
                if rec.version != expected {
                    return Err(CheckerError::Journal(format!(
                        "commit record out of sequence: found version {}, expected {expected}",
                        rec.version
                    )));
                }
                let stmt = XUpdateDoc::parse(&rec.stmt).map_err(|e| {
                    CheckerError::Journal(format!("record {expected} does not parse: {e}"))
                })?;
                if let Err((e, partial)) = apply(&mut checker.doc, &stmt, &xpath_resolver) {
                    undo(&mut checker.doc, partial);
                    return Err(CheckerError::Journal(format!(
                        "replay of record {expected} failed: {e}"
                    )));
                }
                replayed += 1;
            }
        }
    }
    // The replayed statements bypassed per-commit trust maintenance;
    // re-derive the nesting-trust bit from the final state in one walk.
    checker.refresh_nesting_trust();
    Ok((replayed, aborts_skipped))
}

/// Renders a caught panic payload (the `&str`/`String` cases cover every
/// `panic!` in this workspace; anything else is reported generically).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DTD: &str = "<!ELEMENT collection (dblp, review)>\n\
        <!ELEMENT dblp (pub)*>\n<!ELEMENT pub (title, aut+)>\n\
        <!ELEMENT aut (name)>\n<!ELEMENT review (track)+>\n\
        <!ELEMENT track (name,rev+)>\n<!ELEMENT rev (name, sub+)>\n\
        <!ELEMENT sub (title, auts+)>\n<!ELEMENT title (#PCDATA)>\n\
        <!ELEMENT auts (name)>\n<!ELEMENT name (#PCDATA)>";

    const CORPUS: &str = "<collection><dblp>\
        <pub><title>P1</title><aut><name>ann</name></aut><aut><name>bob</name></aut></pub>\
        </dblp><review><track><name>T</name>\
        <rev><name>ann</name><sub><title>S1</title><auts><name>cat</name></auts></sub></rev>\
        <rev><name>dan</name><sub><title>S2</title><auts><name>eve</name></auts></sub></rev>\
        </track></review></collection>";

    const CONFLICT: &str = "<- //rev[name/text() -> R]/sub/auts/name/text() -> A \
        & (A = R | //pub[aut/name/text() -> A & aut/name/text() -> R])";

    fn insert_sub(rev_sel: &str, author: &str) -> String {
        format!(
            r#"<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
              <xupdate:append select="{rev_sel}">
                <sub><title>New</title><auts><name>{author}</name></auts></sub>
              </xupdate:append>
            </xupdate:modifications>"#
        )
    }

    #[test]
    fn optimized_path_accepts_legal_update() {
        let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
        c.register_pattern_str(&insert_sub("//rev[name/text() = 'dan']", "zoe"))
            .unwrap();
        let out = c
            .try_update_str(&insert_sub("//rev[name/text() = 'dan']", "zoe"))
            .unwrap();
        assert!(out.applied());
        assert_eq!(out.strategy(), Strategy::Optimized);
        assert_eq!(c.stats().optimized_checks, 1);
        assert_eq!(c.doc().elements_named("sub").len(), 3);
        assert!(c.check_full().unwrap().is_none());
    }

    #[test]
    fn optimized_path_rejects_self_review_before_applying() {
        let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
        // Ann reviewing Ann's own paper violates the first disjunct.
        let out = c
            .try_update_str(&insert_sub("//rev[name/text() = 'ann']", "ann"))
            .unwrap();
        let UpdateOutcome::Rejected { strategy, violation } = out else {
            panic!("must reject");
        };
        assert_eq!(strategy, Strategy::Optimized);
        assert!(violation.denial.contains("rev"), "{violation}");
        // The document is untouched: early detection.
        assert_eq!(c.doc().elements_named("sub").len(), 2);
        assert_eq!(c.stats().early_rejections, 1);
        assert_eq!(c.stats().rollbacks, 0);
    }

    #[test]
    fn optimized_path_rejects_coauthor_conflict() {
        let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
        // Ann coauthored P1 with Bob: Bob's submission cannot go to Ann.
        let out = c
            .try_update_str(&insert_sub("//rev[name/text() = 'ann']", "bob"))
            .unwrap();
        assert!(!out.applied());
        assert_eq!(out.strategy(), Strategy::Optimized);
        // But Dan can review Bob's work.
        let ok = c
            .try_update_str(&insert_sub("//rev[name/text() = 'dan']", "bob"))
            .unwrap();
        assert!(ok.applied());
    }

    #[test]
    fn fallback_on_non_insertion() {
        let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
        // A rename is not an insertion: baseline strategy.
        let out = c
            .try_update_str(
                r#"<xupdate:modifications xmlns:xupdate="x">
                  <xupdate:update select="//rev[name/text() = 'dan']/name">don</xupdate:update>
                </xupdate:modifications>"#,
            )
            .unwrap();
        assert!(out.applied());
        assert_eq!(out.strategy(), Strategy::FullWithRollback);
        assert_eq!(c.stats().full_checks, 1);
    }

    #[test]
    fn fallback_rolls_back_illegal_update() {
        let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
        // Make Ann's self-review arrive via `update` (not an insertion):
        // rewrite Cat's name to Ann.
        let before = xic_xml::serialize(c.doc());
        let out = c
            .try_update_str(
                r#"<xupdate:modifications xmlns:xupdate="x">
                  <xupdate:update select="//rev[name/text() = 'ann']/sub/auts/name">ann</xupdate:update>
                </xupdate:modifications>"#,
            )
            .unwrap();
        assert!(!out.applied());
        assert_eq!(out.strategy(), Strategy::FullWithRollback);
        assert_eq!(c.stats().rollbacks, 1);
        assert_eq!(xic_xml::serialize(c.doc()), before, "rollback must restore");
    }

    #[test]
    fn aggregate_constraint_end_to_end() {
        let constraint = "<- //rev -> R & cnt{R/sub} > 2";
        let mut c = Checker::new(CORPUS, DTD, constraint).unwrap();
        // Dan has 1 sub; a second is fine, the third (count 3 > 2) must be
        // rejected before execution.
        let out = c
            .try_update_str(&insert_sub("//rev[name/text() = 'dan']", "w0"))
            .unwrap();
        assert!(out.applied(), "second sub must pass");
        let out = c
            .try_update_str(&insert_sub("//rev[name/text() = 'dan']", "w9"))
            .unwrap();
        assert!(!out.applied(), "third sub must be rejected");
        assert_eq!(out.strategy(), Strategy::Optimized);
        assert_eq!(c.doc().elements_named("sub").len(), 3);
    }

    #[test]
    fn check_optimized_errors_without_pattern() {
        let c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
        let stmt = XUpdateDoc::parse(&insert_sub("//rev[name/text() = 'dan']", "zoe")).unwrap();
        assert!(matches!(
            c.check_optimized(&stmt),
            Err(CheckerError::Statement(_))
        ));
    }

    #[test]
    fn parallel_full_check_matches_sequential() {
        // Two constraints; the document is driven into a state violating
        // only the *second*, so verdict order matters.
        let constraints = "<- //rev -> R & cnt{R/sub} > 5 . \
            <- //rev[name/text() -> R]/sub/auts/name/text() -> A & A = R";
        let mut c = Checker::new(CORPUS, DTD, constraints).unwrap();
        let stmt = XUpdateDoc::parse(&insert_sub("//rev[name/text() = 'ann']", "ann")).unwrap();
        c.apply_unchecked(&stmt).unwrap();

        c.set_parallel_full(Some(false));
        let seq = c.check_full().unwrap().expect("self-review must violate");
        c.set_parallel_full(Some(true));
        c.obs_reset();
        let par = c.check_full().unwrap().expect("self-review must violate");
        assert_eq!(seq, par, "parallel verdict must match sequential");
        assert!(par.denial.contains("rev"), "{par}");
        let snap = c.obs_snapshot();
        let count = |n: &str| snap.counters.iter().find(|(k, _)| k == n).map_or(0, |(_, v)| *v);
        assert_eq!(count("check_full_parallel"), 1);
        // The workers' engine counters were merged back into this thread.
        assert!(count("xquery_bindings_visited") > 0, "{:?}", snap.counters);

        // And both agree with the materializing baseline.
        let base = c.check_full_materialized().unwrap().expect("baseline must agree");
        assert_eq!(base, par);
    }

    #[test]
    fn setup_rejects_invalid_document() {
        let bad = "<collection><dblp/><review><track><name>T</name></track></review></collection>";
        assert!(matches!(
            Checker::new(bad, DTD, CONFLICT),
            Err(CheckerError::Setup(_))
        ));
    }
}
