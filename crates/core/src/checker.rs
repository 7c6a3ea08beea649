//! The runtime integrity checker: the [`Checker`] façade and its update
//! path. What it evaluates lives in [`crate::gamma`] (the compiled Γ and
//! the baseline check) and [`crate::optimized`] (the pre-update check and
//! the pattern store); how commits become durable lives in
//! [`crate::durability`].

use crate::compile::{compile_pattern, CompiledPattern};
use crate::durability::{CommitError, CommitLog};
use crate::gamma::{Baseline, SharedGamma};
use crate::optimized::{OptimizedCheck, PatternCache, PatternEntry, Verdict};
use crate::resolver::xpath_resolver;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use xic_datalog::Denial;
use xic_mapping::{map_update, RelSchema};
use xic_translate::QueryTemplate;
use xic_xml::{
    apply, parse_document, undo, AppliedUpdate, Document, Dtd, XUpdateDoc, XUpdateError,
};

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
    /// The step budget armed around the call
    /// ([`xic_xpath::budget::arm`] — the service arms one per request
    /// deadline) ran out before the check finished. Nothing was applied
    /// and nothing is retried on a costlier path.
    BudgetExhausted,
    /// A panic escaped from evaluation or apply and was contained; the
    /// payload message is preserved. The checker is now poisoned.
    Panicked(String),
    /// A mutating operation was refused because an earlier contained
    /// panic left the in-memory state suspect. Rebuild via
    /// [`Checker::recover_store`] (or a fresh constructor).
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

impl CheckerError {
    /// An evaluation failure of the check `query`. An exhausted budget
    /// can only be one the caller armed (a request deadline): it stays
    /// typed, so the service can answer "timeout", not "query error".
    pub(crate) fn eval(query: &str, e: xic_xquery::XQueryError) -> CheckerError {
        if e.is_budget_exhausted() {
            CheckerError::BudgetExhausted
        } else {
            CheckerError::Query(format!("{query}: {e}"))
        }
    }
}

/// A statement that does not apply is the client's error; a `select`
/// that ran out of budget is a timeout.
impl From<XUpdateError> for CheckerError {
    fn from(e: XUpdateError) -> CheckerError {
        match e {
            XUpdateError::BudgetExhausted => CheckerError::BudgetExhausted,
            e => CheckerError::Statement(e.to_string()),
        }
    }
}

/// Runtime counters, useful for the experiments.
///
/// These are per-[`Checker`] totals. For system-wide instrumentation —
/// phase timings and counters contributed by the XPath/XQuery engines and
/// the simplifier — see [`xic_obs::snapshot`].
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
    /// Planned joins and keyed steps of [`Checker::try_update`]'s checks
    /// that the document's value index answered
    /// ([`xic_obs::Counter::IndexProbe`]).
    pub index_probes: u64,
    /// Value indexes those probes built, a shape's first on this document
    /// ([`xic_obs::Counter::IndexBuild`]).
    pub index_builds: u64,
}

/// Runs `f` and reports, beside its result, how many planned sites it
/// answered from a document's index and how many indexes that built (this
/// thread's [`xic_obs::Counter::IndexProbe`] / `IndexBuild` deltas).
pub(crate) fn index_reads<T>(f: impl FnOnce() -> T) -> (T, [u64; 2]) {
    let read = || [xic_obs::Counter::IndexProbe, xic_obs::Counter::IndexBuild].map(xic_obs::counter);
    let before = read();
    let value = f();
    let after = read();
    (value, [after[0].saturating_sub(before[0]), after[1].saturating_sub(before[1])])
}

/// The integrity-checking façade: document + DTD + compiled constraint
/// set, with optional store durability.
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
    pub(crate) doc: Document,
    /// The compiled constraint-template set Γ: everything derived from
    /// the DTD and the constraints but independent of the document
    /// instance. Shared (`Arc`) across every checker built over the same
    /// schema — see [`SharedGamma`].
    shared: Arc<SharedGamma>,
    /// Compiled update patterns, by pattern key: fresh and private by
    /// default, one store shared with siblings and snapshot readers after
    /// [`Checker::set_pattern_cache`].
    patterns: Arc<PatternCache>,
    /// Whether the static independence analysis masks the full-check
    /// paths and pre-filters pattern compilation (on unless
    /// [`Checker::set_independence`] turns it off).
    independence: bool,
    /// Journal, store, rotation policy and commit counters.
    pub(crate) log: CommitLog,
    /// Set by [`Checker::recover_store`] when no generation validated:
    /// the checker serves reads but refuses mutations.
    pub(crate) degraded: bool,
    /// Set when a contained panic leaves the in-memory tree suspect;
    /// mutating operations are refused until recovery.
    poisoned: bool,
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
        shared.dtd().validate(&doc).map_err(|e| CheckerError::Setup(e.to_string()))?;
        Ok(Checker::assemble(doc, Arc::clone(shared)))
    }

    /// [`Checker::from_parts`] / [`Checker::from_shared`] minus the DTD
    /// validation pass: used when rebuilding from a checkpoint snapshot,
    /// which records a *committed* state. Updates are not required to
    /// preserve DTD validity, so a snapshot may legitimately fail
    /// re-validation even though replaying the same history from the base
    /// document would accept it; integrity of the snapshot bytes is
    /// already guaranteed by its crc.
    pub(crate) fn assemble(doc: Document, shared: Arc<SharedGamma>) -> Checker {
        Checker {
            doc,
            shared,
            patterns: PatternCache::new(),
            independence: true,
            log: CommitLog::default(),
            degraded: false,
            poisoned: false,
            stats: Stats::default(),
        }
    }

    /// The compiled constraint set this checker evaluates (shareable
    /// across checkers; see [`SharedGamma`]).
    pub fn shared_gamma(&self) -> &Arc<SharedGamma> {
        &self.shared
    }

    /// Swaps in a cross-checker pattern store: patterns this checker
    /// already holds are republished into it, pattern compilations it
    /// performs from now on land in it, and patterns a sibling (or a
    /// snapshot reader) already compiled are used instead of recompiled.
    /// All sharing checkers must be built over the same [`SharedGamma`]
    /// (pattern keys are schema-scoped).
    pub fn set_pattern_cache(&mut self, cache: Arc<PatternCache>) {
        self.patterns.republish_into(&cache);
        self.patterns = cache;
    }

    /// The pattern store this checker compiles into and looks up from.
    pub(crate) fn pattern_cache(&self) -> &Arc<PatternCache> {
        &self.patterns
    }

    /// The document.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// Mutable document access (for setup code such as workload loading).
    /// A mutation made through it is neither checked nor journaled.
    pub fn doc_mut(&mut self) -> &mut Document {
        &mut self.doc
    }

    /// The DTD.
    pub fn dtd(&self) -> &Dtd {
        self.shared.dtd()
    }

    /// The relational schema.
    pub fn schema(&self) -> &RelSchema {
        self.shared.schema()
    }

    /// The mapped constraint set Γ.
    pub fn constraints(&self) -> &[Denial] {
        self.shared.constraints()
    }

    /// The translated full-check queries.
    pub fn full_queries(&self) -> &[QueryTemplate] {
        self.shared.full_queries()
    }

    /// Whether the static independence analysis is active on this checker.
    pub fn independence(&self) -> bool {
        self.independence
    }

    /// Enables/disables the static independence analysis for this checker
    /// (on by default). The differential oracles turn it off to obtain
    /// the unmasked check as their reference.
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

    /// The baseline evaluator's view of this checker (see
    /// [`crate::gamma`]).
    fn baseline(&self) -> Baseline<'_> {
        Baseline { gamma: &self.shared, independence: self.independence }
    }

    /// Runtime counters.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// The compiled patterns in this checker's store (every sharer's, once
    /// [`Checker::set_pattern_cache`] attached a shared one).
    pub fn patterns(&self) -> impl Iterator<Item = CompiledPattern> {
        self.patterns.compiled().into_iter()
    }

    /// Registers (at schema design time) the update pattern exemplified by
    /// `stmt`, compiling its simplified checks. Returns the pattern key.
    pub fn register_pattern(&mut self, stmt: &XUpdateDoc) -> Result<String, CheckerError> {
        let mapped = map_update(&self.doc, self.shared.schema(), stmt, &xpath_resolver)
            .map_err(|e| CheckerError::Statement(e.to_string()))?;
        let compiled = compile_pattern(
            &mapped,
            self.shared.constraints(),
            self.shared.schema(),
            self.independence,
        );
        let key = compiled.key.clone();
        self.patterns.publish(&key, PatternEntry::build(compiled));
        Ok(key)
    }

    /// Registers a pattern from XUpdate text.
    pub fn register_pattern_str(&mut self, stmt: &str) -> Result<String, CheckerError> {
        let stmt = XUpdateDoc::parse(stmt).map_err(|e| CheckerError::Statement(e.to_string()))?;
        self.register_pattern(&stmt)
    }

    /// Runs the optimized pre-update check for `stmt` against the live
    /// document (see [`crate::optimized`]); also says whether its pattern
    /// was already compiled.
    fn pre_check(&self, stmt: &XUpdateDoc) -> (Result<Verdict, CheckerError>, Option<bool>) {
        OptimizedCheck { doc: &self.doc, gamma: &self.shared, independence: self.independence }
            .decide(stmt, &self.patterns)
    }

    /// Statements committed (and journaled, when a store is attached)
    /// since construction or recovery.
    pub fn committed(&self) -> u64 {
        self.log.committed()
    }

    /// True once a contained panic has poisoned this checker: the
    /// in-memory tree may be half-updated, so mutating operations return
    /// [`CheckerError::Poisoned`]. Rebuild the state with
    /// [`Checker::recover_store`].
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    pub(crate) fn refuse_if_poisoned(&self) -> Result<(), CheckerError> {
        if self.poisoned {
            Err(CheckerError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// True if [`Checker::recover_store`] found no generation that
    /// validates and came up in degraded read-only mode: `check_full`
    /// and `decide_only` still serve answers against
    /// the base document, but mutating entry points return
    /// [`CheckerError::Degraded`].
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    pub(crate) fn refuse_if_degraded(&self) -> Result<(), CheckerError> {
        if self.degraded {
            Err(CheckerError::Degraded)
        } else {
            Ok(())
        }
    }

    /// Runs the full (non-simplified) constraint check against the current
    /// document state and returns the first violation in constraint order,
    /// if any. Each constraint is evaluated *existentially* (see
    /// [`crate::gamma`]).
    pub fn check_full(&self) -> Result<Option<Violation>, CheckerError> {
        self.baseline().run(&self.doc, None)
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
            Strategy::Optimized => self.pre_check(stmt).0?.decision(),
            // Field-wise borrows: the evaluator reads Γ while it mutates
            // (and restores) the document.
            Strategy::FullWithRollback => {
                Baseline { gamma: &self.shared, independence: self.independence }
                    .decide_by_rollback(&mut self.doc, stmt)
            }
        }
    }

    /// Applies `stmt` without any integrity check (workload setup). With a
    /// store attached the statement is journaled like a committed
    /// update, so recovery replays it.
    pub fn apply_unchecked(&mut self, stmt: &XUpdateDoc) -> Result<(), CheckerError> {
        self.refuse_if_poisoned()?;
        self.refuse_if_degraded()?;
        let applied = self.apply_or_abort(stmt)?;
        self.commit(stmt, applied)
    }

    /// Applies `stmt`; on a mid-batch failure rolls the already-applied
    /// prefix back and journals an abort record before reporting the
    /// error (the document is unchanged either way). A `select` that ran
    /// out of the request's budget is a timeout, not a fact about the
    /// statement: it leaves no record.
    fn apply_or_abort(&mut self, stmt: &XUpdateDoc) -> Result<AppliedUpdate, CheckerError> {
        let _update = xic_obs::phase("update");
        let _apply = xic_obs::phase("apply");
        match apply(&mut self.doc, stmt, &xpath_resolver) {
            Ok(applied) => Ok(applied),
            Err((e, partial)) => {
                undo(&mut self.doc, partial);
                if e != XUpdateError::BudgetExhausted {
                    self.log.abort(stmt);
                }
                Err(e.into())
            }
        }
    }

    /// Makes the in-memory update `applied` a commit: appends its record
    /// (durable, per the log's sync mode, before the caller sees the
    /// verdict). On append failure the update is rolled back so document
    /// and journal stay in step; on a failure *after* the record is
    /// durable the checker is poisoned instead.
    fn commit(&mut self, stmt: &XUpdateDoc, applied: AppliedUpdate) -> Result<(), CheckerError> {
        match self.log.commit(stmt, &self.doc) {
            Ok(()) => Ok(()),
            Err(CommitError::NotAppended(e)) => {
                undo(&mut self.doc, applied);
                Err(e)
            }
            Err(CommitError::AfterDurable(e)) => {
                self.poisoned = true;
                Err(e)
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
    /// state is rebuilt with [`Checker::recover_store`]. With a store
    /// attached the commit record is durable before the verdict is returned.
    pub fn try_update(&mut self, stmt: &XUpdateDoc) -> Result<UpdateOutcome, CheckerError> {
        self.refuse_if_poisoned()?;
        self.refuse_if_degraded()?;
        match catch_unwind(AssertUnwindSafe(|| index_reads(|| self.try_update_inner(stmt)))) {
            Ok((result, [probes, builds])) => {
                self.stats.index_probes += probes;
                self.stats.index_builds += builds;
                result
            }
            Err(payload) => {
                self.poisoned = true;
                xic_obs::incr(xic_obs::Counter::PanicContained);
                Err(CheckerError::Panicked(panic_message(&*payload)))
            }
        }
    }

    fn try_update_inner(&mut self, stmt: &XUpdateDoc) -> Result<UpdateOutcome, CheckerError> {
        // Try the optimized path; a statement it has no check for takes
        // the baseline pass. An error — a spent budget included — is the
        // answer: nothing has been applied yet.
        let (verdict, hit) = self.pre_check(stmt);
        match hit {
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
        // An incremental pattern was found, so the simplified checks ran
        // (an evaluation error included).
        if hit.is_some() && !matches!(verdict, Ok(Verdict::NotIncremental(_))) {
            self.stats.optimized_checks += 1;
        }
        match verdict? {
            Verdict::NotIncremental(_) => {}
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
                self.commit(stmt, applied)?;
                return Ok(UpdateOutcome::Applied {
                    strategy: Strategy::Optimized,
                });
            }
        }
        // Baseline: apply, check (masked to the constraints the applied
        // delta can reach), roll back on violation.
        self.stats.full_checks += 1;
        let applied = self.apply_or_abort(stmt)?;
        let live = self.baseline().live_mask(&self.doc, &applied);
        let refusal = match self.baseline().run(&self.doc, live.as_deref()) {
            Ok(None) => {
                self.commit(stmt, applied)?;
                return Ok(UpdateOutcome::Applied {
                    strategy: Strategy::FullWithRollback,
                });
            }
            Ok(Some(violation)) => Ok(violation),
            Err(e) => Err(e),
        };
        // A violation rolls the applied update back, and so does a check
        // *error* (an exhausted per-request deadline budget, an engine
        // failure) before it propagates: verdict-or-error, never a
        // modified document with no commit record — the journal and the
        // in-memory state must not diverge under the service's batch path.
        {
            let _update = xic_obs::phase("update");
            let _rollback = xic_obs::phase("rollback");
            undo(&mut self.doc, applied);
        }
        let violation = refusal?;
        self.stats.rollbacks += 1;
        Ok(UpdateOutcome::Rejected {
            strategy: Strategy::FullWithRollback,
            violation,
        })
    }
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

    fn subs(c: &Checker) -> usize {
        xpath_resolver(c.doc(), "//sub").unwrap().len()
    }

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
        assert_eq!(subs(&c), 3);
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
        assert_eq!(subs(&c), 2);
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
        assert_eq!(subs(&c), 3);
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
