//! The runtime integrity checker: the [`Checker`] façade and its update
//! path. What it evaluates lives in [`crate::gamma`] (the compiled Γ and
//! the baseline check, with the pattern store every checker over it
//! shares) and [`crate::optimized`] (the pre-update check); how commits
//! become durable lives in
//! [`crate::durability`].

use crate::compile::CompiledPattern;
use crate::durability::CommitLog;
use crate::gamma::{apply_to_copy, SharedGamma};
use crate::resolver::resolved_targets;
use crate::optimized::Legal;
use crate::resolver::xpath_resolver;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use xic_datalog::Denial;
use xic_mapping::{map_update, RelSchema};
use xic_translate::QueryTemplate;
use xic_xml::{parse_document, Document, Dtd, XUpdateDoc, XUpdateError};

/// The document `xml` parses to, validated against Γ's DTD.
pub(crate) fn build_valid(xml: &str, shared: &SharedGamma) -> Result<Document, CheckerError> {
    let (doc, _) = parse_document(xml).map_err(|e| CheckerError::Setup(e.to_string()))?;
    shared.dtd().validate(&doc).map_err(|e| CheckerError::Setup(e.to_string()))?;
    Ok(doc)
}

/// Which strategy handled an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Optimized: the simplified check ran *before* the update; illegal
    /// statements were never executed.
    Optimized,
    /// Baseline: the update was applied to a copy of the document and the
    /// full constraints checked in the copy, which is committed when legal
    /// and dropped on violation.
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
    /// panic left the journal in doubt (the document is always a
    /// committed version).
    /// Rebuild via [`Checker::open_store`] (or a fresh constructor).
    Poisoned,
    /// Write-ahead journal failure: create/append/fsync, or a recovery
    /// that cannot proceed (base-snapshot mismatch, out-of-sequence or
    /// unreplayable record).
    Journal(String),
    /// A checkpoint snapshot or rotation failure (explicit
    /// [`Checker::checkpoint`] only; automatic-policy failures are
    /// non-fatal because the previous generation stays recoverable).
    Checkpoint(String),
    /// A mutating operation was refused because the checker is in
    /// degraded read-only mode: [`Checker::open_store`] found no
    /// generation that validates, or a journal flush failed, so writes
    /// cannot be made durable. Reopening the store is the way back.
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
                "checker is in degraded read-only mode (no journal generation validated, \
                 or a journal fsync failed); mutations are refused",
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

/// The integrity-checking façade: document + DTD + compiled constraint
/// set, with optional store durability.
///
/// # Ownership under concurrency
///
/// A `Checker` is `Send` but deliberately **not** shared: all mutating
/// entry points take `&mut self`, so concurrent use means one writer at a
/// time — exactly what [`crate::service::CheckerService`] does (the
/// `Checker` sits behind a commit lock that only writers take: the
/// submitter leading a batch holds it for that batch; readers see
/// immutable [`crate::service::ReadSnapshot`]s published per committed
/// batch). Do not wrap a `Checker` in a lock shared by readers and
/// writers to "parallelize" it: read entry points would serialize behind
/// commits and the fsync in every commit would stall them (the service
/// exists to avoid precisely that).
pub struct Checker {
    /// The committed version: a statement is applied to a copy, which its
    /// commit swaps in, so a published snapshot shares this `Arc`.
    pub(crate) doc: Arc<Document>,
    /// The compiled constraint-template set Γ: everything a decision
    /// reads besides the document — the independence setting and the
    /// pattern store included. Shared (`Arc`) across every checker built
    /// over the same Γ — see [`SharedGamma`].
    shared: Arc<SharedGamma>,
    /// Journal, store, rotation policy and commit counters.
    pub(crate) log: CommitLog,
    /// Set by [`Checker::open_store`] when no generation validated,
    /// and by a failed flush: the checker serves reads but refuses
    /// mutations.
    pub(crate) degraded: bool,
    /// Set when a contained panic or a fault after an appended commit
    /// record leaves the journal in doubt; mutating operations are
    /// refused until recovery.
    poisoned: bool,
}

impl Checker {
    /// Builds a checker from XML text, DTD text (empty: the document's
    /// inline DTD) and XPathLog constraints (a `.`-separated list), over a
    /// Γ of its own with the static independence analysis on.
    pub fn new(xml: &str, dtd: &str, constraints: &str) -> Result<Checker, CheckerError> {
        let (doc, inline_dtd) = parse_document(xml).map_err(|e| CheckerError::Setup(e.to_string()))?;
        let dtd = if dtd.trim().is_empty() {
            inline_dtd.ok_or_else(|| CheckerError::Setup("no DTD provided".to_string()))?
        } else {
            Dtd::parse(dtd).map_err(CheckerError::Setup)?
        };
        let ldenials = xic_xpathlog::parse_denials(constraints)
            .map_err(|e| CheckerError::Setup(e.to_string()))?;
        dtd.validate(&doc).map_err(|e| CheckerError::Setup(e.to_string()))?;
        Ok(Checker::assemble(doc, SharedGamma::from_parts(dtd, &ldenials, true)?))
    }

    /// Builds a checker for `xml` over an already-compiled constraint set
    /// (validating the document against Γ's DTD). This is the shard
    /// constructor: N documents over one `Arc<SharedGamma>` pay Γ's
    /// compilation once, and each pattern's compile once.
    pub fn from_shared(xml: &str, shared: &Arc<SharedGamma>) -> Result<Checker, CheckerError> {
        Ok(Checker::assemble(build_valid(xml, shared)?, Arc::clone(shared)))
    }

    /// [`Checker::new`] / [`Checker::from_shared`] minus the DTD
    /// validation pass: used when rebuilding from a checkpoint snapshot,
    /// which records a *committed* state. Updates are not required to
    /// preserve DTD validity, so a snapshot may legitimately fail
    /// re-validation even though replaying the same history from the base
    /// document would accept it; integrity of the snapshot bytes is
    /// already guaranteed by its crc.
    pub(crate) fn assemble(doc: Document, shared: Arc<SharedGamma>) -> Checker {
        Checker {
            doc: Arc::new(doc),
            shared,
            log: CommitLog::default(),
            degraded: false,
            poisoned: false,
        }
    }

    /// The compiled constraint set this checker evaluates (shareable
    /// across checkers; see [`SharedGamma`]).
    pub fn shared_gamma(&self) -> &Arc<SharedGamma> {
        &self.shared
    }

    /// The document.
    pub fn doc(&self) -> &Document {
        &self.doc
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

    /// Whether the static independence analysis is active: a property of
    /// Γ, fixed when it was compiled ([`SharedGamma::compile_unmasked`]
    /// builds the unmasked reference).
    ///
    /// When on, the full-check paths of [`Checker::try_update`] and
    /// [`Checker::decide_only`] evaluate only the constraints whose read
    /// footprint intersects the statement's write footprint, and pattern
    /// compilation pre-filters Γ by relation overlap. Soundness rests on
    /// the paper's consistency premise (Theorem 1): like the simplified
    /// optimized checks, a skip assumes the pre-state satisfies the
    /// skipped constraint — which holds inductively from a consistent
    /// initial state, since every retained check guards its own
    /// constraint.
    pub fn independence(&self) -> bool {
        self.shared.independence()
    }

    /// The compiled patterns in Γ's store: every pattern compiled by any
    /// checker, snapshot or shard over the same [`SharedGamma`].
    pub fn patterns(&self) -> impl Iterator<Item = CompiledPattern> {
        self.shared.patterns().compiled().into_iter()
    }

    /// Registers (at schema design time) the update pattern exemplified by
    /// `stmt`, compiling its simplified checks. Returns the pattern key.
    pub fn register_pattern(&mut self, stmt: &XUpdateDoc) -> Result<String, CheckerError> {
        let mapped = map_update(&self.doc, self.shared.schema(), stmt, &xpath_resolver)
            .map_err(|e| CheckerError::Statement(e.to_string()))?;
        let key = xic_mapping::pattern_key(&mapped.update);
        self.shared.compile_and_publish(&key, &mapped);
        Ok(key)
    }

    /// Registers a pattern from XUpdate text.
    pub fn register_pattern_str(&mut self, stmt: &str) -> Result<String, CheckerError> {
        let stmt = XUpdateDoc::parse(stmt).map_err(|e| CheckerError::Statement(e.to_string()))?;
        self.register_pattern(&stmt)
    }

    /// Statements committed (and journaled, when a store is attached)
    /// since construction or recovery.
    pub fn committed(&self) -> u64 {
        self.log.committed()
    }

    /// True once a contained panic has poisoned this checker (one after a
    /// commit record was appended, in a due rotation, included). The
    /// document is a whole committed version (statements are applied to a
    /// copy), but the journal may hold a record the checker cannot vouch
    /// for, so mutating operations return [`CheckerError::Poisoned`].
    /// Rebuild the state with [`Checker::open_store`].
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

    /// True in degraded read-only mode — [`Checker::open_store`] found
    /// no generation that validates, or a journal flush failed:
    /// `check_full` and `decide_only` still serve answers against the
    /// in-memory document, but mutating entry points return
    /// [`CheckerError::Degraded`] until [`Checker::open_store`] reopens
    /// the store. After a failed flush the in-memory document and
    /// [`Checker::committed`] still include the statements that flush
    /// covered, though none of them was acknowledged; the reopened store
    /// is the authority on which of them survived.
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
        self.shared.check_full(&self.doc, None)
    }

    /// Decides whether `stmt` would be accepted under the given strategy
    /// **without leaving any modification behind** — the hook the
    /// differential-fuzzing oracles compare strategies through.
    ///
    /// * [`Strategy::Optimized`] compiles the statement's pattern on first
    ///   sight (like [`Checker::try_update`]) and runs the simplified
    ///   pre-update checks; the document is never touched. Errors when the
    ///   pattern is not incrementally checkable.
    /// * [`Strategy::FullWithRollback`] applies the statement to a copy,
    ///   runs the full constraint check on the copy and drops it, whatever
    ///   the verdict. A statement that fails to apply is reported as a
    ///   [`CheckerError::Statement`].
    ///
    /// Returns `Ok(None)` when the update would be accepted and
    /// `Ok(Some(v))` when it would be rejected with violation `v`.
    pub fn decide_only(
        &self,
        stmt: &XUpdateDoc,
        strategy: Strategy,
    ) -> Result<Option<Violation>, CheckerError> {
        self.refuse_if_poisoned()?;
        match strategy {
            Strategy::Optimized => self.shared.decide_optimized(&self.doc, stmt)?.decision(),
            Strategy::FullWithRollback => {
                self.shared.decide_full(&self.doc, stmt).map(|(_, verdict)| verdict)
            }
        }
    }

    /// Makes `next`, the document with `stmt` applied, the committed
    /// version: appends the record (unflushed), swaps `next` in, then runs
    /// a due rotation. Document and journal stay in step: an append
    /// failure drops `next`; a panic in the rotation poisons the checker.
    fn commit(&mut self, stmt: &XUpdateDoc, next: Document) -> Result<(), CheckerError> {
        self.log.commit(stmt)?;
        self.doc = Arc::new(next);
        self.log.maybe_auto_checkpoint(&self.doc);
        Ok(())
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
    /// * Otherwise the baseline strategy runs: apply to a copy, full check
    ///   of the copy, which is committed when legal and dropped on
    ///   violation.
    ///
    /// Statements new to the checker are compiled on first sight (the
    /// paper generates simplifications at schema design time; compiling
    /// lazily here only changes *when* the one-off cost is paid — see
    /// EXPERIMENTS E3 for its magnitude; `STATS` counts the compiles).
    /// Any panic escaping evaluation or apply is contained here
    /// (`catch_unwind`): it is returned as [`CheckerError::Panicked`] and
    /// the checker is poisoned — mutating operations are refused until the
    /// state is rebuilt with [`Checker::open_store`]. With a store
    /// attached the commit record is flushed before the verdict is
    /// returned; a failed flush is a [`CheckerError::Journal`] error and
    /// leaves the checker [degraded](Checker::degraded) with the
    /// unacknowledged statement still applied in memory.
    pub fn try_update(&mut self, stmt: &XUpdateDoc) -> Result<UpdateOutcome, CheckerError> {
        let outcome = self.update_unflushed(stmt);
        self.flush()?;
        outcome
    }

    /// [`Checker::try_update`] minus the flush — the one write step,
    /// behind it and [`crate::service::apply_batch`] (a batch runs it per
    /// statement and flushes once): refuses a poisoned or degraded
    /// checker, moves a reopened store to a fresh segment, then decides,
    /// applies to a copy and commits it. A panic escaping that is
    /// contained here ([`CheckerError::Panicked`]) and poisons the
    /// checker.
    pub(crate) fn update_unflushed(&mut self, stmt: &XUpdateDoc) -> Result<UpdateOutcome, CheckerError> {
        self.refuse_if_poisoned()?;
        self.refuse_if_degraded()?;
        let run = AssertUnwindSafe(|| {
            self.log.rotate_if_reopened(&self.doc)?;
            self.decide_and_commit(stmt)
        });
        match catch_unwind(run) {
            Ok(result) => result,
            Err(payload) => {
                self.poisoned = true;
                xic_obs::incr(xic_obs::Counter::PanicContained);
                Err(CheckerError::Panicked(panic_message(&*payload)))
            }
        }
    }

    /// Decides `stmt` ([`SharedGamma::decide`]) and commits it when legal.
    /// A violation or an error — a spent budget included — is the answer:
    /// the document never holds a statement its journal lacks, and the
    /// journal never holds one the checker refused.
    fn decide_and_commit(&mut self, stmt: &XUpdateDoc) -> Result<UpdateOutcome, CheckerError> {
        let decision = self.shared.decide(&self.doc, stmt);
        let strategy = decision.strategy();
        let next = match decision.verdict? {
            Err(violation) => return Ok(UpdateOutcome::Rejected { strategy, violation }),
            // The decision resolved every select on this version, and no
            // select of a statement it admits can observe an earlier
            // operation, so `apply` is answered from those targets. A
            // statement that does not apply appends nothing.
            Ok(Legal::Targets(targets)) => {
                apply_to_copy(&self.doc, stmt, &resolved_targets(stmt, &targets))?.0
            }
            Ok(Legal::Applied(copy)) => copy,
        };
        self.commit(stmt, next)?;
        Ok(UpdateOutcome::Applied { strategy })
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
        // A rename is neither an insertion nor a one-cell text update:
        // baseline strategy.
        let out = c
            .try_update_str(
                r#"<xupdate:modifications xmlns:xupdate="x">
                  <xupdate:rename select="//rev[name/text() = 'dan']/sub[1]/title">heading</xupdate:rename>
                </xupdate:modifications>"#,
            )
            .unwrap();
        assert!(out.applied());
        assert_eq!(out.strategy(), Strategy::FullWithRollback);
        // A reviewer's new name is one modified cell: decided pre-update.
        let out = c
            .try_update_str(
                r#"<xupdate:modifications xmlns:xupdate="x">
                  <xupdate:update select="//rev[name/text() = 'dan']/name">don</xupdate:update>
                </xupdate:modifications>"#,
            )
            .unwrap();
        assert!(out.applied());
        assert_eq!(out.strategy(), Strategy::Optimized);
    }

    /// Ann's self-review arriving by a text update: Cat's name under Ann's
    /// rev rewritten to Ann. Alone, the update is one modified cell,
    /// rejected before it runs; beside a second operation it takes the
    /// baseline, which rolls it back.
    #[test]
    fn an_illegal_text_update_is_rejected_early_or_rolled_back() {
        let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
        let before = xic_xml::serialize(c.doc());
        let own_name = r#"<xupdate:update select="//rev[name/text() = 'ann']/sub/auts/name">ann</xupdate:update>"#;
        let retitle = r#"<xupdate:update select="//rev[name/text() = 'ann']/sub/title">T</xupdate:update>"#;
        let stmt = |ops: &str| format!(r#"<xupdate:modifications xmlns:xupdate="x">{ops}</xupdate:modifications>"#);
        let out = c.try_update_str(&stmt(own_name)).unwrap();
        assert!(!out.applied());
        assert_eq!(out.strategy(), Strategy::Optimized);
        let out = c.try_update_str(&stmt(&format!("{retitle}{own_name}"))).unwrap();
        assert!(!out.applied());
        assert_eq!(out.strategy(), Strategy::FullWithRollback);
        assert_eq!(xic_xml::serialize(c.doc()), before, "a refusal keeps the document");
    }

    /// A statement the baseline refuses was applied to a copy, and the
    /// copy is dropped: a thousand refusals leave the writer's arena as
    /// it was.
    #[test]
    fn refused_statements_leave_the_arena_alone() {
        let w = xic_workload::generate(xic_workload::WorkloadConfig::sized_kib(32, 7));
        let mut c = Checker::new(&w.xml, DTD, xic_workload::conflict_constraint()).unwrap();
        // Two operations: the baseline decides them on a copy.
        let own_name = XUpdateDoc::parse(&format!(
            r#"<xupdate:modifications xmlns:xupdate="x"><xupdate:update
               select="/collection/review/track[1]/rev[1]/sub[1]/title">T</xupdate:update><xupdate:update
               select="/collection/review/track[1]/rev[1]/sub[1]/auts[1]/name">{}</xupdate:update>
               </xupdate:modifications>"#,
            w.reviewers[0][0]
        ))
        .unwrap();
        let nodes = c.doc().node_count();
        for _ in 0..1_000 {
            let out = c.try_update(&own_name).unwrap();
            assert!(!out.applied() && out.strategy() == Strategy::FullWithRollback);
        }
        assert_eq!(c.doc().node_count(), nodes);
        assert!(c.decide_only(&own_name, Strategy::FullWithRollback).unwrap().is_some());
        assert_eq!(c.doc().node_count(), nodes);
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

    /// A legal commit on the optimized path evaluates each operation's
    /// `select` once, in the decision, and applies from the targets that
    /// found; the baseline path resolves each in its one `apply`.
    #[test]
    fn a_legal_commit_resolves_each_select_once() {
        let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
        let two = String::from(
            r#"<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
              <xupdate:append select="/collection/review/track[1]/rev[1]">
                <sub><title>A</title><auts><name>zoe</name></auts></sub>
              </xupdate:append>
              <xupdate:append select="/collection/review/track[1]/rev[2]">
                <sub><title>B</title><auts><name>yan</name></auts></sub>
              </xupdate:append>
            </xupdate:modifications>"#,
        );
        for (stmt, ops) in [(insert_sub("//rev[name/text() = 'dan']", "zoe"), 1), (two, 2)] {
            let stmt = XUpdateDoc::parse(&stmt).unwrap();
            c.register_pattern(&stmt).unwrap();
            xic_obs::reset();
            let out = c.try_update(&stmt).unwrap();
            assert_eq!(out.strategy(), Strategy::Optimized, "{out:?}");
            assert!(out.applied());
            assert_eq!(xic_obs::counter(xic_obs::Counter::SelectResolve), ops);
        }
        assert_eq!(subs(&c), 5);
        for (op, strategy) in [
            (r#"<xupdate:update select="//rev[name/text() = 'dan']/name">don</xupdate:update>"#, Strategy::Optimized),
            (r#"<xupdate:rename select="//rev[name/text() = 'don']/name">nom</xupdate:rename>"#, Strategy::FullWithRollback),
        ] {
            xic_obs::reset();
            let out = c
                .try_update_str(&format!(r#"<xupdate:modifications xmlns:xupdate="x">{op}</xupdate:modifications>"#))
                .unwrap();
            assert_eq!(out.strategy(), strategy);
            assert_eq!(xic_obs::counter(xic_obs::Counter::SelectResolve), 1);
        }
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
