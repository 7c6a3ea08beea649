//! The compiled constraint set Γ and the baseline evaluator (the paper's
//! diamonds): apply the update, check all of Γ in the new state, undo.
//!
//! [`SharedGamma`] is everything derived from the DTD and the
//! constraints but independent of a document instance, compiled once and
//! shared by every checker, shard and read snapshot over the same
//! schema. `Baseline` evaluates it: `Baseline::run` is the full
//! check over one document state (first violation in constraint order,
//! restricted to a live mask when the static independence analysis
//! supplies one), `Baseline::decide_by_rollback` the decide-only
//! baseline strategy around it. Like [`crate::optimized`]'s pre-update
//! check, neither needs a [`crate::Checker`] or the thread that owns
//! one, so [`crate::Checker::check_full`],
//! [`crate::Checker::decide_only`], [`crate::Checker::try_update`]'s
//! fallback and [`crate::service::ReadSnapshot`] all call the same code;
//! what differs between them is only whether the caller may fan the
//! constraints out across cores (the single writer may, readers — many
//! threads already — never do).
//!
//! In `DESIGN.md`'s system inventory this is row 26.

use crate::checker::{CheckerError, Violation};
use crate::footprint::IndependenceIndex;
use crate::resolver::xpath_resolver;
use std::sync::Arc;
use xic_datalog::Denial;
use xic_mapping::{map_denials, RelSchema};
use xic_simplify::{live_set, read_footprints, ReadFootprint};
use xic_translate::{translate_denials, QueryTemplate};
use xic_xml::{apply, undo, AppliedUpdate, Document, Dtd, XUpdateDoc};
use xic_xquery::{parse_query, XProgram};

/// Documents below this node count are always checked sequentially: the
/// per-thread spawn/merge overhead dominates the §7 small-document regime.
const PARALLEL_FULL_MIN_NODES: usize = 8192;

/// The compiled constraint-template set Γ plus everything derived from
/// the DTD: relational schema, Datalog denials, translated full-check
/// queries (parsed and IR-compiled), per-constraint read footprints and
/// the ownership maps that turn an applied delta into a write footprint.
///
/// None of it depends on a document *instance*, only on the schema and
/// the constraints — so one `SharedGamma` is compiled once and shared
/// (`Arc`) by every [`crate::Checker`] over the same schema. This is what
/// makes a [`crate::shards::ShardSet`] cheap: N shards hold N documents
/// but one Γ; the mapping, translation, IR compilation and footprint
/// analysis are paid once, not N times.
pub struct SharedGamma {
    dtd: Dtd,
    schema: RelSchema,
    /// Γ: the full constraint set as Datalog denials.
    gamma: Vec<Denial>,
    /// Closed XQuery checks for Γ (the "non-simplified" curve).
    full_queries: Vec<QueryTemplate>,
    /// `full_queries` parsed and compiled once, in the same order (they
    /// are closed, so the programs never change): the full check never
    /// re-parses the constraint set per statement.
    full_ir: Vec<XProgram>,
    /// Per-constraint read footprints, in `gamma` order.
    read_fps: Vec<ReadFootprint>,
    /// Ownership maps for statement-level write footprints.
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
            (read_footprints(&gamma), IndependenceIndex::new(&schema))
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

}

/// The baseline strategy over one compiled Γ: the full check and the
/// decide-only apply → check → undo around it. The document is passed per
/// call because the two need it differently (shared vs. exclusive).
pub(crate) struct Baseline<'a> {
    /// The compiled constraint set.
    pub(crate) gamma: &'a SharedGamma,
    /// Whether the static independence analysis masks the check to the
    /// constraints a statement can affect.
    pub(crate) independence: bool,
    /// Whether a large document's constraints may be fanned out over
    /// scoped threads: the writer's checker says yes, snapshot readers
    /// (already one thread per request) say no.
    pub(crate) fan_out: bool,
}

impl Baseline<'_> {
    /// The live-constraint mask for the statement just applied to `doc`,
    /// or `None` when the analysis is off. The write footprint is read
    /// off `applied`'s log (see [`IndependenceIndex::delta_footprint`]),
    /// so it must be taken after the apply and before any undo.
    pub(crate) fn live_mask(&self, doc: &Document, applied: &AppliedUpdate) -> Option<Vec<bool>> {
        if !self.independence {
            return None;
        }
        let _footprint = xic_obs::phase("footprint");
        let wfp = self.gamma.indep_index.delta_footprint(doc, applied);
        Some(live_set(&self.gamma.read_fps, &wfp))
    }

    /// Runs the full (non-simplified) check against `doc`, restricted to
    /// the constraints `live` marks `true` (all of them when `None`), and
    /// returns the first violation in constraint order, if any. The
    /// verdict on a masked run equals the unmasked one whenever the
    /// skipped constraints' verdicts could not have changed, which is
    /// what the caller's footprint intersection established.
    ///
    /// Constraints are evaluated *existentially* — each stops at its
    /// first witness binding. With [`Baseline::fan_out`], more than one
    /// constraint, a large document, more than one core and no step
    /// budget armed they run on scoped threads; the verdict is identical.
    /// An armed budget (a per-request deadline) forces the sequential
    /// pass because budgets are thread-local: workers would run
    /// unbounded.
    pub(crate) fn run(
        &self,
        doc: &Document,
        live: Option<&[bool]>,
    ) -> Result<Option<Violation>, CheckerError> {
        let _check = xic_obs::phase("check");
        let _full = xic_obs::phase("full");
        let n = self.gamma.full_ir.len();
        let indices: Vec<usize> = match live {
            None => (0..n).collect(),
            Some(mask) => {
                let retained: Vec<usize> =
                    (0..n).filter(|&i| mask.get(i).copied().unwrap_or(true)).collect();
                xic_obs::add(xic_obs::Counter::ChecksSkippedStatic, (n - retained.len()) as u64);
                xic_obs::add(xic_obs::Counter::ChecksRetainedStatic, retained.len() as u64);
                retained
            }
        };
        let parallel = self.fan_out
            && indices.len() > 1
            && doc.node_count() >= PARALLEL_FULL_MIN_NODES
            && xic_xpath::budget::remaining().is_none()
            && std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        if parallel {
            self.run_parallel(doc, &indices)
        } else {
            self.run_seq(doc, &indices)
        }
    }

    /// Decides `stmt` by the baseline strategy without leaving a
    /// modification behind: apply, mask, full check in the new state,
    /// and **always** undo, whatever the verdict. A statement that fails
    /// to apply is rolled back from its partial state and reported as a
    /// [`CheckerError::Statement`].
    pub(crate) fn decide_by_rollback(
        &self,
        doc: &mut Document,
        stmt: &XUpdateDoc,
    ) -> Result<Option<Violation>, CheckerError> {
        let applied = {
            let _update = xic_obs::phase("update");
            let _apply = xic_obs::phase("apply");
            apply(doc, stmt, &xpath_resolver).map_err(|(e, partial)| {
                undo(doc, partial);
                CheckerError::Statement(e.to_string())
            })?
        };
        let live = self.live_mask(doc, &applied);
        let verdict = self.run(doc, live.as_deref());
        let _update = xic_obs::phase("update");
        let _rollback = xic_obs::phase("rollback");
        undo(doc, applied);
        verdict
    }

    /// Evaluates constraint `i` existentially. An exhausted budget can
    /// only be an externally armed one (a per-request deadline): keep it
    /// distinguishable so the service can answer "timeout" instead of
    /// "query error".
    fn holds_violation(&self, doc: &Document, i: usize) -> Result<bool, CheckerError> {
        self.gamma.full_ir[i].eval_exists(doc, &[]).map_err(|e| {
            if e.is_budget_exhausted() {
                CheckerError::BudgetExhausted
            } else {
                CheckerError::Query(format!("{}: {e}", self.gamma.full_queries[i].text))
            }
        })
    }

    /// Resolves per-constraint verdicts, given in constraint order, to
    /// the first error or violation.
    fn first_violation(
        &self,
        verdicts: impl Iterator<Item = (usize, Result<bool, CheckerError>)>,
    ) -> Result<Option<Violation>, CheckerError> {
        for (i, violated) in verdicts {
            if violated? {
                return Ok(Some(Violation {
                    denial: self.gamma.gamma[i].to_string(),
                    query: self.gamma.full_queries[i].text.clone(),
                }));
            }
        }
        Ok(None)
    }

    fn run_seq(&self, doc: &Document, indices: &[usize]) -> Result<Option<Violation>, CheckerError> {
        // Lazy: evaluation stops at the first violation or error.
        self.first_violation(indices.iter().map(|&i| (i, self.holds_violation(doc, i))))
    }

    /// Fans the constraints out over scoped threads reading the shared
    /// `&Document`. Each worker evaluates a contiguous chunk and ships
    /// its thread-local observability snapshot back; the parent merges
    /// the snapshots and resolves the verdicts in constraint order, so
    /// the outcome is identical to [`Baseline::run_seq`].
    fn run_parallel(
        &self,
        doc: &Document,
        indices: &[usize],
    ) -> Result<Option<Violation>, CheckerError> {
        xic_obs::incr(xic_obs::Counter::CheckFullParallel);
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(indices.len())
            .max(1);
        let chunk = indices.len().div_ceil(workers).max(1);
        let per_worker: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = indices
                .chunks(chunk)
                .map(|idxs| {
                    s.spawn(move || {
                        let verdicts: Vec<_> =
                            idxs.iter().map(|&i| (i, self.holds_violation(doc, i))).collect();
                        (verdicts, xic_obs::snapshot())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("full-check worker panicked"))
                .collect()
        });
        // Chunks are contiguous and joined in spawn order, so the
        // concatenation is already in constraint order.
        let mut verdicts = Vec::with_capacity(indices.len());
        for (vs, snapshot) in per_worker {
            xic_obs::merge(&snapshot);
            verdicts.extend(vs);
        }
        self.first_violation(verdicts.into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Checker;
    use xic_workload::{conflict_constraint, generate, review_load_constraint, WorkloadConfig};
    use xic_xpath::EvalBudget;

    const DTD: &str = "<!ELEMENT collection (dblp, review)>\n<!ELEMENT dblp (pub)*>\n\
        <!ELEMENT pub (title, aut+)>\n<!ELEMENT aut (name)>\n\
        <!ELEMENT review (track)+>\n<!ELEMENT track (name,rev+)>\n\
        <!ELEMENT rev (name, sub+)>\n<!ELEMENT sub (title, auts+)>\n\
        <!ELEMENT title (#PCDATA)>\n<!ELEMENT auts (name)>\n<!ELEMENT name (#PCDATA)>";

    /// A checker over a document big enough for the fan-out rule, with
    /// two constraints — a review-load bound (constraint 0) nothing
    /// violates and the conflict-of-interests denial (constraint 1) —
    /// plus a statement that violates the latter.
    fn large_checker() -> (Checker, XUpdateDoc) {
        let w = generate(WorkloadConfig::sized_kib(128, 1));
        let constraints = format!("{} . {}", review_load_constraint(1_000), conflict_constraint());
        let c = Checker::new(&w.xml, DTD, &constraints).expect("corpus loads");
        assert!(c.doc().node_count() >= PARALLEL_FULL_MIN_NODES, "{}", c.doc().node_count());
        let self_review = xic_workload::illegal_insert(0, 0, &w.reviewers[0][0]);
        (c, XUpdateDoc::parse(&self_review).expect("statement parses"))
    }

    #[test]
    fn armed_budget_bounds_the_full_check_of_a_large_document() {
        let (c, _) = large_checker();
        assert_eq!(c.check_full().expect("unbudgeted check"), None);
        // Budgets are thread-local: fanned-out workers would run
        // unbounded, so an armed budget must take the sequential pass.
        let _armed = xic_xpath::budget::arm(EvalBudget::new(0));
        assert!(matches!(c.check_full(), Err(CheckerError::BudgetExhausted)));
    }

    #[test]
    fn parallel_pass_matches_sequential() {
        // Drive the document into a state violating only the *second*
        // constraint, so verdict order matters.
        let (mut c, self_review) = large_checker();
        c.apply_unchecked(&self_review).expect("applies");

        let baseline = Baseline { gamma: c.shared_gamma(), independence: true, fan_out: true };
        let indices = [0, 1];
        let seq = baseline.run_seq(c.doc(), &indices).unwrap().expect("self-review must violate");
        xic_obs::reset();
        let par = baseline.run_parallel(c.doc(), &indices).unwrap().expect("must violate");
        assert_eq!(seq, par, "parallel verdict must match sequential");
        assert!(par.denial.contains("rev"), "{par}");
        let snap = xic_obs::snapshot();
        assert_eq!(snap.counter(xic_obs::Counter::CheckFullParallel), 1);
        // The workers' engine counters were merged back into this thread.
        assert!(snap.counter(xic_obs::Counter::XqueryBindingsVisited) > 0, "{:?}", snap.counters);
    }
}
