//! The compiled constraint set Γ and the baseline evaluator (the paper's
//! diamonds): apply the update to a copy, check all of Γ in the copy.
//!
//! [`SharedGamma`] is everything a decision reads besides the document:
//! what is derived from the DTD and the constraints, the independence
//! setting fixed when Γ is compiled, and the pattern store every
//! compiled update pattern lands in. It is compiled once and shared by
//! every checker, shard and read snapshot over the same schema, so they
//! all share one store and one setting by construction. Its baseline
//! methods are the full check over one document state (first violation
//! in constraint order, restricted to a live mask when the static
//! independence analysis supplies one) and the baseline strategy around
//! it: the verdict on a copy with the update applied, and the copy, which
//! the writer commits on a legal verdict and every other caller drops.
//! Like [`crate::optimized`]'s pre-update check, neither needs a
//! [`crate::Checker`] or the thread that owns one, so
//! [`crate::Checker::check_full`], [`crate::Checker::decide_only`] and
//! [`crate::service::ReadSnapshot`] all call the same code. The one
//! choice between the two strategies is `SharedGamma::decide`, behind
//! [`crate::Checker::try_update`] and
//! [`crate::service::ReadSnapshot::decide`] alike.
//!
//! In `DESIGN.md`'s system inventory this is row 26.

use crate::checker::{CheckerError, Strategy, Violation};
use crate::footprint::IndependenceIndex;
use crate::optimized::{Fallback, Legal, PatternCache, Verdict};
use crate::resolver::xpath_resolver;
use std::sync::Arc;
use xic_datalog::Denial;
use xic_mapping::{map_denials, RelSchema};
use xic_simplify::footprint::POS_COL;
use xic_simplify::{live_set, read_footprints, ReadFootprint};
use xic_translate::{translate_denials, QueryTemplate};
use xic_xml::{apply, AppliedUpdate, Document, Dtd, SelectResolver, XUpdateDoc};
use xic_xquery::{parse_query, XProgram};

/// The compiled constraint-template set Γ plus everything derived from
/// the DTD: relational schema, Datalog denials, translated full-check
/// queries (parsed and IR-compiled), per-constraint read footprints, the
/// ownership maps that turn an applied delta into a write footprint, and
/// the store of update patterns compiled against it.
///
/// None of it depends on a document *instance*, only on the schema and
/// the constraints — so one `SharedGamma` is compiled once and shared
/// (`Arc`) by every [`crate::Checker`] over the same schema. This is what
/// makes a [`crate::shards::ShardSet`] cheap: N shards hold N documents
/// but one Γ; the mapping, translation, IR compilation, footprint
/// analysis and every pattern compile are paid once, not N times.
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
    /// Whether the static independence analysis masks the full check to
    /// the constraints a statement can affect and pre-filters pattern
    /// compiles; fixed when Γ is compiled.
    independence: bool,
    /// The update patterns compiled against this Γ, whoever compiled them.
    patterns: PatternCache,
}

impl SharedGamma {
    /// Compiles DTD text and an XPathLog constraint list (`.`-separated)
    /// into a shareable Γ, with the static independence analysis on.
    pub fn compile(dtd: &str, constraints: &str) -> Result<Arc<SharedGamma>, CheckerError> {
        SharedGamma::compile_text(dtd, constraints, true)
    }

    /// [`SharedGamma::compile`] with the static independence analysis
    /// off: every full check evaluates all of Γ, and every pattern compile
    /// simplifies all of it. The unmasked reference the differential
    /// oracles compare a masked Γ against.
    pub fn compile_unmasked(dtd: &str, constraints: &str) -> Result<Arc<SharedGamma>, CheckerError> {
        SharedGamma::compile_text(dtd, constraints, false)
    }

    fn compile_text(
        dtd: &str,
        constraints: &str,
        independence: bool,
    ) -> Result<Arc<SharedGamma>, CheckerError> {
        let dtd = Dtd::parse(dtd).map_err(CheckerError::Setup)?;
        let ldenials = xic_xpathlog::parse_denials(constraints)
            .map_err(|e| CheckerError::Setup(e.to_string()))?;
        SharedGamma::from_parts(dtd, &ldenials, independence)
    }

    /// Compiles a shareable Γ from parsed parts, with an empty pattern
    /// store.
    pub(crate) fn from_parts(
        dtd: Dtd,
        constraints: &[xic_xpathlog::LDenial],
        independence: bool,
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
            independence,
            patterns: PatternCache::new(),
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

    /// Whether the static independence analysis is on for this Γ.
    pub(crate) fn independence(&self) -> bool {
        self.independence
    }

    /// The store of update patterns compiled against this Γ, shared by
    /// every checker, snapshot and shard over it.
    pub fn patterns(&self) -> &PatternCache {
        &self.patterns
    }

    /// True if some constraint reads the `Pos` column of relation `rel`.
    pub(crate) fn reads_pos(&self, rel: &str) -> bool {
        self.read_fps.iter().any(|fp| fp.reads_cell(rel, POS_COL))
    }

    /// The live-constraint mask for the statement just applied to `doc`,
    /// or `None` when the analysis is off. The write footprint is read
    /// off `applied`'s log (see [`IndependenceIndex::delta_footprint`])
    /// against the version `applied` produced.
    pub(crate) fn live_mask(&self, doc: &Document, applied: &AppliedUpdate) -> Option<Vec<bool>> {
        if !self.independence {
            return None;
        }
        let _footprint = xic_obs::phase("footprint");
        let wfp = self.indep_index.delta_footprint(doc, applied);
        Some(live_set(&self.read_fps, &wfp))
    }

    /// Runs the full (non-simplified) check against `doc`, restricted to
    /// the constraints `live` marks `true` (all of them when `None`), and
    /// returns the first violation in constraint order, if any. The
    /// verdict on a masked run equals the unmasked one whenever the
    /// skipped constraints' verdicts could not have changed, which is
    /// what the caller's footprint intersection established.
    ///
    /// Constraints are evaluated *existentially*, in constraint order,
    /// on the calling thread — each stops at its first witness binding,
    /// and the pass stops at the first violation or error. A step budget
    /// the caller armed (a per-request deadline) bounds the whole pass.
    pub(crate) fn check_full(
        &self,
        doc: &Document,
        live: Option<&[bool]>,
    ) -> Result<Option<Violation>, CheckerError> {
        let _check = xic_obs::phase("check");
        let _full = xic_obs::phase("full");
        if let Some(mask) = live {
            count_retained(mask, self.full_ir.len());
        }
        self.first_violation(doc, live)
    }

    /// The first constraint `mask` keeps (all when `None`) that `doc`
    /// violates, in constraint order.
    fn first_violation(
        &self,
        doc: &Document,
        mask: Option<&[bool]>,
    ) -> Result<Option<Violation>, CheckerError> {
        for i in 0..self.full_ir.len() {
            if mask.is_some_and(|m| !m.get(i).copied().unwrap_or(true)) {
                continue;
            }
            if let Some(violation) = self.violation_of(doc, i)? {
                return Ok(Some(violation));
            }
        }
        Ok(None)
    }

    /// Constraint `i`'s violation in `doc`, by its full-check query.
    pub(crate) fn violation_of(
        &self,
        doc: &Document,
        i: usize,
    ) -> Result<Option<Violation>, CheckerError> {
        Ok(self.holds_violation(doc, i)?.then(|| Violation {
            denial: self.gamma[i].to_string(),
            query: self.full_queries[i].text.clone(),
        }))
    }

    /// Decides `stmt` by the baseline strategy on a copy of `doc`: apply
    /// to the copy, mask, full check of the copy. Returns the copy — the
    /// version a legal verdict commits — with the verdict; `doc` is never
    /// touched. A statement that does not apply is a
    /// [`CheckerError::Statement`], and its partial copy is dropped.
    pub(crate) fn decide_full(
        &self,
        doc: &Document,
        stmt: &XUpdateDoc,
    ) -> Result<(Document, Option<Violation>), CheckerError> {
        let (copy, applied) = apply_to_copy(doc, stmt, &xpath_resolver)?;
        let live = self.live_mask(&copy, &applied);
        let verdict = self.check_full(&copy, live.as_deref())?;
        Ok((copy, verdict))
    }

    /// The one choice of the runtime: decides `stmt` on `doc` by its
    /// optimized pre-update check and, where it has none, by the baseline
    /// ([`SharedGamma::decide_full`]). `doc` is never touched. The writer
    /// commits what the decision leaves; a snapshot drops it.
    pub(crate) fn decide(&self, doc: &Document, stmt: &XUpdateDoc) -> Decision {
        let fallback = match self.decide_optimized(doc, stmt) {
            Ok(Verdict::NotIncremental(fallback)) => fallback,
            Ok(Verdict::Legal(legal)) => return Decision { fallback: None, verdict: Ok(Ok(legal)) },
            Ok(Verdict::Violated(v)) => return Decision { fallback: None, verdict: Ok(Err(v)) },
            Err(e) => return Decision { fallback: None, verdict: Err(e) },
        };
        let verdict = self.decide_full(doc, stmt).map(|(copy, violation)| match violation {
            Some(violation) => Err(violation),
            None => Ok(Legal::Applied(copy)),
        });
        Decision { fallback: Some(fallback), verdict }
    }

    /// Evaluates constraint `i` existentially.
    fn holds_violation(&self, doc: &Document, i: usize) -> Result<bool, CheckerError> {
        self.full_ir[i]
            .eval_exists(doc, &[])
            .map_err(|e| CheckerError::eval(&self.full_queries[i].text, e))
    }
}

/// What [`SharedGamma::decide`] found.
pub(crate) struct Decision {
    /// Why the baseline decided, or `None` when the pre-update check did
    /// (or failed: its error is the answer, nothing is retried).
    pub(crate) fallback: Option<Fallback>,
    /// What a commit needs, or the violation that refuses the statement.
    pub(crate) verdict: Result<Result<Legal, Violation>, CheckerError>,
}

impl Decision {
    /// The strategy that decided.
    pub(crate) fn strategy(&self) -> Strategy {
        match self.fallback {
            None => Strategy::Optimized,
            Some(_) => Strategy::FullWithRollback,
        }
    }
}

/// Counts a full check's constraints by the static independence mask:
/// those `mask` keeps as retained, the rest of `n` as skipped.
pub(crate) fn count_retained(mask: &[bool], n: usize) {
    let retained = (0..n).filter(|&i| mask.get(i).copied().unwrap_or(true)).count();
    xic_obs::add(xic_obs::Counter::ChecksSkippedStatic, (n - retained) as u64);
    xic_obs::add(xic_obs::Counter::ChecksRetainedStatic, retained as u64);
}

/// Applies `stmt` to a copy of `doc` — a new version that shares every
/// chunk the statement does not write — and returns it with its delta.
/// `doc` is never touched; a statement that does not apply leaves
/// nothing behind but its error.
pub(crate) fn apply_to_copy(
    doc: &Document,
    stmt: &XUpdateDoc,
    resolve: SelectResolver,
) -> Result<(Document, AppliedUpdate), CheckerError> {
    let _update = xic_obs::phase("update");
    let _apply = xic_obs::phase("apply");
    let mut copy = doc.clone();
    let applied = apply(&mut copy, stmt, resolve).map_err(|(e, _)| e)?;
    Ok((copy, applied))
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

    #[test]
    fn armed_budget_bounds_the_full_check_of_a_large_document() {
        let w = generate(WorkloadConfig::sized_kib(128, 1));
        let constraints = format!("{} . {}", review_load_constraint(1_000), conflict_constraint());
        let c = Checker::new(&w.xml, DTD, &constraints).expect("corpus loads");
        assert_eq!(c.check_full().expect("unbudgeted check"), None);
        let _armed = xic_xpath::budget::arm(EvalBudget::new(0));
        assert!(matches!(c.check_full(), Err(CheckerError::BudgetExhausted)));
    }
}
