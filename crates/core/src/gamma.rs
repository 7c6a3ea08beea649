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
//! fallback and [`crate::service::ReadSnapshot`] all call the same code.
//!
//! In `DESIGN.md`'s system inventory this is row 26.

use crate::checker::{CheckerError, Violation};
use crate::footprint::IndependenceIndex;
use crate::resolver::xpath_resolver;
use std::sync::Arc;
use xic_datalog::Denial;
use xic_mapping::{map_denials, RelSchema};
use xic_simplify::footprint::POS_COL;
use xic_simplify::{live_set, read_footprints, ReadFootprint};
use xic_translate::{translate_denials, QueryTemplate};
use xic_xml::{apply, undo, AppliedUpdate, Document, Dtd, XUpdateDoc};
use xic_xquery::{parse_query, XProgram};

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

    /// True if some constraint reads the `Pos` column of relation `rel`.
    pub(crate) fn reads_pos(&self, rel: &str) -> bool {
        self.read_fps.iter().any(|fp| fp.reads_cell(rel, POS_COL))
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
    /// Constraints are evaluated *existentially*, in constraint order,
    /// on the calling thread — each stops at its first witness binding,
    /// and the pass stops at the first violation or error. A step budget
    /// the caller armed (a per-request deadline) bounds the whole pass.
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
        for i in indices {
            if self.holds_violation(doc, i)? {
                return Ok(Some(Violation {
                    denial: self.gamma.gamma[i].to_string(),
                    query: self.gamma.full_queries[i].text.clone(),
                }));
            }
        }
        Ok(None)
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
                CheckerError::from(e)
            })?
        };
        let live = self.live_mask(doc, &applied);
        let verdict = self.run(doc, live.as_deref());
        let _update = xic_obs::phase("update");
        let _rollback = xic_obs::phase("rollback");
        undo(doc, applied);
        verdict
    }

    /// Evaluates constraint `i` existentially.
    fn holds_violation(&self, doc: &Document, i: usize) -> Result<bool, CheckerError> {
        self.gamma.full_ir[i]
            .eval_exists(doc, &[])
            .map_err(|e| CheckerError::eval(&self.gamma.full_queries[i].text, e))
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
