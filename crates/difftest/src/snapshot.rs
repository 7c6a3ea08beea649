//! Oracle 7 — **snapshot decide**: [`ReadSnapshot::decide`] answers what
//! the writer would (DESIGN.md row 25).
//!
//! Each case is the differential case of its seed ([`generate_case`]:
//! schema, document, constraints, a statement of one to three operations
//! drawn from all six kinds), decided four ways with the static
//! independence analysis on and off:
//!
//! * `decide` on the snapshot of a [`CheckerService`] over the case;
//! * `decide_only(Optimized)`, `decide_only(FullWithRollback)` and
//!   `try_update`, in that order, on a twin [`Checker`] with the same
//!   settings.
//!
//! The snapshot's answer must equal `try_update`'s — accepted/applied,
//! rejected with the same [`Violation`] (denial and
//! query text), or failed with the same error text; a `LEGAL` where the
//! writer reports an error is a divergence, not a tolerated
//! disagreement. It must equal `decide_only(Optimized)` wherever that
//! strategy is defined, equal `decide_only(FullWithRollback)` exactly
//! where it is not (the fallback), and agree with the baseline's
//! accept/reject/fail class everywhere. Deciding must leave the
//! snapshot's serialization byte-identical.
//!
//! Divergences print a single-line replay command
//! (`cargo run -p xic-difftest -- --snapshot-decide --seed N --cases 1`).

use crate::{each_case, generate_case, tally, Case, Config, Outcome, COVERAGE_FLOOR_CASES};
use xic_xml::XUpdateDoc;
use xicheck::service::ReadSnapshot;
use xicheck::{
    Checker, CheckerError, CheckerService, Executor, SharedGamma, Strategy, UpdateOutcome,
    Violation,
};

/// One failed case, with the setting it failed under.
#[derive(Debug, Clone)]
pub struct SnapshotDivergence {
    /// Seed of the failing case.
    pub seed: u64,
    /// Whether the static independence analysis was on.
    pub independence: bool,
    /// The statement decided.
    pub stmt: String,
    /// What disagreed.
    pub detail: String,
}

impl SnapshotDivergence {
    /// A multi-line report ending in the one-line replay command.
    pub fn report(&self) -> String {
        format!(
            "snapshot-decide divergence (seed {}, independence {})\n  {}\n  \
             statement: {}\n  replay: cargo run -p xic-difftest -- --snapshot-decide \
             --seed {} --cases 1",
            self.seed,
            if self.independence { "on" } else { "off" },
            self.detail,
            self.stmt,
            self.seed,
        )
    }
}

/// Outcome of a snapshot-decide run.
#[derive(Debug, Default)]
pub struct SnapshotReport {
    /// The configuration that produced it.
    pub config: Config,
    /// Decisions (cases × settings) the optimized check answered.
    pub decided_optimized: u64,
    /// Decisions that fell back to the baseline.
    pub decided_fallback: u64,
    /// Operations generated per kind, in [`OP_KINDS`] order.
    pub ops: [u64; 6],
    /// All divergences, in seed order.
    pub divergences: Vec<SnapshotDivergence>,
}

/// The summary line's labels for [`SnapshotReport::ops`]: the six
/// XUpdate operation kinds in [`tally::OPS`] order.
pub const OP_KINDS: [&str; 6] = [
    "insert-before",
    "insert-after",
    "append",
    "remove",
    "update",
    "rename",
];

impl SnapshotReport {
    /// The run's [`Outcome`]. Floors: a run of ≥ 100 cases must have
    /// taken both the optimized and the fallback path and generated all
    /// six operation kinds.
    pub fn outcome(&self) -> Outcome {
        let Config { seed, cases } = self.config;
        let (optimized, fallback) = (self.decided_optimized, self.decided_fallback);
        let mix: Vec<String> =
            OP_KINDS.iter().zip(self.ops).map(|(kind, n)| format!("{kind}={n}")).collect();
        let share = optimized as f64 / (optimized + fallback).max(1) as f64;
        let summary = format!(
            "snapshot-decide: {cases} cases from seed {seed} (independence on and off) — \
             {} divergences, {optimized} decided optimized, {fallback} decided by fallback \
             (optimized share {share:.2}); op mix: {}",
            self.divergences.len(),
            mix.join(" "),
        );
        let floor = if cases < COVERAGE_FLOOR_CASES {
            Ok(())
        } else if optimized == 0 || fallback == 0 {
            Err(format!(
                "snapshot-decide: {cases} cases never took both paths \
                 ({optimized} optimized, {fallback} fallback)"
            ))
        } else if let Some(i) = self.ops.iter().position(|&n| n == 0) {
            Err(format!(
                "snapshot-decide: operation kind {} never generated in {cases} cases",
                OP_KINDS[i]
            ))
        } else {
            Ok(())
        };
        let divergences = self.divergences.iter().map(SnapshotDivergence::report).collect();
        Outcome { summary, divergences, floor }
    }
}

type Decision = Result<Option<Violation>, CheckerError>;

/// A decision with its error flattened to text (errors compare by what
/// the wire would print).
fn flat(d: &Decision) -> Result<&Option<Violation>, String> {
    d.as_ref().map_err(|e| e.to_string())
}

/// `"accepts"` / `"rejects"` / `"fails"`.
fn class(d: &Decision) -> &'static str {
    match d {
        Ok(None) => "accepts",
        Ok(Some(_)) => "rejects",
        Err(_) => "fails",
    }
}

/// Compares the snapshot's decision with the twin's three.
fn compare(
    decided: &Decision,
    optimized: &Decision,
    baseline: &Decision,
    updated: &Result<UpdateOutcome, CheckerError>,
) -> Result<(), String> {
    let as_update: Decision = match updated {
        Ok(UpdateOutcome::Applied { .. }) => Ok(None),
        Ok(UpdateOutcome::Rejected { violation, .. }) => Ok(Some(violation.clone())),
        Err(e) => Err(e.clone()),
    };
    if flat(decided) != flat(&as_update) {
        return Err(format!(
            "snapshot decide {decided:?} but try_update {updated:?}"
        ));
    }
    if class(decided) != class(baseline) {
        return Err(format!(
            "snapshot decide {} but decide_only(FullWithRollback) {} ({decided:?} vs {baseline:?})",
            class(decided),
            class(baseline),
        ));
    }
    // Where the optimized strategy is defined the snapshot must have
    // taken it; where it is not, the snapshot's answer is the baseline's.
    let (reference, name) = match optimized {
        Ok(_) => (optimized, "decide_only(Optimized)"),
        Err(_) => (baseline, "decide_only(FullWithRollback), the fallback,"),
    };
    if flat(decided) != flat(reference) {
        return Err(format!(
            "snapshot decide {decided:?} but {name} {reference:?}"
        ));
    }
    Ok(())
}

/// A checker over a Γ of its own, compiled with the independence
/// analysis on or off.
fn checker(case: &Case, independence: bool) -> Result<Checker, String> {
    let compile =
        if independence { SharedGamma::compile } else { SharedGamma::compile_unmasked };
    compile(&case.dtd, &case.constraints)
        .and_then(|gamma| Checker::from_shared(&case.doc_xml, &gamma))
        .map_err(|e| format!("checker setup failed: {e}"))
}

/// `decide` on `snapshot`, asserting it leaves the snapshot untouched.
fn decide_untouched(snapshot: &ReadSnapshot, stmt: &XUpdateDoc) -> Result<Decision, String> {
    let before = snapshot.serialize();
    let decided = snapshot.decide(stmt);
    if snapshot.serialize() != before {
        return Err("decide modified the snapshot document".to_string());
    }
    Ok(decided)
}

/// Runs one case under one independence setting; returns `(optimized,
/// fallback)` decision counts from the service's own counters.
fn check_setting(
    case: &Case,
    stmt: &XUpdateDoc,
    independence: bool,
) -> Result<(u64, u64), String> {
    let service = CheckerService::new(checker(case, independence)?, Executor::GroupCommit);
    let decided = decide_untouched(&service.snapshot(), stmt)?;
    let mut twin = checker(case, independence)?;
    let optimized = twin.decide_only(stmt, Strategy::Optimized);
    let baseline = twin.decide_only(stmt, Strategy::FullWithRollback);
    let updated = twin.try_update(stmt);
    compare(&decided, &optimized, &baseline, &updated)?;
    let stats = service.stats();
    let fallback: u64 = stats.decides_fallback.iter().sum();
    if stats.decides_optimized + fallback != 1 {
        return Err(format!("one decide, but the service counted {stats:?}"));
    }
    Ok((stats.decides_optimized, fallback))
}

/// Runs `config.cases` cases starting at `config.seed`.
pub fn run_snapshot_decide(config: Config) -> SnapshotReport {
    let mut report = SnapshotReport { config, ..Default::default() };
    each_case(config, |seed, _| {
        let case = generate_case(seed);
        let text = case.stmt_text();
        let stmt = match XUpdateDoc::parse(&text) {
            Ok(stmt) => stmt,
            Err(e) => {
                report.divergences.push(SnapshotDivergence {
                    seed,
                    independence: true,
                    stmt: text,
                    detail: format!("generated statement does not parse: {e}"),
                });
                return;
            }
        };
        for op in &stmt.ops {
            report.ops[crate::op_counter(op) as usize - tally::OPS.start] += 1;
        }
        for independence in [true, false] {
            match check_setting(&case, &stmt, independence) {
                Ok((optimized, fallback)) => {
                    report.decided_optimized += optimized;
                    report.decided_fallback += fallback;
                }
                Err(detail) => {
                    report.divergences.push(SnapshotDivergence {
                        seed,
                        independence,
                        stmt: text.clone(),
                        detail,
                    });
                    break;
                }
            }
        }
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_has_no_divergences_and_takes_both_paths() {
        let report = run_snapshot_decide(Config { seed: 1, cases: 40 });
        for d in &report.divergences {
            eprintln!("{}", d.report());
        }
        assert!(report.divergences.is_empty());
        assert!(
            report.decided_optimized > 0,
            "no case was decided pre-update"
        );
        assert!(
            report.decided_fallback > 0,
            "no case fell back to the baseline"
        );
    }

    #[test]
    fn floors_need_both_decide_paths_and_all_six_op_kinds() {
        let report = |cases, decided_fallback, ops| SnapshotReport {
            config: Config { seed: 1, cases },
            decided_optimized: 166,
            decided_fallback,
            ops,
            divergences: Vec::new(),
        };
        assert_eq!(report(100, 34, [1; 6]).outcome().floor, Ok(()));
        let floor = report(100, 0, [1; 6]).outcome().floor.unwrap_err();
        assert!(floor.contains("never took both paths (166 optimized, 0 fallback)"), "{floor}");
        let floor = report(100, 34, [1, 1, 1, 1, 1, 0]).outcome().floor.unwrap_err();
        assert!(floor.contains("operation kind rename never generated"), "{floor}");
        assert_eq!(report(99, 0, [0; 6]).outcome().floor, Ok(()), "a short run is not held to it");
    }

    #[test]
    fn a_legal_vs_error_split_is_a_divergence() {
        let refused = CheckerError::Statement("select matched no nodes".to_string());
        let err = compare(&Ok(None), &Ok(None), &Err(refused.clone()), &Err(refused)).unwrap_err();
        assert!(err.contains("try_update"), "{err}");
    }
}
