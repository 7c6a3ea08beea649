//! `bench-diff OLD NEW`: did anything get worse than its bound allows?
//!
//! Reads two result files written by the suite and the metric
//! definitions in `BENCHMARK.json`, prints one row per (workload,
//! end-to-end metric), and fails on any regression, on a higher
//! `failed_share`, or on a file that lacks a workload or metric the
//! benchmark defines. The per-layer tables are diffed for information
//! only: they have no bounds.

use crate::report::Value;
use std::fmt::Write as _;

/// How one metric moved between two results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Ok,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// Missing (or not a number) on either side: not compared.
    Null,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Null => "null",
        }
    }
}

/// An end-to-end metric as `BENCHMARK.json` defines it.
#[derive(Debug, Clone, PartialEq)]
pub struct Definition {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether smaller values are better.
    pub lower_is_better: bool,
    /// Share of the old value by which the metric may get worse.
    pub bound: f64,
}

/// Compares `new` to `old` for a metric that may worsen by `bound` (a
/// share of `old`).
pub fn verdict(old: Option<f64>, new: Option<f64>, lower_is_better: bool, bound: f64) -> Verdict {
    let (Some(old), Some(new)) = (old, new) else {
        return Verdict::Null;
    };
    if !old.is_finite() || !new.is_finite() || old == 0.0 {
        return Verdict::Null;
    }
    // Positive when the metric got worse.
    let worse_by = if lower_is_better {
        new - old
    } else {
        old - new
    } / old.abs();
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// The workloads and end-to-end metric definitions of a parsed
/// `BENCHMARK.json`.
pub fn definitions(benchmark: &Value) -> Result<(Vec<String>, Vec<Definition>), String> {
    let names = |key: &str| -> Result<Vec<&Value>, String> {
        Ok(benchmark
            .get(key)
            .and_then(Value::as_array)
            .ok_or(format!("BENCHMARK.json: no {key:?} list"))?
            .iter()
            .collect())
    };
    let text = |v: &Value, key: &str| -> Result<String, String> {
        Ok(v.get(key)
            .and_then(Value::as_str)
            .ok_or(format!("BENCHMARK.json: entry without {key:?}"))?
            .to_string())
    };
    let workloads = names("workloads")?
        .into_iter()
        .map(|w| text(w, "name"))
        .collect::<Result<_, _>>()?;
    let metrics = names("end_to_end")?
        .into_iter()
        .map(|m| {
            Ok(Definition {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                lower_is_better: text(m, "better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("BENCHMARK.json: metric without bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((workloads, metrics))
}

fn number(result: &Value, workload: &str, section: &str, metric: &str) -> Option<f64> {
    result
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?
        .as_f64()
}

/// The report and whether the comparison passes.
pub fn diff(benchmark: &Value, old: &Value, new: &Value) -> Result<(String, bool), String> {
    let (workloads, metrics) = definitions(benchmark)?;
    let mut out = String::new();
    let mut pass = true;
    let _ = writeln!(
        out,
        "{:<14} {:<24} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "old", "new", "change", "bound"
    );
    for w in &workloads {
        for side in [("OLD", old), ("NEW", new)] {
            if side.1.get("workloads").and_then(|all| all.get(w)).is_none() {
                let _ = writeln!(out, "{w}: missing from {}", side.0);
                pass = false;
            }
        }
        for m in &metrics {
            let (a, b) = (
                number(old, w, "end_to_end", &m.name),
                number(new, w, "end_to_end", &m.name),
            );
            let v = verdict(a, b, m.lower_is_better, m.bound);
            pass &= !matches!(v, Verdict::Regressed | Verdict::Null);
            let show = |x: Option<f64>| x.map_or("null".to_string(), |x| format!("{x:.4}"));
            let change = match (a, b) {
                (Some(a), Some(b)) if a != 0.0 => format!("{:+.1}%", (b - a) / a * 100.0),
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{w:<14} {:<24} {:>14} {:>14} {change:>8} {:>6}  {}",
                format!("{} [{}]", m.name, m.unit),
                show(a),
                show(b),
                m.bound,
                v.word()
            );
        }
        let (a, b) = (
            number(old, w, "untraced", "failed_share"),
            number(new, w, "untraced", "failed_share"),
        );
        let worse = matches!((a, b), (Some(a), Some(b)) if b > a) || b.is_none();
        pass &= !worse;
        let _ = writeln!(
            out,
            "{w:<14} {:<24} {:>14} {:>14} {:>8} {:>6}  {}",
            "failed_share",
            a.map_or("null".to_string(), |x| x.to_string()),
            b.map_or("null".to_string(), |x| x.to_string()),
            "-",
            "0",
            if worse { "REGRESSED" } else { "ok" }
        );
    }
    for w in &workloads {
        let layers = |r: &Value| {
            r.get("workloads")?
                .get(w)?
                .get("per_layer")?
                .as_object()
                .map(<[_]>::to_vec)
        };
        let (Some(a), Some(b)) = (layers(old), layers(new)) else {
            continue;
        };
        let _ = writeln!(out, "\nper-layer, {w} (information only)");
        for (name, old_value) in &a {
            let new_value = b.iter().find(|(k, _)| k == name).map(|(_, v)| v);
            if let (Some(x), Some(y)) = (old_value.as_f64(), new_value.and_then(Value::as_f64)) {
                let change = if x != 0.0 {
                    format!("{:+.1}%", (y - x) / x * 100.0)
                } else {
                    "-".to_string()
                };
                let _ = writeln!(out, "  {name:<30} {x:>14.4} {y:>14.4} {change:>8}");
            }
        }
    }
    let _ = writeln!(out, "\nbench-diff: {}", if pass { "ok" } else { "FAILED" });
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{num, obj, text};

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Lower is better, bound 10%.
        assert_eq!(verdict(Some(10.0), Some(10.9), true, 0.1), Verdict::Ok);
        assert_eq!(
            verdict(Some(10.0), Some(11.1), true, 0.1),
            Verdict::Regressed
        );
        assert_eq!(verdict(Some(10.0), Some(8.9), true, 0.1), Verdict::Improved);
        // Higher is better.
        assert_eq!(
            verdict(Some(100.0), Some(89.0), false, 0.1),
            Verdict::Regressed
        );
        assert_eq!(verdict(Some(100.0), Some(91.0), false, 0.1), Verdict::Ok);
        assert_eq!(
            verdict(Some(100.0), Some(111.0), false, 0.1),
            Verdict::Improved
        );
        // Nothing to compare.
        assert_eq!(verdict(None, Some(1.0), true, 0.1), Verdict::Null);
        assert_eq!(verdict(Some(1.0), None, true, 0.1), Verdict::Null);
        assert_eq!(verdict(Some(0.0), Some(1.0), true, 0.1), Verdict::Null);
    }

    fn benchmark() -> Value {
        obj([
            (
                "workloads",
                Value::Array(vec![obj([("name", text("w")), ("why", text("because"))])]),
            ),
            (
                "end_to_end",
                Value::Array(vec![obj([
                    ("name", text("latency_ms")),
                    ("unit", text("ms")),
                    ("better", text("lower")),
                    ("bound", num(0.1)),
                ])]),
            ),
        ])
    }

    fn result(latency: f64, failed_share: f64) -> Value {
        let workload = obj([
            ("end_to_end", obj([("latency_ms", num(latency))])),
            ("untraced", obj([("failed_share", num(failed_share))])),
            ("per_layer", obj([("tree.clone_us", num(latency * 10.0))])),
        ]);
        obj([("workloads", obj([("w", workload)]))])
    }

    #[test]
    fn a_result_agrees_with_itself_and_regressions_fail() {
        let (report, pass) = diff(&benchmark(), &result(5.0, 0.0), &result(5.0, 0.0)).unwrap();
        assert!(pass, "{report}");
        assert!(report.contains("tree.clone_us"), "{report}");
        let (report, pass) = diff(&benchmark(), &result(5.0, 0.0), &result(5.6, 0.0)).unwrap();
        assert!(!pass && report.contains("REGRESSED"), "{report}");
        let (_, pass) = diff(&benchmark(), &result(5.0, 0.0), &result(4.0, 0.0)).unwrap();
        assert!(pass, "an improvement passes");
        let (_, pass) = diff(&benchmark(), &result(5.0, 0.0), &result(5.0, 0.001)).unwrap();
        assert!(!pass, "a higher failed_share fails whatever the timings");
    }

    #[test]
    fn a_missing_workload_or_metric_fails_the_schema_check() {
        let empty = obj([("workloads", obj([]))]);
        let (report, pass) = diff(&benchmark(), &result(5.0, 0.0), &empty).unwrap();
        assert!(!pass && report.contains("missing from NEW"), "{report}");
        assert!(diff(&obj([]), &empty, &empty).is_err());
    }
}
