//! What a pass hands back, and how it is written down.

use crate::stats::Summary;
pub use xicheck::obs::json::{parse, Value};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// The names and units of the metrics one kind of pass emits, in
/// `BENCHMARK.json`'s order.
pub type MetricTable = &'static [(&'static str, &'static str)];

/// The outcome of one pass (untraced or traced) over one workload.
#[derive(Debug, Clone)]
pub struct Pass {
    table: MetricTable,
    /// The metrics `BENCHMARK.json` names for this kind of pass.
    pub metrics: Vec<Metric>,
    /// Everything else worth keeping in the result file (an object).
    pub info: Value,
    /// Requests sent plus end-state checks made.
    pub attempted: u64,
    /// Those that failed: transport errors, replies the oracle does not
    /// expect, end-state checks that did not hold.
    pub failed: u64,
    /// One line per failure kind, for the operator (capped).
    pub problems: Vec<String>,
    /// Wall seconds the whole pass took.
    pub wall_s: f64,
}

impl Pass {
    /// An empty pass that will emit the metrics of `table`.
    pub fn new(table: MetricTable) -> Pass {
        Pass {
            table,
            metrics: Vec::new(),
            info: Value::Null,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            wall_s: 0.0,
        }
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Adds a metric of the pass's table.
    pub fn metric(&mut self, name: &str, value: f64) {
        let &(name, unit) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the pass's table"));
        self.metrics.push(Metric { name, unit, value });
    }

    /// Whether every metric of the table was added, in the table's order.
    pub fn complete(&self) -> bool {
        self.metrics
            .iter()
            .map(|m| m.name)
            .eq(self.table.iter().map(|(n, _)| *n))
    }

    /// `{"name": value, …}` of the metrics.
    pub fn metric_values(&self) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|m| (m.name.to_string(), Value::Number(m.value)))
                .collect(),
        )
    }

    /// The line the benchmark contract asks for on stdout.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = obj([("value", Value::Number(m.value)), ("unit", text(m.unit))]);
                (m.name.to_string(), entry)
            })
            .collect();
        obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Number(self.attempted as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", Value::Object(metrics)),
        ])
        .render()
    }
}

/// An object from `(key, value)` pairs.
pub fn obj<const N: usize>(members: [(&str, Value); N]) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A string value.
pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// A number value.
pub fn num(n: impl Into<f64>) -> Value {
    Value::Number(n.into())
}

/// A latency class as JSON (milliseconds).
pub fn summary_json(s: &Summary) -> Value {
    let mut members = vec![
        ("samples".to_string(), num(s.count as f64)),
        ("p50_ms".to_string(), num(s.p50)),
    ];
    if let Some((p, v)) = s.tail {
        members.push((format!("p{p}_ms"), num(v)));
    }
    members.push(("max_ms".to_string(), num(s.max)));
    Value::Object(members)
}
