//! The one table emitter and the one report writer behind every
//! `experiments` section: a section's column list formats its stdout
//! table *and* keys its JSON rows, and the report file keeps exactly the
//! sections the binary can still regenerate ([`SECTIONS`]).

use std::process::Command;
use xicheck::obs::{self, json, json::Value};

/// The sections `experiments` produces, in `all` order.
pub const SECTIONS: [&str; 5] = ["fig1a", "fig1b", "illegal", "simp", "versions"];

/// One table column: its JSON row key and how stdout shows it.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// Key of the value in each JSON row object.
    pub key: &'static str,
    /// Stdout header; empty keeps the column out of the stdout table.
    pub header: &'static str,
    /// Stdout width; cells are right-aligned in it.
    pub width: usize,
    /// Decimals shown on stdout (the JSON row keeps the full value).
    pub decimals: usize,
}

/// A column: its JSON key, stdout header, width and decimals.
pub const fn col(key: &'static str, header: &'static str, width: usize, decimals: usize) -> Column {
    Column { key, header, width, decimals }
}

fn object<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn line(columns: &[Column], text: impl Fn(usize, &Column) -> String) -> String {
    let shown = columns.iter().enumerate().filter(|(_, c)| !c.header.is_empty());
    let cells: Vec<String> = shown.map(|(i, c)| format!("{:>w$}", text(i, c), w = c.width)).collect();
    cells.join(" ")
}

/// The stdout header line for `columns`.
pub fn header_line(columns: &[Column]) -> String {
    line(columns, |_, c| c.header.to_string())
}

/// The stdout line for one row: numbers rounded as their column says,
/// strings as they are.
pub fn row_line(columns: &[Column], cells: &[Value]) -> String {
    line(columns, |i, c| match &cells[i] {
        Value::Number(v) => format!("{v:.d$}", d = c.decimals),
        other => other.as_str().unwrap_or_default().to_string(),
    })
}

/// The JSON object for one row: every column's key, in column order.
pub fn row_json(columns: &[Column], cells: Vec<Value>) -> Value {
    object(columns.iter().map(|c| c.key).zip(cells))
}

/// Prints one section's table, each row as `rows` yields it (a long sweep
/// shows progress), and returns the section object: `title`, the run's
/// `params`, `rows`, and the calling thread's `obs` snapshot taken across
/// the measurement.
pub fn emit(
    title: &str,
    columns: &[Column],
    params: &[(&str, f64)],
    rows: impl Iterator<Item = Vec<Value>>,
) -> Value {
    println!("== {title} ==\n{}", header_line(columns));
    obs::reset();
    let rows = rows.map(|cells| {
        assert_eq!(cells.len(), columns.len(), "one cell per column");
        println!("{}", row_line(columns, &cells));
        row_json(columns, cells)
    });
    let rows = Value::Array(rows.collect());
    println!();
    let params = params.iter().map(|&(k, v)| (k, Value::Number(v)));
    object(
        std::iter::once(("title", Value::String(title.to_string())))
            .chain(params)
            .chain([("rows", rows), ("obs", obs::snapshot().to_json_value())]),
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    let output = Command::new(program).args(args).output().ok().filter(|o| o.status.success());
    output.map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Where and how a run was made, under the keys the wire-level
/// benchmark's result files use, so a reported number is tied to a
/// recorded host and commit.
pub fn run_meta(seed: u64, iters: usize, sizes: &[usize]) -> Value {
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    object([
        ("git_rev", Value::String(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", Value::String(command_line("rustc", &["--version"]))),
        ("profile", Value::String(profile.to_string())),
        ("host_cores", Value::Number(cores as f64)),
        ("seed", Value::Number(seed as f64)),
        ("iters", Value::Number(iters as f64)),
        ("sizes", Value::Array(sizes.iter().map(|&k| Value::Number(k as f64)).collect())),
    ])
}

/// Rewrites the report at `path`: `fresh` sections replace their previous
/// versions, earlier sections named in [`SECTIONS`] keep their place (so
/// `experiments fig1a` then `experiments fig1b` accumulates both), any
/// other section is dropped — the binary can no longer regenerate it —
/// and `meta` describes the run that wrote the file.
pub fn write_report(path: &str, meta: Value, fresh: Vec<(String, Value)>) -> std::io::Result<()> {
    let mut sections: Vec<(String, Value)> = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|v| v.get("sections").and_then(|s| s.as_object().map(<[_]>::to_vec)))
        .unwrap_or_default();
    sections.retain(|(name, _)| SECTIONS.contains(&name.as_str()));
    for (name, value) in fresh {
        match sections.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => sections.push((name, value)),
        }
    }
    let report = object([
        ("schema_version", Value::Number(1.0)),
        ("generator", Value::String("xic-bench experiments".to_string())),
        ("meta", meta),
        ("sections", Value::Object(sections)),
    ]);
    std::fs::write(path, report.render_pretty(2) + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(v: &Value) -> Vec<&str> {
        v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn one_column_list_drives_the_table_and_the_json_row() {
        const COLUMNS: &[Column] = &[
            col("experiment", "experiment", 12, 0),
            col("kib", "size/KiB", 9, 0),
            col("wall_ms", "", 0, 0),
            col("full_ms", "full/ms", 10, 2),
        ];
        let mut cells = vec![Value::String("conflict".to_string())];
        cells.extend([32.0, 7.5, 20.366].map(Value::Number));
        assert_eq!(header_line(COLUMNS), "  experiment  size/KiB    full/ms");
        assert_eq!(row_line(COLUMNS, &cells), "    conflict        32      20.37");
        let row = row_json(COLUMNS, cells);
        assert_eq!(keys(&row), ["experiment", "kib", "wall_ms", "full_ms"]);
        assert_eq!(row.get("experiment").unwrap().as_str(), Some("conflict"));
        assert_eq!(row.get("full_ms").unwrap().as_f64(), Some(20.366));
    }

    #[test]
    fn write_report_keeps_live_sections_and_drops_retired_ones() {
        let path = std::env::temp_dir().join(format!("xic-bench-report-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let old = r#"{"schema_version": 1, "generator": "xic-bench experiments", "sections":
            {"fig1a": {"rows": [{"kib": 32}]}, "journal-overhead": {"rows": []}}}"#;
        std::fs::write(path, old).unwrap();
        let fig1b = object([("rows", Value::Array(Vec::new()))]);
        write_report(path, run_meta(1, 3, &[32, 64]), vec![("fig1b".to_string(), fig1b)]).unwrap();
        let report = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        std::fs::remove_file(path).unwrap();

        assert_eq!(keys(&report), ["schema_version", "generator", "meta", "sections"]);
        let sections = report.get("sections").unwrap();
        assert_eq!(keys(sections), ["fig1a", "fig1b"], "the retired section must go");
        let kept = sections.get("fig1a").unwrap().get("rows").unwrap().as_array().unwrap();
        assert_eq!(kept[0].get("kib").unwrap().as_u64(), Some(32));
        let meta = report.get("meta").unwrap();
        assert_eq!(keys(meta), ["git_rev", "rustc", "profile", "host_cores", "seed", "iters", "sizes"]);
    }
}
