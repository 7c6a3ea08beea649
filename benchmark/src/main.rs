//! `xic-benchmark` — the repo's one benchmark (see `benchmark/README.md`).
//!
//! ```text
//! xic-benchmark [--seed N] [--seconds S] [--trace] [--smoke] [--out FILE]
//!     every workload: the untraced pass (end-to-end metrics), with
//!     --trace the traced pass too (per-layer metrics); prints every
//!     metric by name and unit and writes the result file
//! xic-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one pass over one workload; the last line of stdout is the
//!     result object the benchmark contract asks for
//! xic-benchmark bench-diff OLD NEW
//!     compares two result files against the bounds in BENCHMARK.json
//! ```
//!
//! Run it through `benchmark/run.sh`, which builds it and `xic-serve`
//! first and starts it from the repository root.

mod diff;
mod oracle;
mod report;
mod stats;
mod trace;
mod traced;
mod untraced;
mod wire;
mod workloads;

use report::{num, obj, text, Pass, Value};
use std::process::{Command, ExitCode};
use workloads::{Spec, SPECS};

/// Where the suite writes its result unless `--out` says otherwise.
const DEFAULT_OUT: &str = "benchmark/out/result.json";

struct Args {
    workload: Option<Spec>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
        out: DEFAULT_OUT.to_string(),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(workloads::spec(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            // A bare flag for people, `--trace 0|1` for the driver.
            "--trace" => {
                parsed.trace = it.peek().is_none_or(|next| next.as_str() != "0");
                it.next_if(|next| matches!(next.as_str(), "0" | "1"));
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = value()?.clone(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("bench-diff") => bench_diff(&args[1..]),
        _ => parse_args(&args).and_then(|args| match args.workload {
            Some(spec) => one_pass(spec, &args),
            None => suite(&args),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xic-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    report::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bench_diff(files: &[String]) -> Result<bool, String> {
    let [old, new] = files else {
        return Err("usage: bench-diff OLD NEW".to_string());
    };
    let (report, pass) = diff::diff(
        &read_json("BENCHMARK.json")?,
        &read_json(old)?,
        &read_json(new)?,
    )?;
    print!("{report}");
    Ok(pass)
}

fn run_pass(spec: Spec, args: &Args, trace: bool) -> Result<Pass, String> {
    let plan = workloads::plan(spec, args.seed, args.seconds, args.smoke);
    let pass = if trace {
        traced::run(&plan)
    } else {
        untraced::run(&plan)
    }?;
    if !pass.complete() {
        return Err("the pass did not emit every metric of its table, in order".to_string());
    }
    let kind = if trace {
        "per-layer (traced pass)"
    } else {
        "end-to-end (untraced pass)"
    };
    eprintln!(
        "== {} · {kind} · seed {} · {:.1}s",
        spec.name, args.seed, pass.wall_s
    );
    for m in &pass.metrics {
        eprintln!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for (key, value) in pass.info.as_object().unwrap_or_default() {
        eprintln!("  {key}: {}", value.render());
    }
    eprintln!("  attempted {} failed {}", pass.attempted, pass.failed);
    for problem in &pass.problems {
        eprintln!("  FAILED: {problem}");
    }
    Ok(pass)
}

/// The contract's mode: one pass, its result object last on stdout.
/// Failed checks are reported in the object (`correct: false`), so the
/// exit code stays 0 whenever a result was measured.
fn one_pass(spec: Spec, args: &Args) -> Result<bool, String> {
    let pass = run_pass(spec, args, args.trace)?;
    println!("{}", pass.contract_line());
    Ok(true)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn meta(args: &Args) -> Value {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let per_workload = SPECS
        .iter()
        .map(|&s| {
            let plan = workloads::plan(s, args.seed, args.seconds, args.smoke);
            let counts = obj([
                ("rounds", num(plan.rounds as f64)),
                ("requests_per_round", num(plan.requests() as f64)),
                ("connections", num(untraced::connections(s) as f64)),
            ]);
            (s.name.to_string(), counts)
        })
        .collect();
    obj([
        ("schema", text("xic-benchmark/1")),
        (
            "git_rev",
            text(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", text(&command_line("rustc", &["--version"]))),
        ("profile", text("release")),
        (
            "host_cores",
            num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("kernel", text(kernel.trim())),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds as f64)),
        ("smoke", Value::Bool(args.smoke)),
        (
            "flush_policy",
            text("journal sync on, group commit max-batch 32 (xic-serve defaults)"),
        ),
        ("probe_stride", num(traced::PROBE_STRIDE as f64)),
        ("workloads", Value::Object(per_workload)),
    ])
}

/// Every workload, every metric, one result file.
fn suite(args: &Args) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut correct = true;
    for spec in SPECS {
        let untraced = run_pass(spec, args, false)?;
        correct &= untraced.failed == 0;
        let mut entry = vec![
            ("end_to_end".to_string(), untraced.metric_values()),
            ("untraced".to_string(), untraced.info.clone()),
        ];
        if args.trace {
            let traced = run_pass(spec, args, true)?;
            correct &= traced.failed == 0;
            let overhead = traced.wall_s / untraced.wall_s;
            eprintln!("  trace_overhead {overhead:.2} (traced ÷ untraced wall)");
            entry.push(("per_layer".to_string(), traced.metric_values()));
            entry.push(("traced".to_string(), traced.info.clone()));
            entry.push(("trace_overhead".to_string(), num(overhead)));
        }
        workloads.push((spec.name.to_string(), Value::Object(entry)));
    }
    let result = obj([
        ("meta", meta(args)),
        ("workloads", Value::Object(workloads)),
    ]);
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&args.out, result.render_pretty(1) + "\n")
        .map_err(|e| format!("write {}: {e}", args.out))?;
    eprintln!(
        "result written to {}; outputs {}",
        args.out,
        if correct { "correct" } else { "INCORRECT" }
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload shard-zipf --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.unwrap().name, a.seed, a.seconds, a.trace),
            ("shard-zipf", 7, 10, true)
        );
        assert!(
            !parse("--workload mixed-ops --seed 7 --seconds 10 --trace 0")
                .unwrap()
                .trace
        );
    }

    #[test]
    fn trace_is_also_a_bare_flag() {
        let a = parse("--trace --smoke --out x.json").unwrap();
        assert!(a.trace && a.smoke && a.workload.is_none());
        assert_eq!(a.out, "x.json");
        assert!(parse("--smoke --trace").unwrap().trace);
        assert!(!parse("--smoke").unwrap().trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
    }

    /// `BENCHMARK.json` and the passes must name the same workloads,
    /// metrics and units: the driver rejects a result that differs.
    #[test]
    fn benchmark_json_matches_what_the_passes_emit() {
        let benchmark =
            read_json(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
        let (names, metrics) = diff::definitions(&benchmark).unwrap();
        assert_eq!(names, SPECS.map(|s| s.name));
        let table = |t: report::MetricTable| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let declared: Vec<(String, String)> =
            metrics.into_iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(declared, table(untraced::METRICS));
        let per_layer: Vec<(String, String)> = benchmark
            .get("per_layer")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect();
        assert_eq!(per_layer, table(traced::METRICS));
    }
}
