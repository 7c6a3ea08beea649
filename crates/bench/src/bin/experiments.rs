//! Regenerates the paper's evaluation tables on stdout and emits a
//! machine-readable report (`BENCH_PAPER.json`).
//!
//! ```text
//! experiments [fig1a] [fig1b] [illegal] [simp] [versions] [all]
//!             [--sizes=32,64,128,256,512] [--iters=3] [--seed=1]
//!             [--out=BENCH_PAPER.json]
//! ```
//!
//! `fig1a` / `fig1b` print one row per document size with the three
//! curves of Figure 1: full check (diamonds), optimized check (squares),
//! copy + apply + full check (triangles). `illegal` is the
//! early-detection comparison (E5), `simp` what the first sight of an
//! update pattern costs — map, Simp, translate and template
//! precompilation (footnote 4: "generated in less than 50 ms"),
//! `versions` what one version of the document costs against its size —
//! clone, apply to the fresh copy, drop of the replaced version — beside
//! the parse, a checkpoint's reopening, the optimized decision and the
//! full check, on a corpus whose reviewers' neighbourhood stays fixed.
//! The tables are information; the claims they illustrate are gated by
//! count-based tests (EXPERIMENTS.md). Every other cost — journal,
//! recovery, service, shards, each layer of a request — is the
//! wire-level benchmark's (`benchmark/`), not measured here.
//!
//! Every run rewrites the JSON report: sections just measured replace
//! their previous versions, the others are preserved, `meta` records the
//! host and arguments. A section is its table rows plus an observability
//! snapshot (`xic-obs` phase timings and counters) taken across its
//! measurement. Bad arguments and an unwritable `--out` exit 1.

use xic_bench::report::{col, emit, run_meta, write_report, Column, SECTIONS};
use xic_bench::{
    authored_insert, benchmark_checker, instance, measure_first_sight, measure_illegal,
    measure_row, measure_versions, Experiment,
};
use xic_xml::XUpdateDoc;
use xicheck::obs::json::Value;

#[derive(Debug)]
struct Args {
    what: Vec<String>,
    sizes: Vec<usize>,
    iters: usize,
    seed: u64,
    out: String,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut what, mut sizes, mut iters, mut seed) = (Vec::new(), vec![32, 64, 128, 256, 512], 3, 1);
    let mut out = "BENCH_PAPER.json".to_string();
    for a in argv {
        if let Some(v) = a.strip_prefix("--sizes=") {
            let parsed: Result<_, _> = v.split(',').map(|s| s.trim().parse()).collect();
            sizes = parsed.map_err(|_| format!("--sizes wants KiB counts like 32,64, got {v:?}"))?;
        } else if let Some(v) = a.strip_prefix("--iters=") {
            let parsed = v.parse().ok().filter(|&n| n > 0);
            iters = parsed.ok_or(format!("--iters wants a count of at least 1, got {v:?}"))?;
        } else if let Some(v) = a.strip_prefix("--seed=") {
            seed = v.parse().map_err(|_| format!("--seed wants an unsigned integer, got {v:?}"))?;
        } else if let Some(v) = a.strip_prefix("--out=") {
            out = v.to_string();
        } else if a == "all" || SECTIONS.contains(&a.as_str()) {
            what.push(a);
        } else {
            return Err(format!("unknown experiment {a} (expected all, {})", SECTIONS.join(", ")));
        }
    }
    if what.is_empty() || what.iter().any(|w| w == "all") {
        what = SECTIONS.map(String::from).to_vec();
    }
    Ok(Args { what, sizes, iters, seed, out })
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn figure(exp: Experiment, title: &str, args: &Args) -> Value {
    const COLUMNS: &[Column] = &[
        col("kib", "size/KiB", 9, 0),
        col("bytes", "bytes", 9, 0),
        col("full_ms", "full/ms", 12, 2),
        col("optimized_ms", "optimized/ms", 14, 3),
        col("copy_apply_check_ms", "copy+apply+check/ms", 21, 2),
    ];
    let rows = args.sizes.iter().map(|&kib| {
        let r = measure_row(exp, kib, args.seed, args.iters);
        let cells = [r.kib as f64, r.bytes as f64, r.full_ms, r.optimized_ms, r.copy_apply_check_ms];
        cells.map(Value::Number).to_vec()
    });
    emit(title, COLUMNS, &[("seed", args.seed as f64), ("iters", args.iters as f64)], rows)
}

fn illegal(args: &Args) -> Value {
    const COLUMNS: &[Column] = &[
        col("experiment", "experiment", 12, 0),
        col("kib", "size/KiB", 9, 0),
        col("optimized_reject_ms", "optimized reject/ms", 21, 3),
        col("baseline_reject_ms", "baseline reject/ms", 21, 2),
    ];
    let cases =
        [(Experiment::ConflictOfInterests, "conflict"), (Experiment::ConferenceWorkload, "workload")];
    let sweep = cases.iter().flat_map(|case| args.sizes.iter().map(move |&kib| (case, kib)));
    let rows = sweep.map(|(&(exp, name), kib)| {
        let r = measure_illegal(exp, kib, args.seed, args.iters);
        let times = [r.kib as f64, r.optimized_reject_ms, r.baseline_reject_ms];
        std::iter::once(text(name)).chain(times.map(Value::Number)).collect()
    });
    let title = "Illegal updates: early detection vs copy+apply+check (E5)";
    emit(title, COLUMNS, &[("seed", args.seed as f64), ("iters", args.iters as f64)], rows)
}

fn simp_latency(args: &Args) -> Value {
    const COLUMNS: &[Column] = &[
        col("experiment", "experiment", 20, 0),
        col("authors", "authors", 9, 0),
        col("ms_per_pattern", "map+simp+translate+build ms/pattern", 37, 3),
    ];
    const PATTERNS: u32 = 200;
    let kib = args.sizes[0];
    let paper = [
        (Experiment::ConflictOfInterests, "conflict (Ex. 1/6)"),
        (Experiment::ConferenceWorkload, "workload (Ex. 2/7)"),
    ]
    .map(|(exp, name)| {
        let inst = instance(exp, kib, args.seed);
        (name, 1, inst.checker, inst.legal)
    });
    let benchmark = [1, 2, 4, 8].map(|authors| {
        let stmt = XUpdateDoc::parse(&authored_insert(authors)).expect("insert parses");
        ("benchmark Γ", authors, benchmark_checker(kib, args.seed), stmt)
    });
    let rows = paper.into_iter().chain(benchmark).map(|(name, authors, mut checker, stmt)| {
        let ms = measure_first_sight(&mut checker, &stmt, PATTERNS);
        vec![text(name), Value::Number(authors as f64), Value::Number(ms)]
    });
    let title = "First-sight compile latency (paper: < 50 ms, E3)";
    emit(title, COLUMNS, &[("seed", args.seed as f64), ("kib", kib as f64)], rows)
}

fn versions_section(args: &Args) -> Value {
    const COLUMNS: &[Column] = &[
        col("kib", "size/KiB", 9, 0),
        col("nodes", "nodes", 10, 0),
        col("parse_ms", "parse/ms", 10, 2),
        col("open_ms", "open/ms", 9, 2),
        col("clone_us", "clone/us", 10, 1),
        col("apply_us", "apply/us", 10, 1),
        col("drop_us", "drop/us", 9, 1),
        col("decide_optimized_us", "decide/us", 11, 1),
        col("decide_max_us", "max/us", 10, 1),
        col("decide_steps", "steps", 7, 0),
        col("check_full_us", "full check/us", 15, 0),
    ];
    let rows = args.sizes.iter().map(|&kib| {
        let r = measure_versions(kib, args.seed, args.iters);
        let cells = [
            r.kib as f64, r.nodes as f64, r.parse_ms, r.open_ms, r.clone_us, r.apply_us, r.drop_us,
            r.decide_optimized_us, r.decide_max_us, r.decide_steps as f64, r.check_full_us,
        ];
        cells.map(Value::Number).to_vec()
    });
    let title = "Versions: what a commit's copy costs against document size (fixed neighbourhood)";
    emit(title, COLUMNS, &[("seed", args.seed as f64), ("iters", args.iters as f64)], rows)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("experiments: {e}");
        std::process::exit(1);
    });
    println!(
        "xicheck experiments — sizes {:?} KiB, {} iterations, seed {}",
        args.sizes, args.iters, args.seed
    );
    println!(
        "(document sizes are scaled down from the paper's 32–256 MB so the whole\n\
         sweep runs in minutes; the curves' shape is the reproduction target)\n"
    );
    let section = |name: &str| match name {
        "fig1a" => figure(Experiment::ConflictOfInterests, "Figure 1(a): Conflict of interests", &args),
        "fig1b" => figure(Experiment::ConferenceWorkload, "Figure 1(b): Conference workload", &args),
        "illegal" => illegal(&args),
        "simp" => simp_latency(&args),
        "versions" => versions_section(&args),
        other => unreachable!("parse_args admits only SECTIONS, got {other}"),
    };
    let sections = args.what.iter().map(|w| (w.clone(), section(w))).collect();
    if let Err(e) = write_report(&args.out, run_meta(args.seed, args.iters, &args.sizes), sections) {
        eprintln!("experiments: could not write {}: {e}", args.out);
        std::process::exit(1);
    }
    println!("report written to {}", args.out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn bad_arguments_are_one_line_errors_and_good_ones_parse() {
        let retired = ["journal", "checkpoint", "overload"];
        for bad in ["--sizes=abc", "--sizes=", "--iters=x", "--iters=0", "--seed=x"].into_iter().chain(retired) {
            let err = parse(&["fig1a", bad]).expect_err(bad);
            assert!(!err.contains('\n'), "one line for {bad}: {err}");
        }
        for all in [&[][..], &["simp", "all"]] {
            let args = parse(all).unwrap();
            assert_eq!(args.what, SECTIONS);
            assert_eq!((args.iters, args.seed, args.out.as_str()), (3, 1, "BENCH_PAPER.json"));
        }
        let args = parse(&["fig1b", "--sizes=8, 16", "--iters=2", "--seed=7", "--out=x.json"]).unwrap();
        assert_eq!(args.what, ["fig1b"]);
        assert_eq!((args.sizes, args.iters, args.seed), (vec![8, 16], 2, 7));
    }
}
