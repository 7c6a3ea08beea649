//! Regenerates the paper's evaluation tables on stdout and emits a
//! machine-readable report (`BENCH_PAPER.json`).
//!
//! ```text
//! experiments [fig1a] [fig1b] [illegal] [simp] [checkpoint] [overload] [all]
//!             [--sizes=32,64,128,256,512] [--iters=3] [--seed=1]
//!             [--out=BENCH_PAPER.json]
//! ```
//!
//! `fig1a` / `fig1b` print one row per document size with the three
//! curves of Figure 1: full check (diamonds), optimized check (squares),
//! update + full check + undo (triangles). `illegal` is the
//! early-detection comparison (E5), `simp` the compile-time
//! simplification latency (footnote 4: "generated in less than 50 ms"),
//! `checkpoint` recovery time against committed-history length with and
//! without checkpointing (E9), `overload` the goodput / shed-rate curve
//! of closed-loop clients against a small admission queue (E13). Every
//! other cost — journal, service, shards, each layer of a request — is
//! the wire-level benchmark's (`benchmark/`), not measured here.
//!
//! Every run rewrites the JSON report: sections just measured replace
//! their previous versions, the others are preserved, `meta` records the
//! host and arguments. A section is its table rows plus an observability
//! snapshot (`xic-obs` phase timings and counters) taken across its
//! measurement. Bad arguments and an unwritable `--out` exit 1.

use std::time::Instant;
use xic_bench::report::{col, emit, run_meta, write_report, Column, SECTIONS};
use xic_bench::{
    instance, measure_checkpoint, measure_illegal, measure_overload, measure_row, Experiment,
};
use xic_mapping::map_update;
use xicheck::obs::json::Value;
use xicheck::{compile_pattern, xpath_resolver};

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
        col("update_full_undo_ms", "update+full+undo/ms", 21, 2),
    ];
    let rows = args.sizes.iter().map(|&kib| {
        let r = measure_row(exp, kib, args.seed, args.iters);
        let cells = [r.kib as f64, r.bytes as f64, r.full_ms, r.optimized_ms, r.update_full_undo_ms];
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
    let title = "Illegal updates: early detection vs apply+check+rollback (E5)";
    emit(title, COLUMNS, &[("seed", args.seed as f64), ("iters", args.iters as f64)], rows)
}

fn simp_latency(args: &Args) -> Value {
    const COLUMNS: &[Column] = &[
        col("experiment", "experiment", 20, 0),
        col("ms_per_pattern", "map+simp+translate ms/pattern", 31, 3),
    ];
    const PATTERNS: u32 = 200;
    let cases = [
        (Experiment::ConflictOfInterests, "conflict (Ex. 1/6)"),
        (Experiment::ConferenceWorkload, "workload (Ex. 2/7)"),
    ];
    let rows = cases.iter().map(|&(exp, name)| {
        let inst = instance(exp, args.sizes[0], args.seed);
        let (gamma, schema) = (inst.checker.constraints(), inst.checker.schema());
        let mapped = map_update(inst.checker.doc(), schema, &inst.legal, &xpath_resolver)
            .expect("mappable update");
        let start = Instant::now();
        for _ in 0..PATTERNS {
            let compiled = compile_pattern(&mapped, gamma, schema, true);
            assert!(compiled.is_incremental(), "{:?}", compiled.unsupported);
        }
        vec![text(name), Value::Number(start.elapsed().as_secs_f64() * 1e3 / f64::from(PATTERNS))]
    });
    let title = "Compile-time simplification latency (paper: < 50 ms, E3)";
    emit(title, COLUMNS, &[("seed", args.seed as f64)], rows)
}

fn checkpoint_section(args: &Args) -> Value {
    const COLUMNS: &[Column] = &[
        col("history", "history", 9, 0),
        col("interval", "interval", 10, 0),
        col("no_ckpt_recover_ms", "no-ckpt rec/ms", 16, 2),
        col("ckpt_recover_ms", "ckpt rec/ms", 14, 2),
        col("ckpt_replayed", "replayed", 10, 0),
        col("generation", "gen", 4, 0),
    ];
    const INTERVAL: u64 = 50;
    // Off the interval boundary so the checkpointed runs replay a real
    // (but bounded) suffix.
    let rows = [60usize, 120, 240, 480].into_iter().map(|history| {
        let r = measure_checkpoint(history, INTERVAL, 16, args.seed, args.iters);
        let cells = [
            r.history as f64, r.interval as f64, r.no_ckpt_recover_ms, r.ckpt_recover_ms,
            r.ckpt_replayed as f64, r.generation as f64,
        ];
        cells.map(Value::Number).to_vec()
    });
    let title = "Checkpointing: recovery time vs history length (E9)";
    emit(title, COLUMNS, &[("seed", args.seed as f64), ("iters", args.iters as f64)], rows)
}

fn overload_section(args: &Args) -> Value {
    const COLUMNS: &[Column] = &[
        col("clients", "clients", 8, 0),
        col("queue_depth", "depth", 7, 0),
        col("offered", "offered", 9, 0),
        col("acked", "acked", 7, 0),
        col("shed", "shed", 6, 0),
        Column { scale: 100.0, ..col("shed_rate", "shed/%", 8, 1) },
        col("wall_ms", "", 0, 0),
        col("offered_per_s", "offered/s", 11, 0),
        col("goodput_per_s", "goodput/s", 11, 0),
        col("p99_ms", "p99/ms", 8, 3),
    ];
    const PER_CLIENT: usize = 32;
    // A deliberately small queue so client counts past it actually shed;
    // the production default (256) would just absorb this sweep.
    const QUEUE_DEPTH: usize = 4;
    let kib = args.sizes[0];
    let rows = [1usize, 2, 4, 8, 16, 32].into_iter().map(|clients| {
        let r = measure_overload(kib, args.seed, clients, PER_CLIENT, QUEUE_DEPTH);
        let counts = [r.clients, r.queue_depth, r.offered, r.acked, r.shed].map(|n| n as f64);
        let rates = [r.shed_rate(), r.wall_ms, r.offered_per_s, r.goodput_per_s, r.p99_ms];
        counts.into_iter().chain(rates).map(Value::Number).collect()
    });
    let title = "Overload: offered load vs goodput under bounded admission (E13)";
    let params = [
        ("seed", args.seed as f64),
        ("kib", kib as f64),
        ("per_client", PER_CLIENT as f64),
        ("queue_depth", QUEUE_DEPTH as f64),
    ];
    emit(title, COLUMNS, &params, rows)
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
        "checkpoint" => checkpoint_section(&args),
        "overload" => overload_section(&args),
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
        for bad in ["--sizes=abc", "--sizes=", "--iters=x", "--iters=0", "--seed=x", "journal"] {
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
