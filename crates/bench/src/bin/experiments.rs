//! Regenerates the paper's evaluation tables on stdout and emits a
//! machine-readable report (`BENCH_PR3.json`).
//!
//! ```text
//! experiments [fig1a] [fig1b] [illegal] [simp] [ordercache]
//!             [journal] [budget] [checkpoint] [service] [independence]
//!             [overload] [all]
//!             [--sizes=32,64,128,256,512] [--iters=3] [--seed=1]
//!             [--out=BENCH_PR3.json]
//! ```
//!
//! Each figure prints one row per document size with the three curves of
//! Figure 1: full check (diamonds), optimized check (squares), and
//! update + full check + undo (triangles). `illegal` prints the
//! early-detection comparison (E5); `simp` reports compile-time
//! simplification latency (the paper's footnote 4: "generated in less
//! than 50 ms"); `ordercache` compares a dedupe-heavy query with and
//! without the cached document-order ranks; `journal` measures the
//! write-ahead journal's per-update overhead (off / on without fsync / on
//! with per-record fsync); `budget` measures evaluation-step budgeting on
//! the optimized fast path and the cost of its baseline fallback (E8);
//! `checkpoint` measures crash-recovery time against committed-history
//! length with and without checkpointing, and the cost of one atomic
//! snapshot as the document grows (E9); `service` measures multi-client
//! throughput and submit→ack latency through the concurrent checker
//! service under the sequential and group-commit executors (E10 —
//! conventionally written to `BENCH_PR6.json` via `--out`);
//! `independence` measures per-update latency against a growing
//! multi-tenant constraint set with the static update/constraint
//! independence mask on versus off, plus the masked run's skip rate
//! (E12 — conventionally written to `BENCH_PR8.json` via `--out`);
//! `overload` sweeps closed-loop client counts against a small admission
//! queue and reports offered load, goodput, shed rate and p99 latency
//! (E13 — conventionally written to `BENCH_PR9.json` via `--out`).
//! Sharded recovery and mixed traffic are measured by the wire-level
//! benchmark (`benchmark/`, workload `shard-zipf`), not here.
//!
//! Every run also rewrites the JSON report: the sections just measured
//! replace their previous versions, sections from earlier invocations are
//! preserved. Each figure section carries the per-size timings of the
//! three curves plus an observability snapshot (phase timings and event
//! counters, see `xic-obs`) captured across that figure's measurement.

use std::time::Instant;
use xic_bench::{
    instance, measure_budget, measure_illegal, measure_journal, measure_order_cache, measure_row,
    measure_service, Experiment,
};
use xic_mapping::map_update;
use xicheck::obs::{self, json};
use xicheck::{compile_pattern, xpath_resolver};

struct Args {
    what: Vec<String>,
    sizes: Vec<usize>,
    iters: usize,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut what = Vec::new();
    let mut sizes = vec![32, 64, 128, 256, 512];
    let mut iters = 3;
    let mut seed = 1;
    let mut out = "BENCH_PR3.json".to_string();
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--sizes=") {
            sizes = v
                .split(',')
                .map(|s| s.trim().parse().expect("size in KiB"))
                .collect();
        } else if let Some(v) = a.strip_prefix("--iters=") {
            iters = v.parse().expect("iteration count");
        } else if let Some(v) = a.strip_prefix("--seed=") {
            seed = v.parse().expect("seed");
        } else if let Some(v) = a.strip_prefix("--out=") {
            out = v.to_string();
        } else {
            what.push(a);
        }
    }
    if what.is_empty() || what.iter().any(|w| w == "all") {
        what = [
            "fig1a", "fig1b", "illegal", "simp", "ordercache", "journal", "budget",
            "checkpoint", "service", "independence", "overload",
        ]
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    }
    Args {
        what,
        sizes,
        iters,
        seed,
        out,
    }
}

fn num(v: f64) -> json::Value {
    json::Value::Number(v)
}

fn figure(exp: Experiment, title: &str, args: &Args) -> json::Value {
    println!("== {title} ==");
    println!(
        "{:>9} {:>9} {:>12} {:>14} {:>21}",
        "size/KiB", "bytes", "full/ms", "optimized/ms", "update+full+undo/ms"
    );
    obs::reset();
    let mut rows = Vec::new();
    for &kib in &args.sizes {
        let row = measure_row(exp, kib, args.seed, args.iters);
        println!(
            "{:>9} {:>9} {:>12.2} {:>14.3} {:>21.2}",
            row.kib, row.bytes, row.full_ms, row.optimized_ms, row.update_full_undo_ms
        );
        rows.push(json::Value::Object(vec![
            ("kib".to_string(), num(row.kib as f64)),
            ("bytes".to_string(), num(row.bytes as f64)),
            ("full_ms".to_string(), num(row.full_ms)),
            ("optimized_ms".to_string(), num(row.optimized_ms)),
            (
                "update_full_undo_ms".to_string(),
                num(row.update_full_undo_ms),
            ),
        ]));
    }
    println!();
    json::Value::Object(vec![
        ("title".to_string(), json::Value::String(title.to_string())),
        ("seed".to_string(), num(args.seed as f64)),
        ("iters".to_string(), num(args.iters as f64)),
        ("rows".to_string(), json::Value::Array(rows)),
        ("obs".to_string(), obs::snapshot().to_json_value()),
    ])
}

fn illegal(args: &Args) -> json::Value {
    println!("== Illegal updates: early detection vs apply+check+rollback (E5) ==");
    println!(
        "{:>12} {:>9} {:>21} {:>21}",
        "experiment", "size/KiB", "optimized reject/ms", "baseline reject/ms"
    );
    obs::reset();
    let mut rows = Vec::new();
    for (exp, name) in [
        (Experiment::ConflictOfInterests, "conflict"),
        (Experiment::ConferenceWorkload, "workload"),
    ] {
        for &kib in &args.sizes {
            let r = measure_illegal(exp, kib, args.seed, args.iters);
            println!(
                "{name:>12} {:>9} {:>21.3} {:>21.2}",
                r.kib, r.optimized_reject_ms, r.baseline_reject_ms
            );
            rows.push(json::Value::Object(vec![
                (
                    "experiment".to_string(),
                    json::Value::String(name.to_string()),
                ),
                ("kib".to_string(), num(r.kib as f64)),
                (
                    "optimized_reject_ms".to_string(),
                    num(r.optimized_reject_ms),
                ),
                ("baseline_reject_ms".to_string(), num(r.baseline_reject_ms)),
            ]));
        }
    }
    println!();
    json::Value::Object(vec![
        ("seed".to_string(), num(args.seed as f64)),
        ("iters".to_string(), num(args.iters as f64)),
        ("rows".to_string(), json::Value::Array(rows)),
        ("obs".to_string(), obs::snapshot().to_json_value()),
    ])
}

fn simp_latency(args: &Args) -> json::Value {
    println!("== Compile-time simplification latency (paper: < 50 ms, E3) ==");
    let kib = args.sizes.first().copied().unwrap_or(32);
    obs::reset();
    let mut rows = Vec::new();
    for (exp, name) in [
        (Experiment::ConflictOfInterests, "conflict (Ex. 1/6)"),
        (Experiment::ConferenceWorkload, "workload (Ex. 2/7)"),
    ] {
        let inst = instance(exp, kib, args.seed);
        let stmt = inst.legal.clone();
        let mapped = map_update(inst.checker.doc(), inst.checker.schema(), &stmt, &xpath_resolver)
            .expect("mappable update");
        let gamma = inst.checker.constraints();
        let schema = inst.checker.schema();
        let n = 200u32;
        let start = Instant::now();
        for _ in 0..n {
            let compiled = compile_pattern(&mapped, gamma, schema, true);
            assert!(compiled.is_incremental(), "{:?}", compiled.unsupported);
        }
        let per = start.elapsed().as_secs_f64() * 1e3 / f64::from(n);
        println!("  {name:<22} map+simp+translate: {per:.3} ms/pattern");
        rows.push(json::Value::Object(vec![
            (
                "experiment".to_string(),
                json::Value::String(name.to_string()),
            ),
            ("ms_per_pattern".to_string(), num(per)),
        ]));
    }
    println!();
    json::Value::Object(vec![
        ("seed".to_string(), num(args.seed as f64)),
        ("rows".to_string(), json::Value::Array(rows)),
        ("obs".to_string(), obs::snapshot().to_json_value()),
    ])
}

fn order_cache_section(args: &Args) -> json::Value {
    println!("== Document-order rank cache: dedupe-heavy query `//name/..` (PR3) ==");
    println!(
        "{:>9} {:>10} {:>12} {:>11} {:>11}",
        "size/KiB", "cached/ms", "uncached/ms", "fast sorts", "path sorts"
    );
    obs::reset();
    let mut rows = Vec::new();
    for &kib in &args.sizes {
        let r = measure_order_cache(kib, args.seed, args.iters);
        println!(
            "{:>9} {:>10.3} {:>12.3} {:>11} {:>11}",
            r.kib, r.cached_ms, r.uncached_ms, r.fast_sorts, r.path_sorts
        );
        rows.push(json::Value::Object(vec![
            ("kib".to_string(), num(r.kib as f64)),
            ("cached_ms".to_string(), num(r.cached_ms)),
            ("uncached_ms".to_string(), num(r.uncached_ms)),
            ("fast_sorts".to_string(), num(r.fast_sorts as f64)),
            ("path_sorts".to_string(), num(r.path_sorts as f64)),
        ]));
    }
    println!();
    json::Value::Object(vec![
        ("seed".to_string(), num(args.seed as f64)),
        ("iters".to_string(), num(args.iters as f64)),
        ("rows".to_string(), json::Value::Array(rows)),
        ("obs".to_string(), obs::snapshot().to_json_value()),
    ])
}

fn journal_section(args: &Args) -> json::Value {
    println!("== Write-ahead journal overhead on the update workload (E8) ==");
    println!(
        "{:>9} {:>9} {:>11} {:>10} {:>13} {:>9} {:>8}",
        "size/KiB", "off/ms", "nosync/ms", "fsync/ms", "nosync ovh/%", "appends", "fsyncs"
    );
    obs::reset();
    let mut rows = Vec::new();
    for &kib in &args.sizes {
        let r = measure_journal(Experiment::ConflictOfInterests, kib, args.seed, args.iters);
        println!(
            "{:>9} {:>9.3} {:>11.3} {:>10.3} {:>13.2} {:>9} {:>8}",
            r.kib, r.off_ms, r.nosync_ms, r.fsync_ms, r.nosync_overhead_pct, r.appends, r.fsyncs
        );
        rows.push(json::Value::Object(vec![
            ("kib".to_string(), num(r.kib as f64)),
            ("journal_off_ms".to_string(), num(r.off_ms)),
            ("journal_nosync_ms".to_string(), num(r.nosync_ms)),
            ("journal_fsync_ms".to_string(), num(r.fsync_ms)),
            ("nosync_overhead_pct".to_string(), num(r.nosync_overhead_pct)),
            ("appends".to_string(), num(r.appends as f64)),
            ("fsyncs".to_string(), num(r.fsyncs as f64)),
        ]));
    }
    println!();
    json::Value::Object(vec![
        ("seed".to_string(), num(args.seed as f64)),
        ("iters".to_string(), num(args.iters as f64)),
        ("rows".to_string(), json::Value::Array(rows)),
        ("obs".to_string(), obs::snapshot().to_json_value()),
    ])
}

fn budget_section(args: &Args) -> json::Value {
    println!("== Evaluation-budget overhead on the optimized fast path (E8) ==");
    println!(
        "{:>9} {:>14} {:>12} {:>8} {:>21}",
        "size/KiB", "unbudgeted/ms", "budgeted/ms", "ovh/%", "exhausted fallback/ms"
    );
    obs::reset();
    let mut rows = Vec::new();
    for &kib in &args.sizes {
        let r = measure_budget(Experiment::ConflictOfInterests, kib, args.seed, args.iters);
        println!(
            "{:>9} {:>14.3} {:>12.3} {:>8.2} {:>21.2}",
            r.kib, r.unbudgeted_ms, r.budgeted_ms, r.overhead_pct, r.exhausted_fallback_ms
        );
        rows.push(json::Value::Object(vec![
            ("kib".to_string(), num(r.kib as f64)),
            ("unbudgeted_ms".to_string(), num(r.unbudgeted_ms)),
            ("budgeted_ms".to_string(), num(r.budgeted_ms)),
            ("overhead_pct".to_string(), num(r.overhead_pct)),
            (
                "exhausted_fallback_ms".to_string(),
                num(r.exhausted_fallback_ms),
            ),
        ]));
    }
    println!();
    json::Value::Object(vec![
        ("seed".to_string(), num(args.seed as f64)),
        ("iters".to_string(), num(args.iters as f64)),
        ("rows".to_string(), json::Value::Array(rows)),
        ("obs".to_string(), obs::snapshot().to_json_value()),
    ])
}

fn independence_section(args: &Args) -> json::Value {
    println!("== Static independence: per-update latency vs constraint count (E12) ==");
    println!(
        "{:>12} {:>8} {:>10} {:>11} {:>8} {:>7} {:>9} {:>9}",
        "constraints", "updates", "on ms/upd", "off ms/upd", "speedup", "skip%", "skipped", "retained"
    );
    obs::reset();
    // Constraint counts double per step so the curves separate cleanly;
    // the update stream grows with --iters.
    let ks = [4usize, 16, 64, 256];
    let updates = 20 * args.iters.max(1);
    let mut rows = Vec::new();
    for &k in &ks {
        let r = xic_bench::measure_independence(k, args.seed, updates);
        println!(
            "{:>12} {:>8} {:>10.3} {:>11.3} {:>8.2} {:>7.1} {:>9} {:>9}",
            r.constraints,
            r.updates,
            r.on_ms,
            r.off_ms,
            r.speedup(),
            r.skip_rate() * 100.0,
            r.skipped,
            r.retained,
        );
        rows.push(json::Value::Object(vec![
            ("constraints".to_string(), num(r.constraints as f64)),
            ("updates".to_string(), num(r.updates as f64)),
            ("on_ms".to_string(), num(r.on_ms)),
            ("off_ms".to_string(), num(r.off_ms)),
            ("speedup".to_string(), num(r.speedup())),
            ("skip_rate".to_string(), num(r.skip_rate())),
            ("checks_skipped_static".to_string(), num(r.skipped as f64)),
            ("checks_retained_static".to_string(), num(r.retained as f64)),
        ]));
    }
    println!();
    json::Value::Object(vec![
        ("seed".to_string(), num(args.seed as f64)),
        ("iters".to_string(), num(args.iters as f64)),
        ("rows".to_string(), json::Value::Array(rows)),
        ("obs".to_string(), obs::snapshot().to_json_value()),
    ])
}

fn checkpoint_section(args: &Args) -> json::Value {
    println!("== Checkpointing: recovery time vs history length (E9) ==");
    const INTERVAL: u64 = 50;
    // Off the interval boundary so the checkpointed runs replay a real
    // (but bounded) suffix.
    let histories = [60usize, 120, 240, 480];
    println!(
        "{:>9} {:>10} {:>16} {:>14} {:>10} {:>4}",
        "history", "interval", "no-ckpt rec/ms", "ckpt rec/ms", "replayed", "gen"
    );
    obs::reset();
    let mut recovery_rows = Vec::new();
    for &history in &histories {
        let r = xic_bench::measure_checkpoint(history, INTERVAL, 16, args.seed, args.iters);
        println!(
            "{:>9} {:>10} {:>16.2} {:>14.2} {:>10} {:>4}",
            r.history, r.interval, r.no_ckpt_recover_ms, r.ckpt_recover_ms, r.ckpt_replayed,
            r.generation
        );
        recovery_rows.push(json::Value::Object(vec![
            ("history".to_string(), num(r.history as f64)),
            ("interval".to_string(), num(r.interval as f64)),
            ("no_ckpt_recover_ms".to_string(), num(r.no_ckpt_recover_ms)),
            ("ckpt_recover_ms".to_string(), num(r.ckpt_recover_ms)),
            ("ckpt_replayed".to_string(), num(r.ckpt_replayed as f64)),
            ("generation".to_string(), num(r.generation as f64)),
        ]));
    }
    println!("\n-- atomic snapshot write cost vs document size --");
    println!("{:>9} {:>9} {:>9}", "size/KiB", "bytes", "write/ms");
    let mut write_rows = Vec::new();
    for &kib in &args.sizes {
        let r = xic_bench::measure_checkpoint_write(
            Experiment::ConflictOfInterests,
            kib,
            args.seed,
            args.iters,
        );
        println!("{:>9} {:>9} {:>9.3}", r.kib, r.bytes, r.write_ms);
        write_rows.push(json::Value::Object(vec![
            ("kib".to_string(), num(r.kib as f64)),
            ("bytes".to_string(), num(r.bytes as f64)),
            ("write_ms".to_string(), num(r.write_ms)),
        ]));
    }
    println!();
    json::Value::Object(vec![
        ("seed".to_string(), num(args.seed as f64)),
        ("iters".to_string(), num(args.iters as f64)),
        ("recovery_rows".to_string(), json::Value::Array(recovery_rows)),
        ("write_rows".to_string(), json::Value::Array(write_rows)),
        ("obs".to_string(), obs::snapshot().to_json_value()),
    ])
}

fn service_section(args: &Args) -> json::Value {
    println!("== Concurrent service: sequential vs group-commit executor (E10) ==");
    const PER_CLIENT: usize = 64;
    let kib = args.sizes.first().copied().unwrap_or(32);
    println!(
        "{:>8} {:>13} {:>8} {:>9} {:>12} {:>8} {:>8}",
        "clients", "executor", "updates", "wall/ms", "updates/s", "p50/ms", "p99/ms"
    );
    let mut rows = Vec::new();
    for &clients in &[1usize, 4, 16] {
        let mut throughput = [0.0f64; 2];
        for (i, executor) in [xicheck::Executor::Sync, xicheck::Executor::group_commit()]
            .into_iter()
            .enumerate()
        {
            let r = measure_service(kib, args.seed, clients, PER_CLIENT, executor);
            throughput[i] = r.throughput_per_s;
            println!(
                "{:>8} {:>13} {:>8} {:>9.1} {:>12.0} {:>8.3} {:>8.3}",
                r.clients, r.executor, r.updates, r.wall_ms, r.throughput_per_s, r.p50_ms, r.p99_ms
            );
            rows.push(json::Value::Object(vec![
                ("clients".to_string(), num(r.clients as f64)),
                (
                    "executor".to_string(),
                    json::Value::String(r.executor.to_string()),
                ),
                ("updates".to_string(), num(r.updates as f64)),
                ("wall_ms".to_string(), num(r.wall_ms)),
                ("throughput_per_s".to_string(), num(r.throughput_per_s)),
                ("p50_ms".to_string(), num(r.p50_ms)),
                ("p99_ms".to_string(), num(r.p99_ms)),
            ]));
        }
        println!(
            "{:>8} group-commit speedup: {:.2}x",
            clients,
            throughput[1] / throughput[0]
        );
    }
    println!();
    json::Value::Object(vec![
        ("seed".to_string(), num(args.seed as f64)),
        ("kib".to_string(), num(kib as f64)),
        ("per_client".to_string(), num(PER_CLIENT as f64)),
        ("rows".to_string(), json::Value::Array(rows)),
    ])
}

fn overload_section(args: &Args) -> json::Value {
    println!("== Overload: offered load vs goodput under bounded admission (E13) ==");
    const PER_CLIENT: usize = 32;
    // A deliberately small queue so client counts past it actually shed;
    // the production default (256) would just absorb this sweep.
    const QUEUE_DEPTH: usize = 4;
    let kib = args.sizes.first().copied().unwrap_or(32);
    println!(
        "{:>8} {:>7} {:>9} {:>7} {:>6} {:>8} {:>11} {:>11} {:>8}",
        "clients", "depth", "offered", "acked", "shed", "shed/%", "offered/s", "goodput/s", "p99/ms"
    );
    let mut rows = Vec::new();
    for &clients in &[1usize, 2, 4, 8, 16, 32] {
        let r = xic_bench::measure_overload(kib, args.seed, clients, PER_CLIENT, QUEUE_DEPTH);
        println!(
            "{:>8} {:>7} {:>9} {:>7} {:>6} {:>8.1} {:>11.0} {:>11.0} {:>8.3}",
            r.clients,
            r.queue_depth,
            r.offered,
            r.acked,
            r.shed,
            r.shed_rate() * 100.0,
            r.offered_per_s,
            r.goodput_per_s,
            r.p99_ms,
        );
        rows.push(json::Value::Object(vec![
            ("clients".to_string(), num(r.clients as f64)),
            ("queue_depth".to_string(), num(r.queue_depth as f64)),
            ("offered".to_string(), num(r.offered as f64)),
            ("acked".to_string(), num(r.acked as f64)),
            ("shed".to_string(), num(r.shed as f64)),
            ("shed_rate".to_string(), num(r.shed_rate())),
            ("wall_ms".to_string(), num(r.wall_ms)),
            ("offered_per_s".to_string(), num(r.offered_per_s)),
            ("goodput_per_s".to_string(), num(r.goodput_per_s)),
            ("p99_ms".to_string(), num(r.p99_ms)),
        ]));
    }
    println!();
    json::Value::Object(vec![
        ("seed".to_string(), num(args.seed as f64)),
        ("kib".to_string(), num(kib as f64)),
        ("per_client".to_string(), num(PER_CLIENT as f64)),
        ("queue_depth".to_string(), num(QUEUE_DEPTH as f64)),
        ("rows".to_string(), json::Value::Array(rows)),
    ])
}

/// Rewrites `path`, replacing the sections in `fresh` and keeping every
/// other section from a previous run, so `experiments fig1a` followed by
/// `experiments fig1b` accumulates both figures in one report.
fn write_report(path: &str, fresh: Vec<(String, json::Value)>) -> bool {
    let mut sections: Vec<(String, json::Value)> = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|v| v.get("sections").and_then(|s| s.as_object().map(<[_]>::to_vec)))
        .unwrap_or_default();
    for (name, value) in fresh {
        match sections.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => sections.push((name, value)),
        }
    }
    let report = json::Value::Object(vec![
        ("schema_version".to_string(), num(1.0)),
        (
            "generator".to_string(),
            json::Value::String("xic-bench experiments".to_string()),
        ),
        ("sections".to_string(), json::Value::Object(sections)),
    ]);
    match std::fs::write(path, report.render_pretty(2) + "\n") {
        Ok(()) => {
            println!("report written to {path}");
            true
        }
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            false
        }
    }
}

fn main() {
    let args = parse_args();
    println!(
        "xicheck experiments — sizes {:?} KiB, {} iterations, seed {}",
        args.sizes, args.iters, args.seed
    );
    println!(
        "(document sizes are scaled down from the paper's 32–256 MB so the whole\n\
         sweep runs in minutes; the curves' shape is the reproduction target)\n"
    );
    let mut sections = Vec::new();
    let mut failed = false;
    for w in &args.what.clone() {
        let section = match w.as_str() {
            "fig1a" => figure(
                Experiment::ConflictOfInterests,
                "Figure 1(a): Conflict of interests",
                &args,
            ),
            "fig1b" => figure(
                Experiment::ConferenceWorkload,
                "Figure 1(b): Conference workload",
                &args,
            ),
            "illegal" => illegal(&args),
            "simp" => simp_latency(&args),
            "ordercache" => order_cache_section(&args),
            "journal" => journal_section(&args),
            "budget" => budget_section(&args),
            "checkpoint" => checkpoint_section(&args),
            "service" => service_section(&args),
            "independence" => independence_section(&args),
            "overload" => overload_section(&args),
            other => {
                eprintln!(
                    "unknown experiment {other} (expected all, fig1a, fig1b, illegal, simp, \
                     ordercache, journal, budget, checkpoint, service, independence, overload)"
                );
                failed = true;
                continue;
            }
        };
        // Report-facing section names for the PR3 additions.
        let key = match w.as_str() {
            "ordercache" => "order-key-cache",
            "journal" => "journal-overhead",
            "budget" => "budget-overhead",
            other => other,
        };
        sections.push((key.to_string(), section));
    }
    if !write_report(&args.out, sections) {
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
