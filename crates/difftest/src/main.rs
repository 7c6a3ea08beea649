//! `difftest` — differential-fuzzing CLI.
//!
//! ```text
//! cargo run --release -p xic-difftest -- --cases 2000 --seed 1
//! cargo run -p xic-difftest -- --seed 4242        # replay one case
//! cargo run -p xic-difftest -- --crash-matrix --cases 100 --seed 1
//! cargo run -p xic-difftest -- --crash-matrix --seed 17 --cases 1  # replay
//! cargo run -p xic-difftest -- --crash-matrix --cases 50 --sites checkpoint,rotation
//! cargo run -p xic-difftest -- --chaos --cases 100 --seed 1
//! cargo run -p xic-difftest -- --shard-matrix --cases 60 --seed 1
//! cargo run -p xic-difftest -- --shard-chaos --cases 60 --seed 1
//! cargo run -p xic-difftest -- --snapshot-decide --cases 300 --seed 1
//! ```
//!
//! `--crash-matrix` switches to the crash-recovery oracle (the `crash`
//! module in the library): each case injects a contained panic at a fault site
//! derived from the seed and asserts that store recovery reproduces the
//! committed prefix of a never-crashed twin run, byte for byte. Its report
//! counts the cases in which each site's fault fired (`fired_by_site`);
//! a run long enough to reach every site of its list three times exits 1
//! if one of them never fired.
//!
//! `--chaos` drives batched traffic through the resilient group-commit
//! path while a seeded fault (error, transient, or panic) fires at a
//! journal or checkpoint site, and asserts that no acknowledged commit is
//! ever lost, that degraded reads match the committed prefix, and that
//! the service always lands in a healthy, recovered, or cleanly poisoned
//! terminal state.
//!
//! `--shard-matrix` and `--shard-chaos` run the multi-document isolation
//! oracle (the `shard` module): each case drives distinct workloads into
//! the shards of one `ShardSet` while a seeded fault crashes exactly one
//! shard, and asserts that the siblings never notice (byte-identical to
//! their twins, healthy, at their acked version), that the victim's acked
//! prefix survives recovery, and that parallel recovery over the crashed
//! store equals sequential recovery byte for byte. The matrix kills the
//! victim for the rest of the case; the chaos variant rebuilds it in
//! place with `recover_shard` while the siblings keep committing.
//!
//! `--snapshot-decide` runs oracle 7 (the `snapshot` module): every case's
//! statement is decided on a service's read snapshot and, on a twin
//! checker, by `decide_only` under both strategies and by `try_update`,
//! with independence on and off; the
//! snapshot must answer what the writer would, and a run of ≥ 100 cases
//! must have taken both the optimized and the fallback path and
//! generated all six operation kinds.
//!
//! Exit code 0 means every case passed all four oracles (and, for runs of
//! ≥ 100 cases, that all six XUpdate operation kinds were exercised);
//! 1 means discrepancies (each printed with its minimized reproducer and
//! replay command); 2 means a usage error. A machine-readable summary —
//! case/discrepancy/shrink counters plus the full `xic-obs` snapshot — is
//! written as JSON (default `BENCH_DIFFTEST.json`).

use std::process::ExitCode;
use xic_difftest::tally::{self, Tally};
use xic_difftest::{run, Config};
use xic_obs as obs;
use xic_obs::json::Value;

struct Args {
    cases: u64,
    seed: u64,
    out: String,
    dump: bool,
    crash_matrix: bool,
    chaos: bool,
    shard_matrix: bool,
    shard_chaos: bool,
    snapshot_decide: bool,
    sites: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut cases = 1;
    let mut seed = 1;
    let mut out = String::new();
    let mut dump = false;
    let mut crash_matrix = false;
    let mut chaos = false;
    let mut shard_matrix = false;
    let mut shard_chaos = false;
    let mut snapshot_decide = false;
    let mut sites: Option<String> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    // Accept both `--key=value` and `--key value`.
    let next_value = |i: &mut usize, inline: Option<&str>| -> Result<String, String> {
        if let Some(v) = inline {
            return Ok(v.to_string());
        }
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", argv[*i - 1]))
    };
    while i < argv.len() {
        let arg = argv[i].clone();
        let (key, inline) = match arg.split_once('=') {
            Some((k, v)) => (k.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        match key.as_str() {
            "--cases" => {
                cases = next_value(&mut i, inline.as_deref())?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?;
            }
            "--seed" => {
                seed = next_value(&mut i, inline.as_deref())?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => {
                out = next_value(&mut i, inline.as_deref())?;
            }
            "--dump" => dump = true,
            "--crash-matrix" => crash_matrix = true,
            "--chaos" => chaos = true,
            "--shard-matrix" => shard_matrix = true,
            "--shard-chaos" => shard_chaos = true,
            "--snapshot-decide" => snapshot_decide = true,
            "--sites" => {
                sites = Some(next_value(&mut i, inline.as_deref())?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    let modes = [crash_matrix, chaos, shard_matrix, shard_chaos, snapshot_decide]
        .iter()
        .filter(|&&m| m)
        .count();
    if modes > 1 {
        return Err("--crash-matrix, --chaos, --shard-matrix, --shard-chaos and \
                    --snapshot-decide are mutually exclusive"
            .to_string());
    }
    if out.is_empty() {
        out = if crash_matrix {
            "BENCH_CRASH.json".to_string()
        } else if chaos {
            "BENCH_CHAOS.json".to_string()
        } else if shard_matrix {
            "BENCH_SHARD_CRASH.json".to_string()
        } else if shard_chaos {
            "BENCH_SHARD_CHAOS.json".to_string()
        } else if snapshot_decide {
            "BENCH_SNAPSHOT_DECIDE.json".to_string()
        } else {
            "BENCH_DIFFTEST.json".to_string()
        };
    }
    if sites.is_some() && !crash_matrix {
        return Err("--sites only applies to --crash-matrix".to_string());
    }
    Ok(Args {
        cases,
        seed,
        out,
        dump,
        crash_matrix,
        chaos,
        shard_matrix,
        shard_chaos,
        snapshot_decide,
        sites,
    })
}

/// Runs the crash matrix and writes its JSON report.
fn run_crash_matrix(args: &Args) -> ExitCode {
    // An empty site filter is a usage error, not a passing 0-site run.
    if xic_difftest::crash::filter_sites(args.sites.as_deref()).is_empty() {
        eprintln!(
            "difftest: --sites {} matches no registered fault site",
            args.sites.as_deref().unwrap_or("")
        );
        return ExitCode::from(2);
    }
    // Contained panics are expected machinery here, one per case; silence
    // the default hook's per-panic backtrace spam for the duration.
    std::panic::set_hook(Box::new(|_| {}));
    obs::reset();
    let report = xic_difftest::crash::run_matrix(xic_difftest::crash::CrashConfig {
        seed: args.seed,
        cases: args.cases,
        sites: args.sites.clone(),
    });
    let _ = std::panic::take_hook();
    let snapshot = obs::snapshot();
    for d in &report.divergences {
        eprintln!("{}", d.report());
    }
    println!(
        "crash-matrix: {} cases from seed {}{} — {} divergences, {} faults fired, \
         {} torn tails truncated, {} commits restored, {} rotating cases \
         ({} won by a checkpoint), {} failed-rotation cases ({} injected), \
         {} group-commit cases ({} crashed mid-batch)",
        args.cases,
        args.seed,
        args.sites
            .as_deref()
            .map(|s| format!(" (sites: {s})"))
            .unwrap_or_default(),
        report.divergences.len(),
        report.fired,
        report.torn_tails,
        report.replayed,
        report.rotating_cases,
        report.checkpoint_wins,
        report.rotation_error_cases,
        report.rotation_error_injected,
        report.group_commit_cases,
        report.group_commit_fired,
    );
    let by_site: Vec<String> =
        report.fired_by_site.iter().map(|(site, n)| format!("{site}={n}")).collect();
    println!("fired by site: {}", by_site.join(" "));
    let json = Value::Object(vec![
        ("bench".to_string(), Value::String("crash-matrix".to_string())),
        ("seed".to_string(), Value::Number(args.seed as f64)),
        ("cases".to_string(), Value::Number(args.cases as f64)),
        (
            "sites_filter".to_string(),
            args.sites
                .clone()
                .map_or(Value::Null, Value::String),
        ),
        (
            "divergences".to_string(),
            Value::Number(report.divergences.len() as f64),
        ),
        ("faults_fired".to_string(), Value::Number(report.fired as f64)),
        (
            "torn_tails_truncated".to_string(),
            Value::Number(report.torn_tails as f64),
        ),
        (
            "commits_replayed".to_string(),
            Value::Number(report.replayed as f64),
        ),
        (
            "rotating_cases".to_string(),
            Value::Number(report.rotating_cases as f64),
        ),
        (
            "checkpoint_wins".to_string(),
            Value::Number(report.checkpoint_wins as f64),
        ),
        (
            "rotation_error_cases".to_string(),
            Value::Number(report.rotation_error_cases as f64),
        ),
        (
            "rotation_error_injected".to_string(),
            Value::Number(report.rotation_error_injected as f64),
        ),
        (
            "group_commit_cases".to_string(),
            Value::Number(report.group_commit_cases as f64),
        ),
        (
            "group_commit_fired".to_string(),
            Value::Number(report.group_commit_fired as f64),
        ),
        (
            "fired_by_site".to_string(),
            Value::Object(
                report
                    .fired_by_site
                    .iter()
                    .map(|(site, n)| (site.to_string(), Value::Number(*n as f64)))
                    .collect(),
            ),
        ),
        (
            "failing_seeds".to_string(),
            Value::Array(
                report
                    .divergences
                    .iter()
                    .map(|d| Value::Number(d.seed as f64))
                    .collect(),
            ),
        ),
        ("obs".to_string(), snapshot.to_json_value()),
    ]);
    if let Err(e) = std::fs::write(&args.out, json.render_pretty(2) + "\n") {
        eprintln!("difftest: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    println!("report written to {}", args.out);
    if !report.divergences.is_empty() {
        return ExitCode::from(1);
    }
    if args.cases >= 100 && report.fired == 0 {
        eprintln!("crash-matrix: no armed fault ever fired in {} cases", args.cases);
        return ExitCode::from(1);
    }
    // Once every site of the list was armed at each of its three trigger
    // hits, a site that fired in no case has fallen off the write path.
    let silent = report.silent_sites();
    if args.cases >= 3 * report.fired_by_site.len() as u64 && !silent.is_empty() {
        eprintln!(
            "crash-matrix: fault sites that fired in none of {} cases: {}",
            args.cases,
            silent.join(", ")
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Runs the chaos pass and writes its JSON report.
fn run_chaos(args: &Args) -> ExitCode {
    // Panic-mode faults are contained by the batch machinery; silence the
    // default hook's backtrace spam like the crash matrix does.
    std::panic::set_hook(Box::new(|_| {}));
    obs::reset();
    let report = xic_difftest::chaos::run_chaos(xic_difftest::chaos::ChaosConfig {
        seed: args.seed,
        cases: args.cases,
    });
    let _ = std::panic::take_hook();
    let snapshot = obs::snapshot();
    for d in &report.divergences {
        eprintln!("{}", d.report());
    }
    println!(
        "chaos: {} cases from seed {} — {} divergences, {} faults fired, \
         {} degraded, {} absorbed by fsync retry, {} poisoned, \
         {} rotating cases, {} commits acked, {} commits replayed",
        args.cases,
        args.seed,
        report.divergences.len(),
        report.fired,
        report.degraded,
        report.retry_absorbed,
        report.poisoned,
        report.rotating_cases,
        report.acked,
        report.replayed,
    );
    let json = Value::Object(vec![
        ("bench".to_string(), Value::String("chaos".to_string())),
        ("seed".to_string(), Value::Number(args.seed as f64)),
        ("cases".to_string(), Value::Number(args.cases as f64)),
        (
            "divergences".to_string(),
            Value::Number(report.divergences.len() as f64),
        ),
        ("faults_fired".to_string(), Value::Number(report.fired as f64)),
        ("degraded".to_string(), Value::Number(report.degraded as f64)),
        (
            "retry_absorbed".to_string(),
            Value::Number(report.retry_absorbed as f64),
        ),
        ("poisoned".to_string(), Value::Number(report.poisoned as f64)),
        (
            "rotating_cases".to_string(),
            Value::Number(report.rotating_cases as f64),
        ),
        ("commits_acked".to_string(), Value::Number(report.acked as f64)),
        (
            "commits_replayed".to_string(),
            Value::Number(report.replayed as f64),
        ),
        (
            "failing_seeds".to_string(),
            Value::Array(
                report
                    .divergences
                    .iter()
                    .map(|d| Value::Number(d.seed as f64))
                    .collect(),
            ),
        ),
        ("obs".to_string(), snapshot.to_json_value()),
    ]);
    if let Err(e) = std::fs::write(&args.out, json.render_pretty(2) + "\n") {
        eprintln!("difftest: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    println!("report written to {}", args.out);
    if !report.divergences.is_empty() {
        return ExitCode::from(1);
    }
    if args.cases >= 100 && report.fired == 0 {
        eprintln!("chaos: no armed fault ever fired in {} cases", args.cases);
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Runs the shard isolation oracle (matrix or chaos) and writes its
/// JSON report.
fn run_shards(args: &Args) -> ExitCode {
    let name = if args.shard_chaos { "shard-chaos" } else { "shard-matrix" };
    // Panic-mode faults are contained by the shard service; silence the
    // default hook's backtrace spam like the crash matrix does.
    std::panic::set_hook(Box::new(|_| {}));
    obs::reset();
    let report = xic_difftest::shard::run_shards(xic_difftest::shard::ShardConfig {
        seed: args.seed,
        cases: args.cases,
        chaos: args.shard_chaos,
    });
    let _ = std::panic::take_hook();
    let snapshot = obs::snapshot();
    for d in &report.divergences {
        eprintln!("{}", d.report());
    }
    println!(
        "{name}: {} cases from seed {} — {} divergences, {} faults fired, \
         {} victims poisoned, {} in-place recoveries, {} fallback cases, \
         {} commits acked, {} commits restored",
        args.cases,
        args.seed,
        report.divergences.len(),
        report.fired,
        report.poisoned,
        report.in_place_recoveries,
        report.fallback_cases,
        report.acked,
        report.replayed,
    );
    let json = Value::Object(vec![
        ("bench".to_string(), Value::String(name.to_string())),
        ("seed".to_string(), Value::Number(args.seed as f64)),
        ("cases".to_string(), Value::Number(args.cases as f64)),
        (
            "divergences".to_string(),
            Value::Number(report.divergences.len() as f64),
        ),
        ("faults_fired".to_string(), Value::Number(report.fired as f64)),
        (
            "victims_poisoned".to_string(),
            Value::Number(report.poisoned as f64),
        ),
        (
            "in_place_recoveries".to_string(),
            Value::Number(report.in_place_recoveries as f64),
        ),
        (
            "fallback_cases".to_string(),
            Value::Number(report.fallback_cases as f64),
        ),
        ("commits_acked".to_string(), Value::Number(report.acked as f64)),
        (
            "commits_replayed".to_string(),
            Value::Number(report.replayed as f64),
        ),
        (
            "failing_seeds".to_string(),
            Value::Array(
                report
                    .divergences
                    .iter()
                    .map(|d| Value::Number(d.seed as f64))
                    .collect(),
            ),
        ),
        ("obs".to_string(), snapshot.to_json_value()),
    ]);
    if let Err(e) = std::fs::write(&args.out, json.render_pretty(2) + "\n") {
        eprintln!("difftest: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    println!("report written to {}", args.out);
    if !report.divergences.is_empty() {
        return ExitCode::from(1);
    }
    if args.cases >= 60 && report.fired == 0 {
        eprintln!("{name}: no armed fault ever fired in {} cases", args.cases);
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Runs oracle 7 (snapshot decide) and writes its JSON report.
fn run_snapshot_decide(args: &Args) -> ExitCode {
    use xic_difftest::snapshot::{run_snapshot_decide, SnapshotConfig, OP_KINDS};
    obs::reset();
    let report = run_snapshot_decide(SnapshotConfig { seed: args.seed, cases: args.cases });
    let snapshot = obs::snapshot();
    for d in &report.divergences {
        eprintln!("{}", d.report());
    }
    let mix: Vec<String> =
        OP_KINDS.iter().zip(report.ops).map(|(kind, n)| format!("{kind}={n}")).collect();
    println!(
        "snapshot-decide: {} cases from seed {} (independence on and off) — \
         {} divergences, {} decided optimized, {} decided by fallback; op mix: {}",
        args.cases,
        args.seed,
        report.divergences.len(),
        report.decided_optimized,
        report.decided_fallback,
        mix.join(" "),
    );
    let json = Value::Object(vec![
        ("bench".to_string(), Value::String("snapshot-decide".to_string())),
        ("seed".to_string(), Value::Number(args.seed as f64)),
        ("cases".to_string(), Value::Number(args.cases as f64)),
        (
            "divergences".to_string(),
            Value::Number(report.divergences.len() as f64),
        ),
        (
            "decided_optimized".to_string(),
            Value::Number(report.decided_optimized as f64),
        ),
        (
            "decided_fallback".to_string(),
            Value::Number(report.decided_fallback as f64),
        ),
        (
            "ops".to_string(),
            Value::Object(
                OP_KINDS
                    .iter()
                    .zip(report.ops)
                    .map(|(kind, n)| (kind.to_string(), Value::Number(n as f64)))
                    .collect(),
            ),
        ),
        (
            "failing_seeds".to_string(),
            Value::Array(
                report
                    .divergences
                    .iter()
                    .map(|d| Value::Number(d.seed as f64))
                    .collect(),
            ),
        ),
        ("obs".to_string(), snapshot.to_json_value()),
    ]);
    if let Err(e) = std::fs::write(&args.out, json.render_pretty(2) + "\n") {
        eprintln!("difftest: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    println!("report written to {}", args.out);
    if !report.divergences.is_empty() {
        return ExitCode::from(1);
    }
    if args.cases >= 100 {
        if report.decided_optimized == 0 || report.decided_fallback == 0 {
            eprintln!(
                "snapshot-decide: {} cases never took both paths ({} optimized, {} fallback)",
                args.cases, report.decided_optimized, report.decided_fallback
            );
            return ExitCode::from(1);
        }
        if let Some(i) = report.ops.iter().position(|&n| n == 0) {
            eprintln!(
                "snapshot-decide: operation kind {} never generated in {} cases",
                OP_KINDS[i], args.cases
            );
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("difftest: {e}");
            eprintln!(
                "usage: difftest [--crash-matrix [--sites PAT,PAT…] | --chaos | \
                 --shard-matrix | --shard-chaos | --snapshot-decide] [--cases N] [--seed N] \
                 [--out FILE]"
            );
            return ExitCode::from(2);
        }
    };
    if args.crash_matrix {
        return run_crash_matrix(&args);
    }
    if args.chaos {
        return run_chaos(&args);
    }
    if args.shard_matrix || args.shard_chaos {
        return run_shards(&args);
    }
    if args.snapshot_decide {
        return run_snapshot_decide(&args);
    }
    if args.dump {
        // Print the generated artifacts for `--seed` without running any
        // oracle — the raw material behind a replayed discrepancy.
        let case = xic_difftest::generate_case(args.seed);
        println!(
            "seed {} mode {}\n-- dtd --\n{}\n-- document --\n{}\n-- constraints --\n{}\n-- statement --\n{}",
            case.seed,
            case.mode,
            case.dtd,
            case.doc_xml,
            case.constraints,
            case.stmt_text()
        );
        return ExitCode::SUCCESS;
    }
    obs::reset();
    let report = run(Config {
        seed: args.seed,
        cases: args.cases,
    });
    let snapshot = obs::snapshot();
    let counts = tally::counts();
    let reference_queries = counts[Tally::ReferenceQuery as usize];
    for d in &report.discrepancies {
        eprintln!("{}", d.report());
    }
    println!(
        "difftest: {} cases from seed {} — \
         {} discrepancies, {} shrink steps, {} reference queries",
        args.cases,
        args.seed,
        report.discrepancies.len(),
        counts[Tally::ShrinkStep as usize],
        reference_queries,
    );
    let mix: Vec<String> =
        tally::OPS.map(|i| format!("{}={}", tally::NAMES[i], counts[i])).collect();
    println!("op mix: {}", mix.join(" "));

    let json = Value::Object(vec![
        ("bench".to_string(), Value::String("difftest".to_string())),
        ("seed".to_string(), Value::Number(args.seed as f64)),
        ("cases".to_string(), Value::Number(args.cases as f64)),
        (
            "reference_queries".to_string(),
            Value::Number(reference_queries as f64),
        ),
        (
            "discrepancies".to_string(),
            Value::Number(report.discrepancies.len() as f64),
        ),
        (
            "failing_seeds".to_string(),
            Value::Array(
                report
                    .discrepancies
                    .iter()
                    .map(|d| Value::Number(d.seed as f64))
                    .collect(),
            ),
        ),
        ("tally".to_string(), tally::to_json_value()),
        ("obs".to_string(), snapshot.to_json_value()),
    ]);
    if let Err(e) = std::fs::write(&args.out, json.render_pretty(2) + "\n") {
        eprintln!("difftest: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    println!("report written to {}", args.out);

    if !report.discrepancies.is_empty() {
        return ExitCode::from(1);
    }
    // Coverage gate: a run long enough to be statistically meaningful must
    // have exercised every operation kind, and the engine-vs-reference
    // oracle must actually have compared queries (it runs per case, so a silent
    // regression that skips it would otherwise pass).
    if args.cases >= 100 {
        let missing: Vec<&str> =
            tally::OPS.filter(|&i| counts[i] == 0).map(|i| tally::NAMES[i]).collect();
        if !missing.is_empty() {
            eprintln!(
                "difftest: operation kinds never generated in {} cases: {}",
                args.cases,
                missing.join(", ")
            );
            return ExitCode::from(1);
        }
        if reference_queries == 0 {
            eprintln!(
                "difftest: engine-vs-reference oracle never ran in {} cases",
                args.cases
            );
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
