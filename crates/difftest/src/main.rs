//! `difftest` — the gate runner: one table of passes behind one
//! parse → run → summarise → exit path.
//!
//! ```text
//! difftest [MODE] [--cases N] [--seed N]      (both default to 1)
//!
//! cargo run --release -p xic-difftest -- --cases 2000 --seed 1
//! cargo run -p xic-difftest -- --seed 4242            # replay one case
//! cargo run -p xic-difftest -- --seed 4242 --dump     # print its artifacts
//! cargo run -p xic-difftest -- --crash-matrix --cases 100 --seed 1
//! cargo run -p xic-difftest -- --crash-matrix --cases 60 --sites checkpoint,rotation
//! cargo run -p xic-difftest -- --chaos --cases 100 --seed 1
//! cargo run -p xic-difftest -- --shard-matrix --cases 60 --seed 1
//! cargo run -p xic-difftest -- --shard-chaos --cases 60 --seed 1
//! cargo run -p xic-difftest -- --snapshot-decide --cases 300 --seed 1
//! ```
//!
//! At most one mode flag; each is a row of `MODES` over an oracle module
//! of the library, where its cases, its summary line and its coverage
//! floors are defined:
//!
//! * *(no flag)* — the differential campaign (`xic_difftest::run`): six
//!   oracles per case, every discrepancy minimized. `--dump` prints the
//!   seed's generated artifacts instead of running them. Floors (≥ 100
//!   cases): all six XUpdate operation kinds generated, and the
//!   engine-vs-reference oracle compared queries.
//! * `--crash-matrix` — `crash`: a contained panic at a fault site derived
//!   from the seed; store recovery must reproduce the committed prefix of
//!   a never-crashed twin, byte for byte. `--sites PAT,PAT…` keeps the
//!   sites matching a pattern by substring (a replay must repeat it).
//!   Floors: a fault fired (≥ 40 cases); no site of the list stayed silent
//!   (≥ 3 × sites cases; `fired by site:` names them).
//! * `--chaos` — `chaos`: batched traffic through the resilient
//!   group-commit path while a seeded error, transient or panic fires at
//!   a journal or checkpoint site; no acknowledged commit is lost,
//!   degraded reads match the committed prefix, and the service lands
//!   healthy, recovered or cleanly poisoned. Floor: a fault fired (≥ 40).
//! * `--shard-matrix` / `--shard-chaos` — `shard`: a seeded fault crashes
//!   exactly one shard of a `ShardSet`; the siblings never notice, the
//!   victim's acked prefix survives, parallel recovery equals sequential
//!   recovery. The matrix kills the victim for the rest of the case; the
//!   chaos variant rebuilds it in place with `recover_shard` while the
//!   siblings keep committing. Floor: a fault fired (≥ 40).
//! * `--snapshot-decide` — `snapshot` (oracle 7): `ReadSnapshot::decide`
//!   answers what the writer would, with independence on and off. Floors
//!   (≥ 100 cases): both the optimized and the fallback path decided
//!   cases, and all six operation kinds were generated.
//!
//! The gate is the exit code and the summary line on stdout, nothing
//! else is written: 0 means every case passed its oracles and the run met
//! its floors; 1 means divergences (each printed to stderr with its
//! one-line replay command) or a floor that was not met; 2 means a usage
//! error.

use std::process::ExitCode;
use xic_difftest::{chaos, crash, shard, snapshot, Config, Outcome};

/// One pass the binary can run.
struct Mode {
    /// The flag that selects it (`""`: the campaign, which needs none).
    flag: &'static str,
    /// Runs the pass and condenses its report.
    run: fn(&Args) -> Outcome,
    /// Whether the pass injects panics its machinery contains — one per
    /// case, expected, so the default hook's backtraces are noise.
    contained_panics: bool,
}

const MODES: [Mode; 6] = [
    Mode { flag: "", run: |a| xic_difftest::run(a.config).outcome(), contained_panics: false },
    Mode {
        flag: "--crash-matrix",
        run: |a| crash::run_matrix(a.config, a.sites.as_deref()).outcome(),
        contained_panics: true,
    },
    Mode { flag: "--chaos", run: |a| chaos::run_chaos(a.config).outcome(), contained_panics: true },
    Mode {
        flag: "--shard-matrix",
        run: |a| shard::run_shards(a.config, false).outcome(),
        contained_panics: true,
    },
    Mode {
        flag: "--shard-chaos",
        run: |a| shard::run_shards(a.config, true).outcome(),
        contained_panics: true,
    },
    Mode {
        flag: "--snapshot-decide",
        run: |a| snapshot::run_snapshot_decide(a.config).outcome(),
        contained_panics: false,
    },
];

struct Args {
    mode: &'static Mode,
    config: Config,
    sites: Option<String>,
    dump: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { mode: &MODES[0], config: Config { seed: 1, cases: 1 }, sites: None, dump: false };
    let mut words = argv.iter();
    while let Some(word) = words.next() {
        // Accept both `--key=value` and `--key value`.
        let (key, inline) = match word.split_once('=') {
            Some((key, value)) => (key, Some(value.to_string())),
            None => (word.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| words.next().cloned())
                .ok_or_else(|| format!("missing value after {key}"))
        };
        match key {
            "--cases" => args.config.cases = value()?.parse().map_err(|e| format!("--cases: {e}"))?,
            "--seed" => args.config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--sites" => args.sites = Some(value()?),
            "--dump" => args.dump = true,
            flag => match MODES[1..].iter().find(|mode| mode.flag == flag) {
                Some(mode) if args.mode.flag.is_empty() || args.mode.flag == mode.flag => {
                    args.mode = mode
                }
                Some(mode) => {
                    return Err(format!(
                        "{} and {} are mutually exclusive",
                        args.mode.flag, mode.flag
                    ))
                }
                None => return Err(format!("unknown argument {flag}")),
            },
        }
    }
    if args.config.cases == 0 {
        return Err("--cases 0 runs nothing and proves nothing".to_string());
    }
    if args.dump && !args.mode.flag.is_empty() {
        return Err(format!("--dump only applies without a mode flag, not to {}", args.mode.flag));
    }
    if let Some(sites) = &args.sites {
        if args.mode.flag != "--crash-matrix" {
            return Err("--sites only applies to --crash-matrix".to_string());
        }
        // An empty site list is a usage error, not a passing 0-site run.
        if crash::filter_sites(Some(sites)).is_empty() {
            return Err(format!("--sites {sites} matches no registered fault site"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("difftest: {e}");
            eprintln!(
                "usage: difftest [--dump | --crash-matrix [--sites PAT,PAT…] | --chaos | \
                 --shard-matrix | --shard-chaos | --snapshot-decide] [--cases N] [--seed N]"
            );
            return ExitCode::from(2);
        }
    };
    if args.dump {
        // The generated artifacts for `--seed`, no oracle run — the raw
        // material behind a replayed discrepancy.
        let case = xic_difftest::generate_case(args.config.seed);
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
    if args.mode.contained_panics {
        std::panic::set_hook(Box::new(|_| {}));
    }
    let outcome = (args.mode.run)(&args);
    drop(std::panic::take_hook()); // the runner's own failures stay loud
    for divergence in &outcome.divergences {
        eprintln!("{divergence}");
    }
    println!("{}", outcome.summary);
    if let Err(floor) = &outcome.floor {
        eprintln!("{floor}");
    }
    if !outcome.divergences.is_empty() || outcome.floor.is_err() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
