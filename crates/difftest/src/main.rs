//! `difftest` — the gate runner: one table of passes behind one
//! parse → run → summarise → exit path.
//!
//! ```text
//! difftest [MODE] [--cases N] [--seed N]      (both default to 1)
//!
//! cargo run --release -p xic-difftest -- --cases 2000 --seed 1
//! cargo run -p xic-difftest -- --seed 4242            # replay one case
//! cargo run -p xic-difftest -- --seed 4242 --dump     # print its artifacts
//! cargo run --release -p xic-difftest -- --multi-op --cases 500 --seed 1
//! cargo build --release && target/release/difftest --faults --cases 225 --seed 1
//! cargo run -p xic-difftest -- --snapshot-decide --cases 300 --seed 1
//! cargo run --release -p xic-difftest -- --pattern-digest --cases 3000 --seed 0
//! cargo run --release -p xic-difftest -- --crash-states --cases 4 --seed 0
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
//! * `--multi-op` — `multi_op`: the campaign's six oracles over statements
//!   of one to four operations aimed by union, `//`, `*`, `text()` and
//!   `last()` selects. Floors (≥ 100 cases): all six operation kinds, a
//!   statement that inserted into and removed from one relation, and one
//!   whose later select matched other nodes after the operations before
//!   it.
//! * `--faults` — `fault`: a seeded failing or panicking file operation
//!   of one shard's store (an operation of `xic_faults::WRITE_PATH`)
//!   hits one shard of a set of one to four, driven in batches through
//!   the write path every submission runs; siblings never notice, every
//!   shard recovers its acknowledged prefix (plus at most the statement
//!   in flight) byte for byte against a never-faulted twin, a failed
//!   flush degrades, and parallel recovery equals sequential recovery.
//!   Every ninth seed is a Kill instead: the `xic-serve` beside this
//!   binary (`cargo build --release` builds both; without it the case
//!   fails) serves the set over a Unix socket, one pipelined connection
//!   per shard, and is SIGKILLed at a seeded reply count; the same oracle
//!   holds its replies, its store and its restart. The summary is
//!   followed by a coverage line, faults fired by operation × mode ×
//!   K-class and live servers killed by K-class. Floors: every
//!   (operation, mode, K-class) cell fired (≥ 3 × 4 × operations
//!   in-process cases), both K-classes killed a live server and half the
//!   kills found a statement executing or unread (≥ 6 Kills).
//! * `--snapshot-decide` — `snapshot` (oracle 7): `ReadSnapshot::decide`
//!   answers what the writer would, with independence on and off. Floors
//!   (≥ 100 cases): both the optimized and the fallback path decided
//!   cases, and all six operation kinds were generated.
//! * `--crash-states` — `crash_states`: case `i` runs store plan
//!   `seed + i` (modulo the table) over a simulated directory, crashes
//!   after every file operation and fails each one instead, and recovers
//!   every state a power loss may leave to the acknowledged prefix or
//!   more. The summary is followed by a line per plan: operations, crash
//!   points, crash states. Floor: some crash state was explored.
//!
//! The gate is the exit code and the summary line on stdout, nothing
//! else is written: 0 means every case passed its oracles and the run met
//! its floors; 1 means divergences (each printed to stderr with its
//! one-line replay command) or a floor that was not met; 2 means a usage
//! error.

use std::process::ExitCode;
use xic_difftest::{crash_states, digest, fault, multi_op, snapshot, Config, Outcome};

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
        flag: "--multi-op",
        run: |a| multi_op::run_multi_op(a.config).outcome(),
        contained_panics: false,
    },
    Mode {
        flag: "--faults",
        run: |a| fault::run_faults(a.config, fault::fault_plan).outcome(),
        contained_panics: true,
    },
    Mode {
        flag: "--snapshot-decide",
        run: |a| snapshot::run_snapshot_decide(a.config).outcome(),
        contained_panics: false,
    },
    Mode {
        flag: "--pattern-digest",
        run: |a| digest::run_pattern_digest(a.config).outcome(),
        contained_panics: false,
    },
    Mode {
        flag: "--crash-states",
        run: |a| crash_states::run_crash_states(a.config).outcome(),
        contained_panics: false,
    },
];

struct Args {
    mode: &'static Mode,
    config: Config,
    dump: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { mode: &MODES[0], config: Config { seed: 1, cases: 1 }, dump: false };
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
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("difftest: {e}");
            eprintln!(
                "usage: difftest [--dump | --multi-op | --faults | \
                 --snapshot-decide | --pattern-digest | --crash-states] [--cases N] [--seed N]"
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
