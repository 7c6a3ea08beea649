//! Replays the checked-in regression-seed corpus on every `cargo test`.
//!
//! Each seed in `corpus/regressions.txt` once exposed a real bug (the
//! comments there say which); replaying them keeps the fixes honest
//! without re-running a full fuzzing campaign. A failing seed prints a
//! one-line replay command.

use xic_difftest::{check_case, generate_case, run_case, tally};

const CORPUS: &str = include_str!("../corpus/regressions.txt");

fn corpus_seeds() -> Vec<u64> {
    CORPUS
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| l.parse().unwrap_or_else(|e| panic!("bad corpus line {l:?}: {e}")))
        .collect()
}

#[test]
fn regression_corpus_replays_clean() {
    let seeds = corpus_seeds();
    assert!(
        seeds.len() >= 40,
        "corpus suspiciously small ({} seeds)",
        seeds.len()
    );
    let failures: Vec<String> = seeds
        .iter()
        .filter_map(|&seed| {
            run_case(seed).map(|(oracle, detail)| {
                format!(
                    "seed {seed}: oracle {oracle}: {detail}\n  \
                     replay: cargo run -p xic-difftest -- --seed {seed} --cases 1"
                )
            })
        })
        .collect();
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn op_coverage_across_a_case_window() {
    // A window of consecutive seeds must exercise every XUpdate operation
    // kind — the same gate the CLI applies to runs of ≥ 100 cases. The
    // coverage counters are thread-local, so this test observes only its
    // own cases.
    for seed in 10_000..10_150 {
        // Discrepancies are reported by the corpus test above and the CI
        // fuzzing run; here only the generated operation mix matters.
        let _ = check_case(&generate_case(seed));
    }
    let counts = tally::counts();
    let missing: Vec<&str> =
        tally::OPS.filter(|&i| counts[i] == 0).map(|i| tally::NAMES[i]).collect();
    assert!(
        missing.is_empty(),
        "operation kinds never generated in 150 cases: {}",
        missing.join(", ")
    );
}
