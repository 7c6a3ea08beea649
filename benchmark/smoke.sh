#!/usr/bin/env bash
# Does-it-work gate, ready to become a ci.sh stage: the package's unit
# tests, two smoke runs (one round per workload, traced too) and a
# bench-diff of each result against itself, which checks that every
# workload and metric BENCHMARK.json defines is in the file. The two
# runs are also diffed against each other, for information: one round
# is too little to hold a timing to its bound.
set -euo pipefail
cd "$(dirname "$0")/.."
out=benchmark/out
cargo test --offline --quiet --manifest-path benchmark/Cargo.toml \
  --target-dir "${CARGO_TARGET_DIR:-target}"
benchmark/run.sh --smoke --trace --out "$out/smoke-a.json"
benchmark/run.sh --smoke --trace --out "$out/smoke-b.json"
benchmark/run.sh bench-diff "$out/smoke-a.json" "$out/smoke-a.json" >/dev/null
benchmark/run.sh bench-diff "$out/smoke-b.json" "$out/smoke-b.json" >/dev/null
benchmark/run.sh bench-diff "$out/smoke-a.json" "$out/smoke-b.json" || true
echo "smoke: ok"
