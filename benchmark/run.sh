#!/usr/bin/env bash
# Builds xic-serve and the benchmark driver (release), then runs the
# driver from the repository root.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--smoke] [--out FILE]
#       every workload, every metric, one result file
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one pass over one workload (what BENCHMARK.json's command runs)
#   benchmark/run.sh bench-diff OLD NEW
#
# The build goes to $CARGO_TARGET_DIR, or the repository's own target/
# so the product crates are compiled once for both workspaces.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
  --manifest-path benchmark/Cargo.toml --target-dir "$target" \
  -p xic-benchmark -p xicheck --bins >&2
exec "$target/release/xic-benchmark" "$@"
