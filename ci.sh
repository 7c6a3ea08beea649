#!/usr/bin/env bash
# Local CI gate: everything a PR must pass. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== engine-vs-reference oracle (>= 500 cases) =="
# Every generated query is evaluated by the query engine and by the naive
# reference — node-sets, existential short-circuits, count() cardinalities
# and the translator's quantifier and aggregate-FLWOR shapes must all
# agree, and so must the shapes the engine answers from keyed sequences:
# value joins (`some $a in Q1, $b in Q2 satisfies $a/c/text() =
# $b/d/text()`, operands swapped, with a second conjunct, and as an
# unplanned `every`) and grouped aggregates (`for $v in distinct-values(…)
# let $g := //p[c/text() = $v] let $h := //q[p[c/text() = $v]] …`). The
# run exits nonzero on any discrepancy or if a run of at least 100 cases
# compared no queries (the summary line's "reference queries" counts
# them), missed an operation kind, or planned no join — in the reference
# queries or in any case's constraint set (random cases draw a key or a
# grouped-aggregate denial half the time), so the planned evaluation
# cannot go unchecked unnoticed. The shapes are evaluated on the case's
# own document, under two more floors: ≥ 100 cases in which no planned
# site was answered from the document's index (built by the first that
# asks), or no query was planned with a per-evaluation table, is exit 1
# too. The rollback oracle asks for an index in every key shape the
# case's document has and audits all of them (and the per-tag lists and
# attached bits) against a scan after apply and after undo; every
# recovery in the crash / chaos / shard rows below is audited after its
# replay. Random cases draw a denial that reads a position two times in
# five; ≥ 100 cases in which none met an insert-before or a removal is
# exit 1. Every case also replays
# through a checker pair with the static update/constraint independence
# mask on and off (oracle 6): verdicts, violation reports and post-states
# must be byte-identical. Every difftest gate below is decided the same
# way: the exit code, and the one summary line on stdout.
cargo run --release -q -p xic-difftest -- --cases 500 --seed 1
# Figure 1's shape by counts: engine steps of an optimized decision within
# 1.5× from 32 to 512 KiB while the full check doubles per doubling, and
# no rank-table rebuild across the decisions of an insert stream.
cargo test -q --release -p xicheck --test decide_scaling

echo "== difftest corpus replay =="
# Every checked-in regression seed replays against the current oracles
# (tests/corpus.rs covers these in-process too; this exercises the CLI
# path end to end).
grep -v '^[[:space:]]*#' crates/difftest/corpus/regressions.txt \
  | grep -v '^[[:space:]]*$' \
  | while read -r seed; do
      cargo run --release -q -p xic-difftest -- --cases 1 --seed "$seed"
    done

echo "== crash-matrix smoke (journal recovery under injected crashes) =="
# Seeded, replayable cases (count/filter overridable via CRASH_CASES /
# CRASH_SITES): each arms a contained panic at a fault site derived from
# the seed, drives a random statement batch against a journaled checker,
# recovers, and asserts byte-identity with the committed prefix of a
# never-crashed twin. Exits nonzero on any divergence (replay:
# difftest -- --crash-matrix --seed N --cases 1 [--sites PAT]), when no
# armed fault fired in a run of at least 40 cases (the floor of every
# fault-injecting pass, and the smallest count any of them runs at
# here), and when a site of the list fired in no case.
CRASH_CASES="${CRASH_CASES:-100}"
cargo run --release -q -p xic-difftest -- --crash-matrix --cases "$CRASH_CASES" --seed 1 \
  ${CRASH_SITES:+--sites "$CRASH_SITES"}

echo "== crash-matrix rotation pass (checkpoint + rotation fault sites) =="
# Same oracle, restricted to the checkpoint/rotation protocol steps so
# every rotation interleaving is crashed mid-batch: tmp write, tmp fsync,
# rename, directory fsync, new-segment create, old-generation unlink.
cargo run --release -q -p xic-difftest -- --crash-matrix \
  --cases "${CRASH_ROTATION_CASES:-60}" --seed 7 --sites checkpoint,rotation

echo "== crash-matrix group-commit pass (service batch path, shared fsync) =="
# Write-path sites only: the matrix proper plus the group-commit pass,
# which drives every case's statements through the service's batch path
# (unsynced appends, one shared fsync per batch) and crashes mid-batch.
# Recovery must reproduce the twin's committed prefix and keep every
# commit from a batch whose shared fsync completed.
cargo run --release -q -p xic-difftest -- --crash-matrix \
  --cases "${CRASH_GC_CASES:-40}" --seed 3 --sites journal,checker,xupdate

echo "== chaos pass (overload & failure resilience, seeded faults) =="
# The PR9 gate (count overridable via CHAOS_CASES): each seeded case
# drives batched traffic through the resilient group-commit path while a
# single fault — error, transient, or panic, at a journal or checkpoint
# site — fires mid-stream. Oracles: no acknowledged commit is lost on
# recovery, degraded reads serve the committed prefix, fsync retry
# absorbs transient failures, and the run always lands in a healthy,
# recovered, or cleanly poisoned terminal state (replay:
# difftest -- --chaos --seed N --cases 1).
CHAOS_CASES="${CHAOS_CASES:-100}"
cargo run --release -q -p xic-difftest -- --chaos --cases "$CHAOS_CASES" --seed 1

echo "== shard crash matrix (fault-isolated shards, parallel recovery) =="
# The PR10 gate (count overridable via SHARD_CRASH_CASES): each seeded
# case drives distinct workloads into the shards of one ShardSet while a
# contained panic crashes exactly one shard — mid-rotation cases
# included (every shard rotates aggressively). Oracles: sibling shards
# stay healthy, at their acked version, and byte-identical to their
# per-shard twins; the victim's acked prefix survives whole-set
# recovery; and the parallel recovery fan-out equals sequential
# recovery byte for byte (replay: difftest -- --shard-matrix --seed N
# --cases 1).
SHARD_CRASH_CASES="${SHARD_CRASH_CASES:-60}"
cargo run --release -q -p xic-difftest -- --shard-matrix --cases "$SHARD_CRASH_CASES" --seed 1

echo "== shard chaos pass (in-place shard rebuild while siblings commit) =="
# Same isolation oracles with error/transient/panic faults and the
# victim rebuilt in place via recover_shard while its siblings keep
# committing — per-shard twins assert no cross-shard contamination in
# either direction (replay: difftest -- --shard-chaos --seed N --cases 1).
cargo run --release -q -p xic-difftest -- --shard-chaos \
  --cases "${SHARD_CHAOS_CASES:-60}" --seed 1

echo "== snapshot-decide oracle (DECIDE on read snapshots == the writer's answer) =="
# The PR12 gate (count overridable via SNAPSHOT_DECIDE_CASES): every
# case's statement — all six op kinds — is decided by
# ReadSnapshot::decide and, on a twin, by decide_only under both
# strategies and by try_update, with independence on and off. Verdict,
# violation and error text must match the writer's; a LEGAL-vs-ERR split
# is a divergence; both the optimized and the fallback path must have
# decided cases (replay: difftest -- --snapshot-decide --seed N
# --cases 1).
cargo run --release -q -p xic-difftest -- --snapshot-decide \
  --cases "${SNAPSHOT_DECIDE_CASES:-300}" --seed 1

echo "== concurrency stress smoke (snapshot readers + group-commit writers) =="
# The service stress oracle: concurrent writers and snapshot readers,
# acknowledged commits replayed sequentially must reproduce the final
# state byte for byte (both executors). Runs inside `cargo test` too;
# this names the gate so a red run points straight at the service layer.
cargo test -q --release -p xicheck --test service_stress

echo "== wire hostility smoke (hostile statements through xic-serve on stdin) =="
# The real process boundary: a non-tail insert that shifts a position Γ
# reads (the baseline must reject it), a rename aimed at a text node (a
# typed ERR, not a contained panic) and a value holding both quote
# characters (decided like any other). Fails unless the last CHECK
# answers CONSISTENT and the last HEALTH answers ok.
hostile="$(mktemp -d)"
echo '<!ELEMENT db (region)*> <!ELEMENT region (item)*> <!ELEMENT item (v, w)>
  <!ELEMENT v (#PCDATA)> <!ELEMENT w (#PCDATA)>' > "$hostile/dtd"
echo '<db><region><item><v>ok</v><w>1</w></item><item><v>bad</v><w>2</w></item></region></db>' > "$hostile/xml"
echo '<- //region/item[3]/v/text() -> V & V = "bad"' > "$hostile/gamma"
m='<xupdate:modifications xmlns:xupdate="x">' e='</xupdate:modifications>'
item='<item><v>it'"'"'s "x"</v><w>0</w></item>'
replies="$(target/release/xic-serve --xml "$hostile/xml" --dtd "$hostile/dtd" \
  --constraints "$hostile/gamma" <<EOF
UPDATE $m<xupdate:insert-before select="/db/region[1]/item[1]">$item</xupdate:insert-before>$e
CHECK
UPDATE $m<xupdate:rename select="/db/region[1]/item[1]/v/text()">x</xupdate:rename>$e
UPDATE $m<xupdate:append select="/db/region[1]">$item</xupdate:append>$e
CHECK
HEALTH
EOF
)"
rm -rf "$hostile"
echo "$replies"
[ "$(tail -n 2 <<<"$replies")" = $'OK 1 CONSISTENT\nOK 1 ok' ] \
  || { echo "wire hostility smoke: expected a consistent document and a healthy server" >&2; exit 1; }
# First sight of an insert pattern: the snapshot the first DECIDE reads
# builds the index its probe asks for, the writer's document builds its
# own at the UPDATE, and the snapshot published from that carries it —
# the second DECIDE probes and builds nothing.
first="$(mktemp -d)"
echo '<!ELEMENT collection (dblp, review)> <!ELEMENT dblp (pub)*>
  <!ELEMENT pub (title, aut+)> <!ELEMENT aut (name)> <!ELEMENT review (track)+>
  <!ELEMENT track (name,rev+)> <!ELEMENT rev (name, sub+)> <!ELEMENT sub (title, auts+)>
  <!ELEMENT title (#PCDATA)> <!ELEMENT auts (name)> <!ELEMENT name (#PCDATA)>' > "$first/dtd"
echo '<collection><dblp><pub><title>P</title><aut><name>ann</name></aut></pub></dblp><review><track><name>T</name><rev><name>bob</name><sub><title>S</title><auts><name>cat</name></auts></sub></rev></track></review></collection>' > "$first/xml"
echo '<- //rev[name/text() -> R]/sub/auts/name/text() -> A & (A = R | //pub[aut/name/text() -> A & aut/name/text() -> R])' > "$first/gamma"
sub='<xupdate:append select="/collection/review/track[1]/rev[1]"><sub><title>N</title><auts><name>dan</name></auts></sub></xupdate:append>'
replies="$(target/release/xic-serve --xml "$first/xml" --dtd "$first/dtd" \
  --constraints "$first/gamma" <<EOF
DECIDE $m$sub$e
STATS
UPDATE $m$sub$e
DECIDE $m$sub$e
STATS
EOF
)"
rm -rf "$first"
echo "$replies"
stats="$(grep -o 'index_[a-z]*=[0-9]*' <<<"$replies" | tr '\n' ' ')"
[ "$stats" = 'index_probes=1 index_builds=1 index_probes=3 index_builds=2 ' ] \
  || { echo "wire hostility smoke: first sight read '$stats'" >&2; exit 1; }

echo "== experiments smoke (paper tables + their one report file, bad input exits 1) =="
# A does-it-run gate, not a performance assertion (how the full check
# scales is asserted by counts in crates/core/tests/full_check_scaling.rs);
# fig1b is here so the aggregate shape — cntd, the keyed steps under a
# `for` — runs through the paper harness too. Then one malformed flag,
# which must be refused with exit 1 (not a panic's 101).
cargo run --release -q -p xic-bench --bin experiments -- fig1a fig1b illegal simp \
  --sizes=32,64 --iters=1 --out=/tmp/BENCH_PAPER_CI.json
status=0
cargo run --release -q -p xic-bench --bin experiments -- fig1a --sizes=abc \
  --out=/tmp/BENCH_PAPER_CI.json 2>/dev/null || status=$?
[ "$status" -eq 1 ] || { echo "experiments --sizes=abc exited $status, expected 1" >&2; exit 1; }

echo "== benchmark smoke (wire-level benchmark builds and runs against these crates) =="
# The benchmark is a package of its own over ../crates/*: a product-API
# change that breaks its build, its oracle or its result schema must
# fail here, not at the next measurement. Unit tests of the package, two
# one-round traced runs of every workload, bench-diff self-checks. A
# does-it-work gate: one round holds no timing to its bound.
bash benchmark/smoke.sh

echo "== rustdoc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy lib gate (-D clippy::unwrap_used) =="
# Library code (the user-reachable surface) must not panic through bare
# unwrap(); tests and bins may. Internal invariants use
# expect() with a message.
cargo clippy --workspace --lib -- -D warnings -D clippy::unwrap_used

echo "CI green."
