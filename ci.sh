#!/usr/bin/env bash
# Local CI gate: everything a PR must pass. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== doc byte budget (the four long docs do not grow back) =="
# Each file stays within the bytes it had when the budget was set: a
# change that adds prose to one removes as much elsewhere (an old
# CHANGES entry condensed, a retired EXPERIMENTS section folded into its
# table); raising a budget is a decision its CHANGES entry explains.
for budget in CHANGES.md:167559 DESIGN.md:75225 EXPERIMENTS.md:10091 README.md:37628; do
  file="${budget%%:*}" max="${budget##*:}"
  size="$(wc -c < "$file")"
  [ "$size" -le "$max" ] || { echo "$file: $size bytes, over its budget of $max" >&2; exit 1; }
done

echo "== no in-place rollback in the checker (crates/core/src names no undo) =="
# A statement is applied to a copy of the document: a commit keeps the
# copy, a refusal or a failure drops it. Nothing in the checker takes a
# statement back by replaying its inverse, so no code line before a
# file's first `#[cfg(test)]` in crates/core/src names `undo`.
undo_uses="$(find crates/core/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_test = 0 }
  /^#\[cfg\(test\)\]/ { in_test = 1 }
  !in_test && !/^[[:space:]]*\/\// && /(^|[^[:alnum:]_])undo([^[:alnum:]_]|$)/ {
    print FILENAME ":" FNR ": " $0
  }')"
[ -z "$undo_uses" ] || { echo "$undo_uses" >&2; echo "crates/core/src names undo" >&2; exit 1; }

echo "== no writer thread in the service (service.rs spawns no thread) =="
# Submitters commit their own batches: the one that finds no batch
# running leads the next under the commit lock, and who leads, waits or
# is answered is decided by one state machine (commit_protocol.rs) under
# one lock. No code line before the first `#[cfg(test)]` of
# crates/core/src/service.rs starts a thread, or coordinates through a
# channel or a flag or count of its own: it names no `mpsc`,
# `AtomicBool` or `AtomicUsize` (the `AtomicU64` counters stay).
spawns="$(awk '
  /^#\[cfg\(test\)\]/ { exit }
  !/^[[:space:]]*\/\// && /thread::(spawn|Builder)|mpsc|AtomicBool|AtomicUsize/ { print FILENAME ":" FNR ": " $0 }
' crates/core/src/service.rs)"
[ -z "$spawns" ] || { echo "$spawns" >&2; echo "crates/core/src/service.rs starts a thread or coordinates outside the commit protocol" >&2; exit 1; }

echo "== one pattern store per Γ (only SharedGamma builds a PatternCache) =="
# Compiled update patterns belong to the compiled Γ: `SharedGamma` builds
# its store when Γ is compiled, with the independence setting fixed, and
# every checker, snapshot and shard over that Γ shares both. No code line
# before a file's first `#[cfg(test)]` in crates/*/src builds a
# `PatternCache` outside crates/core/src/gamma.rs and the type's own
# optimized.rs, or names `set_pattern_cache` or `set_independence`.
stores="$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_test = 0; own = FILENAME ~ /^crates\/core\/src\/(gamma|optimized)\.rs$/ }
  /^#\[cfg\(test\)\]/ { in_test = 1 }
  !in_test && !/^[[:space:]]*\/\// && ((!own && /PatternCache::/) || /set_pattern_cache|set_independence/) {
    print FILENAME ":" FNR ": " $0
  }')"
[ -z "$stores" ] || { echo "$stores" >&2; echo "a pattern store built, or a checker setter named, outside SharedGamma" >&2; exit 1; }

echo "== a store holds checked commits only (no unchecked write, no abort record, one way back) =="
# The journal holds exactly the statements the checker decided legal: a
# statement that is refused or does not apply drops its copy and appends
# nothing, and a checker comes back over its store one way,
# `Checker::open_store`, whose first write checkpoints before it appends.
# No code line before a file's first `#[cfg(test)]` in crates/*/src names
# `recover_store` or `apply_unchecked`, or appends a `RecordKind::Abort`
# (replay still decodes and skips the ones an older build wrote).
forks="$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_test = 0 }
  /^#\[cfg\(test\)\]/ { in_test = 1 }
  !in_test && !/^[[:space:]]*\/\// && (/(^|[^[:alnum:]_])(recover_store|apply_unchecked)([^[:alnum:]_]|$)/ || /append\([^)]*RecordKind::Abort/) {
    print FILENAME ":" FNR ": " $0
  }')"
[ -z "$forks" ] || { echo "$forks" >&2; echo "an unchecked write, an abort record or a second way to reopen a store" >&2; exit 1; }

echo "== no sync executor in difftest (the harnesses drive the production executor) =="
# Every server runs the group-commit executor, and a lone submitter leads
# its own batch of one on its own thread, so difftest drives that: its
# services are built with Executor::GroupCommit, and the fault harness
# runs apply_batch, the function every submission runs. No code line
# before a file's first `#[cfg(test)]` in crates/difftest/src names
# Executor::Sync.
syncs="$(find crates/difftest/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_test = 0 }
  /^#\[cfg\(test\)\]/ { in_test = 1 }
  !in_test && !/^[[:space:]]*\/\// && /Executor::Sync/ { print FILENAME ":" FNR ": " $0 }')"
[ -z "$syncs" ] || { echo "$syncs" >&2; echo "crates/difftest/src names Executor::Sync" >&2; exit 1; }

echo "== document order has one implementation (no rank table, no allowance, no switch) =="
# Inside both engines a node-set is a set in no particular order; only
# where a consumer can observe the order is it sorted, by path keys, in
# Document::sort_document_order. No code line before a file's first
# `#[cfg(test)]` in crates/*/src names a second way to order nodes: the
# preorder rank table (`OrderCache`, `order_ranks`), its allowance
# (`PATH_SORT_ALLOWANCE`) or its ablation switch (`disable_order_cache`).
orders="$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_test = 0 }
  /^#\[cfg\(test\)\]/ { in_test = 1 }
  !in_test && !/^[[:space:]]*\/\// && /order_ranks|PATH_SORT_ALLOWANCE|disable_order_cache|OrderCache/ {
    print FILENAME ":" FNR ": " $0
  }')"
[ -z "$orders" ] || { echo "$orders" >&2; echo "a second implementation of document order" >&2; exit 1; }

echo "== the parser builds through DocumentBuilder (parse.rs names no commit-path mutator) =="
# A whole document is built in owned memory and frozen once; the
# copy-on-write mutators are the commit's. No code line before the first
# `#[cfg(test)]` of crates/xml/src/parse.rs calls `create_element`,
# `create_text` or `append_child`.
mutators="$(awk '
  /^#\[cfg\(test\)\]/ { exit }
  !/^[[:space:]]*\/\// && /create_element|create_text|append_child/ { print FILENAME ":" FNR ": " $0 }
' crates/xml/src/parse.rs)"
[ -z "$mutators" ] || { echo "$mutators" >&2; echo "crates/xml/src/parse.rs builds through the commit path" >&2; exit 1; }

echo "== the store's file I/O has one owner (a Dir), and a fault is a failed Dir operation =="
# Every file operation of the durable log goes through an
# `xic_xml::dir::Dir`, so the simulated one behind --crash-states sees
# every operation whose order a power loss can expose. No code line
# before the first `#[cfg(test)]` of journal.rs, checkpoint.rs, shards.rs
# or durability.rs names `std::fs`, `File::`, `OpenOptions` or
# `fsync_dir`. A fault is one of those operations failing, in the `Dir`
# a test gives the store (`xic_faults::Faulty`), never a process-wide
# switch the product consults: neither crates/xml/Cargo.toml nor
# crates/core/Cargo.toml lists `xic-faults` under [dependencies] (a
# dev-dependency is a test's), and no code line before a file's first
# `#[cfg(test)]` in crates/*/src, outside crates/faults and
# crates/difftest, names `xic_faults`.
io="$(awk '
  FNR == 1 { in_test = 0 }
  /^#\[cfg\(test\)\]/ { in_test = 1 }
  !in_test && !/^[[:space:]]*\/\// && /std::fs|File::|OpenOptions|fsync_dir/ { print FILENAME ":" FNR ": " $0 }
' crates/xml/src/journal.rs crates/xml/src/checkpoint.rs crates/core/src/shards.rs crates/core/src/durability.rs)"
[ -z "$io" ] || { echo "$io" >&2; echo "store file I/O outside xic_xml::dir" >&2; exit 1; }
faults="$(find crates/*/src -name '*.rs' -not -path 'crates/faults/*' -not -path 'crates/difftest/*' -print0 \
  | sort -z | xargs -0 awk '
  FNR == 1 { in_test = 0; section = "" }
  FILENAME ~ /Cargo\.toml$/ {
    if (/^\[/) section = $0
    if (section == "[dependencies]" && /^[[:space:]]*xic-faults/) print FILENAME ":" FNR ": " $0
    next
  }
  /^#\[cfg\(test\)\]/ { in_test = 1 }
  !in_test && !/^[[:space:]]*\/\// && /xic_faults/ { print FILENAME ":" FNR ": " $0 }
' crates/xml/Cargo.toml crates/core/Cargo.toml)"
[ -z "$faults" ] || { echo "$faults" >&2; echo "a product crate depends on xic-faults" >&2; exit 1; }

echo "== every counter has a reader (an xic_obs counter nothing reads is not kept) =="
# A counter is worth its add only if something reads it: for each variant
# of xic_obs::ALL_COUNTERS, some code line outside crates/obs/src names it
# as `Counter::X` other than as the argument of an `incr(` / `add(` call,
# or quotes its snapshot name ("x") whole.
obs_lib=crates/obs/src/lib.rs
counters="$(awk '/^pub const ALL_COUNTERS/ { on = 1; next } on && /^\];/ { on = 0 } on' "$obs_lib" \
  | sed -n 's/^[[:space:]]*Counter::\([A-Za-z]*\),$/\1/p')"
[ -n "$counters" ] || { echo "no counters found in $obs_lib" >&2; exit 1; }
code="$(grep -rn --include='*.rs' --include='*.sh' --include='*.py' . \
  --exclude-dir=target --exclude-dir=.git -e 'Counter::' -e '"' \
  | grep -v '^\./crates/obs/src/' \
  | sed -E 's/(incr|add)\([[:alnum:]_:]*Counter::[[:alnum:]_]+//g')"
unread=""
for c in $counters; do
  name="$(sed -n "s/^[[:space:]]*Counter::$c => \"\([a-z_]*\)\",\$/\1/p" "$obs_lib")"
  [ -n "$name" ] || { echo "no snapshot name for Counter::$c" >&2; exit 1; }
  grep -qE "Counter::$c([^[:alnum:]_]|\$)|\"$name\"" <<< "$code" || unread="$unread $c"
done
[ -z "$unread" ] || { echo "counters nothing reads:$unread" >&2; exit 1; }

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== engine-vs-reference oracle (>= 500 cases) =="
# Every generated query is evaluated by the query engine and by the naive
# reference — node-sets, existential short-circuits, count() cardinalities
# and the translator's quantifier and aggregate-FLWOR shapes must all
# agree, and so must the shapes the engine answers from the document's
# index where they have its shape, and by the scan where they do not:
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
# own document, and again on its post-state after the statement applies
# (before the undo), where an insert-before or -after has put ids out of
# document order — the per-tag lists `//tag` reads are ascending by id,
# read unsorted by design and sorted only where a query observes the
# order — a rename has moved an element between them and a removal has
# left allocated nodes detached; on both, and after the undo, the
# engine's dedup and sort must order every node as a preorder walk
# does — under two more floors: ≥ 100 cases in which no planned
# site was answered from the document's index (built by the first that
# asks) is exit 1 too, and so is ≥ 100 cases in which no index hit was
# narrowed by a later join (the two-join shape `some $a in Q, $b in //m
# satisfies $b/d/text() = $a/c/text() and $b/../e/f/text() = $a/g/text()`,
# the co-author check's, is drawn per reference path). The rollback oracle asks for an index in every key shape the
# case's document has and audits all of them (and the per-tag lists and
# attached bits) against a scan after apply and after undo; every
# recovery in the fault harness below is audited after its replay. Random cases draw a denial that reads a position two times in
# five; ≥ 100 cases in which none met an insert-before or a removal is
# exit 1. Every case also replays
# through a checker pair with the static update/constraint independence
# mask on and off (oracle 6): verdicts, violation reports and post-states
# must be byte-identical. Every case runs again as its hostile twin: one
# operation aimed at a text node, a comment, a processing instruction, the
# document node or the root element (pair seed mod 30); where XUpdate does
# not define it, apply, the checker and a service's UPDATE must refuse it
# with a typed error, the document unchanged, HEALTH still ok. ≥ 500 cases
# that missed a (target, operation) pair is exit 1. Every difftest gate
# below is decided the same way: the exit code, and the one summary line
# on stdout.
cargo run --release -q -p xic-difftest -- --cases 500 --seed 1
# The same six oracles over statements of one to four operations aimed by
# union, `//`, `*`, `text()` and `last()` selects: a later select can
# match other nodes once the operations before it ran, and one statement
# can insert into a relation and remove from it. ≥ 100 cases in which
# either never happened, or an operation kind was never drawn, is exit 1.
cargo run --release -q -p xic-difftest -- --multi-op --cases 500 --seed 1

echo "== pattern digest (what Simp and the translator compile, byte for byte) =="
# Every pattern the campaign's cases, their hostile twins and the
# multi-operation cases compile over seeds 0-2999 (a decision and a
# registration per case) -- its key, simplified denials and templates --
# folded into one line of counts and an FNV-1a digest, which must equal
# the golden line recorded before the Datalog layer stopped spelling its
# variables. A change that means to alter what is compiled records a
# new line (`difftest --pattern-digest --cases 3000 --seed 0 >
# crates/difftest/corpus/patterns.digest`) and says why.
cargo run --release -q -p xic-difftest -- --pattern-digest --cases 3000 --seed 0 \
  | diff - crates/difftest/corpus/patterns.digest

echo "== decision counts (claims C1-C3 of EXPERIMENTS.md) =="
# Figure 1's shape by counts (C1): engine steps of an optimized decision
# within 1.5× from 32 to 512 KiB while the full check doubles per
# doubling. C2: on WorkloadConfig::fixed_neighbourhood_kib, whose
# reviewers keep 8 submissions and the catalog's pubs per name at every
# size, the median of 64 decisions (one per reviewer) within 1.5× from
# 32 KiB to 1 MiB and the slowest within 3× the median at 32 KiB,
# 256 KiB and 1 MiB. C3: an illegal insert's optimized rejection within
# 1.5× from 32 to 512 KiB, and under a tenth of copy + apply + full
# check's steps at 512 KiB, both counted beyond the select they share.
# C1 for a one-cell text update (an author's new name): its optimized
# decision within 1.5× from 32 to 512 KiB, copy + apply + the masked
# full check at least 1.7× per doubling.
# Also: no set put in document order by the decisions of an insert
# stream, nor by 1 000 equal-step decisions and a full check on a
# snapshot after an insert-before, and publish in O(Δ): equal chunk
# copies per commit at 32 and 512 KiB, at most 4.
cargo test -q --release -p xicheck --test decide_scaling

echo "== full-check counts (Figure 1's full-check side) =="
# Figure 1's diamonds by counts: the full check's engine steps grow
# linearly with the document, the review checks do not read the catalog
# at all, the co-author check reads only the reviewers' own pubs (a
# catalog tripled with strangers' pubs leaves its steps as they are), and
# each of Γ's four full-check queries takes exactly its pinned steps at
# 8, 32 and 64 KiB — a speed-up that skips work fails here. Reports come in
# constraint order, and every allowance short of a whole check is
# `BudgetExhausted`.
cargo test -q --release -p xicheck --test full_check_scaling

echo "== version cost (counts) =="
# What a commit's new version costs, by a counting allocator: clone, one
# legal append and the drop of the replaced version allocate at most
# twice the bytes at 2 MiB (64x the nodes) that they do at 32 KiB, and
# copying a chunk a clone shares allocates nothing per record -- the
# records own no heap memory, the tag lists, postings and symbols are
# shared, so a version copies what it wrote.
cargo test -q --release -p xicheck --test version_cost

echo "== build cost (counts) =="
# What building a document costs, by a counting allocator and the
# chunk-copy counter: a parse writes owned memory (no chunk copied),
# sixteen shards over one base text allocate at most 1.25x what one shard
# does (one build, cloned), a commit to one shard leaves its sibling
# byte-identical, and a statement's internal subset costs memory linear
# in its text (a DTD compiles on its first validation, never on a parse).
# That the builder builds what the commit path builds node by node is a
# unit test of crates/xml (build.rs).
cargo test -q --release -p xicheck --test build_cost

echo "== difftest corpus replay =="
# Every checked-in regression seed replays against the current oracles
# (tests/corpus.rs covers these in-process too; this exercises the CLI
# path end to end).
grep -v '^[[:space:]]*#' crates/difftest/corpus/regressions.txt \
  | grep -v '^[[:space:]]*$' \
  | while read -r seed; do
      cargo run --release -q -p xic-difftest -- --cases 1 --seed "$seed"
    done

echo "== fault harness (a failed file operation on one shard of 1-4, or a SIGKILL of the live server; every shard back at its acked prefix) =="
# Seeded, replayable cases (count overridable via FAULT_CASES): each
# draws K = 1-4 shards in ShardSet's layout and a victim, whose store
# alone does its file I/O in an xic_faults::Faulty; an operation of the
# store's write path (xic_faults::WRITE_PATH: the commit's append, the
# flush's sync_data where the stores fsync, and a rotation's create,
# snapshot append, rename, sync_dir and remove where they rotate), Error
# or Panic and which of the victim's operations of that kind it strikes
# (an append writes half its bytes first); a batch size of 1-4, a
# rotation (never, every 1-3 commits, or once by an explicit
# checkpoint), fsync on or off, and whether a poisoned or degraded
# victim stops until whole-set recovery or is rebuilt at once, over the
# paper's schema or a generated DTD, document and denial set. The
# streams run in batches through the write path every submission runs.
# Oracles: every answer matches a never-faulted twin's; siblings end
# byte-identical to their twins; every recovery restores p commits with
# acked <= p <= committed (+1 after a contained panic) and the twin's
# bytes at p; a batch fsyncs the victim's segment at most once; a failed
# flush degrades, and the last acked state passes the full check;
# sequential and parallel ShardSet::recover agree. Every ninth seed is
# the Kill row instead: the release xic-serve beside difftest (built by
# the build stage above; a missing one fails the pass) serves K = 1-4
# shards over a store, with or without --no-sync, one pipelined
# connection per shard; it is SIGKILLed once the harness has read a
# seeded number of replies, and the same oracle holds it: every reply
# equals an in-memory ShardSet twin's through protocol::execute_sharded,
# each shard recovers acked or acked + 1 (the statement its connection
# was executing), the two recoveries run over copies of the killed root,
# and the server restarted over the root and its stale socket answers
# VERSION = p and CHECK = CONSISTENT and commits one more statement per
# shard. Every server is killed and waited for on every path. 225 cases:
# the first 200 in-process plans of the walk plus 25 Kills, about three
# seconds. Exits nonzero on any divergence (replay: difftest -- --faults
# --seed N --cases 1) and, from 3 draws of every cell on, when an
# (operation, mode, K-class) cell of the coverage line under the summary
# never fired, when no fault fired on a generated schema, when a Kill
# K-class killed no live server, or when fewer than half the kills found
# a statement executing or unread.
FAULT_CASES="${FAULT_CASES:-225}"
cargo run --release -q -p xic-difftest -- --faults --cases "$FAULT_CASES" --seed 1

echo "== crash states, enumerated (the store over a simulated directory) =="
# Every store plan (PLANS in crates/difftest/src/crash_states.rs: one
# store directory or a shard set's root, sync on and off, automatic and
# explicit rotations, a restart that commits on) runs over the simulated
# Dir once as written and once per operation with that operation failing
# (an append after half its bytes; a failed set-up starts again over
# what it left, as a restart does). After every operation of every run,
# every state a power loss may leave of each shard directory -- a file's
# synced content or any later one, a directory's synced entries plus any
# prefix of its later creates, renames and removes -- is recovered as
# Checker::open_store does: p commits with acked <= p <= committed (+1
# while an append is in flight), the twin's bytes at p, every snapshot
# under its final name complete, and two more acked commits that survive
# the next power loss. Prints the plans, operations and crash states
# explored; exit 1 on a divergence (replay: difftest --crash-states
# --seed N --cases 1). About two seconds, released.
cargo run --release -q -p xic-difftest -- --crash-states --cases 4 --seed 0

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

echo "== commit protocol, explored =="
# The explorer in crates/core/src/commit_protocol.rs: every interleaving
# of three submitters x two statements (any with a deadline), one
# panicking batch, one failed fsync and a shutdown, through the pure
# leader/follower state machine the service drives, breadth first with
# state hashing, against its invariants (every request answered once, one
# leader, none stranded, no ack without its fsync, publishes in commit
# order, a withdrawn request runs only if already drained, shutdown
# answers everything). Prints the states and transitions explored.
cargo test -q --release -p xicheck --lib commit_protocol -- --nocapture

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
# The same script through a two-document server with no store, every
# per-document line routed to the second document: the same verdicts,
# and the bare HEALTH aggregates over both shards.
sharded="$(target/release/xic-serve --xml "$hostile/xml" --dtd "$hostile/dtd" \
  --constraints "$hostile/gamma" --shards 2 <<EOF
DOC 1 UPDATE $m<xupdate:insert-before select="/db/region[1]/item[1]">$item</xupdate:insert-before>$e
DOC 1 CHECK
DOC 1 UPDATE $m<xupdate:rename select="/db/region[1]/item[1]/v/text()">x</xupdate:rename>$e
DOC 1 UPDATE $m<xupdate:append select="/db/region[1]">$item</xupdate:append>$e
DOC 1 CHECK
HEALTH
EOF
)"
rm -rf "$hostile"
echo "$replies"
[ "$(tail -n 2 <<<"$replies")" = $'OK 1 CONSISTENT\nOK 1 ok' ] \
  || { echo "wire hostility smoke: expected a consistent document and a healthy server" >&2; exit 1; }
echo "$sharded"
[ "$(tail -n 2 <<<"$sharded")" = $'OK 1 CONSISTENT\nOK 1 ok shard-0=ok shard-1=ok' ] \
  || { echo "wire hostility smoke: expected the same verdicts from shard 1 of 2" >&2; exit 1; }
[ "$(head -n -1 <<<"$sharded")" = "$(head -n -1 <<<"$replies")" ] \
  || { echo "wire hostility smoke: shard 1 of 2 answered unlike a one-document server" >&2; exit 1; }
# First sight of an insert pattern: the snapshot the first DECIDE reads
# builds the index its probe asks for. That snapshot is the writer's
# committed version, not a copy, so the UPDATE probes the same index, and
# the version it commits and publishes carries it on — neither the UPDATE
# nor the second DECIDE builds anything.
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
[ "$stats" = 'index_probes=1 index_builds=1 index_probes=3 index_builds=1 ' ] \
  || { echo "wire hostility smoke: first sight read '$stats'" >&2; exit 1; }
# The first DECIDE compiled the pattern into the cache the writer shares;
# the UPDATE and the second DECIDE found it there.
compiles="$(grep -o 'patterns_compiled=[0-9]*' <<<"$replies" | tr '\n' ' ')"
[ "$compiles" = 'patterns_compiled=1 patterns_compiled=1 ' ] \
  || { echo "wire hostility smoke: first sight compiled '$compiles'" >&2; exit 1; }

echo "== experiments smoke (paper tables + their one report file, bad input exits 1) =="
# A does-it-run gate, not a performance assertion: the tables are
# information, and each claim they illustrate is asserted by counts in
# the decision-counts and full-check counts stages above (EXPERIMENTS.md
# maps the claims to their tests);
# fig1b is here so the aggregate shape — cntd, the keyed steps under a
# `for` — runs through the paper harness too. Then one malformed flag,
# which must be refused with exit 1 (not a panic's 101).
cargo run --release -q -p xic-bench --bin experiments -- fig1a fig1b illegal simp \
  --sizes=32,64 --iters=1 --out=/tmp/BENCH_PAPER_CI.json
# The version sweep on the fixed-neighbourhood corpus (the parse and a
# checkpointed store's reopening, clone, apply to the fresh copy, drop of
# the replaced version, beside the decision's median, its slowest of 64
# and its median engine steps, and the full check) up to 512 KiB; every
# row must carry all three decision
# columns, the slowest no faster than the median, and a positive parse
# and reopening time.
cargo run --release -q -p xic-bench --bin experiments -- versions \
  --sizes=8,64,512 --iters=1 --out=/tmp/BENCH_PAPER_CI.json
python3 - <<'EOF'
import json
rows = json.load(open("/tmp/BENCH_PAPER_CI.json"))["sections"]["versions"]["rows"]
assert [r["kib"] for r in rows] == [8, 64, 512], rows
for r in rows:
    assert r["decide_max_us"] >= r["decide_optimized_us"] > 0 and r["decide_steps"] > 0, r
    assert r["parse_ms"] > 0 and r["open_ms"] > 0, r
EOF
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
