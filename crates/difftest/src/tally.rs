//! The harness's own event counts. They describe the test run, not the
//! product, so they live here and not in `xic_obs::Counter`; like the
//! product's counters they are thread-local, because tests of one binary
//! run in parallel and each must see only its own cases.

use std::cell::Cell;

/// An event the harness counts about itself; the discriminant indexes
/// [`NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tally {
    ShrinkStep,
    OpInsertBefore,
    OpInsertAfter,
    OpAppend,
    OpRemove,
    OpUpdate,
    OpRename,
    ReferenceQuery,
    /// A reference query the engine compiled with a probe of the document's
    /// index in its plan.
    ReferenceJoin,
    /// A case whose constraint set has a full-check query with one.
    ConstraintJoin,
    /// A planned site of a reference query answered from the document's
    /// index (`xic_obs::Counter::IndexProbe`).
    ReferenceIndexProbe,
    /// A hit of a reference query's planned join that a later join
    /// dropped (`xic_obs::Counter::ProbeNarrowed`).
    ReferenceNarrowed,
    /// A case whose constraints read a position and whose statement holds
    /// an `insert-before` or a `remove`: siblings shift under the read.
    PosShift,
    /// A text update whose mapped delta the delta oracle compared with
    /// what applying it wrote.
    DeltaChecked,
    /// A text update whose `decide_only(Optimized)` answer was held to
    /// the baseline's.
    TextUpdateCrossChecked,
}

/// The key each [`Tally`] is reported under, in declaration order.
pub const NAMES: [&str; 15] = [
    "difftest_shrink_step",
    "difftest_op_insert_before",
    "difftest_op_insert_after",
    "difftest_op_append",
    "difftest_op_remove",
    "difftest_op_update",
    "difftest_op_rename",
    "reference_queries",
    "reference_joins_planned",
    "constraint_joins_planned",
    "reference_index_probes",
    "reference_hits_narrowed",
    "pos_reads_shifted",
    "text_update_deltas_checked",
    "text_updates_cross_checked",
];

/// The operation-kind tallies (`NAMES[1..7]`): a long run must move every one.
pub const OPS: std::ops::Range<usize> = 1..7;

thread_local! {
    static COUNTS: [Cell<u64>; NAMES.len()] = const { [const { Cell::new(0) }; NAMES.len()] };
}

/// Adds 1 to `tally` on this thread.
pub fn incr(tally: Tally) {
    add(tally, 1);
}

/// Adds `n` to `tally` on this thread.
pub fn add(tally: Tally, n: u64) {
    COUNTS.with(|c| c[tally as usize].set(c[tally as usize].get() + n));
}

/// This thread's counts, in [`NAMES`] order.
pub fn counts() -> [u64; NAMES.len()] {
    COUNTS.with(|c| std::array::from_fn(|i| c[i].get()))
}
