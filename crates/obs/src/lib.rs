//! Zero-dependency observability for the XML integrity checker:
//! hierarchical **phase timers**, monotonic **counters**, and a
//! JSON-serializable [`Snapshot`] of both.
//!
//! This crate sits below every other `xic-*` crate (it depends on nothing
//! but `std`), so the XPath/XQuery evaluators, the simplifier, and the
//! [`Checker`] façade can all report into one shared, thread-local sink.
//! See `DESIGN.md` § "System inventory" for where it fits in the overall
//! architecture.
//!
//! # Design
//!
//! Instrumentation must cost next to nothing when it is not being read:
//!
//! * **Counters** are a fixed, enum-indexed array of [`Cell<u64>`] in
//!   thread-local storage — one predictable-index add per event, no
//!   hashing, no locking, no allocation.
//! * **Phase timers** take an [`Instant`] only at phase *boundaries*
//!   (guard creation and drop), never per item. Nested guards produce
//!   hierarchical slash-joined paths: if the checker opens `"compile"`
//!   and the simplifier then opens `"after"`, the inner span is recorded
//!   as `compile/after`.
//!
//! State is per-thread. Benchmarks and the [`Checker`] run
//! single-threaded, so a thread's snapshot is the whole story; tests that
//! run in parallel each see their own clean sink.
//!
//! # Example
//!
//! ```
//! use xic_obs as obs;
//!
//! obs::reset();
//! {
//!     let _outer = obs::phase("compile");
//!     let _inner = obs::phase("optimize");
//!     obs::incr(obs::Counter::DenialsSubsumed);
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter(obs::Counter::DenialsSubsumed), 1);
//! assert_eq!(snap.phase("compile/optimize").unwrap().calls, 1);
//! let json = snap.to_json();
//! assert_eq!(obs::Snapshot::from_json(&json).unwrap(), snap);
//! ```
//!
//! [`Checker`]: ../xicheck/struct.Checker.html

use std::cell::{Cell, RefCell};
use std::time::Instant;

pub mod json;

/// The monotonic event counters tracked across the system.
///
/// Each variant indexes a fixed slot in the thread-local counter array;
/// adding a variant here is all that is needed to start counting a new
/// event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Nodes considered by XPath step evaluation (axis candidates).
    XpathNodesVisited,
    /// Bindings iterated by XQuery FLWOR / quantifier evaluation.
    XqueryBindingsVisited,
    /// Denial clauses produced by the `After` unfolding phase.
    ClausesExpanded,
    /// Denial clauses remaining after the `Optimize` phase.
    ClausesSurviving,
    /// Denials pruned by θ-subsumption during `Optimize`.
    DenialsSubsumed,
    /// A set of two or more nodes put into document order by path keys,
    /// for a consumer that observes the order.
    DocOrderSort,
    /// Records appended to the write-ahead journal (the checker appends
    /// commit records only).
    JournalAppend,
    /// `fsync` calls issued by the journal (0 when sync is disabled).
    JournalFsync,
    /// Stores replayed by `Checker::open_store`.
    Recovery,
    /// Panics caught by the checker's `catch_unwind` containment.
    PanicContained,
    /// Atomic checkpoint snapshots durably written (tmp + fsync + rename
    /// + directory fsync all completed).
    CheckpointWritten,
    /// Journal rotations completed: a fresh segment keyed to a new
    /// checkpoint's base checksum started accepting records.
    Rotation,
    /// Recovery attempts that skipped an invalid (corrupt, mismatched or
    /// unreplayable) generation and fell back to an older snapshot/journal
    /// pair.
    RecoveryGenerationFallback,
    /// Group-commit batches flushed by the service's batch leaders (one
    /// shared fsync per batch; see DESIGN.md row 19).
    GroupCommitBatch,
    /// Statements carried inside group-commit batches (the mean batch
    /// size is this over `group_commit_batches`).
    GroupCommitStatement,
    /// Constraints skipped by the static independence analysis: their
    /// read footprint provably misses the statement's write footprint,
    /// so the check cannot change verdict and is not evaluated.
    ChecksSkippedStatic,
    /// Constraints retained (evaluated) after the static independence
    /// analysis — the live subset, plus every constraint whenever the
    /// analysis falls back to "all live".
    ChecksRetainedStatic,
    /// A planned join or keyed step answered from the document's
    /// persistent value index.
    IndexProbe,
    /// A value index built by the first probe that asked a document for
    /// its shape (one pass over the shape's members, kept from then on).
    IndexBuild,
    /// A document arena chunk copied by its first write after a clone
    /// (a service snapshot) shared it.
    ChunkCopy,
    /// A member a planned join's first conjunct selected (a hit of the
    /// document's index or of a table) that a later join of the same
    /// `some` dropped before the `satisfies` ran on it.
    ProbeNarrowed,
    /// Pairs of denials `Optimize` searched for a θ-subsumption: those
    /// whose literal signatures did not already rule it out.
    SubsumptionSearches,
    /// XUpdate `select` expressions evaluated by the XPath resolver.
    SelectResolve,
}

/// All counters, in snapshot order.
pub const ALL_COUNTERS: [Counter; 23] = [
    Counter::XpathNodesVisited,
    Counter::XqueryBindingsVisited,
    Counter::ClausesExpanded,
    Counter::ClausesSurviving,
    Counter::DenialsSubsumed,
    Counter::DocOrderSort,
    Counter::JournalAppend,
    Counter::JournalFsync,
    Counter::Recovery,
    Counter::PanicContained,
    Counter::CheckpointWritten,
    Counter::Rotation,
    Counter::RecoveryGenerationFallback,
    Counter::GroupCommitBatch,
    Counter::GroupCommitStatement,
    Counter::ChecksSkippedStatic,
    Counter::ChecksRetainedStatic,
    Counter::IndexProbe,
    Counter::IndexBuild,
    Counter::ChunkCopy,
    Counter::ProbeNarrowed,
    Counter::SubsumptionSearches,
    Counter::SelectResolve,
];

const N_COUNTERS: usize = ALL_COUNTERS.len();

impl Counter {
    /// The stable snake_case name used in snapshots and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::XpathNodesVisited => "xpath_nodes_visited",
            Counter::XqueryBindingsVisited => "xquery_bindings_visited",
            Counter::ClausesExpanded => "clauses_expanded",
            Counter::ClausesSurviving => "clauses_surviving",
            Counter::DenialsSubsumed => "denials_subsumed",
            Counter::DocOrderSort => "doc_order_sorts",
            Counter::JournalAppend => "journal_appends",
            Counter::JournalFsync => "journal_fsyncs",
            Counter::Recovery => "recoveries",
            Counter::PanicContained => "panics_contained",
            Counter::CheckpointWritten => "checkpoints_written",
            Counter::Rotation => "rotations",
            Counter::RecoveryGenerationFallback => "recovery_generation_fallbacks",
            Counter::GroupCommitBatch => "group_commit_batches",
            Counter::GroupCommitStatement => "group_commit_statements",
            Counter::ChecksSkippedStatic => "checks_skipped_static",
            Counter::ChecksRetainedStatic => "checks_retained_static",
            Counter::IndexProbe => "index_probes",
            Counter::IndexBuild => "index_builds",
            Counter::ChunkCopy => "chunk_copies",
            Counter::ProbeNarrowed => "probe_hits_narrowed",
            Counter::SubsumptionSearches => "subsumption_searches",
            Counter::SelectResolve => "selects_resolved",
        }
    }
}

/// Accumulated time for one hierarchical phase path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Slash-joined path, e.g. `compile/optimize` or `check/full`.
    pub path: String,
    /// How many spans were recorded under this path.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those spans.
    pub total_ns: u64,
}

struct Sink {
    counters: [Cell<u64>; N_COUNTERS],
    // (path segment, start) for each currently open phase.
    stack: RefCell<Vec<&'static str>>,
    // Accumulated (path, calls, total_ns); linear scan is fine — the
    // system has on the order of ten distinct phase paths.
    phases: RefCell<Vec<PhaseStat>>,
}

thread_local! {
    static SINK: Sink = const {
        Sink {
            counters: [const { Cell::new(0) }; N_COUNTERS],
            stack: RefCell::new(Vec::new()),
            phases: RefCell::new(Vec::new()),
        }
    };
}

/// Adds 1 to `counter` on this thread.
#[inline]
pub fn incr(counter: Counter) {
    add(counter, 1);
}

/// Adds `n` to `counter` on this thread.
#[inline]
pub fn add(counter: Counter, n: u64) {
    SINK.with(|s| {
        let cell = &s.counters[counter as usize];
        cell.set(cell.get().wrapping_add(n));
    });
}

/// Current value of `counter` on this thread.
pub fn counter(counter: Counter) -> u64 {
    SINK.with(|s| s.counters[counter as usize].get())
}

/// Opens a timed phase; the span ends (and is recorded) when the returned
/// guard drops. Guards nest: inner phases record under
/// `outer/inner/...` paths.
#[must_use = "the phase is timed until this guard is dropped"]
pub fn phase(name: &'static str) -> PhaseGuard {
    SINK.with(|s| s.stack.borrow_mut().push(name));
    PhaseGuard {
        start: Instant::now(),
    }
}

/// Times a phase while in scope; created by [`phase`].
pub struct PhaseGuard {
    start: Instant,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let elapsed_ns = self.start.elapsed().as_nanos() as u64;
        SINK.with(|s| {
            let path = {
                let mut stack = s.stack.borrow_mut();
                let path = stack.join("/");
                stack.pop();
                path
            };
            let mut phases = s.phases.borrow_mut();
            match phases.iter_mut().find(|p| p.path == path) {
                Some(p) => {
                    p.calls += 1;
                    p.total_ns += elapsed_ns;
                }
                None => phases.push(PhaseStat {
                    path,
                    calls: 1,
                    total_ns: elapsed_ns,
                }),
            }
        });
    }
}

/// Clears all counters and phase accumulators on this thread (open phase
/// guards keep working; their spans land in the fresh accumulator).
pub fn reset() {
    SINK.with(|s| {
        for c in &s.counters {
            c.set(0);
        }
        s.phases.borrow_mut().clear();
    });
}

/// A point-in-time copy of this thread's counters and phase timings.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every counter, in [`ALL_COUNTERS`] order.
    pub counters: Vec<(String, u64)>,
    /// Accumulated phase timings, in first-recorded order.
    pub phases: Vec<PhaseStat>,
}

/// Takes a [`Snapshot`] of this thread's observability state.
pub fn snapshot() -> Snapshot {
    SINK.with(|s| Snapshot {
        counters: ALL_COUNTERS
            .iter()
            .map(|&c| (c.name().to_string(), s.counters[c as usize].get()))
            .collect(),
        phases: s.phases.borrow().clone(),
    })
}

impl Snapshot {
    /// The captured value of `counter` (0 if the snapshot predates it).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == counter.name())
            .map_or(0, |(_, v)| *v)
    }

    /// The captured stats for a phase path, if any span was recorded.
    pub fn phase(&self, path: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.path == path)
    }

    /// Serializes to a JSON object with `"counters"` and `"phases"` keys.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// The snapshot as a [`json::Value`] tree (for embedding in larger
    /// documents such as bench reports).
    pub fn to_json_value(&self) -> json::Value {
        json::Value::Object(vec![
            (
                "counters".to_string(),
                json::Value::Object(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), json::Value::Number(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "phases".to_string(),
                json::Value::Array(
                    self.phases
                        .iter()
                        .map(|p| {
                            json::Value::Object(vec![
                                ("path".to_string(), json::Value::String(p.path.clone())),
                                ("calls".to_string(), json::Value::Number(p.calls as f64)),
                                (
                                    "total_ns".to_string(),
                                    json::Value::Number(p.total_ns as f64),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a snapshot previously produced by [`Snapshot::to_json`].
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        Snapshot::from_json_value(&json::parse(text)?)
    }

    /// Reads a snapshot out of a parsed [`json::Value`].
    pub fn from_json_value(v: &json::Value) -> Result<Snapshot, String> {
        let counters = v
            .get("counters")
            .and_then(json::Value::as_object)
            .ok_or("snapshot missing \"counters\" object")?
            .iter()
            .map(|(n, v)| {
                v.as_u64()
                    .map(|v| (n.clone(), v))
                    .ok_or_else(|| format!("counter {n:?} is not an integer"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let phases = v
            .get("phases")
            .and_then(json::Value::as_array)
            .ok_or("snapshot missing \"phases\" array")?
            .iter()
            .map(|p| {
                let path = p
                    .get("path")
                    .and_then(json::Value::as_str)
                    .ok_or("phase missing \"path\"")?;
                let calls = p
                    .get("calls")
                    .and_then(json::Value::as_u64)
                    .ok_or("phase missing \"calls\"")?;
                let total_ns = p
                    .get("total_ns")
                    .and_then(json::Value::as_u64)
                    .ok_or("phase missing \"total_ns\"")?;
                Ok(PhaseStat {
                    path: path.to_string(),
                    calls,
                    total_ns,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Snapshot { counters, phases })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        incr(Counter::JournalAppend);
        add(Counter::XpathNodesVisited, 41);
        incr(Counter::XpathNodesVisited);
        assert_eq!(counter(Counter::JournalAppend), 1);
        assert_eq!(counter(Counter::XpathNodesVisited), 42);
        assert_eq!(counter(Counter::JournalFsync), 0);
        reset();
        assert_eq!(counter(Counter::XpathNodesVisited), 0);
    }

    #[test]
    fn phase_guards_nest_into_hierarchical_paths() {
        reset();
        {
            let _compile = phase("compile");
            thread::sleep(Duration::from_millis(1));
            {
                let _after = phase("after");
                thread::sleep(Duration::from_millis(1));
            }
            {
                let _opt = phase("optimize");
            }
        }
        {
            let _compile = phase("compile");
        }
        let snap = snapshot();
        let compile = snap.phase("compile").expect("compile recorded");
        assert_eq!(compile.calls, 2);
        let after = snap.phase("after/compile");
        assert!(after.is_none(), "inner phase must nest under outer");
        let after = snap.phase("compile/after").expect("nested path recorded");
        assert_eq!(after.calls, 1);
        assert!(snap.phase("compile/optimize").is_some());
        // The outer span covers the inner one.
        assert!(compile.total_ns >= after.total_ns);
    }

    #[test]
    fn counters_are_per_thread() {
        reset();
        incr(Counter::JournalAppend);
        let other = thread::spawn(|| counter(Counter::JournalAppend))
            .join()
            .unwrap();
        assert_eq!(other, 0);
        assert_eq!(counter(Counter::JournalAppend), 1);
    }

    #[test]
    fn snapshot_json_round_trips() {
        reset();
        add(Counter::ClausesExpanded, 12);
        add(Counter::ClausesSurviving, 5);
        add(Counter::DenialsSubsumed, 7);
        {
            let _check = phase("check");
            let _full = phase("full");
        }
        let snap = snapshot();
        let text = snap.to_json();
        let back = Snapshot::from_json(&text).expect("round-trip parse");
        assert_eq!(back, snap);
        assert_eq!(back.counter(Counter::ClausesExpanded), 12);
        assert_eq!(back.phase("check/full").unwrap().calls, 1);
    }
}
