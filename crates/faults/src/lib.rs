//! Seed-deterministic fault injection for crash and error-path testing.
//!
//! Production code threads *named fault sites* through its write paths by
//! calling [`fire`] at the boundaries a fault must be able to strike (per
//! XUpdate operation, either side of a commit's append, the flush). What a
//! crash or a failed file operation does *inside* the store's I/O is
//! enumerated over a simulated directory instead (`xic_xml::dir`). A test harness then *arms* a site with
//! [`arm`]`(site, nth, mode)`: the `nth` time that site is hit, the
//! configured fault triggers — a panic or an injected `Err` — and every
//! other hit is a no-op.
//!
//! Design constraints:
//!
//! - **Disarmed cost is one relaxed atomic load.** When nothing is armed
//!   (the production state), [`fire`] reads a single `AtomicBool` and
//!   returns; the registry mutex is never touched.
//! - **Deterministic.** Triggering depends only on the arm parameters and
//!   the hit order, so a crash case is replayable from `(seed, site, nth)`.
//! - **Thread-safe and thread-scoped.** The registry is a mutex-guarded
//!   table; hit counting is serialized, and the fault itself triggers
//!   after the lock is released so a panic never poisons the registry.
//!   A fault only counts and triggers hits from the thread that armed it,
//!   and [`disarm_all`] and [`hits`] only see the calling thread's
//!   faults, so concurrently running tests (each on its own harness
//!   thread) and unrelated worker threads cannot consume, trip, clear or
//!   misread each other's faults. Thread scoping is also what makes
//!   *shard-scoped* injection work: a harness that runs every shard's
//!   batches on its own thread and arms only around the victim's faults
//!   exactly that shard while its siblings commit untouched.
//!
//! The canonical list of sites compiled into the workspace is [`SITES`];
//! the fault harness in `xic-difftest` walks it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// What happens when an armed site reaches its trigger hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// `panic!` at the site. Combined with the `catch_unwind` containment
    /// in `xicheck`, this simulates a crash in-process: the in-memory
    /// state is lost (checker poisoned) while on-disk state is left
    /// exactly as a process crash would leave it, because journal writes
    /// are unbuffered.
    Panic,
    /// Return `Err(FaultError)` from [`fire`], exercising error-handling
    /// paths (a dropped copy, a degraded checker) without terminating
    /// anything. Nothing retries it: a failed write or fsync is final.
    Error,
}

/// The injected error returned by [`fire`] for [`FaultMode::Error`]
/// faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The site that triggered.
    pub site: &'static str,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault (error) at site `{}`", self.site)
    }
}

impl std::error::Error for FaultError {}

/// Fault sites compiled into the workspace write paths, in write-path
/// order, each a boundary with a meaning of its own (between two file
/// operations is `difftest --crash-states`' to enumerate). The fault
/// harness walks this list; a ci.sh stage holds it equal to the `fire`
/// calls.
pub const SITES: &[&str] = &[
    // Fired before each XUpdate operation is applied to the tree
    // (`xic_xml::xupdate::apply`). Hit once per op, so `nth` selects the
    // op index within a batch.
    "xupdate.apply.op",
    // Checker commit, after the update is applied and checked but before
    // the journal record is appended: nothing of the statement is on
    // disk.
    "checker.commit.pre",
    // Checker commit, after the journal record is appended but before it
    // is flushed: the record may be whole on disk, unacknowledged.
    "checker.commit.post",
    // The flush (`Journal::sync_now`), before the data reaches the disk:
    // the one durability point, once per direct statement or batch that
    // appended a record. A fault here degrades the checker to read-only;
    // nothing retries the fsync.
    "journal.sync",
];

struct ArmedFault {
    site: String,
    nth: u64,
    hits: u64,
    mode: FaultMode,
    /// The arming thread: the fault's owner for [`disarm_all`] and
    /// [`hits`], and the only thread whose hits count (see module docs)
    /// unless the fault was armed with [`arm_any_thread`].
    thread: std::thread::ThreadId,
    /// Armed via [`arm_any_thread`]: hits from every thread count.
    any_thread: bool,
}

static ANY_ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Vec<ArmedFault>> = Mutex::new(Vec::new());

fn registry() -> std::sync::MutexGuard<'static, Vec<ArmedFault>> {
    // A panic raised by a triggering fault never holds this lock (see
    // `fire_slow`), but an unrelated test panic could; recover the data
    // rather than cascading.
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arm `site` to trigger `mode` on its `nth` hit (1-based), counting only
/// hits from the calling thread. Hits before and after the `nth` pass
/// through untouched: the fault is single-shot.
///
/// Arming the same site twice stacks two independent triggers; use
/// [`disarm_all`] between test cases.
pub fn arm(site: &str, nth: u64, mode: FaultMode) {
    arm_inner(site, nth, mode, false);
}

/// Like [`arm`], but hits from *every* thread count and trigger. Needed
/// to fault code that runs on threads the harness does not own — e.g.
/// a batch fsync a service runs on another submitter's thread, when that
/// submitter leads the batch. Use sparingly: concurrent
/// tests arming the same site this way will consume each other's hits.
pub fn arm_any_thread(site: &str, nth: u64, mode: FaultMode) {
    arm_inner(site, nth, mode, true);
}

fn arm_inner(site: &str, nth: u64, mode: FaultMode, any_thread: bool) {
    let mut reg = registry();
    reg.push(ArmedFault {
        site: site.to_string(),
        nth: nth.max(1),
        hits: 0,
        mode,
        thread: std::thread::current().id(),
        any_thread,
    });
    ANY_ARMED.store(true, Ordering::Release);
}

/// Disarm every fault the calling thread armed ([`arm_any_thread`] ones
/// included), dropping their hit counts. Faults armed by other threads
/// stay armed: a test cleaning up must not disarm its neighbours.
pub fn disarm_all() {
    let me = std::thread::current().id();
    let mut reg = registry();
    reg.retain(|f| f.thread != me);
    ANY_ARMED.store(!reg.is_empty(), Ordering::Release);
}

/// True if any site is currently armed.
pub fn any_armed() -> bool {
    ANY_ARMED.load(Ordering::Acquire)
}

/// How many times `site` has been hit since the calling thread armed it
/// (0 if it has not). When the thread armed the site more than once,
/// returns the maximum.
pub fn hits(site: &str) -> u64 {
    let me = std::thread::current().id();
    registry()
        .iter()
        .filter(|f| f.site == site && f.thread == me)
        .map(|f| f.hits)
        .max()
        .unwrap_or(0)
}

/// A fault site. Call this at the point in a write path where a crash or
/// I/O failure should be injectable. Returns `Ok(())` unless an armed
/// [`FaultMode::Error`] fault triggers; `Panic` faults do not return.
#[inline]
pub fn fire(site: &'static str) -> Result<(), FaultError> {
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    fire_slow(site)
}

#[cold]
fn fire_slow(site: &'static str) -> Result<(), FaultError> {
    let me = std::thread::current().id();
    let mode = {
        let mut reg = registry();
        let mut triggered = None;
        for f in reg
            .iter_mut()
            .filter(|f| f.site == site && (f.any_thread || f.thread == me))
        {
            f.hits += 1;
            if f.hits == f.nth {
                triggered = Some(f.mode);
            }
        }
        triggered
        // Lock released here so a panic below cannot poison the registry.
    };
    match mode {
        None => Ok(()),
        Some(FaultMode::Error) => Err(FaultError { site }),
        Some(FaultMode::Panic) => panic!("injected fault (panic) at site `{site}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `any_armed` is process-global, so tests that assert on it must not
    // run concurrently with tests that arm. Serialize them with a test
    // mutex.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_fire_is_ok() {
        let _g = serial();
        disarm_all();
        assert!(!any_armed());
        assert_eq!(fire("xupdate.apply.op"), Ok(()));
    }

    #[test]
    fn error_mode_triggers_on_nth_hit_only() {
        let _g = serial();
        disarm_all();
        arm("checker.commit.pre", 3, FaultMode::Error);
        assert!(fire("checker.commit.pre").is_ok());
        assert!(fire("checker.commit.pre").is_ok());
        let err = fire("checker.commit.pre").unwrap_err();
        assert_eq!(err.site, "checker.commit.pre");
        // Single-shot: the fourth hit passes through again.
        assert!(fire("checker.commit.pre").is_ok());
        assert_eq!(hits("checker.commit.pre"), 4);
        disarm_all();
    }

    #[test]
    fn other_sites_are_unaffected() {
        let _g = serial();
        disarm_all();
        arm("journal.sync", 1, FaultMode::Error);
        assert!(fire("checker.commit.pre").is_ok());
        assert!(fire("checker.commit.post").is_ok());
        assert!(fire("journal.sync").is_err());
        disarm_all();
    }

    #[test]
    fn panic_mode_panics_and_registry_survives() {
        let _g = serial();
        disarm_all();
        arm("checker.commit.pre", 1, FaultMode::Panic);
        let caught = std::panic::catch_unwind(|| fire("checker.commit.pre"));
        assert!(caught.is_err());
        // The registry must not be poisoned: arming still works.
        disarm_all();
        arm("checker.commit.pre", 1, FaultMode::Error);
        assert!(fire("checker.commit.pre").is_err());
        disarm_all();
    }

    #[test]
    fn disarming_and_hit_counts_are_scoped_to_the_arming_thread() {
        let _g = serial();
        disarm_all();
        arm("checker.commit.post", 2, FaultMode::Error);
        assert!(fire("checker.commit.post").is_ok());
        // A neighbour arms the same site, hits it, reads its own count
        // and cleans up after itself.
        std::thread::spawn(|| {
            arm("checker.commit.post", 1, FaultMode::Error);
            assert!(fire("checker.commit.post").is_err());
            assert!(fire("checker.commit.post").is_ok());
            assert!(fire("checker.commit.post").is_ok());
            assert_eq!(hits("checker.commit.post"), 3);
            disarm_all();
        })
        .join()
        .expect("neighbour thread");
        // This thread's fault is still armed, with its own count.
        assert!(any_armed());
        assert_eq!(hits("checker.commit.post"), 1);
        assert!(fire("checker.commit.post").is_err());
        // An any-thread fault belongs to the thread that armed it.
        arm_any_thread("journal.sync", 1, FaultMode::Error);
        std::thread::spawn(disarm_all).join().expect("neighbour thread");
        assert!(fire("journal.sync").is_err());
        disarm_all();
        assert!(!any_armed());
    }

    #[test]
    fn sites_list_is_nonempty_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for s in SITES {
            assert!(seen.insert(*s), "duplicate site {s}");
        }
        let four = ["xupdate.apply.op", "checker.commit.pre", "checker.commit.post", "journal.sync"];
        assert_eq!(SITES, four, "the boundaries with a meaning, and nothing between two file operations");
    }
}
