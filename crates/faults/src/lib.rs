//! Seed-deterministic fault injection for crash and error-path testing.
//!
//! Production code threads *named fault sites* through its write paths by
//! calling [`fire`] at the points where a crash or I/O error would be most
//! damaging (mid-record journal writes, between apply and commit, per
//! XUpdate operation). A test harness then *arms* a site with
//! [`arm`]`(site, nth, mode)`: the `nth` time that site is hit, the
//! configured fault triggers — a panic, a process abort, or an injected
//! `Err` — and every other hit is a no-op.
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
//!   misread each other's faults. Cross-process injection calls
//!   [`arm_from_env`] on the thread that will drive the workload. Thread
//!   scoping is also what makes *shard-scoped* injection work: in a
//!   multi-shard set whose services run the sync executor, a submission
//!   executes on the submitting thread, so arming before a victim shard's
//!   submission (and disarming after) faults exactly that shard while its
//!   siblings commit untouched — the shard crash matrix and shard chaos
//!   pass in `xic-difftest` are built on this.
//! - **Cross-process.** [`arm_from_env`] arms sites from the `XIC_FAULTS`
//!   environment variable (`site:nth:mode[,site:nth:mode...]`) so a parent
//!   can inject a real `abort()` into a spawned child.
//!
//! The canonical list of sites compiled into the workspace is [`SITES`];
//! the crash-matrix harness in `xic-difftest` enumerates it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// What happens when an armed site reaches its trigger hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// `panic!` at the site. Combined with the `catch_unwind` containment
    /// in `xicheck`, this simulates a crash in-process: the in-memory
    /// state is lost (checker poisoned) while on-disk state is left
    /// exactly as a real crash would leave it, because journal writes are
    /// unbuffered.
    Panic,
    /// `std::process::abort()` — a real crash, for child-process harnesses.
    Abort,
    /// Return `Err(FaultError)` from [`fire`], exercising error-handling
    /// paths (rollback, abort records) without terminating anything.
    Error,
    /// Return a *transient* `Err(FaultError)` — the moral equivalent of
    /// `std::io::ErrorKind::Interrupted`. Write paths with bounded retry
    /// (journal append/fsync) absorb these and try again instead of
    /// declaring the resource broken.
    Transient,
}

impl FaultMode {
    /// Parse the textual form used by `XIC_FAULTS`.
    pub fn parse(s: &str) -> Option<FaultMode> {
        match s {
            "panic" => Some(FaultMode::Panic),
            "abort" => Some(FaultMode::Abort),
            "error" => Some(FaultMode::Error),
            "transient" => Some(FaultMode::Transient),
            _ => None,
        }
    }
}

/// The injected error returned by [`fire`] for [`FaultMode::Error`] and
/// [`FaultMode::Transient`] faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The site that triggered.
    pub site: &'static str,
    /// True for [`FaultMode::Transient`] faults: a retry may succeed.
    pub transient: bool,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected fault ({}) at site `{}`",
            if self.transient { "transient" } else { "permanent" },
            self.site
        )
    }
}

impl std::error::Error for FaultError {}

/// Fault sites compiled into the workspace write paths, in rough
/// write-path order. The crash matrix iterates this list; keep it in sync
/// with the `fire(...)` calls in `xic-xml` and `xicheck`.
pub const SITES: &[&str] = &[
    // Fired before each XUpdate operation is applied to the tree
    // (`xic_xml::xupdate::apply`). Hit once per op, so `nth` selects the
    // op index within a batch.
    "xupdate.apply.op",
    // Journal append, before any byte is written.
    "journal.append.pre",
    // Journal append, after the record is half-written: crashing here
    // leaves a torn tail that recovery must detect and truncate.
    "journal.append.mid",
    // Journal append, after the full record is written but before fsync.
    "journal.append.post_write",
    // Journal append, after fsync: the record is durable.
    "journal.append.post_fsync",
    // The shared batch fsync (`Journal::sync_now`), before the data
    // reaches the disk: the group-commit durability point. Error and
    // transient faults here exercise the service's bounded fsync retry
    // and its read-only degraded mode.
    "journal.sync",
    // Checker commit, after the update is applied and checked but before
    // the journal record is appended.
    "checker.commit.pre",
    // Checker commit, after the journal record is durable but before the
    // verdict is returned to the caller.
    "checker.commit.post",
    // Checkpoint write, with the snapshot tmp file half-written: crashing
    // here leaves a torn `*.ckpt.tmp` that recovery must ignore.
    "checkpoint.tmp.mid_write",
    // Checkpoint write, after the tmp file is complete but before its
    // fsync: the snapshot content may not be durable yet.
    "checkpoint.tmp.pre_fsync",
    // Checkpoint write, after the tmp fsync but before the atomic rename:
    // the old generation is still the newest visible one.
    "checkpoint.pre_rename",
    // Checkpoint write, after the rename but before the directory fsync:
    // the new snapshot name may not be durable yet.
    "checkpoint.pre_dir_fsync",
    // Rotation, before the fresh journal segment keyed to the new
    // snapshot is created: a crash leaves a checkpoint with no segment
    // (recovery treats it as a snapshot with an empty suffix).
    "rotation.pre_new_segment",
    // Rotation, before expired old snapshot/segment generations are
    // unlinked: a crash leaves extra (still valid) generations behind.
    "rotation.pre_old_unlink",
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
/// the service writer thread's batch fsync. Use sparingly: concurrent
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
/// [`FaultMode::Error`] fault triggers; `Panic`/`Abort` faults do not
/// return.
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
        Some(FaultMode::Error) => Err(FaultError { site, transient: false }),
        Some(FaultMode::Transient) => Err(FaultError { site, transient: true }),
        Some(FaultMode::Panic) => panic!("injected fault (panic) at site `{site}`"),
        Some(FaultMode::Abort) => std::process::abort(),
    }
}

/// Environment variable read by [`arm_from_env`].
pub const ENV_VAR: &str = "XIC_FAULTS";

/// Arm faults from the `XIC_FAULTS` environment variable, used to inject
/// real aborts into spawned child processes. The format is a
/// comma-separated list of `site:nth:mode` triples, e.g.
/// `journal.append.mid:2:abort`. Returns the number of faults armed, or
/// a description of the first malformed entry.
pub fn arm_from_env() -> Result<usize, String> {
    let Ok(spec) = std::env::var(ENV_VAR) else {
        return Ok(0);
    };
    let mut armed = 0;
    for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
        let parts: Vec<&str> = entry.trim().split(':').collect();
        let [site, nth, mode] = parts[..] else {
            return Err(format!("malformed {ENV_VAR} entry `{entry}` (want site:nth:mode)"));
        };
        let nth: u64 = nth
            .parse()
            .map_err(|_| format!("bad hit count in {ENV_VAR} entry `{entry}`"))?;
        let mode = FaultMode::parse(mode)
            .ok_or_else(|| format!("bad mode in {ENV_VAR} entry `{entry}` (want panic|abort|error)"))?;
        arm(site, nth, mode);
        armed += 1;
    }
    Ok(armed)
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
        arm("journal.append.pre", 3, FaultMode::Error);
        assert!(fire("journal.append.pre").is_ok());
        assert!(fire("journal.append.pre").is_ok());
        let err = fire("journal.append.pre").unwrap_err();
        assert_eq!(err.site, "journal.append.pre");
        // Single-shot: the fourth hit passes through again.
        assert!(fire("journal.append.pre").is_ok());
        assert_eq!(hits("journal.append.pre"), 4);
        disarm_all();
    }

    #[test]
    fn other_sites_are_unaffected() {
        let _g = serial();
        disarm_all();
        arm("journal.append.mid", 1, FaultMode::Error);
        assert!(fire("journal.append.pre").is_ok());
        assert!(fire("checker.commit.post").is_ok());
        assert!(fire("journal.append.mid").is_err());
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
    fn env_arming_parses_triples() {
        let _g = serial();
        disarm_all();
        std::env::set_var(ENV_VAR, "journal.append.mid:2:error, xupdate.apply.op:1:panic");
        let n = arm_from_env().expect("well-formed spec");
        assert_eq!(n, 2);
        assert!(fire("journal.append.mid").is_ok());
        assert!(fire("journal.append.mid").is_err());
        std::env::remove_var(ENV_VAR);
        disarm_all();
    }

    #[test]
    fn env_arming_rejects_malformed_entries() {
        let _g = serial();
        disarm_all();
        std::env::set_var(ENV_VAR, "journal.append.mid:zap:error");
        assert!(arm_from_env().is_err());
        std::env::set_var(ENV_VAR, "journal.append.mid:1:sigsegv");
        assert!(arm_from_env().is_err());
        std::env::set_var(ENV_VAR, "just-a-site");
        assert!(arm_from_env().is_err());
        std::env::remove_var(ENV_VAR);
        disarm_all();
    }

    #[test]
    fn disarming_and_hit_counts_are_scoped_to_the_arming_thread() {
        let _g = serial();
        disarm_all();
        arm("journal.append.pre", 2, FaultMode::Error);
        assert!(fire("journal.append.pre").is_ok());
        // A neighbour arms the same site, hits it, reads its own count
        // and cleans up after itself.
        std::thread::spawn(|| {
            arm("journal.append.pre", 1, FaultMode::Error);
            assert!(fire("journal.append.pre").is_err());
            assert!(fire("journal.append.pre").is_ok());
            assert!(fire("journal.append.pre").is_ok());
            assert_eq!(hits("journal.append.pre"), 3);
            disarm_all();
        })
        .join()
        .expect("neighbour thread");
        // This thread's fault is still armed, with its own count.
        assert!(any_armed());
        assert_eq!(hits("journal.append.pre"), 1);
        assert!(fire("journal.append.pre").is_err());
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
        assert!(SITES.len() >= 13, "journal + checkpoint/rotation sites");
    }

    #[test]
    fn transient_mode_returns_a_transient_error() {
        let _g = serial();
        disarm_all();
        arm("journal.append.post_write", 1, FaultMode::Transient);
        let err = fire("journal.append.post_write").unwrap_err();
        assert!(err.transient);
        assert!(err.to_string().contains("transient"));
        // Single-shot, like every other mode: the retry succeeds.
        assert!(fire("journal.append.post_write").is_ok());
        disarm_all();
        // Permanent errors say so.
        arm("journal.append.pre", 1, FaultMode::Error);
        let err = fire("journal.append.pre").unwrap_err();
        assert!(!err.transient);
        disarm_all();
        assert_eq!(FaultMode::parse("transient"), Some(FaultMode::Transient));
    }
}
