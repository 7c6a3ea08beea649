//! Test-only fault injection: [`Faulty`], a `Dir` that fails or panics one
//! file operation of the store it is given.
//!
//! A store holds only checked commits, so a fault can change the disk only
//! at one of the store's file operations, all of which go through an
//! `xic_xml::dir::Dir`. [`Faulty`] wraps another `Dir`, counts operations
//! by kind and, once armed with a [`Fault`], fails or panics the `nth`
//! operation of one [`Target`] under a path prefix (so a fault can hit one
//! shard of a set); an append it fails writes half its bytes first. The
//! store holds it, not the process, and no production crate depends on
//! this one. [`Op`] is shared with `difftest --crash-states`.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use xic_xml::dir::{Dir, File, Real};

/// One kind of file operation of a store: a [`Dir`] method or a [`File`]
/// method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Create,
    Open,
    Read,
    List,
    CreateDir,
    SyncDir,
    Rename,
    Remove,
    Append,
    SetLen,
    SyncData,
}

impl Op {
    /// The method's name.
    pub fn name(self) -> &'static str {
        const NAMES: [&str; 11] = [
            "create", "open", "read", "list", "create_dir", "sync_dir", "rename", "remove", "append",
            "set_len", "sync_data",
        ];
        NAMES[self as usize]
    }
}

/// What an armed fault does to the operation it strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The operation fails with an I/O error. Nothing retries it: a
    /// failed write or fsync is final.
    Error,
    /// The operation panics, as a crash in the middle of it would end
    /// the process; what it wrote stays on disk.
    Panic,
}

/// The operations of one kind on paths whose file name ends in `ending`
/// (`""`: any).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    pub op: Op,
    pub ending: &'static str,
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ending {
            "" => f.write_str(self.op.name()),
            ending => write!(f, "{}({ending})", self.op.name()),
        }
    }
}

/// The operations a store's writes perform, in write-path order: what a
/// fault harness aims at.
pub const WRITE_PATH: [Target; 7] = [
    // A commit record (or, in a rotation, the new segment's header).
    Target { op: Op::Append, ending: ".wal" },
    // The flush: the one fsync of a segment, where the store syncs.
    Target { op: Op::SyncData, ending: ".wal" },
    // A rotation: the snapshot's temporary file, then the new segment.
    Target { op: Op::Create, ending: "" },
    // The snapshot's content.
    Target { op: Op::Append, ending: ".ckpt.tmp" },
    // The snapshot into its final name.
    Target { op: Op::Rename, ending: "" },
    // The snapshot's name, then the new segment's.
    Target { op: Op::SyncDir, ending: "" },
    // An expired generation's files.
    Target { op: Op::Remove, ending: "" },
];

/// A fault: the `nth` (from 1) operation of `target` under `under`, from
/// the moment it is armed, fails or panics; every other passes through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    pub target: Target,
    pub under: PathBuf,
    pub nth: u64,
    pub mode: FaultMode,
}

#[derive(Debug, Default)]
struct State {
    fault: Option<Fault>,
    /// Operations the armed fault matched, the one it struck included.
    hits: u64,
    fired: bool,
    /// Operations by kind since the `Faulty` was made.
    counts: [u64; 11],
}

/// A [`Dir`] over another one that counts its operations and fails or
/// panics the one an armed [`Fault`] names (see the crate docs). Clones
/// share the counts and the fault: a test keeps one and gives the store
/// another.
#[derive(Debug, Clone)]
pub struct Faulty {
    inner: Arc<dyn Dir>,
    state: Arc<Mutex<State>>,
}

impl Faulty {
    /// Over the real file system, counting, with nothing armed.
    pub fn real() -> Faulty {
        Faulty { inner: Arc::new(Real), state: Arc::default() }
    }

    /// This `Faulty`, as the `Dir` a store holds.
    pub fn dir(&self) -> Arc<dyn Dir> {
        Arc::new(self.clone())
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // A fault's panic never holds the lock (see `strike`).
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms `fault`, in place of any armed before; its count of matching
    /// operations starts now.
    pub fn arm(&self, fault: Fault) {
        let mut state = self.lock();
        (state.fault, state.hits, state.fired) = (Some(fault), 0, false);
    }

    /// True once the armed fault struck.
    pub fn fired(&self) -> bool {
        self.lock().fired
    }

    /// The operations the armed fault matched since it was armed, the one
    /// it struck and those after it included.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// The operations of kind `op` so far, faulted ones included.
    pub fn count(&self, op: Op) -> u64 {
        self.lock().counts[op as usize]
    }

    /// Counts `op` on `path`; the armed fault's mode if this is the
    /// operation it strikes.
    fn strike(&self, op: Op, path: &Path) -> Option<FaultMode> {
        let mut state = self.lock();
        state.counts[op as usize] += 1;
        let aimed = |f: &&Fault| {
            f.target.op == op && path.starts_with(&f.under) && path.to_string_lossy().ends_with(f.target.ending)
        };
        let fault = state.fault.as_ref().filter(aimed)?;
        let (nth, mode) = (fault.nth, fault.mode);
        state.hits += 1;
        (state.hits == nth).then(|| {
            state.fired = true;
            mode
        })
        // The lock is released before the caller panics.
    }

    /// `Ok` unless the armed fault strikes `op` on `path`.
    fn check(&self, op: Op, path: &Path) -> io::Result<()> {
        self.strike(op, path).map_or(Ok(()), |mode| Err(injected(mode, op, path)))
    }

    fn file(&self, inner: Box<dyn File>, path: &Path) -> Box<dyn File> {
        Box::new(FaultyFile { inner, path: path.to_path_buf(), faulty: self.clone() })
    }
}

/// The injected failure: an error, or a panic that never returns.
fn injected(mode: FaultMode, op: Op, path: &Path) -> io::Error {
    let message = format!("injected fault: {} {}", op.name(), path.display());
    match mode {
        FaultMode::Error => io::Error::other(message),
        FaultMode::Panic => panic!("{message}"),
    }
}

#[derive(Debug)]
struct FaultyFile {
    inner: Box<dyn File>,
    path: PathBuf,
    faulty: Faulty,
}

impl File for FaultyFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let Some(mode) = self.faulty.strike(Op::Append, &self.path) else {
            return self.inner.append(bytes);
        };
        // A torn write: half the bytes land before the failure.
        let _ = self.inner.append(&bytes[..bytes.len() / 2]);
        Err(injected(mode, Op::Append, &self.path))
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.faulty.check(Op::SetLen, &self.path)?;
        self.inner.set_len(len)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.faulty.check(Op::SyncData, &self.path)?;
        self.inner.sync_data()
    }
}

impl Dir for Faulty {
    fn create(&self, path: &Path) -> io::Result<Box<dyn File>> {
        self.check(Op::Create, path)?;
        Ok(self.file(self.inner.create(path)?, path))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn File>> {
        self.check(Op::Open, path)?;
        Ok(self.file(self.inner.open(path)?, path))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.check(Op::Read, path)?;
        self.inner.read(path)
    }

    fn list(&self, path: &Path) -> io::Result<Vec<String>> {
        self.check(Op::List, path)?;
        self.inner.list(path)
    }

    fn create_dir(&self, path: &Path) -> io::Result<()> {
        self.check(Op::CreateDir, path)?;
        self.inner.create_dir(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.check(Op::SyncDir, path)?;
        self.inner.sync_dir(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check(Op::Rename, from)?;
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.check(Op::Remove, path)?;
        self.inner.remove(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use xic_xml::journal::{Journal, RecordKind};

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("xic-faults-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn fault(op: Op, ending: &'static str, under: &Path, nth: u64, mode: FaultMode) -> Fault {
        Fault { target: Target { op, ending }, under: under.to_path_buf(), nth, mode }
    }

    #[test]
    fn the_nth_matching_operation_under_the_prefix_fails_and_no_other() {
        let root = tmp_dir("nth");
        let (a, b) = (root.join("a"), root.join("b"));
        let faulty = Faulty::real();
        faulty.create_dir(&a).expect("a");
        faulty.create_dir(&b).expect("b");
        faulty.arm(fault(Op::Create, ".wal", &b, 2, FaultMode::Error));
        faulty.create(&a.join("x.wal")).expect("outside the prefix");
        faulty.create(&b.join("x.ckpt")).expect("another ending");
        faulty.create(&b.join("x.wal")).expect("the first match");
        let err = faulty.create(&b.join("y.wal")).expect_err("the second match");
        assert!(err.to_string().starts_with("injected fault: create "), "{err}");
        assert!(!b.join("y.wal").exists(), "a failed create creates nothing");
        faulty.create(&b.join("z.wal")).expect("single-shot");
        assert!(faulty.fired());
        assert_eq!((faulty.hits(), faulty.count(Op::Create), faulty.count(Op::CreateDir)), (3, 5, 2));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_failed_append_writes_half_its_bytes() {
        let root = tmp_dir("half");
        let faulty = Faulty::real();
        let mut file = faulty.create(&root.join("f")).expect("create");
        faulty.arm(fault(Op::Append, "", &root, 1, FaultMode::Error));
        file.append(b"abcdefgh").expect_err("injected");
        file.append(b"ij").expect("the next append");
        assert_eq!(std::fs::read(root.join("f")).expect("read"), b"abcdij");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_panic_leaves_the_faulty_working() {
        let root = tmp_dir("panic");
        let faulty = Faulty::real();
        faulty.arm(fault(Op::CreateDir, "", &root, 1, FaultMode::Panic));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| faulty.create_dir(&root.join("d"))));
        assert!(caught.is_err());
        assert!(faulty.fired());
        faulty.arm(fault(Op::CreateDir, "", &root, 1, FaultMode::Error));
        assert!(!faulty.fired(), "arming starts over");
        assert!(faulty.create_dir(&root.join("d")).is_err());
        assert_eq!(faulty.count(Op::CreateDir), 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_failed_sync_is_not_retried() {
        let root = tmp_dir("once");
        let path = root.join("j.wal");
        let faulty = Faulty::real();
        let mut j = Journal::create_in(&faulty, &path, 1).expect("create");
        j.append(RecordKind::Commit, 1, "lands").expect("append");
        faulty.arm(fault(Op::SyncData, ".wal", &root, 1, FaultMode::Error));
        j.sync_now().expect_err("one attempt, one error");
        assert_eq!(faulty.count(Op::SyncData), 1, "the fsync was retried");
        drop(j);
        let rec = Journal::recover(&path, Some(1)).expect("recover");
        assert!(!rec.torn);
        assert_eq!(rec.records.len(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn the_write_path_names_each_target_once() {
        let names: Vec<String> = WRITE_PATH.iter().map(Target::to_string).collect();
        assert_eq!(
            names,
            ["append(.wal)", "sync_data(.wal)", "create", "append(.ckpt.tmp)", "rename", "sync_dir", "remove"]
        );
    }
}
