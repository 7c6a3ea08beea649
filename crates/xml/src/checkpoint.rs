//! Atomic checkpoint snapshots, journal-segment rotation and recovery:
//! the one durable log.
//!
//! The write-ahead [`journal`](crate::journal) makes every committed
//! statement durable, but by itself it grows without bound and recovery
//! must replay the *entire* committed history — O(all updates ever).
//! Checkpointing bounds both: a [`Store`] directory holds generation-
//! numbered (snapshot, journal-segment) pairs, and recovery replays only
//! the suffix journaled since the newest valid snapshot. A store that
//! never rotates is a plain journal, `gen-0.wal`. [`Store`] alone knows
//! the file names, the rotation steps and what a crash between them
//! leaves: it owns the live segment and [`Store::recover`]; its caller
//! only rebuilds a base document and replays records onto it.
//!
//! # On-disk format
//!
//! A checkpoint file is a single atomic snapshot:
//!
//! ```text
//! checkpoint := magic "XICCKPT1" (8 bytes)
//!             | commit_seq u64 LE        (statements committed at snapshot time)
//!             | doc_len u32 LE
//!             | doc UTF-8 (doc_len bytes, canonical serialization)
//!             | crc u32 LE               (crc32 over commit_seq..doc bytes)
//! ```
//!
//! # Store layout and rotation protocol
//!
//! ```text
//! store/
//!   gen-0.wal      journal segment keyed to the (external) base document
//!   gen-3.ckpt     snapshot: document after gen-3's commit_seq statements
//!   gen-3.wal      journal segment keyed to crc32(gen-3 snapshot)
//!   gen-4.ckpt.tmp torn in-progress snapshot (ignored by recovery)
//! ```
//!
//! Rotation to generation *g+1* is ordered so that **a crash at any
//! interleaving leaves either the old (snapshot, journal) pair or the new
//! one fully recoverable, never a torn hybrid**:
//!
//! 1. write `gen-<g+1>.ckpt.tmp` (torn tmp files are ignored),
//! 2. fsync the tmp file (snapshot content durable),
//! 3. rename it to `gen-<g+1>.ckpt` (atomic on POSIX),
//! 4. fsync the directory (snapshot *name* durable),
//! 5. create `gen-<g+1>.wal` keyed to the snapshot's CRC-32 and fsync the
//!    directory again (a checkpoint whose segment is missing recovers as
//!    "snapshot + empty suffix", so a crash between 4 and 5 is benign),
//! 6. unlink generations older than the retention window (their absence
//!    is never required for correctness — only their presence is useful,
//!    as fallbacks when a newer generation is corrupt).
//!
//! Every step carries an `xic-faults` site (`checkpoint.tmp.mid_write`,
//! `checkpoint.tmp.pre_fsync`, `checkpoint.pre_rename`,
//! `checkpoint.pre_dir_fsync`, `rotation.pre_new_segment`,
//! `rotation.pre_old_unlink`) so the `xic-difftest` crash matrix can
//! crash at each interleaving and prove recovery byte-identical to the
//! committed prefix.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::journal::{crc32, Journal, JournalError, JournalRecord, RecordKind};

/// Checkpoint file magic, bumped if the snapshot layout ever changes.
pub const CKPT_MAGIC: &[u8; 8] = b"XICCKPT1";

/// magic + commit_seq + doc_len + crc: the smallest well-formed file.
const CKPT_MIN_LEN: usize = 8 + 8 + 4 + 4;
/// Upper bound on a serialized snapshot; anything larger is corrupt.
const MAX_DOC_LEN: u32 = 1 << 28;

/// A decoded checkpoint snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Committed-statement sequence number at snapshot time: journal
    /// records in this generation's segment carry versions
    /// `commit_seq + 1, commit_seq + 2, …`.
    pub commit_seq: u64,
    /// The document's canonical serialization at snapshot time.
    pub doc_xml: String,
}

impl Checkpoint {
    /// CRC-32 of the snapshot text — the base checksum the generation's
    /// journal segment is keyed to.
    pub fn doc_crc(&self) -> u32 {
        crc32(self.doc_xml.as_bytes())
    }
}

/// Errors from checkpoint write/read or store rotation.
#[derive(Debug, Clone)]
pub enum CheckpointError {
    /// An underlying I/O failure (including injected ones), kind
    /// preserved as in [`JournalError::Io`].
    Io {
        /// The underlying error's kind.
        kind: std::io::ErrorKind,
        /// The underlying error, preserved for `Error::source()`.
        source: std::sync::Arc<dyn std::error::Error + Send + Sync>,
    },
    /// The file exists but does not start with the checkpoint magic.
    BadHeader,
    /// The file has the right magic but fails validation (short read,
    /// implausible length, checksum mismatch, invalid UTF-8).
    Corrupt(String),
    /// A journal-segment operation inside the store failed.
    Journal(JournalError),
    /// The store directory contains an entry that is not a recognized
    /// store artifact (`gen-<g>.ckpt`, `gen-<g>.wal`, `gen-<g>.ckpt.tmp`).
    /// Refusing to open is deliberate: silently coexisting with foreign
    /// files invites two incarnations (or two subsystems) to interleave
    /// in one directory, and recovery has no way to tell whose bytes win.
    ForeignEntry {
        /// The directory being opened as a store.
        dir: PathBuf,
        /// The offending entry's file name.
        name: String,
    },
    /// A snapshot at `commit_seq` has no segment while an older
    /// generation's segment holds a newer committed `version`: a failed
    /// rotation's orphan, which recovery must not let win.
    Orphan { commit_seq: u64, segment_generation: u64, version: u64 },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { kind, source } => {
                write!(f, "checkpoint I/O error ({kind:?}): {source}")
            }
            CheckpointError::BadHeader => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::Journal(e) => write!(f, "journal segment error: {e}"),
            CheckpointError::ForeignEntry { dir, name } => write!(
                f,
                "store directory {} contains unrecognized entry {name:?}; \
                 refusing to open (a store directory must hold only gen-* artifacts)",
                dir.display()
            ),
            CheckpointError::Orphan { commit_seq, segment_generation, version } => write!(
                f,
                "snapshot at commit {commit_seq} has no segment while generation \
                 {segment_generation}'s segment holds committed version {version}; treating it \
                 as a failed-rotation orphan"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => {
                Some(source.as_ref() as &(dyn std::error::Error + 'static))
            }
            CheckpointError::Journal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io { kind: e.kind(), source: std::sync::Arc::new(e) }
    }
}

impl From<xic_faults::FaultError> for CheckpointError {
    fn from(e: xic_faults::FaultError) -> Self {
        CheckpointError::Io {
            kind: if e.transient {
                std::io::ErrorKind::Interrupted
            } else {
                std::io::ErrorKind::Other
            },
            source: std::sync::Arc::new(e),
        }
    }
}

impl From<JournalError> for CheckpointError {
    fn from(e: JournalError) -> Self {
        CheckpointError::Journal(e)
    }
}

/// Opens `dir` and syncs it, making freshly created/renamed/unlinked
/// entries durable (the POSIX idiom behind atomic file replacement).
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Writes `ckpt` to `path` atomically: serialize into `<path>.tmp`,
/// fsync it, rename into place, fsync the directory. A crash at any
/// point leaves either no `path` (plus at most a torn, ignored tmp) or a
/// complete, validated `path` — never a partially visible snapshot.
pub fn write_atomic(path: &Path, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
    let tmp = tmp_path(path);
    match write_atomic_inner(path, &tmp, ckpt) {
        Ok(()) => {
            xic_obs::incr(xic_obs::Counter::CheckpointWritten);
            Ok(())
        }
        Err(e) => {
            // Best-effort: don't leave a stale tmp behind a clean error.
            // (After a *crash* the tmp does linger; recovery ignores it
            // and the next rotation overwrites it.)
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

fn write_atomic_inner(path: &Path, tmp: &Path, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
    let doc_bytes = ckpt.doc_xml.as_bytes();
    let mut payload = Vec::with_capacity(CKPT_MIN_LEN + doc_bytes.len());
    payload.extend_from_slice(CKPT_MAGIC);
    payload.extend_from_slice(&ckpt.commit_seq.to_le_bytes());
    payload.extend_from_slice(&(doc_bytes.len() as u32).to_le_bytes());
    payload.extend_from_slice(doc_bytes);
    let crc = crc32(&payload[8..]);
    payload.extend_from_slice(&crc.to_le_bytes());

    let mut file = File::create(tmp)?;
    // Unbuffered, in two halves, exactly like journal records: a crash at
    // the mid site leaves a torn tmp on disk as a power loss would.
    let split = payload.len() / 2;
    file.write_all(&payload[..split])?;
    xic_faults::fire("checkpoint.tmp.mid_write")?;
    file.write_all(&payload[split..])?;
    xic_faults::fire("checkpoint.tmp.pre_fsync")?;
    file.sync_all()?;
    drop(file);
    xic_faults::fire("checkpoint.pre_rename")?;
    std::fs::rename(tmp, path)?;
    xic_faults::fire("checkpoint.pre_dir_fsync")?;
    if let Some(parent) = path.parent() {
        fsync_dir(parent)?;
    }
    Ok(())
}

/// Reads and validates a checkpoint written by [`write_atomic`].
pub fn read(path: &Path) -> Result<Checkpoint, CheckpointError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 8 || &bytes[..8] != CKPT_MAGIC {
        return Err(CheckpointError::BadHeader);
    }
    if bytes.len() < CKPT_MIN_LEN {
        return Err(CheckpointError::Corrupt(format!(
            "file is {} bytes, shorter than the {CKPT_MIN_LEN}-byte minimum",
            bytes.len()
        )));
    }
    let commit_seq = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let doc_len = u32::from_le_bytes(bytes[16..20].try_into().expect("4-byte slice"));
    if doc_len > MAX_DOC_LEN {
        return Err(CheckpointError::Corrupt(format!(
            "implausible document length {doc_len}"
        )));
    }
    let doc_len = doc_len as usize;
    if bytes.len() != 20 + doc_len + 4 {
        return Err(CheckpointError::Corrupt(format!(
            "file is {} bytes but the header promises {}",
            bytes.len(),
            20 + doc_len + 4
        )));
    }
    let stored_crc =
        u32::from_le_bytes(bytes[20 + doc_len..].try_into().expect("4-byte slice"));
    if crc32(&bytes[8..20 + doc_len]) != stored_crc {
        return Err(CheckpointError::Corrupt("checksum mismatch".to_string()));
    }
    let doc_xml = std::str::from_utf8(&bytes[20..20 + doc_len])
        .map_err(|e| CheckpointError::Corrupt(format!("snapshot is not UTF-8: {e}")))?
        .to_string();
    Ok(Checkpoint { commit_seq, doc_xml })
}

fn tmp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    path.with_file_name(format!("{name}.tmp"))
}

/// Generations of (snapshot, journal-segment) pairs a store retains: the
/// live one plus one corruption fallback; older pairs are unlinked on
/// rotation.
pub const DEFAULT_RETAIN: u64 = 2;

/// The generation number in an artifact name `gen-<g><suffix>`.
fn generation_of(name: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix("gen-")?.strip_suffix(suffix)?.parse().ok()
}

/// The entries of `dir`, all of them files the store itself writes — a
/// generation snapshot, a journal segment, or a torn in-progress
/// snapshot. Anything else is refused with
/// [`CheckpointError::ForeignEntry`]: a foreign file means the directory
/// is shared with something else, and neither clearing it nor coexisting
/// with it is safe.
fn artifacts(dir: &Path) -> Result<Vec<String>, CheckpointError> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        let ours = [".ckpt", ".wal", ".ckpt.tmp"];
        if !(name.starts_with("gen-") && ours.iter().any(|suffix| name.ends_with(suffix))) {
            return Err(CheckpointError::ForeignEntry { dir: dir.to_path_buf(), name });
        }
        names.push(name);
    }
    Ok(names)
}

/// A checkpointed store directory: generation-numbered snapshot/segment
/// pairs, the live segment commits are appended to, and the rotation and
/// recovery protocols over them.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    /// The live generation (0 until the first rotation; generation 0 has
    /// no snapshot file — its base document lives outside the store).
    generation: u64,
    /// The live generation's journal segment.
    segment: Journal,
    /// Whether segments fsync per record outside a deferred-sync scope
    /// (checkpoint files are always fsync'd — rotation durability is the
    /// whole point). Fixed when the store is created or recovered.
    sync: bool,
    /// True inside a deferred-sync scope.
    deferred: bool,
}

impl Store {
    /// Creates (or reuses) the store directory and starts generation 0:
    /// a fresh journal segment keyed to `base_crc`, the checksum of the
    /// *external* base document.
    ///
    /// A reused directory is wiped of any previous incarnation's
    /// `gen-*` artifacts first: recovery prefers the newest snapshot on
    /// disk, and a stale pair is internally self-consistent, so leaving
    /// one behind would let a later [`Store::recover`] silently
    /// resurrect the old incarnation's document over this one. A
    /// directory containing anything else is refused
    /// ([`CheckpointError::ForeignEntry`]).
    pub fn create(dir: &Path, base_crc: u32, sync: bool) -> Result<Store, CheckpointError> {
        std::fs::create_dir_all(dir)?;
        for stale in artifacts(dir)? {
            std::fs::remove_file(dir.join(stale))?;
        }
        let segment = Journal::create(&Self::wal_path(dir, 0), base_crc, sync)?;
        fsync_dir(dir)?;
        Ok(Store { dir: dir.to_path_buf(), generation: 0, segment, sync, deferred: false })
    }

    /// The live generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Bytes of valid journal in the live segment.
    pub fn segment_bytes(&self) -> u64 {
        self.segment.byte_len()
    }

    /// Appends one record to the live segment ([`Journal::append`]).
    pub fn append(&mut self, kind: RecordKind, version: u64, stmt: &str) -> Result<(), JournalError> {
        self.segment.append(kind, version, stmt)
    }

    /// Flushes the live segment with one fsync ([`Journal::sync_now`]).
    pub fn sync_now(&mut self) -> Result<(), JournalError> {
        self.segment.sync_now()
    }

    /// Enters (`true`) or leaves (`false`) a deferred-sync scope: inside
    /// it appends are unsynced on whichever segment is live, one rotated
    /// in mid-scope included. Leaving restores the configured mode; it
    /// does not flush — [`Store::sync_now`] does.
    pub fn defer_sync(&mut self, deferred: bool) {
        self.deferred = deferred;
        self.segment.set_sync(self.sync && !deferred);
    }

    /// Path of generation `g`'s snapshot (`g ≥ 1`).
    pub fn ckpt_path(dir: &Path, g: u64) -> PathBuf {
        dir.join(format!("gen-{g}.ckpt"))
    }

    /// Path of generation `g`'s journal segment.
    pub fn wal_path(dir: &Path, g: u64) -> PathBuf {
        dir.join(format!("gen-{g}.wal"))
    }

    /// Snapshot generations present in `dir`, newest first. Generation 0
    /// (the external base document) is always an implicit final fallback
    /// and is not listed.
    pub fn snapshot_generations(dir: &Path) -> Vec<u64> {
        let names = artifacts(dir).unwrap_or_default();
        let mut gens: Vec<u64> = names.iter().filter_map(|n| generation_of(n, ".ckpt")).collect();
        gens.sort_unstable_by(|a, b| b.cmp(a));
        gens
    }

    /// Rotates to a new generation: durably snapshot `doc_xml` (the
    /// document after `commit_seq` committed statements), make a fresh
    /// journal segment keyed to it the live one, and unlink generations
    /// that fell out of the retention window. Returns the new generation.
    ///
    /// On error the store stays on its current generation and the old
    /// (snapshot, journal) pair remains the recoverable one: any partial
    /// artifacts of the failed rotation — in particular a `gen-<g+1>.ckpt`
    /// that already became visible or durable — are unlinked before the
    /// error is reported. Leaving such an orphan behind would be poison:
    /// commits keep going to the *old* segment, so a later crash
    /// would let recovery prefer the orphan snapshot (with an empty
    /// suffix) and silently discard every commit acknowledged after it.
    pub fn rotate(&mut self, commit_seq: u64, doc_xml: &str) -> Result<u64, CheckpointError> {
        let next = self.generation + 1;
        let ckpt = Checkpoint { commit_seq, doc_xml: doc_xml.to_string() };
        let mut segment = match self.rotate_inner(next, &ckpt) {
            Ok(segment) => segment,
            Err(e) => {
                let _ = std::fs::remove_file(Self::ckpt_path(&self.dir, next));
                let _ = std::fs::remove_file(Self::wal_path(&self.dir, next));
                let _ = fsync_dir(&self.dir);
                return Err(e);
            }
        };
        // A rotation inside a deferred-sync scope must not bring
        // fsync-per-record back for the rest of the batch.
        segment.set_sync(self.sync && !self.deferred);
        self.segment = segment;
        self.generation = next;
        xic_obs::incr(xic_obs::Counter::Rotation);
        // Unlink expired generations, best-effort: their presence is
        // harmless (extra fallbacks), their absence never needed — so an
        // injected *error* here leaves the (already complete) rotation
        // intact, while a Panic-mode fault still simulates a crash.
        if xic_faults::fire("rotation.pre_old_unlink").is_ok() {
            for g in (0..next.saturating_sub(DEFAULT_RETAIN - 1)).rev() {
                let _ = std::fs::remove_file(Self::wal_path(&self.dir, g));
                if g > 0 {
                    let _ = std::fs::remove_file(Self::ckpt_path(&self.dir, g));
                }
            }
        }
        Ok(next)
    }

    /// The fallible prefix of a rotation: snapshot write, segment create,
    /// directory fsync. Failure anywhere in here (including after the
    /// snapshot rename) is rolled back by [`Store::rotate`].
    fn rotate_inner(&self, next: u64, ckpt: &Checkpoint) -> Result<Journal, CheckpointError> {
        write_atomic(&Self::ckpt_path(&self.dir, next), ckpt)?;
        // The snapshot is durable: from here on recovery prefers it even
        // if the segment is missing (checkpoint + empty suffix).
        xic_faults::fire("rotation.pre_new_segment")?;
        let journal =
            Journal::create(&Self::wal_path(&self.dir, next), ckpt.doc_crc(), self.sync)?;
        fsync_dir(&self.dir)?;
        Ok(journal)
    }

    /// Recovers the store in `dir`, to resume in the `sync` mode given
    /// (recovery itself always fsyncs what it writes). Generations are
    /// tried newest snapshot first, generation 0 — the external base
    /// document — last. Each one whose snapshot validates is offered to
    /// `replay`, which rebuilds the base, opens the segment keyed to it
    /// ([`Candidate::open_segment`]) and replays the records, or says why
    /// the generation cannot be used. The first one accepted wins.
    ///
    /// A directory with a foreign entry is refused as by
    /// [`Store::create`]; a missing or unreadable one holds no generation.
    pub fn recover<T>(
        dir: &Path,
        sync: bool,
        mut replay: impl FnMut(&mut Candidate<'_>) -> Result<T, String>,
    ) -> Result<Recovery<T>, CheckpointError> {
        if let Err(e @ CheckpointError::ForeignEntry { .. }) = artifacts(dir) {
            return Err(e);
        }
        let mut generations = Self::snapshot_generations(dir);
        generations.push(0);
        let mut rejected = Vec::new();
        for generation in generations {
            let mut candidate = Candidate { generation, snapshot: None, dir, sync, segment: None };
            let outcome = candidate.read_snapshot().and_then(|()| replay(&mut candidate));
            match (outcome, candidate.segment) {
                (Ok(value), Some(mut segment)) => {
                    segment.set_sync(sync);
                    let dir = dir.to_path_buf();
                    let store = Store { dir, generation, segment, sync, deferred: false };
                    return Ok(Recovery { resumed: Some((store, value)), rejected });
                }
                (outcome, _) => {
                    xic_obs::incr(xic_obs::Counter::RecoveryGenerationFallback);
                    let reason = outcome.err().unwrap_or_else(|| "segment never opened".to_string());
                    rejected.push(format!("generation {generation}: {reason}"));
                }
            }
        }
        Ok(Recovery { resumed: None, rejected })
    }
}

/// What [`Store::recover`] found.
#[derive(Debug)]
pub struct Recovery<T> {
    /// The store resumed on the winning generation, with `replay`'s value
    /// for it; `None` if every generation was rejected.
    pub resumed: Option<(Store, T)>,
    /// Why each rejected generation was rejected, newest first.
    pub rejected: Vec<String>,
}

/// One generation [`Store::recover`] offers for replay.
#[derive(Debug)]
pub struct Candidate<'a> {
    /// The generation number (0 = the external base document).
    pub generation: u64,
    /// The validated snapshot to rebuild the base from; `None` for
    /// generation 0, whose base the caller holds.
    pub snapshot: Option<Checkpoint>,
    dir: &'a Path,
    sync: bool,
    segment: Option<Journal>,
}

impl Candidate<'_> {
    fn read_snapshot(&mut self) -> Result<(), String> {
        if self.generation > 0 {
            let ckpt = read(&Store::ckpt_path(self.dir, self.generation));
            self.snapshot = Some(ckpt.map_err(|e| e.to_string())?);
        }
        Ok(())
    }

    /// Opens the generation's segment, which must be keyed to `base_crc`
    /// — the checksum of the base as the caller serializes it — and
    /// returns its records and whether a torn tail was truncated.
    ///
    /// A snapshot whose segment is missing is what a crash between the
    /// snapshot's directory fsync and the segment create leaves: durable
    /// with an empty suffix, so the segment is started now. But a
    /// *failed* rotation whose orphan unlink did not stick leaves the
    /// same shape while commits kept flowing to the old segment, and
    /// accepting the snapshot then would silently discard them — so the
    /// older segments are cross-checked first
    /// ([`CheckpointError::Orphan`]).
    pub fn open_segment(
        &mut self,
        base_crc: u32,
    ) -> Result<(Vec<JournalRecord>, bool), CheckpointError> {
        let wal = Store::wal_path(self.dir, self.generation);
        let missing = self.snapshot.as_ref().filter(|_| !wal.exists());
        let Some(commit_seq) = missing.map(|ckpt| ckpt.commit_seq) else {
            let recovered = Journal::recover(&wal, Some(base_crc))?;
            self.segment = Some(recovered.journal);
            return Ok((recovered.records, recovered.torn));
        };
        for name in artifacts(self.dir).unwrap_or_default() {
            let Some(g) = generation_of(&name, ".wal").filter(|&g| g < self.generation) else {
                continue;
            };
            // Versions matter here, not the base, so no crc is expected;
            // an unreadable segment proves nothing (its own candidate
            // will surface the problem).
            let Ok(older) = Journal::recover(&Store::wal_path(self.dir, g), None) else { continue };
            let commits = older.records.iter().filter(|r| r.kind == RecordKind::Commit);
            if let Some(version) = commits.map(|r| r.version).max().filter(|&v| v > commit_seq) {
                return Err(CheckpointError::Orphan { commit_seq, segment_generation: g, version });
            }
        }
        self.segment = Some(Journal::create(&wal, base_crc, self.sync)?);
        // Rotation step 5's directory fsync: without it an OS crash could
        // drop the fresh segment's name — and every commit appended to it
        // — while the snapshot survives, re-entering this path.
        fsync_dir(self.dir)?;
        Ok((Vec::new(), false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "xic-ckpt-{}-{tag}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn cleanup(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn checkpoint_round_trips() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("gen-1.ckpt");
        let ckpt = Checkpoint { commit_seq: 42, doc_xml: "<db><x>é</x></db>".to_string() };
        write_atomic(&path, &ckpt).expect("write");
        assert!(!tmp_path(&path).exists(), "tmp must be renamed away");
        let back = read(&path).expect("read");
        assert_eq!(back, ckpt);
        assert_eq!(back.doc_crc(), crc32("<db><x>é</x></db>".as_bytes()));
        cleanup(&dir);
    }

    #[test]
    fn corrupt_checkpoints_are_detected_at_every_cut_and_flip() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("gen-1.ckpt");
        let ckpt = Checkpoint { commit_seq: 7, doc_xml: "<db/>".to_string() };
        write_atomic(&path, &ckpt).expect("write");
        let bytes = std::fs::read(&path).expect("read");

        // Truncation at every length (torn tmp renamed by a buggy caller,
        // or on-disk corruption): must never yield a snapshot.
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).expect("write cut");
            assert!(read(&path).is_err(), "cut at {cut} must not validate");
        }
        // A flipped bit anywhere after the magic fails the checksum.
        for byte in [8, 12, 20, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 0x01;
            std::fs::write(&path, &flipped).expect("write flip");
            let err = read(&path).expect_err("flip must not validate");
            assert!(matches!(err, CheckpointError::Corrupt(_)), "byte {byte}: {err}");
        }
        // Wrong magic is BadHeader, not Corrupt.
        std::fs::write(&path, b"XICJRNL1rest").expect("write");
        assert!(matches!(read(&path), Err(CheckpointError::BadHeader)));
        cleanup(&dir);
    }

    #[test]
    fn rotation_starts_a_segment_keyed_to_the_snapshot() {
        let dir = tmp_dir("rotate");
        let mut store = Store::create(&dir, 111, false).expect("create");
        assert_eq!(store.generation(), 0);
        store.append(RecordKind::Commit, 1, "one").expect("append");

        assert_eq!(store.rotate(1, "<db><after-one/></db>").expect("rotate"), 1);
        assert_eq!(store.generation(), 1);
        store.append(RecordKind::Commit, 2, "two").expect("append");
        drop(store);

        assert_eq!(Store::snapshot_generations(&dir), vec![1]);
        let snap = read(&Store::ckpt_path(&dir, 1)).expect("snapshot");
        assert_eq!(snap.commit_seq, 1);
        let rec = Journal::recover(&Store::wal_path(&dir, 1), Some(snap.doc_crc()))
            .expect("segment keyed to snapshot");
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].version, 2);
        // The default retention (2) keeps generation 0 as a fallback.
        assert!(Store::wal_path(&dir, 0).exists());
        cleanup(&dir);
    }

    #[test]
    fn retention_unlinks_expired_generations() {
        let dir = tmp_dir("retain");
        let mut store = Store::create(&dir, 0, false).expect("create");
        for g in 1..=3u64 {
            store.rotate(g, &format!("<db><g{g}/></db>")).expect("rotate");
        }
        // retain = 2: generations 3 (live) and 2 (fallback) survive.
        assert_eq!(Store::snapshot_generations(&dir), vec![3, 2]);
        assert!(!Store::wal_path(&dir, 0).exists());
        assert!(!Store::ckpt_path(&dir, 1).exists());
        assert!(!Store::wal_path(&dir, 1).exists());
        assert!(Store::wal_path(&dir, 2).exists());
        assert!(Store::wal_path(&dir, 3).exists());
        cleanup(&dir);
    }

    #[test]
    fn create_clears_stale_generations_from_a_reused_directory() {
        let dir = tmp_dir("stale");
        let mut store = Store::create(&dir, 1, false).expect("create");
        store.rotate(5, "<db><old-incarnation/></db>").expect("rotate");
        std::fs::write(dir.join("gen-9.ckpt.tmp"), b"torn").expect("tmp");
        assert_eq!(Store::snapshot_generations(&dir), vec![1]);

        // Re-creating the store on the same directory is a new
        // incarnation: the stale (self-consistent!) generation-1 pair
        // must not survive to win a later recovery.
        let store2 = Store::create(&dir, 2, false).expect("re-create");
        assert_eq!(store2.generation(), 0);
        assert!(Store::snapshot_generations(&dir).is_empty());
        assert!(!Store::wal_path(&dir, 1).exists());
        assert!(!dir.join("gen-9.ckpt.tmp").exists());
        assert!(Store::wal_path(&dir, 0).exists());
        cleanup(&dir);
    }

    #[test]
    fn create_refuses_a_directory_with_foreign_entries() {
        let dir = tmp_dir("foreign");
        std::fs::write(dir.join("notes.txt"), b"not ours").expect("write");
        let err = Store::create(&dir, 1, false).expect_err("foreign entry");
        match &err {
            CheckpointError::ForeignEntry { dir: d, name } => {
                assert_eq!(d, &dir);
                assert_eq!(name, "notes.txt");
            }
            other => panic!("expected ForeignEntry, got {other}"),
        }
        assert!(err.to_string().contains("notes.txt"), "error names the offender");
        // Nothing was cleared or created: the refusal is a clean no-op.
        assert!(dir.join("notes.txt").exists());
        assert!(!Store::wal_path(&dir, 0).exists());
        // Recovery applies the same rule before it opens anything.
        let refused = Store::recover(&dir, false, |_| -> Result<(), String> {
            panic!("no candidate may be offered in a shared directory")
        });
        assert!(matches!(refused, Err(CheckpointError::ForeignEntry { .. })));
        // Subdirectories are foreign too (a nested store is not ours).
        std::fs::remove_file(dir.join("notes.txt")).expect("rm");
        std::fs::create_dir(dir.join("shard-0")).expect("mkdir");
        assert!(matches!(
            Store::create(&dir, 1, false),
            Err(CheckpointError::ForeignEntry { .. })
        ));
        cleanup(&dir);
    }

    /// The caller's half of recovery with no document behind it: the
    /// base checksum is the snapshot text's (7 for generation 0) and
    /// every record is accepted.
    fn open_only(c: &mut Candidate<'_>) -> Result<(Vec<JournalRecord>, bool), String> {
        let crc = c.snapshot.as_ref().map_or(7, Checkpoint::doc_crc);
        c.open_segment(crc).map_err(|e| e.to_string())
    }

    #[test]
    fn recover_starts_a_missing_segment_and_makes_it_durable() {
        // Crash between rotation steps 4 and 5: gen-1.ckpt is durable,
        // gen-1.wal was never created.
        let dir = tmp_dir("nosegment");
        let mut store = Store::create(&dir, 7, true).expect("create");
        store.append(RecordKind::Commit, 1, "one").expect("append");
        store.rotate(1, "<db><one/></db>").expect("rotate");
        drop(store);
        std::fs::remove_file(Store::wal_path(&dir, 1)).expect("rm segment");

        let fsyncs = || xic_obs::snapshot().counter(xic_obs::Counter::JournalFsync);
        let before = fsyncs();
        let Recovery { resumed, rejected } = Store::recover(&dir, true, open_only).expect("recover");
        let (mut store, (records, torn)) = resumed.expect("the snapshot wins");
        assert!(rejected.is_empty(), "{rejected:?}");
        assert_eq!(store.generation(), 1);
        assert!(records.is_empty() && !torn, "empty suffix");
        assert!(Store::wal_path(&dir, 1).exists(), "recovery must start the segment");
        assert_eq!(fsyncs() - before, 1, "the fresh segment's header is fsync'd");
        // The segment is keyed to the snapshot and live.
        store.append(RecordKind::Commit, 2, "two").expect("append");
        drop(store);
        let snap = read(&Store::ckpt_path(&dir, 1)).expect("snapshot");
        let rec = Journal::recover(&Store::wal_path(&dir, 1), Some(snap.doc_crc())).expect("keyed");
        assert_eq!(rec.records.len(), 1);
        cleanup(&dir);
    }

    #[test]
    fn recover_rejects_an_orphan_snapshot_naming_generation_and_version() {
        // A failed rotation whose orphan unlink did not stick: gen-1.ckpt
        // at commit 1 with no segment, while gen-0.wal went on to commit 3.
        let dir = tmp_dir("orphanrec");
        let mut store = Store::create(&dir, 7, true).expect("create");
        for v in 1..=3 {
            store.append(RecordKind::Commit, v, "stmt").expect("append");
        }
        drop(store);
        let orphan = Checkpoint { commit_seq: 1, doc_xml: "<db><one/></db>".to_string() };
        write_atomic(&Store::ckpt_path(&dir, 1), &orphan).expect("plant orphan");

        let Recovery { resumed, rejected } = Store::recover(&dir, true, open_only).expect("recover");
        let (store, (records, _)) = resumed.expect("generation 0 wins");
        assert_eq!(store.generation(), 0, "the orphan must not win");
        assert_eq!(records.len(), 3);
        assert_eq!(rejected.len(), 1);
        assert!(rejected[0].starts_with("generation 1: snapshot at commit 1"), "{rejected:?}");
        assert!(rejected[0].contains("generation 0's segment holds committed version 3"));
        assert!(!Store::wal_path(&dir, 1).exists(), "a rejected orphan gets no segment");
        cleanup(&dir);
    }

    #[test]
    fn failed_rotation_unlinks_its_orphan_snapshot() {
        // An error *after* the snapshot became durable (segment create)
        // or visible (dir fsync) must not leave gen-1.ckpt behind: the
        // store stays on generation 0 and keeps committing to gen-0.wal,
        // so an orphan snapshot would later win recovery and discard
        // those commits.
        for site in ["rotation.pre_new_segment", "checkpoint.pre_dir_fsync"] {
            let dir = tmp_dir("orphan");
            let mut store = Store::create(&dir, 5, false).expect("create");
            xic_faults::disarm_all();
            xic_faults::arm(site, 1, xic_faults::FaultMode::Error);
            let err = store.rotate(1, "<db><orphan/></db>").expect_err("injected");
            xic_faults::disarm_all();
            assert!(matches!(err, CheckpointError::Io { .. }), "{site}: {err}");
            assert_eq!(store.generation(), 0, "{site}: failed rotation must not advance");
            assert!(
                Store::snapshot_generations(&dir).is_empty(),
                "{site}: orphan snapshot left behind"
            );
            assert!(!Store::wal_path(&dir, 1).exists(), "{site}: orphan segment left behind");
            assert!(Store::wal_path(&dir, 0).exists(), "{site}: old pair must survive");
            cleanup(&dir);
        }
    }

    #[test]
    fn old_unlink_error_leaves_the_rotation_complete() {
        // rotation.pre_old_unlink guards a best-effort step: an injected
        // error there must not fail the (already durable) rotation.
        let dir = tmp_dir("unlinkerr");
        let mut store = Store::create(&dir, 0, false).expect("create");
        store.rotate(1, "<db><one/></db>").expect("first rotation");
        // The second rotation is the first to expire a generation (0).
        xic_faults::disarm_all();
        xic_faults::arm("rotation.pre_old_unlink", 1, xic_faults::FaultMode::Error);
        store.rotate(2, "<db><kept/></db>").expect("rotation still succeeds");
        xic_faults::disarm_all();
        assert_eq!(store.generation(), 2);
        // The unlink was skipped, so the expired generation 0 survives
        // as an extra (harmless) fallback.
        assert!(Store::wal_path(&dir, 0).exists());
        cleanup(&dir);
    }

    #[test]
    fn torn_tmp_write_leaves_old_generation_intact() {
        let dir = tmp_dir("torntmp");
        let mut store = Store::create(&dir, 5, false).expect("create");
        xic_faults::disarm_all();
        xic_faults::arm("checkpoint.tmp.mid_write", 1, xic_faults::FaultMode::Error);
        let err = store.rotate(1, "<db><victim/></db>").expect_err("injected");
        xic_faults::disarm_all();
        assert!(matches!(err, CheckpointError::Io { .. }), "{err}");
        assert_eq!(store.generation(), 0, "failed rotation must not advance");
        assert!(Store::snapshot_generations(&dir).is_empty());
        assert!(Store::wal_path(&dir, 0).exists(), "old pair must survive");
        // The next rotation succeeds and overwrites any tmp remnants.
        store.rotate(1, "<db><victim/></db>").expect("retry rotation");
        assert_eq!(Store::snapshot_generations(&dir), vec![1]);
        cleanup(&dir);
    }
}
