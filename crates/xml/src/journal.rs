//! Append-only write-ahead journal for update statements.
//!
//! The checker appends one record per *decided* update — a
//! [`RecordKind::Commit`] after a statement is applied and found legal
//! (fsync'd before the verdict is returned to the caller), or a
//! [`RecordKind::Abort`] documenting a batch that failed partway through
//! apply and was rolled back. After a crash, recovery replays the
//! committed prefix of the journal onto the base document; torn or corrupt
//! tails (a crash mid-append) are detected by length/checksum validation
//! and truncated.
//!
//! # On-disk format
//!
//! ```text
//! header  := magic "XICJRNL1" (8 bytes) | base_crc u32 LE
//! record  := len u32 LE | body | crc u32 LE      (crc over body)
//! body    := kind u8 (1 = commit, 2 = abort) | version u64 LE | stmt UTF-8
//! ```
//!
//! `base_crc` is the CRC-32 of the base document's serialization at
//! journal creation; recovery refuses to replay onto a document that does
//! not match it (e.g. a snapshot newer than the journal head). `version`
//! is the committed-statement sequence number (1-based); commit records
//! must carry consecutive versions, which recovery validates. All writes
//! go through unbuffered `write_all`, so an in-process panic leaves the
//! file byte-identical to a hard crash at the same point.
//!
//! Fault sites (see `xic-faults`): `journal.append.pre` before any byte is
//! written, `journal.append.mid` with the record half-written (the torn
//! case), `journal.append.post_write` after the record bytes, and
//! `journal.append.post_fsync` after the record is durable.
//!
//! I/O failures preserve their [`std::io::ErrorKind`] (and the original
//! error as `Error::source()`); *transient* failures (`Interrupted`) of
//! an append or its fsync are retried up to [`MAX_APPEND_ATTEMPTS`] times
//! — rewinding to the record boundary between attempts — before the
//! error surfaces. For checkpointing and segment rotation on top of this
//! journal, see the [`checkpoint`](crate::checkpoint) module.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic, bumped if the record layout ever changes.
pub const MAGIC: &[u8; 8] = b"XICJRNL1";

const HEADER_LEN: u64 = 12;
/// Upper bound on a single record body; anything larger is treated as a
/// corrupt length prefix (and therefore a truncation point).
const MAX_BODY_LEN: u32 = 1 << 28;
/// Total attempts [`Journal::append`] makes when the write or fsync
/// fails with a transient (`Interrupted`) error.
pub const MAX_APPEND_ATTEMPTS: u32 = 3;

/// What a journal record witnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// The statement was applied and the document passed its checks; the
    /// in-memory state the record describes is the durable one.
    Commit,
    /// The statement failed partway through apply; the already-applied
    /// prefix was rolled back and the document is unchanged. Replay skips
    /// these — they exist to make the failure visible post-mortem.
    Abort,
}

impl RecordKind {
    fn tag(self) -> u8 {
        match self {
            RecordKind::Commit => 1,
            RecordKind::Abort => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<RecordKind> {
        match tag {
            1 => Some(RecordKind::Commit),
            2 => Some(RecordKind::Abort),
            _ => None,
        }
    }
}

/// A decoded journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    pub kind: RecordKind,
    /// Committed-statement sequence number: for a commit, the number of
    /// committed statements *including* this one; for an abort, the
    /// version the statement would have committed as.
    pub version: u64,
    /// The XUpdate statement text, verbatim.
    pub stmt: String,
}

/// Errors from journal creation, append, or recovery scanning.
#[derive(Debug, Clone)]
pub enum JournalError {
    /// An underlying I/O failure (including injected ones). The
    /// [`std::io::ErrorKind`] is preserved so recovery policy can tell a
    /// transient failure (`Interrupted` — worth retrying) from a permanent
    /// one; the original error is kept as the [`std::error::Error::source`].
    Io {
        /// The underlying error's kind (`ErrorKind::Other` for injected
        /// permanent faults).
        kind: std::io::ErrorKind,
        /// The underlying error, preserved for `Error::source()`.
        source: std::sync::Arc<dyn std::error::Error + Send + Sync>,
    },
    /// The file exists but does not start with the journal magic.
    BadHeader,
    /// The base-document checksum in the header does not match the
    /// document recovery was asked to replay onto.
    BaseMismatch { journal: u32, document: u32 },
}

impl JournalError {
    /// True for failures a bounded retry may absorb (`Interrupted`).
    pub fn is_transient(&self) -> bool {
        matches!(self, JournalError::Io { kind: std::io::ErrorKind::Interrupted, .. })
    }

    /// The underlying [`std::io::ErrorKind`] for I/O failures.
    pub fn io_kind(&self) -> Option<std::io::ErrorKind> {
        match self {
            JournalError::Io { kind, .. } => Some(*kind),
            _ => None,
        }
    }
}

impl PartialEq for JournalError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                JournalError::Io { kind: a, source: sa },
                JournalError::Io { kind: b, source: sb },
            ) => a == b && sa.to_string() == sb.to_string(),
            (JournalError::BadHeader, JournalError::BadHeader) => true,
            (
                JournalError::BaseMismatch { journal: a, document: b },
                JournalError::BaseMismatch { journal: c, document: d },
            ) => a == c && b == d,
            _ => false,
        }
    }
}

impl Eq for JournalError {}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { kind, source } => {
                write!(f, "journal I/O error ({kind:?}): {source}")
            }
            JournalError::BadHeader => write!(f, "not a journal file (bad magic)"),
            JournalError::BaseMismatch { journal, document } => write!(
                f,
                "journal base checksum {journal:#010x} does not match document {document:#010x} \
                 (snapshot and journal are out of step)"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => {
                Some(source.as_ref() as &(dyn std::error::Error + 'static))
            }
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io { kind: e.kind(), source: std::sync::Arc::new(e) }
    }
}

impl From<xic_faults::FaultError> for JournalError {
    fn from(e: xic_faults::FaultError) -> Self {
        JournalError::Io {
            kind: if e.transient {
                std::io::ErrorKind::Interrupted
            } else {
                std::io::ErrorKind::Other
            },
            source: std::sync::Arc::new(e),
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`. Used both for record
/// checksums and for the base-document checksum in the header.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// An open journal positioned for appending.
#[derive(Debug)]
pub struct Journal {
    file: File,
    sync: bool,
    /// Length of the valid prefix. Appends that fail are rewound to this
    /// offset so an injected I/O error cannot leave garbage between
    /// records.
    committed_len: u64,
    /// Set when a failed append could not be rewound; all further appends
    /// are refused to avoid interleaving records with garbage.
    broken: bool,
}

/// The result of [`Journal::recover`]: the decoded records, whether a torn
/// tail was truncated, and the journal reopened for appending.
#[derive(Debug)]
pub struct Recovered {
    pub journal: Journal,
    pub records: Vec<JournalRecord>,
    /// True if a torn or corrupt tail was found (and truncated).
    pub torn: bool,
    /// The base-document checksum from the header.
    pub base_crc: u32,
}

impl Journal {
    /// Create (truncating) a journal for a document whose serialization
    /// has checksum `base_crc`.
    pub fn create(path: &Path, base_crc: u32, sync: bool) -> Result<Journal, JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut header = [0u8; HEADER_LEN as usize];
        header[..8].copy_from_slice(MAGIC);
        header[8..].copy_from_slice(&base_crc.to_le_bytes());
        file.write_all(&header)?;
        if sync {
            file.sync_data()?;
            xic_obs::incr(xic_obs::Counter::JournalFsync);
        }
        Ok(Journal { file, sync, committed_len: HEADER_LEN, broken: false })
    }

    /// Bytes of valid journal on disk (header plus every durable record)
    /// — the size the rotation policy measures growth against.
    pub fn byte_len(&self) -> u64 {
        self.committed_len
    }

    /// Enable or disable fsync-per-append (the durability/throughput knob
    /// the suite's `journal.sync_us` prices). The [`Store`] that owns the
    /// segment is the one caller: it defers the mode for the length of a
    /// group-commit batch.
    ///
    /// [`Store`]: crate::checkpoint::Store
    pub fn set_sync(&mut self, sync: bool) {
        self.sync = sync;
    }

    /// Flush every appended record to stable storage with one fsync,
    /// regardless of the per-append sync mode. This is the group-commit
    /// primitive (DESIGN.md row 19): a batch of appends runs unsynced,
    /// then one `sync_now` makes the whole batch durable before any of
    /// its submitters is acknowledged.
    ///
    /// A *transient* (`Interrupted`-class) failure is retried in place up
    /// to [`MAX_APPEND_ATTEMPTS`] times — the same bounded-retry policy
    /// as [`Journal::append`] — before being reported; permanent failures
    /// surface immediately so the service can run its own backoff and
    /// degrade if the journal stays unwritable.
    pub fn sync_now(&mut self) -> Result<(), JournalError> {
        let mut attempt = 1;
        loop {
            match self.sync_now_inner() {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt < MAX_APPEND_ATTEMPTS => {
                    attempt += 1;
                    xic_obs::incr(xic_obs::Counter::JournalRetry);
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn sync_now_inner(&mut self) -> Result<(), JournalError> {
        xic_faults::fire("journal.sync")?;
        self.file.sync_data()?;
        xic_obs::incr(xic_obs::Counter::JournalFsync);
        Ok(())
    }

    /// Append one record; with sync enabled the record is durable when
    /// this returns. On failure the journal is rewound to the previous
    /// record boundary, so the on-disk prefix stays valid. A *transient*
    /// failure (`Interrupted`, from the write or the fsync) is retried —
    /// after rewinding — up to [`MAX_APPEND_ATTEMPTS`] times before being
    /// reported; each retry increments the `journal_retries` counter.
    pub fn append(&mut self, kind: RecordKind, version: u64, stmt: &str) -> Result<(), JournalError> {
        if self.broken {
            return Err(JournalError::from(std::io::Error::other(
                "journal is broken (a failed append could not be rewound)",
            )));
        }
        let mut attempt = 1;
        loop {
            match self.append_inner(kind, version, stmt) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    // Best-effort rewind to the last record boundary, so a
                    // failed (or half-written) attempt leaves no garbage
                    // between records — and so a retry starts clean.
                    let rewound = self.file.set_len(self.committed_len).is_ok()
                        && self.file.seek(SeekFrom::Start(self.committed_len)).is_ok();
                    if !rewound {
                        self.broken = true;
                        return Err(e);
                    }
                    if e.is_transient() && attempt < MAX_APPEND_ATTEMPTS {
                        attempt += 1;
                        xic_obs::incr(xic_obs::Counter::JournalRetry);
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }

    fn append_inner(&mut self, kind: RecordKind, version: u64, stmt: &str) -> Result<(), JournalError> {
        xic_faults::fire("journal.append.pre")?;
        let stmt_bytes = stmt.as_bytes();
        let mut body = Vec::with_capacity(9 + stmt_bytes.len());
        body.push(kind.tag());
        body.extend_from_slice(&version.to_le_bytes());
        body.extend_from_slice(stmt_bytes);
        let mut buf = Vec::with_capacity(8 + body.len());
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        // Deliberately unbuffered, in two halves: a crash at the `mid`
        // site leaves a torn record on disk exactly as a power loss would.
        let split = buf.len() / 2;
        self.file.write_all(&buf[..split])?;
        xic_faults::fire("journal.append.mid")?;
        self.file.write_all(&buf[split..])?;
        xic_faults::fire("journal.append.post_write")?;
        if self.sync {
            self.file.sync_data()?;
            xic_obs::incr(xic_obs::Counter::JournalFsync);
        }
        xic_faults::fire("journal.append.post_fsync")?;
        self.committed_len += buf.len() as u64;
        xic_obs::incr(xic_obs::Counter::JournalAppend);
        Ok(())
    }

    /// Scan a journal after a (real or simulated) crash: decode the valid
    /// record prefix, truncate any torn or corrupt tail, and reopen the
    /// file for appending. If `expect_base_crc` is given, the header's
    /// base checksum must match it.
    pub fn recover(path: &Path, expect_base_crc: Option<u32>) -> Result<Recovered, JournalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        // Shorter than a header: a crash before the header finished. Only
        // an empty (or torn-header) journal can look like this, so rebuild
        // the header in place — there are no records to lose.
        if bytes.len() < HEADER_LEN as usize {
            let base_crc = expect_base_crc.unwrap_or(0);
            drop(file);
            let journal = Journal::create(path, base_crc, true)?;
            return Ok(Recovered { journal, records: Vec::new(), torn: !bytes.is_empty(), base_crc });
        }
        if &bytes[..8] != MAGIC {
            return Err(JournalError::BadHeader);
        }
        let base_crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
        if let Some(expected) = expect_base_crc {
            if expected != base_crc {
                return Err(JournalError::BaseMismatch { journal: base_crc, document: expected });
            }
        }

        let mut records = Vec::new();
        let mut off = HEADER_LEN as usize;
        let mut torn = false;
        while off < bytes.len() {
            match decode_record(&bytes[off..]) {
                Some((rec, consumed)) => {
                    records.push(rec);
                    off += consumed;
                }
                None => {
                    // Torn or corrupt from here on: truncate the tail.
                    torn = true;
                    break;
                }
            }
        }
        if torn || off < bytes.len() {
            file.set_len(off as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(off as u64))?;
        Ok(Recovered {
            journal: Journal { file, sync: true, committed_len: off as u64, broken: false },
            records,
            torn,
            base_crc,
        })
    }
}

/// Decode one record from the front of `bytes`; `None` means torn or
/// corrupt (not enough bytes, bad length, bad checksum, bad kind tag, or
/// non-UTF-8 statement text).
fn decode_record(bytes: &[u8]) -> Option<(JournalRecord, usize)> {
    if bytes.len() < 4 {
        return None;
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4-byte slice"));
    if !(9..=MAX_BODY_LEN).contains(&len) {
        return None;
    }
    let len = len as usize;
    if bytes.len() < 4 + len + 4 {
        return None;
    }
    let body = &bytes[4..4 + len];
    let stored_crc = u32::from_le_bytes(bytes[4 + len..4 + len + 4].try_into().expect("4-byte slice"));
    if crc32(body) != stored_crc {
        return None;
    }
    let kind = RecordKind::from_tag(body[0])?;
    let version = u64::from_le_bytes(body[1..9].try_into().expect("8-byte slice"));
    let stmt = std::str::from_utf8(&body[9..]).ok()?.to_string();
    Some((JournalRecord { kind, version, stmt }, 4 + len + 4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    // Tests that arm faults share the process-global registry; serialize
    // them so one test's disarm_all cannot eat another's armed fault.
    static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn fault_serial() -> std::sync::MutexGuard<'static, ()> {
        FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "xic-journal-{}-{}-{}.wal",
            std::process::id(),
            tag,
            n
        ))
    }

    fn cleanup(p: &Path) {
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn round_trip_commit_and_abort() {
        let p = tmp_path("roundtrip");
        let mut j = Journal::create(&p, 0xDEAD_BEEF, false).expect("create");
        j.append(RecordKind::Commit, 1, "<xupdate:modifications/>").expect("append");
        j.append(RecordKind::Abort, 2, "<bad/>").expect("append");
        j.append(RecordKind::Commit, 2, "<xupdate:modifications>x</xupdate:modifications>")
            .expect("append");
        drop(j);
        let rec = Journal::recover(&p, Some(0xDEAD_BEEF)).expect("recover");
        assert!(!rec.torn);
        assert_eq!(rec.base_crc, 0xDEAD_BEEF);
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.records[0].kind, RecordKind::Commit);
        assert_eq!(rec.records[0].version, 1);
        assert_eq!(rec.records[0].stmt, "<xupdate:modifications/>");
        assert_eq!(rec.records[1].kind, RecordKind::Abort);
        assert_eq!(rec.records[2].version, 2);
        cleanup(&p);
    }

    #[test]
    fn base_crc_mismatch_is_detected() {
        let p = tmp_path("basecrc");
        let j = Journal::create(&p, 7, false).expect("create");
        drop(j);
        let err = Journal::recover(&p, Some(8)).expect_err("mismatch");
        assert_eq!(err, JournalError::BaseMismatch { journal: 7, document: 8 });
        // Without an expectation the journal still opens.
        assert!(Journal::recover(&p, None).is_ok());
        cleanup(&p);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        // Build a journal with 2 records, then truncate the file at every
        // byte length between "after record 1" and "full": recovery must
        // always yield exactly record 1 and report a torn tail.
        let p = tmp_path("torn");
        let mut j = Journal::create(&p, 1, false).expect("create");
        j.append(RecordKind::Commit, 1, "first statement").expect("append");
        let after_first = j.committed_len;
        j.append(RecordKind::Commit, 2, "second statement").expect("append");
        let full = j.committed_len;
        drop(j);
        let bytes = std::fs::read(&p).expect("read");
        for cut in after_first + 1..full {
            std::fs::write(&p, &bytes[..cut as usize]).expect("write cut");
            let rec = Journal::recover(&p, Some(1)).expect("recover");
            assert!(rec.torn, "cut at {cut} not reported torn");
            assert_eq!(rec.records.len(), 1, "cut at {cut}");
            assert_eq!(rec.records[0].stmt, "first statement");
            // The tail must actually be gone from disk.
            drop(rec);
            assert_eq!(std::fs::metadata(&p).expect("meta").len(), after_first);
        }
        cleanup(&p);
    }

    #[test]
    fn corrupt_checksum_truncates() {
        let p = tmp_path("crc");
        let mut j = Journal::create(&p, 1, false).expect("create");
        j.append(RecordKind::Commit, 1, "good").expect("append");
        let boundary = j.committed_len;
        j.append(RecordKind::Commit, 2, "flipped").expect("append");
        drop(j);
        let mut bytes = std::fs::read(&p).expect("read");
        let n = bytes.len();
        bytes[n - 5] ^= 0x40; // flip a bit inside record 2's body
        std::fs::write(&p, &bytes).expect("write");
        let rec = Journal::recover(&p, Some(1)).expect("recover");
        assert!(rec.torn);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(std::fs::metadata(&p).expect("meta").len(), boundary);
        cleanup(&p);
    }

    #[test]
    fn append_resumes_after_recovery() {
        let p = tmp_path("resume");
        let mut j = Journal::create(&p, 1, false).expect("create");
        j.append(RecordKind::Commit, 1, "one").expect("append");
        drop(j);
        let mut rec = Journal::recover(&p, Some(1)).expect("recover");
        rec.journal.set_sync(false);
        rec.journal.append(RecordKind::Commit, 2, "two").expect("append");
        drop(rec);
        let rec = Journal::recover(&p, Some(1)).expect("recover");
        assert_eq!(
            rec.records.iter().map(|r| r.stmt.as_str()).collect::<Vec<_>>(),
            vec!["one", "two"]
        );
        cleanup(&p);
    }

    #[test]
    fn empty_or_headerless_file_recovers_to_zero_records() {
        let p = tmp_path("empty");
        std::fs::write(&p, b"").expect("write");
        let rec = Journal::recover(&p, Some(42)).expect("recover");
        assert!(!rec.torn);
        assert!(rec.records.is_empty());
        drop(rec);
        // The header was rebuilt, so a second recovery agrees.
        let rec = Journal::recover(&p, Some(42)).expect("recover");
        assert_eq!(rec.base_crc, 42);
        cleanup(&p);

        // A torn header (crash during create) is also recoverable.
        let p2 = tmp_path("tornheader");
        std::fs::write(&p2, b"XICJ").expect("write");
        let rec = Journal::recover(&p2, Some(9)).expect("recover");
        assert!(rec.torn);
        assert!(rec.records.is_empty());
        cleanup(&p2);
    }

    #[test]
    fn non_journal_file_is_rejected() {
        let p = tmp_path("badmagic");
        std::fs::write(&p, b"<?xml version=\"1.0\"?><doc/>").expect("write");
        assert_eq!(Journal::recover(&p, None).expect_err("bad magic"), JournalError::BadHeader);
        cleanup(&p);
    }

    #[test]
    fn injected_append_error_rewinds_to_record_boundary() {
        let _g = fault_serial();
        let p = tmp_path("rewind");
        let mut j = Journal::create(&p, 1, false).expect("create");
        j.append(RecordKind::Commit, 1, "keeper").expect("append");
        xic_faults::disarm_all();
        xic_faults::arm("journal.append.mid", 1, xic_faults::FaultMode::Error);
        let err = j.append(RecordKind::Commit, 2, "half-written victim");
        xic_faults::disarm_all();
        assert!(matches!(err, Err(JournalError::Io { .. })));
        // The half-written bytes were rewound; a later append lands clean.
        j.append(RecordKind::Commit, 2, "successor").expect("append");
        drop(j);
        let rec = Journal::recover(&p, Some(1)).expect("recover");
        assert!(!rec.torn);
        assert_eq!(
            rec.records.iter().map(|r| r.stmt.as_str()).collect::<Vec<_>>(),
            vec!["keeper", "successor"]
        );
        cleanup(&p);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn io_error_carries_kind_and_source() {
        let io = std::io::Error::new(std::io::ErrorKind::Interrupted, "syscall interrupted");
        let err = JournalError::from(io);
        assert!(err.is_transient());
        assert_eq!(err.io_kind(), Some(std::io::ErrorKind::Interrupted));
        let source = std::error::Error::source(&err).expect("Io must expose a source");
        assert!(source.to_string().contains("syscall interrupted"));
        // Structural errors have neither a kind nor a source.
        assert_eq!(JournalError::BadHeader.io_kind(), None);
        assert!(std::error::Error::source(&JournalError::BadHeader).is_none());
        assert!(!JournalError::BadHeader.is_transient());
        // Injected permanent faults map to Other, transient to Interrupted.
        let perm = JournalError::from(xic_faults::FaultError {
            site: "journal.append.pre",
            transient: false,
        });
        assert_eq!(perm.io_kind(), Some(std::io::ErrorKind::Other));
        assert!(!perm.is_transient());
        let trans = JournalError::from(xic_faults::FaultError {
            site: "journal.append.pre",
            transient: true,
        });
        assert!(trans.is_transient());
    }

    #[test]
    fn transient_append_failure_is_retried_and_succeeds() {
        let _g = fault_serial();
        let p = tmp_path("retry");
        let mut j = Journal::create(&p, 1, true).expect("create");
        // One transient fault mid-record: attempt 1 fails, the rewind
        // clears the half-written bytes, attempt 2 lands the record.
        xic_faults::disarm_all();
        xic_faults::arm("journal.append.mid", 1, xic_faults::FaultMode::Transient);
        j.append(RecordKind::Commit, 1, "survives a transient fault").expect("retried append");
        xic_faults::disarm_all();
        drop(j);
        let rec = Journal::recover(&p, Some(1)).expect("recover");
        assert!(!rec.torn, "the failed attempt must leave no garbage");
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].stmt, "survives a transient fault");
        cleanup(&p);
    }

    #[test]
    fn persistent_transient_failures_exhaust_the_retry_budget() {
        let _g = fault_serial();
        let p = tmp_path("retryexhaust");
        let mut j = Journal::create(&p, 1, false).expect("create");
        // Arm one transient fault per allowed attempt: all three attempts
        // fail, and the error that surfaces is still transient-kinded.
        xic_faults::disarm_all();
        for nth in 1..=MAX_APPEND_ATTEMPTS as u64 {
            xic_faults::arm("journal.append.pre", nth, xic_faults::FaultMode::Transient);
        }
        let err = j.append(RecordKind::Commit, 1, "never lands").expect_err("exhausted");
        assert_eq!(xic_faults::hits("journal.append.pre"), MAX_APPEND_ATTEMPTS as u64);
        xic_faults::disarm_all();
        assert!(err.is_transient());
        // The journal is not broken — a later clean append works.
        j.append(RecordKind::Commit, 1, "lands").expect("append");
        drop(j);
        let rec = Journal::recover(&p, Some(1)).expect("recover");
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].stmt, "lands");
        cleanup(&p);
    }

    #[test]
    fn header_only_file_recovers_to_zero_records() {
        let p = tmp_path("headeronly");
        let j = Journal::create(&p, 5, false).expect("create");
        drop(j);
        assert_eq!(std::fs::metadata(&p).expect("meta").len(), HEADER_LEN);
        let rec = Journal::recover(&p, Some(5)).expect("recover");
        assert!(!rec.torn, "a bare header is complete, not torn");
        assert!(rec.records.is_empty());
        assert_eq!(rec.base_crc, 5);
        cleanup(&p);
    }

    #[test]
    fn truncated_eight_byte_header_recovers_as_torn() {
        // Exactly the magic, none of the base-crc bytes: a crash between
        // the two header halves. Recovery rebuilds the header.
        let p = tmp_path("torn8");
        std::fs::write(&p, MAGIC).expect("write");
        let rec = Journal::recover(&p, Some(77)).expect("recover");
        assert!(rec.torn);
        assert!(rec.records.is_empty());
        assert_eq!(rec.base_crc, 77, "rebuilt header adopts the expected base");
        drop(rec);
        let rec = Journal::recover(&p, Some(77)).expect("recover again");
        assert!(!rec.torn);
        cleanup(&p);
    }

    #[test]
    fn recover_on_a_directory_path_is_a_clean_io_error() {
        let dir = std::env::temp_dir().join(format!("xic-journal-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let err = Journal::recover(&dir, None).expect_err("directories are not journals");
        assert!(matches!(err, JournalError::Io { .. }), "{err}");
        let _ = std::fs::remove_dir(&dir);
    }
}
