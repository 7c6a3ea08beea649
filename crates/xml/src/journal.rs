//! Append-only write-ahead journal for update statements.
//!
//! The checker appends one [`RecordKind::Commit`] record per statement
//! it decided legal and applied; a refused statement leaves no record.
//! Appending only writes; the one place a record is fsynced is
//! [`Journal::sync_now`], which the checker calls once per direct
//! statement or per batch that appended a record, before it acknowledges
//! anything. After a crash, recovery replays the
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
//! must carry consecutive versions, which recovery validates. A record is
//! one unbuffered append, so an in-process panic leaves the file
//! byte-identical to a hard crash at the same point.
//!
//! Every file operation goes through a [`Dir`] (the real one for
//! [`Journal::create`] and [`Journal::recover`]); what a power loss leaves
//! of a journal is enumerated by `difftest --crash-states`, and a fault is
//! a `Dir` operation that fails.
//!
//! I/O failures preserve their [`std::io::ErrorKind`] (and the original
//! error as `Error::source()`). An append or fsync is attempted once: a
//! failure is final and surfaces at once (std's `write_all` and
//! `sync_data` already retry `EINTR`; after a failed fsync the kernel may
//! have dropped the dirty pages, so a second fsync proves nothing). For
//! checkpointing and segment rotation on top of this journal, see the
//! [`checkpoint`](crate::checkpoint) module.

use std::path::Path;

use crate::dir::{Dir, File, Real};

/// File magic, bumped if the record layout ever changes.
pub const MAGIC: &[u8; 8] = b"XICJRNL1";

const HEADER_LEN: u64 = 12;
/// Upper bound on a single record body; anything larger is treated as a
/// corrupt length prefix (and therefore a truncation point).
const MAX_BODY_LEN: u32 = 1 << 28;

/// What a journal record witnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// The statement was applied and the document passed its checks; the
    /// in-memory state the record describes is the durable one.
    Commit,
    /// Decoded only: older builds wrote one for a statement that did not
    /// apply (the document was unchanged). Replay skips these.
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
    /// [`std::io::ErrorKind`] is preserved and the original error is kept
    /// as the [`std::error::Error::source`].
    Io {
        /// The underlying error's kind (`ErrorKind::Other` for injected
        /// faults).
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
    file: Box<dyn File>,
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
    /// [`Journal::create_in`] over the real file system; `_sync` is
    /// ignored (a header is never fsynced on its own).
    pub fn create(path: &Path, base_crc: u32, _sync: bool) -> Result<Journal, JournalError> {
        Journal::create_in(&Real, path, base_crc)
    }

    /// Create (truncating) a journal in `fs` for a document whose
    /// serialization has checksum `base_crc`. The header is not fsynced:
    /// the first [`Journal::sync_now`] makes it durable with the first
    /// record, and recovery rebuilds a torn one, which holds no record.
    pub fn create_in(fs: &dyn Dir, path: &Path, base_crc: u32) -> Result<Journal, JournalError> {
        let mut file = fs.create(path)?;
        let mut header = [0u8; HEADER_LEN as usize];
        header[..8].copy_from_slice(MAGIC);
        header[8..].copy_from_slice(&base_crc.to_le_bytes());
        file.append(&header)?;
        Ok(Journal { file, committed_len: HEADER_LEN, broken: false })
    }

    /// Bytes of valid journal on disk (header plus every appended record).
    pub fn byte_len(&self) -> u64 {
        self.committed_len
    }

    /// Flush every appended record to stable storage with one fsync: the
    /// one durability point (DESIGN.md row 19). Appends run unsynced, then
    /// one `sync_now` makes a direct commit, or a whole batch, durable
    /// before anyone is acknowledged.
    ///
    /// One attempt: a failure is returned as is. A later call that
    /// succeeds does not vouch for the records this one failed on (the
    /// kernel may have dropped their pages), so nothing retries it.
    pub fn sync_now(&mut self) -> Result<(), JournalError> {
        self.file.sync_data()?;
        xic_obs::incr(xic_obs::Counter::JournalFsync);
        Ok(())
    }

    /// Append one record; it is durable once a later
    /// [`Journal::sync_now`] returns. One attempt: on failure the journal
    /// is rewound to the previous record boundary, so the on-disk prefix
    /// stays valid, and the error is returned.
    pub fn append(&mut self, kind: RecordKind, version: u64, stmt: &str) -> Result<(), JournalError> {
        if self.broken {
            return Err(JournalError::from(std::io::Error::other(
                "journal is broken (a failed append could not be rewound)",
            )));
        }
        let stmt_bytes = stmt.as_bytes();
        let mut body = Vec::with_capacity(9 + stmt_bytes.len());
        body.push(kind.tag());
        body.extend_from_slice(&version.to_le_bytes());
        body.extend_from_slice(stmt_bytes);
        let mut buf = Vec::with_capacity(8 + body.len());
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        if let Err(e) = self.file.append(&buf) {
            // Best-effort rewind to the last record boundary, so a failed
            // (or partly written) append leaves no garbage between records.
            self.broken = self.file.set_len(self.committed_len).is_err();
            return Err(e.into());
        }
        self.committed_len += buf.len() as u64;
        xic_obs::incr(xic_obs::Counter::JournalAppend);
        Ok(())
    }

    /// Scan a journal after a (real or simulated) crash: decode the valid
    /// record prefix, truncate any torn or corrupt tail, and reopen the
    /// file for appending. If `expect_base_crc` is given, the header's
    /// base checksum must match it.
    pub fn recover(path: &Path, expect_base_crc: Option<u32>) -> Result<Recovered, JournalError> {
        Journal::recover_in(&Real, path, expect_base_crc)
    }

    /// [`Journal::recover`] in `fs`.
    pub fn recover_in(
        fs: &dyn Dir,
        path: &Path,
        expect_base_crc: Option<u32>,
    ) -> Result<Recovered, JournalError> {
        let bytes = fs.read(path)?;
        // Shorter than a header: a crash before the header finished. Only
        // an empty (or torn-header) journal can look like this, so rebuild
        // the header in place — there are no records to lose.
        let Some((base_crc, records, valid)) = decode(&bytes)? else {
            let base_crc = expect_base_crc.unwrap_or(0);
            let journal = Journal::create_in(fs, path, base_crc)?;
            return Ok(Recovered { journal, records: Vec::new(), torn: !bytes.is_empty(), base_crc });
        };
        if let Some(expected) = expect_base_crc.filter(|&expected| expected != base_crc) {
            return Err(JournalError::BaseMismatch { journal: base_crc, document: expected });
        }
        let mut file = fs.open(path)?;
        let torn = valid < bytes.len();
        if torn {
            file.set_len(valid as u64)?;
            file.sync_data()?;
        }
        let journal = Journal { file, committed_len: valid as u64, broken: false };
        Ok(Recovered { journal, records, torn, base_crc })
    }
}

/// Decodes a journal's bytes without touching its file: the header's
/// base checksum, the records of the valid prefix and that prefix's
/// length — shorter than the file where a tail is torn or corrupt.
/// `None` for a file shorter than its header.
pub fn decode(bytes: &[u8]) -> Result<Option<(u32, Vec<JournalRecord>, usize)>, JournalError> {
    if bytes.len() < HEADER_LEN as usize {
        return Ok(None);
    }
    if &bytes[..8] != MAGIC {
        return Err(JournalError::BadHeader);
    }
    let base_crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
    let mut records = Vec::new();
    let mut off = HEADER_LEN as usize;
    while let Some((rec, consumed)) = decode_record(&bytes[off..]) {
        records.push(rec);
        off += consumed;
    }
    Ok(Some((base_crc, records, off)))
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
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn io_error_carries_kind_and_source() {
        let io = std::io::Error::new(std::io::ErrorKind::StorageFull, "disk full");
        let err = JournalError::from(io);
        assert_eq!(err.io_kind(), Some(std::io::ErrorKind::StorageFull));
        let source = std::error::Error::source(&err).expect("Io must expose a source");
        assert!(source.to_string().contains("disk full"));
        // Structural errors have neither a kind nor a source.
        assert_eq!(JournalError::BadHeader.io_kind(), None);
        assert!(std::error::Error::source(&JournalError::BadHeader).is_none());
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
        // Exactly the magic, none of the base-crc bytes: a crash in the
        // middle of the header write. Recovery rebuilds the header.
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
