//! Durability of a [`Checker`]: the commit log and crash recovery.
//!
//! A `CommitLog` is what a checker needs to make commits durable: the
//! [`Store`] its records go to (when one is attached), the rotation
//! policy and the commit counters. The on-disk side — file names, the
//! live journal segment, the rotation steps, which generation a recovery
//! may trust — belongs to [`xic_xml::checkpoint::Store`] alone; recovery
//! here ([`Checker::open_store`], the one way back over a store) is the
//! part that needs a document and the XPath resolver: rebuild the base
//! the store offers, replay its records, or say why not.
//!
//! The journal holds only statements the checker decided legal: a
//! statement that is refused, or does not apply, appends nothing.
//!
//! Every setting is given exactly once: the sync mode when the store is
//! attached or opened (it is never changed afterwards), the retention
//! window is the constant [`xic_xml::checkpoint::DEFAULT_RETAIN`], and
//! only the rotation policy may be set later
//! ([`Checker::set_checkpoint_policy`]). A commit only appends its
//! record; `Checker::flush` is the one flush point — once per direct
//! statement, once per batch, an fsync only if something was appended —
//! and a failed flush is final: the checker turns degraded until the
//! store is reopened.
//!
//! In `DESIGN.md`'s system inventory this is row 27.

use crate::checker::{build_valid, panic_message, Checker, CheckerError};
use crate::gamma::SharedGamma;
use crate::resolver::xpath_resolver;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use xic_xml::checkpoint::{Candidate, CheckpointError, Recovery, Store};
use xic_xml::dir::{self, Dir, Real};
use xic_xml::journal::{crc32, RecordKind};
use xic_xml::{apply, parse_document, serialize, Document, XUpdateDoc};

/// What [`Checker::open_store`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Commit records replayed onto the recovery base (the winning
    /// snapshot, or the external base document for generation 0).
    pub replayed: usize,
    /// Abort records skipped. Nothing writes one any more; a segment
    /// written by an older build may still hold them (one per statement
    /// that did not apply), and replay steps over them.
    pub aborts_skipped: usize,
    /// True if a torn or corrupt tail was detected and truncated.
    pub torn_tail_truncated: bool,
    /// The generation that won recovery (0 = the external base document).
    pub generation: u64,
    /// Committed-statement count already baked into the winning snapshot
    /// (replay resumed at version `base_commit_seq + 1`).
    pub base_commit_seq: u64,
    /// Newer generations that failed validation and were skipped before
    /// one won (or before degraded mode was entered).
    pub fallbacks: u64,
    /// Why each skipped generation was rejected, newest first.
    pub fallback_reasons: Vec<String>,
    /// True if *no* generation validated: the checker is serving the base
    /// document read-only (see [`CheckerError::Degraded`]).
    pub degraded: bool,
}

/// A base document text, built at most once however many checkers start
/// from it: parsed, validated against Γ's DTD and — when a store is keyed
/// to it — serialized for its checksum, each on first need. Every checker
/// over it starts from an O(1) clone of the one build, so the shards of a
/// [`crate::shards::ShardSet`] over one text share its nodes until they
/// write; a recovery that never replays from generation 0 never builds
/// it. Dropping the `Base` drops only what no checker shares.
pub(crate) struct Base<'a> {
    xml: &'a str,
    built: OnceLock<Result<Document, CheckerError>>,
    crc: OnceLock<u32>,
}

impl<'a> Base<'a> {
    pub(crate) fn new(xml: &'a str) -> Base<'a> {
        Base { xml, built: OnceLock::new(), crc: OnceLock::new() }
    }

    /// The validated build, made now if no one asked for it yet.
    fn built(&self, shared: &SharedGamma) -> Result<&Document, CheckerError> {
        self.built.get_or_init(|| build_valid(self.xml, shared)).as_ref().map_err(Clone::clone)
    }

    /// The checksum of the build's canonical serialization: what a store's
    /// generation 0 is keyed to.
    fn crc(&self, shared: &SharedGamma) -> Result<u32, CheckerError> {
        let doc = self.built(shared)?;
        Ok(*self.crc.get_or_init(|| crc32(serialize(doc).as_bytes())))
    }

    /// A checker over a copy of the build.
    pub(crate) fn checker(&self, shared: &Arc<SharedGamma>) -> Result<Checker, CheckerError> {
        Ok(Checker::assemble(self.built(shared)?.clone(), Arc::clone(shared)))
    }

    /// A checker over a copy of the build, with a fresh store at `dir` in
    /// `fs` ([`Checker::attach_store_in`]).
    pub(crate) fn create_store(
        &self,
        fs: Arc<dyn Dir>,
        dir: &Path,
        shared: &Arc<SharedGamma>,
        sync: bool,
    ) -> Result<Checker, CheckerError> {
        let mut checker = self.checker(shared)?;
        checker.attach_keyed(fs, dir, sync, self.crc(shared)?)?;
        Ok(checker)
    }
}

/// When to take an automatic checkpoint (rotation). The default is
/// entirely off: rotations happen only via explicit
/// [`Checker::checkpoint`] calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Rotate once this many statements have committed to the current
    /// journal segment.
    pub every_commits: Option<u64>,
}

impl CheckpointPolicy {
    /// Rotate every `n` committed statements (`n` clamped to ≥ 1).
    pub fn every_commits(n: u64) -> CheckpointPolicy {
        CheckpointPolicy { every_commits: Some(n.max(1)) }
    }

    /// True when the trigger has been reached.
    fn due(&self, commits_in_segment: u64) -> bool {
        self.every_commits.is_some_and(|n| commits_in_segment >= n)
    }
}

/// A checker's commit log: the store its records go to, the rotation
/// policy and the commit counters. Without a store it still counts
/// commits (the count is the service's snapshot version).
#[derive(Default)]
pub(crate) struct CommitLog {
    /// The durable log; when attached, every committed update is
    /// appended to its live segment and flushed before the verdict is
    /// returned.
    store: Option<Store>,
    /// Automatic rotation policy (default: off).
    policy: CheckpointPolicy,
    /// Committed-statement count baked into the live generation's
    /// snapshot; the current segment holds versions `base_commit_seq + 1…`.
    base_commit_seq: u64,
    /// Committed-statement count — the version stamped on journal records.
    committed: u64,
    /// Set by [`Checker::open_store`] over a replayed store and cleared by
    /// the next rotation: the live segment may hold records whose fsync
    /// failed in the process that wrote them, so nothing is appended
    /// behind them ([`CommitLog::rotate_if_reopened`]).
    reopened: bool,
}

impl CommitLog {
    /// Statements committed since construction or recovery.
    pub(crate) fn committed(&self) -> u64 {
        self.committed
    }

    /// Called before a write applies anything: on a reopened store, one
    /// checkpoint of the current state `doc` moves the write to a fresh
    /// segment. A failed checkpoint refuses the write; the next one tries
    /// again.
    pub(crate) fn rotate_if_reopened(&mut self, doc: &Document) -> Result<(), CheckerError> {
        if self.reopened {
            self.checkpoint(doc)?;
        }
        Ok(())
    }

    /// The rotation behind [`Checker::checkpoint`], snapshotting `doc`.
    pub(crate) fn checkpoint(&mut self, doc: &Document) -> Result<u64, CheckerError> {
        let Some(store) = self.store.as_mut() else {
            return Err(CheckerError::Checkpoint(
                "no store attached (see Checker::attach_store)".to_string(),
            ));
        };
        let _d = xic_obs::phase("durability");
        let _c = xic_obs::phase("checkpoint");
        let generation = store
            .rotate(self.committed, &serialize(doc))
            .map_err(|e| CheckerError::Checkpoint(e.to_string()))?;
        self.base_commit_seq = self.committed;
        self.reopened = false;
        Ok(generation)
    }

    /// Runs a due automatic rotation after an appended commit, snapshotting
    /// `doc`, the version that commit made. Failures are swallowed: the old
    /// generation is still recoverable and the policy stays due, so the
    /// next commit retries.
    pub(crate) fn maybe_auto_checkpoint(&mut self, doc: &Document) {
        if self.store.is_some() && self.policy.due(self.committed - self.base_commit_seq) {
            let _ = self.checkpoint(doc);
        }
    }

    /// Appends the commit record for `stmt`. Nothing is flushed here: the
    /// caller flushes before it acknowledges. An error means no record was
    /// appended.
    pub(crate) fn commit(&mut self, stmt: &XUpdateDoc) -> Result<(), CheckerError> {
        let Some(store) = self.store.as_mut() else {
            // Still a commit: `committed()` counts committed statements
            // (and is the service's snapshot version) whether or not a
            // store records them.
            self.committed += 1;
            return Ok(());
        };
        let next = self.committed + 1;
        let appended = store.append(RecordKind::Commit, next, &stmt.to_xml());
        appended.map_err(|e| CheckerError::Journal(e.to_string()))?;
        self.committed = next;
        Ok(())
    }
}

impl Checker {
    /// Attaches a *checkpointed store* at directory `dir` (created if
    /// absent, **wiped of a previous incarnation's generations** if not —
    /// use [`Checker::open_store`] to resume one): generation 0 starts as
    /// a fresh journal segment keyed to a checksum of the *current*
    /// document state. From now on every statement committed by
    /// [`Checker::try_update`] is appended and flushed (with `sync`,
    /// fsync'd) before the verdict is returned; the mode is fixed here.
    /// [`Checker::checkpoint`] (or the automatic [`CheckpointPolicy`])
    /// rotates to snapshot-backed generations, keeping
    /// [`xic_xml::checkpoint::DEFAULT_RETAIN`] of them. Reopen with
    /// [`Checker::open_store`] and the same base document text.
    pub fn attach_store(&mut self, dir: &Path, sync: bool) -> Result<(), CheckerError> {
        self.attach_store_in(Arc::new(Real), dir, sync)
    }

    /// [`Checker::attach_store`] in `fs`: every file operation of the
    /// store, for as long as the checker holds it, goes to `fs`.
    pub fn attach_store_in(&mut self, fs: Arc<dyn Dir>, dir: &Path, sync: bool) -> Result<(), CheckerError> {
        self.refuse_if_degraded()?;
        // Every start makes the directory's name durable ([`dir::create_dirs`]).
        dir::name_durably(&*fs, dir, &[], sync).map_err(|e| CheckerError::Checkpoint(e.to_string()))?;
        self.attach_keyed(fs, dir, sync, crc32(serialize(&self.doc).as_bytes()))
    }

    /// [`Checker::attach_store_in`] with the checksum of the current
    /// document's serialization already known, over a directory whose
    /// name its caller makes durable.
    fn attach_keyed(&mut self, fs: Arc<dyn Dir>, dir: &Path, sync: bool, base_crc: u32) -> Result<(), CheckerError> {
        let store = Store::create(fs, dir, base_crc, sync)
            .map_err(|e| CheckerError::Checkpoint(e.to_string()))?;
        // The commit counters restart at 0; the rotation policy is kept.
        self.log = CommitLog { store: Some(store), policy: self.log.policy, ..CommitLog::default() };
        Ok(())
    }

    /// The live store generation (0 without a store or before the first
    /// rotation).
    pub fn store_generation(&self) -> u64 {
        self.log.store.as_ref().map_or(0, Store::generation)
    }

    /// Sets the automatic checkpoint policy (default: off) — the one
    /// durability setting that may change after attach. The policy is
    /// evaluated after every durable commit; a due rotation that *fails*
    /// is non-fatal — the current generation simply keeps growing and the
    /// next commit retries — because the old (snapshot, journal) pair
    /// remains fully recoverable throughout.
    pub fn set_checkpoint_policy(&mut self, policy: CheckpointPolicy) {
        self.log.policy = policy;
    }

    /// Takes an explicit checkpoint: durably snapshots the current
    /// document (atomic tmp → fsync → rename → dir-fsync), starts a fresh
    /// journal segment keyed to it, and unlinks generations outside the
    /// retention window. Returns the new generation number.
    ///
    /// Requires an attached store. On failure the checker stays on its
    /// current generation, which remains fully recoverable.
    pub fn checkpoint(&mut self) -> Result<u64, CheckerError> {
        self.refuse_if_poisoned()?;
        self.refuse_if_degraded()?;
        self.log.checkpoint(&self.doc)
    }

    /// The one flush point: makes every record appended since the last
    /// flush durable with one [`Store::sync_now`] (an fsync iff the store
    /// was opened with `sync` and a record was appended; nothing without
    /// a store). It runs once after a direct statement and once after a
    /// batch (DESIGN.md row 19), so a refusal, a rejection or a batch of
    /// them costs no fsync.
    ///
    /// A failure — a panic during the fsync included — is final: nothing
    /// retries it (the kernel may have dropped the pages, so a second
    /// fsync proves nothing), and the checker turns degraded until its
    /// store is reopened ([`Checker::open_store`]).
    pub(crate) fn flush(&mut self) -> Result<(), CheckerError> {
        let Some(store) = self.log.store.as_mut() else { return Ok(()) };
        let failure = match catch_unwind(AssertUnwindSafe(|| store.sync_now())) {
            Ok(Ok(())) => return Ok(()),
            Ok(Err(e)) => e.to_string(),
            Err(payload) => format!("panic during fsync: {}", panic_message(payload.as_ref())),
        };
        self.degraded = true;
        Err(CheckerError::Journal(failure))
    }

    /// Opens the checkpointed store at `dir` for `base_xml` over an
    /// already-compiled Γ — the one way a checker comes back over its
    /// store: a restarted server, a replaced shard, a recovery after a
    /// crash. A missing or empty directory is created fresh
    /// ([`Checker::attach_store`], with an empty report).
    ///
    /// Anything else is replayed, preferring the **newest valid
    /// checkpoint** and replaying only the journal suffix recorded since
    /// it — recovery cost is bounded by the rotation interval, not the
    /// full committed history, and (Γ being shared) not by constraint
    /// compilation either: a [`crate::shards::ShardSet`] compiles Γ once
    /// and fans this out across its shard directories. The replayed
    /// checker's first write takes one checkpoint before it appends
    /// anything: the segment just replayed may hold records whose fsync
    /// failed, and no commit acknowledged from now on may depend on them.
    /// A restart that only serves reads writes nothing.
    ///
    /// When the newest generation fails validation (corrupt snapshot,
    /// segment keyed to another base, out-of-sequence or unreplayable
    /// records), recovery falls back generation by generation — each
    /// fallback is counted and its reason recorded in the
    /// [`RecoveryReport`] — ending at generation 0: the external
    /// `base_xml` plus its original segment. If *no* generation
    /// validates, or an I/O error other than a missing file strikes the
    /// store, the checker comes up in **degraded read-only mode**
    /// serving `check_full`/`decide_only` against the base document while
    /// refusing mutations ([`CheckerError::Degraded`]), instead of
    /// erroring out entirely. A directory holding anything but store
    /// artifacts is refused ([`CheckerError::Checkpoint`]), as by
    /// [`Checker::attach_store`].
    ///
    /// The store's flushes fsync iff `sync` — the mode of the process
    /// that wrote it lived only in that process, so the caller restates
    /// it exactly as for [`Checker::attach_store`].
    pub fn open_store(
        dir: &Path,
        base_xml: &str,
        shared: &Arc<SharedGamma>,
        sync: bool,
    ) -> Result<(Checker, RecoveryReport), CheckerError> {
        Checker::open_store_in(Arc::new(Real), dir, base_xml, shared, sync)
    }

    /// [`Checker::open_store`] in `fs`, which the store holds from then on.
    pub(crate) fn open_store_in(
        fs: Arc<dyn Dir>,
        dir: &Path,
        base_xml: &str,
        shared: &Arc<SharedGamma>,
        sync: bool,
    ) -> Result<(Checker, RecoveryReport), CheckerError> {
        dir::name_durably(&*fs, dir, &[], sync).map_err(|e| CheckerError::Checkpoint(e.to_string()))?;
        Checker::open_base(fs, dir, &Base::new(base_xml), shared, sync)
    }

    /// [`Checker::open_store`] in `fs`, over a base that other checkers
    /// may start from too: it is built only if this store needs it.
    pub(crate) fn open_base(
        fs: Arc<dyn Dir>,
        dir: &Path,
        base: &Base<'_>,
        shared: &Arc<SharedGamma>,
        sync: bool,
    ) -> Result<(Checker, RecoveryReport), CheckerError> {
        let replay = |candidate: &mut Candidate<'_>| {
            replay_candidate(candidate, base, shared).map_err(|e| e.to_string())
        };
        let Recovery { resumed, rejected } = match Store::recover(Arc::clone(&fs), dir, sync, replay) {
            Ok(Some(recovery)) => recovery,
            Ok(None) => return Ok((base.create_store(fs, dir, shared, sync)?, RecoveryReport::default())),
            // An I/O failure says nothing about the generations: the
            // checker serves its base read-only and writes nothing.
            Err(e) if e.is_io() => Recovery { resumed: None, rejected: vec![e.to_string()] },
            Err(e) => return Err(CheckerError::Checkpoint(e.to_string())),
        };
        xic_obs::incr(xic_obs::Counter::Recovery);
        let (mut checker, mut report) = match resumed {
            Some((store, (mut checker, report))) => {
                checker.log = CommitLog {
                    store: Some(store),
                    base_commit_seq: report.base_commit_seq,
                    committed: report.base_commit_seq + report.replayed as u64,
                    reopened: true,
                    ..CommitLog::default()
                };
                (checker, report)
            }
            // Every generation failed: serve the base document read-only
            // rather than refusing to come up at all.
            None => (
                base.checker(shared)?,
                RecoveryReport { degraded: true, ..RecoveryReport::default() },
            ),
        };
        checker.degraded = report.degraded;
        report.fallbacks = rejected.len() as u64;
        report.fallback_reasons = rejected;
        Ok((checker, report))
    }
}

/// The caller's half of [`Store::recover`] for one candidate generation:
/// rebuilds its base as a checker, opens the segment keyed to that base
/// and replays it — commit versions must run consecutively from the
/// base's `commit_seq + 1`; abort records (written only by older builds)
/// are skipped. Any error means "fall back to an older generation".
fn replay_candidate(
    candidate: &mut Candidate<'_>,
    base: &Base<'_>,
    shared: &Arc<SharedGamma>,
) -> Result<(Checker, RecoveryReport), CheckerError> {
    let (mut checker, base_seq, base_crc) = match &candidate.snapshot {
        None => (base.checker(shared)?, 0, base.crc(shared)?),
        // The snapshot is a committed state whose integrity the crc
        // already vouches for; DTD validity is not re-imposed because
        // updates need not preserve it (journal replay from the base
        // document doesn't re-validate either).
        Some(ckpt) => {
            let (doc, _) = parse_document(&ckpt.doc_xml)
                .map_err(|e| CheckerError::Checkpoint(e.to_string()))?;
            let crc = crc32(serialize(&doc).as_bytes());
            (Checker::assemble(doc, Arc::clone(shared)), ckpt.commit_seq, crc)
        }
    };
    let (records, torn) = candidate.open_segment(base_crc).map_err(|e| match e {
        CheckpointError::Journal(e) => CheckerError::Journal(e.to_string()),
        e => CheckerError::Checkpoint(e.to_string()),
    })?;
    let mut report = RecoveryReport {
        torn_tail_truncated: torn,
        generation: candidate.generation,
        base_commit_seq: base_seq,
        ..RecoveryReport::default()
    };
    // The candidate's own document, edited in place: an error drops it.
    let doc = Arc::make_mut(&mut checker.doc);
    for rec in records {
        if rec.kind == RecordKind::Abort {
            report.aborts_skipped += 1;
            continue;
        }
        let expected = base_seq + report.replayed as u64 + 1;
        if rec.version != expected {
            return Err(CheckerError::Journal(format!(
                "commit record out of sequence: found version {}, expected {expected}",
                rec.version
            )));
        }
        let stmt = XUpdateDoc::parse(&rec.stmt).map_err(|e| {
            CheckerError::Journal(format!("record {expected} does not parse: {e}"))
        })?;
        if let Err((e, _)) = apply(doc, &stmt, &xpath_resolver) {
            return Err(CheckerError::Journal(format!("replay of record {expected} failed: {e}")));
        }
        report.replayed += 1;
    }
    Ok((checker, report))
}
