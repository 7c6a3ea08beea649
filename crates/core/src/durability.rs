//! Durability of a [`Checker`]: the commit log and crash recovery.
//!
//! A `CommitLog` is what a checker needs to make commits durable: the
//! [`Store`] its records go to (when one is attached), the rotation
//! policy and the commit counters. The on-disk side — file names, the
//! live journal segment, the rotation steps, which generation a recovery
//! may trust — belongs to [`xic_xml::checkpoint::Store`] alone; recovery
//! here ([`Checker::recover_store`], [`Checker::open_store`]) is the part
//! that needs a document and the XPath resolver: rebuild the base the
//! store offers, replay its records, or say why not.
//!
//! Every setting is given exactly once: the sync mode when the store is
//! attached or recovered (it is never changed afterwards), the retention
//! window is the constant [`xic_xml::checkpoint::DEFAULT_RETAIN`], and
//! only the rotation policy may be set later
//! ([`Checker::set_checkpoint_policy`]). Group commit does not flip the
//! sync mode either: it asks for a *deferred-sync scope*
//! (`Checker::with_deferred_sync`) — appends inside it are unsynced,
//! on whichever segment is live, a segment rotated in mid-scope included
//! — and then flushes once with [`Checker::sync_journal`].
//!
//! In `DESIGN.md`'s system inventory this is row 27.

use crate::checker::{Checker, CheckerError};
use crate::gamma::SharedGamma;
use crate::resolver::xpath_resolver;
use std::path::Path;
use std::sync::Arc;
use xic_xml::checkpoint::{Candidate, CheckpointError, Recovery, Store};
use xic_xml::journal::{crc32, RecordKind};
use xic_xml::{apply, parse_document, serialize, undo, Document, XUpdateDoc};

/// What [`Checker::recover_store`] / [`Checker::open_store`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Commit records replayed onto the recovery base (the winning
    /// snapshot, or the external base document for generation 0).
    pub replayed: usize,
    /// Abort records skipped (rolled-back batches; nothing to replay).
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

/// When to take an automatic checkpoint (rotation). The default is
/// entirely off: rotations happen only via explicit
/// [`Checker::checkpoint`] calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Rotate once this many statements have committed to the current
    /// journal segment.
    pub every_commits: Option<u64>,
    /// Rotate once the current segment exceeds this many bytes on disk.
    pub every_journal_bytes: Option<u64>,
}

impl CheckpointPolicy {
    /// Rotate every `n` committed statements (`n` clamped to ≥ 1).
    pub fn every_commits(n: u64) -> CheckpointPolicy {
        CheckpointPolicy { every_commits: Some(n.max(1)), every_journal_bytes: None }
    }

    /// Rotate once the segment exceeds `n` bytes.
    pub fn every_journal_bytes(n: u64) -> CheckpointPolicy {
        CheckpointPolicy { every_commits: None, every_journal_bytes: Some(n.max(1)) }
    }

    /// True when either trigger has been reached.
    fn due(&self, commits_in_segment: u64, segment_bytes: u64) -> bool {
        self.every_commits.is_some_and(|n| commits_in_segment >= n)
            || self.every_journal_bytes.is_some_and(|n| segment_bytes >= n)
    }
}

/// How [`CommitLog::commit`] failed, by what it means for the in-memory
/// document the caller has already updated.
pub(crate) enum CommitError {
    /// No commit record was appended: roll the update back so document
    /// and journal stay in step.
    NotAppended(CheckerError),
    /// The failure came *after* the record was durable: in-memory and
    /// on-disk state agree with each other but not with the error the
    /// caller sees, so the checker must be poisoned.
    AfterDurable(CheckerError),
}

/// A checker's commit log: the store its records go to, the rotation
/// policy and the commit counters. Without a store it still counts
/// commits (the count is the service's snapshot version).
#[derive(Default)]
pub(crate) struct CommitLog {
    /// The durable log; when attached, every committed update is
    /// appended to its live segment before the verdict is returned.
    store: Option<Store>,
    /// Automatic rotation policy (default: off).
    policy: CheckpointPolicy,
    /// Committed-statement count baked into the live generation's
    /// snapshot; the current segment holds versions `base_commit_seq + 1…`.
    base_commit_seq: u64,
    /// Committed-statement count — the version stamped on journal records.
    committed: u64,
}

impl CommitLog {
    /// Statements committed since construction or recovery.
    pub(crate) fn committed(&self) -> u64 {
        self.committed
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
        Ok(generation)
    }

    /// Runs a due automatic rotation after a durable commit. Failures are
    /// swallowed: the old generation is still recoverable and the policy
    /// stays due, so the next commit retries.
    fn maybe_auto_checkpoint(&mut self, doc: &Document) {
        let Some(store) = self.store.as_ref() else { return };
        let commits_in_segment = self.committed - self.base_commit_seq;
        if self.policy.due(commits_in_segment, store.segment_bytes()) {
            let _ = self.checkpoint(doc);
        }
    }

    /// Best-effort abort record: documents a rolled-back batch. Failure to
    /// append it is swallowed — the statement already failed, the document
    /// is restored, and replay skips aborts anyway.
    pub(crate) fn abort(&mut self, stmt: &XUpdateDoc) {
        let next = self.committed + 1;
        if let Some(store) = self.store.as_mut() {
            let _ = store.append(RecordKind::Abort, next, &stmt.to_xml());
        }
    }

    /// Appends the commit record for `stmt`, which is already applied to
    /// `doc` in memory, fsync'ing (per the log's mode) before returning —
    /// i.e. before the caller sees the verdict — and then runs a due
    /// automatic rotation.
    pub(crate) fn commit(&mut self, stmt: &XUpdateDoc, doc: &Document) -> Result<(), CommitError> {
        let Some(store) = self.store.as_mut() else {
            // Still a commit: `committed()` counts committed statements
            // (and is the service's snapshot version) whether or not a
            // store records them.
            self.committed += 1;
            return Ok(());
        };
        let next = self.committed + 1;
        let append = match xic_faults::fire("checker.commit.pre") {
            Err(e) => Err(xic_xml::JournalError::from(e)),
            Ok(()) => store.append(RecordKind::Commit, next, &stmt.to_xml()),
        };
        append.map_err(|e| CommitError::NotAppended(CheckerError::Journal(e.to_string())))?;
        self.committed = next;
        if let Err(e) = xic_faults::fire("checker.commit.post") {
            return Err(CommitError::AfterDurable(CheckerError::Journal(format!(
                "{e} (after durable commit; checker poisoned)"
            ))));
        }
        self.maybe_auto_checkpoint(doc);
        Ok(())
    }
}

impl Checker {
    /// Attaches a *checkpointed store* at directory `dir` (created if
    /// absent, **wiped of a previous incarnation's generations** if not —
    /// use [`Checker::open_store`] to resume one): generation 0 starts as
    /// a fresh journal segment keyed to a checksum of the *current*
    /// document state. From now on every statement committed by
    /// [`Checker::try_update`] / [`Checker::apply_unchecked`] is appended
    /// (and, with `sync`, fsync'd) before the verdict is returned; the
    /// mode is fixed here. [`Checker::checkpoint`] (or the automatic
    /// [`CheckpointPolicy`]) rotates to snapshot-backed generations,
    /// keeping [`xic_xml::checkpoint::DEFAULT_RETAIN`] of them. Recover
    /// with [`Checker::recover_store`] and the same base document text.
    pub fn attach_store(&mut self, dir: &Path, sync: bool) -> Result<(), CheckerError> {
        self.refuse_if_degraded()?;
        let base_crc = crc32(serialize(&self.doc).as_bytes());
        let store = Store::create(dir, base_crc, sync)
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

    /// Runs `batch` inside a deferred-sync scope: commit records it
    /// appends are *not* fsync'd one by one — on whichever segment is
    /// live, one rotated in by an automatic checkpoint included — and are
    /// durable only once a following [`Checker::sync_journal`] returns
    /// `Ok`. This is how the group-commit executor ([`crate::service`])
    /// shares one fsync across a batch without ever changing the log's
    /// configured sync mode.
    pub(crate) fn with_deferred_sync<R>(&mut self, batch: impl FnOnce(&mut Checker) -> R) -> R {
        self.defer_sync(true);
        let result = batch(self);
        self.defer_sync(false);
        result
    }

    fn defer_sync(&mut self, deferred: bool) {
        if let Some(store) = self.log.store.as_mut() {
            store.defer_sync(deferred);
        }
    }

    /// Flushes every appended-but-unsynced journal record to stable
    /// storage with one fsync (no-op without a store). This is the
    /// group-commit flush point (see DESIGN.md row 19).
    pub fn sync_journal(&mut self) -> Result<(), CheckerError> {
        match self.log.store.as_mut() {
            None => Ok(()),
            Some(store) => store.sync_now().map_err(|e| CheckerError::Journal(e.to_string())),
        }
    }

    /// Rebuilds a checker from a checkpointed store directory (see
    /// [`Checker::attach_store`]) over an already-compiled Γ, preferring
    /// the **newest valid checkpoint** and replaying only the journal
    /// suffix recorded since it — recovery cost is bounded by the
    /// rotation interval, not the full committed history, and (Γ being
    /// shared) not by constraint compilation either: a
    /// [`crate::shards::ShardSet`] compiles Γ once and fans this out
    /// across its shard directories. The store stays attached, so the
    /// recovered checker resumes journaling where the crashed one stopped.
    ///
    /// When the newest generation fails validation (corrupt snapshot,
    /// segment keyed to another base, out-of-sequence or unreplayable
    /// records), recovery falls back generation by generation — each
    /// fallback is counted and its reason recorded in the
    /// [`RecoveryReport`] — ending at generation 0: the external
    /// `base_xml` plus its original segment. If *no* generation
    /// validates, the checker comes up in **degraded read-only mode**
    /// serving `check_full`/`decide_only` against the base document while
    /// refusing mutations ([`CheckerError::Degraded`]), instead of
    /// erroring out entirely. A directory holding anything but store
    /// artifacts is refused ([`CheckerError::Checkpoint`]), as by
    /// [`Checker::attach_store`].
    ///
    /// The recovered store resumes fsync'ing per record iff `sync` — the
    /// crashed process's mode lived only in that process, so the caller
    /// restates it exactly as for [`Checker::attach_store`].
    pub fn recover_store(
        dir: &Path,
        base_xml: &str,
        shared: &Arc<SharedGamma>,
        sync: bool,
    ) -> Result<(Checker, RecoveryReport), CheckerError> {
        let replay = |candidate: &mut Candidate<'_>| {
            replay_candidate(candidate, base_xml, shared).map_err(|e| e.to_string())
        };
        let Recovery { resumed, rejected } = Store::recover(dir, sync, replay)
            .map_err(|e| CheckerError::Checkpoint(e.to_string()))?;
        xic_obs::incr(xic_obs::Counter::Recovery);
        let (mut checker, mut report) = match resumed {
            Some((store, (mut checker, report))) => {
                checker.log = CommitLog {
                    store: Some(store),
                    base_commit_seq: report.base_commit_seq,
                    committed: report.base_commit_seq + report.replayed as u64,
                    ..CommitLog::default()
                };
                (checker, report)
            }
            // Every generation failed: serve the base document read-only
            // rather than refusing to come up at all.
            None => (
                Checker::from_shared(base_xml, shared)?,
                RecoveryReport { degraded: true, ..RecoveryReport::default() },
            ),
        };
        checker.degraded = report.degraded;
        report.fallbacks = rejected.len() as u64;
        report.fallback_reasons = rejected;
        Ok((checker, report))
    }

    /// Opens the checkpointed store at `dir` for `base_xml`: recovers it
    /// when the directory holds anything ([`Checker::recover_store`]),
    /// creates it fresh when it is missing or empty
    /// ([`Checker::attach_store`], with an empty report) — so a server
    /// restarted over the same directory resumes where it left off.
    pub fn open_store(
        dir: &Path,
        base_xml: &str,
        shared: &Arc<SharedGamma>,
        sync: bool,
    ) -> Result<(Checker, RecoveryReport), CheckerError> {
        // An empty directory cannot hold an acknowledged commit: a store
        // fsyncs its first segment's name before it accepts one.
        if std::fs::read_dir(dir).is_ok_and(|mut entries| entries.next().is_some()) {
            return Checker::recover_store(dir, base_xml, shared, sync);
        }
        let mut checker = Checker::from_shared(base_xml, shared)?;
        checker.attach_store(dir, sync)?;
        Ok((checker, RecoveryReport::default()))
    }
}

/// The caller's half of [`Store::recover`] for one candidate generation:
/// rebuilds its base as a checker, opens the segment keyed to that base
/// and replays it — commit versions must run consecutively from the
/// base's `commit_seq + 1`; abort records are skipped. Any error means
/// "fall back to an older generation".
fn replay_candidate(
    candidate: &mut Candidate<'_>,
    base_xml: &str,
    shared: &Arc<SharedGamma>,
) -> Result<(Checker, RecoveryReport), CheckerError> {
    let (mut checker, base_seq) = match &candidate.snapshot {
        None => (Checker::from_shared(base_xml, shared)?, 0),
        // The snapshot is a committed state whose integrity the crc
        // already vouches for; DTD validity is not re-imposed because
        // updates need not preserve it (journal replay from the base
        // document doesn't re-validate either).
        Some(ckpt) => {
            let (doc, _) = parse_document(&ckpt.doc_xml)
                .map_err(|e| CheckerError::Checkpoint(e.to_string()))?;
            (Checker::assemble(doc, Arc::clone(shared)), ckpt.commit_seq)
        }
    };
    let base_crc = crc32(serialize(checker.doc()).as_bytes());
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
    let doc = checker.doc_mut();
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
        if let Err((e, partial)) = apply(doc, &stmt, &xpath_resolver) {
            undo(doc, partial);
            return Err(CheckerError::Journal(format!("replay of record {expected} failed: {e}")));
        }
        report.replayed += 1;
    }
    Ok((checker, report))
}
