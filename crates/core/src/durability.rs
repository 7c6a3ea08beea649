//! Durability of a [`Checker`]: the commit log and crash recovery.
//!
//! A `CommitLog` owns everything a checker needs to make commits
//! durable — the write-ahead journal segment, the checkpointed store it
//! may be a generation of, the rotation policy, and the commit counters —
//! and every setting is given exactly once: the sync mode when the log is
//! attached or recovered (it is never changed afterwards), the retention
//! window is the constant [`xic_xml::checkpoint::DEFAULT_RETAIN`], and
//! only the rotation policy may be set later
//! ([`Checker::set_checkpoint_policy`]). Group commit does not flip the
//! sync mode either: it asks for a *deferred-sync scope*
//! (`Checker::with_deferred_sync`) — appends inside it are unsynced,
//! on whichever segment is live, a segment rotated in mid-scope included
//! — and then flushes once with [`Checker::sync_journal`].
//!
//! The recovery entry points ([`Checker::recover`],
//! [`Checker::recover_store`], [`Checker::open_store`]) live here too:
//! they are the other half of the same on-disk protocol.
//!
//! In `DESIGN.md`'s system inventory this is row 27.

use crate::checker::{Checker, CheckerError};
use crate::gamma::SharedGamma;
use crate::resolver::xpath_resolver;
use std::path::Path;
use std::sync::Arc;
use xic_xml::checkpoint::{fsync_dir, Store};
use xic_xml::journal::{crc32, Journal, RecordKind};
use xic_xml::{apply, parse_document, serialize, undo, Document, XUpdateDoc};

/// What [`Checker::recover`] / [`Checker::recover_store`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Commit records replayed onto the recovery base (the winning
    /// snapshot, or the external base document for generation 0).
    pub replayed: usize,
    /// Abort records skipped (rolled-back batches; nothing to replay).
    pub aborts_skipped: usize,
    /// True if a torn or corrupt tail was detected and truncated.
    pub torn_tail_truncated: bool,
    /// The generation that won recovery (0 = the external base document;
    /// plain [`Checker::recover`] always reports 0).
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

/// A checker's commit log: journal segment, optional checkpointed store,
/// rotation policy and commit counters. Without a journal it still
/// counts commits (the count is the service's snapshot version).
#[derive(Default)]
pub(crate) struct CommitLog {
    /// Write-ahead journal; when attached, every committed update is
    /// durable before the verdict is returned.
    journal: Option<Journal>,
    /// Checkpointed store the journal is a segment of.
    store: Option<Store>,
    /// Whether appends fsync per record outside a deferred-sync scope.
    /// Fixed when the log is attached or recovered.
    sync: bool,
    /// True inside a deferred-sync scope: the live segment — whichever
    /// it is by then — appends unsynced.
    deferred: bool,
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

    /// Enters (`true`) or leaves (`false`) the deferred-sync scope.
    /// Leaving restores the configured mode on the live segment; it does
    /// not flush — [`Checker::sync_journal`] does.
    pub(crate) fn defer_sync(&mut self, deferred: bool) {
        self.deferred = deferred;
        self.arm_segment();
    }

    /// Puts the live segment in the mode the log is currently in.
    fn arm_segment(&mut self) {
        let sync = self.sync && !self.deferred;
        if let Some(j) = self.journal.as_mut() {
            j.set_sync(sync);
        }
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
        let xml = serialize(doc);
        let journal =
            store.rotate(self.committed, &xml).map_err(|e| CheckerError::Checkpoint(e.to_string()))?;
        let generation = store.generation();
        self.journal = Some(journal);
        self.base_commit_seq = self.committed;
        // A rotation inside a deferred-sync scope must not bring
        // fsync-per-record back for the rest of the batch.
        self.arm_segment();
        Ok(generation)
    }

    /// Runs a due automatic rotation after a durable commit. Failures are
    /// swallowed: the old generation is still recoverable and the policy
    /// stays due, so the next commit retries.
    fn maybe_auto_checkpoint(&mut self, doc: &Document) {
        if self.store.is_none() {
            return;
        }
        let commits_in_segment = self.committed - self.base_commit_seq;
        let segment_bytes = self.journal.as_ref().map_or(0, Journal::byte_len);
        if self.policy.due(commits_in_segment, segment_bytes) {
            let _ = self.checkpoint(doc);
        }
    }

    /// Best-effort abort record: documents a rolled-back batch. Failure to
    /// append it is swallowed — the statement already failed, the document
    /// is restored, and replay skips aborts anyway.
    pub(crate) fn abort(&mut self, stmt: &XUpdateDoc) {
        let next = self.committed + 1;
        if let Some(j) = self.journal.as_mut() {
            let _ = j.append(RecordKind::Abort, next, &stmt.to_xml());
        }
    }

    /// Appends the commit record for `stmt`, which is already applied to
    /// `doc` in memory, fsync'ing (per the log's mode) before returning —
    /// i.e. before the caller sees the verdict — and then runs a due
    /// automatic rotation.
    pub(crate) fn commit(&mut self, stmt: &XUpdateDoc, doc: &Document) -> Result<(), CommitError> {
        let Some(journal) = self.journal.as_mut() else {
            // Still a commit: `committed()` counts committed statements
            // (and is the service's snapshot version) whether or not a
            // journal records them.
            self.committed += 1;
            return Ok(());
        };
        let next = self.committed + 1;
        let append = match xic_faults::fire("checker.commit.pre") {
            Err(e) => Err(xic_xml::JournalError::from(e)),
            Ok(()) => journal.append(RecordKind::Commit, next, &stmt.to_xml()),
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
    /// Attaches a write-ahead journal at `path` (created/truncated),
    /// stamped with a checksum of the *current* document state — the base
    /// the journal replays onto. From now on every statement committed by
    /// [`Checker::try_update`] / [`Checker::apply_unchecked`] is appended
    /// (and, with `sync`, fsync'd) before the verdict is returned. The
    /// mode is fixed here; nothing changes it afterwards.
    ///
    /// To recover after a crash, call [`Checker::recover`] with the same
    /// base document text.
    pub fn attach_journal(&mut self, path: &Path, sync: bool) -> Result<(), CheckerError> {
        self.refuse_if_degraded()?;
        let base_crc = crc32(serialize(&self.doc).as_bytes());
        let journal = Journal::create(path, base_crc, sync)
            .map_err(|e| CheckerError::Journal(e.to_string()))?;
        // The commit counters restart at 0; the rotation policy is kept.
        self.log =
            CommitLog { journal: Some(journal), sync, policy: self.log.policy, ..CommitLog::default() };
        Ok(())
    }

    /// Attaches a *checkpointed store* at directory `dir` (created if
    /// absent, **wiped of a previous incarnation's generations** if not —
    /// use [`Checker::open_store`] to resume one): generation 0 starts as
    /// a fresh journal segment keyed to the current document state, and
    /// [`Checker::checkpoint`] (or the automatic [`CheckpointPolicy`])
    /// rotates to snapshot-backed generations from there, keeping
    /// [`xic_xml::checkpoint::DEFAULT_RETAIN`] of them. Every segment
    /// fsyncs per record iff `sync`. Recover with
    /// [`Checker::recover_store`].
    pub fn attach_store(&mut self, dir: &Path, sync: bool) -> Result<(), CheckerError> {
        self.refuse_if_degraded()?;
        let base_crc = crc32(serialize(&self.doc).as_bytes());
        let (store, journal) = Store::create(dir, base_crc, sync)
            .map_err(|e| CheckerError::Checkpoint(e.to_string()))?;
        self.log = CommitLog {
            journal: Some(journal),
            store: Some(store),
            sync,
            policy: self.log.policy,
            ..CommitLog::default()
        };
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
        self.log.defer_sync(true);
        let result = batch(self);
        self.log.defer_sync(false);
        result
    }

    /// Flushes every appended-but-unsynced journal record to stable
    /// storage with one fsync (no-op without a journal). This is the
    /// group-commit flush point (see DESIGN.md row 19).
    pub fn sync_journal(&mut self) -> Result<(), CheckerError> {
        match self.log.journal.as_mut() {
            None => Ok(()),
            Some(j) => j.sync_now().map_err(|e| CheckerError::Journal(e.to_string())),
        }
    }

    /// Rebuilds a checker after a crash: parses the *base* document (the
    /// state the journal was attached on), scans the journal at `journal`
    /// — truncating any torn tail — and replays the committed records in
    /// order. Abort records are skipped. The journal is left attached, so
    /// the recovered checker resumes journaling where the crashed one
    /// stopped — always with **fsync-per-record**, whatever mode the
    /// crashed process ran in: that mode lived only in the lost process,
    /// a bare journal has nowhere to restate it, and the conservative
    /// choice cannot lose acknowledged commits. (A store takes the mode
    /// at recovery: [`Checker::recover_store`].)
    ///
    /// Fails with [`CheckerError::Journal`] if the base document does not
    /// match the journal's base checksum (e.g. a snapshot newer than the
    /// journal head), or if records are out of sequence or unreplayable.
    pub fn recover(
        xml: &str,
        dtd: &str,
        constraints: &str,
        journal: &Path,
    ) -> Result<(Checker, RecoveryReport), CheckerError> {
        let mut checker = Checker::new(xml, dtd, constraints)?;
        let base_crc = crc32(serialize(checker.doc()).as_bytes());
        let recovered = Journal::recover(journal, Some(base_crc))
            .map_err(|e| CheckerError::Journal(e.to_string()))?;
        let (replayed, aborts_skipped) = replay_into(&mut checker, &recovered.records, 0)?;
        checker.log = CommitLog {
            journal: Some(recovered.journal),
            sync: true,
            committed: replayed as u64,
            ..CommitLog::default()
        };
        xic_obs::incr(xic_obs::Counter::Recovery);
        Ok((
            checker,
            RecoveryReport {
                replayed,
                aborts_skipped,
                torn_tail_truncated: recovered.torn,
                ..RecoveryReport::default()
            },
        ))
    }

    /// Rebuilds a checker from a checkpointed store directory (see
    /// [`Checker::attach_store`]) over an already-compiled Γ, preferring
    /// the **newest valid checkpoint** and replaying only the journal
    /// suffix recorded since it — recovery cost is bounded by the
    /// rotation interval, not the full committed history, and (Γ being
    /// shared) not by constraint compilation either: a
    /// [`crate::shards::ShardSet`] compiles Γ once and fans this out
    /// across its shard directories.
    ///
    /// When the newest generation fails validation (corrupt snapshot,
    /// mismatched or unreplayable segment), recovery falls back
    /// generation by generation — each fallback is counted and its reason
    /// recorded in the [`RecoveryReport`] — ending at generation 0: the
    /// external `base_xml` plus its original segment. If *no* generation
    /// validates, the checker comes up in **degraded read-only mode**
    /// serving `check_full`/`decide_only` against the base document while
    /// refusing mutations ([`CheckerError::Degraded`]), instead of
    /// erroring out entirely.
    ///
    /// The recovered store resumes fsync'ing per record iff `sync` — the
    /// crashed process's mode lived only in that process, so the caller
    /// restates it exactly as for [`Checker::attach_store`]. Recovery
    /// itself always fsyncs what it writes.
    pub fn recover_store(
        dir: &Path,
        base_xml: &str,
        shared: &Arc<SharedGamma>,
        sync: bool,
    ) -> Result<(Checker, RecoveryReport), CheckerError> {
        let mut fallback_reasons: Vec<String> = Vec::new();
        let mut candidates = Store::snapshot_generations(dir);
        candidates.push(0); // the external base document is the final fallback
        for g in candidates {
            match Checker::recover_generation(dir, g, base_xml, shared, sync) {
                Ok((checker, mut report)) => {
                    report.fallbacks = fallback_reasons.len() as u64;
                    report.fallback_reasons = fallback_reasons;
                    xic_obs::incr(xic_obs::Counter::Recovery);
                    return Ok((checker, report));
                }
                Err(e) => {
                    xic_obs::incr(xic_obs::Counter::RecoveryGenerationFallback);
                    fallback_reasons.push(format!("generation {g}: {e}"));
                }
            }
        }
        // Every generation failed: serve the base document read-only
        // rather than refusing to come up at all.
        let mut checker = Checker::from_shared(base_xml, shared)?;
        checker.degraded = true;
        xic_obs::incr(xic_obs::Counter::Recovery);
        let report = RecoveryReport {
            degraded: true,
            fallbacks: fallback_reasons.len() as u64,
            fallback_reasons,
            ..RecoveryReport::default()
        };
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

    /// Attempts recovery from one specific generation; any error means
    /// "fall back to an older one".
    fn recover_generation(
        dir: &Path,
        generation: u64,
        base_xml: &str,
        shared: &Arc<SharedGamma>,
        sync: bool,
    ) -> Result<(Checker, RecoveryReport), CheckerError> {
        let (mut checker, base_seq) = if generation == 0 {
            (Checker::from_shared(base_xml, shared)?, 0)
        } else {
            let ckpt = xic_xml::checkpoint::read(&Store::ckpt_path(dir, generation))
                .map_err(|e| CheckerError::Checkpoint(e.to_string()))?;
            // The snapshot is a committed state whose integrity the crc
            // already vouches for; DTD validity is not re-imposed because
            // updates need not preserve it (journal replay from the base
            // document doesn't re-validate either).
            let (doc, _) =
                parse_document(&ckpt.doc_xml).map_err(|e| CheckerError::Checkpoint(e.to_string()))?;
            (Checker::assemble(doc, Arc::clone(shared)), ckpt.commit_seq)
        };
        let base_crc = crc32(serialize(checker.doc()).as_bytes());
        let wal = Store::wal_path(dir, generation);
        let (journal, records, torn) = if generation > 0 && !wal.exists() {
            // Crash between the snapshot's dir-fsync and the segment
            // create: the snapshot is durable with an empty suffix, so
            // start its segment now. But the same on-disk shape is left
            // by a *failed* rotation whose best-effort orphan unlink
            // didn't stick while commits kept flowing to the old
            // segment — accepting the snapshot then would silently
            // discard those acknowledged commits. Cross-check the older
            // segments first and fall back if any holds a commit past
            // the snapshot's sequence number.
            if let Some((og, v)) = newest_commit_in_older_segments(dir, generation, base_seq) {
                return Err(CheckerError::Checkpoint(format!(
                    "snapshot at commit {base_seq} has no segment while generation {og}'s \
                     segment holds committed version {v}; treating it as a failed-rotation \
                     orphan"
                )));
            }
            let j = Journal::create(&wal, base_crc, sync)
                .map_err(|e| CheckerError::Journal(e.to_string()))?;
            // Mirror rotation protocol step 5: without a directory fsync
            // an OS crash could drop the fresh segment's name — and every
            // commit appended to it — while the snapshot survives,
            // re-entering this path and losing those commits.
            fsync_dir(dir).map_err(|e| CheckerError::Journal(e.to_string()))?;
            (j, Vec::new(), false)
        } else {
            let rec = Journal::recover(&wal, Some(base_crc))
                .map_err(|e| CheckerError::Journal(e.to_string()))?;
            (rec.journal, rec.records, rec.torn)
        };
        let (replayed, aborts_skipped) = replay_into(&mut checker, &records, base_seq)?;
        checker.log = CommitLog {
            journal: Some(journal),
            store: Some(Store::resume(dir, generation, sync)),
            sync,
            base_commit_seq: base_seq,
            committed: base_seq + replayed as u64,
            ..CommitLog::default()
        };
        checker.log.arm_segment();
        Ok((
            checker,
            RecoveryReport {
                replayed,
                aborts_skipped,
                torn_tail_truncated: torn,
                generation,
                base_commit_seq: base_seq,
                ..RecoveryReport::default()
            },
        ))
    }
}

/// Scans the segments of generations older than `generation` for commit
/// records with versions past `commit_seq`, returning the generation and
/// highest such version found. A hit means `generation`'s snapshot is a
/// failed-rotation orphan: commits were durably acknowledged on an older
/// segment *after* the snapshot was taken, so recovering the snapshot
/// with an empty suffix would discard them. Unreadable segments prove
/// nothing and are skipped (their own recovery attempt will surface the
/// problem).
fn newest_commit_in_older_segments(
    dir: &Path,
    generation: u64,
    commit_seq: u64,
) -> Option<(u64, u64)> {
    let mut newest: Option<(u64, u64)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(g) = name
            .strip_prefix("gen-")
            .and_then(|rest| rest.strip_suffix(".wal"))
            .and_then(|g| g.parse::<u64>().ok())
        else {
            continue;
        };
        if g >= generation {
            continue;
        }
        // Versions matter here, not the base document, so skip the
        // base-crc expectation. (`Journal::recover` truncates a torn
        // tail in passing — exactly what recovering this segment as a
        // fallback would do anyway.)
        let Ok(rec) = Journal::recover(&entry.path(), None) else { continue };
        let max = rec
            .records
            .iter()
            .filter(|r| matches!(r.kind, RecordKind::Commit))
            .map(|r| r.version)
            .max();
        if let Some(v) = max {
            if v > commit_seq && newest.is_none_or(|(_, best)| v > best) {
                newest = Some((g, v));
            }
        }
    }
    newest
}

/// Replays journal records onto `checker`'s document. Commit versions
/// must run `base_seq + 1, base_seq + 2, …` consecutively (the recovery
/// base already contains the first `base_seq` statements); abort records
/// are skipped. Returns `(replayed, aborts_skipped)`.
fn replay_into(
    checker: &mut Checker,
    records: &[xic_xml::JournalRecord],
    base_seq: u64,
) -> Result<(usize, usize), CheckerError> {
    let doc = checker.doc_mut();
    let mut replayed = 0usize;
    let mut aborts_skipped = 0usize;
    for rec in records {
        match rec.kind {
            RecordKind::Abort => aborts_skipped += 1,
            RecordKind::Commit => {
                let expected = base_seq + replayed as u64 + 1;
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
                    return Err(CheckerError::Journal(format!(
                        "replay of record {expected} failed: {e}"
                    )));
                }
                replayed += 1;
            }
        }
    }
    // The replayed statements bypassed per-commit trust maintenance;
    // re-derive the nesting-trust bit from the final state in one walk.
    checker.refresh_nesting_trust();
    Ok((replayed, aborts_skipped))
}
