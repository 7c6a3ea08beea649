//! Sharded multi-document store: N independent documents, one compiled Γ.
//!
//! Everything below the [`ShardSet`] is still the single-document stack —
//! each shard owns its own [`Checker`], generation-numbered
//! journal+checkpoint [`Store`][xic_xml::checkpoint::Store] pair, and
//! single-writer commit stream (a [`CheckerService`]). What the shards
//! *share* is the expensive read-only part: one [`SharedGamma`] (denials
//! mapped, simplified, translated, parsed and IR-compiled exactly once)
//! and one [`PatternCache`] (an update pattern compiled on any shard is
//! adopted by every sibling). The paper's simplification machinery is
//! document-local, so a shard is the natural unit of both scale and
//! failure containment.
//!
//! **Fault isolation is the headline.** A shard that poisons (contained
//! panic), degrades (journal unwritable) or exhausts its fsync retry
//! budget is isolated: sibling shards keep serving reads and writes,
//! [`ShardSet::health`] reports per-shard state, and
//! [`ShardSet::recover_shard`] rebuilds just the victim from its own
//! store directory — replaying only that shard's generations — while the
//! others stay online. After a whole-process crash,
//! [`ShardSet::recover`] fans recovery out across shards in parallel
//! scoped threads; the per-shard [`RecoveryReport`]s are aggregated into
//! a [`ShardSetRecoveryReport`] with per-shard fallback reasons.
//! Parallel and sequential fan-out recover byte-identical states (the
//! shard-level crash matrix in `xic-difftest` asserts this).
//!
//! On disk a shard set is a root directory holding one store directory
//! per shard and nothing else:
//!
//! ```text
//! root/
//!   shard-0/ gen-0.wal gen-3.ckpt gen-3.wal ...
//!   shard-1/ gen-0.wal ...
//!   ...
//! ```
//!
//! The root layout is validated on open exactly like a single store
//! directory ([`CheckpointError::ForeignEntry`]): an entry that is not
//! `shard-<index>` for a configured shard is refused by name rather than
//! silently coexisted with.
//!
//! In `DESIGN.md`'s system inventory this is row 24 (*Sharding and
//! fault isolation*); the wire protocol's `DOC <id>` routing is
//! specified with the rest of the grammar in [`crate::protocol`].
//!
//! [`CheckpointError::ForeignEntry`]: xic_xml::CheckpointError

use crate::checker::{Checker, CheckerError};
use crate::durability::{CheckpointPolicy, RecoveryReport};
use crate::gamma::SharedGamma;
use crate::optimized::PatternCache;
use crate::service::{
    CheckerService, Health, ReadSnapshot, ServiceConfig, ServiceError, ServiceStats,
    SubmitOutcome,
};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

/// Configuration shared by every shard of a [`ShardSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSetConfig {
    /// Per-shard service configuration (executor, admission bound,
    /// default deadline, fsync attempts). Every shard gets its own
    /// writer under this configuration.
    pub service: ServiceConfig,
    /// Whether each shard's journal fsyncs per record: handed to
    /// [`Checker::open_store`] / [`Checker::recover_store`] every time a
    /// shard's store is opened, and nowhere else.
    pub sync: bool,
    /// Automatic checkpoint-rotation policy applied to every shard (see
    /// [`Checker::set_checkpoint_policy`]; the default never rotates
    /// automatically).
    pub policy: CheckpointPolicy,
}

impl Default for ShardSetConfig {
    fn default() -> ShardSetConfig {
        ShardSetConfig {
            service: ServiceConfig::default(),
            sync: true,
            policy: CheckpointPolicy::default(),
        }
    }
}

/// A shard-set failure, always naming the shard (or root entry) at
/// fault so one bad shard stays attributable.
#[derive(Debug)]
pub enum ShardSetError {
    /// Compiling the shared constraint set failed (before any shard
    /// existed).
    Compile(CheckerError),
    /// A per-shard checker operation failed.
    Shard {
        /// The shard at fault.
        id: usize,
        /// The underlying failure.
        source: CheckerError,
    },
    /// A per-shard service operation failed.
    Service {
        /// The shard at fault.
        id: usize,
        /// The underlying failure.
        source: ServiceError,
    },
    /// A request named a shard the set does not have.
    NoSuchShard {
        /// The requested shard id.
        id: usize,
        /// How many shards the set holds.
        count: usize,
    },
    /// The root directory contains an entry that is not a configured
    /// `shard-<index>` directory; the set refuses to open over it (the
    /// shard-level analogue of
    /// [`CheckpointError::ForeignEntry`][xic_xml::CheckpointError]).
    ForeignEntry {
        /// The root directory.
        dir: PathBuf,
        /// The offending entry name.
        name: String,
    },
    /// Filesystem failure outside any single store's own error paths.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The I/O error text.
        message: String,
    },
}

impl fmt::Display for ShardSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardSetError::Compile(e) => write!(f, "constraint compilation failed: {e}"),
            ShardSetError::Shard { id, source } => write!(f, "shard {id}: {source}"),
            ShardSetError::Service { id, source } => write!(f, "shard {id}: {source}"),
            ShardSetError::NoSuchShard { id, count } => {
                write!(f, "no shard {id}: the set holds {count} shard(s)")
            }
            ShardSetError::ForeignEntry { dir, name } => write!(
                f,
                "shard root {} contains unrecognized entry {name:?}; refusing to open \
                 (a shard root must hold only shard-<index> directories for its \
                 configured shards)",
                dir.display()
            ),
            ShardSetError::Io { path, message } => {
                write!(f, "shard-set I/O error at {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for ShardSetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardSetError::Compile(e) | ShardSetError::Shard { source: e, .. } => Some(e),
            ShardSetError::Service { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

/// One shard's point-in-time state, as reported by
/// [`ShardSet::health`] / the protocol's shard-aware `HEALTH`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStatus {
    /// The shard id (its `shard-<id>` directory index).
    pub id: usize,
    /// The shard's service health.
    pub health: Health,
    /// The shard's committed-statement count (snapshot version).
    pub version: u64,
}

/// Per-shard health of the whole set (the shard-level state machine:
/// healthy → degraded/poisoned → recovered, per shard, independently).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// One status per shard, in shard-id order.
    pub shards: Vec<ShardStatus>,
}

/// Severity rank for aggregation (higher is worse).
fn severity(h: Health) -> u8 {
    match h {
        Health::Ok => 0,
        Health::Degraded => 1,
        Health::Poisoned => 2,
        Health::Draining => 3,
    }
}

impl ShardHealth {
    /// The worst health across the set (`Ok` for an empty set): one
    /// sick shard makes the aggregate report it, but — unlike the
    /// pre-shard architecture — does not make it true of the siblings.
    pub fn overall(&self) -> Health {
        self.shards
            .iter()
            .map(|s| s.health)
            .max_by_key(|h| severity(*h))
            .unwrap_or(Health::Ok)
    }

    /// The wire rendering: the overall word followed by one
    /// `shard-<id>=<health>` field per shard.
    pub fn summary(&self) -> String {
        let mut out = self.overall().as_str().to_string();
        for s in &self.shards {
            out.push_str(&format!(" shard-{}={}", s.id, s.health.as_str()));
        }
        out
    }
}

/// What [`ShardSet::recover`] found, shard by shard.
#[derive(Debug, Clone, Default)]
pub struct ShardSetRecoveryReport {
    /// Per-shard reports, in shard-id order (each carries its own
    /// winning generation, replay count and fallback reasons).
    pub shards: Vec<RecoveryReport>,
    /// Whether recovery fanned out across scoped threads (`true`) or
    /// ran shard-by-shard (`false`). The recovered state is identical
    /// either way.
    pub parallel: bool,
}

impl ShardSetRecoveryReport {
    /// Total commit records replayed across all shards.
    pub fn total_replayed(&self) -> usize {
        self.shards.iter().map(|r| r.replayed).sum()
    }

    /// Ids of shards that came up degraded (no generation validated).
    pub fn degraded_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.degraded.then_some(i))
            .collect()
    }
}

/// True when `name` is a well-formed shard directory name
/// (`shard-<digits>`); returns the parsed index.
fn parse_shard_dir(name: &str) -> Option<usize> {
    let rest = name.strip_prefix("shard-")?;
    if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// The canonical directory for shard `id` under `root`.
fn shard_dir(root: &Path, id: usize) -> PathBuf {
    root.join(format!("shard-{id}"))
}

/// Refuses a root directory holding anything but `shard-<index>`
/// directories for indices `< count` (missing shard directories are
/// fine — they are created or recovered as empty).
fn validate_root(root: &Path, count: usize) -> Result<(), ShardSetError> {
    if !root.exists() {
        return Ok(());
    }
    let entries = std::fs::read_dir(root)
        .map_err(|e| ShardSetError::Io { path: root.to_path_buf(), message: e.to_string() })?;
    for entry in entries {
        let entry = entry
            .map_err(|e| ShardSetError::Io { path: root.to_path_buf(), message: e.to_string() })?;
        let name = entry.file_name().to_string_lossy().into_owned();
        match parse_shard_dir(&name) {
            Some(id) if id < count => {}
            _ => {
                return Err(ShardSetError::ForeignEntry { dir: root.to_path_buf(), name });
            }
        }
    }
    Ok(())
}

/// Puts a shard's checker — its store already open — in service under
/// the set's configuration: rotation policy, the cross-shard pattern
/// store, one writer.
fn start_shard(
    mut checker: Checker,
    patterns: &Arc<PatternCache>,
    config: &ShardSetConfig,
) -> Arc<CheckerService> {
    checker.set_checkpoint_policy(config.policy);
    checker.set_pattern_cache(Arc::clone(patterns));
    CheckerService::with_config(checker, config.service)
}

/// One shard's slot: its store directory, its recovery base document,
/// and the currently live service. The service is behind a lock so
/// [`ShardSet::recover_shard`] can swap in a replacement while sibling
/// shards (other slots) stay untouched.
struct ShardSlot {
    dir: PathBuf,
    base_xml: String,
    service: RwLock<Arc<CheckerService>>,
}

/// N single-writer document shards sharing one compiled constraint set
/// (see the [module docs](self)).
pub struct ShardSet {
    gamma: Arc<SharedGamma>,
    patterns: Arc<PatternCache>,
    config: ShardSetConfig,
    shards: Vec<ShardSlot>,
}

impl ShardSet {
    /// Creates a fresh shard set under `root`: compiles Γ once from
    /// `dtd` + `constraints`, then creates one store directory and one
    /// service per base document in `base_xmls` (shard `i` serves
    /// `base_xmls[i]` out of `root/shard-<i>`). The root must hold
    /// nothing but (possibly pre-existing) `shard-<index>` directories
    /// for the configured shards.
    pub fn create(
        root: &Path,
        base_xmls: &[&str],
        dtd: &str,
        constraints: &str,
        config: ShardSetConfig,
    ) -> Result<ShardSet, ShardSetError> {
        let gamma = SharedGamma::compile(dtd, constraints).map_err(ShardSetError::Compile)?;
        ShardSet::create_shared(root, base_xmls, &gamma, config)
    }

    /// [`ShardSet::create`] over an already-compiled Γ.
    pub fn create_shared(
        root: &Path,
        base_xmls: &[&str],
        gamma: &Arc<SharedGamma>,
        config: ShardSetConfig,
    ) -> Result<ShardSet, ShardSetError> {
        validate_root(root, base_xmls.len())?;
        let patterns = PatternCache::new();
        let mut shards = Vec::with_capacity(base_xmls.len());
        for (id, xml) in base_xmls.iter().enumerate() {
            let dir = shard_dir(root, id);
            let mut checker = Checker::from_shared(xml, gamma)
                .map_err(|source| ShardSetError::Shard { id, source })?;
            checker
                .attach_store(&dir, config.sync)
                .map_err(|source| ShardSetError::Shard { id, source })?;
            shards.push(ShardSlot {
                dir,
                base_xml: (*xml).to_string(),
                service: RwLock::new(start_shard(checker, &patterns, &config)),
            });
        }
        Ok(ShardSet {
            gamma: Arc::clone(gamma),
            patterns,
            config,
            shards,
        })
    }

    /// Rebuilds a shard set from its on-disk root after a crash: Γ is
    /// compiled once, the root layout validated, and every shard
    /// recovered from its own generations ([`Checker::open_store`] per
    /// shard — each replays only its own journal suffix). With
    /// `parallel` the per-shard recoveries fan out across scoped
    /// threads, one per shard; the recovered state is byte-identical to
    /// the sequential fan-out (the shard crash matrix asserts this), so
    /// `parallel` is purely a wall-clock knob. A shard whose directory
    /// does not exist yet is created fresh from its base document.
    ///
    /// Recovery is *per-shard resilient*: a shard whose generations all
    /// fail validation comes up degraded (read-only over its base
    /// document, with reasons in its [`RecoveryReport`]) instead of
    /// failing the whole set.
    pub fn recover(
        root: &Path,
        base_xmls: &[&str],
        dtd: &str,
        constraints: &str,
        config: ShardSetConfig,
        parallel: bool,
    ) -> Result<(ShardSet, ShardSetRecoveryReport), ShardSetError> {
        let gamma = SharedGamma::compile(dtd, constraints).map_err(ShardSetError::Compile)?;
        ShardSet::recover_shared(root, base_xmls, &gamma, config, parallel)
    }

    /// [`ShardSet::recover`] over an already-compiled Γ.
    pub fn recover_shared(
        root: &Path,
        base_xmls: &[&str],
        gamma: &Arc<SharedGamma>,
        config: ShardSetConfig,
        parallel: bool,
    ) -> Result<(ShardSet, ShardSetRecoveryReport), ShardSetError> {
        validate_root(root, base_xmls.len())?;
        let recover_one = |id: usize, xml: &str| -> Result<(Checker, RecoveryReport), ShardSetError> {
            // A shard that was never written comes up fresh, exactly as
            // `create` would bring it up.
            Checker::open_store(&shard_dir(root, id), xml, gamma, config.sync)
                .map_err(|source| ShardSetError::Shard { id, source })
        };
        let results: Vec<Result<(Checker, RecoveryReport), ShardSetError>> = if parallel {
            std::thread::scope(|scope| {
                let handles: Vec<_> = base_xmls
                    .iter()
                    .enumerate()
                    .map(|(id, xml)| {
                        let recover_one = &recover_one;
                        scope.spawn(move || recover_one(id, xml))
                    })
                    .collect();
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(id, handle)| {
                        handle.join().unwrap_or_else(|payload| {
                            Err(ShardSetError::Shard {
                                id,
                                source: CheckerError::Panicked(crate::checker::panic_message(
                                    payload.as_ref(),
                                )),
                            })
                        })
                    })
                    .collect()
            })
        } else {
            base_xmls.iter().enumerate().map(|(id, xml)| recover_one(id, xml)).collect()
        };
        let patterns = PatternCache::new();
        let mut shards = Vec::with_capacity(base_xmls.len());
        let mut reports = Vec::with_capacity(base_xmls.len());
        for (id, result) in results.into_iter().enumerate() {
            let (checker, report) = result?;
            shards.push(ShardSlot {
                dir: shard_dir(root, id),
                base_xml: base_xmls[id].to_string(),
                service: RwLock::new(start_shard(checker, &patterns, &config)),
            });
            reports.push(report);
        }
        Ok((
            ShardSet {
                gamma: Arc::clone(gamma),
                patterns,
                config,
                shards,
            },
            ShardSetRecoveryReport { shards: reports, parallel },
        ))
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True for a shard-less set.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The compiled constraint set every shard shares.
    pub fn gamma(&self) -> &Arc<SharedGamma> {
        &self.gamma
    }

    /// The cross-shard compiled-pattern cache.
    pub fn patterns(&self) -> &Arc<PatternCache> {
        &self.patterns
    }

    fn slot(&self, id: usize) -> Result<&ShardSlot, ShardSetError> {
        self.shards
            .get(id)
            .ok_or(ShardSetError::NoSuchShard { id, count: self.shards.len() })
    }

    /// The live service for shard `id` (an `Arc` clone; stays valid as
    /// a handle even if the shard is later recovered and replaced —
    /// fetch again to reach the replacement).
    pub fn shard(&self, id: usize) -> Result<Arc<CheckerService>, ShardSetError> {
        Ok(self.slot(id)?.service.read().expect("shard slot poisoned").clone())
    }

    /// The current read snapshot of shard `id`.
    pub fn snapshot(&self, id: usize) -> Result<Arc<ReadSnapshot>, ShardSetError> {
        Ok(self.shard(id)?.snapshot())
    }

    /// Submits an update to shard `id` (see [`CheckerService::submit`]).
    /// Shards commit independently — there are no cross-shard
    /// transactions, and a sick sibling cannot block this shard.
    pub fn submit(&self, id: usize, stmt: &str) -> Result<SubmitOutcome, ShardSetError> {
        self.shard(id)?.submit(stmt).map_err(|source| ShardSetError::Service { id, source })
    }

    /// Per-shard health, one status per shard. A poisoned or degraded
    /// shard shows up here without affecting any sibling's row.
    pub fn health(&self) -> ShardHealth {
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(id, slot)| {
                let service = slot.service.read().expect("shard slot poisoned");
                ShardStatus { id, health: service.health(), version: service.version() }
            })
            .collect();
        ShardHealth { shards }
    }

    /// One shard's status row.
    pub fn status(&self, id: usize) -> Result<ShardStatus, ShardSetError> {
        let service = self.shard(id)?;
        Ok(ShardStatus { id, health: service.health(), version: service.version() })
    }

    /// One shard's resilience counters.
    pub fn stats(&self, id: usize) -> Result<ServiceStats, ShardSetError> {
        Ok(self.shard(id)?.stats())
    }

    /// Rebuilds shard `id` from its own store directory and swaps the
    /// replacement in, leaving every sibling untouched: the old service
    /// is drained (its file handles released), the shard's generations
    /// are replayed ([`Checker::recover_store`] — newest valid
    /// generation wins, with per-generation fallback), and a fresh
    /// service goes live in the slot. This is how a *poisoned* shard
    /// rejoins the set — poisoning is sticky on a service, so recovery
    /// is replacement.
    ///
    /// Siblings' reads and writes proceed concurrently throughout; only
    /// requests routed to shard `id` wait (on the slot lock) for the
    /// swap.
    pub fn recover_shard(&self, id: usize) -> Result<RecoveryReport, ShardSetError> {
        let slot = self.slot(id)?;
        let mut guard = slot.service.write().expect("shard slot poisoned");
        // Drain the old service so its checker (and store file handles)
        // are dropped before the directory is re-opened. A second
        // shutdown reports Stopped; either way the old writer is gone.
        let _ = guard.shutdown();
        let (checker, report) =
            Checker::recover_store(&slot.dir, &slot.base_xml, &self.gamma, self.config.sync)
                .map_err(|source| ShardSetError::Shard { id, source })?;
        *guard = start_shard(checker, &self.patterns, &self.config);
        Ok(report)
    }

    /// Shuts every shard down in shard order, draining each queue. A
    /// shard that was already stopped is skipped; the first *other*
    /// failure is returned (after the remaining shards were still
    /// attempted).
    pub fn shutdown(&self) -> Result<(), ShardSetError> {
        let mut first_err = None;
        for (id, slot) in self.shards.iter().enumerate() {
            let service = slot.service.read().expect("shard slot poisoned").clone();
            match service.shutdown() {
                Ok(_) | Err(ServiceError::Stopped) => {}
                Err(source) => {
                    if first_err.is_none() {
                        first_err = Some(ShardSetError::Service { id, source });
                    }
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}
