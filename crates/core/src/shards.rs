//! Sharded multi-document store: N independent documents, one compiled Γ.
//! Every server is one, and a one-document server is a set of one.
//!
//! Everything below the [`ShardSet`] is still the single-document stack —
//! each shard owns its own [`Checker`], generation-numbered
//! journal+checkpoint [`Store`][xic_xml::checkpoint::Store] pair (none in
//! a set made [`ShardSet::in_memory`]), and single-writer commit stream
//! (a [`CheckerService`]). What the shards *share* is the expensive
//! read-only part: one [`SharedGamma`] (denials mapped, simplified,
//! translated, parsed and IR-compiled exactly once), and with it Γ's
//! pattern store (an update pattern compiled on any shard is adopted by
//! every sibling, a shard rebuilt by recovery included). The paper's
//! simplification machinery is
//! document-local, so a shard is the natural unit of both scale and
//! failure containment.
//!
//! **Fault isolation is the headline.** A shard that poisons (contained
//! panic) or degrades (a batch fsync failed) is isolated: sibling shards
//! keep serving reads and writes, [`ShardSet::health`] reports per-shard
//! state, and [`ShardSet::recover_shard`] rebuilds just the victim from
//! its own store directory — replaying only that shard's generations —
//! while the others stay online. After a whole-process crash,
//! [`ShardSet::recover`] fans recovery out across shards in parallel
//! scoped threads; the per-shard [`RecoveryReport`]s are aggregated into
//! a [`ShardSetRecoveryReport`] with per-shard fallback reasons.
//! Parallel and sequential fan-out recover byte-identical states (the
//! fault harness in `xic-difftest` asserts this).
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
use crate::durability::{Base, CheckpointPolicy, RecoveryReport};
use crate::gamma::SharedGamma;
use crate::optimized::PatternCache;
use crate::service::{
    CheckerService, Health, ReadSnapshot, ServiceConfig, ServiceError, ServiceStats,
    SubmitOutcome,
};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use xic_xml::dir::{self, Dir, Real};

/// The most scoped threads a parallel [`ShardSet::recover`] opens shards
/// on, however many shards there are: `--shards 100000` must not ask for
/// 100 000 threads at once. At least 16, so a 16-shard set still opens
/// every shard on a thread of its own.
const MAX_OPEN_WORKERS: usize = 32;

/// Runs `job` on every id of `0..n` over at most [`MAX_OPEN_WORKERS`]
/// scoped threads, each pulling the next id from a shared counter: the
/// results in id order, a job that panicked as its payload.
fn fan_out<T: Send>(n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<std::thread::Result<T>> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, std::thread::Result<T>)> = std::thread::scope(|scope| {
        let worker = || {
            let mut done = Vec::new();
            loop {
                let id = next.fetch_add(1, Ordering::Relaxed);
                if id >= n {
                    return done;
                }
                done.push((id, catch_unwind(AssertUnwindSafe(|| job(id)))));
            }
        };
        let workers: Vec<_> = (0..MAX_OPEN_WORKERS.min(n)).map(|_| scope.spawn(worker)).collect();
        workers.into_iter().flat_map(|w| w.join().expect("a worker catches its jobs' panics")).collect()
    });
    done.sort_unstable_by_key(|(id, _)| *id);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Configuration shared by every shard of a [`ShardSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSetConfig {
    /// Per-shard service configuration (executor, admission bound,
    /// default deadline). Every shard gets its own service, and so its own
    /// commit lock, under this configuration.
    pub service: ServiceConfig,
    /// Whether each shard's store fsyncs at its flush point (once per
    /// batch): handed to [`Checker::attach_store`] /
    /// [`Checker::open_store`] every time a shard's store is opened, and
    /// nowhere else.
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
    /// [`ShardSet::recover_shard`] on a set with no store: there is
    /// nothing to replay the shard from.
    NoStore {
        /// The shard asked for.
        id: usize,
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
            ShardSetError::NoStore { id } => {
                write!(f, "shard {id} has no store to recover from (the set is in memory)")
            }
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
/// healthy → degraded/poisoned → replaced, per shard, independently).
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
fn validate_root(fs: &dyn Dir, root: &Path, count: usize) -> Result<(), ShardSetError> {
    let names = match fs.list(root) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        names => names.map_err(|e| io_error(root, e))?,
    };
    match names.into_iter().find(|name| parse_shard_dir(name).is_none_or(|id| id >= count)) {
        Some(name) => Err(ShardSetError::ForeignEntry { dir: root.to_path_buf(), name }),
        None => Ok(()),
    }
}

fn io_error(path: &Path, e: std::io::Error) -> ShardSetError {
    ShardSetError::Io { path: path.to_path_buf(), message: e.to_string() }
}

/// Puts a shard's checker — its store already open — in service under
/// the set's configuration: rotation policy, one commit lock.
fn start_shard(mut checker: Checker, config: &ShardSetConfig) -> Arc<CheckerService> {
    checker.set_checkpoint_policy(config.policy);
    CheckerService::with_config(checker, config.service)
}

/// One shard's slot: its recovery base document (one text shared by the
/// slots over it) and the currently live service. The service is behind
/// a lock so [`ShardSet::recover_shard`] can swap in a replacement while
/// sibling shards (other slots) stay untouched.
struct ShardSlot {
    base_xml: Arc<str>,
    service: RwLock<Arc<CheckerService>>,
}

/// One shard's checker as [`ShardSet::start`] opened it, with what its
/// store's recovery found (nothing, for a store it created).
type Opened = Result<(Checker, RecoveryReport), CheckerError>;

/// N single-writer document shards sharing one compiled constraint set
/// (see the [module docs](self)).
pub struct ShardSet {
    gamma: Arc<SharedGamma>,
    config: ShardSetConfig,
    /// Where every shard's store does its file I/O, and the root holding
    /// the shards' store directories (none in memory).
    store: Option<(Arc<dyn Dir>, PathBuf)>,
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
        ShardSet::create_in(Arc::new(Real), root, base_xmls, dtd, constraints, config)
    }

    /// [`ShardSet::create`] in `fs`: the set holds it, and every file
    /// operation of its root and its shards' stores — a shard rebuilt by
    /// [`ShardSet::recover_shard`] included — goes to it.
    pub fn create_in(
        fs: Arc<dyn Dir>,
        root: &Path,
        base_xmls: &[&str],
        dtd: &str,
        constraints: &str,
        config: ShardSetConfig,
    ) -> Result<ShardSet, ShardSetError> {
        let open = |id, base: &Base<'_>, gamma: &Arc<SharedGamma>| {
            let checker = base.create_store(Arc::clone(&fs), &shard_dir(root, id), gamma, config.sync)?;
            Ok((checker, RecoveryReport::default()))
        };
        ShardSet::start(Some((&fs, root)), base_xmls, dtd, constraints, config, false, open)
            .map(|(set, _)| set)
    }

    /// A shard set with no store: every document lives in memory, and a
    /// restart begins again from `base_xmls`. [`ShardSet::recover_shard`]
    /// answers [`ShardSetError::NoStore`].
    pub fn in_memory(
        base_xmls: &[&str],
        dtd: &str,
        constraints: &str,
        config: ShardSetConfig,
    ) -> Result<ShardSet, ShardSetError> {
        let open = |_, base: &Base<'_>, gamma: &Arc<SharedGamma>| {
            Ok((base.checker(gamma)?, RecoveryReport::default()))
        };
        ShardSet::start(None, base_xmls, dtd, constraints, config, false, open).map(|(set, _)| set)
    }

    /// Rebuilds a shard set from its on-disk root after a crash: Γ is
    /// compiled once, the root layout validated, and every shard
    /// recovered from its own generations ([`Checker::open_store`] per
    /// shard — each replays only its own journal suffix). With
    /// `parallel` the per-shard recoveries fan out across scoped
    /// threads, one per shard up to 32 shards, and 32 pulling shards off
    /// a counter past that; the recovered state is byte-identical to
    /// the sequential fan-out (the fault harness asserts this), so
    /// `parallel` is purely a wall-clock knob. A shard whose directory
    /// does not exist yet is created fresh from its base document.
    ///
    /// Recovery is *per-shard resilient*: a shard whose generations all
    /// fail validation, or whose store meets an I/O error, comes up
    /// degraded (read-only over its base document, with reasons in its
    /// [`RecoveryReport`]) instead of failing the whole set.
    pub fn recover(
        root: &Path,
        base_xmls: &[&str],
        dtd: &str,
        constraints: &str,
        config: ShardSetConfig,
        parallel: bool,
    ) -> Result<(ShardSet, ShardSetRecoveryReport), ShardSetError> {
        let fs: Arc<dyn Dir> = Arc::new(Real);
        // A shard that was never written comes up fresh, exactly as
        // `create` would bring it up.
        let open = |id, base: &Base<'_>, gamma: &Arc<SharedGamma>| {
            Checker::open_base(Arc::clone(&fs), &shard_dir(root, id), base, gamma, config.sync)
        };
        let (set, shards) =
            ShardSet::start(Some((&fs, root)), base_xmls, dtd, constraints, config, parallel, open)?;
        Ok((set, ShardSetRecoveryReport { shards, parallel }))
    }

    /// Compiles Γ, opens shard `i` over `base_xmls[i]` with `open` — on
    /// up to [`MAX_OPEN_WORKERS`] scoped threads when `parallel` — and puts
    /// every shard in service, its store directory under `root` in `fs` if
    /// the set has one (the root validated first, every missing shard
    /// directory created, and on every start the names made durable
    /// before the set serves, see [`dir::create_dirs`]). Each
    /// distinct base text is held once and built at most once, by the
    /// first shard that needs it, and every shard over it starts from a
    /// clone of that build; the builds are dropped once every shard is
    /// open.
    fn start(
        store: Option<(&Arc<dyn Dir>, &Path)>,
        base_xmls: &[&str],
        dtd: &str,
        constraints: &str,
        config: ShardSetConfig,
        parallel: bool,
        open: impl Fn(usize, &Base<'_>, &Arc<SharedGamma>) -> Opened + Sync,
    ) -> Result<(ShardSet, Vec<RecoveryReport>), ShardSetError> {
        store.map_or(Ok(()), |(fs, root)| validate_root(&**fs, root, base_xmls.len()))?;
        let gamma = SharedGamma::compile(dtd, constraints).map_err(ShardSetError::Compile)?;
        // A set that syncs makes the directories' names durable before it serves.
        let mut to_sync = Vec::new();
        if let Some((fs, root)) = store {
            let dirs: Vec<PathBuf> = (0..base_xmls.len()).map(|id| shard_dir(root, id)).collect();
            to_sync = dir::create_dirs(&**fs, root, &dirs, config.sync).map_err(|e| io_error(root, e))?;
        }
        // `texts[of[i]]` is shard `i`'s base text.
        let (mut texts, mut seen): (Vec<Arc<str>>, HashMap<&str, usize>) = Default::default();
        let of: Vec<usize> = base_xmls
            .iter()
            .map(|&xml| {
                *seen.entry(xml).or_insert_with(|| {
                    texts.push(xml.into());
                    texts.len() - 1
                })
            })
            .collect();
        let bases: Vec<Base<'_>> = texts.iter().map(|xml| Base::new(xml)).collect();
        let open_one = |id: usize| open(id, &bases[of[id]], &gamma);
        let (opened, synced): (Vec<Opened>, _) = std::thread::scope(|scope| {
            // The names are fsynced while the shards open, so that the
            // fsyncs share the disk's flushes; nothing is acknowledged
            // before the set serves.
            let synced = store.filter(|_| !to_sync.is_empty()).map(|(fs, _)| {
                scope.spawn(|| {
                    to_sync.iter().try_for_each(|dir| fs.sync_dir(dir).map_err(|e| io_error(dir, e)))
                })
            });
            let opened = if parallel {
                fan_out(base_xmls.len(), open_one)
                    .into_iter()
                    .map(|opened| {
                        opened.unwrap_or_else(|payload| {
                            let message = crate::checker::panic_message(payload.as_ref());
                            Err(CheckerError::Panicked(message))
                        })
                    })
                    .collect()
            } else {
                (0..base_xmls.len()).map(open_one).collect()
            };
            (opened, synced.map_or(Ok(()), |h| h.join().expect("an fsync does not panic")))
        });
        synced?;
        // Every shard holds what it shares of a build: nothing pins the rest.
        drop(bases);
        let mut shards = Vec::with_capacity(base_xmls.len());
        let mut reports = Vec::with_capacity(base_xmls.len());
        for (id, result) in opened.into_iter().enumerate() {
            let (checker, report) = result.map_err(|source| ShardSetError::Shard { id, source })?;
            shards.push(ShardSlot {
                base_xml: Arc::clone(&texts[of[id]]),
                service: RwLock::new(start_shard(checker, &config)),
            });
            reports.push(report);
        }
        let store = store.map(|(fs, root)| (Arc::clone(fs), root.to_path_buf()));
        Ok((ShardSet { gamma, config, store, shards }, reports))
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

    /// The compiled-pattern store every shard shares: Γ's
    /// ([`SharedGamma::patterns`]).
    pub fn patterns(&self) -> &PatternCache {
        self.gamma.patterns()
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
    /// is drained (its file handles released), the shard's store is
    /// reopened in the set's `Dir` as a restart reopens it
    /// ([`Checker::open_store`]: newest valid generation first, and a
    /// checkpoint before the first write appends), and a fresh service
    /// goes live in the slot. This is how a
    /// *poisoned* or *degraded* shard rejoins the set — both are sticky
    /// on a service, so recovery is replacement. If reopening fails, the
    /// error is returned and the slot keeps the drained service (writes
    /// answer `ERR draining: …`) until a later call succeeds. A set with
    /// no store answers [`ShardSetError::NoStore`] and leaves the shard
    /// as it was.
    ///
    /// Siblings' reads and writes proceed concurrently throughout; only
    /// requests routed to shard `id` wait (on the slot lock) for the
    /// swap.
    pub fn recover_shard(&self, id: usize) -> Result<RecoveryReport, ShardSetError> {
        let slot = self.slot(id)?;
        let (fs, root) = self.store.as_ref().ok_or(ShardSetError::NoStore { id })?;
        let mut guard = slot.service.write().expect("shard slot poisoned");
        // Drain the old service so its checker (and store file handles)
        // are dropped before the directory is re-opened. A second
        // shutdown reports Stopped; either way the old checker is gone.
        let _ = guard.shutdown();
        let (dir, sync) = (shard_dir(root, id), self.config.sync);
        let reopened = Checker::open_store_in(Arc::clone(fs), &dir, &slot.base_xml, &self.gamma, sync);
        let (checker, report) = reopened.map_err(|source| ShardSetError::Shard { id, source })?;
        *guard = start_shard(checker, &self.config);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Three jobs for every worker the cap allows: each job runs once, its
    /// result lands at its id, and no more than the cap run at once.
    #[test]
    fn recovery_fans_out_over_at_most_the_cap() {
        let jobs = 3 * MAX_OPEN_WORKERS;
        let runs: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
        let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let results = fan_out(jobs, |id| {
            peak.fetch_max(running.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            runs[id].fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            running.fetch_sub(1, Ordering::SeqCst);
            id
        });
        let ids: Vec<usize> = results.into_iter().map(|r| r.expect("no job panics")).collect();
        assert_eq!(ids, (0..jobs).collect::<Vec<_>>());
        assert!(runs.iter().all(|n| n.load(Ordering::SeqCst) == 1));
        let peak = peak.load(Ordering::SeqCst);
        assert!((1..=MAX_OPEN_WORKERS).contains(&peak), "{peak} jobs ran at once");
    }
}
