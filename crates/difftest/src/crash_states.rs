//! `--crash-states`: the store over a simulated directory, crashed after
//! every file operation and failed at every one (DESIGN.md row 17).
//!
//! Everything a store writes goes through `xic_xml::dir::Dir`. `SimDir`
//! implements it in memory and records each operation with its
//! durability: a file's data becomes durable at its `sync_data`; a create,
//! rename or remove becomes durable at its directory's `sync_dir`. A power
//! loss after any operation may leave, of each file, its synced content
//! or any state it passed through since (half of an append included),
//! and of each directory its synced entries plus any prefix, in order, of
//! the entry operations since. Those are the crash states.
//!
//! A plan drives `Store`s as the checker does, over the layout a
//! `ShardSet` makes or one store directory of its own, each start naming
//! its directories through [`dir::create_dirs`], the function the set and
//! the checker call: appends, flushes with sync on or off, automatic and
//! explicit rotations, and restarts that recover a store and commit on (a
//! recovered store's first write rotates first). Each plan runs once as
//! written, and once more per operation of that run, with the operation
//! failing instead (an append after writing half its bytes); the plan
//! then goes on as the checker would — a set-up that failed starts again
//! over what it left, a failed append commits nothing, a failed flush
//! stops the shard, a failed rotation rolls back and commits go on. After
//! every operation of every run, every crash state of every shard is
//! recovered the way `Checker::open_store` does (created where
//! `Store::recover` finds nothing), and **the oracle** holds:
//!
//! * recovery restores `p` commits with `acked ≤ p ≤ committed` (+1 while
//!   an append is in flight), byte for byte the twin's document at `p`;
//! * every snapshot under its final name reads back complete;
//! * two more commits on the recovered store, flushed, survive the
//!   harshest power loss after them (nothing unsynced kept);
//! * a store call fails only with the injected error, and a restart over
//!   the live directory restores every commit.
//!
//! Crash states are deduplicated per shard, so each distinct one is
//! recovered once per run; the plans are small enough that the
//! enumeration is exhaustive.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Component, Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use xic_faults::Op;
use xic_xml::checkpoint::{self, Candidate, Recovery, Store};
use xic_xml::dir::{self, Dir, File};
use xic_xml::journal::{crc32, RecordKind};

use crate::{Config, Outcome};

/// The document every store starts from; a commit appends its statement.
const BASE: &str = "<base/>";

/// A bound no plan's crash states may pass at one path: beyond it the
/// enumeration would no longer be exhaustive, and the run fails.
const MAX_STATES: usize = 50_000;

/// A directory tree as a power loss leaves it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Tree {
    File(Vec<u8>),
    Dir(BTreeMap<String, Tree>),
}

#[derive(Debug, Clone)]
enum Node {
    /// A file: its synced content and every content it held since, in
    /// order (the last is the current one).
    File { durable: Vec<u8>, later: Vec<Vec<u8>> },
    /// A directory: its synced entries and the entry operations since.
    Dir { durable: BTreeMap<String, usize>, pending: Vec<Entry> },
}

#[derive(Debug, Clone)]
enum Entry {
    Link(String, usize),
    Unlink(String),
    Rename(String, String),
}

/// `durable` with the first `upto` of `pending` applied.
fn entries(durable: &BTreeMap<String, usize>, pending: &[Entry], upto: usize) -> BTreeMap<String, usize> {
    let mut entries = durable.clone();
    for entry in &pending[..upto] {
        match entry {
            Entry::Link(name, ino) => {
                entries.insert(name.clone(), *ino);
            }
            Entry::Unlink(name) => {
                entries.remove(name);
            }
            Entry::Rename(from, to) => {
                if let Some(ino) = entries.remove(from) {
                    entries.insert(to.clone(), ino);
                }
            }
        }
    }
    entries
}

fn names(path: &Path) -> Vec<String> {
    let normal = |c: Component<'_>| match c {
        Component::Normal(name) => Some(name.to_string_lossy().into_owned()),
        _ => None,
    };
    path.components().filter_map(normal).collect()
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("{}: no such entry", path.display()))
}

#[derive(Debug, Default)]
struct Sim {
    /// Inodes; 0 is the root directory.
    nodes: Vec<Node>,
    /// Every operation so far, with the path it named.
    log: Vec<(Op, PathBuf)>,
    /// The operation that fails instead of taking effect.
    fail: Option<usize>,
    /// When recording: the inodes after each operation, with the mark the
    /// run had set.
    history: Option<Vec<(Vec<Node>, usize)>>,
    mark: usize,
}

impl Sim {
    fn new(record: bool) -> Sim {
        let root = Node::Dir { durable: BTreeMap::new(), pending: Vec::new() };
        Sim { nodes: vec![root], history: record.then(Vec::new), ..Sim::default() }
    }

    /// Logs an operation; `Err` if it is the one to fail.
    fn begin(&mut self, op: Op, path: &Path) -> io::Result<()> {
        self.log.push((op, path.to_path_buf()));
        match self.fail == Some(self.log.len() - 1) {
            true => Err(io::Error::other(format!("injected failure of operation {}", self.log.len() - 1))),
            false => Ok(()),
        }
    }

    fn end<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        if let Some(history) = &mut self.history {
            history.push((self.nodes.clone(), self.mark));
        }
        result
    }

    fn current(&self, ino: usize) -> BTreeMap<String, usize> {
        match &self.nodes[ino] {
            Node::Dir { durable, pending } => entries(durable, pending, pending.len()),
            Node::File { .. } => BTreeMap::new(),
        }
    }

    fn resolve(&self, path: &Path) -> Option<usize> {
        let mut ino = 0;
        for name in names(path) {
            ino = *self.current(ino).get(&name)?;
        }
        Some(ino)
    }

    /// The directory holding `path`'s entry, and the entry's name.
    fn parent(&self, path: &Path) -> io::Result<(usize, String)> {
        let parent = self.resolve(path.parent().unwrap_or(Path::new("/"))).ok_or_else(|| not_found(path))?;
        match (&self.nodes[parent], names(path).pop()) {
            (Node::Dir { .. }, Some(name)) => Ok((parent, name)),
            _ => Err(io::Error::other(format!("{}: no directory holds it", path.display()))),
        }
    }

    fn link(&mut self, dir: usize, entry: Entry) {
        if let Node::Dir { pending, .. } = &mut self.nodes[dir] {
            pending.push(entry);
        }
    }

    fn content(&self, ino: usize) -> io::Result<&Vec<u8>> {
        match &self.nodes[ino] {
            Node::File { durable, later } => Ok(later.last().unwrap_or(durable)),
            Node::Dir { .. } => Err(io::Error::other("is a directory")),
        }
    }

    fn write(&mut self, ino: usize, content: Vec<u8>) {
        if let Node::File { later, .. } = &mut self.nodes[ino] {
            later.push(content);
        }
    }

    fn create(&mut self, path: &Path) -> io::Result<usize> {
        self.begin(Op::Create, path)?;
        let (parent, name) = self.parent(path)?;
        if let Some(ino) = self.current(parent).get(&name).copied() {
            self.content(ino)?;
            self.write(ino, Vec::new());
            return Ok(ino);
        }
        self.nodes.push(Node::File { durable: Vec::new(), later: Vec::new() });
        self.link(parent, Entry::Link(name, self.nodes.len() - 1));
        Ok(self.nodes.len() - 1)
    }

    fn open(&mut self, path: &Path) -> io::Result<usize> {
        self.begin(Op::Open, path)?;
        let ino = self.resolve(path).ok_or_else(|| not_found(path))?;
        self.content(ino).map(|_| ino)
    }

    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        self.begin(Op::Read, path)?;
        let ino = self.resolve(path).ok_or_else(|| not_found(path))?;
        self.content(ino).cloned()
    }

    fn list(&mut self, path: &Path) -> io::Result<Vec<String>> {
        self.begin(Op::List, path)?;
        let ino = self.resolve(path).ok_or_else(|| not_found(path))?;
        match &self.nodes[ino] {
            Node::Dir { .. } => Ok(self.current(ino).into_keys().collect()),
            Node::File { .. } => Err(io::Error::other("not a directory")),
        }
    }

    fn create_dir(&mut self, path: &Path) -> io::Result<()> {
        self.begin(Op::CreateDir, path)?;
        let mut ino = 0;
        for name in names(path) {
            if let Node::File { .. } = self.nodes[ino] {
                return Err(io::Error::other("not a directory"));
            }
            ino = match self.current(ino).get(&name) {
                Some(&child) => child,
                None => {
                    self.nodes.push(Node::Dir { durable: BTreeMap::new(), pending: Vec::new() });
                    self.link(ino, Entry::Link(name, self.nodes.len() - 1));
                    self.nodes.len() - 1
                }
            };
        }
        match &self.nodes[ino] {
            Node::Dir { .. } => Ok(()),
            Node::File { .. } => Err(io::Error::other("not a directory")),
        }
    }

    fn sync_dir(&mut self, path: &Path) -> io::Result<()> {
        self.begin(Op::SyncDir, path)?;
        let ino = self.resolve(path).ok_or_else(|| not_found(path))?;
        let current = self.current(ino);
        match &mut self.nodes[ino] {
            Node::Dir { durable, pending } => {
                *durable = current;
                pending.clear();
                Ok(())
            }
            Node::File { .. } => Err(io::Error::other("not a directory")),
        }
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.begin(Op::Rename, from)?;
        let ((dir, old), (to_dir, new)) = (self.parent(from)?, self.parent(to)?);
        if dir != to_dir {
            return Err(io::Error::other("a rename across directories"));
        }
        self.resolve(from).ok_or_else(|| not_found(from))?;
        self.link(dir, Entry::Rename(old, new));
        Ok(())
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.begin(Op::Remove, path)?;
        let (parent, name) = self.parent(path)?;
        let ino = self.current(parent).get(&name).copied().ok_or_else(|| not_found(path))?;
        self.content(ino)?;
        self.link(parent, Entry::Unlink(name));
        Ok(())
    }

    fn append(&mut self, ino: usize, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let failed = self.begin(Op::Append, path);
        let mut content = self.content(ino)?.clone();
        if bytes.len() > 1 {
            content.extend_from_slice(&bytes[..bytes.len() / 2]);
            self.write(ino, content.clone());
        }
        failed?;
        content.extend_from_slice(&bytes[bytes.len() / 2..]);
        self.write(ino, content);
        Ok(())
    }

    fn set_len(&mut self, ino: usize, path: &Path, len: u64) -> io::Result<()> {
        self.begin(Op::SetLen, path)?;
        let mut content = self.content(ino)?.clone();
        content.resize(len as usize, 0);
        self.write(ino, content);
        Ok(())
    }

    fn sync_data(&mut self, ino: usize, path: &Path) -> io::Result<()> {
        self.begin(Op::SyncData, path)?;
        let current = self.content(ino)?.clone();
        if let Node::File { durable, later } = &mut self.nodes[ino] {
            *durable = current;
            later.clear();
        }
        Ok(())
    }
}

/// Every state a power loss after the operations behind `nodes` may
/// leave at `path`: `None` where the path may not exist.
fn states_at(nodes: &[Node], path: &Path) -> Result<Vec<Option<Tree>>, String> {
    let mut inos = vec![Some(0)];
    for name in names(path) {
        let mut next = Vec::new();
        for ino in inos {
            match ino.map(|ino| &nodes[ino]) {
                Some(Node::Dir { durable, pending }) => next.extend(
                    (0..=pending.len()).map(|i| entries(durable, pending, i).get(&name).copied()),
                ),
                _ => next.push(None),
            }
        }
        next.sort_unstable();
        next.dedup();
        inos = next;
    }
    let mut out = Vec::new();
    for ino in inos {
        match ino {
            None => out.push(None),
            Some(ino) => out.extend(states(nodes, ino)?.into_iter().map(Some)),
        }
    }
    dedup(out)
}

/// Every state a power loss may leave of inode `ino`.
fn states(nodes: &[Node], ino: usize) -> Result<Vec<Tree>, String> {
    match &nodes[ino] {
        Node::File { durable, later } => {
            dedup(std::iter::once(durable).chain(later).cloned().map(Tree::File).collect())
        }
        Node::Dir { durable, pending } => {
            let mut out = Vec::new();
            for upto in 0..=pending.len() {
                let mut partial = vec![BTreeMap::new()];
                for (name, child) in entries(durable, pending, upto) {
                    let children = states(nodes, child)?;
                    if partial.len() * children.len() > MAX_STATES {
                        return Err(format!("more than {MAX_STATES} crash states"));
                    }
                    partial = partial
                        .iter()
                        .flat_map(|map| {
                            children.iter().map(|child| {
                                let mut map = map.clone();
                                map.insert(name.clone(), child.clone());
                                map
                            })
                        })
                        .collect();
                }
                out.extend(partial.into_iter().map(Tree::Dir));
            }
            dedup(out)
        }
    }
}

fn dedup<T: Eq + std::hash::Hash + Clone>(items: Vec<T>) -> Result<Vec<T>, String> {
    let mut seen = std::collections::HashSet::new();
    let unique: Vec<T> = items.into_iter().filter(|item| seen.insert(item.clone())).collect();
    match unique.len() > MAX_STATES {
        true => Err(format!("more than {MAX_STATES} crash states")),
        false => Ok(unique),
    }
}

/// The simulated directory tree (see the module docs). Clones share it.
#[derive(Debug, Clone)]
struct SimDir(Arc<Mutex<Sim>>);

impl SimDir {
    /// An empty tree; with `record`, the state after every operation is
    /// kept for the crash enumeration.
    fn new(record: bool) -> SimDir {
        SimDir(Arc::new(Mutex::new(Sim::new(record))))
    }

    /// An empty tree whose operation `k` (0-based) fails instead.
    fn failing(k: usize) -> SimDir {
        let sim = SimDir::new(true);
        sim.lock().fail = Some(k);
        sim
    }

    /// A tree holding, all of it synced, the ancestors of `path` and
    /// `state` at `path`.
    fn with(path: &Path, state: Option<&Tree>) -> SimDir {
        let sim = SimDir::new(false);
        {
            let mut s = sim.lock();
            let (mut ino, names) = (0, names(path));
            for (i, name) in names.iter().enumerate() {
                let last = i + 1 == names.len();
                let child = match (last, state) {
                    (false, _) => Some(s.plant(&Tree::Dir(BTreeMap::new()))),
                    (true, Some(tree)) => Some(s.plant(tree)),
                    (true, None) => None,
                };
                let Some(child) = child else { break };
                if let Node::Dir { durable, .. } = &mut s.nodes[ino] {
                    durable.insert(name.clone(), child);
                }
                ino = child;
            }
        }
        sim
    }

    fn lock(&self) -> MutexGuard<'_, Sim> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Every operation so far.
    fn log(&self) -> Vec<(Op, PathBuf)> {
        self.lock().log.clone()
    }

    /// True once the operation to fail has been reached.
    fn fired(&self) -> bool {
        let sim = self.lock();
        sim.fail.is_some_and(|k| k < sim.log.len())
    }

    /// What a power loss that keeps nothing unsynced leaves at `path`.
    fn durable_at(&self, path: &Path) -> Option<Tree> {
        let sim = self.lock();
        let mut ino = 0;
        for name in names(path) {
            let Node::Dir { durable, .. } = &sim.nodes[ino] else { return None };
            ino = *durable.get(&name)?;
        }
        Some(sim.durable_tree(ino))
    }
}

impl Sim {
    /// Adds `tree` as synced inodes; returns its root's.
    fn plant(&mut self, tree: &Tree) -> usize {
        let node = match tree {
            Tree::File(content) => Node::File { durable: content.clone(), later: Vec::new() },
            Tree::Dir(children) => {
                let durable = children.iter().map(|(name, child)| (name.clone(), self.plant(child))).collect();
                Node::Dir { durable, pending: Vec::new() }
            }
        };
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn durable_tree(&self, ino: usize) -> Tree {
        match &self.nodes[ino] {
            Node::File { durable, .. } => Tree::File(durable.clone()),
            Node::Dir { durable, .. } => {
                Tree::Dir(durable.iter().map(|(name, &child)| (name.clone(), self.durable_tree(child))).collect())
            }
        }
    }
}

#[derive(Debug)]
struct SimFile {
    sim: SimDir,
    ino: usize,
    path: PathBuf,
}

impl File for SimFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut sim = self.sim.lock();
        let result = sim.append(self.ino, &self.path, bytes);
        sim.end(result)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let mut sim = self.sim.lock();
        let result = sim.set_len(self.ino, &self.path, len);
        sim.end(result)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let mut sim = self.sim.lock();
        let result = sim.sync_data(self.ino, &self.path);
        sim.end(result)
    }
}

impl SimDir {
    fn op<T>(&self, f: impl FnOnce(&mut Sim) -> io::Result<T>) -> io::Result<T> {
        let mut sim = self.lock();
        let result = f(&mut sim);
        sim.end(result)
    }

    fn file(&self, ino: usize, path: &Path) -> Box<dyn File> {
        Box::new(SimFile { sim: self.clone(), ino, path: path.to_path_buf() })
    }
}

impl Dir for SimDir {
    fn create(&self, path: &Path) -> io::Result<Box<dyn File>> {
        self.op(|sim| sim.create(path)).map(|ino| self.file(ino, path))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn File>> {
        self.op(|sim| sim.open(path)).map(|ino| self.file(ino, path))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.op(|sim| sim.read(path))
    }

    fn list(&self, path: &Path) -> io::Result<Vec<String>> {
        self.op(|sim| sim.list(path))
    }

    fn create_dir(&self, path: &Path) -> io::Result<()> {
        self.op(|sim| sim.create_dir(path))
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.op(|sim| sim.sync_dir(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.op(|sim| sim.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.op(|sim| sim.remove(path))
    }
}

/// One step of a plan, on a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Append the shard's next statement (and rotate, if the policy is due).
    Commit(usize),
    /// Flush: the commits so far are acknowledged where the store syncs.
    Flush(usize),
    /// An explicit rotation at the current commit.
    Rotate(usize),
    /// The process restarts: the store is recovered over the directory as
    /// it stands, and commits go on.
    Restart(usize),
}

/// A store plan: a layout, a sync mode, a rotation policy and steps.
#[derive(Debug)]
struct Plan {
    name: &'static str,
    /// Shards under a root made as a `ShardSet` makes it; 0: one store
    /// directory that `Store::create` makes.
    shards: usize,
    sync: bool,
    /// Rotate automatically once this many commits sit in the segment.
    every: Option<usize>,
    steps: &'static [Step],
}

use Step::{Commit as C, Flush as F, Restart as R, Rotate as T};

/// The plans, each small enough for an exhaustive enumeration.
const PLANS: &[Plan] = &[
    Plan {
        name: "store-sync",
        shards: 0,
        sync: true,
        every: None,
        steps: &[C(0), F(0), C(0), C(0), F(0), T(0), C(0), F(0), T(0), C(0), F(0), R(0), C(0), F(0)],
    },
    Plan {
        name: "store-nosync",
        shards: 0,
        sync: false,
        every: None,
        steps: &[C(0), F(0), C(0), T(0), C(0), F(0), T(0), C(0), R(0), C(0), F(0)],
    },
    Plan {
        name: "set-sync-auto",
        shards: 2,
        sync: true,
        every: Some(2),
        steps: &[C(0), F(0), C(1), F(1), C(0), C(0), F(0), C(1), F(1), R(0), C(0), F(0), C(0), F(0)],
    },
    Plan {
        name: "set-nosync-auto",
        shards: 1,
        sync: false,
        every: Some(1),
        steps: &[C(0), F(0), C(0), F(0), R(0), C(0), F(0)],
    },
];

/// Shard `k`'s store directory under `plan`'s layout.
fn shard_dir(plan: &Plan, k: usize) -> PathBuf {
    match plan.shards {
        0 => PathBuf::from("/s"),
        _ => PathBuf::from(format!("/r/shard-{k}")),
    }
}

fn statement(k: usize, i: usize) -> String {
    format!("<s k='{k}' i='{i}'>{}</s>", "x".repeat(i % 4))
}

fn document(log: &[String], p: usize) -> String {
    format!("{BASE}{}", log[..p].concat())
}

fn arc(fs: &SimDir) -> Arc<dyn Dir> {
    Arc::new(fs.clone())
}

/// A start's first step, through the checker's `dir::name_durably` (a
/// shard set makes the same syncs beside its shard opens).
fn name_durably(fs: &SimDir, root: &Path, children: &[PathBuf], sync: bool) -> Result<(), String> {
    dir::name_durably(fs, root, children, sync).map_err(|e| e.to_string())
}

/// What a process start does before any store opens: a `ShardSet` names
/// its root and every shard directory, a lone store
/// (`Checker::attach_store`, `Checker::open_store`) its own directory.
fn make_dirs(fs: &SimDir, plan: &Plan) -> Result<(), String> {
    match plan.shards {
        0 => name_durably(fs, &shard_dir(plan, 0), &[], plan.sync),
        n => {
            let dirs: Vec<PathBuf> = (0..n).map(|k| shard_dir(plan, k)).collect();
            name_durably(fs, Path::new("/r"), &dirs, plan.sync)
        }
    }
}

/// Replays one candidate: the snapshot or the base, then its segment's
/// commits in version order.
fn replay(candidate: &mut Candidate<'_>) -> Result<(usize, String), String> {
    let (mut doc, mut p) = match &candidate.snapshot {
        Some(ckpt) => (ckpt.doc_xml.clone(), ckpt.commit_seq as usize),
        None => (BASE.to_string(), 0),
    };
    let (records, _) = candidate.open_segment(crc32(doc.as_bytes())).map_err(|e| e.to_string())?;
    for record in records.iter().filter(|r| r.kind == RecordKind::Commit) {
        if record.version != p as u64 + 1 {
            return Err(format!("version {} after {p}", record.version));
        }
        doc.push_str(&record.stmt);
        p += 1;
    }
    Ok((p, doc))
}

/// Opens the store at `dir` as `Checker::open_store` does after its
/// start's first step — created where `Store::recover` finds nothing,
/// recovered otherwise — and holds it to `log`: the commits it restores,
/// `p`, must be `log`'s first `p`, byte for byte, and every snapshot under
/// its final name complete. Returns the store, `p`, and whether it was
/// recovered (the checker's first write then rotates).
fn reopen(fs: &SimDir, plan: &Plan, dir: &Path, log: &[String]) -> Result<(Store, usize, bool), String> {
    let names = match fs.list(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        names => names.map_err(|e| format!("listing the store: {e}"))?,
    };
    for name in names.iter().filter(|name| name.ends_with(".ckpt")) {
        checkpoint::read(fs, &dir.join(name)).map_err(|e| format!("{name} is incomplete: {e}"))?;
    }
    let recovered = Store::recover(arc(fs), dir, plan.sync, replay).map_err(|e| format!("recovery failed: {e}"))?;
    let Some(Recovery { resumed, rejected }) = recovered else {
        let store = Store::create(arc(fs), dir, crc32(BASE.as_bytes()), plan.sync);
        return Ok((store.map_err(|e| format!("creating the store: {e}"))?, 0, false));
    };
    let (store, (p, doc)) =
        resumed.ok_or_else(|| format!("no generation recovered: {}", rejected.join("; ")))?;
    if p > log.len() || doc != document(log, p) {
        return Err(format!(
            "restored {p} commits unlike the twin ({} committed)\n  recovered: {doc}",
            log.len()
        ));
    }
    Ok((store, p, true))
}

/// Recovers shard `k` from `state`, then commits two more statements,
/// flushes, and recovers what the harshest power loss leaves of that.
/// Returns the commits the first recovery restored.
fn check_state(plan: &Plan, k: usize, state: Option<&Tree>, log: &[String]) -> Result<usize, String> {
    let dir = shard_dir(plan, k);
    let fs = SimDir::with(&dir, state);
    make_dirs(&fs, plan)?;
    let (mut store, p, _) = reopen(&fs, plan, &dir, log)?;
    let mut after = log[..p].to_vec();
    for i in 0..2 {
        let text = format!("<after i='{i}'/>");
        store.append(RecordKind::Commit, (p + i + 1) as u64, &text).map_err(|e| e.to_string())?;
        after.push(text);
    }
    store.sync_now().map_err(|e| e.to_string())?;
    drop(store);
    let fs = SimDir::with(&dir, fs.durable_at(&dir).as_ref());
    make_dirs(&fs, plan)?;
    let (_, q, _) = reopen(&fs, plan, &dir, &after).map_err(|e| format!("after two more: {e}"))?;
    if plan.sync && q < p + 2 {
        return Err(format!("restored {p}, then two more were acked, and a power loss kept {q}"));
    }
    Ok(p)
}

/// A shard under a plan's run.
struct Shard {
    store: Option<Store>,
    /// Every statement the store committed, in order.
    log: Vec<String>,
    acked: usize,
    /// Statements drawn so far.
    drawn: usize,
    /// Commits in the live segment (the automatic policy's count).
    in_segment: usize,
    /// Recovered, and not rotated since: the checker's next write rotates
    /// first (`rotate_if_reopened`).
    reopened: bool,
}

/// One run of a plan: its directory, what each shard committed, and per
/// mark (0 = set-up, `s + 1` = step `s`) each shard's `(acked, most)`.
struct Run {
    fs: SimDir,
    shards: Vec<Shard>,
    bounds: Vec<Vec<(usize, usize)>>,
    /// A store call that failed other than by the injected failure, or a
    /// restart that lost a commit.
    error: Option<String>,
}

impl Run {
    fn drive(plan: &Plan, fs: SimDir) -> Run {
        let count = plan.shards.max(1);
        let shard = || Shard { store: None, log: Vec::new(), acked: 0, drawn: 0, in_segment: 0, reopened: false };
        let shards = (0..count).map(|_| shard()).collect();
        let mut run = Run { fs, shards, bounds: vec![vec![(0, 0); count]], error: None };
        let made = make_dirs(&run.fs, plan);
        if run.expect(made).is_some() {
            for k in 0..count {
                let store = Store::create(arc(&run.fs), &shard_dir(plan, k), crc32(BASE.as_bytes()), plan.sync);
                run.shards[k].store = run.expect(store.map_err(|e| e.to_string()));
            }
        }
        // A set that failed to come up is started again over what it left,
        // as a restart recovers it, and serves from there.
        if run.shards.iter().any(|shard| shard.store.is_none()) {
            run.shards.iter_mut().for_each(|shard| drop(shard.store.take()));
            let made = make_dirs(&run.fs, plan);
            if run.expect(made).is_some() {
                (0..count).for_each(|k| run.reopen(plan, k));
            }
        }
        for (s, &step) in plan.steps.iter().enumerate() {
            run.fs.lock().mark = s + 1;
            let mark = run.shards.iter().map(|shard| (shard.acked, shard.log.len())).collect();
            run.bounds.push(mark);
            run.step(plan, step);
        }
        run
    }

    /// Passes `result` on if it is `Ok`, or if it failed by the injected
    /// failure; anything else is the run's error.
    fn expect<T>(&mut self, result: Result<T, String>) -> Option<T> {
        match result {
            Ok(value) => Some(value),
            Err(e) if e.contains("injected failure") && self.fs.fired() => None,
            Err(e) => {
                self.error.get_or_insert(e);
                None
            }
        }
    }

    /// Reopens shard `k`'s store, which must restore every commit.
    fn reopen(&mut self, plan: &Plan, k: usize) {
        let log = self.shards[k].log.clone();
        let reopened = reopen(&self.fs, plan, &shard_dir(plan, k), &log).and_then(|(store, p, recovered)| {
            match p == log.len() {
                true => Ok((store, recovered)),
                false => Err(format!("a restart restored {p} of {} commits", log.len())),
            }
        });
        let opened = self.expect(reopened);
        let shard = &mut self.shards[k];
        (shard.store, shard.reopened) = opened.map_or((None, false), |(store, recovered)| (Some(store), recovered));
    }

    /// Rotates shard `k` at its current commit; true if it rotated.
    fn rotate(&mut self, k: usize) -> bool {
        let shard = &mut self.shards[k];
        let Some(store) = shard.store.as_mut() else { return false };
        let rotated = store.rotate(shard.log.len() as u64, &document(&shard.log, shard.log.len()));
        if rotated.is_ok() {
            (shard.in_segment, shard.reopened) = (0, false);
        }
        self.expect(rotated.map_err(|e| e.to_string())).is_some()
    }

    fn step(&mut self, plan: &Plan, step: Step) {
        let (C(k) | F(k) | T(k) | R(k)) = step;
        if let R(_) = step {
            // One shard restarts, as `ShardSet::recover_shard` (or a lone
            // store's `Checker::open_store`) reopens it.
            drop(self.shards[k].store.take());
            let named = name_durably(&self.fs, &shard_dir(plan, k), &[], plan.sync);
            if self.expect(named).is_some() {
                self.reopen(plan, k);
            }
            return;
        }
        // A reopened store's first write rotates first; a failed rotation
        // refuses the write.
        if matches!(step, C(_)) && self.shards[k].reopened && !self.rotate(k) {
            return;
        }
        let shard = &mut self.shards[k];
        let Some(store) = shard.store.as_mut() else { return };
        let (result, rotate) = match step {
            C(_) => {
                let text = statement(k, shard.drawn);
                shard.drawn += 1;
                let version = shard.log.len() as u64 + 1;
                let appended = store.append(RecordKind::Commit, version, &text);
                if appended.is_ok() {
                    shard.log.push(text);
                    shard.in_segment += 1;
                }
                let due = appended.is_ok() && plan.every.is_some_and(|n| shard.in_segment >= n);
                (appended.map_err(|e| e.to_string()), due)
            }
            F(_) => {
                let flushed = store.sync_now().map_err(|e| e.to_string());
                match flushed {
                    Ok(()) if plan.sync => shard.acked = shard.log.len(),
                    Ok(()) => {}
                    // A failed flush degrades the checker: the shard stops.
                    Err(_) => shard.store = None,
                }
                (flushed, false)
            }
            _ => (Ok(()), true),
        };
        self.expect(result);
        if rotate {
            self.rotate(k);
        }
    }
}

/// What one plan's runs explored.
#[derive(Debug, Default, Clone, Copy)]
pub struct Explored {
    pub plan: &'static str,
    /// Operations of the run as written, and runs with one failing.
    pub operations: usize,
    pub failing_runs: usize,
    /// Crash points over all its runs.
    pub points: usize,
    /// Shard crash states recovered, and the distinct ones per run.
    pub states: usize,
    pub distinct: usize,
}

/// What one `--crash-states` run explored.
#[derive(Debug, Default)]
pub struct CrashReport {
    pub config: Config,
    pub plans: Vec<Explored>,
    pub divergences: Vec<String>,
}

impl CrashReport {
    pub fn outcome(&self) -> Outcome {
        let Config { seed, cases } = self.config;
        let sum = |f: fn(&Explored) -> usize| self.plans.iter().map(f).sum::<usize>();
        let table: Vec<String> =
            self.plans.iter().map(|e| format!("{}={}/{}/{}", e.plan, e.operations, e.points, e.states)).collect();
        let summary = format!(
            "crash-states: {cases} plans from seed {seed} — {} divergences, {} operations, {} runs \
             failing one of them, {} crash points, {} shard crash states ({} distinct) recovered\n\
             plans (operations / crash points / crash states): {}",
            self.divergences.len(),
            sum(|e| e.operations),
            sum(|e| e.failing_runs),
            sum(|e| e.points),
            sum(|e| e.states),
            sum(|e| e.distinct),
            table.join(" "),
        );
        let floor = match sum(|e| e.states) {
            0 => Err("crash-states: no crash state was explored".to_string()),
            _ => Ok(()),
        };
        Outcome { summary, divergences: self.divergences.clone(), floor }
    }
}

/// Runs plans `seed`, `seed + 1`, … (modulo the table), `config.cases` of
/// them.
pub fn run_crash_states(config: Config) -> CrashReport {
    let mut report = CrashReport { config, ..CrashReport::default() };
    for i in 0..config.cases {
        let index = (config.seed.wrapping_add(i) % PLANS.len() as u64) as usize;
        let plan = &PLANS[index];
        let clean = Run::drive(plan, SimDir::new(true));
        let operations = clean.fs.log().len();
        let (mut failing_runs, mut points, mut states, mut distinct) = (0, 0, 0, 0);
        let mut check = |run: &Run, from: usize, fail: Option<usize>| -> Result<(), String> {
            failing_runs += fail.is_some() as usize;
            if let Some(e) = &run.error {
                let failing = fail.map(|f| format!(", operation {f} failing")).unwrap_or_default();
                return Err(format!("plan {}{failing}: {e}", plan.name));
            }
            let history = run.fs.lock().history.take().unwrap_or_default();
            let log = run.fs.log();
            let mut seen: HashMap<(usize, Option<Tree>), Result<usize, String>> = HashMap::new();
            for (j, (nodes, mark)) in history.iter().enumerate().skip(from) {
                points += 1;
                for (k, shard) in run.shards.iter().enumerate() {
                    let in_flight = matches!(plan.steps.get(mark.wrapping_sub(1)), Some(C(s)) if *s == k);
                    let (acked, most) = run.bounds[*mark][k];
                    let most = most + in_flight as usize;
                    for state in states_at(nodes, &shard_dir(plan, k))? {
                        states += 1;
                        let key = (k, state);
                        if !seen.contains_key(&key) {
                            distinct += 1;
                            let p = check_state(plan, k, key.1.as_ref(), &shard.log);
                            seen.insert(key.clone(), p);
                        }
                        let at = |detail: String| {
                            let (op, path) = &log[j];
                            let failing = fail.map(|f| format!(", operation {f} failing")).unwrap_or_default();
                            format!(
                                "plan {}{failing}, crash after operation {j} ({op:?} {}), shard {k}: {detail}",
                                plan.name,
                                path.display()
                            )
                        };
                        match &seen[&key] {
                            Err(e) => return Err(at(e.clone())),
                            Ok(p) if *p < acked || *p > most => {
                                let counts = format!("{acked} were acked, {most} committed");
                                return Err(at(format!("restored {p} commits; {counts}")));
                            }
                            Ok(_) => {}
                        }
                    }
                }
            }
            Ok(())
        };
        let divergence = check(&clean, 0, None).err().or_else(|| {
            (0..operations).find_map(|k| check(&Run::drive(plan, SimDir::failing(k)), k, Some(k)).err())
        });
        if let Some(detail) = divergence {
            report.divergences.push(format!(
                "crash-states divergence: {detail}\n  replay: cargo run --release -p xic-difftest -- \
                 --crash-states --seed {index} --cases 1"
            ));
        }
        report.plans.push(Explored { plan: plan.name, operations, failing_runs, points, states, distinct });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_xml::checkpoint::CheckpointError;
    use xic_xml::Journal;

    fn base_crc() -> u32 {
        crc32(BASE.as_bytes())
    }

    /// The fsyncs (`sync_data` and `sync_dir`) in `fs`'s log from `from` on.
    fn fsyncs(fs: &SimDir, from: usize) -> usize {
        fs.log()[from..].iter().filter(|(op, _)| matches!(op, Op::SyncData | Op::SyncDir)).count()
    }

    /// The indexes of every `op` on a path ending in `name`, in a run of
    /// `f` over a fresh tree.
    fn indexes(f: impl Fn(&SimDir), op: Op, name: &str) -> Vec<usize> {
        let fs = SimDir::new(false);
        f(&fs);
        let log = fs.log().into_iter().enumerate();
        log.filter(|(_, (o, path))| *o == op && path.ends_with(name)).map(|(i, _)| i).collect()
    }

    #[test]
    fn a_start_and_the_store_make_the_parents_fsyncs() {
        let fs = SimDir::new(false);
        name_durably(&fs, Path::new("/s"), &[], true).expect("start");
        assert_eq!(fsyncs(&fs, 0), 1, "a lone store's start syncs the directory naming it");
        let mark = fs.log().len();
        name_durably(&fs, Path::new("/s"), &[], true).expect("start again");
        assert_eq!(fsyncs(&fs, mark), 1, "on every start");
        let mark = fs.log().len();
        let mut store = Store::create(arc(&fs), Path::new("/s"), base_crc(), true).expect("create");
        assert_eq!(fsyncs(&fs, mark), 1, "the directory naming the segment, not its header");
        let mark = fs.log().len();
        store.append(RecordKind::Commit, 1, "<a/>").expect("append");
        store.append(RecordKind::Commit, 2, "<b/>").expect("append");
        store.sync_now().expect("flush");
        let appends = fs.log()[mark..].iter().filter(|(op, _)| *op == Op::Append).count();
        assert_eq!((appends, fsyncs(&fs, mark)), (2, 1), "one write per record, one fsync per batch");
        let mark = fs.log().len();
        store.rotate(2, &format!("{BASE}<a/><b/>")).expect("rotate");
        assert_eq!(fsyncs(&fs, mark), 3, "snapshot, its name, the segment's name");
        let mark = fs.log().len();
        let shards = [PathBuf::from("/r/shard-0"), PathBuf::from("/r/shard-1")];
        name_durably(&fs, Path::new("/r"), &shards, true).expect("a set's start");
        assert_eq!(fsyncs(&fs, mark), 2, "a set's start syncs its root and the directory naming it");

        let fs = SimDir::new(false);
        name_durably(&fs, Path::new("/s"), &[], false).expect("start");
        assert_eq!(fsyncs(&fs, 0), 0, "a start without sync");
        let mut store = Store::create(arc(&fs), Path::new("/s"), base_crc(), false).expect("no sync");
        assert_eq!(fsyncs(&fs, 0), 1, "the store's directory, synced whatever the mode");
        let mark = fs.log().len();
        store.append(RecordKind::Commit, 1, "<a/>").expect("append");
        store.sync_now().expect("flush");
        assert_eq!(fsyncs(&fs, mark), 0, "a flush without sync");
    }

    #[test]
    fn a_start_after_a_failed_one_makes_the_names_durable() {
        // The first start creates the root and shard 0, then fails to
        // create shard 1; the second must sync what the first left.
        let plan = PLANS.iter().find(|plan| plan.name == "set-sync-auto").expect("the plan");
        let fail = indexes(|fs| drop(make_dirs(fs, plan)), Op::CreateDir, "shard-1")[0];
        let fs = SimDir::failing(fail);
        make_dirs(&fs, plan).expect_err("injected");
        make_dirs(&fs, plan).expect("the second start");
        for k in 0..2 {
            assert!(fs.durable_at(&shard_dir(plan, k)).is_some(), "shard {k} survives a power loss");
        }
    }

    #[test]
    fn a_failed_append_rewinds_to_the_record_boundary_and_is_not_retried() {
        let append = |fs: &SimDir| {
            let mut j = Journal::create_in(fs, Path::new("/j.wal"), 1).expect("create");
            j.append(RecordKind::Commit, 1, "keeper").expect("append");
            let _ = j.append(RecordKind::Commit, 2, "half-written victim");
            j.append(RecordKind::Commit, 2, "successor").expect("append");
        };
        // Appends: the header, the keeper, the victim.
        let fs = SimDir::failing(indexes(append, Op::Append, "j.wal")[2]);
        append(&fs);
        let appends = fs.log().iter().filter(|(op, _)| *op == Op::Append).count();
        assert_eq!(appends, 4, "header, keeper, one failed attempt, successor");
        let rec = Journal::recover_in(&fs, Path::new("/j.wal"), Some(1)).expect("recover");
        assert!(!rec.torn, "the half-written bytes were rewound");
        let stmts: Vec<&str> = rec.records.iter().map(|r| r.stmt.as_str()).collect();
        assert_eq!(stmts, ["keeper", "successor"]);
    }

    fn rotate_once(fs: &SimDir) -> (Store, Result<u64, CheckpointError>) {
        let mut store = Store::create(arc(fs), Path::new("/s"), base_crc(), false).expect("create");
        let rotated = store.rotate(1, "<db><one/></db>");
        (store, rotated)
    }

    #[test]
    fn a_failed_rotation_unlinks_its_orphan_snapshot() {
        // After the snapshot's rename: `write_atomic`'s directory sync, the
        // segment create, and the directory sync that names the segment.
        let rotation = |fs: &SimDir| drop(rotate_once(fs));
        let renamed = indexes(rotation, Op::Rename, "gen-1.ckpt.tmp")[0];
        let syncs = indexes(rotation, Op::SyncDir, "/s");
        let snapshot_named = *syncs.iter().find(|&&i| i > renamed).expect("write_atomic's sync");
        let create = indexes(rotation, Op::Create, "gen-1.wal")[0];
        let segment_named = *syncs.last().expect("rotate_inner's sync");
        assert!(snapshot_named < create && create < segment_named);
        for k in [snapshot_named, create, segment_named] {
            let fs = SimDir::failing(k);
            let (store, rotated) = rotate_once(&fs);
            assert!(rotated.expect_err("injected").to_string().contains("injected failure"), "{k}");
            assert_eq!(store.generation(), 0, "{k}: a failed rotation does not advance");
            let names = fs.list(Path::new("/s")).expect("list");
            assert_eq!(names, ["gen-0.wal"], "{k}: the old pair alone survives");
        }
    }

    #[test]
    fn a_failed_unlink_leaves_the_rotation_complete() {
        let twice = |fs: &SimDir| {
            let (mut store, rotated) = rotate_once(fs);
            rotated.expect("first rotation");
            // The second rotation is the first to expire a generation (0).
            let rotated = store.rotate(2, "<db><kept/></db>");
            (store, rotated)
        };
        let fs = SimDir::failing(indexes(|fs| drop(twice(fs)), Op::Remove, "gen-0.wal")[0]);
        let (store, rotated) = twice(&fs);
        assert_eq!(rotated.expect("the rotation still succeeds"), 2);
        assert_eq!(store.generation(), 2);
        assert!(fs.read(Path::new("/s/gen-0.wal")).is_ok(), "the expired generation survives");
    }

    #[test]
    fn a_torn_snapshot_write_leaves_the_old_generation_intact() {
        let fs = SimDir::failing(indexes(|fs| drop(rotate_once(fs)), Op::Append, "gen-1.ckpt.tmp")[0]);
        let (mut store, rotated) = rotate_once(&fs);
        rotated.expect_err("injected");
        assert_eq!(Store::snapshot_generations(&fs, Path::new("/s")), Vec::<u64>::new());
        assert_eq!(fs.list(Path::new("/s")).expect("list"), ["gen-0.wal"]);
        assert_eq!(store.rotate(1, "<db><one/></db>").expect("the retry"), 1);
        assert_eq!(Store::snapshot_generations(&fs, Path::new("/s")), vec![1]);
    }

    #[test]
    fn a_crash_state_keeps_a_prefix_of_each_directorys_operations() {
        let fs = SimDir::new(true);
        let mut store = Store::create(arc(&fs), Path::new("/s"), base_crc(), true).expect("create");
        store.append(RecordKind::Commit, 1, "<a/>").expect("append");
        name_durably(&fs, Path::new("/s"), &[], true).expect("the start's sync");
        let history = fs.lock().history.take().expect("recorded");
        // After the header's append, before any sync: the store's name may
        // be missing, its segment missing, empty, half a header or whole.
        let (nodes, _) = &history[3];
        let states = states_at(nodes, Path::new("/s")).expect("bounded");
        let files = |state: &Option<Tree>| match state {
            Some(Tree::Dir(entries)) => entries.values().map(|t| matches!(t, Tree::File(b) if b.len() == 12)).collect(),
            _ => Vec::new(),
        };
        assert_eq!(states.len(), 5, "{states:?}");
        assert!(states.contains(&None) && states.iter().any(|s| files(s) == [true]));
        // The store's directory synced, and then the one naming it: the
        // segment's name is in every state.
        let (nodes, _) = history.last().expect("the start's sync");
        let states = states_at(nodes, Path::new("/s")).expect("bounded");
        assert!(states.iter().all(|s| matches!(s, Some(Tree::Dir(e)) if e.contains_key("gen-0.wal"))));
    }

    #[test]
    fn the_plans_recover_every_crash_state() {
        // One plan in a debug build; ci.sh runs them all, released.
        let report = run_crash_states(Config { seed: 2, cases: 1 });
        let outcome = report.outcome();
        assert!(outcome.divergences.is_empty(), "{:?}", outcome.divergences);
        assert_eq!(outcome.floor, Ok(()));
        assert!(report.plans.iter().all(|e| e.states > 0), "{}", outcome.summary);
    }
}
