//! The store's file I/O, behind one seam.
//!
//! Every file the durable log touches — journal segments, checkpoint
//! snapshots, the store and shard directories — is created, written,
//! synced, renamed, removed, read and listed through a [`Dir`]. What a
//! power loss can lose depends only on the order of these operations, so
//! with one owner for them a simulated `Dir` can record each one with its
//! durability and enumerate the crash states the record permits
//! (`difftest --crash-states`). [`Real`] is the one production
//! implementation, over `std::fs`.

use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// A file open for appending.
pub trait File: Send + std::fmt::Debug {
    /// Writes `bytes` at the end of the file; a failure may leave a
    /// prefix of them written.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Cuts the file to `len` bytes; appends resume there.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Makes the file's data durable (its name: [`Dir::sync_dir`]).
    fn sync_data(&mut self) -> io::Result<()>;
}

/// The file-system operations of a store.
pub trait Dir: Send + Sync + std::fmt::Debug {
    /// Creates `path`, empty (truncating what was there), for appending.
    fn create(&self, path: &Path) -> io::Result<Box<dyn File>>;
    /// Opens the existing `path` for appending at its end.
    fn open(&self, path: &Path) -> io::Result<Box<dyn File>>;
    /// The whole content of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// The names of directory `path`'s entries.
    fn list(&self, path: &Path) -> io::Result<Vec<String>>;
    /// Creates directory `path` and its missing ancestors, if missing.
    fn create_dir(&self, path: &Path) -> io::Result<()>;
    /// Makes the entries created, renamed or removed in directory `path`
    /// durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Renames `from` to `to`, replacing `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// The directory holding `path`'s entry (`.` for a bare relative name).
pub(crate) fn parent(path: &Path) -> &Path {
    path.parent().filter(|parent| !parent.as_os_str().is_empty()).unwrap_or(Path::new("."))
}

/// Creates directory `root` and the directories `children` inside it
/// where missing, and returns, where the store syncs, the directories to
/// sync before it acknowledges a commit: `root`, which names the
/// children, and `root`'s parent, which names `root`. A store directory
/// whose name is lost comes up fresh, its acknowledged commits gone. Every
/// start syncs them, not only one that created a name: a start that
/// failed before its syncs leaves names that only a later start makes
/// durable.
pub fn create_dirs(fs: &dyn Dir, root: &Path, children: &[PathBuf], sync: bool) -> io::Result<Vec<PathBuf>> {
    fs.create_dir(root)?;
    for child in children {
        fs.create_dir(child)?;
    }
    let named = (!children.is_empty()).then_some(root).into_iter().chain([parent(root)]);
    Ok(named.filter(|_| sync).map(Path::to_path_buf).collect())
}

/// [`create_dirs`] with its syncs made in line, as a lone store's start
/// makes them (a shard set makes its own beside the shard opens).
pub fn name_durably(fs: &dyn Dir, root: &Path, children: &[PathBuf], sync: bool) -> io::Result<()> {
    create_dirs(fs, root, children, sync)?.iter().try_for_each(|dir| fs.sync_dir(dir))
}

/// The real file system.
#[derive(Debug, Clone, Copy)]
pub struct Real;

#[derive(Debug)]
struct RealFile(std::fs::File);

impl File for RealFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.write_all(bytes)
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)?;
        self.0.seek(SeekFrom::Start(len)).map(drop)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl Dir for Real {
    fn create(&self, path: &Path) -> io::Result<Box<dyn File>> {
        Ok(Box::new(RealFile(std::fs::File::create(path)?)))
    }
    fn open(&self, path: &Path) -> io::Result<Box<dyn File>> {
        let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Box::new(RealFile(file)))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn list(&self, path: &Path) -> io::Result<Vec<String>> {
        let entries = std::fs::read_dir(path)?;
        entries.map(|e| e.map(|e| e.file_name().to_string_lossy().into_owned())).collect()
    }
    fn create_dir(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}
