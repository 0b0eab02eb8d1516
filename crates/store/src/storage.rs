//! The [`Storage`] abstraction: a minimal, object-safe file-system facade.
//!
//! The WAL and segment layers never touch `std::fs` directly — they go
//! through this trait, so the same code paths run against the real disk
//! ([`DiskStorage`]) and against the deterministic in-memory
//! fault-injection harness ([`MemStorage`](crate::faultfs::MemStorage)).
//! The surface is deliberately tiny: append-only files, whole-file reads,
//! atomic rename, and directory listing — exactly what a log-structured
//! store needs, and small enough that fault injection can cover every
//! operation.

use std::fs;
use std::io::{self, Seek, Write};
use std::path::PathBuf;

/// An append-only handle to one storage file.
///
/// `Send` is part of the contract: handles end up inside tenants that
/// the serving layer moves across worker threads.
pub trait StorageFile: Send {
    /// Appends bytes at the end of the file. May buffer; only
    /// [`StorageFile::sync`] makes the data crash-durable.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Flushes buffers and makes every appended byte durable (fsync).
    fn sync(&mut self) -> io::Result<()>;
}

/// A flat namespace of append-only files.
pub trait Storage {
    /// Lists every file name, sorted.
    fn list(&self) -> io::Result<Vec<String>>;

    /// Reads a whole file.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Creates (or truncates) a file, returning its append handle.
    fn create(&self, name: &str) -> io::Result<Box<dyn StorageFile>>;

    /// Opens an existing file for appending at its current end.
    fn open_append(&self, name: &str) -> io::Result<Box<dyn StorageFile>>;

    /// Atomically renames a file (replacing any existing target).
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;

    /// Deletes a file.
    fn remove(&self, name: &str) -> io::Result<()>;
}

/// Real-disk storage rooted at one directory.
#[derive(Debug, Clone)]
pub struct DiskStorage {
    root: PathBuf,
}

impl DiskStorage {
    /// Opens (creating if needed) the directory at `root`.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub(crate) fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

/// A buffered append handle over a real file.
struct DiskFile {
    file: io::BufWriter<fs::File>,
}

impl StorageFile for DiskFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_data()
    }
}

impl Storage for DiskStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        fs::read(self.path(name))
    }

    fn create(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        let file = fs::File::create(self.path(name))?;
        Ok(Box::new(DiskFile {
            file: io::BufWriter::new(file),
        }))
    }

    fn open_append(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        let mut file = fs::OpenOptions::new()
            .write(true)
            .read(true)
            .open(self.path(name))?;
        file.seek(io::SeekFrom::End(0))?;
        Ok(Box::new(DiskFile {
            file: io::BufWriter::new(file),
        }))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        fs::rename(self.path(from), self.path(to))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        fs::remove_file(self.path(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hierod-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn disk_round_trip_and_rename() {
        let root = tmp_root("disk");
        let storage = DiskStorage::open(&root).expect("open");
        {
            let mut f = storage.create("a.tmp").expect("create");
            f.append(b"hello ").expect("append");
            f.append(b"wal").expect("append");
            f.sync().expect("sync");
        }
        storage.rename("a.tmp", "a.log").expect("rename");
        assert_eq!(storage.read("a.log").expect("read"), b"hello wal");
        assert_eq!(storage.list().expect("list"), vec!["a.log".to_string()]);
        storage.remove("a.log").expect("remove");
        assert!(storage.list().expect("list").is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_append_continues_at_the_end() {
        let root = tmp_root("append");
        let storage = DiskStorage::open(&root).expect("open");
        {
            let mut f = storage.create("w.log").expect("create");
            f.append(b"abc").expect("append");
            f.sync().expect("sync");
        }
        {
            let mut f = storage.open_append("w.log").expect("open_append");
            f.append(b"def").expect("append");
            f.sync().expect("sync");
        }
        assert_eq!(storage.read("w.log").expect("read"), b"abcdef");
        let _ = fs::remove_dir_all(&root);
    }
}
