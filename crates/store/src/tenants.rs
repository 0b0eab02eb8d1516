//! Tenant-scoped storage roots for multi-plant deployments.
//!
//! A single `hierod` process can host many plants ("tenants"). Each
//! tenant owns an isolated slice of the storage tree so that one
//! plant's corrupt WAL or torn segment can never poison another
//! plant's recovery:
//!
//! ```text
//! <root>/
//!   <plant-id>/
//!     shard-0/   wal + segments for shard 0
//!     shard-1/   ...
//! ```
//!
//! [`StorageFactory`] abstracts that layout: [`DiskFactory`] maps it
//! onto real directories, [`MemFactory`] onto deterministic
//! [`MemStorage`] instances for fault-injection tests. Discovery is
//! intentionally shallow — a factory only enumerates tenant ids and
//! shard indices; everything below a shard root stays behind the flat
//! [`Storage`] namespace the WAL and segment code already use.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::faultfs::MemStorage;
use crate::storage::{DiskStorage, Storage};

/// Maximum accepted tenant-id length in bytes.
pub const MAX_TENANT_ID_LEN: usize = 64;

/// Returns `true` when `id` is a well-formed tenant id.
///
/// Tenant ids become directory names — and since the network front-end
/// they arrive over the wire from untrusted clients — so the grammar is
/// deliberately strict and pinned by proptest
/// (`tests/tenant_id_props.rs`):
///
/// * 1–[`MAX_TENANT_ID_LEN`] bytes, all of `[A-Za-z0-9._-]` — no path
///   separators, no NUL, nothing the filesystem could interpret;
/// * split on `.`, every segment is non-empty — this rejects leading
///   dots (hidden directories), trailing dots (stripped on some
///   filesystems), bare `.`/`..`, and any embedded `..` traversal
///   shape like `a..b`;
/// * the first byte is not `-` (no option-like names).
///
/// `shard-<k>` never collides because tenants live one level above
/// shard directories.
pub fn valid_tenant_id(id: &str) -> bool {
    let bytes = id.as_bytes();
    if bytes.is_empty() || bytes.len() > MAX_TENANT_ID_LEN {
        return false;
    }
    if bytes.first() == Some(&b'-') {
        return false;
    }
    if !bytes
        .iter()
        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
    {
        return false;
    }
    // Every dot-separated segment must be non-empty: catches ".", "..",
    // ".hidden", "trailing.", and "a..b" in one rule.
    id.split('.').all(|segment| !segment.is_empty())
}

fn invalid_tenant(id: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("invalid tenant id {id:?}"),
    )
}

/// Opens per-tenant, per-shard [`Storage`] roots.
///
/// Implementations must keep tenants fully disjoint: nothing written
/// through one tenant's storage may be visible through another's.
pub trait StorageFactory {
    /// The storage implementation handed to each shard.
    type Storage: Storage;

    /// Opens (creating if absent) the storage root of one tenant shard.
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`] for malformed tenant
    /// ids (see [`valid_tenant_id`]).
    fn open_shard(&self, tenant: &str, shard: usize) -> io::Result<Self::Storage>;

    /// Lists the tenant ids that already have storage, sorted.
    fn list_tenants(&self) -> io::Result<Vec<String>>;

    /// Number of shards an existing tenant was laid out with.
    ///
    /// Returns `0` for an unknown tenant. The count is derived from
    /// the highest `shard-<k>` root present, so a tenant created with
    /// `n` shards reports `n` even if some shards never wrote a byte.
    fn shard_count(&self, tenant: &str) -> io::Result<usize>;
}

fn shard_dir_index(name: &str) -> Option<usize> {
    name.strip_prefix("shard-")?.parse::<usize>().ok()
}

/// Directory-tree [`StorageFactory`]: `<root>/<tenant>/shard-<k>/`.
pub struct DiskFactory {
    root: PathBuf,
}

impl DiskFactory {
    /// Opens a factory rooted at `root`, creating the directory if
    /// needed.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskFactory { root })
    }
}

impl StorageFactory for DiskFactory {
    type Storage = DiskStorage;

    fn open_shard(&self, tenant: &str, shard: usize) -> io::Result<DiskStorage> {
        if !valid_tenant_id(tenant) {
            return Err(invalid_tenant(tenant));
        }
        DiskStorage::open(self.root.join(tenant).join(format!("shard-{shard}")))
    }

    fn list_tenants(&self) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            if let Some(name) = entry.file_name().to_str() {
                if valid_tenant_id(name) {
                    out.push(name.to_string());
                }
            }
        }
        out.sort();
        Ok(out)
    }

    fn shard_count(&self, tenant: &str) -> io::Result<usize> {
        if !valid_tenant_id(tenant) {
            return Err(invalid_tenant(tenant));
        }
        let dir = self.root.join(tenant);
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(err) => return Err(err),
        };
        let mut count = 0usize;
        for entry in entries {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            if let Some(k) = entry.file_name().to_str().and_then(shard_dir_index) {
                count = count.max(k + 1);
            }
        }
        Ok(count)
    }
}

/// Deterministic in-memory [`StorageFactory`] over [`MemStorage`].
///
/// Every `(tenant, shard)` pair maps to one shared [`MemStorage`]
/// instance: repeated [`StorageFactory::open_shard`] calls return
/// clones backed by the same bytes, so a test can keep a handle (via
/// [`MemFactory::storage`]) and pull fault levers — write budgets,
/// torn tails, bit flips — on one tenant while others keep running.
#[derive(Default)]
pub struct MemFactory {
    shards: Mutex<BTreeMap<(String, usize), MemStorage>>,
}

impl MemFactory {
    /// Creates an empty factory.
    pub fn new() -> Self {
        MemFactory::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<(String, usize), MemStorage>> {
        self.shards.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns a handle to an already-opened shard storage, if any.
    pub fn storage(&self, tenant: &str, shard: usize) -> Option<MemStorage> {
        self.lock().get(&(tenant.to_string(), shard)).cloned()
    }

    /// Snapshots the whole tree as a post-crash factory.
    ///
    /// Each shard storage is replaced by its
    /// [`MemStorage::crash_image`]; `keep_unsynced` controls whether
    /// un-fsynced appends survive into the image.
    pub fn crash_image(&self, keep_unsynced: bool) -> MemFactory {
        let shards = self
            .lock()
            .iter()
            .map(|(key, storage)| (key.clone(), storage.crash_image(keep_unsynced)))
            .collect();
        MemFactory {
            shards: Mutex::new(shards),
        }
    }
}

impl StorageFactory for MemFactory {
    type Storage = MemStorage;

    fn open_shard(&self, tenant: &str, shard: usize) -> io::Result<MemStorage> {
        if !valid_tenant_id(tenant) {
            return Err(invalid_tenant(tenant));
        }
        Ok(self
            .lock()
            .entry((tenant.to_string(), shard))
            .or_default()
            .clone())
    }

    fn list_tenants(&self) -> io::Result<Vec<String>> {
        let mut out: Vec<String> = Vec::new();
        for (tenant, _) in self.lock().keys() {
            if out.last().map(String::as_str) != Some(tenant.as_str()) {
                out.push(tenant.clone());
            }
        }
        Ok(out)
    }

    fn shard_count(&self, tenant: &str) -> io::Result<usize> {
        if !valid_tenant_id(tenant) {
            return Err(invalid_tenant(tenant));
        }
        Ok(self
            .lock()
            .keys()
            .filter(|(t, _)| t == tenant)
            .map(|(_, k)| k + 1)
            .max()
            .unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_id_grammar() {
        assert!(valid_tenant_id("plant-a"));
        assert!(valid_tenant_id("Plant_01.eu"));
        assert!(!valid_tenant_id(""));
        assert!(!valid_tenant_id(".hidden"));
        assert!(!valid_tenant_id(".."));
        assert!(!valid_tenant_id("-flag"));
        assert!(!valid_tenant_id("a/b"));
        assert!(!valid_tenant_id("a b"));
        assert!(!valid_tenant_id(&"x".repeat(MAX_TENANT_ID_LEN + 1)));
    }

    #[test]
    fn mem_factory_shares_bytes_per_shard_and_isolates_tenants() {
        let factory = MemFactory::new();
        let a0 = factory.open_shard("plant-a", 0).unwrap();
        let mut f = a0.create("wal-000001").unwrap();
        f.append(b"hello").unwrap();
        f.sync().unwrap();
        drop(f);

        // Re-opening the same shard sees the same bytes.
        let again = factory.open_shard("plant-a", 0).unwrap();
        assert_eq!(again.read("wal-000001").unwrap(), b"hello");

        // A different tenant (or shard) sees an empty namespace.
        let b0 = factory.open_shard("plant-b", 0).unwrap();
        assert!(b0.list().unwrap().is_empty());
        let a1 = factory.open_shard("plant-a", 1).unwrap();
        assert!(a1.list().unwrap().is_empty());

        assert_eq!(factory.list_tenants().unwrap(), vec!["plant-a", "plant-b"]);
        assert_eq!(factory.shard_count("plant-a").unwrap(), 2);
        assert_eq!(factory.shard_count("plant-b").unwrap(), 1);
        assert_eq!(factory.shard_count("plant-c").unwrap(), 0);
    }

    #[test]
    fn mem_factory_crash_image_is_per_tenant() {
        let factory = MemFactory::new();
        let a0 = factory.open_shard("a", 0).unwrap();
        let b0 = factory.open_shard("b", 0).unwrap();
        for (storage, payload) in [(&a0, b"aaaa".as_slice()), (&b0, b"bbbb".as_slice())] {
            let mut f = storage.create("wal-000001").unwrap();
            f.append(payload).unwrap();
            f.sync().unwrap();
        }
        // Unsynced tail only on tenant a.
        let mut f = a0.open_append("wal-000001").unwrap();
        f.append(b"tail").unwrap();
        drop(f);

        let image = factory.crash_image(false);
        assert_eq!(
            image
                .open_shard("a", 0)
                .unwrap()
                .read("wal-000001")
                .unwrap(),
            b"aaaa"
        );
        assert_eq!(
            image
                .open_shard("b", 0)
                .unwrap()
                .read("wal-000001")
                .unwrap(),
            b"bbbb"
        );
        // Mutating the image never leaks back into the live factory.
        image
            .open_shard("a", 0)
            .unwrap()
            .remove("wal-000001")
            .unwrap();
        assert!(a0.read("wal-000001").is_ok());
    }

    #[test]
    fn disk_factory_layout_roundtrip() {
        let root = std::env::temp_dir().join(format!(
            "hierod-tenants-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let factory = DiskFactory::open(&root).unwrap();
        assert!(factory.list_tenants().unwrap().is_empty());

        let s = factory.open_shard("plant-a", 1).unwrap();
        let mut f = s.create("seg-000001").unwrap();
        f.append(b"data").unwrap();
        f.sync().unwrap();
        drop(f);
        factory.open_shard("plant-b", 0).unwrap();

        assert!(root.join("plant-a").join("shard-1").is_dir());
        assert_eq!(factory.list_tenants().unwrap(), vec!["plant-a", "plant-b"]);
        assert_eq!(factory.shard_count("plant-a").unwrap(), 2);
        assert_eq!(factory.shard_count("plant-b").unwrap(), 1);
        assert!(factory.open_shard("../evil", 0).is_err());
        assert!(factory.shard_count("nope").unwrap() == 0);

        let _ = std::fs::remove_dir_all(&root);
    }
}
