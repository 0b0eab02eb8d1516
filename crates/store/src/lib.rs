//! # hierod-store
//!
//! The durable storage tier under `hierod-stream`: every sample and
//! control event that enters the plant is made crash-durable **before**
//! it is scored, and a restarted process recovers the exact detector
//! state the crashed one would have reached.
//!
//! * [`storage`] — the tiny [`Storage`]/[`StorageFile`] file-system
//!   facade ([`DiskStorage`] for production).
//! * [`faultfs`] — [`MemStorage`]: a deterministic in-memory
//!   implementation with crash levers (write-budget kills, torn tails,
//!   bit flips) that drives the crash-equivalence proptests.
//! * [`wal`] — length-prefixed, CRC32-checksummed write-ahead-log
//!   records with truncate-at-first-bad-record scanning.
//! * [`segment`] — immutable columnar segment files: delta-encoded
//!   timestamp columns, raw IEEE-754 value columns, per-column
//!   checksums, and a checksummed footer index; decoded straight into
//!   `Arc` columns for zero-copy `TimeSeries` adoption.
//! * [`gorilla`] — the compressed column codecs (XOR floats +
//!   double-delta timestamps) negotiated per chunk through the segment
//!   footer by the history tier.
//! * [`store`] — the [`Store`] facade: one active WAL with group-commit
//!   batching, sealed segments, the crash-safe rotation protocol, and
//!   full recovery on open.
//! * [`tenants`] — per-plant storage roots
//!   (`<root>/<plant-id>/shard-<k>/`) behind the [`StorageFactory`]
//!   trait, keeping every tenant's WAL and segments disjoint so one
//!   plant's corruption can never poison another's recovery.
//!
//! The crate is deliberately dependency-free (std only) and contains no
//! panic sites in library code — the `xtask` panic lint holds it at a
//! **zero** budget: a corrupt byte on disk must surface as a counted,
//! recoverable condition, never a crash loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod crc;
pub mod faultfs;
pub mod gorilla;
pub mod segment;
pub mod storage;
pub mod store;
pub mod tenants;
pub mod wal;

pub use faultfs::MemStorage;
pub use segment::{
    ChunkMeta, ColumnEncoding, ControlRecord, DecodedChunk, LaneDef, SegmentChunk, SegmentData,
    SegmentDraft, SegmentError, SegmentIndex,
};
pub use storage::{DiskStorage, Storage, StorageFile};
pub use store::{Recovered, RecoveryStats, Store, StoreOptions};
pub use tenants::{valid_tenant_id, DiskFactory, MemFactory, StorageFactory, MAX_TENANT_ID_LEN};
pub use wal::{WalCorruption, WalRecord, WalScan};
