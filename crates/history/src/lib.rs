//! # hierod-history
//!
//! The historical query tier over `hierod-store`'s sealed segments:
//! everything that happens to plant data *after* it stops being hot.
//!
//! The durability layer ([`hierod_store::store`]) rotates the live WAL
//! into one raw segment per rotation — ideal for crash recovery, poor
//! for history: a month of ingest is thousands of small files with
//! ~21 bytes per sample. This crate adds the cold path on top, without
//! changing a single byte the hot path writes:
//!
//! * [`compact`](mod@compact) — tiered compaction. Sealed rotation segments
//!   (`seg-N.seg`) merge into per-level history files
//!   (`hist-LO-HI.seg`) whose chunk columns are re-encoded with the
//!   Gorilla-style codecs ([`hierod_store::gorilla`]). The merge is
//!   crash-safe under the store's own recovery rules: every commit
//!   point is a tmp → fsync → rename publish, and a crash at any
//!   intermediate step recovers to either the old or the new state.
//! * [`reader`] — [`HistoryReader`]: time-range scans over a read-only
//!   snapshot of a store directory. Chunk min/max footer metadata
//!   prunes whole chunks without touching (or checksumming) their
//!   columns; decoded columns are adopted into
//!   [`TimeSeries`](hierod_timeseries::TimeSeries) zero-copy where the
//!   range allows.
//! * [`backfill`](mod@backfill) — re-detection over stored ranges: replay a plant's
//!   stored stream through a fresh detector, optionally with a
//!   different phase-level algorithm, and diff the outlier report
//!   against what the original policy produces. "What would last
//!   month's report have looked like under `sliding-z(window=64)`?"
//!   becomes a pure function of the store directory.
//!
//! The crate is std-only and panic-free in library code (the `xtask`
//! panic lint holds it at a zero budget, like the store beneath it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod backfill;
pub mod compact;
pub mod reader;

pub use backfill::{backfill, diff_reports, BackfillDiff, BackfillOutcome};
pub use compact::{compact, CompactionOptions, CompactionStats};
pub use reader::{snapshot, HistoryReader, LaneSeries, RangeQuery, ScanStats, StoreSnapshot};
