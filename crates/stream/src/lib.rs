//! # hierod-stream
//!
//! Streaming ingestion and **online hierarchical detection**: the paper
//! frames hierarchical outlier detection as continuous monitoring of a
//! live plant, and this crate turns the batch engine into that always-on
//! pipeline.
//!
//! * [`lane`] — the ingest value types: [`Sample`], the [`LaneId`]
//!   naming its sensor lane, and the id's resolved forms ([`LaneHandle`],
//!   a client's [`LaneTable`]). A sample reaches a detector one way:
//!   resolve the lane, apply by handle — `ingest(&LaneId, Sample)` is
//!   that with the resolve done per call.
//! * [`watermark`] — per-sensor watermarks with bounded allowed lateness:
//!   out-of-order, late, and duplicate samples are reordered (or counted
//!   and dropped) before any scorer sees them.
//! * [`detector`] — [`StreamDetector`]: feeds per-sample phase/environment
//!   scores from [`hierod_detect::online`] scorers upward through the
//!   existing Algorithm-1 `CalcGlobalScore` propagation on watermark
//!   ticks, emitting the same ⟨global score, outlierness, support⟩
//!   triples as the batch path (the stream/batch equivalence test pins
//!   this).
//! * [`durable`] — [`DurableStream`]: wraps the detector in a
//!   [`hierod_store`] write-ahead log + columnar segment store, making
//!   every accepted sample and control event crash-durable; on restart it
//!   rebuilds the exact pre-crash detector state from segments plus the
//!   WAL tail (the fault-injection suite pins crash-equivalence).
//! * [`tenant`] — multi-plant tenancy: a [`PlantRegistry`] hosting N
//!   independent plants in one process, each a [`Tenant`] holding one
//!   [`DurableStream`] under its own durable directory, recovered in
//!   isolation.
//! * [`codec`] — the public value ↔ byte codecs for lanes and control
//!   events shared by the durability WAL and the network wire protocol
//!   (`hierod-wire`): both serialise the same opaque bodies, so a
//!   captured ingest stream is replayable through the store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod detector;
pub mod durable;
pub mod lane;
pub mod tenant;
pub mod watermark;

pub use detector::{
    ControlEvent, LaneStats, ScorerMode, StreamConfig, StreamDetector, StreamEvent, StreamReport,
    StreamStats,
};
pub use durable::{
    replay_journal, DurableRecovery, DurableStream, RecoverySummary, Replayed, Stored,
};
pub use lane::{LaneHandle, LaneId, LaneKind, LaneTable, RunError, Sample, MAX_LANES};
pub use tenant::{Health, PlantHealth, PlantRegistry, Tenant, TenantConfig};
pub use watermark::{LatenessStats, Watermark};
