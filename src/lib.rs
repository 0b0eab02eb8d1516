//! # hierod — Hierarchical Outlier Detection for Industrial Production Settings
//!
//! Facade crate re-exporting the full `hierod` workspace: a reproduction of
//! Hoppenstedt et al., *Towards a Hierarchical Approach for Outlier Detection
//! in Industrial Production Settings* (EDBT 2019 workshops).
//!
//! * [`timeseries`] — series containers, statistics, distances, SAX, FFT,
//!   histograms.
//! * [`olap`] — minimal OLAP cube substrate.
//! * [`detect`] — one working detector per row of the paper's Table 1.
//! * [`hierarchy`] — the five-level production data model of the paper's
//!   Fig. 2.
//! * [`synth`] — additive-manufacturing workload generator with Fig.-1
//!   anomaly injection and ground truth.
//! * [`eval`] — evaluation metrics.
//! * [`corpus`] — bibliographic corpus substrate used to regenerate Fig. 3.
//! * [`core`] — Algorithm 1: `FindHierarchicalOutlier` with the
//!   ⟨global score, outlierness, support⟩ triple.
//! * [`stream`] — streaming ingestion and online hierarchical detection:
//!   per-sensor watermarks, incremental scorers, and a batch-equivalent
//!   streaming driver for Algorithm 1.
//! * [`store`] — durable substrate for the stream: CRC-checksummed
//!   write-ahead log, immutable columnar segments, crash recovery, and a
//!   deterministic fault-injection harness.
//! * [`history`] — the historical query tier over the store's sealed
//!   segments: tiered compaction into Gorilla-compressed history files,
//!   pruned time-range scans, and backfill re-detection over stored ranges.
//! * [`service`] — the service layer of the api → service → engine split:
//!   [`PlantService`](hierod_service::PlantService), the one plant-driving
//!   entry point shared by the embedded and network paths.
//! * [`wire`] — length-prefixed binary wire protocol; ingest frames are
//!   WAL records verbatim, so a captured stream replays through the store.
//! * [`server`] — std-only TCP front-end serving a `PlantService` to
//!   concurrent clients, with bounded accept queue and graceful drain.
//! * [`adapt`] — adaptive detection: residual drift monitors
//!   (Page–Hinkley, ADWIN-style), store-driven scorer refits at tick
//!   boundaries, and cross-sensor fusion for Algorithm 1's support term.

#![forbid(unsafe_code)]

pub use hierod_adapt as adapt;
pub use hierod_core as core;
pub use hierod_corpus as corpus;
pub use hierod_detect as detect;
pub use hierod_eval as eval;
pub use hierod_hierarchy as hierarchy;
pub use hierod_history as history;
pub use hierod_olap as olap;
pub use hierod_server as server;
pub use hierod_service as service;
pub use hierod_store as store;
pub use hierod_stream as stream;
pub use hierod_synth as synth;
pub use hierod_timeseries as timeseries;
pub use hierod_wire as wire;
