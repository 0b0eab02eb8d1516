//! # hierod-hierarchy
//!
//! The five-level production data model of the paper's Fig. 2:
//!
//! 1. **Phase level** — the most detailed view: multi-dimensional,
//!    high-resolution sensor series plus discrete event sequences, per
//!    production phase.
//! 2. **Job level** — one whole production run: setup (job configuration)
//!    plus a CAQ (computer-aided quality assurance) check; high-dimensional
//!    but not a time series.
//! 3. **Environment level** — series measured in the same period but not
//!    directly part of the process (e.g. room temperature).
//! 4. **Production-line level** — jobs over time on one machine: the
//!    high-dimensional setups become a time series across jobs.
//! 5. **Production level** — data from different machines; the most complex
//!    scenario.
//!
//! [`view`] materializes, for each level, exactly the data a detector
//! operating at that level sees; `hierod-core`'s Algorithm 1 walks these
//! views up and down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod caq;
pub mod environment;
pub mod job;
pub mod level;
pub mod line;
pub mod phase;
pub mod plant;
pub mod sensor;
pub mod view;

pub use caq::CaqResult;
pub use environment::Environment;
pub use job::{Job, JobConfig};
pub use level::Level;
pub use line::ProductionLine;
pub use phase::{Phase, PhaseKind};
pub use plant::Plant;
pub use sensor::{RedundancyGroup, Sensor, SensorKind};
pub use view::{JobVector, LevelView, SeriesAt};
