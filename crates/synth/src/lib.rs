//! # hierod-synth
//!
//! Seeded additive-manufacturing (industrial 3D-printing) workload
//! generator — the substitute for the paper's never-published "real-life
//! data of a company that produces machines in an industrial large-scale
//! production setting" (its Section 6 outlook).
//!
//! The generator emits a [`hierod_hierarchy::Plant`] with all five levels of
//! the paper's Fig. 2 populated, plus a [`labels::GroundTruth`] recording
//! every injected anomaly:
//!
//! * [`process`] — physical per-phase signal models (temperature ramps,
//!   laser modulation, recoater vibration) with AR(1) measurement noise;
//!   redundant sensors share a latent signal and differ only in noise/bias.
//! * [`inject`] — the four outlier types of the paper's Fig. 1 (additive,
//!   innovative, temporary change, level shift), each injectable as a
//!   *measurement error* (one sensor of a redundancy group) or a *process
//!   anomaly* (all redundant sensors, propagating upward into CAQ results
//!   and thus into job/line/production levels).
//! * [`scenario`] — the scenario builder combining both.
//! * [`labels`] — ground truth at point, job, and series granularity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod faults;
pub mod inject;
pub mod labels;
pub mod process;
pub mod replay;
pub mod scenario;

pub use faults::{apply_channel_faults, ChannelFaults, FaultKind};
pub use inject::{Injection, OutlierType, Scope};
pub use labels::{ChannelFaultRecord, EnvInjectionRecord, GroundTruth, InjectionRecord};
pub use replay::ReplayEvent;
pub use scenario::{Scenario, ScenarioBuilder};
