//! # hierod-core
//!
//! Algorithm 1 of Hoppenstedt et al. (EDBT 2019): `FindHierarchicalOutlier`,
//! producing for every detected outlier the paper's result triple
//! **⟨global score, outlierness, support⟩**:
//!
//! * **outlierness** — "the significance of the outlier as computed by the
//!   actually used algorithm" ([`policy`] chooses that algorithm per level,
//!   mirroring `ChooseAlgorithm`).
//! * **support** — fraction of *corresponding sensors* (redundant sensors
//!   measuring the same quantity, plus the environment echo) that confirm
//!   the outlier at the same time ([`support`]).
//! * **global score** — how far up the five-level hierarchy the outlier
//!   re-appears ([`global_score`]), with the paper's downward check: an
//!   outlier visible at a high level but absent below it raises a
//!   *measurement-error warning*.
//!
//! Both read their evidence through `evidence::Evidence`, which indexes
//! the plant's series, correspondents, job spans and per-level outliers
//! once per report.
//!
//! [`pipeline::find_hierarchical_outliers`] runs the whole algorithm on a
//! [`hierod_hierarchy::Plant`]; [`fusion`] combines the triple into a single
//! ranking (our concretization of the paper's "combine outlier information
//! from the different levels in a valuable manner"); [`experiment`] hosts
//! the evaluation harness behind the E4/E5/E7 experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod detect_level;
pub mod evidence;
pub mod experiment;
pub mod fusion;
pub mod global_score;
pub mod outlier;
pub mod pipeline;
pub mod policy;
pub mod support;

pub use detect_level::{detect_all_levels, detect_level, LevelDetections, LevelOutlier};
pub use fusion::FusionRule;
pub use outlier::{HierOutlier, HierReport, Warning};
pub use pipeline::{find_hierarchical_outliers, FindOptions};
pub use policy::{AlgorithmPolicy, PhaseChoice};
