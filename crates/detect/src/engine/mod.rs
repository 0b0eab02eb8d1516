//! The detection engine: specs, resolution, standardization, scheduling.
//!
//! This module turns "run detector X with parameters P over data D" from a
//! per-call-site `match` into data flowing through one pipeline:
//!
//! 1. [`AlgoSpec`] — the selection as data: a registry key plus named
//!    parameters (`"ar"`, `"pca(components=2)"`).
//! 2. [`build`] — resolves a spec against the Table-1 registry and the
//!    supplemental catalog ([`all_entries`]) into a [`BoxedScorer`],
//!    validating parameter names and values with
//!    [`DetectError::InvalidParameter`](crate::api::DetectError).
//!    [`build_online`] is the online half: the same spec resolved into its
//!    incremental [`OnlineScorer`](crate::online::OnlineScorer), so no
//!    caller keeps a table of which entry has which streaming form.
//! 3. [`BoxedScorer`] — one runnable handle over every scorer trait, with
//!    drivers that bridge granularities (windows, PAA, SAX) where the
//!    underlying trait differs from the data at hand.
//! 4. [`Standardizer`] — turns raw, detector-specific score scales into
//!    comparable robust z-scores ([`RobustZ`]) so one threshold works
//!    across all 21+ detectors.
//! 5. [`run_tasks`] — the batch task runner: scoped threads claiming the
//!    per-(level × machine × sensor/job-group) scoring tasks that the
//!    hierarchy layer (`hierod-core`) decomposes a plant into from one
//!    shared queue.
//!
//! The `hierod-core` policy holds bare specs, one per level; nothing above
//! this module keeps its own list of algorithms to build scorers from.

pub(crate) mod boxed;
mod catalog;
mod scheduler;
mod spec;
mod standardize;

pub use boxed::{BoxedScorer, ScorerKind};
pub use catalog::{all_entries, build, build_online, find, supplemental};
pub use scheduler::{run_tasks, Task};
pub use spec::{AlgoSpec, ParamValue};
pub use standardize::{Identity, RobustZ, Standardizer};
