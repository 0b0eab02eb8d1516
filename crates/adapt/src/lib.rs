//! Adaptive detection for hierod: drift monitors, store-driven refits,
//! and cross-sensor fusion (DESIGN.md §4.19).
//!
//! Industrial sensor fleets do not stay stationary: gauges recalibrate,
//! recipes change, ambient regimes shift with the seasons. A scorer
//! trained on yesterday's regime keeps flagging today's normal. This
//! crate closes the loop in three layers, each usable on its own:
//!
//! 1. **Drift detection** ([`drift`], [`scorer`]) — [`DriftingScorer`]
//!    wraps any registry scorer and watches its *emitted scores* with a
//!    two-sided `PageHinkley` test. Scores pass through bit-identical;
//!    sustained score inflation (model mismatch) raises alarms, counted
//!    per lane as `drift_events` and surfaced through
//!    [`StreamStats`](hierod_stream::StreamStats) and the wire protocol.
//! 2. **Store-driven refit** ([`refit`]) — [`AdaptiveStream`] polls the
//!    drift flags at tick boundaries and, per [`RefitPolicy`], rebuilds
//!    drifted scorers from the store's own sealed history: rotate, range
//!    scan through [`HistoryReader`](hierod_history::HistoryReader),
//!    rebuild via the `AlgoSpec` registry, warm on the trailing training
//!    window, swap. Swaps never revise emitted scores and are
//!    deterministic functions of the driven sequence, so recovery
//!    re-derives them.
//! 3. **Cross-sensor fusion** ([`fusion`]) — [`fuse_support`] recomputes
//!    Algorithm 1's support term from pairwise residual models
//!    (`"pair-regression"` / `"pair-diff"` registry entries) between
//!    declared redundant sensors: a sibling that *moves with* the
//!    primary confirms a process anomaly even below the threshold vote's
//!    detection floor; a sibling that stays put is direct
//!    measurement-error evidence.
//!
//! Everything is opt-in: a passthrough [`AdaptiveStream`] and an unfused
//! report are byte-identical to the plain pipeline (pinned by
//! `tests/adapt_equivalence.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drift;
pub mod fusion;
pub mod refit;
pub mod scorer;

pub use drift::MonitorSpec;
pub use fusion::{fuse_support, FusionOutcome, FusionPolicy};
pub use refit::{AdaptiveStream, RefitCause, RefitPolicy, RefitRecord};
pub use scorer::DriftingScorer;
