//! Statistical baselines (not Table-1 rows).
//!
//! The paper proposes comparing its hierarchical triple against the flat
//! single-level practice; these four classical detectors are that practice.

pub mod float;
mod zscore;

pub use float::{midpoint_median, nan_last_cmp, sort_total};
pub use zscore::{GlobalZScore, IqrFence, RobustZScore, SlidingZScore};
