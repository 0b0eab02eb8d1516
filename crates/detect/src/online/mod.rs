//! Online (streaming) scoring: per-sample outlierness with bounded state.
//!
//! The batch traits ([`PointScorer`](crate::PointScorer) & friends) see a
//! whole series at once; a live plant delivers one sample at a time. An
//! [`OnlineScorer`] consumes `(timestamp, value)` pairs in timestamp order
//! (a watermark upstream guarantees that) and emits **one score per pushed
//! sample, in push order** — possibly later than the push, possibly in
//! bursts: windowed adapters buffer until a hop boundary, and full-history
//! mode defers everything to [`OnlineScorer::finish`]. A scorer emits
//! scores and nothing else: the caller already holds the samples it
//! pushed, so the i-th score belongs to its i-th push.
//!
//! Two families implement the trait:
//!
//! * [`WindowedBatch`] wraps **any** [`BoxedScorer`](crate::engine::BoxedScorer)
//!   behind a hop/slide policy, so every one of the registry's 32 entries
//!   is drivable online. Its full-history mode reproduces batch scores
//!   bit-for-bit (the stream/batch equivalence test relies on that).
//! * Native incrementals — [`RollingRobustZ`], [`IncrementalAr`],
//!   [`SlidingKnn`], [`SlidingLof`] — score each sample as it arrives in
//!   O(window) work and O(window) memory. They are *approximations* of
//!   their batch counterparts (running moments, periodic refits) traded
//!   for per-sample latency; the `detect.online.*_ns_per_sample` ladder
//!   rungs quantify the trade.
//!
//! Which form a spec takes online is the engine's decision, not a
//! caller's: [`engine::build_online`](crate::engine::build_online) maps a
//! spec to its incremental form, and [`WindowedBatch::full_history`] over
//! [`engine::build`](crate::engine::build) is the batch-equivalent one.
//!
//! Scores follow the crate convention: non-negative, larger = more
//! anomalous, standardized downstream (not here).

mod incremental_ar;
mod neighbors;
mod rolling;
mod windowed;

pub use incremental_ar::IncrementalAr;
pub use neighbors::{SlidingKnn, SlidingLof};
pub use rolling::RollingRobustZ;
pub use windowed::WindowedBatch;

use crate::api::Result;

/// Incremental scorer: samples in (timestamp order), raw scores out.
///
/// Contract:
/// * `push` may append zero or more scores (buffering is allowed); across
///   all `push` and `finish` calls **one score per pushed sample, in push
///   order**, is appended, unless an error is returned.
/// * `finish` flushes whatever is buffered; afterwards the scorer is
///   spent — further pushes have unspecified scores.
/// * An `Err` from either call poisons the series: the caller drops the
///   series from the report exactly as the batch path drops series that
///   fail to score.
pub trait OnlineScorer: Send {
    /// Feeds one sample; appends any newly available scores to `out`.
    fn push(&mut self, timestamp: u64, value: f64, out: &mut Vec<f64>) -> Result<()>;

    /// End of stream: appends the scores of everything still buffered.
    fn finish(&mut self, out: &mut Vec<f64>) -> Result<()>;

    /// Short label for reports and benches.
    fn name(&self) -> &'static str;

    /// Drift events observed so far (non-zero only for adaptive wrappers;
    /// plain incrementals report 0).
    fn drift_events(&self) -> u64 {
        0
    }

    /// Model refits performed so far (non-zero only for adaptive wrappers).
    fn refits(&self) -> u64 {
        0
    }

    /// Downcast hook for adaptive wrappers: a wrapper that wants to be
    /// rediscovered through a `Box<dyn OnlineScorer>` (the `hierod-adapt`
    /// refit pass walks pipelines this way) overrides this to return
    /// `Some(self)`; plain scorers stay opaque.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}
