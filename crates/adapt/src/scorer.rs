//! [`DriftingScorer`]: the adaptive wrapper around any online scorer.
//!
//! Installed on a [`StreamDetector`](hierod_stream::StreamDetector) via
//! [`set_scorer_wrapper`](hierod_stream::StreamDetector::set_scorer_wrapper),
//! it forwards every push to the wrapped scorer unchanged — emitted
//! scores are bit-identical to the unwrapped pipeline — while feeding
//! each emitted score to a `PageHinkley` monitor. Detected drifts raise the
//! `drift_events` counter (surfaced through
//! [`StreamStats`](hierod_stream::StreamStats)) and latch a pending
//! flag the refit layer polls at tick boundaries.

use hierod_detect::online::OnlineScorer;
use hierod_detect::Result;

use crate::drift::PageHinkley;

/// Scores are clamped to this before the monitor sees them. Near-noise-free
/// series drive robust-z denominators towards zero and produce astronomic
/// score spikes; unclamped, a single such spike poisons a mean-based
/// monitor's running state for thousands of samples. Sixteen sigmas is
/// already "certainly an outlier" — anything above carries no additional
/// drift information.
const SCORE_CLIP: f64 = 16.0;

/// Monitored scores skipped after construction and after each swap.
/// A cold scorer's first scores describe its own unfitted state, not
/// the process: the incremental AR emits zeros until its first internal
/// fit, rolling windows emit degenerate z-scores until they fill.
/// Feeding that transient to the monitor manufactures a "mean shift"
/// out of thin air.
const MONITOR_WARMUP: u64 = 64;

/// An online scorer that watches its own output for drift.
pub struct DriftingScorer {
    inner: Box<dyn OnlineScorer>,
    monitor: PageHinkley,
    drift_events: u64,
    refits: u64,
    pending: bool,
    observed: u64,
    scratch: Vec<f64>,
}

impl DriftingScorer {
    /// Wraps `inner`, monitoring its emitted scores with `monitor`.
    pub(crate) fn new(inner: Box<dyn OnlineScorer>, monitor: PageHinkley) -> Self {
        Self {
            inner,
            monitor,
            drift_events: 0,
            refits: 0,
            pending: false,
            observed: 0,
            scratch: Vec::new(),
        }
    }

    /// `true` when a drift was detected since the last refit (or since
    /// construction) — the refit layer's poll.
    pub(crate) fn drift_pending(&self) -> bool {
        self.pending
    }

    /// Swaps in a freshly trained scorer (the refit commit point):
    /// counts one refit, clears the pending flag, and re-arms the
    /// monitor — the new model's residuals are a fresh stream. Counters
    /// survive the swap (they count the *lane*, not the model
    /// incarnation). Returns the retired scorer.
    pub(crate) fn swap_inner(&mut self, fresh: Box<dyn OnlineScorer>) -> Box<dyn OnlineScorer> {
        let old = std::mem::replace(&mut self.inner, fresh);
        self.refits += 1;
        self.pending = false;
        self.observed = 0;
        self.monitor.reset();
        old
    }
}

impl OnlineScorer for DriftingScorer {
    fn push(&mut self, timestamp: u64, value: f64, out: &mut Vec<f64>) -> Result<()> {
        self.scratch.clear();
        self.inner.push(timestamp, value, &mut self.scratch)?;
        for score in &self.scratch {
            self.observed += 1;
            if self.observed <= MONITOR_WARMUP {
                continue;
            }
            if self.monitor.observe(score.min(SCORE_CLIP)) {
                self.drift_events += 1;
                self.pending = true;
            }
        }
        out.extend_from_slice(&self.scratch);
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<f64>) -> Result<()> {
        // Flushed scores are not monitored: the stream is over, nothing
        // left to adapt.
        self.inner.finish(out)
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn drift_events(&self) -> u64 {
        self.drift_events
    }

    fn refits(&self) -> u64 {
        self.refits
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::MonitorSpec;
    use hierod_detect::engine::{self, AlgoSpec};
    use hierod_detect::online::{RollingRobustZ, WindowedBatch};
    use proptest::prelude::*;

    fn wrapped() -> DriftingScorer {
        DriftingScorer::new(
            Box::new(RollingRobustZ::new(32).expect("scorer")),
            MonitorSpec::page_hinkley().build(),
        )
    }

    /// Drives `scorer` over `values`; `None` when it gave the series up.
    fn drive(mut scorer: Box<dyn OnlineScorer>, values: &[f64]) -> Option<Vec<f64>> {
        let mut out = Vec::new();
        for (t, &v) in values.iter().enumerate() {
            scorer.push(t as u64, v, &mut out).ok()?;
            assert!(out.len() <= t + 1, "a score before its push");
        }
        scorer.finish(&mut out).ok()?;
        assert_eq!(out.len(), values.len(), "one score per push");
        Some(out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Whatever the wrapped scorer buffers — nothing (`ar`), a hop
        /// (`sax` runs hopping), the whole series (full history) — the
        /// wrapper passes its scores through: one per push, bit-identical.
        #[test]
        fn scores_are_identical_to_unwrapped(
            mut values in prop::collection::vec(-3.0_f64..3.0, 0..=400),
        ) {
            if let Some(spike) = values.get_mut(300) {
                *spike += 25.0;
            }
            let forms: [fn() -> Box<dyn OnlineScorer>; 3] = [
                || engine::build_online(&AlgoSpec::new("ar")).expect("ar"),
                || engine::build_online(&AlgoSpec::new("sax")).expect("sax"),
                || {
                    let batch = engine::build(&AlgoSpec::new("robust-z")).expect("robust-z");
                    Box::new(WindowedBatch::full_history(batch))
                },
            ];
            for bare in forms {
                let monitor = MonitorSpec::page_hinkley().build();
                let adaptive = Box::new(DriftingScorer::new(bare(), monitor));
                let bits = |out: Vec<f64>| out.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                prop_assert_eq!(
                    drive(adaptive, &values).map(bits),
                    drive(bare(), &values).map(bits),
                    "{}",
                    bare().name()
                );
            }
        }
    }

    #[test]
    fn drift_in_scores_raises_counter_and_pending() {
        let mut adaptive = wrapped();
        let mut out = Vec::new();
        // Stationary regime, then a sustained level shift the rolling
        // z-scorer keeps flagging (inflated scores = model mismatch).
        // The scorer's cold-start score transient can itself trip the
        // monitor, so the assertion is on the *increase* after the
        // shift, not on absolute quiet.
        for t in 0..400_u64 {
            adaptive
                .push(t, (t as f64 * 0.17).sin(), &mut out)
                .expect("push");
        }
        let baseline = adaptive.drift_events();
        for t in 400..1200_u64 {
            adaptive
                .push(t, 40.0 + (t as f64 * 0.17).sin(), &mut out)
                .expect("push");
        }
        assert!(adaptive.drift_events() > baseline);
        assert!(adaptive.drift_pending());
    }

    #[test]
    fn swap_counts_refit_and_clears_pending() {
        let mut adaptive = wrapped();
        let mut out = Vec::new();
        for t in 0..400_u64 {
            adaptive
                .push(t, (t as f64 * 0.17).sin(), &mut out)
                .expect("push");
        }
        for t in 400..1200_u64 {
            adaptive.push(t, 40.0, &mut out).expect("push");
        }
        let events_before = adaptive.drift_events();
        assert!(adaptive.drift_pending());
        let old = adaptive.swap_inner(Box::new(RollingRobustZ::new(32).expect("scorer")));
        assert_eq!(old.name(), "rolling-robust-z");
        assert_eq!(adaptive.refits(), 1);
        assert!(!adaptive.drift_pending());
        // Drift history survives the swap.
        assert_eq!(adaptive.drift_events(), events_before);
    }

    #[test]
    fn downcast_roundtrip_through_trait_object() {
        let mut boxed: Box<dyn OnlineScorer> = Box::new(wrapped());
        let any = boxed.as_any_mut().expect("adaptive wrapper is visible");
        assert!(any.downcast_mut::<DriftingScorer>().is_some());
        // Plain scorers stay opaque.
        let mut plain: Box<dyn OnlineScorer> = Box::new(RollingRobustZ::new(8).expect("scorer"));
        assert!(plain.as_any_mut().is_none());
    }
}
