//! Generic batch→online adapter: any [`BoxedScorer`] behind a hop policy.

use crate::api::Result;
use crate::engine::BoxedScorer;
use crate::online::OnlineScorer;

/// Drives an arbitrary batch scorer over a streaming series.
///
/// Two policies:
///
/// * **Full history** ([`WindowedBatch::full_history`]): buffer everything,
///   score once at [`finish`](OnlineScorer::finish) over the complete
///   series. This calls the wrapped scorer exactly the way the batch
///   pipeline does, so the raw scores are **bit-identical** to batch —
///   the equivalence-grade mode. Memory is O(series).
/// * **Hopping** ([`WindowedBatch::hopping`]): keep the last `window`
///   samples; every `hop` pushes, re-score the window and emit the `hop`
///   newest points. Memory is O(window) and emit latency is bounded by
///   the hop, at the cost of re-scoring overlap. A window too short for
///   the wrapped scorer (warm-up) emits zero scores instead of failing
///   the series; only full-history propagates scorer errors, because
///   there they mean the *whole* series is unscorable — the same verdict
///   batch reaches.
pub struct WindowedBatch {
    scorer: BoxedScorer,
    /// `None` = full history.
    window: Option<usize>,
    hop: usize,
    values: Vec<f64>,
    /// Trailing samples not yet emitted.
    unscored: usize,
}

impl WindowedBatch {
    /// Equivalence-grade adapter: defer to one batch call over the full
    /// series at finish time.
    pub fn full_history(scorer: BoxedScorer) -> Self {
        Self {
            scorer,
            window: None,
            hop: 0,
            values: Vec::new(),
            unscored: 0,
        }
    }

    /// Bounded-memory adapter: re-score the last `window` samples every
    /// `hop` pushes.
    ///
    /// # Errors
    /// Rejects `hop == 0`, `window == 0`, or `hop > window`.
    pub fn hopping(scorer: BoxedScorer, window: usize, hop: usize) -> Result<Self> {
        if window == 0 {
            return Err(crate::DetectError::invalid("window", "must be > 0"));
        }
        if hop == 0 || hop > window {
            return Err(crate::DetectError::invalid(
                "hop",
                format!("must be in 1..={window}"),
            ));
        }
        Ok(Self {
            scorer,
            window: Some(window),
            hop,
            values: Vec::new(),
            unscored: 0,
        })
    }

    /// Scores the buffered window and emits the trailing `unscored`
    /// scores; a scorer error (warm-up: window still too short) emits
    /// zeros instead.
    fn emit_tail(&mut self, out: &mut Vec<f64>) {
        if self.unscored == 0 {
            return;
        }
        let scores = self.scorer.score_points(&self.values).unwrap_or_default();
        let start = self.values.len().saturating_sub(self.unscored);
        out.extend((start..self.values.len()).map(|i| scores.get(i).copied().unwrap_or(0.0)));
        self.unscored = 0;
        if let Some(window) = self.window {
            // Retain the newest `window` samples as context for the next
            // hop; everything older has been emitted.
            let excess = self.values.len().saturating_sub(window);
            self.values.drain(..excess);
        }
    }
}

impl OnlineScorer for WindowedBatch {
    fn push(&mut self, _timestamp: u64, value: f64, out: &mut Vec<f64>) -> Result<()> {
        self.values.push(value);
        self.unscored += 1;
        if self.window.is_some() && self.unscored >= self.hop {
            self.emit_tail(out);
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<f64>) -> Result<()> {
        match self.window {
            Some(_) => {
                self.emit_tail(out);
                Ok(())
            }
            None => {
                if self.values.is_empty() {
                    return Ok(());
                }
                // Full history: the one batch call. Errors propagate — the
                // series is unscorable, exactly as in the batch pipeline.
                out.extend(self.scorer.score_points(&self.values)?);
                self.unscored = 0;
                Ok(())
            }
        }
    }

    fn name(&self) -> &'static str {
        if self.window.is_some() {
            "windowed-batch(hopping)"
        } else {
            "windowed-batch(full-history)"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{build, AlgoSpec};

    fn robust_z() -> BoxedScorer {
        build(&AlgoSpec::new("robust-z")).expect("registry entry")
    }

    fn drive(mut s: impl OnlineScorer, values: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        for (t, &v) in values.iter().enumerate() {
            s.push(t as u64, v, &mut out).expect("push");
        }
        s.finish(&mut out).expect("finish");
        out
    }

    #[test]
    fn full_history_matches_batch_bit_for_bit() {
        let values: Vec<f64> = (0..50).map(|i| (i as f64 * 0.7).sin()).collect();
        let batch = robust_z().score_points(&values).expect("batch");
        let online = drive(WindowedBatch::full_history(robust_z()), &values);
        assert_eq!(online.len(), values.len());
        for (t, (s, b)) in online.iter().zip(&batch).enumerate() {
            assert_eq!(s.to_bits(), b.to_bits(), "score differs at {t}");
        }
    }

    #[test]
    fn hopping_emits_one_score_per_push_at_hop_boundaries() {
        let values: Vec<f64> = (0..100).map(|i| (i % 7) as f64).collect();
        let mut s = WindowedBatch::hopping(robust_z(), 16, 4).expect("params");
        let mut out = Vec::new();
        for (t, &v) in values.iter().enumerate() {
            s.push(t as u64, v, &mut out).expect("push");
            assert_eq!(out.len(), (t + 1) / 4 * 4, "after push {t}");
        }
        s.finish(&mut out).expect("finish");
        assert_eq!(out.len(), 100);
        // A point is scored within the window that ends at its hop: the
        // first hop's scores are the batch scores of the first four values.
        let first = robust_z().score_points(&values[..4]).expect("batch");
        assert_eq!(out[..4], first[..]);
    }

    #[test]
    fn hopping_with_tail_shorter_than_hop() {
        let values: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let out = drive(
            WindowedBatch::hopping(robust_z(), 8, 4).expect("params"),
            &values,
        );
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn hop_parameters_are_validated() {
        assert!(WindowedBatch::hopping(robust_z(), 0, 1).is_err());
        assert!(WindowedBatch::hopping(robust_z(), 8, 0).is_err());
        assert!(WindowedBatch::hopping(robust_z(), 8, 9).is_err());
    }

    #[test]
    fn full_history_propagates_unscorable_series() {
        // AR needs 3×order samples; 2 points cannot be scored.
        let ar = build(&AlgoSpec::new("ar").with("order", 3_i64)).expect("registry entry");
        let mut s = WindowedBatch::full_history(ar);
        let mut out = Vec::new();
        s.push(0, 1.0, &mut out).expect("push");
        s.push(1, 2.0, &mut out).expect("push");
        assert!(s.finish(&mut out).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn hopping_warmup_emits_zero_scores_instead_of_failing() {
        let ar = build(&AlgoSpec::new("ar").with("order", 3_i64)).expect("registry entry");
        let mut s = WindowedBatch::hopping(ar, 4, 2).expect("params");
        let mut out = Vec::new();
        for t in 0..4_u64 {
            s.push(t, t as f64, &mut out).expect("push");
        }
        s.finish(&mut out).expect("finish");
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|&s| s == 0.0));
    }
}
