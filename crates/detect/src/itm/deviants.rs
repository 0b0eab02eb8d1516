//! Histogram deviant mining.
//!
//! Table-1 row **Histogram Representation** (Muthukrishnan et al., *Mining
//! deviants in time series data streams*, SSDBM 2004 — citation [27]): fit
//! the optimal (V-optimal) B-bucket histogram to the sequence; a point is a
//! *deviant* to the degree that removing it improves the representation
//! error. We compute the exact V-optimal partition (dynamic program in
//! `hierod-timeseries::histogram`) and score each point by the leave-one-out
//! reduction of its own bucket's SSE:
//!
//! ```text
//!   Δᵢ = (xᵢ − μ_b)² · n_b / (n_b − 1)
//! ```
//!
//! which is the exact change of bucket `b`'s SSE when `xᵢ` is removed
//! (buckets of size 1 score 0 — removing their only point leaves nothing to
//! improve).

use hierod_timeseries::histogram::VOptimalHistogram;

use crate::api::{
    check_finite, finite_scores, Capabilities, DetectError, Detector, DetectorInfo, PointScorer,
    Result, TechniqueClass,
};

/// Deviant scorer based on the V-optimal histogram.
#[derive(Debug, Clone)]
pub struct HistogramDeviants {
    /// Number of histogram buckets.
    pub buckets: usize,
}

impl Default for HistogramDeviants {
    fn default() -> Self {
        Self { buckets: 8 }
    }
}

impl HistogramDeviants {
    /// Creates with an explicit bucket budget.
    ///
    /// # Errors
    /// Rejects `buckets == 0`.
    pub fn new(buckets: usize) -> Result<Self> {
        if buckets == 0 {
            return Err(DetectError::invalid("buckets", "must be > 0"));
        }
        Ok(Self { buckets })
    }
}

impl Detector for HistogramDeviants {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Histogram Representation",
            citation: "[27]",
            class: TechniqueClass::ITM,
            capabilities: Capabilities::new(true, false, false),
            supervised: false,
        }
    }
}

impl PointScorer for HistogramDeviants {
    fn score_points(&self, values: &[f64]) -> Result<Vec<f64>> {
        check_finite("HistogramDeviants", values)?;
        if values.is_empty() {
            return Err(DetectError::NotEnoughData {
                what: "HistogramDeviants",
                needed: 1,
                got: 0,
            });
        }
        let hist = VOptimalHistogram::fit(values, self.buckets)?;
        let buckets = hist.buckets();
        let mut scores = vec![0.0_f64; values.len()];
        for (b_idx, bucket) in buckets.iter().enumerate() {
            let span = bucket.start..bucket.end;
            let (Some(xs), Some(out)) = (values.get(span.clone()), scores.get_mut(span)) else {
                continue;
            };
            let n_b = xs.len() as f64;
            if n_b < 2.0 {
                // A singleton bucket is the histogram's own deviant signal:
                // the optimizer paid a whole bucket to isolate this point.
                // Its score is the SSE the representation would incur if the
                // point were merged into the cheaper adjacent bucket — the
                // isolation cost.
                let prev = b_idx.checked_sub(1).and_then(|p| buckets.get(p));
                let next = buckets.get(b_idx + 1);
                for (x, score) in xs.iter().zip(out) {
                    let mut cost = f64::INFINITY;
                    for neighbour in [prev, next].into_iter().flatten() {
                        let n = (neighbour.end - neighbour.start) as f64;
                        let d = x - neighbour.mean;
                        cost = cost.min(d * d * n / (n + 1.0));
                    }
                    if cost.is_finite() {
                        *score = cost;
                    }
                }
                continue;
            }
            for (x, score) in xs.iter().zip(out) {
                let d = x - bucket.mean;
                *score = d * d * n_b / (n_b - 1.0);
            }
        }
        finite_scores("HistogramDeviants", scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spike_is_the_top_deviant() {
        let mut v: Vec<f64> = (0..64).map(|i| ((i / 16) * 10) as f64).collect();
        v[40] += 25.0;
        let scores = HistogramDeviants::new(4).unwrap().score_points(&v).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 40);
    }

    #[test]
    fn leave_one_out_formula_is_exact() {
        // One bucket over [1, 1, 10]: removing the 10 leaves SSE 0.
        use hierod_timeseries::histogram::v_optimal_sse;
        let v = [1.0, 1.0, 10.0];
        let scores = HistogramDeviants::new(1).unwrap().score_points(&v).unwrap();
        let full = v_optimal_sse(&v, 1).unwrap();
        let without_last = v_optimal_sse(&v[..2], 1).unwrap();
        let expected_delta = full - without_last;
        assert!(
            (scores[2] - expected_delta).abs() < 1e-9,
            "score {} vs exact Δ {}",
            scores[2],
            expected_delta
        );
    }

    #[test]
    fn perfectly_representable_sequence_scores_zero() {
        // Two-level step with 2 buckets: zero SSE, zero deviant scores.
        let v = [3.0, 3.0, 3.0, 9.0, 9.0, 9.0];
        let scores = HistogramDeviants::new(2).unwrap().score_points(&v).unwrap();
        assert!(scores.iter().all(|&s| s < 1e-12));
    }

    #[test]
    fn singleton_bucket_scores_isolation_cost() {
        // Flat data with a spike: a generous bucket budget isolates the
        // spike in its own bucket, and the isolation cost must still rank
        // it first (the Muthukrishnan deviant).
        let mut v = vec![1.0; 40];
        v[20] = 50.0;
        let scores = HistogramDeviants::new(8).unwrap().score_points(&v).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 20);
        assert!(scores[20] > 100.0);
    }

    #[test]
    fn more_buckets_reduce_scores() {
        let v: Vec<f64> = (0..32).map(|i| (i as f64 * 0.9).sin() * 5.0).collect();
        let coarse: f64 = HistogramDeviants::new(2)
            .unwrap()
            .score_points(&v)
            .unwrap()
            .iter()
            .sum();
        let fine: f64 = HistogramDeviants::new(16)
            .unwrap()
            .score_points(&v)
            .unwrap()
            .iter()
            .sum();
        assert!(fine < coarse);
    }

    #[test]
    fn validation_and_info() {
        assert!(HistogramDeviants::new(0).is_err());
        assert!(HistogramDeviants::default().score_points(&[]).is_err());
        let i = HistogramDeviants::default().info();
        assert_eq!(i.citation, "[27]");
        assert_eq!(i.class, TechniqueClass::ITM);
        assert!(i.capabilities.points);
        assert_eq!(i.capabilities.count(), 1);
    }
}
