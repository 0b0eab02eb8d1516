//! Incremental AR(p) residual scoring: streaming Yule-Walker with
//! periodic Levinson-Durbin refits.

use std::collections::VecDeque;

use crate::api::Result;
use crate::online::OnlineScorer;
use crate::pm::ar::levinson_durbin;
use crate::DetectError;

/// Online counterpart of the batch
/// [`AutoregressiveModel`](crate::pm::AutoregressiveModel): maintains
/// running lagged-product sums, refits AR coefficients by Levinson-Durbin
/// every `refit_every` samples, and scores each arriving sample by its
/// standardized one-step prediction error against the *current* fit.
///
/// Approximation vs batch: the batch scorer fits once on the whole series;
/// here early samples are scored by a model that has seen less data (and
/// warm-up samples score 0 until the first fit). On stationary streams the
/// fits converge to the batch coefficients; the
/// `detect.online.incremental_ar_ns_per_sample` ladder rung measures what
/// the incrementality buys.
#[derive(Debug)]
pub struct IncrementalAr {
    order: usize,
    refit_every: usize,
    /// Samples seen.
    count: usize,
    sum: f64,
    /// Σ x_t·x_{t−k} for k = 0..=order.
    lag_products: Vec<f64>,
    /// Number of product terms accumulated per lag.
    lag_counts: Vec<usize>,
    /// The last `order` values, oldest first.
    recent: VecDeque<f64>,
    /// Current fit: (coefficients, innovation std-dev).
    fit: Option<(Vec<f64>, f64)>,
}

impl IncrementalAr {
    /// Creates an incremental AR(p) scorer refitting every `refit_every`
    /// samples.
    ///
    /// # Errors
    /// Rejects `order == 0` or `refit_every == 0`.
    pub fn new(order: usize, refit_every: usize) -> Result<Self> {
        if order == 0 {
            return Err(DetectError::invalid("order", "must be > 0"));
        }
        if refit_every == 0 {
            return Err(DetectError::invalid("refit_every", "must be > 0"));
        }
        Ok(Self {
            order,
            refit_every,
            count: 0,
            sum: 0.0,
            lag_products: vec![0.0; order + 1],
            lag_counts: vec![0; order + 1],
            recent: VecDeque::with_capacity(order),
            fit: None,
        })
    }

    /// Refits coefficients from the running lagged products.
    fn refit(&mut self) {
        if self.count < (self.order + 1) * 3 {
            return;
        }
        let mean = self.sum / self.count as f64;
        let autocov: Vec<f64> = self
            .lag_products
            .iter()
            .zip(&self.lag_counts)
            .map(|(&p, &c)| {
                if c == 0 {
                    0.0
                } else {
                    p / c as f64 - mean * mean
                }
            })
            .collect();
        if let Ok((coeffs, innovation_var)) = levinson_durbin(&autocov, self.order) {
            let sd = innovation_var.max(1e-12).sqrt();
            self.fit = Some((coeffs, sd));
        }
    }
}

impl OnlineScorer for IncrementalAr {
    fn push(&mut self, _timestamp: u64, value: f64, out: &mut Vec<f64>) -> Result<()> {
        // Score against the current fit, before the sample updates it.
        let score = match (&self.fit, self.recent.len() == self.order) {
            (Some((coeffs, sd)), true) => {
                let mean = self.sum / self.count.max(1) as f64;
                // Prediction pairs a_j with x_{t−1−j}: newest history first.
                let predicted: f64 = coeffs
                    .iter()
                    .zip(self.recent.iter().rev())
                    .map(|(a, x)| a * (x - mean))
                    .sum();
                ((value - mean) - predicted).abs() / *sd
            }
            _ => 0.0,
        };
        out.push(score);
        // Update running sums (lag 0 is x_t², lag k pairs with history).
        self.sum += value;
        if let Some(p) = self.lag_products.first_mut() {
            *p += value * value;
        }
        if let Some(c) = self.lag_counts.first_mut() {
            *c += 1;
        }
        for (back, x) in self.recent.iter().rev().enumerate() {
            let lag = back + 1;
            if let Some(p) = self.lag_products.get_mut(lag) {
                *p += value * x;
            }
            if let Some(c) = self.lag_counts.get_mut(lag) {
                *c += 1;
            }
        }
        if self.recent.len() == self.order {
            self.recent.pop_front();
        }
        self.recent.push_back(value);
        self.count += 1;
        if self.count.is_multiple_of(self.refit_every) {
            self.refit();
        }
        Ok(())
    }

    fn finish(&mut self, _out: &mut Vec<f64>) -> Result<()> {
        Ok(())
    }

    fn name(&self) -> &'static str {
        "incremental-ar"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic AR(1) stream with a spike.
    fn ar1_with_spike(n: usize, at: usize) -> Vec<f64> {
        let mut state = 0x9e37_79b9_u64;
        let mut noise = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5
        };
        let mut x = 0.0_f64;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            x = 0.8 * x + noise();
            if i == at {
                x += 12.0;
            }
            out.push(x);
        }
        out
    }

    #[test]
    fn spike_scores_highest_after_warmup() {
        let values = ar1_with_spike(400, 300);
        let mut s = IncrementalAr::new(2, 32).expect("params");
        let mut out = Vec::new();
        for (t, &v) in values.iter().enumerate() {
            s.push(t as u64, v, &mut out).expect("push");
        }
        let (at, _) = (out.iter().enumerate())
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty");
        assert_eq!(at, 300);
    }

    #[test]
    fn warmup_scores_zero_until_first_fit() {
        let values = ar1_with_spike(40, 39);
        let mut s = IncrementalAr::new(3, 16).expect("params");
        let mut out = Vec::new();
        for (t, &v) in values.iter().enumerate() {
            s.push(t as u64, v, &mut out).expect("push");
        }
        // First refit happens at sample 16; everything before scores 0.
        assert!(out.iter().take(16).all(|&s| s == 0.0));
        assert!(out.iter().skip(17).any(|&s| s > 0.0));
    }

    #[test]
    fn parameters_are_validated() {
        assert!(IncrementalAr::new(0, 8).is_err());
        assert!(IncrementalAr::new(2, 0).is_err());
        assert!(IncrementalAr::new(2, 8).is_ok());
    }
}
