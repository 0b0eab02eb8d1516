//! Autoregressive prediction-error scoring.
//!
//! Table-1 row **Autoregressive Model** (Hill & Minsker, *Anomaly detection
//! in streaming environmental sensor data: A data-driven modeling
//! approach*, 2010 — citation [15]): an AR(p) model fitted to the sensor
//! stream predicts each next value; the anomaly score of a point is its
//! standardized one-step prediction error. AR coefficients come from the
//! Yule-Walker equations solved by Levinson-Durbin recursion (implemented
//! here, tested against a direct solve).

use hierod_timeseries::stats::{autocovariances, std_dev};

use crate::api::{
    check_finite, finite_scores, Capabilities, DetectError, Detector, DetectorInfo, PointScorer,
    Result, TechniqueClass,
};

/// AR(p) prediction-error scorer.
#[derive(Debug, Clone)]
pub struct AutoregressiveModel {
    /// Model order `p`.
    pub order: usize,
}

impl Default for AutoregressiveModel {
    fn default() -> Self {
        Self { order: 3 }
    }
}

/// Solves the Yule-Walker equations for AR coefficients via
/// Levinson-Durbin. Returns `(coefficients, innovation_variance)`.
///
/// # Errors
/// Rejects `order == 0` or an autocovariance sequence shorter than
/// `order + 1`.
pub fn levinson_durbin(autocov: &[f64], order: usize) -> Result<(Vec<f64>, f64)> {
    if order == 0 {
        return Err(DetectError::invalid("order", "must be > 0"));
    }
    if autocov.len() < order + 1 {
        return Err(DetectError::NotEnoughData {
            what: "levinson_durbin",
            needed: order + 1,
            got: autocov.len(),
        });
    }
    let Some((&c0, lags)) = autocov.split_first() else {
        return Err(DetectError::NotEnoughData {
            what: "levinson_durbin",
            needed: order + 1,
            got: 0,
        });
    };
    if c0 <= 0.0 {
        // Constant series: zero coefficients, zero variance.
        return Ok((vec![0.0; order], 0.0));
    }
    let mut a = vec![0.0_f64; order];
    let mut e = c0;
    for k in 0..order {
        // acc = autocov[k+1] − Σ_{j<k} a[j]·autocov[k−j]; with
        // `lags = autocov[1..]`, the subtrahend pairs a[0..k] against
        // lags[0..k] reversed. Subtracted serially to keep the rounding
        // (and hence the pinned E4 report) bit-identical.
        let mut acc = lags.get(k).copied().unwrap_or(0.0);
        for (aj, c) in a.iter().zip(lags.iter().take(k).rev()) {
            acc -= aj * c;
        }
        let reflection = acc / e;
        // Update coefficients: a'[j] = a[j] − r·a[k−1−j] for j < k (the
        // reversed prefix), a'[k] = r, tail unchanged (still zero).
        a = a
            .iter()
            .take(k)
            .zip(a.iter().take(k).rev())
            .map(|(aj, arev)| aj - reflection * arev)
            .chain(std::iter::once(reflection))
            .chain(a.iter().skip(k + 1).copied())
            .collect();
        e *= 1.0 - reflection * reflection;
        if e <= 0.0 {
            e = 1e-12;
        }
    }
    Ok((a, e))
}

impl AutoregressiveModel {
    /// Creates an AR(p) scorer.
    ///
    /// # Errors
    /// Rejects `order == 0`.
    pub fn new(order: usize) -> Result<Self> {
        if order == 0 {
            return Err(DetectError::invalid("order", "must be > 0"));
        }
        Ok(Self { order })
    }

    /// Fits AR coefficients on a series (demeaned).
    ///
    /// # Errors
    /// Rejects series shorter than `3 × order`.
    pub fn fit(&self, values: &[f64]) -> Result<Vec<f64>> {
        if values.len() < self.order * 3 {
            return Err(DetectError::NotEnoughData {
                what: "AutoregressiveModel",
                needed: self.order * 3,
                got: values.len(),
            });
        }
        let autocov = autocovariances(values, self.order)?;
        Ok(levinson_durbin(&autocov, self.order)?.0)
    }
}

impl Detector for AutoregressiveModel {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Autoregressive Model",
            citation: "[15]",
            class: TechniqueClass::PM,
            capabilities: Capabilities::new(true, false, true),
            supervised: false,
        }
    }
}

impl PointScorer for AutoregressiveModel {
    fn score_points(&self, values: &[f64]) -> Result<Vec<f64>> {
        check_finite("AutoregressiveModel", values)?;
        if values.is_empty() {
            return Err(DetectError::NotEnoughData {
                what: "AutoregressiveModel",
                needed: self.order * 3,
                got: 0,
            });
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
        // Constant series (up to rounding dust) carry no prediction errors.
        if var <= 1e-20 * (1.0 + mean * mean) {
            if values.len() < self.order * 3 {
                return Err(DetectError::NotEnoughData {
                    what: "AutoregressiveModel",
                    needed: self.order * 3,
                    got: values.len(),
                });
            }
            return Ok(vec![0.0; values.len()]);
        }
        let coeffs = self.fit(values)?;
        let centered: Vec<f64> = values.iter().map(|v| v - mean).collect();
        let p = self.order;
        // One-step prediction errors (first p points: no prediction, 0).
        // centered[t−1−j] for j < p is the reversed tail of centered[..t].
        let errors: Vec<f64> = centered
            .iter()
            .enumerate()
            .map(|(t, &ct)| {
                if t < p {
                    return 0.0;
                }
                let history = centered.get(..t).unwrap_or(&[]);
                let pred: f64 = coeffs
                    .iter()
                    .zip(history.iter().rev())
                    .map(|(a, c)| a * c)
                    .sum();
                ct - pred
            })
            .collect();
        // Standardize by the innovation std over the predicted region.
        let sd = std_dev(errors.get(p..).unwrap_or(&[]))?.max(1e-12);
        let scores = errors.into_iter().map(|e| (e / sd).abs()).collect();
        finite_scores("AutoregressiveModel", scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic AR(1) with phi = 0.8 plus a spike.
    fn ar1_with_spike(n: usize, at: usize) -> Vec<f64> {
        let mut state = 0x1234_5678_u64;
        let mut noise = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5
        };
        let mut x = 0.0_f64;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            x = 0.8 * x + noise();
            out.push(x);
        }
        out[at] += 10.0;
        out
    }

    #[test]
    fn levinson_durbin_recovers_ar1_coefficient() {
        // AR(1) with phi: autocov(k) = phi^k * c0.
        let phi = 0.7;
        let autocov: Vec<f64> = (0..4).map(|k| phi_f(phi, k)).collect();
        let (a, e) = levinson_durbin(&autocov, 1).unwrap();
        assert!((a[0] - phi).abs() < 1e-9);
        assert!((e - (1.0 - phi * phi)).abs() < 1e-9);
    }

    fn phi_f(phi: f64, k: usize) -> f64 {
        phi.powi(k as i32)
    }

    #[test]
    fn levinson_durbin_matches_direct_solve_order2() {
        // AR(2) Yule-Walker: solve 2x2 directly and compare.
        let autocov = [2.0, 1.2, 0.9];
        let (a, _) = levinson_durbin(&autocov, 2).unwrap();
        // Direct: [c0 c1; c1 c0] [a1 a2]' = [c1 c2]'.
        let det = autocov[0] * autocov[0] - autocov[1] * autocov[1];
        let a1 = (autocov[1] * autocov[0] - autocov[2] * autocov[1]) / det;
        let a2 = (autocov[0] * autocov[2] - autocov[1] * autocov[1]) / det;
        assert!((a[0] - a1).abs() < 1e-9, "{a:?} vs ({a1}, {a2})");
        assert!((a[1] - a2).abs() < 1e-9);
    }

    #[test]
    fn spike_scores_highest() {
        let v = ar1_with_spike(300, 150);
        let scores = AutoregressiveModel::new(2)
            .unwrap()
            .score_points(&v)
            .unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 150);
        // Typical points have |standardized error| around 1.
        let typical = scores[50];
        assert!(typical < 4.0);
    }

    #[test]
    fn warmup_points_score_zero() {
        let v = ar1_with_spike(100, 50);
        let scores = AutoregressiveModel::new(3)
            .unwrap()
            .score_points(&v)
            .unwrap();
        assert_eq!(scores[0], 0.0);
        assert_eq!(scores[2], 0.0);
        assert!(scores[3] >= 0.0);
    }

    #[test]
    fn constant_series_scores_zero() {
        let v = vec![5.0; 50];
        let scores = AutoregressiveModel::default().score_points(&v).unwrap();
        assert!(scores.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn validation() {
        assert!(AutoregressiveModel::new(0).is_err());
        assert!(AutoregressiveModel::new(5)
            .unwrap()
            .score_points(&[1.0, 2.0])
            .is_err());
        assert!(levinson_durbin(&[1.0], 1).is_err());
        assert!(levinson_durbin(&[1.0, 0.5], 0).is_err());
        // Degenerate zero-variance autocovariance.
        let (a, e) = levinson_durbin(&[0.0, 0.0], 1).unwrap();
        assert_eq!(a, vec![0.0]);
        assert_eq!(e, 0.0);
    }

    #[test]
    fn info_matches_table1() {
        let i = AutoregressiveModel::default().info();
        assert_eq!(i.citation, "[15]");
        assert_eq!(i.class, TechniqueClass::PM);
        assert!(i.capabilities.points && i.capabilities.series);
        assert!(!i.capabilities.subsequences);
    }
}
