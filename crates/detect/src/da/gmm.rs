//! Gaussian mixture model fitted by Expectation-Maximization.
//!
//! Table-1 row **Expectation-Maximization** (Pan et al., *Ganesha: Black-Box
//! Fault Diagnosis for MapReduce Systems*, 2008 — citation [30]): normal
//! behaviour is summarized by a mixture of Gaussians; "an anomaly is
//! discovered if a sequence is unlikely to be generated from a specified
//! summary model" — the score is the negative log-likelihood under the
//! fitted mixture. Diagonal covariances, k-means initialization, fixed
//! iteration budget; fully deterministic.

use hierod_timeseries::Dense;

use crate::api::{
    check_rows, Capabilities, DetectError, Detector, DetectorInfo, Result, TechniqueClass,
    VectorScorer,
};
use crate::da::kmeans::{nearest_centroid, KMeans};

const LOG_2PI: f64 = 1.8378770664093453;
/// Variance floor keeping components from collapsing onto single points.
const VAR_FLOOR: f64 = 1e-6;

/// Diagonal-covariance Gaussian mixture scorer.
#[derive(Debug, Clone)]
pub struct GaussianMixture {
    /// Number of mixture components.
    pub components: usize,
    /// EM iterations.
    pub max_iter: usize,
}

impl Default for GaussianMixture {
    fn default() -> Self {
        Self {
            components: 3,
            max_iter: 30,
        }
    }
}

/// A fitted mixture (exposed for inspection/tests).
#[derive(Debug, Clone)]
pub(crate) struct FittedMixture {
    /// Mixture weights, summing to 1.
    pub weights: Vec<f64>,
    /// Component means (k × d).
    pub means: Vec<Vec<f64>>,
    /// Component diagonal variances (k × d).
    pub variances: Vec<Vec<f64>>,
}

impl FittedMixture {
    /// Log-density of one row under the mixture (log-sum-exp over
    /// components).
    pub(crate) fn log_density(&self, row: &[f64]) -> f64 {
        let logs: Vec<f64> = self.component_logs(row).collect();
        let max = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if !max.is_finite() {
            return f64::NEG_INFINITY;
        }
        max + logs.iter().map(|l| (l - max).exp()).sum::<f64>().ln()
    }

    /// Each component's weighted log-density of one row, in component
    /// order.
    fn component_logs<'a>(&'a self, row: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        self.weights
            .iter()
            .zip(&self.means)
            .zip(&self.variances)
            .map(move |((w, mu), var)| {
                let mut lp = w.max(1e-300).ln();
                for ((x, m), v) in row.iter().zip(mu).zip(var) {
                    let v = v.max(VAR_FLOOR);
                    lp += -0.5 * (LOG_2PI + v.ln() + (x - m) * (x - m) / v);
                }
                lp
            })
    }
}

impl GaussianMixture {
    /// Creates with `components` Gaussians.
    ///
    /// # Errors
    /// Rejects `components == 0`.
    pub fn new(components: usize) -> Result<Self> {
        if components == 0 {
            return Err(DetectError::invalid("components", "must be > 0"));
        }
        Ok(Self {
            components,
            ..Self::default()
        })
    }

    /// Fits the mixture on rows via EM (k-means initialization).
    ///
    /// # Errors
    /// Rejects empty/ragged collections.
    pub(crate) fn fit(&self, rows: &[&[f64]]) -> Result<FittedMixture> {
        let d = check_rows("GaussianMixture", rows)?;
        let n = rows.len();
        let k = self.components.min(n);
        // Init from population-filtered k-means centroids (a lone outlier
        // must not seed its own component); shared global variance.
        let centroids = KMeans::new(k)?.fit_filtered_centroids(rows, 2)?;
        let k = centroids.len();
        // Per-component variances from the rows initially nearest each
        // centroid. Using the *within-cluster* spread (rather than the
        // global variance, which a single far outlier inflates arbitrarily)
        // keeps initial components tight, so outliers start with negligible
        // responsibility and cannot capture a component during EM.
        let mut var_acc = vec![vec![0.0_f64; d]; k];
        let mut counts = vec![0_usize; k];
        for r in rows {
            // Centroids are never empty (k >= 1), and `nearest` indexes them.
            let Some((nearest, _)) = nearest_centroid(&centroids, r) else {
                continue;
            };
            let (Some(count), Some(acc), Some(centroid)) = (
                counts.get_mut(nearest),
                var_acc.get_mut(nearest),
                centroids.get(nearest),
            ) else {
                continue;
            };
            *count += 1;
            for ((v, x), m) in acc.iter_mut().zip(r.iter()).zip(centroid) {
                *v += (x - m) * (x - m);
            }
        }
        for (va, &c) in var_acc.iter_mut().zip(&counts) {
            for v in va.iter_mut() {
                *v = if c > 0 { *v / c as f64 } else { 1.0 };
                *v = v.max(VAR_FLOOR);
            }
        }
        let mut mix = FittedMixture {
            weights: vec![1.0 / k as f64; k],
            means: centroids,
            variances: var_acc,
        };

        let mut resp = Dense::filled(n, k, 0.0);
        let mut logs = Vec::with_capacity(k);
        for _ in 0..self.max_iter {
            // E-step.
            for (r, resp_r) in rows.iter().zip(resp.rows_mut()) {
                logs.clear();
                logs.extend(mix.component_logs(r));
                let max = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let denom: f64 = logs.iter().map(|l| (l - max).exp()).sum();
                for (p, l) in resp_r.iter_mut().zip(&logs) {
                    *p = (l - max).exp() / denom;
                }
            }
            // M-step.
            let components = mix.weights.iter_mut().zip(&mut mix.means);
            for (j, ((weight, means), variances)) in components.zip(&mut mix.variances).enumerate()
            {
                let nj: f64 = resp.col(j).sum();
                if nj < 1e-9 {
                    continue; // dead component keeps its parameters
                }
                *weight = nj / n as f64;
                let mut mean = vec![0.0_f64; d];
                for (r, rj) in rows.iter().zip(resp.col(j)) {
                    for (m, x) in mean.iter_mut().zip(r.iter()) {
                        *m += rj * x / nj;
                    }
                }
                let mut var = vec![0.0_f64; d];
                for (r, rj) in rows.iter().zip(resp.col(j)) {
                    for ((v, x), m) in var.iter_mut().zip(r.iter()).zip(&mean) {
                        *v += rj * (x - m) * (x - m) / nj;
                    }
                }
                var.iter_mut().for_each(|v| *v = v.max(VAR_FLOOR));
                *means = mean;
                *variances = var;
            }
        }
        Ok(mix)
    }
}

impl Detector for GaussianMixture {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Expectation-Maximization",
            citation: "[30]",
            class: TechniqueClass::DA,
            capabilities: Capabilities::ALL,
            supervised: false,
        }
    }
}

impl VectorScorer for GaussianMixture {
    fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>> {
        let mix = self.fit(rows)?;
        let nll: Vec<f64> = rows
            .iter()
            .map(|r| {
                let ll = mix.log_density(r);
                if ll.is_finite() {
                    -ll
                } else {
                    f64::MAX / 1e6
                }
            })
            .collect();
        // Log-densities above 1 make the NLL negative for well-explained
        // points; shift so the best-explained row scores 0 (ranking is
        // unchanged, scores stay non-negative).
        let min = nll.iter().copied().fold(f64::INFINITY, f64::min);
        Ok(nll.into_iter().map(|s| s - min).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::row_refs;

    fn blobs_with_outlier() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in 0..12 {
            let j = (i % 4) as f64 * 0.05;
            rows.push(vec![0.0 + j, 1.0 - j]);
            rows.push(vec![5.0 + j, 5.0 - j]);
        }
        rows.push(vec![100.0, -100.0]);
        rows
    }

    #[test]
    fn outlier_has_lowest_likelihood() {
        let rows = blobs_with_outlier();
        let scores = GaussianMixture::new(2)
            .unwrap()
            .score_rows(&row_refs(&rows))
            .unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, rows.len() - 1);
    }

    #[test]
    fn fitted_weights_sum_to_one() {
        let rows = blobs_with_outlier();
        let mix = GaussianMixture::new(3)
            .unwrap()
            .fit(&row_refs(&rows))
            .unwrap();
        let w: f64 = mix.weights.iter().sum();
        assert!((w - 1.0).abs() < 1e-6, "weights sum {w}");
        // Population filtering may reduce the component count below the
        // requested 3 (the lone outlier cannot seed a component).
        assert!(!mix.means.is_empty() && mix.means.len() <= 3);
        assert!(mix
            .variances
            .iter()
            .all(|v| v.iter().all(|&x| x >= VAR_FLOOR)));
    }

    #[test]
    fn two_component_fit_finds_both_blobs() {
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    vec![0.0 + (i as f64) * 0.01]
                } else {
                    vec![10.0 + (i as f64) * 0.01]
                }
            })
            .collect();
        let mix = GaussianMixture::new(2)
            .unwrap()
            .fit(&row_refs(&rows))
            .unwrap();
        let mut means: Vec<f64> = mix.means.iter().map(|m| m[0]).collect();
        means.sort_by(|a, b| a.total_cmp(b));
        assert!((means[0] - 0.1).abs() < 1.0, "low mean {means:?}");
        assert!((means[1] - 10.1).abs() < 1.0, "high mean {means:?}");
    }

    #[test]
    fn log_density_decreases_with_distance() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.1]).collect();
        let mix = GaussianMixture::new(1)
            .unwrap()
            .fit(&row_refs(&rows))
            .unwrap();
        let near = mix.log_density(&[0.5]);
        let far = mix.log_density(&[50.0]);
        assert!(near > far);
    }

    #[test]
    fn deterministic_and_validated() {
        let rows = blobs_with_outlier();
        let g = GaussianMixture::new(2).unwrap();
        assert_eq!(
            g.score_rows(&row_refs(&rows)).unwrap(),
            g.score_rows(&row_refs(&rows)).unwrap()
        );
        assert!(GaussianMixture::new(0).is_err());
        assert!(g.score_rows(&[]).is_err());
    }

    #[test]
    fn degenerate_identical_rows() {
        let rows = vec![vec![2.0, 2.0]; 6];
        let scores = GaussianMixture::new(2)
            .unwrap()
            .score_rows(&row_refs(&rows))
            .unwrap();
        // All identical: identical (finite) scores.
        assert!(scores.iter().all(|s| s.is_finite()));
        assert!(scores.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9));
    }

    #[test]
    fn info_matches_table1() {
        let i = GaussianMixture::default().info();
        assert_eq!(i.citation, "[30]");
        assert_eq!(i.capabilities.count(), 3);
    }
}
