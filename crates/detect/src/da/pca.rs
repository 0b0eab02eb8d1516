//! Principal-component-space reconstruction error.
//!
//! Table-1 row **Principal Component Space** (Gupta & Singh, *Context-Aware
//! Time Series Anomaly Detection for Complex Systems*, 2013 — citation
//! [13]): the data's principal subspace captures normal variation; a
//! point's anomaly score is its reconstruction error after projection onto
//! the top-`k` components. Eigenvectors are found by power iteration with
//! deflation (no external linear algebra).

use hierod_timeseries::Dense;

use crate::api::{
    check_rows, Capabilities, DetectError, Detector, DetectorInfo, Result, TechniqueClass,
    VectorScorer,
};
use crate::stat::midpoint_median;

/// PCA reconstruction-error scorer.
///
/// [`VectorScorer::score_rows`] runs the *robust* pipeline: features are
/// standardized per column (median/MAD, so a 200 W setpoint cannot drown a
/// 0.98 density), the basis is fitted on the `trim` fraction of rows with
/// the smallest robust norm (so anomalies cannot align the subspace with
/// themselves — the robustification the paper's related work attributes to
/// Ortner et al. \[29\]), and every row is scored against that basis.
/// [`PrincipalComponentSpace::fit`] remains the plain textbook PCA.
#[derive(Debug, Clone)]
pub struct PrincipalComponentSpace {
    /// Number of principal components retained.
    pub components: usize,
    /// Power-iteration sweeps per component.
    pub iterations: usize,
    /// Fraction of (least deviating) rows used to fit the basis, in
    /// `(0, 1]`; 1.0 disables trimming.
    pub trim: f64,
}

impl Default for PrincipalComponentSpace {
    fn default() -> Self {
        Self {
            components: 2,
            iterations: 100,
            trim: 0.5,
        }
    }
}

/// A fitted PCA basis.
#[derive(Debug, Clone)]
pub struct FittedPca {
    /// Column means subtracted before projection.
    pub mean: Vec<f64>,
    /// Orthonormal principal directions (k × d).
    pub components: Vec<Vec<f64>>,
    /// Eigenvalues (variance captured per component).
    pub eigenvalues: Vec<f64>,
}

impl FittedPca {
    /// Squared reconstruction error of one row.
    pub fn reconstruction_error(&self, row: &[f64]) -> f64 {
        let centered: Vec<f64> = row.iter().zip(&self.mean).map(|(x, m)| x - m).collect();
        let mut residual_sq: f64 = centered.iter().map(|x| x * x).sum();
        for c in &self.components {
            let proj: f64 = centered.iter().zip(c).map(|(x, v)| x * v).sum();
            residual_sq -= proj * proj;
        }
        residual_sq.max(0.0)
    }
}

impl PrincipalComponentSpace {
    /// Creates with `components` retained directions.
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

    /// Fits the principal basis on rows.
    ///
    /// # Errors
    /// Rejects empty/ragged collections.
    pub fn fit(&self, rows: &[&[f64]]) -> Result<FittedPca> {
        let d = check_rows("PrincipalComponentSpace", rows)?;
        let n = rows.len() as f64;
        let mut mean = vec![0.0_f64; d];
        for r in rows {
            for (m, x) in mean.iter_mut().zip(r.iter()) {
                *m += x / n;
            }
        }
        // Covariance matrix (d × d), upper triangle accumulated then
        // mirrored. Fine for the moderate dimensionalities of job vectors
        // and window embeddings.
        let mut cov = Dense::filled(d, d, 0.0);
        let mut c = Vec::with_capacity(d);
        for r in rows {
            c.clear();
            c.extend(r.iter().zip(&mean).map(|(x, m)| x - m));
            for (i, (cov_i, ci)) in cov.rows_mut().zip(&c).enumerate() {
                for (x, cj) in cov_i.iter_mut().zip(&c).skip(i) {
                    *x += ci * cj / n;
                }
            }
        }
        cov.mirror_upper();
        let k = self.components.min(d);
        let mut comps: Vec<Vec<f64>> = Vec::with_capacity(k);
        let mut eigenvalues = Vec::with_capacity(k);
        let mut work = cov;
        let mut w = vec![0.0_f64; d];
        for c_idx in 0..k {
            // Deterministic start vector, orthogonalized against found comps.
            let mut v: Vec<f64> = (0..d)
                .map(|i| if i == c_idx % d { 1.0 } else { 0.1 })
                .collect();
            let mut lambda = 0.0_f64;
            for _ in 0..self.iterations {
                // w = A v
                for (wi, row) in w.iter_mut().zip(work.rows()) {
                    let mut s = 0.0;
                    for (a, vj) in row.iter().zip(&v) {
                        s += a * vj;
                    }
                    *wi = s;
                }
                let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
                if norm < 1e-15 {
                    break; // rank exhausted
                }
                lambda = norm;
                for (vi, wi) in v.iter_mut().zip(&w) {
                    *vi = wi / norm;
                }
            }
            if lambda < 1e-12 {
                break;
            }
            // Deflate: A <- A − λ v vᵀ.
            for (row, vi) in work.rows_mut().zip(&v) {
                for (x, vj) in row.iter_mut().zip(&v) {
                    *x -= lambda * vi * vj;
                }
            }
            comps.push(v);
            eigenvalues.push(lambda);
        }
        Ok(FittedPca {
            mean,
            components: comps,
            eigenvalues,
        })
    }
}

impl Detector for PrincipalComponentSpace {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Principal Component Space",
            citation: "[13]",
            class: TechniqueClass::DA,
            capabilities: Capabilities::new(true, false, false),
            supervised: false,
        }
    }
}

impl VectorScorer for PrincipalComponentSpace {
    fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>> {
        let d = check_rows("PrincipalComponentSpace", rows)?;
        // Robust per-column standardization.
        let n = rows.len();
        let mut zs = Dense::filled(n, d, 0.0);
        let mut col = Vec::with_capacity(n);
        for c in 0..d {
            col.clear();
            // Every row is `d` wide (checked above).
            col.extend(rows.iter().map(|r| r.get(c).map_or(f64::NAN, |x| *x)));
            let med = midpoint_median(&mut col);
            col.iter_mut().for_each(|x| *x = (*x - med).abs());
            let mad = 1.4826 * midpoint_median(&mut col);
            if mad > 1e-12 {
                for (z, r) in zs.rows_mut().zip(rows) {
                    if let (Some(z), Some(x)) = (z.get_mut(c), r.get(c)) {
                        *z = (x - med) / mad;
                    }
                }
            }
        }
        // Trimmed fit: rows with the smallest robust norm define normal.
        let norm = |z: &[f64]| z.iter().map(|x| x * x).sum::<f64>();
        let mut order: Vec<(f64, &[f64])> = zs.rows().map(|z| (norm(z), z)).collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        let keep = ((n as f64 * self.trim.clamp(0.0, 1.0)).ceil() as usize)
            .clamp((self.components + 1).min(n), n);
        let train: Vec<&[f64]> = order.iter().take(keep).map(|&(_, z)| z).collect();
        let pca = self.fit(&train)?;
        Ok(zs
            .rows()
            .map(|z| pca.reconstruction_error(z).sqrt())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::row_refs;

    /// Points on a line in 3-D plus one off-line outlier.
    fn line_data() -> Vec<Vec<f64>> {
        let mut rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let t = i as f64;
                vec![t, 2.0 * t, -t]
            })
            .collect();
        rows.push(vec![10.0, -30.0, 10.0]);
        rows
    }

    #[test]
    fn off_subspace_point_scores_highest() {
        let rows = line_data();
        let scores = PrincipalComponentSpace::new(1)
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
        // On-line points reconstruct (nearly) exactly... the outlier
        // perturbs the basis slightly, so just require an order of magnitude.
        assert!(scores[5] * 5.0 < scores[rows.len() - 1]);
    }

    #[test]
    fn first_eigenvector_captures_line_direction() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                let t = (i as f64) - 25.0;
                vec![3.0 * t, 4.0 * t]
            })
            .collect();
        let pca = PrincipalComponentSpace::new(1)
            .unwrap()
            .fit(&row_refs(&rows))
            .unwrap();
        let v = &pca.components[0];
        // Direction (3,4)/5 up to sign.
        let dot = (v[0] * 0.6 + v[1] * 0.8).abs();
        assert!((dot - 1.0).abs() < 1e-6, "direction {v:?}");
        // Eigenvalue = variance along the line: var(5t).
        let ts: Vec<f64> = (0..50).map(|i| (i as f64) - 25.0).collect();
        let mean_t = ts.iter().sum::<f64>() / 50.0;
        let var_t = ts.iter().map(|t| (t - mean_t) * (t - mean_t)).sum::<f64>() / 50.0;
        assert!((pca.eigenvalues[0] - 25.0 * var_t).abs() / (25.0 * var_t) < 1e-6);
    }

    #[test]
    fn components_are_orthonormal() {
        let rows = line_data();
        let pca = PrincipalComponentSpace::new(2)
            .unwrap()
            .fit(&row_refs(&rows))
            .unwrap();
        for (i, a) in pca.components.iter().enumerate() {
            let norm: f64 = a.iter().map(|x| x * x).sum();
            assert!((norm - 1.0).abs() < 1e-6);
            for b in &pca.components[i + 1..] {
                let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                assert!(dot.abs() < 1e-4, "non-orthogonal: {dot}");
            }
        }
    }

    #[test]
    fn full_rank_reconstruction_is_exact() {
        let rows = vec![
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![3.0, 1.0],
            vec![-1.0, -1.0],
        ];
        let scores = PrincipalComponentSpace::new(2)
            .unwrap()
            .score_rows(&row_refs(&rows))
            .unwrap();
        assert!(scores.iter().all(|&s| s < 1e-6), "scores {scores:?}");
    }

    #[test]
    fn constant_data_scores_zero() {
        let rows = vec![vec![5.0, 5.0]; 6];
        let scores = PrincipalComponentSpace::new(1)
            .unwrap()
            .score_rows(&row_refs(&rows))
            .unwrap();
        assert!(scores.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn validation_and_info() {
        assert!(PrincipalComponentSpace::new(0).is_err());
        assert!(PrincipalComponentSpace::default().score_rows(&[]).is_err());
        let i = PrincipalComponentSpace::default().info();
        assert_eq!(i.citation, "[13]");
        assert!(i.capabilities.points);
    }
}
