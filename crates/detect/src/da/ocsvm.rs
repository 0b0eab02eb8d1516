//! One-class SVM (support vector data description form).
//!
//! Table-1 row **Support Vector Machine** (Eskin et al., *A Geometric
//! Framework for Unsupervised Anomaly Detection*, 2002 — citation [6]):
//! data is mapped to a feature space and a maximum-margin surface separates
//! the mass of the data from outliers. We implement the hypersphere form —
//! Tax & Duin's Support Vector Data Description, which is equivalent to the
//! Schölkopf one-class SVM under RBF-normalized kernels — in the
//! standardized feature space:
//!
//! ```text
//!   min_{c, R}  R² + 1/(νn) Σ max(0, ‖xᵢ − c‖² − R²)
//! ```
//!
//! solved by deterministic alternating optimization: with `c` fixed, the
//! optimal `R` is the `(1 − ν)`-quantile of distances; with the inlier set
//! fixed, the optimal `c` is the inlier mean (a trimmed mean). The anomaly
//! score of `x` is `max(0, ‖x − c‖ − R)` — how far it lies outside the
//! learned sphere, in any direction.

use hierod_timeseries::normalize::ColumnScaler;
use hierod_timeseries::stats::{quantile, quantile_in};

use crate::api::{
    check_rows, Capabilities, DetectError, Detector, DetectorInfo, Result, TechniqueClass,
    VectorScorer,
};
use crate::related::sq_dist;

/// One-class SVM (SVDD) scorer.
#[derive(Debug, Clone)]
pub struct OneClassSvm {
    /// Fraction of points allowed outside the sphere (`0 < nu < 1`).
    pub nu: f64,
    /// Alternating-optimization rounds.
    pub rounds: usize,
}

impl Default for OneClassSvm {
    fn default() -> Self {
        Self {
            nu: 0.1,
            rounds: 20,
        }
    }
}

impl OneClassSvm {
    /// Creates with an explicit `nu`.
    ///
    /// # Errors
    /// Rejects `nu` outside `(0, 1)`.
    pub fn new(nu: f64) -> Result<Self> {
        if !(nu > 0.0 && nu < 1.0) {
            return Err(DetectError::invalid("nu", "must be in (0, 1)"));
        }
        Ok(Self {
            nu,
            ..Self::default()
        })
    }
}

impl Detector for OneClassSvm {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Support Vector Machine",
            citation: "[6]",
            class: TechniqueClass::DA,
            capabilities: Capabilities::ALL,
            supervised: false,
        }
    }
}

impl VectorScorer for OneClassSvm {
    fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>> {
        let d = check_rows("OneClassSvm", rows)?;
        let scaler = ColumnScaler::fit(rows)?;
        let xs: Vec<Vec<f64>> = scaler.transform_all(rows)?;
        let n = xs.len();
        // Init center at the overall mean.
        let mut center = vec![0.0_f64; d];
        for x in &xs {
            for (c, v) in center.iter_mut().zip(x) {
                *c += v / n as f64;
            }
        }
        let dist = |c: &[f64], x: &[f64]| sq_dist(c, x).sqrt();
        let mut radius = 0.0_f64;
        let (mut dists, mut scratch) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..self.rounds {
            dists.clear();
            dists.extend(xs.iter().map(|x| dist(&center, x)));
            scratch.clone_from(&dists);
            radius = quantile_in(&mut scratch, 1.0 - self.nu)?;
            // Re-center on the inliers (trimmed mean).
            let mut new_center = vec![0.0_f64; d];
            let mut count = 0_usize;
            for (x, &dx) in xs.iter().zip(&dists) {
                if dx <= radius {
                    for (c, v) in new_center.iter_mut().zip(x) {
                        *c += v;
                    }
                    count += 1;
                }
            }
            if count == 0 {
                break;
            }
            new_center.iter_mut().for_each(|c| *c /= count as f64);
            let moved = dist(&center, &new_center);
            center = new_center;
            if moved < 1e-12 {
                // Converged; recompute the radius for the final center.
                let dists: Vec<f64> = xs.iter().map(|x| dist(&center, x)).collect();
                radius = quantile(&dists, 1.0 - self.nu)?;
                break;
            }
        }
        Ok(xs
            .iter()
            .map(|x| (dist(&center, x) - radius).max(0.0))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::row_refs;

    fn cluster_with_outlier() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in 0..30 {
            let a = (i as f64) * 0.2;
            rows.push(vec![a.sin(), a.cos()]);
        }
        rows.push(vec![15.0, 15.0]);
        rows
    }

    #[test]
    fn outlier_scores_positive_and_highest() {
        let rows = cluster_with_outlier();
        let scores = OneClassSvm::default().score_rows(&row_refs(&rows)).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, rows.len() - 1);
        assert!(scores[best] > 0.0);
    }

    #[test]
    fn detects_outliers_in_any_direction() {
        // Two outliers on opposite sides of the cluster — the hypersphere
        // form must flag both (a linear separator could not).
        let mut rows = cluster_with_outlier();
        rows.push(vec![-15.0, -15.0]);
        let scores = OneClassSvm::default().score_rows(&row_refs(&rows)).unwrap();
        let n = rows.len();
        assert!(scores[n - 1] > 0.5);
        assert!(scores[n - 2] > 0.5);
        let bulk_max = scores[..30].iter().cloned().fold(0.0_f64, f64::max);
        assert!(scores[n - 1] > bulk_max * 3.0);
    }

    #[test]
    fn nu_controls_outside_fraction() {
        let rows = cluster_with_outlier();
        let tight = OneClassSvm::new(0.3)
            .unwrap()
            .score_rows(&row_refs(&rows))
            .unwrap();
        let loose = OneClassSvm::new(0.05)
            .unwrap()
            .score_rows(&row_refs(&rows))
            .unwrap();
        let tight_out = tight.iter().filter(|&&s| s > 1e-12).count();
        let loose_out = loose.iter().filter(|&&s| s > 1e-12).count();
        assert!(
            tight_out >= loose_out,
            "tight {tight_out} loose {loose_out}"
        );
        // nu ≈ 0.3 leaves roughly a third outside.
        assert!(tight_out >= rows.len() / 5);
    }

    #[test]
    fn bulk_points_score_near_zero() {
        let rows = cluster_with_outlier();
        let scores = OneClassSvm::default().score_rows(&row_refs(&rows)).unwrap();
        let bulk_high = scores[..30]
            .iter()
            .filter(|&&s| s > scores[30] * 0.5)
            .count();
        assert!(bulk_high == 0, "bulk must be far inside: {scores:?}");
    }

    #[test]
    fn deterministic() {
        let rows = cluster_with_outlier();
        let svm = OneClassSvm::default();
        assert_eq!(
            svm.score_rows(&row_refs(&rows)).unwrap(),
            svm.score_rows(&row_refs(&rows)).unwrap()
        );
    }

    #[test]
    fn validation_and_info() {
        assert!(OneClassSvm::new(0.0).is_err());
        assert!(OneClassSvm::new(1.0).is_err());
        assert!(OneClassSvm::default().score_rows(&[]).is_err());
        let i = OneClassSvm::default().info();
        assert_eq!(i.citation, "[6]");
        assert_eq!(i.capabilities.count(), 3);
    }

    #[test]
    fn scores_are_non_negative() {
        let rows = cluster_with_outlier();
        let scores = OneClassSvm::default().score_rows(&row_refs(&rows)).unwrap();
        assert!(scores.iter().all(|&s| s >= 0.0));
    }
}
