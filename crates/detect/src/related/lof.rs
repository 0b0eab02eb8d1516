//! Local outlier factor.
//!
//! The paper's related work (its citation [29], Ortner et al.) pairs PCA
//! with "the local outlier factor (LOC) for a robust detection of noisy
//! variables". This is the classical Breunig et al. LOF: a point's score
//! is the ratio of its neighbors' local reachability density to its own —
//! ≈ 1 inside any uniform region (regardless of that region's density),
//! > 1 for points less dense than their neighborhood.

use crate::api::{
    check_rows, finite_scores, Capabilities, DetectError, Detector, DetectorInfo, Result,
    TechniqueClass, VectorScorer,
};
use crate::related::{distance_matrix_into, knn_with_kdist};

/// Local outlier factor scorer.
#[derive(Debug, Clone, Copy)]
pub struct LocalOutlierFactor {
    /// Neighborhood size (`MinPts`).
    pub k: usize,
}

impl Default for LocalOutlierFactor {
    fn default() -> Self {
        Self { k: 5 }
    }
}

impl LocalOutlierFactor {
    /// Creates with an explicit neighborhood size.
    ///
    /// # Errors
    /// Rejects `k == 0`.
    pub fn new(k: usize) -> Result<Self> {
        if k == 0 {
            return Err(DetectError::invalid("k", "must be > 0"));
        }
        Ok(Self { k })
    }
}

impl Detector for LocalOutlierFactor {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Local Outlier Factor",
            citation: "[29]",
            class: TechniqueClass::Baseline,
            capabilities: Capabilities::ALL,
            supervised: false,
        }
    }
}

impl VectorScorer for LocalOutlierFactor {
    fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>> {
        check_rows("LocalOutlierFactor", rows)?;
        let n = rows.len();
        if n <= 2 {
            return Ok(vec![0.0; n]);
        }
        let k = self.k.min(n - 1);
        let mut dist = Vec::new();
        distance_matrix_into(rows, true, &mut dist);
        // k-neighborhoods and k-distances.
        let (neighbors, k_dist): (Vec<Vec<usize>>, Vec<f64>) = dist
            .chunks_exact(n)
            .enumerate()
            .map(|(i, row)| knn_with_kdist(row, i, k))
            .unzip();
        // Local reachability density.
        let at = |xs: &[f64], j: usize| xs.get(j).copied().unwrap_or(f64::NAN);
        let lrd: Vec<f64> = dist
            .chunks_exact(n)
            .zip(&neighbors)
            .map(|(row, near)| {
                let reach_sum: f64 = near.iter().map(|&j| at(row, j).max(at(&k_dist, j))).sum();
                if reach_sum <= 1e-300 {
                    f64::INFINITY // duplicated points: infinite density
                } else {
                    k as f64 / reach_sum
                }
            })
            .collect();
        // LOF = mean neighbor lrd / own lrd; shift by -1 so inliers sit at
        // ~0 and the score is (clamped) non-negative.
        let scores = lrd
            .iter()
            .zip(&neighbors)
            .map(|(&own, near)| {
                if own.is_infinite() {
                    return 0.0; // co-located with duplicates: maximal density
                }
                let mean_neighbor_lrd: f64 = near
                    .iter()
                    .map(|&j| at(&lrd, j))
                    .map(|l| if l.is_infinite() { own } else { l })
                    .sum::<f64>()
                    / k as f64;
                (mean_neighbor_lrd / own - 1.0).max(0.0)
            })
            .collect();
        finite_scores("LocalOutlierFactor", scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::row_refs;

    #[test]
    fn local_outlier_between_two_densities() {
        // Dense cluster, sparse cluster, and one point just outside the
        // dense one: a global distance threshold misses it (it is closer to
        // the dense cluster than sparse points are to each other), LOF does
        // not — the canonical LOF motivation.
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..10 {
            rows.push(vec![i as f64 * 0.05, 0.0]); // dense line
        }
        for i in 0..6 {
            rows.push(vec![100.0 + i as f64 * 3.0, 0.0]); // sparse line
        }
        rows.push(vec![1.5, 0.0]); // local outlier near the dense cluster
        let idx = rows.len() - 1;
        let scores = LocalOutlierFactor::new(3)
            .unwrap()
            .score_rows(&row_refs(&rows))
            .unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, idx, "{scores:?}");
        // Sparse-cluster members are NOT outliers to LOF.
        for s in &scores[10..16] {
            assert!(*s < scores[idx] * 0.5, "sparse member flagged: {scores:?}");
        }
    }

    #[test]
    fn uniform_data_scores_near_zero() {
        let rows: Vec<Vec<f64>> = (0..25)
            .map(|i| vec![(i % 5) as f64, (i / 5) as f64])
            .collect();
        let scores = LocalOutlierFactor::default()
            .score_rows(&row_refs(&rows))
            .unwrap();
        for s in &scores {
            assert!(*s < 0.5, "{scores:?}");
        }
    }

    #[test]
    fn duplicates_do_not_divide_by_zero() {
        let mut rows = vec![vec![1.0, 1.0]; 6];
        rows.push(vec![9.0, 9.0]);
        let scores = LocalOutlierFactor::new(3)
            .unwrap()
            .score_rows(&row_refs(&rows))
            .unwrap();
        assert!(scores.iter().all(|s| s.is_finite()));
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 6);
    }

    #[test]
    fn validation_and_tiny_inputs() {
        assert!(LocalOutlierFactor::new(0).is_err());
        assert!(LocalOutlierFactor::default().score_rows(&[]).is_err());
        assert_eq!(
            LocalOutlierFactor::default()
                .score_rows(&[[1.0].as_slice(), &[2.0]])
                .unwrap(),
            vec![0.0, 0.0]
        );
    }
}
