//! k-nearest-neighbor distance and reverse-kNN counts.
//!
//! `KnnDistance` is the classical distance-based outlier score (distance to
//! the k-th nearest neighbor). `ReverseKnn` follows Radovanović,
//! Nanopoulos & Ivanović (paper citation \[34\]): in high dimensions, *hubs*
//! appear in many kNN lists while outliers appear in few — so the anomaly
//! score is the **scarcity of reverse neighbors**, which the authors show
//! is more robust to hubness than raw distances.

use crate::api::{
    check_rows, finite_scores, Capabilities, DetectError, Detector, DetectorInfo, Result,
    TechniqueClass, VectorScorer,
};
use crate::related::{distance_matrix_into, knn_with_kdist};

/// Distance-to-kth-neighbor scorer.
#[derive(Debug, Clone, Copy)]
pub struct KnnDistance {
    /// Neighborhood size.
    pub k: usize,
}

impl Default for KnnDistance {
    fn default() -> Self {
        Self { k: 5 }
    }
}

impl KnnDistance {
    /// Creates with an explicit `k`.
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

impl Detector for KnnDistance {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "k-NN Distance",
            citation: "§5",
            class: TechniqueClass::Baseline,
            capabilities: Capabilities::ALL,
            supervised: false,
        }
    }
}

impl VectorScorer for KnnDistance {
    fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>> {
        check_rows("KnnDistance", rows)?;
        let n = rows.len();
        if n < 2 {
            return Ok(vec![0.0; n]);
        }
        let k = self.k.min(n - 1);
        let mut dist = Vec::new();
        distance_matrix_into(rows, false, &mut dist);
        let scores = dist
            .chunks_exact(n)
            .enumerate()
            .map(|(i, row)| knn_with_kdist(row, i, k).1.sqrt())
            .collect();
        finite_scores("KnnDistance", scores)
    }
}

/// Reverse-kNN scarcity scorer (paper citation \[34\]).
#[derive(Debug, Clone, Copy)]
pub struct ReverseKnn {
    /// Neighborhood size.
    pub k: usize,
}

impl Default for ReverseKnn {
    fn default() -> Self {
        Self { k: 5 }
    }
}

impl ReverseKnn {
    /// Creates with an explicit `k`.
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

impl Detector for ReverseKnn {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Reverse k-NN",
            citation: "[34]",
            class: TechniqueClass::Baseline,
            capabilities: Capabilities::ALL,
            supervised: false,
        }
    }
}

impl VectorScorer for ReverseKnn {
    fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>> {
        check_rows("ReverseKnn", rows)?;
        let n = rows.len();
        if n < 2 {
            return Ok(vec![0.0; n]);
        }
        let k = self.k.min(n - 1);
        let mut dist = Vec::new();
        distance_matrix_into(rows, false, &mut dist);
        let mut reverse_count = vec![0_usize; n];
        for (i, row) in dist.chunks_exact(n).enumerate() {
            for j in knn_with_kdist(row, i, k).0 {
                if let Some(count) = reverse_count.get_mut(j) {
                    *count += 1;
                }
            }
        }
        // Score = scarcity of reverse neighbors, normalized so 0 means the
        // point is in at least k lists (a hub-free inlier) and 1 means no
        // point considers it a neighbor.
        Ok(reverse_count
            .into_iter()
            .map(|c| 1.0 - (c as f64 / k as f64).min(1.0))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::row_refs;

    fn blob_with_outlier() -> Vec<Vec<f64>> {
        let mut rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1])
            .collect();
        rows.push(vec![50.0, 50.0]);
        rows
    }

    #[test]
    fn knn_distance_ranks_outlier_first() {
        let rows = blob_with_outlier();
        let scores = KnnDistance::default().score_rows(&row_refs(&rows)).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, rows.len() - 1);
        assert!(scores[best] > 50.0);
        assert!(scores[0] < 1.0);
    }

    #[test]
    fn reverse_knn_outlier_has_no_reverse_neighbors() {
        let rows = blob_with_outlier();
        let scores = ReverseKnn::new(3)
            .unwrap()
            .score_rows(&row_refs(&rows))
            .unwrap();
        assert_eq!(scores[rows.len() - 1], 1.0);
        // Blob members appear in plenty of lists.
        let blob_mean: f64 = scores[..20].iter().sum::<f64>() / 20.0;
        assert!(blob_mean < 0.5, "blob mean {blob_mean}");
    }

    #[test]
    fn scores_bounded_and_deterministic() {
        let rows = blob_with_outlier();
        let a = ReverseKnn::default().score_rows(&row_refs(&rows)).unwrap();
        let b = ReverseKnn::default().score_rows(&row_refs(&rows)).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn degenerate_inputs() {
        assert!(KnnDistance::new(0).is_err());
        assert!(ReverseKnn::new(0).is_err());
        assert!(KnnDistance::default().score_rows(&[]).is_err());
        assert_eq!(
            KnnDistance::default()
                .score_rows(&[[1.0, 2.0].as_slice()])
                .unwrap(),
            vec![0.0]
        );
        // k clamps to n - 1.
        let rows = vec![vec![0.0], vec![1.0], vec![2.0]];
        assert_eq!(
            KnnDistance::new(10)
                .unwrap()
                .score_rows(&row_refs(&rows))
                .unwrap()
                .len(),
            3
        );
    }

    #[test]
    fn identical_rows_score_uniformly() {
        let rows = vec![vec![3.0, 3.0]; 8];
        let knn = KnnDistance::default().score_rows(&row_refs(&rows)).unwrap();
        assert!(knn.iter().all(|&s| s == 0.0));
        let rnn = ReverseKnn::default().score_rows(&row_refs(&rows)).unwrap();
        let spread = rnn.iter().cloned().fold(f64::MIN, f64::max)
            - rnn.iter().cloned().fold(f64::MAX, f64::min);
        // Ties are broken by index, but no row may look like a strong
        // anomaly among identical rows' distances.
        assert!(spread <= 1.0);
    }
}
