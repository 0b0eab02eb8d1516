//! Single-linkage agglomerative clustering.
//!
//! Table-1 row **Single-linkage clustering** (Portnoy et al., *Intrusion
//! Detection with Unlabeled Data Using Clustering*, 2001 — citation [32]):
//! unlabeled data is clustered bottom-up with single linkage; clusters whose
//! population stays small are labeled anomalous (intrusions are rare). The
//! score of a point is `1 − |cluster| / n` after cutting the dendrogram at
//! a distance threshold — by default the `cut_quantile` of all pairwise
//! distances, following Portnoy's width heuristic.

use crate::api::{
    check_rows, Capabilities, DetectError, Detector, DetectorInfo, Result, TechniqueClass,
    VectorScorer,
};
use crate::related::sq_dist;

/// Single-linkage small-cluster scorer.
#[derive(Debug, Clone)]
pub struct SingleLinkage {
    /// Quantile of pairwise distances at which the dendrogram is cut.
    pub cut_quantile: f64,
}

impl Default for SingleLinkage {
    fn default() -> Self {
        Self { cut_quantile: 0.2 }
    }
}

/// Disjoint-set forest for the agglomeration.
struct Dsu {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    /// The root of `x`'s tree (union by size keeps trees O(log n) deep).
    fn find(&self, mut x: usize) -> usize {
        while let Some(&up) = self.parent.get(x).filter(|&&up| up != x) {
            x = up;
        }
        x
    }

    /// The population of `x`'s cluster.
    fn size_of(&self, x: usize) -> usize {
        self.size.get(self.find(x)).copied().unwrap_or(1)
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (sa, sb) = (self.size_of(ra), self.size_of(rb));
        let (big, small) = if sa >= sb { (ra, rb) } else { (rb, ra) };
        if let (Some(up), Some(size)) = (self.parent.get_mut(small), self.size.get_mut(big)) {
            *up = big;
            *size = sa + sb;
        }
    }
}

impl SingleLinkage {
    /// Creates with an explicit cut quantile in `(0, 1)`.
    ///
    /// # Errors
    /// Rejects quantiles outside `(0, 1)`.
    pub(crate) fn new(cut_quantile: f64) -> Result<Self> {
        if !(cut_quantile > 0.0 && cut_quantile < 1.0) {
            return Err(DetectError::invalid("cut_quantile", "must be in (0, 1)"));
        }
        Ok(Self { cut_quantile })
    }

    /// Cluster assignment sizes per row after the cut.
    fn cluster_sizes(&self, rows: &[&[f64]]) -> Result<Vec<usize>> {
        check_rows("SingleLinkage", rows)?;
        let n = rows.len();
        if n == 1 {
            return Ok(vec![1]);
        }
        // All pairwise distances.
        let mut pairs: Vec<(f64, usize, usize)> = Vec::with_capacity(n * (n - 1) / 2);
        for (i, a) in rows.iter().enumerate() {
            for (j, b) in rows.iter().enumerate().skip(i + 1) {
                pairs.push((sq_dist(a, b), i, j));
            }
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let cut_idx = ((pairs.len() as f64) * self.cut_quantile) as usize;
        let Some(&(cut, _, _)) = pairs.get(cut_idx).or(pairs.last()) else {
            return Ok(vec![1; n]);
        };
        // Single linkage = union all pairs with distance <= cut.
        let mut dsu = Dsu::new(n);
        for &(d, i, j) in &pairs {
            if d > cut {
                break;
            }
            dsu.union(i, j);
        }
        Ok((0..n).map(|i| dsu.size_of(i)).collect())
    }
}

impl Detector for SingleLinkage {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Single-linkage Clustering",
            citation: "[32]",
            class: TechniqueClass::DA,
            capabilities: Capabilities::ALL,
            supervised: false,
        }
    }
}

impl VectorScorer for SingleLinkage {
    fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>> {
        let sizes = self.cluster_sizes(rows)?;
        let n = rows.len() as f64;
        Ok(sizes.iter().map(|&s| 1.0 - s as f64 / n).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::row_refs;

    fn blob_plus_two_strays() -> Vec<Vec<f64>> {
        let mut rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1])
            .collect();
        rows.push(vec![100.0, 100.0]);
        rows.push(vec![-100.0, 100.0]);
        rows
    }

    #[test]
    fn strays_form_singleton_clusters() {
        let rows = blob_plus_two_strays();
        let scores = SingleLinkage::default()
            .score_rows(&row_refs(&rows))
            .unwrap();
        let n = rows.len() as f64;
        // Singletons: score 1 - 1/n.
        assert!((scores[20] - (1.0 - 1.0 / n)).abs() < 1e-9);
        assert!((scores[21] - (1.0 - 1.0 / n)).abs() < 1e-9);
        // Blob members share a 20-element cluster.
        assert!((scores[0] - (1.0 - 20.0 / n)).abs() < 1e-9);
        assert!(scores[20] > scores[0]);
    }

    #[test]
    fn chaining_property_of_single_linkage() {
        // A chain of closely spaced points merges into ONE cluster even
        // though the ends are far apart — the signature behaviour that
        // distinguishes single linkage from complete linkage.
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.1]).collect();
        let scores = SingleLinkage::new(0.2)
            .unwrap()
            .score_rows(&row_refs(&rows))
            .unwrap();
        // Everything in one cluster => all scores equal 0.
        assert!(scores.iter().all(|&s| s < 1e-9), "{scores:?}");
    }

    #[test]
    fn single_row_collection() {
        let scores = SingleLinkage::default()
            .score_rows(&[[1.0, 2.0].as_slice()])
            .unwrap();
        assert_eq!(scores, vec![0.0]);
    }

    #[test]
    fn cut_quantile_changes_granularity() {
        let rows = blob_plus_two_strays();
        let tight = SingleLinkage::new(0.05)
            .unwrap()
            .score_rows(&row_refs(&rows))
            .unwrap();
        let loose = SingleLinkage::new(0.9)
            .unwrap()
            .score_rows(&row_refs(&rows))
            .unwrap();
        // A very loose cut merges everything: scores collapse.
        let loose_max = loose.iter().cloned().fold(f64::MIN, f64::max);
        let tight_max = tight.iter().cloned().fold(f64::MIN, f64::max);
        assert!(loose_max <= tight_max + 1e-9);
    }

    #[test]
    fn deterministic_and_validated() {
        let rows = blob_plus_two_strays();
        let sl = SingleLinkage::default();
        assert_eq!(
            sl.score_rows(&row_refs(&rows)).unwrap(),
            sl.score_rows(&row_refs(&rows)).unwrap()
        );
        assert!(SingleLinkage::new(0.0).is_err());
        assert!(SingleLinkage::new(1.0).is_err());
        assert!(sl.score_rows(&[]).is_err());
    }

    #[test]
    fn info_matches_table1() {
        let i = SingleLinkage::default().info();
        assert_eq!(i.citation, "[32]");
        assert_eq!(i.capabilities.count(), 3);
    }
}
