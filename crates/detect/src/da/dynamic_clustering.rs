//! ADMIT-style dynamic (leader) clustering.
//!
//! Table-1 row **Dynamic Clustering** (Sequeira & Zaki, *ADMIT:
//! anomaly-based data mining for intrusions*, KDD 2002 — citation [37]):
//! clusters are created dynamically as data streams in — a point joins the
//! nearest existing cluster if within a radius, otherwise founds a new
//! cluster. After the pass, small clusters are anomalous. The score
//! combines cluster rarity with the distance to the cluster's center, so
//! within-cluster ranking is preserved.

use crate::api::{
    check_rows, finite_scores, Capabilities, DetectError, Detector, DetectorInfo, Result,
    TechniqueClass, VectorScorer,
};
use crate::related::sq_dist;

/// Leader-clustering scorer.
#[derive(Debug, Clone)]
pub struct DynamicClustering {
    /// Cluster admission radius as a multiple of the mean nearest-neighbor
    /// distance (auto-scales to the data's density).
    pub radius_factor: f64,
}

impl Default for DynamicClustering {
    fn default() -> Self {
        Self { radius_factor: 3.0 }
    }
}

struct Cluster {
    center: Vec<f64>,
    count: usize,
}

impl DynamicClustering {
    /// Creates with an explicit radius factor (> 0).
    ///
    /// # Errors
    /// Rejects non-positive factors.
    pub fn new(radius_factor: f64) -> Result<Self> {
        if radius_factor <= 0.0 {
            return Err(DetectError::invalid("radius_factor", "must be > 0"));
        }
        Ok(Self { radius_factor })
    }

    /// Mean nearest-neighbor distance of the collection (the density scale).
    fn density_scale(rows: &[&[f64]]) -> f64 {
        if rows.len() < 2 {
            return 1.0;
        }
        let mut total = 0.0;
        for (i, r) in rows.iter().enumerate() {
            let nn = rows
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, o)| sq_dist(r, o))
                .fold(f64::INFINITY, f64::min)
                .sqrt();
            total += nn;
        }
        (total / rows.len() as f64).max(1e-12)
    }
}

impl Detector for DynamicClustering {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Dynamic Clustering",
            citation: "[37]",
            class: TechniqueClass::DA,
            capabilities: Capabilities::new(false, true, true),
            supervised: false,
        }
    }
}

impl VectorScorer for DynamicClustering {
    fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>> {
        check_rows("DynamicClustering", rows)?;
        let radius = Self::density_scale(rows) * self.radius_factor;
        let mut clusters: Vec<Cluster> = Vec::new();
        let mut assignment = Vec::with_capacity(rows.len());
        // Streaming pass: join-or-found. Centers update incrementally.
        for r in rows {
            let nearest = clusters
                .iter_mut()
                .enumerate()
                .map(|(i, c)| (i, sq_dist(&c.center, r).sqrt(), c))
                .min_by(|a, b| a.1.total_cmp(&b.1));
            match nearest {
                Some((i, d, c)) if d <= radius => {
                    c.count += 1;
                    let w = 1.0 / c.count as f64;
                    for (cv, xv) in c.center.iter_mut().zip(r.iter()) {
                        *cv += w * (xv - *cv);
                    }
                    assignment.push(i);
                }
                _ => {
                    clusters.push(Cluster {
                        center: r.to_vec(),
                        count: 1,
                    });
                    assignment.push(clusters.len() - 1);
                }
            }
        }
        let n = rows.len() as f64;
        let scores = rows
            .iter()
            .zip(&assignment)
            .filter_map(|(r, &a)| {
                let c = clusters.get(a)?;
                let rarity = 1.0 - c.count as f64 / n;
                let dist = sq_dist(&c.center, r).sqrt();
                // Rarity dominates; distance breaks ties within a cluster.
                Some(rarity + dist / (radius + 1e-12) * 1e-3)
            })
            .collect();
        finite_scores("DynamicClustering", scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::row_refs;

    fn stream_with_intrusion() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in 0..50 {
            rows.push(vec![(i % 7) as f64 * 0.05, (i % 5) as f64 * 0.05]);
        }
        rows.push(vec![500.0, 500.0]);
        rows
    }

    #[test]
    fn intrusion_founds_a_singleton_cluster() {
        let rows = stream_with_intrusion();
        let scores = DynamicClustering::default()
            .score_rows(&row_refs(&rows))
            .unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, rows.len() - 1);
        assert!(scores[best] > 0.9);
        assert!(scores[0] < 0.5);
    }

    #[test]
    fn tight_blob_forms_one_cluster() {
        // All points coincide: a single cluster, all scores ~0.
        let rows: Vec<Vec<f64>> = (0..20).map(|_| vec![3.0, 3.0]).collect();
        let scores = DynamicClustering::default()
            .score_rows(&row_refs(&rows))
            .unwrap();
        assert!(scores.iter().all(|&s| s < 0.1), "{scores:?}");
    }

    #[test]
    fn uniform_ramp_splits_into_moderate_clusters() {
        // A drifting-center leader pass over a ramp fragments it into a few
        // clusters — no single point should look like a strong anomaly.
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.001]).collect();
        let scores = DynamicClustering::default()
            .score_rows(&row_refs(&rows))
            .unwrap();
        assert!(scores.iter().all(|&s| s < 0.9), "{scores:?}");
        let spread = scores.iter().cloned().fold(f64::MIN, f64::max)
            - scores.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.5);
    }

    #[test]
    fn radius_factor_controls_fragmentation() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let tight = DynamicClustering::new(0.2)
            .unwrap()
            .score_rows(&row_refs(&rows))
            .unwrap();
        let loose = DynamicClustering::new(50.0)
            .unwrap()
            .score_rows(&row_refs(&rows))
            .unwrap();
        // Tight radius: many small clusters -> high scores everywhere.
        let tight_mean: f64 = tight.iter().sum::<f64>() / 20.0;
        let loose_mean: f64 = loose.iter().sum::<f64>() / 20.0;
        assert!(tight_mean > loose_mean);
    }

    #[test]
    fn order_sensitivity_is_bounded_by_rarity_dominance() {
        // Leader clustering is order-sensitive by construction, but the
        // rarity term must still isolate the intrusion when it arrives first.
        let mut rows = stream_with_intrusion();
        rows.rotate_right(1); // intrusion now first
        let scores = DynamicClustering::default()
            .score_rows(&row_refs(&rows))
            .unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 0);
    }

    #[test]
    fn single_row() {
        let scores = DynamicClustering::default()
            .score_rows(&[[1.0].as_slice()])
            .unwrap();
        assert_eq!(scores.len(), 1);
        assert!(scores[0] < 1e-9);
    }

    #[test]
    fn validation_and_info() {
        assert!(DynamicClustering::new(0.0).is_err());
        assert!(DynamicClustering::default().score_rows(&[]).is_err());
        let i = DynamicClustering::default().info();
        assert_eq!(i.citation, "[37]");
        assert!(i.capabilities.subsequences && i.capabilities.series);
    }
}
