//! k-means clustering scorer, and the phased variant.
//!
//! Table-1 row **Phased k-Means** (Rebbapragada et al., *Finding anomalous
//! periodic time series*, Machine Learning 2009 — citation [36]): periodic
//! series are phase-aligned/normalized, clustered with k-means, and a
//! series' anomaly score is its distance to the nearest centroid. The plain
//! [`KMeans`] scorer is also the clustering work-horse reused by the
//! vibration-signature detector.

use hierod_timeseries::normalize::z_normalize;

use crate::api::{
    check_rows, finite_scores, Capabilities, DetectError, Detector, DetectorInfo, Result,
    TechniqueClass, VectorScorer,
};
use crate::related::sq_dist;
use crate::stat::nan_last_cmp;

/// Index and squared distance of the centroid nearest to `r`; `None` only
/// for an empty centroid set (which `fit_centroids_once` never produces).
/// NaN distances order last, so a poisoned centroid never wins.
pub(crate) fn nearest_centroid(centroids: &[Vec<f64>], r: &[f64]) -> Option<(usize, f64)> {
    centroids
        .iter()
        .enumerate()
        .map(|(j, c)| (j, sq_dist(r, c)))
        .min_by(|a, b| nan_last_cmp(a.1, b.1))
}

/// Deterministic k-means (k-means++ seeding from a fixed seed, Lloyd
/// iterations) whose row score is the Euclidean distance to the nearest
/// centroid.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iter: usize,
    /// RNG seed for the k-means++ initialization.
    pub seed: u64,
}

impl Default for KMeans {
    fn default() -> Self {
        Self {
            k: 4,
            max_iter: 50,
            seed: 0,
        }
    }
}

impl KMeans {
    /// Creates a scorer with `k` clusters.
    ///
    /// # Errors
    /// Rejects `k == 0`.
    pub fn new(k: usize) -> Result<Self> {
        if k == 0 {
            return Err(DetectError::invalid("k", "must be > 0"));
        }
        Ok(Self {
            k,
            ..Self::default()
        })
    }

    /// Fits centroids on `rows` (k is clamped to the row count), running
    /// four differently seeded k-means++ restarts and keeping the solution
    /// with the lowest inertia (sum of squared distances to assigned
    /// centroids) — Lloyd's algorithm alone is prone to bad local minima.
    ///
    /// # Errors
    /// Rejects empty/ragged collections.
    pub(crate) fn fit_centroids(&self, rows: &[&[f64]]) -> Result<Vec<Vec<f64>>> {
        check_rows("KMeans", rows)?;
        let inertia = |centroids: &[Vec<f64>]| -> f64 {
            rows.iter()
                .map(|r| nearest_centroid(centroids, r).map_or(f64::INFINITY, |(_, d)| d))
                .sum()
        };
        // Restart 0 seeds the running best, so no Option is needed.
        let mut best = self.fit_centroids_once(rows, self.seed)?;
        let mut best_inertia = inertia(&best);
        for restart in 1..4_u64 {
            let centroids = self.fit_centroids_once(rows, self.seed ^ (restart * 0x9E37))?;
            let i = inertia(&centroids);
            if i < best_inertia {
                best_inertia = i;
                best = centroids;
            }
        }
        Ok(best)
    }

    /// One seeded k-means++ + Lloyd run.
    fn fit_centroids_once(&self, rows: &[&[f64]], seed: u64) -> Result<Vec<Vec<f64>>> {
        let d = check_rows("KMeans", rows)?;
        let k = self.k.min(rows.len());
        // k-means++ seeding with a deterministic xorshift stream (cheap,
        // reproducible, no rand dependency needed here).
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        let pick = |i: usize| rows.get(i % rows.len()).map(|r| r.to_vec());
        centroids.extend(pick(next() as usize));
        while centroids.len() < k {
            // Choose next center proportional to squared distance.
            let d2: Vec<f64> = rows
                .iter()
                .map(|r| nearest_centroid(&centroids, r).map_or(f64::INFINITY, |(_, d)| d))
                .collect();
            let total: f64 = d2.iter().sum();
            let chosen = if total <= 0.0 {
                // All points coincide with existing centroids.
                next() as usize
            } else {
                let mut target = (next() as f64 / u64::MAX as f64) * total;
                let mut chosen = rows.len() - 1;
                for (i, &w) in d2.iter().enumerate() {
                    if target <= w {
                        chosen = i;
                        break;
                    }
                    target -= w;
                }
                chosen
            };
            let Some(c) = pick(chosen) else { break };
            centroids.push(c);
        }
        // Lloyd iterations.
        let mut assign = vec![0_usize; rows.len()];
        for _ in 0..self.max_iter {
            let mut changed = false;
            for (slot, r) in assign.iter_mut().zip(rows) {
                // Centroids are never empty (k >= 1 seeds one above).
                let Some((best, _)) = nearest_centroid(&centroids, r) else {
                    continue;
                };
                if *slot != best {
                    *slot = best;
                    changed = true;
                }
            }
            let mut sums = vec![vec![0.0; d]; centroids.len()];
            let mut counts = vec![0_usize; centroids.len()];
            for (r, &a) in rows.iter().zip(&assign) {
                // Assignments index the centroids they were chosen among.
                let (Some(count), Some(sum)) = (counts.get_mut(a), sums.get_mut(a)) else {
                    continue;
                };
                *count += 1;
                for (s, v) in sum.iter_mut().zip(r.iter()) {
                    *s += v;
                }
            }
            for ((c, s), &n) in centroids.iter_mut().zip(&sums).zip(&counts) {
                if n > 0 {
                    for (cv, sv) in c.iter_mut().zip(s) {
                        *cv = sv / n as f64;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Ok(centroids)
    }

    /// Fits centroids, then drops clusters with fewer than `min_size`
    /// members — a lone outlier that grabbed its own centroid must not be
    /// allowed to vouch for itself (Rebbapragada et al. handle this by
    /// cluster-population weighting). Falls back to all centroids when the
    /// filter would remove everything.
    ///
    /// # Errors
    /// Rejects empty/ragged collections.
    pub(crate) fn fit_filtered_centroids(
        &self,
        rows: &[&[f64]],
        min_size: usize,
    ) -> Result<Vec<Vec<f64>>> {
        let mut active: Vec<&[f64]> = rows.to_vec();
        // Up to three rounds: fit, drop under-populated clusters, refit on
        // the surviving rows (so a dropped outlier's centroid budget is
        // re-spent on real structure).
        for _ in 0..3 {
            let centroids = self.fit_centroids(&active)?;
            let nearest =
                |r: &[f64]| -> usize { nearest_centroid(&centroids, r).map_or(0, |(j, _)| j) };
            let mut counts = vec![0_usize; centroids.len()];
            for r in &active {
                if let Some(count) = counts.get_mut(nearest(r)) {
                    *count += 1;
                }
            }
            let dropped: Vec<usize> = counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0 && c < min_size)
                .map(|(i, _)| i)
                .collect();
            if dropped.is_empty() || active.len() <= min_size {
                return Ok(centroids);
            }
            let survivors: Vec<&[f64]> = active
                .iter()
                .filter(|r| !dropped.contains(&nearest(r)))
                .copied()
                .collect();
            if survivors.len() < min_size {
                return Ok(centroids);
            }
            active = survivors;
        }
        self.fit_centroids(&active)
    }

    /// Distance of each row to its nearest centroid.
    pub(crate) fn distances(centroids: &[Vec<f64>], rows: &[&[f64]]) -> Vec<f64> {
        rows.iter()
            .map(|r| nearest_centroid(centroids, r).map_or(f64::INFINITY, |(_, d)| d.sqrt()))
            .collect()
    }
}

impl Detector for KMeans {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "k-Means Centroid Distance",
            citation: "[36]",
            class: TechniqueClass::DA,
            capabilities: Capabilities::new(false, true, true),
            supervised: false,
        }
    }
}

impl VectorScorer for KMeans {
    fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>> {
        let centroids = self.fit_filtered_centroids(rows, 2)?;
        finite_scores("KMeans", Self::distances(&centroids, rows))
    }
}

/// Phased k-means (Table-1 row *Phased k-Means*, \[36\]): the input vectors
/// (periodic sub-sequences or whole periods) are z-normalized — removing
/// amplitude and offset, i.e. "phasing" them onto a common scale — before
/// k-means scoring.
#[derive(Debug, Clone, Default)]
pub struct PhasedKMeans {
    /// The underlying k-means configuration.
    pub kmeans: KMeans,
}

impl PhasedKMeans {
    /// Creates with `k` clusters.
    ///
    /// # Errors
    /// Rejects `k == 0`.
    pub fn new(k: usize) -> Result<Self> {
        Ok(Self {
            kmeans: KMeans::new(k)?,
        })
    }
}

impl Detector for PhasedKMeans {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Phased k-Means",
            citation: "[36]",
            class: TechniqueClass::DA,
            capabilities: Capabilities::new(false, false, true),
            supervised: false,
        }
    }
}

impl VectorScorer for PhasedKMeans {
    fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>> {
        check_rows("PhasedKMeans", rows)?;
        let phased: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| z_normalize(r).map_err(DetectError::from))
            .collect::<Result<_>>()?;
        self.kmeans.score_rows(&crate::api::row_refs(&phased))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::row_refs;

    fn two_blobs_plus_outlier() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in 0..10 {
            rows.push(vec![0.0 + 0.01 * i as f64, 0.0]);
            rows.push(vec![10.0 + 0.01 * i as f64, 10.0]);
        }
        rows.push(vec![50.0, -50.0]);
        rows
    }

    #[test]
    fn outlier_gets_top_score() {
        let rows = two_blobs_plus_outlier();
        let scores = KMeans::new(2)
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
        // Blob members score near zero.
        assert!(scores[0] < 1.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let rows = two_blobs_plus_outlier();
        let km = KMeans::new(3).unwrap();
        assert_eq!(
            km.score_rows(&row_refs(&rows)).unwrap(),
            km.score_rows(&row_refs(&rows)).unwrap()
        );
    }

    #[test]
    fn k_clamped_to_row_count() {
        let rows = vec![vec![1.0], vec![2.0]];
        let scores = KMeans::new(10)
            .unwrap()
            .score_rows(&row_refs(&rows))
            .unwrap();
        // Every point becomes its own centroid: all zero.
        assert!(scores.iter().all(|&s| s < 1e-9));
    }

    #[test]
    fn identical_rows_fit_without_panicking() {
        let rows = vec![vec![3.0, 3.0]; 8];
        let scores = KMeans::new(3)
            .unwrap()
            .score_rows(&row_refs(&rows))
            .unwrap();
        assert!(scores.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn validation_errors() {
        assert!(KMeans::new(0).is_err());
        assert!(KMeans::default().score_rows(&[]).is_err());
        assert!(KMeans::default()
            .score_rows(&[[1.0].as_slice(), &[1.0, 2.0]])
            .is_err());
    }

    #[test]
    fn phased_kmeans_ignores_amplitude() {
        // Same shape at different amplitudes => after phasing, one cluster;
        // a different shape stands out.
        let shape_a =
            |amp: f64| -> Vec<f64> { (0..16).map(|i| amp * (i as f64 * 0.5).sin()).collect() };
        let mut rows: Vec<Vec<f64>> = (1..=8).map(|a| shape_a(a as f64)).collect();
        rows.push((0..16).map(|i| i as f64).collect()); // ramp: different shape
        let scores = PhasedKMeans::new(1)
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
        // All sine rows score (almost) the same despite 8x amplitude range.
        let sine_scores = &scores[..8];
        let max = sine_scores.iter().cloned().fold(f64::MIN, f64::max);
        let min = sine_scores.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min < 1e-6);
    }

    #[test]
    fn info_matches_table1() {
        let i = PhasedKMeans::default().info();
        assert_eq!(i.class, TechniqueClass::DA);
        assert_eq!(i.citation, "[36]");
        assert!(i.capabilities.series);
        assert!(!i.supervised);
    }
}
