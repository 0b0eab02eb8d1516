//! Longest-common-subsequence similarity clustering.
//!
//! Table-1 row **Longest Common Subsequence** (Budalakoti et al., *Anomaly
//! detection in large sets of high-dimensional symbol sequences*, 2006 —
//! citation [2]): sequences are clustered around medoids under normalized
//! LCS similarity; a sequence's anomaly score is `1 − similarity` to its
//! nearest medoid. Unlike match-count, LCS tolerates insertions/deletions,
//! so it handles variable-length sequences.

use hierod_timeseries::distance::lcs_similarity;
use hierod_timeseries::Dense;

use crate::api::{
    Capabilities, DetectError, Detector, DetectorInfo, DiscreteScorer, Result, TechniqueClass,
};

/// LCS medoid-clustering scorer for symbol sequences (variable lengths
/// allowed).
#[derive(Debug, Clone, Copy)]
pub struct LcsCluster {
    /// Number of medoids.
    pub k: usize,
}

impl Default for LcsCluster {
    fn default() -> Self {
        Self { k: 2 }
    }
}

impl LcsCluster {
    /// Creates with `k` medoids.
    ///
    /// # Errors
    /// Rejects `k == 0`.
    pub fn new(k: usize) -> Result<Self> {
        if k == 0 {
            return Err(DetectError::invalid("k", "must be > 0"));
        }
        Ok(Self { k })
    }

    /// Greedy k-medoid selection: the first medoid is the sequence with the
    /// highest total similarity (most central); each further medoid is the
    /// sequence worst-covered by the current medoids (farthest-point
    /// heuristic). Deterministic.
    fn select_medoids(&self, sim: &Dense) -> Vec<usize> {
        let k = self.k.min(sim.height());
        let mut medoids = Vec::with_capacity(k);
        let first = sim
            .rows()
            .map(|row| row.iter().sum::<f64>())
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1));
        medoids.extend(first.map(|(i, _)| i));
        while medoids.len() < k {
            let next = sim
                .rows()
                .enumerate()
                .filter(|(i, _)| !medoids.contains(i))
                .map(|(i, row)| (i, coverage(row, &medoids)))
                .min_by(|a, b| a.1.total_cmp(&b.1));
            match next {
                Some((i, _)) => medoids.push(i),
                None => break,
            }
        }
        medoids
    }
}

/// How well the medoids cover one sequence: its best similarity to any.
fn coverage(sim_row: &[f64], medoids: &[usize]) -> f64 {
    medoids
        .iter()
        .filter_map(|&m| sim_row.get(m))
        .fold(f64::MIN, |best, &s| best.max(s))
}

impl Detector for LcsCluster {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Longest Common Subsequence",
            citation: "[2]",
            class: TechniqueClass::DA,
            capabilities: Capabilities::new(false, true, false),
            supervised: false,
        }
    }
}

impl DiscreteScorer for LcsCluster {
    fn score_sequences(&self, seqs: &[&[u16]]) -> Result<Vec<f64>> {
        if seqs.len() < 2 {
            return Err(DetectError::NotEnoughData {
                what: "LcsCluster",
                needed: 2,
                got: seqs.len(),
            });
        }
        // Full pairwise similarity matrix (symmetric).
        let n = seqs.len();
        let mut sim = Dense::filled(n, n, 0.0);
        for (i, (row, a)) in sim.rows_mut().zip(seqs).enumerate() {
            for (j, (s, b)) in row.iter_mut().zip(seqs).enumerate().skip(i) {
                *s = if j == i { 1.0 } else { lcs_similarity(a, b) };
            }
        }
        sim.mirror_upper();
        let medoids = self.select_medoids(&sim);
        Ok(sim
            .rows()
            .enumerate()
            .map(|(i, row)| {
                if medoids.contains(&i) && medoids.len() > 1 {
                    // A medoid is scored against the *other* medoids' members
                    // via its best non-self similarity, so a lone-outlier
                    // medoid still scores high.
                    let best = row
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .fold(f64::MIN, |best, (_, &s)| best.max(s));
                    1.0 - best
                } else {
                    1.0 - coverage(row, &medoids)
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffled_alien_sequence_scores_high() {
        // Normal grammar: ascending runs with small edits.
        let normals: Vec<Vec<u16>> = (0..6)
            .map(|i| {
                let mut s: Vec<u16> = (0..10).collect();
                s[i % 10] = 99;
                s
            })
            .collect();
        let alien: Vec<u16> = vec![50, 40, 30, 20, 10, 5, 3, 2, 1, 0];
        let mut all: Vec<&[u16]> = normals.iter().map(Vec::as_slice).collect();
        all.push(&alien);
        let scores = LcsCluster::default().score_sequences(&all).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, all.len() - 1);
    }

    #[test]
    fn handles_variable_lengths() {
        let a: Vec<u16> = (0..12).collect();
        let b: Vec<u16> = (0..8).collect(); // prefix of a
        let c: Vec<u16> = vec![99, 98, 97];
        let all: Vec<&[u16]> = vec![&a, &b, &c];
        let scores = LcsCluster::new(1).unwrap().score_sequences(&all).unwrap();
        assert!(scores[2] > scores[1]);
    }

    #[test]
    fn identical_sequences_score_zero() {
        let s: Vec<u16> = vec![1, 2, 3, 4];
        let all: Vec<&[u16]> = vec![&s, &s, &s];
        let scores = LcsCluster::new(1).unwrap().score_sequences(&all).unwrap();
        assert!(scores.iter().all(|&x| x < 1e-12));
    }

    #[test]
    fn k_clamped_and_validation() {
        assert!(LcsCluster::new(0).is_err());
        let s: Vec<u16> = vec![1];
        assert!(LcsCluster::default().score_sequences(&[&s]).is_err());
        // k larger than n works.
        let a: Vec<u16> = vec![1, 2];
        let b: Vec<u16> = vec![3, 4];
        let all: Vec<&[u16]> = vec![&a, &b];
        assert_eq!(
            LcsCluster::new(10)
                .unwrap()
                .score_sequences(&all)
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn deterministic() {
        let a: Vec<u16> = vec![1, 2, 3];
        let b: Vec<u16> = vec![1, 2, 4];
        let c: Vec<u16> = vec![9, 9, 9];
        let all: Vec<&[u16]> = vec![&a, &b, &c];
        let d = LcsCluster::default();
        assert_eq!(
            d.score_sequences(&all).unwrap(),
            d.score_sequences(&all).unwrap()
        );
    }

    #[test]
    fn info_matches_table1() {
        let i = LcsCluster::default().info();
        assert_eq!(i.citation, "[2]");
        assert_eq!(i.class, TechniqueClass::DA);
        assert_eq!(i.capabilities.count(), 1);
    }
}
