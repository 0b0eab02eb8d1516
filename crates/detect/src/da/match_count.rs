//! Match-count sequence similarity.
//!
//! Table-1 row **Match Count Sequence Similarity** (Lane & Brodley,
//! *Sequence Matching and Learning in Anomaly Detection for Computer
//! Security*, 1997 — citation [16]): a sequence's similarity to a profile of
//! known-normal sequences is the (optionally smoothed) count of positionally
//! matching symbols. Unsupervised form: each sequence is scored against all
//! others; the anomaly score is `1 − max similarity` to any peer, smoothed
//! over the `smooth_k` best peers to resist single-coincidence matches.

use hierod_timeseries::distance::match_count_similarity;

use crate::api::{
    Capabilities, DetectError, Detector, DetectorInfo, DiscreteScorer, Result, TechniqueClass,
};

/// Match-count similarity scorer over equal-length symbol sequences.
#[derive(Debug, Clone, Copy)]
pub struct MatchCount {
    /// Number of best-matching peers to average over (≥ 1).
    pub smooth_k: usize,
}

impl Default for MatchCount {
    fn default() -> Self {
        Self { smooth_k: 3 }
    }
}

impl MatchCount {
    /// Creates with an explicit smoothing neighborhood.
    ///
    /// # Errors
    /// Rejects `smooth_k == 0`.
    pub(crate) fn new(smooth_k: usize) -> Result<Self> {
        if smooth_k == 0 {
            return Err(DetectError::invalid("smooth_k", "must be >= 1"));
        }
        Ok(Self { smooth_k })
    }
}

impl Detector for MatchCount {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Match Count Sequence Similarity",
            citation: "[16]",
            class: TechniqueClass::DA,
            capabilities: Capabilities::new(false, true, false),
            supervised: false,
        }
    }
}

impl DiscreteScorer for MatchCount {
    fn score_sequences(&self, seqs: &[&[u16]]) -> Result<Vec<f64>> {
        if seqs.len() < 2 {
            return Err(DetectError::NotEnoughData {
                what: "MatchCount",
                needed: 2,
                got: seqs.len(),
            });
        }
        let len = seqs.first().map_or(0, |s| s.len());
        if len == 0 || seqs.iter().any(|s| s.len() != len) {
            return Err(DetectError::ShapeMismatch {
                message: "MatchCount requires equal-length non-empty sequences".into(),
            });
        }
        let mut scores = Vec::with_capacity(seqs.len());
        for (i, a) in seqs.iter().enumerate() {
            let mut sims = seqs
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, b)| match_count_similarity(a, b))
                .collect::<std::result::Result<Vec<f64>, _>>()?;
            sims.sort_by(|x, y| y.total_cmp(x));
            let k = self.smooth_k.min(sims.len());
            let avg = sims.iter().take(k).sum::<f64>() / k as f64;
            scores.push(1.0 - avg);
        }
        Ok(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_sequence_scores_highest() {
        let normal: Vec<Vec<u16>> = (0..6)
            .map(|i| {
                // All normal sequences share most positions.
                let mut s = vec![1_u16, 2, 3, 4, 5, 6, 7, 8];
                s[i % 8] = 9; // one position perturbed per sequence
                s
            })
            .collect();
        let odd = vec![8_u16, 7, 6, 5, 4, 3, 2, 1];
        let mut all: Vec<&[u16]> = normal.iter().map(Vec::as_slice).collect();
        all.push(&odd);
        let scores = MatchCount::default().score_sequences(&all).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, all.len() - 1);
        assert!(scores[0] < scores[best]);
    }

    #[test]
    fn identical_sequences_score_zero() {
        let s = vec![1_u16, 2, 3];
        let all: Vec<&[u16]> = vec![&s, &s, &s];
        let scores = MatchCount::new(1).unwrap().score_sequences(&all).unwrap();
        assert!(scores.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn scores_bounded_unit_interval() {
        let a = vec![0_u16; 5];
        let b = vec![1_u16; 5];
        let all: Vec<&[u16]> = vec![&a, &b];
        let scores = MatchCount::new(1).unwrap().score_sequences(&all).unwrap();
        assert_eq!(scores, vec![1.0, 1.0]);
    }

    #[test]
    fn smoothing_uses_k_best_peers() {
        // One coincidental twin should not zero the score when k > 1.
        let target = vec![1_u16, 2, 3, 4];
        let twin = vec![1_u16, 2, 3, 4];
        let noise1 = vec![9_u16, 9, 9, 9];
        let noise2 = vec![8_u16, 8, 8, 8];
        let all: Vec<&[u16]> = vec![&target, &twin, &noise1, &noise2];
        let k1 = MatchCount::new(1).unwrap().score_sequences(&all).unwrap();
        let k3 = MatchCount::new(3).unwrap().score_sequences(&all).unwrap();
        assert_eq!(k1[0], 0.0); // twin match
        assert!(k3[0] > 0.0); // smoothed over non-matching peers
    }

    #[test]
    fn validation() {
        assert!(MatchCount::new(0).is_err());
        let a = vec![1_u16, 2];
        assert!(MatchCount::default().score_sequences(&[&a]).is_err());
        let b = vec![1_u16];
        assert!(MatchCount::default().score_sequences(&[&a, &b]).is_err());
        let empty: Vec<u16> = vec![];
        assert!(MatchCount::default()
            .score_sequences(&[&empty, &empty])
            .is_err());
    }

    #[test]
    fn info_matches_table1() {
        let i = MatchCount::default().info();
        assert_eq!(i.citation, "[16]");
        assert_eq!(i.class, TechniqueClass::DA);
        assert!(i.capabilities.subsequences);
        assert!(!i.capabilities.points);
    }
}
