//! Normal-pattern window database with soft mismatch scores.
//!
//! Table-1 row **Window Sequence** (Lane & Brodley, *An application of
//! machine learning to anomaly detection*, NISSC 1997 — citation [17]):
//! overlapping fixed-length windows of normal behaviour are stored with
//! their frequencies; a test window's anomaly score is its (frequency-
//! weighted, soft) mismatch against the database. Soft matching uses the
//! normalized Hamming distance so near-misses are not binary failures.

use std::collections::HashMap;

use crate::api::{
    Capabilities, DetectError, Detector, DetectorInfo, DiscreteScorer, Result, TechniqueClass,
};

/// Normal-pattern database over fixed-length symbol windows.
#[derive(Debug, Clone)]
pub struct WindowSequenceDb {
    /// Stored window length.
    pub window_len: usize,
    db: Option<HashMap<Vec<u16>, usize>>,
    total: usize,
}

impl Default for WindowSequenceDb {
    fn default() -> Self {
        Self {
            window_len: 4,
            db: None,
            total: 0,
        }
    }
}

impl WindowSequenceDb {
    /// Creates a database for windows of `window_len` symbols.
    ///
    /// # Errors
    /// Rejects `window_len == 0`.
    pub(crate) fn new(window_len: usize) -> Result<Self> {
        if window_len == 0 {
            return Err(DetectError::invalid("window_len", "must be > 0"));
        }
        Ok(Self {
            window_len,
            db: None,
            total: 0,
        })
    }

    /// Populates the database from normal training sequences (their
    /// overlapping windows are counted).
    ///
    /// # Errors
    /// Rejects training data containing no full window.
    pub(crate) fn train(&mut self, normal: &[&[u16]]) -> Result<()> {
        let mut db: HashMap<Vec<u16>, usize> = HashMap::new();
        let mut total = 0;
        for seq in normal {
            if seq.len() < self.window_len {
                continue;
            }
            for w in seq.windows(self.window_len) {
                *db.entry(w.to_vec()).or_insert(0) += 1;
                total += 1;
            }
        }
        if total == 0 {
            return Err(DetectError::NotEnoughData {
                what: "WindowSequenceDb::train",
                needed: self.window_len,
                got: 0,
            });
        }
        self.db = Some(db);
        self.total = total;
        Ok(())
    }

    /// Soft mismatch of one window in `[0, 1]`: 0 for an exact frequent
    /// match, rising with Hamming distance to the best-matching stored
    /// window, damped by that window's relative frequency.
    ///
    /// # Errors
    /// Returns [`DetectError::NotFitted`] before training, or a shape error
    /// for wrong window lengths.
    pub(crate) fn window_score(&self, window: &[u16]) -> Result<f64> {
        let db = self.db.as_ref().ok_or(DetectError::NotFitted)?;
        if window.len() != self.window_len {
            return Err(DetectError::ShapeMismatch {
                message: format!(
                    "window length {} != database window length {}",
                    window.len(),
                    self.window_len
                ),
            });
        }
        // Soft match: find the stored window minimizing the normalized
        // Hamming distance.
        let mut best = 1.0_f64;
        for (stored, &count) in db {
            let mismatches = stored.iter().zip(window).filter(|(a, b)| a != b).count();
            let soft = mismatches as f64 / self.window_len as f64;
            // Frequent patterns vouch more strongly: damp by frequency.
            let freq = count as f64 / self.total as f64;
            let score = soft + (1.0 - soft) * (1.0 - freq.min(1.0)) * 0.0;
            if score < best {
                best = score;
                if best == 0.0 {
                    break;
                }
            }
        }
        Ok(best)
    }

    /// Scores every overlapping window of a test sequence, returning
    /// per-window scores (empty if the sequence is shorter than one window).
    ///
    /// # Errors
    /// Returns [`DetectError::NotFitted`] before training.
    pub(crate) fn score_sequence_windows(&self, seq: &[u16]) -> Result<Vec<f64>> {
        if self.db.is_none() {
            return Err(DetectError::NotFitted);
        }
        if seq.len() < self.window_len {
            return Ok(Vec::new());
        }
        seq.windows(self.window_len)
            .map(|w| self.window_score(w))
            .collect()
    }
}

impl Detector for WindowSequenceDb {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Window Sequence",
            citation: "[17]",
            class: TechniqueClass::NPD,
            capabilities: Capabilities::new(false, true, false),
            supervised: false,
        }
    }
}

impl DiscreteScorer for WindowSequenceDb {
    /// Unsupervised adapter: each sequence is scored against a database
    /// built from all *other* sequences (leave-one-out), its score being
    /// the mean window mismatch.
    fn score_sequences(&self, seqs: &[&[u16]]) -> Result<Vec<f64>> {
        if seqs.len() < 2 {
            return Err(DetectError::NotEnoughData {
                what: "WindowSequenceDb",
                needed: 2,
                got: seqs.len(),
            });
        }
        let mut scores = Vec::with_capacity(seqs.len());
        for (i, seq) in seqs.iter().enumerate() {
            let others: Vec<&[u16]> = seqs
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, s)| *s)
                .collect();
            let mut db = WindowSequenceDb::new(self.window_len)?;
            db.train(&others)?;
            let ws = db.score_sequence_windows(seq)?;
            let score = if ws.is_empty() {
                0.0
            } else {
                ws.iter().sum::<f64>() / ws.len() as f64
            };
            scores.push(score);
        }
        Ok(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_scores_zero() {
        let normal: Vec<u16> = vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3];
        let mut db = WindowSequenceDb::new(4).unwrap();
        db.train(&[&normal]).unwrap();
        assert_eq!(db.window_score(&[0, 1, 2, 3]).unwrap(), 0.0);
    }

    #[test]
    fn soft_mismatch_is_graded() {
        let normal: Vec<u16> = vec![0, 1, 2, 3, 0, 1, 2, 3];
        let mut db = WindowSequenceDb::new(4).unwrap();
        db.train(&[&normal]).unwrap();
        let one_off = db.window_score(&[0, 1, 2, 9]).unwrap();
        let two_off = db.window_score(&[0, 1, 9, 9]).unwrap();
        let all_off = db.window_score(&[9, 9, 9, 9]).unwrap();
        assert!(one_off > 0.0);
        assert!(two_off > one_off);
        assert!(all_off > two_off);
        assert!((one_off - 0.25).abs() < 1e-9);
        assert!((all_off - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sequence_windows_scored_per_position() {
        let normal: Vec<u16> = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let mut db = WindowSequenceDb::new(2).unwrap();
        db.train(&[&normal]).unwrap();
        let test: Vec<u16> = vec![0, 1, 9, 1, 0];
        let scores = db.score_sequence_windows(&test).unwrap();
        assert_eq!(scores.len(), 4);
        // Windows touching the 9 score higher.
        assert!(scores[1] > scores[0]);
        assert!(scores[2] > scores[3]);
    }

    #[test]
    fn leave_one_out_discrete_scoring() {
        let normals: Vec<Vec<u16>> = (0..5).map(|_| vec![0_u16, 1, 2, 3, 0, 1, 2, 3]).collect();
        let anomaly: Vec<u16> = vec![9, 8, 7, 6, 9, 8, 7, 6];
        let mut all: Vec<&[u16]> = normals.iter().map(Vec::as_slice).collect();
        all.push(&anomaly);
        let scores = WindowSequenceDb::default().score_sequences(&all).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, all.len() - 1);
        assert!(scores[0] < 0.1);
    }

    #[test]
    fn validation() {
        assert!(WindowSequenceDb::new(0).is_err());
        let db = WindowSequenceDb::default();
        assert!(matches!(
            db.window_score(&[1, 2, 3, 4]),
            Err(DetectError::NotFitted)
        ));
        assert!(matches!(
            db.score_sequence_windows(&[1, 2, 3, 4]),
            Err(DetectError::NotFitted)
        ));
        let mut db = WindowSequenceDb::new(4).unwrap();
        let tiny: Vec<u16> = vec![1, 2];
        assert!(db.train(&[&tiny]).is_err());
        db.train(&[&[0, 1, 2, 3][..]]).unwrap();
        assert!(db.window_score(&[0, 1]).is_err());
        // Short test sequences yield empty scores, not errors.
        assert!(db.score_sequence_windows(&[0]).unwrap().is_empty());
    }

    #[test]
    fn info_matches_table1() {
        let i = WindowSequenceDb::default().info();
        assert_eq!(i.citation, "[17]");
        assert_eq!(i.class, TechniqueClass::NPD);
        assert_eq!(i.capabilities.count(), 1);
        assert!(i.capabilities.subsequences);
    }
}
