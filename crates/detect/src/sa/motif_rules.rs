//! Motif-based rule classifier.
//!
//! Table-1 row **Rule Based Classifier** (Li et al., *ROAM: Rule- and
//! Motif-Based Anomaly Detection in Massive Moving Object Data Sets*, SDM
//! 2007 — citation [19]): sequences are expressed in a *motif* feature
//! space (frequent n-grams), and a rule-based classifier learns which motif
//! patterns distinguish anomalous from normal objects. We extract n-gram
//! motif frequencies from labeled symbol sequences and score by a
//! log-likelihood ratio of motif occurrence between the anomalous and
//! normal classes — the rule set is the per-motif weight table, which can
//! be inspected.

use std::collections::HashMap;

use crate::api::{Capabilities, DetectError, Detector, DetectorInfo, Result, TechniqueClass};

/// Motif log-likelihood-ratio classifier over symbol sequences.
#[derive(Debug, Clone)]
pub struct MotifRuleClassifier {
    /// Motif (n-gram) length.
    pub motif_len: usize,
    /// Laplace smoothing for the class-conditional motif probabilities.
    pub smoothing: f64,
    weights: Option<HashMap<Vec<u16>, f64>>,
}

impl Default for MotifRuleClassifier {
    fn default() -> Self {
        Self {
            motif_len: 3,
            smoothing: 1.0,
            weights: None,
        }
    }
}

impl MotifRuleClassifier {
    /// Creates with an explicit motif length.
    ///
    /// # Errors
    /// Rejects `motif_len == 0`.
    pub(crate) fn new(motif_len: usize) -> Result<Self> {
        if motif_len == 0 {
            return Err(DetectError::invalid("motif_len", "must be > 0"));
        }
        Ok(Self {
            motif_len,
            ..Self::default()
        })
    }

    /// Fits per-motif weights from labeled sequences.
    ///
    /// # Errors
    /// Rejects mismatched lengths or single-class labelings.
    pub fn fit_sequences(&mut self, seqs: &[&[u16]], labels: &[bool]) -> Result<()> {
        if seqs.len() != labels.len() {
            return Err(DetectError::ShapeMismatch {
                message: "seqs/labels length mismatch".into(),
            });
        }
        if seqs.is_empty() {
            return Err(DetectError::NotEnoughData {
                what: "MotifRuleClassifier",
                needed: 2,
                got: 0,
            });
        }
        if !labels.iter().any(|&l| l) || labels.iter().all(|&l| l) {
            return Err(DetectError::invalid(
                "labels",
                "need both anomalous and normal training sequences",
            ));
        }
        let mut pos_counts: HashMap<Vec<u16>, f64> = HashMap::new();
        let mut neg_counts: HashMap<Vec<u16>, f64> = HashMap::new();
        let mut pos_total = 0.0;
        let mut neg_total = 0.0;
        for (seq, &label) in seqs.iter().zip(labels) {
            if seq.len() < self.motif_len {
                continue;
            }
            for gram in seq.windows(self.motif_len) {
                if label {
                    *pos_counts.entry(gram.to_vec()).or_insert(0.0) += 1.0;
                    pos_total += 1.0;
                } else {
                    *neg_counts.entry(gram.to_vec()).or_insert(0.0) += 1.0;
                    neg_total += 1.0;
                }
            }
        }
        let vocab: std::collections::HashSet<Vec<u16>> = pos_counts
            .keys()
            .chain(neg_counts.keys())
            .cloned()
            .collect();
        let v = vocab.len().max(1) as f64;
        let s = self.smoothing;
        let weights = vocab
            .into_iter()
            .map(|motif| {
                let p_pos =
                    (pos_counts.get(&motif).copied().unwrap_or(0.0) + s) / (pos_total + s * v);
                let p_neg =
                    (neg_counts.get(&motif).copied().unwrap_or(0.0) + s) / (neg_total + s * v);
                (motif, (p_pos / p_neg).ln())
            })
            .collect();
        self.weights = Some(weights);
        Ok(())
    }

    /// Scores sequences: mean motif weight (positive ⇒ anomaly-typical
    /// motifs dominate). Unknown motifs contribute 0. The result is shifted
    /// to be non-negative via soft-plus.
    ///
    /// # Errors
    /// Returns [`DetectError::NotFitted`] before fitting.
    pub fn predict_sequences(&self, seqs: &[&[u16]]) -> Result<Vec<f64>> {
        let weights = self.weights.as_ref().ok_or(DetectError::NotFitted)?;
        Ok(seqs
            .iter()
            .map(|seq| {
                if seq.len() < self.motif_len {
                    return 0.0;
                }
                let grams = seq.len() - self.motif_len + 1;
                let total: f64 = seq
                    .windows(self.motif_len)
                    .map(|g| weights.get(g).copied().unwrap_or(0.0))
                    .sum();
                let mean = total / grams as f64;
                // Soft-plus keeps scores non-negative while monotone.
                (1.0 + mean.exp()).ln()
            })
            .collect())
    }
}

impl Detector for MotifRuleClassifier {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Rule Based Classifier",
            citation: "[19]",
            class: TechniqueClass::SA,
            capabilities: Capabilities::new(false, false, true),
            supervised: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labeled_sequences() -> (Vec<Vec<u16>>, Vec<bool>) {
        let mut seqs = Vec::new();
        let mut labels = Vec::new();
        // Normal motif: ascending triples; anomalous motif: 7,7,7 bursts.
        for k in 0..8 {
            seqs.push((0..15).map(|i| ((i + k) % 5) as u16).collect());
            labels.push(false);
        }
        for _ in 0..4 {
            let mut s: Vec<u16> = (0..15).map(|i| (i % 5) as u16).collect();
            for x in s.iter_mut().skip(5).take(6) {
                *x = 7;
            }
            seqs.push(s);
            labels.push(true);
        }
        (seqs, labels)
    }

    #[test]
    fn anomalous_motifs_score_higher() {
        let (seqs, labels) = labeled_sequences();
        let refs: Vec<&[u16]> = seqs.iter().map(Vec::as_slice).collect();
        let mut clf = MotifRuleClassifier::default();
        clf.fit_sequences(&refs, &labels).unwrap();
        let scores = clf.predict_sequences(&refs).unwrap();
        let pos_min = scores
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| l)
            .map(|(&s, _)| s)
            .fold(f64::MAX, f64::min);
        let neg_max = scores
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| !l)
            .map(|(&s, _)| s)
            .fold(0.0_f64, f64::max);
        assert!(pos_min > neg_max, "pos min {pos_min} vs neg max {neg_max}");
    }

    #[test]
    fn unseen_sequence_with_anomalous_motif_flagged() {
        let (seqs, labels) = labeled_sequences();
        let refs: Vec<&[u16]> = seqs.iter().map(Vec::as_slice).collect();
        let mut clf = MotifRuleClassifier::default();
        clf.fit_sequences(&refs, &labels).unwrap();
        let novel_anom: Vec<u16> = vec![0, 1, 7, 7, 7, 7, 2, 3];
        let novel_norm: Vec<u16> = vec![0, 1, 2, 3, 4, 0, 1, 2];
        let scores = clf.predict_sequences(&[&novel_anom, &novel_norm]).unwrap();
        assert!(scores[0] > scores[1]);
    }

    #[test]
    fn short_sequences_score_zero() {
        let (seqs, labels) = labeled_sequences();
        let refs: Vec<&[u16]> = seqs.iter().map(Vec::as_slice).collect();
        let mut clf = MotifRuleClassifier::new(3).unwrap();
        clf.fit_sequences(&refs, &labels).unwrap();
        let tiny: Vec<u16> = vec![1, 2];
        assert_eq!(clf.predict_sequences(&[&tiny]).unwrap(), vec![0.0]);
    }

    #[test]
    fn validation() {
        assert!(MotifRuleClassifier::new(0).is_err());
        let mut clf = MotifRuleClassifier::default();
        assert!(matches!(
            clf.predict_sequences(&[]),
            Err(DetectError::NotFitted)
        ));
        assert!(clf.fit_sequences(&[], &[]).is_err());
        let a: Vec<u16> = vec![1, 2, 3];
        assert!(clf.fit_sequences(&[&a], &[true, false]).is_err());
        // Single-class rejection.
        assert!(clf.fit_sequences(&[&a, &a], &[false, false]).is_err());
        assert!(clf.fit_sequences(&[&a, &a], &[true, true]).is_err());
    }

    #[test]
    fn info_matches_table1() {
        let i = MotifRuleClassifier::default().info();
        assert_eq!(i.citation, "[19]");
        assert!(i.supervised);
        assert_eq!(i.capabilities.count(), 1);
        assert!(i.capabilities.series);
    }
}
