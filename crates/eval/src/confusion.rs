//! Binary confusion matrix and derived threshold metrics.

use std::fmt;

/// A binary confusion matrix for outlier detection (positive = outlier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// True positives.
    pub tp: u64,
    /// False positives.
    pub fp: u64,
    /// True negatives.
    pub tn: u64,
    /// False negatives.
    pub fn_: u64,
}

impl ConfusionMatrix {
    /// Builds a matrix from parallel prediction/truth slices.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn from_labels(predicted: &[bool], actual: &[bool]) -> Self {
        assert_eq!(
            predicted.len(),
            actual.len(),
            "prediction/truth length mismatch"
        );
        let mut m = Self::default();
        for (&p, &a) in predicted.iter().zip(actual) {
            m.record(p, a);
        }
        m
    }

    /// Builds a matrix by thresholding scores (`score >= threshold` ⇒
    /// predicted outlier).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn from_scores(scores: &[f64], actual: &[bool], threshold: f64) -> Self {
        assert_eq!(scores.len(), actual.len(), "score/truth length mismatch");
        let mut m = Self::default();
        for (&s, &a) in scores.iter().zip(actual) {
            m.record(s >= threshold, a);
        }
        m
    }

    /// Records one observation.
    pub(crate) fn record(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fn_ += 1,
        }
    }

    /// Precision `tp / (tp + fp)`; 0 when no positive predictions.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall `tp / (tp + fn)`; 0 when no actual positives.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 score (harmonic mean of precision and recall); 0 when undefined.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tp={} fp={} tn={} fn={} | P={:.3} R={:.3} F1={:.3}",
            self.tp,
            self.fp,
            self.tn,
            self.fn_,
            self.precision(),
            self.recall(),
            self.f1()
        )
    }
}

/// Sweeps thresholds over the distinct score values and returns the
/// threshold maximizing F1 together with the achieved matrix. Returns `None`
/// for empty input. O(n log n): one sort, one cumulative sweep.
pub fn best_f1_threshold(scores: &[f64], actual: &[bool]) -> Option<(f64, ConfusionMatrix)> {
    if scores.is_empty() || scores.len() != actual.len() {
        return None;
    }
    let total_pos = actual.iter().filter(|&&a| a).count() as u64;
    let total = scores.len() as u64;
    let mut order: Vec<(f64, bool)> = scores.iter().copied().zip(actual.iter().copied()).collect();
    order.sort_by(|a, b| b.0.total_cmp(&a.0));
    // Sweep descending: predicting positive for everything scored >= t.
    let mut tp = 0_u64;
    let mut fp = 0_u64;
    let mut best: Option<(f64, ConfusionMatrix)> = None;
    // Consume whole tie blocks: one candidate threshold per distinct score.
    for block in order.chunk_by(|a, b| a.0 == b.0) {
        let Some(&(t, _)) = block.first() else {
            continue;
        };
        let block_pos = block.iter().filter(|&&(_, a)| a).count() as u64;
        tp += block_pos;
        fp += block.len() as u64 - block_pos;
        let m = ConfusionMatrix {
            tp,
            fp,
            fn_: total_pos - tp,
            tn: total - total_pos - fp,
        };
        let better = match &best {
            None => true,
            Some((_, bm)) => m.f1() > bm.f1(),
        };
        if better {
            best = Some((t, m));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn from_labels_hand_checked() {
        let pred = [true, true, false, false, true];
        let act = [true, false, false, true, true];
        let m = ConfusionMatrix::from_labels(&pred, &act);
        assert_eq!((m.tp, m.fp, m.tn, m.fn_), (2, 1, 1, 1));
        assert!((m.precision() - 2.0 / 3.0).abs() < EPS);
        assert!((m.recall() - 2.0 / 3.0).abs() < EPS);
        assert!((m.f1() - 2.0 / 3.0).abs() < EPS);
    }

    #[test]
    fn degenerate_matrices_return_zero_not_nan() {
        let m = ConfusionMatrix::default();
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.recall(), 0.0);
        assert_eq!(m.f1(), 0.0);
    }

    #[test]
    fn from_scores_thresholds_inclusive() {
        let m = ConfusionMatrix::from_scores(&[0.1, 0.5, 0.9], &[false, true, true], 0.5);
        assert_eq!((m.tp, m.fp, m.tn, m.fn_), (2, 0, 1, 0));
        assert_eq!(m.f1(), 1.0);
    }

    #[test]
    fn best_f1_threshold_finds_separator() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let actual = [false, false, true, true];
        let (t, m) = best_f1_threshold(&scores, &actual).unwrap();
        assert!(t > 0.2 && t <= 0.8);
        assert_eq!(m.f1(), 1.0);
        assert!(best_f1_threshold(&[], &[]).is_none());
        assert!(best_f1_threshold(&[0.5], &[true, false]).is_none());
    }

    #[test]
    fn display_is_readable() {
        let m = ConfusionMatrix::from_labels(&[true], &[true]);
        let s = m.to_string();
        assert!(s.contains("tp=1"));
        assert!(s.contains("F1=1.000"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_labels_panics_on_mismatch() {
        ConfusionMatrix::from_labels(&[true], &[true, false]);
    }
}
