//! # hierod-eval
//!
//! Evaluation metrics for outlier detection. The paper's related-work
//! section stresses that production scenarios need "flexible and adaptive
//! outlier scores … which can be expressed by the degree of outlierness"
//! and that such scores "allow for a ranking of outliers, which cannot be
//! done using a binary outlier score". Accordingly this crate provides both
//! threshold-based (confusion-matrix) metrics and ranking metrics
//! (ROC-AUC, PR-AUC, precision@k) over continuous outlierness scores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod confusion;
pub mod range;
pub mod ranking;

pub use confusion::{ConfusionMatrix, PrfSummary};
pub use range::{point_adjust, point_adjusted_confusion, segment_recall};
pub use ranking::{average_precision, pr_auc, precision_at_k, roc_auc};

/// Rank-normalizes scores into `[0, 1]`: the highest score maps to 1, the
/// lowest to 0 (ties share their average rank). This is the score
/// calibration used when fusing detectors whose raw outlierness scales
/// differ (z-scores vs. log-likelihoods vs. distances).
pub fn rank_normalize(scores: &[f64]) -> Vec<f64> {
    let n = scores.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![1.0];
    }
    let mut order: Vec<(f64, usize)> = scores.iter().copied().zip(0..n).collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut ranks = vec![0.0_f64; n];
    let mut start = 0_usize;
    // Tie blocks share their average rank.
    for block in order.chunk_by(|a, b| a.0 == b.0) {
        let end = start + block.len() - 1;
        let avg = (start + end) as f64 / 2.0;
        for &(_, k) in block {
            if let Some(r) = ranks.get_mut(k) {
                *r = avg;
            }
        }
        start = end + 1;
    }
    let denom = (n - 1) as f64;
    ranks.iter().map(|r| r / denom).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_normalize_monotone() {
        let out = rank_normalize(&[10.0, 30.0, 20.0]);
        assert_eq!(out, vec![0.0, 1.0, 0.5]);
    }

    #[test]
    fn rank_normalize_ties_share_rank() {
        let out = rank_normalize(&[1.0, 1.0, 2.0]);
        assert_eq!(out[0], out[1]);
        assert!((out[0] - 0.25).abs() < 1e-12);
        assert_eq!(out[2], 1.0);
    }

    #[test]
    fn rank_normalize_degenerate_inputs() {
        assert!(rank_normalize(&[]).is_empty());
        assert_eq!(rank_normalize(&[42.0]), vec![1.0]);
        let constant = rank_normalize(&[5.0, 5.0, 5.0]);
        assert!(constant.iter().all(|&r| (r - 0.5).abs() < 1e-12));
    }
}
