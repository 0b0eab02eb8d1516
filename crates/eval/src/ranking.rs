//! Ranking metrics over continuous outlierness scores.
//!
//! ROC-AUC is computed by the Mann-Whitney U statistic (tie-aware), and
//! PR-AUC by the step-wise interpolation of the precision-recall curve.

/// Area under the ROC curve via the Mann-Whitney U statistic: the
/// probability that a random positive outranks a random negative (ties count
/// ½). Returns `None` when either class is empty or lengths mismatch.
pub fn roc_auc(scores: &[f64], actual: &[bool]) -> Option<f64> {
    if scores.len() != actual.len() || scores.is_empty() {
        return None;
    }
    let pos = actual.iter().filter(|&&a| a).count();
    let neg = actual.len() - pos;
    if pos == 0 || neg == 0 {
        return None;
    }
    // Rank all scores (average rank for ties), sum positive ranks.
    let mut order: Vec<(f64, bool)> = scores.iter().copied().zip(actual.iter().copied()).collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut rank_sum_pos = 0.0_f64;
    let mut start = 0_usize;
    for block in order.chunk_by(|a, b| a.0 == b.0) {
        let end = start + block.len() - 1;
        // 1-based average rank for the whole tie block.
        let avg_rank = (start + end) as f64 / 2.0 + 1.0;
        let block_pos = block.iter().filter(|&&(_, a)| a).count();
        rank_sum_pos += avg_rank * block_pos as f64;
        start = end + 1;
    }
    let u = rank_sum_pos - (pos * (pos + 1)) as f64 / 2.0;
    Some(u / (pos * neg) as f64)
}

/// Area under the precision-recall curve, as average precision: the mean
/// of the precision at the rank of each true positive, scanning by
/// descending score (tie blocks share the block-end precision). Returns
/// `None` when there are no positives or lengths mismatch.
pub fn pr_auc(scores: &[f64], actual: &[bool]) -> Option<f64> {
    if scores.len() != actual.len() || scores.is_empty() {
        return None;
    }
    let total_pos = actual.iter().filter(|&&a| a).count();
    if total_pos == 0 {
        return None;
    }
    let mut order: Vec<(f64, bool)> = scores.iter().copied().zip(actual.iter().copied()).collect();
    order.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut tp = 0_usize;
    let mut seen = 0_usize;
    let mut ap = 0.0_f64;
    for block in order.chunk_by(|a, b| a.0 == b.0) {
        let block_pos = block.iter().filter(|&&(_, a)| a).count();
        seen += block.len();
        tp += block_pos;
        if block_pos > 0 {
            let precision_here = tp as f64 / seen as f64;
            ap += precision_here * block_pos as f64;
        }
    }
    Some(ap / total_pos as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn perfect_ranking_auc_is_one() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let actual = [false, false, true, true];
        assert!((roc_auc(&scores, &actual).unwrap() - 1.0).abs() < EPS);
        assert!((pr_auc(&scores, &actual).unwrap() - 1.0).abs() < EPS);
    }

    #[test]
    fn inverted_ranking_auc_is_zero() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let actual = [false, false, true, true];
        assert!(roc_auc(&scores, &actual).unwrap().abs() < EPS);
    }

    #[test]
    fn random_ties_auc_is_half() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let actual = [true, false, true, false];
        assert!((roc_auc(&scores, &actual).unwrap() - 0.5).abs() < EPS);
    }

    #[test]
    fn auc_hand_checked_mixed_case() {
        // scores: pos {3, 1}, neg {2}. Pairs: (3>2)=1, (1<2)=0 -> AUC 0.5.
        let scores = [3.0, 1.0, 2.0];
        let actual = [true, true, false];
        assert!((roc_auc(&scores, &actual).unwrap() - 0.5).abs() < EPS);
    }

    #[test]
    fn auc_none_for_degenerate_classes() {
        assert!(roc_auc(&[1.0, 2.0], &[true, true]).is_none());
        assert!(roc_auc(&[1.0, 2.0], &[false, false]).is_none());
        assert!(roc_auc(&[], &[]).is_none());
        assert!(roc_auc(&[1.0], &[true, false]).is_none());
    }

    #[test]
    fn pr_auc_hand_checked() {
        // Descending: 0.9(+), 0.8(-), 0.7(+). AP = (1/1 + 2/3)/2 = 5/6.
        let scores = [0.7, 0.9, 0.8];
        let actual = [true, true, false];
        assert!((pr_auc(&scores, &actual).unwrap() - 5.0 / 6.0).abs() < EPS);
    }

    #[test]
    fn pr_auc_none_without_positives() {
        assert!(pr_auc(&[1.0], &[false]).is_none());
        assert!(pr_auc(&[], &[]).is_none());
    }

    #[test]
    fn tie_blocks_in_pr_auc() {
        // All tied: AP equals the base rate.
        let scores = [0.5, 0.5, 0.5, 0.5];
        let actual = [true, false, true, false];
        assert!((pr_auc(&scores, &actual).unwrap() - 0.5).abs() < EPS);
    }
}
