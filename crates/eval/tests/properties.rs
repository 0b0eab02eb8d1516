//! Property tests for metric identities.

use hierod_eval::confusion::{best_f1_threshold, ConfusionMatrix};
use hierod_eval::{pr_auc, roc_auc};
use proptest::prelude::*;

fn scored_labeled(n: std::ops::Range<usize>) -> impl Strategy<Value = (Vec<f64>, Vec<bool>)> {
    n.prop_flat_map(|len| {
        (
            prop::collection::vec(-100.0_f64..100.0, len),
            prop::collection::vec(any::<bool>(), len),
        )
    })
}

proptest! {
    #[test]
    fn roc_auc_in_unit_interval((scores, labels) in scored_labeled(2..64)) {
        if let Some(auc) = roc_auc(&scores, &labels) {
            prop_assert!((0.0..=1.0).contains(&auc));
        }
    }

    #[test]
    fn roc_auc_invariant_under_monotone_transform((scores, labels) in scored_labeled(2..64)) {
        let transformed: Vec<f64> = scores.iter().map(|s| (s * 0.01).exp() * 3.0 + 7.0).collect();
        prop_assert_eq!(
            roc_auc(&scores, &labels).map(|a| (a * 1e9).round()),
            roc_auc(&transformed, &labels).map(|a| (a * 1e9).round())
        );
    }

    #[test]
    fn roc_auc_of_inverted_scores_is_complement((scores, labels) in scored_labeled(2..64)) {
        // Only exact when there are no ties; enforce distinctness by rank.
        let mut distinct = scores.clone();
        let mut idx: Vec<usize> = (0..distinct.len()).collect();
        idx.sort_by(|&a, &b| distinct[a].total_cmp(&distinct[b]));
        for (rank, &i) in idx.iter().enumerate() {
            distinct[i] += rank as f64 * 1e-6;
        }
        let inverted: Vec<f64> = distinct.iter().map(|s| -s).collect();
        if let (Some(a), Some(b)) = (roc_auc(&distinct, &labels), roc_auc(&inverted, &labels)) {
            prop_assert!((a + b - 1.0).abs() < 1e-9, "{} + {} != 1", a, b);
        }
    }

    #[test]
    fn pr_auc_bounded_below_by_base_rate((scores, labels) in scored_labeled(2..64)) {
        // AP of any ranking is at least p/n... not true in general, but AP
        // is always within (0, 1].
        if let Some(ap) = pr_auc(&scores, &labels) {
            prop_assert!(ap > 0.0 && ap <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn perfect_ranking_has_auc_one(labels in prop::collection::vec(any::<bool>(), 2..64)) {
        let scores: Vec<f64> = labels.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
        let pos = labels.iter().filter(|&&l| l).count();
        if pos > 0 && pos < labels.len() {
            prop_assert_eq!(roc_auc(&scores, &labels), Some(1.0));
            prop_assert_eq!(pr_auc(&scores, &labels), Some(1.0));
        }
    }

    #[test]
    fn best_f1_is_at_least_all_positive_f1((scores, labels) in scored_labeled(2..64)) {
        if let Some((_, m)) = best_f1_threshold(&scores, &labels) {
            // Predicting everything positive is one of the swept
            // thresholds (the minimum score), so best F1 dominates it.
            let all_pos = ConfusionMatrix::from_labels(
                &vec![true; labels.len()],
                &labels,
            );
            prop_assert!(m.f1() + 1e-12 >= all_pos.f1());
        }
    }

    #[test]
    fn confusion_counts_partition_total((scores, labels) in scored_labeled(1..64), t in -100.0_f64..100.0) {
        let m = ConfusionMatrix::from_scores(&scores, &labels, t);
        prop_assert_eq!((m.tp + m.fp + m.tn + m.fn_) as usize, scores.len());
        prop_assert_eq!((m.tp + m.fn_) as usize, labels.iter().filter(|&&l| l).count());
    }
}
