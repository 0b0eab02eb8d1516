//! Range-aware (point-adjust) evaluation.
//!
//! Window-granularity anomalies (the paper's temporary changes, innovative
//! decays) span many samples, but an operator only needs the detector to
//! fire *somewhere inside* the event to act on it. The point-adjust
//! protocol (Xu et al.'s convention, standard in time-series anomaly
//! benchmarks) therefore marks a whole ground-truth segment as detected if
//! any of its points exceeds the threshold, then computes the confusion
//! matrix on the adjusted predictions.

use crate::confusion::ConfusionMatrix;

/// A maximal run of consecutive `true` labels: `[start, end)`.
pub(crate) fn true_segments(labels: &[bool]) -> Vec<(usize, usize)> {
    let mut segments = Vec::new();
    let mut start = None;
    for (i, &l) in labels.iter().enumerate() {
        match (l, start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                segments.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        segments.push((s, labels.len()));
    }
    segments
}

/// Point-adjusts predictions: for every ground-truth segment containing at
/// least one positive prediction, all of the segment's points become
/// positive predictions. Points outside segments are untouched.
///
/// # Panics
/// Panics if the slices differ in length.
pub(crate) fn point_adjust(predicted: &[bool], actual: &[bool]) -> Vec<bool> {
    assert_eq!(
        predicted.len(),
        actual.len(),
        "prediction/truth length mismatch"
    );
    let mut adjusted = predicted.to_vec();
    for (start, end) in true_segments(actual) {
        let hit = predicted
            .get(start..end)
            .is_some_and(|seg| seg.iter().any(|&p| p));
        if hit {
            for a in adjusted.get_mut(start..end).into_iter().flatten() {
                *a = true;
            }
        }
    }
    adjusted
}

/// Confusion matrix under the point-adjust protocol, thresholding `scores`
/// at `threshold`.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn point_adjusted_confusion(
    scores: &[f64],
    actual: &[bool],
    threshold: f64,
) -> ConfusionMatrix {
    let predicted: Vec<bool> = scores.iter().map(|&s| s >= threshold).collect();
    let adjusted = point_adjust(&predicted, actual);
    ConfusionMatrix::from_labels(&adjusted, actual)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_are_maximal_runs() {
        let labels = [false, true, true, false, true, false, true];
        assert_eq!(true_segments(&labels), vec![(1, 3), (4, 5), (6, 7)]);
        assert_eq!(true_segments(&[true, true]), vec![(0, 2)]);
        assert!(true_segments(&[false, false]).is_empty());
        assert!(true_segments(&[]).is_empty());
    }

    #[test]
    fn one_hit_credits_the_whole_segment() {
        let actual = [false, true, true, true, false];
        let predicted = [false, false, true, false, false];
        let adjusted = point_adjust(&predicted, &actual);
        assert_eq!(adjusted, vec![false, true, true, true, false]);
    }

    #[test]
    fn missed_segments_stay_missed() {
        let actual = [true, true, false, true, true];
        let predicted = [true, false, false, false, false];
        let adjusted = point_adjust(&predicted, &actual);
        assert_eq!(adjusted, vec![true, true, false, false, false]);
    }

    #[test]
    fn false_positives_are_not_adjusted_away() {
        let actual = [false, false, true];
        let predicted = [true, false, true];
        let adjusted = point_adjust(&predicted, &actual);
        assert_eq!(adjusted, vec![true, false, true]);
        let m = ConfusionMatrix::from_labels(&adjusted, &actual);
        assert_eq!(m.fp, 1);
    }

    #[test]
    fn adjusted_confusion_improves_recall_only() {
        let actual = [false, true, true, true, true, false];
        let scores = [0.1, 0.0, 0.9, 0.0, 0.0, 0.2];
        let plain = ConfusionMatrix::from_scores(&scores, &actual, 0.5);
        let adjusted = point_adjusted_confusion(&scores, &actual, 0.5);
        assert!(adjusted.recall() > plain.recall());
        assert_eq!(adjusted.recall(), 1.0);
        assert_eq!(adjusted.fp, plain.fp);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn point_adjust_panics_on_mismatch() {
        point_adjust(&[true], &[true, false]);
    }
}
