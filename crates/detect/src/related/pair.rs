//! Pairwise redundant-sensor residual models.
//!
//! The paper proposes discriminating measurement errors from process
//! anomalies by *comparing corresponding sensors*: if two sensors observe
//! the same physical quantity, a process anomaly moves both while a
//! measurement error moves only one. These scorers make that comparison a
//! first-class registry citizen. Each row pairs one sample from a primary
//! sensor (first coordinate) with the simultaneous sample from a declared
//! redundant sibling (last coordinate); the score is the magnitude of the
//! pairwise disagreement, so a large score means *the sibling did not move
//! with the primary* — evidence for a measurement error, consumed by the
//! fusion layer when it recomputes Algorithm 1's support term.

use crate::api::{
    check_rows, finite_scores, Capabilities, DetectError, Detector, DetectorInfo, Result,
    TechniqueClass, VectorScorer,
};
use crate::stat::midpoint_median;

/// Ordinary-least-squares regression of the sibling column on the primary
/// column; each row's score is its absolute regression residual
/// `|b_i − (α + β·a_i)|`. Gauges of different calibration (offset/gain)
/// observing the same quantity sit on one line, so residuals isolate the
/// samples where the pair genuinely disagrees. Degenerate primaries
/// (zero variance) fall back to the mean-difference model (β = 0).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PairRegression {
    signed: bool,
}

/// Robust difference model: scores each row by the absolute deviation of
/// its pairwise difference `b_i − a_i` from the median difference, scaled
/// by the MAD. Heavier-tailed than `PairRegression` (no least-squares
/// fit for an outlying pair to drag), cheaper, but blind to gain
/// mismatches between the gauges.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairDifference {
    signed: bool,
}

impl PairRegression {
    /// `signed = true` keeps the residual's sign (registry param
    /// `signed=1`): consumers probing the residual's *dynamics* — like
    /// the fusion layer's jump test — need the sign, because folding
    /// cancels an event that pushes the pair across its fitted line.
    pub(crate) fn new(signed: bool) -> Self {
        Self { signed }
    }
}

impl PairDifference {
    /// `signed = true` keeps the standardized difference's sign
    /// (registry param `signed=1`); see `PairRegression::new`.
    pub fn new(signed: bool) -> Self {
        Self { signed }
    }
}

/// Splits each fixed-width row into its (primary, sibling) pair: the first
/// and last coordinates. Width-2 rows are the native layout; wider rows
/// (e.g. from the embedding bridge) still carry a meaningful pair in their
/// extreme coordinates.
fn pairs(rows: &[&[f64]]) -> Result<Vec<(f64, f64)>> {
    let width = check_rows("pair rows", rows)?;
    if width < 2 {
        return Err(DetectError::ShapeMismatch {
            message: "pair scorers need rows of width >= 2 (primary, sibling)".to_string(),
        });
    }
    Ok(rows
        .iter()
        .map(|r| {
            let a = r.first().copied().unwrap_or(0.0);
            let b = r.last().copied().unwrap_or(0.0);
            (a, b)
        })
        .collect())
}

impl Detector for PairRegression {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Pairwise Regression Residual",
            citation: "§6",
            class: TechniqueClass::Baseline,
            capabilities: Capabilities::ALL,
            supervised: false,
        }
    }
}

impl VectorScorer for PairRegression {
    fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>> {
        let ab = pairs(rows)?;
        let n = ab.len() as f64;
        let mean_a = ab.iter().map(|(a, _)| a).sum::<f64>() / n;
        let mean_b = ab.iter().map(|(_, b)| b).sum::<f64>() / n;
        let var_a = ab
            .iter()
            .map(|(a, _)| (a - mean_a) * (a - mean_a))
            .sum::<f64>();
        let cov = ab
            .iter()
            .map(|(a, b)| (a - mean_a) * (b - mean_b))
            .sum::<f64>();
        let beta = if var_a > f64::EPSILON {
            cov / var_a
        } else {
            0.0
        };
        let alpha = mean_b - beta * mean_a;
        let residuals = ab
            .iter()
            .map(|(a, b)| {
                let r = b - (alpha + beta * a);
                if self.signed {
                    r
                } else {
                    r.abs()
                }
            })
            .collect();
        finite_scores("PairRegression", residuals)
    }
}

impl Detector for PairDifference {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Pairwise Robust Difference",
            citation: "§6",
            class: TechniqueClass::Baseline,
            capabilities: Capabilities::ALL,
            supervised: false,
        }
    }
}

impl VectorScorer for PairDifference {
    fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>> {
        let ab = pairs(rows)?;
        let diffs: Vec<f64> = ab.iter().map(|(a, b)| b - a).collect();
        let mut scratch = diffs.clone();
        let med = midpoint_median(&mut scratch);
        scratch.iter_mut().for_each(|d| *d = (*d - med).abs());
        let mad = midpoint_median(&mut scratch);
        // 1.4826 · MAD estimates σ for Gaussian deviations; the floor keeps
        // the degenerate all-equal case finite (its deviations are 0, so
        // scores collapse to 0 rather than 0/0).
        let scale = (1.4826 * mad).max(f64::EPSILON);
        Ok(diffs
            .iter()
            .map(|d| {
                let z = (d - med) / scale;
                if self.signed {
                    z
                } else {
                    z.abs()
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(pairs: &[(f64, f64)]) -> Vec<Vec<f64>> {
        pairs.iter().map(|&(a, b)| vec![a, b]).collect()
    }

    fn refs(owned: &[Vec<f64>]) -> Vec<&[f64]> {
        owned.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn regression_flags_the_disagreeing_pair() {
        // b = 2a + 1 exactly except at index 3, where b breaks away.
        let data: Vec<(f64, f64)> = (0..8)
            .map(|i| {
                let a = i as f64;
                let b = if i == 3 { 30.0 } else { 2.0 * a + 1.0 };
                (a, b)
            })
            .collect();
        let owned = rows(&data);
        let scores = PairRegression::default()
            .score_rows(&refs(&owned))
            .expect("scores");
        let top = scores
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.total_cmp(y.1))
            .expect("non-empty");
        assert_eq!(top.0, 3);
        assert!(*top.1 > 5.0, "{scores:?}");
    }

    #[test]
    fn regression_is_offset_and_gain_invariant() {
        // Perfectly correlated pair with offset+gain: all residuals 0.
        let data: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 - 7.0)).collect();
        let owned = rows(&data);
        let scores = PairRegression::default()
            .score_rows(&refs(&owned))
            .expect("scores");
        assert!(scores.iter().all(|s| s.abs() < 1e-9), "{scores:?}");
    }

    #[test]
    fn difference_flags_the_disagreeing_pair() {
        let data: Vec<(f64, f64)> = (0..9)
            .map(|i| {
                let a = (i % 4) as f64;
                let b = if i == 5 { a + 12.0 } else { a + 0.5 };
                (a, b)
            })
            .collect();
        let owned = rows(&data);
        let scores = PairDifference::default()
            .score_rows(&refs(&owned))
            .expect("scores");
        let top = scores
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.total_cmp(y.1))
            .expect("non-empty");
        assert_eq!(top.0, 5);
    }

    #[test]
    fn identical_channels_score_zero() {
        let data: Vec<(f64, f64)> = (0..6).map(|i| (i as f64, i as f64)).collect();
        let owned = rows(&data);
        assert!(PairRegression::default()
            .score_rows(&refs(&owned))
            .expect("reg")
            .iter()
            .all(|s| s.abs() < 1e-12));
        assert!(PairDifference::default()
            .score_rows(&refs(&owned))
            .expect("diff")
            .iter()
            .all(|s| *s == 0.0));
    }

    #[test]
    fn signed_variant_keeps_direction_and_matches_magnitude() {
        let data: Vec<(f64, f64)> = (0..9)
            .map(|i| {
                let a = (i % 4) as f64;
                let b = if i == 5 { a - 12.0 } else { a + 0.5 };
                (a, b)
            })
            .collect();
        let owned = rows(&data);
        let folded = PairDifference::default()
            .score_rows(&refs(&owned))
            .expect("abs");
        let signed = PairDifference::new(true)
            .score_rows(&refs(&owned))
            .expect("signed");
        for (f, s) in folded.iter().zip(&signed) {
            assert!((f - s.abs()).abs() < 1e-12, "|signed| must equal folded");
        }
        assert!(signed[5] < 0.0, "downward break keeps its sign: {signed:?}");
    }

    #[test]
    fn wide_rows_use_first_and_last_coordinates() {
        let owned = vec![
            vec![1.0, 99.0, 1.0],
            vec![2.0, -4.0, 2.0],
            vec![3.0, 0.0, 9.0],
        ];
        let scores = PairRegression::default()
            .score_rows(&refs(&owned))
            .expect("scores");
        assert_eq!(scores.len(), 3);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        let empty: Vec<&[f64]> = Vec::new();
        assert!(PairRegression::default().score_rows(&empty).is_err());
        let narrow = [vec![1.0], vec![2.0]];
        assert!(PairDifference::default()
            .score_rows(&refs(&narrow))
            .is_err());
    }

    #[test]
    fn constant_primary_falls_back_to_mean_difference() {
        let data: Vec<(f64, f64)> = vec![(5.0, 1.0), (5.0, 1.0), (5.0, 4.0), (5.0, 1.0)];
        let owned = rows(&data);
        let scores = PairRegression::default()
            .score_rows(&refs(&owned))
            .expect("scores");
        let top = scores
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.total_cmp(y.1))
            .expect("non-empty");
        assert_eq!(top.0, 2);
    }
}
