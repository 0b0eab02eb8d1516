//! Profile similarity (PS).
//!
//! The paper's Section 3 names this class in prose (it is not a Table-1
//! row): "Another way to detect outliers is to compare a normal profile
//! with new time points. This procedure is denoted as profile similarity
//! (PS)." A *profile* here is a per-position mean/σ template learned from
//! reference executions of the same process phase — exactly the shape of
//! phase-level production data, where every warm-up follows the same ramp.
//! New executions are scored per point by their standardized deviation
//! from the profile.

use crate::api::{Capabilities, TechniqueClass};
use crate::api::{DetectError, Detector, DetectorInfo, Result};
use crate::stat::midpoint_median;

/// A fitted per-position profile.
#[derive(Debug, Clone)]
pub struct ProfileSimilarity {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl ProfileSimilarity {
    /// Learns the profile from reference executions (all must share one
    /// length).
    ///
    /// # Errors
    /// Rejects an empty reference set, empty series, or mismatched lengths.
    pub fn fit(references: &[&[f64]]) -> Result<Self> {
        let first = references.first().ok_or(DetectError::NotEnoughData {
            what: "ProfileSimilarity",
            needed: 1,
            got: 0,
        })?;
        let len = first.len();
        if len == 0 {
            return Err(DetectError::ShapeMismatch {
                message: "ProfileSimilarity: empty reference series".into(),
            });
        }
        if references.iter().any(|r| r.len() != len) {
            return Err(DetectError::ShapeMismatch {
                message: "ProfileSimilarity: reference lengths differ".into(),
            });
        }
        // Robust profile: per-position median and MAD. An anomalous
        // reference execution would inflate a mean/σ profile exactly at its
        // event positions, masking the very anomaly a later scoring pass
        // should find; the median/MAD template is immune to a minority of
        // contaminated references.
        let mut mean = vec![0.0_f64; len];
        let mut std = vec![0.0_f64; len];
        let mut col = Vec::with_capacity(references.len());
        for (pos, (m, s)) in mean.iter_mut().zip(std.iter_mut()).enumerate() {
            col.clear();
            // Every reference is `len` long (checked above).
            col.extend(
                references
                    .iter()
                    .map(|r| r.get(pos).map_or(f64::NAN, |x| *x)),
            );
            let med = midpoint_median(&mut col);
            col.iter_mut().for_each(|x| *x = (*x - med).abs());
            *m = med;
            *s = 1.4826 * midpoint_median(&mut col);
        }
        // Floor each position's spread at half the profile's global level:
        // a per-position MAD estimated from a handful of references is
        // noisy, and an under-estimated position would turn ordinary noise
        // into false positives (and a coincidentally-equal position into
        // infinities).
        let global = (std.iter().map(|s| s * s).sum::<f64>() / len as f64)
            .sqrt()
            .max(1e-9);
        for s in std.iter_mut() {
            *s = s.max(global * 0.5);
        }
        Ok(Self { mean, std })
    }

    /// Profile length.
    pub fn len(&self) -> usize {
        self.mean.len()
    }

    /// `true` when the profile is empty (cannot happen after `fit`).
    pub fn is_empty(&self) -> bool {
        self.mean.is_empty()
    }

    /// Scores one new execution per point: `|x_t − profile_mean_t| /
    /// profile_std_t`.
    ///
    /// # Errors
    /// Rejects executions whose length differs from the profile's.
    pub fn score_points(&self, execution: &[f64]) -> Result<Vec<f64>> {
        if execution.len() != self.mean.len() {
            return Err(DetectError::ShapeMismatch {
                message: format!(
                    "execution length {} != profile length {}",
                    execution.len(),
                    self.mean.len()
                ),
            });
        }
        Ok(execution
            .iter()
            .zip(&self.mean)
            .zip(&self.std)
            .map(|((x, m), s)| ((x - m) / s).abs())
            .collect())
    }

    /// Whole-execution similarity score: the mean per-point deviation
    /// (larger = less similar to the profile).
    ///
    /// # Errors
    /// Rejects mismatched lengths.
    pub fn score_execution(&self, execution: &[f64]) -> Result<f64> {
        let scores = self.score_points(execution)?;
        Ok(scores.iter().sum::<f64>() / scores.len() as f64)
    }
}

impl Detector for ProfileSimilarity {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Profile Similarity",
            citation: "§3 (PS)",
            class: TechniqueClass::Baseline,
            capabilities: Capabilities::new(true, false, true),
            supervised: false,
        }
    }
}

/// Cross-machine profile similarity: a per-position median/MAD template
/// learned across a fleet's summary series (truncated to the shortest);
/// each machine is scored by its mean deviation from the fleet profile.
/// This is the §3 profile-similarity idea applied across machines rather
/// than across jobs, and it is what surfaces slow per-machine concept
/// drift (experiment E8). Collections of fewer than two series (no fleet
/// to compare against) score zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossMachineProfile;

impl Detector for CrossMachineProfile {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Cross-Machine Profile",
            citation: "§3 (PS)",
            class: TechniqueClass::Baseline,
            capabilities: Capabilities::new(false, false, true),
            supervised: false,
        }
    }
}

impl crate::api::SeriesScorer for CrossMachineProfile {
    fn score_series(&self, collection: &[&[f64]]) -> Result<Vec<f64>> {
        let min_len = collection.iter().map(|s| s.len()).min().unwrap_or(0);
        if min_len == 0 || collection.len() < 2 {
            return Ok(vec![0.0; collection.len()]);
        }
        let truncated: Vec<&[f64]> = collection
            .iter()
            .map(|s| s.get(..min_len).unwrap_or_default())
            .collect();
        let profile = ProfileSimilarity::fit(&truncated)?;
        truncated
            .iter()
            .map(|s| profile.score_execution(s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(noise_seed: u64) -> Vec<f64> {
        let mut state = noise_seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..50)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let noise = (state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5;
                i as f64 * 2.0 + noise
            })
            .collect()
    }

    #[test]
    fn profile_matches_clean_execution() {
        let refs: Vec<Vec<f64>> = (1..=8).map(ramp).collect();
        let slices: Vec<&[f64]> = refs.iter().map(Vec::as_slice).collect();
        let profile = ProfileSimilarity::fit(&slices).unwrap();
        assert_eq!(profile.len(), 50);
        let clean = ramp(99);
        let score = profile.score_execution(&clean).unwrap();
        assert!(score < 3.0, "clean execution score {score}");
    }

    #[test]
    fn deviating_execution_scores_high_at_the_deviation() {
        let refs: Vec<Vec<f64>> = (1..=8).map(ramp).collect();
        let slices: Vec<&[f64]> = refs.iter().map(Vec::as_slice).collect();
        let profile = ProfileSimilarity::fit(&slices).unwrap();
        let mut bad = ramp(99);
        bad[25] += 30.0;
        let scores = profile.score_points(&bad).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 25);
        assert!(
            profile.score_execution(&bad).unwrap() > profile.score_execution(&ramp(98)).unwrap()
        );
    }

    #[test]
    fn profile_tracks_shape_not_constant_level() {
        // Unlike a global z-score, the profile knows each position's
        // expected value: an on-profile ramp point with a large absolute
        // value is NOT anomalous.
        let refs: Vec<Vec<f64>> = (1..=8).map(ramp).collect();
        let slices: Vec<&[f64]> = refs.iter().map(Vec::as_slice).collect();
        let profile = ProfileSimilarity::fit(&slices).unwrap();
        let clean = ramp(42);
        let scores = profile.score_points(&clean).unwrap();
        // The last point (value ~98, far from the series mean) is on
        // profile and must not dominate.
        assert!(scores[49] < 4.0, "{}", scores[49]);
    }

    #[test]
    fn validation() {
        assert!(ProfileSimilarity::fit(&[]).is_err());
        let empty: &[f64] = &[];
        assert!(ProfileSimilarity::fit(&[empty]).is_err());
        let a = [1.0, 2.0];
        let b = [1.0, 2.0, 3.0];
        assert!(ProfileSimilarity::fit(&[&a, &b]).is_err());
        let profile = ProfileSimilarity::fit(&[&a]).unwrap();
        assert!(profile.score_points(&b).is_err());
        assert!(!profile.is_empty());
    }

    #[test]
    fn cross_machine_profile_ranks_the_divergent_series() {
        use crate::api::SeriesScorer;
        let fleet: Vec<Vec<f64>> = (1..=5).map(ramp).collect();
        let mut drifting = ramp(6);
        for v in drifting.iter_mut() {
            *v += 15.0;
        }
        let mut refs: Vec<&[f64]> = fleet.iter().map(Vec::as_slice).collect();
        refs.push(&drifting);
        let scores = CrossMachineProfile.score_series(&refs).unwrap();
        assert_eq!(scores.len(), 6);
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 5, "the offset machine must rank first: {scores:?}");
        // Degenerate collections score zero instead of erroring.
        assert_eq!(
            CrossMachineProfile.score_series(&refs[..1]).unwrap(),
            vec![0.0]
        );
        assert_eq!(
            CrossMachineProfile.score_series(&[]).unwrap(),
            Vec::<f64>::new()
        );
    }

    #[test]
    fn zero_variance_positions_are_floored() {
        let a = [5.0, 5.0, 5.0];
        let profile = ProfileSimilarity::fit(&[&a, &a]).unwrap();
        let scores = profile.score_points(&[5.0, 9.0, 5.0]).unwrap();
        assert!(scores[1].is_finite());
        assert!(scores[1] > scores[0]);
    }
}
