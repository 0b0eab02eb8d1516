//! Z-score family of baselines.

use hierod_timeseries::stats;

use crate::api::{
    check_finite, Capabilities, DetectError, Detector, DetectorInfo, PointScorer, Result,
    TechniqueClass,
};

fn baseline_info(name: &'static str) -> DetectorInfo {
    DetectorInfo {
        name,
        citation: "—",
        class: TechniqueClass::Baseline,
        capabilities: Capabilities::new(true, false, false),
        supervised: false,
    }
}

/// Global z-score: `|x - mean| / std` over the whole series.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalZScore;

impl Detector for GlobalZScore {
    fn info(&self) -> DetectorInfo {
        baseline_info("Global Z-Score")
    }
}

impl PointScorer for GlobalZScore {
    fn score_points(&self, values: &[f64]) -> Result<Vec<f64>> {
        check_finite("GlobalZScore", values)?;
        Ok(stats::z_scores(values)?.into_iter().map(f64::abs).collect())
    }
}

/// Robust z-score: `|x - median| / MAD`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RobustZScore;

impl Detector for RobustZScore {
    fn info(&self) -> DetectorInfo {
        baseline_info("Robust Z-Score (MAD)")
    }
}

impl PointScorer for RobustZScore {
    fn score_points(&self, values: &[f64]) -> Result<Vec<f64>> {
        check_finite("RobustZScore", values)?;
        Ok(stats::robust_z_scores(values)?
            .into_iter()
            .map(f64::abs)
            .collect())
    }
}

/// IQR fence score: distance beyond the Tukey fences `[Q1 - 1.5·IQR,
/// Q3 + 1.5·IQR]`, normalized by the IQR (0 inside the fences).
#[derive(Debug, Clone, Copy, Default)]
pub struct IqrFence;

impl Detector for IqrFence {
    fn info(&self) -> DetectorInfo {
        baseline_info("IQR Fence")
    }
}

impl PointScorer for IqrFence {
    fn score_points(&self, values: &[f64]) -> Result<Vec<f64>> {
        check_finite("IqrFence", values)?;
        let mut scratch = values.to_vec();
        let q1 = stats::quantile_in(&mut scratch, 0.25)?;
        let q3 = stats::quantile_in(&mut scratch, 0.75)?;
        let iqr = (q3 - q1).max(1e-12);
        let lo = q1 - 1.5 * iqr;
        let hi = q3 + 1.5 * iqr;
        Ok(values
            .iter()
            .map(|&x| {
                if x < lo {
                    (lo - x) / iqr
                } else if x > hi {
                    (x - hi) / iqr
                } else {
                    0.0
                }
            })
            .collect())
    }
}

/// Sliding-window z-score: each point scored against the trailing window of
/// `window` samples (the first `window` points use the available prefix).
/// This is the streaming form used for phase-level condition monitoring.
#[derive(Debug, Clone, Copy)]
pub struct SlidingZScore {
    /// Trailing context length.
    pub window: usize,
}

impl Default for SlidingZScore {
    fn default() -> Self {
        Self { window: 32 }
    }
}

impl SlidingZScore {
    /// Creates with an explicit trailing-window length (≥ 2).
    ///
    /// # Errors
    /// Rejects `window < 2`.
    pub fn new(window: usize) -> Result<Self> {
        if window < 2 {
            return Err(DetectError::invalid("window", "must be >= 2"));
        }
        Ok(Self { window })
    }
}

impl Detector for SlidingZScore {
    fn info(&self) -> DetectorInfo {
        baseline_info("Sliding-Window Z-Score")
    }
}

impl PointScorer for SlidingZScore {
    fn score_points(&self, values: &[f64]) -> Result<Vec<f64>> {
        check_finite("SlidingZScore", values)?;
        if values.is_empty() {
            return Err(DetectError::NotEnoughData {
                what: "SlidingZScore",
                needed: 1,
                got: 0,
            });
        }
        let mut out = Vec::with_capacity(values.len());
        for (i, &x) in values.iter().enumerate() {
            let start = i.saturating_sub(self.window);
            let ctx = values.get(start..i).unwrap_or_default();
            if ctx.len() < 2 {
                out.push(0.0);
                continue;
            }
            let m = stats::mean(ctx)?;
            let s = stats::std_dev(ctx)?;
            out.push(if s <= 1e-12 * (1.0 + m.abs()) {
                0.0
            } else {
                ((x - m) / s).abs()
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spiked(n: usize, at: usize, mag: f64) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        v[at] += mag;
        v
    }

    #[test]
    fn global_z_ranks_spike_first() {
        let v = spiked(100, 50, 20.0);
        let s = GlobalZScore.score_points(&v).unwrap();
        let best = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 50);
        assert!(GlobalZScore.score_points(&[]).is_err());
    }

    #[test]
    fn robust_z_survives_contamination() {
        // Multiple large outliers inflate the std but not the MAD.
        let mut v = spiked(100, 50, 30.0);
        v[10] += 30.0;
        v[90] += 30.0;
        let rz = RobustZScore.score_points(&v).unwrap();
        assert!(rz[50] > 10.0);
        assert!(rz[30] < 3.0);
    }

    #[test]
    fn iqr_fence_zero_inside() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 100.0];
        let s = IqrFence.score_points(&v).unwrap();
        assert_eq!(s[0], 0.0);
        assert_eq!(s[2], 0.0);
        assert!(s[4] > 10.0);
    }

    #[test]
    fn sliding_z_detects_change_after_context() {
        let mut v = vec![0.0; 64];
        for (i, x) in v.iter_mut().enumerate() {
            *x = (i as f64 * 0.3).sin();
        }
        v[40] += 15.0;
        let s = SlidingZScore::new(16).unwrap().score_points(&v).unwrap();
        let best = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 40);
        // Warm-up points score zero.
        assert_eq!(s[0], 0.0);
        assert_eq!(s[1], 0.0);
        assert!(SlidingZScore::new(1).is_err());
        assert!(SlidingZScore::default().score_points(&[]).is_err());
    }

    #[test]
    fn constant_series_scores_zero_everywhere() {
        let v = vec![5.0; 20];
        assert!(GlobalZScore
            .score_points(&v)
            .unwrap()
            .iter()
            .all(|&s| s == 0.0));
        assert!(RobustZScore
            .score_points(&v)
            .unwrap()
            .iter()
            .all(|&s| s == 0.0));
        assert!(SlidingZScore::default()
            .score_points(&v)
            .unwrap()
            .iter()
            .all(|&s| s == 0.0));
    }

    #[test]
    fn info_flags_baseline_class() {
        assert_eq!(GlobalZScore.info().class, TechniqueClass::Baseline);
        assert!(!IqrFence.info().supervised);
    }
}
