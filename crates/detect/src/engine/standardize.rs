//! Pluggable score standardization.
//!
//! Raw detector scores live on wildly different scales (AR residuals,
//! reconstruction errors, negative log-likelihoods, …). The hierarchy's
//! per-level thresholds are expressed in **robust z-units of the score
//! distribution** so that one threshold scale works across algorithms;
//! [`Standardizer`] makes that final normalization stage explicit and
//! swappable instead of hard-wiring it into the level-detection loop.

use std::sync::Arc;

use hierod_timeseries::stats;

/// Maps a raw score vector onto a common comparable scale.
pub trait Standardizer: Send + Sync {
    /// Standardizes the raw scores (same length as the input) into the
    /// shared buffer a report column holds, so the scores are written once.
    fn standardize(&self, raw: &[f64]) -> Arc<[f64]>;

    /// Short label for reports.
    fn label(&self) -> &'static str;
}

/// Robust z-units: `(s - median) / MAD`, with a standard-deviation fallback
/// when the MAD collapses (e.g. a score vector that is mostly zeros), and
/// all-zeros when the distribution is fully degenerate.
#[derive(Debug, Clone, Copy, Default)]
pub struct RobustZ;

impl Standardizer for RobustZ {
    fn standardize(&self, raw: &[f64]) -> Arc<[f64]> {
        let Ok((med, mad)) = stats::median_mad(raw) else {
            return raw.into(); // empty in, empty out
        };
        let spread = if mad > 1e-12 {
            mad
        } else {
            // MAD collapses when most scores are identical (e.g. IQR-fence
            // zeros); fall back to the standard deviation.
            match stats::std_dev(raw) {
                Ok(sd) if sd > 1e-12 => sd,
                _ => return raw.iter().map(|_| 0.0).collect(),
            }
        };
        raw.iter().map(|s| (s - med) / spread).collect()
    }

    fn label(&self) -> &'static str {
        "robust z"
    }
}

/// No-op standardizer for scores that are already on the threshold scale
/// (e.g. profile-similarity scores, which are MAD-units against the learned
/// template — re-standardizing them per series would amplify the near-zero
/// spread of clean executions into false positives).
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Standardizer for Identity {
    fn standardize(&self, raw: &[f64]) -> Arc<[f64]> {
        raw.into()
    }

    fn label(&self) -> &'static str {
        "identity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robust_z_flags_spike() {
        let z = RobustZ.standardize(&[1.0, 1.1, 0.9, 1.0, 9.0]);
        assert!(z[4] > 5.0);
        assert!(z[0].abs() < 2.0);
    }

    #[test]
    fn robust_z_degenerate_inputs() {
        assert!(RobustZ.standardize(&[]).is_empty());
        assert_eq!(*RobustZ.standardize(&[2.0, 2.0]), [0.0, 0.0]);
        // MAD zero but variance nonzero: one extreme among many identical.
        let mut v = vec![0.0; 9];
        v.push(100.0);
        let z = RobustZ.standardize(&v);
        assert!(z[9] > 1.0);
        assert!(z.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn robust_z_with_infinite_scores() {
        let inf = f64::INFINITY;
        // A minority of infinite scores is flagged at ∞; the rest keep
        // their finite scale.
        let z = RobustZ.standardize(&[1.0, 1.1, 0.9, 1.0, inf]);
        assert_eq!(z[4], inf);
        assert!(z[..4].iter().all(|x| x.is_finite()));
        // A majority has median ∞ (not NaN) and no usable spread: every
        // score is zero, none is NaN.
        for raw in [[1.0, inf, inf, inf], [inf, inf, inf, inf]] {
            assert_eq!(*RobustZ.standardize(&raw), [0.0; 4]);
        }
    }

    #[test]
    fn identity_is_noop() {
        let raw = [0.5, 3.0, -1.0];
        assert_eq!(*Identity.standardize(&raw), raw);
        assert_eq!(Identity.label(), "identity");
        assert_eq!(RobustZ.label(), "robust z");
    }
}
