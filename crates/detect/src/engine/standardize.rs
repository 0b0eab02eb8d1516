//! Score standardization.
//!
//! Raw detector scores live on wildly different scales (AR residuals,
//! reconstruction errors, negative log-likelihoods, …). The hierarchy's
//! per-level thresholds are expressed in **robust z-units of the score
//! distribution** so that one threshold scale works across algorithms;
//! [`robust_z`] is that final normalization stage.

use std::sync::Arc;

use hierod_timeseries::stats;

/// Robust z-units: `(s - median) / MAD`, with a standard-deviation fallback
/// when the MAD collapses (e.g. a score vector that is mostly zeros), and
/// all-zeros when the distribution is fully degenerate. The result is the
/// shared buffer a report column holds, so the scores are written once.
pub fn robust_z(raw: &[f64]) -> Arc<[f64]> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robust_z_flags_spike() {
        let z = robust_z(&[1.0, 1.1, 0.9, 1.0, 9.0]);
        assert!(z[4] > 5.0);
        assert!(z[0].abs() < 2.0);
    }

    #[test]
    fn robust_z_degenerate_inputs() {
        assert!(robust_z(&[]).is_empty());
        assert_eq!(*robust_z(&[2.0, 2.0]), [0.0, 0.0]);
        // MAD zero but variance nonzero: one extreme among many identical.
        let mut v = vec![0.0; 9];
        v.push(100.0);
        let z = robust_z(&v);
        assert!(z[9] > 1.0);
        assert!(z.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn robust_z_with_infinite_scores() {
        let inf = f64::INFINITY;
        // A minority of infinite scores is flagged at ∞; the rest keep
        // their finite scale.
        let z = robust_z(&[1.0, 1.1, 0.9, 1.0, inf]);
        assert_eq!(z[4], inf);
        assert!(z[..4].iter().all(|x| x.is_finite()));
        // A majority has median ∞ (not NaN) and no usable spread: every
        // score is zero, none is NaN.
        for raw in [[1.0, inf, inf, inf], [inf, inf, inf, inf]] {
            assert_eq!(*robust_z(&raw), [0.0; 4]);
        }
    }
}
