//! Normalization / scaling transforms.
//!
//! Sub-sequence detectors (phased k-means, SAX, SOM, …) operate on
//! z-normalized windows so that shape rather than offset drives similarity;
//! the job-level feature detectors use min-max or robust scaling so that
//! heterogeneous setup parameters become comparable.

use crate::error::{Error, Result};
use crate::stats;

/// Z-normalizes a slice in place: `(x - mean) / std`. Constant slices are
/// mapped to all zeros.
///
/// # Errors
/// Returns [`Error::Empty`] for an empty slice.
pub fn z_normalize_in_place(xs: &mut [f64]) -> Result<()> {
    let m = stats::mean(xs)?;
    let s = stats::std_dev(xs)?;
    if s == 0.0 {
        xs.iter_mut().for_each(|x| *x = 0.0);
        return Ok(());
    }
    xs.iter_mut().for_each(|x| *x = (*x - m) / s);
    Ok(())
}

/// Z-normalized copy of a slice.
///
/// # Errors
/// Returns [`Error::Empty`] for an empty slice.
pub fn z_normalize(xs: &[f64]) -> Result<Vec<f64>> {
    let mut out = xs.to_vec();
    z_normalize_in_place(&mut out)?;
    Ok(out)
}

/// Min-max scaling into `[0, 1]`. Constant slices map to all `0.5`.
///
/// # Errors
/// Returns [`Error::Empty`] for an empty slice.
pub fn min_max(xs: &[f64]) -> Result<Vec<f64>> {
    let lo = stats::min(xs)?;
    let hi = stats::max(xs)?;
    if hi == lo {
        return Ok(vec![0.5; xs.len()]);
    }
    Ok(xs.iter().map(|x| (x - lo) / (hi - lo)).collect())
}

/// Robust scaling: `(x - median) / IQR`. Zero-IQR slices map to all zeros.
///
/// # Errors
/// Returns [`Error::Empty`] for an empty slice.
pub fn robust_scale(xs: &[f64]) -> Result<Vec<f64>> {
    let mut scratch = xs.to_vec();
    let med = stats::quantile_in(&mut scratch, 0.5)?;
    let q1 = stats::quantile_in(&mut scratch, 0.25)?;
    let q3 = stats::quantile_in(&mut scratch, 0.75)?;
    let iqr = q3 - q1;
    if iqr == 0.0 {
        return Ok(vec![0.0; xs.len()]);
    }
    Ok(xs.iter().map(|x| (x - med) / iqr).collect())
}

/// A fitted per-column scaler for feature matrices (rows = samples).
///
/// Fit on training rows, then apply to new rows; columns with zero spread
/// pass through as zeros. Used by the supervised (SA) detectors and the
/// job-level PCA pipeline.
#[derive(Debug, Clone)]
pub struct ColumnScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl ColumnScaler {
    /// Fits mean/std per column. Generic over the row type so both owned
    /// (`&[Vec<f64>]`) and borrowed (`&[&[f64]]`) matrices fit without
    /// copying.
    ///
    /// # Errors
    /// Returns an error on an empty matrix or ragged rows.
    pub fn fit<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self> {
        let first = rows.first().ok_or(Error::Empty {
            what: "ColumnScaler::fit",
        })?;
        let d = first.as_ref().len();
        if rows.iter().any(|r| r.as_ref().len() != d) {
            return Err(Error::invalid("rows", "ragged feature matrix"));
        }
        let n = rows.len() as f64;
        let mut means = vec![0.0; d];
        for r in rows {
            for (m, v) in means.iter_mut().zip(r.as_ref()) {
                *m += v;
            }
        }
        means.iter_mut().for_each(|m| *m /= n);
        let mut stds = vec![0.0; d];
        for r in rows {
            for ((s, v), m) in stds.iter_mut().zip(r.as_ref()).zip(&means) {
                *s += (v - m) * (v - m);
            }
        }
        stds.iter_mut().for_each(|s| *s = (*s / n).sqrt());
        Ok(Self { means, stds })
    }

    /// Number of columns this scaler was fitted on.
    pub fn dims(&self) -> usize {
        self.means.len()
    }

    /// Scales one row: `(x - mean) / std` per column (zero-std columns → 0).
    ///
    /// # Errors
    /// Returns an error if the row width differs from the fitted width.
    pub fn transform(&self, row: &[f64]) -> Result<Vec<f64>> {
        if row.len() != self.means.len() {
            return Err(Error::LengthMismatch {
                what: "ColumnScaler::transform",
                left: row.len(),
                right: self.means.len(),
            });
        }
        Ok(row
            .iter()
            .zip(&self.means)
            .zip(&self.stds)
            .map(|((x, m), s)| if *s == 0.0 { 0.0 } else { (x - m) / s })
            .collect())
    }

    /// Scales many rows.
    ///
    /// # Errors
    /// Propagates the first row-width mismatch.
    pub fn transform_all<R: AsRef<[f64]>>(&self, rows: &[R]) -> Result<Vec<Vec<f64>>> {
        rows.iter().map(|r| self.transform(r.as_ref())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn z_normalize_gives_zero_mean_unit_std() {
        let out = z_normalize(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(stats::mean(&out).unwrap().abs() < EPS);
        assert!((stats::std_dev(&out).unwrap() - 1.0).abs() < EPS);
    }

    #[test]
    fn z_normalize_constant_is_zeros() {
        assert_eq!(z_normalize(&[7.0, 7.0]).unwrap(), vec![0.0, 0.0]);
        assert!(z_normalize(&[]).is_err());
    }

    #[test]
    fn min_max_bounds() {
        let out = min_max(&[10.0, 20.0, 15.0]).unwrap();
        assert_eq!(out, vec![0.0, 1.0, 0.5]);
        assert_eq!(min_max(&[3.0, 3.0]).unwrap(), vec![0.5, 0.5]);
    }

    #[test]
    fn robust_scale_centers_on_median() {
        let out = robust_scale(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!(out[2].abs() < EPS); // median maps to 0
        assert_eq!(robust_scale(&[2.0, 2.0, 2.0]).unwrap(), vec![0.0; 3]);
    }

    #[test]
    fn column_scaler_roundtrip() {
        let rows = vec![vec![0.0, 10.0], vec![2.0, 10.0], vec![4.0, 10.0]];
        let sc = ColumnScaler::fit(&rows).unwrap();
        assert_eq!(sc.dims(), 2);
        let t = sc.transform(&[2.0, 10.0]).unwrap();
        assert!(t[0].abs() < EPS); // column mean
        assert_eq!(t[1], 0.0); // zero-variance column
        let hi = sc.transform(&[4.0, 99.0]).unwrap();
        assert!(hi[0] > 0.0);
        assert!(sc.transform(&[1.0]).is_err());
    }

    #[test]
    fn column_scaler_rejects_bad_input() {
        assert!(ColumnScaler::fit::<Vec<f64>>(&[]).is_err());
        assert!(ColumnScaler::fit(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn transform_all_maps_every_row() {
        let rows = vec![vec![0.0], vec![2.0]];
        let sc = ColumnScaler::fit(&rows).unwrap();
        let out = sc.transform_all(&rows).unwrap();
        assert_eq!(out.len(), 2);
        assert!((out[0][0] + 1.0).abs() < EPS);
        assert!((out[1][0] - 1.0).abs() < EPS);
    }
}
