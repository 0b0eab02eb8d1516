//! Descriptive statistics and robust estimators.
//!
//! These are the numeric primitives behind most point-granularity detectors
//! (z-scores, MAD fences) and behind the feature extraction used by the
//! window- and series-granularity detectors of Table 1.

use crate::error::{Error, Result};

/// Arithmetic mean.
///
/// # Errors
/// Returns [`Error::Empty`] for an empty slice.
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(Error::Empty { what: "mean" });
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population variance (divides by `n`).
///
/// # Errors
/// Returns [`Error::Empty`] for an empty slice.
pub fn variance(xs: &[f64]) -> Result<f64> {
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Sample variance (divides by `n - 1`).
///
/// # Errors
/// Returns an error if fewer than two samples are supplied.
pub fn sample_variance(xs: &[f64]) -> Result<f64> {
    if xs.len() < 2 {
        return Err(Error::invalid("xs", "sample variance needs n >= 2"));
    }
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Population standard deviation.
///
/// # Errors
/// Returns [`Error::Empty`] for an empty slice.
pub fn std_dev(xs: &[f64]) -> Result<f64> {
    Ok(variance(xs)?.sqrt())
}

/// Minimum value (NaN-propagating: any NaN yields NaN).
///
/// # Errors
/// Returns [`Error::Empty`] for an empty slice.
pub fn min(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(Error::Empty { what: "min" });
    }
    Ok(xs.iter().copied().fold(f64::INFINITY, f64::min))
}

/// Maximum value (NaN-propagating: any NaN yields NaN).
///
/// # Errors
/// Returns [`Error::Empty`] for an empty slice.
pub fn max(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(Error::Empty { what: "max" });
    }
    Ok(xs.iter().copied().fold(f64::NEG_INFINITY, f64::max))
}

/// The neighbouring order statistics `(x[lo], x[hi])` of `scratch` under
/// [`f64::total_cmp`], for `lo == hi` or `lo + 1 == hi` — the one place in
/// the workspace a rank is taken, but for [`median_mad`]'s, which is this
/// selection on integer keys. One linear-time selection puts `x[hi]`
/// in place with nothing greater to its left, so `x[lo]` is the maximum of
/// that left part. Values equal under `total_cmp` are bit-identical, so
/// the pair is exactly what a full sort would have left at those indices.
///
/// Permutes `scratch`. `None` when `hi` is out of range or the ranks are
/// not neighbours.
pub fn order_pair(scratch: &mut [f64], lo: usize, hi: usize) -> Option<(f64, f64)> {
    if hi >= scratch.len() || lo > hi || hi - lo > 1 {
        return None;
    }
    let (left, &mut at_hi, _) = scratch.select_nth_unstable_by(hi, f64::total_cmp);
    let at_lo = if lo == hi {
        at_hi
    } else {
        left.iter().copied().max_by(f64::total_cmp)?
    };
    Some((at_lo, at_hi))
}

/// [`quantile`] of a caller-owned scratch buffer, which it permutes: a
/// caller reading several quantiles of one slice copies it once.
///
/// # Errors
/// Returns an error for an empty slice or `q` outside `[0, 1]`.
pub fn quantile_in(scratch: &mut [f64], q: f64) -> Result<f64> {
    if scratch.is_empty() {
        return Err(Error::Empty { what: "quantile" });
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(Error::invalid("q", "must be in [0, 1]"));
    }
    let (lo, hi, frac) = type7_ranks(scratch.len(), q);
    let (at_lo, at_hi) = order_pair(scratch, lo, hi).ok_or(Error::Empty { what: "quantile" })?;
    Ok(interpolate(at_lo, at_hi, frac))
}

/// The neighbouring ranks a type-7 quantile of `n > 0` values reads and
/// the weight of the upper one.
fn type7_ranks(n: usize, q: f64) -> (usize, usize, f64) {
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    (lo, h.ceil() as usize, h - lo as f64)
}

/// The type-7 interpolation between two neighbouring order statistics.
fn interpolate(at_lo: f64, at_hi: f64, frac: f64) -> f64 {
    // Between two equal infinities the interpolation below is `∞ − ∞`:
    // the quantile of a run of infinite values is that value, not NaN.
    if at_lo == at_hi && at_lo.is_infinite() {
        return at_lo;
    }
    at_lo + (at_hi - at_lo) * frac
}

/// Linear-interpolated quantile, `q` in `[0, 1]` (type-7, the R default).
///
/// # Errors
/// Returns an error for an empty slice or `q` outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64> {
    quantile_in(&mut xs.to_vec(), q)
}

/// Median (50 % quantile).
///
/// # Errors
/// Returns [`Error::Empty`] for an empty slice.
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

/// `(median, MAD)` of `xs`: the type-7 [`median`] and the median of the
/// absolute deviations from it, scaled as [`mad`] — bit for bit what two
/// [`quantile_in`] selections over one copy of `xs` give. The selections
/// run on one buffer of ordered integer keys, built once from `xs` and
/// overwritten with the deviations' keys: the keys' order *is*
/// [`f64::total_cmp`]'s and the map is a bijection, so the selected pair
/// maps back to the very values a `total_cmp` selection finds, and no
/// comparison re-derives a key.
///
/// # Errors
/// Returns [`Error::Empty`] for an empty slice.
pub fn median_mad(xs: &[f64]) -> Result<(f64, f64)> {
    let mut keys: Vec<i64> = xs.iter().map(|&x| total_key(x)).collect();
    let med = keyed_median(&mut keys)?;
    for (key, &x) in keys.iter_mut().zip(xs) {
        *key = total_key((x - med).abs());
    }
    Ok((med, 1.4826 * keyed_median(&mut keys)?))
}

/// The `i64` whose signed order is [`f64::total_cmp`]'s order of `x`:
/// negative values keep their sign bit and flip the other 63. The same
/// flip undoes it ([`from_total_key`]).
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The `f64` whose [`total_key`] is `key`.
fn from_total_key(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
}

/// The type-7 median of the values behind `keys`, which it permutes — the
/// [`order_pair`] selection, on keys.
fn keyed_median(keys: &mut [i64]) -> Result<f64> {
    if keys.is_empty() {
        return Err(Error::Empty { what: "quantile" });
    }
    let (lo, hi, frac) = type7_ranks(keys.len(), 0.5);
    let (left, &mut at_hi, _) = keys.select_nth_unstable(hi);
    let at_lo = if lo == hi {
        Some(at_hi)
    } else {
        left.iter().copied().max()
    };
    let at_lo = at_lo.ok_or(Error::Empty { what: "quantile" })?;
    Ok(interpolate(
        from_total_key(at_lo),
        from_total_key(at_hi),
        frac,
    ))
}

/// Median absolute deviation, scaled by 1.4826 to be consistent with the
/// standard deviation under normality.
///
/// # Errors
/// Returns [`Error::Empty`] for an empty slice.
pub fn mad(xs: &[f64]) -> Result<f64> {
    Ok(median_mad(xs)?.1)
}

/// Z-scores against the slice's own mean/std. A zero-variance input yields
/// all-zero scores (every point equals the mean, so none deviates).
///
/// # Errors
/// Returns [`Error::Empty`] for an empty slice.
pub fn z_scores(xs: &[f64]) -> Result<Vec<f64>> {
    let m = mean(xs)?;
    let s = std_dev(xs)?;
    // Relative guard: identical values can leave rounding dust in the
    // variance, which must not fabricate non-zero scores.
    if s <= 1e-12 * (1.0 + m.abs()) {
        return Ok(vec![0.0; xs.len()]);
    }
    Ok(xs.iter().map(|x| (x - m) / s).collect())
}

/// Robust z-scores using median/MAD. A zero-MAD input yields all-zero scores.
///
/// # Errors
/// Returns [`Error::Empty`] for an empty slice.
pub fn robust_z_scores(xs: &[f64]) -> Result<Vec<f64>> {
    let (med, m) = median_mad(xs)?;
    if m <= 1e-12 * (1.0 + med.abs()) {
        return Ok(vec![0.0; xs.len()]);
    }
    Ok(xs.iter().map(|x| (x - med) / m).collect())
}

/// Skewness (third standardized moment, population form). Zero-variance
/// inputs yield 0.
///
/// # Errors
/// Returns [`Error::Empty`] for an empty slice.
pub fn skewness(xs: &[f64]) -> Result<f64> {
    let m = mean(xs)?;
    let s = std_dev(xs)?;
    if s == 0.0 {
        return Ok(0.0);
    }
    let n = xs.len() as f64;
    Ok(xs.iter().map(|x| ((x - m) / s).powi(3)).sum::<f64>() / n)
}

/// Excess kurtosis (fourth standardized moment − 3). Zero-variance inputs
/// yield 0.
///
/// # Errors
/// Returns [`Error::Empty`] for an empty slice.
pub fn kurtosis(xs: &[f64]) -> Result<f64> {
    let m = mean(xs)?;
    let s = std_dev(xs)?;
    if s == 0.0 {
        return Ok(0.0);
    }
    let n = xs.len() as f64;
    Ok(xs.iter().map(|x| ((x - m) / s).powi(4)).sum::<f64>() / n - 3.0)
}

/// Exponentially weighted moving average with smoothing factor
/// `alpha` in `(0, 1]`.
///
/// # Errors
/// Returns an error for an empty input or `alpha` outside `(0, 1]`.
pub fn ewma(xs: &[f64], alpha: f64) -> Result<Vec<f64>> {
    let Some((&first, rest)) = xs.split_first() else {
        return Err(Error::Empty { what: "ewma" });
    };
    if !(alpha > 0.0 && alpha <= 1.0) {
        return Err(Error::invalid("alpha", "must be in (0, 1]"));
    }
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = first;
    out.push(acc);
    for &x in rest {
        acc = alpha * x + (1.0 - alpha) * acc;
        out.push(acc);
    }
    Ok(out)
}

/// Autocorrelation at `lag` (biased estimator, normalized by the lag-0
/// autocovariance). Zero-variance inputs yield 0.
///
/// # Errors
/// Returns an error if `lag >= xs.len()` or the input is empty.
pub fn autocorrelation(xs: &[f64], lag: usize) -> Result<f64> {
    if xs.is_empty() {
        return Err(Error::Empty {
            what: "autocorrelation",
        });
    }
    if lag >= xs.len() {
        return Err(Error::invalid("lag", "must be < series length"));
    }
    let m = mean(xs)?;
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    if denom == 0.0 {
        return Ok(0.0);
    }
    Ok(lagged_products(xs, m, lag) / denom)
}

/// `Σ (x_t − m)(x_{t+lag} − m)` over every pair the series holds.
fn lagged_products(xs: &[f64], m: f64, lag: usize) -> f64 {
    xs.iter()
        .zip(xs.iter().skip(lag))
        .map(|(a, b)| (a - m) * (b - m))
        .sum()
}

/// Autocovariance sequence for lags `0..=max_lag` (biased, divides by `n`).
///
/// # Errors
/// Returns an error if `max_lag >= xs.len()` or the input is empty.
pub fn autocovariances(xs: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    if xs.is_empty() {
        return Err(Error::Empty {
            what: "autocovariances",
        });
    }
    if max_lag >= xs.len() {
        return Err(Error::invalid("max_lag", "must be < series length"));
    }
    let n = xs.len() as f64;
    let m = mean(xs)?;
    let mut out = Vec::with_capacity(max_lag + 1);
    for lag in 0..=max_lag {
        out.push(lagged_products(xs, m, lag) / n);
    }
    Ok(out)
}

/// Pearson correlation between two equal-length slices. Returns 0 when either
/// side has zero variance.
///
/// # Errors
/// Returns an error on length mismatch or empty input.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Result<f64> {
    if xs.len() != ys.len() {
        return Err(Error::LengthMismatch {
            what: "pearson",
            left: xs.len(),
            right: ys.len(),
        });
    }
    if xs.is_empty() {
        return Err(Error::Empty { what: "pearson" });
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        num += (x - mx) * (y - my);
        dx += (x - mx) * (x - mx);
        dy += (y - my) * (y - my);
    }
    if dx == 0.0 || dy == 0.0 {
        return Ok(0.0);
    }
    Ok(num / (dx.sqrt() * dy.sqrt()))
}

/// Cross-correlation of `ys` against `xs` at an integer `lag`: the Pearson
/// correlation of `xs[t]` with `ys[t + lag]` (positive lag = `ys` lags
/// behind `xs`). Used to align environment series with process series.
///
/// # Errors
/// Returns an error on length mismatch, empty input, or a lag leaving fewer
/// than two overlapping samples.
pub fn cross_correlation(xs: &[f64], ys: &[f64], lag: isize) -> Result<f64> {
    if xs.len() != ys.len() {
        return Err(Error::LengthMismatch {
            what: "cross_correlation",
            left: xs.len(),
            right: ys.len(),
        });
    }
    if xs.is_empty() {
        return Err(Error::Empty {
            what: "cross_correlation",
        });
    }
    let n = xs.len() as isize;
    if lag.abs() >= n - 1 {
        return Err(Error::invalid(
            "lag",
            "leaves fewer than 2 overlapping samples",
        ));
    }
    let shift = lag.unsigned_abs();
    let keep = xs.len() - shift;
    let (a, b) = if lag >= 0 {
        (xs.get(..keep), ys.get(shift..))
    } else {
        (xs.get(shift..), ys.get(..keep))
    };
    match (a, b) {
        (Some(a), Some(b)) => pearson(a, b),
        _ => Err(Error::invalid("lag", "out of range")),
    }
}

/// Incremental mean/variance accumulator (Welford's algorithm). Useful for
/// streaming phase-level statistics where the paper demands "calculation
/// speed".
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Current population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Current population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn mean_and_variance_hand_checked() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs).unwrap() - 5.0).abs() < EPS);
        assert!((variance(&xs).unwrap() - 4.0).abs() < EPS);
        assert!((std_dev(&xs).unwrap() - 2.0).abs() < EPS);
        assert!((sample_variance(&xs).unwrap() - 32.0 / 7.0).abs() < EPS);
    }

    #[test]
    fn empty_inputs_error() {
        assert!(mean(&[]).is_err());
        assert!(variance(&[]).is_err());
        assert!(min(&[]).is_err());
        assert!(max(&[]).is_err());
        assert!(quantile(&[], 0.5).is_err());
        assert!(ewma(&[], 0.5).is_err());
        assert!(autocorrelation(&[], 0).is_err());
        assert!(pearson(&[], &[]).is_err());
        assert!(sample_variance(&[1.0]).is_err());
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.0).unwrap() - 1.0).abs() < EPS);
        assert!((quantile(&xs, 1.0).unwrap() - 4.0).abs() < EPS);
        assert!((quantile(&xs, 0.5).unwrap() - 2.5).abs() < EPS);
        assert!((quantile(&xs, 0.25).unwrap() - 1.75).abs() < EPS);
        assert!(quantile(&xs, 1.5).is_err());
    }

    #[test]
    fn quantile_of_an_infinite_run_is_that_infinity() {
        let inf = f64::INFINITY;
        // Both neighbours infinite: `∞ + (∞ − ∞) · frac` used to be NaN.
        assert_eq!(median(&[inf, inf, inf]).unwrap(), inf);
        assert_eq!(median(&[-inf, -inf]).unwrap(), -inf);
        assert_eq!(quantile(&[1.0, inf, inf, inf], 0.5).unwrap(), inf);
        assert_eq!(quantile(&[1.0, 2.0, inf, inf], 0.9).unwrap(), inf);
        // ... and so was the MAD of a series whose deviations are mostly ∞.
        assert_eq!(mad(&[-inf, 5.0, inf]).unwrap(), inf);
        // An infinite minority never reached that arithmetic.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0, inf]).unwrap(), 3.0);
        // Finite neighbours keep the interpolation, signed zero included.
        assert_eq!(median(&[-0.0]).unwrap().to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn order_pair_reads_what_a_sort_would_leave() {
        let xs = [5.0, -0.0, f64::NAN, 0.0, 2.0, -f64::NAN, 2.0];
        let mut sorted = xs;
        sorted.sort_by(f64::total_cmp);
        for hi in 0..xs.len() {
            for lo in hi.saturating_sub(1)..=hi {
                let (a, b) = order_pair(&mut xs.clone(), lo, hi).unwrap();
                assert_eq!(
                    (a.to_bits(), b.to_bits()),
                    (sorted[lo].to_bits(), sorted[hi].to_bits())
                );
            }
        }
        assert_eq!(order_pair(&mut xs.clone(), 7, 7), None);
        assert_eq!(order_pair(&mut xs.clone(), 0, 2), None);
        assert_eq!(order_pair(&mut xs.clone(), 2, 1), None);
        assert_eq!(order_pair(&mut [], 0, 0), None);
    }

    #[test]
    fn median_odd_and_even() {
        assert!((median(&[3.0, 1.0, 2.0]).unwrap() - 2.0).abs() < EPS);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]).unwrap() - 2.5).abs() < EPS);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        let xs = [1.0, 2.0, 3.0, 4.0, 1000.0];
        // Median 3, abs devs [2,1,0,1,997], median dev 1 -> MAD = 1.4826.
        assert!((mad(&xs).unwrap() - 1.4826).abs() < EPS);
    }

    #[test]
    fn z_scores_standardize() {
        let zs = z_scores(&[1.0, 2.0, 3.0]).unwrap();
        assert!((mean(&zs).unwrap()).abs() < EPS);
        assert!((std_dev(&zs).unwrap() - 1.0).abs() < EPS);
        // Constant input: all zeros, not NaN.
        assert_eq!(z_scores(&[5.0, 5.0]).unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn robust_z_flags_outlier_strongly() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 100.0];
        let rz = robust_z_scores(&xs).unwrap();
        assert!(rz[5] > 10.0, "outlier robust-z = {}", rz[5]);
        assert!(rz[2].abs() < 1.0);
    }

    #[test]
    fn skew_kurtosis_of_symmetric_data() {
        let xs = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(skewness(&xs).unwrap().abs() < EPS);
        // Uniform-ish, platykurtic: excess kurtosis < 0.
        assert!(kurtosis(&xs).unwrap() < 0.0);
        assert_eq!(skewness(&[1.0, 1.0]).unwrap(), 0.0);
        assert_eq!(kurtosis(&[1.0, 1.0]).unwrap(), 0.0);
    }

    #[test]
    fn ewma_smooths_and_respects_alpha_one() {
        let xs = [0.0, 10.0, 10.0];
        let e = ewma(&xs, 0.5).unwrap();
        assert_eq!(e[0], 0.0);
        assert!((e[1] - 5.0).abs() < EPS);
        assert!((e[2] - 7.5).abs() < EPS);
        // alpha = 1 reproduces the input.
        assert_eq!(ewma(&xs, 1.0).unwrap(), xs.to_vec());
        assert!(ewma(&xs, 0.0).is_err());
        assert!(ewma(&xs, 1.5).is_err());
    }

    #[test]
    fn autocorrelation_of_alternating_series_is_negative_at_lag1() {
        let xs = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        assert!((autocorrelation(&xs, 0).unwrap() - 1.0).abs() < EPS);
        assert!(autocorrelation(&xs, 1).unwrap() < -0.8);
        assert!(autocorrelation(&xs, 8).is_err());
        assert_eq!(autocorrelation(&[2.0, 2.0, 2.0], 1).unwrap(), 0.0);
    }

    #[test]
    fn autocovariances_lag0_is_variance() {
        let xs = [1.0, 3.0, 2.0, 5.0, 4.0];
        let ac = autocovariances(&xs, 2).unwrap();
        assert!((ac[0] - variance(&xs).unwrap()).abs() < EPS);
        assert_eq!(ac.len(), 3);
    }

    #[test]
    fn pearson_perfect_and_anti_correlation() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 6.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < EPS);
        let yneg = [6.0, 4.0, 2.0];
        assert!((pearson(&xs, &yneg).unwrap() + 1.0).abs() < EPS);
        assert_eq!(pearson(&xs, &[1.0, 1.0, 1.0]).unwrap(), 0.0);
        assert!(pearson(&xs, &[1.0]).is_err());
    }

    #[test]
    fn cross_correlation_finds_the_shift() {
        // ys is xs delayed by 3 samples.
        let xs: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).sin()).collect();
        let ys: Vec<f64> = (0..40).map(|i| ((i as f64 - 3.0) * 0.7).sin()).collect();
        let at_lag3 = cross_correlation(&xs, &ys, 3).unwrap();
        let at_lag0 = cross_correlation(&xs, &ys, 0).unwrap();
        assert!(at_lag3 > 0.99, "lag-3 correlation {at_lag3}");
        assert!(at_lag3 > at_lag0);
        // Negative lag looks the other way.
        let neg = cross_correlation(&ys, &xs, -3).unwrap();
        assert!(neg > 0.99);
        // Zero lag of identical series is 1.
        assert!((cross_correlation(&xs, &xs, 0).unwrap() - 1.0).abs() < EPS);
    }

    #[test]
    fn cross_correlation_validation() {
        let xs = [1.0, 2.0, 3.0];
        assert!(cross_correlation(&xs, &[1.0], 0).is_err());
        assert!(cross_correlation(&[], &[], 0).is_err());
        assert!(cross_correlation(&xs, &xs, 2).is_err());
        assert!(cross_correlation(&xs, &xs, -2).is_err());
        assert!(cross_correlation(&xs, &xs, 1).is_ok());
    }

    #[test]
    fn running_stats_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert_eq!(rs.count(), 8);
        assert!((rs.mean() - mean(&xs).unwrap()).abs() < EPS);
        assert!((rs.variance() - variance(&xs).unwrap()).abs() < EPS);
    }

    #[test]
    fn running_stats_merge_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0];
        let ys = [5.0, 5.0, 7.0, 9.0];
        let all: Vec<f64> = xs.iter().chain(&ys).copied().collect();
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs {
            a.push(x);
        }
        for &y in &ys {
            b.push(y);
        }
        a.merge(&b);
        assert!((a.mean() - mean(&all).unwrap()).abs() < EPS);
        assert!((a.variance() - variance(&all).unwrap()).abs() < EPS);
        // Merging into empty adopts the other side.
        let mut c = RunningStats::new();
        c.merge(&a);
        assert_eq!(c.count(), 8);
        // Merging empty is a no-op.
        let before = c.mean();
        c.merge(&RunningStats::new());
        assert_eq!(c.mean(), before);
    }
}
