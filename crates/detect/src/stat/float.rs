//! Total-order float comparison — the repo-wide NaN policy.
//!
//! `cargo xtask lint` (rule `nan-cmp`) bans `partial_cmp(..).unwrap()` on
//! floats: one NaN in a distance matrix and a detector panics mid-scan.
//! These helpers make the replacement ordering explicit:
//!
//! * comparisons use [`f64::total_cmp`], which is total (never panics) and
//!   deterministic;
//! * where a NaN *could* win a selection, [`nan_last_cmp`] orders it after
//!   every real number regardless of sign, so `min_by`/ascending sorts
//!   never pick NaN over data.

use std::cmp::Ordering;

use hierod_timeseries::stats::order_pair;

/// Total order with NaN (either sign) strictly greatest.
///
/// Unlike raw [`f64::total_cmp`] — which puts negative NaN *below*
/// `-inf` — this is safe for "smallest wins" selections: NaN loses to
/// every real number. Equal-rank NaNs compare equal.
pub fn nan_last_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.total_cmp(&b),
    }
}

/// Sorts ascending with NaNs (of either sign) at the end.
pub fn sort_total(xs: &mut [f64]) {
    xs.sort_unstable_by(|a, b| nan_last_cmp(*a, *b));
}

/// Midpoint median of a scratch buffer (which it permutes): the middle
/// order statistic, or `(a + b) / 2` of the two middle ones; 0 when empty.
/// The ranks come from the workspace's selection kernel; the midpoint stays
/// here because `(a + b) / 2` and the type-7 `a + (b − a) · 0.5` of
/// [`stats::median`](hierod_timeseries::stats::median) differ in the last
/// bit, and the detectors built on this form are pinned bit for bit.
pub fn midpoint_median(scratch: &mut [f64]) -> f64 {
    let n = scratch.len();
    let (below, above) = (n.saturating_sub(1) / 2, n / 2);
    match order_pair(scratch, below, above) {
        Some((lo, hi)) if below < above => (lo + hi) / 2.0,
        Some((_, hi)) => hi,
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_orders_last_regardless_of_sign() {
        let mut xs = vec![f64::NAN, 1.0, -f64::NAN, f64::NEG_INFINITY, 0.5];
        sort_total(&mut xs);
        assert_eq!(xs[0], f64::NEG_INFINITY);
        assert_eq!(xs[1], 0.5);
        assert_eq!(xs[2], 1.0);
        assert!(xs[3].is_nan() && xs[4].is_nan());
    }

    #[test]
    fn nan_never_wins_a_min() {
        let xs = [3.0, f64::NAN, 1.0, 2.0];
        let min = xs.iter().copied().min_by(|a, b| nan_last_cmp(*a, *b));
        assert_eq!(min, Some(1.0));
    }

    #[test]
    fn comparators_are_deterministic_on_signed_zero() {
        assert_eq!(nan_last_cmp(-0.0, 0.0), Ordering::Less);
    }
}
