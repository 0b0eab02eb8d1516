//! Property-based tests for the time-series substrate invariants.

use hierod_timeseries::distance::{dtw, lcs_len, lcs_similarity};
use hierod_timeseries::fft::{fft_in_place, Complex};
use hierod_timeseries::histogram::{v_optimal_sse, VOptimalHistogram};
use hierod_timeseries::normalize::z_normalize;
use hierod_timeseries::sax::paa;
use hierod_timeseries::stats;
use hierod_timeseries::window::{window_scores_to_point_scores, windows, WindowSpec};
use proptest::prelude::*;

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3_f64..1e3, len)
}

proptest! {
    #[test]
    fn mean_lies_between_min_and_max(xs in finite_vec(1..64)) {
        let m = stats::mean(&xs).unwrap();
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn variance_is_non_negative(xs in finite_vec(1..64)) {
        prop_assert!(stats::variance(&xs).unwrap() >= -1e-9);
    }

    #[test]
    fn quantile_is_monotone_in_q(xs in finite_vec(1..64), q1 in 0.0_f64..1.0, q2 in 0.0_f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = stats::quantile(&xs, lo).unwrap();
        let b = stats::quantile(&xs, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
    }

    #[test]
    fn dtw_identity_and_bound(a in prop::collection::vec(-50.0_f64..50.0, 2..24)) {
        prop_assert!(dtw(&a, &a, None).unwrap() < 1e-9);
        // Unconstrained DTW never exceeds Euclidean on equal lengths: a unit
        // shift is sqrt(n) apart.
        let shifted: Vec<f64> = a.iter().map(|x| x + 1.0).collect();
        let d = dtw(&a, &shifted, None).unwrap();
        prop_assert!(d <= (a.len() as f64).sqrt() + 1e-9);
    }

    #[test]
    fn dtw_symmetric(
        a in prop::collection::vec(-50.0_f64..50.0, 2..16),
        b in prop::collection::vec(-50.0_f64..50.0, 2..16),
    ) {
        let d1 = dtw(&a, &b, None).unwrap();
        let d2 = dtw(&b, &a, None).unwrap();
        prop_assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn lcs_len_bounded_by_shorter(
        a in prop::collection::vec(0_u16..5, 0..20),
        b in prop::collection::vec(0_u16..5, 0..20),
    ) {
        let l = lcs_len(&a, &b);
        prop_assert!(l <= a.len().min(b.len()));
        let sim = lcs_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&sim));
    }

    #[test]
    fn lcs_of_self_is_full_length(a in prop::collection::vec(0_u16..5, 0..20)) {
        prop_assert_eq!(lcs_len(&a, &a), a.len());
    }

    #[test]
    fn z_normalize_idempotent_shape(xs in finite_vec(2..32)) {
        let z = z_normalize(&xs).unwrap();
        let zz = z_normalize(&z).unwrap();
        for (a, b) in z.iter().zip(&zz) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn paa_conserves_mean(xs in finite_vec(1..64), segs in 1_usize..16) {
        prop_assume!(segs <= xs.len());
        let p = paa(&xs, segs).unwrap();
        // Fractional PAA conserves total mass exactly.
        let mean_in = stats::mean(&xs).unwrap();
        let mean_out = stats::mean(&p).unwrap();
        prop_assert!((mean_in - mean_out).abs() < 1e-6);
    }

    #[test]
    fn fft_roundtrip(xs in prop::collection::vec(-100.0_f64..100.0, 16)) {
        let mut buf: Vec<Complex> = xs.iter().map(|&x| Complex::new(x, 0.0)).collect();
        fft_in_place(&mut buf, false).unwrap();
        fft_in_place(&mut buf, true).unwrap();
        for (c, &x) in buf.iter().zip(&xs) {
            prop_assert!((c.re - x).abs() < 1e-6);
            prop_assert!(c.im.abs() < 1e-6);
        }
    }

    #[test]
    fn v_optimal_monotone_and_bounded(xs in finite_vec(2..24), b in 1_usize..6) {
        let sse_b = v_optimal_sse(&xs, b).unwrap();
        let sse_b1 = v_optimal_sse(&xs, b + 1).unwrap();
        prop_assert!(sse_b1 <= sse_b + 1e-6);
        // One bucket equals n * variance.
        let one = v_optimal_sse(&xs, 1).unwrap();
        let nvar = stats::variance(&xs).unwrap() * xs.len() as f64;
        prop_assert!((one - nvar).abs() < 1e-5 * (1.0 + nvar));
    }

    #[test]
    fn v_optimal_buckets_tile(xs in finite_vec(1..24), b in 1_usize..6) {
        let h = VOptimalHistogram::fit(&xs, b).unwrap();
        let bs = h.buckets();
        prop_assert_eq!(bs.first().unwrap().start, 0);
        prop_assert_eq!(bs.last().unwrap().end, xs.len());
        for w in bs.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn window_count_matches_iterator(n in 0_usize..200, len in 1_usize..20, stride in 1_usize..10) {
        let data = vec![0.0; n];
        let spec = WindowSpec::new(len, stride).unwrap();
        prop_assert_eq!(windows(&data, spec).count(), spec.count(n));
    }

    #[test]
    fn window_point_spread_max_bounded(
        scores in prop::collection::vec(0.0_f64..10.0, 1..20),
        len in 1_usize..8,
        stride in 1_usize..4,
    ) {
        let spec = WindowSpec::new(len, stride).unwrap();
        let n = (scores.len() - 1) * stride + len;
        let pts = window_scores_to_point_scores(n, spec, &scores);
        let max_w = scores.iter().copied().fold(0.0_f64, f64::max);
        for p in &pts {
            prop_assert!(*p <= max_w + 1e-12);
            prop_assert!(*p >= 0.0);
        }
        // The max window score must appear somewhere.
        let max_p = pts.iter().copied().fold(0.0_f64, f64::max);
        prop_assert!((max_p - max_w).abs() < 1e-12);
    }
}

// ---------------------------------------------------------------------
// Order statistics by selection: `stats::{quantile, median, mad}` against
// the copy-and-sort definitions they replaced, kept here as the oracle.

/// The sort-based definition's neighbours: the two order statistics a
/// type-7 quantile interpolates between, and the interpolation weight.
fn sorted_neighbours(xs: &[f64], q: f64) -> (f64, f64, f64) {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let h = q * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    (sorted[lo], sorted[hi], frac)
}

/// The sort-based quantile, with the one case the selection kernel was
/// asked to answer differently: between two equal infinities the
/// interpolation is `∞ − ∞`, and the quantile is that infinity, not NaN.
fn sorted_quantile(xs: &[f64], q: f64) -> f64 {
    let (lo, hi, frac) = sorted_neighbours(xs, q);
    if lo == hi && lo.is_infinite() {
        return lo;
    }
    lo + (hi - lo) * frac
}

/// The sort-based MAD: a fresh deviation vector, its median scaled.
fn sorted_mad(xs: &[f64]) -> f64 {
    let med = sorted_quantile(xs, 0.5);
    let dev: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    1.4826 * sorted_quantile(&dev, 0.5)
}

/// `(median, MAD)` by two [`stats::quantile_in`] selections under
/// `total_cmp` over one copy — the `order_pair` path the keyed
/// [`stats::median_mad`] replaced, kept as its oracle.
fn order_pair_median_mad(xs: &[f64]) -> (f64, f64) {
    let mut scratch = xs.to_vec();
    let med = stats::quantile_in(&mut scratch, 0.5).unwrap();
    for x in scratch.iter_mut() {
        *x = (*x - med).abs();
    }
    (med, 1.4826 * stats::quantile_in(&mut scratch, 0.5).unwrap())
}

/// [`any_f64`], with subnormals of either sign as a class of their own.
fn any_f64_or_subnormal() -> impl Strategy<Value = f64> {
    (any_f64(), any::<u64>(), 0_u8..5).prop_map(|(x, bits, kind)| match kind {
        0 => f64::from_bits(bits % (1_u64 << 52)),
        1 => -f64::from_bits(bits % (1_u64 << 52)),
        _ => x,
    })
}

/// Any `f64` at all — raw bit patterns (both NaN signs, payloads,
/// subnormals), the special values, and small integers so long runs of
/// duplicates are the rule rather than the exception.
fn any_f64() -> impl Strategy<Value = f64> {
    const SPECIAL: [f64; 8] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MAX,
        f64::MIN_POSITIVE,
        -1.0,
    ];
    (any::<u64>(), 0_u8..4).prop_map(|(bits, kind)| match kind {
        0 => f64::from_bits(bits),
        1 => SPECIAL[(bits % 8) as usize].copysign(if bits & 8 == 0 { 1.0 } else { -1.0 }),
        2 => (bits % 4) as f64,
        _ => (bits as i64 as f64) * 1e-15,
    })
}

/// Vectors of 1–2,000 arbitrary floats, as drawn, ascending or descending.
fn any_series() -> impl Strategy<Value = Vec<f64>> {
    (prop::collection::vec(any_f64(), 1..=2000_usize), 0_u8..3).prop_map(|(mut xs, shape)| {
        match shape {
            0 => {}
            1 => xs.sort_by(f64::total_cmp),
            _ => xs.sort_by(|a, b| b.total_cmp(a)),
        }
        xs
    })
}

proptest! {
    #[test]
    fn selected_quantiles_are_the_sorted_ones_bit_for_bit(
        xs in any_series(),
        q in 0.0_f64..=1.0,
    ) {
        for q in [q, 0.0, 0.25, 0.5, 0.75, 1.0] {
            prop_assert_eq!(
                stats::quantile(&xs, q).unwrap().to_bits(),
                sorted_quantile(&xs, q).to_bits(),
                "q = {}", q
            );
        }
        prop_assert_eq!(
            stats::median(&xs).unwrap().to_bits(),
            sorted_quantile(&xs, 0.5).to_bits()
        );
        // Several quantiles off one scratch: each selection sees whatever
        // permutation the previous one left.
        let mut scratch = xs.clone();
        for q in [0.5, 0.25, 0.75, q] {
            prop_assert_eq!(
                stats::quantile_in(&mut scratch, q).unwrap().to_bits(),
                sorted_quantile(&xs, q).to_bits()
            );
        }
    }

    #[test]
    fn keyed_median_mad_is_the_order_pair_one_bit_for_bit(
        short in prop::collection::vec(any_f64_or_subnormal(), 1..=64_usize),
        long in prop::collection::vec(any_f64_or_subnormal(), 1990..=2010_usize),
    ) {
        for xs in [&short, &long] {
            let (med, mad) = stats::median_mad(xs).unwrap();
            let (want_med, want_mad) = order_pair_median_mad(xs);
            prop_assert_eq!(med.to_bits(), want_med.to_bits());
            prop_assert_eq!(mad.to_bits(), want_mad.to_bits());
        }
        // Every element one value: duplicates all the way down.
        let run = vec![short[0]; short.len()];
        let (med, mad) = stats::median_mad(&run).unwrap();
        let (want_med, want_mad) = order_pair_median_mad(&run);
        prop_assert_eq!((med.to_bits(), mad.to_bits()), (want_med.to_bits(), want_mad.to_bits()));
    }

    #[test]
    fn selected_mad_is_the_sorted_one_bit_for_bit(xs in any_series()) {
        prop_assert_eq!(stats::mad(&xs).unwrap().to_bits(), sorted_mad(&xs).to_bits());
        let (med, mad) = stats::median_mad(&xs).unwrap();
        prop_assert_eq!(med.to_bits(), sorted_quantile(&xs, 0.5).to_bits());
        prop_assert_eq!(mad.to_bits(), sorted_mad(&xs).to_bits());
    }
}
