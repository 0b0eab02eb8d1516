//! Order statistics: the median, the quartiles as Python's
//! `statistics.quantiles(values, n=4)` gives them (the acceptance check
//! uses those), and the tail picker.

/// Percentiles a tail may be reported at, highest first, in tenths of a
/// percent so that ranks are exact integers.
const TAIL_LADDER: [usize; 5] = [990, 950, 900, 750, 500];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of a percentile given in tenths of a percent.
fn rank_of(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// Median (mean of the two middle values for an even count); 0 when
/// there is nothing to take it of.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of `f` over `items`.
pub fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it, and its value: `(percentile, value)`. With fewer
/// than twenty samples no percentile qualifies and the median is
/// returned as p50 — the caller states the sample count.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    if v.is_empty() {
        return (50.0, 0.0);
    }
    let n = v.len();
    let per_mille = TAIL_LADDER
        .into_iter()
        .find(|&p| n - rank_of(n, p) >= 10)
        .unwrap_or(500);
    (per_mille as f64 / 10.0, v[rank_of(n, per_mille) - 1])
}

/// A whole-number percentile by nearest rank; 0 for no samples.
pub fn percentile(values: &[f64], p: usize) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        0.0
    } else {
        v[rank_of(v.len(), p * 10) - 1]
    }
}

/// First quartile, median, third quartile — the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`. Needs two values; one
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(
            tail(&ramp(100_000)),
            (99.0, 99_000.0),
            "the ladder ends at p99"
        );
        // 1_000 samples: p99 leaves exactly 10 beyond; 999 leave 9.
        assert_eq!(tail(&ramp(1_000)), (99.0, 990.0));
        assert_eq!(tail(&ramp(999)).0, 95.0);
        assert_eq!(tail(&ramp(200)), (95.0, 190.0));
        assert_eq!(tail(&ramp(199)).0, 90.0);
        assert_eq!(tail(&ramp(100)), (90.0, 90.0));
        assert_eq!(tail(&ramp(40)), (75.0, 30.0));
        assert_eq!(tail(&ramp(24)), (50.0, 12.0));
        // Too few for any tail: the median, labelled p50.
        assert_eq!(tail(&ramp(7)), (50.0, 4.0));
        assert_eq!(tail(&[]), (50.0, 0.0));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(400);
        v.reverse();
        assert_eq!(tail(&v), (95.0, 380.0));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&ramp(100), 95), 95.0);
        assert_eq!(percentile(&ramp(10), 10), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 30, 45, 50], n=4) == [15.0, 30.0, 47.5]
        assert_eq!(
            quartiles(&[10.0, 50.0, 30.0, 20.0, 45.0]),
            (15.0, 30.0, 47.5)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
