//! V-optimal histograms.
//!
//! Muthukrishnan et al.'s deviant-mining detector (Table 1 row *Histogram
//! Representation*, class ITM) scores points by how much the error of an
//! optimal histogram representation improves when the point is removed.
//! The V-optimal histogram here is the exact dynamic program (O(n²·B)),
//! verified against brute force by property tests.

use crate::dense::Dense;
use crate::error::{Error, Result};

/// One bucket of a V-optimal histogram: the index range `[start, end)`, the
/// represented mean, and the bucket's sum of squared errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// First covered index.
    pub start: usize,
    /// One-past-last covered index.
    pub end: usize,
    /// Bucket representative (mean of covered values).
    pub mean: f64,
    /// Sum of squared deviations from the mean within the bucket.
    pub sse: f64,
}

/// A V-optimal (minimum-SSE) histogram of a sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct VOptimalHistogram {
    buckets: Vec<Bucket>,
    total_sse: f64,
}

/// Prefix-sum helper giving O(1) SSE of any index range: entry `k` holds
/// the sum and the sum of squares of `xs[..k]`.
struct PrefixSse(Vec<(f64, f64)>);

impl PrefixSse {
    fn new(xs: &[f64]) -> Self {
        let mut prefix = Vec::with_capacity(xs.len() + 1);
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        prefix.push((sum, sum_sq));
        for &x in xs {
            sum += x;
            sum_sq += x * x;
            prefix.push((sum, sum_sq));
        }
        Self(prefix)
    }

    /// SSE of `xs[i..j]` around its own mean (0 for empty or singleton).
    fn sse(&self, i: usize, j: usize) -> f64 {
        match (self.0.get(i), self.0.get(j)) {
            (Some(&from), Some(&to)) => span_sse(from, to, j.saturating_sub(i)),
            _ => 0.0,
        }
    }

    fn mean(&self, i: usize, j: usize) -> f64 {
        match (self.0.get(i), self.0.get(j)) {
            (Some(&(s_i, _)), Some(&(s_j, _))) => (s_j - s_i) / (j - i) as f64,
            _ => f64::NAN,
        }
    }
}

/// SSE around its own mean of the `len`-element span between two prefix
/// entries (0 for empty or singleton spans).
fn span_sse((s_i, ss_i): (f64, f64), (s_j, ss_j): (f64, f64), len: usize) -> f64 {
    if len <= 1 {
        return 0.0;
    }
    let s = s_j - s_i;
    let ss = ss_j - ss_i;
    (ss - s * s / len as f64).max(0.0)
}

impl VOptimalHistogram {
    /// Computes the exact minimum-SSE partition of `xs` into at most
    /// `buckets` contiguous buckets (dynamic programming, O(n²·B)).
    ///
    /// # Errors
    /// Returns an error on empty input or `buckets == 0`.
    pub fn fit(xs: &[f64], buckets: usize) -> Result<Self> {
        if xs.is_empty() {
            return Err(Error::Empty {
                what: "VOptimalHistogram::fit",
            });
        }
        if buckets == 0 {
            return Err(Error::invalid("buckets", "must be > 0"));
        }
        let n = xs.len();
        let b = buckets.min(n);
        let pre = PrefixSse::new(xs);
        // `prev[j]`/`cur[j]` = min SSE of xs[0..j] using exactly k-1 / k
        // buckets; choice[k][j] = split point i (bucket k covers xs[i..j]).
        let inf = f64::INFINITY;
        let mut prev = vec![inf; n + 1];
        let mut cur = vec![inf; n + 1];
        if let Some(origin) = prev.first_mut() {
            *origin = 0.0;
        }
        let mut choice = Dense::filled(b + 1, n + 1, 0_usize);
        for (k, choice_k) in choice.rows_mut().enumerate().skip(1) {
            cur.fill(inf);
            for (j, (best_sse, best_split)) in cur.iter_mut().zip(choice_k).enumerate().skip(k) {
                let Some(&to) = pre.0.get(j) else { break };
                let mut best = inf;
                let mut best_i = k - 1;
                // Bucket k covers xs[i..j].
                for i in (k - 1)..j {
                    let (Some(&p), Some(&from)) = (prev.get(i), pre.0.get(i)) else {
                        break;
                    };
                    if p == inf {
                        continue;
                    }
                    let cand = p + span_sse(from, to, j - i);
                    if cand < best {
                        best = cand;
                        best_i = i;
                    }
                }
                *best_sse = best;
                *best_split = best_i;
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        // Using fewer buckets can never help (SSE is monotone in B), so take
        // exactly b buckets.
        let mut bounds = Vec::with_capacity(b + 1);
        let mut j = n;
        bounds.push(n);
        for choice_k in choice.rows().skip(1).rev() {
            j = choice_k.get(j).copied().unwrap_or(0);
            bounds.push(j);
        }
        bounds.reverse();
        let out = bounds
            .iter()
            .zip(bounds.iter().skip(1))
            .map(|(&i, &j)| Bucket {
                start: i,
                end: j,
                mean: pre.mean(i, j),
                sse: pre.sse(i, j),
            })
            .collect();
        Ok(Self {
            total_sse: prev.last().copied().unwrap_or(inf),
            buckets: out,
        })
    }

    /// The buckets, in index order.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Total SSE of the representation.
    pub(crate) fn total_sse(&self) -> f64 {
        self.total_sse
    }
}

/// Exact minimum SSE of partitioning `xs` into at most `buckets` contiguous
/// buckets — convenience wrapper returning only the objective value.
///
/// # Errors
/// Same conditions as [`VOptimalHistogram::fit`].
pub fn v_optimal_sse(xs: &[f64], buckets: usize) -> Result<f64> {
    Ok(VOptimalHistogram::fit(xs, buckets)?.total_sse())
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn v_optimal_two_level_signal_needs_two_buckets() {
        let xs = [1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0];
        let h1 = VOptimalHistogram::fit(&xs, 1).unwrap();
        assert!(h1.total_sse() > 100.0);
        let h2 = VOptimalHistogram::fit(&xs, 2).unwrap();
        assert!(h2.total_sse() < EPS);
        assert_eq!(h2.buckets().len(), 2);
        assert_eq!(h2.buckets()[0].end, 4);
        assert!((h2.buckets()[0].mean - 1.0).abs() < EPS);
        assert!((h2.buckets()[1].mean - 9.0).abs() < EPS);
    }

    #[test]
    fn v_optimal_sse_monotone_in_buckets() {
        let xs: Vec<f64> = (0..20).map(|i| ((i * 7) % 11) as f64).collect();
        let mut prev = f64::INFINITY;
        for b in 1..=8 {
            let sse = v_optimal_sse(&xs, b).unwrap();
            assert!(sse <= prev + EPS, "SSE must not increase with buckets");
            prev = sse;
        }
        // n buckets represent exactly.
        assert!(v_optimal_sse(&xs, 20).unwrap() < EPS);
        // More buckets than points is clamped, still exact.
        assert!(v_optimal_sse(&xs, 50).unwrap() < EPS);
    }

    #[test]
    fn v_optimal_matches_brute_force_small() {
        // Brute-force all 2-bucket splits of a small array.
        let xs = [4.0, 1.0, 7.0, 2.0, 9.0, 3.0];
        let pre = PrefixSse::new(&xs);
        let mut best = f64::INFINITY;
        for split in 1..xs.len() {
            let cand = pre.sse(0, split) + pre.sse(split, xs.len());
            best = best.min(cand);
        }
        let dp = v_optimal_sse(&xs, 2).unwrap();
        assert!((dp - best).abs() < EPS);
    }

    #[test]
    fn v_optimal_validates() {
        assert!(VOptimalHistogram::fit(&[], 2).is_err());
        assert!(VOptimalHistogram::fit(&[1.0], 0).is_err());
    }

    #[test]
    fn buckets_tile_the_range() {
        let xs: Vec<f64> = (0..17).map(|i| (i as f64 * 0.77).sin()).collect();
        let h = VOptimalHistogram::fit(&xs, 5).unwrap();
        let bs = h.buckets();
        assert_eq!(bs.first().unwrap().start, 0);
        assert_eq!(bs.last().unwrap().end, 17);
        for w in bs.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }
}
