//! Sliding-window neighbour scorers: kNN distance and simplified LOF,
//! re-using the sorted window so neighbour queries are two-pointer walks
//! instead of distance-matrix scans.

use crate::api::Result;
use crate::online::rolling::SortedWindow;
use crate::online::OnlineScorer;
use crate::related::distance_matrix_into;
use crate::DetectError;

/// The one outward walk: visits up to `k` elements of `sorted` nearest to
/// `v` as `(index, distance)`, nearest first, starting at `v`'s insertion
/// point and taking the closer of the two frontier elements each step (the
/// lower side on a tie). `exclude` marks one index to skip (an element
/// asking about its own neighbours). Returns how many were visited —
/// fewer than `k` only when `sorted` ran out.
fn walk_nearest(
    sorted: &[f64],
    v: f64,
    k: usize,
    exclude: Option<usize>,
    mut visit: impl FnMut(usize, f64),
) -> usize {
    let mut right = sorted.partition_point(|x| x.total_cmp(&v) == std::cmp::Ordering::Less);
    let mut left = right.checked_sub(1);
    let mut taken = 0;
    while taken < k {
        if exclude.is_some() && left == exclude {
            left = left.and_then(|i| i.checked_sub(1));
            continue;
        }
        if Some(right) == exclude {
            right += 1;
            continue;
        }
        let below = left.and_then(|i| Some((i, (v - sorted.get(i)?).abs())));
        let above = sorted.get(right).map(|x| (x - v).abs());
        match (below, above) {
            (Some((i, a)), b) if b.is_none_or(|b| a <= b) => {
                visit(i, a);
                left = i.checked_sub(1);
            }
            (_, Some(b)) => {
                visit(right, b);
                right += 1;
            }
            (_, None) => break,
        }
        taken += 1;
    }
    taken
}

/// Distance from `v` to its k-th nearest element of `sorted`; `None` when
/// `sorted` holds fewer than `k`.
fn kth_nearest(sorted: &[f64], v: f64, k: usize) -> Option<f64> {
    let mut dist = 0.0;
    (walk_nearest(sorted, v, k, None, |_, d| dist = d) == k).then_some(dist)
}

/// k-distance of the element at index `g` of `sorted` (self excluded), in
/// O(k): in sorted 1-D data the k nearest neighbours of an element form a
/// contiguous window of k+1 positions containing it, so the k-distance is
/// the best over the k+1 candidate windows of the wider edge distance.
/// Exactly equal to the [`kth_nearest`] walk (both compute plain
/// differences of sorted values).
fn kdist_sorted(sorted: &[f64], g: usize, k: usize) -> f64 {
    let len = sorted.len();
    let Some(top) = len.checked_sub(k + 1) else {
        // Fewer than k neighbours exist; mirror kth_nearest's miss value.
        return 0.0;
    };
    let Some(&gv) = sorted.get(g) else {
        return 0.0;
    };
    let a_min = g.saturating_sub(k).min(top);
    let a_max = g.min(top);
    let mut best = f64::INFINITY;
    for a in a_min..=a_max {
        let (Some(&left), Some(&right)) = (sorted.get(a), sorted.get(a + k)) else {
            continue;
        };
        best = best.min((gv - left).max(right - gv));
    }
    if best.is_finite() {
        best
    } else {
        0.0
    }
}

/// Indices of the k nearest elements of `sorted` to `v`, excluding
/// `exclude`.
fn nearest_indices(sorted: &[f64], v: f64, k: usize, exclude: Option<usize>) -> Vec<usize> {
    let mut picked = Vec::with_capacity(k);
    walk_nearest(sorted, v, k, exclude, |i, _| picked.push(i));
    picked
}

/// Sliding-window kNN: each sample's score is its distance to its k-th
/// nearest neighbour among the previous `window` samples (Ramaswamy-style
/// kNN outlierness, windowed). O(k + log w) per sample.
#[derive(Debug)]
pub struct SlidingKnn {
    window: SortedWindow,
    k: usize,
}

impl SlidingKnn {
    /// Creates a sliding kNN scorer.
    ///
    /// # Errors
    /// Rejects `k == 0` or `window <= k` (the window must hold at least
    /// k neighbours plus headroom).
    pub fn new(window: usize, k: usize) -> Result<Self> {
        if k == 0 {
            return Err(DetectError::invalid("k", "must be > 0"));
        }
        if window <= k {
            return Err(DetectError::invalid("window", "must be > k"));
        }
        Ok(Self {
            window: SortedWindow::new(window),
            k,
        })
    }
}

impl OnlineScorer for SlidingKnn {
    fn push(&mut self, _timestamp: u64, value: f64, out: &mut Vec<f64>) -> Result<()> {
        // Score against the window *before* inserting: a sample is judged
        // by its past, never by itself.
        let score = if self.window.len() >= self.k {
            kth_nearest(self.window.sorted(), value, self.k).unwrap_or(0.0)
        } else {
            0.0
        };
        self.window.push(value);
        out.push(score);
        Ok(())
    }

    fn finish(&mut self, _out: &mut Vec<f64>) -> Result<()> {
        Ok(())
    }

    fn name(&self) -> &'static str {
        "sliding-knn"
    }
}

/// Sliding-window LOF (simplified, 1-D): local reachability density of the
/// arriving sample against its k nearest window neighbours, compared to
/// the neighbours' own densities. Scores are `max(LOF − 1, 0)` so inliers
/// (LOF ≈ 1) sit at 0 and the score stays non-negative per the crate
/// convention.
///
/// Per push, all pairwise distances the score can touch are computed in
/// one call to the shared batched kernel
/// ([`distance_matrix_into`](crate::related)) over a band of sorted
/// positions around the arriving value's insertion point, with k-distances
/// memoized per band element — replacing the former per-neighbour outward
/// walks (O(k²·(k + log w)) branchy scans per sample) with one dense
/// O(k²) kernel pass into a reused scratch buffer.
#[derive(Debug)]
pub struct SlidingLof {
    window: SortedWindow,
    k: usize,
    /// Reused per-push scratch: flat band distance matrix (squared scale)
    /// and the per-band-element k-distance memo.
    flat: Vec<f64>,
    kdist: Vec<f64>,
}

impl SlidingLof {
    /// Creates a sliding LOF scorer.
    ///
    /// # Errors
    /// Rejects `k == 0` or `window <= k + 1`.
    pub fn new(window: usize, k: usize) -> Result<Self> {
        if k == 0 {
            return Err(DetectError::invalid("k", "must be > 0"));
        }
        if window <= k + 1 {
            return Err(DetectError::invalid("window", "must be > k + 1"));
        }
        Ok(Self {
            window: SortedWindow::new(window),
            k,
            flat: Vec::new(),
            kdist: Vec::new(),
        })
    }

    /// Scores `v` against the current window (which must hold > k samples).
    fn score_value(&mut self, v: f64) -> f64 {
        let k = self.k;
        let sorted = self.window.sorted();
        let p = sorted.partition_point(|x| x.total_cmp(&v) == std::cmp::Ordering::Less);
        // Every pairwise distance the score reads involves elements within
        // ±(2k+1) sorted positions of the insertion point: v's neighbours
        // sit within ±k and *their* neighbours within ±(2k+1). One batched
        // kernel call over that band computes them all; k-distances come
        // from the O(k) contiguous-window property instead (they would
        // need a 50% wider band and a selection per element).
        let radius = 2 * k + 1;
        let lo = p.saturating_sub(radius);
        let hi = (p + radius).min(sorted.len());
        let Some(band) = sorted.get(lo..hi) else {
            return 0.0;
        };
        let n_band = band.len();
        let vslot = [v];
        let mut rows: Vec<&[f64]> = Vec::with_capacity(n_band + 1);
        rows.extend(band.windows(1));
        rows.push(vslot.as_slice());
        // Squared distances from the kernel; sqrt is deferred to the ~k²
        // entries the score actually reads.
        distance_matrix_into(&rows, false, &mut self.flat);
        let n = n_band + 1; // matrix side; the last row/column is v
        self.kdist.clear();
        self.kdist.resize(n_band, -1.0);

        // k-distance of band element `j`, memoized (band elements recur
        // across overlapping neighbourhoods).
        fn kdist_at(sorted: &[f64], lo: usize, k: usize, memo: &mut [f64], j: usize) -> f64 {
            match memo.get(j) {
                Some(&cached) if cached >= 0.0 => return cached,
                None => return 0.0,
                _ => {}
            }
            let kd = kdist_sorted(sorted, lo + j, k);
            if let Some(slot) = memo.get_mut(j) {
                *slot = kd;
            }
            kd
        }

        // Local reachability density of band element `j` (self-excluded).
        let lrd_band = |flat: &[f64], memo: &mut [f64], j: usize| -> f64 {
            let g = lo + j;
            let Some(&gv) = sorted.get(g) else {
                return 0.0;
            };
            let neighbours = nearest_indices(sorted, gv, k, Some(g));
            if neighbours.is_empty() {
                return 0.0;
            }
            let mut reach_sum = 0.0;
            for &m in &neighbours {
                // The walk starts at the first element equal to `gv`, which
                // a run of more than 2k+1 duplicates puts below the band:
                // such a neighbour is at distance 0 with k-distance 0.
                let Some(mj) = m.checked_sub(lo) else {
                    continue;
                };
                let d = flat.get(j * n + mj).copied().unwrap_or(0.0).sqrt();
                reach_sum += d.max(kdist_at(sorted, lo, k, memo, mj));
            }
            if reach_sum <= f64::EPSILON {
                // Degenerate (identical values): infinite density, encoded
                // big.
                return 1.0 / f64::EPSILON;
            }
            neighbours.len() as f64 / reach_sum
        };

        let neighbours = nearest_indices(sorted, v, k, None);
        if neighbours.is_empty() {
            return 0.0;
        }
        let vrow = n_band;
        let mut reach_sum = 0.0;
        for &nb in &neighbours {
            let j = nb - lo;
            let d = self.flat.get(vrow * n + j).copied().unwrap_or(0.0).sqrt();
            reach_sum += d.max(kdist_at(sorted, lo, k, &mut self.kdist, j));
        }
        let lrd_v = if reach_sum <= f64::EPSILON {
            1.0 / f64::EPSILON
        } else {
            neighbours.len() as f64 / reach_sum
        };
        if lrd_v <= f64::EPSILON {
            return 0.0;
        }
        let mut lrd_sum = 0.0;
        for &nb in &neighbours {
            lrd_sum += lrd_band(&self.flat, &mut self.kdist, nb - lo);
        }
        let lof = (lrd_sum / neighbours.len() as f64) / lrd_v;
        (lof - 1.0).max(0.0)
    }
}

impl OnlineScorer for SlidingLof {
    fn push(&mut self, _timestamp: u64, value: f64, out: &mut Vec<f64>) -> Result<()> {
        let score = if self.window.len() > self.k {
            self.score_value(value)
        } else {
            0.0
        };
        self.window.push(value);
        out.push(score);
        Ok(())
    }

    fn finish(&mut self, _out: &mut Vec<f64>) -> Result<()> {
        Ok(())
    }

    fn name(&self) -> &'static str {
        "sliding-lof"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kth_nearest_walks_both_sides() {
        let sorted = [1.0, 2.0, 4.0, 7.0];
        assert_eq!(kth_nearest(&sorted, 3.0, 1), Some(1.0)); // 2.0 or 4.0
        assert_eq!(kth_nearest(&sorted, 3.0, 3), Some(2.0)); // {2,4,1}
        assert_eq!(kth_nearest(&sorted, 0.0, 4), Some(7.0));
        assert_eq!(kth_nearest(&sorted, 0.0, 5), None);
    }

    #[test]
    fn the_walk_can_exclude_self() {
        let sorted = [1.0, 2.0, 4.0];
        // Element at index 1 (value 2.0) asking for its own neighbours.
        let mut seen = Vec::new();
        let taken = walk_nearest(&sorted, 2.0, 3, Some(1), |i, d| seen.push((i, d)));
        assert_eq!((taken, seen), (2, vec![(0, 1.0), (2, 2.0)]));
        assert_eq!(nearest_indices(&sorted, 2.0, 1, Some(1)), vec![0]);
    }

    #[test]
    fn knn_flags_isolated_value() {
        let mut s = SlidingKnn::new(16, 3).expect("params");
        let mut out = Vec::new();
        for t in 0..40_u64 {
            let v = if t == 30 { 50.0 } else { (t % 5) as f64 };
            s.push(t, v, &mut out).expect("push");
        }
        let (at, best) = (out.iter().enumerate())
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty");
        assert_eq!(at, 30);
        assert!(*best > 40.0);
    }

    #[test]
    fn lof_flags_isolated_value_over_clustered_ones() {
        let mut s = SlidingLof::new(16, 3).expect("params");
        let mut out = Vec::new();
        for t in 0..40_u64 {
            let v = if t == 30 {
                50.0
            } else {
                (t % 7) as f64 * 0.1 // tight cluster
            };
            s.push(t, v, &mut out).expect("push");
        }
        let (at, best) = (out.iter().enumerate())
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty");
        assert_eq!(at, 30);
        assert!(*best > 1.0, "LOF spike score {best}");
    }

    #[test]
    fn lof_constant_stream_scores_zero() {
        // The wide window holds a run of duplicates longer than the band.
        for window in [8, 32] {
            let mut s = SlidingLof::new(window, 2).expect("params");
            let mut out = Vec::new();
            for t in 0..40_u64 {
                s.push(t, 3.0, &mut out).expect("push");
            }
            assert!(out.iter().all(|&s| s == 0.0), "{out:?}");
        }
    }

    #[test]
    fn parameters_are_validated() {
        assert!(SlidingKnn::new(4, 0).is_err());
        assert!(SlidingKnn::new(3, 3).is_err());
        assert!(SlidingLof::new(4, 3).is_err());
        assert!(SlidingLof::new(8, 3).is_ok());
    }
}
