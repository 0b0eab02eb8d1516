//! Rolling robust-z: median/MAD over a sliding window, updated per sample.

use std::collections::VecDeque;

use crate::api::Result;
use crate::online::OnlineScorer;
use crate::stat::float::sort_total;
use crate::DetectError;

/// A bounded sliding window kept simultaneously in arrival order and in
/// sorted order, so rank statistics (median, neighbours) are O(log w)
/// lookups with O(w) insert/evict — cheap for the small windows streaming
/// uses.
#[derive(Debug)]
pub(crate) struct SortedWindow {
    capacity: usize,
    arrival: VecDeque<f64>,
    sorted: Vec<f64>,
}

impl SortedWindow {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            arrival: VecDeque::with_capacity(capacity),
            sorted: Vec::with_capacity(capacity),
        }
    }

    /// Inserts `v`, evicting the oldest sample once full.
    pub(crate) fn push(&mut self, v: f64) {
        if self.arrival.len() == self.capacity {
            if let Some(old) = self.arrival.pop_front() {
                self.remove_sorted(old);
            }
        }
        self.arrival.push_back(v);
        let at = self
            .sorted
            .partition_point(|x| x.total_cmp(&v) == std::cmp::Ordering::Less);
        self.sorted.insert(at, v);
    }

    fn remove_sorted(&mut self, v: f64) {
        let at = self
            .sorted
            .partition_point(|x| x.total_cmp(&v) == std::cmp::Ordering::Less);
        // The evicted value entered through `push`, so an element with its
        // exact bit pattern sits at the start of its total_cmp-equal run.
        if self
            .sorted
            .get(at)
            .is_some_and(|x| x.total_cmp(&v) == std::cmp::Ordering::Equal)
        {
            self.sorted.remove(at);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The window's values in ascending (total) order.
    pub(crate) fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// Median of the window (mean of the two middles when even).
    pub(crate) fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let mid = n / 2;
        if n % 2 == 1 {
            self.sorted.get(mid).copied()
        } else {
            match (self.sorted.get(mid - 1), self.sorted.get(mid)) {
                (Some(a), Some(b)) => Some((a + b) / 2.0),
                _ => None,
            }
        }
    }
}

/// True incremental robust-z: each sample is scored against the median and
/// MAD of the last `window` samples (itself included) the moment it
/// arrives — O(window) per sample, no deferred emission.
///
/// Mirrors the batch [`robust_z`](crate::engine::robust_z) convention,
/// including the standard-deviation fallback when the MAD collapses, but
/// over a *moving* window rather than the whole series: scores converge to
/// batch on stationary streams and adapt faster on drifting ones.
#[derive(Debug)]
pub struct RollingRobustZ {
    window: SortedWindow,
    scratch: Vec<f64>,
}

impl RollingRobustZ {
    /// Creates a rolling robust-z over the last `window` samples.
    ///
    /// # Errors
    /// Rejects `window < 3` (no spread to estimate below that).
    pub fn new(window: usize) -> Result<Self> {
        if window < 3 {
            return Err(DetectError::invalid("window", "must be >= 3"));
        }
        Ok(Self {
            window: SortedWindow::new(window),
            scratch: Vec::with_capacity(window),
        })
    }
}

/// Median of `|x − med|` over a window already in ascending total order,
/// without materialising or sorting the deviations.
///
/// `|x − med|` over a sorted slice is a V shape: deviations of values
/// below the median descend toward the crossover, deviations at or above
/// it ascend away from it. The deviation multiset is therefore a merge of
/// two ascending runs, and the median deviation is a two-pointer
/// selection — O(w) instead of the O(w log w) re-sort, and it picks the
/// exact same middle elements (so the MAD is bit-identical).
///
/// Callers must ensure the window is entirely finite: the run-ordering
/// argument does not survive NaN arithmetic.
fn mad_of_sorted_finite(sorted: &[f64], med: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let crossover = sorted.partition_point(|x| x.total_cmp(&med) == std::cmp::Ordering::Less);
    // Walk the merge far enough to see both middle ranks.
    let mut lo = crossover; // next low-side element is sorted[lo - 1]
    let mut hi = crossover; // next high-side element is sorted[hi]
    let mut prev = 0.0;
    let mut cur = 0.0;
    for _ in 0..n / 2 + 1 {
        prev = cur;
        let low = sorted.get(..lo).and_then(<[f64]>::last).map(|x| med - x);
        let high = sorted.get(hi).map(|x| x - med);
        cur = match (low, high) {
            (Some(a), Some(b)) => {
                if a.total_cmp(&b) != std::cmp::Ordering::Greater {
                    lo -= 1;
                    a
                } else {
                    hi += 1;
                    b
                }
            }
            (Some(a), None) => {
                lo -= 1;
                a
            }
            (None, Some(b)) => {
                hi += 1;
                b
            }
            (None, None) => 0.0,
        };
    }
    if n % 2 == 1 {
        cur
    } else {
        (prev + cur) / 2.0
    }
}

impl OnlineScorer for RollingRobustZ {
    fn push(&mut self, _timestamp: u64, value: f64, out: &mut Vec<f64>) -> Result<()> {
        self.window.push(value);
        let med = self.window.median().unwrap_or(value);
        let n = self.window.len();
        let all_finite = self
            .window
            .sorted()
            .first()
            .zip(self.window.sorted().last())
            .is_none_or(|(lo, hi)| lo.is_finite() && hi.is_finite());
        let mad = if all_finite {
            mad_of_sorted_finite(self.window.sorted(), med)
        } else {
            // Non-finite values break the two-run merge argument; fall
            // back to the literal definition on the scratch buffer.
            self.scratch.clear();
            self.scratch
                .extend(self.window.sorted().iter().map(|x| (x - med).abs()));
            sort_total(&mut self.scratch);
            if n % 2 == 1 {
                self.scratch.get(n / 2).copied().unwrap_or(0.0)
            } else {
                match (self.scratch.get(n / 2 - 1), self.scratch.get(n / 2)) {
                    (Some(a), Some(b)) => (a + b) / 2.0,
                    _ => 0.0,
                }
            }
        };
        let spread = if mad > 1e-12 {
            mad
        } else {
            // MAD collapsed (mostly-identical window): std-dev fallback,
            // matching the batch `robust_z`.
            let mean = self.window.sorted().iter().sum::<f64>() / n.max(1) as f64;
            let var = self
                .window
                .sorted()
                .iter()
                .map(|x| (x - mean) * (x - mean))
                .sum::<f64>()
                / n.max(1) as f64;
            var.sqrt()
        };
        let score = if spread > 1e-12 {
            (value - med).abs() / spread
        } else {
            0.0
        };
        out.push(score);
        Ok(())
    }

    fn finish(&mut self, _out: &mut Vec<f64>) -> Result<()> {
        Ok(())
    }

    fn name(&self) -> &'static str {
        "rolling-robust-z"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_window_evicts_oldest_and_stays_sorted() {
        let mut w = SortedWindow::new(3);
        for v in [5.0, 1.0, 3.0, 2.0, 2.0] {
            w.push(v);
        }
        // 5.0 and 1.0 evicted; window is {3.0, 2.0, 2.0}.
        assert_eq!(w.sorted(), &[2.0, 2.0, 3.0]);
        assert_eq!(w.median(), Some(2.0));
    }

    #[test]
    fn spike_scores_far_above_steady_state() {
        let mut s = RollingRobustZ::new(16).expect("window");
        let mut out = Vec::new();
        for t in 0..64_u64 {
            let v = if t == 50 {
                40.0
            } else {
                (t as f64 * 0.3).sin()
            };
            s.push(t, v, &mut out).expect("push");
        }
        s.finish(&mut out).expect("finish");
        assert_eq!(out.len(), 64);
        let spike = out.remove(50);
        let typical = out.iter().copied().fold(0.0, f64::max);
        assert!(
            spike > 4.0 * typical.max(1e-9),
            "spike {spike} vs typical {typical}"
        );
    }

    #[test]
    fn constant_stream_scores_zero() {
        let mut s = RollingRobustZ::new(8).expect("window");
        let mut out = Vec::new();
        for t in 0..20_u64 {
            s.push(t, 7.0, &mut out).expect("push");
        }
        assert!(out.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn window_is_validated() {
        assert!(RollingRobustZ::new(2).is_err());
        assert!(RollingRobustZ::new(3).is_ok());
    }

    /// The pre-optimisation scorer: recompute `|x − med|` and re-sort the
    /// scratch buffer on every push. Kept verbatim as the reference the
    /// merge-selection implementation must match bit-for-bit.
    struct ReferenceRollingRobustZ {
        window: SortedWindow,
        scratch: Vec<f64>,
    }

    impl ReferenceRollingRobustZ {
        fn new(window: usize) -> Self {
            Self {
                window: SortedWindow::new(window),
                scratch: Vec::with_capacity(window),
            }
        }

        fn push(&mut self, value: f64) -> f64 {
            self.window.push(value);
            let med = self.window.median().unwrap_or(value);
            self.scratch.clear();
            self.scratch
                .extend(self.window.sorted().iter().map(|x| (x - med).abs()));
            sort_total(&mut self.scratch);
            let n = self.scratch.len();
            let mad = if n % 2 == 1 {
                self.scratch.get(n / 2).copied().unwrap_or(0.0)
            } else {
                match (self.scratch.get(n / 2 - 1), self.scratch.get(n / 2)) {
                    (Some(a), Some(b)) => (a + b) / 2.0,
                    _ => 0.0,
                }
            };
            let spread = if mad > 1e-12 {
                mad
            } else {
                let mean = self.window.sorted().iter().sum::<f64>() / n.max(1) as f64;
                let var = self
                    .window
                    .sorted()
                    .iter()
                    .map(|x| (x - mean) * (x - mean))
                    .sum::<f64>()
                    / n.max(1) as f64;
                var.sqrt()
            };
            if spread > 1e-12 {
                (value - med).abs() / spread
            } else {
                0.0
            }
        }
    }

    fn assert_bit_equivalent(window: usize, values: &[f64]) {
        let mut fast = RollingRobustZ::new(window).expect("window");
        let mut reference = ReferenceRollingRobustZ::new(window);
        let mut out = Vec::new();
        for (t, &v) in values.iter().enumerate() {
            out.clear();
            fast.push(t as u64, v, &mut out).expect("push");
            let got = *out.last().expect("scored");
            let want = reference.push(v);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "window={window} t={t} v={v}: fast {got} != reference {want}"
            );
        }
    }

    /// A small deterministic LCG so the regression streams are stable
    /// across runs without pulling in a RNG dependency.
    fn lcg_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Map to a modest range with repeats likely at low bits.
                ((state >> 40) as f64) / 1024.0 - 8192.0
            })
            .collect()
    }

    #[test]
    fn merge_selection_matches_resorting_reference_bit_for_bit() {
        for &window in &[3, 4, 5, 8, 16, 33, 256] {
            for seed in 1..=4_u64 {
                assert_bit_equivalent(window, &lcg_stream(seed * 7919, 600));
            }
        }
    }

    #[test]
    fn merge_selection_matches_reference_on_degenerate_streams() {
        // Constant runs (MAD collapse → std-dev fallback), duplicates,
        // alternations, monotone ramps, and sign changes around zero.
        assert_bit_equivalent(4, &[7.0; 32]);
        assert_bit_equivalent(5, &[1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 2.0, 2.0, 1.0, 2.0]);
        assert_bit_equivalent(8, &(0..64).map(f64::from).collect::<Vec<_>>());
        assert_bit_equivalent(8, &(0..64).map(|i| f64::from(-i)).collect::<Vec<_>>());
        assert_bit_equivalent(
            6,
            &[
                0.0, -0.0, 1.0, -1.0, 0.0, -0.0, 2.0, -2.0, 0.5, -0.5, 0.0, 0.0,
            ],
        );
        assert_bit_equivalent(3, &[1e300, -1e300, 1e-300, 0.0, -1e-300, 1e300]);
    }

    #[test]
    fn merge_selection_matches_reference_with_non_finite_values() {
        // Non-finite windows take the literal re-sort fallback; behaviour
        // must still match the reference exactly.
        assert_bit_equivalent(
            4,
            &[
                1.0,
                f64::INFINITY,
                2.0,
                3.0,
                f64::NEG_INFINITY,
                4.0,
                5.0,
                6.0,
                7.0,
            ],
        );
        assert_bit_equivalent(5, &[1.0, 2.0, f64::NAN, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }
}
