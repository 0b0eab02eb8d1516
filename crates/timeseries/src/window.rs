//! Fixed-size overlapping window extraction.
//!
//! The paper (Section 3) singles out window-based detection: "outlier scores
//! are calculated for overlapping windows with fixed length as parameters"
//! and notes that this class "suits well for detecting exact positions of
//! anomalies". All sub-sequence (SSQ) detectors in `hierod-detect` consume
//! windows produced here.

use crate::error::{Error, Result};

/// Parameters for sliding-window extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window length in samples (> 0).
    pub len: usize,
    /// Hop between consecutive window starts in samples (> 0).
    /// `stride == len` gives non-overlapping tumbling windows; `stride == 1`
    /// gives maximally overlapping sliding windows.
    pub stride: usize,
}

impl WindowSpec {
    /// Creates a spec, validating both fields.
    ///
    /// # Errors
    /// Returns an error if `len == 0` or `stride == 0`.
    pub fn new(len: usize, stride: usize) -> Result<Self> {
        if len == 0 {
            return Err(Error::invalid("len", "window length must be > 0"));
        }
        if stride == 0 {
            return Err(Error::invalid("stride", "stride must be > 0"));
        }
        Ok(Self { len, stride })
    }

    /// Number of complete windows a sequence of length `n` yields.
    pub fn count(&self, n: usize) -> usize {
        if n < self.len {
            0
        } else {
            (n - self.len) / self.stride + 1
        }
    }
}

/// One extracted window: a view plus its position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window<'a> {
    /// Index of the first sample of this window in the source.
    pub start: usize,
    /// The window's values.
    pub values: &'a [f64],
}

/// Iterator over the complete windows of a slice.
#[derive(Debug, Clone)]
pub struct WindowIter<'a> {
    data: &'a [f64],
    spec: WindowSpec,
    next_start: usize,
}

impl<'a> Iterator for WindowIter<'a> {
    type Item = Window<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let end = self.next_start.checked_add(self.spec.len)?;
        let w = Window {
            start: self.next_start,
            values: self.data.get(self.next_start..end)?,
        };
        self.next_start += self.spec.stride;
        Some(w)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self
            .data
            .len()
            .saturating_sub(self.next_start)
            .checked_sub(self.spec.len)
            .map(|r| r / self.spec.stride + 1)
            .unwrap_or(0);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for WindowIter<'_> {}

/// Extracts complete windows from a slice.
pub fn windows(data: &[f64], spec: WindowSpec) -> WindowIter<'_> {
    WindowIter {
        data,
        spec,
        next_start: 0,
    }
}

/// Extracts complete windows of a discrete symbol sequence.
pub fn symbol_windows(symbols: &[u16], spec: WindowSpec) -> Vec<(usize, &[u16])> {
    let mut out = Vec::with_capacity(spec.count(symbols.len()));
    let mut start = 0_usize;
    while let Some(window) = start
        .checked_add(spec.len)
        .and_then(|end| symbols.get(start..end))
    {
        out.push((start, window));
        start += spec.stride;
    }
    out
}

/// Spreads per-window scores back to per-point scores by assigning each point
/// the **maximum** score over all windows covering it. Points covered by no
/// window (the tail shorter than one window) receive 0.
///
/// This is the standard way window-granularity detectors participate in
/// point-level evaluation, and is how the hierarchical pipeline lifts SSQ
/// detectors to the paper's point-score comparisons.
pub fn window_scores_to_point_scores(
    n: usize,
    spec: WindowSpec,
    window_scores: &[f64],
) -> Vec<f64> {
    let mut out = vec![0.0_f64; n];
    for (w_idx, &score) in window_scores.iter().enumerate() {
        let start = w_idx * spec.stride;
        let end = (start + spec.len).min(n);
        let covered = out.get_mut(start..end).unwrap_or(&mut []);
        for s in covered {
            if score > *s {
                *s = score;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation() {
        assert!(WindowSpec::new(0, 1).is_err());
        assert!(WindowSpec::new(1, 0).is_err());
        let s = WindowSpec::new(4, 2).unwrap();
        assert_eq!(s.len, 4);
        assert_eq!(s.stride, 2);
    }

    #[test]
    fn count_formula() {
        let s = WindowSpec::new(3, 1).unwrap();
        assert_eq!(s.count(5), 3);
        assert_eq!(s.count(3), 1);
        assert_eq!(s.count(2), 0);
        let t = WindowSpec::new(2, 2).unwrap();
        assert_eq!(t.count(7), 3);
        let h = WindowSpec::new(4, 3).unwrap();
        assert_eq!(h.count(10), 3); // starts 0,3,6
    }

    #[test]
    fn sliding_windows_cover_all_positions() {
        let data = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ws: Vec<_> = windows(&data, WindowSpec::new(2, 1).unwrap()).collect();
        assert_eq!(ws.len(), 4);
        assert_eq!(ws[0].values, &[0.0, 1.0]);
        assert_eq!(ws[3].values, &[3.0, 4.0]);
        assert_eq!(ws[3].start, 3);
    }

    #[test]
    fn tumbling_windows_do_not_overlap() {
        let data = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ws: Vec<_> = windows(&data, WindowSpec::new(2, 2).unwrap()).collect();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].values, &[0.0, 1.0]);
        assert_eq!(ws[1].values, &[2.0, 3.0]);
    }

    #[test]
    fn iterator_len_matches_count() {
        let data = vec![0.0; 100];
        for (len, stride) in [(5, 1), (5, 5), (7, 3), (100, 1), (101, 1)] {
            let spec = WindowSpec::new(len, stride).unwrap();
            let it = windows(&data, spec);
            assert_eq!(it.len(), spec.count(100), "len={len} stride={stride}");
            assert_eq!(it.count(), spec.count(100));
        }
    }

    #[test]
    fn symbol_windows_match_numeric_semantics() {
        let syms = [1_u16, 2, 3, 4, 5];
        let ws = symbol_windows(&syms, WindowSpec::new(3, 2).unwrap());
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0], (0, &syms[0..3]));
        assert_eq!(ws[1], (2, &syms[2..5]));
    }

    #[test]
    fn window_to_point_scores_takes_max_over_covering_windows() {
        // n=5, len=3, stride=1 -> 3 windows starting at 0,1,2.
        let spec = WindowSpec::new(3, 1).unwrap();
        let pts = window_scores_to_point_scores(5, spec, &[1.0, 5.0, 2.0]);
        // point 0: only window 0 -> 1. point 1: windows 0,1 -> 5.
        // point 3: windows 1,2 -> 5. point 4: window 2 -> 2.
        assert_eq!(pts, vec![1.0, 5.0, 5.0, 5.0, 2.0]);
    }

    #[test]
    fn window_to_point_scores_uncovered_tail_is_zero() {
        let spec = WindowSpec::new(2, 2).unwrap();
        let pts = window_scores_to_point_scores(5, spec, &[3.0, 4.0]);
        assert_eq!(pts, vec![3.0, 3.0, 4.0, 4.0, 0.0]);
    }
}
