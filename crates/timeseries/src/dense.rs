//! A checked row-major matrix.
//!
//! The matrix and dynamic-programming detectors (HMM forward/backward
//! tables, VAR normal equations, PCA covariance, MLP weights, GMM
//! responsibilities, LCS similarity, V-optimal histogram choices) all keep
//! a rectangular table. [`Dense`] stores one as a width plus one `Vec`, so
//! the shape is a property of the type rather than something each caller
//! re-checks, and rows are reached only through `chunks_exact`: no access
//! can fall outside the table.
//!
//! A zero-width matrix has no rows.

use std::slice::{ChunksExact, ChunksExactMut};

/// A rectangular table of `height × width` elements in row-major order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dense<T = f64> {
    width: usize,
    data: Vec<T>,
}

impl<T: Clone> Dense<T> {
    /// A `rows × width` table with every element set to `value`.
    pub fn filled(rows: usize, width: usize, value: T) -> Self {
        let mut dense = Self {
            width,
            data: Vec::new(),
        };
        dense.refill(rows, value);
        dense
    }

    /// Reshapes to `rows` rows of the current width, every element set to
    /// `value`, reusing the allocation.
    pub fn refill(&mut self, rows: usize, value: T) {
        self.data.clear();
        self.data.resize(rows.saturating_mul(self.width), value);
    }

    /// The table as one owned `Vec` per row.
    pub fn into_rows(self) -> Vec<Vec<T>> {
        self.rows().map(<[T]>::to_vec).collect()
    }
}

impl<T> Dense<T> {
    /// Elements per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn height(&self) -> usize {
        self.data.len().checked_div(self.width).unwrap_or(0)
    }

    /// The rows, top to bottom.
    pub fn rows(&self) -> ChunksExact<'_, T> {
        self.data.chunks_exact(self.width.max(1))
    }

    /// The rows, top to bottom, mutably.
    pub fn rows_mut(&mut self) -> ChunksExactMut<'_, T> {
        self.data.chunks_exact_mut(self.width.max(1))
    }

    /// Column `c`, top to bottom (empty past the last column).
    pub fn col(&self, c: usize) -> impl Iterator<Item = &T> + '_ {
        self.rows().filter_map(move |r| r.get(c))
    }

    /// The rows above `at` and the rows from `at` down, both mutable.
    pub fn split_rows_mut(&mut self, at: usize) -> (ChunksExactMut<'_, T>, ChunksExactMut<'_, T>) {
        let width = self.width.max(1);
        let mid = at.saturating_mul(width).min(self.data.len());
        let (above, below) = self.data.split_at_mut(mid);
        (above.chunks_exact_mut(width), below.chunks_exact_mut(width))
    }

    /// Swaps rows `a` and `b` (nothing happens when either is missing).
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        let (lo, hi) = (a.min(b), a.max(b));
        let (mut above, mut below) = self.split_rows_mut(hi);
        // Equal rows never pair up: `above` holds only the rows before `hi`.
        if let (Some(x), Some(y)) = (above.nth(lo), below.next()) {
            x.swap_with_slice(y);
        }
    }
}

/// Ragged rows are refused (the rows come back unchanged).
impl<T> TryFrom<Vec<Vec<T>>> for Dense<T> {
    type Error = Vec<Vec<T>>;

    fn try_from(rows: Vec<Vec<T>>) -> Result<Self, Self::Error> {
        let width = rows.first().map_or(0, Vec::len);
        if rows.iter().any(|r| r.len() != width) {
            return Err(rows);
        }
        let data = rows.into_iter().flatten().collect();
        Ok(Self { width, data })
    }
}

impl<T: Copy> Dense<T> {
    /// Copies the strict upper triangle of a square table onto the lower
    /// one, so that `self[i][j] = self[j][i]` for every `j < i`.
    pub fn mirror_upper(&mut self) {
        for i in 1..self.height() {
            let (above, mut below) = self.split_rows_mut(i);
            let Some(row) = below.next() else { break };
            for (x, upper) in row.iter_mut().zip(above) {
                if let Some(&v) = upper.get(i) {
                    *x = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_rows() {
        let mut m = Dense::filled(3, 2, 0.0);
        assert_eq!((m.height(), m.width()), (3, 2));
        for (i, row) in m.rows_mut().enumerate() {
            row.iter_mut().for_each(|x| *x = i as f64);
        }
        assert_eq!(m.rows().nth(2), Some(&[2.0, 2.0][..]));
        assert_eq!(m.rows().nth(3), None);
        assert_eq!(m.col(1).copied().collect::<Vec<_>>(), [0.0, 1.0, 2.0]);
        assert_eq!(m.col(2).count(), 0);
        assert_eq!(
            m.into_rows(),
            vec![vec![0.0; 2], vec![1.0; 2], vec![2.0; 2]]
        );
    }

    #[test]
    fn zero_width_has_no_rows() {
        let m: Dense<f64> = Dense::filled(4, 0, 1.0);
        assert_eq!(m.height(), 0);
        assert_eq!(m.rows().count(), 0);
    }

    #[test]
    fn try_from_rejects_ragged() {
        assert!(Dense::try_from(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        let m = Dense::try_from(vec![vec![1, 2], vec![3, 4]]).unwrap();
        assert_eq!(m.rows().nth(1), Some(&[3, 4][..]));
    }

    #[test]
    fn swap_and_mirror() {
        let mut m = Dense::try_from(vec![vec![1, 2, 3], vec![0, 4, 5], vec![0, 0, 6]]).unwrap();
        m.mirror_upper();
        assert_eq!(
            m.into_rows(),
            vec![vec![1, 2, 3], vec![2, 4, 5], vec![3, 5, 6]]
        );
        let mut m = Dense::try_from(vec![vec![1], vec![2], vec![3]]).unwrap();
        m.swap_rows(2, 0);
        m.swap_rows(1, 1);
        m.swap_rows(1, 9);
        assert_eq!(m.into_rows(), vec![vec![3], vec![2], vec![1]]);
    }

    #[test]
    fn refill_reuses_the_width() {
        let mut m = Dense::filled(1, 3, 7_usize);
        m.refill(2, 0);
        assert_eq!(m.height(), 2);
        assert!(m.rows().flatten().all(|&x| x == 0));
    }
}
