//! Core containers: [`TimeSeries`], [`DiscreteSequence`], [`MultiSeries`].
//!
//! The paper's phase level (its Fig. 2, level ①) delivers "either time series
//! data or discrete value sequences": numeric samples over time, or label
//! sequences. These two containers, plus an aligned multivariate bundle,
//! are the inputs every detector in `hierod-detect` consumes.
//!
//! ## Zero-copy storage
//!
//! [`TimeSeries`] is backed by shared storage — `Arc<[u64]>` timestamps and
//! `Arc<[f64]>` values plus an `(offset, len)` window — so `clone()` and
//! [`TimeSeries::view`] are O(1): they bump two reference counts instead
//! of copying samples. Hierarchy-level view materialization
//! (`hierod-hierarchy`) and per-window detectors lean on this; a plant-wide
//! detection run no longer deep-copies the plant. Mutation stays safe via
//! copy-on-write: [`TimeSeries::values_mut`] detaches the series onto its
//! own uniquely-owned buffers first (see `DESIGN.md` §4.11 for the exact
//! rules of when a copy still happens).

use std::sync::Arc;

use crate::error::{Error, Result};

/// Whether every timestamp is strictly below its successor.
fn strictly_increasing(timestamps: &[u64]) -> bool {
    timestamps
        .iter()
        .zip(timestamps.iter().skip(1))
        .all(|(a, b)| a < b)
}

/// A regularly/irregularly sampled univariate numeric time series.
///
/// Timestamps are `u64` ticks (the unit is defined by the producer — the
/// additive-manufacturing simulator uses milliseconds). Values are `f64`.
/// Timestamps must be strictly increasing; constructors enforce this.
///
/// Cloning is O(1) (shared storage); equality is *logical* — two series are
/// equal when their names, timestamps and values match, regardless of
/// whether they share storage or where their windows sit in it.
#[derive(Clone)]
pub struct TimeSeries {
    name: Arc<str>,
    timestamps: Arc<[u64]>,
    values: Arc<[f64]>,
    /// First sample of this series' window within the shared storage.
    offset: usize,
    /// Window length in samples.
    len: usize,
}

impl std::fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeSeries")
            .field("name", &self.name())
            .field("timestamps", &self.timestamps())
            .field("values", &self.values())
            .finish()
    }
}

/// Logical equality: name + window contents, independent of storage layout.
impl PartialEq for TimeSeries {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.timestamps() == other.timestamps()
            && self.values() == other.values()
    }
}

impl TimeSeries {
    /// Creates a series from parallel timestamp/value vectors.
    ///
    /// # Errors
    /// Returns an error if the vectors differ in length or timestamps are
    /// not strictly increasing.
    pub fn new(name: impl Into<String>, timestamps: Vec<u64>, values: Vec<f64>) -> Result<Self> {
        if timestamps.len() != values.len() {
            return Err(Error::LengthMismatch {
                what: "TimeSeries::new",
                left: timestamps.len(),
                right: values.len(),
            });
        }
        if !strictly_increasing(&timestamps) {
            return Err(Error::invalid("timestamps", "must be strictly increasing"));
        }
        Ok(Self::from_parts(
            name.into().into(),
            timestamps.into(),
            values.into(),
        ))
    }

    /// Creates a regularly sampled series starting at `start` with the given
    /// sampling period (`step` ticks per sample).
    ///
    /// # Errors
    /// Returns an error if `step == 0`.
    pub fn regular(
        name: impl Into<String>,
        start: u64,
        step: u64,
        values: Vec<f64>,
    ) -> Result<Self> {
        if step == 0 {
            return Err(Error::invalid("step", "must be > 0"));
        }
        let timestamps: Vec<u64> = (0..values.len() as u64).map(|i| start + i * step).collect();
        Ok(Self::from_parts(
            name.into().into(),
            timestamps.into(),
            values.into(),
        ))
    }

    /// Creates a series from values only, with timestamps `0..n`.
    pub fn from_values(name: impl Into<String>, values: Vec<f64>) -> Self {
        let timestamps: Vec<u64> = (0..values.len() as u64).collect();
        Self::from_parts(name.into().into(), timestamps.into(), values.into())
    }

    /// Adopts already-shared column storage without copying: the series
    /// becomes a full window over `timestamps`/`values`, bumping two
    /// reference counts. This is how columns decoded from a `hierod-store`
    /// segment become live series — a recovered plant shares storage with
    /// the decoded segment instead of duplicating it.
    ///
    /// # Errors
    /// Returns an error if the columns differ in length or the timestamps
    /// are not strictly increasing (the same invariants
    /// [`TimeSeries::new`] enforces).
    pub fn from_shared(
        name: impl Into<String>,
        timestamps: Arc<[u64]>,
        values: Arc<[f64]>,
    ) -> Result<Self> {
        if timestamps.len() != values.len() {
            return Err(Error::LengthMismatch {
                what: "TimeSeries::from_shared",
                left: timestamps.len(),
                right: values.len(),
            });
        }
        if !strictly_increasing(&timestamps) {
            return Err(Error::invalid("timestamps", "must be strictly increasing"));
        }
        Ok(Self::from_parts(name.into().into(), timestamps, values))
    }

    /// Assembles a full-window series over already-shared storage. The
    /// invariants (equal lengths, strictly increasing timestamps) must hold.
    fn from_parts(name: Arc<str>, timestamps: Arc<[u64]>, values: Arc<[f64]>) -> Self {
        debug_assert_eq!(timestamps.len(), values.len());
        let len = values.len();
        Self {
            name,
            timestamps,
            values,
            offset: 0,
            len,
        }
    }

    /// The series name (usually the producing sensor id).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sample values.
    pub fn values(&self) -> &[f64] {
        self.values
            .get(self.offset..self.offset + self.len)
            .unwrap_or_default()
    }

    /// The sample timestamps (strictly increasing).
    pub fn timestamps(&self) -> &[u64] {
        self.timestamps
            .get(self.offset..self.offset + self.len)
            .unwrap_or_default()
    }

    /// The values as shared storage: O(1) when this series covers its whole
    /// backing buffer (the common case for sensor series), one copy when it
    /// is a proper sub-window.
    pub fn values_shared(&self) -> Arc<[f64]> {
        if self.offset == 0 && self.len == self.values.len() {
            Arc::clone(&self.values)
        } else {
            self.values().into()
        }
    }

    /// The timestamps as shared storage (same cost contract as
    /// [`Self::values_shared`]).
    pub fn timestamps_shared(&self) -> Arc<[u64]> {
        if self.offset == 0 && self.len == self.timestamps.len() {
            Arc::clone(&self.timestamps)
        } else {
            self.timestamps().into()
        }
    }

    /// An O(1) handle to the same series: bumps the storage reference
    /// counts, copies no samples. Semantically identical to `clone()`; use
    /// this name where sharing (rather than duplicating) is the point, e.g.
    /// hierarchy view materialization.
    pub fn share(&self) -> TimeSeries {
        self.clone()
    }

    /// `true` if `self` and `other` are windows over the *same* value
    /// storage (zero-copy sharing, not just equal contents).
    pub fn shares_storage_with(&self, other: &TimeSeries) -> bool {
        Arc::ptr_eq(&self.values, &other.values)
    }

    /// Time span `(first, last)` covered by the series, if non-empty.
    pub fn span(&self) -> Option<(u64, u64)> {
        Some((*self.timestamps().first()?, *self.timestamps().last()?))
    }

    /// An O(1) zero-copy view of the sub-series with indices in `range`:
    /// shares storage with `self` (same name, narrowed window).
    ///
    /// # Panics
    /// Panics if the range is out of bounds (mirrors slice semantics).
    pub fn view(&self, range: std::ops::Range<usize>) -> TimeSeries {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "TimeSeries::view: range {}..{} out of bounds for length {}",
            range.start,
            range.end,
            self.len
        );
        TimeSeries {
            name: Arc::clone(&self.name),
            timestamps: Arc::clone(&self.timestamps),
            values: Arc::clone(&self.values),
            offset: self.offset + range.start,
            len: range.end - range.start,
        }
    }

    /// Mutable access to values (for in-place injection by the simulator).
    ///
    /// Copy-on-write: if the storage is shared with other handles — or this
    /// series is a proper window into a larger buffer — the window is first
    /// detached onto its own uniquely-owned buffers, so mutation never leaks
    /// into views or clones taken earlier.
    pub fn values_mut(&mut self) -> &mut [f64] {
        // A proper window must detach: `Arc::make_mut` would clone (and
        // mutate) the *entire* backing buffer, aliasing the samples outside
        // our window with other views of the same storage.
        if self.offset != 0 || self.len != self.values.len() {
            self.values = self.values().into();
            self.timestamps = self.timestamps().into();
            self.offset = 0;
        }
        // Full-window: clone-if-shared, in place if uniquely owned.
        Arc::make_mut(&mut self.values)
    }

    /// Iterator over `(timestamp, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.timestamps()
            .iter()
            .copied()
            .zip(self.values().iter().copied())
    }
}

/// A discrete label sequence (the paper's "discrete value sequences" at the
/// phase level, e.g. machine state codes or CAQ event labels).
///
/// Symbols are small integers; the producer maintains the mapping from
/// domain labels to symbol ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscreteSequence {
    name: String,
    symbols: Vec<u16>,
}

impl DiscreteSequence {
    /// Creates a sequence from raw symbol ids.
    pub fn new(name: impl Into<String>, symbols: Vec<u16>) -> Self {
        Self {
            name: name.into(),
            symbols,
        }
    }

    /// The sequence name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// `true` if the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The raw symbol ids.
    pub fn symbols(&self) -> &[u16] {
        &self.symbols
    }
}

/// A bundle of time-aligned univariate series (multivariate view).
///
/// All members must have identical timestamps; this is the form the
/// phase-level detectors consume when a phase carries several sensors of the
/// same physical quantity (the redundancy groups of the paper's support
/// mechanism).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSeries {
    series: Vec<TimeSeries>,
}

impl MultiSeries {
    /// Builds a bundle, verifying time alignment. Member series are moved,
    /// not copied (their storage stays shared with any other handles).
    ///
    /// # Errors
    /// Returns an error on an empty bundle or mismatched timestamps.
    pub fn new(series: Vec<TimeSeries>) -> Result<Self> {
        let first = series.first().ok_or(Error::Empty {
            what: "MultiSeries::new",
        })?;
        for s in series.iter().skip(1) {
            if s.timestamps() != first.timestamps() {
                return Err(Error::invalid(
                    "series",
                    format!(
                        "series `{}` is not time-aligned with `{}`",
                        s.name(),
                        first.name()
                    ),
                ));
            }
        }
        Ok(Self { series })
    }

    /// Number of member series (dimensionality).
    pub fn dims(&self) -> usize {
        self.series.len()
    }

    /// Number of time points.
    pub fn len(&self) -> usize {
        self.series.first().map_or(0, TimeSeries::len)
    }

    /// `true` if there are no time points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Member series.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// The sample at time index `idx` as a vector across dimensions (empty
    /// past the last time point).
    pub fn row(&self, idx: usize) -> Vec<f64> {
        self.series
            .iter()
            .filter_map(|s| s.values().get(idx).copied())
            .collect()
    }

    /// All samples as row vectors (n × d).
    pub fn rows(&self) -> Vec<Vec<f64>> {
        (0..self.len()).map(|i| self.row(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(vals: &[f64]) -> TimeSeries {
        TimeSeries::from_values("t", vals.to_vec())
    }

    #[test]
    fn new_rejects_length_mismatch() {
        let err = TimeSeries::new("x", vec![0, 1], vec![1.0]).unwrap_err();
        assert!(matches!(err, Error::LengthMismatch { .. }));
    }

    #[test]
    fn new_rejects_non_increasing_timestamps() {
        let err = TimeSeries::new("x", vec![0, 0], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter { .. }));
        let err = TimeSeries::new("x", vec![5, 3], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter { .. }));
    }

    #[test]
    fn regular_builds_arithmetic_timestamps() {
        let s = TimeSeries::regular("x", 10, 5, vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.timestamps(), &[10, 15, 20]);
        assert_eq!(s.span(), Some((10, 20)));
    }

    #[test]
    fn regular_rejects_zero_step() {
        assert!(TimeSeries::regular("x", 0, 0, vec![1.0]).is_err());
    }

    #[test]
    fn from_values_uses_unit_timestamps() {
        let s = ts(&[4.0, 5.0]);
        assert_eq!(s.timestamps(), &[0, 1]);
        assert_eq!(s.values(), &[4.0, 5.0]);
    }

    #[test]
    fn clone_and_view_share_storage() {
        let s = ts(&[1.0, 2.0, 3.0, 4.0]);
        let c = s.clone();
        let sh = s.share();
        let v = s.view(1..3);
        assert!(s.shares_storage_with(&c));
        assert!(s.shares_storage_with(&sh));
        assert!(s.shares_storage_with(&v));
        assert_eq!(v.values(), &[2.0, 3.0]);
        assert_eq!(v.timestamps(), &[1, 2]);
        // Views of views still share.
        let vv = v.view(1..2);
        assert!(vv.shares_storage_with(&s));
        assert_eq!(vv.values(), &[3.0]);
        assert_eq!(vv.timestamps(), &[2]);
    }

    #[test]
    fn equality_is_logical_not_structural() {
        let owner = ts(&[9.0, 1.0, 2.0, 9.0]);
        let view = owner.view(1..3);
        let fresh = TimeSeries::new("t", vec![1, 2], vec![1.0, 2.0]).unwrap();
        // Same contents, different storage layout (offset 1 vs offset 0).
        assert_eq!(view, fresh);
        assert!(!view.shares_storage_with(&fresh));
    }

    #[test]
    fn values_mut_detaches_shared_storage() {
        let mut a = ts(&[1.0, 2.0, 3.0]);
        let b = a.clone();
        a.values_mut()[0] = 99.0;
        assert_eq!(a.values(), &[99.0, 2.0, 3.0]);
        assert_eq!(b.values(), &[1.0, 2.0, 3.0], "clone must be unaffected");
        assert!(!a.shares_storage_with(&b));
    }

    #[test]
    fn values_mut_detaches_views_without_touching_neighbors() {
        let base = ts(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        let mut v = base.view(1..4);
        v.values_mut()[1] = 77.0;
        assert_eq!(v.values(), &[1.0, 77.0, 3.0]);
        assert_eq!(v.timestamps(), &[1, 2, 3]);
        assert_eq!(base.values(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
        // After detaching, further mutation stays in place (unique owner).
        v.values_mut()[0] = -1.0;
        assert_eq!(v.values(), &[-1.0, 77.0, 3.0]);
    }

    #[test]
    fn values_mut_in_place_when_unique() {
        let mut s = ts(&[1.0, 2.0]);
        let before = s.values_shared();
        drop(before); // unique again
        s.values_mut()[1] = 5.0;
        assert_eq!(s.values(), &[1.0, 5.0]);
    }

    #[test]
    fn from_shared_adopts_columns_without_copying() {
        let ts: Arc<[u64]> = vec![1_u64, 5, 9].into();
        let vals: Arc<[f64]> = vec![1.0, 2.0, 3.0].into();
        let s = TimeSeries::from_shared("seg", Arc::clone(&ts), Arc::clone(&vals)).unwrap();
        assert_eq!(s.timestamps(), &[1, 5, 9]);
        // Zero-copy: the series' storage IS the adopted Arc.
        assert!(Arc::ptr_eq(&s.values_shared(), &vals));
        assert!(Arc::ptr_eq(&s.timestamps_shared(), &ts));
        // Invariants still enforced.
        let bad: Arc<[u64]> = vec![3_u64, 3].into();
        let v2: Arc<[f64]> = vec![0.0, 0.0].into();
        assert!(TimeSeries::from_shared("seg", bad, Arc::clone(&v2)).is_err());
        let short: Arc<[u64]> = vec![1_u64].into();
        assert!(TimeSeries::from_shared("seg", short, v2).is_err());
    }

    #[test]
    fn shared_accessors_are_zero_copy_for_full_windows() {
        let s = ts(&[1.0, 2.0, 3.0]);
        let v = s.values_shared();
        assert_eq!(&v[..], s.values());
        let t = s.timestamps_shared();
        assert_eq!(&t[..], s.timestamps());
        // A proper window must copy (an Arc window cannot be expressed).
        let w = s.view(0..2);
        assert_eq!(&w.values_shared()[..], &[1.0, 2.0]);
    }

    #[test]
    fn multiseries_requires_alignment() {
        let a = TimeSeries::regular("a", 0, 1, vec![1.0, 2.0]).unwrap();
        let b = TimeSeries::regular("b", 0, 2, vec![1.0, 2.0]).unwrap();
        assert!(MultiSeries::new(vec![a.clone(), b]).is_err());
        let b2 = TimeSeries::regular("b", 0, 1, vec![3.0, 4.0]).unwrap();
        let m = MultiSeries::new(vec![a, b2]).unwrap();
        assert_eq!(m.dims(), 2);
        assert_eq!(m.row(1), vec![2.0, 4.0]);
    }

    #[test]
    fn multiseries_rejects_empty() {
        assert!(MultiSeries::new(vec![]).is_err());
    }

    #[test]
    fn rows_materializes_matrix() {
        let a = TimeSeries::from_values("a", vec![1.0, 2.0]);
        let b = TimeSeries::from_values("b", vec![3.0, 4.0]);
        let m = MultiSeries::new(vec![a, b]).unwrap();
        assert_eq!(m.rows(), vec![vec![1.0, 3.0], vec![2.0, 4.0]]);
    }
}
