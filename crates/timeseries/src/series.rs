//! Core containers: [`TimeSeries`], [`DiscreteSequence`], [`MultiSeries`].
//!
//! The paper's phase level (its Fig. 2, level ①) delivers "either time series
//! data or discrete value sequences": numeric samples over time, or label
//! sequences. These two containers, plus an aligned multivariate bundle,
//! are the inputs every detector in `hierod-detect` consumes.
//!
//! ## Zero-copy storage
//!
//! Both sequence containers are exactly their shared buffers: a
//! [`TimeSeries`] is an `Arc<[u64]>` of timestamps and an `Arc<[f64]>` of
//! values, a [`DiscreteSequence`] an `Arc<[u16]>` of symbols, each with an
//! `Arc<str>` name. `clone()` bumps reference counts and copies no samples,
//! so hierarchy-level view materialization (`hierod-hierarchy`) shares the
//! plant's storage instead of deep-copying it. Mutation stays safe via
//! copy-on-write: [`TimeSeries::values_mut`] copies the values only while
//! another handle shares them (see `DESIGN.md` §4.11).

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
/// equal when their names, timestamps and values match, whether or not they
/// share storage.
#[derive(Clone)]
pub struct TimeSeries {
    name: Arc<str>,
    timestamps: Arc<[u64]>,
    values: Arc<[f64]>,
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

/// Logical equality: name + contents, independent of storage identity.
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
    /// Returns an error if `step == 0` or a timestamp overflows `u64`.
    pub fn regular(
        name: impl Into<String>,
        start: u64,
        step: u64,
        values: Vec<f64>,
    ) -> Result<Self> {
        if step == 0 {
            return Err(Error::invalid("step", "must be > 0"));
        }
        let timestamps = (0..values.len() as u64)
            .map(|i| i.checked_mul(step).and_then(|off| start.checked_add(off)))
            .collect::<Option<Vec<u64>>>()
            .ok_or_else(|| Error::invalid("start", "timestamps overflow u64"))?;
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
    /// *is* `timestamps`/`values`, bumping two reference counts. This is how columns decoded from a `hierod-store`
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

    /// Assembles a series over already-shared storage. The invariants
    /// (equal lengths, strictly increasing timestamps) must hold.
    fn from_parts(name: Arc<str>, timestamps: Arc<[u64]>, values: Arc<[f64]>) -> Self {
        debug_assert_eq!(timestamps.len(), values.len());
        Self {
            name,
            timestamps,
            values,
        }
    }

    /// The series name (usually the producing sensor id).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The sample timestamps (strictly increasing).
    pub fn timestamps(&self) -> &[u64] {
        &self.timestamps
    }

    /// The values' shared storage: a reference-count bump, never a copy.
    pub fn values_shared(&self) -> Arc<[f64]> {
        Arc::clone(&self.values)
    }

    /// The timestamps' shared storage: a reference-count bump, never a copy.
    pub fn timestamps_shared(&self) -> Arc<[u64]> {
        Arc::clone(&self.timestamps)
    }

    /// An O(1) handle to the same series: bumps the storage reference
    /// counts, copies no samples. Semantically identical to `clone()`; use
    /// this name where sharing (rather than duplicating) is the point, e.g.
    /// hierarchy view materialization.
    pub fn share(&self) -> TimeSeries {
        self.clone()
    }

    /// `true` if `self` and `other` hold the *same* value storage
    /// (zero-copy sharing, not just equal contents).
    pub fn shares_storage_with(&self, other: &TimeSeries) -> bool {
        Arc::ptr_eq(&self.values, &other.values)
    }

    /// Time span `(first, last)` covered by the series, if non-empty.
    pub fn span(&self) -> Option<(u64, u64)> {
        Some((*self.timestamps().first()?, *self.timestamps().last()?))
    }

    /// Mutable access to values (for in-place injection by the simulator).
    ///
    /// Copy-on-write: while another handle shares the values, they are first
    /// copied into a buffer this series owns alone, so mutation never leaks
    /// into clones taken earlier; a unique owner mutates in place. The
    /// timestamps stay shared.
    pub fn values_mut(&mut self) -> &mut [f64] {
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
/// domain labels to symbol ids. Like [`TimeSeries`], the sequence is its
/// shared buffers: cloning bumps two reference counts and copies nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscreteSequence {
    name: Arc<str>,
    symbols: Arc<[u16]>,
}

impl DiscreteSequence {
    /// Creates a sequence from raw symbol ids.
    pub fn new(name: impl Into<String>, symbols: Vec<u16>) -> Self {
        Self {
            name: name.into().into(),
            symbols: symbols.into(),
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
    fn regular_rejects_timestamp_overflow() {
        let err = TimeSeries::regular("x", u64::MAX - 1, 1, vec![0.0; 3]).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter { .. }));
        assert!(TimeSeries::regular("x", 0, u64::MAX, vec![0.0; 3]).is_err());
        // The last representable timestamp is still fine.
        let s = TimeSeries::regular("x", u64::MAX - 2, 1, vec![0.0; 3]).unwrap();
        assert_eq!(s.span(), Some((u64::MAX - 2, u64::MAX)));
    }

    #[test]
    fn from_values_uses_unit_timestamps() {
        let s = ts(&[4.0, 5.0]);
        assert_eq!(s.timestamps(), &[0, 1]);
        assert_eq!(s.values(), &[4.0, 5.0]);
    }

    #[test]
    fn clone_and_share_share_storage() {
        let s = ts(&[1.0, 2.0, 3.0, 4.0]);
        let c = s.clone();
        let sh = s.share();
        assert!(s.shares_storage_with(&c));
        assert!(s.shares_storage_with(&sh));
        assert_eq!(c, s);
        assert_eq!(sh.values(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(sh.timestamps(), &[0, 1, 2, 3]);
    }

    #[test]
    fn equality_is_logical_not_structural() {
        let a = TimeSeries::from_shared("t", vec![1_u64, 2].into(), vec![1.0, 2.0].into()).unwrap();
        let b = TimeSeries::from_shared("t", vec![1_u64, 2].into(), vec![1.0, 2.0].into()).unwrap();
        // Same contents, different `Arc`s.
        assert_eq!(a, b);
        assert!(!a.shares_storage_with(&b));
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
    fn shared_accessors_are_zero_copy() {
        let s = ts(&[1.0, 2.0, 3.0]);
        let v = s.values_shared();
        assert_eq!(&v[..], s.values());
        assert_eq!(v.as_ptr(), s.values().as_ptr());
        let t = s.timestamps_shared();
        assert_eq!(&t[..], s.timestamps());
        assert_eq!(t.as_ptr(), s.timestamps().as_ptr());
    }

    #[test]
    fn discrete_sequence_clone_shares_symbols() {
        let a = DiscreteSequence::new("events", vec![3, 1, 4]);
        let b = a.clone();
        assert_eq!(b.symbols().as_ptr(), a.symbols().as_ptr());
        assert_eq!(
            (b.name(), b.symbols(), b.len()),
            ("events", &[3, 1, 4][..], 3)
        );
        assert_eq!(a, DiscreteSequence::new("events", vec![3, 1, 4]));
        assert!(DiscreteSequence::new("e", vec![]).is_empty());
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
