//! Resolution changes between hierarchy levels.
//!
//! The paper (Section 1) observes that industrial data arrives "in various
//! resolutions" and that CAQ assigns data "to a higher hierarchy level if it
//! has a lower resolution and vice versa". This module provides the
//! aggregation operators used when phase-level high-resolution series are
//! rolled up to job-, line-, and production-level views.

use crate::error::{Error, Result};
use crate::series::TimeSeries;

/// How a bucket of high-resolution samples is collapsed to one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Arithmetic mean of the bucket.
    Mean,
    /// Minimum of the bucket.
    Min,
    /// Maximum of the bucket.
    Max,
    /// Last value of the bucket (sample-and-hold).
    Last,
    /// Sum of the bucket.
    Sum,
    /// Number of samples in the bucket (ignores values).
    Count,
}

impl Aggregate {
    /// Applies the aggregate to a non-empty bucket.
    fn apply(self, bucket: &[f64]) -> f64 {
        debug_assert!(!bucket.is_empty());
        match self {
            Aggregate::Mean => bucket.iter().sum::<f64>() / bucket.len() as f64,
            Aggregate::Min => bucket.iter().copied().fold(f64::INFINITY, f64::min),
            Aggregate::Max => bucket.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Aggregate::Last => bucket.last().copied().unwrap_or(f64::NAN),
            Aggregate::Sum => bucket.iter().sum(),
            Aggregate::Count => bucket.len() as f64,
        }
    }
}

/// Downsamples a series into fixed-duration time buckets.
///
/// Buckets are `[k·width, (k+1)·width)` anchored at the series start; empty
/// buckets are skipped (the output keeps strictly increasing timestamps, each
/// bucket stamped with its start time).
///
/// # Errors
/// Returns an error if `width == 0` or the series is empty.
pub fn downsample(series: &TimeSeries, width: u64, agg: Aggregate) -> Result<TimeSeries> {
    if width == 0 {
        return Err(Error::invalid("width", "bucket width must be > 0"));
    }
    let (t0, _) = series.span().ok_or(Error::Empty { what: "downsample" })?;
    let mut out_ts: Vec<u64> = Vec::new();
    let mut out_vals: Vec<f64> = Vec::new();
    let mut bucket: Vec<f64> = Vec::new();
    let mut bucket_idx = 0_u64;
    for (t, v) in series.iter() {
        let idx = (t - t0) / width;
        if idx != bucket_idx && !bucket.is_empty() {
            out_ts.push(t0 + bucket_idx * width);
            out_vals.push(agg.apply(&bucket));
            bucket.clear();
        }
        bucket_idx = idx;
        bucket.push(v);
    }
    if !bucket.is_empty() {
        out_ts.push(t0 + bucket_idx * width);
        out_vals.push(agg.apply(&bucket));
    }
    TimeSeries::new(series.name(), out_ts, out_vals)
}

/// Collapses a whole series to a single summary value (a "level roll-up"):
/// this is how one job's phase series becomes one point of the
/// production-line series.
///
/// # Errors
/// Returns [`Error::Empty`] for an empty series.
pub fn summarize(series: &TimeSeries, agg: Aggregate) -> Result<f64> {
    if series.is_empty() {
        return Err(Error::Empty { what: "summarize" });
    }
    Ok(agg.apply(series.values()))
}

/// Aligns a reference series with a context series (e.g. room temperature
/// measured on its own clock) by sampling, for each reference timestamp, the
/// most recent context value at or before it (last-observation-carried-
/// forward). Reference timestamps preceding all context samples take the
/// first context value.
///
/// # Errors
/// Returns an error if either series is empty.
pub fn align_last_value(reference: &TimeSeries, context: &TimeSeries) -> Result<TimeSeries> {
    if reference.is_empty() {
        return Err(Error::Empty {
            what: "align_last_value(reference)",
        });
    }
    if context.is_empty() {
        return Err(Error::Empty {
            what: "align_last_value(context)",
        });
    }
    let cts = context.timestamps();
    let cvs = context.values();
    let mut vals = Vec::with_capacity(reference.len());
    for &t in reference.timestamps() {
        let pos = cts.partition_point(|&ct| ct <= t);
        // Before the first context sample, the first one stands in.
        vals.push(cvs.get(pos.saturating_sub(1)).copied().unwrap_or(f64::NAN));
    }
    TimeSeries::new(context.name(), reference.timestamps().to_vec(), vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_mean_buckets() {
        let s = TimeSeries::regular("x", 0, 1, vec![1.0, 3.0, 5.0, 7.0, 9.0]).unwrap();
        let d = downsample(&s, 2, Aggregate::Mean).unwrap();
        assert_eq!(d.timestamps(), &[0, 2, 4]);
        assert_eq!(d.values(), &[2.0, 6.0, 9.0]);
    }

    #[test]
    fn downsample_other_aggregates() {
        let s = TimeSeries::regular("x", 0, 1, vec![1.0, 3.0, 5.0, 7.0]).unwrap();
        assert_eq!(
            downsample(&s, 2, Aggregate::Min).unwrap().values(),
            &[1.0, 5.0]
        );
        assert_eq!(
            downsample(&s, 2, Aggregate::Max).unwrap().values(),
            &[3.0, 7.0]
        );
        assert_eq!(
            downsample(&s, 2, Aggregate::Last).unwrap().values(),
            &[3.0, 7.0]
        );
        assert_eq!(
            downsample(&s, 2, Aggregate::Sum).unwrap().values(),
            &[4.0, 12.0]
        );
        assert_eq!(
            downsample(&s, 2, Aggregate::Count).unwrap().values(),
            &[2.0, 2.0]
        );
    }

    #[test]
    fn downsample_skips_empty_buckets() {
        // Irregular series with a gap spanning bucket 1.
        let s = TimeSeries::new("x", vec![0, 1, 10, 11], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let d = downsample(&s, 4, Aggregate::Mean).unwrap();
        assert_eq!(d.timestamps(), &[0, 8]);
        assert_eq!(d.values(), &[1.5, 3.5]);
    }

    #[test]
    fn downsample_validates() {
        let s = TimeSeries::from_values("x", vec![1.0]);
        assert!(downsample(&s, 0, Aggregate::Mean).is_err());
        let empty = TimeSeries::from_values("x", vec![]);
        assert!(downsample(&empty, 2, Aggregate::Mean).is_err());
    }

    #[test]
    fn summarize_collapses_series() {
        let s = TimeSeries::from_values("x", vec![1.0, 2.0, 3.0]);
        assert_eq!(summarize(&s, Aggregate::Mean).unwrap(), 2.0);
        assert_eq!(summarize(&s, Aggregate::Max).unwrap(), 3.0);
        assert_eq!(summarize(&s, Aggregate::Count).unwrap(), 3.0);
        let empty = TimeSeries::from_values("x", vec![]);
        assert!(summarize(&empty, Aggregate::Mean).is_err());
    }

    #[test]
    fn align_last_value_carries_forward() {
        let reference = TimeSeries::new("r", vec![5, 10, 15, 20], vec![0.0; 4]).unwrap();
        let context = TimeSeries::new("room", vec![0, 12, 18], vec![20.0, 21.0, 22.0]).unwrap();
        let aligned = align_last_value(&reference, &context).unwrap();
        assert_eq!(aligned.timestamps(), reference.timestamps());
        assert_eq!(aligned.values(), &[20.0, 20.0, 21.0, 22.0]);
        assert_eq!(aligned.name(), "room");
    }

    #[test]
    fn align_before_first_context_sample_uses_first_value() {
        let reference = TimeSeries::new("r", vec![0, 1], vec![0.0, 0.0]).unwrap();
        let context = TimeSeries::new("c", vec![100], vec![7.0]).unwrap();
        let aligned = align_last_value(&reference, &context).unwrap();
        assert_eq!(aligned.values(), &[7.0, 7.0]);
    }

    #[test]
    fn align_rejects_empty_inputs() {
        let s = TimeSeries::from_values("x", vec![1.0]);
        let empty = TimeSeries::from_values("e", vec![]);
        assert!(align_last_value(&empty, &s).is_err());
        assert!(align_last_value(&s, &empty).is_err());
    }
}
