//! # hierod-timeseries
//!
//! Time-series substrate for the `hierod` hierarchical outlier-detection
//! library (reproduction of Hoppenstedt et al., *Towards a Hierarchical
//! Approach for Outlier Detection in Industrial Production Settings*,
//! EDBT 2019 workshops).
//!
//! The paper's production hierarchy (its Fig. 2) mixes three data
//! granularities — points, sub-sequences, and whole time series — and its
//! Table 1 classifies detection techniques by which granularity they can
//! consume. This crate provides the shared machinery all of those detectors
//! are built on:
//!
//! * [`series`] — containers: [`TimeSeries`] and [`DiscreteSequence`].
//! * [`dense`] — [`Dense`], the checked row-major table the matrix and
//!   dynamic-programming detectors keep their state in.
//! * [`stats`] — descriptive statistics, order statistics by selection,
//!   robust estimators, autocovariances.
//! * [`window`] — fixed-size overlapping/sliding window extraction.
//! * [`resample`] — aggregation between hierarchy resolutions.
//! * [`normalize`] — z-normalization and the fitted per-column scaler.
//! * [`distance`] — DTW, LCS, Hamming and match-count measures on
//!   sequences.
//! * [`sax`] — Symbolic Aggregate approXimation (Lin et al., Table 1 row
//!   "Symbolic Representation").
//! * [`fft`] — radix-2 FFT, power spectra and banded spectral signatures
//!   (Table 1 row "Vibration Signature").
//! * [`histogram`] — V-optimal histograms (Table 1 row "Histogram
//!   Representation").
//!
//! Everything is implemented from scratch; the crate has no runtime
//! dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod dense;
pub mod distance;
pub mod error;
pub mod fft;
pub mod histogram;
pub mod normalize;
pub mod resample;
pub mod sax;
pub mod series;
pub mod stats;
pub mod window;

pub use dense::Dense;
pub use error::Error;
pub use series::{DiscreteSequence, TimeSeries};
pub use window::{Window, WindowIter, WindowSpec};
