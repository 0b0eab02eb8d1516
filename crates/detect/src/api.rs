//! Detector traits and metadata.
//!
//! The paper's Table 1 classifies techniques along two axes: the technique
//! class (DA, UPA, …) and the data granularity it handles — points (PTS),
//! sub-sequences (SSQ), whole time series (TSS). [`TechniqueClass`] and
//! [`Capabilities`] encode those axes; the scorer traits encode how each
//! granularity is actually consumed:
//!
//! * [`PointScorer`] — per-sample outlierness of one numeric series.
//! * [`VectorScorer`] — outlierness of each row in a collection of fixed-
//!   width vectors (job feature vectors, embedded windows, spectral
//!   signatures — the work-horse trait for the DA family).
//! * [`DiscreteScorer`] — outlierness of each symbol sequence in a
//!   collection.
//! * [`SeriesScorer`] — outlierness of each whole numeric series in a
//!   collection.
//! * [`SupervisedScorer`] — fit on labeled vectors, then score new ones
//!   (the SA rows).

use std::fmt;

/// Errors produced by detectors.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectError {
    /// The input collection or series was too small for the method.
    NotEnoughData {
        /// Method name.
        what: &'static str,
        /// Minimum required.
        needed: usize,
        /// What was supplied.
        got: usize,
    },
    /// An invalid hyper-parameter.
    InvalidParameter {
        /// Parameter name.
        param: &'static str,
        /// Violated constraint.
        message: String,
    },
    /// Inconsistent input shapes (ragged rows, mismatched lengths).
    ShapeMismatch {
        /// Description of the mismatch.
        message: String,
    },
    /// A numeric failure (non-convergence, non-finite values).
    Numeric {
        /// Description.
        message: String,
    },
    /// The detector requires fitting before scoring.
    NotFitted,
    /// An error bubbled up from the time-series substrate.
    Substrate(String),
    /// An expected intermediate result was absent (e.g. a level missing
    /// from a detection map while assembling a report).
    Missing {
        /// What was expected but absent.
        what: String,
    },
}

impl DetectError {
    /// Convenience constructor for [`DetectError::InvalidParameter`].
    pub fn invalid(param: &'static str, message: impl Into<String>) -> Self {
        DetectError::InvalidParameter {
            param,
            message: message.into(),
        }
    }
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::NotEnoughData { what, needed, got } => {
                write!(f, "{what}: needs at least {needed} items, got {got}")
            }
            DetectError::InvalidParameter { param, message } => {
                write!(f, "invalid parameter `{param}`: {message}")
            }
            DetectError::ShapeMismatch { message } => write!(f, "shape mismatch: {message}"),
            DetectError::Numeric { message } => write!(f, "numeric error: {message}"),
            DetectError::NotFitted => write!(f, "detector must be fitted before scoring"),
            DetectError::Substrate(m) => write!(f, "substrate error: {m}"),
            DetectError::Missing { what } => write!(f, "missing result: {what}"),
        }
    }
}

impl std::error::Error for DetectError {}

impl From<hierod_timeseries::Error> for DetectError {
    fn from(e: hierod_timeseries::Error) -> Self {
        DetectError::Substrate(e.to_string())
    }
}

/// Result alias for detector operations.
pub type Result<T> = std::result::Result<T, DetectError>;

/// The paper's technique classes (Table 1 legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TechniqueClass {
    /// Discriminative approach.
    DA,
    /// Unsupervised parametric approach.
    UPA,
    /// Unsupervised online (OLAP) approach.
    UOA,
    /// Supervised approach.
    SA,
    /// Normal pattern database.
    NPD,
    /// Negative and mixed pattern database.
    NMD,
    /// Outlier subsequence.
    OS,
    /// Predictive model.
    PM,
    /// Information-theoretic model.
    ITM,
    /// Statistical baseline (not part of Table 1).
    Baseline,
}

impl TechniqueClass {
    /// The paper's abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            TechniqueClass::DA => "DA",
            TechniqueClass::UPA => "UPA",
            TechniqueClass::UOA => "UOA",
            TechniqueClass::SA => "SA",
            TechniqueClass::NPD => "NPD",
            TechniqueClass::NMD => "NMD",
            TechniqueClass::OS => "OS",
            TechniqueClass::PM => "PM",
            TechniqueClass::ITM => "ITM",
            TechniqueClass::Baseline => "BASE",
        }
    }

    /// The paper's expansion of the abbreviation.
    pub fn expansion(self) -> &'static str {
        match self {
            TechniqueClass::DA => "Discriminative Approach",
            TechniqueClass::UPA => "Unsupervised Parametric Approach",
            TechniqueClass::UOA => "Unsupervised Online Approach",
            TechniqueClass::SA => "Supervised Approach",
            TechniqueClass::NPD => "Normal Pattern Database",
            TechniqueClass::NMD => "Negative and Mixed Pattern Database",
            TechniqueClass::OS => "Outlier Subsequence",
            TechniqueClass::PM => "Predictive Model",
            TechniqueClass::ITM => "Information-Theoretic Model",
            TechniqueClass::Baseline => "Statistical Baseline",
        }
    }
}

impl fmt::Display for TechniqueClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Which data granularities a technique handles (Table 1's PTS/SSQ/TSS
/// columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capabilities {
    /// Points (PTS).
    pub points: bool,
    /// Sub-sequences (SSQ).
    pub subsequences: bool,
    /// Whole time series (TSS).
    pub series: bool,
}

impl Capabilities {
    /// All three granularities.
    pub(crate) const ALL: Capabilities = Capabilities {
        points: true,
        subsequences: true,
        series: true,
    };

    /// Builds from the three flags in table order.
    pub(crate) const fn new(points: bool, subsequences: bool, series: bool) -> Self {
        Self {
            points,
            subsequences,
            series,
        }
    }

    /// Number of granularities supported.
    pub fn count(self) -> usize {
        usize::from(self.points) + usize::from(self.subsequences) + usize::from(self.series)
    }

    /// Render as the table's check-mark triple.
    pub(crate) fn checkmarks(self) -> [&'static str; 3] {
        let mark = |b: bool| if b { "x" } else { " " };
        [
            mark(self.points),
            mark(self.subsequences),
            mark(self.series),
        ]
    }
}

/// Static metadata describing one detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorInfo {
    /// Human-readable technique name (the Table-1 row label).
    pub name: &'static str,
    /// Citation tag from the paper's bibliography, e.g. `"[16]"`.
    pub citation: &'static str,
    /// Technique class.
    pub class: TechniqueClass,
    /// Supported granularities.
    pub capabilities: Capabilities,
    /// `true` for SA rows (need labeled training data).
    pub supervised: bool,
}

/// Common metadata accessor implemented by every detector.
pub trait Detector {
    /// The detector's static metadata.
    fn info(&self) -> DetectorInfo;
}

/// Scores every sample of one numeric series (larger = more anomalous).
pub trait PointScorer: Detector {
    /// Returns one non-negative score per input sample.
    ///
    /// # Errors
    /// Implementations reject inputs shorter than their minimum context.
    fn score_points(&self, values: &[f64]) -> Result<Vec<f64>>;
}

/// Scores each row of a fixed-width vector collection against the rest of
/// the collection (unsupervised).
pub trait VectorScorer: Detector {
    /// Returns one non-negative score per row. Rows are borrowed slices so
    /// callers can score views into shared storage (job feature rows,
    /// sliding windows) without materializing an owned copy per row — use
    /// [`row_refs`] to adapt an owned `Vec<Vec<f64>>`.
    ///
    /// # Errors
    /// Implementations reject empty/ragged collections.
    fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>>;
}

/// Scores each discrete symbol sequence of a collection against the rest.
pub trait DiscreteScorer: Detector {
    /// Returns one non-negative score per sequence.
    ///
    /// # Errors
    /// Implementations reject empty collections.
    fn score_sequences(&self, seqs: &[&[u16]]) -> Result<Vec<f64>>;
}

/// Scores each whole numeric series of a collection against the rest.
pub trait SeriesScorer: Detector {
    /// Returns one non-negative score per series.
    ///
    /// # Errors
    /// Implementations reject empty collections or empty member series.
    fn score_series(&self, collection: &[&[f64]]) -> Result<Vec<f64>>;
}

/// Supervised scorer (the SA rows): fit on labeled vectors, score new ones.
pub trait SupervisedScorer: Detector {
    /// Fits the model. `labels[i]` is `true` for anomalous rows.
    ///
    /// # Errors
    /// Implementations reject empty, ragged, or single-class inputs as
    /// documented per detector.
    fn fit(&mut self, rows: &[Vec<f64>], labels: &[bool]) -> Result<()>;

    /// Scores rows with the fitted model (larger = more anomalous).
    ///
    /// # Errors
    /// Returns [`DetectError::NotFitted`] before a successful [`Self::fit`].
    fn predict(&self, rows: &[Vec<f64>]) -> Result<Vec<f64>>;
}

/// Validates that a vector collection is non-empty, rectangular, and free
/// of non-finite values, returning its width. Generic over the row type so
/// both borrowed (`&[&[f64]]`) and owned (`&[Vec<f64>]`) collections check
/// without conversion.
pub(crate) fn check_rows<R: AsRef<[f64]>>(what: &'static str, rows: &[R]) -> Result<usize> {
    let first = rows.first().ok_or(DetectError::NotEnoughData {
        what,
        needed: 1,
        got: 0,
    })?;
    let d = first.as_ref().len();
    if d == 0 {
        return Err(DetectError::ShapeMismatch {
            message: format!("{what}: zero-width rows"),
        });
    }
    if rows.iter().any(|r| r.as_ref().len() != d) {
        return Err(DetectError::ShapeMismatch {
            message: format!("{what}: ragged rows"),
        });
    }
    if rows
        .iter()
        .any(|r| r.as_ref().iter().any(|v| !v.is_finite()))
    {
        return Err(DetectError::Numeric {
            message: format!("{what}: input contains NaN or infinity"),
        });
    }
    Ok(d)
}

/// Borrows any owned row collection (`Vec<Vec<f64>>`, `Vec<Arc<[f64]>>`, …)
/// as the slice-of-slices shape [`VectorScorer::score_rows`] consumes.
pub fn row_refs<R: AsRef<[f64]>>(rows: &[R]) -> Vec<&[f64]> {
    rows.iter().map(AsRef::as_ref).collect()
}

/// Validates that a value slice contains only finite numbers.
pub(crate) fn check_finite(what: &'static str, values: &[f64]) -> Result<()> {
    if values.iter().any(|v| !v.is_finite()) {
        return Err(DetectError::Numeric {
            message: format!("{what}: input contains NaN or infinity"),
        });
    }
    Ok(())
}

/// Passes scores through when every one is finite. Scorers call it on
/// input already checked finite, so a non-finite score means the arithmetic
/// overflowed (magnitudes near `f64::MAX`): a typed error, not a ranking.
pub(crate) fn finite_scores(what: &'static str, scores: Vec<f64>) -> Result<Vec<f64>> {
    if scores.iter().any(|s| !s.is_finite()) {
        return Err(DetectError::Numeric {
            message: format!("{what}: scores overflow f64 at this input magnitude"),
        });
    }
    Ok(scores)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_metadata() {
        assert_eq!(TechniqueClass::DA.abbrev(), "DA");
        assert_eq!(
            TechniqueClass::ITM.expansion(),
            "Information-Theoretic Model"
        );
        assert_eq!(TechniqueClass::NPD.to_string(), "NPD");
    }

    #[test]
    fn capabilities_counting() {
        let c = Capabilities::new(true, false, true);
        assert_eq!(c.count(), 2);
        assert_eq!(Capabilities::ALL.count(), 3);
        assert_eq!(c.checkmarks(), ["x", " ", "x"]);
    }

    #[test]
    fn check_rows_validation() {
        assert!(check_rows::<Vec<f64>>("t", &[]).is_err());
        assert!(check_rows("t", &[vec![]]).is_err());
        assert!(check_rows("t", &[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert_eq!(check_rows("t", &[vec![1.0, 2.0]]).unwrap(), 2);
        assert!(check_rows("t", &[vec![1.0, f64::NAN]]).is_err());
        assert!(check_rows("t", &[vec![f64::INFINITY, 1.0]]).is_err());
        // Borrowed rows check identically.
        assert_eq!(check_rows("t", &[[1.0, 2.0].as_slice()]).unwrap(), 2);
        assert_eq!(row_refs(&[vec![1.0], vec![2.0]]), vec![&[1.0][..], &[2.0]]);
    }

    #[test]
    fn check_finite_validation() {
        assert!(check_finite("t", &[1.0, 2.0]).is_ok());
        assert!(check_finite("t", &[]).is_ok());
        assert!(check_finite("t", &[f64::NAN]).is_err());
        assert!(check_finite("t", &[f64::NEG_INFINITY]).is_err());
    }

    #[test]
    fn error_display() {
        let e = DetectError::NotEnoughData {
            what: "kmeans",
            needed: 2,
            got: 1,
        };
        assert!(e.to_string().contains("kmeans"));
        assert!(DetectError::NotFitted.to_string().contains("fitted"));
        let e: DetectError = hierod_timeseries::Error::Empty { what: "mean" }.into();
        assert!(matches!(e, DetectError::Substrate(_)));
    }
}
