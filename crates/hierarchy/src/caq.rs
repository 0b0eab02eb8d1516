//! Computer-aided quality assurance (CAQ) results — the job-ending check.
//!
//! "A job … starts with a setup and ends with a computer-aided quality (CAQ)
//! check. The setup and quality tests are not time series, but provide
//! nevertheless high-dimensional data."

/// The outcome of one job's CAQ check: a high-dimensional measurement vector
//  (dimensional accuracy, surface roughness, density, …) plus a pass flag.
#[derive(Debug, Clone, PartialEq)]
pub struct CaqResult {
    /// Measurement names, parallel to `values`.
    pub names: Vec<String>,
    /// Measured values.
    pub values: Vec<f64>,
    /// Overall pass/fail verdict of the quality system.
    pub passed: bool,
}

impl CaqResult {
    /// Creates a result.
    ///
    /// # Panics
    /// Panics if `names` and `values` lengths differ (construction-time
    /// programming error, not a data error).
    pub fn new(names: Vec<String>, values: Vec<f64>, passed: bool) -> Self {
        assert_eq!(
            names.len(),
            values.len(),
            "CAQ names/values length mismatch"
        );
        Self {
            names,
            values,
            passed,
        }
    }

    /// Number of quality measurements.
    pub fn dims(&self) -> usize {
        self.values.len()
    }

    /// Value of a named measurement.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.names
            .iter()
            .zip(&self.values)
            .find(|(n, _)| *n == name)
            .map(|(_, &v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let c = CaqResult::new(
            vec!["density".into(), "roughness".into()],
            vec![0.98, 6.3],
            true,
        );
        assert_eq!(c.dims(), 2);
        assert_eq!(c.value("density"), Some(0.98));
        assert_eq!(c.value("nope"), None);
        assert!(c.passed);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        CaqResult::new(vec!["a".into()], vec![], true);
    }
}
