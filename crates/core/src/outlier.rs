//! The outlier data structure: the paper's ⟨global score, outlierness,
//! support⟩ triple with full hierarchy provenance.

use std::sync::Arc;

use hierod_hierarchy::{Level, PhaseKind};

/// A hierarchical outlier: the paper's result triple plus its location.
///
/// Its names are shared with the [`LevelOutlier`](crate::LevelOutlier) it
/// was built from (and with every other outlier of that series), so
/// building, cloning and dropping a report moves reference counts, not
/// strings.
#[derive(Debug, Clone, PartialEq)]
pub struct HierOutlier {
    /// Level at which the outlier was originally detected (`startLevel`).
    pub level: Level,
    /// Machine id.
    pub machine: Arc<str>,
    /// Job id, when the outlier lies inside a job.
    pub job: Option<Arc<str>>,
    /// Phase, when the outlier lies inside a phase.
    pub phase: Option<PhaseKind>,
    /// Sensor / feature name the outlier was found on.
    pub sensor: Option<Arc<str>>,
    /// Sample index within its series, when point-granular.
    pub index: Option<usize>,
    /// Timestamp of the outlier, when available.
    pub timestamp: Option<u64>,
    /// The significance computed by the chosen algorithm
    /// (`CalcOutlierness`); scale depends on the algorithm.
    pub outlierness: f64,
    /// Fraction of corresponding sensors confirming the outlier, in
    /// `[0, 1]`; 0 when the sensor has no correspondents.
    pub support: f64,
    /// Number of hierarchy levels (start level included) at which the
    /// outlier is visible — `1..=5`. "The higher a global score is, the
    /// more obvious was the outlier."
    pub global_score: u8,
}

impl HierOutlier {
    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        let mut loc = format!("{}@{}", self.level.label(), self.machine);
        if let Some(j) = &self.job {
            loc.push('/');
            loc.push_str(j);
        }
        if let Some(p) = self.phase {
            loc.push('/');
            loc.push_str(p.label());
        }
        if let Some(s) = &self.sensor {
            loc.push('/');
            loc.push_str(s);
        }
        if let Some(i) = self.index {
            loc.push_str(&format!("[{i}]"));
        }
        format!(
            "{loc}: global={} outlierness={:.3} support={:.2}",
            self.global_score, self.outlierness, self.support
        )
    }
}

/// A warning raised by the downward pass of `CalcGlobalScore`: the outlier
/// is visible at `level` but leaves no trace at `missing_level` below it —
/// "a measurement error must be assumed".
#[derive(Debug, Clone, PartialEq)]
pub enum Warning {
    /// Suspected measurement error (outlier without lower-level evidence).
    SuspectedMeasurementError {
        /// Index of the outlier in the report's `outliers` vector.
        outlier_idx: usize,
        /// The level at which evidence is missing.
        missing_level: Level,
    },
}

/// The result of `FindHierarchicalOutlier` over one plant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HierReport {
    /// Detected outliers with their triples.
    pub outliers: Vec<HierOutlier>,
    /// Measurement-error warnings from the downward pass.
    pub warnings: Vec<Warning>,
}

impl HierReport {
    /// Number of outliers.
    pub fn len(&self) -> usize {
        self.outliers.len()
    }

    /// `true` when no outliers were found.
    pub fn is_empty(&self) -> bool {
        self.outliers.is_empty()
    }

    /// Outliers sorted by a key function, descending (highest first).
    pub fn ranked_by<F: Fn(&HierOutlier) -> f64>(&self, key: F) -> Vec<&HierOutlier> {
        let mut v: Vec<&HierOutlier> = self.outliers.iter().collect();
        v.sort_by(|a, b| key(b).total_cmp(&key(a)));
        v
    }

    /// `true` if the outlier at `idx` carries a measurement-error warning.
    pub fn is_suspected_measurement_error(&self, idx: usize) -> bool {
        self.warnings.iter().any(|w| {
            let Warning::SuspectedMeasurementError { outlier_idx, .. } = w;
            *outlier_idx == idx
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outlier() -> HierOutlier {
        HierOutlier {
            level: Level::Phase,
            machine: "m0".into(),
            job: Some("m0-j1".into()),
            phase: Some(PhaseKind::Printing),
            sensor: Some("m0.bed_temp.0".into()),
            index: Some(42),
            timestamp: Some(1042),
            outlierness: 7.5,
            support: 0.5,
            global_score: 3,
        }
    }

    #[test]
    fn summary_contains_triple_and_location() {
        let s = outlier().summary();
        assert!(s.contains("m0-j1"));
        assert!(s.contains("bed_temp"));
        assert!(s.contains("[42]"));
        assert!(s.contains("global=3"));
        assert!(s.contains("support=0.50"));
    }

    #[test]
    fn report_ranking() {
        let mut a = outlier();
        a.outlierness = 1.0;
        let mut b = outlier();
        b.outlierness = 9.0;
        let report = HierReport {
            outliers: vec![a, b],
            warnings: vec![],
        };
        let ranked = report.ranked_by(|o| o.outlierness);
        assert_eq!(ranked[0].outlierness, 9.0);
        assert_eq!(report.len(), 2);
        assert!(!report.is_empty());
    }

    #[test]
    fn warning_lookup() {
        let report = HierReport {
            outliers: vec![outlier(), outlier()],
            warnings: vec![Warning::SuspectedMeasurementError {
                outlier_idx: 1,
                missing_level: Level::Phase,
            }],
        };
        assert!(!report.is_suspected_measurement_error(0));
        assert!(report.is_suspected_measurement_error(1));
    }

    #[test]
    fn empty_report() {
        let r = HierReport::default();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }
}
