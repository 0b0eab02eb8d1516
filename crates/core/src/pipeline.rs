//! `FindHierarchicalOutlier(TS, LV)` — the end-to-end Algorithm 1.
//!
//! ```text
//! inputs : startLevel(LV) and timeSeries(TS)      // here: the plant
//! output : <global score, outlierness, support>
//! algorithm := ChooseAlgorithm(startLevel);        // policy
//! outlierList := CalculateOutlier(algorithm, startLevel, TS);
//! foreach outlier: support over corresponding sensors (normalized);
//! outlierness := CalcOutlierness(algorithm);
//! globalScore := CalcGlobalScore(level++, true);   // upward confirmation
//! CalcGlobalScore(level--, false);                 // downward verification
//! ```
//!
//! Every level's `CalculateOutlier` is evaluated once and shared between
//! the upward and downward passes (the pseudocode re-runs it per recursion
//! step; the result is identical and the single evaluation keeps the
//! "calculation speed" requirement of the paper's Section 1 honest).

use std::collections::BTreeMap;
use std::sync::Arc;

use hierod_hierarchy::{Level, Plant};

use hierod_detect::{DetectError, Result};

use crate::detect_level::LevelDetections;
use crate::evidence::Evidence;
use crate::global_score::{downward_missing_level, upward_global_score};
use crate::outlier::{HierOutlier, HierReport, Warning};
use crate::policy::AlgorithmPolicy;
use crate::support::support_among;

/// Options for a `FindHierarchicalOutlier` run.
#[derive(Debug, Clone, Default)]
pub struct FindOptions {
    /// The per-level algorithm policy (`ChooseAlgorithm`).
    pub policy: AlgorithmPolicy,
}

/// Runs Algorithm 1: detects outliers at `start_level` and annotates each
/// with the ⟨global score, outlierness, support⟩ triple plus downward
/// measurement-error warnings.
///
/// # Errors
/// Propagates detector construction/scoring failures.
pub fn find_hierarchical_outliers(
    plant: &Plant,
    start_level: Level,
    options: &FindOptions,
) -> Result<HierReport> {
    let policy = &options.policy;
    // Evaluate every level once (in parallel; the levels are independent).
    let detections = crate::detect_level::detect_all_levels(plant, policy)?;
    build_report(plant, start_level, &detections, policy)
}

/// Builds the report from precomputed level detections (shared with the
/// experiment harness, which reuses detections across configurations).
/// The support and global-score lookups are indexed once per call
/// (`Evidence`), so an outlier's triple costs ordered lookups, not scans
/// of every series and outlier.
///
/// # Errors
/// [`DetectError::Missing`] when `detections` lacks the start level or the
/// phase level (the downward pass needs phase evidence); callers composing
/// partial detection maps get an error instead of a panic.
pub fn build_report(
    plant: &Plant,
    start_level: Level,
    detections: &BTreeMap<Level, LevelDetections>,
    policy: &AlgorithmPolicy,
) -> Result<HierReport> {
    let start = detections
        .get(&start_level)
        .ok_or_else(|| DetectError::Missing {
            what: format!("detections for start level {start_level:?}"),
        })?;
    if !detections.contains_key(&Level::Phase) {
        return Err(DetectError::Missing {
            what: "detections for level Phase (required by the downward pass)".into(),
        });
    }
    let evidence = Evidence::new(plant, detections, policy);
    let mut report = HierReport {
        outliers: Vec::with_capacity(start.outliers.len()),
        warnings: Vec::new(),
    };
    // An outlier of a series follows the previous one of that series and
    // holds the same names (pointer-equal), so a run of them looks its
    // correspondents up once.
    let series_runs = start
        .outliers
        .chunk_by(|a, b| a.machine == b.machine && a.sensor == b.sensor);
    for run in series_runs {
        let correspondents = match run.first() {
            Some(first) if start_level == Level::Phase || start_level == Level::Environment => {
                evidence.correspondents_of(first)
            }
            _ => &[], // no corresponding sensors above the sensor levels
        };
        for o in run {
            let support = support_among(&evidence, correspondents, o);
            let global = upward_global_score(&evidence, o);
            let missing = downward_missing_level(&evidence, o);
            let idx = report.outliers.len();
            report.outliers.push(HierOutlier {
                level: o.level,
                machine: Arc::clone(&o.machine),
                job: o.job.clone(),
                phase: o.phase,
                sensor: o.sensor.clone(),
                index: o.index,
                timestamp: o.timestamp,
                outlierness: o.outlierness,
                support,
                global_score: global,
            });
            if let Some(missing_level) = missing {
                report.warnings.push(Warning::SuspectedMeasurementError {
                    outlier_idx: idx,
                    missing_level,
                });
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierod_synth::{ScenarioBuilder, Scope};

    #[test]
    fn end_to_end_phase_start() {
        let s = ScenarioBuilder::new(55)
            .machines(2)
            .jobs_per_machine(6)
            .redundancy(3)
            .phase_samples(50)
            .anomaly_rate(0.8)
            .magnitude_sigmas(15.0)
            .build();
        let report =
            find_hierarchical_outliers(&s.plant, Level::Phase, &FindOptions::default()).unwrap();
        assert!(!report.is_empty());
        for o in &report.outliers {
            assert_eq!(o.level, Level::Phase);
            assert!((1..=5).contains(&o.global_score));
            assert!((0.0..=1.0).contains(&o.support));
            assert!(o.outlierness >= 6.0);
        }
    }

    #[test]
    fn clean_plant_produces_empty_or_tiny_report() {
        let s = ScenarioBuilder::new(56)
            .machines(1)
            .jobs_per_machine(4)
            .phase_samples(50)
            .anomaly_rate(0.0)
            .build();
        let report =
            find_hierarchical_outliers(&s.plant, Level::Phase, &FindOptions::default()).unwrap();
        // A handful of noise crossings may survive the threshold; the bulk
        // must be silent.
        assert!(report.len() < 10, "clean plant reported {}", report.len());
    }

    #[test]
    fn starting_at_job_level_warns_without_phase_evidence() {
        // High measurement-error rate: job level stays clean while the
        // phase level fires -> starting at the job level, outliers (if any)
        // on clean jobs warn.
        let s = ScenarioBuilder::new(57)
            .machines(3)
            .jobs_per_machine(10)
            .redundancy(2)
            .phase_samples(40)
            .anomaly_rate(0.9)
            .measurement_error_fraction(0.0)
            .magnitude_sigmas(20.0)
            .build();
        let report =
            find_hierarchical_outliers(&s.plant, Level::Job, &FindOptions::default()).unwrap();
        for o in &report.outliers {
            assert_eq!(o.level, Level::Job);
            assert_eq!(o.support, 0.0);
        }
        // Warnings reference valid outlier indices.
        for w in &report.warnings {
            let Warning::SuspectedMeasurementError { outlier_idx, .. } = w;
            assert!(*outlier_idx < report.len());
        }
    }

    #[test]
    fn partial_detection_maps_error_instead_of_panicking() {
        let s = ScenarioBuilder::new(56)
            .machines(1)
            .jobs_per_machine(3)
            .phase_samples(40)
            .build();
        let policy = AlgorithmPolicy::default();
        // Empty map: the start level is missing.
        let empty = BTreeMap::new();
        let err = build_report(&s.plant, Level::Phase, &empty, &policy).unwrap_err();
        assert!(matches!(err, hierod_detect::DetectError::Missing { .. }));
        // Map holding only the job level: phase evidence is missing.
        let job_only: BTreeMap<_, _> = crate::detect_level::detect_all_levels(&s.plant, &policy)
            .unwrap()
            .into_iter()
            .filter(|(l, _)| *l == Level::Job)
            .collect();
        let err = build_report(&s.plant, Level::Job, &job_only, &policy).unwrap_err();
        assert!(matches!(err, hierod_detect::DetectError::Missing { .. }));
    }

    #[test]
    fn process_anomalies_outscore_measurement_errors_on_support() {
        let s = ScenarioBuilder::new(58)
            .machines(3)
            .jobs_per_machine(12)
            .redundancy(3)
            .phase_samples(50)
            .anomaly_rate(1.0)
            .measurement_error_fraction(0.5)
            .magnitude_sigmas(15.0)
            .build();
        let report =
            find_hierarchical_outliers(&s.plant, Level::Phase, &FindOptions::default()).unwrap();
        // Split detected outliers by ground-truth scope via affected sensor
        // + index match.
        let mut pa_support = Vec::new();
        let mut me_support = Vec::new();
        for o in &report.outliers {
            let Some(sensor) = o.sensor.as_deref() else {
                continue;
            };
            let Some(idx) = o.index else { continue };
            let hit = s.truth.injections.iter().find(|r| {
                *r.machine == *o.machine
                    && Some(r.job.as_str()) == o.job.as_deref()
                    && Some(r.phase) == o.phase
                    && r.affected_sensors.iter().any(|a| a == sensor)
                    && idx >= r.start_idx.saturating_sub(2)
                    && idx <= r.start_idx + r.len + 2
            });
            match hit.map(|r| r.scope) {
                Some(Scope::ProcessAnomaly) => pa_support.push(o.support),
                Some(Scope::MeasurementError) => me_support.push(o.support),
                None => {}
            }
        }
        assert!(!pa_support.is_empty() && !me_support.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&pa_support) > mean(&me_support) + 0.3,
            "support must separate scopes: PA {} vs ME {}",
            mean(&pa_support),
            mean(&me_support)
        );
    }
}
