//! `CalcGlobalScore`: upward confirmation and downward verification.
//!
//! The paper's recursion:
//!
//! ```text
//! CalcGlobalScore(level, up):
//!   algorithm = ChooseAlgorithm(level); CalculateOutlier(algorithm, level);
//!   if up:   if Outlier Detected in Level { globalScore++; recurse(level++) }
//!   else:    if No Outlier Detected in Level { Warning for Wrong Measurement }
//!            else { recurse(level--) }
//! ```
//!
//! "If outliers are identified in a high production level, it is assumed
//! that these outliers can be also identified in a lower level as well.
//! Adversely, if no outlier can be found at a lower level, but in a higher
//! level, a measurement error must be assumed."
//!
//! Base cases the pseudocode leaves implicit, made explicit here:
//! the upward walk stops at the production level (nothing above ⑤); the
//! downward walk stops at the phase level (nothing below ①); "outlier
//! detected in level" means an outlier at that level *associated* with the
//! one being scored — same machine, and same job / overlapping time span
//! where the level carries that information (see `associated`).

use hierod_hierarchy::Level;

use crate::detect_level::LevelOutlier;
use crate::evidence::Evidence;

/// How far (ticks) either side of its own timestamp an outlier outside any
/// known job span looks for environment evidence.
const ENV_FALLBACK_TICKS: u64 = 512;

/// Whether `level`'s detections contain an outlier associated with
/// `outlier` (detected at a possibly different level); `None` when `level`
/// was not evaluated.
///
/// Association rules per evidence level:
/// * **phase / job / production-line** — same machine and same job when the
///   outlier names one; same machine otherwise.
/// * **environment** — same machine and a detection whose timestamp falls
///   within the time span of the outlier's job (environment data has no job
///   structure of its own), or within `ENV_FALLBACK_TICKS` of the
///   outlier's own timestamp when the job's span is unknown.
/// * **production** — same machine.
pub(crate) fn associated(
    evidence: &Evidence<'_>,
    outlier: &LevelOutlier,
    level: Level,
) -> Option<bool> {
    let at = evidence.level(level)?;
    let machine = &*outlier.machine;
    Some(match at.level() {
        Level::Environment => {
            // Match through the job's time span when known, else through
            // the outlier's own timestamp.
            let span = outlier
                .job
                .as_deref()
                .and_then(|job| evidence.job_span(machine, job));
            match (span, outlier.timestamp) {
                (Some((t0, t1)), _) => at.has_outlier_in_span(machine, t0, t1),
                (None, Some(t)) => at.has_outlier_in_span(
                    machine,
                    t.saturating_sub(ENV_FALLBACK_TICKS),
                    t.saturating_add(ENV_FALLBACK_TICKS),
                ),
                (None, None) => at.has_outlier_for(machine, None),
            }
        }
        Level::Production => at.has_outlier_for(machine, None),
        _ => at.has_outlier_for(machine, outlier.job.as_deref()),
    })
}

/// The upward pass: starting from the outlier's own level (score 1), +1 for
/// each consecutive higher level with an associated detection; stops at the
/// first level without one (or not evaluated).
pub(crate) fn upward_global_score(evidence: &Evidence<'_>, outlier: &LevelOutlier) -> u8 {
    let mut score = 1_u8;
    let mut level = outlier.level;
    while let Some(up) = level.up() {
        if associated(evidence, outlier, up) != Some(true) {
            break;
        }
        score += 1;
        level = up;
    }
    score
}

/// The downward pass: descends from the outlier's level; returns the first
/// lower level with **no** associated detection (the paper's measurement-
/// error warning), or `None` when every lower level confirms or a level on
/// the way was not evaluated (no verdict).
pub(crate) fn downward_missing_level(
    evidence: &Evidence<'_>,
    outlier: &LevelOutlier,
) -> Option<Level> {
    let mut level = outlier.level;
    while let Some(down) = level.down() {
        if !associated(evidence, outlier, down)? {
            return Some(down);
        }
        level = down;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect_level::{detect_level, LevelDetections};
    use crate::policy::AlgorithmPolicy;
    use hierod_hierarchy::Plant;
    use hierod_synth::ScenarioBuilder;
    use std::collections::BTreeMap;

    fn all_detections(plant: &Plant, policy: &AlgorithmPolicy) -> BTreeMap<Level, LevelDetections> {
        Level::ALL
            .into_iter()
            .map(|l| (l, detect_level(plant, l, policy).unwrap()))
            .collect()
    }

    #[test]
    fn upward_score_bounded_by_levels() {
        let s = ScenarioBuilder::new(17)
            .machines(3)
            .jobs_per_machine(8)
            .redundancy(2)
            .phase_samples(50)
            .anomaly_rate(0.8)
            .measurement_error_fraction(0.0)
            .magnitude_sigmas(20.0)
            .build();
        let policy = AlgorithmPolicy::default();
        let dets = all_detections(&s.plant, &policy);
        let evidence = Evidence::new(&s.plant, &dets, &policy);
        for o in &dets[&Level::Phase].outliers {
            let g = upward_global_score(&evidence, o);
            assert!((1..=5).contains(&g), "global score {g}");
        }
    }

    #[test]
    fn strong_process_anomalies_reach_higher_global_scores() {
        // Keep anomalies a minority: the unsupervised job-level detector
        // defines "normal" from the majority of jobs.
        let strong = ScenarioBuilder::new(23)
            .machines(3)
            .jobs_per_machine(12)
            .redundancy(3)
            .phase_samples(50)
            .anomaly_rate(0.3)
            .measurement_error_fraction(0.0)
            .magnitude_sigmas(25.0)
            .build();
        let policy = AlgorithmPolicy::default();
        let dets = all_detections(&strong.plant, &policy);
        let evidence = Evidence::new(&strong.plant, &dets, &policy);
        let gmax = dets[&Level::Phase]
            .outliers
            .iter()
            .map(|o| upward_global_score(&evidence, o))
            .max()
            .unwrap_or(1);
        assert!(
            gmax >= 2,
            "process anomalies degrade CAQ, so some phase outlier must be \
             confirmed at the job level (max global score {gmax})"
        );
    }

    #[test]
    fn downward_pass_confirms_job_outliers_with_phase_evidence() {
        let s = ScenarioBuilder::new(29)
            .machines(3)
            .jobs_per_machine(10)
            .redundancy(2)
            .phase_samples(50)
            .anomaly_rate(0.8)
            .measurement_error_fraction(0.0)
            .magnitude_sigmas(25.0)
            .build();
        let policy = AlgorithmPolicy::default();
        let dets = all_detections(&s.plant, &policy);
        let evidence = Evidence::new(&s.plant, &dets, &policy);
        // Job-level outliers on truly anomalous jobs should find phase
        // evidence below (no warning).
        let truth = s.truth.anomalous_jobs();
        let named = |o: &LevelOutlier| {
            let job = o.job.as_deref().unwrap_or_default();
            truth.contains(&(o.machine.to_string(), job.to_string()))
        };
        let confirmed = dets[&Level::Job]
            .outliers
            .iter()
            .filter(|o| named(o))
            .filter(|o| downward_missing_level(&evidence, o).is_none())
            .count();
        let total = dets[&Level::Job]
            .outliers
            .iter()
            .filter(|o| named(o))
            .count();
        if total > 0 {
            assert!(
                confirmed * 2 >= total,
                "most true job outliers should be confirmed below ({confirmed}/{total})"
            );
        }
    }

    #[test]
    fn downward_pass_missing_evidence_yields_level() {
        // Outlier fabricated at the job level of a clean plant: the phase
        // level below holds no associated detection -> warning.
        let s = ScenarioBuilder::new(4)
            .machines(1)
            .jobs_per_machine(4)
            .phase_samples(40)
            .anomaly_rate(0.0)
            .build();
        let policy = AlgorithmPolicy::default();
        let dets = all_detections(&s.plant, &policy);
        let evidence = Evidence::new(&s.plant, &dets, &policy);
        let fake = LevelOutlier {
            level: Level::Job,
            machine: "m0".into(),
            job: Some("m0-j1".into()),
            phase: None,
            sensor: None,
            index: None,
            timestamp: Some(0),
            outlierness: 10.0,
            raw_score: 10.0,
        };
        assert_eq!(downward_missing_level(&evidence, &fake), Some(Level::Phase));
        // Phase-level outliers have nothing below: never a warning.
        let fake_phase = LevelOutlier {
            level: Level::Phase,
            ..fake
        };
        assert_eq!(downward_missing_level(&evidence, &fake_phase), None);
    }

    #[test]
    fn fallback_window_saturates_at_the_end_of_the_clock() {
        // A job the plant does not hold has no span, so the environment
        // association falls back to the outlier's own timestamp — here one
        // tick short of `u64::MAX`, whose window must end at `u64::MAX`
        // instead of overflowing.
        let s = ScenarioBuilder::new(4)
            .machines(1)
            .jobs_per_machine(2)
            .phase_samples(40)
            .anomaly_rate(0.0)
            .build();
        let policy = AlgorithmPolicy::default();
        let mut dets = all_detections(&s.plant, &policy);
        let late = |level, job: Option<&str>, timestamp| LevelOutlier {
            level,
            machine: "m0".into(),
            job: job.map(Into::into),
            phase: None,
            sensor: None,
            index: None,
            timestamp: Some(timestamp),
            outlierness: 10.0,
            raw_score: 10.0,
        };
        let env = dets.get_mut(&Level::Environment).unwrap();
        env.outliers.push(late(Level::Environment, None, u64::MAX));
        let evidence = Evidence::new(&s.plant, &dets, &policy);
        let unknown_job = late(Level::Job, Some("m0-j99"), u64::MAX - 1);
        assert_eq!(
            associated(&evidence, &unknown_job, Level::Environment),
            Some(true)
        );
        let no_job = late(Level::Job, None, u64::MAX - 1);
        assert_eq!(
            associated(&evidence, &no_job, Level::Environment),
            Some(true)
        );
    }

    #[test]
    fn association_rules_per_level() {
        let s = ScenarioBuilder::new(41)
            .machines(2)
            .jobs_per_machine(4)
            .phase_samples(40)
            .anomaly_rate(1.0)
            .magnitude_sigmas(18.0)
            .build();
        let policy = AlgorithmPolicy::default();
        let dets = all_detections(&s.plant, &policy);
        let evidence = Evidence::new(&s.plant, &dets, &policy);
        if let Some(o) = dets[&Level::Phase].outliers.first() {
            // An outlier is associated with its own level's detections.
            assert_eq!(associated(&evidence, o, Level::Phase), Some(true));
            // A level missing from the map gives no verdict.
            let phase_only = BTreeMap::from([(Level::Phase, dets[&Level::Phase].clone())]);
            let partial = Evidence::new(&s.plant, &phase_only, &policy);
            assert_eq!(associated(&partial, o, Level::Job), None);
        }
        // Production associations ignore jobs.
        for o in &dets[&Level::Production].outliers {
            assert_eq!(associated(&evidence, o, Level::Production), Some(true));
        }
    }
}
