//! Cross-crate integration tests: scenario generation → level detection →
//! Algorithm 1 → evaluation, through the public facade.

use hierod::core::experiment::{evaluate_levels, job_level_eval, point_level_eval, triage_eval};
use hierod::core::pipeline::build_report;
use hierod::core::{find_hierarchical_outliers, AlgorithmPolicy, FindOptions, FusionRule};
use hierod::hierarchy::{Level, LevelView};
use hierod::synth::{ScenarioBuilder, Scope};

fn standard() -> hierod::synth::Scenario {
    ScenarioBuilder::new(2024)
        .machines(3)
        .jobs_per_machine(10)
        .redundancy(3)
        .phase_samples(50)
        .anomaly_rate(0.3)
        .measurement_error_fraction(0.5)
        .magnitude_sigmas(12.0)
        .build()
}

#[test]
fn full_pipeline_produces_consistent_triples() {
    let scenario = standard();
    let report = find_hierarchical_outliers(&scenario.plant, Level::Phase, &FindOptions::default())
        .expect("pipeline");
    assert!(!report.is_empty(), "injections must produce detections");
    for o in &report.outliers {
        // Triple invariants.
        assert!((0.0..=1.0).contains(&o.support), "support {}", o.support);
        assert!((1..=5).contains(&o.global_score));
        assert!(o.outlierness.is_finite() && o.outlierness > 0.0);
        // Provenance resolves against the plant.
        let line = scenario.plant.line(&o.machine).expect("machine exists");
        if let Some(job) = &o.job {
            let job = line.job(job).expect("job exists");
            if let (Some(phase), Some(sensor), Some(idx)) = (o.phase, o.sensor.as_deref(), o.index)
            {
                let phase = job.phase(phase).expect("phase exists");
                let series = phase.sensor_series(sensor).expect("sensor exists");
                assert!(idx < series.len());
                assert_eq!(o.timestamp, Some(series.timestamps()[idx]));
            }
        }
    }
}

#[test]
fn deterministic_end_to_end() {
    let a = find_hierarchical_outliers(&standard().plant, Level::Phase, &FindOptions::default())
        .unwrap();
    let b = find_hierarchical_outliers(&standard().plant, Level::Phase, &FindOptions::default())
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn every_start_level_works() {
    let scenario = standard();
    for level in Level::ALL {
        let report = find_hierarchical_outliers(&scenario.plant, level, &FindOptions::default())
            .unwrap_or_else(|e| panic!("level {level}: {e}"));
        for o in &report.outliers {
            assert_eq!(o.level, level);
        }
        // Warnings only reference outliers of this report.
        for w in &report.warnings {
            let hierod::core::Warning::SuspectedMeasurementError { outlier_idx, .. } = w;
            assert!(*outlier_idx < report.len());
        }
    }
}

#[test]
fn support_separates_scopes_end_to_end() {
    let scenario = ScenarioBuilder::new(31)
        .machines(3)
        .jobs_per_machine(12)
        .redundancy(3)
        .phase_samples(50)
        .anomaly_rate(0.6)
        .measurement_error_fraction(0.5)
        .magnitude_sigmas(14.0)
        .build();
    let triage = triage_eval(&scenario, &AlgorithmPolicy::default()).expect("triage");
    assert!(triage.matched_process > 0);
    assert!(triage.matched_measurement > 0);
    assert!(
        triage.support_auc.expect("both classes") > 0.7,
        "support AUC {:?}",
        triage.support_auc
    );
}

#[test]
fn hierarchy_improves_or_matches_flat_baseline() {
    let scenario = standard();
    let policy = AlgorithmPolicy::default();
    let fusion = FusionRule::default_weighted();
    let points = point_level_eval(&scenario, &policy, fusion).expect("points");
    let (b, h) = (
        points.baseline.pr_auc.expect("positives"),
        points.hierarchical.pr_auc.expect("positives"),
    );
    assert!(h >= b * 0.99, "hier {h} vs base {b}");
    let jobs = job_level_eval(&scenario, &policy, fusion).expect("jobs");
    if let (Some(jb), Some(jh)) = (jobs.baseline.roc_auc, jobs.hierarchical.roc_auc) {
        assert!(jh >= jb * 0.95, "job hier {jh} vs base {jb}");
    }
}

#[test]
fn measurement_errors_never_reach_high_global_scores_with_high_support() {
    let scenario = ScenarioBuilder::new(77)
        .machines(2)
        .jobs_per_machine(12)
        .redundancy(4)
        .phase_samples(50)
        .anomaly_rate(0.5)
        .measurement_error_fraction(1.0)
        .magnitude_sigmas(14.0)
        .build();
    let report =
        find_hierarchical_outliers(&scenario.plant, Level::Phase, &FindOptions::default()).unwrap();
    // Every injection is a measurement error; detected outliers matched to
    // one must have low support.
    for o in &report.outliers {
        let (Some(job), Some(phase), Some(sensor), Some(idx)) =
            (o.job.as_deref(), o.phase, o.sensor.as_deref(), o.index)
        else {
            continue;
        };
        let matched = scenario.truth.injections.iter().any(|r| {
            r.scope == Scope::MeasurementError
                && *r.machine == *o.machine
                && r.job == job
                && r.phase == phase
                && r.affected_sensors.iter().any(|a| a == sensor)
                && idx + 2 >= r.start_idx
                && idx <= r.start_idx + r.len + 2
        });
        if matched {
            assert!(
                o.support <= 0.5,
                "measurement error with support {}: {}",
                o.support,
                o.summary()
            );
        }
    }
}

#[test]
fn level_views_feed_detections_consistently() {
    let scenario = standard();
    let policy = AlgorithmPolicy::default();
    let detections = evaluate_levels(&scenario, &policy).expect("levels");
    // Every phase-level scored series corresponds to a real plant series.
    let phase_view = LevelView::extract(&scenario.plant, Level::Phase);
    assert_eq!(
        detections[&Level::Phase].series_scores.len(),
        phase_view.series.len()
    );
    // Job scores cover every job exactly once.
    assert_eq!(
        detections[&Level::Job].vector_scores.len(),
        scenario.plant.job_count()
    );
    // Reports built from shared detections agree with the one-shot API.
    let direct =
        find_hierarchical_outliers(&scenario.plant, Level::Phase, &FindOptions::default()).unwrap();
    let shared = build_report(&scenario.plant, Level::Phase, &detections, &policy).unwrap();
    assert_eq!(direct, shared);
}

#[test]
fn clean_plant_yields_quiet_report_at_every_level() {
    let scenario = ScenarioBuilder::new(13)
        .machines(2)
        .jobs_per_machine(6)
        .phase_samples(50)
        .anomaly_rate(0.0)
        .build();
    for level in Level::ALL {
        let report =
            find_hierarchical_outliers(&scenario.plant, level, &FindOptions::default()).unwrap();
        let budget = match level {
            Level::Phase => 12, // a few noise crossings are tolerable
            _ => 6,
        };
        assert!(
            report.len() <= budget,
            "level {level}: {} outliers on a clean plant",
            report.len()
        );
    }
}

#[test]
fn environment_start_level_detects_hvac_excursions_and_warns() {
    // A pure ambient excursion (HVAC event) touches nothing below the
    // environment level. Per the paper's downward rule — "if no outlier can
    // be found at a lower level, but in a higher level, a measurement error
    // must be assumed" — starting Algorithm 1 at level ③ must detect the
    // excursion AND flag it as a suspected measurement error, because the
    // job level below holds no associated evidence.
    let scenario = ScenarioBuilder::new(404)
        .machines(3)
        .jobs_per_machine(6)
        .phase_samples(40)
        .anomaly_rate(0.0)
        .environment_anomalies(1.0, 8.0)
        .build();
    assert_eq!(scenario.truth.environment_injections.len(), 3);
    let report =
        find_hierarchical_outliers(&scenario.plant, Level::Environment, &FindOptions::default())
            .expect("environment start level");
    assert!(
        !report.is_empty(),
        "HVAC excursions must be detected at the environment level"
    );
    // Every detected env outlier matching a true excursion carries a
    // downward measurement-error warning (nothing below confirms it).
    let mut matched_and_warned = 0;
    let mut matched = 0;
    for (i, o) in report.outliers.iter().enumerate() {
        let hit = scenario.truth.environment_injections.iter().any(|r| {
            *r.machine == *o.machine
                && o.sensor.as_deref() == Some(r.sensor.as_str())
                && o.index
                    .map(|idx| idx + 2 >= r.start_idx && idx <= r.start_idx + r.len + 2)
                    .unwrap_or(false)
        });
        if hit {
            matched += 1;
            if report.is_suspected_measurement_error(i) {
                matched_and_warned += 1;
            }
        }
    }
    assert!(matched > 0, "no detected outlier matched a true excursion");
    assert_eq!(
        matched, matched_and_warned,
        "a process-free ambient event must always warn (paper's downward rule)"
    );
}
