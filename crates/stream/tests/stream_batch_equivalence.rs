//! Pins the streaming detector's central guarantee: replaying a plant
//! through `StreamDetector` in `BatchEquivalent` mode yields
//! the same outliers as batch detection on the finished plant — identical
//! outlier sets, scores within 1e-9, and the same Algorithm-1 global
//! scores and support fractions.

use hierod_core::pipeline::build_report;
use hierod_core::{detect_all_levels, AlgorithmPolicy, LevelOutlier, PhaseChoice};
use hierod_hierarchy::Level;
use hierod_stream::{ScorerMode, StreamConfig, StreamDetector, StreamEvent, StreamReport};
use hierod_synth::{Scenario, ScenarioBuilder};

fn scenario() -> Scenario {
    ScenarioBuilder::new(42)
        .machines(2)
        .jobs_per_machine(3)
        .redundancy(2)
        .phase_samples(40)
        .anomaly_rate(0.8)
        .build()
}

/// Replays the scenario into a streaming detector. Driving through
/// [`StreamEvent::from`] makes this pin cover the replay lowering too:
/// event order, lane kinds, and `JobComplete` addressing the open job.
fn run_stream(scenario: &Scenario, policy: AlgorithmPolicy, mode: ScorerMode) -> StreamReport {
    let config = StreamConfig { lateness: 0, mode };
    let mut det = StreamDetector::new(policy, config).expect("stream detector");
    for event in scenario.replay().into_iter().map(StreamEvent::from) {
        match event {
            StreamEvent::Control(control) => det.apply(&control).expect("control"),
            StreamEvent::Sample(lane, sample) => det.ingest(&lane, sample).expect("ingest"),
        }
    }
    det.finish().expect("finish")
}

fn outlier_key(o: &LevelOutlier) -> String {
    format!(
        "{:?}|{}|{:?}|{:?}|{:?}|{:?}",
        o.level, o.machine, o.job, o.phase, o.sensor, o.index
    )
}

fn assert_close(a: f64, b: f64, what: &str) {
    let tol = 1e-9 * b.abs().max(1.0);
    assert!((a - b).abs() <= tol, "{what}: stream {a} vs batch {b}");
}

#[test]
fn batch_equivalent_mode_reproduces_batch_verdicts() {
    // The default AR phase scorer, then `sax` — the Table-1 OS row, a
    // windowed point scorer (window sized to the 40-sample phases).
    let sax = AlgorithmPolicy {
        phase: PhaseChoice::PerSeries("sax(window_len=10)".parse().expect("valid spec")),
        ..AlgorithmPolicy::default()
    };
    for policy in [AlgorithmPolicy::default(), sax] {
        assert_stream_matches_batch(policy);
    }
}

fn assert_stream_matches_batch(policy: AlgorithmPolicy) {
    let scenario = scenario();

    let batch = detect_all_levels(&scenario.plant, &policy).expect("batch detections");
    let batch_report =
        build_report(&scenario.plant, Level::Phase, &batch, &policy).expect("batch report");

    let stream = run_stream(&scenario, policy, ScorerMode::BatchEquivalent);

    // Nothing was lost or reordered at lateness 0.
    assert_eq!(stream.stats.late_dropped, 0);
    assert_eq!(stream.stats.duplicates_dropped, 0);
    assert_eq!(stream.stats.series_failed, 0);
    assert_eq!(stream.stats.samples_released, stream.stats.samples_ingested);

    // Level by level: identical outlier sets, scores within tolerance.
    for level in Level::ALL {
        let b = batch.get(&level).expect("batch level");
        let s = stream.detections.get(&level).expect("stream level");
        let mut bo: Vec<&LevelOutlier> = b.outliers.iter().collect();
        let mut so: Vec<&LevelOutlier> = s.outliers.iter().collect();
        bo.sort_by_key(|o| outlier_key(o));
        so.sort_by_key(|o| outlier_key(o));
        assert_eq!(
            so.iter().map(|o| outlier_key(o)).collect::<Vec<_>>(),
            bo.iter().map(|o| outlier_key(o)).collect::<Vec<_>>(),
            "outlier set differs at level {level:?}"
        );
        for (s, b) in so.iter().zip(&bo) {
            let key = outlier_key(s);
            assert_close(s.outlierness, b.outlierness, &format!("outlierness {key}"));
            assert_close(s.raw_score, b.raw_score, &format!("raw_score {key}"));
        }
    }
    // At least one phase outlier exists with anomaly_rate 0.8, otherwise
    // the comparison above is vacuous.
    assert!(
        !batch.get(&Level::Phase).expect("phase").outliers.is_empty(),
        "scenario produced no phase outliers to compare"
    );

    // Algorithm-1 propagation: same global scores and support per outlier.
    let key = |machine: &str,
               job: &Option<String>,
               phase: &Option<_>,
               sensor: &Option<String>,
               index: &Option<usize>| {
        format!("{machine}|{job:?}|{phase:?}|{sensor:?}|{index:?}")
    };
    let mut bo: Vec<_> = batch_report.outliers.iter().collect();
    let mut so: Vec<_> = stream.report.outliers.iter().collect();
    bo.sort_by_key(|o| key(&o.machine, &o.job, &o.phase, &o.sensor, &o.index));
    so.sort_by_key(|o| key(&o.machine, &o.job, &o.phase, &o.sensor, &o.index));
    assert_eq!(so.len(), bo.len(), "report outlier count differs");
    for (s, b) in so.iter().zip(&bo) {
        let k = key(&b.machine, &b.job, &b.phase, &b.sensor, &b.index);
        assert_eq!(s.global_score, b.global_score, "global score {k}");
        assert_close(s.support, b.support, &format!("support {k}"));
        assert_close(s.outlierness, b.outlierness, &format!("outlierness {k}"));
    }
}

#[test]
fn incremental_mode_runs_the_same_replay_end_to_end() {
    let scenario = scenario();
    let stream = run_stream(
        &scenario,
        AlgorithmPolicy::default(),
        ScorerMode::Incremental,
    );
    assert_eq!(stream.stats.late_dropped, 0);
    assert_eq!(stream.stats.samples_released, stream.stats.samples_ingested);
    // Incremental scorers are approximations; the report must still be
    // structurally sound (outliers carry valid global scores).
    for o in &stream.report.outliers {
        assert!((1..=5).contains(&o.global_score));
    }
}
