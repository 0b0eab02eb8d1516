//! Report-assembly probe at the last tick point of the served `dashboard`
//! plant (2 machines × 10 jobs × 240 samples per phase, seed 11): one
//! `StreamDetector::tick` that closes no job (the returned report dropped
//! inside the timed loop, as a server drops the report it displaces), and
//! Algorithm 1's `build_report` alone over the same plant's detections.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hierod_core::pipeline::build_report;
use hierod_core::{detect_all_levels, AlgorithmPolicy};
use hierod_hierarchy::Level;
use hierod_stream::{StreamConfig, StreamDetector, StreamEvent};
use hierod_synth::{Scenario, ScenarioBuilder};

/// The `dashboard` workload's plant (`benchmark/src/plant.rs` knobs).
fn scenario() -> Scenario {
    ScenarioBuilder::new(11)
        .machines(2)
        .jobs_per_machine(10)
        .redundancy(3)
        .phase_samples(240)
        .anomaly_rate(0.3)
        .measurement_error_fraction(0.5)
        .magnitude_sigmas(12.0)
        .build()
}

/// A detector that has seen the whole plant and ticked once, so every job
/// is frozen and the next tick is a steady-state one.
fn ticked_detector(scenario: &Scenario) -> StreamDetector {
    let mut det = StreamDetector::new(AlgorithmPolicy::default(), StreamConfig::default())
        .expect("default policy");
    for event in scenario.replay().into_iter().map(StreamEvent::from) {
        match event {
            StreamEvent::Control(control) => det.apply(&control).expect("control"),
            StreamEvent::Sample(lane, sample) => det.ingest(&lane, sample).expect("ingest"),
        }
    }
    det.tick().expect("first tick");
    det
}

fn bench_tick(c: &mut Criterion) {
    let scenario = scenario();
    let mut group = c.benchmark_group("tick");
    let mut det = ticked_detector(&scenario);
    let outliers = det.tick().expect("tick").report.outliers.len();
    group.bench_function(BenchmarkId::new("stream_tick", outliers), |b| {
        b.iter(|| det.tick().expect("tick"))
    });

    let policy = AlgorithmPolicy::default();
    let detections = detect_all_levels(&scenario.plant, &policy).expect("detections");
    group.bench_function(BenchmarkId::new("build_report", outliers), |b| {
        b.iter(|| {
            build_report(
                black_box(&scenario.plant),
                Level::Phase,
                &detections,
                &policy,
            )
            .expect("report")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_tick);
criterion_main!(benches);
