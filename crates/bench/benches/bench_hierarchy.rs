//! B6 — Algorithm 1 end-to-end: per-level `CalculateOutlier` and the full
//! `FindHierarchicalOutlier` run, as the plant grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hierod_core::detect_level::detect_level;
use hierod_core::{find_hierarchical_outliers, AlgorithmPolicy, FindOptions};
use hierod_hierarchy::Level;
use hierod_synth::ScenarioBuilder;
use std::hint::black_box;

fn scenario(machines: usize, jobs: usize) -> hierod_synth::Scenario {
    ScenarioBuilder::new(1)
        .machines(machines)
        .jobs_per_machine(jobs)
        .redundancy(3)
        .phase_samples(60)
        .anomaly_rate(0.3)
        .build()
}

fn bench_levels(c: &mut Criterion) {
    let s = scenario(3, 10);
    let policy = AlgorithmPolicy::default();
    let mut group = c.benchmark_group("calculate_outlier_3x10");
    group.sample_size(20);
    for level in Level::ALL {
        group.bench_with_input(
            BenchmarkId::new("level", level.number()),
            &level,
            |b, &level| b.iter(|| detect_level(black_box(&s.plant), level, &policy).unwrap()),
        );
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("find_hierarchical_outliers");
    group.sample_size(10);
    for (machines, jobs) in [(1_usize, 5_usize), (3, 10), (5, 20)] {
        let s = scenario(machines, jobs);
        group.bench_with_input(
            BenchmarkId::new("plant", format!("{machines}x{jobs}")),
            &s,
            |b, s| {
                b.iter(|| {
                    find_hierarchical_outliers(
                        black_box(&s.plant),
                        Level::Phase,
                        &FindOptions::default(),
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

/// Ablation: cost of the phase-level `ChooseAlgorithm` variants on the same
/// plant (quality ablation lives in `repro_ablation`; this is the runtime
/// side of the same design choice).
fn bench_policy_ablation(c: &mut Criterion) {
    use hierod_core::PhaseChoice;
    let s = scenario(3, 10);
    let mut group = c.benchmark_group("phase_policy_ablation_3x10");
    group.sample_size(20);
    // (bench name, per-series phase spec; `None` = profile mode)
    let policies = [
        ("ar3", Some("ar(order=3)")),
        ("profile_similarity", None),
        ("sliding_z", Some("sliding-z(window=48)")),
        ("deviants", Some("deviants(buckets=8)")),
    ];
    for (name, spec) in policies {
        let phase = match spec {
            Some(spec) => PhaseChoice::PerSeries(spec.parse().unwrap()),
            None => PhaseChoice::ProfileAcrossJobs,
        };
        let policy = AlgorithmPolicy {
            phase,
            ..AlgorithmPolicy::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| detect_level(black_box(&s.plant), Level::Phase, &policy).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_levels,
    bench_end_to_end,
    bench_policy_ablation
);
criterion_main!(benches);
