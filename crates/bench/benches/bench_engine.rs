//! B8 — engine scheduling: the serial per-level path against the batch
//! task runner on wide synthetic plants.
//!
//! `detect_all_levels` decomposes a run into per-series / per-group tasks
//! that any of its threads may claim across level boundaries, so a wide
//! plant (many machines × redundant sensors) is not serialized behind its
//! phase level. `serial` is the reference it must equal: five
//! `detect_level` calls in level order. The two are asserted identical
//! before timing. Summary figures are committed under
//! `results/bench_engine.md`.

use std::collections::BTreeMap;
use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use hierod_core::{detect_all_levels, detect_level, AlgorithmPolicy, LevelDetections};
use hierod_hierarchy::{Level, Plant};
use hierod_synth::ScenarioBuilder;

fn wide_plant(machines: usize, jobs: usize) -> hierod_synth::Scenario {
    ScenarioBuilder::new(1)
        .machines(machines)
        .jobs_per_machine(jobs)
        .redundancy(3)
        .phase_samples(60)
        .anomaly_rate(0.3)
        .build()
}

fn serial(plant: &Plant, policy: &AlgorithmPolicy) -> BTreeMap<Level, LevelDetections> {
    Level::ALL
        .into_iter()
        .map(|level| (level, detect_level(plant, level, policy).unwrap()))
        .collect()
}

fn bench_scheduling(c: &mut Criterion) {
    let policy = AlgorithmPolicy::default();
    for (machines, jobs) in [(2_usize, 6_usize), (6, 12)] {
        let s = wide_plant(machines, jobs);
        // Scheduling must be invisible in the results.
        let parallel = detect_all_levels(&s.plant, &policy).unwrap();
        assert_eq!(
            serial(&s.plant, &policy),
            parallel,
            "threads must not change results"
        );

        let name = format!("detect_all_levels_{machines}x{jobs}");
        let mut group = c.benchmark_group(&name);
        group.sample_size(10);
        group.bench_function("serial", |b| {
            b.iter(|| serial(black_box(&s.plant), &policy))
        });
        group.bench_function("parallel", |b| {
            b.iter(|| detect_all_levels(black_box(&s.plant), &policy).unwrap())
        });
        group.finish();
    }
}

criterion_group!(benches, bench_scheduling);
criterion_main!(benches);
