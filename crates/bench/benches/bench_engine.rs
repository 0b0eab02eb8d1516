//! B8 — engine scheduling: the work-stealing task pool at several widths
//! on wide synthetic plants.
//!
//! The task pool decomposes a run into per-series / per-group tasks and
//! steals across level boundaries, so a wide plant (many machines ×
//! redundant sensors) is not serialized behind its phase level. Results
//! are asserted identical to the single-worker (serial) pool before
//! timing. Summary figures are committed under `results/bench_engine.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hierod_core::{detect_all_levels_with_pool, AlgorithmPolicy};
use hierod_detect::engine::TaskPool;
use hierod_synth::ScenarioBuilder;
use std::hint::black_box;

fn wide_plant(machines: usize, jobs: usize) -> hierod_synth::Scenario {
    ScenarioBuilder::new(1)
        .machines(machines)
        .jobs_per_machine(jobs)
        .redundancy(3)
        .phase_samples(60)
        .anomaly_rate(0.3)
        .build()
}

fn bench_scheduling(c: &mut Criterion) {
    let policy = AlgorithmPolicy::default();
    for (machines, jobs) in [(2_usize, 6_usize), (6, 12)] {
        let s = wide_plant(machines, jobs);
        // Scheduling must be invisible in the results.
        let serial = detect_all_levels_with_pool(&s.plant, &policy, &TaskPool::new(1)).unwrap();
        let pooled = detect_all_levels_with_pool(&s.plant, &policy, &TaskPool::new(8)).unwrap();
        assert_eq!(serial, pooled, "pool width must not change results");

        let name = format!("detect_all_levels_{machines}x{jobs}");
        let mut group = c.benchmark_group(&name);
        group.sample_size(10);
        let default_pool = TaskPool::with_default_parallelism();
        group.bench_function("task_pool_default", |b| {
            b.iter(|| {
                detect_all_levels_with_pool(black_box(&s.plant), &policy, &default_pool).unwrap()
            })
        });
        for workers in [2_usize, 4, 8] {
            let pool = TaskPool::new(workers);
            group.bench_with_input(BenchmarkId::new("task_pool", workers), &pool, |b, pool| {
                b.iter(|| detect_all_levels_with_pool(black_box(&s.plant), &policy, pool).unwrap())
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_scheduling);
criterion_main!(benches);
