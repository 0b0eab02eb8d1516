//! B1 — distance-kernel microbenchmarks: the sequence measures of
//! `hierod_timeseries::distance` (DTW, and the LCS and match-count
//! similarities behind the symbolic DA detectors), across series lengths
//! (the paper's "calculation speed" requirement).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hierod_timeseries::distance::{dtw, lcs_len, match_count_similarity};
use std::hint::black_box;

fn series(n: usize, phase: f64) -> Vec<f64> {
    (0..n).map(|i| ((i as f64) * 0.1 + phase).sin()).collect()
}

fn symbols(n: usize, offset: u16) -> Vec<u16> {
    (0..n).map(|i| ((i as u16) + offset) % 8).collect()
}

fn bench_distances(c: &mut Criterion) {
    let mut group = c.benchmark_group("distances");
    for n in [64_usize, 256, 1024] {
        let a = series(n, 0.0);
        let b = series(n, 1.0);
        group.bench_with_input(BenchmarkId::new("dtw_unconstrained", n), &n, |bench, _| {
            bench.iter(|| dtw(black_box(&a), black_box(&b), None).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("dtw_band16", n), &n, |bench, _| {
            bench.iter(|| dtw(black_box(&a), black_box(&b), Some(16)).unwrap())
        });
        let sa = symbols(n, 0);
        let sb = symbols(n, 3);
        group.bench_with_input(BenchmarkId::new("lcs", n), &n, |bench, _| {
            bench.iter(|| lcs_len(black_box(&sa), black_box(&sb)))
        });
        group.bench_with_input(BenchmarkId::new("match_count", n), &n, |bench, _| {
            bench.iter(|| match_count_similarity(black_box(&sa), black_box(&sb)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_distances);
criterion_main!(benches);
