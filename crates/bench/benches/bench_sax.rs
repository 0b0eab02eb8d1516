//! B3 — SAX pipeline microbenchmarks: PAA, encoding, and FFT
//! spectral signatures (the symbolic/spectral substrates of the OS and DA
//! vibration rows).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hierod_timeseries::fft::{power_spectrum, spectral_signature};
use hierod_timeseries::sax::{paa, SaxEncoder};
use std::hint::black_box;

fn series(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.07).sin() * 3.0).collect()
}

fn bench_sax(c: &mut Criterion) {
    let mut group = c.benchmark_group("sax");
    for n in [64_usize, 256, 1024] {
        let xs = series(n);
        group.bench_with_input(BenchmarkId::new("paa_8", n), &n, |b, _| {
            b.iter(|| paa(black_box(&xs), 8).unwrap())
        });
        let enc = SaxEncoder::new(8, 6).unwrap();
        group.bench_with_input(BenchmarkId::new("encode_w8_a6", n), &n, |b, _| {
            b.iter(|| enc.encode(black_box(&xs)).unwrap())
        });
    }
    group.finish();
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for n in [128_usize, 512, 2048] {
        let xs = series(n);
        group.bench_with_input(BenchmarkId::new("power_spectrum", n), &n, |b, _| {
            b.iter(|| power_spectrum(black_box(&xs)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("spectral_signature_8", n), &n, |b, _| {
            b.iter(|| spectral_signature(black_box(&xs), 8).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sax, bench_fft);
criterion_main!(benches);
