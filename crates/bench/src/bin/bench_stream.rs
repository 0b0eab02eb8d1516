//! B10 — streaming ingest: sustained lane throughput and emit latency of
//! the `hierod-stream` data path (sensor → watermark → online scorer).
//!
//! One experiment, summary committed under `results/bench_stream.md`:
//! a single lane driven on the calling thread as `Watermark::offer` →
//! `OnlineScorer::push` at lateness 0, across `WindowedBatch` (hopping
//! robust-z) and the native incrementals (rolling robust-z, incremental
//! AR, sliding kNN/LOF). Reports sustained samples/sec (the floor is
//! ≥ 1M/s per scorer row) and the offer→emit latency distribution
//! (p50/p99): how long a sample sits in watermark + hop buffering after
//! it was offered.

use std::time::{Duration, Instant};

use hierod_detect::engine::{build, AlgoSpec};
use hierod_detect::online::{
    IncrementalAr, OnlineScorer, RollingRobustZ, ScoredPoint, SlidingKnn, SlidingLof, WindowedBatch,
};
use hierod_stream::Watermark;

/// Deterministic noisy signal: cheap to generate, non-trivial to score.
fn signal(t: u64) -> f64 {
    let mut s = t.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    s ^= s >> 33;
    (t as f64 * 0.05).sin() + (s & 0xffff) as f64 / 65536.0 - 0.5
}

fn make_scorer(name: &str) -> Box<dyn OnlineScorer> {
    match name {
        "windowed-batch robust-z (hop 64)" => Box::new(
            WindowedBatch::hopping(
                build(&AlgoSpec::new("robust-z")).expect("registry"),
                256,
                64,
            )
            .expect("params"),
        ),
        "rolling robust-z (w=256)" => Box::new(RollingRobustZ::new(256).expect("params")),
        "incremental AR(3), refit 32" => Box::new(IncrementalAr::new(3, 32).expect("params")),
        "sliding kNN (w=64, k=5)" => Box::new(SlidingKnn::new(64, 5).expect("params")),
        "sliding LOF (w=64, k=5)" => Box::new(SlidingLof::new(64, 5).expect("params")),
        other => panic!("unknown scorer {other}"),
    }
}

struct LaneRun {
    samples_per_sec: f64,
    p50: Duration,
    p99: Duration,
}

/// Offers `n` samples to a lateness-0 watermark, feeds what it releases
/// to the scorer, and records offer→emit latency per sample.
fn run_lane(scorer_name: &str, n: u64) -> LaneRun {
    let mut scorer = make_scorer(scorer_name);
    let mut watermark = Watermark::new(0);
    let mut offered_at: Vec<Instant> = Vec::with_capacity(n as usize);
    let mut latencies: Vec<Duration> = Vec::with_capacity(n as usize);
    let mut released = Vec::new();
    let mut scored: Vec<ScoredPoint> = Vec::new();
    let start = Instant::now();
    for t in 0..n {
        offered_at.push(Instant::now());
        watermark.offer(t, signal(t), &mut released);
        for (ts, v) in released.drain(..) {
            scorer.push(ts, v, &mut scored).expect("scorer push");
        }
        for p in scored.drain(..) {
            latencies.push(offered_at[p.timestamp as usize].elapsed());
        }
    }
    let elapsed = start.elapsed();
    latencies.sort_unstable();
    let pick = |q: f64| {
        latencies
            .get(((latencies.len() - 1) as f64 * q) as usize)
            .copied()
            .unwrap_or_default()
    };
    LaneRun {
        samples_per_sec: n as f64 / elapsed.as_secs_f64(),
        p50: pick(0.50),
        p99: pick(0.99),
    }
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("# bench_stream — cores available: {cores}");
    println!();
    let scorers = [
        "windowed-batch robust-z (hop 64)",
        "rolling robust-z (w=256)",
        "incremental AR(3), refit 32",
        "sliding kNN (w=64, k=5)",
        "sliding LOF (w=64, k=5)",
    ];
    println!("# single-lane throughput + offer->emit latency (2,000,000 samples)");
    println!(
        "{:<36} {:>14} {:>10} {:>10}",
        "scorer", "samples/s", "p50", "p99"
    );
    for name in scorers {
        // Warm-up run keeps first-touch page faults out of the measurement.
        run_lane(name, 100_000);
        let r = run_lane(name, 2_000_000);
        println!(
            "{:<36} {:>14.0} {:>10.1?} {:>10.1?}",
            name, r.samples_per_sec, r.p50, r.p99
        );
    }
}
