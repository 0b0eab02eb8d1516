//! B12 — historical query tier: compression ratio of the compacted
//! history files, range-scan throughput with chunk pruning, and the
//! compaction overhead relative to durable ingest.
//!
//! Three experiments, summary committed under `results/bench_history.md`:
//!
//! 1. **Bytes per sample** — the same sealed samples stored as raw
//!    per-rotation segments (PR 5 encoding: 8-byte timestamps + 8-byte
//!    values per column) and as compacted history files
//!    (double-delta timestamps + Gorilla XOR values). The acceptance
//!    bar is ≤ 50% of the raw footprint on quantized sensor data.
//! 2. **Range scans** — full-range scans (every chunk decoded) and
//!    one-job window scans (cold chunks pruned on footer min/max
//!    alone), both over the compacted store.
//! 3. **Compaction and backfill cost** — wall time of the full
//!    compaction pass and of a full-range backfill replay, against the
//!    durable ingest time of the same samples.
//!
//! Values are quantized to 0.1 units like real temperature sensors —
//! Gorilla's XOR codec feeds on the repeated mantissa bits. All
//! experiments run on `MemStorage`, so numbers measure the CPU cost of
//! the codec and merge paths, not disk hardware.

use std::time::Instant;

use hierod_core::AlgorithmPolicy;
use hierod_hierarchy::{JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
use hierod_history::{backfill, compact, snapshot, CompactionOptions, HistoryReader, RangeQuery};
use hierod_store::store::StoreOptions;
use hierod_store::MemStorage;
use hierod_stream::{
    ControlEvent, DurableStream, LaneId, LaneKind, Sample, ScorerMode, StreamConfig,
};

const SENSORS: usize = 4;
const JOBS: u64 = 16;
const SAMPLES_PER_JOB: u64 = 8192;
const JOB_STRIDE: u64 = 100_000;

/// Quantized bed-temperature curve: a slow sinusoid plus hashed jitter
/// *below* the quantization step, rounded to 0.1 units the way real
/// sensor firmware reports — consecutive readings frequently repeat.
fn signal(lane: usize, t: u64) -> f64 {
    let mut s = t
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(lane as u64);
    s ^= s >> 33;
    let jitter = (s & 0xf) as f64 / 160.0;
    let raw = 24.0 + 3.0 * (t as f64 * 0.002).sin() + jitter;
    (raw * 10.0).round() / 10.0
}

fn lanes() -> Vec<LaneId> {
    (0..SENSORS)
        .map(|k| LaneId {
            machine: "m0".into(),
            sensor: format!("m0.bed.{k}"),
            kind: LaneKind::Phase,
        })
        .collect()
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        lateness: 0,
        mode: ScorerMode::Incremental,
    }
}

/// Ingests the full scenario (JOBS jobs × SENSORS lanes), rotating the
/// WAL into a sealed segment after every job. Returns the ingest wall
/// time and the storage holding the sealed segments.
fn run_ingest() -> (f64, MemStorage, u64) {
    let storage = MemStorage::new();
    let lanes = lanes();
    let (mut det, _) = DurableStream::open(
        AlgorithmPolicy::default(),
        stream_config(),
        storage.clone(),
        StoreOptions { group_commit: 4096 },
    )
    .expect("open durable");
    let sensors: Vec<Sensor> = lanes
        .iter()
        .map(|l| Sensor::new(&l.sensor, SensorKind::BedTemperature))
        .collect();
    let redundancy = vec![RedundancyGroup::new(
        SensorKind::BedTemperature,
        lanes.iter().map(|l| l.sensor.clone()).collect(),
    )];
    det.control(&ControlEvent::machine_up("m0", sensors, redundancy, &[]))
        .expect("machine_up");
    let start = Instant::now();
    for job in 0..JOBS {
        let base = job * JOB_STRIDE;
        det.control(&ControlEvent::job_start(
            "m0",
            &format!("j{job}"),
            base,
            JobConfig::new(vec!["speed".into()], vec![1.0]),
        ))
        .expect("job_start");
        det.control(&ControlEvent::phase_start(
            "m0",
            PhaseKind::Printing,
            &lanes.iter().map(|l| l.sensor.clone()).collect::<Vec<_>>(),
        ))
        .expect("phase_start");
        for t in 0..SAMPLES_PER_JOB {
            for (k, lane) in lanes.iter().enumerate() {
                det.ingest(
                    lane,
                    Sample {
                        timestamp: base + t,
                        value: signal(k, base + t),
                    },
                )
                .expect("ingest");
            }
        }
        det.control(&ControlEvent::job_complete(
            "m0",
            hierod_hierarchy::CaqResult::new(vec!["q".into()], vec![0.9], true),
        ))
        .expect("job_complete");
        det.rotate().expect("rotate");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let (_, sealed_end) = det.sealed_storage();
    drop(det);
    (elapsed, storage, sealed_end)
}

/// Same scenario, but without rotation: every sample stays in the live
/// WAL journal. Its footprint is the PR 5 "raw" baseline the acceptance
/// bar is measured against (varint-framed records, ~21 bytes/sample).
fn wal_bytes_per_sample() -> f64 {
    let storage = MemStorage::new();
    let lanes = lanes();
    let (mut det, _) = DurableStream::open(
        AlgorithmPolicy::default(),
        stream_config(),
        storage.clone(),
        StoreOptions { group_commit: 4096 },
    )
    .expect("open durable");
    let sensors: Vec<Sensor> = lanes
        .iter()
        .map(|l| Sensor::new(&l.sensor, SensorKind::BedTemperature))
        .collect();
    let redundancy = vec![RedundancyGroup::new(
        SensorKind::BedTemperature,
        lanes.iter().map(|l| l.sensor.clone()).collect(),
    )];
    det.control(&ControlEvent::machine_up("m0", sensors, redundancy, &[]))
        .expect("machine_up");
    let base = 0;
    det.control(&ControlEvent::job_start(
        "m0",
        "j0",
        base,
        JobConfig::new(vec!["speed".into()], vec![1.0]),
    ))
    .expect("job_start");
    det.control(&ControlEvent::phase_start(
        "m0",
        PhaseKind::Printing,
        &lanes.iter().map(|l| l.sensor.clone()).collect::<Vec<_>>(),
    ))
    .expect("phase_start");
    let n = SAMPLES_PER_JOB;
    for t in 0..n {
        for (k, lane) in lanes.iter().enumerate() {
            det.ingest(
                lane,
                Sample {
                    timestamp: base + t,
                    value: signal(k, base + t),
                },
            )
            .expect("ingest");
        }
    }
    drop(det);
    bytes_with_prefix(&storage, "wal-") as f64 / (n * SENSORS as u64) as f64
}

/// Sums the stored bytes of files whose name starts with `prefix`.
fn bytes_with_prefix(storage: &MemStorage, prefix: &str) -> u64 {
    storage
        .list()
        .expect("list")
        .iter()
        .filter(|n| n.starts_with(prefix))
        .map(|n| storage.read(n).expect("read").len() as u64)
        .sum()
}

use hierod_store::Storage;

fn scan_all(storage: &MemStorage) -> (u64, f64, usize, usize) {
    let reader = HistoryReader::new(snapshot(storage).expect("snapshot")).expect("reader");
    let start = Instant::now();
    let (_, stats) = reader
        .scan(&RangeQuery::range(0, u64::MAX))
        .expect("full scan");
    (
        stats.samples,
        start.elapsed().as_secs_f64(),
        stats.chunks_decoded,
        stats.chunks_total,
    )
}

fn scan_window(storage: &MemStorage, start_ts: u64, end_ts: u64) -> (u64, f64, usize, usize) {
    let reader = HistoryReader::new(snapshot(storage).expect("snapshot")).expect("reader");
    let start = Instant::now();
    let (_, stats) = reader
        .scan(&RangeQuery::range(start_ts, end_ts))
        .expect("window scan");
    (
        stats.samples,
        start.elapsed().as_secs_f64(),
        stats.chunks_pruned,
        stats.chunks_total,
    )
}

fn main() {
    let total_samples = JOBS * SAMPLES_PER_JOB * SENSORS as u64;
    println!(
        "# scenario: {JOBS} jobs x {SAMPLES_PER_JOB} ticks x {SENSORS} lanes \
         = {total_samples} samples, rotate per job"
    );

    let (ingest_secs, storage, sealed_end) = run_ingest();
    println!(
        "durable ingest: {:.2}s ({:.0} samples/s)",
        ingest_secs,
        total_samples as f64 / ingest_secs
    );

    // ── bytes/sample: WAL journal vs rotation segments vs history.
    let wal_per_sample = wal_bytes_per_sample();
    let (sealed_samples, _, _, _) = scan_all(&storage);
    let raw_bytes = bytes_with_prefix(&storage, "seg-");
    let raw_per_sample = raw_bytes as f64 / sealed_samples as f64;
    println!();
    println!("# storage footprint ({sealed_samples} sealed samples)");
    println!("{:<38} {:>12} {:>12}", "encoding", "bytes", "bytes/sample");
    println!(
        "{:<38} {:>12} {:>12.2}",
        "live WAL journal (PR 5 raw)", "-", wal_per_sample
    );
    println!(
        "{:<38} {:>12} {:>12.2}",
        "sealed rotation segments (L0)", raw_bytes, raw_per_sample
    );

    let compact_start = Instant::now();
    let stats = compact(&storage, sealed_end, &CompactionOptions::default()).expect("compact");
    let compact_secs = compact_start.elapsed().as_secs_f64();
    let hist_bytes = bytes_with_prefix(&storage, "hist-");
    let hist_per_sample = hist_bytes as f64 / sealed_samples as f64;
    println!(
        "{:<38} {:>12} {:>12.2}",
        "compacted history (Gorilla)", hist_bytes, hist_per_sample
    );
    println!(
        "ratio: {:.1}% of the WAL journal, {:.1}% of the sealed segments \
         ({} segments absorbed, {} tier merges)",
        100.0 * hist_per_sample / wal_per_sample,
        100.0 * hist_per_sample / raw_per_sample,
        stats.segments_absorbed,
        stats.tier_merges,
    );
    assert!(
        hist_per_sample <= 0.5 * wal_per_sample,
        "acceptance: compressed bytes/sample must be <= 50% of PR 5 raw"
    );

    // ── range scans over the compacted store.
    println!();
    println!("# range scans (compacted store)");
    scan_all(&storage); // warm-up
    let (samples, secs, decoded, total) = scan_all(&storage);
    println!(
        "full scan:    {:>9} samples in {:>8.2}ms ({:>12.0} samples/s), {}/{} chunks decoded",
        samples,
        secs * 1e3,
        samples as f64 / secs,
        decoded,
        total
    );
    let base = (JOBS / 2) * JOB_STRIDE;
    let (samples, secs, pruned, total) = scan_window(&storage, base, base + SAMPLES_PER_JOB - 1);
    println!(
        "one-job scan: {:>9} samples in {:>8.2}ms ({:>12.0} samples/s), {}/{} chunks pruned",
        samples,
        secs * 1e3,
        samples as f64 / secs,
        pruned,
        total
    );

    // ── compaction + backfill cost vs ingest.
    println!();
    println!("# maintenance cost vs ingest");
    println!(
        "compaction:   {:.2}s ({:.1}% of ingest time, {:.0} samples/s absorbed)",
        compact_secs,
        100.0 * compact_secs / ingest_secs,
        sealed_samples as f64 / compact_secs
    );
    let backfill_start = Instant::now();
    let outcome = backfill(
        &[&storage],
        &AlgorithmPolicy::default(),
        stream_config(),
        0,
        u64::MAX,
        None,
    )
    .expect("backfill");
    let backfill_secs = backfill_start.elapsed().as_secs_f64();
    println!(
        "backfill:     {:.2}s ({:.1}% of ingest time, {} samples replayed)",
        backfill_secs,
        100.0 * backfill_secs / ingest_secs,
        outcome.samples_replayed
    );
}
