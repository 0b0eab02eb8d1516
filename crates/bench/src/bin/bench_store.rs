//! B11 — durable store: WAL ingest throughput, end-to-end durability
//! overhead on a streaming lane, and crash-recovery time.
//!
//! Three experiments, summary committed under `results/bench_store.md`:
//!
//! 1. **Raw WAL append** — `Store::append` of 2,000,000 `Sample`
//!    records across a group-commit sweep. This is the pure journal
//!    path: varint+CRC32 encode, buffered write, fsync every
//!    `group_commit` records.
//! 2. **Durable lane overhead** — the same single-sensor scenario
//!    ingested through a plain `StreamDetector` and through
//!    `DurableStream` (journal-at-offer-time), so the delta is exactly
//!    the durability tax on the hot ingest path.
//! 3. **Recovery** — reopen a 1,000,000-sample WAL: once at the store
//!    layer (`Store::open`: scan, checksum, decode) and once at the
//!    detector layer (`DurableStream::open`: scan plus full replay
//!    through watermarks and online scorers).
//!
//! All experiments run on `MemStorage`, the deterministic in-memory
//! substrate of the fault-injection suite: numbers measure the CPU cost
//! of the durability path (encode, checksum, copy, group-commit
//! bookkeeping), not disk hardware.

use std::time::{Duration, Instant};

use hierod_core::AlgorithmPolicy;
use hierod_hierarchy::{JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
use hierod_store::store::StoreOptions;
use hierod_store::{MemStorage, Store, WalRecord};
use hierod_stream::{
    ControlEvent, DurableStream, LaneId, LaneKind, Sample, ScorerMode, StreamConfig, StreamDetector,
};

/// Deterministic noisy signal (same generator as `bench_stream`).
fn signal(t: u64) -> f64 {
    let mut s = t.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    s ^= s >> 33;
    (t as f64 * 0.05).sin() + (s & 0xffff) as f64 / 65536.0 - 0.5
}

/// Appends `n` sample records to a fresh store and returns
/// (records/sec, bytes written).
fn run_wal_append(group_commit: usize, n: u64) -> (f64, u64) {
    let storage = MemStorage::new();
    let (mut store, _) =
        Store::open(storage.clone(), StoreOptions { group_commit }).expect("open store");
    let start = Instant::now();
    for t in 0..n {
        store
            .append(&WalRecord::Sample {
                lane: 0,
                timestamp: t,
                value: signal(t),
            })
            .expect("append");
    }
    store.commit().expect("commit");
    let elapsed = start.elapsed();
    (n as f64 / elapsed.as_secs_f64(), storage.bytes_written())
}

/// The single-sensor lifecycle every end-to-end experiment shares.
fn bed_lane() -> (LaneId, Vec<Sensor>, Vec<RedundancyGroup>, Vec<String>) {
    let bed = "m0.bed.0".to_string();
    (
        LaneId {
            machine: "m0".into(),
            sensor: bed.clone(),
            kind: LaneKind::Phase,
        },
        vec![Sensor::new(&bed, SensorKind::BedTemperature)],
        vec![RedundancyGroup::new(SensorKind::BedTemperature, vec![bed])],
        vec![],
    )
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        lateness: 0,
        mode: ScorerMode::Incremental,
    }
}

/// Plain in-memory ingest of `n` samples on one phase lane.
fn run_memory_lane(n: u64) -> f64 {
    let (lane, sensors, redundancy, env) = bed_lane();
    let mut det =
        StreamDetector::new(AlgorithmPolicy::default(), stream_config()).expect("detector");
    det.apply(&ControlEvent::machine_up("m0", sensors, redundancy, &env))
        .expect("machine_up");
    det.apply(&ControlEvent::job_start(
        "m0",
        "j0",
        0,
        JobConfig::new(vec!["speed".into()], vec![1.0]),
    ))
    .expect("job_start");
    det.apply(&ControlEvent::phase_start(
        "m0",
        PhaseKind::Printing,
        std::slice::from_ref(&lane.sensor),
    ))
    .expect("phase_start");
    let start = Instant::now();
    for t in 0..n {
        det.ingest(
            &lane,
            Sample {
                timestamp: t,
                value: signal(t),
            },
        )
        .expect("ingest");
    }
    n as f64 / start.elapsed().as_secs_f64()
}

/// Durable ingest of the same lane; returns (samples/sec, the storage
/// holding the resulting WAL) so recovery can reuse it.
fn run_durable_lane(group_commit: usize, n: u64) -> (f64, MemStorage) {
    let (lane, sensors, redundancy, env) = bed_lane();
    let storage = MemStorage::new();
    let (mut det, _) = DurableStream::open(
        AlgorithmPolicy::default(),
        stream_config(),
        storage.clone(),
        StoreOptions { group_commit },
    )
    .expect("open durable");
    det.control(&ControlEvent::machine_up("m0", sensors, redundancy, &env))
        .expect("machine_up");
    det.control(&ControlEvent::job_start(
        "m0",
        "j0",
        0,
        JobConfig::new(vec!["speed".into()], vec![1.0]),
    ))
    .expect("job_start");
    det.control(&ControlEvent::phase_start(
        "m0",
        PhaseKind::Printing,
        std::slice::from_ref(&lane.sensor),
    ))
    .expect("phase_start");
    let start = Instant::now();
    for t in 0..n {
        det.ingest(
            &lane,
            Sample {
                timestamp: t,
                value: signal(t),
            },
        )
        .expect("ingest");
    }
    let rate = n as f64 / start.elapsed().as_secs_f64();
    drop(det);
    (rate, storage)
}

/// Times `Store::open` (scan + checksum + decode) on `storage`.
fn time_store_open(storage: &MemStorage) -> (Duration, usize) {
    let start = Instant::now();
    let (_, recovered) =
        Store::open(storage.clone(), StoreOptions::default()).expect("recover store");
    (start.elapsed(), recovered.stats.wal_records)
}

/// Times `DurableStream::open` (scan + full detector replay).
fn time_durable_open(storage: &MemStorage) -> (Duration, u64) {
    let start = Instant::now();
    let (_, recovery) = DurableStream::open(
        AlgorithmPolicy::default(),
        stream_config(),
        storage.clone(),
        StoreOptions::default(),
    )
    .expect("recover durable");
    (start.elapsed(), recovery.replayed_samples)
}

fn main() {
    const WAL_N: u64 = 2_000_000;
    const LANE_N: u64 = 1_000_000;

    println!("# raw WAL append ({WAL_N} sample records, MemStorage)");
    println!(
        "{:<14} {:>14} {:>14} {:>12}",
        "group_commit", "records/s", "bytes", "bytes/rec"
    );
    for group_commit in [1_usize, 8, 64, 512, 4096] {
        run_wal_append(group_commit, 200_000); // warm-up
        let (rate, bytes) = run_wal_append(group_commit, WAL_N);
        println!(
            "{:<14} {:>14.0} {:>14} {:>12.1}",
            group_commit,
            rate,
            bytes,
            bytes as f64 / WAL_N as f64
        );
    }

    println!();
    println!("# durable lane overhead ({LANE_N} samples, incremental scorer)");
    println!("{:<34} {:>14}", "path", "samples/s");
    run_memory_lane(100_000); // warm-up
    let mem = run_memory_lane(LANE_N);
    println!("{:<34} {:>14.0}", "in-memory StreamDetector", mem);
    let mut recovery_storage = None;
    for group_commit in [1_usize, 64, 4096] {
        let (rate, storage) = run_durable_lane(group_commit, LANE_N);
        println!(
            "{:<34} {:>14.0}",
            format!("DurableStream (group_commit {group_commit})"),
            rate
        );
        if group_commit == 64 {
            recovery_storage = Some(storage);
        }
    }

    println!();
    println!("# recovery of a {LANE_N}-sample WAL");
    if let Some(storage) = recovery_storage {
        let (store_time, records) = time_store_open(&storage);
        println!(
            "{:<34} {:>12.1?}  ({records} WAL records)",
            "Store::open (scan+decode)", store_time
        );
        let (durable_time, replayed) = time_durable_open(&storage);
        println!(
            "{:<34} {:>12.1?}  ({replayed} samples replayed)",
            "DurableStream::open (full replay)", durable_time
        );
    }
}
