//! The history tier's equivalence suite.
//!
//! * **Scan ≡ replay** — a range scan over compacted, Gorilla-compressed
//!   history files returns bit-identical samples to a forward replay of
//!   the uncompacted rotation segments.
//! * **Crash equivalence** — compaction is interrupted at every written
//!   byte (× page cache kept/lost); recovery plus a re-run always
//!   converges to the same scan results and the same detector report.
//! * **Backfill** — replaying the stored record through a fresh
//!   detector with the original policy reproduces the original report
//!   byte-for-byte, before and after compaction; replaying under a
//!   different phase algorithm diffs cleanly.
//! * **Snapshot ≡ recovery** — a rotation is interrupted at every
//!   written byte (× page cache kept/lost); on the crashed directory
//!   and on the one recovery leaves behind, `snapshot` lists the files
//!   recovery loaded and a full scan returns the samples it restored.
//! * **Backfill ≡ recovery** — a control the live detector refused is
//!   in the journal; backfill refuses it again, as recovery does, and
//!   still reproduces the recovered finish report.

use std::collections::BTreeMap;

use proptest::prelude::*;

use hierod_core::AlgorithmPolicy;
use hierod_detect::engine::AlgoSpec;
use hierod_detect::DetectError;
use hierod_hierarchy::{CaqResult, JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
use hierod_history::backfill::{backfill, diff_reports};
use hierod_history::compact::{compact, parse_level, CompactionOptions};
use hierod_history::reader::{snapshot, HistoryReader, RangeQuery};
use hierod_store::segment::{ColumnEncoding, LaneDef, SegmentChunk, SegmentDraft};
use hierod_store::store::{
    hist_name, parse_hist_name, publish, publish_floor, read_floor, read_layout, seg_name, Store,
    StoreOptions,
};
use hierod_store::{segment, MemStorage, SegmentData, Storage};
use hierod_stream::codec::{decode_lane, encode_lane};
use hierod_stream::{
    ControlEvent, DurableStream, LaneId, LaneKind, Sample, ScorerMode, StreamConfig, StreamReport,
};

fn lane(machine: &str, sensor: &str, kind: LaneKind) -> LaneId {
    LaneId {
        machine: machine.into(),
        sensor: sensor.into(),
        kind,
    }
}

fn policy_and_config() -> (AlgorithmPolicy, StreamConfig) {
    (
        AlgorithmPolicy::default(),
        StreamConfig {
            lateness: 3,
            mode: ScorerMode::BatchEquivalent,
        },
    )
}

fn open(storage: MemStorage) -> DurableStream<MemStorage> {
    let (policy, config) = policy_and_config();
    // group_commit = 1: every journalled byte is synced, so the suite's
    // compaction crashes are the only source of lost bytes.
    let (d, _) = DurableStream::open(policy, config, storage, StoreOptions { group_commit: 1 })
        .expect("open");
    d
}

/// Drives a two-machine, three-job scenario with out-of-order samples,
/// a duplicate, a late straggler, and rotations after every job.
fn run_scenario(d: &mut DurableStream<MemStorage>) {
    for m in ["m0", "m1"] {
        let bed = format!("{m}.bed.0");
        let room = format!("{m}.room");
        d.control(&ControlEvent::machine_up(
            m,
            vec![Sensor::new(&bed, SensorKind::BedTemperature)],
            vec![RedundancyGroup::new(
                SensorKind::BedTemperature,
                vec![bed.clone()],
            )],
            &[room],
        ))
        .expect("machine up");
    }
    let jobs: [(&str, &str, u64); 3] = [("m0", "j0", 0), ("m1", "j0", 5), ("m0", "j1", 500)];
    for (slot, (m, j, start)) in jobs.iter().enumerate() {
        let bed = format!("{m}.bed.0");
        let room = format!("{m}.room");
        d.control(&ControlEvent::job_start(
            m,
            j,
            *start,
            JobConfig::new(vec!["speed".into()], vec![1.0 + slot as f64]),
        ))
        .expect("job start");
        d.control(&ControlEvent::phase_start(
            m,
            PhaseKind::WarmUp,
            std::slice::from_ref(&bed),
        ))
        .expect("phase start");
        let base = *start;
        for i in 0..40_u64 {
            let t = base + (i ^ 1); // mild out-of-order jitter
            let v = if i == 25 {
                80.0 + slot as f64
            } else {
                (t as f64 * 0.37).sin() + slot as f64 * 0.1
            };
            d.ingest(
                &lane(m, &bed, LaneKind::Phase),
                Sample {
                    timestamp: t,
                    value: v,
                },
            )
            .expect("ingest");
            if i % 4 == 0 {
                d.ingest(
                    &lane(m, &room, LaneKind::Environment),
                    Sample {
                        timestamp: t + 1,
                        value: 21.0 + (t as f64 * 0.05).cos(),
                    },
                )
                .expect("ingest env");
            }
        }
        // A duplicate and a far-behind straggler: journalled, rejected.
        let _ = d.ingest(
            &lane(m, &bed, LaneKind::Phase),
            Sample {
                timestamp: base + 38,
                value: -1.0,
            },
        );
        let _ = d.ingest(
            &lane(m, &bed, LaneKind::Phase),
            Sample {
                timestamp: base + 1,
                value: -1.0,
            },
        );
        d.control(&ControlEvent::phase_start(
            m,
            PhaseKind::Printing,
            std::slice::from_ref(&bed),
        ))
        .expect("phase start");
        for i in 0..24_u64 {
            let t = base + 100 + i;
            d.ingest(
                &lane(m, &bed, LaneKind::Phase),
                Sample {
                    timestamp: t,
                    value: (t as f64 * 0.21).cos(),
                },
            )
            .expect("ingest");
        }
        d.control(&ControlEvent::job_complete(
            m,
            CaqResult::new(vec!["q".into()], vec![0.9 + slot as f64 * 0.01], true),
        ))
        .expect("job complete");
        d.rotate().expect("rotate");
    }
}

/// A populated store directory: the scenario's segments plus a WAL tail,
/// with the stream dropped (not finished).
fn populated_store() -> (MemStorage, u64) {
    let storage = MemStorage::new();
    let mut d = open(storage.clone());
    run_scenario(&mut d);
    let sealed_end = d.store().wal_index();
    drop(d);
    (storage, sealed_end)
}

/// Brute-force ground truth: every sealed sample per lane, decoded
/// straight from the raw rotation segments in file order.
fn sealed_samples(storage: &MemStorage) -> BTreeMap<LaneId, Vec<(u64, u64)>> {
    let mut lanes: BTreeMap<u32, LaneId> = BTreeMap::new();
    let mut out: BTreeMap<LaneId, Vec<(u64, u64)>> = BTreeMap::new();
    let mut names: Vec<(u64, String)> = storage
        .list()
        .expect("list")
        .into_iter()
        .filter_map(|n| {
            let i: u64 = n.strip_prefix("seg-")?.strip_suffix(".seg")?.parse().ok()?;
            Some((i, n))
        })
        .collect();
    names.sort();
    for (_, name) in names {
        let data = segment::decode(&storage.read(&name).expect("read")).expect("decode");
        for def in &data.lane_defs {
            lanes.insert(def.lane, decode_lane(&def.meta).expect("lane id"));
        }
        for chunk in &data.chunks {
            let id = lanes.get(&chunk.lane).expect("declared lane").clone();
            let samples = out.entry(id).or_default();
            for (&t, &v) in chunk.timestamps.iter().zip(chunk.values.iter()) {
                samples.push((t, v.to_bits()));
            }
        }
    }
    out
}

/// Scans `[start, end]` and returns per-lane `(ts, value bits)` pairs.
fn scan_samples(storage: &MemStorage, start: u64, end: u64) -> BTreeMap<LaneId, Vec<(u64, u64)>> {
    let reader = HistoryReader::new(snapshot(storage).expect("snapshot")).expect("reader");
    let (series, _) = reader.scan(&RangeQuery::range(start, end)).expect("scan");
    series
        .into_iter()
        .map(|ls| {
            let pairs = ls
                .series
                .timestamps()
                .iter()
                .zip(ls.series.values().iter())
                .map(|(&t, &v)| (t, v.to_bits()))
                .collect();
            (ls.id, pairs)
        })
        .collect()
}

#[test]
fn compacted_scan_equals_uncompacted_replay() {
    let (storage, sealed_end) = populated_store();
    let expected = sealed_samples(&storage);
    assert!(expected.values().map(Vec::len).sum::<usize>() > 150);

    let stats = compact(
        &storage,
        sealed_end,
        &CompactionOptions {
            l0_batch: 2,
            partition_ticks: 64,
            ..CompactionOptions::default()
        },
    )
    .expect("compact");
    assert_eq!(stats.floor, sealed_end);
    assert!(stats.l0_files >= 2, "batched into multiple files");

    // Rotation segments below the floor are gone; hist files tile 0..floor.
    let names = storage.list().expect("list");
    assert!(!names.iter().any(|n| n.starts_with("seg-")));
    assert!(names.iter().any(|n| parse_hist_name(n).is_some()));
    assert_eq!(read_floor(&storage).expect("floor"), sealed_end);

    let got = scan_samples(&storage, 0, u64::MAX);
    assert_eq!(got, expected, "full-range scan ≡ raw segment replay");
}

#[test]
fn tier_merges_preserve_scans_and_levels() {
    let (storage, sealed_end) = populated_store();
    let expected = sealed_samples(&storage);
    let stats = compact(
        &storage,
        sealed_end,
        &CompactionOptions {
            l0_batch: 1,
            fanout: 2,
            partition_ticks: 0,
            max_level: 3,
        },
    )
    .expect("compact");
    assert!(stats.tier_merges >= 1, "fanout 2 over 3 files tier-merges");

    // Exactly one covering run, with levels recorded in the footers.
    let snap = snapshot(&storage).expect("snapshot");
    for file in &snap.files {
        let level = parse_level(&file.index.extra).expect("level tag");
        assert!((1..=3).contains(&level));
    }
    assert_eq!(scan_samples(&storage, 0, u64::MAX), expected);
}

#[test]
fn range_scans_prune_and_filter_exactly() {
    let (storage, sealed_end) = populated_store();
    let expected = sealed_samples(&storage);
    compact(
        &storage,
        sealed_end,
        &CompactionOptions {
            partition_ticks: 32,
            ..CompactionOptions::default()
        },
    )
    .expect("compact");

    let reader = HistoryReader::new(snapshot(&storage).expect("snapshot")).expect("reader");
    for (start, end) in [
        (0_u64, 50_u64),
        (100, 140),
        (500, 560),
        (90, 505),
        (600, 700),
    ] {
        let want: BTreeMap<LaneId, Vec<(u64, u64)>> = expected
            .iter()
            .filter_map(|(id, samples)| {
                let inside: Vec<(u64, u64)> = samples
                    .iter()
                    .copied()
                    .filter(|&(t, _)| start <= t && t <= end)
                    .collect();
                (!inside.is_empty()).then(|| (id.clone(), inside))
            })
            .collect();
        let (series, stats) = reader.scan(&RangeQuery::range(start, end)).expect("scan");
        let got: BTreeMap<LaneId, Vec<(u64, u64)>> = series
            .into_iter()
            .map(|ls| {
                (
                    ls.id,
                    ls.series
                        .timestamps()
                        .iter()
                        .zip(ls.series.values().iter())
                        .map(|(&t, &v)| (t, v.to_bits()))
                        .collect(),
                )
            })
            .collect();
        assert_eq!(got, want, "range [{start}, {end}]");
        assert!(
            stats.chunks_pruned > 0,
            "narrow range [{start}, {end}] prunes chunks on footer bounds"
        );
        assert_eq!(
            stats.chunks_total,
            stats.chunks_pruned + stats.chunks_decoded
        );
    }

    // Lane filters restrict without losing samples.
    let (series, _) = reader
        .scan(&RangeQuery {
            start: 0,
            end: u64::MAX,
            machine: Some("m0".into()),
            sensor: None,
        })
        .expect("scan");
    assert!(!series.is_empty());
    assert!(series.iter().all(|ls| ls.id.machine == "m0"));
}

fn finish_report(storage: MemStorage) -> StreamReport {
    let (policy, config) = policy_and_config();
    let (d, _) = DurableStream::open(policy, config, storage, StoreOptions { group_commit: 1 })
        .expect("recover");
    d.finish().expect("finish")
}

#[test]
fn compaction_crash_points_recover_equivalently() {
    let (pristine, sealed_end) = populated_store();
    let expected = sealed_samples(&pristine);
    let options = CompactionOptions {
        l0_batch: 1,
        fanout: 2,
        partition_ticks: 128,
        max_level: 3,
    };

    // The detector report an uninterrupted recovery-and-finish reaches.
    let baseline = finish_report(pristine.crash_image(true));

    // Measure compaction's write volume to bound the sweep.
    let probe = pristine.crash_image(true);
    let before = probe.bytes_written();
    compact(&probe, sealed_end, &options).expect("probe compact");
    let total = probe.bytes_written() - before;
    assert!(total > 1_000, "compaction writes enough to sweep: {total}");

    let mut swept = 0;
    for offset in (0..=total).step_by(97) {
        for keep_unsynced in [false, true] {
            let image = pristine.crash_image(true);
            image.set_write_budget(Some(offset));
            let result = compact(&image, sealed_end, &options);
            assert_eq!(result.is_err(), offset < total, "offset={offset}");
            if result.is_err() {
                assert!(image.killed(), "only the injected crash may fail");
            }
            let recovered = image.crash_image(keep_unsynced);

            // Recovery (the store's own rules) + a re-run converge.
            let report = finish_report(recovered.crash_image(true));
            assert_eq!(
                format!("{:?}", report.report),
                format!("{:?}", baseline.report),
                "offset={offset} keep_unsynced={keep_unsynced}"
            );
            compact(&recovered, sealed_end, &options).expect("re-run compact");
            assert_eq!(
                scan_samples(&recovered, 0, u64::MAX),
                expected,
                "offset={offset} keep_unsynced={keep_unsynced}"
            );
            assert_eq!(read_floor(&recovered).expect("floor"), sealed_end);
            swept += 1;
        }
    }
    assert!(swept >= 20, "sweep covered {swept} crash points");
}

#[test]
fn backfill_with_original_policy_reproduces_the_report() {
    let (storage, sealed_end) = populated_store();
    let (policy, config) = policy_and_config();
    let original = finish_report(storage.crash_image(true));

    let outcome = backfill(&[&storage], &policy, config, 0, u64::MAX, None).expect("backfill");
    assert_eq!(
        format!("{:?}", outcome.report.report),
        format!("{:?}", original.report),
        "backfill under the original policy is byte-identical"
    );
    assert!(outcome.samples_replayed > 0);
    assert!(diff_reports(&original.report, &outcome.report.report).identical());

    // Compaction is invisible to backfill.
    compact(&storage, sealed_end, &CompactionOptions::default()).expect("compact");
    let after = backfill(&[&storage], &policy, config, 0, u64::MAX, None).expect("backfill");
    assert_eq!(
        format!("{:?}", after.report.report),
        format!("{:?}", original.report),
        "backfill over compacted history is byte-identical"
    );
}

#[test]
fn backfill_with_updated_spec_rescored_range() {
    let (storage, sealed_end) = populated_store();
    compact(&storage, sealed_end, &CompactionOptions::default()).expect("compact");
    let (policy, config) = policy_and_config();
    let original =
        backfill(&[&storage], &policy, config, 0, u64::MAX, None).expect("original backfill");

    // Re-detect under a different phase algorithm.
    let spec = AlgoSpec::new("sliding-z").with("window", 8);
    let rescored = backfill(&[&storage], &policy, config, 0, u64::MAX, Some(&spec))
        .expect("rescored backfill");
    let diff = diff_reports(&original.report.report, &rescored.report.report);
    assert_eq!(
        diff.added.len() + original.report.report.outliers.len() - diff.removed.len(),
        rescored.report.report.outliers.len(),
        "diff accounts for every outlier"
    );

    // A restricted range replays fewer samples but all controls.
    let windowed = backfill(&[&storage], &policy, config, 500, u64::MAX, Some(&spec))
        .expect("windowed backfill");
    assert_eq!(windowed.controls_replayed, original.controls_replayed);
    assert!(windowed.samples_replayed < original.samples_replayed);
    assert!(windowed.samples_skipped > 0);
}

/// Stored bytes of the files whose name `pick` accepts.
fn stored_bytes(storage: &MemStorage, pick: impl Fn(&str) -> bool) -> usize {
    storage
        .list()
        .expect("list")
        .iter()
        .filter(|n| pick(n))
        .map(|n| storage.read(n).expect("read").len())
        .sum()
}

/// A quantised bed-temperature reading: a slow sinusoid plus hashed
/// jitter below the 0.1-unit step, rounded the way sensor firmware
/// reports, so consecutive readings often repeat.
fn quantised(lane: usize, t: u64) -> f64 {
    let mut s = t
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(lane as u64);
    s ^= s >> 33;
    let jitter = (s & 0xf) as f64 / 160.0;
    let raw = 24.0 + 3.0 * (t as f64 * 0.002).sin() + jitter;
    (raw * 10.0).round() / 10.0
}

/// 16 jobs × 8,192 ticks × 4 quantised bed lanes, incremental scorers,
/// the WAL rotated after every job. Returns the storage, its sealed end
/// and the live WAL's bytes once the first job's samples are in.
fn quantised_store() -> (MemStorage, u64, usize) {
    const SENSORS: usize = 4;
    const TICKS: u64 = 8_192;
    let storage = MemStorage::new();
    let (mut d, _) = DurableStream::open(
        AlgorithmPolicy::default(),
        StreamConfig::default(),
        storage.clone(),
        StoreOptions { group_commit: 4096 },
    )
    .expect("open");
    let beds: Vec<String> = (0..SENSORS).map(|k| format!("m0.bed.{k}")).collect();
    let sensors = beds
        .iter()
        .map(|b| Sensor::new(b, SensorKind::BedTemperature))
        .collect();
    let group = RedundancyGroup::new(SensorKind::BedTemperature, beds.clone());
    d.control(&ControlEvent::machine_up("m0", sensors, vec![group], &[]))
        .expect("machine up");
    let lanes: Vec<LaneId> = beds
        .iter()
        .map(|b| lane("m0", b, LaneKind::Phase))
        .collect();
    let mut wal_bytes = 0;
    for job in 0..16_u64 {
        let base = job * 100_000;
        d.control(&ControlEvent::job_start(
            "m0",
            &format!("j{job}"),
            base,
            JobConfig::new(vec!["speed".into()], vec![1.0]),
        ))
        .expect("job start");
        d.control(&ControlEvent::phase_start("m0", PhaseKind::Printing, &beds))
            .expect("phase start");
        for t in base..base + TICKS {
            for (k, id) in lanes.iter().enumerate() {
                let sample = Sample {
                    timestamp: t,
                    value: quantised(k, t),
                };
                d.ingest(id, sample).expect("ingest");
            }
        }
        if job == 0 {
            wal_bytes = stored_bytes(&storage, |n| n.starts_with("wal-"));
        }
        d.control(&ControlEvent::job_complete(
            "m0",
            CaqResult::new(vec!["q".into()], vec![0.9], true),
        ))
        .expect("job complete");
        d.rotate().expect("rotate");
    }
    let (_, sealed_end) = d.sealed_storage();
    (storage, sealed_end, wal_bytes)
}

#[test]
fn compaction_shrinks_the_stored_bytes() {
    let (storage, sealed_end) = populated_store();
    let seg_bytes = stored_bytes(&storage, |n| n.starts_with("seg-"));
    compact(&storage, sealed_end, &CompactionOptions::default()).expect("compact");
    let hist_bytes = stored_bytes(&storage, |n| parse_hist_name(n).is_some());
    assert!(
        hist_bytes < seg_bytes,
        "compressed history is smaller: {hist_bytes} vs {seg_bytes}"
    );

    // On quantised sensor data: the WAL spends 19.99 B on a sample, the
    // rotation segments 9.01 B and the compacted history 2.30 B (11.5 %
    // of the WAL's), where the bar is at most half the WAL's.
    let (storage, sealed_end, wal_bytes) = quantised_store();
    assert_eq!(wal_bytes, 655_140, "one job's 32,768 samples in the WAL");
    let samples = 16 * 8_192 * 4;
    assert_eq!(stored_bytes(&storage, |n| n.starts_with("seg-")), 4_723_561);
    compact(&storage, sealed_end, &CompactionOptions::default()).expect("compact");
    let hist_bytes = stored_bytes(&storage, |n| parse_hist_name(n).is_some());
    assert_eq!(hist_bytes, 1_206_966, "{samples} samples in history");
    let wal_per_sample = wal_bytes as f64 / 32_768.0;
    let hist_per_sample = hist_bytes as f64 / samples as f64;
    assert!(
        hist_per_sample <= 0.5 * wal_per_sample,
        "history {hist_per_sample:.2} B/sample vs WAL {wal_per_sample:.2}"
    );
}

/// A fourth job, on `m1`, left open mid-phase: a rotation now has
/// releases to seal, controls to carry and a reorder buffer to re-offer.
fn open_fourth_job(d: &mut DurableStream<MemStorage>) {
    let bed = "m1.bed.0".to_string();
    d.control(&ControlEvent::job_start(
        "m1",
        "j1",
        900,
        JobConfig::new(vec!["speed".into()], vec![4.0]),
    ))
    .expect("job start");
    d.control(&ControlEvent::phase_start(
        "m1",
        PhaseKind::WarmUp,
        std::slice::from_ref(&bed),
    ))
    .expect("phase start");
    for i in 0..16_u64 {
        let t = 900 + (i ^ 1);
        let sample = Sample {
            timestamp: t,
            value: (t as f64 * 0.37).sin(),
        };
        d.ingest(&lane("m1", &bed, LaneKind::Phase), sample)
            .expect("ingest");
    }
}

/// Every non-empty lane's samples across the sealed files a recovery
/// loaded, in replay order.
fn restored_samples(segments: &[SegmentData]) -> BTreeMap<LaneId, Vec<(u64, u64)>> {
    let mut lanes: BTreeMap<u32, LaneId> = BTreeMap::new();
    let mut out: BTreeMap<LaneId, Vec<(u64, u64)>> = BTreeMap::new();
    for data in segments {
        for def in &data.lane_defs {
            lanes.insert(def.lane, decode_lane(&def.meta).expect("lane id"));
        }
        for chunk in data.chunks.iter().filter(|c| !c.timestamps.is_empty()) {
            let id = lanes.get(&chunk.lane).expect("declared lane").clone();
            let pairs = chunk.timestamps.iter().zip(chunk.values.iter());
            out.entry(id)
                .or_default()
                .extend(pairs.map(|(&t, &v)| (t, v.to_bits())));
        }
    }
    out
}

#[test]
fn snapshot_reads_what_recovery_reads_at_every_byte_of_a_rotation() {
    // Two of the three sealed segments go into history first, so the
    // sweep runs over history files, a floor, a segment and the WAL.
    let (pristine, _) = populated_store();
    let l0_batch = 2;
    let options = CompactionOptions {
        l0_batch,
        ..CompactionOptions::default()
    };
    compact(&pristine, 2, &options).expect("compact");
    let mut d = open(pristine.clone());
    open_fourth_job(&mut d);
    drop(d);

    let rotation_total = {
        let probe = pristine.crash_image(true);
        let mut d = open(probe.clone());
        let before = probe.bytes_written();
        d.rotate().expect("probe rotate");
        probe.bytes_written() - before
    };
    assert!(rotation_total > 100, "a rotation worth sweeping");

    let mut aborted = 0;
    for extra in 0..=rotation_total {
        for keep_unsynced in [false, true] {
            let at = format!("budget {extra} keep_unsynced {keep_unsynced}");
            let image = pristine.crash_image(true);
            let mut d = open(image.clone());
            image.set_write_budget(Some(extra));
            assert_eq!(d.rotate().is_err(), extra < rotation_total, "{at}");
            drop(d);
            let crashed = image.crash_image(keep_unsynced);

            let repaired = crashed.crash_image(true);
            let (store, recovered) =
                Store::open(repaired.clone(), StoreOptions { group_commit: 1 }).expect(&at);
            let loaded: Vec<String> = std::iter::once(hist_name(0, 1))
                .chain((2..store.wal_index()).map(seg_name))
                .collect();
            assert_eq!(
                loaded.len(),
                recovered.stats.hist_loaded + recovered.stats.segments_loaded
            );
            let restored = restored_samples(&recovered.segments);
            let names = crashed.list().expect("list");
            aborted += usize::from(names.contains(&seg_name(store.wal_index())));
            drop(store);

            for (which, dir) in [("crashed", &crashed), ("repaired", &repaired)] {
                let snap = snapshot(dir).unwrap_or_else(|e| panic!("{at}: {which}: {e}"));
                let listed: Vec<&str> = snap.files.iter().map(|f| f.name.as_str()).collect();
                assert_eq!(listed, loaded, "{at}: {which}");
                assert_eq!(
                    scan_samples(dir, 0, u64::MAX),
                    restored,
                    "{at}: {which}: full scan ≡ what recovery restored"
                );
            }
        }
    }
    assert!(
        aborted > 0,
        "the sweep visited a segment sealed beside its surviving WAL"
    );
}

#[test]
fn backfill_replays_a_refused_control_as_recovery_does() {
    let storage = MemStorage::new();
    let mut d = open(storage.clone());
    let phase_start = ControlEvent::phase_start("m0", PhaseKind::WarmUp, &["m0.bed.0".to_string()]);
    // Journalled before it is applied, then refused — once before the
    // machine exists (sealed by the first rotation), once with every
    // job complete (left in the WAL tail).
    assert!(d.control(&phase_start).is_err());
    run_scenario(&mut d);
    let refused = d.control(&phase_start).expect_err("no open job");
    assert!(refused.to_string().contains("open job on machine m0"));
    let (journalled, sealed_end) = (d.controls_applied(), d.store().wal_index());
    drop(d);

    let (policy, config) = policy_and_config();
    let original = finish_report(storage.crash_image(true));
    for compacted in [false, true] {
        if compacted {
            compact(&storage, sealed_end, &CompactionOptions::default()).expect("compact");
        }
        let outcome = backfill(&[&storage], &policy, config, 0, u64::MAX, None)
            .unwrap_or_else(|e| panic!("compacted {compacted}: {e}"));
        assert_eq!(
            format!("{:?}", outcome.report.report),
            format!("{:?}", original.report),
            "compacted {compacted}"
        );
        // Two machines up, three jobs of four controls each — and two
        // journalled controls that were never accepted.
        assert_eq!((journalled, outcome.controls_replayed), (16, 14));
    }
}

#[test]
fn backfill_takes_exactly_one_storage_root() {
    // A directory no load accepts: a floor with no history under it.
    let broken = MemStorage::new();
    publish_floor(&broken, 3).expect("floor");
    let (policy, config) = policy_and_config();
    let run = |roots: &[&MemStorage]| backfill(roots, &policy, config, 0, u64::MAX, None);
    for roots in [&[][..], &[&broken, &broken][..]] {
        let err = run(roots).expect_err("one root exactly");
        assert!(
            matches!(err, DetectError::InvalidParameter { .. }),
            "refused before storage is read: {err}"
        );
    }
    let err = run(&[&broken]).expect_err("broken directory");
    assert!(matches!(err, DetectError::Substrate(_)), "{err}");
}

// -----------------------------------------------------------------
// Scan ≡ brute force over crafted layouts: a scan cuts each decoded
// chunk to `[start, end]` by slice, so every way a range can meet a
// chunk — outside, inside, on an edge, exactly one whole chunk (the
// zero-copy path), reversed — must return what filtering every sample
// of every live file returns.

const CRAFTED_LANES: usize = 3;

/// A crafted directory's files: per file, its chunks as `(lane,
/// timestamps, value bits)`.
type CraftedFiles = Vec<Vec<(usize, Vec<u64>, Vec<u64>)>>;

fn crafted_lane(l: usize) -> LaneId {
    match l {
        0 => lane("m0", "m0.bed.0", LaneKind::Phase),
        1 => lane("m0", "m0.room", LaneKind::Environment),
        _ => lane("m1", "m1.bed.0", LaneKind::Phase),
    }
}

/// Writes `files` as a live store directory: the first `hist` as Gorilla history files
/// under a floor, the rest as raw rotation segments.
fn crafted_store(files: &CraftedFiles, hist: usize) -> MemStorage {
    let storage = MemStorage::new();
    let hist = hist.min(files.len());
    for (f, chunks) in files.iter().enumerate() {
        let draft = SegmentDraft {
            lane_defs: (0..CRAFTED_LANES)
                .map(|l| LaneDef {
                    lane: l as u32,
                    meta: encode_lane(&crafted_lane(l)),
                })
                .collect(),
            chunks: chunks
                .iter()
                .map(|(l, timestamps, bits)| SegmentChunk {
                    lane: *l as u32,
                    after_control_seq: 0,
                    timestamps: timestamps.clone(),
                    values: bits.iter().map(|&b| f64::from_bits(b)).collect(),
                    late_dropped: 0,
                    duplicates_dropped: 0,
                })
                .collect(),
            ..SegmentDraft::default()
        };
        let f = f as u64;
        let (name, image) = if (f as usize) < hist {
            (hist_name(f, f), draft.encode_as(ColumnEncoding::Gorilla))
        } else {
            (seg_name(f), draft.encode())
        };
        publish(&storage, &name, &image.expect("encode")).expect("publish");
    }
    if hist > 0 {
        publish_floor(&storage, hist as u64).expect("floor");
    }
    storage
}

/// Brute force: every sample of every live file in replay order, decoded
/// whole and filtered to `[start, end]`.
fn filtered_samples(
    storage: &MemStorage,
    start: u64,
    end: u64,
) -> BTreeMap<LaneId, Vec<(u64, u64)>> {
    let layout = read_layout(storage).expect("layout");
    let mut out: BTreeMap<LaneId, Vec<(u64, u64)>> = BTreeMap::new();
    for name in layout.sealed_names() {
        let data = segment::decode(&storage.read(&name).expect("read")).expect("decode");
        let ids: BTreeMap<u32, LaneId> = data
            .lane_defs
            .iter()
            .map(|def| (def.lane, decode_lane(&def.meta).expect("lane id")))
            .collect();
        for chunk in &data.chunks {
            for (&t, &v) in chunk.timestamps.iter().zip(chunk.values.iter()) {
                if start <= t && t <= end {
                    out.entry(ids[&chunk.lane].clone())
                        .or_default()
                        .push((t, v.to_bits()));
                }
            }
        }
    }
    out
}

/// Per file, per lane, the lengths of that lane's chunks in that file;
/// each lane's timeline (from `gaps`) is dealt out to them in order.
fn deal_chunks(layout: &[Vec<usize>], files: usize, gaps: &[u64], bits: &[u64]) -> CraftedFiles {
    let mut next = [0_usize; CRAFTED_LANES];
    let mut clock = [0_u64, 1, 2];
    let mut out = Vec::new();
    for f in 0..files {
        let mut chunks = Vec::new();
        for l in 0..CRAFTED_LANES {
            for &len in &layout[(f * CRAFTED_LANES + l) % layout.len()] {
                let mut timestamps = Vec::with_capacity(len);
                let mut values = Vec::with_capacity(len);
                for _ in 0..len {
                    let i = next[l];
                    next[l] += 1;
                    clock[l] += gaps[(i * CRAFTED_LANES + l) % gaps.len()];
                    timestamps.push(clock[l]);
                    values.push(bits[(i + l) % bits.len()]);
                }
                chunks.push((l, timestamps, values));
            }
        }
        out.push(chunks);
    }
    out
}

/// The ranges worth asking of a layout: for every non-empty chunk, the
/// chunk exactly (zero-copy), its inside, each edge alone, the edge to
/// the next chunk of its lane, and a reversed one; plus everything and
/// nothing.
fn edge_ranges(files: &CraftedFiles) -> Vec<(u64, u64)> {
    let mut out = vec![(0, u64::MAX), (u64::MAX, 0), (u64::MAX, u64::MAX)];
    let mut last_of_lane = [None::<u64>; CRAFTED_LANES];
    for (l, ts, _) in files.iter().flatten() {
        let (Some(&first), Some(&last)) = (ts.first(), ts.last()) else {
            continue;
        };
        out.extend([(first, last), (first, first), (last, last), (last, first)]);
        out.push((first + 1, last.saturating_sub(1)));
        if let Some(prev) = last_of_lane[*l] {
            out.extend([(prev, first), (prev + 1, first), (prev, first - 1)]);
        }
        last_of_lane[*l] = Some(last);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn scans_equal_a_brute_force_filter_over_arbitrary_chunk_layouts(
        files in 1_usize..5,
        hist in 0_usize..5,
        layout in prop::collection::vec(
            prop::collection::vec(0_usize..12, 0..3), 1..13),
        gaps in prop::collection::vec(1_u64..40, 1..64),
        bits in prop::collection::vec(any::<u64>(), 1..64),
        picks in prop::collection::vec(
            (any::<u64>(), any::<u64>()), 6),
    ) {
        let chunks = deal_chunks(&layout, files, &gaps, &bits);
        let storage = crafted_store(&chunks, hist);
        let reader = HistoryReader::new(snapshot(&storage).expect("snapshot")).expect("reader");
        let horizon = chunks
            .iter()
            .flatten()
            .filter_map(|(_, ts, _)| ts.last().copied())
            .max()
            .unwrap_or(0)
            + 3;
        let mut ranges = edge_ranges(&chunks);
        ranges.extend(picks.iter().map(|&(a, b)| (a % horizon, b % horizon)));
        for (start, end) in ranges {
            let (series, stats) = reader
                .scan(&RangeQuery::range(start, end))
                .unwrap_or_else(|e| panic!("[{start}, {end}]: {e}"));
            let got: BTreeMap<LaneId, Vec<(u64, u64)>> = series
                .into_iter()
                .map(|ls| {
                    let pairs = ls
                        .series
                        .timestamps()
                        .iter()
                        .zip(ls.series.values())
                        .map(|(&t, &v)| (t, v.to_bits()))
                        .collect();
                    (ls.id, pairs)
                })
                .collect();
            prop_assert_eq!(
                &got,
                &filtered_samples(&storage, start, end),
                "range [{}, {}] over {:?}",
                start,
                end,
                chunks
            );
            prop_assert_eq!(
                stats.chunks_total,
                stats.chunks_pruned + stats.chunks_decoded
            );
            prop_assert_eq!(
                stats.samples,
                got.values().map(|s| s.len() as u64).sum::<u64>()
            );
        }
    }
}

#[test]
fn overlapping_chunks_are_still_a_time_order_error() {
    let bed = |ts: &[u64]| (0_usize, ts.to_vec(), ts.iter().map(|&t| t * 3).collect());
    for (files, hist) in [
        // Across two files, one inside the other's span.
        (vec![vec![bed(&[10, 20, 30])], vec![bed(&[25, 40])]], 0),
        // Touching: the next chunk starts on the last kept timestamp.
        (vec![vec![bed(&[10, 20])], vec![bed(&[20, 30])]], 1),
        // Two chunks of one file, in one history file.
        (vec![vec![bed(&[10, 20, 30]), bed(&[5, 15])]], 1),
    ] {
        let storage = crafted_store(&files, hist);
        let reader = HistoryReader::new(snapshot(&storage).expect("snapshot")).expect("reader");
        let err = reader
            .scan(&RangeQuery::range(0, u64::MAX))
            .expect_err("overlapping chunks");
        assert!(
            err.to_string()
                .contains("lane 0: samples not strictly time-ordered across chunks"),
            "{files:?}: {err}"
        );
    }
    // A range that keeps only one side of the overlap is answered.
    let storage = crafted_store(&vec![vec![bed(&[10, 20, 30])], vec![bed(&[25, 40])]], 0);
    let reader = HistoryReader::new(snapshot(&storage).expect("snapshot")).expect("reader");
    let (series, _) = reader.scan(&RangeQuery::range(0, 22)).expect("one side");
    assert_eq!(series.len(), 1);
    assert_eq!(series[0].series.timestamps(), &[10, 20]);
}
