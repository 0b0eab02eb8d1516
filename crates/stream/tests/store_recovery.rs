//! Fault-injection recovery suite: *write-crash-recover ≡ no-crash*.
//!
//! A scripted production scenario (machines, jobs, phases, out-of-order
//! samples, mid-stream rotations) runs against a [`MemStorage`] with an
//! injected write budget: once the budget is spent, the write tears at
//! an arbitrary byte and every later storage operation fails — the
//! process "crashes". The test then takes a crash image (optionally
//! dropping everything unsynced, i.e. the kernel page cache is lost
//! too), reopens a [`DurableStream`] on it, resumes the scenario from
//! the recovered [`DurableStream::delivered`] /
//! [`DurableStream::controls_applied`] cursors, and finishes.
//!
//! The resulting report — aggregate stats, per-lane stats, detections,
//! and the full Algorithm-1 triple report — must equal the report of an
//! uninterrupted run, for *every* crash point swept and for random
//! scenarios under proptest.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hierod_core::AlgorithmPolicy;
use hierod_hierarchy::{CaqResult, JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
use hierod_store::codec;
use hierod_store::segment::{SegmentChunk, SegmentDraft};
use hierod_store::storage::Storage;
use hierod_store::store::{read_layout, Store, StoreOptions};
use hierod_store::tenants::MemFactory;
use hierod_store::wal::{self, WalRecord, WAL_MAGIC};
use hierod_store::MemStorage;
use hierod_stream::codec::decode_lane;
use hierod_stream::{
    ControlEvent, DurableStream, LaneId, LaneKind, LaneTable, PlantRegistry, Sample, ScorerMode,
    StreamConfig, StreamReport, Tenant, TenantConfig,
};
use hierod_wire::{encode_report, Frame, FrameReader, Poll};
use proptest::prelude::*;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/store_recovery.golden");

/// One step of a scripted scenario.
#[derive(Clone, Debug)]
enum Op {
    MachineUp(String, Vec<Sensor>, Vec<RedundancyGroup>, Vec<String>),
    JobStart(String, String, u64, JobConfig),
    PhaseStart(String, PhaseKind, Vec<String>),
    JobComplete(String, CaqResult),
    Sample(LaneId, u64, f64),
    Rotate,
    Tick,
}

fn lane(machine: &str, sensor: &str, kind: LaneKind) -> LaneId {
    LaneId {
        machine: machine.into(),
        sensor: sensor.into(),
        kind,
    }
}

/// Replays `ops` into `d`, skipping the prefix the store already holds:
/// the first `skip_controls` control events and, per lane, the first
/// `delivered[lane]` samples — exactly the resume contract a client
/// follows after a crash. Returns `false` when the storage was killed
/// mid-run (the injected crash fired).
fn run_ops(
    d: &mut DurableStream<MemStorage>,
    ops: &[Op],
    skip_controls: u64,
    delivered: &BTreeMap<LaneId, u64>,
) -> bool {
    let mut control_no = 0_u64;
    let mut lane_counts: BTreeMap<LaneId, u64> = BTreeMap::new();
    for op in ops {
        if let Op::MachineUp(..) | Op::JobStart(..) | Op::PhaseStart(..) | Op::JobComplete(..) = op
        {
            control_no += 1;
            if control_no <= skip_controls {
                continue;
            }
        }
        if let Op::Sample(id, _, _) = op {
            let count = lane_counts.entry(id.clone()).or_insert(0);
            *count += 1;
            if *count <= delivered.get(id).copied().unwrap_or(0) {
                continue;
            }
        }
        let result = match op {
            Op::MachineUp(m, sensors, groups, env) => d.control(&ControlEvent::machine_up(
                m,
                sensors.clone(),
                groups.clone(),
                env,
            )),
            Op::JobStart(m, j, start, config) => {
                d.control(&ControlEvent::job_start(m, j, *start, config.clone()))
            }
            Op::PhaseStart(m, kind, sensors) => {
                d.control(&ControlEvent::phase_start(m, *kind, sensors))
            }
            Op::JobComplete(m, caq) => d.control(&ControlEvent::job_complete(m, caq.clone())),
            Op::Sample(id, ts, v) => d.ingest(
                id,
                Sample {
                    timestamp: *ts,
                    value: *v,
                },
            ),
            Op::Rotate => d.rotate(),
            Op::Tick => d.tick().map(|_| ()),
        };
        if let Err(e) = result {
            assert!(
                d.store().storage().killed(),
                "only the injected crash may fail the scenario: {e:?}"
            );
            return false;
        }
    }
    true
}

/// A two-machine scenario with out-of-order samples, a duplicate, a
/// late drop, two jobs on one machine, and mid-stream rotations.
fn scenario(lateness_spice: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for m in ["m0", "m1"] {
        let bed = format!("{m}.bed.0");
        let room = format!("{m}.room");
        ops.push(Op::MachineUp(
            m.into(),
            vec![Sensor::new(&bed, SensorKind::BedTemperature)],
            vec![RedundancyGroup::new(
                SensorKind::BedTemperature,
                vec![bed.clone()],
            )],
            vec![room.clone()],
        ));
    }
    let jobs: [(&str, &str, u64); 3] = [("m0", "j0", 0), ("m1", "j0", 5), ("m0", "j1", 500)];
    for (slot, (m, j, start)) in jobs.iter().enumerate() {
        let bed = format!("{m}.bed.0");
        let room = format!("{m}.room");
        ops.push(Op::JobStart(
            (*m).into(),
            (*j).into(),
            *start,
            JobConfig::new(vec!["speed".into()], vec![1.0 + slot as f64]),
        ));
        ops.push(Op::PhaseStart(
            (*m).into(),
            PhaseKind::WarmUp,
            vec![bed.clone()],
        ));
        let base = *start;
        for i in 0..40_u64 {
            // Mild out-of-order jitter: swap each odd/even pair.
            let t = base + (i ^ 1);
            let v = if i == 25 {
                80.0 + slot as f64
            } else {
                (t as f64 * 0.37).sin() + slot as f64 * 0.1
            };
            ops.push(Op::Sample(lane(m, &bed, LaneKind::Phase), t, v));
            if i % 4 == 0 {
                ops.push(Op::Sample(
                    lane(m, &room, LaneKind::Environment),
                    t + lateness_spice,
                    21.0 + (t as f64 * 0.05).cos(),
                ));
            }
        }
        // One duplicate (still buffered in the watermark) and one late
        // straggler (far behind the frontier) on the phase lane.
        ops.push(Op::Sample(lane(m, &bed, LaneKind::Phase), base + 38, -1.0));
        ops.push(Op::Sample(lane(m, &bed, LaneKind::Phase), base + 1, -1.0));
        ops.push(Op::PhaseStart(
            (*m).into(),
            PhaseKind::Printing,
            vec![bed.clone()],
        ));
        for i in 0..24_u64 {
            let t = base + 100 + i;
            ops.push(Op::Sample(
                lane(m, &bed, LaneKind::Phase),
                t,
                (t as f64 * 0.21).cos(),
            ));
        }
        ops.push(Op::JobComplete(
            (*m).into(),
            CaqResult::new(vec!["q".into()], vec![0.9 + slot as f64 * 0.01], true),
        ));
        if slot == 0 {
            ops.push(Op::Rotate);
        }
        if slot == 1 {
            ops.push(Op::Tick);
        }
    }
    ops.push(Op::Rotate);
    ops
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
    let (d, _) = DurableStream::open(policy, config, storage, StoreOptions { group_commit: 8 })
        .expect("open");
    d
}

fn uninterrupted(ops: &[Op]) -> StreamReport {
    let mut d = open(MemStorage::new());
    assert!(run_ops(&mut d, ops, 0, &BTreeMap::new()), "no budget set");
    d.finish().expect("finish")
}

fn assert_reports_equal(got: &StreamReport, want: &StreamReport, context: &str) {
    assert_eq!(got.stats, want.stats, "stats diverged: {context}");
    assert_eq!(
        got.lane_stats, want.lane_stats,
        "lane stats diverged: {context}"
    );
    assert_eq!(
        format!("{:?}", got.detections),
        format!("{:?}", want.detections),
        "detections diverged: {context}"
    );
    assert_eq!(
        format!("{:?}", got.report),
        format!("{:?}", want.report),
        "report diverged: {context}"
    );
}

/// Crashes the scenario at `budget` written bytes, recovers, resumes,
/// and returns the final report.
fn crash_recover_resume(ops: &[Op], budget: u64, keep_unsynced: bool) -> StreamReport {
    let storage = MemStorage::new();
    storage.set_write_budget(Some(budget));
    let (policy, config) = policy_and_config();
    let survived = match DurableStream::open(
        policy,
        config,
        storage.clone(),
        StoreOptions { group_commit: 8 },
    ) {
        Ok((mut d, _)) => run_ops(&mut d, ops, 0, &BTreeMap::new()),
        // The crash can fire while the store itself bootstraps.
        Err(_) => false,
    };
    let image = storage.crash_image(keep_unsynced);
    let (policy, config) = policy_and_config();
    let (mut d, recovery) =
        DurableStream::open(policy, config, image, StoreOptions { group_commit: 8 })
            .expect("recovery must always succeed");
    if survived {
        // Budget outlasted the scenario: nothing to resume beyond the
        // cursors (which then cover the whole scenario).
        assert_eq!(recovery.controls_applied, d.controls_applied());
    }
    let skip = d.controls_applied();
    let delivered = d.delivered().clone();
    assert!(
        run_ops(&mut d, ops, skip, &delivered),
        "resume runs on healthy storage"
    );
    let mut report = d.finish().expect("finish after recovery");
    // A budget kill tears the in-flight write, which recovery rightly
    // reports as a (survived) corruption; the uninterrupted baseline
    // never saw damage, so mask the corruption counters before the
    // equivalence comparison — everything else must match exactly.
    report.stats.corrupt_records = 0;
    for stats in report.lane_stats.values_mut() {
        stats.corrupt_records = 0;
    }
    report
}

#[test]
fn crash_recover_resume_equals_uninterrupted_across_budgets() {
    let ops = scenario(1);
    let baseline = uninterrupted(&ops);

    // Measure the full-run write volume to bound the sweep.
    let probe = MemStorage::new();
    {
        let mut d = open(probe.clone());
        assert!(run_ops(&mut d, &ops, 0, &BTreeMap::new()));
        d.finish().expect("finish");
    }
    let total = probe.bytes_written();
    assert!(
        total > 2_000,
        "scenario writes enough to be interesting: {total}"
    );

    // Sweep crash points across the whole write stream; a prime stride
    // keeps the sampled offsets unaligned with record boundaries.
    let mut swept = 0;
    for budget in (0..=total).step_by(211) {
        for keep_unsynced in [false, true] {
            let report = crash_recover_resume(&ops, budget, keep_unsynced);
            assert_reports_equal(
                &report,
                &baseline,
                &format!("budget={budget} keep_unsynced={keep_unsynced}"),
            );
            swept += 1;
        }
    }
    assert!(swept >= 40, "sweep covered {swept} crash points");
}

#[test]
fn torn_and_bit_flipped_wal_tails_are_survived() {
    let ops = scenario(1);
    let baseline = uninterrupted(&ops);

    // Run ~60% of the scenario, then damage the active WAL image.
    let cut = ops.len() * 3 / 5;
    for damage in 0..3_u32 {
        let storage = MemStorage::new();
        let mut d = open(storage.clone());
        assert!(run_ops(&mut d, &ops[..cut], 0, &BTreeMap::new()));
        drop(d);
        let image = storage.crash_image(true);
        let wal_name = image
            .list()
            .expect("list")
            .into_iter()
            .find(|n| n.starts_with("wal-"))
            .expect("active wal");
        let len = image.file_len(&wal_name).expect("wal length");
        let hit = match damage {
            0 => image.tear(&wal_name, len.saturating_sub(5)),
            1 => image.flip_bit(&wal_name, len.saturating_sub(20), 3),
            _ => image.flip_bit(&wal_name, len / 2 + 7, 6),
        };
        assert!(hit, "damage {damage} targeted a real byte");
        let (policy, config) = policy_and_config();
        let (mut d, recovery) =
            DurableStream::open(policy, config, image, StoreOptions { group_commit: 8 })
                .expect("recovery survives a damaged tail");
        assert!(
            recovery.corrupt_records > 0 || recovery.store.wal_truncated_bytes > 0,
            "damage {damage} was actually hit"
        );
        assert_eq!(
            d.stats().corrupt_records,
            recovery.corrupt_records,
            "corruption surfaces in the stats"
        );
        let skip = d.controls_applied();
        let delivered = d.delivered().clone();
        assert!(run_ops(&mut d, &ops, skip, &delivered));
        let report = d.finish().expect("finish");
        // Corruption counters are part of the durable report; mask them
        // out for the equivalence comparison (the baseline never saw
        // damage).
        let mut got = report;
        got.stats.corrupt_records = 0;
        for stats in got.lane_stats.values_mut() {
            stats.corrupt_records = 0;
        }
        assert_reports_equal(&got, &baseline, &format!("damage={damage}"));
    }
}

/// `scenario(1)` with a rotation inside every job: a few samples into
/// its printing phase, so the segment seals the warm-up pipeline the
/// phase start closed (frozen, thresholded) beside the open one.
fn scenario_rotating_inside_jobs() -> Vec<Op> {
    let mut ops = Vec::new();
    let mut samples_to_rotation = None;
    for op in scenario(1) {
        if let Op::PhaseStart(_, PhaseKind::Printing, _) = op {
            samples_to_rotation = Some(5);
        }
        let sample = matches!(op, Op::Sample(..));
        ops.push(op);
        if sample {
            samples_to_rotation = match samples_to_rotation {
                Some(1) => {
                    ops.push(Op::Rotate);
                    None
                }
                left => left.map(|n| n - 1),
            };
        }
    }
    ops
}

#[test]
fn crash_between_a_phase_close_and_its_job_complete_recovers_equivalently() {
    let ops = scenario_rotating_inside_jobs();
    let baseline = uninterrupted(&ops);

    // The write offsets at which each job's warm-up has closed and its
    // job-complete has not yet been written, one op at a time.
    let probe = MemStorage::new();
    let mut d = open(probe.clone());
    let mut windows = Vec::new();
    let mut closed_at = None;
    for op in &ops {
        if let Op::JobComplete(..) = op {
            let closed = closed_at.take().expect("a phase closed before");
            // Through the job-complete record itself, torn at every byte.
            windows.push(closed..=probe.bytes_written() + 24);
        }
        assert!(run_ops(
            &mut d,
            std::slice::from_ref(op),
            0,
            &BTreeMap::new()
        ));
        if let Op::PhaseStart(_, PhaseKind::Printing, _) = op {
            closed_at = Some(probe.bytes_written());
        }
    }
    assert_eq!(windows.len(), 3, "one window per job");

    let mut swept = 0;
    for window in windows {
        for budget in window.step_by(29) {
            for keep_unsynced in [false, true] {
                let report = crash_recover_resume(&ops, budget, keep_unsynced);
                assert_reports_equal(
                    &report,
                    &baseline,
                    &format!("budget={budget} keep_unsynced={keep_unsynced}"),
                );
                swept += 1;
            }
        }
    }
    assert!(swept >= 60, "sweep covered {swept} crash points");
}

/// A checksum-valid segment whose chunks address no open pipeline — one a
/// pipeline an earlier segment's control already closed, two a control
/// that opened no pipeline, on a lane with none open and on one whose
/// open pipeline another control opened: recovery refuses all three,
/// counts them, and ends on the report the journal without them gives.
#[test]
fn a_chunk_for_a_closed_pipeline_is_refused() {
    let ops = scenario(1);
    let first_rotation = ops
        .iter()
        .position(|op| matches!(op, Op::Rotate))
        .expect("a rotation");
    let storage = MemStorage::new();
    let mut d = open(storage.clone());
    assert!(run_ops(
        &mut d,
        &ops[..=first_rotation],
        0,
        &BTreeMap::new()
    ));
    drop(d);
    let clean = storage.crash_image(true);

    // Seal one more segment onto a copy: no controls, two chunks on m0's
    // bed lane. One for the warm-up pipeline control 4 opened — and
    // control 5, sealed in the first segment, closed; one after control 3,
    // the job start, which opened no pipeline. And one after control 3 on
    // m0's room lane, whose open pipeline control 1 opened.
    let crafted = storage.crash_image(true);
    let (mut store, recovered) =
        Store::open(crafted.clone(), StoreOptions { group_commit: 8 }).expect("store");
    let sealed = &recovered.segments[0];
    let lane_no = |id: LaneId| {
        let def = sealed.lane_defs.iter();
        let mut def = def.filter(|def| decode_lane(&def.meta).as_ref() == Some(&id));
        def.next().expect("lane sealed").lane
    };
    let bed_no = lane_no(lane("m0", "m0.bed.0", LaneKind::Phase));
    let room_no = lane_no(lane("m0", "m0.room", LaneKind::Environment));
    let warm_up = sealed
        .chunks
        .iter()
        .find(|ch| ch.lane == bed_no)
        .expect("warm-up chunk")
        .after_control_seq;
    assert_eq!(warm_up, 4);
    let chunk = |lane, after_control_seq| SegmentChunk {
        lane,
        after_control_seq,
        timestamps: (90..96).collect(),
        values: vec![1e3; 6],
        late_dropped: 0,
        duplicates_dropped: 0,
    };
    let draft = SegmentDraft {
        lane_defs: sealed.lane_defs.clone(),
        chunks: vec![chunk(bed_no, warm_up), chunk(bed_no, 3), chunk(room_no, 3)],
        ..SegmentDraft::default()
    };
    store
        .rotate(&draft, &recovered.wal)
        .expect("seal the crafted segment");
    drop(store);

    let resume = |storage: MemStorage| {
        let (policy, config) = policy_and_config();
        let (mut d, recovery) =
            DurableStream::open(policy, config, storage, StoreOptions { group_commit: 8 })
                .expect("open");
        let skip = d.controls_applied();
        let delivered = d.delivered().clone();
        assert!(run_ops(&mut d, &ops, skip, &delivered));
        (recovery, d.finish().expect("finish"))
    };
    let (clean_recovery, want) = resume(clean);
    let (recovery, got) = resume(crafted);
    assert_eq!(clean_recovery.refused_chunks, 0);
    assert_eq!(recovery.refused_chunks, 3);
    assert_eq!(recovery.restored_samples, clean_recovery.restored_samples);
    assert_reports_equal(&got, &want, "a refused chunk");
    assert_reports_equal(&got, &uninterrupted(&ops), "a refused chunk");
}

// ---------------------------------------------------------------------
// Runs longer than one. The sweeps above ingest one sample per call, so
// every sample is its own WAL record; a server ingests what one socket
// read delivered through `Tenant::ingest_run`, which the store journals
// as runs — one record of many samples, one checksum — cut at the end of
// each `ingest_run`, by the group commit, lane definitions and controls.

const PLANT: &str = "plant";

fn registry(factory: MemFactory, group_commit: usize) -> (PlantRegistry<MemFactory>, u64) {
    let (policy, stream) = policy_and_config();
    let config = TenantConfig {
        stream,
        store: StoreOptions { group_commit },
    };
    let (registry, recoveries) = PlantRegistry::open(factory, policy, config).expect("open");
    let replayed = recoveries.get(PLANT).map_or(0, |r| r.replayed_samples);
    (registry, replayed)
}

/// [`run_ops`] as a server drives a plant: consecutive samples in runs
/// of at most `run_len` through [`Tenant::ingest_run`], each lane on a
/// wire number of its own, with the same resume contract.
fn run_ops_in_runs(
    tenant: &mut Tenant<MemStorage>,
    ops: &[Op],
    run_len: usize,
    skip_controls: u64,
    delivered: &BTreeMap<LaneId, u64>,
) -> bool {
    let mut table = LaneTable::default();
    let mut wire: BTreeMap<LaneId, u32> = BTreeMap::new();
    let mut run = Vec::new();
    let mut control_no = 0_u64;
    let mut lane_counts: BTreeMap<LaneId, u64> = BTreeMap::new();
    let apply = |tenant: &mut Tenant<MemStorage>, table: &mut LaneTable, run: &mut Vec<_>| {
        let failed = tenant.ingest_run(table, run);
        run.clear();
        if let Some(e) = failed {
            let killed = tenant.stream().store().storage().killed();
            assert!(killed, "only the injected crash may fail a run: {e:?}");
            return false;
        }
        true
    };
    for op in ops {
        if let Op::MachineUp(..) | Op::JobStart(..) | Op::PhaseStart(..) | Op::JobComplete(..) = op
        {
            control_no += 1;
            if control_no <= skip_controls {
                continue;
            }
        }
        if let Op::Sample(id, ts, v) = op {
            let count = lane_counts.entry(id.clone()).or_insert(0);
            *count += 1;
            if *count <= delivered.get(id).copied().unwrap_or(0) {
                continue;
            }
            let next = wire.len() as u32 + 1;
            let lane = *wire.entry(id.clone()).or_insert_with(|| {
                assert!(table.bind(next, id.clone()));
                next
            });
            run.push((
                lane,
                Sample {
                    timestamp: *ts,
                    value: *v,
                },
            ));
            if run.len() == run_len && !apply(tenant, &mut table, &mut run) {
                return false;
            }
            continue;
        }
        if !run.is_empty() && !apply(tenant, &mut table, &mut run) {
            return false;
        }
        let result = match op {
            Op::MachineUp(m, sensors, groups, env) => tenant.control(&ControlEvent::machine_up(
                m,
                sensors.clone(),
                groups.clone(),
                env,
            )),
            Op::JobStart(m, j, start, config) => {
                tenant.control(&ControlEvent::job_start(m, j, *start, config.clone()))
            }
            Op::PhaseStart(m, kind, sensors) => {
                tenant.control(&ControlEvent::phase_start(m, *kind, sensors))
            }
            Op::JobComplete(m, caq) => tenant.control(&ControlEvent::job_complete(m, caq.clone())),
            Op::Rotate => tenant.rotate(),
            Op::Tick => tenant.tick().map(|_| ()),
            Op::Sample(..) => unreachable!("samples join the run"),
        };
        if let Err(e) = result {
            let killed = tenant.stream().store().storage().killed();
            assert!(
                killed,
                "only the injected crash may fail the scenario: {e:?}"
            );
            return false;
        }
    }
    run.is_empty() || apply(tenant, &mut table, &mut run)
}

/// The samples in the whole records of a WAL image: its record headers
/// walked up to the first record the image does not hold whole, each
/// whole one's samples counted. A torn record counts none.
fn samples_in_whole_records(image: &[u8]) -> u64 {
    let mut offset = WAL_MAGIC.len();
    let mut samples = 0;
    while let Some(header) = image.get(offset..offset + 8) {
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let Some(record) = image.get(offset..offset + 8 + len) else {
            break;
        };
        let mut alone = WAL_MAGIC.to_vec();
        alone.extend_from_slice(record);
        let records = wal::scan(&alone).records;
        samples += records
            .iter()
            .filter(|r| matches!(r, WalRecord::Sample { .. }))
            .count() as u64;
        offset += 8 + len;
    }
    samples
}

/// The samples of a torn run that reached the image whole: the tail's
/// header, tag 4, the first sample's lane, timestamp and value, then
/// every later sample whose head byte and the fields it announces all
/// landed (`hierod_store::wal`'s module docs). A lower bound on the
/// run's length; 0 if the tail is no run.
fn samples_landed_of_torn_run(tail: &[u8]) -> usize {
    let Some(mut payload) = tail.get(8..) else {
        return 0;
    };
    let first = codec::take_u8(&mut payload) == Some(4)
        && codec::take_varint(&mut payload).is_some()
        && codec::take_varint(&mut payload).is_some()
        && codec::take_f64(&mut payload).is_some();
    if !first {
        return 0;
    }
    let mut samples = 1;
    while let Some(head) = codec::take_u8(&mut payload) {
        let (lead, trail) = (usize::from(head >> 3 & 7), usize::from(head & 7));
        let width = 8_usize.saturating_sub(lead + trail);
        let landed = (head & 0x80 == 0 || codec::take_varint(&mut payload).is_some())
            && (head & 0x40 == 0 || codec::take_varint(&mut payload).is_some())
            && codec::take(&mut payload, width).is_some();
        if !landed {
            break;
        }
        samples += 1;
    }
    samples
}

/// What the active WAL of a crash image holds: samples in whole records,
/// and how many samples of a torn run at its tail landed.
fn active_wal(image: &MemStorage) -> (u64, usize) {
    let layout = read_layout(image).expect("layout");
    if !layout.wal_present {
        return (0, 0);
    }
    let bytes = image
        .read(&format!("wal-{}.log", layout.wal_index))
        .expect("read the active WAL");
    let valid = wal::scan(&bytes).valid_len;
    let tail = bytes.get(valid..).unwrap_or_default();
    (
        samples_in_whole_records(&bytes),
        samples_landed_of_torn_run(tail),
    )
}

/// Crashes the scenario, driven in runs of `run_len` on a store that
/// group-commits every `group_commit` samples, at `budget` written
/// bytes; recovers; checks that recovery replayed exactly the samples of
/// the active WAL's whole records (a torn run restores none); resumes
/// from the recovered cursors and finishes. Returns the report and how
/// many samples of a torn run had landed.
fn crash_recover_resume_in_runs(
    ops: &[Op],
    (run_len, group_commit): (usize, usize),
    budget: u64,
    keep_unsynced: bool,
) -> (StreamReport, usize) {
    let (mut plants, _) = registry(MemFactory::new(), group_commit);
    let tenant = plants.create_tenant(PLANT).expect("create");
    tenant
        .stream()
        .store()
        .storage()
        .set_write_budget(Some(budget));
    run_ops_in_runs(tenant, ops, run_len, 0, &BTreeMap::new());
    let image = plants.factory().crash_image(keep_unsynced);
    let storage = image.storage(PLANT, 0).expect("the plant's storage");
    let (whole, torn_run) = active_wal(&storage);

    let (mut recovered, replayed) = registry(image, group_commit);
    assert_eq!(replayed, whole, "recovery replays whole records only");
    let tenant = recovered.tenant_mut(PLANT).expect("recovered");
    let skip = tenant.stream().controls_applied();
    let delivered = tenant.stream().delivered();
    assert!(
        run_ops_in_runs(tenant, ops, run_len, skip, &delivered),
        "resume runs on healthy storage"
    );
    let mut report = recovered.finish_tenant(PLANT).expect("finish");
    // As in `crash_recover_resume`: the torn write is a survived
    // corruption the baseline never saw.
    report.stats.corrupt_records = 0;
    for stats in report.lane_stats.values_mut() {
        stats.corrupt_records = 0;
    }
    (report, torn_run)
}

/// One job whose warm-up is 600 samples of one lane in a row: the only
/// stretch long enough for a journal run to reach [`wal::MAX_RUN`] (the
/// scenarios above have at most 52 samples between two other records).
fn scenario_long_phase() -> Vec<Op> {
    let bed = "m0.bed.0";
    let mut ops = vec![
        Op::MachineUp(
            "m0".into(),
            vec![Sensor::new(bed, SensorKind::BedTemperature)],
            vec![RedundancyGroup::new(
                SensorKind::BedTemperature,
                vec![bed.into()],
            )],
            vec![],
        ),
        Op::JobStart(
            "m0".into(),
            "j0".into(),
            0,
            JobConfig::new(vec!["speed".into()], vec![1.0]),
        ),
        Op::PhaseStart("m0".into(), PhaseKind::WarmUp, vec![bed.into()]),
    ];
    for i in 0..600_u64 {
        let t = i ^ 1;
        let v = if i == 300 {
            80.0
        } else {
            (t as f64 * 0.37).sin()
        };
        ops.push(Op::Sample(lane("m0", bed, LaneKind::Phase), t, v));
    }
    ops.push(Op::JobComplete(
        "m0".into(),
        CaqResult::new(vec!["q".into()], vec![0.9], true),
    ));
    ops.push(Op::Rotate);
    ops
}

/// `scenarios` through `Tenant::ingest_run` in runs of `run_len`, on a
/// store that group-commits every `run_len` samples (every 8 at least,
/// as in the sweeps above), so journal runs grow to `run_len` samples
/// wherever a scenario has that many in a row: crashed at every byte
/// each scenario writes, with and without the unsynced bytes, the
/// recovered report equals the one-sample-per-call, uncrashed one.
/// Returns the most samples of one torn run that landed in a crash
/// image.
fn sweep_every_byte_in_runs_of(run_len: usize, scenarios: &[Vec<Op>]) -> usize {
    let group_commit = run_len.max(8);
    let mut longest_torn = 0;
    for ops in scenarios {
        let baseline = uninterrupted(ops);
        let (mut probe, _) = registry(MemFactory::new(), group_commit);
        let tenant = probe.create_tenant(PLANT).expect("create");
        let storage = tenant.stream().store().storage().clone();
        let before = storage.bytes_written();
        assert!(run_ops_in_runs(tenant, ops, run_len, 0, &BTreeMap::new()));
        let total = storage.bytes_written() - before;
        assert_reports_equal(
            &probe.finish_tenant(PLANT).expect("finish"),
            &baseline,
            &format!("runs of {run_len}, uncrashed"),
        );
        for budget in 0..=total {
            for keep_unsynced in [false, true] {
                let (report, torn) = crash_recover_resume_in_runs(
                    ops,
                    (run_len, group_commit),
                    budget,
                    keep_unsynced,
                );
                assert_reports_equal(
                    &report,
                    &baseline,
                    &format!("runs of {run_len}, budget={budget} keep_unsynced={keep_unsynced}"),
                );
                longest_torn = longest_torn.max(torn);
            }
        }
    }
    longest_torn
}

#[test]
fn crash_at_every_byte_of_runs_of_1_recovers_equivalently() {
    sweep_every_byte_in_runs_of(1, &[scenario(1), scenario_rotating_inside_jobs()]);
}

#[test]
fn crash_at_every_byte_of_runs_of_7_recovers_equivalently() {
    let torn = sweep_every_byte_in_runs_of(7, &[scenario(1), scenario_rotating_inside_jobs()]);
    assert_eq!(torn, 6, "a run of 7 torn in its last sample");
}

/// Runs of 64 on the default group commit of 64: the journal's runs are
/// the scenarios' stretches of samples between two other records, up to
/// 52 samples.
#[test]
fn crash_at_every_byte_of_runs_of_64_recovers_equivalently() {
    assert_eq!(StoreOptions::default().group_commit, 64);
    let torn = sweep_every_byte_in_runs_of(64, &[scenario(1), scenario_rotating_inside_jobs()]);
    assert_eq!(torn, 51, "a run of 52 torn in its last sample");
}

/// The group commit counts the lane definition in front of the first
/// sample, so each commit falls one sample short of a run's end: the
/// journal's runs are of 199 samples and one.
#[test]
fn crash_at_every_byte_of_runs_of_200_recovers_equivalently() {
    let torn = sweep_every_byte_in_runs_of(200, &[scenario_long_phase()]);
    assert_eq!(torn, 198, "a run of 199 torn in its last sample");
}

/// Runs of 600 on a group commit of 600: the store closes each journal
/// run at the cap.
#[test]
fn crash_at_every_byte_of_runs_past_the_cap_recovers_equivalently() {
    let torn = sweep_every_byte_in_runs_of(600, &[scenario_long_phase()]);
    assert_eq!(
        torn,
        wal::MAX_RUN - 1,
        "a run of MAX_RUN torn in its last sample"
    );
}

/// A journal written one sample per record — each `WalRecord::Sample`
/// framed alone by `WalRecord::encode`, the form every journal took
/// before runs — recovers to the same report bytes as the same input
/// journalled in runs.
#[test]
fn a_journal_of_one_sample_per_record_recovers_like_one_of_runs() {
    let ops: Vec<Op> = scenario(1)
        .into_iter()
        .filter(|op| !matches!(op, Op::Rotate | Op::Tick))
        .collect();
    let (mut plants, _) = registry(MemFactory::new(), 64);
    let tenant = plants.create_tenant(PLANT).expect("create");
    assert!(run_ops_in_runs(tenant, &ops, 64, 0, &BTreeMap::new()));
    let in_runs = plants.factory().crash_image(false);
    let runs_storage = in_runs.storage(PLANT, 0).expect("storage");
    let runs_wal = runs_storage.read("wal-0.log").expect("wal");
    let scanned = wal::scan(&runs_wal);
    assert_eq!(
        (scanned.corruption, scanned.valid_len),
        (None, runs_wal.len())
    );
    let records = scanned.records;

    let one_per_record = in_runs.crash_image(false);
    let storage = one_per_record.storage(PLANT, 0).expect("storage");
    let mut image = WAL_MAGIC.to_vec();
    for record in &records {
        record.encode(&mut image);
    }
    storage.remove("wal-0.log").expect("remove");
    let mut file = storage.create("wal-0.log").expect("create");
    file.append(&image).expect("append");
    file.sync().expect("sync");
    drop(file);
    assert_eq!(wal::scan(&image).records, records);
    assert!(
        runs_wal.len() < image.len(),
        "runs: {} B, one sample per record: {} B",
        runs_wal.len(),
        image.len()
    );

    let finish = |factory| {
        let (plants, replayed) = registry(factory, 64);
        let samples = records
            .iter()
            .filter(|r| matches!(r, WalRecord::Sample { .. }));
        assert_eq!(replayed, samples.count() as u64);
        encode_report(&plants.finish_tenant(PLANT).expect("finish"))
    };
    let (from_runs, from_records) = (finish(in_runs), finish(one_per_record));
    assert_eq!(from_runs, from_records);
    assert_eq!(from_runs, encode_report(&uninterrupted(&ops)));
}

/// A journal image written the way writers wrote runs before tag 4:
/// consecutive samples as tag-3 runs — the first sample's lane,
/// timestamp and value, then per later sample its lane, its zigzag
/// delta from the sample before and its value — closed in front of any
/// other record, at [`wal::MAX_RUN`] samples and where a delta leaves
/// `i64`.
fn tag_3_image(records: &[WalRecord]) -> Vec<u8> {
    fn close(image: &mut Vec<u8>, run: &mut Vec<u8>) {
        if !run.is_empty() {
            wal::put_framed(image, |out| out.extend_from_slice(run));
            run.clear();
        }
    }
    let mut image = WAL_MAGIC.to_vec();
    let (mut run, mut samples, mut last) = (Vec::new(), 0, 0_u64);
    for record in records {
        let &WalRecord::Sample {
            lane,
            timestamp,
            value,
        } = record
        else {
            close(&mut image, &mut run);
            record.encode(&mut image);
            continue;
        };
        let delta = i64::try_from(i128::from(timestamp) - i128::from(last)).ok();
        match delta.filter(|_| !run.is_empty() && samples < wal::MAX_RUN) {
            Some(delta) => {
                codec::put_varint(&mut run, u64::from(lane));
                codec::put_varint(&mut run, ((delta << 1) ^ (delta >> 63)) as u64);
                samples += 1;
            }
            None => {
                close(&mut image, &mut run);
                run.push(3);
                codec::put_varint(&mut run, u64::from(lane));
                codec::put_varint(&mut run, timestamp);
                samples = 1;
            }
        }
        codec::put_f64(&mut run, value);
        last = timestamp;
    }
    close(&mut image, &mut run);
    image
}

/// The ingest records of a frame stream as [`FrameReader::poll`] hands
/// them out — or, with `take`, with [`FrameReader::take_samples`]
/// moving what it can behind each polled sample.
fn read_frames(mut bytes: &[u8], take: bool) -> Vec<WalRecord> {
    let mut reader = FrameReader::new();
    let (mut records, mut run) = (Vec::new(), Vec::new());
    loop {
        match reader.poll(&mut bytes).expect("a well-formed stream") {
            Poll::Frame(Frame::Ingest(record)) => {
                let sample = matches!(record, WalRecord::Sample { .. });
                records.push(record);
                if take && sample {
                    run.clear();
                    reader.take_samples(&mut run);
                    records.extend(run.iter().map(|&(lane, s)| WalRecord::Sample {
                        lane,
                        timestamp: s.timestamp,
                        value: s.value,
                    }));
                }
            }
            Poll::Frame(other) => panic!("not an ingest frame: {other:?}"),
            Poll::Eof => return records,
            Poll::Idle => panic!("a byte slice never blocks"),
        }
    }
}

/// A journal written before tag 4 still reads: the tag-3 image of a
/// scenario — runs of many samples and of one, deltas back in time —
/// scans to the records its tag-4 journal scans to, recovers to the
/// same report bytes, and as a frame stream is taken by `take_samples`
/// as `poll` hands it out.
#[test]
fn a_tag_3_journal_reads_like_the_tag_4_one() {
    let ops: Vec<Op> = scenario(1)
        .into_iter()
        .filter(|op| !matches!(op, Op::Rotate | Op::Tick))
        .collect();
    let (mut plants, _) = registry(MemFactory::new(), 64);
    let tenant = plants.create_tenant(PLANT).expect("create");
    assert!(run_ops_in_runs(tenant, &ops, 64, 0, &BTreeMap::new()));
    let tag_4 = plants.factory().crash_image(false);
    let tag_4_storage = tag_4.storage(PLANT, 0).expect("storage");
    let records = wal::scan(&tag_4_storage.read("wal-0.log").expect("wal")).records;
    let image = tag_3_image(&records);

    // What the image holds: runs of one and of many, deltas back.
    let mut runs = Vec::new();
    let mut rest = &image[WAL_MAGIC.len()..];
    while let Some(len) = codec::take_u32(&mut rest) {
        let payload = &rest[4..4 + len as usize];
        rest = &rest[4 + len as usize..];
        let mut samples = Vec::new();
        if payload[0] == 3 && wal::decode_run(payload, &mut samples, |_, t, _| t) {
            runs.push(samples);
        }
    }
    assert!(runs.iter().any(|run| run.len() == 1), "a run of one");
    assert!(runs.iter().any(|run| run.len() > 1), "a run of many");
    assert!(
        runs.iter().any(|run| run.windows(2).any(|w| w[1] < w[0])),
        "a delta back in time"
    );

    let scanned = wal::scan(&image);
    assert_eq!((scanned.corruption, scanned.valid_len), (None, image.len()));
    assert_eq!(scanned.records, records);

    let tag_3 = tag_4.crash_image(false);
    let storage = tag_3.storage(PLANT, 0).expect("storage");
    storage.remove("wal-0.log").expect("remove");
    let mut file = storage.create("wal-0.log").expect("create");
    file.append(&image).expect("append");
    file.sync().expect("sync");
    drop(file);
    let finish = |factory| {
        let (plants, _) = registry(factory, 64);
        encode_report(&plants.finish_tenant(PLANT).expect("finish"))
    };
    assert_eq!(finish(tag_3), finish(tag_4));

    // A WAL's records are ingest frames, byte for byte.
    let stream = &image[WAL_MAGIC.len()..];
    assert_eq!(read_frames(stream, false), records);
    assert_eq!(read_frames(stream, true), records);
}

/// FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every byte a [`DurableStream`] writes, and the report it finishes on,
/// for both scripted scenarios: one line per storage file (name, length,
/// FNV-1a digest) plus one for `encode_report` of the finished report.
/// The golden file beside this test was written before the stream
/// detector stopped keeping closed pipelines; a refactor of the detector
/// or of rotation and recovery must keep every line. When the file is
/// absent the test writes it and fails, so a fresh pin set is never
/// mistaken for a passing one.
#[test]
fn segment_wal_and_report_bytes_are_pinned() {
    let mut actual = String::new();
    for (name, ops) in [
        ("scenario(1)", scenario(1)),
        ("rotating_inside_jobs", scenario_rotating_inside_jobs()),
    ] {
        let storage = MemStorage::new();
        let mut d = open(storage.clone());
        assert!(run_ops(&mut d, &ops, 0, &BTreeMap::new()), "no budget set");
        let report = encode_report(&d.finish().expect("finish"));
        let mut files = storage.list().expect("list");
        files.sort();
        for file in files {
            let bytes = storage.read(&file).expect("read");
            let (len, digest) = (bytes.len(), fnv(&bytes));
            writeln!(actual, "{name} {file} {len} {digest:016x}").expect("write to String");
        }
        let (len, digest) = (report.len(), fnv(&report));
        writeln!(actual, "{name} report {len} {digest:016x}").expect("write to String");
    }
    let Ok(golden) = std::fs::read_to_string(GOLDEN) else {
        std::fs::write(GOLDEN, &actual).expect("write golden");
        panic!("{GOLDEN} was missing and has been written; re-run to check it");
    };
    assert_eq!(actual, golden, "stored or report bytes moved");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random crash points × random environment lateness spice: the
    /// recovered-and-resumed report always equals the uninterrupted one.
    #[test]
    fn random_crash_points_recover_equivalently(
        budget_seed in any::<u64>(),
        keep_unsynced in any::<bool>(),
        spice in 0_u64..3,
    ) {
        let ops = scenario(spice);
        let baseline = uninterrupted(&ops);
        let probe = MemStorage::new();
        {
            let mut d = open(probe.clone());
            prop_assert!(run_ops(&mut d, &ops, 0, &BTreeMap::new()));
            d.finish().expect("finish");
        }
        let total = probe.bytes_written();
        let budget = budget_seed % total.max(1);
        let report = crash_recover_resume(&ops, budget, keep_unsynced);
        assert_reports_equal(
            &report,
            &baseline,
            &format!("budget={budget} keep_unsynced={keep_unsynced} spice={spice}"),
        );
    }
}
