//! The historical query tier end to end (DESIGN.md §4.18): ingest two
//! jobs through the embedded [`PlantService`], seal their WALs into
//! rotation segments, compact the segments into the tiered
//! Gorilla-compressed history files, serve pruned time-range scans, and
//! finally *backfill* — replay a stored range through a fresh detector,
//! once with the original policy (reproducing the original report
//! exactly) and once with a swapped phase detector (diffing the two
//! outlier sets).
//!
//! ```sh
//! cargo run --release --example history_query
//! ```
//!
//! [`PlantService`]: hierod::service::PlantService

use hierod::core::AlgorithmPolicy;
use hierod::detect::engine::AlgoSpec;
use hierod::hierarchy::{CaqResult, JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
use hierod::history::{diff_reports, CompactionOptions, RangeQuery};
use hierod::service::{PlantService, RegistryService};
use hierod::store::tenants::MemFactory;
use hierod::stream::tenant::TenantConfig;
use hierod::stream::{ControlEvent, LaneId, LaneKind, Sample};

const PLANT: &str = "plant-a";
const MACHINE: &str = "m0";
const BED: &str = "m0.bed.0";

/// Quantized bed-temperature curve with one injected spike per job.
fn sample_at(job: u64, t: u64) -> f64 {
    if t == 20 {
        60.0 + job as f64
    } else {
        let raw = 24.0 + 3.0 * ((t + job) as f64 * 0.4).sin();
        (raw * 10.0).round() / 10.0
    }
}

/// Drives one complete job: start, warm-up phase, samples, completion.
fn run_job(svc: &mut RegistryService<MemFactory>, job: u64, start: u64) {
    let name = format!("j{job}");
    svc.control(
        PLANT,
        &ControlEvent::job_start(
            MACHINE,
            &name,
            start,
            JobConfig::new(vec!["p".into()], vec![1.0]),
        ),
    )
    .expect("job start");
    svc.control(
        PLANT,
        &ControlEvent::phase_start(MACHINE, PhaseKind::WarmUp, &[BED.to_string()]),
    )
    .expect("phase start");
    let lane = LaneId {
        machine: MACHINE.into(),
        sensor: BED.into(),
        kind: LaneKind::Phase,
    };
    for t in 0..48_u64 {
        svc.ingest(
            PLANT,
            &lane,
            Sample {
                timestamp: start + t,
                value: sample_at(job, t),
            },
        )
        .expect("ingest");
    }
    svc.control(
        PLANT,
        &ControlEvent::job_complete(MACHINE, CaqResult::new(vec!["q".into()], vec![0.9], true)),
    )
    .expect("job complete");
}

fn main() {
    let mut svc = RegistryService::open(
        MemFactory::new(),
        AlgorithmPolicy::default(),
        TenantConfig::default(),
    )
    .expect("open service");
    svc.admit(PLANT, true).expect("admit");
    svc.control(
        PLANT,
        &ControlEvent::machine_up(
            MACHINE,
            vec![Sensor::new(BED, SensorKind::BedTemperature)],
            vec![RedundancyGroup::new(
                SensorKind::BedTemperature,
                vec![BED.into()],
            )],
            &[],
        ),
    )
    .expect("machine up");

    // ── ingest: two jobs, each sealed into its own rotation segment.
    for job in 0..2_u64 {
        run_job(&mut svc, job, job * 1000);
        svc.rotate(PLANT).expect("rotate");
    }

    // ── compact: absorb the per-rotation segments into per-lane,
    // time-partitioned history files with Gorilla-compressed columns.
    let s = svc
        .compact(PLANT, &CompactionOptions::default())
        .expect("compact");
    println!(
        "absorbed {} segments into {} history file(s), {} bytes written, floor now {}",
        s.segments_absorbed, s.l0_files, s.bytes_written, s.floor
    );

    // ── range scans: chunk min/max pruning keeps cold chunks sealed.
    let (lanes, scan) = svc
        .range_scan(PLANT, &RangeQuery::range(0, u64::MAX))
        .expect("full scan");
    println!(
        "\nfull scan: {} lanes, {} samples ({} chunks: {} pruned, {} decoded)",
        lanes.len(),
        scan.samples,
        scan.chunks_total,
        scan.chunks_pruned,
        scan.chunks_decoded
    );
    let (lanes, scan) = svc
        .range_scan(PLANT, &RangeQuery::range(1000, 1040))
        .expect("windowed scan");
    println!(
        "scan [1000, 1040] (job 1 only): {} samples, {} of {} chunks pruned",
        scan.samples, scan.chunks_pruned, scan.chunks_total
    );
    for lane in &lanes {
        let ts = lane.series.timestamps();
        println!(
            "  {}/{}: {} samples, t = {:?}..{:?}",
            lane.id.machine,
            lane.id.sensor,
            ts.len(),
            ts.first(),
            ts.last()
        );
    }

    // ── backfill: replay the stored range through a fresh detector.
    // With the original policy the replay reproduces the original
    // report exactly — the diff is empty.
    let replayed = svc
        .backfill(PLANT, 0, u64::MAX, None)
        .expect("backfill original");
    println!(
        "\nbackfill (original policy): {} controls, {} samples replayed",
        replayed.controls_replayed, replayed.samples_replayed
    );

    // With a swapped phase detector the same stored samples are
    // re-scored; the diff shows what the new detector sees differently.
    let spec: AlgoSpec = "sliding-z(window=8)".parse().expect("spec");
    let rescored = svc
        .backfill(PLANT, 0, u64::MAX, Some(&spec))
        .expect("backfill rescored");

    let original = svc.finish(PLANT).expect("finish");
    let diff = diff_reports(&original.report, &replayed.report.report);
    println!(
        "diff vs original report: {} added, {} removed (identical: {})",
        diff.added.len(),
        diff.removed.len(),
        diff.identical()
    );
    assert!(diff.identical(), "original-policy backfill must reproduce");

    let rediff = diff_reports(&original.report, &rescored.report.report);
    println!(
        "diff after swapping the phase detector to {spec}: \
         {} added, {} removed",
        rediff.added.len(),
        rediff.removed.len()
    );
    for outlier in rediff.added.iter().take(3) {
        println!("  + {:?}", outlier);
    }
    for outlier in rediff.removed.iter().take(3) {
        println!("  - {:?}", outlier);
    }
}
