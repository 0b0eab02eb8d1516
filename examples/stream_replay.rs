//! Streaming ingestion end to end: replay a synthetic plant as a live
//! event stream into a [`StreamDetector`], and print the same ⟨global
//! score, outlierness, support⟩ triples the batch pipeline would
//! produce. A second leg replays the same scenario through a
//! [`DurableStream`], kills the process mid-stream with an injected
//! write budget, recovers from the crash image, resumes from the store's
//! cursors, and shows the recovered report is identical.
//!
//! ```sh
//! cargo run --release --example stream_replay
//! ```
//!
//! [`StreamDetector`]: hierod::stream::StreamDetector
//! [`DurableStream`]: hierod::stream::DurableStream

use std::collections::BTreeMap;

use hierod::core::{AlgorithmPolicy, FusionRule};
use hierod::store::{MemStorage, StoreOptions};
use hierod::stream::{
    ControlEvent, DurableStream, LaneId, ScorerMode, StreamConfig, StreamDetector, StreamEvent,
    StreamReport,
};
use hierod::synth::ScenarioBuilder;

fn main() {
    // A small plant whose jobs carry injected anomalies, then flattened
    // into a time-ordered event stream (control events + samples).
    let scenario = ScenarioBuilder::new(42)
        .machines(2)
        .jobs_per_machine(3)
        .redundancy(2)
        .phase_samples(40)
        .anomaly_rate(0.8)
        .build();
    let events: Vec<StreamEvent> = scenario
        .replay()
        .into_iter()
        .map(StreamEvent::from)
        .collect();
    println!(
        "replaying plant `{}` as {} stream events\n",
        scenario.plant.name,
        events.len()
    );

    let config = StreamConfig {
        lateness: 0,
        mode: ScorerMode::BatchEquivalent,
    };
    let mut detector =
        StreamDetector::new(AlgorithmPolicy::default(), config).expect("stream detector");

    // Drive the detector exactly as a live collector would: control
    // events open machines/jobs/phases, and every sample lands in the
    // phase that is open when it arrives.
    for event in &events {
        match event {
            StreamEvent::Control(control) => detector.apply(control).expect("control"),
            StreamEvent::Sample(lane, sample) => detector.ingest(lane, *sample).expect("ingest"),
        }
    }
    let out = detector.finish().expect("finish");

    println!(
        "ingested {} samples ({} released, {} late, {} duplicate)\n",
        out.stats.samples_ingested,
        out.stats.samples_released,
        out.stats.late_dropped,
        out.stats.duplicates_dropped
    );
    let fusion = FusionRule::default_weighted();
    println!("top streaming outliers by fused triple score:");
    for outlier in out
        .report
        .ranked_by(|o| fusion.score(o))
        .into_iter()
        .take(8)
    {
        println!("  {}", outlier.summary());
    }
    println!(
        "\n{} outliers total, {} suspected measurement errors — identical \
         to the batch pipeline on the finished plant (pinned by \
         crates/stream/tests/stream_batch_equivalence.rs)",
        out.report.len(),
        out.report.warnings.len()
    );

    durable_leg(&events, &out);
}

/// Replays `events` into a durable detector, skipping the prefix the
/// store already holds (the resume contract after a crash). Returns
/// `false` if the injected crash fired mid-replay.
fn run_durable(
    d: &mut DurableStream<MemStorage>,
    events: &[StreamEvent],
    skip_controls: u64,
    delivered: &BTreeMap<LaneId, u64>,
) -> bool {
    let mut control_no = 0_u64;
    let mut lane_counts: BTreeMap<&LaneId, u64> = BTreeMap::new();
    for event in events {
        let result = match event {
            StreamEvent::Control(control) => {
                control_no += 1;
                if control_no <= skip_controls {
                    continue;
                }
                let applied = d.control(control);
                if matches!(control, ControlEvent::JobComplete { .. }) {
                    // Seal released history into a columnar segment per job.
                    applied.and_then(|()| d.rotate())
                } else {
                    applied
                }
            }
            StreamEvent::Sample(lane, sample) => {
                let count = lane_counts.entry(lane).or_insert(0);
                *count += 1;
                if *count <= delivered.get(lane).copied().unwrap_or(0) {
                    continue;
                }
                d.ingest(lane, *sample)
            }
        };
        if result.is_err() {
            assert!(
                d.store().storage().killed(),
                "only the injected crash may fail the replay"
            );
            return false;
        }
    }
    true
}

/// Persist → kill → recover → resume, then check the recovered report
/// against the in-memory run.
fn durable_leg(events: &[StreamEvent], baseline: &StreamReport) {
    println!("\n--- durable leg: persist, kill mid-stream, recover, resume ---\n");
    let config = StreamConfig {
        lateness: 0,
        mode: ScorerMode::BatchEquivalent,
    };
    let options = StoreOptions { group_commit: 32 };

    // Dry run to learn the scenario's total write volume, so the crash
    // can land deterministically a bit past the halfway point.
    let probe = MemStorage::new();
    let (mut d, _) =
        DurableStream::open(AlgorithmPolicy::default(), config, probe.clone(), options)
            .expect("open probe");
    assert!(run_durable(&mut d, events, 0, &BTreeMap::new()));
    drop(d);
    let budget = probe.bytes_written() * 55 / 100;

    let storage = MemStorage::new();
    storage.set_write_budget(Some(budget));
    let (mut d, _) =
        DurableStream::open(AlgorithmPolicy::default(), config, storage.clone(), options)
            .expect("open durable");
    let crashed = !run_durable(&mut d, events, 0, &BTreeMap::new());
    drop(d);
    println!(
        "killed the writer after {budget} bytes (crashed mid-stream: {crashed}); \
         taking a crash image without the page cache"
    );

    // Everything unsynced is lost — only fsynced bytes survive.
    let image = storage.crash_image(false);
    let (mut d, recovery) = DurableStream::open(AlgorithmPolicy::default(), config, image, options)
        .expect("recovery always succeeds");
    println!(
        "recovered: {} segments, {} samples restored from segments, {} replayed \
         from the WAL tail, {} control events applied",
        recovery.store.segments_loaded,
        recovery.restored_samples,
        recovery.replayed_samples,
        recovery.controls_applied
    );

    let skip = d.controls_applied();
    let delivered = d.delivered().clone();
    assert!(
        run_durable(&mut d, events, skip, &delivered),
        "resume runs on healthy storage"
    );
    let recovered = d.finish().expect("finish after recovery");

    assert_eq!(
        recovered.stats, baseline.stats,
        "stats must survive the crash"
    );
    assert_eq!(
        format!("{:?}", recovered.report),
        format!("{:?}", baseline.report),
        "Algorithm-1 report must survive the crash"
    );
    println!(
        "\nresumed and finished: {} samples ingested, {} outliers — the report \
         is identical to the never-crashed run (write-crash-recover ≡ no-crash, \
         pinned by crates/stream/tests/store_recovery.rs)",
        recovered.stats.samples_ingested,
        recovered.report.len()
    );
}
