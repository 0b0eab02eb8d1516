//! Pins durable `Tenant` ≡ bare [`StreamDetector`]: a plant streamed
//! through the production [`Tenant`](hierod_stream::Tenant) — journalled
//! to its WAL before every mutation — produces a [`StreamReport`]
//! **byte-identical** (same `Debug` rendering, which covers every score
//! bit) to the in-memory detector run in `BatchEquivalent` mode, at an
//! interim `tick` as well as at `finish`.
//!
//! Also pins **cached tick ≡ fresh-replay tick**: a long-lived detector
//! shares every frozen job's series and detections into its later reports,
//! so at every tick point its report must encode to the bytes of the first
//! tick of a fresh detector that replayed the same event prefix — whose
//! caches are empty by construction, so no second assembly path is kept
//! as an oracle.

use std::collections::BTreeMap;

use hierod_core::AlgorithmPolicy;
use hierod_store::tenants::MemFactory;
use hierod_store::{MemStorage, StoreOptions};
use hierod_stream::{
    ControlEvent, DurableStream, LaneId, PlantRegistry, ScorerMode, StreamConfig, StreamDetector,
    StreamEvent, StreamReport, TenantConfig,
};
use hierod_synth::{Scenario, ScenarioBuilder};
use hierod_wire::encode_report;

fn scenario() -> Scenario {
    ScenarioBuilder::new(42)
        .machines(3)
        .jobs_per_machine(3)
        .redundancy(2)
        .phase_samples(40)
        .anomaly_rate(0.8)
        .environment_anomalies(0.5, 6.0)
        .build()
}

fn config() -> StreamConfig {
    StreamConfig {
        lateness: 0,
        mode: ScorerMode::BatchEquivalent,
    }
}

/// The replay in stream order.
fn steps(scenario: &Scenario) -> Vec<StreamEvent> {
    scenario
        .replay()
        .into_iter()
        .map(StreamEvent::from)
        .collect()
}

/// Returns the rendering of an interim `tick` taken halfway through the
/// stream, and the final report.
fn run_unsharded(scenario: &Scenario) -> (String, StreamReport) {
    let mut det = StreamDetector::new(AlgorithmPolicy::default(), config()).expect("detector");
    let steps = steps(scenario);
    let mut interim = String::new();
    for (i, step) in steps.iter().enumerate() {
        if i == steps.len() / 2 {
            interim = format!("{:?}", det.tick().expect("tick"));
        }
        match step {
            StreamEvent::Control(event) => det.apply(event).expect("control"),
            StreamEvent::Sample(lane, sample) => det.ingest(lane, *sample).expect("ingest"),
        }
    }
    (interim, det.finish().expect("finish"))
}

/// The inline driver: the production [`Tenant`] over in-memory storage.
/// Same return shape as [`run_unsharded`].
fn run_tenant(scenario: &Scenario) -> (String, StreamReport) {
    let tenant_config = TenantConfig {
        stream: config(),
        ..TenantConfig::default()
    };
    let (mut registry, _) =
        PlantRegistry::open(MemFactory::new(), AlgorithmPolicy::default(), tenant_config)
            .expect("registry");
    let tenant = registry.create_tenant("plant").expect("tenant");
    let steps = steps(scenario);
    let mut interim = String::new();
    for (i, step) in steps.iter().enumerate() {
        if i == steps.len() / 2 {
            interim = format!("{:?}", tenant.tick().expect("tick"));
        }
        match step {
            StreamEvent::Control(event) => tenant.control(event).expect("control"),
            StreamEvent::Sample(lane, sample) => tenant.ingest(lane, *sample).expect("ingest"),
        }
    }
    (interim, registry.finish_tenant("plant").expect("finish"))
}

#[test]
fn tenant_report_is_byte_identical_to_bare_detector() {
    let scenario = scenario();
    let (want_tick, baseline) = run_unsharded(&scenario);
    assert!(
        baseline.stats.samples_ingested > 0,
        "scenario produced no samples"
    );
    assert!(
        !baseline.report.outliers.is_empty(),
        "scenario produced no outliers — the comparison would be weak"
    );
    let want = format!("{baseline:?}");
    assert_ne!(want_tick, want, "the interim tick must see a partial plant");
    let (tick, report) = run_tenant(&scenario);
    assert_eq!(tick, want_tick, "Tenant tick diverged");
    assert_eq!(
        format!("{report:?}"),
        want,
        "Tenant diverged from unsharded"
    );
}

fn machine_of(step: &StreamEvent) -> &str {
    match step {
        StreamEvent::Control(
            ControlEvent::MachineUp { machine, .. }
            | ControlEvent::JobStart { machine, .. }
            | ControlEvent::PhaseStart { machine, .. }
            | ControlEvent::JobComplete { machine, .. },
        ) => machine,
        StreamEvent::Sample(lane, _) => &lane.machine,
    }
}

/// The replay with the machines' streams interleaved in bursts, the way
/// concurrently running machines arrive: a job then completes on an early
/// machine after later machines already have closed jobs.
fn interleaved(steps: &[StreamEvent]) -> Vec<StreamEvent> {
    const BURST: usize = 97;
    let mut per_machine: Vec<(&str, Vec<&StreamEvent>)> = Vec::new();
    for step in steps {
        let machine = machine_of(step);
        match per_machine.iter_mut().find(|(m, _)| *m == machine) {
            Some((_, events)) => events.push(step),
            None => per_machine.push((machine, vec![step])),
        }
    }
    let mut out = Vec::with_capacity(steps.len());
    let mut offset = 0;
    while out.len() < steps.len() {
        for (_, events) in &per_machine {
            out.extend(events.iter().skip(offset).take(BURST).map(|e| (*e).clone()));
        }
        offset += BURST;
    }
    out
}

/// Per lane, within each run of samples between two control events: every
/// odd/even pair arrives swapped (inside any lateness ≥ 1), and one sample
/// of a long run arrives 20 slots late (dropped at lateness 8).
fn jittered(steps: &[StreamEvent]) -> Vec<StreamEvent> {
    let mut out = steps.to_vec();
    let mut run_start = 0;
    for end in 0..=out.len() {
        if end < out.len() && matches!(out[end], StreamEvent::Sample(..)) {
            continue;
        }
        let run = &mut out[run_start..end];
        let mut slots: BTreeMap<LaneId, Vec<usize>> = BTreeMap::new();
        for (i, step) in run.iter().enumerate() {
            if let StreamEvent::Sample(lane, _) = step {
                slots.entry(lane.clone()).or_default().push(i);
            }
        }
        for slots in slots.values() {
            for pair in slots.chunks_exact(2) {
                run.swap(pair[0], pair[1]);
            }
            if slots.len() > 30 {
                for k in 5..25 {
                    run.swap(slots[k], slots[k + 1]);
                }
            }
        }
        run_start = end + 1;
    }
    out
}

/// What happens to the long-lived stream between two ticks.
#[derive(Clone, Copy)]
enum Between {
    Nothing,
    /// Seal the WAL into a segment (frozen pipelines included).
    Rotate,
    /// Drop the process, keep what was fsynced, recover.
    Crash,
}

fn open_durable(config: StreamConfig, storage: MemStorage) -> DurableStream<MemStorage> {
    DurableStream::open(
        AlgorithmPolicy::default(),
        config,
        storage,
        StoreOptions::default(),
    )
    .expect("open")
    .0
}

fn fresh_replay_tick(prefix: &[StreamEvent], config: StreamConfig) -> Vec<u8> {
    let mut fresh = StreamDetector::new(AlgorithmPolicy::default(), config).expect("detector");
    for step in prefix {
        match step {
            StreamEvent::Control(event) => fresh.apply(event).expect("control"),
            StreamEvent::Sample(lane, sample) => fresh.ingest(lane, *sample).expect("ingest"),
        }
    }
    encode_report(&fresh.tick().expect("fresh tick"))
}

/// Drives `steps` through one long-lived durable stream, ticking after
/// every completed job and at sixteen evenly spaced positions; every tick
/// must equal the first tick of a fresh bare detector that replayed the
/// same prefix. Returns the last tick's report.
fn assert_ticks_equal_fresh_replay(
    steps: &[StreamEvent],
    config: StreamConfig,
    between: Between,
) -> StreamReport {
    let mut storage = MemStorage::new();
    let mut long_lived = open_durable(config, storage.clone());
    let stride = steps.len() / 16;
    let mut ticks = 0;
    let mut last = None;
    for (i, step) in steps.iter().enumerate() {
        match step {
            StreamEvent::Control(event) => long_lived.control(event).expect("control"),
            StreamEvent::Sample(lane, sample) => long_lived.ingest(lane, *sample).expect("ingest"),
        }
        let completed = matches!(step, StreamEvent::Control(ControlEvent::JobComplete { .. }));
        if !completed && (i + 1) % stride != 0 {
            continue;
        }
        let report = long_lived.tick().expect("tick");
        // Not `assert_eq!`: a failure would print two multi-megabyte reports.
        assert!(
            encode_report(&report) == fresh_replay_tick(&steps[..=i], config),
            "tick {ticks} after step {i} diverged from a fresh replay"
        );
        last = Some(report);
        ticks += 1;
        match between {
            Between::Nothing => {}
            Between::Rotate => long_lived.rotate().expect("rotate"),
            // The tick fsynced everything, so the image loses nothing.
            Between::Crash if ticks % 3 == 0 => {
                drop(long_lived);
                storage = storage.crash_image(false);
                long_lived = open_durable(config, storage.clone());
            }
            Between::Crash => {}
        }
    }
    assert!(ticks > 16, "every completed job adds a tick point");
    last.expect("ticked")
}

#[test]
fn cached_tick_equals_fresh_replay_tick_at_every_tick_point() {
    let in_order = steps(&scenario());
    for mode in [ScorerMode::BatchEquivalent, ScorerMode::Incremental] {
        let config = StreamConfig { lateness: 0, mode };
        for steps in [in_order.clone(), interleaved(&in_order)] {
            let report = assert_ticks_equal_fresh_replay(&steps, config, Between::Nothing);
            assert!(!report.report.outliers.is_empty(), "a pin over nothing");
        }
    }
}

#[test]
fn cached_tick_equals_fresh_replay_tick_under_jittered_arrivals() {
    let config = StreamConfig {
        lateness: 8,
        mode: ScorerMode::BatchEquivalent,
    };
    let steps = interleaved(&jittered(&steps(&scenario())));
    let report = assert_ticks_equal_fresh_replay(&steps, config, Between::Nothing);
    assert!(
        report.stats.late_dropped > 0,
        "the jitter must drop samples"
    );
    assert!(report.stats.samples_released > report.stats.late_dropped);
}

#[test]
fn cached_tick_equals_fresh_replay_tick_across_rotation_and_recovery() {
    let steps = interleaved(&steps(&scenario()));
    for between in [Between::Rotate, Between::Crash] {
        assert_ticks_equal_fresh_replay(&steps, config(), between);
    }
}
