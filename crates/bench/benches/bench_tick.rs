//! Report-assembly probe at the last tick point of the served `dashboard`
//! plant (2 machines × 10 jobs × 240 samples per phase, seed 11): one
//! `StreamDetector::tick` that closes no job (the returned report dropped
//! inside the timed loop, as a server drops the report it displaces), and
//! Algorithm 1's `build_report` alone over the same plant's detections.
//!
//! Then the two ends of a closed phase's cost on the served `firehose`
//! plant (2 machines × 10 jobs × 960 samples per phase, seed 11): the
//! first control that closes one of its widest phases (`phase_close`,
//! keyed by the phase's series count), and `finish`
//! on a detector that has seen the whole plant, every job complete and
//! never ticked. Each times the call alone, on a detector replayed
//! untimed; dropping the returned report is not timed either.
//!
//! Then the two durability walks bounded by the open window, on an
//! in-memory store: `rotate` on the `firehose` plant driven through a
//! `DurableStream` with a rotation after every job completion — every job
//! complete and the previous rotation taken, so it seals what the open
//! pipelines hold and nothing of closed history — and `recover`,
//! `DurableStream::open` of a `cold_store`-shaped image (1 machine × 16
//! jobs × 576 samples per phase, seed 11, one rotation per job), the
//! image copied untimed before each open. Then `ingest_run`: one socket
//! read's worth of samples (390, the bound `hierod-server`'s `conn.rs`
//! documents) through `Tenant::ingest_run`, round-robin over four
//! environment lanes of one machine whose handles the wire-lane table
//! already holds; the plant is rebuilt untimed every 256 runs, so its
//! memory stays bounded.
//!
//! Last, the drift-monitor wrapper's price: one printing phase of 2,048
//! ticks on four bed lanes, ingested and closed through an
//! `AdaptiveStream` that passes through, and through one whose every
//! scorer is wrapped in a Page–Hinkley monitor that observes each score
//! and never alarms (no refit runs). The two rows differ by the wrapper
//! alone; each is keyed by its sample count.

use std::cell::RefCell;
use std::hint::black_box;

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hierod_adapt::{AdaptiveStream, MonitorSpec, RefitPolicy};
use hierod_core::pipeline::build_report;
use hierod_core::{detect_all_levels, AlgorithmPolicy};
use hierod_hierarchy::{
    CaqResult, JobConfig, Level, PhaseKind, RedundancyGroup, Sensor, SensorKind,
};
use hierod_store::store::StoreOptions;
use hierod_store::tenants::MemFactory;
use hierod_store::MemStorage;
use hierod_stream::{
    ControlEvent, DurableStream, LaneId, LaneKind, LaneTable, PlantRegistry, Sample, StreamConfig,
    StreamDetector, StreamEvent, TenantConfig,
};
use hierod_synth::{Scenario, ScenarioBuilder};

/// The `dashboard` workload's plant (`benchmark/src/plant.rs` knobs).
fn scenario() -> Scenario {
    ScenarioBuilder::new(11)
        .machines(2)
        .jobs_per_machine(10)
        .redundancy(3)
        .phase_samples(240)
        .anomaly_rate(0.3)
        .measurement_error_fraction(0.5)
        .magnitude_sigmas(12.0)
        .build()
}

/// The `firehose` workload's plant: the `dashboard` knobs at 960 samples
/// per phase.
fn firehose_scenario() -> Scenario {
    shaped_scenario(2, 10, 960)
}

/// The `dashboard` knobs at another shape.
fn shaped_scenario(machines: usize, jobs: usize, phase_samples: usize) -> Scenario {
    ScenarioBuilder::new(11)
        .machines(machines)
        .jobs_per_machine(jobs)
        .redundancy(3)
        .phase_samples(phase_samples)
        .anomaly_rate(0.3)
        .measurement_error_fraction(0.5)
        .magnitude_sigmas(12.0)
        .build()
}

/// A durable stream on `storage` that has seen `scenario`, rotating after
/// every job completion.
fn durable_replayed(scenario: &Scenario, storage: MemStorage) -> DurableStream<MemStorage> {
    let (policy, config) = (AlgorithmPolicy::default(), StreamConfig::default());
    let (mut stream, _) =
        DurableStream::open(policy, config, storage, StoreOptions::default()).expect("fresh store");
    for event in scenario.replay().into_iter().map(StreamEvent::from) {
        match event {
            StreamEvent::Control(control) => {
                stream.control(&control).expect("control");
                if matches!(control, ControlEvent::JobComplete { .. }) {
                    stream.rotate().expect("rotate");
                }
            }
            StreamEvent::Sample(lane, sample) => stream.ingest(&lane, sample).expect("ingest"),
        }
    }
    stream
}

/// Samples per `ingest_run` call: one socket read's worth.
const RUN: u64 = 390;
/// Environment lanes the runs go round.
const FEED_LANES: u64 = 4;

/// A plant fed through a client's wire-lane table, as a server feeds it.
struct Feed {
    registry: PlantRegistry<MemFactory>,
    lanes: LaneTable,
    runs: u64,
}

impl Feed {
    /// A fresh plant with one machine up, its lanes bound on wire lanes
    /// `0..FEED_LANES` and resolved by one run.
    fn new() -> Feed {
        let (policy, config) = (AlgorithmPolicy::default(), TenantConfig::default());
        let (mut registry, _) =
            PlantRegistry::open(MemFactory::new(), policy, config).expect("registry");
        let sensors: Vec<String> = (0..FEED_LANES).map(|i| format!("m0.room.{i}")).collect();
        let up = ControlEvent::machine_up("m0", vec![], vec![], &sensors);
        let tenant = registry.create_tenant("p").expect("fresh plant");
        tenant.control(&up).expect("machine up");
        let mut lanes = LaneTable::default();
        for (wire, sensor) in (0..).zip(sensors) {
            let kind = LaneKind::Environment;
            let machine = "m0".to_string();
            assert!(lanes.bind(
                wire,
                LaneId {
                    machine,
                    sensor,
                    kind
                }
            ));
        }
        let mut feed = Feed {
            registry,
            lanes,
            runs: 0,
        };
        feed.ingest(&feed.run());
        feed
    }

    /// The next run: each lane's timestamps ascend past the last run's.
    fn run(&self) -> Vec<(u32, Sample)> {
        let first = self.runs * RUN;
        let sample = |timestamp: u64| {
            let value = (timestamp as f64 * 0.1).sin();
            ((timestamp % FEED_LANES) as u32, Sample { timestamp, value })
        };
        (first..first + RUN).map(sample).collect()
    }

    fn ingest(&mut self, run: &[(u32, Sample)]) {
        self.runs += 1;
        let tenant = self.registry.tenant_mut("p").expect("live plant");
        assert_eq!(tenant.ingest_run(&mut self.lanes, run), None);
    }
}

/// A detector that has seen `events`, in order.
fn replayed(events: &[StreamEvent]) -> StreamDetector {
    let mut det = StreamDetector::new(AlgorithmPolicy::default(), StreamConfig::default())
        .expect("default policy");
    for event in events {
        match event {
            StreamEvent::Control(control) => det.apply(control).expect("control"),
            StreamEvent::Sample(lane, sample) => det.ingest(lane, *sample).expect("ingest"),
        }
    }
    det
}

/// A detector that has seen the whole plant and ticked once, so every job
/// is frozen and the next tick is a steady-state one.
fn ticked_detector(scenario: &Scenario) -> StreamDetector {
    let events: Vec<StreamEvent> = scenario.replay().into_iter().map(From::from).collect();
    let mut det = replayed(&events);
    det.tick().expect("first tick");
    det
}

/// The first control that closes one of the plant's widest phases (the
/// next phase start or job completion on its machine): its index and the
/// phase's series count.
fn widest_phase_close(events: &[StreamEvent]) -> Option<(usize, usize)> {
    let mut open = std::collections::BTreeMap::new();
    let mut widest: Option<(usize, usize)> = None;
    for (i, event) in events.iter().enumerate() {
        let StreamEvent::Control(control) = event else {
            continue;
        };
        let (machine, opens) = match control {
            ControlEvent::PhaseStart {
                machine, sensors, ..
            } => (machine, sensors.len()),
            ControlEvent::JobComplete { machine, .. } => (machine, 0),
            _ => continue,
        };
        if let Some(closes) = open.insert(machine, opens) {
            if widest.is_none_or(|(_, series)| closes > series) {
                widest = Some((i, closes));
            }
        }
    }
    widest
}

fn bench_tick(c: &mut Criterion) {
    let scenario = scenario();
    let mut group = c.benchmark_group("tick");
    let mut det = ticked_detector(&scenario);
    let outliers = det.tick().expect("tick").report.outliers.len();
    group.bench_function(BenchmarkId::new("stream_tick", outliers), |b| {
        b.iter(|| det.tick().expect("tick"))
    });

    let policy = AlgorithmPolicy::default();
    let detections = detect_all_levels(&scenario.plant, &policy).expect("detections");
    group.bench_function(BenchmarkId::new("build_report", outliers), |b| {
        b.iter(|| {
            build_report(
                black_box(&scenario.plant),
                Level::Phase,
                &detections,
                &policy,
            )
            .expect("report")
        })
    });
    group.finish();
}

fn bench_phase_close(c: &mut Criterion) {
    let events: Vec<StreamEvent> = firehose_scenario()
        .replay()
        .into_iter()
        .map(From::from)
        .collect();
    let mut group = c.benchmark_group("close");
    group.measurement_time(Duration::from_secs(5));
    let (close, series) = widest_phase_close(&events).expect("a phase closes");
    let (before, control) = events.split_at(close);
    let Some(StreamEvent::Control(control)) = control.first() else {
        unreachable!("widest_phase_close returns a control's index");
    };
    group.bench_function(BenchmarkId::new("phase_close", series), |b| {
        b.iter_batched(
            || replayed(before),
            |mut det| {
                det.apply(control).expect("close");
                det
            },
            BatchSize::LargeInput,
        )
    });
    let samples = events
        .iter()
        .filter(|e| matches!(e, StreamEvent::Sample(..)))
        .count();
    group.bench_function(BenchmarkId::new("finish", samples), |b| {
        b.iter_batched(
            || replayed(&events),
            |det| det.finish().expect("finish"),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_durable(c: &mut Criterion) {
    let mut group = c.benchmark_group("durable");
    group.measurement_time(Duration::from_secs(1));
    let mut stream = durable_replayed(&firehose_scenario(), MemStorage::new());
    // Each rotation leaves a segment behind in memory: timed call by call
    // until the window's wall time is spent, so their number stays
    // bounded by the window.
    group.bench_function("rotate", |b| {
        b.iter_batched(
            || (),
            |()| stream.rotate().expect("rotate"),
            BatchSize::LargeInput,
        )
    });
    drop(stream);

    let image = MemStorage::new();
    drop(durable_replayed(
        &shaped_scenario(1, 16, 576),
        image.clone(),
    ));
    group.bench_function("recover", |b| {
        b.iter_batched(
            || image.crash_image(false),
            |storage| {
                let (policy, config) = (AlgorithmPolicy::default(), StreamConfig::default());
                DurableStream::open(policy, config, storage, StoreOptions::default())
                    .expect("recover")
            },
            BatchSize::LargeInput,
        )
    });

    let feed = RefCell::new(Feed::new());
    group.bench_function(BenchmarkId::new("ingest_run", RUN), |b| {
        b.iter_batched(
            || {
                let mut feed = feed.borrow_mut();
                if feed.runs >= 256 {
                    *feed = Feed::new();
                }
                feed.run()
            },
            |run| feed.borrow_mut().ingest(&run),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// Ticks of the `adapt` group's printing phase, and its bed lanes.
const ADAPT_TICKS: u64 = 2_048;
const ADAPT_LANES: usize = 4;

/// A durable stream with one machine's bed lanes in an open printing
/// phase, passing through or wrapped in monitors that never alarm.
fn adapt_stream(adaptive: bool) -> AdaptiveStream<MemStorage> {
    let (policy, config) = (AlgorithmPolicy::default(), StreamConfig::default());
    let (inner, _) =
        DurableStream::open(policy, config, MemStorage::new(), StoreOptions::default())
            .expect("fresh store");
    let mut stream = if adaptive {
        let silent = MonitorSpec::PageHinkley {
            delta: 0.05,
            lambda: 1e12,
            min_samples: 32,
        };
        AdaptiveStream::attach(inner, silent, RefitPolicy::default())
    } else {
        AdaptiveStream::passthrough(inner)
    };
    let beds: Vec<String> = (0..ADAPT_LANES).map(|k| format!("m0.bed.{k}")).collect();
    let sensors = beds
        .iter()
        .map(|b| Sensor::new(b, SensorKind::BedTemperature))
        .collect();
    let group = RedundancyGroup::new(SensorKind::BedTemperature, beds.clone());
    let config = JobConfig::new(vec!["speed".into()], vec![1.0]);
    for control in [
        ControlEvent::machine_up("m0", sensors, vec![group], &[]),
        ControlEvent::job_start("m0", "j0", 0, config),
        ControlEvent::phase_start("m0", PhaseKind::Printing, &beds),
    ] {
        stream.control(&control).expect("control");
    }
    stream
}

fn bench_drift_wrapper(c: &mut Criterion) {
    let mut group = c.benchmark_group("adapt");
    let lanes: Vec<LaneId> = (0..ADAPT_LANES)
        .map(|k| LaneId {
            machine: "m0".into(),
            sensor: format!("m0.bed.{k}"),
            kind: LaneKind::Phase,
        })
        .collect();
    let samples = ADAPT_TICKS * ADAPT_LANES as u64;
    for (row, adaptive) in [("passthrough", false), ("adaptive", true)] {
        group.bench_function(BenchmarkId::new(row, samples), |b| {
            b.iter_batched(
                || adapt_stream(adaptive),
                |mut stream| {
                    for timestamp in 0..ADAPT_TICKS {
                        for (k, lane) in (0..).zip(&lanes) {
                            let value = 24.0 + (timestamp as f64 * 0.37 + k as f64).sin();
                            let sample = Sample { timestamp, value };
                            stream.ingest(lane, sample).expect("ingest");
                        }
                    }
                    let caq = CaqResult::new(vec!["q".into()], vec![0.9], true);
                    let complete = ControlEvent::job_complete("m0", caq);
                    stream.control(&complete).expect("job complete");
                    stream
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tick,
    bench_phase_close,
    bench_durable,
    bench_drift_wrapper
);
criterion_main!(benches);
