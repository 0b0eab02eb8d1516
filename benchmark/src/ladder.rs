//! The outside-in layer ladder: after a traced run, the workload's own
//! input is replayed through each crate's public entry points in turn —
//! bare `StreamDetector`, `DurableStream`, `Tenant`, `RegistryService`,
//! the wire codec over an in-memory cursor — so that each rung's cost is
//! the difference of two numbers measured on identical input. Every probe
//! is a span in the trace; no product code is instrumented.

use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

use hierod_adapt::{AdaptiveStream, MonitorSpec, RefitPolicy};
use hierod_core::{find_hierarchical_outliers, AlgorithmPolicy, FindOptions};
use hierod_detect::online::{
    IncrementalAr, OnlineScorer, RollingRobustZ, SlidingKnn, SlidingLof, WindowedBatch,
};
use hierod_hierarchy::Level;
use hierod_history::{backfill, compact, snapshot, CompactionOptions, HistoryReader, RangeQuery};
use hierod_service::{PlantService, RegistryService};
use hierod_store::storage::Storage;
use hierod_store::tenants::MemFactory;
use hierod_store::wal::WalRecord;
use hierod_store::{MemStorage, Store};
use hierod_stream::codec::{encode_control, encode_lane};
use hierod_stream::tenant::{PlantRegistry, Tenant};
use hierod_stream::{
    ControlEvent, DurableStream, LaneId, LaneKind, Sample, StreamDetector, Watermark,
};
use hierod_wire::{decode_report, encode_report, write_frame, Frame, FrameReader, Poll};

use crate::harness::{connect, stored_bytes, tenant_config, CountingStorage, IoCounters, Served};
use crate::plant::{Op, Plan};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::Values;

type BuildScorer<'a> = dyn Fn() -> Box<dyn OnlineScorer> + 'a;

/// What the probes replay.
pub struct LadderInput<'a> {
    pub plan: &'a Plan,
    /// Allowed lateness the workload's server ran with.
    pub lateness: u64,
    /// Op indices after which the workload ticks (empty: it never does).
    pub ticks: Vec<usize>,
}

/// The control/ingest surface the stream layers share.
trait Sink {
    fn control(&mut self, event: &ControlEvent);
    fn sample(&mut self, lane: &LaneId, sample: Sample);
}

impl Sink for StreamDetector {
    fn control(&mut self, event: &ControlEvent) {
        self.apply(event).expect("detector control");
    }
    fn sample(&mut self, lane: &LaneId, sample: Sample) {
        self.ingest(lane, sample).expect("detector ingest");
    }
}

impl<S: Storage> Sink for DurableStream<S> {
    fn control(&mut self, event: &ControlEvent) {
        DurableStream::control(self, event).expect("durable control");
    }
    fn sample(&mut self, lane: &LaneId, sample: Sample) {
        self.ingest(lane, sample).expect("durable ingest");
    }
}

impl<S: Storage> Sink for Tenant<S> {
    fn control(&mut self, event: &ControlEvent) {
        Tenant::control(self, event).expect("tenant control");
    }
    fn sample(&mut self, lane: &LaneId, sample: Sample) {
        self.ingest(lane, sample).expect("tenant ingest");
    }
}

impl<S: Storage> Sink for AdaptiveStream<S> {
    fn control(&mut self, event: &ControlEvent) {
        AdaptiveStream::control(self, event).expect("adaptive control");
    }
    fn sample(&mut self, lane: &LaneId, sample: Sample) {
        self.ingest(lane, sample).expect("adaptive ingest");
    }
}

/// An embedded service addressed at one plant.
struct Plant<'a>(&'a mut RegistryService<MemFactory>, &'a str);

impl Sink for Plant<'_> {
    fn control(&mut self, event: &ControlEvent) {
        self.0.control(self.1, event).expect("service control");
    }
    fn sample(&mut self, lane: &LaneId, sample: Sample) {
        self.0.ingest(self.1, lane, sample).expect("service ingest");
    }
}

/// Replays the plan into `sink` under one span named `name` (counted in
/// samples); `after` runs after every op with the op's index + 1.
/// Returns how long each control event took, in milliseconds.
fn replay<S: Sink>(
    name: &'static str,
    plan: &Plan,
    sink: &mut S,
    tracer: &mut Tracer,
    mut after: impl FnMut(&mut S, usize, &Op, &mut Tracer),
) -> Vec<f64> {
    let mut control_ms = Vec::with_capacity(plan.controls.len());
    let span = tracer.begin(name);
    for (index, op) in plan.ops.iter().enumerate() {
        match *op {
            Op::Control(c) => {
                let started = Instant::now();
                sink.control(&plan.controls[c as usize]);
                control_ms.push(started.elapsed().as_secs_f64() * 1e3);
            }
            Op::Sample { lane, ts, value } => sink.sample(
                &plan.lanes[lane as usize - 1],
                Sample {
                    timestamp: ts,
                    value,
                },
            ),
        }
        after(sink, index + 1, op, tracer);
    }
    tracer.end_counted(span, "samples", plan.samples);
    control_ms
}

fn nothing<S>(_: &mut S, _: usize, _: &Op, _: &mut Tracer) {}

fn is_job_complete(plan: &Plan, op: &Op) -> bool {
    matches!(*op, Op::Control(c) if matches!(plan.controls[c as usize], ControlEvent::JobComplete { .. }))
}

fn ns_per(tracer: &Tracer, name: &str, n: u64) -> f64 {
    tracer.total_ns(name) as f64 / n.max(1) as f64
}

fn ms(tracer: &Tracer, name: &str) -> f64 {
    tracer.total_ns(name) as f64 / 1e6
}

fn counting(io: &Arc<IoCounters>) -> (MemStorage, CountingStorage) {
    let mem = MemStorage::new();
    (mem.clone(), CountingStorage::new(mem, Arc::clone(io)))
}

/// Runs every probe and records the per-layer values.
pub fn climb(input: &LadderInput<'_>, tracer: &mut Tracer, values: &mut Values) {
    let plan = input.plan;
    let n = plan.samples;
    let policy = AlgorithmPolicy::default;
    let config = tenant_config(input.lateness);
    let whole = tracer.begin("ladder");

    // ── stream: detector ≤ durable ≤ tenant ≤ service, identical input.
    let mut detector = StreamDetector::new(policy(), config.stream).expect("detector");
    replay("stream.detector", plan, &mut detector, tracer, nothing);
    let report = tracer.call("core.finish", || {
        detector.finish().expect("detector finish")
    });
    values.set(
        "stream.detector_ns_per_sample",
        ns_per(tracer, "stream.detector", n),
    );
    values.set("core.finish_ms", ms(tracer, "core.finish"));

    let io = Arc::new(IoCounters::default());
    let (mem, storage) = counting(&io);
    let (mut durable, _) =
        DurableStream::open(policy(), config.stream, storage, config.store).expect("durable");
    // Phase and job closes are where BatchEquivalent scoring runs.
    let control_ms = replay("stream.durable", plan, &mut durable, tracer, nothing);
    let durable_ns = ns_per(tracer, "stream.durable", n);
    values.set("stream.durable_ns_per_sample", durable_ns);
    values.set(
        "stream.journal_self_ns_per_sample",
        durable_ns - ns_per(tracer, "stream.detector", n),
    );
    values.set("stream.control_ms_p95", percentile(&control_ms, 95));
    values.set(
        "store.wal_bytes_per_sample",
        io.bytes_appended.load(std::sync::atomic::Ordering::Relaxed) as f64 / n as f64,
    );
    values.set(
        "store.syncs",
        io.syncs.load(std::sync::atomic::Ordering::Relaxed) as f64,
    );
    drop(durable);
    // Restart from what was synced: the WAL scan alone, then the replay.
    let image = mem.crash_image(false);
    tracer.call("store.recovery_scan", || {
        Store::open(image, config.store).expect("store open")
    });
    let image = mem.crash_image(false);
    tracer.call("stream.recovery_replay", || {
        DurableStream::open(policy(), config.stream, image, config.store).expect("recover")
    });
    values.set("store.recovery_scan_ms", ms(tracer, "store.recovery_scan"));
    values.set(
        "stream.recovery_replay_ms",
        ms(tracer, "stream.recovery_replay"),
    );

    let (mut registry, _) =
        PlantRegistry::open(MemFactory::new(), policy(), config).expect("registry");
    let tenant = registry.create_tenant("ladder").expect("tenant");
    replay("stream.tenant", plan, tenant, tracer, nothing);
    values.set(
        "stream.tenant_ns_per_sample",
        ns_per(tracer, "stream.tenant", n),
    );
    drop(registry);

    let mut service = RegistryService::open(MemFactory::new(), policy(), config).expect("service");
    service.admit("ladder", true).expect("admit");
    replay(
        "service.ingest",
        plan,
        &mut Plant(&mut service, "ladder"),
        tracer,
        nothing,
    );
    values.set(
        "service.ingest_ns_per_sample",
        ns_per(tracer, "service.ingest", n),
    );
    drop(service);

    // ── ticks at the workload's own tick points (none: all zero).
    if !input.ticks.is_empty() {
        let mut service =
            RegistryService::open(MemFactory::new(), policy(), config).expect("service");
        service.admit("ticking", true).expect("admit");
        let mut next = 0;
        let mut per_koutlier = Vec::new();
        replay(
            "service.ingest_ticking",
            plan,
            &mut Plant(&mut service, "ticking"),
            tracer,
            |sink, done, _, tracer| {
                if input.ticks.get(next) == Some(&done) {
                    next += 1;
                    let started = Instant::now();
                    let report = tracer.call("service.tick", || sink.0.tick(sink.1).expect("tick"));
                    let outliers = report.report.outliers.len();
                    if outliers > 0 {
                        per_koutlier
                            .push(started.elapsed().as_secs_f64() * 1e3 / (outliers as f64 / 1e3));
                    }
                }
            },
        );
        let ticks = tracer.durations_ms("service.tick");
        let decile = (ticks.len() / 10).max(1);
        values.set("service.tick_ms_p50", median(&ticks));
        values.set("stream.tick_ms_first_decile", median(&ticks[..decile]));
        values.set(
            "stream.tick_ms_last_decile",
            median(&ticks[ticks.len() - decile..]),
        );
        values.set("core.tick_ms_per_koutlier", median(&per_koutlier));
    }

    // ── stream: the watermark alone, per lane, in arrival order.
    let mut marks: Vec<Watermark> = plan
        .lanes
        .iter()
        .map(|_| Watermark::new(input.lateness))
        .collect();
    let mut released = Vec::new();
    let mut pending_max = 0;
    let span = tracer.begin("stream.watermark");
    for op in &plan.ops {
        if let Op::Sample { lane, ts, value } = *op {
            let mark = &mut marks[lane as usize - 1];
            mark.offer(ts, value, &mut released);
            pending_max = pending_max.max(mark.pending());
            released.clear();
        }
    }
    tracer.end_counted(span, "samples", n);
    values.set(
        "stream.watermark_ns_per_sample",
        ns_per(tracer, "stream.watermark", n),
    );
    values.set("stream.reorder_pending_max", pending_max as f64);
    values.set("stream.late_dropped", report.stats.late_dropped as f64);
    values.set(
        "stream.duplicates_dropped",
        report.stats.duplicates_dropped as f64,
    );

    // ── store: the journal append alone.
    let (mut store, _) = Store::open(MemStorage::new(), config.store).expect("store");
    let mut records = 0_u64;
    let mut seq = 0;
    let span = tracer.begin("store.wal_append");
    for (index, id) in plan.lanes.iter().enumerate() {
        let record = WalRecord::LaneDef {
            lane: index as u32 + 1,
            meta: encode_lane(id),
        };
        store.append(&record).expect("append");
        records += 1;
    }
    for op in &plan.ops {
        let record = match *op {
            Op::Control(c) => {
                seq += 1;
                WalRecord::Control {
                    seq,
                    payload: encode_control(&plan.controls[c as usize]),
                }
            }
            Op::Sample { lane, ts, value } => WalRecord::Sample {
                lane,
                timestamp: ts,
                value,
            },
        };
        store.append(&record).expect("append");
        records += 1;
    }
    tracer.end_counted(span, "records", records);
    values.set(
        "store.wal_append_ns_per_record",
        ns_per(tracer, "store.wal_append", records),
    );
    drop(store);

    // ── store + history: rotate per job, compact, scan, backfill.
    let mem = MemStorage::new();
    let (mut rotating, _) =
        DurableStream::open(policy(), config.stream, mem.clone(), config.store).expect("durable");
    replay(
        "store.ingest_rotating",
        plan,
        &mut rotating,
        tracer,
        |stream, _, op, tracer| {
            if is_job_complete(plan, op) {
                tracer.call("store.rotate", || stream.rotate().expect("rotate"));
            }
        },
    );
    let (_, sealed_end) = rotating.sealed_storage();
    values.set(
        "store.rotate_ms_p50",
        median(&tracer.durations_ms("store.rotate")),
    );
    values.set(
        "store.segment_bytes_per_sample",
        stored_bytes(&mem, "seg-") as f64 / n as f64,
    );
    let compaction = tracer.call("history.compact", || {
        compact(&mem, sealed_end, &CompactionOptions::default()).expect("compact")
    });
    values.set("history.compact_ms", ms(tracer, "history.compact"));
    values.set(
        "history.compact_bytes_rewritten",
        compaction.bytes_written as f64,
    );
    let reader = HistoryReader::new(snapshot(&mem).expect("snapshot")).expect("reader");
    let window = plan.middle_job_window();
    let mut pruned = 0.0;
    for _ in 0..5 {
        tracer.call("history.scan_full", || {
            reader.scan(&RangeQuery::range(0, u64::MAX)).expect("scan")
        });
        for _ in 0..4 {
            let (_, stats) = tracer.call("history.scan_window", || {
                reader
                    .scan(&RangeQuery::range(window.0, window.1))
                    .expect("scan")
            });
            pruned = stats.chunks_pruned as f64 / stats.chunks_total.max(1) as f64;
        }
    }
    values.set(
        "history.scan_full_ms_p50",
        median(&tracer.durations_ms("history.scan_full")),
    );
    values.set(
        "history.scan_window_ms_p50",
        median(&tracer.durations_ms("history.scan_window")),
    );
    values.set("history.chunks_pruned_ratio", pruned);
    tracer.call("history.backfill_replay", || {
        backfill(&[&mem], &policy(), config.stream, 0, u64::MAX, None).expect("backfill")
    });
    values.set(
        "history.backfill_replay_ms",
        ms(tracer, "history.backfill_replay"),
    );
    drop(rotating);

    // ── detect: scorers alone, on the plan's busiest phase lane, one
    // scorer per phase as the stream builds them.
    let phases = busiest_lane_phases(plan);
    let lane_samples: u64 = phases.iter().map(|p| p.len() as u64).sum();
    let builder = StreamDetector::new(policy(), config.stream).expect("detector");
    let mut push_all = |name: &'static str, build: &BuildScorer| {
        let mut scored = Vec::new();
        let span = tracer.begin(name);
        for phase in &phases {
            let mut scorer = build();
            for &(ts, value) in phase {
                scorer.push(ts, value, &mut scored).expect("push");
            }
            scorer.finish(&mut scored).expect("finish");
            scored.clear();
        }
        tracer.end_counted(span, "samples", lane_samples);
        tracer.total_ns(name) as f64 / lane_samples.max(1) as f64
    };
    let push = push_all("detect.push", &|| {
        builder
            .build_lane_scorer(LaneKind::Phase)
            .expect("lane scorer")
    });
    values.set("detect.push_ns_per_sample", push);
    let robust_z = || {
        hierod_detect::engine::build(&hierod_detect::engine::AlgoSpec::new("robust-z"))
            .expect("registry robust-z")
    };
    let online: [(&'static str, &BuildScorer); 5] = [
        ("detect.online.windowed_batch_robust_z", &|| {
            Box::new(WindowedBatch::hopping(robust_z(), 256, 64).expect("params"))
        }),
        ("detect.online.rolling_robust_z", &|| {
            Box::new(RollingRobustZ::new(256).expect("params"))
        }),
        ("detect.online.incremental_ar", &|| {
            Box::new(IncrementalAr::new(3, 32).expect("params"))
        }),
        ("detect.online.sliding_knn", &|| {
            Box::new(SlidingKnn::new(64, 5).expect("params"))
        }),
        ("detect.online.sliding_lof", &|| {
            Box::new(SlidingLof::new(64, 5).expect("params"))
        }),
    ];
    for (span, build) in online {
        let ns = push_all(span, build);
        values.set(&format!("{span}_ns_per_sample"), ns);
    }

    // ── core: Algorithm 1 on the batch view of the same plant.
    tracer.call("core.batch_find", || {
        find_hierarchical_outliers(&plan.plant, Level::Phase, &FindOptions::default())
            .expect("batch find")
    });
    values.set("core.batch_find_ms", ms(tracer, "core.batch_find"));
    values.set("core.report_outliers", report.report.outliers.len() as f64);

    // ── wire: ingest frames and the report codec over memory.
    let mut bytes = Vec::new();
    let mut frames = 0_u64;
    let span = tracer.begin("wire.encode");
    for op in &plan.ops {
        let record = match *op {
            Op::Control(c) => WalRecord::Control {
                seq: u64::from(c) + 1,
                payload: encode_control(&plan.controls[c as usize]),
            },
            Op::Sample { lane, ts, value } => WalRecord::Sample {
                lane,
                timestamp: ts,
                value,
            },
        };
        write_frame(&mut bytes, &Frame::Ingest(record)).expect("write to memory");
        frames += 1;
    }
    tracer.end_counted(span, "frames", frames);
    let mut cursor = Cursor::new(&bytes[..]);
    let mut reader = FrameReader::new();
    let mut decoded = 0_u64;
    let span = tracer.begin("wire.decode");
    while let Poll::Frame(frame) = reader.poll(&mut cursor).expect("decode from memory") {
        std::hint::black_box(frame);
        decoded += 1;
    }
    tracer.end_counted(span, "frames", decoded);
    assert_eq!(decoded, frames, "every encoded frame decodes");
    values.set(
        "wire.encode_ns_per_frame",
        ns_per(tracer, "wire.encode", frames),
    );
    values.set(
        "wire.decode_ns_per_frame",
        ns_per(tracer, "wire.decode", frames),
    );
    values.set("wire.bytes_per_sample", bytes.len() as f64 / n as f64);
    let encoded = tracer.call("wire.report_encode", || encode_report(&report));
    let back = tracer.call("wire.report_decode", || decode_report(&encoded));
    assert!(back.is_some(), "the report decodes");
    values.set("wire.report_encode_ms", ms(tracer, "wire.report_encode"));
    values.set("wire.report_decode_ms", ms(tracer, "wire.report_decode"));
    values.set("wire.report_bytes", encoded.len() as f64);

    // ── adapt: not reachable from the server today; embedded only.
    let (inner, _) = DurableStream::open(policy(), config.stream, MemStorage::new(), config.store)
        .expect("durable");
    let mut passthrough = AdaptiveStream::passthrough(inner);
    replay("adapt.passthrough", plan, &mut passthrough, tracer, nothing);
    values.set(
        "adapt.passthrough_ns_per_sample",
        ns_per(tracer, "adapt.passthrough", n),
    );
    drop(passthrough);
    if !input.ticks.is_empty() {
        let mut adaptive = AdaptiveStream::open(
            policy(),
            config.stream,
            MemStorage::new(),
            config.store,
            MonitorSpec::page_hinkley(),
            RefitPolicy::default(),
        )
        .expect("adaptive");
        let mut next = 0;
        replay(
            "adapt.ingest_ticking",
            plan,
            &mut adaptive,
            tracer,
            |stream, done, _, tracer| {
                if input.ticks.get(next) == Some(&done) {
                    next += 1;
                    tracer.call("adapt.refit_tick", || stream.tick().expect("adaptive tick"));
                }
            },
        );
        values.set(
            "adapt.refit_tick_ms_p50",
            median(&tracer.durations_ms("adapt.refit_tick")),
        );
    }

    // ── server: a synchronous round trip with nothing else going on.
    let idle = Served::fresh(0);
    let mut client = connect(idle.addr());
    client
        .admit("idle", true)
        .expect("admit on the idle server");
    for _ in 0..200 {
        tracer.call("server.idle_rtt", || {
            client.query_lane_stats().expect("idle query")
        });
    }
    drop(client);
    idle.stop();
    values.set(
        "server.idle_rtt_us_p50",
        median(&tracer.durations_ms("server.idle_rtt")) * 1e3,
    );
    tracer.end(whole);
}

/// The samples of the phase lane that carries most of them, split at its
/// machine's phase starts, each phase in timestamp order without
/// duplicates — what that lane's scorers see behind the watermark.
fn busiest_lane_phases(plan: &Plan) -> Vec<Vec<(u64, f64)>> {
    let mut counts = vec![0_u64; plan.lanes.len() + 1];
    for op in &plan.ops {
        if let Op::Sample { lane, .. } = *op {
            counts[lane as usize] += 1;
        }
    }
    let Some(busiest) = (1..counts.len())
        .filter(|&l| plan.lanes[l - 1].kind == LaneKind::Phase)
        .max_by_key(|&l| counts[l])
    else {
        return Vec::new();
    };
    let machine = &plan.lanes[busiest - 1].machine;
    let mut phases: Vec<Vec<(u64, f64)>> = vec![Vec::new()];
    for op in &plan.ops {
        match *op {
            Op::Control(c) => {
                if matches!(&plan.controls[c as usize], ControlEvent::PhaseStart { machine: m, .. } if m == machine)
                {
                    phases.push(Vec::new());
                }
            }
            Op::Sample { lane, ts, value } if lane as usize == busiest => {
                if let Some(phase) = phases.last_mut() {
                    phase.push((ts, value));
                }
            }
            Op::Sample { .. } => {}
        }
    }
    for phase in &mut phases {
        phase.sort_by_key(|&(ts, _)| ts);
        phase.dedup_by_key(|&mut (ts, _)| ts);
    }
    phases.retain(|p| !p.is_empty());
    phases
}
