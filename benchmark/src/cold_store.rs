//! `cold_store` — the read side of the layers `firehose` writes: four
//! plants of 16 jobs (≈0.5M samples each) ingested embedded with a WAL
//! rotation per job, compacted, then served over TCP — full-range scans
//! and one-job-window scans in a closed loop on one connection, one
//! `backfill` per plant — then crashed (synced bytes only), reopened, and
//! finished.
//!
//! Gorilla codecs, chunk pruning, WAL scan/replay and batch re-detection
//! do the work; the socket and the journal-append path do little, so a
//! write-path gain that costs reads, space or restart time is caught.

use std::time::Instant;

use hierod_history::{CompactionOptions, RangeQuery};
use hierod_server::ServerStats;
use hierod_service::PlantService;
use hierod_stream::{ControlEvent, LaneId, Sample};
use hierod_wire::encode_report;

use crate::harness::{connect, open_service, peak_rss_mb, BenchFactory, CpuMeter, Served, Service};
use crate::ladder::LadderInput;
use crate::plant::{build_plan, Op, Plan, Shape};
use crate::reference::{digest, embedded_finish, Digest};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::workload::{Outcome, Workload};

const PLANTS: u64 = 4;
pub const SHAPE: Shape = Shape {
    machines: 1,
    jobs: 16,
    phase_samples: 576,
};
const SMOKE_SHAPE: Shape = Shape {
    machines: 1,
    jobs: 4,
    phase_samples: 32,
};
/// Window scans per full scan in the closed loop.
const WINDOWS_PER_FULL: usize = 4;
/// Share of the run's seconds the scan loop may use; ingest, compaction,
/// backfill, recovery and finish take the rest.
const SCAN_SHARE: f64 = 0.6;

fn tenant(run: u32, k: usize) -> String {
    format!("cold-{run}-{k}")
}

/// Hash of a scan result: lane ids, timestamps and value bits, in order.
fn scan_digest<'a>(lanes: impl Iterator<Item = (&'a LaneId, &'a [u64], &'a [f64])>) -> Digest {
    let mut bytes = Vec::new();
    for (id, timestamps, values) in lanes {
        bytes.extend_from_slice(id.machine.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(id.sensor.as_bytes());
        bytes.push(0);
        for t in timestamps {
            bytes.extend_from_slice(&t.to_le_bytes());
        }
        for v in values {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    digest(&bytes)
}

fn embedded_scan(service: &Service, plant: &str, query: &RangeQuery) -> (Digest, u64) {
    let (lanes, stats) = service.range_scan(plant, query).expect("embedded scan");
    let digest = scan_digest(
        lanes
            .iter()
            .map(|l| (&l.id, l.series.timestamps(), l.series.values())),
    );
    (digest, stats.samples)
}

/// What the embedded path said before the server took the service.
struct PreCrash {
    full: (Digest, u64),
    window: (Digest, u64),
    backfill: Digest,
    tick: Digest,
}

pub struct ColdStore {
    plans: Vec<Plan>,
    last_server: ServerStats,
}

/// Ingests every plan embedded, rotating the WAL after each job.
fn ingest_with_rotation(service: &mut Service, run: u32, plans: &[Plan], tracer: &mut Tracer) {
    for (k, plan) in plans.iter().enumerate() {
        let plant = tenant(run, k);
        service.admit(&plant, true).expect("admit");
        let span = tracer.begin("service.ingest_rotating");
        for op in &plan.ops {
            match *op {
                Op::Control(index) => {
                    let event = &plan.controls[index as usize];
                    service.control(&plant, event).expect("control");
                    if matches!(event, ControlEvent::JobComplete { .. }) {
                        tracer.call("service.rotate", || service.rotate(&plant).expect("rotate"));
                    }
                }
                Op::Sample { lane, ts, value } => service
                    .ingest(
                        &plant,
                        &plan.lanes[lane as usize - 1],
                        Sample {
                            timestamp: ts,
                            value,
                        },
                    )
                    .expect("ingest"),
            }
        }
        tracer.end_counted(span, "samples", plan.samples);
    }
}

impl ColdStore {
    /// The whole life cycle once; the scan loop gets `scan_seconds`.
    fn life_cycle(&mut self, run: u32, scan_seconds: f64, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let plans = &self.plans;
        let samples: u64 = plans.iter().map(|p| p.samples).sum();
        let run_started = Instant::now();
        // The gate's embedded re-computations sit between the timed
        // stages here, so CPU accounting pauses around each of them.
        let mut cpu = CpuMeter::running();

        // Write side, embedded.
        let factory = BenchFactory::new();
        let mut service = open_service(factory.clone(), 0);
        ingest_with_rotation(&mut service, run, plans, tracer);

        let started = Instant::now();
        for k in 0..plans.len() {
            tracer.call("service.compact", || {
                service
                    .compact(&tenant(run, k), &CompactionOptions::default())
                    .expect("compact")
            });
        }
        out.values.set("compact_s", started.elapsed().as_secs_f64());
        let stored: u64 = (0..plans.len())
            .map(|k| factory.stored_bytes(&tenant(run, k), "hist-"))
            .sum();
        out.values
            .set("stored_bytes_per_sample", stored as f64 / samples as f64);

        // Untimed: what the embedded path answers, for the gate.
        cpu.pause();
        let everything = RangeQuery::range(0, u64::MAX);
        let pre_crash: Vec<PreCrash> = plans
            .iter()
            .enumerate()
            .map(|(k, plan)| {
                let plant = tenant(run, k);
                let (from, to) = plan.middle_job_window();
                PreCrash {
                    full: embedded_scan(&service, &plant, &everything),
                    window: embedded_scan(&service, &plant, &RangeQuery::range(from, to)),
                    backfill: digest(&encode_report(
                        &service
                            .backfill(&plant, 0, u64::MAX, None)
                            .expect("embedded backfill")
                            .report,
                    )),
                    tick: digest(&encode_report(
                        &service.tick(&plant).expect("embedded tick"),
                    )),
                }
            })
            .collect();

        // Read side, over the wire.
        cpu.resume();
        let served = Served::start(service, factory.clone());
        let mut client = connect(served.addr());
        let mut full_rates = Vec::new();
        let mut window_ms = Vec::new();
        let mut scanned = 0_u64;
        let scan_started = Instant::now();
        let mut cycle = 0;
        while cycle == 0 || scan_started.elapsed().as_secs_f64() < scan_seconds {
            let k = cycle % plans.len();
            let admitted = client.admit(&tenant(run, k), false);
            out.tally.sync(admitted);
            let (from, to) = plans[k].middle_job_window();
            let started = Instant::now();
            let full = tracer.call("client.range_scan_full", || {
                client.range_scan(0, u64::MAX, None, None)
            });
            if let Some((lanes, stats)) = out.tally.sync(full) {
                full_rates.push(stats.samples as f64 / started.elapsed().as_secs_f64());
                scanned += stats.samples;
                cpu.pause();
                // Every scan's count is checked, the first of each plant
                // byte for byte.
                let got = if cycle < plans.len() {
                    scan_digest(lanes.iter().map(|(id, t, v)| (id, &t[..], &v[..])))
                } else {
                    pre_crash[k].full.0
                };
                out.gate.equal(
                    (got, stats.samples),
                    pre_crash[k].full,
                    &format!("plant {k}: full wire scan equals the embedded scan"),
                );
                cpu.resume();
            }
            for _ in 0..WINDOWS_PER_FULL {
                let started = Instant::now();
                let window = tracer.call("client.range_scan_window", || {
                    client.range_scan(from, to, None, None)
                });
                if let Some((lanes, stats)) = out.tally.sync(window) {
                    window_ms.push(started.elapsed().as_secs_f64() * 1e3);
                    scanned += stats.samples;
                    cpu.pause();
                    let got = if cycle < plans.len() {
                        scan_digest(lanes.iter().map(|(id, t, v)| (id, &t[..], &v[..])))
                    } else {
                        pre_crash[k].window.0
                    };
                    out.gate.equal(
                        (got, stats.samples),
                        pre_crash[k].window,
                        &format!("plant {k}: window wire scan equals the embedded scan"),
                    );
                    cpu.resume();
                }
            }
            cycle += 1;
        }

        let mut backfill_s = Vec::new();
        let mut replayed = 0;
        for (k, before) in pre_crash.iter().enumerate() {
            let admitted = client.admit(&tenant(run, k), false);
            out.tally.sync(admitted);
            let started = Instant::now();
            let reply = tracer.call("client.backfill", || client.backfill(0, u64::MAX, None));
            if let Some((bytes, (_, samples_replayed, _))) = out.tally.sync(reply) {
                backfill_s.push(started.elapsed().as_secs_f64());
                replayed += samples_replayed;
                out.gate.equal(
                    digest(&bytes),
                    before.backfill,
                    &format!("plant {k}: wire backfill equals the embedded backfill"),
                );
            }
        }
        out.values.set("backfill_s", median(&backfill_s));
        drop(client);
        self.last_server = served.stop();

        // Crash: only synced bytes survive. Reopen, compare, finish.
        let image = factory.crash_image();
        let started = Instant::now();
        let mut recovered = tracer.call("service.open_recover", || open_service(image, 0));
        out.values
            .set("recovery_s", started.elapsed().as_secs_f64());
        cpu.pause();
        out.gate
            .check(recovered.health().ready(), "recovered service is ready");
        let restored: u64 = recovered
            .recoveries()
            .values()
            .map(|r| r.restored_samples + r.replayed_samples)
            .sum();
        out.gate
            .equal(restored, samples, "recovery restored every sample");
        let mut finish_ms = Vec::new();
        for (k, (plan, before)) in plans.iter().zip(&pre_crash).enumerate() {
            let plant = tenant(run, k);
            let tick = digest(&encode_report(&recovered.tick(&plant).expect("tick")));
            out.gate.equal(
                tick,
                before.tick,
                &format!("plant {k}: recovered tick report equals the pre-crash one"),
            );
            cpu.resume();
            let started = Instant::now();
            let report = tracer.call("service.finish", || {
                recovered.finish(&plant).expect("finish after recovery")
            });
            finish_ms.push(started.elapsed().as_secs_f64() * 1e3);
            cpu.pause();
            let reference = embedded_finish(plan, 0);
            out.gate.equal(
                digest(&encode_report(&report)),
                reference.report,
                &format!(
                    "plant {k}: finish after recovery equals the never-crashed embedded finish"
                ),
            );
            if k == 0 {
                out.values
                    .set("core.report_outliers", reference.outliers as f64);
            }
        }

        let (percentile_label, tail_ms) = tail(&window_ms);
        out.values.set("samples_per_s", median(&full_rates));
        out.values.set("reply_p50_ms", median(&window_ms));
        out.values.set("reply_tail_ms", tail_ms);
        out.values.set("finish_p50_ms", median(&finish_ms));
        out.samples_moved = samples + scanned + replayed + restored;
        out.cpu_s = cpu.stop();
        out.values.set("peak_rss_mb", peak_rss_mb());
        out.notes.push(format!(
            "{} plants, {samples} samples; samples_per_s = median of {} full scans over the wire; \
             reply = one-job-window scan, tail = p{percentile_label} of {}; whole life cycle {:.1} s",
            plans.len(),
            full_rates.len(),
            window_ms.len(),
            run_started.elapsed().as_secs_f64()
        ));
        out
    }
}

impl Workload for ColdStore {
    fn set_up(seed: u64, smoke: bool) -> Self {
        let shape = if smoke { SMOKE_SHAPE } else { SHAPE };
        let mut cold = ColdStore {
            plans: vec![build_plan(seed + 1, SMOKE_SHAPE)],
            last_server: ServerStats::default(),
        };
        // Warm-up: the whole life cycle on one tiny plant.
        let warm = cold.life_cycle(u32::MAX, 0.0, &mut Tracer::off());
        assert!(warm.gate.green(), "warm-up life cycle must pass its gate");
        cold.plans = (0..PLANTS)
            .map(|k| build_plan(seed + 2 + k, shape))
            .collect();
        cold
    }

    fn run(&mut self, run: u32, seconds: f64, tracer: &mut Tracer) -> Outcome {
        self.life_cycle(run, seconds * SCAN_SHARE, tracer)
    }

    fn ladder_input(&self) -> LadderInput<'_> {
        LadderInput {
            plan: &self.plans[0],
            lateness: 0,
            ticks: Vec::new(),
        }
    }

    fn tear_down(self) -> ServerStats {
        self.last_server
    }
}
