//! `neighbours` — two connections, two tenants: a *flooder* running the
//! `firehose` loop beside a *victim* whose small pre-loaded plant (1
//! machine × 4 jobs × `phase_samples 120`) receives an open-loop `tick` +
//! `query_lane_stats` pair every 10 ms, timed from its due time.
//!
//! Same service and server layers as the first two workloads, but used
//! under contention: everything goes through the server's one service
//! mutex, so a gain bought for single-connection throughput by holding
//! that lock longer (or the reverse) shows here and nowhere else. The
//! victim's tail is the flooder's longest lock hold, not its own work.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hierod_server::{Client, ServerStats};

use crate::firehose::{self, serve_plant, warm_up, PlantRun};
use crate::harness::{
    connect, define_lanes, ms_since, peak_rss_mb, send_ops, CpuMeter, Schedule, Served, Tally,
};
use crate::ladder::LadderInput;
use crate::plant::{build_plan, Plan, Shape};
use crate::reference::{digest, embedded_finish, Digest, Gate};
use crate::stats::{median, median_of, percentile, tail};
use crate::trace::Tracer;
use crate::workload::{Outcome, Workload};

const VICTIM_SHAPE: Shape = Shape {
    machines: 1,
    jobs: 4,
    phase_samples: 120,
};
const SMOKE_VICTIM_SHAPE: Shape = Shape {
    machines: 1,
    jobs: 2,
    phase_samples: 32,
};
/// One victim pair holds the service lock for about 2.5 ms, so at 10 ms
/// the victim takes a quarter of it, and the flooder's one long hold per
/// plant (`finish`, ≈85 ms of lock) covers a tenth of the wall time: the
/// victim's median sits among the unstalled pairs, its p95 among the
/// stalled ones, and the system is not saturated (README, "Where this
/// differs").
const PAIR_EVERY: Duration = Duration::from_millis(10);
pub const LIMIT_MS: f64 = 50.0;
/// Pairs sent to the idle server before the flood starts, the base the
/// flood's added wait is measured against (traced runs only).
const IDLE_PAIRS: u64 = 100;

pub struct Neighbours {
    served: Served,
    flood_plan: Plan,
    victim_plan: Plan,
}

/// One victim pair; `None` when either call failed.
fn victim_pair(client: &mut Client, tally: &mut Tally, tracer: &mut Tracer) -> Option<()> {
    let ticked = tracer.call("client.tick", || client.tick());
    let ticked = tally.sync(ticked);
    let stats = tracer.call("client.query_lane_stats", || client.query_lane_stats());
    tally.sync(stats).and(ticked).map(|_| ())
}

struct VictimRun {
    tally: Tally,
    gate: Gate,
    rtts_ms: Vec<f64>,
    idle_rtts_ms: Vec<f64>,
    sched_lag_ms: Vec<f64>,
    tracer: Tracer,
    /// How long the paced loop ran.
    paced_s: f64,
    report: Option<Digest>,
}

impl Workload for Neighbours {
    fn set_up(seed: u64, smoke: bool) -> Self {
        let flood_plan = build_plan(
            seed,
            if smoke {
                firehose::SMOKE_SHAPE
            } else {
                firehose::SHAPE
            },
        );
        let victim_plan = build_plan(
            seed + 2,
            if smoke {
                SMOKE_VICTIM_SHAPE
            } else {
                VICTIM_SHAPE
            },
        );
        let served = Served::fresh(0);
        warm_up(&served, seed + 1);
        Neighbours {
            served,
            flood_plan,
            victim_plan,
        }
    }

    fn run(&mut self, run: u32, seconds: f64, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let addr = self.served.addr();
        let factory = &self.served.factory;
        let (flood_plan, victim_plan) = (&self.flood_plan, &self.victim_plan);
        let victim_tenant = format!("victim-{run}");

        // The victim's plant is loaded before anything is timed.
        let mut victim = connect(addr);
        let admitted = victim.admit(&victim_tenant, true);
        out.tally.sync(admitted);
        define_lanes(&mut victim, victim_plan, &mut out.tally);
        send_ops(
            &mut victim,
            victim_plan,
            &victim_plan.ops,
            &mut out.tally,
            &mut Tracer::off(),
        );
        let mut idle_rtts_ms = Vec::new();
        if tracer.enabled() {
            let clock = Schedule::new(Instant::now(), PAIR_EVERY);
            for k in 0..IDLE_PAIRS {
                clock.wait(k);
                if victim_pair(&mut victim, &mut out.tally, &mut Tracer::off()).is_some() {
                    idle_rtts_ms.push(ms_since(clock.due(k)));
                }
            }
        }

        let flood_done = AtomicBool::new(false);
        let mut cpu = CpuMeter::running();
        let victim_tracer = tracer.sibling(1 << 32);
        let (plants, flood_tally, flood_gate, victim_run) = std::thread::scope(|scope| {
            let victim_thread = scope.spawn(|| {
                let mut v = VictimRun {
                    tally: Tally::default(),
                    gate: Gate::default(),
                    rtts_ms: Vec::new(),
                    idle_rtts_ms,
                    sched_lag_ms: Vec::new(),
                    tracer: victim_tracer,
                    paced_s: 0.0,
                    report: None,
                };
                let started = Instant::now();
                let clock = Schedule::new(started, PAIR_EVERY);
                let mut k = 0;
                while !flood_done.load(Ordering::SeqCst) {
                    let lag = clock.wait(k);
                    v.sched_lag_ms.push(lag.as_secs_f64() * 1e3);
                    let rtt = victim_pair(&mut victim, &mut v.tally, &mut v.tracer)
                        .map(|()| ms_since(clock.due(k)));
                    v.tally.pair(rtt, LIMIT_MS);
                    v.rtts_ms.extend(rtt);
                    k += 1;
                }
                v.paced_s = started.elapsed().as_secs_f64();
                let barrier = victim.query_lane_stats();
                if let Some((stats, _)) = v.tally.sync(barrier) {
                    v.gate.equal(
                        stats.samples_ingested,
                        victim_plan.samples,
                        "victim barrier saw every sample",
                    );
                }
                let finished = victim.finish();
                v.report = v.tally.sync(finished).map(|(_, bytes)| digest(&bytes));
                factory.purge(&victim_tenant);
                v
            });

            let mut client = connect(addr);
            let (mut tally, mut gate) = (Tally::default(), Gate::default());
            let mut plants: Vec<PlantRun> = Vec::new();
            let started = Instant::now();
            while plants.is_empty() || started.elapsed().as_secs_f64() < seconds {
                let tenant = format!("flood-{run}-{}", plants.len());
                plants.push(serve_plant(
                    &mut client,
                    factory,
                    flood_plan,
                    &tenant,
                    &mut tally,
                    &mut gate,
                    tracer,
                ));
            }
            flood_done.store(true, Ordering::SeqCst);
            let victim_run = victim_thread.join().expect("victim thread");
            (plants, tally, gate, victim_run)
        });
        out.cpu_s = cpu.stop();
        out.values.set("peak_rss_mb", peak_rss_mb());
        out.tally.add(flood_tally);
        out.tally.add(victim_run.tally);
        out.gate.extend(flood_gate);
        out.gate.extend(victim_run.gate);
        tracer.absorb(victim_run.tracer);

        out.gate.equal(
            victim_run.report,
            Some(embedded_finish(victim_plan, 0).report),
            "victim: served finish bytes equal the embedded ones",
        );
        let reference = embedded_finish(flood_plan, 0);
        for (k, plant) in plants.iter().enumerate() {
            out.gate.equal(
                plant.closed.report,
                Some(reference.report),
                &format!("flood plant {k}: served finish bytes equal the embedded ones"),
            );
        }
        out.values
            .set("core.report_outliers", reference.outliers as f64);

        let rate = median_of(&plants, |p| p.rate);
        let (percentile_label, tail_ms) = tail(&victim_run.rtts_ms);
        out.values.set("samples_per_s", rate);
        out.values.set("server.served_ns_per_sample", 1e9 / rate);
        out.values.set(
            "server.client_busy_share",
            median_of(&plants, |p| p.busy_share),
        );
        out.values.set("reply_p50_ms", median(&victim_run.rtts_ms));
        out.values.set("reply_tail_ms", tail_ms);
        out.values.set(
            "stored_bytes_per_sample",
            median_of(&plants, |p| {
                p.closed.stored_bytes as f64 / flood_plan.samples as f64
            }),
        );
        out.values.set(
            "finish_p50_ms",
            median(
                &plants
                    .iter()
                    .filter_map(|p| p.closed.finish_ms)
                    .collect::<Vec<_>>(),
            ),
        );
        out.values.set(
            "synth.sched_lag_p95_ms",
            percentile(&victim_run.sched_lag_ms, 95),
        );
        if tracer.enabled() {
            out.values.set(
                "server.victim_wait_ms_p95",
                percentile(&victim_run.rtts_ms, 95) - percentile(&victim_run.idle_rtts_ms, 95),
            );
        }
        let pair_rate = victim_run.sched_lag_ms.len() as f64 / victim_run.paced_s;
        let target = 1.0 / PAIR_EVERY.as_secs_f64();
        if pair_rate < 0.99 * target {
            out.invalid.push(format!(
                "pace not held: {pair_rate:.1} of {target:.0} victim pairs/s offered"
            ));
        }
        out.samples_moved = flood_plan.samples * plants.len() as u64 + victim_plan.samples;
        out.notes.push(format!(
            "flood: median of {} plants of {} samples; reply = victim tick + query_lane_stats from due time, \
             tail = p{percentile_label} of {} pairs, limit {LIMIT_MS} ms",
            plants.len(),
            flood_plan.samples,
            victim_run.rtts_ms.len()
        ));
        out
    }

    fn ladder_input(&self) -> LadderInput<'_> {
        LadderInput {
            plan: &self.flood_plan,
            lateness: 0,
            ticks: Vec::new(),
        }
    }

    fn tear_down(self) -> ServerStats {
        self.served.stop()
    }
}
