//! `firehose` — closed loop, one connection throttled only by TCP
//! back-pressure: the same ≈1.06M-sample plant replayed in order into
//! fresh tenants, one after the other, until the time is up.
//!
//! The ingest path (client → wire → server → service → stream journal →
//! store → scorer push) does nearly all the work and report assembly
//! almost none (one `finish` per million samples), so an ingest-side
//! change shows here and a report-side one does not.

use std::time::Instant;

use hierod_server::{Client, ServerStats};
use hierod_stream::{LaneId, LaneStats, StreamStats};

use crate::harness::{
    connect, define_lanes, peak_rss_mb, send_ops, thread_cpu_ns, BenchFactory, CpuMeter, Served,
    Tally,
};
use crate::ladder::LadderInput;
use crate::plant::{build_plan, Plan, Shape};
use crate::reference::{digest, embedded_finish, Digest, Gate};
use crate::stats::{median, median_of, tail};
use crate::trace::Tracer;
use crate::workload::{Outcome, Workload};

pub const SHAPE: Shape = Shape {
    machines: 2,
    jobs: 10,
    phase_samples: 960,
};
pub const SMOKE_SHAPE: Shape = Shape {
    machines: 2,
    jobs: 3,
    phase_samples: 48,
};
const WARM_UP_SHAPE: Shape = Shape {
    machines: 1,
    jobs: 2,
    phase_samples: 32,
};

/// How a plant's life on the server ended.
#[derive(Debug, Default)]
pub struct Closed {
    pub finish_ms: Option<f64>,
    pub report: Option<Digest>,
    /// Bytes the finished plant left in storage.
    pub stored_bytes: u64,
}

/// One plant taken from `admit` to `finish` over a connection.
#[derive(Debug, Default)]
pub struct PlantRun {
    /// Samples per second, first ingest frame → barrier reply.
    pub rate: f64,
    /// Share of that interval the generator thread spent on a CPU.
    pub busy_share: f64,
    pub closed: Closed,
}

/// The barrier's reply must account for every sample sent, with the late
/// drops the generator predicted and no duplicate drops.
pub fn check_barrier(
    reply: Option<(StreamStats, Vec<(LaneId, LaneStats)>)>,
    plan: &Plan,
    tenant: &str,
    gate: &mut Gate,
) {
    let Some((stats, _)) = reply else {
        return gate.check(false, format!("{tenant}: barrier failed"));
    };
    gate.equal(
        stats.samples_ingested,
        plan.samples,
        "barrier saw every sample",
    );
    gate.equal(
        stats.late_dropped,
        plan.expected_late,
        "late drops equal the generator's count",
    );
    gate.equal(stats.duplicates_dropped, 0, "no duplicate drops");
}

/// Finishes the connection's plant (timed), sizes what it left in
/// storage, and frees it.
pub fn finish_plant(
    client: &mut Client,
    factory: &BenchFactory,
    tenant: &str,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Closed {
    let mut closed = Closed::default();
    let started = Instant::now();
    let finished = tracer.call("client.finish", || client.finish());
    if let Some((_, bytes)) = tally.sync(finished) {
        closed.finish_ms = Some(started.elapsed().as_secs_f64() * 1e3);
        closed.report = Some(digest(&bytes));
    }
    closed.stored_bytes = factory.stored_bytes(tenant, "");
    factory.purge(tenant);
    closed
}

/// Admits `tenant`, streams the whole plan as unacknowledged frames,
/// forces parked ingest errors out with a `query_lane_stats` barrier that
/// must see every sample, then finishes the plant and frees its storage.
pub fn serve_plant(
    client: &mut Client,
    factory: &BenchFactory,
    plan: &Plan,
    tenant: &str,
    tally: &mut Tally,
    gate: &mut Gate,
    tracer: &mut Tracer,
) -> PlantRun {
    let span = tracer.begin("plant");
    let mut out = PlantRun::default();
    let admit = tracer.call("client.admit", || client.admit(tenant, true));
    tally.sync(admit);
    tracer.call("client.lane_defs", || define_lanes(client, plan, tally));

    let started = Instant::now();
    let cpu_before = thread_cpu_ns();
    send_ops(client, plan, &plan.ops, tally, tracer);
    let barrier = tracer.call("client.barrier", || client.query_lane_stats());
    let wall = started.elapsed().as_secs_f64();
    out.busy_share = (thread_cpu_ns() - cpu_before) as f64 / 1e9 / wall;
    out.rate = plan.samples as f64 / wall;
    check_barrier(tally.sync(barrier), plan, tenant, gate);
    out.closed = finish_plant(client, factory, tenant, tally, tracer);
    tracer.end(span);
    out
}

/// Serves the tiny warm-up plant once, with a tick and a delta query on
/// the way, so no timed plant is the first to touch a code path, a
/// socket or an allocator arena.
pub fn warm_up(served: &Served, seed: u64) {
    let plan = build_plan(seed, WARM_UP_SHAPE);
    let mut client = connect(served.addr());
    let (mut tally, mut gate) = (Tally::default(), Gate::default());
    let admitted = client.admit("warm-up-live", true);
    tally.sync(admitted);
    define_lanes(&mut client, &plan, &mut tally);
    send_ops(
        &mut client,
        &plan,
        &plan.ops,
        &mut tally,
        &mut Tracer::off(),
    );
    let ticked = client.tick();
    tally.sync(ticked);
    let deltas = client.query_deltas(0);
    tally.sync(deltas);
    let finished = client.finish();
    tally.sync(finished);
    served.factory.purge("warm-up-live");
    let run = serve_plant(
        &mut client,
        &served.factory,
        &plan,
        "warm-up",
        &mut tally,
        &mut gate,
        &mut Tracer::off(),
    );
    assert!(
        run.closed.report.is_some() && tally.failed == 0 && gate.green(),
        "the warm-up plant must be served cleanly"
    );
}

pub struct Firehose {
    served: Served,
    plan: Plan,
}

impl Workload for Firehose {
    fn set_up(seed: u64, smoke: bool) -> Self {
        let plan = build_plan(seed, if smoke { SMOKE_SHAPE } else { SHAPE });
        let served = Served::fresh(0);
        warm_up(&served, seed + 1);
        Firehose { served, plan }
    }

    fn run(&mut self, run: u32, seconds: f64, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut client = connect(self.served.addr());
        let mut plants: Vec<PlantRun> = Vec::new();
        let mut cpu = CpuMeter::running();
        let started = Instant::now();
        while plants.is_empty() || started.elapsed().as_secs_f64() < seconds {
            let tenant = format!("firehose-{run}-{}", plants.len());
            plants.push(serve_plant(
                &mut client,
                &self.served.factory,
                &self.plan,
                &tenant,
                &mut out.tally,
                &mut out.gate,
                tracer,
            ));
        }
        drop(client);
        out.cpu_s = cpu.stop();
        out.values.set("peak_rss_mb", peak_rss_mb());

        let reference = embedded_finish(&self.plan, 0);
        for (k, plant) in plants.iter().enumerate() {
            out.gate.equal(
                plant.closed.report,
                Some(reference.report),
                &format!("plant {k}: served finish bytes equal the embedded ones"),
            );
        }
        out.values
            .set("core.report_outliers", reference.outliers as f64);

        let rate = median_of(&plants, |p| p.rate);
        let finishes: Vec<f64> = plants.iter().filter_map(|p| p.closed.finish_ms).collect();
        let (percentile, tail_ms) = tail(&finishes);
        out.values.set("samples_per_s", rate);
        out.values.set("reply_p50_ms", median(&finishes));
        out.values.set("finish_p50_ms", median(&finishes));
        out.values.set("reply_tail_ms", tail_ms);
        out.values.set(
            "stored_bytes_per_sample",
            median_of(&plants, |p| {
                p.closed.stored_bytes as f64 / self.plan.samples as f64
            }),
        );
        let busy = median_of(&plants, |p| p.busy_share);
        out.values.set("server.client_busy_share", busy);
        out.values.set("server.served_ns_per_sample", 1e9 / rate);
        if busy > 0.9 {
            out.invalid.push(format!(
                "generator-bound: the client thread was on a CPU {:.0}% of the ingest time",
                busy * 100.0
            ));
        }
        out.samples_moved = self.plan.samples * plants.len() as u64;
        out.notes.push(format!(
            "samples_per_s: median of {} plants of {} samples; reply = finish, tail = p{percentile} of {}",
            plants.len(),
            self.plan.samples,
            finishes.len()
        ));
        out
    }

    fn ladder_input(&self) -> LadderInput<'_> {
        LadderInput {
            plan: &self.plan,
            lateness: 0,
            ticks: Vec::new(),
        }
    }

    fn tear_down(self) -> ServerStats {
        self.served.stop()
    }
}
