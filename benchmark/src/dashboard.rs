//! `dashboard` — open loop, one connection paced at 50,000 samples/s in
//! 512-sample slices: the ≈265k-sample plant, its arrivals jittered and
//! 0.5% of them held back past the server's allowed lateness of 8 ticks,
//! streamed into fresh tenants while every 50 ms *of schedule* a `tick` +
//! `query_deltas` pair asks for what changed.
//!
//! Report assembly (`core`), the report-delta cache and the watermark
//! reorder buffer dominate while the ingest path idles at a few percent
//! of its capacity — the mirror image of `firehose`. Tick time grows with
//! closed history, so the tail of the lag is the end of a ramp.

use std::ops::Range;
use std::time::{Duration, Instant};

use hierod_server::client::DeltaReply;
use hierod_server::{Client, ServerStats};
use hierod_wire::Frame;

use crate::firehose::{check_barrier, finish_plant, warm_up, Closed};
use crate::harness::{
    connect, define_lanes, ms_since, peak_rss_mb, send_ops, CpuMeter, Schedule, Served,
};
use crate::ladder::LadderInput;
use crate::plant::{build_plan, jitter, Op, Plan, Shape};
use crate::reference::embedded_finish;
use crate::stats::{median, median_of, percentile, tail};
use crate::trace::Tracer;
use crate::workload::{Outcome, Workload};

pub const SHAPE: Shape = Shape {
    machines: 2,
    jobs: 10,
    phase_samples: 240,
};
pub const SMOKE_SHAPE: Shape = Shape {
    machines: 1,
    jobs: 3,
    phase_samples: 48,
};
pub const LATENESS: u64 = 8;
const HELD_BACK_PPM: u64 = 5_000;
/// Samples per second the generator offers, whatever the server does.
pub const RATE: f64 = 50_000.0;
const SLICE_SAMPLES: u64 = 512;
const PAIR_EVERY: Duration = Duration::from_millis(50);
/// A reply later than this after its due time is over the limit.
pub const LIMIT_MS: f64 = 50.0;

/// Op ranges holding [`SLICE_SAMPLES`] samples each (controls ride with
/// the samples that follow them; the last slice takes what is left).
pub fn slices(plan: &Plan) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let (mut start, mut held) = (0, 0);
    for (index, op) in plan.ops.iter().enumerate() {
        if matches!(op, Op::Sample { .. }) {
            held += 1;
            if held == SLICE_SAMPLES {
                out.push(start..index + 1);
                start = index + 1;
                held = 0;
            }
        }
    }
    if start < plan.ops.len() {
        out.push(start..plan.ops.len());
    }
    out
}

fn slice_period() -> Duration {
    Duration::from_secs_f64(SLICE_SAMPLES as f64 / RATE)
}

/// Number of slices already due when pair `j` (0-based) is due: the pair
/// reports on everything scheduled before it.
fn slices_before_pair(j: u64) -> u64 {
    let due = PAIR_EVERY.mul_f64((j + 1) as f64);
    (due.as_secs_f64() / slice_period().as_secs_f64()).ceil() as u64
}

/// Op indices after which the schedule places a tick — the "same tick
/// points" the per-layer probes replay.
pub fn tick_points(slices: &[Range<usize>]) -> Vec<usize> {
    let mut out = Vec::new();
    for j in 0.. {
        let before = slices_before_pair(j) as usize;
        if before >= slices.len() {
            break;
        }
        out.push(slices[before - 1].end);
    }
    out
}

/// One tenant's paced replay.
#[derive(Default)]
struct Paced {
    lags_ms: Vec<f64>,
    sched_lag_ms: Vec<f64>,
    delta_bytes: Vec<f64>,
    achieved_rate: f64,
    closed: Closed,
}

fn pace_plant(
    client: &mut Client,
    served: &Served,
    plan: &Plan,
    slices: &[Range<usize>],
    tenant: &str,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Paced {
    let span = tracer.begin("plant");
    let mut paced = Paced::default();
    let admit = tracer.call("client.admit", || client.admit(tenant, true));
    out.tally.sync(admit);
    define_lanes(client, plan, &mut out.tally);

    let start = Instant::now();
    let slice_clock = Schedule::new(start, slice_period());
    let pair_clock = Schedule::new(start + PAIR_EVERY, PAIR_EVERY);
    let (mut next_slice, mut next_pair, mut version) = (0_u64, 0_u64, 0_u64);
    let mut last_sent = start;
    while (next_slice as usize) < slices.len() {
        if slices_before_pair(next_pair) <= next_slice {
            // Everything scheduled before this pair is out: ask.
            let lag = pair_clock.wait(next_pair);
            paced.sched_lag_ms.push(lag.as_secs_f64() * 1e3);
            let due = pair_clock.due(next_pair);
            let ticked = tracer.call("client.tick", || client.tick());
            let ticked = out.tally.sync(ticked);
            let reply = tracer.call("client.query_deltas", || client.query_deltas(version));
            let reply = out.tally.sync(reply);
            let latency = ticked
                .is_some()
                .then_some(reply.as_ref())
                .flatten()
                .map(|_| ms_since(due));
            out.tally.pair(latency, LIMIT_MS);
            paced.lags_ms.extend(latency);
            if let Some((new_version, _)) = ticked {
                version = new_version;
            }
            if let (
                true,
                Some(DeltaReply::Deltas {
                    from,
                    to,
                    added,
                    removed,
                }),
            ) = (tracer.enabled(), reply)
            {
                let mut bytes = Vec::new();
                Frame::Deltas {
                    from,
                    to,
                    added,
                    removed,
                }
                .encode(&mut bytes);
                paced.delta_bytes.push(bytes.len() as f64);
            }
            next_pair += 1;
            continue;
        }
        let lag = slice_clock.wait(next_slice);
        paced.sched_lag_ms.push(lag.as_secs_f64() * 1e3);
        let ops = &plan.ops[slices[next_slice as usize].clone()];
        send_ops(client, plan, ops, &mut out.tally, tracer);
        out.tally.ingest(1, u64::from(client.flush().is_err()));
        last_sent = Instant::now();
        next_slice += 1;
    }
    // On schedule the last slice leaves when it is due; what it leaves
    // later than that is what the whole replay took too long.
    let overrun = last_sent.saturating_duration_since(slice_clock.due(slices.len() as u64 - 1));
    paced.achieved_rate =
        plan.samples as f64 / (plan.samples as f64 / RATE + overrun.as_secs_f64());

    let barrier = tracer.call("client.barrier", || client.query_lane_stats());
    check_barrier(out.tally.sync(barrier), plan, tenant, &mut out.gate);
    paced.closed = finish_plant(client, &served.factory, tenant, &mut out.tally, tracer);
    tracer.end(span);
    paced
}

pub struct Dashboard {
    served: Served,
    plan: Plan,
    slices: Vec<Range<usize>>,
}

impl Workload for Dashboard {
    fn set_up(seed: u64, smoke: bool) -> Self {
        let mut plan = build_plan(seed, if smoke { SMOKE_SHAPE } else { SHAPE });
        jitter(&mut plan, seed, LATENESS, HELD_BACK_PPM);
        let slices = slices(&plan);
        let served = Served::fresh(LATENESS);
        warm_up(&served, seed + 1);
        Dashboard {
            served,
            plan,
            slices,
        }
    }

    fn run(&mut self, run: u32, seconds: f64, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        // A whole number of plants: the schedule, not the server's speed,
        // fixes how much work a run holds.
        let plants = ((seconds * RATE / self.plan.samples as f64).round() as usize).max(1);
        let mut client = connect(self.served.addr());
        let mut cpu = CpuMeter::running();
        let paced: Vec<Paced> = (0..plants)
            .map(|k| {
                pace_plant(
                    &mut client,
                    &self.served,
                    &self.plan,
                    &self.slices,
                    &format!("dashboard-{run}-{k}"),
                    &mut out,
                    tracer,
                )
            })
            .collect();
        drop(client);
        out.cpu_s = cpu.stop();
        out.values.set("peak_rss_mb", peak_rss_mb());

        let reference = embedded_finish(&self.plan, LATENESS);
        for (k, plant) in paced.iter().enumerate() {
            out.gate.equal(
                plant.closed.report,
                Some(reference.report),
                &format!("plant {k}: served finish bytes equal the embedded ones, jittered order"),
            );
        }
        out.gate.equal(
            reference.stats.late_dropped,
            self.plan.expected_late,
            "embedded late drops equal the generator's count",
        );
        out.values
            .set("core.report_outliers", reference.outliers as f64);

        let lags: Vec<f64> = paced
            .iter()
            .flat_map(|p| p.lags_ms.iter().copied())
            .collect();
        let sched: Vec<f64> = paced
            .iter()
            .flat_map(|p| p.sched_lag_ms.iter().copied())
            .collect();
        let deltas: Vec<f64> = paced
            .iter()
            .flat_map(|p| p.delta_bytes.iter().copied())
            .collect();
        let achieved = median_of(&paced, |p| p.achieved_rate);
        let (percentile_label, tail_ms) = tail(&lags);
        out.values.set("samples_per_s", achieved);
        out.values.set("reply_p50_ms", median(&lags));
        out.values.set("reply_tail_ms", tail_ms);
        out.values.set(
            "stored_bytes_per_sample",
            median_of(&paced, |p| {
                p.closed.stored_bytes as f64 / self.plan.samples as f64
            }),
        );
        out.values.set(
            "finish_p50_ms",
            median(
                &paced
                    .iter()
                    .filter_map(|p| p.closed.finish_ms)
                    .collect::<Vec<_>>(),
            ),
        );
        out.values
            .set("synth.sched_lag_p95_ms", percentile(&sched, 95));
        out.values.set("wire.delta_bytes_per_tick", median(&deltas));
        if achieved < 0.99 * RATE {
            out.invalid.push(format!(
                "pace not held: {achieved:.0} of {RATE:.0} samples/s offered"
            ));
        }
        out.samples_moved = self.plan.samples * plants as u64;
        out.notes.push(format!(
            "{plants} plants of {} samples paced at {RATE:.0}/s; reply = tick + query_deltas from due time, \
             tail = p{percentile_label} of {} pairs, limit {LIMIT_MS} ms",
            self.plan.samples,
            lags.len()
        ));
        out
    }

    fn ladder_input(&self) -> LadderInput<'_> {
        LadderInput {
            plan: &self.plan,
            lateness: LATENESS,
            ticks: tick_points(&self.slices),
        }
    }

    fn tear_down(self) -> ServerStats {
        self.served.stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_cover_the_plan_in_order_with_full_sample_counts() {
        let plan = build_plan(3, SMOKE_SHAPE);
        let slices = slices(&plan);
        assert_eq!(slices.first().map(|s| s.start), Some(0));
        assert_eq!(slices.last().map(|s| s.end), Some(plan.ops.len()));
        for pair in slices.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        for slice in &slices[..slices.len() - 1] {
            let samples = plan.ops[slice.clone()]
                .iter()
                .filter(|op| matches!(op, Op::Sample { .. }))
                .count() as u64;
            assert_eq!(samples, SLICE_SAMPLES);
        }
    }

    #[test]
    fn a_pair_waits_for_the_slices_scheduled_before_it() {
        // 512 samples at 50k/s = 10.24 ms: slices 0..=4 are due before
        // the first pair at 50 ms, slices 0..=9 before the second.
        assert_eq!(slices_before_pair(0), 5);
        assert_eq!(slices_before_pair(1), 10);
        assert_eq!(slices_before_pair(9), 49);
    }

    #[test]
    fn tick_points_fall_on_slice_ends_and_rise() {
        let plan = build_plan(3, SMOKE_SHAPE);
        let slices = slices(&plan);
        let ends: Vec<usize> = slices.iter().map(|s| s.end).collect();
        let points = tick_points(&slices);
        assert!(!points.is_empty());
        assert!(points.windows(2).all(|w| w[0] < w[1]));
        assert!(points.iter().all(|p| ends.contains(p)));
    }
}
