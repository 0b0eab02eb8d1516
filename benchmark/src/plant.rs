//! Scenario generation and compilation: a `hierod_synth` scenario becomes
//! a compact [`Plan`] — lane table, control events and a flat list of
//! `(lane_no, ts, value)` records — once, during set-up. The timed code
//! only walks the plan; the server receives nothing but these inputs.

use std::collections::HashMap;
use std::time::Instant;

use hierod_hierarchy::Plant;
use hierod_stream::{ControlEvent, LaneId, LaneKind};
use hierod_synth::{ReplayEvent, ScenarioBuilder};

/// Shape of one generated plant (the other builder knobs are fixed to
/// the repository's `standard_scenario` values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub machines: usize,
    pub jobs: usize,
    pub phase_samples: usize,
}

/// One step of a plan, 24 bytes: controls live out of line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Index into [`Plan::controls`].
    Control(u32),
    Sample {
        lane: u32,
        ts: u64,
        value: f64,
    },
}

/// A compiled plant: everything a workload sends, in sending order.
pub struct Plan {
    /// Lane `n` (1-based on the wire) is `lanes[n - 1]`.
    pub lanes: Vec<LaneId>,
    pub controls: Vec<ControlEvent>,
    pub ops: Vec<Op>,
    pub samples: u64,
    /// Samples the generator itself expects the watermark to drop as
    /// late (0 for an in-order plan).
    pub expected_late: u64,
    /// The batch view of the same data, for `core.batch_find_ms`.
    pub plant: Plant,
    pub generate_s: f64,
    pub compile_s: f64,
}

impl Plan {
    /// The `[start, end]` tick range of the plan's middle job.
    pub fn middle_job_window(&self) -> (u64, u64) {
        let starts: Vec<u64> = self
            .controls
            .iter()
            .filter_map(|c| match c {
                ControlEvent::JobStart { start, .. } => Some(*start),
                _ => None,
            })
            .collect();
        let mid = starts.len() / 2;
        let end = starts.get(mid + 1).map_or(u64::MAX, |next| next - 1);
        (starts.get(mid).copied().unwrap_or(0), end)
    }
}

/// Generates and compiles one plant.
pub fn build_plan(seed: u64, shape: Shape) -> Plan {
    let started = Instant::now();
    let scenario = ScenarioBuilder::new(seed)
        .machines(shape.machines)
        .jobs_per_machine(shape.jobs)
        .redundancy(3)
        .phase_samples(shape.phase_samples)
        .anomaly_rate(0.3)
        .measurement_error_fraction(0.5)
        .magnitude_sigmas(12.0)
        .build();
    let events = scenario.replay();
    let generate_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut lanes: Vec<LaneId> = Vec::new();
    let mut lane_no: HashMap<(String, String, bool), u32> = HashMap::new();
    let mut controls = Vec::new();
    let mut ops = Vec::with_capacity(events.len());
    let mut samples = 0_u64;
    let mut control = |event: ControlEvent, ops: &mut Vec<Op>| {
        ops.push(Op::Control(controls.len() as u32));
        controls.push(event);
    };
    for event in events {
        let (machine, sensor, ts, value, kind) = match event {
            ReplayEvent::MachineUp {
                machine,
                sensors,
                redundancy,
                env_sensors,
            } => {
                control(
                    ControlEvent::MachineUp {
                        machine,
                        sensors,
                        redundancy,
                        env_sensors,
                    },
                    &mut ops,
                );
                continue;
            }
            ReplayEvent::JobStart {
                machine,
                job,
                start,
                config,
            } => {
                control(
                    ControlEvent::JobStart {
                        machine,
                        job,
                        start,
                        config,
                    },
                    &mut ops,
                );
                continue;
            }
            ReplayEvent::PhaseStart {
                machine,
                kind,
                sensors,
            } => {
                control(
                    ControlEvent::PhaseStart {
                        machine,
                        kind,
                        sensors,
                    },
                    &mut ops,
                );
                continue;
            }
            ReplayEvent::JobComplete { machine, caq, .. } => {
                control(ControlEvent::JobComplete { machine, caq }, &mut ops);
                continue;
            }
            ReplayEvent::PhaseSample {
                machine,
                sensor,
                timestamp,
                value,
            } => (machine, sensor, timestamp, value, LaneKind::Phase),
            ReplayEvent::EnvSample {
                machine,
                sensor,
                timestamp,
                value,
            } => (machine, sensor, timestamp, value, LaneKind::Environment),
        };
        let key = (machine, sensor, kind == LaneKind::Phase);
        let lane = match lane_no.get(&key) {
            Some(&n) => n,
            None => {
                lanes.push(LaneId {
                    machine: key.0.clone(),
                    sensor: key.1.clone(),
                    kind,
                });
                let n = lanes.len() as u32;
                lane_no.insert(key, n);
                n
            }
        };
        ops.push(Op::Sample { lane, ts, value });
        samples += 1;
    }
    let compile_s = started.elapsed().as_secs_f64();
    Plan {
        lanes,
        controls,
        ops,
        samples,
        expected_late: 0,
        plant: scenario.plant,
        generate_s,
        compile_s,
    }
}

/// SplitMix64: the jitter's only randomness, so a seed fixes the order.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Jitters arrival order the way factory gateways do: inside every run
/// of samples between two control events each sample is displaced by
/// fewer than `lateness` ticks (never late), except `held_back_ppm`
/// parts per million which are held back past the bound and so arrive
/// after the watermark passed them. Sets [`Plan::expected_late`] to the
/// generator's own count of those, by the watermark's published rule
/// (a sample is late when its lane already saw `ts + lateness`).
pub fn jitter(plan: &mut Plan, seed: u64, lateness: u64, held_back_ppm: u64) {
    let mut rng = SplitMix(seed ^ 0x6a69_7474_6572);
    let mut start = 0;
    while start < plan.ops.len() {
        let Some(run) = plan.ops[start..]
            .iter()
            .position(|op| matches!(op, Op::Control(_)))
        else {
            jitter_run(&mut plan.ops[start..], &mut rng, lateness, held_back_ppm);
            break;
        };
        jitter_run(
            &mut plan.ops[start..start + run],
            &mut rng,
            lateness,
            held_back_ppm,
        );
        start += run + 1;
    }
    let mut newest = vec![None::<u64>; plan.lanes.len() + 1];
    plan.expected_late = 0;
    for op in &plan.ops {
        if let Op::Sample { lane, ts, .. } = *op {
            let seen = &mut newest[lane as usize];
            match *seen {
                Some(max) if max >= ts + lateness => plan.expected_late += 1,
                Some(max) => *seen = Some(max.max(ts)),
                None => *seen = Some(ts),
            }
        }
    }
}

fn jitter_run(run: &mut [Op], rng: &mut SplitMix, lateness: u64, held_back_ppm: u64) {
    let mut keyed: Vec<(u64, Op)> = run
        .iter()
        .map(|&op| {
            let Op::Sample { ts, .. } = op else {
                return (0, op);
            };
            let draw = rng.next();
            let delay = if (draw >> 32) % 1_000_000 < held_back_ppm {
                2 * lateness + draw % lateness.max(1)
            } else {
                draw % lateness.max(1)
            };
            (ts + delay, op)
        })
        .collect();
    // Stable: equal keys keep timestamp order, so a displaced sample is
    // overtaken only by samples less than `lateness` ticks newer.
    keyed.sort_by_key(|&(key, _)| key);
    for (slot, (_, op)) in run.iter_mut().zip(keyed) {
        *slot = op;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Shape = Shape {
        machines: 1,
        jobs: 2,
        phase_samples: 32,
    };

    fn sample_multiset(plan: &Plan) -> Vec<(u32, u64, u64)> {
        let mut all: Vec<(u32, u64, u64)> = plan
            .ops
            .iter()
            .filter_map(|op| match *op {
                Op::Sample { lane, ts, value } => Some((lane, ts, value.to_bits())),
                Op::Control(_) => None,
            })
            .collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn same_seed_same_plan_and_same_jitter() {
        let mut a = build_plan(5, TINY);
        let mut b = build_plan(5, TINY);
        assert_eq!(a.ops, b.ops);
        jitter(&mut a, 5, 8, 5_000);
        jitter(&mut b, 5, 8, 5_000);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.expected_late, b.expected_late);
        let mut c = build_plan(5, TINY);
        jitter(&mut c, 6, 8, 5_000);
        assert_ne!(a.ops, c.ops, "another seed gives another order");
    }

    #[test]
    fn jitter_keeps_every_sample_and_every_control_in_place() {
        let plain = build_plan(7, TINY);
        let mut shaken = build_plan(7, TINY);
        jitter(&mut shaken, 7, 8, 5_000);
        assert_eq!(sample_multiset(&plain), sample_multiset(&shaken));
        for (a, b) in plain.ops.iter().zip(&shaken.ops) {
            assert_eq!(
                matches!(a, Op::Control(_)),
                matches!(b, Op::Control(_)),
                "controls stay where they were"
            );
        }
    }

    #[test]
    fn bounded_shuffle_alone_is_never_late() {
        let mut plan = build_plan(9, TINY);
        let before = plan.ops.clone();
        jitter(&mut plan, 9, 8, 0);
        assert_ne!(before, plan.ops);
        assert_eq!(plan.expected_late, 0);
    }

    #[test]
    fn held_back_samples_are_counted_late() {
        let mut plan = build_plan(9, TINY);
        jitter(&mut plan, 9, 8, 50_000);
        assert!(plan.expected_late > 0);
        assert!(plan.expected_late < plan.samples / 10);
    }
}
