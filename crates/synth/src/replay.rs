//! Replays a built scenario as the event stream a live plant would emit.
//!
//! The batch pipeline sees a finished [`Plant`]; the streaming detector
//! (`hierod-stream`) sees the same data as it would have *arrived*:
//! machine bring-up, job/phase control events, and per-sensor samples in
//! timestamp order. `replay_plant` performs that flattening, and the
//! `stream_batch_equivalence` integration test pins that feeding the
//! replay through the streaming detector reproduces the batch verdicts.
//!
//! Ordering contract: control events appear before the samples they
//! govern; samples of one phase are merged across its sensors by
//! timestamp (stable, so same-tick samples keep the plant's series
//! order); environment samples are interleaved at job boundaries. Per
//! sensor, samples are strictly in order — a lateness-0 streaming
//! configuration replays losslessly, and property tests shuffle from
//! here to exercise lateness handling.

use hierod_hierarchy::{CaqResult, JobConfig, PhaseKind, Plant, RedundancyGroup, Sensor};

use crate::scenario::Scenario;

/// One event of a replayed plant timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayEvent {
    /// A machine comes online with its sensor inventory.
    MachineUp {
        /// Machine identifier.
        machine: String,
        /// Full sensor inventory.
        sensors: Vec<Sensor>,
        /// Redundancy groups over those sensors.
        redundancy: Vec<RedundancyGroup>,
        /// Ambient sensors sampled outside any job.
        env_sensors: Vec<String>,
    },
    /// A job starts with its configuration vector.
    JobStart {
        /// Machine identifier.
        machine: String,
        /// Job identifier.
        job: String,
        /// First tick of the job.
        start: u64,
        /// Configuration the operator submitted.
        config: JobConfig,
    },
    /// A phase begins; subsequent phase samples belong to it.
    PhaseStart {
        /// Machine identifier.
        machine: String,
        /// Which of the five phases.
        kind: PhaseKind,
        /// The sensors that will report during this phase.
        sensors: Vec<String>,
    },
    /// One in-phase sensor reading.
    PhaseSample {
        /// Machine identifier.
        machine: String,
        /// Reporting sensor.
        sensor: String,
        /// Sample timestamp (plant tick).
        timestamp: u64,
        /// Measured value.
        value: f64,
    },
    /// One ambient (environment) reading.
    EnvSample {
        /// Machine identifier.
        machine: String,
        /// Reporting sensor.
        sensor: String,
        /// Sample timestamp (plant tick).
        timestamp: u64,
        /// Measured value.
        value: f64,
    },
    /// The job's part passed CAQ; the job is closed.
    JobComplete {
        /// Machine identifier.
        machine: String,
        /// Job identifier.
        job: String,
        /// Computer-aided quality result for the finished part.
        caq: CaqResult,
    },
}

impl Scenario {
    /// Flattens the generated plant into its event timeline.
    pub fn replay(&self) -> Vec<ReplayEvent> {
        replay_plant(&self.plant)
    }
}

/// Flattens a plant into the event stream that would have produced it.
/// Machines are emitted sequentially; within a machine, events follow the
/// ordering contract in the module docs.
pub(crate) fn replay_plant(plant: &Plant) -> Vec<ReplayEvent> {
    let mut events = Vec::new();
    for line in &plant.lines {
        let machine = line.machine_id.clone();
        events.push(ReplayEvent::MachineUp {
            machine: machine.clone(),
            sensors: line.sensors.clone(),
            redundancy: line.redundancy.clone(),
            env_sensors: line
                .environment
                .series
                .iter()
                .map(|s| s.name().to_string())
                .collect(),
        });

        // Environment samples, merged across series by timestamp (stable:
        // same-tick readings keep series order).
        let mut env: Vec<(u64, &str, f64)> = line
            .environment
            .series
            .iter()
            .flat_map(|s| {
                s.timestamps()
                    .iter()
                    .zip(s.values())
                    .map(move |(&t, &v)| (t, s.name(), v))
            })
            .collect();
        env.sort_by_key(|&(t, _, _)| t);
        let mut env_cursor = 0;
        let mut emit_env_until = |cut: Option<u64>, events: &mut Vec<ReplayEvent>| {
            while let Some(&(timestamp, sensor, value)) = env.get(env_cursor) {
                if cut.is_some_and(|c| timestamp >= c) {
                    break;
                }
                events.push(ReplayEvent::EnvSample {
                    machine: machine.clone(),
                    sensor: sensor.to_string(),
                    timestamp,
                    value,
                });
                env_cursor += 1;
            }
        };

        for job in &line.jobs {
            emit_env_until(Some(job.start), &mut events);
            events.push(ReplayEvent::JobStart {
                machine: machine.clone(),
                job: job.id.clone(),
                start: job.start,
                config: job.config.clone(),
            });
            for phase in &job.phases {
                events.push(ReplayEvent::PhaseStart {
                    machine: machine.clone(),
                    kind: phase.kind,
                    sensors: phase.series.iter().map(|s| s.name().to_string()).collect(),
                });
                let mut samples: Vec<(u64, &str, f64)> = phase
                    .series
                    .iter()
                    .flat_map(|s| {
                        s.timestamps()
                            .iter()
                            .zip(s.values())
                            .map(move |(&t, &v)| (t, s.name(), v))
                    })
                    .collect();
                samples.sort_by_key(|&(t, _, _)| t);
                for (timestamp, sensor, value) in samples {
                    events.push(ReplayEvent::PhaseSample {
                        machine: machine.clone(),
                        sensor: sensor.to_string(),
                        timestamp,
                        value,
                    });
                }
            }
            events.push(ReplayEvent::JobComplete {
                machine: machine.clone(),
                job: job.id.clone(),
                caq: job.caq.clone(),
            });
        }
        emit_env_until(None, &mut events);
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use std::collections::HashMap;

    fn small() -> Scenario {
        ScenarioBuilder::new(11)
            .machines(2)
            .jobs_per_machine(3)
            .redundancy(2)
            .phase_samples(20)
            .build()
    }

    #[test]
    fn event_counts_match_the_plant() {
        let s = small();
        let events = s.replay();
        let count = |f: fn(&ReplayEvent) -> bool| events.iter().filter(|e| f(e)).count();
        assert_eq!(
            count(|e| matches!(e, ReplayEvent::MachineUp { .. })),
            s.plant.machine_count()
        );
        assert_eq!(
            count(|e| matches!(e, ReplayEvent::JobStart { .. })),
            s.plant.job_count()
        );
        assert_eq!(
            count(|e| matches!(e, ReplayEvent::JobComplete { .. })),
            s.plant.job_count()
        );
        let plant_samples: usize = s
            .plant
            .lines
            .iter()
            .flat_map(|l| &l.jobs)
            .flat_map(|j| &j.phases)
            .flat_map(|p| &p.series)
            .map(|s| s.len())
            .sum();
        assert_eq!(
            count(|e| matches!(e, ReplayEvent::PhaseSample { .. })),
            plant_samples
        );
        let env_samples: usize = s
            .plant
            .lines
            .iter()
            .flat_map(|l| &l.environment.series)
            .map(|s| s.len())
            .sum();
        assert_eq!(
            count(|e| matches!(e, ReplayEvent::EnvSample { .. })),
            env_samples
        );
    }

    #[test]
    fn per_sensor_samples_are_strictly_ordered() {
        let events = small().replay();
        let mut last: HashMap<(String, String), u64> = HashMap::new();
        for e in &events {
            let (machine, sensor, ts) = match e {
                ReplayEvent::PhaseSample {
                    machine,
                    sensor,
                    timestamp,
                    ..
                }
                | ReplayEvent::EnvSample {
                    machine,
                    sensor,
                    timestamp,
                    ..
                } => (machine.clone(), sensor.clone(), *timestamp),
                _ => continue,
            };
            if let Some(&prev) = last.get(&(machine.clone(), sensor.clone())) {
                assert!(prev < ts, "sensor {sensor}: {prev} then {ts}");
            }
            last.insert((machine, sensor), ts);
        }
    }

    #[test]
    fn control_events_precede_their_samples() {
        let events = small().replay();
        // Track the open phase's sensors per machine; every PhaseSample
        // must name a sensor of the currently open phase.
        let mut open: HashMap<String, Vec<String>> = HashMap::new();
        for e in &events {
            match e {
                ReplayEvent::PhaseStart {
                    machine, sensors, ..
                } => {
                    open.insert(machine.clone(), sensors.clone());
                }
                ReplayEvent::JobComplete { machine, .. } => {
                    open.remove(machine);
                }
                ReplayEvent::PhaseSample {
                    machine, sensor, ..
                } => {
                    let sensors = open.get(machine).expect("phase open");
                    assert!(sensors.contains(sensor), "{sensor} not in open phase");
                }
                _ => {}
            }
        }
    }
}
