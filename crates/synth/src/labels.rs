//! Ground-truth labels for generated scenarios.

use std::collections::BTreeSet;

use hierod_hierarchy::PhaseKind;

use crate::faults::FaultKind;
use crate::inject::{OutlierType, Scope};

/// One injected anomaly, fully located in the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionRecord {
    /// Machine id.
    pub machine: String,
    /// Job id.
    pub job: String,
    /// Phase the injection landed in.
    pub phase: PhaseKind,
    /// Primary afflicted sensor.
    pub sensor: String,
    /// All sensors that received the effect (== redundancy group for
    /// process anomalies, just `sensor` for measurement errors).
    pub affected_sensors: Vec<String>,
    /// Outlier shape.
    pub outlier: OutlierType,
    /// Fault vs. process event.
    pub scope: Scope,
    /// Sample index (within the phase series) where the event starts.
    pub start_idx: usize,
    /// Number of effectively anomalous samples.
    pub len: usize,
    /// Peak magnitude.
    pub magnitude: f64,
}

impl InjectionRecord {
    /// `true` if this injection is a genuine process anomaly.
    pub(crate) fn is_process_anomaly(&self) -> bool {
        self.scope == Scope::ProcessAnomaly
    }
}

/// An injected anomaly on an environment-level series (no job/phase
/// structure: ambient series span the machine's whole timeline).
#[derive(Debug, Clone, PartialEq)]
pub struct EnvInjectionRecord {
    /// Machine id.
    pub machine: String,
    /// Environment sensor name.
    pub sensor: String,
    /// Outlier shape.
    pub outlier: OutlierType,
    /// Sample index in the environment series where the event starts.
    pub start_idx: usize,
    /// Number of effectively anomalous samples.
    pub len: usize,
    /// Peak magnitude.
    pub magnitude: f64,
}

/// One injected channel fault (see [`crate::faults`]): a slow gauge
/// degradation on a single sensor channel, fully located in the
/// hierarchy. Channel faults are measurement-side by construction —
/// exactly one channel of a redundant group is afflicted.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelFaultRecord {
    /// Machine id.
    pub machine: String,
    /// Job id.
    pub job: String,
    /// Phase the fault landed in.
    pub phase: PhaseKind,
    /// The afflicted sensor channel.
    pub sensor: String,
    /// Fault shape.
    pub kind: FaultKind,
    /// Sample index (within the phase series) where the fault starts.
    pub start_idx: usize,
    /// Number of affected samples.
    pub len: usize,
    /// Peak magnitude (0 carries no meaning for stuck-at/dropout/rate
    /// faults, whose effect is value-replacement rather than additive).
    pub magnitude: f64,
}

/// Ground truth of one generated scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroundTruth {
    /// All phase-level injections, in generation order.
    pub injections: Vec<InjectionRecord>,
    /// Environment-level injections (HVAC excursions etc.).
    pub environment_injections: Vec<EnvInjectionRecord>,
    /// Channel faults injected by
    /// [`apply_channel_faults`](crate::apply_channel_faults) (empty when
    /// fault injection is disabled).
    pub channel_faults: Vec<ChannelFaultRecord>,
}

impl GroundTruth {
    /// Number of injections.
    pub fn len(&self) -> usize {
        self.injections.len()
    }

    /// `true` if nothing was injected.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// Point-level boolean labels of channel faults for one sensor
    /// series of length `n` — the ground truth the drift monitors and
    /// the fused support term are evaluated against.
    pub fn channel_fault_labels(
        &self,
        machine: &str,
        job: &str,
        phase: PhaseKind,
        sensor: &str,
        n: usize,
    ) -> Vec<bool> {
        let mut labels = vec![false; n];
        for r in &self.channel_faults {
            if r.machine != machine || r.job != job || r.phase != phase || r.sensor != sensor {
                continue;
            }
            let end = (r.start_idx + r.len).min(n);
            for l in labels.iter_mut().take(end).skip(r.start_idx.min(n)) {
                *l = true;
            }
        }
        labels
    }

    /// Injections affecting the given sensor series (machine + job + phase +
    /// sensor).
    pub(crate) fn for_series<'a>(
        &'a self,
        machine: &'a str,
        job: &'a str,
        phase: PhaseKind,
        sensor: &'a str,
    ) -> impl Iterator<Item = &'a InjectionRecord> {
        self.injections.iter().filter(move |r| {
            r.machine == machine
                && r.job == job
                && r.phase == phase
                && r.affected_sensors.iter().any(|s| s == sensor)
        })
    }

    /// Point-level boolean labels restricted to one injection scope
    /// (`None` = all scopes). The process-anomaly restriction is what the
    /// detection-quality experiment uses as ground truth: a sensor glitch
    /// is not a process event.
    pub fn point_labels_scoped(
        &self,
        machine: &str,
        job: &str,
        phase: PhaseKind,
        sensor: &str,
        n: usize,
        scope: Option<Scope>,
    ) -> Vec<bool> {
        let mut labels = vec![false; n];
        for r in self.for_series(machine, job, phase, sensor) {
            if let Some(s) = scope {
                if r.scope != s {
                    continue;
                }
            }
            let end = (r.start_idx + r.len).min(n);
            let span = labels.get_mut(r.start_idx.min(n)..end);
            for l in span.into_iter().flatten() {
                *l = true;
            }
        }
        labels
    }

    /// Ids `(machine, job)` of jobs containing at least one **process**
    /// anomaly — the job-level ground truth (measurement errors do not make
    /// a job anomalous).
    pub fn anomalous_jobs(&self) -> BTreeSet<(String, String)> {
        self.injections
            .iter()
            .filter(|r| r.is_process_anomaly())
            .map(|r| (r.machine.clone(), r.job.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(scope: Scope, sensor: &str, start: usize, len: usize) -> InjectionRecord {
        InjectionRecord {
            machine: "m0".into(),
            job: "j0".into(),
            phase: PhaseKind::Printing,
            sensor: sensor.into(),
            affected_sensors: vec![sensor.into()],
            outlier: OutlierType::Additive,
            scope,
            start_idx: start,
            len,
            magnitude: 5.0,
        }
    }

    #[test]
    fn point_labels_mark_event_window() {
        let gt = GroundTruth {
            injections: vec![record(Scope::ProcessAnomaly, "s0", 2, 3)],
            environment_injections: vec![],
            channel_faults: vec![],
        };
        let labels = gt.point_labels_scoped("m0", "j0", PhaseKind::Printing, "s0", 8, None);
        assert_eq!(
            labels,
            vec![false, false, true, true, true, false, false, false]
        );
        // Other sensor: no labels.
        let other = gt.point_labels_scoped("m0", "j0", PhaseKind::Printing, "s1", 8, None);
        assert!(other.iter().all(|&l| !l));
        // Other phase: no labels.
        let other = gt.point_labels_scoped("m0", "j0", PhaseKind::WarmUp, "s0", 8, None);
        assert!(other.iter().all(|&l| !l));
    }

    #[test]
    fn labels_clamp_to_series_length() {
        let gt = GroundTruth {
            injections: vec![record(Scope::ProcessAnomaly, "s0", 6, 10)],
            environment_injections: vec![],
            channel_faults: vec![],
        };
        let labels = gt.point_labels_scoped("m0", "j0", PhaseKind::Printing, "s0", 8, None);
        assert!(labels[6]);
        assert!(labels[7]);
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn affected_sensors_drive_series_lookup() {
        let mut r = record(Scope::ProcessAnomaly, "s0", 0, 1);
        r.affected_sensors = vec!["s0".into(), "s1".into()];
        let gt = GroundTruth {
            injections: vec![r],
            environment_injections: vec![],
            channel_faults: vec![],
        };
        assert_eq!(
            gt.for_series("m0", "j0", PhaseKind::Printing, "s1").count(),
            1
        );
    }

    #[test]
    fn job_level_truth_ignores_measurement_errors() {
        let gt = GroundTruth {
            injections: vec![record(Scope::MeasurementError, "s0", 0, 1), {
                let mut r = record(Scope::ProcessAnomaly, "s1", 0, 1);
                r.job = "j1".into();
                r
            }],
            environment_injections: vec![],
            channel_faults: vec![],
        };
        let jobs = gt.anomalous_jobs();
        assert_eq!(jobs.len(), 1);
        assert!(jobs.contains(&("m0".to_string(), "j1".to_string())));
    }

    #[test]
    fn empty_truth() {
        let gt = GroundTruth::default();
        assert!(gt.is_empty());
        assert_eq!(gt.len(), 0);
        assert!(gt.anomalous_jobs().is_empty());
    }
}
