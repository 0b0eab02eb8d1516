//! Production lines — the paper's level ④.
//!
//! "If jobs over time are investigated, the high-dimensional setup provides
//! also a time series. This layer is denoted as production line level."

use hierod_timeseries::TimeSeries;

use crate::environment::Environment;
use crate::job::Job;
use crate::sensor::{RedundancyGroup, Sensor};

/// One machine's production line: its sensor inventory, redundancy groups,
/// the jobs it ran (in time order), and its ambient environment.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductionLine {
    /// Machine identifier, unique within the plant.
    pub machine_id: String,
    /// Installed sensors.
    pub sensors: Vec<Sensor>,
    /// Redundancy groups over `sensors` (the "corresponding sensors").
    pub redundancy: Vec<RedundancyGroup>,
    /// Jobs in start-time order.
    pub jobs: Vec<Job>,
    /// Ambient context measured alongside production.
    pub environment: Environment,
}

impl ProductionLine {
    /// Looks up a job by id.
    pub fn job(&self, id: &str) -> Option<&Job> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// The redundancy group containing `sensor`, if any.
    pub fn group_of(&self, sensor: &str) -> Option<&RedundancyGroup> {
        self.redundancy.iter().find(|g| g.contains(sensor))
    }

    /// The production-line-level series for one job-feature component:
    /// feature `feature_idx` of every job's feature vector, over job start
    /// times. This is the paper's "the high-dimensional setup provides also
    /// a time series".
    ///
    /// Returns `None` when a job lacks the component or there are no jobs.
    pub fn feature_series(&self, feature_idx: usize) -> Option<TimeSeries> {
        if self.jobs.is_empty() {
            return None;
        }
        let mut ts = Vec::with_capacity(self.jobs.len());
        let mut vals = Vec::with_capacity(self.jobs.len());
        for j in &self.jobs {
            let fv = j.feature_vector();
            vals.push(*fv.get(feature_idx)?);
            ts.push(j.start);
        }
        TimeSeries::new(
            format!("{}.feature{}", self.machine_id, feature_idx),
            ts,
            vals,
        )
        .ok()
    }

    /// Number of job-feature components (0 when no jobs).
    pub fn feature_dims(&self) -> usize {
        self.jobs
            .first()
            .map(|j| j.feature_vector().len())
            .unwrap_or(0)
    }

    /// Total phase-level sample volume across jobs.
    pub(crate) fn sample_count(&self) -> usize {
        self.jobs.iter().map(Job::sample_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caq::CaqResult;
    use crate::job::JobConfig;
    use crate::sensor::SensorKind;

    fn line() -> ProductionLine {
        let mk_job = |id: &str, start: u64, caq_val: f64| Job {
            id: id.into(),
            start,
            config: JobConfig::new(vec!["p".into()], vec![start as f64]),
            phases: vec![],
            caq: CaqResult::new(vec!["q".into()], vec![caq_val], true),
        };
        ProductionLine {
            machine_id: "m0".into(),
            sensors: vec![Sensor::new("m0.bed.0", SensorKind::BedTemperature)],
            redundancy: vec![RedundancyGroup::new(
                SensorKind::BedTemperature,
                vec!["m0.bed.0".into(), "m0.bed.1".into()],
            )],
            jobs: vec![mk_job("j0", 10, 0.9), mk_job("j1", 20, 0.8)],
            environment: Environment::default(),
        }
    }

    #[test]
    fn job_lookup() {
        let l = line();
        assert!(l.job("j1").is_some());
        assert!(l.job("zzz").is_none());
    }

    #[test]
    fn group_lookup() {
        let l = line();
        assert!(l.group_of("m0.bed.1").is_some());
        assert!(l.group_of("other").is_none());
    }

    #[test]
    fn feature_series_tracks_jobs_over_time() {
        let l = line();
        assert_eq!(l.feature_dims(), 2);
        // Feature 0 = setup parameter (== start time in this fixture).
        let f0 = l.feature_series(0).unwrap();
        assert_eq!(f0.timestamps(), &[10, 20]);
        assert_eq!(f0.values(), &[10.0, 20.0]);
        // Feature 1 = CAQ value.
        let f1 = l.feature_series(1).unwrap();
        assert_eq!(f1.values(), &[0.9, 0.8]);
        assert!(f1.name().contains("m0"));
        // Out-of-range feature index.
        assert!(l.feature_series(5).is_none());
    }

    #[test]
    fn empty_line_has_no_features() {
        let mut l = line();
        l.jobs.clear();
        assert_eq!(l.feature_dims(), 0);
        assert!(l.feature_series(0).is_none());
        assert_eq!(l.sample_count(), 0);
    }
}
