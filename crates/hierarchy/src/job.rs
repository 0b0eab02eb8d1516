//! Jobs — the paper's level ②.
//!
//! "In the job level, a whole production process is displayed. A job may
//! consist of several phases and it starts with a setup and ends with a
//! computer-aided quality (CAQ) check. During the setup, parameters are
//! selected and the job is prepared."

use std::sync::Arc;

use crate::caq::CaqResult;
use crate::phase::{Phase, PhaseKind};

/// The setup (job configuration) selected before a job runs:
/// a named high-dimensional parameter vector (layer height, laser power
/// setpoint, hatch spacing, …).
#[derive(Debug, Clone, PartialEq)]
pub struct JobConfig {
    /// Parameter names, parallel to `values`.
    pub names: Vec<String>,
    /// Parameter values.
    pub values: Vec<f64>,
}

impl JobConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    /// Panics if `names` and `values` lengths differ.
    pub fn new(names: Vec<String>, values: Vec<f64>) -> Self {
        assert_eq!(
            names.len(),
            values.len(),
            "JobConfig names/values length mismatch"
        );
        Self { names, values }
    }

    /// Number of parameters.
    pub fn dims(&self) -> usize {
        self.values.len()
    }

    /// Value of a named parameter.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.names
            .iter()
            .zip(&self.values)
            .find(|(n, _)| *n == name)
            .map(|(_, &v)| v)
    }
}

/// One production job: id, start time, setup, executed phases, and the
/// closing CAQ check.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Job identifier, unique within its production line.
    pub id: String,
    /// Wall-clock start tick.
    pub start: u64,
    /// The selected setup.
    pub config: JobConfig,
    /// Executed phases in process order.
    pub phases: Vec<Phase>,
    /// Quality check closing the job.
    pub caq: CaqResult,
}

impl Job {
    /// Looks up a phase by kind.
    pub fn phase(&self, kind: PhaseKind) -> Option<&Phase> {
        self.phases.iter().find(|p| p.kind == kind)
    }

    /// Mutable phase lookup (used by injectors).
    pub fn phase_mut(&mut self, kind: PhaseKind) -> Option<&mut Phase> {
        self.phases.iter_mut().find(|p| p.kind == kind)
    }

    /// The job-level feature vector the paper's level ② exposes: setup
    /// parameters followed by CAQ measurements. This is the
    /// "high-dimensional data" the job-level detectors consume.
    pub fn feature_vector(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.config.dims() + self.caq.dims());
        v.extend_from_slice(&self.config.values);
        v.extend_from_slice(&self.caq.values);
        v
    }

    /// Shared-storage variant of [`Self::feature_vector`]: the level views
    /// derive each job's row once and alias it (`Arc`) across the job,
    /// production-line and production views instead of re-deriving it per
    /// level.
    pub fn feature_vector_shared(&self) -> Arc<[f64]> {
        self.feature_vector().into()
    }

    /// Names for [`Self::feature_vector`] components.
    pub fn feature_names(&self) -> Vec<String> {
        let mut v = Vec::with_capacity(self.config.dims() + self.caq.dims());
        v.extend(self.config.names.iter().map(|n| format!("setup.{n}")));
        v.extend(self.caq.names.iter().map(|n| format!("caq.{n}")));
        v
    }

    /// Total phase-level sample volume of the job.
    pub fn sample_count(&self) -> usize {
        self.phases.iter().map(Phase::sample_count).sum()
    }

    /// Time span covered by the job's phases, if any.
    pub fn span(&self) -> Option<(u64, u64)> {
        let mut lo = u64::MAX;
        let mut hi = 0_u64;
        let mut any = false;
        for p in &self.phases {
            if let Some((a, b)) = p.span() {
                lo = lo.min(a);
                hi = hi.max(b);
                any = true;
            }
        }
        any.then_some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierod_timeseries::TimeSeries;

    fn job() -> Job {
        Job {
            id: "j0".into(),
            start: 100,
            config: JobConfig::new(
                vec!["layer_height".into(), "laser_setpoint".into()],
                vec![0.03, 200.0],
            ),
            phases: vec![Phase::new(
                PhaseKind::WarmUp,
                vec![TimeSeries::regular("s", 100, 1, vec![1.0, 2.0]).unwrap()],
                vec![],
            )],
            caq: CaqResult::new(vec!["density".into()], vec![0.99], true),
        }
    }

    #[test]
    fn config_lookup() {
        let j = job();
        assert_eq!(j.config.value("layer_height"), Some(0.03));
        assert_eq!(j.config.value("zzz"), None);
        assert_eq!(j.config.dims(), 2);
    }

    #[test]
    fn feature_vector_concatenates_setup_and_caq() {
        let j = job();
        assert_eq!(j.feature_vector(), vec![0.03, 200.0, 0.99]);
        assert_eq!(
            j.feature_names(),
            vec!["setup.layer_height", "setup.laser_setpoint", "caq.density"]
        );
    }

    #[test]
    fn phase_lookup_and_volume() {
        let mut j = job();
        assert!(j.phase(PhaseKind::WarmUp).is_some());
        assert!(j.phase(PhaseKind::Cooling).is_none());
        assert!(j.phase_mut(PhaseKind::WarmUp).is_some());
        assert_eq!(j.sample_count(), 2);
        assert_eq!(j.span(), Some((100, 101)));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn config_length_mismatch_panics() {
        JobConfig::new(vec!["a".into()], vec![1.0, 2.0]);
    }
}
