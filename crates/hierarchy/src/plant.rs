//! The plant — the paper's level ⑤.
//!
//! "Finally, the production level includes data from different machines and
//! represents therefore the most complex scenario."

use crate::line::ProductionLine;

/// A production plant: several machines' production lines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plant {
    /// Plant name.
    pub name: String,
    /// The machines' lines.
    pub lines: Vec<ProductionLine>,
}

impl Plant {
    /// Creates a plant.
    pub fn new(name: impl Into<String>, lines: Vec<ProductionLine>) -> Self {
        Self {
            name: name.into(),
            lines,
        }
    }

    /// Looks up a line by machine id.
    pub fn line(&self, machine_id: &str) -> Option<&ProductionLine> {
        self.lines.iter().find(|l| l.machine_id == machine_id)
    }

    /// Number of machines.
    pub fn machine_count(&self) -> usize {
        self.lines.len()
    }

    /// Total job count across machines.
    pub fn job_count(&self) -> usize {
        self.lines.iter().map(|l| l.jobs.len()).sum()
    }

    /// Total phase-level sample volume across the plant.
    pub fn sample_count(&self) -> usize {
        self.lines.iter().map(ProductionLine::sample_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::Environment;

    fn plant() -> Plant {
        let mk_line = |id: &str| ProductionLine {
            machine_id: id.into(),
            sensors: vec![],
            redundancy: vec![],
            jobs: vec![],
            environment: Environment::default(),
        };
        Plant::new("demo", vec![mk_line("m0"), mk_line("m1")])
    }

    #[test]
    fn lookups() {
        let p = plant();
        assert_eq!(p.machine_count(), 2);
        assert!(p.line("m1").is_some());
        assert!(p.line("m9").is_none());
        assert_eq!(p.job_count(), 0);
        assert_eq!(p.sample_count(), 0);
    }

    #[test]
    fn default_plant_is_empty() {
        let p = Plant::default();
        assert_eq!(p.machine_count(), 0);
        assert!(p.name.is_empty());
    }
}
