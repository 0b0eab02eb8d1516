//! Algorithm selection per level (`ChooseAlgorithm`).
//!
//! Section 2 of the paper: the levels "have their different requirements
//! towards the used algorithms, e.g., in terms of data types, calculation
//! speed, and dimensionality", and Section 6: "the algorithm should be
//! selected with respect to the resolution best fitting to a production
//! layer". [`AlgorithmPolicy`] is that mapping, defaulting to:
//!
//! | Level | Default algorithm | Rationale |
//! |---|---|---|
//! | phase | AR(3) prediction error (PM) | high-resolution streams need fast point scorers |
//! | job | PCA reconstruction error (DA) | high-dimensional setup + CAQ vectors |
//! | environment | sliding-window z-score | slow ambient drift, cheap streaming check |
//! | production line | robust z over job-feature series | short series (one point per job) |
//! | production | cross-machine profile over machine summaries | whole-series comparison across machines |
//!
//! The policy **holds specs**: each level's choice is a bare [`AlgoSpec`]
//! (a registry key plus named parameters), and every consumer hands it
//! straight to [`hierod_detect::engine::build`], which resolves it against
//! the Table-1 registry and the supplemental catalog. There is no second
//! list of algorithms in this crate, so a new detector only needs a
//! registry entry, and any entry of the right granularity — e.g.
//! `"som(width=6, height=6)".parse()?` at the job level — can be chosen.
//! A misspelt key, an undeclared parameter or an entry of the wrong
//! granularity is a typed `InvalidParameter` when the policy is first
//! resolved, before any scoring runs.
//!
//! Detection thresholds are expressed in **robust z-units of the score
//! distribution** (MADs above the median score), which makes one threshold
//! scale work across algorithms with different raw score scales.

use hierod_detect::engine::AlgoSpec;
use hierod_hierarchy::Level;

/// Phase-level choice: score each series on its own, or learn a
/// per-(machine, phase, sensor) profile across the jobs and score each
/// execution against it (the paper's §3 "profile similarity" in prose:
/// "compare a normal profile with new time points").
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseChoice {
    /// Independent per-series scoring with a point-kind registry entry.
    PerSeries(AlgoSpec),
    /// Cross-job profile similarity (needs ≥ 2 executions per profile;
    /// groups with fewer fall back to zero scores).
    ProfileAcrossJobs,
}

/// The per-level algorithm mapping plus detection thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmPolicy {
    /// Phase-level (①) algorithm.
    pub phase: PhaseChoice,
    /// Job-level (②) vector algorithm.
    pub job: AlgoSpec,
    /// Environment-level (③) point algorithm.
    pub environment: AlgoSpec,
    /// Production-line-level (④) point algorithm over job-feature series.
    pub line: AlgoSpec,
    /// Production-level (⑤) algorithm over whole machine-summary series.
    pub production: AlgoSpec,
    /// Detection threshold per level, in robust z-units of the score
    /// distribution (indexed by `Level::number() - 1`).
    pub thresholds: [f64; 5],
    /// Temporal tolerance (samples) when matching outliers across
    /// corresponding sensors for support.
    pub support_window: usize,
}

impl Default for AlgorithmPolicy {
    fn default() -> Self {
        Self {
            phase: PhaseChoice::PerSeries(AlgoSpec::new("ar").with("order", 3)),
            job: AlgoSpec::new("pca").with("components", 2),
            environment: AlgoSpec::new("sliding-z").with("window", 48),
            line: AlgoSpec::new("robust-z"),
            production: AlgoSpec::new("cross-machine-profile"),
            thresholds: [6.0, 3.5, 6.0, 3.5, 2.0],
            support_window: 8,
        }
    }
}

impl AlgorithmPolicy {
    /// The threshold for a level.
    pub fn threshold(&self, level: Level) -> f64 {
        let [phase, job, environment, line, production] = self.thresholds;
        match level {
            Level::Phase => phase,
            Level::Job => job,
            Level::Environment => environment,
            Level::ProductionLine => line,
            Level::Production => production,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierod_detect::engine;

    #[test]
    fn default_policy_builds_all_scorers() {
        let p = AlgorithmPolicy::default();
        let PhaseChoice::PerSeries(phase) = &p.phase else {
            panic!("the default phase choice is per-series");
        };
        for spec in [phase, &p.environment, &p.line] {
            assert!(engine::build(spec).unwrap().into_point().is_ok(), "{spec}");
        }
        assert!(engine::build(&p.job).unwrap().into_vector().is_ok());
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, 2.0, 3.0, 5.0];
        let c = [9.0, 9.0, 9.0, 9.0];
        let production = engine::build(&p.production).unwrap();
        assert!(production.score_collection(&[&a, &b, &c], 8).is_ok());
    }

    #[test]
    fn thresholds_indexed_by_level() {
        let p = AlgorithmPolicy::default();
        assert_eq!(p.threshold(Level::Phase), 6.0);
        assert_eq!(p.threshold(Level::Production), 2.0);
    }
}
