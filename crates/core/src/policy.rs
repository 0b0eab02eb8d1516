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
//! The enums here are a **facade**: each variant is a typed, documented
//! shorthand that lowers to an [`AlgoSpec`] (a registry key plus named
//! parameters) via its `spec()` method. All scorer construction goes
//! through [`hierod_detect::engine::build`], which resolves specs against
//! the Table-1 registry and the supplemental catalog — there are no
//! per-algorithm construction match arms in this crate, so a new detector
//! only needs a registry entry, not a policy change. Callers that want an
//! algorithm outside the enums can bypass them entirely and hand the
//! engine a spec such as `"som(width=6, height=6)"`.
//!
//! Detection thresholds are expressed in **robust z-units of the score
//! distribution** (MADs above the median score), which makes one threshold
//! scale work across algorithms with different raw score scales.

use hierod_detect::engine::{self, AlgoSpec};
use hierod_detect::{PointScorer, Result, VectorScorer};
use hierod_hierarchy::Level;

/// Point-granularity algorithm choices (phase / environment / line levels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PointAlgo {
    /// AR(p) prediction error (Table-1 PM row).
    Autoregressive {
        /// Model order.
        order: usize,
    },
    /// Sliding-window z-score baseline.
    SlidingZ {
        /// Trailing window length.
        window: usize,
    },
    /// Global z-score baseline.
    GlobalZ,
    /// Robust (median/MAD) z-score baseline.
    RobustZ,
    /// IQR fence baseline.
    Iqr,
    /// Histogram deviants (Table-1 ITM row).
    Deviants {
        /// Histogram buckets.
        buckets: usize,
    },
}

impl PointAlgo {
    /// Lowers the choice to its engine spec.
    pub fn spec(&self) -> AlgoSpec {
        match *self {
            PointAlgo::Autoregressive { order } => AlgoSpec::new("ar").with("order", order),
            PointAlgo::SlidingZ { window } => AlgoSpec::new("sliding-z").with("window", window),
            PointAlgo::GlobalZ => AlgoSpec::new("global-z"),
            PointAlgo::RobustZ => AlgoSpec::new("robust-z"),
            PointAlgo::Iqr => AlgoSpec::new("iqr"),
            PointAlgo::Deviants { buckets } => AlgoSpec::new("deviants").with("buckets", buckets),
        }
    }

    /// Builds the scorer through the engine registry.
    ///
    /// # Errors
    /// Propagates invalid hyper-parameters.
    pub fn build(&self) -> Result<Box<dyn PointScorer + Send + Sync>> {
        engine::build(&self.spec())?.into_point()
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PointAlgo::Autoregressive { .. } => "AR prediction error",
            PointAlgo::SlidingZ { .. } => "sliding z-score",
            PointAlgo::GlobalZ => "global z-score",
            PointAlgo::RobustZ => "robust z-score",
            PointAlgo::Iqr => "IQR fence",
            PointAlgo::Deviants { .. } => "histogram deviants",
        }
    }
}

/// Phase-level choice: score each series on its own, or learn a
/// per-(machine, phase, sensor) profile across the jobs and score each
/// execution against it (the paper's §3 "profile similarity" in prose:
/// "compare a normal profile with new time points").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseChoice {
    /// Independent per-series scoring with a [`PointAlgo`].
    PerSeries(PointAlgo),
    /// Cross-job profile similarity (needs ≥ 2 executions per profile;
    /// groups with fewer fall back to zero scores).
    ProfileAcrossJobs,
}

impl PhaseChoice {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PhaseChoice::PerSeries(a) => a.label(),
            PhaseChoice::ProfileAcrossJobs => "profile similarity (PS)",
        }
    }
}

/// Vector-granularity algorithm choices (job level).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VectorAlgo {
    /// PCA reconstruction error (Table-1 DA row).
    Pca {
        /// Retained components.
        components: usize,
    },
    /// Gaussian mixture negative log-likelihood (Table-1 DA row).
    Gmm {
        /// Mixture components.
        components: usize,
    },
    /// One-class SVM / SVDD (Table-1 DA row).
    Ocsvm {
        /// Outlier fraction.
        nu: f64,
    },
    /// Self-organizing map quantization error (Table-1 DA row).
    Som,
    /// Single-linkage small-cluster score (Table-1 DA row).
    SingleLinkage,
    /// ADMIT-style leader clustering (Table-1 DA row).
    DynamicClustering,
    /// OLAP cube cell rarity (Table-1 UOA row).
    OlapCube {
        /// Buckets per dimension.
        buckets: usize,
    },
    /// Local outlier factor (related work, paper §5 / citation \[29\]).
    Lof {
        /// Neighborhood size.
        k: usize,
    },
    /// Reverse-kNN scarcity (related work, citation \[34\]).
    ReverseKnn {
        /// Neighborhood size.
        k: usize,
    },
    /// k-NN distance (the classical distance-based baseline of §5).
    KnnDistance {
        /// Neighborhood size.
        k: usize,
    },
}

impl VectorAlgo {
    /// Lowers the choice to its engine spec.
    pub fn spec(&self) -> AlgoSpec {
        match *self {
            VectorAlgo::Pca { components } => AlgoSpec::new("pca").with("components", components),
            VectorAlgo::Gmm { components } => AlgoSpec::new("gmm").with("components", components),
            VectorAlgo::Ocsvm { nu } => AlgoSpec::new("ocsvm").with("nu", nu),
            VectorAlgo::Som => AlgoSpec::new("som"),
            VectorAlgo::SingleLinkage => AlgoSpec::new("single-linkage"),
            VectorAlgo::DynamicClustering => AlgoSpec::new("dynamic-clustering"),
            VectorAlgo::OlapCube { buckets } => AlgoSpec::new("olap-cube").with("buckets", buckets),
            VectorAlgo::Lof { k } => AlgoSpec::new("lof").with("k", k),
            VectorAlgo::ReverseKnn { k } => AlgoSpec::new("rknn").with("k", k),
            VectorAlgo::KnnDistance { k } => AlgoSpec::new("knn").with("k", k),
        }
    }

    /// Builds the scorer through the engine registry.
    ///
    /// # Errors
    /// Propagates invalid hyper-parameters.
    pub fn build(&self) -> Result<Box<dyn VectorScorer + Send + Sync>> {
        engine::build(&self.spec())?.into_vector()
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            VectorAlgo::Pca { .. } => "PCA reconstruction error",
            VectorAlgo::Gmm { .. } => "Gaussian mixture NLL",
            VectorAlgo::Ocsvm { .. } => "one-class SVM",
            VectorAlgo::Som => "SOM quantization error",
            VectorAlgo::SingleLinkage => "single-linkage clustering",
            VectorAlgo::DynamicClustering => "dynamic clustering",
            VectorAlgo::OlapCube { .. } => "OLAP cube",
            VectorAlgo::Lof { .. } => "local outlier factor",
            VectorAlgo::ReverseKnn { .. } => "reverse k-NN",
            VectorAlgo::KnnDistance { .. } => "k-NN distance",
        }
    }
}

/// Series-granularity algorithm choices (production level).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SeriesAlgo {
    /// Phased k-means over PAA-embedded series (Table-1 DA row).
    PhasedKMeans {
        /// Clusters.
        k: usize,
        /// PAA segments per series.
        segments: usize,
    },
    /// Spectral vibration signatures (Table-1 DA row).
    Vibration,
    /// Cross-machine profile similarity: the §3 profile idea applied across
    /// machines rather than across jobs (see
    /// [`hierod_detect::related::CrossMachineProfile`]); surfaces slow
    /// per-machine concept drift (experiment E8).
    CrossMachineProfile,
}

impl SeriesAlgo {
    /// Lowers the choice to its engine spec.
    pub fn spec(&self) -> AlgoSpec {
        match *self {
            SeriesAlgo::PhasedKMeans { k, segments } => AlgoSpec::new("phased-kmeans")
                .with("k", k)
                .with("segments", segments),
            SeriesAlgo::Vibration => AlgoSpec::new("vibration"),
            SeriesAlgo::CrossMachineProfile => AlgoSpec::new("cross-machine-profile"),
        }
    }

    /// Scores a collection of whole series through the engine.
    ///
    /// # Errors
    /// Propagates scorer errors (e.g. too few series).
    pub fn score(&self, collection: &[&[f64]]) -> Result<Vec<f64>> {
        let segments = match *self {
            SeriesAlgo::PhasedKMeans { segments, .. } => segments,
            _ => 8,
        };
        engine::build(&self.spec())?.score_collection(collection, segments)
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            SeriesAlgo::PhasedKMeans { .. } => "phased k-means",
            SeriesAlgo::Vibration => "vibration signature",
            SeriesAlgo::CrossMachineProfile => "cross-machine profile",
        }
    }
}

/// The per-level algorithm mapping plus detection thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmPolicy {
    /// Phase-level (①) algorithm.
    pub phase: PhaseChoice,
    /// Job-level (②) vector algorithm.
    pub job: VectorAlgo,
    /// Environment-level (③) point algorithm.
    pub environment: PointAlgo,
    /// Production-line-level (④) point algorithm over job-feature series.
    pub line: PointAlgo,
    /// Production-level (⑤) series algorithm.
    pub production: SeriesAlgo,
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
            phase: PhaseChoice::PerSeries(PointAlgo::Autoregressive { order: 3 }),
            job: VectorAlgo::Pca { components: 2 },
            environment: PointAlgo::SlidingZ { window: 48 },
            line: PointAlgo::RobustZ,
            production: SeriesAlgo::CrossMachineProfile,
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

    /// The label of the algorithm chosen for a level (`ChooseAlgorithm`).
    pub fn algorithm_label(&self, level: Level) -> &'static str {
        match level {
            Level::Phase => PhaseChoice::label(&self.phase),
            Level::Job => self.job.label(),
            Level::Environment => self.environment.label(),
            Level::ProductionLine => self.line.label(),
            Level::Production => self.production.label(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_builds_all_scorers() {
        let p = AlgorithmPolicy::default();
        match p.phase {
            PhaseChoice::PerSeries(algo) => assert!(algo.build().is_ok()),
            PhaseChoice::ProfileAcrossJobs => {}
        }
        assert!(p.job.build().is_ok());
        assert!(p.environment.build().is_ok());
        assert!(p.line.build().is_ok());
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, 2.0, 3.0, 5.0];
        let c = [9.0, 9.0, 9.0, 9.0];
        assert!(p.production.score(&[&a, &b, &c]).is_ok());
    }

    #[test]
    fn every_point_algo_builds_and_scores() {
        let algos = [
            PointAlgo::Autoregressive { order: 2 },
            PointAlgo::SlidingZ { window: 8 },
            PointAlgo::GlobalZ,
            PointAlgo::RobustZ,
            PointAlgo::Iqr,
            PointAlgo::Deviants { buckets: 4 },
        ];
        let series: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
        for a in algos {
            let scorer = a.build().unwrap();
            let scores = scorer.score_points(&series).unwrap();
            assert_eq!(scores.len(), series.len(), "{}", a.label());
        }
    }

    #[test]
    fn every_vector_algo_builds_and_scores() {
        let algos = [
            VectorAlgo::Pca { components: 1 },
            VectorAlgo::Gmm { components: 2 },
            VectorAlgo::Ocsvm { nu: 0.2 },
            VectorAlgo::Som,
            VectorAlgo::SingleLinkage,
            VectorAlgo::DynamicClustering,
            VectorAlgo::OlapCube { buckets: 3 },
            VectorAlgo::Lof { k: 3 },
            VectorAlgo::ReverseKnn { k: 3 },
            VectorAlgo::KnnDistance { k: 3 },
        ];
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64, (i % 3) as f64])
            .collect();
        for a in algos {
            let scorer = a.build().unwrap();
            let scores = scorer.score_rows(&hierod_detect::row_refs(&rows)).unwrap();
            assert_eq!(scores.len(), rows.len(), "{}", a.label());
        }
    }

    #[test]
    fn specs_roundtrip_through_the_engine_display_form() {
        // The facade's spec and its textual form resolve identically —
        // the enums are pure sugar over the engine's data path.
        let algo = VectorAlgo::OlapCube { buckets: 5 };
        let text = algo.spec().to_string();
        assert_eq!(text, "olap-cube(buckets=5)");
        let reparsed: AlgoSpec = text.parse().unwrap();
        assert_eq!(reparsed, algo.spec());
        assert!(engine::build(&reparsed).is_ok());
    }

    #[test]
    fn thresholds_indexed_by_level() {
        let p = AlgorithmPolicy::default();
        assert_eq!(p.threshold(Level::Phase), 6.0);
        assert_eq!(p.threshold(Level::Production), 2.0);
    }

    #[test]
    fn labels_are_distinct_per_level_choice() {
        let p = AlgorithmPolicy::default();
        assert_eq!(p.algorithm_label(Level::Phase), "AR prediction error");
        assert_eq!(p.algorithm_label(Level::Job), "PCA reconstruction error");
        assert_eq!(
            p.algorithm_label(Level::Production),
            "cross-machine profile"
        );
    }

    #[test]
    fn invalid_parameters_propagate() {
        assert!(PointAlgo::Autoregressive { order: 0 }.build().is_err());
        assert!(VectorAlgo::Ocsvm { nu: 2.0 }.build().is_err());
        assert!(VectorAlgo::OlapCube { buckets: 1 }.build().is_err());
        assert!(VectorAlgo::Lof { k: 0 }.build().is_err());
        assert!(VectorAlgo::ReverseKnn { k: 0 }.build().is_err());
    }

    #[test]
    fn phase_choice_labels() {
        assert_eq!(
            PhaseChoice::PerSeries(PointAlgo::GlobalZ).label(),
            "global z-score"
        );
        assert_eq!(
            PhaseChoice::ProfileAcrossJobs.label(),
            "profile similarity (PS)"
        );
    }
}
