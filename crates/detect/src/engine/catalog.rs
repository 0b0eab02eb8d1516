//! Spec resolution: Table-1 registry + supplemental catalog.
//!
//! The Table-1 registry ([`crate::registry::registry`]) covers the paper's
//! 21 rows. The supplemental catalog adds the statistical baselines
//! (§4-style z-scores and fences), the related-work detectors (LOF, kNN,
//! reverse-kNN — paper Section 5), and the cross-machine profile used at
//! the production level — everything the hierarchy's default policies can
//! select that is not itself a Table-1 row. [`find`] and [`build`] resolve
//! an [`AlgoSpec`] against the union of both; [`build_online`] resolves the
//! same spec into its bounded-memory streaming form.

use crate::api::{DetectError, Detector, Result};
use crate::da::KMeans;
use crate::engine::{AlgoSpec, BoxedScorer};
use crate::online::{IncrementalAr, OnlineScorer, RollingRobustZ, WindowedBatch};
use crate::registry::{registry, RegistryEntry};
use crate::related::{
    CrossMachineProfile, KnnDistance, LocalOutlierFactor, PairDifference, PairRegression,
    ReverseKnn,
};
use crate::stat::{GlobalZScore, IqrFence, RobustZScore, SlidingZScore};

fn build_sliding_z(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Point(Box::new(SlidingZScore::new(
        s.get_usize("window", 48)?,
    )?)))
}

fn build_global_z(_s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Point(Box::new(GlobalZScore)))
}

fn build_robust_z(_s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Point(Box::new(RobustZScore)))
}

fn build_iqr(_s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Point(Box::new(IqrFence)))
}

fn build_kmeans(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Vector(Box::new(KMeans::new(
        s.get_usize("k", 4)?,
    )?)))
}

fn build_lof(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Vector(Box::new(LocalOutlierFactor::new(
        s.get_usize("k", 5)?,
    )?)))
}

fn build_knn(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Vector(Box::new(KnnDistance::new(
        s.get_usize("k", 5)?,
    )?)))
}

fn build_rknn(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Vector(Box::new(ReverseKnn::new(
        s.get_usize("k", 5)?,
    )?)))
}

fn build_cross_machine_profile(_s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Series(Box::new(CrossMachineProfile)))
}

fn build_pair_regression(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Vector(Box::new(PairRegression::new(
        s.get_usize("signed", 0)? != 0,
    ))))
}

fn build_pair_diff(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Vector(Box::new(PairDifference::new(
        s.get_usize("signed", 0)? != 0,
    ))))
}

/// The supplemental (non-Table-1) catalog entries.
pub fn supplemental() -> Vec<RegistryEntry> {
    vec![
        RegistryEntry {
            info: SlidingZScore::default().info(),
            module: "hierod_detect::stat::SlidingZScore",
            key: "sliding-z",
            params: &["window"],
            build: build_sliding_z,
        },
        RegistryEntry {
            info: GlobalZScore.info(),
            module: "hierod_detect::stat::GlobalZScore",
            key: "global-z",
            params: &[],
            build: build_global_z,
        },
        RegistryEntry {
            info: RobustZScore.info(),
            module: "hierod_detect::stat::RobustZScore",
            key: "robust-z",
            params: &[],
            build: build_robust_z,
        },
        RegistryEntry {
            info: IqrFence.info(),
            module: "hierod_detect::stat::IqrFence",
            key: "iqr",
            params: &[],
            build: build_iqr,
        },
        RegistryEntry {
            info: KMeans::default().info(),
            module: "hierod_detect::da::KMeans",
            key: "kmeans",
            params: &["k"],
            build: build_kmeans,
        },
        RegistryEntry {
            info: LocalOutlierFactor::default().info(),
            module: "hierod_detect::related::LocalOutlierFactor",
            key: "lof",
            params: &["k"],
            build: build_lof,
        },
        RegistryEntry {
            info: KnnDistance::default().info(),
            module: "hierod_detect::related::KnnDistance",
            key: "knn",
            params: &["k"],
            build: build_knn,
        },
        RegistryEntry {
            info: ReverseKnn::default().info(),
            module: "hierod_detect::related::ReverseKnn",
            key: "rknn",
            params: &["k"],
            build: build_rknn,
        },
        RegistryEntry {
            info: CrossMachineProfile.info(),
            module: "hierod_detect::related::CrossMachineProfile",
            key: "cross-machine-profile",
            params: &[],
            build: build_cross_machine_profile,
        },
        RegistryEntry {
            info: PairRegression::default().info(),
            module: "hierod_detect::related::PairRegression",
            key: "pair-regression",
            params: &["signed"],
            build: build_pair_regression,
        },
        RegistryEntry {
            info: PairDifference::default().info(),
            module: "hierod_detect::related::PairDifference",
            key: "pair-diff",
            params: &["signed"],
            build: build_pair_diff,
        },
    ]
}

/// Every buildable entry: the 21 Table-1 rows followed by the supplemental
/// catalog.
pub fn all_entries() -> Vec<RegistryEntry> {
    let mut entries = registry();
    entries.extend(supplemental());
    entries
}

/// The entry union, built once (entries hold only static metadata and fn
/// pointers, so one construction serves every lookup — `find` sits on the
/// per-task hot path of the scheduler).
fn entries_cached() -> &'static [RegistryEntry] {
    static CACHE: std::sync::OnceLock<Vec<RegistryEntry>> = std::sync::OnceLock::new();
    CACHE.get_or_init(all_entries)
}

/// Finds the entry whose key or Table-1 row name matches `name`
/// (case-insensitive).
///
/// # Errors
/// [`DetectError::InvalidParameter`] on an unknown name.
pub fn find(name: &str) -> Result<RegistryEntry> {
    let wanted = name.trim().to_lowercase();
    entries_cached()
        .iter()
        .find(|e| e.key == wanted || e.info.name.to_lowercase() == wanted)
        .cloned()
        .ok_or_else(|| DetectError::invalid("name", format!("unknown algorithm `{name}`")))
}

/// Resolves a spec into a runnable scorer: finds the entry, rejects
/// undeclared parameter names, and runs the entry's constructor (which
/// validates the parameter values).
///
/// # Errors
/// [`DetectError::InvalidParameter`] on an unknown name, an undeclared
/// parameter, or a parameter value the constructor rejects.
pub fn build(spec: &AlgoSpec) -> Result<BoxedScorer> {
    resolve(spec).map(|(_, scorer)| scorer)
}

/// [`build`], plus the registry key the spec's name resolved to.
fn resolve(spec: &AlgoSpec) -> Result<(&'static str, BoxedScorer)> {
    let entry = find(&spec.name)?;
    for key in spec.params.keys() {
        if !entry.params.contains(&key.as_str()) {
            return Err(DetectError::invalid(
                "params",
                format!(
                    "`{}` does not accept parameter `{key}` (accepts: {})",
                    entry.key,
                    if entry.params.is_empty() {
                        "none".to_string()
                    } else {
                        entry.params.join(", ")
                    }
                ),
            ));
        }
    }
    Ok((entry.key, (entry.build)(spec)?))
}

/// Constructor of an entry's incremental form.
type OnlineForm = fn(&AlgoSpec) -> Result<Box<dyn OnlineScorer>>;

/// The entries with a native incremental form, by registry key. `order`
/// and `window` default as the entries' own batch builders do; the two
/// whole-series z-scores share one rolling window.
const ONLINE_FORMS: [(&str, OnlineForm); 4] = [
    ("ar", |s| {
        Ok(Box::new(IncrementalAr::new(s.get_usize("order", 3)?, 32)?))
    }),
    ("sliding-z", |s| {
        let window = s.get_usize("window", 48)?.max(3);
        Ok(Box::new(RollingRobustZ::new(window)?))
    }),
    ("robust-z", |_| Ok(Box::new(RollingRobustZ::new(256)?))),
    ("global-z", |_| Ok(Box::new(RollingRobustZ::new(256)?))),
];

/// Resolves a spec into its incremental (bounded-memory, score-as-you-go)
/// online form: the native incremental of [`ONLINE_FORMS`] when the entry
/// has one, otherwise the entry's batch scorer re-run over the last 256
/// samples every 64. The table is keyed by the *resolved* registry key,
/// since a spec may also name its entry by Table-1 row name. The
/// batch-equivalent online form needs no table: it is
/// [`WindowedBatch::full_history`] over [`build`].
///
/// # Errors
/// Exactly [`build`]'s: the spec is resolved through it first, so the
/// name, the parameter names and their values are checked once for every
/// form.
pub fn build_online(spec: &AlgoSpec) -> Result<Box<dyn OnlineScorer>> {
    let (key, batch) = resolve(spec)?;
    match ONLINE_FORMS.iter().find(|(k, _)| *k == key) {
        Some((_, form)) => form(spec),
        None => Ok(Box::new(WindowedBatch::hopping(batch, 256, 64)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ScorerKind;

    #[test]
    fn online_forms_name_live_point_entries() {
        // A key renamed in the registry must not silently fall through to
        // the hopping fallback.
        for (key, _) in ONLINE_FORMS {
            let live = all_entries().iter().any(|e| e.key == key);
            assert!(live, "ONLINE_FORMS names `{key}`, which no entry has");
            let kind = build(&AlgoSpec::new(key)).expect(key).kind();
            assert_eq!(kind, ScorerKind::Point, "{key}");
        }
    }

    #[test]
    fn incremental_table_is_keyed_by_the_resolved_registry_key() {
        let online_name = |text: &str| {
            let spec: AlgoSpec = text.parse().expect("well-formed");
            build_online(&spec).expect("scorer").name()
        };
        assert_eq!(online_name("ar"), "incremental-ar");
        assert_eq!(online_name("Autoregressive Model"), "incremental-ar");
        assert_eq!(online_name("sliding-z(window=2)"), "rolling-robust-z");
        assert_eq!(online_name("global-z"), "rolling-robust-z");
        assert_eq!(online_name("robust-z"), "rolling-robust-z");
        assert_eq!(online_name("sax"), "windowed-batch(hopping)");
        // Every form rejects what `build` rejects.
        for text in [
            "frobnicator",
            "ar(window=3)",
            "ar(order=0)",
            "robust-z(k=1)",
        ] {
            let spec: AlgoSpec = text.parse().expect("well-formed");
            assert!(
                matches!(
                    build_online(&spec),
                    Err(DetectError::InvalidParameter { .. })
                ),
                "{text}"
            );
        }
    }

    #[test]
    fn every_entry_builds_from_its_bare_key() {
        for e in all_entries() {
            let scorer = build(&AlgoSpec::new(e.key)).expect(e.key);
            assert_eq!(scorer.info().name, e.info.name, "built {}", e.key);
        }
    }

    #[test]
    fn lookup_by_table1_row_name_and_case_insensitively() {
        let s = build(&AlgoSpec::new("Autoregressive Model")).unwrap();
        assert_eq!(s.kind(), ScorerKind::Point);
        let s = build(&AlgoSpec::new("PCA")).unwrap();
        assert_eq!(s.kind(), ScorerKind::Vector);
        let s = build(&AlgoSpec::new("Cross-Machine Profile")).unwrap();
        assert_eq!(s.kind(), ScorerKind::Series);
    }

    #[test]
    fn unknown_name_and_undeclared_param_are_rejected() {
        assert!(matches!(
            build(&AlgoSpec::new("frobnicator")),
            Err(DetectError::InvalidParameter { .. })
        ));
        assert!(matches!(
            build(&AlgoSpec::new("ar").with("window", 5)),
            Err(DetectError::InvalidParameter { .. })
        ));
        // Declared param, malformed value: rejected by the constructor path.
        assert!(matches!(
            build(&AlgoSpec::new("ar").with("order", -1)),
            Err(DetectError::InvalidParameter { .. })
        ));
        assert!(matches!(
            build(&AlgoSpec::new("ocsvm").with("nu", f64::NAN)),
            Err(DetectError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn keys_are_unique_across_the_union() {
        let entries = all_entries();
        let mut keys: Vec<&str> = entries.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), entries.len());
    }

    #[test]
    fn parameters_reach_the_constructor() {
        // A cut quantile outside (0, 1) must be rejected by SingleLinkage's
        // own validation, proving the value is threaded through.
        assert!(build(&AlgoSpec::new("single-linkage").with("cut_quantile", 1.5)).is_err());
        assert!(build(&AlgoSpec::new("single-linkage").with("cut_quantile", 0.3)).is_ok());
    }
}
