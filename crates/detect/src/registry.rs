//! The Table-1 registry.
//!
//! One entry per row of the paper's Table 1, in the paper's order. The
//! entries are built from the **live** `info()` of each implementation, so
//! the reproduced table (experiment E3, `repro_table1`) cannot drift from
//! the code.
//!
//! Each row also carries a machine-readable `key`, its tunable parameter
//! names, and a `build` function resolving an [`AlgoSpec`] into a runnable
//! [`BoxedScorer`] — the registry is the single source of truth for *what
//! exists* and *how to construct it*, so adding a detector is one new entry
//! here (plus the implementation), with no caller-side enum to extend. The
//! online half of "how to construct it" is
//! [`engine::build_online`](crate::engine::build_online), keyed by the
//! `key`s declared here and checked against them by a unit test.
//!
//! ## Column-assignment note
//!
//! The paper's PDF table marks each row with 1–3 check marks across the
//! PTS/SSQ/TSS columns; the plain-text rendering of the paper preserves the
//! *number* of check marks per row but not reliably their column
//! positions. The assignments encoded here therefore follow the technique
//! semantics of each cited method (documented per detector module) and are
//! pinned by `registry_checkmark_totals_match_paper`, which asserts the
//! per-row check-mark *counts* against the paper text verbatim.

use crate::api::{Detector, DetectorInfo, Result};
use crate::da::{
    DynamicClustering, GaussianMixture, LcsCluster, MatchCount, OneClassSvm, PhasedKMeans,
    PrincipalComponentSpace, SelfOrganizingMap, SingleLinkage, VibrationSignature,
};
use crate::engine::boxed::{DictSequences, MotifOnVectors, SaxPoints};
use crate::engine::{AlgoSpec, BoxedScorer};
use crate::itm::HistogramDeviants;
use crate::nmd::AnomalyDictionary;
use crate::npd::WindowSequenceDb;
use crate::os::SaxDiscord;
use crate::pm::AutoregressiveModel;
use crate::sa::{MotifRuleClassifier, NeuralNetwork, RuleLearner};
use crate::uoa::OlapCubeDetector;
use crate::upa::{FiniteStateAutomaton, HiddenMarkov};

/// One Table-1 row: live metadata, implementation path, and the
/// spec-driven constructor.
#[derive(Debug, Clone)]
pub struct RegistryEntry {
    /// The detector's metadata (from its `info()`).
    pub info: DetectorInfo,
    /// Rust path of the implementation.
    pub module: &'static str,
    /// Short machine-readable key for [`AlgoSpec::name`].
    pub key: &'static str,
    /// Names of the parameters [`Self::build`] accepts.
    pub params: &'static [&'static str],
    /// Resolves a spec (with parameters validated) into a scorer.
    pub build: fn(&AlgoSpec) -> Result<BoxedScorer>,
}

fn build_match_count(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Discrete(Box::new(MatchCount::new(
        s.get_usize("smooth_k", 3)?,
    )?)))
}

fn build_lcs(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Discrete(Box::new(LcsCluster::new(
        s.get_usize("k", 2)?,
    )?)))
}

fn build_vibration(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Series(Box::new(VibrationSignature::new(
        s.get_usize("bands", 8)?,
        s.get_usize("clusters", 3)?,
    )?)))
}

fn build_gmm(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Vector(Box::new(GaussianMixture::new(
        s.get_usize("components", 3)?,
    )?)))
}

fn build_phased_kmeans(s: &AlgoSpec) -> Result<BoxedScorer> {
    // `segments` configures the PAA embedding applied by
    // `BoxedScorer::score_collection`, not the detector itself; it is
    // declared so specs carrying it validate, and read here so malformed
    // values are rejected at build time.
    s.get_usize("segments", 8)?;
    Ok(BoxedScorer::Vector(Box::new(PhasedKMeans::new(
        s.get_usize("k", 4)?,
    )?)))
}

fn build_dynamic_clustering(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Vector(Box::new(DynamicClustering::new(
        s.get_f64("radius_factor", 3.0)?,
    )?)))
}

fn build_single_linkage(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Vector(Box::new(SingleLinkage::new(
        s.get_f64("cut_quantile", 0.2)?,
    )?)))
}

fn build_pca(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Vector(Box::new(PrincipalComponentSpace::new(
        s.get_usize("components", 2)?,
    )?)))
}

fn build_ocsvm(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Vector(Box::new(OneClassSvm::new(
        s.get_f64("nu", 0.1)?,
    )?)))
}

fn build_som(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Vector(Box::new(SelfOrganizingMap::new(
        s.get_usize("width", 4)?,
        s.get_usize("height", 4)?,
    )?)))
}

fn build_fsa(s: &AlgoSpec) -> Result<BoxedScorer> {
    let fsa = if s.params.contains_key("order") {
        FiniteStateAutomaton::new(vec![s.get_usize("order", 2)?])?
    } else {
        FiniteStateAutomaton::default()
    };
    Ok(BoxedScorer::Discrete(Box::new(fsa)))
}

fn build_hmm(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Discrete(Box::new(HiddenMarkov::new(
        s.get_usize("states", 3)?,
    )?)))
}

fn build_olap_cube(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Vector(Box::new(OlapCubeDetector::new(
        s.get_usize("buckets", 4)?,
    )?)))
}

fn build_rule_learner(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Supervised(Box::new(RuleLearner::new(
        s.get_usize("max_rules", 8)?,
        s.get_usize("max_literals", 3)?,
    )?)))
}

fn build_mlp(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Supervised(Box::new(NeuralNetwork::new(
        s.get_usize("hidden", 8)?,
    )?)))
}

fn build_motif_rules(s: &AlgoSpec) -> Result<BoxedScorer> {
    let alphabet = s.get_usize("alphabet", 6)?;
    if alphabet < 2 {
        return Err(crate::api::DetectError::invalid("alphabet", "must be >= 2"));
    }
    Ok(BoxedScorer::Supervised(Box::new(MotifOnVectors::new(
        MotifRuleClassifier::new(s.get_usize("motif_len", 3)?)?,
        alphabet,
    ))))
}

fn build_window_db(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Discrete(Box::new(WindowSequenceDb::new(
        s.get_usize("window_len", 4)?,
    )?)))
}

fn build_anomaly_dict(_s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Discrete(Box::new(DictSequences(
        AnomalyDictionary::new(),
    ))))
}

fn build_sax(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Point(Box::new(SaxPoints(SaxDiscord::new(
        s.get_usize("window_len", 32)?,
        s.get_usize("word_len", 4)?,
        s.get_usize("alphabet", 4)?,
    )?))))
}

fn build_ar(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Point(Box::new(AutoregressiveModel::new(
        s.get_usize("order", 3)?,
    )?)))
}

fn build_deviants(s: &AlgoSpec) -> Result<BoxedScorer> {
    Ok(BoxedScorer::Point(Box::new(HistogramDeviants::new(
        s.get_usize("buckets", 8)?,
    )?)))
}

/// All 21 rows of Table 1, in the paper's order.
pub fn registry() -> Vec<RegistryEntry> {
    vec![
        RegistryEntry {
            info: MatchCount::default().info(),
            module: "hierod_detect::da::MatchCount",
            key: "match-count",
            params: &["smooth_k"],
            build: build_match_count,
        },
        RegistryEntry {
            info: LcsCluster::default().info(),
            module: "hierod_detect::da::LcsCluster",
            key: "lcs",
            params: &["k"],
            build: build_lcs,
        },
        RegistryEntry {
            info: VibrationSignature::default().info(),
            module: "hierod_detect::da::VibrationSignature",
            key: "vibration",
            params: &["bands", "clusters"],
            build: build_vibration,
        },
        RegistryEntry {
            info: GaussianMixture::default().info(),
            module: "hierod_detect::da::GaussianMixture",
            key: "gmm",
            params: &["components"],
            build: build_gmm,
        },
        RegistryEntry {
            info: PhasedKMeans::default().info(),
            module: "hierod_detect::da::PhasedKMeans",
            key: "phased-kmeans",
            params: &["k", "segments"],
            build: build_phased_kmeans,
        },
        RegistryEntry {
            info: DynamicClustering::default().info(),
            module: "hierod_detect::da::DynamicClustering",
            key: "dynamic-clustering",
            params: &["radius_factor"],
            build: build_dynamic_clustering,
        },
        RegistryEntry {
            info: SingleLinkage::default().info(),
            module: "hierod_detect::da::SingleLinkage",
            key: "single-linkage",
            params: &["cut_quantile"],
            build: build_single_linkage,
        },
        RegistryEntry {
            info: PrincipalComponentSpace::default().info(),
            module: "hierod_detect::da::PrincipalComponentSpace",
            key: "pca",
            params: &["components"],
            build: build_pca,
        },
        RegistryEntry {
            info: OneClassSvm::default().info(),
            module: "hierod_detect::da::OneClassSvm",
            key: "ocsvm",
            params: &["nu"],
            build: build_ocsvm,
        },
        RegistryEntry {
            info: SelfOrganizingMap::default().info(),
            module: "hierod_detect::da::SelfOrganizingMap",
            key: "som",
            params: &["width", "height"],
            build: build_som,
        },
        RegistryEntry {
            info: FiniteStateAutomaton::default().info(),
            module: "hierod_detect::upa::FiniteStateAutomaton",
            key: "fsa",
            params: &["order"],
            build: build_fsa,
        },
        RegistryEntry {
            info: HiddenMarkov::default().info(),
            module: "hierod_detect::upa::HiddenMarkov",
            key: "hmm",
            params: &["states"],
            build: build_hmm,
        },
        RegistryEntry {
            info: OlapCubeDetector::default().info(),
            module: "hierod_detect::uoa::OlapCubeDetector",
            key: "olap-cube",
            params: &["buckets"],
            build: build_olap_cube,
        },
        RegistryEntry {
            info: RuleLearner::default().info(),
            module: "hierod_detect::sa::RuleLearner",
            key: "rule-learner",
            params: &["max_rules", "max_literals"],
            build: build_rule_learner,
        },
        RegistryEntry {
            info: NeuralNetwork::default().info(),
            module: "hierod_detect::sa::NeuralNetwork",
            key: "mlp",
            params: &["hidden"],
            build: build_mlp,
        },
        RegistryEntry {
            info: MotifRuleClassifier::default().info(),
            module: "hierod_detect::sa::MotifRuleClassifier",
            key: "motif-rules",
            params: &["motif_len", "alphabet"],
            build: build_motif_rules,
        },
        RegistryEntry {
            info: WindowSequenceDb::default().info(),
            module: "hierod_detect::npd::WindowSequenceDb",
            key: "window-db",
            params: &["window_len"],
            build: build_window_db,
        },
        RegistryEntry {
            info: AnomalyDictionary::new().info(),
            module: "hierod_detect::nmd::AnomalyDictionary",
            key: "anomaly-dict",
            params: &[],
            build: build_anomaly_dict,
        },
        RegistryEntry {
            info: SaxDiscord::default().info(),
            module: "hierod_detect::os::SaxDiscord",
            key: "sax",
            params: &["window_len", "word_len", "alphabet"],
            build: build_sax,
        },
        RegistryEntry {
            info: AutoregressiveModel::default().info(),
            module: "hierod_detect::pm::AutoregressiveModel",
            key: "ar",
            params: &["order"],
            build: build_ar,
        },
        RegistryEntry {
            info: HistogramDeviants::default().info(),
            module: "hierod_detect::itm::HistogramDeviants",
            key: "deviants",
            params: &["buckets"],
            build: build_deviants,
        },
    ]
}

/// Renders the registry as the paper's Table 1 (fixed-width text).
pub fn render_table1() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<36} {:<5} {:^3} {:^3} {:^3}\n",
        "Technique", "Type", "PTS", "SSQ", "TSS"
    ));
    out.push_str(&"-".repeat(56));
    out.push('\n');
    for e in registry() {
        let [pts, ssq, tss] = e.info.capabilities.checkmarks();
        out.push_str(&format!(
            "{:<36} {:<5} {:^3} {:^3} {:^3}\n",
            format!("{} {}", e.info.name, e.info.citation),
            e.info.class.abbrev(),
            pts,
            ssq,
            tss
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::TechniqueClass;

    /// The paper's Table 1 rows verbatim: (name, citation, class,
    /// number-of-check-marks). The check-mark *count* per row is preserved
    /// exactly by the paper's text; the column assignment is documented in
    /// the module docs.
    const PAPER_ROWS: [(&str, &str, TechniqueClass, usize); 21] = [
        (
            "Match Count Sequence Similarity",
            "[16]",
            TechniqueClass::DA,
            1,
        ),
        ("Longest Common Subsequence", "[2]", TechniqueClass::DA, 1),
        ("Vibration Signature", "[28]", TechniqueClass::DA, 2),
        ("Expectation-Maximization", "[30]", TechniqueClass::DA, 3),
        ("Phased k-Means", "[36]", TechniqueClass::DA, 1),
        ("Dynamic Clustering", "[37]", TechniqueClass::DA, 2),
        ("Single-linkage Clustering", "[32]", TechniqueClass::DA, 3),
        ("Principal Component Space", "[13]", TechniqueClass::DA, 1),
        ("Support Vector Machine", "[6]", TechniqueClass::DA, 3),
        ("Self-Organizing Map", "[11]", TechniqueClass::DA, 3),
        ("Finite State Automata", "[25]", TechniqueClass::UPA, 2),
        ("Hidden Markov Models", "[7]", TechniqueClass::UPA, 2),
        (
            "Online Analytical Processing Cube",
            "[20]",
            TechniqueClass::UOA,
            2,
        ),
        ("Rule Learning", "[18]", TechniqueClass::SA, 2),
        ("Neural Networks", "[10]", TechniqueClass::SA, 3),
        ("Rule Based Classifier", "[19]", TechniqueClass::SA, 1),
        ("Window Sequence", "[17]", TechniqueClass::NPD, 1),
        ("Anomaly Dictionary", "[3]", TechniqueClass::NMD, 1),
        ("Symbolic Representation", "[22]", TechniqueClass::OS, 2),
        ("Autoregressive Model", "[15]", TechniqueClass::PM, 2),
        ("Histogram Representation", "[27]", TechniqueClass::ITM, 1),
    ];

    #[test]
    fn registry_has_all_21_rows_in_paper_order() {
        let reg = registry();
        assert_eq!(reg.len(), 21);
        for (entry, (name, citation, class, _)) in reg.iter().zip(PAPER_ROWS) {
            assert_eq!(entry.info.name, name);
            assert_eq!(entry.info.citation, citation);
            assert_eq!(entry.info.class, class, "class of {name}");
        }
    }

    #[test]
    fn registry_checkmark_totals_match_paper() {
        for (entry, (name, _, _, marks)) in registry().iter().zip(PAPER_ROWS) {
            assert_eq!(
                entry.info.capabilities.count(),
                marks,
                "check-mark count of `{name}`"
            );
        }
    }

    #[test]
    fn class_populations_match_paper() {
        let reg = registry();
        let count = |c: TechniqueClass| reg.iter().filter(|e| e.info.class == c).count();
        assert_eq!(count(TechniqueClass::DA), 10);
        assert_eq!(count(TechniqueClass::UPA), 2);
        assert_eq!(count(TechniqueClass::UOA), 1);
        assert_eq!(count(TechniqueClass::SA), 3);
        assert_eq!(count(TechniqueClass::NPD), 1);
        assert_eq!(count(TechniqueClass::NMD), 1);
        assert_eq!(count(TechniqueClass::OS), 1);
        assert_eq!(count(TechniqueClass::PM), 1);
        assert_eq!(count(TechniqueClass::ITM), 1);
    }

    #[test]
    fn only_sa_rows_are_supervised() {
        for e in registry() {
            assert_eq!(
                e.info.supervised,
                e.info.class == TechniqueClass::SA,
                "supervision flag of {}",
                e.info.name
            );
        }
    }

    #[test]
    fn rendered_table_contains_every_row_and_legend_columns() {
        let t = render_table1();
        assert!(t.contains("PTS"));
        assert!(t.contains("SSQ"));
        assert!(t.contains("TSS"));
        for (name, citation, ..) in PAPER_ROWS {
            assert!(t.contains(name), "rendered table misses {name}");
            assert!(t.contains(citation));
        }
        assert_eq!(t.lines().count(), 23); // header + rule + 21 rows
    }

    #[test]
    fn modules_are_unique() {
        let reg = registry();
        let mut paths: Vec<&str> = reg.iter().map(|e| e.module).collect();
        paths.sort_unstable();
        paths.dedup();
        assert_eq!(paths.len(), 21);
    }

    #[test]
    fn keys_are_unique_and_lowercase() {
        let reg = registry();
        let mut keys: Vec<&str> = reg.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 21);
        for k in keys {
            assert_eq!(k, k.to_lowercase(), "registry keys are lowercase");
        }
    }

    #[test]
    fn supervised_flag_matches_built_kind() {
        use crate::engine::ScorerKind;
        for e in registry() {
            let scorer = (e.build)(&AlgoSpec::new(e.key)).expect(e.key);
            assert_eq!(
                scorer.kind() == ScorerKind::Supervised,
                e.info.supervised,
                "built kind of {}",
                e.key
            );
        }
    }
}
