//! E7 — ablations over the design choices the paper leaves open:
//!
//! * (a) support on/off in the fusion rule;
//! * (b) hierarchy depth (how many levels feed the global score);
//! * (c) fusion rule;
//! * (d) per-level algorithm policy swaps (`ChooseAlgorithm` variants).

use hierod_bench::{fmt_opt, standard_scenario};
use hierod_core::experiment::point_level_eval;
use hierod_core::{AlgorithmPolicy, FusionRule, PhaseChoice};

const SEEDS: [u64; 3] = [1, 2, 3];

fn mean_pr(policy: &AlgorithmPolicy, fusion: FusionRule) -> Option<f64> {
    let mut acc = 0.0;
    let mut n = 0;
    for seed in SEEDS {
        let scenario = standard_scenario(seed).build();
        let eval = point_level_eval(&scenario, policy, fusion).ok()?;
        acc += eval.hierarchical.pr_auc?;
        n += 1;
    }
    (n > 0).then_some(acc / n as f64)
}

fn main() {
    let policy = AlgorithmPolicy::default();
    println!("E7 ablations (mean point-level PR-AUC over seeds {SEEDS:?})\n");

    // (a) + (c): fusion rules, including support-blind variants.
    println!("== fusion rule (a, c) ==");
    let rules = [
        (
            "outlierness only (flat baseline)",
            FusionRule::OutliernessOnly,
        ),
        (
            "weighted product (alpha=1, beta=0.5)",
            FusionRule::WeightedProduct {
                alpha: 1.0,
                beta: 0.5,
            },
        ),
        (
            "weighted product, support off (beta=0)",
            FusionRule::WeightedProduct {
                alpha: 1.0,
                beta: 0.0,
            },
        ),
        (
            "weighted product, global off (alpha=0)",
            FusionRule::WeightedProduct {
                alpha: 0.0,
                beta: 0.5,
            },
        ),
        (
            "support gate (min 0.5)",
            FusionRule::SupportGated { min_support: 0.5 },
        ),
        ("lexicographic", FusionRule::Lexicographic),
    ];
    for (name, rule) in rules {
        println!("  {:<40} PR-AUC {}", name, fmt_opt(mean_pr(&policy, rule)));
    }

    // (b): hierarchy depth — cap the global-score boost by weighting alpha
    // progressively (alpha = 0 ignores upper levels entirely).
    println!("\n== hierarchy influence (b): global-score weight alpha ==");
    for alpha in [0.0, 0.5, 1.0, 2.0, 4.0] {
        let rule = FusionRule::WeightedProduct { alpha, beta: 0.5 };
        println!(
            "  alpha = {:<4}                            PR-AUC {}",
            alpha,
            fmt_opt(mean_pr(&policy, rule))
        );
    }

    // (d): ChooseAlgorithm swaps.
    println!("\n== per-level algorithm policy (d) ==");
    let fusion = FusionRule::default_weighted();
    // Per-series rows carry their spec; `None` is profile mode, which is a
    // task decomposition rather than a registry entry.
    let phase_algos = [
        ("phase: AR prediction error (default)", Some("ar(order=3)")),
        ("phase: profile similarity (PS, cross-job)", None),
        ("phase: sliding z-score", Some("sliding-z(window=48)")),
        ("phase: robust z-score", Some("robust-z")),
        ("phase: histogram deviants", Some("deviants(buckets=8)")),
    ];
    for (name, spec) in phase_algos {
        let p = AlgorithmPolicy {
            phase: match spec {
                Some(spec) => PhaseChoice::PerSeries(spec.parse().expect("valid spec")),
                None => PhaseChoice::ProfileAcrossJobs,
            },
            ..AlgorithmPolicy::default()
        };
        println!("  {:<40} PR-AUC {}", name, fmt_opt(mean_pr(&p, fusion)));
    }
    let job_algos = [
        ("job: PCA (default)", "pca(components=2)"),
        ("job: Gaussian mixture", "gmm(components=2)"),
        ("job: one-class SVM", "ocsvm(nu=0.15)"),
        ("job: OLAP cube", "olap-cube(buckets=4)"),
        ("job: single linkage", "single-linkage"),
        ("job: local outlier factor (§5)", "lof(k=5)"),
        ("job: reverse k-NN (§5)", "rknn(k=5)"),
        ("job: k-NN distance (§5)", "knn(k=5)"),
    ];
    for (name, spec) in job_algos {
        let p = AlgorithmPolicy {
            job: spec.parse().expect("valid spec"),
            ..AlgorithmPolicy::default()
        };
        println!("  {:<40} PR-AUC {}", name, fmt_opt(mean_pr(&p, fusion)));
    }
}
