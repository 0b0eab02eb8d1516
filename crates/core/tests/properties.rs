//! Property tests over Algorithm 1's invariants: the triple stays in its
//! documented ranges for arbitrary scenario configurations, fusion rules
//! respect monotonicity, and the pipeline is total over its configuration
//! space.

use hierod_core::{find_hierarchical_outliers, FindOptions, FusionRule, HierOutlier};
use hierod_detect::engine::{RobustZ, Standardizer};
use hierod_hierarchy::Level;
use hierod_synth::ScenarioBuilder;
use proptest::prelude::*;

fn outlier(outlierness: f64, support: f64, global: u8) -> HierOutlier {
    HierOutlier {
        level: Level::Phase,
        machine: "m".into(),
        job: None,
        phase: None,
        sensor: None,
        index: None,
        timestamp: None,
        outlierness,
        support,
        global_score: global,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pipeline_triples_stay_in_range(
        seed in 0_u64..1000,
        machines in 1_usize..3,
        jobs in 2_usize..5,
        redundancy in 1_usize..4,
        anomaly_rate in 0.0_f64..1.0,
        me_fraction in 0.0_f64..1.0,
    ) {
        let scenario = ScenarioBuilder::new(seed)
            .machines(machines)
            .jobs_per_machine(jobs)
            .redundancy(redundancy)
            .phase_samples(24)
            .anomaly_rate(anomaly_rate)
            .measurement_error_fraction(me_fraction)
            .build();
        let report = find_hierarchical_outliers(
            &scenario.plant,
            Level::Phase,
            &FindOptions::default(),
        )
        .expect("pipeline is total over configurations");
        for o in &report.outliers {
            prop_assert!((0.0..=1.0).contains(&o.support));
            prop_assert!((1..=5).contains(&o.global_score));
            prop_assert!(o.outlierness.is_finite());
        }
        for w in &report.warnings {
            let hierod_core::Warning::SuspectedMeasurementError { outlier_idx, missing_level } = w;
            prop_assert!(*outlier_idx < report.len());
            prop_assert!(*missing_level < Level::Phase.up().unwrap_or(Level::Phase)
                || *missing_level < Level::Production);
        }
    }
}

proptest! {
    #[test]
    fn weighted_product_monotone_in_each_component(
        outlierness in 0.0_f64..100.0,
        s1 in 0.0_f64..1.0,
        s2 in 0.0_f64..1.0,
        g1 in 1_u8..=5,
        g2 in 1_u8..=5,
        alpha in 0.0_f64..4.0,
        beta in 0.0_f64..1.0,
    ) {
        let rule = FusionRule::WeightedProduct { alpha, beta };
        // Monotone in support.
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        prop_assert!(
            rule.score(&outlier(outlierness, lo, 3)) <= rule.score(&outlier(outlierness, hi, 3)) + 1e-12
        );
        // Monotone in global score.
        let (glo, ghi) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
        prop_assert!(
            rule.score(&outlier(outlierness, 0.5, glo)) <= rule.score(&outlier(outlierness, 0.5, ghi)) + 1e-12
        );
        // Monotone in outlierness.
        prop_assert!(
            rule.score(&outlier(outlierness, 0.5, 3)) <= rule.score(&outlier(outlierness + 1.0, 0.5, 3)) + 1e-12
        );
        // Non-negative.
        prop_assert!(rule.score(&outlier(outlierness, s1, g1)) >= 0.0);
    }

    #[test]
    fn lexicographic_dominance(
        o1 in 0.0_f64..1e6,
        o2 in 0.0_f64..1e6,
        s1 in 0.0_f64..1.0,
        s2 in 0.0_f64..1.0,
        g1 in 1_u8..=5,
        g2 in 1_u8..=5,
    ) {
        let rule = FusionRule::Lexicographic;
        let a = outlier(o1, s1, g1);
        let b = outlier(o2, s2, g2);
        if g1 > g2 {
            prop_assert!(rule.score(&a) > rule.score(&b));
        } else if g1 == g2 && s1 > s2 + 0.11 {
            // Support decides within a global band (gap beats the
            // outlierness squash range).
            prop_assert!(rule.score(&a) > rule.score(&b));
        }
    }

    #[test]
    fn robust_z_centers_the_median(scores in prop::collection::vec(-100.0_f64..100.0, 3..64)) {
        let z = RobustZ.standardize(&scores);
        prop_assert_eq!(z.len(), scores.len());
        // The median element maps to (approximately) zero.
        let mut sorted = z.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let med = sorted[sorted.len() / 2];
        prop_assert!(med.abs() < 1.0, "median z {med}");
        // Order-preserving.
        for i in 0..scores.len() {
            for j in 0..scores.len() {
                if scores[i] < scores[j] {
                    prop_assert!(z[i] <= z[j] + 1e-12);
                }
            }
        }
    }
}
