//! Fusing ⟨global score, outlierness, support⟩ into one ranking.
//!
//! The paper's Section 2 closes with: "The aim of future work will be to
//! combine outlier information from the different levels in a valuable
//! manner." This module is our concretization of that combination; the
//! rules below are ablated against each other in experiment E7.

use crate::outlier::HierOutlier;

/// A rule mapping the triple to a single fused score (larger = more
/// severe).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusionRule {
    /// Ignore hierarchy information: rank by outlierness alone (the flat
    /// single-level baseline).
    OutliernessOnly,
    /// `outlierness × (1 + α·(global−1)/4) × (1 − β·(1−support))`:
    /// hierarchy confirmation boosts, missing support damps.
    WeightedProduct {
        /// Weight of the global-score boost (≥ 0).
        alpha: f64,
        /// Strength of the support damping in `[0, 1]`.
        beta: f64,
    },
    /// Hard gate: outliers with support below `min_support` score 0
    /// (aggressive measurement-error suppression).
    SupportGated {
        /// Minimum support to survive.
        min_support: f64,
    },
    /// Lexicographic (global score ≫ support ≫ outlierness), encoded as a
    /// scalar with well-separated magnitude bands. Outlierness is squashed
    /// into `[0, 1)` so bands cannot bleed into each other.
    Lexicographic,
}

impl FusionRule {
    /// The default rule used by the headline experiment (E4).
    pub fn default_weighted() -> FusionRule {
        FusionRule::WeightedProduct {
            alpha: 1.0,
            beta: 0.5,
        }
    }

    /// Fused score of one outlier.
    pub fn score(&self, o: &HierOutlier) -> f64 {
        match *self {
            FusionRule::OutliernessOnly => o.outlierness,
            FusionRule::WeightedProduct { alpha, beta } => {
                let g_boost = 1.0 + alpha * (f64::from(o.global_score) - 1.0) / 4.0;
                let s_damp = 1.0 - beta.clamp(0.0, 1.0) * (1.0 - o.support.clamp(0.0, 1.0));
                o.outlierness.max(0.0) * g_boost * s_damp
            }
            FusionRule::SupportGated { min_support } => {
                if o.support >= min_support {
                    o.outlierness
                } else {
                    0.0
                }
            }
            FusionRule::Lexicographic => {
                let squashed = 1.0 - 1.0 / (1.0 + o.outlierness.max(0.0));
                f64::from(o.global_score) * 100.0 + o.support.clamp(0.0, 1.0) * 10.0 + squashed
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierod_hierarchy::Level;

    fn outlier(outlierness: f64, support: f64, global: u8) -> HierOutlier {
        HierOutlier {
            level: Level::Phase,
            machine: "m0".into(),
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

    #[test]
    fn outlierness_only_is_identity() {
        let r = FusionRule::OutliernessOnly;
        assert_eq!(r.score(&outlier(7.0, 0.0, 1)), 7.0);
        assert_eq!(r.score(&outlier(7.0, 1.0, 5)), 7.0);
    }

    #[test]
    fn weighted_product_boosts_global_and_damps_unsupported() {
        let r = FusionRule::default_weighted();
        let base = r.score(&outlier(8.0, 1.0, 1));
        let high_global = r.score(&outlier(8.0, 1.0, 5));
        let unsupported = r.score(&outlier(8.0, 0.0, 1));
        assert!(high_global > base);
        assert!((high_global / base - 2.0).abs() < 1e-9); // alpha=1, (1+4/4)
        assert!(unsupported < base);
        assert!((unsupported / base - 0.5).abs() < 1e-9); // beta=0.5
    }

    #[test]
    fn support_gate_zeroes_below_threshold() {
        let r = FusionRule::SupportGated { min_support: 0.5 };
        assert_eq!(r.score(&outlier(9.0, 0.4, 3)), 0.0);
        assert_eq!(r.score(&outlier(9.0, 0.6, 3)), 9.0);
    }

    #[test]
    fn lexicographic_orders_by_global_first() {
        let r = FusionRule::Lexicographic;
        let low_global_huge_outlierness = r.score(&outlier(1e9, 1.0, 1));
        let high_global_small_outlierness = r.score(&outlier(0.1, 0.0, 2));
        assert!(high_global_small_outlierness > low_global_huge_outlierness);
        // Within equal global score, support decides.
        let a = r.score(&outlier(100.0, 0.0, 3));
        let b = r.score(&outlier(0.1, 0.2, 3));
        assert!(b > a);
        // Within equal global + support, outlierness decides.
        let c = r.score(&outlier(5.0, 0.5, 3));
        let d = r.score(&outlier(1.0, 0.5, 3));
        assert!(c > d);
    }
}
