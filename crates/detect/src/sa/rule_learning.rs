//! Separate-and-conquer rule induction.
//!
//! Table-1 row **Rule Learning** (Lee & Stolfo, *Data mining approaches for
//! intrusion detection*, USENIX Security 1998 — citation [18]): anomalous
//! behaviour is characterized by induced rules over feature vectors. We
//! implement a deterministic separate-and-conquer (covering) learner:
//! repeatedly grow the single best rule — a conjunction of
//! `feature {≤,>} threshold` literals — that covers many anomalies and few
//! normals (Laplace-corrected precision), remove the covered anomalies, and
//! repeat. Prediction scores a vector by the confidence of the best
//! matching rule (0 when no rule fires).

use crate::api::{
    check_rows, Capabilities, DetectError, Detector, DetectorInfo, Result, SupervisedScorer,
    TechniqueClass,
};

/// One literal: a threshold test on one feature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Literal {
    /// Feature index.
    pub feature: usize,
    /// Threshold.
    pub threshold: f64,
    /// `true` = test `x > threshold`, `false` = test `x <= threshold`.
    pub greater: bool,
}

impl Literal {
    fn matches(&self, row: &[f64]) -> bool {
        let Some(&x) = row.get(self.feature) else {
            return false;
        };
        if self.greater {
            x > self.threshold
        } else {
            x <= self.threshold
        }
    }
}

/// A conjunction of literals with its training confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Conjoined literals (all must hold).
    pub(crate) literals: Vec<Literal>,
    /// Laplace-corrected precision on the training data.
    pub confidence: f64,
}

impl Rule {
    fn matches(&self, row: &[f64]) -> bool {
        self.literals.iter().all(|l| l.matches(row))
    }
}

/// Covering rule learner.
#[derive(Debug, Clone)]
pub struct RuleLearner {
    /// Maximum number of rules.
    pub max_rules: usize,
    /// Maximum literals per rule.
    pub max_literals: usize,
    rules: Option<Vec<Rule>>,
    /// Row width seen by `fit`; `predict` holds rows to it (a rule tests a
    /// feature by position).
    width: usize,
}

impl Default for RuleLearner {
    fn default() -> Self {
        Self {
            max_rules: 8,
            max_literals: 3,
            rules: None,
            width: 0,
        }
    }
}

impl RuleLearner {
    /// Creates with explicit limits.
    ///
    /// # Errors
    /// Rejects zero limits.
    pub(crate) fn new(max_rules: usize, max_literals: usize) -> Result<Self> {
        if max_rules == 0 || max_literals == 0 {
            return Err(DetectError::invalid(
                "max_rules/max_literals",
                "must be > 0",
            ));
        }
        Ok(Self {
            max_rules,
            max_literals,
            rules: None,
            width: 0,
        })
    }

    /// The induced rules (after fitting).
    pub fn rules(&self) -> Option<&[Rule]> {
        self.rules.as_deref()
    }

    /// Laplace-corrected precision of a candidate covering `pos` anomalies
    /// and `neg` normals.
    fn laplace(pos: usize, neg: usize) -> f64 {
        (pos as f64 + 1.0) / ((pos + neg) as f64 + 2.0)
    }

    /// Grows one rule greedily on the active set.
    fn grow_rule(&self, rows: &[Vec<f64>], labels: &[bool], active: &[bool]) -> Option<Rule> {
        let mut literals: Vec<Literal> = Vec::new();
        let mut covered: Vec<bool> = active.to_vec();
        let mut best_quality = 0.0_f64;
        for _ in 0..self.max_literals {
            let mut best: Option<(Literal, f64)> = None;
            for f in 0..self.width {
                // Candidate thresholds: midpoints of sorted distinct values
                // among currently covered rows.
                let mut vals: Vec<f64> = rows
                    .iter()
                    .zip(covered.iter())
                    .filter(|(_, &c)| c)
                    .filter_map(|(r, _)| r.get(f).copied())
                    .collect();
                vals.sort_by(|a, b| a.total_cmp(b));
                vals.dedup();
                for (lo, hi) in vals.iter().zip(vals.iter().skip(1)) {
                    let threshold = (lo + hi) / 2.0;
                    for greater in [false, true] {
                        let lit = Literal {
                            feature: f,
                            threshold,
                            greater,
                        };
                        let mut pos = 0;
                        let mut neg = 0;
                        for ((r, &l), &c) in rows.iter().zip(labels).zip(&covered) {
                            if c && lit.matches(r) {
                                if l {
                                    pos += 1;
                                } else {
                                    neg += 1;
                                }
                            }
                        }
                        if pos == 0 {
                            continue;
                        }
                        let q = Self::laplace(pos, neg);
                        if best.as_ref().map(|(_, bq)| q > *bq).unwrap_or(true) {
                            best = Some((lit, q));
                        }
                    }
                }
            }
            let Some((lit, q)) = best else { break };
            if q <= best_quality + 1e-12 {
                break; // no improvement
            }
            best_quality = q;
            for (c, r) in covered.iter_mut().zip(rows) {
                if *c && !lit.matches(r) {
                    *c = false;
                }
            }
            literals.push(lit);
            if q > 0.999 {
                break; // pure rule
            }
        }
        if literals.is_empty() {
            return None;
        }
        Some(Rule {
            literals,
            confidence: best_quality,
        })
    }
}

impl Detector for RuleLearner {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Rule Learning",
            citation: "[18]",
            class: TechniqueClass::SA,
            capabilities: Capabilities::new(false, true, true),
            supervised: true,
        }
    }
}

impl SupervisedScorer for RuleLearner {
    fn fit(&mut self, rows: &[Vec<f64>], labels: &[bool]) -> Result<()> {
        let width = check_rows("RuleLearner", rows)?;
        if rows.len() != labels.len() {
            return Err(DetectError::ShapeMismatch {
                message: "rows/labels length mismatch".into(),
            });
        }
        if !labels.iter().any(|&l| l) {
            return Err(DetectError::invalid(
                "labels",
                "need at least one positive (anomalous) example",
            ));
        }
        self.width = width;
        let mut active: Vec<bool> = vec![true; rows.len()];
        let mut rules = Vec::new();
        for _ in 0..self.max_rules {
            // Only rows still active participate in growing; negatives stay
            // active forever so later rules still avoid them.
            let Some(rule) = self.grow_rule(rows, labels, &active) else {
                break;
            };
            // Deactivate covered positives.
            let mut newly_covered = 0;
            for ((r, &l), a) in rows.iter().zip(labels).zip(active.iter_mut()) {
                if *a && l && rule.matches(r) {
                    *a = false;
                    newly_covered += 1;
                }
            }
            if newly_covered == 0 {
                break;
            }
            rules.push(rule);
            if labels.iter().zip(&active).all(|(&l, &a)| !l || !a) {
                break; // all positives covered
            }
        }
        self.rules = Some(rules);
        Ok(())
    }

    fn predict(&self, rows: &[Vec<f64>]) -> Result<Vec<f64>> {
        let rules = self.rules.as_ref().ok_or(DetectError::NotFitted)?;
        if rows.iter().any(|r| r.len() != self.width) {
            let message = format!("RuleLearner: rows must be {} wide, as in fit", self.width);
            return Err(DetectError::ShapeMismatch { message });
        }
        Ok(rows
            .iter()
            .map(|r| {
                rules
                    .iter()
                    .filter(|rule| rule.matches(r))
                    .map(|rule| rule.confidence)
                    .fold(0.0_f64, f64::max)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Anomalies live in the region x0 > 5 && x1 <= 1.
    fn labeled_data() -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let x0 = (i % 10) as f64;
            let x1 = (i % 4) as f64;
            rows.push(vec![x0, x1]);
            labels.push(x0 > 5.0 && x1 <= 1.0);
        }
        (rows, labels)
    }

    #[test]
    fn learns_the_anomaly_region() {
        let (rows, labels) = labeled_data();
        let mut rl = RuleLearner::default();
        rl.fit(&rows, &labels).unwrap();
        let scores = rl.predict(&rows).unwrap();
        // Every positive scores above every negative.
        let min_pos = scores
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| l)
            .map(|(&s, _)| s)
            .fold(f64::MAX, f64::min);
        let max_neg = scores
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| !l)
            .map(|(&s, _)| s)
            .fold(0.0_f64, f64::max);
        assert!(
            min_pos > max_neg,
            "min positive {min_pos} must exceed max negative {max_neg}"
        );
        assert!(!rl.rules().unwrap().is_empty());
    }

    #[test]
    fn rules_have_bounded_literals() {
        let (rows, labels) = labeled_data();
        let mut rl = RuleLearner::new(4, 2).unwrap();
        rl.fit(&rows, &labels).unwrap();
        for rule in rl.rules().unwrap() {
            assert!(rule.literals.len() <= 2);
            assert!(rule.confidence > 0.5);
        }
    }

    #[test]
    fn predict_before_fit_errors() {
        let rl = RuleLearner::default();
        assert!(matches!(
            rl.predict(&[vec![1.0]]),
            Err(DetectError::NotFitted)
        ));
    }

    #[test]
    fn fit_validation() {
        let mut rl = RuleLearner::default();
        assert!(rl.fit(&[], &[]).is_err());
        assert!(rl.fit(&[vec![1.0]], &[true, false]).is_err());
        // No positives.
        assert!(rl.fit(&[vec![1.0], vec![2.0]], &[false, false]).is_err());
        assert!(RuleLearner::new(0, 1).is_err());
    }

    #[test]
    fn generalizes_to_unseen_rows() {
        let (rows, labels) = labeled_data();
        let mut rl = RuleLearner::default();
        rl.fit(&rows, &labels).unwrap();
        let scores = rl.predict(&[vec![9.0, 0.5], vec![1.0, 3.0]]).unwrap();
        assert!(scores[0] > scores[1]);
        assert_eq!(scores[1], 0.0);
    }

    #[test]
    fn info_matches_table1() {
        let i = RuleLearner::default().info();
        assert_eq!(i.citation, "[18]");
        assert!(i.supervised);
        assert_eq!(i.class, TechniqueClass::SA);
    }
}
