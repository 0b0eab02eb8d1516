//! Finite-state automaton over n-grams.
//!
//! Table-1 row **Finite State Automata** (Marceau, *Characterizing the
//! behavior of a program using multiple-length n-grams*, 2005 — citation
//! [25]): normal behaviour is summarized as an automaton whose states are
//! the (multi-length) n-grams seen in training; a sequence is anomalous to
//! the degree that it traverses transitions the automaton has never seen.
//! Unsupervised use: the automaton is trained on all sequences and each
//! sequence is scored leave-one-out, so a unique sequence cannot vouch for
//! itself.

use std::collections::HashMap;

use crate::api::{
    Capabilities, DetectError, Detector, DetectorInfo, DiscreteScorer, Result, TechniqueClass,
};

/// n-gram automaton scorer for symbol sequences.
#[derive(Debug, Clone)]
pub struct FiniteStateAutomaton {
    /// Orders of the n-grams forming states (e.g. `[2, 3]` uses bigram and
    /// trigram contexts).
    pub orders: Vec<usize>,
}

impl Default for FiniteStateAutomaton {
    fn default() -> Self {
        Self { orders: vec![2, 3] }
    }
}

type TransitionCounts = HashMap<(usize, Vec<u16>), usize>;

impl FiniteStateAutomaton {
    /// Creates with explicit n-gram orders.
    ///
    /// # Errors
    /// Rejects an empty order list or an order of 0.
    pub(crate) fn new(orders: Vec<usize>) -> Result<Self> {
        if orders.is_empty() || orders.contains(&0) {
            return Err(DetectError::invalid(
                "orders",
                "need at least one order >= 1",
            ));
        }
        Ok(Self { orders })
    }

    /// Counts every `(order, gram)` occurrence in a sequence into `counts`,
    /// with the given sign (+1 to add, −1 to remove — used for
    /// leave-one-out).
    fn accumulate(&self, seq: &[u16], counts: &mut TransitionCounts, sign: isize) {
        for &order in &self.orders {
            if seq.len() < order {
                continue;
            }
            for gram in seq.windows(order) {
                let e = counts.entry((order, gram.to_vec())).or_insert(0);
                if sign > 0 {
                    *e += 1;
                } else {
                    *e = e.saturating_sub(1);
                }
            }
        }
    }

    /// Fraction of a sequence's grams unseen in `counts` (averaged over
    /// orders; orders the sequence is too short for are skipped).
    fn unseen_fraction(&self, seq: &[u16], counts: &TransitionCounts) -> f64 {
        let mut total_frac = 0.0;
        let mut used_orders = 0;
        for &order in &self.orders {
            if seq.len() < order {
                continue;
            }
            let grams = seq.len() - order + 1;
            let unseen = seq
                .windows(order)
                .filter(|g| {
                    counts
                        .get(&(order, g.to_vec()))
                        .map(|&c| c == 0)
                        .unwrap_or(true)
                })
                .count();
            total_frac += unseen as f64 / grams as f64;
            used_orders += 1;
        }
        if used_orders == 0 {
            0.0
        } else {
            total_frac / used_orders as f64
        }
    }
}

impl Detector for FiniteStateAutomaton {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Finite State Automata",
            citation: "[25]",
            class: TechniqueClass::UPA,
            capabilities: Capabilities::new(false, true, true),
            supervised: false,
        }
    }
}

impl DiscreteScorer for FiniteStateAutomaton {
    fn score_sequences(&self, seqs: &[&[u16]]) -> Result<Vec<f64>> {
        if seqs.len() < 2 {
            return Err(DetectError::NotEnoughData {
                what: "FiniteStateAutomaton",
                needed: 2,
                got: seqs.len(),
            });
        }
        let mut counts: TransitionCounts = HashMap::new();
        for s in seqs {
            self.accumulate(s, &mut counts, 1);
        }
        Ok(seqs
            .iter()
            .map(|s| {
                // Leave-one-out: remove own grams, score, re-add.
                let mut loo = counts.clone();
                self.accumulate(s, &mut loo, -1);
                self.unseen_fraction(s, &loo)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alien_grammar_scores_one() {
        // Normal sequences cycle 0,1,2; the alien uses symbols never seen.
        let normals: Vec<Vec<u16>> = (0..5)
            .map(|k| (0..12).map(|i| ((i + k) % 3) as u16).collect())
            .collect();
        let alien: Vec<u16> = vec![7, 8, 9, 7, 8, 9, 7, 8];
        let mut all: Vec<&[u16]> = normals.iter().map(Vec::as_slice).collect();
        all.push(&alien);
        let scores = FiniteStateAutomaton::default()
            .score_sequences(&all)
            .unwrap();
        assert!((scores[all.len() - 1] - 1.0).abs() < 1e-9);
        // Normal cyclic sequences share all their grams.
        assert!(scores[0] < 0.05, "{scores:?}");
    }

    #[test]
    fn leave_one_out_prevents_self_vouching() {
        // A unique sequence appearing once must not validate itself.
        let a: Vec<u16> = vec![0, 1, 0, 1, 0, 1];
        let b: Vec<u16> = vec![0, 1, 0, 1, 0, 1];
        let unique: Vec<u16> = vec![5, 6, 5, 6, 5, 6];
        let all: Vec<&[u16]> = vec![&a, &b, &unique];
        let scores = FiniteStateAutomaton::default()
            .score_sequences(&all)
            .unwrap();
        assert_eq!(scores[2], 1.0);
        assert_eq!(scores[0], 0.0);
    }

    #[test]
    fn partially_novel_transitions_score_fractionally() {
        let normal1: Vec<u16> = vec![0, 1, 2, 3, 0, 1, 2, 3];
        let normal2: Vec<u16> = vec![0, 1, 2, 3, 0, 1, 2, 3];
        // Half familiar prefix, half novel suffix.
        let hybrid: Vec<u16> = vec![0, 1, 2, 3, 9, 8, 9, 8];
        let all: Vec<&[u16]> = vec![&normal1, &normal2, &hybrid];
        let scores = FiniteStateAutomaton::new(vec![2])
            .unwrap()
            .score_sequences(&all)
            .unwrap();
        assert!(scores[2] > 0.3 && scores[2] < 0.9, "hybrid {}", scores[2]);
    }

    #[test]
    fn sequences_shorter_than_order_score_zero() {
        let a: Vec<u16> = vec![1];
        let b: Vec<u16> = vec![2];
        let all: Vec<&[u16]> = vec![&a, &b];
        let scores = FiniteStateAutomaton::new(vec![3])
            .unwrap()
            .score_sequences(&all)
            .unwrap();
        assert_eq!(scores, vec![0.0, 0.0]);
    }

    #[test]
    fn validation_and_info() {
        assert!(FiniteStateAutomaton::new(vec![]).is_err());
        assert!(FiniteStateAutomaton::new(vec![0]).is_err());
        let a: Vec<u16> = vec![1, 2];
        assert!(FiniteStateAutomaton::default()
            .score_sequences(&[&a])
            .is_err());
        let i = FiniteStateAutomaton::default().info();
        assert_eq!(i.class, TechniqueClass::UPA);
        assert_eq!(i.citation, "[25]");
    }
}
