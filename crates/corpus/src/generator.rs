//! Calibrated corpus generator for the Fig.-3 reproduction.
//!
//! Web of Science is proprietary, so the absolute counts of the paper's
//! Fig. 3 cannot be re-queried offline. What the figure communicates — and
//! what this generator is calibrated to — is the *relative* popularity of
//! the eight synonym research fields after the "time series" +
//! "automation control systems" restriction: fault detection and anomaly
//! detection dominate, intrusion/outlier/event detection form a middle
//! tier, and novelty detection, change-point detection, and especially
//! deviant discovery are rare. The target counts below encode that shape on
//! the figure's 0–2000 axis.
//!
//! For every field the generator emits `target` fully matching documents
//! plus three kinds of distractors (wrong category, missing "time series",
//! words present but not adjacent as a phrase), so the query engine's
//! phrase/AND/category machinery is genuinely exercised rather than fed
//! only positives.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::document::{Category, Document};
use crate::index::InvertedIndex;

/// One research-field bar of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// The search phrase (the bar's label).
    pub term: &'static str,
    /// Calibrated target count at scale 1.0 (documents matching the full
    /// Fig.-3 query).
    pub target: usize,
}

/// The eight fields of Fig. 3 with calibrated relative targets.
pub const FIG3_FIELDS: [FieldSpec; 8] = [
    FieldSpec {
        term: "anomaly detection",
        target: 1850,
    },
    FieldSpec {
        term: "outlier detection",
        target: 950,
    },
    FieldSpec {
        term: "event detection",
        target: 700,
    },
    FieldSpec {
        term: "novelty detection",
        target: 150,
    },
    FieldSpec {
        term: "deviant discovery",
        target: 4,
    },
    FieldSpec {
        term: "change point detection",
        target: 300,
    },
    FieldSpec {
        term: "fault detection",
        target: 1950,
    },
    FieldSpec {
        term: "intrusion detection",
        target: 600,
    },
];

const FILLER: &[&str] = &[
    "robust",
    "adaptive",
    "online",
    "distributed",
    "industrial",
    "sensor",
    "streaming",
    "multivariate",
    "probabilistic",
    "spectral",
    "wavelet",
    "deep",
    "statistical",
    "data-driven",
    "real-time",
    "scalable",
];

const DOMAINS: &[&str] = &[
    "manufacturing plants",
    "process control loops",
    "rotating machinery",
    "chemical reactors",
    "power grids",
    "production lines",
    "hydraulic systems",
    "assembly robots",
];

/// A uniformly random element ("" only for an empty slice, which the
/// word tables above never are).
fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options
        .get(rng.gen_range(0..options.len()))
        .copied()
        .unwrap_or("")
}

/// Distractors per matching document.
const DISTRACTOR_RATIO: f64 = 0.5;

/// Deterministic corpus generator.
#[derive(Debug, Clone)]
pub struct CorpusGenerator {
    seed: u64,
    /// Multiplier applied to every field target (and distractor volume);
    /// use < 1.0 for fast tests, 1.0 for the full figure.
    scale: f64,
}

impl CorpusGenerator {
    /// Creates a generator with the given RNG seed at full scale.
    pub fn new(seed: u64) -> Self {
        Self { seed, scale: 1.0 }
    }

    /// Sets the scale multiplier (clamped to be ≥ 0).
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale.max(0.0);
        self
    }

    /// Scaled expected count for one field (what the Fig.-3 query should
    /// return, up to the rounding applied here).
    pub fn expected_count(&self, field: &FieldSpec) -> usize {
        (field.target as f64 * self.scale).round() as usize
    }

    /// Generates the whole corpus (all eight fields + distractors),
    /// shuffled deterministically.
    pub fn generate(&self) -> Vec<Document> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut docs = Vec::new();
        for field in &FIG3_FIELDS {
            let n = self.expected_count(field);
            for _ in 0..n {
                docs.push(self.matching_doc(field.term, &mut rng));
            }
            let d = (n as f64 * DISTRACTOR_RATIO).round() as usize;
            for i in 0..d {
                docs.push(self.distractor_doc(field.term, i % 3, &mut rng));
            }
        }
        docs.shuffle(&mut rng);
        docs
    }

    /// Generates and indexes the corpus in one step.
    pub fn build_index(&self) -> InvertedIndex {
        InvertedIndex::build(self.generate())
    }

    /// A document matching the full Fig.-3 query for `term`.
    fn matching_doc(&self, term: &str, rng: &mut StdRng) -> Document {
        let f1 = pick(rng, FILLER);
        let f2 = pick(rng, FILLER);
        let dom = pick(rng, DOMAINS);
        let title = format!("{f1} {term} for time series in {dom}");
        let abstract_text = format!(
            "We present a {f2} approach to {term} on time series data collected from {dom}."
        );
        let mut categories = vec![Category::AutomationControlSystems];
        if rng.gen_bool(0.4) {
            categories.push(Category::Engineering);
        }
        Document {
            title,
            abstract_text,
            keywords: vec![term.to_string(), "time series".to_string()],
            year: rng.gen_range(1995..=2018),
            categories,
        }
    }

    /// A distractor that fails exactly one clause of the Fig.-3 query.
    fn distractor_doc(&self, term: &str, kind: usize, rng: &mut StdRng) -> Document {
        let f1 = pick(rng, FILLER);
        let dom = pick(rng, DOMAINS);
        match kind {
            // Wrong category: everything matches textually, category fails.
            0 => Document {
                title: format!("{f1} {term} for time series beyond {dom}"),
                abstract_text: format!("A {term} study on time series."),
                keywords: vec![term.to_string()],
                year: rng.gen_range(1995..=2018),
                categories: vec![match rng.gen_range(0..4) {
                    0 => Category::ComputerScience,
                    1 => Category::Statistics,
                    2 => Category::LifeSciences,
                    _ => Category::Environment,
                }],
            },
            // Missing the "time series" phrase ("time" and "series" appear,
            // but never adjacent).
            1 => Document {
                title: format!("{f1} {term} with series models over time in {dom}"),
                abstract_text: format!("This {term} work studies series data where time matters."),
                keywords: vec![term.to_string()],
                year: rng.gen_range(1995..=2018),
                categories: vec![Category::AutomationControlSystems],
            },
            // Field words present but not adjacent as a phrase.
            _ => {
                let words: Vec<&str> = term.split(' ').collect();
                let scrambled = words.join(" of the ");
                Document {
                    title: format!("{f1} {scrambled} in time series from {dom}"),
                    abstract_text: "A survey.".to_string(),
                    keywords: vec![],
                    year: rng.gen_range(1995..=2018),
                    categories: vec![Category::AutomationControlSystems],
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryEngine;

    #[test]
    fn generation_is_deterministic() {
        let a = CorpusGenerator::new(7).with_scale(0.02).generate();
        let b = CorpusGenerator::new(7).with_scale(0.02).generate();
        assert_eq!(a, b);
        let c = CorpusGenerator::new(8).with_scale(0.02).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn fig3_counts_match_targets_exactly_at_small_scale() {
        let g = CorpusGenerator::new(42).with_scale(0.05);
        let idx = g.build_index();
        let eng = QueryEngine::new(&idx);
        for field in &FIG3_FIELDS {
            let expected = g.expected_count(field);
            let got = eng.count(&QueryEngine::fig3_query(field.term));
            assert_eq!(
                got, expected,
                "field `{}`: expected {expected}, got {got}",
                field.term
            );
        }
    }

    #[test]
    fn distractors_inflate_corpus_but_not_counts() {
        let g = CorpusGenerator::new(1).with_scale(0.05);
        let matching: usize = FIG3_FIELDS.iter().map(|f| g.expected_count(f)).sum();
        assert!(g.generate().len() > matching);
        let eng_idx = g.build_index();
        let eng = QueryEngine::new(&eng_idx);
        let g_expected = g.expected_count(&FIG3_FIELDS[0]);
        assert_eq!(
            eng.count(&QueryEngine::fig3_query(FIG3_FIELDS[0].term)),
            g_expected
        );
    }

    #[test]
    fn relative_ordering_matches_paper_shape() {
        let g = CorpusGenerator::new(3).with_scale(0.05);
        let idx = g.build_index();
        let eng = QueryEngine::new(&idx);
        let count = |t: &str| eng.count(&QueryEngine::fig3_query(t));
        // Fault & anomaly dominate; deviant discovery is (near) zero.
        assert!(count("fault detection") > count("outlier detection"));
        assert!(count("anomaly detection") > count("outlier detection"));
        assert!(count("outlier detection") > count("novelty detection"));
        assert!(count("deviant discovery") <= count("novelty detection"));
    }

    #[test]
    fn scale_zero_yields_empty_corpus() {
        let g = CorpusGenerator::new(1).with_scale(0.0);
        assert!(g.generate().is_empty());
    }

    #[test]
    fn expected_count_rounds() {
        let g = CorpusGenerator::new(1).with_scale(0.001);
        // 1850 * 0.001 = 1.85 -> 2.
        assert_eq!(g.expected_count(&FIG3_FIELDS[0]), 2);
        assert_eq!(g.expected_count(&FIG3_FIELDS[4]), 0); // 4 * 0.001 -> 0
    }
}
