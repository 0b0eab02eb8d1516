//! [`BoxedScorer`]: one runnable handle over every scorer trait.
//!
//! The registry resolves an [`crate::engine::AlgoSpec`] into a boxed trait
//! object; this enum records which trait that object implements and offers
//! uniform drivers that bridge granularities through the [`crate::adapt`]
//! embeddings (sliding windows, PAA, SAX). Callers that need a specific
//! granularity use [`BoxedScorer::into_point`] & friends; callers that just
//! want "score this data with whatever was configured" use the drivers.

use crate::adapt;
use crate::api::{
    DetectError, Detector, DetectorInfo, DiscreteScorer, PointScorer, Result, SeriesScorer,
    SupervisedScorer, VectorScorer,
};
use hierod_timeseries::window::WindowSpec;

/// The granularity/trait a built scorer operates at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScorerKind {
    /// [`PointScorer`]: per-sample scores of one numeric series.
    Point,
    /// [`VectorScorer`]: per-row scores of a vector collection.
    Vector,
    /// [`DiscreteScorer`]: per-sequence scores of a symbol-sequence set.
    Discrete,
    /// [`SeriesScorer`]: per-series scores of a whole-series collection.
    Series,
    /// [`SupervisedScorer`]: fit on labels, then score.
    Supervised,
}

impl ScorerKind {
    /// Short label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ScorerKind::Point => "point",
            ScorerKind::Vector => "vector",
            ScorerKind::Discrete => "discrete",
            ScorerKind::Series => "series",
            ScorerKind::Supervised => "supervised",
        }
    }
}

/// A registry-built scorer: a boxed trait object tagged with its trait.
pub enum BoxedScorer {
    /// Per-point scorer.
    Point(Box<dyn PointScorer + Send + Sync>),
    /// Vector-collection scorer.
    Vector(Box<dyn VectorScorer + Send + Sync>),
    /// Symbol-sequence scorer.
    Discrete(Box<dyn DiscreteScorer + Send + Sync>),
    /// Whole-series-collection scorer.
    Series(Box<dyn SeriesScorer + Send + Sync>),
    /// Supervised scorer (fit + predict).
    Supervised(Box<dyn SupervisedScorer + Send + Sync>),
}

impl std::fmt::Debug for BoxedScorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BoxedScorer::{}({})",
            self.kind().label(),
            self.info().name
        )
    }
}

/// Symbolization defaults used by the granularity-bridging drivers.
const BRIDGE_BLOCK: usize = 2;
const BRIDGE_ALPHABET: usize = 6;
const BRIDGE_WORD: usize = 4;

fn wrong_granularity(have: ScorerKind, want: &str) -> DetectError {
    DetectError::invalid(
        "granularity",
        format!("{} scorer cannot serve {want} scoring", have.label()),
    )
}

impl BoxedScorer {
    /// The underlying detector's metadata.
    pub fn info(&self) -> DetectorInfo {
        match self {
            BoxedScorer::Point(s) => s.info(),
            BoxedScorer::Vector(s) => s.info(),
            BoxedScorer::Discrete(s) => s.info(),
            BoxedScorer::Series(s) => s.info(),
            BoxedScorer::Supervised(s) => s.info(),
        }
    }

    /// Which trait the built scorer implements.
    pub fn kind(&self) -> ScorerKind {
        match self {
            BoxedScorer::Point(_) => ScorerKind::Point,
            BoxedScorer::Vector(_) => ScorerKind::Vector,
            BoxedScorer::Discrete(_) => ScorerKind::Discrete,
            BoxedScorer::Series(_) => ScorerKind::Series,
            BoxedScorer::Supervised(_) => ScorerKind::Supervised,
        }
    }

    /// Unwraps the point scorer.
    ///
    /// # Errors
    /// Rejects non-point scorers.
    pub fn into_point(self) -> Result<Box<dyn PointScorer + Send + Sync>> {
        match self {
            BoxedScorer::Point(s) => Ok(s),
            other => Err(wrong_granularity(other.kind(), "point")),
        }
    }

    /// Unwraps the vector scorer.
    ///
    /// # Errors
    /// Rejects non-vector scorers.
    pub fn into_vector(self) -> Result<Box<dyn VectorScorer + Send + Sync>> {
        match self {
            BoxedScorer::Vector(s) => Ok(s),
            other => Err(wrong_granularity(other.kind(), "vector")),
        }
    }

    /// Scores one numeric series per point.
    ///
    /// Point scorers run natively; vector scorers run over z-normalized
    /// sliding windows (window length scales with the series, scores spread
    /// back to points by covering-window max); discrete scorers run over
    /// SAX symbol windows. Series and supervised scorers reject.
    ///
    /// # Errors
    /// Propagates scorer errors; rejects unsupported granularities.
    pub fn score_points(&self, values: &[f64]) -> Result<Vec<f64>> {
        match self {
            BoxedScorer::Point(s) => s.score_points(values),
            BoxedScorer::Vector(s) => {
                let win = (values.len() / 8).clamp(4, 32);
                let spec = WindowSpec::new(win, 1).map_err(DetectError::from)?;
                adapt::score_windows_with(s.as_ref(), values, spec, true).map(|(_, p)| p)
            }
            BoxedScorer::Discrete(s) => adapt::score_points_via_symbols(
                s.as_ref(),
                values,
                BRIDGE_BLOCK,
                BRIDGE_ALPHABET,
                BRIDGE_WORD,
            ),
            other => Err(wrong_granularity(other.kind(), "point")),
        }
    }

    /// Scores each row of a vector collection against the rest. Rows are
    /// borrowed (see [`VectorScorer::score_rows`]); adapt owned collections
    /// with [`crate::api::row_refs`].
    ///
    /// # Errors
    /// Propagates scorer errors; rejects unsupported granularities
    /// (supervised scorers must go through [`Self::fit`]/[`Self::predict`]).
    pub fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>> {
        match self {
            BoxedScorer::Vector(s) => s.score_rows(rows),
            other => Err(wrong_granularity(other.kind(), "vector")),
        }
    }

    /// Scores each whole series of a collection against the rest.
    ///
    /// Series scorers run natively; vector scorers run over the PAA
    /// embedding with `segments` values per series; point scorers score
    /// each member independently and report its mean point score; discrete
    /// scorers run over each member's SAX symbolization.
    ///
    /// # Errors
    /// Propagates scorer errors; rejects supervised scorers.
    pub fn score_collection(&self, collection: &[&[f64]], segments: usize) -> Result<Vec<f64>> {
        match self {
            BoxedScorer::Series(s) => s.score_series(collection),
            BoxedScorer::Vector(s) => adapt::score_series_with(s.as_ref(), collection, segments),
            BoxedScorer::Point(s) => collection
                .iter()
                .map(|series| {
                    let scores = s.score_points(series)?;
                    let n = scores.len().max(1) as f64;
                    Ok(scores.iter().sum::<f64>() / n)
                })
                .collect(),
            BoxedScorer::Discrete(s) => {
                let symbolized: Vec<Vec<u16>> = collection
                    .iter()
                    .map(|series| adapt::symbolize(series, BRIDGE_BLOCK, BRIDGE_ALPHABET))
                    .collect::<Result<_>>()?;
                let refs: Vec<&[u16]> = symbolized.iter().map(Vec::as_slice).collect();
                s.score_sequences(&refs)
            }
            other => Err(wrong_granularity(other.kind(), "series")),
        }
    }

    /// Fits a supervised scorer on labeled rows.
    ///
    /// # Errors
    /// Propagates fit errors; rejects unsupervised scorers.
    pub fn fit(&mut self, rows: &[Vec<f64>], labels: &[bool]) -> Result<()> {
        match self {
            BoxedScorer::Supervised(s) => s.fit(rows, labels),
            other => Err(wrong_granularity(other.kind(), "supervised fit")),
        }
    }

    /// Scores rows with a fitted supervised scorer.
    ///
    /// # Errors
    /// [`DetectError::NotFitted`] before [`Self::fit`]; rejects
    /// unsupervised scorers.
    pub fn predict(&self, rows: &[Vec<f64>]) -> Result<Vec<f64>> {
        match self {
            BoxedScorer::Supervised(s) => s.predict(rows),
            other => Err(wrong_granularity(other.kind(), "supervised predict")),
        }
    }
}

/// Adapter: [`crate::os::SaxDiscord`] as a [`PointScorer`] (its per-point
/// discord scores; the per-window scores are dropped).
pub(crate) struct SaxPoints(pub crate::os::SaxDiscord);

impl Detector for SaxPoints {
    fn info(&self) -> DetectorInfo {
        self.0.info()
    }
}

impl PointScorer for SaxPoints {
    fn score_points(&self, values: &[f64]) -> Result<Vec<f64>> {
        self.0.score(values).map(|(_, points)| points)
    }
}

/// Adapter: [`crate::nmd::AnomalyDictionary`] as a [`DiscreteScorer`]
/// (scores each sequence against the dictionary's negative patterns). A
/// dictionary holding no patterns yet matches nothing, so every sequence
/// scores 0 instead of erroring — the NMD semantics of "no known anomalies".
pub(crate) struct DictSequences(pub crate::nmd::AnomalyDictionary);

impl Detector for DictSequences {
    fn info(&self) -> DetectorInfo {
        self.0.info()
    }
}

impl DiscreteScorer for DictSequences {
    fn score_sequences(&self, seqs: &[&[u16]]) -> Result<Vec<f64>> {
        if self.0.is_empty() {
            return Ok(vec![0.0; seqs.len()]);
        }
        self.0.score(seqs)
    }
}

/// Adapter: [`crate::sa::MotifRuleClassifier`] as a [`SupervisedScorer`]
/// over numeric rows. Fit learns global quantile bin edges from the
/// training values and symbolizes each row through them; predict reuses the
/// learned edges, so train and test rows share one discretization.
pub(crate) struct MotifOnVectors {
    pub inner: crate::sa::MotifRuleClassifier,
    pub alphabet: usize,
    edges: Option<Vec<f64>>,
}

impl MotifOnVectors {
    pub(crate) fn new(inner: crate::sa::MotifRuleClassifier, alphabet: usize) -> Self {
        Self {
            inner,
            alphabet,
            edges: None,
        }
    }

    fn symbolize_rows(&self, rows: &[Vec<f64>], edges: &[f64]) -> Vec<Vec<u16>> {
        rows.iter()
            .map(|r| {
                r.iter()
                    .map(|&v| edges.iter().filter(|&&e| v > e).count() as u16)
                    .collect()
            })
            .collect()
    }
}

impl Detector for MotifOnVectors {
    fn info(&self) -> DetectorInfo {
        self.inner.info()
    }
}

impl SupervisedScorer for MotifOnVectors {
    fn fit(&mut self, rows: &[Vec<f64>], labels: &[bool]) -> Result<()> {
        crate::api::check_rows("motif-rules", rows)?;
        let mut all: Vec<f64> = rows.iter().flatten().copied().collect();
        all.sort_by(|a, b| a.total_cmp(b));
        // alphabet bins need alphabet - 1 interior edges.
        let edges: Vec<f64> = (1..self.alphabet)
            .filter_map(|i| all.get(i * (all.len() - 1) / self.alphabet).copied())
            .collect();
        let seqs = self.symbolize_rows(rows, &edges);
        let refs: Vec<&[u16]> = seqs.iter().map(Vec::as_slice).collect();
        self.inner.fit_sequences(&refs, labels)?;
        self.edges = Some(edges);
        Ok(())
    }

    fn predict(&self, rows: &[Vec<f64>]) -> Result<Vec<f64>> {
        let edges = self.edges.as_ref().ok_or(DetectError::NotFitted)?;
        let seqs = self.symbolize_rows(rows, edges);
        let refs: Vec<&[u16]> = seqs.iter().map(Vec::as_slice).collect();
        self.inner.predict_sequences(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pm::AutoregressiveModel;
    use crate::stat::SlidingZScore;

    fn spike_series() -> Vec<f64> {
        let mut v: Vec<f64> = (0..96).map(|i| (i as f64 * 0.37).sin()).collect();
        v[48] += 12.0;
        v
    }

    #[test]
    fn point_scorer_drives_natively() {
        let s = BoxedScorer::Point(Box::new(SlidingZScore::new(16).unwrap()));
        assert_eq!(s.kind(), ScorerKind::Point);
        let scores = s.score_points(&spike_series()).unwrap();
        assert_eq!(scores.len(), 96);
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 48);
    }

    #[test]
    fn vector_scorer_bridges_to_points_and_series() {
        let s = BoxedScorer::Vector(Box::new(
            crate::da::PrincipalComponentSpace::new(1).unwrap(),
        ));
        let p = s.score_points(&spike_series()).unwrap();
        assert_eq!(p.len(), 96);
        assert!(p.iter().all(|x| x.is_finite()));

        let a: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3 + 0.05).sin()).collect();
        let weird: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let scores = s.score_collection(&[&a, &b, &weird], 8).unwrap();
        assert_eq!(scores.len(), 3);
        assert!(scores[2] > scores[0]);
    }

    #[test]
    fn granularity_mismatches_are_rejected() {
        let s = BoxedScorer::Point(Box::new(AutoregressiveModel::new(2).unwrap()));
        assert!(s.score_rows(&[[1.0, 2.0].as_slice()]).is_err());
        assert!(s.predict(&[vec![1.0, 2.0]]).is_err());
        let mut s = s;
        assert!(s.fit(&[vec![1.0, 2.0]], &[false]).is_err());
        assert!(s.into_vector().is_err());
    }

    #[test]
    fn point_scorer_serves_collections_by_mean_score() {
        let s = BoxedScorer::Point(Box::new(SlidingZScore::new(8).unwrap()));
        // Identical series except for the spike, so the mean point score
        // difference is attributable to the spike alone.
        let quiet: Vec<f64> = (0..96).map(|i| (i as f64 * 0.37).sin()).collect();
        let loud = spike_series();
        let scores = s.score_collection(&[&quiet, &loud], 8).unwrap();
        assert!(scores[1] > scores[0]);
    }

    #[test]
    fn motif_adapter_fits_and_predicts() {
        let mut rows: Vec<Vec<f64>> = (0..24).map(|i| vec![0.0, (i % 3) as f64, 1.0]).collect();
        let mut labels = vec![false; 24];
        for i in 0..6 {
            rows.push(vec![9.0, 9.0, 9.0 + i as f64]);
            labels.push(true);
        }
        let mut s = BoxedScorer::Supervised(Box::new(MotifOnVectors::new(
            crate::sa::MotifRuleClassifier::new(2).unwrap(),
            4,
        )));
        assert!(s.predict(&rows).is_err(), "predict before fit");
        s.fit(&rows, &labels).unwrap();
        let scores = s.predict(&rows).unwrap();
        assert_eq!(scores.len(), rows.len());
        assert!(scores.iter().all(|x| x.is_finite()));
        // Anomalous rows should outscore normal ones on average.
        let mean = |idx: &[usize]| idx.iter().map(|&i| scores[i]).sum::<f64>() / idx.len() as f64;
        let normal: Vec<usize> = (0..24).collect();
        let anomalous: Vec<usize> = (24..30).collect();
        assert!(mean(&anomalous) > mean(&normal));
    }
}
