//! SAX-based discord discovery.
//!
//! Table-1 row **Symbolic Representation** (Lin et al., *A symbolic
//! representation of time series, with implications for streaming
//! algorithms*, DMKD 2003 — citation [22]): windows are SAX-encoded; a
//! window whose word is *rare* relative to its expected frequency is a
//! candidate outlier subsequence, and the candidate's final score is its
//! true distance to its nearest non-overlapping neighbor (the HOT-SAX
//! discord idea: rare words first, exact distances second — preserving the
//! "computational efficiency" the paper's Section 3 worries about).

use std::collections::HashMap;

use hierod_timeseries::normalize::z_normalize;
use hierod_timeseries::sax::SaxEncoder;
use hierod_timeseries::window::{window_scores_to_point_scores, windows, WindowSpec};

use crate::api::{Capabilities, DetectError, Detector, DetectorInfo, Result, TechniqueClass};
use crate::related::sq_dist;

/// SAX discord scorer for numeric series.
#[derive(Debug, Clone)]
pub struct SaxDiscord {
    /// Window length in samples.
    pub window_len: usize,
    /// SAX word length (PAA segments per window).
    pub word_len: usize,
    /// SAX alphabet size.
    pub alphabet: usize,
}

impl Default for SaxDiscord {
    fn default() -> Self {
        Self {
            window_len: 32,
            word_len: 4,
            alphabet: 4,
        }
    }
}

impl SaxDiscord {
    /// Creates with explicit SAX parameters.
    ///
    /// # Errors
    /// Rejects degenerate parameters.
    pub fn new(window_len: usize, word_len: usize, alphabet: usize) -> Result<Self> {
        if window_len == 0 || word_len == 0 || word_len > window_len {
            return Err(DetectError::invalid(
                "window_len/word_len",
                "need 0 < word_len <= window_len",
            ));
        }
        Ok(Self {
            window_len,
            word_len,
            alphabet,
        })
    }

    /// Scores the sliding windows (stride 1) of a series; returns
    /// `(window_scores, point_scores)`.
    ///
    /// The score of window `i` is its z-normalized Euclidean distance to
    /// the nearest **non-overlapping** window, weighted by the rarity of
    /// its SAX word (`1 / count(word)`): a window that is both symbolically
    /// rare and far from every other window is a discord.
    ///
    /// # Errors
    /// Rejects series shorter than two non-overlapping windows.
    pub fn score(&self, values: &[f64]) -> Result<(Vec<f64>, Vec<f64>)> {
        if values.len() < 2 * self.window_len {
            return Err(DetectError::NotEnoughData {
                what: "SaxDiscord",
                needed: 2 * self.window_len,
                got: values.len(),
            });
        }
        let spec = WindowSpec::new(self.window_len, 1).map_err(DetectError::from)?;
        let encoder = SaxEncoder::new(self.word_len, self.alphabet)?;
        // Encode every window; count word frequencies.
        let mut z_windows: Vec<Vec<f64>> = Vec::with_capacity(spec.count(values.len()));
        let mut words: Vec<Vec<u16>> = Vec::with_capacity(z_windows.capacity());
        let mut word_counts: HashMap<Vec<u16>, usize> = HashMap::new();
        for w in windows(values, spec) {
            let z = z_normalize(w.values)?;
            let word = encoder.encode(w.values)?;
            *word_counts.entry(word.symbols.clone()).or_insert(0) += 1;
            words.push(word.symbols);
            z_windows.push(z);
        }
        let mut w_scores = Vec::with_capacity(z_windows.len());
        for (i, (z, word)) in z_windows.iter().zip(&words).enumerate() {
            // Nearest non-overlapping neighbor distance (exact; windows
            // overlap iff |i - j| < window_len).
            let mut nn = f64::INFINITY;
            for (j, other) in z_windows.iter().enumerate() {
                if i.abs_diff(j) < self.window_len {
                    continue;
                }
                let d = sq_dist(z, other).sqrt();
                if d < nn {
                    nn = d;
                }
            }
            if !nn.is_finite() {
                nn = 0.0;
            }
            let rarity = 1.0 / word_counts.get(word).copied().unwrap_or(1) as f64;
            w_scores.push(nn * rarity.sqrt());
        }
        let p_scores = window_scores_to_point_scores(values.len(), spec, &w_scores);
        Ok((w_scores, p_scores))
    }
}

impl Detector for SaxDiscord {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Symbolic Representation",
            citation: "[22]",
            class: TechniqueClass::OS,
            capabilities: Capabilities::new(false, true, true),
            supervised: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_with_discord(n: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n)
            .map(|i| (i as f64 * std::f64::consts::TAU / 16.0).sin())
            .collect();
        // Replace one period with a flat segment: the discord.
        for x in v.iter_mut().skip(n / 2).take(16) {
            *x = 0.0;
        }
        v
    }

    #[test]
    fn discord_region_carries_top_point_score() {
        let v = sine_with_discord(256);
        let det = SaxDiscord::new(16, 4, 4).unwrap();
        let (w, p) = det.score(&v).unwrap();
        assert_eq!(p.len(), v.len());
        assert!(!w.is_empty());
        let best = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let discord_range = (256 / 2 - 16)..(256 / 2 + 32);
        assert!(
            discord_range.contains(&best),
            "top point {best} should fall near the discord at {}",
            256 / 2
        );
    }

    #[test]
    fn periodic_series_scores_uniformly_low() {
        let v: Vec<f64> = (0..256)
            .map(|i| (i as f64 * std::f64::consts::TAU / 16.0).sin())
            .collect();
        let det = SaxDiscord::new(16, 4, 4).unwrap();
        let (w, _) = det.score(&v).unwrap();
        let max = w.iter().cloned().fold(f64::MIN, f64::max);
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        // No window should dominate a perfectly periodic series.
        assert!(max < mean * 4.0 + 1e-9, "max {max}, mean {mean}");
    }

    #[test]
    fn rarity_weighting_boosts_unique_words() {
        let v = sine_with_discord(200);
        let det = SaxDiscord::new(16, 4, 6).unwrap();
        let (w, _) = det.score(&v).unwrap();
        assert!(w.iter().all(|&s| s >= 0.0 && s.is_finite()));
    }

    #[test]
    fn validation() {
        assert!(SaxDiscord::new(0, 1, 4).is_err());
        assert!(SaxDiscord::new(8, 0, 4).is_err());
        assert!(SaxDiscord::new(8, 16, 4).is_err());
        let det = SaxDiscord::default();
        assert!(det.score(&[0.0; 10]).is_err());
    }

    #[test]
    fn info_matches_table1() {
        let i = SaxDiscord::default().info();
        assert_eq!(i.citation, "[22]");
        assert_eq!(i.class, TechniqueClass::OS);
        assert!(i.capabilities.subsequences && i.capabilities.series);
    }
}
