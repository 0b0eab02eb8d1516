//! Anomaly dictionary.
//!
//! Table-1 row **Anomaly Dictionary** (Cabrera, Lewis & Mehra, *Detection
//! and classification of intrusions and faults using sequences of system
//! calls*, SIGMOD Record 2001 — citation [3]): a dictionary of
//! known-anomalous subsequences is maintained; a test sequence is anomalous
//! to the degree it *matches* a dictionary entry (the inverse of the NPD
//! logic). Matching is soft: the score of a sequence is the best
//! subsequence similarity to any dictionary entry.

use crate::api::{Capabilities, DetectError, Detector, DetectorInfo, Result, TechniqueClass};

/// Dictionary of known-anomalous symbol patterns.
#[derive(Debug, Clone, Default)]
pub struct AnomalyDictionary {
    entries: Vec<Vec<u16>>,
}

impl AnomalyDictionary {
    /// Creates an empty dictionary.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds a known-anomalous pattern.
    ///
    /// # Errors
    /// Rejects empty patterns.
    pub(crate) fn add(&mut self, pattern: Vec<u16>) -> Result<()> {
        if pattern.is_empty() {
            return Err(DetectError::invalid("pattern", "must be non-empty"));
        }
        self.entries.push(pattern);
        Ok(())
    }

    /// Builds from a set of known-anomalous sequences.
    ///
    /// # Errors
    /// Rejects empty input or empty member patterns.
    pub fn from_patterns(patterns: &[&[u16]]) -> Result<Self> {
        if patterns.is_empty() {
            return Err(DetectError::NotEnoughData {
                what: "AnomalyDictionary",
                needed: 1,
                got: 0,
            });
        }
        let mut dict = Self::new();
        for p in patterns {
            dict.add(p.to_vec())?;
        }
        Ok(dict)
    }

    /// `true` when the dictionary holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Best match similarity in `[0, 1]` of any dictionary entry against any
    /// alignment within `seq`: 1 means some entry occurs exactly.
    ///
    /// # Errors
    /// Returns [`DetectError::NotFitted`] for an empty dictionary.
    pub(crate) fn match_score(&self, seq: &[u16]) -> Result<f64> {
        if self.entries.is_empty() {
            return Err(DetectError::NotFitted);
        }
        let mut best = 0.0_f64;
        for entry in &self.entries {
            if entry.len() > seq.len() {
                // Partial alignment: compare the overlapping prefix.
                let matches = entry.iter().zip(seq).filter(|(a, b)| a == b).count();
                best = best.max(matches as f64 / entry.len() as f64);
                continue;
            }
            for window in seq.windows(entry.len()) {
                let matches = entry.iter().zip(window).filter(|(a, b)| a == b).count();
                best = best.max(matches as f64 / entry.len() as f64);
                if best == 1.0 {
                    return Ok(1.0);
                }
            }
        }
        Ok(best)
    }

    /// Scores a collection of sequences against the dictionary.
    ///
    /// # Errors
    /// Returns [`DetectError::NotFitted`] for an empty dictionary.
    pub fn score(&self, seqs: &[&[u16]]) -> Result<Vec<f64>> {
        seqs.iter().map(|s| self.match_score(s)).collect()
    }
}

impl Detector for AnomalyDictionary {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Anomaly Dictionary",
            citation: "[3]",
            class: TechniqueClass::NMD,
            capabilities: Capabilities::new(false, true, false),
            supervised: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> AnomalyDictionary {
        AnomalyDictionary::from_patterns(&[&[7, 7, 7][..], &[1, 2, 1, 2][..]]).unwrap()
    }

    #[test]
    fn exact_dictionary_hit_scores_one() {
        let d = dict();
        assert_eq!(d.match_score(&[0, 0, 7, 7, 7, 0]).unwrap(), 1.0);
        assert_eq!(d.match_score(&[1, 2, 1, 2]).unwrap(), 1.0);
    }

    #[test]
    fn partial_hit_scores_fractionally() {
        let d = dict();
        // Two of three symbols of "7 7 7" present in a window.
        let s = d.match_score(&[0, 7, 7, 9, 0]).unwrap();
        assert!((s - 2.0 / 3.0).abs() < 1e-9, "score {s}");
    }

    #[test]
    fn clean_sequence_scores_low() {
        let d = dict();
        let s = d.match_score(&[3, 4, 5, 6, 3, 4]).unwrap();
        assert!(s < 0.5, "score {s}");
    }

    #[test]
    fn entry_longer_than_sequence_uses_prefix_overlap() {
        let d = AnomalyDictionary::from_patterns(&[&[5, 5, 5, 5, 5][..]]).unwrap();
        let s = d.match_score(&[5, 5]).unwrap();
        assert!((s - 0.4).abs() < 1e-9);
    }

    #[test]
    fn score_batch() {
        let d = dict();
        assert!(!d.is_empty());
        let a: Vec<u16> = vec![7, 7, 7];
        let b: Vec<u16> = vec![0, 0, 0];
        let scores = d.score(&[&a, &b]).unwrap();
        assert!(scores[0] > scores[1]);
    }

    #[test]
    fn validation() {
        assert!(AnomalyDictionary::from_patterns(&[]).is_err());
        let mut d = AnomalyDictionary::new();
        assert!(d.add(vec![]).is_err());
        assert!(matches!(d.match_score(&[1]), Err(DetectError::NotFitted)));
        assert!(d.add(vec![1]).is_ok());
        assert!(d.match_score(&[1]).is_ok());
    }

    #[test]
    fn info_matches_table1() {
        let i = dict().info();
        assert_eq!(i.citation, "[3]");
        assert_eq!(i.class, TechniqueClass::NMD);
        assert_eq!(i.capabilities.count(), 1);
        assert!(i.capabilities.subsequences);
    }
}
