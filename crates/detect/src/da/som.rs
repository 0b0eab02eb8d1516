//! Self-organizing map quantization error.
//!
//! Table-1 row **Self-Organizing Map** (González & Dasgupta, *Anomaly
//! Detection Using Real-Valued Negative Selection*, 2003 — citation [11]):
//! a small 2-D SOM is trained on the data; normal points end up close to
//! some codebook vector, so a point's anomaly score is its quantization
//! error (distance to the best-matching unit). Deterministic: codebook
//! initialized on a grid spanned by the data's first two coordinates
//! ranges, standard decaying Gaussian-neighborhood training with a fixed
//! sample order.

use crate::api::{
    check_rows, finite_scores, Capabilities, DetectError, Detector, DetectorInfo, Result,
    TechniqueClass, VectorScorer,
};
use crate::related::sq_dist;

/// SOM quantization-error scorer.
#[derive(Debug, Clone)]
pub struct SelfOrganizingMap {
    /// Grid width.
    pub width: usize,
    /// Grid height.
    pub height: usize,
    /// Training epochs over the data.
    pub epochs: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
}

impl Default for SelfOrganizingMap {
    fn default() -> Self {
        Self {
            width: 4,
            height: 4,
            epochs: 20,
            learning_rate: 0.5,
        }
    }
}

impl SelfOrganizingMap {
    /// Creates a `width × height` map.
    ///
    /// # Errors
    /// Rejects an empty grid.
    pub fn new(width: usize, height: usize) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(DetectError::invalid("grid", "width and height must be > 0"));
        }
        Ok(Self {
            width,
            height,
            ..Self::default()
        })
    }

    /// Trains the codebook on rows, returning the unit vectors
    /// (width·height × d).
    ///
    /// # Errors
    /// Rejects empty/ragged collections.
    pub fn fit(&self, rows: &[&[f64]]) -> Result<Vec<Vec<f64>>> {
        check_rows("SelfOrganizingMap", rows)?;
        let units = self.width * self.height;
        // Initialize codebook by cycling through the data (deterministic,
        // data-spanning).
        let mut codebook: Vec<Vec<f64>> = rows
            .iter()
            .cycle()
            .take(units)
            .map(|r| r.to_vec())
            .collect();
        let total_steps = (self.epochs * rows.len()).max(1);
        let init_radius = (self.width.max(self.height) as f64) / 2.0;
        let mut step = 0_usize;
        for _ in 0..self.epochs {
            for r in rows {
                let frac = step as f64 / total_steps as f64;
                let lr = self.learning_rate * (1.0 - frac).max(0.01);
                let radius = (init_radius * (1.0 - frac)).max(0.5);
                // Best-matching unit.
                let bmu = codebook
                    .iter()
                    .map(|c| sq_dist(c, r))
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(&b.1));
                let Some((bmu, _)) = bmu else { break };
                let (bx, by) = (bmu % self.width, bmu / self.width);
                // Gaussian neighborhood update.
                for (u, unit) in codebook.iter_mut().enumerate() {
                    let (ux, uy) = (u % self.width, u / self.width);
                    let grid_d2 = (ux as f64 - bx as f64).powi(2) + (uy as f64 - by as f64).powi(2);
                    let h = (-grid_d2 / (2.0 * radius * radius)).exp();
                    if h < 1e-4 {
                        continue;
                    }
                    for (c, x) in unit.iter_mut().zip(r.iter()) {
                        *c += lr * h * (x - *c);
                    }
                }
                step += 1;
            }
        }
        Ok(codebook)
    }
}

impl Detector for SelfOrganizingMap {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Self-Organizing Map",
            citation: "[11]",
            class: TechniqueClass::DA,
            capabilities: Capabilities::ALL,
            supervised: false,
        }
    }
}

impl VectorScorer for SelfOrganizingMap {
    fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>> {
        let codebook = self.fit(rows)?;
        let errors = rows
            .iter()
            .map(|r| {
                codebook
                    .iter()
                    .map(|c| sq_dist(c, r))
                    .fold(f64::INFINITY, f64::min)
                    .sqrt()
            })
            .collect();
        finite_scores("SelfOrganizingMap", errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::row_refs;

    fn ring_with_outlier() -> Vec<Vec<f64>> {
        let mut rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let a = i as f64 * std::f64::consts::TAU / 40.0;
                vec![a.cos() * 5.0, a.sin() * 5.0]
            })
            .collect();
        rows.push(vec![40.0, 40.0]);
        rows
    }

    #[test]
    fn outlier_has_largest_quantization_error() {
        let rows = ring_with_outlier();
        let scores = SelfOrganizingMap::default()
            .score_rows(&row_refs(&rows))
            .unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, rows.len() - 1);
    }

    #[test]
    fn normal_points_quantize_well() {
        let rows = ring_with_outlier();
        let scores = SelfOrganizingMap::default()
            .score_rows(&row_refs(&rows))
            .unwrap();
        let ring_max = scores[..40].iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            scores[40] > ring_max * 3.0,
            "outlier {} vs ring max {ring_max}",
            scores[40]
        );
    }

    #[test]
    fn codebook_spans_the_data() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let cb = SelfOrganizingMap::new(3, 3)
            .unwrap()
            .fit(&row_refs(&rows))
            .unwrap();
        assert_eq!(cb.len(), 9);
        let min = cb.iter().map(|c| c[0]).fold(f64::MAX, f64::min);
        let max = cb.iter().map(|c| c[0]).fold(f64::MIN, f64::max);
        assert!(min < 15.0 && max > 35.0, "codebook range [{min}, {max}]");
    }

    #[test]
    fn deterministic() {
        let rows = ring_with_outlier();
        let som = SelfOrganizingMap::default();
        assert_eq!(
            som.score_rows(&row_refs(&rows)).unwrap(),
            som.score_rows(&row_refs(&rows)).unwrap()
        );
    }

    #[test]
    fn validation_and_info() {
        assert!(SelfOrganizingMap::new(0, 3).is_err());
        assert!(SelfOrganizingMap::new(3, 0).is_err());
        assert!(SelfOrganizingMap::default().score_rows(&[]).is_err());
        let i = SelfOrganizingMap::default().info();
        assert_eq!(i.citation, "[11]");
        assert_eq!(i.capabilities.count(), 3);
    }

    #[test]
    fn single_row_scores_zero() {
        let rows = vec![vec![1.0, 2.0]];
        let scores = SelfOrganizingMap::default()
            .score_rows(&row_refs(&rows))
            .unwrap();
        assert!(scores[0] < 1e-9);
    }
}
