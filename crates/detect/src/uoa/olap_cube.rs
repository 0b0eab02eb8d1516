//! OLAP-cube cell anomalies.
//!
//! Table-1 row **Online Analytical Processing Cube** (Li & Han, *Mining
//! approximate top-k subspace anomalies in multi-dimensional time-series
//! data*, VLDB 2007 — citation [20]): multidimensional data is aggregated
//! into a cube and each cell is treated as a measure; cells deviating from
//! their peer groups are anomalies. The cube machinery lives in
//! `hierod-olap`; this detector adds two entry points:
//!
//! * [`OlapCubeDetector::score_cube`] — score an existing cube's cells.
//! * The [`VectorScorer`] impl — quantize each feature column into
//!   equi-width buckets, treat bucket ids as dimensions, build a cube with
//!   the row count as measure, and score each row by the *rarity* of its
//!   cell combined with the cell's peer-group residual.

use hierod_olap::{cell_outlierness, CellScore, Cube, CubeSchema, Dimension};

use crate::api::{
    check_rows, Capabilities, DetectError, Detector, DetectorInfo, Result, TechniqueClass,
    VectorScorer,
};

/// OLAP cell-outlierness detector.
#[derive(Debug, Clone)]
pub struct OlapCubeDetector {
    /// Buckets per feature column when quantizing vector collections.
    pub buckets: usize,
    /// Minimum peers for the cell residual (see `hierod-olap`).
    pub min_peers: usize,
}

impl Default for OlapCubeDetector {
    fn default() -> Self {
        Self {
            buckets: 4,
            min_peers: 2,
        }
    }
}

impl OlapCubeDetector {
    /// Creates with an explicit bucket count.
    ///
    /// # Errors
    /// Rejects `buckets < 2`.
    pub fn new(buckets: usize) -> Result<Self> {
        if buckets < 2 {
            return Err(DetectError::invalid("buckets", "must be >= 2"));
        }
        Ok(Self {
            buckets,
            ..Self::default()
        })
    }

    /// Scores the cells of an existing cube (peer-group residuals).
    pub fn score_cube(&self, cube: &Cube) -> Vec<CellScore> {
        cell_outlierness(cube, self.min_peers)
    }

    /// Quantizes rows of width `d` into per-column equi-width bucket
    /// coordinates.
    fn coordinates(&self, rows: &[&[f64]], d: usize) -> Vec<Vec<usize>> {
        let mut lo = vec![f64::INFINITY; d];
        let mut hi = vec![f64::NEG_INFINITY; d];
        for r in rows {
            for ((l, h), x) in lo.iter_mut().zip(hi.iter_mut()).zip(r.iter()) {
                *l = l.min(*x);
                *h = h.max(*x);
            }
        }
        rows.iter()
            .map(|r| {
                r.iter()
                    .zip(lo.iter().zip(&hi))
                    .map(|(&x, (&l, &h))| {
                        if h <= l {
                            0
                        } else {
                            (((x - l) / (h - l) * self.buckets as f64) as usize)
                                .min(self.buckets - 1)
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

impl Detector for OlapCubeDetector {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Online Analytical Processing Cube",
            citation: "[20]",
            class: TechniqueClass::UOA,
            capabilities: Capabilities::new(true, false, true),
            supervised: false,
        }
    }
}

impl VectorScorer for OlapCubeDetector {
    fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>> {
        let d = check_rows("OlapCubeDetector", rows)?;
        let coords = self.coordinates(rows, d);
        let schema = CubeSchema::new(
            (0..d)
                .map(|c| Dimension::indexed(format!("f{c}"), self.buckets))
                .collect::<std::result::Result<Vec<_>, _>>()
                .map_err(|e| DetectError::Substrate(e.to_string()))?,
        )
        .map_err(|e| DetectError::Substrate(e.to_string()))?;
        let mut cube = Cube::new(schema);
        for c in &coords {
            cube.insert(c, 1.0)
                .map_err(|e| DetectError::Substrate(e.to_string()))?;
        }
        // Cell rarity: 1 / population; plus the peer residual of the cell,
        // rank-combined so both sparse cells and off-trend cells surface.
        let residuals = cell_outlierness(&cube, self.min_peers);
        let max_resid = residuals
            .iter()
            .map(|s| s.score)
            .fold(0.0_f64, f64::max)
            .max(1e-12);
        let n = rows.len() as f64;
        Ok(coords
            .iter()
            .map(|c| {
                let pop = cube.cell(c).map(|cell| cell.count).unwrap_or(0) as f64;
                let rarity = 1.0 - pop / n;
                let resid = residuals
                    .iter()
                    .find(|s| s.coords == *c)
                    .map(|s| s.score / max_resid)
                    .unwrap_or(0.0);
                rarity + 0.5 * resid
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::row_refs;

    #[test]
    fn lone_cell_row_scores_highest() {
        // 20 rows in a dense corner, 1 row far away (its own cell).
        let mut rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 4) as f64 * 0.01, (i / 4) as f64 * 0.01])
            .collect();
        rows.push(vec![10.0, 10.0]);
        let scores = OlapCubeDetector::default()
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
    fn dense_cells_score_low() {
        // All rows identical: one fully populated cell, rarity 0.
        let rows: Vec<Vec<f64>> = (0..30).map(|_| vec![1.0, 2.0]).collect();
        let scores = OlapCubeDetector::default()
            .score_rows(&row_refs(&rows))
            .unwrap();
        assert!(scores.iter().all(|&s| s < 0.2), "{scores:?}");
        // Two equally dense cells: both moderate, neither flagged as rare
        // relative to the other.
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![(i % 2) as f64]).collect();
        let scores = OlapCubeDetector::default()
            .score_rows(&row_refs(&rows))
            .unwrap();
        let spread = scores.iter().cloned().fold(f64::MIN, f64::max)
            - scores.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 1e-9, "{scores:?}");
    }

    #[test]
    fn score_cube_delegates_to_olap_analysis() {
        let schema = CubeSchema::new(vec![
            Dimension::indexed("a", 3).unwrap(),
            Dimension::indexed("b", 3).unwrap(),
        ])
        .unwrap();
        let mut cube = Cube::new(schema);
        for i in 0..3 {
            for j in 0..3 {
                let v = if (i, j) == (2, 2) { 100.0 } else { 1.0 };
                cube.insert(&[i, j], v).unwrap();
            }
        }
        let det = OlapCubeDetector::default();
        let scores = det.score_cube(&cube);
        let top = scores
            .iter()
            .max_by(|a, b| a.score.total_cmp(&b.score))
            .unwrap();
        assert_eq!(top.coords, vec![2, 2]);
    }

    #[test]
    fn constant_column_handled() {
        let rows = vec![vec![1.0, 5.0], vec![2.0, 5.0], vec![3.0, 5.0]];
        let scores = OlapCubeDetector::default()
            .score_rows(&row_refs(&rows))
            .unwrap();
        assert_eq!(scores.len(), 3);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn validation_and_info() {
        assert!(OlapCubeDetector::new(1).is_err());
        assert!(OlapCubeDetector::default().score_rows(&[]).is_err());
        let i = OlapCubeDetector::default().info();
        assert_eq!(i.citation, "[20]");
        assert_eq!(i.class, TechniqueClass::UOA);
        assert!(i.capabilities.points && i.capabilities.series);
    }
}
