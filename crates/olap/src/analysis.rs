//! Per-cell outlierness analysis.
//!
//! Li & Han's subspace-anomaly approach treats each cube cell as a measure
//! and looks for cells that deviate from their peers. We implement the
//! peer-group studentized residual: a cell's score is `|mean(cell) −
//! mean(peers)| / std(peer means)`, where the peer group holds all cells
//! sharing the cell's coordinates on every dimension **except** one probe
//! dimension. The final score is the maximum over probe dimensions, so a
//! cell is anomalous if it stands out along *any* axis.

use crate::cube::Cube;

/// A scored cube cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellScore {
    /// The cell's coordinates.
    pub coords: Vec<usize>,
    /// The cell's mean measure.
    pub mean: f64,
    /// Peer-group studentized residual (max over probe dimensions).
    pub score: f64,
    /// Probe dimension index achieving the max.
    pub worst_dimension: usize,
}

/// Scores every populated cell of the cube (deterministic order).
///
/// Peer groups with fewer than `min_peers` members contribute score 0 for
/// that probe dimension (not enough evidence). Zero-variance peer groups use
/// the absolute deviation instead of a studentized one so a genuinely
/// deviating cell among constant peers still scores high.
pub fn cell_outlierness(cube: &Cube, min_peers: usize) -> Vec<CellScore> {
    let arity = cube.schema().arity();
    let cells: Vec<(&[usize], f64)> = cube.iter().map(|(c, cell)| (c, cell.mean())).collect();
    let mut out = Vec::with_capacity(cells.len());
    for &(coords, mean) in &cells {
        let mut best = 0.0_f64;
        let mut best_dim = 0;
        for probe in 0..arity {
            // Peers: same coords everywhere except `probe`, excluding self.
            let peer_means: Vec<f64> = cells
                .iter()
                .filter(|(c, _)| {
                    *c != coords
                        && c.iter()
                            .zip(coords)
                            .enumerate()
                            .all(|(i, (a, b))| i == probe || a == b)
                })
                .map(|&(_, m)| m)
                .collect();
            if peer_means.len() < min_peers {
                continue;
            }
            let n = peer_means.len() as f64;
            let pm = peer_means.iter().sum::<f64>() / n;
            let var = peer_means.iter().map(|m| (m - pm) * (m - pm)).sum::<f64>() / n;
            let sd = var.sqrt();
            let score = if sd > 1e-12 {
                (mean - pm).abs() / sd
            } else {
                (mean - pm).abs()
            };
            if score > best {
                best = score;
                best_dim = probe;
            }
        }
        out.push(CellScore {
            coords: coords.to_vec(),
            mean,
            score: best,
            worst_dimension: best_dim,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{CubeSchema, Dimension};

    fn anomalous_cube() -> Cube {
        let schema = CubeSchema::new(vec![
            Dimension::indexed("machine", 3).unwrap(),
            Dimension::indexed("shift", 4).unwrap(),
        ])
        .unwrap();
        let mut cube = Cube::new(schema);
        for m in 0..3 {
            for s in 0..4 {
                // Baseline measure ~ 10, except machine 1 / shift 2 spikes.
                let v = if (m, s) == (1, 2) {
                    100.0
                } else {
                    10.0 + (m + s) as f64 * 0.1
                };
                cube.insert(&[m, s], v).unwrap();
            }
        }
        cube
    }

    #[test]
    fn spike_cell_gets_top_score() {
        let cube = anomalous_cube();
        let scores = cell_outlierness(&cube, 2);
        assert_eq!(scores.len(), 12);
        let top = scores
            .iter()
            .max_by(|a, b| a.score.total_cmp(&b.score))
            .unwrap();
        assert_eq!(top.coords, vec![1, 2]);
        assert!(top.score > 1.0);
    }

    #[test]
    fn uniform_cube_scores_near_zero() {
        let schema = CubeSchema::new(vec![
            Dimension::indexed("a", 3).unwrap(),
            Dimension::indexed("b", 3).unwrap(),
        ])
        .unwrap();
        let mut cube = Cube::new(schema);
        for i in 0..3 {
            for j in 0..3 {
                cube.insert(&[i, j], 5.0).unwrap();
            }
        }
        let scores = cell_outlierness(&cube, 2);
        assert!(scores.iter().all(|s| s.score == 0.0));
    }

    #[test]
    fn min_peers_suppresses_thin_groups() {
        let schema = CubeSchema::new(vec![Dimension::indexed("only", 2).unwrap()]).unwrap();
        let mut cube = Cube::new(schema);
        cube.insert(&[0], 1.0).unwrap();
        cube.insert(&[1], 100.0).unwrap();
        // Each cell has exactly 1 peer; min_peers = 2 silences everything.
        let scores = cell_outlierness(&cube, 2);
        assert!(scores.iter().all(|s| s.score == 0.0));
        // With min_peers = 1 the deviation shows (absolute fallback since a
        // single peer has zero variance).
        let scores = cell_outlierness(&cube, 1);
        assert!(scores.iter().any(|s| s.score > 0.0));
    }

    #[test]
    fn zero_variance_peers_use_absolute_deviation() {
        let schema = CubeSchema::new(vec![Dimension::indexed("x", 4).unwrap()]).unwrap();
        let mut cube = Cube::new(schema);
        for i in 0..3 {
            cube.insert(&[i], 7.0).unwrap();
        }
        cube.insert(&[3], 9.5).unwrap();
        let scores = cell_outlierness(&cube, 2);
        let spike = scores.iter().find(|s| s.coords == vec![3]).unwrap();
        assert!((spike.score - 2.5).abs() < 1e-9);
    }

    #[test]
    fn worst_dimension_identifies_probe_axis() {
        let cube = anomalous_cube();
        let scores = cell_outlierness(&cube, 2);
        let spike = scores.iter().find(|s| s.coords == vec![1, 2]).unwrap();
        // Both axes see the spike; worst_dimension must be a valid axis.
        assert!(spike.worst_dimension < 2);
    }
}
