//! Related-work detectors (paper Section 5, not Table-1 rows).
//!
//! The paper's related-work study singles out several approaches "to tackle
//! complex and large production data": the local outlier factor combined
//! with PCA (Ortner et al., paper citation \[29\]), reverse nearest neighbors
//! (Radovanović et al., \[34\], motivated by the hubness effect), and plain
//! k-nearest-neighbor distances as their common substrate. They are
//! implemented here as additional [`crate::VectorScorer`]s usable anywhere
//! the Table-1 vector detectors are — in particular as `ChooseAlgorithm`
//! choices in the ablation experiments.

mod knn;
mod lof;
mod pair;
mod profile;

pub use knn::{KnnDistance, ReverseKnn};
pub use lof::LocalOutlierFactor;
pub use pair::{PairDifference, PairRegression};
pub use profile::{CrossMachineProfile, ProfileSimilarity};

use crate::stat::nan_last_cmp;

/// Squared Euclidean distance over the common prefix — the crate's one
/// statement of it. Every caller dimension-checks its rows first
/// (`check_rows`, or centroids built from checked rows), so — unlike the
/// fallible `sq_euclidean` — no length mismatch can reach this and no
/// `expect` is needed.
pub(crate) fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// The batched pairwise-distance kernel: fills `out` with the symmetric
/// `n×n` distance matrix in row-major order (zero diagonal; `sqrt` selects
/// Euclidean over squared-Euclidean entries), read back one row at a time
/// through `out.chunks_exact(n)`. `out` is cleared and resized, so a
/// caller on a hot path (the streaming LOF, one call per push) can reuse
/// one buffer across calls and pay no per-call allocation. Both the batch
/// detectors and the online neighbour scorers route through this one loop
/// — the single seam for future blocking/SIMD work (ROADMAP item 4).
pub(crate) fn distance_matrix_into(rows: &[&[f64]], sqrt: bool, out: &mut Vec<f64>) {
    let n = rows.len();
    out.clear();
    out.resize(n * n, 0.0);
    // Row `i` is peeled off the front; what is left are the rows below it,
    // whose column `i` mirrors its entries right of the diagonal.
    let mut below = out.as_mut_slice();
    for (i, a) in rows.iter().enumerate() {
        let Some((row, rest)) = below.split_at_mut_checked(n) else {
            break;
        };
        let right_of_diagonal = rows.iter().zip(row.iter_mut()).skip(i + 1);
        for ((b, slot), mirror_row) in right_of_diagonal.zip(rest.chunks_exact_mut(n)) {
            let mut v = sq_dist(a, b);
            if sqrt {
                v = v.sqrt();
            }
            *slot = v;
            if let Some(mirror) = mirror_row.get_mut(i) {
                *mirror = v;
            }
        }
        below = rest;
    }
}

/// The `k` nearest neighbors of the point whose distance-matrix row is
/// `row` (itself, at index `i`, excluded; NaN distances last), ordered by
/// distance, plus the k-th neighbor's distance — `0.0` when the point has
/// no neighbors at all.
pub(crate) fn knn_with_kdist(row: &[f64], i: usize, k: usize) -> (Vec<usize>, f64) {
    let dist = |j: usize| row.get(j).copied().unwrap_or(f64::NAN);
    let mut order: Vec<usize> = (0..row.len()).filter(|&j| j != i).collect();
    order.sort_by(|&a, &b| nan_last_cmp(dist(a), dist(b)));
    order.truncate(k);
    let kth = order.last().map_or(0.0, |&j| dist(j));
    (order, kth)
}
