//! Vector autoregression for multivariate series.
//!
//! The paper's Section 3, on predictive models: "In addition, prediction
//! models are suitable for multi-variate time series." This is the
//! multivariate member of the PM family: a VAR(1) model
//! `x_t ≈ A·x_{t−1} + c` fitted by per-equation least squares (normal
//! equations, Gaussian elimination — implemented here), scoring each time
//! point by the norm of its standardized one-step prediction error. A
//! cross-sensor anomaly that no single-channel AR model can see (one sensor
//! breaking its usual relationship to the others) surfaces as a VAR
//! residual.

use hierod_timeseries::Dense;

use crate::api::{Capabilities, DetectError, Detector, DetectorInfo, Result, TechniqueClass};

/// VAR(1) prediction-error scorer over a multivariate series
/// (rows = time points, columns = channels).
#[derive(Debug, Clone, Copy, Default)]
pub struct VectorAutoregressive;

/// A fitted VAR(1): `x_t ≈ coeffs · x_{t−1} + intercept`.
#[derive(Debug, Clone)]
pub struct FittedVar {
    /// Coefficient matrix (d × d): row i predicts channel i.
    pub coeffs: Vec<Vec<f64>>,
    /// Per-channel intercept.
    pub intercept: Vec<f64>,
    /// Per-channel residual standard deviation on the training data.
    pub residual_std: Vec<f64>,
}

impl FittedVar {
    /// Per-channel one-step prediction errors `x_t − (coeffs · x_{t−1} +
    /// intercept)`, channel by channel.
    fn errors<'a>(&'a self, prev: &'a [f64], cur: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        self.coeffs
            .iter()
            .zip(&self.intercept)
            .zip(cur)
            .map(move |((coeffs, intercept), x)| {
                let pred: f64 =
                    coeffs.iter().zip(prev).map(|(a, x)| a * x).sum::<f64>() + intercept;
                x - pred
            })
    }
}

/// Solves `M·x = b` by Gaussian elimination with partial pivoting.
/// Returns `None` when `M` is (numerically) singular or not `n × n` for
/// `n = b.len()`.
fn solve(m: impl TryInto<Dense>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let mut m: Dense = m.try_into().ok()?;
    let n = b.len();
    if m.height() != n || m.width() != n {
        return None;
    }
    for col in 0..n {
        // Pivot: the largest magnitude at or below the diagonal (the last
        // one on ties).
        let (pivot, diagonal) = m
            .rows()
            .map(|row| row.get(col).copied().unwrap_or(0.0))
            .enumerate()
            .skip(col)
            .max_by(|a, c| a.1.abs().total_cmp(&c.1.abs()))?;
        if diagonal.abs() < 1e-12 {
            return None;
        }
        m.swap_rows(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        let (upto, below) = m.split_rows_mut(col + 1);
        let (b_upto, b_below) = b.split_at_mut(col + 1);
        let (Some(pivot_row), Some(&b_pivot)) = (upto.last(), b_upto.last()) else {
            return None;
        };
        for (row, b_row) in below.zip(b_below) {
            let f = row.get(col).copied().unwrap_or(0.0) / diagonal;
            if f == 0.0 {
                continue;
            }
            for (x, p) in row.iter_mut().zip(pivot_row.iter()).skip(col) {
                *x -= f * p;
            }
            *b_row -= f * b_pivot;
        }
    }
    // Back substitution.
    let mut x = vec![0.0_f64; n];
    for (row, (m_row, &b_row)) in m.rows().zip(&b).enumerate().rev() {
        let mut acc = b_row;
        for (a, xk) in m_row.iter().zip(&x).skip(row + 1) {
            acc -= a * xk;
        }
        let diagonal = m_row.get(row).copied().unwrap_or(0.0);
        if let Some(slot) = x.get_mut(row) {
            *slot = acc / diagonal;
        }
    }
    Some(x)
}

impl VectorAutoregressive {
    /// Fits a VAR(1) on `rows` (time-ordered, rectangular, ≥ `3·(d+1)`
    /// points for a usable fit).
    ///
    /// # Errors
    /// Rejects empty/ragged/too-short inputs or singular designs.
    pub fn fit(rows: &[Vec<f64>]) -> Result<FittedVar> {
        let d = crate::api::check_rows("VectorAutoregressive", rows)?;
        let n = rows.len();
        if n < 3 * (d + 1) {
            return Err(DetectError::NotEnoughData {
                what: "VectorAutoregressive",
                needed: 3 * (d + 1),
                got: n,
            });
        }
        // Design: z_t = [x_{t-1}, 1]; per-channel least squares share the
        // Gram matrix G = Σ z zᵀ.
        let dim = d + 1;
        let mut gram = Dense::filled(dim, dim, 0.0);
        let mut rhs = Dense::filled(d, dim, 0.0); // one b per output channel
        let mut z = Vec::with_capacity(dim);
        for (prev, cur) in rows.iter().zip(rows.iter().skip(1)) {
            z.clear();
            z.extend_from_slice(prev);
            z.push(1.0);
            for (g_row, zi) in gram.rows_mut().zip(&z) {
                for (g, zj) in g_row.iter_mut().zip(&z) {
                    *g += zi * zj;
                }
            }
            for (r, y) in rhs.rows_mut().zip(cur) {
                for (ri, zi) in r.iter_mut().zip(&z) {
                    *ri += zi * y;
                }
            }
        }
        // Ridge: keeps near-constant channels solvable.
        for (i, row) in gram.rows_mut().enumerate() {
            if let Some(g) = row.get_mut(i) {
                *g += 1e-8;
            }
        }
        let mut coeffs = Vec::with_capacity(d);
        let mut intercept = Vec::with_capacity(d);
        for r in rhs.rows() {
            let singular = || DetectError::Numeric {
                message: "VAR normal equations are singular".into(),
            };
            let mut sol = solve(gram.clone(), r.to_vec()).ok_or_else(singular)?;
            intercept.push(sol.pop().ok_or_else(singular)?);
            coeffs.push(sol);
        }
        let mut model = FittedVar {
            coeffs,
            intercept,
            residual_std: Vec::new(),
        };
        // Residual std per channel.
        let mut residual_sq = vec![0.0_f64; d];
        for (prev, cur) in rows.iter().zip(rows.iter().skip(1)) {
            for (sq, e) in residual_sq.iter_mut().zip(model.errors(prev, cur)) {
                *sq += e * e;
            }
        }
        model.residual_std = residual_sq
            .into_iter()
            .map(|s| (s / (n - 1) as f64).sqrt().max(1e-9))
            .collect();
        Ok(model)
    }

    /// Scores every time point: the root-mean-square of the per-channel
    /// standardized one-step prediction errors (first point scores 0).
    ///
    /// # Errors
    /// See [`Self::fit`].
    pub fn score_rows_over_time(&self, rows: &[Vec<f64>]) -> Result<Vec<f64>> {
        let model = Self::fit(rows)?;
        let d = model.coeffs.len();
        let mut out = Vec::with_capacity(rows.len());
        out.push(0.0);
        for (prev, cur) in rows.iter().zip(rows.iter().skip(1)) {
            let mut acc = 0.0;
            for (e, std) in model.errors(prev, cur).zip(&model.residual_std) {
                let e = e / std;
                acc += e * e;
            }
            out.push((acc / d as f64).sqrt());
        }
        Ok(out)
    }
}

impl Detector for VectorAutoregressive {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Vector Autoregressive Model",
            citation: "§3 (PM, multivariate)",
            class: TechniqueClass::PM,
            capabilities: Capabilities::new(true, false, true),
            supervised: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two coupled channels: y follows x with a lag; plus a cross-channel
    /// break at t = 60 where y stops following.
    fn coupled(n: usize, break_at: Option<usize>) -> Vec<Vec<f64>> {
        let mut state = 0xABCDE_u64;
        let mut noise = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5
        };
        let mut x = 0.0_f64;
        let mut rows = Vec::with_capacity(n);
        let mut prev_x = 0.0;
        for t in 0..n {
            x = 0.8 * x + noise();
            let mut y = 0.9 * prev_x + 0.1 * noise();
            if let Some(b) = break_at {
                // Bounded break: the relationship flips for 20 samples.
                if t >= b && t < b + 20 {
                    y = -0.9 * prev_x;
                }
            }
            rows.push(vec![x, y]);
            prev_x = x;
        }
        rows
    }

    #[test]
    fn fit_recovers_the_coupling() {
        let rows = coupled(400, None);
        let model = VectorAutoregressive::fit(&rows).unwrap();
        // Channel 1 (y) is driven by channel 0 (x) with weight ~0.9.
        assert!(
            (model.coeffs[1][0] - 0.9).abs() < 0.1,
            "cross coefficient {:?}",
            model.coeffs[1]
        );
        // Channel 0 is AR(1) with phi ~0.8.
        assert!((model.coeffs[0][0] - 0.8).abs() < 0.15);
    }

    #[test]
    fn cross_channel_break_scores_high() {
        let rows = coupled(200, Some(120));
        let scores = VectorAutoregressive.score_rows_over_time(&rows).unwrap();
        // Mean score inside the 20-sample break window far exceeds the
        // clean region.
        let clean: f64 = scores[10..110].iter().sum::<f64>() / 100.0;
        let during: f64 = scores[121..140].iter().sum::<f64>() / 19.0;
        assert!(
            during > clean * 2.0,
            "break must show: clean {clean:.2}, during {during:.2}"
        );
    }

    #[test]
    fn solver_matches_hand_solution() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
        let m = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let x = solve(m, vec![5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
        // Singular system.
        let m = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert!(solve(m, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn constant_channels_survive_via_ridge() {
        let mut rows = coupled(100, None);
        for r in rows.iter_mut() {
            r.push(5.0); // constant third channel
        }
        let scores = VectorAutoregressive.score_rows_over_time(&rows).unwrap();
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn validation() {
        assert!(VectorAutoregressive::fit(&[]).is_err());
        let short = coupled(5, None);
        assert!(VectorAutoregressive::fit(&short).is_err());
        let i = VectorAutoregressive.info();
        assert_eq!(i.class, TechniqueClass::PM);
        assert!(i.capabilities.points);
    }
}
