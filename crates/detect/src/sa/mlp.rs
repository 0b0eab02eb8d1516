//! Multi-layer perceptron classifier.
//!
//! Table-1 row **Neural Networks** (Ghosh, Schwartzbard & Schatz, *Learning
//! Program Behavior Profiles for Intrusion Detection*, 1999 — citation
//! [10]): a feed-forward network learns normal-vs-anomalous behaviour
//! profiles. We implement a one-hidden-layer MLP from scratch — tanh hidden
//! units, sigmoid output, full-batch gradient descent on cross-entropy,
//! per-column standardization, deterministic weight initialization — and
//! use the predicted anomaly probability as the score.

use hierod_timeseries::normalize::ColumnScaler;
use hierod_timeseries::Dense;

use crate::api::{
    check_rows, finite_scores, Capabilities, DetectError, Detector, DetectorInfo, Result,
    SupervisedScorer, TechniqueClass,
};

/// One-hidden-layer MLP scorer.
#[derive(Debug, Clone)]
pub struct NeuralNetwork {
    /// Hidden units.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    fitted: Option<Fitted>,
}

#[derive(Debug, Clone)]
struct Fitted {
    scaler: ColumnScaler,
    w1: Dense, // hidden × d
    b1: Vec<f64>,
    w2: Vec<f64>, // hidden
    b2: f64,
}

impl Default for NeuralNetwork {
    fn default() -> Self {
        Self {
            hidden: 8,
            epochs: 300,
            learning_rate: 0.5,
            fitted: None,
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl NeuralNetwork {
    /// Creates with an explicit hidden width.
    ///
    /// # Errors
    /// Rejects `hidden == 0`.
    pub fn new(hidden: usize) -> Result<Self> {
        if hidden == 0 {
            return Err(DetectError::invalid("hidden", "must be > 0"));
        }
        Ok(Self {
            hidden,
            ..Self::default()
        })
    }

    fn forward(f: &Fitted, x: &[f64]) -> (Vec<f64>, f64) {
        let h: Vec<f64> =
            f.w1.rows()
                .zip(&f.b1)
                .map(|(w, b)| {
                    let z: f64 = w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + b;
                    z.tanh()
                })
                .collect();
        let out = sigmoid(f.w2.iter().zip(&h).map(|(w, hv)| w * hv).sum::<f64>() + f.b2);
        (h, out)
    }
}

impl Detector for NeuralNetwork {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Neural Networks",
            citation: "[10]",
            class: TechniqueClass::SA,
            capabilities: Capabilities::ALL,
            supervised: true,
        }
    }
}

impl SupervisedScorer for NeuralNetwork {
    fn fit(&mut self, rows: &[Vec<f64>], labels: &[bool]) -> Result<()> {
        let d = check_rows("NeuralNetwork", rows)?;
        if rows.len() != labels.len() {
            return Err(DetectError::ShapeMismatch {
                message: "rows/labels length mismatch".into(),
            });
        }
        let scaler = ColumnScaler::fit(rows)?;
        let xs: Vec<Vec<f64>> = scaler.transform_all(rows)?;
        let ys: Vec<f64> = labels.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
        // Deterministic small pseudo-random init.
        let mut state = 0x9E3779B97F4A7C15_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5
        };
        let mut f = Fitted {
            scaler,
            w1: {
                let mut w1 = Dense::filled(self.hidden, d, 0.0);
                w1.rows_mut().flatten().for_each(|w| *w = next() * 0.5);
                w1
            },
            b1: (0..self.hidden).map(|_| next() * 0.1).collect(),
            w2: (0..self.hidden).map(|_| next() * 0.5).collect(),
            b2: 0.0,
        };
        let n = xs.len() as f64;
        for _ in 0..self.epochs {
            let mut g_w1 = Dense::filled(self.hidden, d, 0.0);
            let mut g_b1 = vec![0.0; self.hidden];
            let mut g_w2 = vec![0.0; self.hidden];
            let mut g_b2 = 0.0;
            for (x, &y) in xs.iter().zip(&ys) {
                let (h, out) = Self::forward(&f, x);
                let delta_out = out - y; // dCE/dz for sigmoid + CE
                g_b2 += delta_out / n;
                let units = g_w2.iter_mut().zip(&mut g_b1).zip(g_w1.rows_mut());
                for (((g_w2j, g_b1j), g_w1j), (w2j, hj)) in units.zip(f.w2.iter().zip(&h)) {
                    *g_w2j += delta_out * hj / n;
                    let delta_h = delta_out * w2j * (1.0 - hj * hj);
                    *g_b1j += delta_h / n;
                    for (g, xi) in g_w1j.iter_mut().zip(x) {
                        *g += delta_h * xi / n;
                    }
                }
            }
            let lr = self.learning_rate;
            for (w, g) in f.w1.rows_mut().flatten().zip(g_w1.rows().flatten()) {
                *w -= lr * g;
            }
            for (b, g) in f.b1.iter_mut().zip(&g_b1) {
                *b -= lr * g;
            }
            for (w, g) in f.w2.iter_mut().zip(&g_w2) {
                *w -= lr * g;
            }
            f.b2 -= lr * g_b2;
        }
        self.fitted = Some(f);
        Ok(())
    }

    fn predict(&self, rows: &[Vec<f64>]) -> Result<Vec<f64>> {
        let f = self.fitted.as_ref().ok_or(DetectError::NotFitted)?;
        let scores = rows
            .iter()
            .map(|r| Ok(Self::forward(f, &f.scaler.transform(r)?).1))
            .collect::<Result<_>>()?;
        finite_scores("NeuralNetwork", scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable data: anomalies at x0 > 0.
    fn linear_data() -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let x = (i as f64 / 39.0) * 10.0 - 5.0;
            rows.push(vec![x, -x * 0.5]);
            labels.push(x > 0.0);
        }
        (rows, labels)
    }

    /// XOR-ish data that a linear model cannot separate.
    fn xor_data() -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            let eps = i as f64 * 0.01;
            rows.push(vec![1.0 + eps, 1.0]);
            labels.push(false);
            rows.push(vec![-1.0 - eps, -1.0]);
            labels.push(false);
            rows.push(vec![1.0 + eps, -1.0]);
            labels.push(true);
            rows.push(vec![-1.0 - eps, 1.0]);
            labels.push(true);
        }
        (rows, labels)
    }

    #[test]
    fn separates_linear_classes() {
        let (rows, labels) = linear_data();
        let mut nn = NeuralNetwork::default();
        nn.fit(&rows, &labels).unwrap();
        let scores = nn.predict(&rows).unwrap();
        let pos_mean: f64 = scores
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| l)
            .map(|(&s, _)| s)
            .sum::<f64>()
            / 20.0;
        let neg_mean: f64 = scores
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| !l)
            .map(|(&s, _)| s)
            .sum::<f64>()
            / 20.0;
        assert!(pos_mean > 0.8, "positive mean {pos_mean}");
        assert!(neg_mean < 0.2, "negative mean {neg_mean}");
    }

    #[test]
    fn learns_nonlinear_xor() {
        let (rows, labels) = xor_data();
        let mut nn = NeuralNetwork {
            hidden: 12,
            epochs: 3000,
            learning_rate: 1.0,
            fitted: None,
        };
        nn.fit(&rows, &labels).unwrap();
        let scores = nn.predict(&rows).unwrap();
        let correct = scores
            .iter()
            .zip(&labels)
            .filter(|(&s, &l)| (s > 0.5) == l)
            .count();
        assert!(
            correct as f64 / rows.len() as f64 > 0.9,
            "XOR accuracy {correct}/{}",
            rows.len()
        );
    }

    #[test]
    fn outputs_are_probabilities() {
        let (rows, labels) = linear_data();
        let mut nn = NeuralNetwork::default();
        nn.fit(&rows, &labels).unwrap();
        for s in nn.predict(&rows).unwrap() {
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn deterministic_training() {
        let (rows, labels) = linear_data();
        let mut a = NeuralNetwork::default();
        let mut b = NeuralNetwork::default();
        a.fit(&rows, &labels).unwrap();
        b.fit(&rows, &labels).unwrap();
        assert_eq!(a.predict(&rows).unwrap(), b.predict(&rows).unwrap());
    }

    #[test]
    fn validation_and_info() {
        assert!(NeuralNetwork::new(0).is_err());
        let mut nn = NeuralNetwork::default();
        assert!(nn.fit(&[], &[]).is_err());
        assert!(nn.fit(&[vec![1.0]], &[true, false]).is_err());
        assert!(matches!(
            NeuralNetwork::default().predict(&[vec![1.0]]),
            Err(DetectError::NotFitted)
        ));
        let i = nn.info();
        assert_eq!(i.citation, "[10]");
        assert!(i.supervised);
        assert_eq!(i.capabilities.count(), 3);
    }
}
