//! Discrete hidden Markov model.
//!
//! Table-1 row **Hidden Markov Models** (Florez-Larrahondo et al.,
//! *Efficient modeling of discrete events for anomaly detection using hidden
//! markov models*, 2005 — citation [7]): a small discrete-observation HMM is
//! trained on the event sequences (Baum-Welch with scaling); a sequence's
//! anomaly score is its negative per-symbol log-likelihood under the model,
//! so sequences the summary model cannot explain rank highest.

use hierod_timeseries::Dense;

use crate::api::{
    Capabilities, DetectError, Detector, DetectorInfo, DiscreteScorer, Result, TechniqueClass,
};

/// Discrete-observation HMM scorer.
#[derive(Debug, Clone)]
pub struct HiddenMarkov {
    /// Number of hidden states.
    pub states: usize,
    /// Baum-Welch iterations.
    pub iterations: usize,
    /// Laplace smoothing added to every re-estimated probability.
    pub smoothing: f64,
}

impl Default for HiddenMarkov {
    fn default() -> Self {
        Self {
            states: 3,
            iterations: 30,
            smoothing: 1e-3,
        }
    }
}

/// A trained HMM (row-stochastic matrices).
#[derive(Debug, Clone)]
pub struct FittedHmm {
    /// Initial state distribution (length `s`).
    pub pi: Vec<f64>,
    /// Transition matrix (`s × s`).
    pub trans: Vec<Vec<f64>>,
    /// Emission matrix (`s × m`).
    pub emit: Vec<Vec<f64>>,
}

impl FittedHmm {
    /// Scaled-forward log-likelihood of a sequence.
    pub fn log_likelihood(&self, seq: &[u16]) -> f64 {
        let mut alpha = Dense::filled(0, self.pi.len(), 0.0);
        let mut scale = Vec::with_capacity(seq.len());
        self.forward(seq, &mut alpha, &mut scale);
        scale.iter().fold(0.0, |log_like, c| log_like + c.ln())
    }

    /// The scaled forward recursion: fills `alpha` (`|seq| × s`) with the
    /// per-step normalized forward variables and `scale` with each step's
    /// normalizer. A symbol outside the emission alphabet emits with
    /// probability `1e-12`.
    fn forward(&self, seq: &[u16], alpha: &mut Dense, scale: &mut Vec<f64>) {
        alpha.refill(seq.len(), 0.0);
        scale.clear();
        let mut prev: Option<&[f64]> = None;
        for (row, &sym) in alpha.rows_mut().zip(seq) {
            match prev {
                None => {
                    for (a, p) in row.iter_mut().zip(&self.pi) {
                        *a = *p;
                    }
                }
                Some(prev) => {
                    // row[j] = Σ_i prev[i] · trans[i][j], summed in i order.
                    for (&ai, trans_i) in prev.iter().zip(&self.trans) {
                        for (a, t) in row.iter_mut().zip(trans_i) {
                            *a += ai * t;
                        }
                    }
                }
            }
            for (a, e) in row.iter_mut().zip(emission(&self.emit, sym)) {
                *a *= e;
            }
            let c = row.iter().sum::<f64>().max(1e-300);
            row.iter_mut().for_each(|a| *a /= c);
            scale.push(c);
            prev = Some(row);
        }
    }
}

/// Row `i`'s unnormalized transition posteriors
/// `alpha_t[i] · trans[i][j] · emit[j][sym] · beta_{t+1}[j]`, in `j` order.
fn xi_terms<'a>(
    alpha_ti: f64,
    trans_i: &'a [f64],
    emit_next: &'a [f64],
    beta_next: &'a [f64],
) -> impl Iterator<Item = f64> + 'a {
    trans_i
        .iter()
        .zip(emit_next)
        .zip(beta_next)
        .map(move |((t, e), b)| alpha_ti * t * e * b)
}

/// Each state's probability of emitting `sym` (`1e-12` outside the
/// alphabet).
fn emission<'a>(emit: &'a [Vec<f64>], sym: u16) -> impl Iterator<Item = f64> + 'a {
    emit.iter()
        .map(move |row| row.get(usize::from(sym)).copied().unwrap_or(1e-12))
}

impl HiddenMarkov {
    /// Creates with an explicit state count.
    ///
    /// # Errors
    /// Rejects `states == 0`.
    pub fn new(states: usize) -> Result<Self> {
        if states == 0 {
            return Err(DetectError::invalid("states", "must be > 0"));
        }
        Ok(Self {
            states,
            ..Self::default()
        })
    }

    /// Deterministic non-uniform initialization (uniform start is a fixed
    /// point of Baum-Welch, so we perturb by state/symbol index).
    fn init(&self, m: usize) -> FittedHmm {
        let s = self.states;
        let mut pi = vec![0.0; s];
        for (i, p) in pi.iter_mut().enumerate() {
            *p = 1.0 + 0.1 * (i as f64 + 1.0);
        }
        normalize(&mut pi);
        let mut trans = vec![vec![0.0; s]; s];
        for (i, row) in trans.iter_mut().enumerate() {
            for (j, t) in row.iter_mut().enumerate() {
                *t = 1.0 + 0.05 * (((i + 2 * j + 1) % 7) as f64);
            }
            normalize(row);
        }
        let mut emit = vec![vec![0.0; m]; s];
        for (i, row) in emit.iter_mut().enumerate() {
            for (k, e) in row.iter_mut().enumerate() {
                // Strongly state-specialized start: state i prefers symbols
                // congruent to i, which breaks the symmetric fixed point of
                // Baum-Welch.
                *e = if k % s == i { 4.0 } else { 1.0 };
            }
            normalize(row);
        }
        FittedHmm { pi, trans, emit }
    }

    /// Baum-Welch training over a collection of sequences.
    ///
    /// # Errors
    /// Rejects an empty collection or all-empty sequences.
    pub fn fit(&self, seqs: &[&[u16]]) -> Result<FittedHmm> {
        if seqs.is_empty() {
            return Err(DetectError::NotEnoughData {
                what: "HiddenMarkov",
                needed: 1,
                got: 0,
            });
        }
        let m = seqs
            .iter()
            .flat_map(|s| s.iter())
            .map(|&x| x as usize + 1)
            .max()
            .ok_or(DetectError::NotEnoughData {
                what: "HiddenMarkov (symbols)",
                needed: 1,
                got: 0,
            })?;
        let s = self.states;
        let mut model = self.init(m);
        let mut alpha = Dense::filled(0, s, 0.0);
        let mut beta = Dense::filled(0, s, 0.0);
        let mut scale = Vec::new();
        let mut emit_next = Vec::with_capacity(s);
        for _ in 0..self.iterations {
            let mut pi_acc = vec![self.smoothing; s];
            let mut trans_acc = Dense::filled(s, s, self.smoothing);
            let mut emit_acc = Dense::filled(s, m, self.smoothing);
            for seq in seqs {
                if seq.is_empty() {
                    continue;
                }
                model.forward(seq, &mut alpha, &mut scale);
                // Scaled backward: beta[t][i] = Σ_j trans[i][j] ·
                // emit[j][seq[t + 1]] · beta[t + 1][j] / scale[t + 1].
                beta.refill(seq.len(), 1.0);
                let mut rows = beta.rows_mut().rev();
                let Some(last) = rows.next() else { continue };
                let mut next: &[f64] = last;
                for (row, (&sym, &c)) in rows.zip(seq.iter().zip(&scale).skip(1).rev()) {
                    emit_next.clear();
                    emit_next.extend(emission(&model.emit, sym));
                    for (b, trans_i) in row.iter_mut().zip(&model.trans) {
                        let mut acc = 0.0;
                        for ((t, e), bn) in trans_i.iter().zip(&emit_next).zip(next) {
                            acc += t * e * bn;
                        }
                        *b = acc / c;
                    }
                    next = row;
                }
                // Accumulate expected counts.
                for (t, ((a_t, b_t), &sym)) in alpha.rows().zip(beta.rows()).zip(*seq).enumerate() {
                    let gamma_denom: f64 = a_t
                        .iter()
                        .zip(b_t)
                        .map(|(a, b)| a * b)
                        .sum::<f64>()
                        .max(1e-300);
                    let states = a_t.iter().zip(b_t).zip(emit_acc.rows_mut());
                    for (((a, b), emit_i), pi_i) in states.zip(pi_acc.iter_mut()) {
                        let gamma = a * b / gamma_denom;
                        if t == 0 {
                            *pi_i += gamma;
                        }
                        if let Some(e) = emit_i.get_mut(usize::from(sym)) {
                            *e += gamma;
                        }
                    }
                }
                let pairs = alpha
                    .rows()
                    .zip(beta.rows().skip(1))
                    .zip(seq.iter().skip(1));
                for ((a_t, b_next), &sym) in pairs {
                    emit_next.clear();
                    emit_next.extend(emission(&model.emit, sym));
                    let mut denom = 0.0;
                    for (&a, trans_i) in a_t.iter().zip(&model.trans) {
                        for x in xi_terms(a, trans_i, &emit_next, b_next) {
                            denom += x;
                        }
                    }
                    let denom = denom.max(1e-300);
                    let rows = a_t.iter().zip(&model.trans).zip(trans_acc.rows_mut());
                    for ((&a, trans_i), acc_i) in rows {
                        let xi = xi_terms(a, trans_i, &emit_next, b_next);
                        for (acc, x) in acc_i.iter_mut().zip(xi) {
                            *acc += x / denom;
                        }
                    }
                }
            }
            // Re-estimate.
            normalize(&mut pi_acc);
            model.pi = pi_acc;
            trans_acc.rows_mut().for_each(normalize);
            model.trans = trans_acc.into_rows();
            emit_acc.rows_mut().for_each(normalize);
            model.emit = emit_acc.into_rows();
        }
        Ok(model)
    }
}

fn normalize(v: &mut [f64]) {
    let s: f64 = v.iter().sum();
    if s > 0.0 {
        v.iter_mut().for_each(|x| *x /= s);
    } else if !v.is_empty() {
        let u = 1.0 / v.len() as f64;
        v.iter_mut().for_each(|x| *x = u);
    }
}

impl Detector for HiddenMarkov {
    fn info(&self) -> DetectorInfo {
        DetectorInfo {
            name: "Hidden Markov Models",
            citation: "[7]",
            class: TechniqueClass::UPA,
            capabilities: Capabilities::new(false, true, true),
            supervised: false,
        }
    }
}

impl DiscreteScorer for HiddenMarkov {
    fn score_sequences(&self, seqs: &[&[u16]]) -> Result<Vec<f64>> {
        if seqs.len() < 2 {
            return Err(DetectError::NotEnoughData {
                what: "HiddenMarkov",
                needed: 2,
                got: seqs.len(),
            });
        }
        let model = self.fit(seqs)?;
        Ok(seqs
            .iter()
            .map(|s| {
                if s.is_empty() {
                    0.0
                } else {
                    -model.log_likelihood(s) / s.len() as f64
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitted_matrices_are_stochastic() {
        let a: Vec<u16> = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let b: Vec<u16> = vec![0, 1, 0, 1, 1, 0, 0, 1];
        let model = HiddenMarkov::new(2).unwrap().fit(&[&a, &b]).unwrap();
        assert!((model.pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for row in &model.trans {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        for row in &model.emit {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn training_improves_likelihood() {
        let seqs: Vec<Vec<u16>> = (0..4)
            .map(|k| (0..20).map(|i| ((i + k) % 2) as u16).collect())
            .collect();
        let refs: Vec<&[u16]> = seqs.iter().map(Vec::as_slice).collect();
        let hmm = HiddenMarkov::new(2).unwrap();
        let untrained = hmm.init(2);
        let trained = hmm.fit(&refs).unwrap();
        let ll_before: f64 = refs.iter().map(|s| untrained.log_likelihood(s)).sum();
        let ll_after: f64 = refs.iter().map(|s| trained.log_likelihood(s)).sum();
        assert!(
            ll_after > ll_before,
            "Baum-Welch must not decrease likelihood ({ll_before} -> {ll_after})"
        );
    }

    #[test]
    fn anomalous_sequence_has_lowest_likelihood() {
        // Normals alternate strictly; anomaly is constant.
        let normals: Vec<Vec<u16>> = (0..6)
            .map(|_| (0..24).map(|i| (i % 2) as u16).collect())
            .collect();
        let anomaly: Vec<u16> = vec![1; 24];
        let mut all: Vec<&[u16]> = normals.iter().map(Vec::as_slice).collect();
        all.push(&anomaly);
        let scores = HiddenMarkov::new(2).unwrap().score_sequences(&all).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, all.len() - 1, "{scores:?}");
    }

    #[test]
    fn out_of_alphabet_symbols_are_penalized() {
        let a: Vec<u16> = vec![0, 1, 0, 1];
        let model = HiddenMarkov::new(2).unwrap().fit(&[&a, &a]).unwrap();
        let in_alpha = model.log_likelihood(&[0, 1, 0, 1]);
        let out_alpha = model.log_likelihood(&[7, 7, 7, 7]);
        assert!(in_alpha > out_alpha);
    }

    #[test]
    fn empty_sequence_scores_zero() {
        let a: Vec<u16> = vec![0, 1, 0];
        let empty: Vec<u16> = vec![];
        let all: Vec<&[u16]> = vec![&a, &empty];
        let scores = HiddenMarkov::new(2).unwrap().score_sequences(&all).unwrap();
        assert_eq!(scores[1], 0.0);
    }

    #[test]
    fn deterministic_validation_info() {
        let a: Vec<u16> = vec![0, 1, 2, 0, 1, 2];
        let b: Vec<u16> = vec![0, 1, 2, 2, 1, 0];
        let all: Vec<&[u16]> = vec![&a, &b];
        let hmm = HiddenMarkov::default();
        assert_eq!(
            hmm.score_sequences(&all).unwrap(),
            hmm.score_sequences(&all).unwrap()
        );
        assert!(HiddenMarkov::new(0).is_err());
        assert!(hmm.score_sequences(&[&a]).is_err());
        let i = hmm.info();
        assert_eq!(i.citation, "[7]");
        assert_eq!(i.class, TechniqueClass::UPA);
    }
}
