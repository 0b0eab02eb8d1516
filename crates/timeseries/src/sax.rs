//! Symbolic Aggregate approXimation (SAX).
//!
//! Implements Lin et al., "A symbolic representation of time series, with
//! implications for streaming algorithms" — Table 1 row *Symbolic
//! Representation* (class OS). A window is z-normalized, reduced by
//! Piecewise Aggregate Approximation (PAA), and each PAA segment is mapped to
//! a symbol by equiprobable Gaussian breakpoints. The companion `MINDIST`
//! lower-bounds the true Euclidean distance, which the property tests verify.

use crate::error::{Error, Result};
use crate::normalize;

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 over (0, 1)).
///
/// # Errors
/// Returns an error unless `p` lies strictly inside `(0, 1)`.
pub fn inv_norm_cdf(p: f64) -> Result<f64> {
    if !(p > 0.0 && p < 1.0) {
        return Err(Error::invalid("p", "must be in (0, 1)"));
    }
    let [a0, a1, a2, a3, a4, a5] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    let [b0, b1, b2, b3, b4] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    let [c0, c1, c2, c3, c4, c5] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    let [d0, d1, d2, d3] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((c0 * q + c1) * q + c2) * q + c3) * q + c4) * q + c5)
            / ((((d0 * q + d1) * q + d2) * q + d3) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((a0 * r + a1) * r + a2) * r + a3) * r + a4) * r + a5) * q
            / (((((b0 * r + b1) * r + b2) * r + b3) * r + b4) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((c0 * q + c1) * q + c2) * q + c3) * q + c4) * q + c5)
            / ((((d0 * q + d1) * q + d2) * q + d3) * q + 1.0)
    };
    Ok(x)
}

/// Piecewise Aggregate Approximation: reduces `xs` to `segments` means.
///
/// Handles lengths not divisible by `segments` by fractional assignment
/// (each sample contributes to the segment(s) it overlaps).
///
/// # Errors
/// Returns an error if `segments == 0` or `segments > xs.len()` or `xs` is
/// empty.
pub fn paa(xs: &[f64], segments: usize) -> Result<Vec<f64>> {
    if xs.is_empty() {
        return Err(Error::Empty { what: "paa" });
    }
    if segments == 0 || segments > xs.len() {
        return Err(Error::invalid(
            "segments",
            format!("must be in 1..={} (got {segments})", xs.len()),
        ));
    }
    let n = xs.len();
    if n.is_multiple_of(segments) {
        let w = n / segments;
        return Ok(xs
            .chunks_exact(w)
            .map(|c| c.iter().sum::<f64>() / w as f64)
            .collect());
    }
    // Fractional PAA: conceptually stretch xs by `segments`, then average
    // blocks of length n.
    let mut out = vec![0.0_f64; segments];
    for (i, &x) in xs.iter().enumerate() {
        let start = i * segments;
        let end = (i + 1) * segments;
        let mut s = start;
        while s < end {
            let seg = s / n;
            let seg_end = (seg + 1) * n;
            let take = seg_end.min(end) - s;
            if let Some(o) = out.get_mut(seg) {
                *o += x * take as f64;
            }
            s += take;
        }
    }
    out.iter_mut().for_each(|o| *o /= n as f64);
    Ok(out)
}

/// SAX quantizer: equiprobable Gaussian breakpoints for a given alphabet size.
#[derive(Debug, Clone)]
pub struct SaxQuantizer {
    breakpoints: Vec<f64>,
}

impl SaxQuantizer {
    /// Builds a quantizer for `alphabet_size` symbols (2..=64).
    ///
    /// # Errors
    /// Returns an error for alphabet sizes outside `2..=64`.
    pub fn new(alphabet_size: usize) -> Result<Self> {
        if !(2..=64).contains(&alphabet_size) {
            return Err(Error::invalid("alphabet_size", "must be in 2..=64"));
        }
        let a = alphabet_size as f64;
        let breakpoints = (1..alphabet_size)
            .map(|i| inv_norm_cdf(i as f64 / a))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { breakpoints })
    }

    /// Alphabet size.
    pub fn alphabet_size(&self) -> usize {
        self.breakpoints.len() + 1
    }

    /// The (sorted) breakpoints dividing the standard normal into
    /// equiprobable regions.
    pub fn breakpoints(&self) -> &[f64] {
        &self.breakpoints
    }

    /// Maps one (z-normalized) value to its symbol.
    pub fn symbol(&self, x: f64) -> u16 {
        self.breakpoints.partition_point(|&b| b <= x) as u16
    }

    /// Distance between two symbols under the SAX `dist` lookup table:
    /// adjacent or equal symbols have distance 0; otherwise the gap between
    /// the enclosing breakpoints.
    pub fn symbol_dist(&self, r: u16, c: u16) -> f64 {
        let (lo, hi) = if r < c { (r, c) } else { (c, r) };
        // The breakpoints strictly between the two symbols' regions; a
        // symbol past the alphabet has none.
        match self.breakpoints.get(usize::from(lo)..usize::from(hi)) {
            Some([lower, .., upper]) => upper - lower,
            _ => 0.0,
        }
    }
}

/// A SAX word: the symbol string for one window, plus the parameters needed
/// for MINDIST.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SaxWord {
    /// Symbols, one per PAA segment.
    pub symbols: Vec<u16>,
    /// Original window length the word was derived from.
    pub source_len: usize,
}

impl SaxWord {
    /// Renders the word with letters `a`, `b`, `c`, … (alphabet ≤ 26), or
    /// numeric ids joined by `.` otherwise.
    pub fn pretty(&self) -> String {
        if self.symbols.iter().all(|&s| s < 26) {
            self.symbols
                .iter()
                .map(|&s| (b'a' + s as u8) as char)
                .collect()
        } else {
            let parts: Vec<String> = self.symbols.iter().map(|s| s.to_string()).collect();
            parts.join(".")
        }
    }
}

/// Full SAX encoder: z-normalize → PAA → quantize.
#[derive(Debug, Clone)]
pub struct SaxEncoder {
    quantizer: SaxQuantizer,
    segments: usize,
}

impl SaxEncoder {
    /// Creates an encoder producing words of `segments` symbols over an
    /// alphabet of `alphabet_size`.
    ///
    /// # Errors
    /// Returns an error for invalid alphabet sizes or `segments == 0`.
    pub fn new(segments: usize, alphabet_size: usize) -> Result<Self> {
        if segments == 0 {
            return Err(Error::invalid("segments", "must be > 0"));
        }
        Ok(Self {
            quantizer: SaxQuantizer::new(alphabet_size)?,
            segments,
        })
    }

    /// Number of symbols per word.
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// The underlying quantizer.
    pub fn quantizer(&self) -> &SaxQuantizer {
        &self.quantizer
    }

    /// Encodes one window into a SAX word.
    ///
    /// # Errors
    /// Returns an error if the window is shorter than the segment count or
    /// empty.
    pub fn encode(&self, window: &[f64]) -> Result<SaxWord> {
        let z = normalize::z_normalize(window)?;
        let reduced = paa(&z, self.segments)?;
        Ok(SaxWord {
            symbols: reduced.iter().map(|&v| self.quantizer.symbol(v)).collect(),
            source_len: window.len(),
        })
    }

    /// The SAX `MINDIST` between two words of equal segment count derived
    /// from windows of equal length: a lower bound on the Euclidean distance
    /// of the z-normalized windows.
    ///
    /// # Errors
    /// Returns an error on mismatched segment counts or source lengths.
    pub fn mindist(&self, a: &SaxWord, b: &SaxWord) -> Result<f64> {
        if a.symbols.len() != b.symbols.len() {
            return Err(Error::LengthMismatch {
                what: "mindist(symbols)",
                left: a.symbols.len(),
                right: b.symbols.len(),
            });
        }
        if a.source_len != b.source_len {
            return Err(Error::LengthMismatch {
                what: "mindist(source_len)",
                left: a.source_len,
                right: b.source_len,
            });
        }
        let w = a.symbols.len() as f64;
        let n = a.source_len as f64;
        let sum: f64 = a
            .symbols
            .iter()
            .zip(&b.symbols)
            .map(|(&r, &c)| {
                let d = self.quantizer.symbol_dist(r, c);
                d * d
            })
            .sum();
        Ok((n / w).sqrt() * sum.sqrt())
    }
}

/// Numerosity reduction (Lin et al. §4.2): collapses consecutive identical
/// SAX words from a sliding-window encoding into one occurrence, returning
/// `(word, first_window_index)` pairs. Trivially-matching neighbors carry
/// no extra information for streaming pattern counting, and dropping them
/// is what keeps SAX-based discord search sub-quadratic in practice.
pub fn numerosity_reduce(words: &[SaxWord]) -> Vec<(SaxWord, usize)> {
    let mut out: Vec<(SaxWord, usize)> = Vec::new();
    for (i, w) in words.iter().enumerate() {
        match out.last() {
            Some((prev, _)) if prev.symbols == w.symbols => {}
            _ => out.push((w.clone(), i)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::euclidean;

    const EPS: f64 = 1e-6;

    #[test]
    fn inv_norm_cdf_known_values() {
        assert!(inv_norm_cdf(0.5).unwrap().abs() < 1e-9);
        assert!((inv_norm_cdf(0.975).unwrap() - 1.959964).abs() < 1e-4);
        assert!((inv_norm_cdf(0.025).unwrap() + 1.959964).abs() < 1e-4);
        assert!((inv_norm_cdf(0.8413447).unwrap() - 1.0).abs() < 1e-4);
        assert!(inv_norm_cdf(0.0).is_err());
        assert!(inv_norm_cdf(1.0).is_err());
    }

    #[test]
    fn paa_exact_division() {
        let xs = [1.0, 3.0, 2.0, 4.0, 10.0, 20.0];
        assert_eq!(paa(&xs, 3).unwrap(), vec![2.0, 3.0, 15.0]);
        assert_eq!(paa(&xs, 6).unwrap(), xs.to_vec());
        assert_eq!(paa(&xs, 1).unwrap(), vec![40.0 / 6.0]);
    }

    #[test]
    fn paa_fractional_division_preserves_mean() {
        // n=5, segments=2: total mass must be conserved.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let p = paa(&xs, 2).unwrap();
        let mean_in: f64 = xs.iter().sum::<f64>() / 5.0;
        let mean_out: f64 = p.iter().sum::<f64>() / 2.0;
        assert!((mean_in - mean_out).abs() < EPS);
        // First segment covers samples 0,1 and half of 2.
        assert!((p[0] - (1.0 + 2.0 + 1.5) / 2.5).abs() < EPS);
    }

    #[test]
    fn paa_validates() {
        assert!(paa(&[], 1).is_err());
        assert!(paa(&[1.0], 0).is_err());
        assert!(paa(&[1.0], 2).is_err());
    }

    #[test]
    fn quantizer_breakpoints_are_sorted_and_symmetric() {
        let q = SaxQuantizer::new(4).unwrap();
        let bp = q.breakpoints();
        assert_eq!(bp.len(), 3);
        assert!(bp.windows(2).all(|w| w[0] < w[1]));
        // Classic SAX table for a=4: [-0.6745, 0, 0.6745].
        assert!((bp[0] + 0.6745).abs() < 1e-3);
        assert!(bp[1].abs() < 1e-9);
        assert!((bp[2] - 0.6745).abs() < 1e-3);
        assert!(SaxQuantizer::new(1).is_err());
        assert!(SaxQuantizer::new(65).is_err());
    }

    #[test]
    fn quantizer_symbols_partition_the_line() {
        let q = SaxQuantizer::new(4).unwrap();
        assert_eq!(q.symbol(-2.0), 0);
        assert_eq!(q.symbol(-0.3), 1);
        assert_eq!(q.symbol(0.3), 2);
        assert_eq!(q.symbol(2.0), 3);
        assert_eq!(q.alphabet_size(), 4);
    }

    #[test]
    fn symbol_dist_adjacent_is_zero() {
        let q = SaxQuantizer::new(5).unwrap();
        for r in 0..5_u16 {
            assert_eq!(q.symbol_dist(r, r), 0.0);
            if r + 1 < 5 {
                assert_eq!(q.symbol_dist(r, r + 1), 0.0);
                assert_eq!(q.symbol_dist(r + 1, r), 0.0);
            }
        }
        assert!(q.symbol_dist(0, 4) > q.symbol_dist(0, 2));
    }

    #[test]
    fn encode_produces_expected_word_for_ramp() {
        let enc = SaxEncoder::new(4, 4).unwrap();
        let ramp: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let w = enc.encode(&ramp).unwrap();
        // Monotone ramp must produce non-decreasing symbols spanning the
        // alphabet.
        assert!(w.symbols.windows(2).all(|p| p[0] <= p[1]));
        assert_eq!(w.symbols.first(), Some(&0));
        assert_eq!(w.symbols.last(), Some(&3));
        assert_eq!(w.pretty().len(), 4);
        assert_eq!(w.pretty().chars().next(), Some('a'));
    }

    #[test]
    fn mindist_lower_bounds_euclidean_on_fixed_cases() {
        let enc = SaxEncoder::new(4, 6).unwrap();
        let a: Vec<f64> = (0..32).map(|i| ((i as f64) * 0.3).sin()).collect();
        let b: Vec<f64> = (0..32)
            .map(|i| ((i as f64) * 0.3 + 1.0).cos() * 2.0)
            .collect();
        let wa = enc.encode(&a).unwrap();
        let wb = enc.encode(&b).unwrap();
        let za = normalize::z_normalize(&a).unwrap();
        let zb = normalize::z_normalize(&b).unwrap();
        let true_d = euclidean(&za, &zb).unwrap();
        let lb = enc.mindist(&wa, &wb).unwrap();
        assert!(
            lb <= true_d + EPS,
            "MINDIST {lb} must lower-bound Euclidean {true_d}"
        );
    }

    #[test]
    fn mindist_rejects_mismatched_words() {
        let enc = SaxEncoder::new(2, 4).unwrap();
        let w1 = enc.encode(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let w2 = enc.encode(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert!(enc.mindist(&w1, &w2).is_err());
        let mut w3 = w1.clone();
        w3.symbols.push(0);
        assert!(enc.mindist(&w1, &w3).is_err());
    }

    #[test]
    fn identical_windows_have_zero_mindist() {
        let enc = SaxEncoder::new(4, 8).unwrap();
        let xs: Vec<f64> = (0..16).map(|i| (i as f64).sqrt()).collect();
        let w = enc.encode(&xs).unwrap();
        assert_eq!(enc.mindist(&w, &w).unwrap(), 0.0);
    }

    #[test]
    fn numerosity_reduction_collapses_runs() {
        let w = |syms: &[u16]| SaxWord {
            symbols: syms.to_vec(),
            source_len: 8,
        };
        let words = vec![w(&[0, 1]), w(&[0, 1]), w(&[2, 2]), w(&[2, 2]), w(&[0, 1])];
        let reduced = numerosity_reduce(&words);
        assert_eq!(reduced.len(), 3);
        assert_eq!(reduced[0].1, 0);
        assert_eq!(reduced[1].1, 2);
        assert_eq!(reduced[2].1, 4);
        assert_eq!(reduced[2].0.symbols, vec![0, 1]);
        assert!(numerosity_reduce(&[]).is_empty());
    }

    #[test]
    fn numerosity_reduction_keeps_all_distinct_words() {
        let w = |s: u16| SaxWord {
            symbols: vec![s],
            source_len: 4,
        };
        let words: Vec<SaxWord> = (0..5).map(w).collect();
        assert_eq!(numerosity_reduce(&words).len(), 5);
    }

    #[test]
    fn pretty_uses_numeric_form_for_large_alphabets() {
        let w = SaxWord {
            symbols: vec![30, 31],
            source_len: 8,
        };
        assert_eq!(w.pretty(), "30.31");
    }
}
