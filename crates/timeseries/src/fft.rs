//! Radix-2 FFT and spectral features.
//!
//! Nairac et al.'s jet-engine vibration-signature detector (Table 1 row
//! *Vibration Signature*) clusters spectral shapes of vibration windows.
//! This module supplies the FFT, power spectrum, and the banded spectral
//! signature those detectors consume. Implemented from scratch (iterative
//! Cooley-Tukey with bit-reversal permutation).

use crate::error::{Error, Result};

/// A complex number (minimal, local — we only need FFT arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Constructs `re + im·i`.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Squared magnitude.
    pub(crate) fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    fn mul(self, other: Complex) -> Complex {
        Complex::new(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )
    }

    fn add(self, other: Complex) -> Complex {
        Complex::new(self.re + other.re, self.im + other.im)
    }

    fn sub(self, other: Complex) -> Complex {
        Complex::new(self.re - other.re, self.im - other.im)
    }
}

fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// In-place iterative radix-2 FFT. `inverse = true` computes the inverse
/// transform (including the `1/n` scaling).
///
/// # Errors
/// Returns an error unless the length is a power of two ≥ 1.
pub fn fft_in_place(data: &mut [Complex], inverse: bool) -> Result<()> {
    let n = data.len();
    if !is_power_of_two(n) {
        return Err(Error::invalid(
            "data",
            format!("length must be a power of two (got {n})"),
        ));
    }
    // Bit-reversal permutation.
    let mut j = 0_usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        for block in data.chunks_exact_mut(len) {
            let (lower, upper) = block.split_at_mut(len / 2);
            let mut w = Complex::new(1.0, 0.0);
            for (a, b) in lower.iter_mut().zip(upper.iter_mut()) {
                let u = *a;
                let v = b.mul(w);
                *a = u.add(v);
                *b = u.sub(v);
                w = w.mul(wlen);
            }
        }
        len <<= 1;
    }
    if inverse {
        let scale = 1.0 / n as f64;
        for d in data.iter_mut() {
            d.re *= scale;
            d.im *= scale;
        }
    }
    Ok(())
}

/// Forward FFT of a real signal. Length must be a power of two.
///
/// # Errors
/// Returns an error on non-power-of-two lengths.
pub(crate) fn fft_real(signal: &[f64]) -> Result<Vec<Complex>> {
    let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
    fft_in_place(&mut buf, false)?;
    Ok(buf)
}

/// One-sided power spectrum of a real signal: `n/2 + 1` bins, bin `k`
/// holding `|X_k|² / n`.
///
/// # Errors
/// Returns an error on non-power-of-two lengths.
pub fn power_spectrum(signal: &[f64]) -> Result<Vec<f64>> {
    let n = signal.len();
    let spec = fft_real(signal)?;
    Ok(spec
        .iter()
        .take(n / 2 + 1)
        .map(|c| c.norm_sq() / n as f64)
        .collect())
}

/// Zero-pads a signal to the next power of two (identity when already one).
pub(crate) fn pad_to_pow2(signal: &[f64]) -> Vec<f64> {
    let n = signal.len().max(1);
    let target = n.next_power_of_two();
    let mut out = signal.to_vec();
    out.resize(target, 0.0);
    out
}

/// Banded spectral signature: the one-sided power spectrum collapsed into
/// `bands` equal-width frequency bands (mean power per band), then
/// L1-normalized so signatures compare spectral *shape* independent of
/// energy. This is the feature vector of the vibration-signature detector.
///
/// # Errors
/// Returns an error if `bands == 0` or the signal is empty.
pub fn spectral_signature(signal: &[f64], bands: usize) -> Result<Vec<f64>> {
    if signal.is_empty() {
        return Err(Error::Empty {
            what: "spectral_signature",
        });
    }
    if bands == 0 {
        return Err(Error::invalid("bands", "must be > 0"));
    }
    let padded = pad_to_pow2(signal);
    let ps = power_spectrum(&padded)?;
    // Skip the DC bin so constant offsets don't dominate the signature.
    let ac = ps.get(1..).unwrap_or_default();
    let mut sig = vec![0.0_f64; bands];
    let mut counts = vec![0_usize; bands];
    if ac.is_empty() {
        return Ok(sig);
    }
    for (i, &p) in ac.iter().enumerate() {
        let band = (i * bands) / ac.len();
        let band = band.min(bands - 1);
        if let (Some(s), Some(c)) = (sig.get_mut(band), counts.get_mut(band)) {
            *s += p;
            *c += 1;
        }
    }
    for (s, &c) in sig.iter_mut().zip(&counts) {
        if c > 0 {
            *s /= c as f64;
        }
    }
    let total: f64 = sig.iter().sum();
    if total > 0.0 {
        sig.iter_mut().for_each(|s| *s /= total);
    }
    Ok(sig)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::default(); 8];
        data[0] = Complex::new(1.0, 0.0);
        fft_in_place(&mut data, false).unwrap();
        for c in &data {
            assert!((c.re - 1.0).abs() < EPS);
            assert!(c.im.abs() < EPS);
        }
    }

    #[test]
    fn fft_roundtrip_recovers_signal() {
        let signal = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        fft_in_place(&mut buf, false).unwrap();
        fft_in_place(&mut buf, true).unwrap();
        for (c, &x) in buf.iter().zip(&signal) {
            assert!((c.re - x).abs() < 1e-9);
            assert!(c.im.abs() < 1e-9);
        }
    }

    #[test]
    fn fft_rejects_non_pow2() {
        let mut data = vec![Complex::default(); 6];
        assert!(fft_in_place(&mut data, false).is_err());
        assert!(fft_real(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn pure_tone_concentrates_power_in_one_bin() {
        let n = 64;
        let k = 5;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * k as f64 * i as f64 / n as f64).sin())
            .collect();
        let ps = power_spectrum(&signal).unwrap();
        assert_eq!(ps.len(), n / 2 + 1);
        let max_bin = ps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_bin, k);
        // All other bins (except k) carry negligible power.
        for (i, &p) in ps.iter().enumerate() {
            if i != k {
                assert!(p < 1e-9, "bin {i} leaked power {p}");
            }
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let signal = [1.0, -2.0, 3.0, 0.5, -0.25, 2.0, -1.0, 0.0];
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let spec = fft_real(&signal).unwrap();
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sq()).sum::<f64>() / signal.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn pad_to_pow2_behaviour() {
        assert_eq!(pad_to_pow2(&[1.0, 2.0, 3.0]).len(), 4);
        assert_eq!(pad_to_pow2(&[1.0, 2.0]).len(), 2);
        assert_eq!(pad_to_pow2(&[]).len(), 1);
    }

    #[test]
    fn spectral_signature_is_normalized_and_shape_sensitive() {
        let n = 128;
        let low: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 3.0 * i as f64 / n as f64).sin())
            .collect();
        let high: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 50.0 * i as f64 / n as f64).sin())
            .collect();
        let sig_low = spectral_signature(&low, 8).unwrap();
        let sig_high = spectral_signature(&high, 8).unwrap();
        assert!((sig_low.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((sig_high.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Low tone's mass sits in the first band; high tone's in a later band.
        assert!(sig_low[0] > 0.9);
        assert!(sig_high[0] < 0.1);
        assert!(spectral_signature(&low, 0).is_err());
        assert!(spectral_signature(&[], 4).is_err());
    }

    #[test]
    fn signature_is_amplitude_invariant() {
        let n = 64;
        let base: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 4.0 * i as f64 / n as f64).sin())
            .collect();
        let loud: Vec<f64> = base.iter().map(|x| x * 10.0).collect();
        let s1 = spectral_signature(&base, 8).unwrap();
        let s2 = spectral_signature(&loud, 8).unwrap();
        for (a, b) in s1.iter().zip(&s2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        let p = a.mul(b);
        assert_eq!((p.re, p.im), (5.0, 5.0));
    }
}
