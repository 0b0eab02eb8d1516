//! Distance and similarity measures.
//!
//! The discriminative (DA) detectors of Table 1 are all built on "a
//! similarity function \[that\] compares sequences and clusters"; the ones
//! implemented here are the measures their original papers use: Euclidean
//! (k-means, SOM, PCA space), DTW (shape-tolerant clustering), LCS (Budalakoti
//! et al., row "Longest Common Subsequence"), Hamming / match-count (Lane &
//! Brodley), and cosine (vibration signatures).

use crate::error::{Error, Result};

/// Squared Euclidean distance between equal-length slices.
///
/// # Errors
/// Returns an error on length mismatch.
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(Error::LengthMismatch {
            what: "sq_euclidean",
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>())
}

/// Euclidean distance between equal-length slices.
///
/// # Errors
/// Returns an error on length mismatch.
pub fn euclidean(a: &[f64], b: &[f64]) -> Result<f64> {
    Ok(sq_euclidean(a, b)?.sqrt())
}

/// Length-normalized Euclidean distance (`euclidean / sqrt(n)`), comparable
/// across window lengths. Empty inputs give 0.
///
/// # Errors
/// Returns an error on length mismatch.
pub fn norm_euclidean(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.is_empty() {
        return Ok(0.0);
    }
    Ok(euclidean(a, b)? / (a.len() as f64).sqrt())
}

/// Cosine distance `1 - cos(a, b)`. If either vector has zero norm the
/// distance is defined as 1 (maximally dissimilar), except two zero vectors
/// which are identical (0).
///
/// # Errors
/// Returns an error on length mismatch.
pub fn cosine(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(Error::LengthMismatch {
            what: "cosine",
            left: a.len(),
            right: b.len(),
        });
    }
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 && nb == 0.0 {
        return Ok(0.0);
    }
    if na == 0.0 || nb == 0.0 {
        return Ok(1.0);
    }
    Ok((1.0 - dot / (na * nb)).max(0.0))
}

/// Dynamic Time Warping distance with an optional Sakoe-Chiba band.
///
/// `band = None` means an unconstrained warp; `band = Some(r)` restricts the
/// warping path to `|i - j| <= r`. Cost is squared Euclidean per step; the
/// returned value is the square root of the accumulated cost, so
/// `dtw(x, x) == 0` and an unconstrained DTW never exceeds the Euclidean
/// distance on equal-length inputs.
///
/// # Errors
/// Returns an error when either input is empty, or when the band is too
/// narrow to connect the two corners (`r < |n - m|`).
pub fn dtw(a: &[f64], b: &[f64], band: Option<usize>) -> Result<f64> {
    if a.is_empty() || b.is_empty() {
        return Err(Error::Empty { what: "dtw" });
    }
    let n = a.len();
    let m = b.len();
    if let Some(r) = band {
        if n.abs_diff(m) > r {
            return Err(Error::invalid(
                "band",
                format!("band {r} too narrow for lengths {n} and {m}"),
            ));
        }
    }
    // Two-row DP over the cost matrix: `curr[j]` (j ≥ 1) extends the best
    // of `prev[j - 1]`, `prev[j]` and `curr[j - 1]`.
    let big = f64::INFINITY;
    let mut prev = vec![big; m + 1];
    let mut curr = vec![big; m + 1];
    if let Some(origin) = prev.first_mut() {
        *origin = 0.0;
    }
    for (i, &ai) in (1_usize..).zip(a) {
        curr.fill(big);
        let (j_lo, j_hi) = match band {
            Some(r) => (i.saturating_sub(r).max(1), (i + r).min(m)),
            None => (1, m),
        };
        let cells = curr.iter_mut().skip(1).zip(prev.windows(2)).zip(b);
        let mut left = big;
        for ((cell, diag_up), &bj) in cells.skip(j_lo - 1).take((j_hi + 1).saturating_sub(j_lo)) {
            if let [diag, up] = *diag_up {
                let d = (ai - bj) * (ai - bj);
                left = d + diag.min(up).min(left);
                *cell = left;
            }
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let total = prev.last().copied().unwrap_or(big);
    if !total.is_finite() {
        return Err(Error::Numeric {
            message: "dtw: no admissible warping path".into(),
        });
    }
    Ok(total.sqrt())
}

/// Longest common subsequence length between two symbol sequences.
pub fn lcs_len(a: &[u16], b: &[u16]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let m = b.len();
    let mut prev = vec![0_usize; m + 1];
    let mut curr = vec![0_usize; m + 1];
    for &ai in a {
        // `curr[0]` stays 0; `curr[j + 1]` extends `prev[j]` on a match, else
        // the longer of `prev[j + 1]` and `curr[j]`.
        let mut left = 0;
        for ((cell, diag_up), &bj) in curr.iter_mut().skip(1).zip(prev.windows(2)).zip(b) {
            if let [diag, up] = *diag_up {
                left = if ai == bj { diag + 1 } else { up.max(left) };
                *cell = left;
            }
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev.last().copied().unwrap_or(0)
}

/// Normalized LCS similarity in `[0, 1]`: `lcs_len / max(|a|, |b|)`.
/// Two empty sequences are identical (1).
pub fn lcs_similarity(a: &[u16], b: &[u16]) -> f64 {
    let denom = a.len().max(b.len());
    if denom == 0 {
        return 1.0;
    }
    lcs_len(a, b) as f64 / denom as f64
}

/// Hamming distance between equal-length symbol sequences.
///
/// # Errors
/// Returns an error on length mismatch.
pub fn hamming(a: &[u16], b: &[u16]) -> Result<usize> {
    if a.len() != b.len() {
        return Err(Error::LengthMismatch {
            what: "hamming",
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(a.iter().zip(b).filter(|(x, y)| x != y).count())
}

/// Match-count similarity in `[0, 1]` for equal-length symbol sequences
/// (fraction of positions that agree). This is the similarity underlying
/// Lane & Brodley's sequence-matching detector.
///
/// # Errors
/// Returns an error on length mismatch or empty input.
pub fn match_count_similarity(a: &[u16], b: &[u16]) -> Result<f64> {
    if a.is_empty() {
        return Err(Error::Empty {
            what: "match_count_similarity",
        });
    }
    let mismatches = hamming(a, b)?;
    Ok(1.0 - mismatches as f64 / a.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn euclidean_hand_checked() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]).unwrap() - 5.0).abs() < EPS);
        assert_eq!(sq_euclidean(&[1.0], &[4.0]).unwrap(), 9.0);
        assert!(euclidean(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn norm_euclidean_is_length_invariant_for_constant_offset() {
        let a4 = vec![0.0; 4];
        let b4 = vec![1.0; 4];
        let a16 = vec![0.0; 16];
        let b16 = vec![1.0; 16];
        let d4 = norm_euclidean(&a4, &b4).unwrap();
        let d16 = norm_euclidean(&a16, &b16).unwrap();
        assert!((d4 - d16).abs() < EPS);
        assert_eq!(norm_euclidean(&[], &[]).unwrap(), 0.0);
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0]).unwrap() - 1.0).abs() < EPS);
        assert!(cosine(&[1.0, 1.0], &[2.0, 2.0]).unwrap().abs() < EPS);
        assert_eq!(cosine(&[0.0], &[0.0]).unwrap(), 0.0);
        assert_eq!(cosine(&[0.0], &[1.0]).unwrap(), 1.0);
        assert!(cosine(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn dtw_identity_and_symmetry() {
        let a = [1.0, 2.0, 3.0, 2.0, 1.0];
        let b = [1.0, 1.0, 2.0, 3.0, 2.0];
        assert_eq!(dtw(&a, &a, None).unwrap(), 0.0);
        let dab = dtw(&a, &b, None).unwrap();
        let dba = dtw(&b, &a, None).unwrap();
        assert!((dab - dba).abs() < EPS);
    }

    #[test]
    fn dtw_absorbs_time_shift_that_euclid_penalizes() {
        // Same pulse, shifted by 2 samples.
        let a = [0.0, 0.0, 1.0, 5.0, 1.0, 0.0, 0.0, 0.0];
        let b = [0.0, 0.0, 0.0, 0.0, 1.0, 5.0, 1.0, 0.0];
        let de = euclidean(&a, &b).unwrap();
        let dw = dtw(&a, &b, None).unwrap();
        assert!(dw < de * 0.5, "dtw {dw} should be far below euclid {de}");
    }

    #[test]
    fn dtw_band_constrains() {
        let a = [0.0, 1.0, 2.0, 3.0];
        let b = [0.0, 1.0, 2.0, 3.0];
        // Band 0 forces the diagonal = Euclidean path.
        let d0 = dtw(&a, &b, Some(0)).unwrap();
        assert!(d0.abs() < EPS);
        // Unequal lengths with a too-narrow band error out.
        assert!(dtw(&a, &b[..2], Some(1)).is_err());
        // Wide-enough band succeeds.
        assert!(dtw(&a, &b[..2], Some(2)).is_ok());
        assert!(dtw(&[], &b, None).is_err());
    }

    #[test]
    fn dtw_unconstrained_never_exceeds_euclidean() {
        let a = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let b = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0];
        assert!(dtw(&a, &b, None).unwrap() <= euclidean(&a, &b).unwrap() + EPS);
    }

    #[test]
    fn lcs_hand_checked() {
        // "ABCBDAB" vs "BDCABA" -> LCS "BCBA" len 4.
        let a = [0_u16, 1, 2, 1, 3, 0, 1]; // A=0 B=1 C=2 D=3
        let b = [1_u16, 3, 2, 0, 1, 0];
        assert_eq!(lcs_len(&a, &b), 4);
        assert_eq!(lcs_len(&a, &[]), 0);
        assert_eq!(lcs_len(&[], &b), 0);
    }

    #[test]
    fn lcs_similarity_bounds() {
        let a = [1_u16, 2, 3];
        assert_eq!(lcs_similarity(&a, &a), 1.0);
        assert_eq!(lcs_similarity(&a, &[9, 9, 9]), 0.0);
        assert_eq!(lcs_similarity(&[], &[]), 1.0);
        let half = lcs_similarity(&a, &[1, 2]);
        assert!((half - 2.0 / 3.0).abs() < EPS);
    }

    #[test]
    fn hamming_and_match_count() {
        let a = [1_u16, 2, 3, 4];
        let b = [1_u16, 9, 3, 9];
        assert_eq!(hamming(&a, &b).unwrap(), 2);
        assert!((match_count_similarity(&a, &b).unwrap() - 0.5).abs() < EPS);
        assert!(hamming(&a, &b[..2]).is_err());
        assert!(match_count_similarity(&[], &[]).is_err());
    }
}
