//! Adapters between data granularities.
//!
//! Table 1's three columns (points, sub-sequences, time series) are bridged
//! by three standard embeddings, so that one implementation can serve
//! several granularities:
//!
//! * sub-sequences → vectors: sliding-window embedding (z-normalized, as
//!   the phased/shape-based methods require);
//! * whole series → vectors: PAA to a fixed segment count;
//! * numeric series → symbol sequences: SAX, so the discrete-sequence
//!   detectors (match count, LCS, FSA, HMM, NPD, NMD) can also run on
//!   numeric sensor data.

use hierod_timeseries::normalize::z_normalize;
use hierod_timeseries::sax::{paa, SaxEncoder};
use hierod_timeseries::window::{window_scores_to_point_scores, windows, WindowSpec};
use hierod_timeseries::MultiSeries;

use crate::api::{DetectError, DiscreteScorer, Result, VectorScorer};

/// Embeds the sliding windows of a series as z-normalized vectors.
///
/// # Errors
/// Returns an error when the series is shorter than one window.
pub fn embed_windows(values: &[f64], spec: WindowSpec) -> Result<Vec<Vec<f64>>> {
    if values.len() < spec.len {
        return Err(DetectError::NotEnoughData {
            what: "embed_windows",
            needed: spec.len,
            got: values.len(),
        });
    }
    let mut out = Vec::with_capacity(spec.count(values.len()));
    for w in windows(values, spec) {
        out.push(z_normalize(w.values)?);
    }
    Ok(out)
}

/// Scores the sliding windows of a series with a [`VectorScorer`], returning
/// `(window_scores, point_scores)` where point scores take the max over
/// covering windows.
///
/// Without z-normalization the windows are scored **in place**: the rows
/// handed to the scorer are slices into `values`, so no window is copied.
/// Only the z-normalized path materializes derived rows.
///
/// # Errors
/// Propagates embedding and scorer errors.
pub fn score_windows_with(
    scorer: &dyn VectorScorer,
    values: &[f64],
    spec: WindowSpec,
    z_norm: bool,
) -> Result<(Vec<f64>, Vec<f64>)> {
    let w_scores = if z_norm {
        let rows = embed_windows(values, spec)?;
        scorer.score_rows(&crate::api::row_refs(&rows))?
    } else {
        if values.len() < spec.len {
            return Err(DetectError::NotEnoughData {
                what: "embed_windows",
                needed: spec.len,
                got: values.len(),
            });
        }
        let rows: Vec<&[f64]> = windows(values, spec).map(|w| w.values).collect();
        scorer.score_rows(&rows)?
    };
    let p_scores = window_scores_to_point_scores(values.len(), spec, &w_scores);
    Ok((w_scores, p_scores))
}

/// Embeds whole series of possibly different lengths as fixed-width vectors
/// via z-normalization + PAA to `segments` values.
///
/// # Errors
/// Returns an error when a series is shorter than `segments` or empty.
pub fn embed_series(collection: &[&[f64]], segments: usize) -> Result<Vec<Vec<f64>>> {
    if collection.is_empty() {
        return Err(DetectError::NotEnoughData {
            what: "embed_series",
            needed: 1,
            got: 0,
        });
    }
    collection
        .iter()
        .map(|s| {
            let z = z_normalize(s)?;
            Ok(paa(&z, segments.min(z.len()).max(1))?)
        })
        .collect::<Result<Vec<_>>>()
        .and_then(|rows| {
            let width = rows.first().map(Vec::len);
            if rows.iter().any(|r| Some(r.len()) != width) {
                return Err(DetectError::ShapeMismatch {
                    message: "embed_series: a series was shorter than the segment count"
                        .to_string(),
                });
            }
            Ok(rows)
        })
}

/// Scores whole series with a [`VectorScorer`] via [`embed_series`].
///
/// # Errors
/// Propagates embedding and scorer errors.
pub fn score_series_with(
    scorer: &dyn VectorScorer,
    collection: &[&[f64]],
    segments: usize,
) -> Result<Vec<f64>> {
    let rows = embed_series(collection, segments)?;
    scorer.score_rows(&crate::api::row_refs(&rows))
}

/// Converts a numeric series into a SAX symbol sequence: one symbol per
/// tumbling `word_len`-sample block (so the sequence length is
/// `n / word_len × segments_per_word`, here fixed at one segment per block
/// for a direct per-block symbol).
///
/// # Errors
/// Returns an error for invalid SAX parameters or a too-short series.
pub fn symbolize(values: &[f64], block: usize, alphabet: usize) -> Result<Vec<u16>> {
    if block == 0 {
        return Err(DetectError::invalid("block", "must be > 0"));
    }
    if values.len() < block {
        return Err(DetectError::NotEnoughData {
            what: "symbolize",
            needed: block,
            got: values.len(),
        });
    }
    // Global z-normalization, then one symbol per tumbling block mean.
    let z = z_normalize(values)?;
    let enc = SaxEncoder::new(1, alphabet)?;
    let quantizer = enc.quantizer();
    let mut out = Vec::with_capacity(z.len() / block);
    for chunk in z.chunks_exact(block) {
        let mean = chunk.iter().sum::<f64>() / block as f64;
        out.push(quantizer.symbol(mean));
    }
    Ok(out)
}

/// Scores the tumbling symbol windows of a numeric series with a
/// [`DiscreteScorer`]: the series is SAX-symbolized, cut into
/// `word_len`-symbol windows, each window scored against the collection of
/// windows, and the scores spread back to points.
///
/// # Errors
/// Propagates symbolization and scorer errors.
pub fn score_points_via_symbols(
    scorer: &dyn DiscreteScorer,
    values: &[f64],
    block: usize,
    alphabet: usize,
    word_len: usize,
) -> Result<Vec<f64>> {
    let symbols = symbolize(values, block, alphabet)?;
    if symbols.len() < word_len {
        return Err(DetectError::NotEnoughData {
            what: "score_points_via_symbols",
            needed: word_len * block,
            got: values.len(),
        });
    }
    // Sliding symbol windows (stride 1 over symbols).
    let spec = WindowSpec::new(word_len, 1).map_err(DetectError::from)?;
    let wins: Vec<&[u16]> = hierod_timeseries::window::symbol_windows(&symbols, spec)
        .into_iter()
        .map(|(_, w)| w)
        .collect();
    let w_scores = scorer.score_sequences(&wins)?;
    // Each symbol window covers `word_len * block` samples, strided by
    // `block` samples.
    let sample_spec = WindowSpec::new(word_len * block, block).map_err(DetectError::from)?;
    Ok(window_scores_to_point_scores(
        values.len(),
        sample_spec,
        &w_scores,
    ))
}

/// Scores a time-aligned multivariate bundle point-by-point with the VAR(1)
/// predictive model (the multivariate PM of the paper's §3): one score per
/// time point, covering every channel jointly.
///
/// # Errors
/// Propagates VAR fitting errors (too few points for the dimensionality).
pub fn score_multiseries(ms: &MultiSeries) -> Result<Vec<f64>> {
    let rows = ms.rows();
    crate::pm::VectorAutoregressive.score_rows_over_time(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Capabilities, Detector, DetectorInfo, TechniqueClass};

    /// Trivial vector scorer: distance from the collection mean.
    struct MeanDist;

    impl Detector for MeanDist {
        fn info(&self) -> DetectorInfo {
            DetectorInfo {
                name: "mean-dist",
                citation: "",
                class: TechniqueClass::Baseline,
                capabilities: Capabilities::ALL,
                supervised: false,
            }
        }
    }

    impl VectorScorer for MeanDist {
        fn score_rows(&self, rows: &[&[f64]]) -> Result<Vec<f64>> {
            let d = crate::api::check_rows("mean-dist", rows)?;
            let n = rows.len() as f64;
            let mut mean = vec![0.0; d];
            for r in rows {
                for (m, v) in mean.iter_mut().zip(r.iter()) {
                    *m += v / n;
                }
            }
            Ok(rows
                .iter()
                .map(|r| crate::related::sq_dist(r, &mean).sqrt())
                .collect())
        }
    }

    /// Trivial discrete scorer: fraction of non-zero symbols.
    struct NonZeroFrac;

    impl Detector for NonZeroFrac {
        fn info(&self) -> DetectorInfo {
            DetectorInfo {
                name: "nonzero",
                citation: "",
                class: TechniqueClass::Baseline,
                capabilities: Capabilities::ALL,
                supervised: false,
            }
        }
    }

    impl DiscreteScorer for NonZeroFrac {
        fn score_sequences(&self, seqs: &[&[u16]]) -> Result<Vec<f64>> {
            Ok(seqs
                .iter()
                .map(|s| s.iter().filter(|&&x| x != 0).count() as f64 / s.len().max(1) as f64)
                .collect())
        }
    }

    #[test]
    fn embed_windows_shapes() {
        let vals = [1.0, 2.0, 3.0, 4.0, 5.0];
        let spec = WindowSpec::new(3, 1).unwrap();
        let rows = embed_windows(&vals, spec).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], z_normalize(&vals[..3]).unwrap());
        let z = embed_windows(&vals, spec).unwrap();
        assert!(z[0][1].abs() < 1e-9); // middle of z-normed ramp is mean
        assert!(embed_windows(&vals[..2], spec).is_err());
    }

    #[test]
    fn score_windows_with_spreads_to_points() {
        let mut vals = vec![1.0; 20];
        vals[10] = 50.0;
        let spec = WindowSpec::new(4, 1).unwrap();
        let (w, p) = score_windows_with(&MeanDist, &vals, spec, false).unwrap();
        assert_eq!(w.len(), 17);
        assert_eq!(p.len(), 20);
        // The spiked point must carry the highest point score.
        let best = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!((7..=13).contains(&best));
    }

    #[test]
    fn embed_series_handles_unequal_lengths() {
        let a: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..40).map(|i| (40 - i) as f64).collect();
        let rows = embed_series(&[&a, &b], 4).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 4);
        assert_eq!(rows[1].len(), 4);
        // Ramp up vs ramp down should differ in sign pattern.
        assert!(rows[0][0] < 0.0 && rows[1][0] > 0.0);
        assert!(embed_series(&[], 4).is_err());
    }

    #[test]
    fn embed_series_rejects_too_short_members() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, 2.0];
        assert!(embed_series(&[&a, &b], 4).is_err());
    }

    #[test]
    fn score_series_with_flags_divergent_series() {
        let normal1: Vec<f64> = (0..32).map(|i| (i as f64 * 0.4).sin()).collect();
        let normal2: Vec<f64> = (0..32).map(|i| (i as f64 * 0.4 + 0.1).sin()).collect();
        let weird: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let scores = score_series_with(&MeanDist, &[&normal1, &normal2, &weird], 8).unwrap();
        assert!(scores[2] > scores[0]);
        assert!(scores[2] > scores[1]);
    }

    #[test]
    fn symbolize_produces_block_symbols() {
        let mut vals = vec![0.0; 40];
        for v in vals.iter_mut().skip(20) {
            *v = 10.0;
        }
        let syms = symbolize(&vals, 10, 4).unwrap();
        assert_eq!(syms.len(), 4);
        // Low blocks get low symbols, high blocks high ones.
        assert!(syms[0] < syms[3]);
        assert_eq!(syms[0], syms[1]);
        assert_eq!(syms[2], syms[3]);
        assert!(symbolize(&vals, 0, 4).is_err());
        assert!(symbolize(&vals[..5], 10, 4).is_err());
    }

    #[test]
    fn score_points_via_symbols_runs_end_to_end() {
        let mut vals = vec![0.0; 60];
        vals[30] = 100.0;
        let p = score_points_via_symbols(&NonZeroFrac, &vals, 5, 4, 3).unwrap();
        assert_eq!(p.len(), 60);
        assert!(p.iter().all(|&s| (0.0..=1.0).contains(&s)));
        assert!(score_points_via_symbols(&NonZeroFrac, &vals[..10], 5, 4, 3).is_err());
    }

    #[test]
    fn score_multiseries_flags_cross_channel_events() {
        use hierod_timeseries::TimeSeries;
        // Channel b mirrors channel a, except at t = 60..64.
        let n = 120;
        let a_vals: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut b_vals: Vec<f64> = a_vals.iter().map(|v| v * 2.0 + 1.0).collect();
        for v in b_vals.iter_mut().skip(60).take(4) {
            *v += 5.0;
        }
        let a = TimeSeries::from_values("a", a_vals);
        let b = TimeSeries::from_values("b", b_vals);
        let ms = MultiSeries::new(vec![a, b]).unwrap();
        let scores = score_multiseries(&ms).unwrap();
        assert_eq!(scores.len(), n);
        let best = scores
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.total_cmp(y.1))
            .unwrap()
            .0;
        assert!((59..=65).contains(&best), "best {best}");
    }
}
