//! Bit pins for every engine entry: the raw scores each registry/catalog
//! key produces on fixed inputs, recorded as length plus an FNV-1a digest
//! of the `f64` bit patterns (or the error text), one line per key and
//! call. The golden file `score_pins.golden` beside this test was written
//! once from the tree before the dense-kernel rewrite of the matrix and DP
//! detectors; any refactor of detector internals must keep every line.
//!
//! When the golden file is absent the test writes it and fails, so a fresh
//! pin set is never mistaken for a passing one.

use std::fmt::Write as _;

use hierod_detect::engine::{self, AlgoSpec, ScorerKind};
use hierod_detect::online::OnlineScorer;
use hierod_detect::{row_refs, DetectError};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/score_pins.golden");

/// Parameterised specs pinned beside the defaults.
const VARIANTS: [&str; 10] = [
    "hmm(states=2)",
    "hmm(states=5)",
    "gmm(components=2)",
    "pca(components=1)",
    "pca(components=4)",
    "deviants(buckets=3)",
    "deviants(buckets=16)",
    "lcs(k=3)",
    "single-linkage(cut_quantile=0.5)",
    "dynamic-clustering(radius_factor=1.5)",
];

/// The same SplitMix-style generator `engine_spec_props` drives with.
fn synth_series(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5;
            (i as f64 * 0.21).sin() * 3.0 + noise
        })
        .collect()
}

/// `engine_spec_props`'s labelled rows: 24 normal, 6 shifted, 5 columns.
fn labelled_rows() -> (Vec<Vec<f64>>, Vec<bool>) {
    let mut rows: Vec<Vec<f64>> = (0..24).map(|i| synth_series(i + 40, 5)).collect();
    let mut labels = vec![false; 24];
    for i in 0..6 {
        rows.push(synth_series(i + 90, 5).iter().map(|v| v + 8.0).collect());
        labels.push(true);
    }
    (rows, labels)
}

/// A wider row set: 36 rows of 6 correlated columns, the last four rows
/// off the correlation.
fn wide_rows() -> (Vec<Vec<f64>>, Vec<bool>) {
    let rows: Vec<Vec<f64>> = (0..36)
        .map(|i| {
            let base = synth_series(i + 200, 6);
            let shared = base[0];
            let outlier = i >= 32;
            base.iter()
                .enumerate()
                .map(|(c, v)| {
                    let corr = shared * (c as f64 + 1.0) * 0.5 + v * 0.2;
                    if outlier && c % 2 == 1 {
                        -corr + 4.0
                    } else {
                        corr
                    }
                })
                .collect()
        })
        .collect();
    let labels = (0..36).map(|i| i >= 32).collect();
    (rows, labels)
}

fn fnv(bits: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn line(out: &mut String, key: &str, call: &str, result: Result<Vec<f64>, DetectError>) {
    match result {
        Ok(scores) => {
            let digest = fnv(scores.iter().map(|s| s.to_bits()));
            let _ = writeln!(out, "{key} {call} ok {} {digest:016x}", scores.len());
        }
        Err(e) => {
            let _ = writeln!(out, "{key} {call} err {e}");
        }
    }
}

fn drive_online(
    mut scorer: Box<dyn OnlineScorer>,
    values: &[f64],
) -> Result<Vec<f64>, DetectError> {
    let mut out = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        scorer.push(i as u64, v, &mut out)?;
    }
    scorer.finish(&mut out)?;
    Ok(out)
}

fn render() -> String {
    let values = synth_series(7, 128);
    let collection: Vec<Vec<f64>> = (0..6).map(|m| synth_series(m + 10, 64)).collect();
    let refs: Vec<&[f64]> = collection.iter().map(Vec::as_slice).collect();
    let (rows, labels) = labelled_rows();
    let (wide, wide_labels) = wide_rows();

    let mut out = String::new();
    for e in engine::all_entries() {
        let key = e.key;
        let mut scorer = engine::build(&AlgoSpec::new(key)).expect(key);
        match scorer.kind() {
            ScorerKind::Point | ScorerKind::Vector | ScorerKind::Discrete => {
                line(&mut out, key, "points", scorer.score_points(&values));
            }
            ScorerKind::Series | ScorerKind::Supervised => {}
        }
        if scorer.kind() != ScorerKind::Supervised {
            line(
                &mut out,
                key,
                "collection",
                scorer.score_collection(&refs, 8),
            );
        }
        match scorer.kind() {
            ScorerKind::Vector => {
                line(&mut out, key, "rows5", scorer.score_rows(&row_refs(&rows)));
                line(&mut out, key, "rows6", scorer.score_rows(&row_refs(&wide)));
            }
            ScorerKind::Supervised => {
                let fitted = scorer
                    .fit(&rows, &labels)
                    .and_then(|()| scorer.predict(&rows));
                line(&mut out, key, "fit5", fitted);
                let fitted = scorer
                    .fit(&wide, &wide_labels)
                    .and_then(|()| scorer.predict(&wide));
                line(&mut out, key, "fit6", fitted);
            }
            ScorerKind::Point => {
                let online = engine::build_online(&AlgoSpec::new(key)).expect(key);
                line(&mut out, key, "online", drive_online(online, &values));
            }
            ScorerKind::Discrete | ScorerKind::Series => {}
        }
    }

    // Non-default shapes of the matrix and DP detectors, on a longer series.
    let long = synth_series(11, 400);
    for text in VARIANTS {
        let spec: AlgoSpec = text.parse().expect("well-formed");
        let scorer = engine::build(&spec).expect(text);
        line(&mut out, text, "points400", scorer.score_points(&long));
        line(
            &mut out,
            text,
            "collection",
            scorer.score_collection(&refs, 8),
        );
    }

    out
}

#[test]
fn every_entry_scores_its_pinned_bits() {
    let actual = render();
    let Ok(golden) = std::fs::read_to_string(GOLDEN) else {
        std::fs::write(GOLDEN, &actual).expect("write golden");
        panic!("{GOLDEN} was missing and has been written; re-run to check it");
    };
    let diff: Vec<String> = golden
        .lines()
        .zip(actual.lines())
        .filter(|(g, a)| g != a)
        .map(|(g, a)| format!("pinned: {g}\n   now: {a}"))
        .collect();
    assert!(
        diff.is_empty() && golden.lines().count() == actual.lines().count(),
        "scores moved:\n{}",
        diff.join("\n")
    );
}
