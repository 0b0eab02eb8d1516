//! Hostile-input safety net: every engine entry, driven the way
//! `engine_spec_props` drives it, against the degenerate-but-realistic
//! inputs a plant produces (NaN and ±∞ samples, constant and
//! all-duplicate data, lengths 0/1/2, magnitudes near `f64::MAX`).
//!
//! No case may panic. Where every input value is finite, the result must
//! be finite scores or a typed [`DetectError`]; with NaN/∞ in the input,
//! any non-panicking result is acceptable.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hierod_detect::engine::{self, AlgoSpec, BoxedScorer, ScorerKind};
use hierod_detect::sa::RuleLearner;
use hierod_detect::{row_refs, DetectError, SupervisedScorer};

/// One hostile input, in every shape a scorer consumes.
struct Case {
    name: String,
    values: Vec<f64>,
    collection: Vec<Vec<f64>>,
    rows: Vec<Vec<f64>>,
}

impl Case {
    fn finite(&self) -> bool {
        let all = self
            .values
            .iter()
            .chain(self.collection.iter().flatten())
            .chain(self.rows.iter().flatten());
        all.clone().all(|v| v.is_finite())
    }
}

fn wave(len: usize, scale: f64) -> Vec<f64> {
    (0..len)
        .map(|i| ((i as f64 * 0.37).sin() + 0.3 * (i as f64 * 1.9).cos()) * scale)
        .collect()
}

fn rows_of(n: usize, d: usize, scale: f64) -> Vec<Vec<f64>> {
    (0..n).map(|i| wave(d + i, scale)[i..].to_vec()).collect()
}

/// Magnitudes at which squares, sums or products overflow `f64`, plus
/// subnormals.
const MAGNITUDES: [f64; 6] = [1e154, 1e200, 1e300, -1e300, 8.9e307, 1e-310];

/// A plausible series with `bad` written at one position of every shape.
fn poisoned(name: &str, bad: f64) -> Case {
    let mut values = wave(96, 1.0);
    values[40] = bad;
    let mut collection: Vec<Vec<f64>> = (0..5).map(|m| wave(48 + m, 1.0)).collect();
    collection[2][7] = bad;
    let mut rows = rows_of(24, 5, 1.0);
    rows[3][1] = bad;
    Case {
        name: name.to_string(),
        values,
        collection,
        rows,
    }
}

fn cases() -> Vec<Case> {
    let sized = |len: usize| Case {
        name: format!("len{len}"),
        values: wave(len, 1.0),
        collection: (0..len).map(|m| wave(len, 1.0 + m as f64)).collect(),
        rows: rows_of(len, 3, 1.0),
    };
    let scaled = |scale: f64| Case {
        name: format!("{scale:e}"),
        values: wave(96, scale),
        collection: (0..5).map(|m| wave(48 + m, scale)).collect(),
        rows: rows_of(24, 5, scale),
    };
    let mut cases = vec![
        poisoned("nan", f64::NAN),
        poisoned("+inf", f64::INFINITY),
        poisoned("-inf", f64::NEG_INFINITY),
        Case {
            name: "all-nan".into(),
            values: vec![f64::NAN; 64],
            collection: vec![vec![f64::NAN; 32]; 4],
            rows: vec![vec![f64::NAN; 4]; 12],
        },
        Case {
            name: "constant".into(),
            values: vec![3.5; 96],
            collection: vec![vec![3.5; 48]; 5],
            rows: vec![vec![3.5; 5]; 24],
        },
        Case {
            name: "all-duplicate rows".into(),
            values: wave(8, 1.0).repeat(12),
            collection: vec![wave(48, 1.0); 5],
            rows: vec![wave(5, 1.0); 24],
        },
        sized(0),
        sized(1),
        sized(2),
        Case {
            name: "±1e300 spikes".into(),
            values: wave(96, 1.0)
                .into_iter()
                .enumerate()
                .map(|(i, v)| {
                    if i % 17 == 3 {
                        -1e300
                    } else if i % 23 == 5 {
                        1e300
                    } else {
                        v
                    }
                })
                .collect(),
            collection: vec![wave(48, 1.0), wave(48, 1e300), wave(48, -1e300)],
            rows: (0..24)
                .map(|i| vec![1.0, if i == 9 { 1e300 } else { 2.0 }, -3.0])
                .collect(),
        },
    ];
    cases.extend(MAGNITUDES.map(scaled));
    cases
}

/// Everything `engine_spec_props` drives a scorer kind through, plus the
/// row form for vector scorers.
fn drive(
    scorer: &mut BoxedScorer,
    case: &Case,
) -> Vec<(&'static str, Result<Vec<f64>, DetectError>)> {
    let refs: Vec<&[f64]> = case.collection.iter().map(Vec::as_slice).collect();
    let labels: Vec<bool> = (0..case.rows.len()).map(|i| i % 4 == 1).collect();
    let mut out = Vec::new();
    match scorer.kind() {
        ScorerKind::Point | ScorerKind::Vector | ScorerKind::Discrete => {
            out.push(("points", scorer.score_points(&case.values)));
            out.push(("collection", scorer.score_collection(&refs, 8)));
            if scorer.kind() == ScorerKind::Vector {
                out.push(("rows", scorer.score_rows(&row_refs(&case.rows))));
            }
        }
        ScorerKind::Series => out.push(("collection", scorer.score_collection(&refs, 8))),
        ScorerKind::Supervised => {
            let fitted = scorer
                .fit(&case.rows, &labels)
                .and_then(|()| scorer.predict(&case.rows));
            out.push(("fit+predict", fitted));
        }
    }
    out
}

#[test]
fn no_entry_panics_or_scores_non_finite_on_hostile_inputs() {
    let mut failures = Vec::new();
    for case in cases() {
        for e in engine::all_entries() {
            let mut scorer = engine::build(&AlgoSpec::new(e.key)).expect(e.key);
            let outcome = catch_unwind(AssertUnwindSafe(|| drive(&mut scorer, &case)));
            let Ok(results) = outcome else {
                failures.push(format!("{} on {}: panicked", e.key, case.name));
                continue;
            };
            if !case.finite() {
                continue;
            }
            for (what, result) in results {
                if let Ok(scores) = result {
                    if let Some(bad) = scores.iter().find(|s| !s.is_finite()) {
                        failures.push(format!("{} {what} on {}: score {bad}", e.key, case.name));
                    }
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A rule tests one feature by position: predicting on rows narrower than
/// the rows it was fitted on is a shape error, not an out-of-bounds read.
#[test]
fn rule_learner_rejects_rows_narrower_than_fit() {
    let rows: Vec<Vec<f64>> = (0..20)
        .map(|i| vec![f64::from(i % 3), f64::from(i), f64::from(i % 5)])
        .collect();
    let labels: Vec<bool> = (0..20).map(|i| i >= 15).collect();
    let mut learner = RuleLearner::default();
    learner.fit(&rows, &labels).expect("fits");
    assert!(learner.rules().is_some_and(|r| !r.is_empty()));
    let narrow: Vec<Vec<f64>> = rows.iter().map(|r| vec![r[0]]).collect();
    assert!(matches!(
        learner.predict(&narrow),
        Err(DetectError::ShapeMismatch { .. })
    ));
    assert!(learner.predict(&rows).is_ok());
}
