//! NaN-robustness regressions for the detectors whose float orderings
//! moved from `partial_cmp(..).unwrap()` to `f64::total_cmp` (see
//! `cargo xtask lint`, rule `nan-cmp`): a NaN anywhere in the input must
//! never panic a scorer. Returning an error or NaN scores is acceptable;
//! dying mid-scan is not.

use hierod_detect::engine::{self, AlgoSpec, ScorerKind};

/// The detectors whose orderings were NaN-unsafe before the sweep.
const FIXED: &[&str] = &["kmeans", "phased-kmeans", "lof", "knn", "window-db"];

/// A plausible series with one NaN dropped in the middle.
fn poisoned_series(len: usize) -> Vec<f64> {
    let mut values: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin() * 2.0).collect();
    values[len / 2] = f64::NAN;
    values
}

#[test]
fn nan_input_never_panics_fixed_detectors() {
    let values = poisoned_series(96);
    let collection: Vec<Vec<f64>> = (0..6)
        .map(|m| {
            let mut s: Vec<f64> = (0..48).map(|i| ((i + m) as f64 * 0.21).cos()).collect();
            if m == 3 {
                s[10] = f64::NAN;
            }
            s
        })
        .collect();
    let refs: Vec<&[f64]> = collection.iter().map(Vec::as_slice).collect();

    for key in FIXED {
        let mut scorer = engine::build(&AlgoSpec::new(*key)).expect(key);
        // Ok and Err are both fine; a panic fails the test by itself.
        let outcome = match scorer.kind() {
            ScorerKind::Point | ScorerKind::Vector | ScorerKind::Discrete => {
                scorer.score_points(&values).map(|_| ())
            }
            ScorerKind::Series => scorer.score_collection(&refs, 8).map(|_| ()),
            ScorerKind::Supervised => {
                let rows: Vec<Vec<f64>> = (0..16)
                    .map(|i| vec![i as f64, if i == 7 { f64::NAN } else { 1.0 }])
                    .collect();
                let labels: Vec<bool> = (0..16).map(|i| i % 5 == 0).collect();
                scorer
                    .fit(&rows, &labels)
                    .and_then(|()| scorer.predict(&rows))
                    .map(|_| ())
            }
        };
        // Force the result so lazy scorers cannot hide a deferred panic.
        let _ = outcome.is_ok();
    }
}

#[test]
fn sort_helpers_order_nan_last_deterministically() {
    use hierod_detect::stat::{nan_last_cmp, sort_total};

    let mut xs = vec![2.0, f64::NAN, -1.0, f64::NAN, 0.0];
    sort_total(&mut xs);
    assert_eq!(&xs[..3], &[-1.0, 0.0, 2.0]);
    assert!(xs[3].is_nan() && xs[4].is_nan());

    // A "smallest wins" selection never lets NaN beat data.
    let min = xs.iter().copied().min_by(|a, b| nan_last_cmp(*a, *b));
    assert_eq!(min, Some(-1.0));
}

/// All-NaN input is the worst case: every distance, mean, and threshold
/// degenerates. Still no panics allowed.
#[test]
fn all_nan_series_never_panics() {
    let values = vec![f64::NAN; 64];
    for key in FIXED {
        let scorer = engine::build(&AlgoSpec::new(*key)).expect(key);
        if matches!(
            scorer.kind(),
            ScorerKind::Point | ScorerKind::Vector | ScorerKind::Discrete
        ) {
            let _ = scorer.score_points(&values);
        }
    }
}

/// Nothing upstream of the standardizer calls `is_finite` on a raw score,
/// so its order statistics must survive infinite runs: the median of a
/// run of `∞` is `∞` (it was `∞ + (∞ − ∞) · frac = NaN`), and no
/// standardized score turns NaN because of it.
#[test]
fn infinite_raw_scores_standardize_without_nan() {
    use hierod_detect::engine::robust_z;
    use hierod_timeseries::stats;

    let inf = f64::INFINITY;
    assert_eq!(stats::median(&[inf, inf, 2.0, inf]).unwrap(), inf);
    assert_eq!(
        stats::quantile(&[0.0, -inf, -inf, -inf], 0.25).unwrap(),
        -inf
    );
    for infinite in 0..=8 {
        let raw: Vec<f64> = (0..8)
            .map(|i| {
                if i < infinite {
                    inf
                } else {
                    1.0 + (i as f64 * 0.9).sin()
                }
            })
            .collect();
        let z = robust_z(&raw);
        assert_eq!(z.len(), raw.len());
        assert!(
            z.iter().all(|x| !x.is_nan()),
            "{infinite} of 8 infinite: {z:?}"
        );
        // While they are the minority, the infinite scores are what is flagged.
        if (1..4).contains(&infinite) {
            assert!(z.iter().zip(&raw).all(|(z, r)| (*z == inf) == (*r == inf)));
        }
    }
}
