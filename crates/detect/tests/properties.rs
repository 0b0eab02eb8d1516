//! Property-based tests over the detector zoo's cross-cutting contracts:
//! every scorer returns one finite, non-negative score per item, is
//! deterministic, and the unsupervised vector scorers respect basic
//! structure (translation invariance where the method promises it).

use hierod_detect::da::{
    DynamicClustering, GaussianMixture, KMeans, OneClassSvm, PhasedKMeans, PrincipalComponentSpace,
    SelfOrganizingMap, SingleLinkage,
};
use hierod_detect::itm::HistogramDeviants;
use hierod_detect::pm::AutoregressiveModel;
use hierod_detect::stat::{GlobalZScore, IqrFence, RobustZScore, SlidingZScore};
use hierod_detect::uoa::OlapCubeDetector;
use hierod_detect::upa::FiniteStateAutomaton;
use hierod_detect::{DiscreteScorer, PointScorer, VectorScorer};
use proptest::prelude::*;

fn vec_rows(n: std::ops::Range<usize>, d: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-100.0_f64..100.0, d), n)
}

fn all_vector_scorers() -> Vec<Box<dyn VectorScorer>> {
    vec![
        Box::new(KMeans::new(2).unwrap()),
        Box::new(PhasedKMeans::new(2).unwrap()),
        Box::new(GaussianMixture::new(2).unwrap()),
        Box::new(PrincipalComponentSpace::new(1).unwrap()),
        Box::new(OneClassSvm::default()),
        Box::new(SelfOrganizingMap::new(2, 2).unwrap()),
        Box::new(SingleLinkage::default()),
        Box::new(DynamicClustering::default()),
        Box::new(OlapCubeDetector::default()),
    ]
}

fn all_point_scorers() -> Vec<Box<dyn PointScorer>> {
    vec![
        Box::new(AutoregressiveModel::new(2).unwrap()),
        Box::new(SlidingZScore::new(8).unwrap()),
        Box::new(GlobalZScore),
        Box::new(RobustZScore),
        Box::new(IqrFence),
        Box::new(HistogramDeviants::new(4).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn vector_scorers_return_finite_nonnegative_scores(rows in vec_rows(3..20, 3)) {
        for scorer in all_vector_scorers() {
            let scores = scorer
                .score_rows(&hierod_detect::row_refs(&rows))
                .unwrap_or_else(|e| panic!("{}: {e}", scorer.info().name));
            prop_assert_eq!(scores.len(), rows.len());
            for s in &scores {
                prop_assert!(s.is_finite() && *s >= 0.0, "{}: {}", scorer.info().name, s);
            }
        }
    }

    #[test]
    fn vector_scorers_are_deterministic(rows in vec_rows(3..16, 2)) {
        for scorer in all_vector_scorers() {
            let a = scorer.score_rows(&hierod_detect::row_refs(&rows)).unwrap();
            let b = scorer.score_rows(&hierod_detect::row_refs(&rows)).unwrap();
            prop_assert_eq!(a, b, "{}", scorer.info().name);
        }
    }

    #[test]
    fn point_scorers_return_finite_nonnegative_scores(
        values in prop::collection::vec(-100.0_f64..100.0, 12..64),
    ) {
        for scorer in all_point_scorers() {
            let scores = scorer
                .score_points(&values)
                .unwrap_or_else(|e| panic!("{}: {e}", scorer.info().name));
            prop_assert_eq!(scores.len(), values.len());
            for s in &scores {
                prop_assert!(s.is_finite() && *s >= 0.0, "{}: {}", scorer.info().name, s);
            }
        }
    }

    #[test]
    fn point_scorers_invariant_under_translation(
        values in prop::collection::vec(-10.0_f64..10.0, 12..48),
        offset in -1000.0_f64..1000.0,
    ) {
        // All point scorers standardize internally, so adding a constant
        // must leave scores (nearly) unchanged.
        let shifted: Vec<f64> = values.iter().map(|v| v + offset).collect();
        for scorer in all_point_scorers() {
            let a = scorer.score_points(&values).unwrap();
            let b = scorer.score_points(&shifted).unwrap();
            for (x, y) in a.iter().zip(&b) {
                prop_assert!(
                    (x - y).abs() < 1e-5 * (1.0 + x.abs()),
                    "{}: {} vs {} (offset {})",
                    scorer.info().name,
                    x,
                    y,
                    offset
                );
            }
        }
    }

    #[test]
    fn constant_series_scores_zero_for_all_point_scorers(
        value in -100.0_f64..100.0,
        n in 12_usize..48,
    ) {
        let values = vec![value; n];
        for scorer in all_point_scorers() {
            let scores = scorer.score_points(&values).unwrap();
            for s in &scores {
                prop_assert!(s.abs() < 1e-9, "{}: {}", scorer.info().name, s);
            }
        }
    }

    #[test]
    fn identical_rows_are_never_outliers(
        row in prop::collection::vec(-50.0_f64..50.0, 3),
        n in 4_usize..16,
    ) {
        let rows = vec![row; n];
        for scorer in all_vector_scorers() {
            let scores = scorer.score_rows(&hierod_detect::row_refs(&rows)).unwrap();
            // All rows identical: no row can stand out from any other.
            let max = scores.iter().cloned().fold(f64::MIN, f64::max);
            let min = scores.iter().cloned().fold(f64::MAX, f64::min);
            prop_assert!(
                max - min < 1e-9,
                "{}: spread {}..{}",
                scorer.info().name,
                min,
                max
            );
        }
    }

    #[test]
    fn fsa_scores_bounded_unit_interval(
        seqs in prop::collection::vec(prop::collection::vec(0_u16..6, 4..20), 2..8),
    ) {
        let refs: Vec<&[u16]> = seqs.iter().map(Vec::as_slice).collect();
        let scores = FiniteStateAutomaton::default().score_sequences(&refs).unwrap();
        for s in scores {
            prop_assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn far_outlier_row_gets_strictly_highest_score(
        mut rows in vec_rows(8..20, 2),
        direction in 0_usize..4,
    ) {
        // Keep the bulk inside a bounded ball, plant one far point.
        for r in rows.iter_mut() {
            for v in r.iter_mut() {
                *v = v.clamp(-10.0, 10.0);
            }
        }
        let far = match direction {
            0 => vec![1e4, 0.0],
            1 => vec![-1e4, 0.0],
            2 => vec![0.0, 1e4],
            _ => vec![0.0, -1e4],
        };
        rows.push(far);
        let last = rows.len() - 1;
        // The geometry-based scorers must all rank the planted point first.
        let geometric: Vec<Box<dyn VectorScorer>> = vec![
            Box::new(KMeans::new(2).unwrap()),
            Box::new(OneClassSvm::default()),
            Box::new(SingleLinkage::default()),
            Box::new(DynamicClustering::default()),
        ];
        for scorer in geometric {
            let scores = scorer.score_rows(&hierod_detect::row_refs(&rows)).unwrap();
            let best = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            prop_assert_eq!(best, last, "{}: {:?}", scorer.info().name, scores);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn non_finite_inputs_error_not_panic(
        values in prop::collection::vec(-10.0_f64..10.0, 12..32),
        nan_at in 0_usize..12,
        rows in vec_rows(3..8, 2),
        nan_row in 0_usize..3,
    ) {
        // Point scorers.
        let mut poisoned = values.clone();
        poisoned[nan_at] = f64::NAN;
        for scorer in all_point_scorers() {
            prop_assert!(
                scorer.score_points(&poisoned).is_err(),
                "{} accepted NaN",
                scorer.info().name
            );
        }
        // Vector scorers.
        let mut poisoned_rows = rows.clone();
        poisoned_rows[nan_row % rows.len()][0] = f64::INFINITY;
        for scorer in all_vector_scorers() {
            prop_assert!(
                scorer.score_rows(&hierod_detect::row_refs(&poisoned_rows)).is_err(),
                "{} accepted infinity",
                scorer.info().name
            );
        }
    }
}

// ---------------------------------------------------------------------
// Order statistics by selection: every median that moved off a sort,
// against the sort-based form it replaced, kept here as the oracle.

use hierod_detect::engine::robust_z;
use hierod_detect::related::{PairDifference, ProfileSimilarity};
use hierod_detect::stat::midpoint_median;
use hierod_timeseries::stats;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The detectors' midpoint median, by sort.
fn sorted_midpoint_median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `stats::median` by sort: type-7 interpolation, an infinite run being
/// that infinity (see `hierod-timeseries`' own property tests).
fn sorted_type7_median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let h = 0.5 * (v.len() - 1) as f64;
    let (lo, hi) = (v[h.floor() as usize], v[h.ceil() as usize]);
    if lo == hi && lo.is_infinite() {
        return lo;
    }
    lo + (hi - lo) * (h - h.floor())
}

/// `robust_z` as it was: a sorted median, a sorted median inside the MAD,
/// a third around a fresh deviation vector.
fn three_sort_robust_z(raw: &[f64]) -> Vec<f64> {
    if raw.is_empty() {
        return Vec::new();
    }
    let med = sorted_type7_median(raw);
    let dev: Vec<f64> = raw.iter().map(|x| (x - med).abs()).collect();
    let mad = 1.4826 * sorted_type7_median(&dev);
    let spread = if mad > 1e-12 {
        mad
    } else {
        let sd = stats::std_dev(raw).unwrap();
        if sd > 1e-12 {
            sd
        } else {
            return vec![0.0; raw.len()];
        }
    };
    raw.iter().map(|s| (s - med) / spread).collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Raw score vectors of every kind `robust_z` branches on: spread out,
/// mostly one value with a few spikes (MAD collapses, `std_dev` takes
/// over), all equal (zeros), and arbitrary bit patterns.
fn raw_scores() -> impl Strategy<Value = Vec<f64>> {
    (
        prop::collection::vec((any::<u64>(), -50.0_f64..50.0), 0..200_usize),
        0_u8..4,
    )
        .prop_map(|(draws, kind)| {
            draws
                .into_iter()
                .map(|(bits, x)| match kind {
                    0 => x,
                    1 if bits % 16 == 0 => x,
                    1 | 2 => 3.5,
                    _ if bits % 4 == 0 => f64::from_bits(bits),
                    _ if bits % 4 == 1 => {
                        [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0][(bits >> 2) as usize % 4]
                    }
                    _ => x.round(),
                })
                .collect()
        })
}

proptest! {
    #[test]
    fn robust_z_is_its_three_sort_definition(raw in raw_scores()) {
        prop_assert_eq!(bits(&robust_z(&raw)), bits(&three_sort_robust_z(&raw)));
    }

    #[test]
    fn midpoint_median_is_its_sorted_form_on_even_and_odd_lengths(
        xs in prop::collection::vec(-100.0_f64..100.0, 1..64_usize),
        dup in 0_usize..64,
    ) {
        // Both parities of every draw, with a duplicated value in the mix.
        let mut longer = xs.clone();
        longer.push(xs[dup % xs.len()]);
        for xs in [xs, longer] {
            prop_assert_eq!(
                midpoint_median(&mut xs.clone()).to_bits(),
                sorted_midpoint_median(&xs).to_bits()
            );
        }
        prop_assert_eq!(midpoint_median(&mut []), 0.0);
    }

    #[test]
    fn pair_difference_is_its_sort_based_form(rows in vec_rows(1..40, 2), signed in 0_u8..2) {
        let diffs: Vec<f64> = rows.iter().map(|r| r[1] - r[0]).collect();
        let med = sorted_midpoint_median(&diffs);
        let abs_dev: Vec<f64> = diffs.iter().map(|d| (d - med).abs()).collect();
        let scale = (1.4826 * sorted_midpoint_median(&abs_dev)).max(f64::EPSILON);
        let want: Vec<f64> = diffs
            .iter()
            .map(|d| (d - med) / scale)
            .map(|z| if signed == 1 { z } else { z.abs() })
            .collect();
        let got = PairDifference::new(signed == 1)
            .score_rows(&hierod_detect::row_refs(&rows))
            .unwrap();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn profile_template_is_its_sort_based_form(
        refs in (2_usize..12).prop_flat_map(|len| vec_rows(1..9, len)),
    ) {
        let len = refs[0].len();
        let mut mean = vec![0.0_f64; len];
        let mut std = vec![0.0_f64; len];
        for pos in 0..len {
            let col: Vec<f64> = refs.iter().map(|r| r[pos]).collect();
            let med = sorted_midpoint_median(&col);
            let dev: Vec<f64> = col.iter().map(|x| (x - med).abs()).collect();
            mean[pos] = med;
            std[pos] = 1.4826 * sorted_midpoint_median(&dev);
        }
        let global = (std.iter().map(|s| s * s).sum::<f64>() / len as f64).sqrt().max(1e-9);
        let probe = &refs[0];
        let want: Vec<f64> = probe
            .iter()
            .zip(&mean)
            .zip(&std)
            .map(|((x, m), s)| ((x - m) / s.max(global * 0.5)).abs())
            .collect();
        let got = ProfileSimilarity::fit(&hierod_detect::row_refs(&refs))
            .unwrap()
            .score_points(probe)
            .unwrap();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn robust_pca_is_its_sort_based_form(rows in vec_rows(3..24, 3)) {
        let pca = PrincipalComponentSpace::new(1).unwrap();
        let (n, d) = (rows.len(), 3);
        let mut zs = vec![vec![0.0_f64; d]; n];
        for c in 0..d {
            let col: Vec<f64> = rows.iter().map(|r| r[c]).collect();
            let med = sorted_midpoint_median(&col);
            let dev: Vec<f64> = col.iter().map(|x| (x - med).abs()).collect();
            let mad = 1.4826 * sorted_midpoint_median(&dev);
            if mad > 1e-12 {
                for (z, r) in zs.iter_mut().zip(&rows) {
                    z[c] = (r[c] - med) / mad;
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        let norm = |z: &Vec<f64>| z.iter().map(|x| x * x).sum::<f64>();
        order.sort_by(|&a, &b| norm(&zs[a]).total_cmp(&norm(&zs[b])));
        let keep = ((n as f64 * pca.trim.clamp(0.0, 1.0)).ceil() as usize)
            .clamp((pca.components + 1).min(n), n);
        let train: Vec<&[f64]> = order[..keep].iter().map(|&i| zs[i].as_slice()).collect();
        let fitted = pca.fit(&train).unwrap();
        let want: Vec<f64> = zs.iter().map(|z| fitted.reconstruction_error(z).sqrt()).collect();
        let got = pca.score_rows(&hierod_detect::row_refs(&rows)).unwrap();
        prop_assert_eq!(bits(&got), bits(&want));
    }
}
