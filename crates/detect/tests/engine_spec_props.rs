//! Property tests over the engine's spec-resolution contract: every
//! registry/catalog entry is buildable by name through an [`AlgoSpec`],
//! malformed specs are rejected with `InvalidParameter` (never a panic),
//! every built scorer yields finite robust-z standardized scores on
//! synthetic data when driven through the [`BoxedScorer`] bridges, and both
//! online forms of every point-kind entry keep the [`OnlineScorer`]
//! contract: one score per pushed sample, in push order.

use hierod_detect::engine::{self, robust_z, AlgoSpec, ScorerKind};
use hierod_detect::online::{OnlineScorer, SlidingKnn, SlidingLof, WindowedBatch};
use hierod_detect::registry::registry;
use hierod_detect::DetectError;
use proptest::prelude::*;

/// Every key this suite drives: the 21 Table-1 registry rows followed by
/// the supplemental catalog entries. `cargo xtask lint` (rule `taxonomy`)
/// statically cross-checks this list against the registry, the engine
/// catalog, and DESIGN.md; [`covered_keys_match_the_live_entries`] pins it
/// to the runtime truth so neither side can drift.
const COVERED_KEYS: [&str; 32] = [
    // Table 1 (registry.rs), in row order.
    "match-count",
    "lcs",
    "vibration",
    "gmm",
    "phased-kmeans",
    "dynamic-clustering",
    "single-linkage",
    "pca",
    "ocsvm",
    "som",
    "fsa",
    "hmm",
    "olap-cube",
    "rule-learner",
    "mlp",
    "motif-rules",
    "window-db",
    "anomaly-dict",
    "sax",
    "ar",
    "deviants",
    // Supplemental engine catalog (catalog.rs).
    "sliding-z",
    "global-z",
    "robust-z",
    "iqr",
    "kmeans",
    "lof",
    "knn",
    "rknn",
    "cross-machine-profile",
    "pair-regression",
    "pair-diff",
];

#[test]
fn covered_keys_match_the_live_entries() {
    let live: Vec<&str> = engine::all_entries().iter().map(|e| e.key).collect();
    assert_eq!(
        COVERED_KEYS.to_vec(),
        live,
        "COVERED_KEYS must list every registry/catalog key in order; \
         run `cargo xtask lint` for the static side of this check"
    );
}

#[test]
fn all_21_registry_rows_build_by_key_and_by_table1_name() {
    let rows = registry();
    assert_eq!(rows.len(), 21);
    for e in &rows {
        let by_key = engine::build(&AlgoSpec::new(e.key))
            .unwrap_or_else(|err| panic!("{} by key: {err}", e.key));
        let by_name = engine::build(&AlgoSpec::new(e.info.name))
            .unwrap_or_else(|err| panic!("{} by row name: {err}", e.info.name));
        assert_eq!(by_key.info().name, e.info.name);
        assert_eq!(by_name.info().name, e.info.name);
        assert_eq!(by_key.kind(), by_name.kind());
    }
}

#[test]
fn supplemental_catalog_builds_by_key() {
    for e in engine::supplemental() {
        engine::build(&AlgoSpec::new(e.key)).unwrap_or_else(|err| panic!("{}: {err}", e.key));
    }
}

/// Deterministic pseudo-random series (SplitMix64) so the non-proptest
/// drivers below stay reproducible.
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

#[test]
fn every_entry_scores_synthetic_data_to_finite_standardized_scores() {
    let values = synth_series(7, 128);
    let collection: Vec<Vec<f64>> = (0..6).map(|m| synth_series(m + 10, 64)).collect();
    let refs: Vec<&[f64]> = collection.iter().map(Vec::as_slice).collect();
    let mut rows: Vec<Vec<f64>> = (0..24).map(|i| synth_series(i + 40, 5)).collect();
    let mut labels = vec![false; 24];
    for i in 0..6 {
        rows.push(synth_series(i + 90, 5).iter().map(|v| v + 8.0).collect());
        labels.push(true);
    }

    for e in engine::all_entries() {
        let mut scorer = engine::build(&AlgoSpec::new(e.key)).expect(e.key);
        let raw = match scorer.kind() {
            // Point natively; vector/discrete through the window and SAX
            // bridges respectively.
            ScorerKind::Point | ScorerKind::Vector | ScorerKind::Discrete => scorer
                .score_points(&values)
                .unwrap_or_else(|err| panic!("{}: {err}", e.key)),
            ScorerKind::Series => scorer
                .score_collection(&refs, 8)
                .unwrap_or_else(|err| panic!("{}: {err}", e.key)),
            ScorerKind::Supervised => {
                scorer
                    .fit(&rows, &labels)
                    .unwrap_or_else(|err| panic!("{}: {err}", e.key));
                scorer
                    .predict(&rows)
                    .unwrap_or_else(|err| panic!("{}: {err}", e.key))
            }
        };
        assert!(!raw.is_empty(), "{} returned no scores", e.key);
        let z = robust_z(&raw);
        assert_eq!(z.len(), raw.len());
        for v in z.iter() {
            assert!(v.is_finite(), "{}: non-finite standardized score", e.key);
        }
    }
}

/// Drives `scorer` over `values` and holds it to the [`OnlineScorer`]
/// contract: never more scores than pushes so far, exactly one per push
/// once finished, each finite and non-negative. `None` when the scorer gave
/// the series up with an `Err`, which the contract allows.
fn drive_online(mut scorer: Box<dyn OnlineScorer>, values: &[f64], what: &str) -> Option<Vec<f64>> {
    let mut out = Vec::new();
    for (pushed, &v) in values.iter().enumerate() {
        scorer.push(pushed as u64, v, &mut out).ok()?;
        assert!(out.len() <= pushed + 1, "{what}: a score before its push");
    }
    scorer.finish(&mut out).ok()?;
    assert_eq!(out.len(), values.len(), "{what}: one score per push");
    for (i, s) in out.iter().enumerate() {
        assert!(s.is_finite() && *s >= 0.0, "{what}: score {s} at {i}");
    }
    Some(out)
}

/// Every point-kind entry of [`COVERED_KEYS`] in both its online forms,
/// and the two sliding neighbour scorers (which have no registry entry),
/// over one series.
fn check_online_contract(values: &[f64]) {
    let bits = |scores: Vec<f64>| scores.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let mut point_entries = 0;
    for spec in COVERED_KEYS.map(AlgoSpec::new) {
        let batch = engine::build(&spec).expect("covered");
        if batch.kind() != ScorerKind::Point {
            continue;
        }
        point_entries += 1;
        let incremental = engine::build_online(&spec).expect("covered");
        drive_online(incremental, values, &format!("build_online({spec})"));

        let full = WindowedBatch::full_history(engine::build(&spec).expect("covered"));
        let online = drive_online(Box::new(full), values, &format!("full_history({spec})"));
        if values.is_empty() {
            // Nothing pushed, nothing scored — whatever batch makes of an
            // empty series.
            assert_eq!(online, Some(Vec::new()), "{spec}");
        } else {
            let batch = batch.score_points(values).ok();
            assert_eq!(online.map(bits), batch.map(bits), "{spec}");
        }
    }
    assert!(
        point_entries >= 7,
        "only {point_entries} point-kind entries"
    );
    let knn = SlidingKnn::new(64, 5).expect("params");
    assert!(drive_online(Box::new(knn), values, "sliding-knn").is_some());
    let lof = SlidingLof::new(64, 5).expect("params");
    assert!(drive_online(Box::new(lof), values, "sliding-lof").is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn online_forms_emit_one_score_per_pushed_sample(
        smooth in prop::collection::vec(-1.0e6_f64..1.0e6, 0..=400),
        stepped in prop::collection::vec((-3_i32..4).prop_map(f64::from), 0..=400),
    ) {
        check_online_contract(&smooth);
        check_online_contract(&stepped);
    }

    #[test]
    fn unknown_names_are_rejected_with_invalid_parameter(
        letters in prop::collection::vec(0u8..26, 8..16),
    ) {
        let name: String = letters.iter().map(|&c| (b'a' + c) as char).collect();
        let known = engine::all_entries()
            .iter()
            .any(|e| e.key == name || e.info.name.to_lowercase() == name);
        prop_assume!(!known);
        prop_assert!(matches!(
            engine::build(&AlgoSpec::new(&name)),
            Err(DetectError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn undeclared_parameters_are_rejected(i in 0usize..30, v in -10i64..10) {
        let entries = engine::all_entries();
        let e = &entries[i % entries.len()];
        let spec = AlgoSpec::new(e.key).with("definitely_not_a_param", v);
        prop_assert!(matches!(
            engine::build(&spec),
            Err(DetectError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn malformed_parameter_values_are_rejected(i in 0usize..30) {
        // Negative and NaN values are invalid for every declared parameter
        // in the catalog (counts/orders/windows must be non-negative
        // integers; fractions/factors must be finite and positive).
        let entries = engine::all_entries();
        let e = &entries[i % entries.len()];
        prop_assume!(!e.params.is_empty());
        let param = e.params[0].to_string();
        let negative = AlgoSpec::new(e.key).with(param.clone(), -1);
        prop_assert!(
            matches!(
                engine::build(&negative),
                Err(DetectError::InvalidParameter { .. })
            ),
            "{}({}=-1) must be rejected",
            e.key,
            param
        );
        let nan = AlgoSpec::new(e.key).with(param.clone(), f64::NAN);
        prop_assert!(
            matches!(engine::build(&nan), Err(DetectError::InvalidParameter { .. })),
            "{}({}=NaN) must be rejected",
            e.key,
            param
        );
    }

    #[test]
    fn point_capable_entries_score_random_series_finitely(
        values in prop::collection::vec(-50.0_f64..50.0, 64..128),
    ) {
        for e in engine::all_entries() {
            let scorer = engine::build(&AlgoSpec::new(e.key)).expect(e.key);
            let raw = match scorer.kind() {
                ScorerKind::Point | ScorerKind::Vector | ScorerKind::Discrete => {
                    scorer.score_points(&values).unwrap_or_else(|err| panic!("{}: {err}", e.key))
                }
                _ => continue,
            };
            prop_assert_eq!(raw.len(), values.len(), "{}", e.key);
            for z in robust_z(&raw).iter() {
                prop_assert!(z.is_finite(), "{}: {}", e.key, z);
            }
        }
    }
}
