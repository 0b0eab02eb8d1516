//! Cross-sensor fusion for Algorithm 1's support term.
//!
//! The paper's support counts how many corresponding sensors *also* flag
//! an outlier near the primary's index — a threshold vote. This module
//! replaces that vote with a pairwise **residual model**: for each
//! declared redundant sibling, a registry scorer (default
//! `"pair-diff"`) models the sibling's phase series against the
//! primary's and scores each sample by the pairwise disagreement. A large
//! standardized residual at the outlier means the sibling *did not move
//! with the primary* — direct evidence for a measurement error — while a
//! small residual means the pair moved together, confirming a process
//! anomaly even when the sibling's own deviation sits below the
//! threshold vote's detection floor.
//!
//! Fusion is strictly **post-hoc**: it rewrites
//! [`HierOutlier::support`] on a finished report and touches nothing
//! else, so the default pipeline stays byte-identical when fusion is
//! off.

use hierod_core::support::corresponding_sensors;
use hierod_core::{HierOutlier, HierReport};
use hierod_detect::engine::{self, AlgoSpec};
use hierod_detect::Result;
use hierod_hierarchy::Plant;
use hierod_timeseries::stats::order_pair;

/// How to fuse.
#[derive(Debug, Clone)]
pub struct FusionPolicy {
    /// Registry key of the pairwise residual model; rows are
    /// `[primary_i, sibling_i]`. `"pair-diff"` (default) is robust: the
    /// outlying pair cannot drag the fit. `"pair-regression"` handles
    /// offset/gain-mismatched gauges but its least-squares fit gives the
    /// probed outlier leverage over its own residual — use it with a
    /// lower [`z_threshold`](Self::z_threshold). Either way the spec
    /// should carry `signed=1`: the jump test below differentiates the
    /// residual, and a folded (absolute) residual cancels any event that
    /// pushes the pair *across* its own median disagreement, halving the
    /// onset jump exactly when the event is near-threshold.
    pub algo: AlgoSpec,
    /// Robust-z threshold on the standardized residual above which the
    /// pair is deemed to *disagree* at the outlier.
    pub z_threshold: f64,
    /// Index tolerance around the outlier when probing residuals: the
    /// sibling gauge may lag by a sample or two, and the detector's own
    /// reported index can trail the actual event by a few steps.
    pub index_window: usize,
    /// Minimum phase length for the residual fit; shorter series fall
    /// back to the unfused support.
    pub min_len: usize,
}

impl Default for FusionPolicy {
    fn default() -> Self {
        Self {
            algo: AlgoSpec::new("pair-diff").with("signed", 1),
            z_threshold: 3.5,
            index_window: 3,
            min_len: 8,
        }
    }
}

/// Tally of one [`fuse_support`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionOutcome {
    /// Outliers whose support was replaced by the fused value.
    pub fused: usize,
    /// Sibling pairs that moved with the primary (process-anomaly
    /// evidence), summed over all fused outliers.
    pub confirmed: usize,
    /// Sibling pairs whose residual spiked at the outlier
    /// (measurement-error evidence), summed over all fused outliers.
    pub disagreed: usize,
    /// Outliers left untouched (no siblings, missing location, or series
    /// below `min_len`).
    pub skipped: usize,
}

/// Recomputes the support of every locatable phase-level outlier in
/// `report` from pairwise residual models against its redundant
/// siblings, in place. Fused support is the fraction of siblings whose
/// pair model *confirms* the primary (residual stays quiet at the
/// outlier): 1.0 reads "every redundant gauge moved too — process
/// anomaly", 0.0 reads "no gauge followed — measurement error".
///
/// Environment echoes (`*.room_temp`) live on a different clock and are
/// out of scope for the pairwise fit; they are excluded from the sibling
/// set.
///
/// # Errors
/// Unknown `policy.algo` registry key, or scorer failures on the pair
/// rows (non-finite samples).
pub fn fuse_support(
    plant: &Plant,
    report: &mut HierReport,
    policy: &FusionPolicy,
) -> Result<FusionOutcome> {
    let scorer = engine::build(&policy.algo)?;
    let mut outcome = FusionOutcome::default();
    for outlier in &mut report.outliers {
        match fuse_one(plant, outlier, &scorer, policy)? {
            Some((confirmed, disagreed)) => {
                outcome.fused += 1;
                outcome.confirmed += confirmed;
                outcome.disagreed += disagreed;
            }
            None => outcome.skipped += 1,
        }
    }
    Ok(outcome)
}

/// Fuses a single outlier; `None` when it cannot be fused (support left
/// untouched), otherwise `(confirming, disagreeing)` sibling counts.
fn fuse_one(
    plant: &Plant,
    outlier: &mut HierOutlier,
    scorer: &engine::BoxedScorer,
    policy: &FusionPolicy,
) -> Result<Option<(usize, usize)>> {
    let (Some(job), Some(phase), Some(sensor), Some(index)) = (
        outlier.job.as_deref(),
        outlier.phase,
        outlier.sensor.as_deref(),
        outlier.index,
    ) else {
        return Ok(None);
    };
    let Some(line) = plant.line(&outlier.machine) else {
        return Ok(None);
    };
    let Some(phase_data) = line.job(job).and_then(|j| j.phase(phase)) else {
        return Ok(None);
    };
    let Some(primary) = phase_data.sensor_series(sensor) else {
        return Ok(None);
    };
    let primary = primary.values();
    if primary.len() < policy.min_len || index >= primary.len() {
        return Ok(None);
    }
    let siblings: Vec<String> = corresponding_sensors(plant, &outlier.machine, sensor)
        .into_iter()
        .filter(|s| !s.ends_with(".room_temp"))
        .collect();
    let mut confirmed = 0_usize;
    let mut disagreed = 0_usize;
    for sib in &siblings {
        let Some(series) = phase_data.sensor_series(sib) else {
            continue;
        };
        let sib_vals = series.values();
        let n = primary.len().min(sib_vals.len());
        if n < policy.min_len || index >= n {
            continue;
        }
        let rows: Vec<[f64; 2]> = primary
            .iter()
            .zip(sib_vals)
            .take(n)
            .map(|(&a, &b)| [a, b])
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let residuals = scorer.score_rows(&refs)?;
        if residual_spikes_at(&residuals, index, policy) {
            disagreed += 1;
        } else {
            confirmed += 1;
        }
    }
    let considered = confirmed + disagreed;
    if considered == 0 {
        return Ok(None);
    }
    outlier.support = confirmed as f64 / considered as f64;
    Ok(Some((confirmed, disagreed)))
}

/// Minimum residual jumps outside the probe window before the
/// disagreement test runs; below this there is nothing to calibrate
/// the noise floor against.
const MIN_CONTEXT: usize = 4;

/// Extra backward reach of the jump probe beyond `index_window`. Point
/// scorers flag decaying events anywhere along the decay, so the
/// reported index can trail the onset — where the diff jump actually
/// happened — by this many samples.
const BACKTRACK: usize = 12;

/// `true` when the pair residual *jumps* within `index ± index_window`
/// (plus one trailing step, where a jump at the window edge lands after
/// first-differencing).
///
/// The test runs on the residual's first difference, not its level,
/// because the two failure modes of a level test are both slow:
/// redundant gauges wander against each other (calibration, placement)
/// in smooth excursions that a level test reads as disagreement even
/// though the pair is moving together, and an event that shifts the
/// pair for the rest of the phase contaminates every level estimate of
/// "normal". A measurement error, by contrast, has a sharp onset — the
/// diff jumps by the full event magnitude in one step — so its
/// signature survives differencing while wander (and any residual ramp)
/// vanishes. The jump at the probe is standardized against the jump
/// noise floor of the rest of the series.
fn residual_spikes_at(residuals: &[f64], index: usize, policy: &FusionPolicy) -> bool {
    if residuals.len() < 2 {
        return false;
    }
    // jumps[i] = residuals[i+1] - residuals[i]; a disagreement onset at
    // series index t appears at jump index t-1 (rise into the event).
    let jumps: Vec<f64> = residuals
        .iter()
        .zip(residuals.iter().skip(1))
        .map(|(a, b)| b - a)
        .collect();
    // The probe reaches further back than forward: the detector's
    // reported index can sit a dozen samples into a decaying event, and
    // the onset jump — the evidence — is behind it.
    let lo = index.saturating_sub(policy.index_window + BACKTRACK + 1);
    let hi = (index + policy.index_window).min(jumps.len() - 1);
    // Magnitude, not signed rise: when a level-shift event covers more
    // than half the phase, the diff median sits inside the shifted
    // region and the residual *drops* at onset instead of rising.
    let peak = jumps
        .get(lo..=hi)
        .into_iter()
        .flatten()
        .copied()
        .filter(|v| v.is_finite())
        .fold(f64::NEG_INFINITY, |m, v| m.max(v.abs()));
    if !peak.is_finite() {
        return false;
    }
    let mut context: Vec<f64> = jumps
        .iter()
        .enumerate()
        .filter(|(i, v)| (*i < lo || *i > hi) && v.is_finite())
        .map(|(_, v)| v.abs())
        .collect();
    if context.len() < MIN_CONTEXT {
        return false;
    }
    let (median, mad) = median_mad(&mut context);
    // 1.4826·MAD ≈ σ for Gaussian jumps; the floor keeps a degenerate
    // perfectly-collinear pair (context jumps all ~0) from dividing by
    // zero — any nonzero jump then reads as disagreement.
    let scale = (1.4826 * mad).max(1e-9);
    (peak - median) / scale >= policy.z_threshold
}

/// `(upper median, unscaled MAD about it)` of a scratch buffer, which is
/// left holding the deviations (0s when empty): the order statistic at
/// rank `n / 2`, no midpoint.
fn median_mad(scratch: &mut [f64]) -> (f64, f64) {
    let mid = scratch.len() / 2;
    let upper = |scratch: &mut [f64]| order_pair(scratch, mid, mid).map_or(0.0, |(_, at)| at);
    let median = upper(scratch);
    scratch.iter_mut().for_each(|v| *v = (*v - median).abs());
    (median, upper(scratch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierod_hierarchy::{
        CaqResult, Environment, Job, JobConfig, Level, Phase, PhaseKind, Plant, ProductionLine,
        RedundancyGroup, Sensor, SensorKind,
    };
    use hierod_timeseries::TimeSeries;
    use proptest::prelude::*;

    /// `median_mad` as it was: two copies, two sorts, upper medians.
    fn sorted_median_mad(vals: &[f64]) -> (f64, f64) {
        let mut sorted = vals.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
        let mut devs: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
        devs.sort_by(f64::total_cmp);
        let mad = devs.get(devs.len() / 2).copied().unwrap_or(0.0);
        (median, mad)
    }

    proptest! {
        #[test]
        fn selected_median_mad_is_the_sorted_one(
            vals in prop::collection::vec((0.0_f64..10.0, 0_u8..3), 0..80_usize),
        ) {
            // Magnitudes of jumps: non-negative, many of them equal.
            let vals: Vec<f64> = vals
                .into_iter()
                .map(|(v, kind)| if kind == 0 { v } else { v.round() })
                .collect();
            let (median, mad) = median_mad(&mut vals.clone());
            let want = sorted_median_mad(&vals);
            prop_assert_eq!((median.to_bits(), mad.to_bits()), (want.0.to_bits(), want.1.to_bits()));
        }
    }

    /// One machine, one job, one heating phase with two redundant
    /// chamber-temperature gauges reading `base`, the primary perturbed
    /// by `primary_bump` at `at`, the sibling by `sibling_bump`.
    fn rig(at: usize, primary_bump: f64, sibling_bump: f64) -> Plant {
        let n = 64;
        let base: Vec<f64> = (0..n).map(|i| 100.0 + (i as f64 * 0.3).sin()).collect();
        let mut a = base.clone();
        let mut b = base;
        a[at] += primary_bump;
        b[at] += sibling_bump;
        let phase = Phase::new(
            PhaseKind::WarmUp,
            vec![
                TimeSeries::regular("temp_a", 0, 1, a).expect("series"),
                TimeSeries::regular("temp_b", 0, 1, b).expect("series"),
            ],
            vec![],
        );
        let job = Job {
            id: "j1".into(),
            start: 0,
            config: JobConfig::new(vec!["p0".into()], vec![1.0]),
            phases: vec![phase],
            caq: CaqResult::new(vec!["q0".into()], vec![1.0], true),
        };
        let line = ProductionLine {
            machine_id: "m1".into(),
            sensors: vec![
                Sensor::new("temp_a", SensorKind::ChamberTemperature),
                Sensor::new("temp_b", SensorKind::ChamberTemperature),
            ],
            redundancy: vec![RedundancyGroup::new(
                SensorKind::ChamberTemperature,
                vec!["temp_a".into(), "temp_b".into()],
            )],
            jobs: vec![job],
            environment: Environment::default(),
        };
        Plant::new("p", vec![line])
    }

    fn outlier_at(at: usize) -> HierOutlier {
        HierOutlier {
            level: Level::Phase,
            machine: "m1".into(),
            job: Some("j1".into()),
            phase: Some(PhaseKind::WarmUp),
            sensor: Some("temp_a".into()),
            index: Some(at),
            timestamp: Some(at as u64),
            outlierness: 9.0,
            support: 0.5,
            global_score: 1,
        }
    }

    fn fuse(plant: &Plant, at: usize) -> (HierOutlier, FusionOutcome) {
        let mut report = HierReport {
            outliers: vec![outlier_at(at)],
            warnings: vec![],
        };
        let outcome =
            fuse_support(plant, &mut report, &FusionPolicy::default()).expect("fusion runs");
        (report.outliers.remove(0), outcome)
    }

    #[test]
    fn measurement_error_gets_zero_fused_support() {
        // Only the primary gauge jumps: the pair residual spikes, the
        // sibling disagrees, fused support collapses to 0.
        let plant = rig(30, 25.0, 0.0);
        let (o, outcome) = fuse(&plant, 30);
        assert_eq!(o.support, 0.0);
        assert_eq!(
            outcome,
            FusionOutcome {
                fused: 1,
                confirmed: 0,
                disagreed: 1,
                skipped: 0
            }
        );
    }

    #[test]
    fn tracking_sibling_confirms_process_anomaly() {
        // Both gauges jump together: residual stays flat, full support —
        // even though a threshold vote on the sibling's *own* z-score
        // could miss a modest co-movement.
        let plant = rig(30, 25.0, 25.0);
        let (o, outcome) = fuse(&plant, 30);
        assert_eq!(o.support, 1.0);
        assert_eq!(
            outcome,
            FusionOutcome {
                fused: 1,
                confirmed: 1,
                disagreed: 0,
                skipped: 0
            }
        );
    }

    #[test]
    fn small_co_movement_still_confirms() {
        // A shift well below any detection threshold on the sibling
        // still reads as confirmation: the pair moved *together*.
        let plant = rig(30, 6.0, 6.0);
        let (o, _) = fuse(&plant, 30);
        assert_eq!(o.support, 1.0);
    }

    #[test]
    fn unlocatable_outlier_is_skipped() {
        let plant = rig(30, 25.0, 0.0);
        let mut report = HierReport {
            outliers: vec![HierOutlier {
                index: None,
                ..outlier_at(30)
            }],
            warnings: vec![],
        };
        let outcome =
            fuse_support(&plant, &mut report, &FusionPolicy::default()).expect("fusion runs");
        assert_eq!(outcome.skipped, 1);
        assert_eq!(report.outliers[0].support, 0.5, "support untouched");
    }

    #[test]
    fn pair_regression_model_separates_at_lower_threshold() {
        // The OLS fit gives the probed spike leverage over its own
        // residual (it shrinks β towards the outlier), so the regression
        // model needs a lower threshold than the robust default.
        let policy = FusionPolicy {
            algo: AlgoSpec::new("pair-regression").with("signed", 1),
            z_threshold: 2.0,
            ..FusionPolicy::default()
        };
        let plant = rig(30, 6.0, 0.0);
        let mut report = HierReport {
            outliers: vec![outlier_at(30)],
            warnings: vec![],
        };
        fuse_support(&plant, &mut report, &policy).expect("fusion runs");
        assert_eq!(report.outliers[0].support, 0.0);
    }
}
