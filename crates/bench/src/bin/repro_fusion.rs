//! E7 — cross-sensor fusion for the support term (hierod-adapt §4.19).
//!
//! The paper separates measurement errors from process anomalies by the
//! *support* of corresponding sensors. Algorithm 1's baseline support is
//! a threshold vote: a sibling confirms only if its own score crosses
//! the detection threshold near the outlier. `hierod_adapt::fuse_support`
//! replaces the vote with a pairwise residual model per sibling.
//!
//! This binary drives both on labelled scenarios (injected measurement
//! errors + process anomalies at near-threshold magnitude) and reports
//! precision/recall/F1 of the induced measurement-error classifier
//! (`support < 0.5` ⇒ ME). The acceptance gate is the fused row
//! strictly dominating the baseline row on ME F1.

use hierod_adapt::{fuse_support, FusionPolicy};
use hierod_core::{find_hierarchical_outliers, AlgorithmPolicy, FindOptions, HierReport};
use hierod_eval::ConfusionMatrix;
use hierod_hierarchy::Level;
use hierod_synth::{Scenario, ScenarioBuilder, Scope};

/// Index-window tolerance when matching a reported outlier to a truth
/// event (events have width; detection may land a step or two off).
const MATCH_SLACK: usize = 3;

/// `Some(actual_is_me)` when the outlier matches a labelled event.
fn truth_label(scenario: &Scenario, o: &hierod_core::HierOutlier) -> Option<bool> {
    let (job, phase, sensor, idx) = (o.job.as_deref()?, o.phase?, o.sensor.as_deref()?, o.index?);
    for r in &scenario.truth.injections {
        if *r.machine == *o.machine
            && r.job == job
            && r.phase == phase
            && r.affected_sensors.iter().any(|s| s == sensor)
            && idx + MATCH_SLACK >= r.start_idx
            && idx < r.start_idx + r.len + MATCH_SLACK
        {
            return Some(r.scope == Scope::MeasurementError);
        }
    }
    None
}

/// `true` when the sensor has at least one redundant sibling: the
/// support term (both the vote and the fused model) is only defined
/// where corresponding sensors exist. Singleton quantities (laser
/// power, vibration) always report support 0 regardless of cause, so
/// including them would add identical common-mode noise to both rows.
fn fusable(scenario: &Scenario, o: &hierod_core::HierOutlier) -> bool {
    let Some(sensor) = o.sensor.as_deref() else {
        return false;
    };
    hierod_core::support::corresponding_sensors(&scenario.plant, &o.machine, sensor)
        .iter()
        .any(|s| !s.ends_with(".room_temp"))
}

/// P/R/F1 of "support < 0.5 ⇒ measurement error" over matched outliers
/// on redundant sensors.
fn me_confusion(scenario: &Scenario, report: &HierReport) -> ConfusionMatrix {
    let mut predicted = Vec::new();
    let mut actual = Vec::new();
    for o in &report.outliers {
        if !fusable(scenario, o) {
            continue;
        }
        if let Some(is_me) = truth_label(scenario, o) {
            predicted.push(o.support < 0.5);
            actual.push(is_me);
        }
    }
    ConfusionMatrix::from_labels(&predicted, &actual)
}

/// Injection magnitude sits just above the phase-level detection
/// threshold (6.0 robust-z units): the regime where the threshold vote
/// degrades. The primary gauge still gets detected when its noise adds
/// to the event, but each *sibling*'s own score straddles the
/// threshold, so the vote's confirmations become coin flips while the
/// pair residual — which needs no threshold crossing, only
/// co-movement — stays decisive. Channel faults are deliberately out of
/// scope here: slow gauge faults are the drift monitor's job (§4.19
/// layer 1), not the fusion term's.
fn scenario_for(seed: u64) -> Scenario {
    ScenarioBuilder::new(seed)
        .machines(3)
        .jobs_per_machine(20)
        .redundancy(3)
        .phase_samples(60)
        .anomaly_rate(0.3)
        .measurement_error_fraction(0.5)
        .magnitude_sigmas(5.0)
        .build()
}

fn main() {
    let seeds = [1_u64, 2, 3, 4, 5];
    let policy = AlgorithmPolicy::default();
    let fusion = FusionPolicy::default();

    let mut out = String::new();
    out.push_str("measurement-error classification from the support term\n");
    out.push_str("(near-threshold injections, 5 sigma; predict ME when support < 0.5)\n\n");
    out.push_str(&format!(
        "{:<6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}\n",
        "seed", "base-P", "base-R", "base-F1", "fus-P", "fus-R", "fus-F1", "matched"
    ));

    let mut base_f1_sum = 0.0;
    let mut fused_f1_sum = 0.0;
    let mut fused_wins = 0_usize;
    for &seed in &seeds {
        let scenario = scenario_for(seed);
        let options = FindOptions {
            policy: policy.clone(),
        };
        let baseline = find_hierarchical_outliers(&scenario.plant, Level::Phase, &options)
            .expect("algorithm 1");
        let mut fused = baseline.clone();
        let outcome = fuse_support(&scenario.plant, &mut fused, &fusion).expect("fusion");

        let cm_base = me_confusion(&scenario, &baseline);
        let cm_fused = me_confusion(&scenario, &fused);
        if std::env::var("FUSION_DEBUG").is_ok() {
            for (b, f) in baseline.outliers.iter().zip(&fused.outliers) {
                if let Some(is_me) = truth_label(&scenario, b) {
                    let base_pred = b.support < 0.5;
                    let fused_pred = f.support < 0.5;
                    if fused_pred != is_me {
                        eprintln!(
                            "MISS seed={seed} {}/{:?}/{:?}/{:?} idx={:?} me={is_me} base_support={:.2}(pred {base_pred}) fused_support={:.2}",
                            b.machine, b.job, b.phase, b.sensor, b.index, b.support, f.support
                        );
                    }
                }
            }
        }
        base_f1_sum += cm_base.f1();
        fused_f1_sum += cm_fused.f1();
        if cm_fused.f1() > cm_base.f1() {
            fused_wins += 1;
        }
        out.push_str(&format!(
            "{:<6} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>9}\n",
            seed,
            cm_base.precision(),
            cm_base.recall(),
            cm_base.f1(),
            cm_fused.precision(),
            cm_fused.recall(),
            cm_fused.f1(),
            outcome.fused,
        ));
    }
    let n = seeds.len() as f64;
    out.push_str(&format!(
        "\nmean ME-F1: baseline {:.3}, fused {:.3}  (fused wins {}/{} seeds)\n",
        base_f1_sum / n,
        fused_f1_sum / n,
        fused_wins,
        seeds.len()
    ));
    out.push_str(&format!(
        "fusion model: {} (robust pairwise difference), z-threshold {}\n",
        fusion.algo.name, fusion.z_threshold
    ));

    print!("{out}");
    std::fs::write("results/repro_fusion.txt", &out).expect("write results");
    assert!(
        fused_f1_sum > base_f1_sum,
        "fused support must dominate the threshold vote on ME F1"
    );
}
