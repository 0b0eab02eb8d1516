//! Evaluation harness: the experiments the paper defers to future work.
//!
//! The paper proposes the ⟨global score, outlierness, support⟩ triple but
//! never measures it ("the approach will be evaluated based on real-life
//! data of a company …", Section 6). This module runs that evaluation on
//! the synthetic additive-manufacturing scenarios:
//!
//! * [`point_level_eval`] (E4) — does fusing the triple beat the flat
//!   single-level outlierness ranking at finding *process* anomalies?
//! * [`triage_eval`] (E5) — does support separate measurement errors from
//!   process anomalies, and how does that scale with sensor redundancy?
//! * [`job_level_eval`] (E4b) — does downward phase-level confirmation
//!   improve job-level detection?

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use hierod_detect::engine::robust_z;
use hierod_detect::Result;
use hierod_eval::range::point_adjusted_confusion;
use hierod_eval::{pr_auc, roc_auc};
use hierod_hierarchy::{Level, PhaseKind};
use hierod_synth::{Scenario, ScenarioBuilder, Scope};

use crate::detect_level::{build_production_scorer, LevelDetections};
use crate::fusion::FusionRule;
use crate::outlier::HierOutlier;
use crate::pipeline::build_report;
use crate::policy::AlgorithmPolicy;

/// Ranking metrics of one scoring against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// ROC-AUC (None when a class is empty).
    pub roc_auc: Option<f64>,
    /// PR-AUC / average precision (None when no positives).
    pub pr_auc: Option<f64>,
    /// Best achievable F1 over all thresholds.
    pub best_f1: f64,
    /// F1 under the point-adjust protocol (whole ground-truth segments
    /// count as detected once any of their points fires), evaluated at the
    /// plain best-F1 threshold. 0 when no threshold exists.
    pub point_adjusted_f1: f64,
    /// Number of scored items.
    pub n: usize,
    /// Number of positives.
    pub positives: usize,
}

/// Computes [`Metrics`] for scores vs labels.
pub(crate) fn metrics(scores: &[f64], labels: &[bool]) -> Metrics {
    let best = hierod_eval::confusion::best_f1_threshold(scores, labels);
    let best_f1 = best.as_ref().map(|(_, m)| m.f1()).unwrap_or(0.0);
    let point_adjusted_f1 = best
        .map(|(t, _)| point_adjusted_confusion(scores, labels, t).f1())
        .unwrap_or(0.0);
    Metrics {
        roc_auc: roc_auc(scores, labels),
        pr_auc: pr_auc(scores, labels),
        best_f1,
        point_adjusted_f1,
        n: scores.len(),
        positives: labels.iter().filter(|&&l| l).count(),
    }
}

/// Result of the point-level detection experiment (E4).
#[derive(Debug, Clone)]
pub struct PointEval {
    /// Flat single-level ranking (outlierness only).
    pub baseline: Metrics,
    /// Hierarchical triple-fused ranking.
    pub hierarchical: Metrics,
    /// Fusion rule used.
    pub fusion: FusionRule,
}

/// Evaluates all five levels once (shared by the experiments). The levels
/// run in parallel — see [`crate::detect_level::detect_all_levels`].
///
/// # Errors
/// Propagates detector failures.
pub fn evaluate_levels(
    scenario: &Scenario,
    policy: &AlgorithmPolicy,
) -> Result<BTreeMap<Level, LevelDetections>> {
    crate::detect_level::detect_all_levels(&scenario.plant, policy)
}

type PointKey = (Arc<str>, Arc<str>, PhaseKind, Arc<str>, usize);

/// E4: point-level detection of **process anomalies**.
///
/// Positives are the points of process-anomaly injections on their affected
/// sensors; measurement-error points count as negatives (a sensor glitch is
/// not a process event — the hierarchical triple exists precisely to demote
/// them). The baseline ranks points by their standardized phase-level
/// outlierness; the hierarchical ranking additionally applies `fusion` with
/// each detected outlier's support and global score.
///
/// # Errors
/// Propagates detector failures.
pub fn point_level_eval(
    scenario: &Scenario,
    policy: &AlgorithmPolicy,
    fusion: FusionRule,
) -> Result<PointEval> {
    let detections = evaluate_levels(scenario, policy)?;
    let report = build_report(&scenario.plant, Level::Phase, &detections, policy)?;
    // Triple lookup for thresholded outliers.
    let mut triple: HashMap<PointKey, (f64, u8)> = HashMap::new();
    for o in &report.outliers {
        if let (Some(job), Some(phase), Some(sensor), Some(idx)) =
            (o.job.clone(), o.phase, o.sensor.clone(), o.index)
        {
            triple.insert(
                (o.machine.clone(), job, phase, sensor, idx),
                (o.support, o.global_score),
            );
        }
    }
    let phase_det =
        detections
            .get(&Level::Phase)
            .ok_or_else(|| hierod_detect::DetectError::Missing {
                what: "phase-level detections for point evaluation".to_string(),
            })?;
    let mut base_scores = Vec::new();
    let mut hier_scores = Vec::new();
    let mut labels = Vec::new();
    for ss in &phase_det.series_scores {
        let Some(job) = ss.job.clone() else { continue };
        let Some(phase) = ss.phase else { continue };
        let lab = scenario.truth.point_labels_scoped(
            &ss.machine,
            &job,
            phase,
            &ss.sensor,
            ss.z.len(),
            Some(Scope::ProcessAnomaly),
        );
        for (idx, (&z, &l)) in ss.z.iter().zip(&lab).enumerate() {
            let key: PointKey = (
                ss.machine.clone(),
                job.clone(),
                phase,
                ss.sensor.clone(),
                idx,
            );
            let (support, global) = triple.get(&key).copied().unwrap_or((0.0, 1));
            let pseudo = HierOutlier {
                level: Level::Phase,
                machine: ss.machine.clone(),
                job: Some(job.clone()),
                phase: Some(phase),
                sensor: Some(ss.sensor.clone()),
                index: Some(idx),
                timestamp: None,
                outlierness: z.max(0.0),
                support,
                global_score: global,
            };
            base_scores.push(z.max(0.0));
            hier_scores.push(fusion.score(&pseudo));
            labels.push(l);
        }
    }
    Ok(PointEval {
        baseline: metrics(&base_scores, &labels),
        hierarchical: metrics(&hier_scores, &labels),
        fusion,
    })
}

/// Result of the measurement-error triage experiment (E5).
#[derive(Debug, Clone)]
pub struct TriageEval {
    /// ROC-AUC of support as a process-anomaly-vs-measurement-error
    /// discriminator among detected outliers (None when a class is empty).
    pub support_auc: Option<f64>,
    /// Detected outliers matched to a process anomaly.
    pub matched_process: usize,
    /// Detected outliers matched to a measurement error.
    pub matched_measurement: usize,
    /// Mean support of the two groups.
    pub mean_support: (f64, f64),
}

/// E5: among the detected phase-level outliers that match a ground-truth
/// injection, how well does the support value alone separate process
/// anomalies (should be kept) from measurement errors (should be demoted)?
///
/// # Errors
/// Propagates detector failures.
pub fn triage_eval(scenario: &Scenario, policy: &AlgorithmPolicy) -> Result<TriageEval> {
    let detections = evaluate_levels(scenario, policy)?;
    let report = build_report(&scenario.plant, Level::Phase, &detections, policy)?;
    let mut supports = Vec::new();
    let mut is_process = Vec::new();
    for o in &report.outliers {
        let (Some(job), Some(phase), Some(sensor), Some(idx)) =
            (o.job.as_deref(), o.phase, o.sensor.as_deref(), o.index)
        else {
            continue;
        };
        let hit = scenario.truth.injections.iter().find(|r| {
            *r.machine == *o.machine
                && r.job == job
                && r.phase == phase
                && r.affected_sensors.iter().any(|a| a == sensor)
                && idx + 2 >= r.start_idx
                && idx <= r.start_idx + r.len + 2
        });
        if let Some(r) = hit {
            supports.push(o.support);
            is_process.push(r.scope == Scope::ProcessAnomaly);
        }
    }
    let matched_process = is_process.iter().filter(|&&p| p).count();
    let matched_measurement = is_process.len() - matched_process;
    let mean = |keep: bool| {
        let v: Vec<f64> = supports
            .iter()
            .zip(&is_process)
            .filter(|(_, &p)| p == keep)
            .map(|(&s, _)| s)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    Ok(TriageEval {
        support_auc: roc_auc(&supports, &is_process),
        matched_process,
        matched_measurement,
        mean_support: (mean(true), mean(false)),
    })
}

/// Result of the job-level experiment (E4b).
#[derive(Debug, Clone)]
pub struct JobEval {
    /// Flat job-level ranking.
    pub baseline: Metrics,
    /// Ranking with hierarchical confirmation (upward global score;
    /// downward warning as support 0, confirmation as support 1).
    pub hierarchical: Metrics,
}

/// E4b: ranking jobs by anomalousness, with ground truth = jobs containing
/// a process anomaly.
///
/// The hierarchical ranking treats the *supported* phase-level evidence of
/// each job as its confirmation: a job whose phase traces contain an
/// outlier confirmed by redundant sensors is a credible process anomaly; a
/// job whose only evidence is an unsupported single-sensor spike is damped
/// (the paper's "support values reduce the probability of finding a
/// measurement error", lifted one level up).
///
/// # Errors
/// Propagates detector failures.
pub fn job_level_eval(
    scenario: &Scenario,
    policy: &AlgorithmPolicy,
    fusion: FusionRule,
) -> Result<JobEval> {
    let detections = evaluate_levels(scenario, policy)?;
    let job_report = build_report(&scenario.plant, Level::Job, &detections, policy)?;
    let phase_report = build_report(&scenario.plant, Level::Phase, &detections, policy)?;
    // Upward confirmation per flagged job.
    let mut flagged: HashMap<(Arc<str>, Arc<str>), u8> = HashMap::new();
    for o in &job_report.outliers {
        if let Some(job) = o.job.clone() {
            flagged.insert((o.machine.clone(), job), o.global_score);
        }
    }
    // Downward evidence per job: the best support among its phase outliers.
    let mut phase_evidence: HashMap<(Arc<str>, Arc<str>), f64> = HashMap::new();
    for o in &phase_report.outliers {
        if let Some(job) = o.job.clone() {
            let e = phase_evidence
                .entry((o.machine.clone(), job))
                .or_insert(0.0);
            *e = e.max(o.support);
        }
    }
    let truth = scenario.truth.anomalous_jobs();
    let job_det =
        detections
            .get(&Level::Job)
            .ok_or_else(|| hierod_detect::DetectError::Missing {
                what: "job-level detections for job evaluation".to_string(),
            })?;
    let mut base = Vec::new();
    let mut hier = Vec::new();
    let mut labels = Vec::new();
    for vs in &job_det.vector_scores {
        let key = (vs.machine.clone(), vs.job.clone());
        let global = flagged.get(&key).copied().unwrap_or(1);
        let support = phase_evidence.get(&key).copied().unwrap_or(0.0);
        let pseudo = HierOutlier {
            level: Level::Job,
            machine: vs.machine.clone(),
            job: Some(vs.job.clone()),
            phase: None,
            sensor: None,
            index: None,
            timestamp: None,
            outlierness: vs.z.max(0.0),
            support,
            global_score: global,
        };
        base.push(vs.z.max(0.0));
        hier.push(fusion.score(&pseudo));
        labels.push(truth.contains(&(vs.machine.to_string(), vs.job.to_string())));
    }
    Ok(JobEval {
        baseline: metrics(&base, &labels),
        hierarchical: metrics(&hier, &labels),
    })
}

/// E5 sweep: support-AUC as a function of temperature-sensor redundancy.
///
/// # Errors
/// Propagates detector failures.
pub fn redundancy_sweep(
    base: &ScenarioBuilder,
    redundancies: &[usize],
    policy: &AlgorithmPolicy,
) -> Result<Vec<(usize, TriageEval)>> {
    redundancies
        .iter()
        .map(|&r| {
            let scenario = base.clone().redundancy(r).build();
            Ok((r, triage_eval(&scenario, policy)?))
        })
        .collect()
}

/// Result of the concept-drift experiment (E8).
#[derive(Debug, Clone)]
pub struct DriftEval {
    /// Per-machine production-level standardized scores, sorted descending
    /// (machine id, score).
    pub production_ranking: Vec<(String, f64)>,
    /// Rank (1-based) of the best-ranked drifting machine at the
    /// production level; `None` when no production scores exist.
    pub drift_rank: Option<usize>,
    /// Phase-level outliers on drifting machines (a slow drift should
    /// produce none — each job is individually normal).
    pub phase_outliers_on_drifting: usize,
    /// Production-line-level outliers on drifting machines.
    pub line_outliers_on_drifting: usize,
}

/// E8: concept shift (the paper's §1 "discover Concept Shifts" use case).
/// A drifting machine degrades so slowly that every job looks normal in
/// isolation; only comparing jobs over time (line level) or machines
/// against each other (production level) reveals it. The experiment
/// measures at which levels the drift surfaces.
///
/// # Errors
/// Propagates detector failures.
pub fn drift_eval(scenario: &Scenario, policy: &AlgorithmPolicy) -> Result<DriftEval> {
    let detections = evaluate_levels(scenario, policy)?;
    // Production level: full ranking from the raw series scores is not
    // retained, so recompute from the production view directly.
    let view = hierod_hierarchy::LevelView::extract(&scenario.plant, Level::Production);
    let mut production_ranking: Vec<(String, f64)> = Vec::new();
    if view.series.len() >= 2 {
        let collection: Vec<&[f64]> = view.series.iter().map(|s| s.series.values()).collect();
        let raw = build_production_scorer(&policy.production)
            .and_then(|(scorer, segments)| scorer.score_collection(&collection, segments));
        if let Ok(raw) = raw {
            let z = robust_z(&raw);
            production_ranking = view
                .series
                .iter()
                .zip(z.iter())
                .map(|(s, &z)| (s.machine.clone(), z))
                .collect();
            production_ranking.sort_by(|a, b| b.1.total_cmp(&a.1));
        }
    }
    let drift_rank = production_ranking
        .iter()
        .position(|(m, _)| scenario.drifting_machines.contains(m))
        .map(|p| p + 1);
    // A level absent from the map simply contributes zero outliers.
    let count_on_drifting = |level: Level| {
        detections
            .get(&level)
            .map(|det| {
                det.outliers
                    .iter()
                    .filter(|o| scenario.drifting_machines.iter().any(|m| **m == *o.machine))
                    .count()
            })
            .unwrap_or(0)
    };
    Ok(DriftEval {
        production_ranking,
        drift_rank,
        phase_outliers_on_drifting: count_on_drifting(Level::Phase),
        line_outliers_on_drifting: count_on_drifting(Level::ProductionLine),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        ScenarioBuilder::new(100)
            .machines(3)
            .jobs_per_machine(8)
            .redundancy(3)
            .phase_samples(50)
            .anomaly_rate(0.9)
            .measurement_error_fraction(0.5)
            .magnitude_sigmas(15.0)
            .build()
    }

    #[test]
    fn metrics_of_perfect_ranking() {
        let m = metrics(&[0.1, 0.9, 0.2, 0.8], &[false, true, false, true]);
        assert_eq!(m.roc_auc, Some(1.0));
        assert_eq!(m.best_f1, 1.0);
        assert_eq!(m.n, 4);
        assert_eq!(m.positives, 2);
    }

    #[test]
    fn hierarchical_fusion_beats_flat_baseline_on_points() {
        let s = scenario();
        let eval = point_level_eval(
            &s,
            &AlgorithmPolicy::default(),
            FusionRule::default_weighted(),
        )
        .unwrap();
        let b = eval.baseline.pr_auc.expect("positives exist");
        let h = eval.hierarchical.pr_auc.expect("positives exist");
        assert!(
            h >= b,
            "hierarchical PR-AUC {h} must not fall below baseline {b}"
        );
        assert!(eval.hierarchical.best_f1 >= eval.baseline.best_f1 * 0.95);
        assert!(eval.baseline.n > 1000);
    }

    #[test]
    fn triage_support_separates_scopes() {
        let s = scenario();
        let t = triage_eval(&s, &AlgorithmPolicy::default()).unwrap();
        assert!(t.matched_process > 0);
        assert!(t.matched_measurement > 0);
        let auc = t.support_auc.expect("both classes present");
        assert!(auc > 0.7, "support AUC {auc}");
        assert!(t.mean_support.0 > t.mean_support.1);
    }

    #[test]
    fn redundancy_one_gives_uninformative_support() {
        let base = ScenarioBuilder::new(101)
            .machines(2)
            .jobs_per_machine(8)
            .phase_samples(50)
            .anomaly_rate(1.0)
            .measurement_error_fraction(0.5)
            .magnitude_sigmas(15.0);
        let sweep = redundancy_sweep(&base, &[1, 3], &AlgorithmPolicy::default()).unwrap();
        let (r1, t1) = &sweep[0];
        let (r3, t3) = &sweep[1];
        assert_eq!(*r1, 1);
        assert_eq!(*r3, 3);
        // r=1: bed-temp outliers have no correspondents -> support mostly 0
        // for both classes -> AUC near 0.5 (or None). r=3: informative.
        let auc3 = t3.support_auc.expect("classes present");
        assert!(auc3 > 0.7);
        if let Some(auc1) = t1.support_auc {
            assert!(
                auc3 > auc1,
                "redundancy must improve triage ({auc1} -> {auc3})"
            );
        }
    }

    #[test]
    fn job_eval_runs_and_reports_positives() {
        let s = scenario();
        let e = job_level_eval(
            &s,
            &AlgorithmPolicy::default(),
            FusionRule::default_weighted(),
        )
        .unwrap();
        assert_eq!(e.baseline.n, 24);
        assert!(e.baseline.positives > 0);
        assert!(e.hierarchical.best_f1 >= 0.0);
    }

    #[test]
    fn drift_surfaces_at_the_production_level_only() {
        let s = ScenarioBuilder::new(7)
            .machines(4)
            .jobs_per_machine(16)
            .redundancy(2)
            .phase_samples(40)
            .anomaly_rate(0.0)
            .drift(1, 0.25)
            .build();
        assert_eq!(s.drifting_machines, vec!["m3".to_string()]);
        let eval = drift_eval(&s, &AlgorithmPolicy::default()).unwrap();
        assert_eq!(
            eval.drift_rank,
            Some(1),
            "drifting machine must top the production ranking: {:?}",
            eval.production_ranking
        );
        // The drift must stay (essentially) invisible at the phase level:
        // the drifting machine's phase-outlier count stays in the range of
        // the healthy machines' background noise (AR misfit on structured
        // signals fires uniformly across machines).
        let detections = evaluate_levels(&s, &AlgorithmPolicy::default()).unwrap();
        let per_machine = |m: &str| {
            detections[&Level::Phase]
                .outliers
                .iter()
                .filter(|o| &*o.machine == m)
                .count()
        };
        let healthy_max = (0..3).map(|m| per_machine(&format!("m{m}"))).max().unwrap();
        assert!(
            eval.phase_outliers_on_drifting <= healthy_max * 2 + 4,
            "drift phase outliers {} vs healthy max {healthy_max}",
            eval.phase_outliers_on_drifting
        );
    }

    #[test]
    fn no_drift_means_no_drift_rank() {
        let s = ScenarioBuilder::new(8)
            .machines(2)
            .jobs_per_machine(4)
            .phase_samples(30)
            .anomaly_rate(0.0)
            .build();
        let eval = drift_eval(&s, &AlgorithmPolicy::default()).unwrap();
        assert!(eval.drift_rank.is_none());
        assert!(s.drifting_machines.is_empty());
    }
}
