//! `CalculateOutlier(algorithm, level, TS)`: per-level detection.
//!
//! Each level view is scored with the policy's algorithm for that level,
//! the raw scores are standardized into robust z-units (so one threshold
//! scale works across algorithms), and everything above the level's
//! threshold becomes a [`LevelOutlier`].
//!
//! ## Scheduling
//!
//! A plant run decomposes into independent **scoring tasks** at
//! (level × machine × sensor/group) granularity: one task per series at the
//! point-scored levels, one per profile group in profile mode, one per
//! collective (job vectors, machine summaries) at the job and production
//! levels. [`detect_all_levels`] hands the full task list of all five
//! levels to [`engine::run_tasks`], whose threads claim tasks from one
//! shared queue, so a wide plant saturates every core instead of being
//! capped at one thread per level; fragments are merged back **in task
//! order**, which keeps results identical to the serial path (a plain
//! [`detect_level`] loop over the five levels, which
//! `pooled_run_matches_serial_run_exactly` keeps as the reference).

use std::collections::BTreeMap;
use std::sync::Arc;

use hierod_detect::engine::{self, AlgoSpec, BoxedScorer, RobustZ, Standardizer, Task};
use hierod_detect::related::ProfileSimilarity;
use hierod_detect::{PointScorer, Result, VectorScorer};
use hierod_hierarchy::{Level, LevelView, PhaseKind, Plant, SeriesAt};

use crate::policy::{AlgorithmPolicy, PhaseChoice};

/// One detected outlier at one level (before support / global score).
///
/// Its names are shared: every outlier of one series holds the same
/// `Arc<str>` per name as the series' [`SeriesScores`], so cloning an
/// outlier bumps reference counts and copies no string.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelOutlier {
    /// Level of detection.
    pub level: Level,
    /// Machine id.
    pub machine: Arc<str>,
    /// Job id, when inside a job.
    pub job: Option<Arc<str>>,
    /// Phase, when inside a phase.
    pub phase: Option<PhaseKind>,
    /// Sensor / feature / series name.
    pub sensor: Option<Arc<str>>,
    /// Sample index within the scored series.
    pub index: Option<usize>,
    /// Timestamp, when the series carries one.
    pub timestamp: Option<u64>,
    /// Standardized outlierness (robust z-units of the score distribution).
    pub outlierness: f64,
    /// The algorithm's raw score.
    pub raw_score: f64,
}

/// Full per-point standardized scores of one series (kept so support and
/// evaluation can look beyond the thresholded outliers).
///
/// Both columns and all three names are shared storage (the names are the
/// same `Arc<str>`s the series' outliers hold), so cloning a
/// `SeriesScores` — into a report, a cache, a second report of the same
/// closed series — bumps reference counts and copies no samples or
/// strings.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesScores {
    /// Machine id.
    pub machine: Arc<str>,
    /// Job id, when inside a job.
    pub job: Option<Arc<str>>,
    /// Phase, when inside a phase.
    pub phase: Option<PhaseKind>,
    /// Sensor / feature name.
    pub sensor: Arc<str>,
    /// Timestamps, parallel to `z` and ascending (a scored series' own) —
    /// the scored series' buffer when it covers its whole storage.
    pub timestamps: Arc<[u64]>,
    /// Standardized scores (robust z-units), parallel to `timestamps`.
    pub z: Arc<[f64]>,
}

/// Full standardized score of one job vector (job level only).
#[derive(Debug, Clone, PartialEq)]
pub struct VectorScore {
    /// Machine id.
    pub machine: Arc<str>,
    /// Job id.
    pub job: Arc<str>,
    /// Standardized score (robust z-units).
    pub z: f64,
}

/// The detections of one level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelDetections {
    /// Level.
    pub level: Level,
    /// Thresholded outliers.
    pub outliers: Vec<LevelOutlier>,
    /// Full standardized per-point scores (phase / environment / line).
    pub series_scores: Vec<SeriesScores>,
    /// Full standardized per-job scores (job level).
    pub vector_scores: Vec<VectorScore>,
}

impl LevelDetections {
    /// An empty detections container for `level` (fragments accumulate into
    /// it via [`Self::absorb`]; the streaming detector also seeds its
    /// per-level results from this).
    pub fn empty(level: Level) -> Self {
        Self {
            level,
            outliers: Vec::new(),
            series_scores: Vec::new(),
            vector_scores: Vec::new(),
        }
    }

    /// Merges a fragment produced by one scoring task into this container
    /// (order of absorption defines result order).
    pub fn absorb(&mut self, fragment: LevelDetections) {
        self.outliers.extend(fragment.outliers);
        self.series_scores.extend(fragment.series_scores);
        self.vector_scores.extend(fragment.vector_scores);
    }
}

/// Scores one series' raw output into a detections fragment: thresholded
/// outliers plus the full standardized score vector.
///
/// Public so the streaming detector (`hierod-stream`) can feed raw scores
/// produced by *online* scorers through the exact thresholding and
/// standardization path the batch engine uses — the stream/batch
/// equivalence guarantee rests on both paths sharing this function.
/// `raw` must be parallel to `at.series` (one score per sample).
pub fn emit_series(
    plant: &Plant,
    level: Level,
    threshold: f64,
    at: &SeriesAt,
    raw: &[f64],
    already_standardized: bool,
    into: &mut LevelDetections,
) {
    // Profile-similarity scores are already expressed in MAD units
    // against the learned template; re-standardizing them per series
    // would amplify the near-zero spread of clean executions into
    // false positives.
    let z: Arc<[f64]> = if already_standardized {
        raw.into()
    } else {
        RobustZ.standardize(raw)
    };
    // One shared string per name; every outlier of the series clones it.
    let machine: Arc<str> = at.machine.as_str().into();
    let job: Option<Arc<str>> = at.job.as_deref().map(Arc::from);
    let sensor: Arc<str> = at.series.name().into();
    for (idx, (&zs, &rs)) in z.iter().zip(raw).enumerate() {
        if zs >= threshold {
            into.outliers.push(LevelOutlier {
                level,
                machine: Arc::clone(&machine),
                job: job_for(plant, level, at, job.as_ref(), idx),
                phase: at.phase,
                sensor: Some(Arc::clone(&sensor)),
                index: Some(idx),
                timestamp: at.series.timestamps().get(idx).copied(),
                outlierness: zs,
                raw_score: rs,
            });
        }
    }
    into.series_scores.push(SeriesScores {
        machine,
        job,
        phase: at.phase,
        sensor,
        timestamps: at.series.timestamps_shared(),
        z,
    });
}

/// One level's scorer, built from the policy's spec before any of the
/// level's tasks run, so an unknown key, an undeclared or malformed
/// parameter, or an entry of the wrong granularity fails the whole run up
/// front. The scorers are stateless after construction, so one instance
/// serves every task of the level on every worker.
enum LevelScorer {
    /// Per-series point scorer (phase-per-series, environment, line).
    Point(Box<dyn PointScorer + Send + Sync>),
    /// Profile mode learns one model per group inside its task.
    Profile,
    /// Job-vector scorer.
    Job(Box<dyn VectorScorer + Send + Sync>),
    /// Whole-series collection scorer and its PAA segment count.
    Production(BoxedScorer, usize),
}

impl LevelScorer {
    fn build(level: Level, policy: &AlgorithmPolicy) -> Result<Self> {
        let point = |spec: &AlgoSpec| Ok(Self::Point(engine::build(spec)?.into_point()?));
        match level {
            Level::Phase => match &policy.phase {
                PhaseChoice::PerSeries(spec) => point(spec),
                PhaseChoice::ProfileAcrossJobs => Ok(Self::Profile),
            },
            Level::Environment => point(&policy.environment),
            Level::ProductionLine => point(&policy.line),
            Level::Job => Ok(Self::Job(engine::build(&policy.job)?.into_vector()?)),
            Level::Production => {
                let (scorer, segments) = build_production_scorer(&policy.production)?;
                Ok(Self::Production(scorer, segments))
            }
        }
    }
}

/// Resolves every level's spec exactly as a detection run does before it
/// scores anything — the check a caller that holds a policy long before
/// its first run (a stream, a server) makes up front.
///
/// # Errors
/// [`DetectError::InvalidParameter`](hierod_detect::DetectError) on an
/// unknown key, an undeclared or malformed parameter, or an entry of the
/// wrong granularity for its level.
pub fn validate_policy(policy: &AlgorithmPolicy) -> Result<()> {
    Level::ALL
        .into_iter()
        .try_for_each(|level| LevelScorer::build(level, policy).map(drop))
}

/// Builds the production-level scorer together with the PAA segment count
/// [`BoxedScorer::score_collection`] embeds vector-kind entries with: 8
/// unless the spec carries `segments` (which only `phased-kmeans` declares).
///
/// # Errors
/// Propagates spec resolution failures.
pub(crate) fn build_production_scorer(spec: &AlgoSpec) -> Result<(BoxedScorer, usize)> {
    Ok((engine::build(spec)?, spec.get_usize("segments", 8)?))
}

/// Decomposes one level into independent scoring tasks over `view`.
///
/// Granularities: one task per series at the point-scored levels
/// (phase-per-series, environment, production line); one per
/// (machine, phase, sensor, length) group in profile mode; one collective
/// task at the job and production levels. Fragments merged in task order
/// reproduce the serial result exactly.
fn level_tasks<'env>(
    plant: &'env Plant,
    level: Level,
    view: &'env LevelView,
    policy: &AlgorithmPolicy,
    scorer: &'env LevelScorer,
) -> Vec<Task<'env, Result<LevelDetections>>> {
    let threshold = policy.threshold(level);
    let mut tasks: Vec<Task<'env, Result<LevelDetections>>> = Vec::new();
    match scorer {
        LevelScorer::Profile => {
            // Profile similarity: group executions of the same
            // (machine, phase, sensor, length) across jobs; each group is
            // one task that learns the profile and scores every execution
            // against it.
            let mut groups: BTreeMap<(String, u8, String, usize), Vec<usize>> = BTreeMap::new();
            for (i, at) in view.series.iter().enumerate() {
                let Some(phase) = at.phase else { continue };
                groups
                    .entry((
                        at.machine.clone(),
                        phase as u8,
                        at.series.name().to_string(),
                        at.series.len(),
                    ))
                    .or_default()
                    .push(i);
            }
            for idxs in groups.into_values() {
                if idxs.len() < 2 {
                    continue; // no profile evidence from one execution
                }
                tasks.push(Box::new(move || {
                    let mut frag = LevelDetections::empty(level);
                    let refs: Vec<&[f64]> = idxs
                        .iter()
                        .filter_map(|&i| view.series.get(i))
                        .map(|at| at.series.values())
                        .collect();
                    let Ok(profile) = ProfileSimilarity::fit(&refs) else {
                        return Ok(frag);
                    };
                    for at in idxs.iter().filter_map(|&i| view.series.get(i)) {
                        let Ok(raw) = profile.score_points(at.series.values()) else {
                            continue;
                        };
                        emit_series(plant, level, threshold, at, &raw, true, &mut frag);
                    }
                    Ok(frag)
                }));
            }
        }
        LevelScorer::Point(scorer) => {
            for at in &view.series {
                tasks.push(Box::new(move || {
                    let mut frag = LevelDetections::empty(level);
                    let values = at.series.values();
                    let Ok(raw) = scorer.score_points(values) else {
                        return Ok(frag); // series too short for this algorithm
                    };
                    emit_series(plant, level, threshold, at, &raw, false, &mut frag);
                    Ok(frag)
                }));
            }
        }
        LevelScorer::Job(scorer) => {
            if !view.vectors.is_empty() {
                tasks.push(Box::new(move || {
                    let mut frag = LevelDetections::empty(level);
                    // Borrow each job's shared feature row — the scorer sees
                    // the view's Arc-backed buffers directly, no copy.
                    let rows: Vec<&[f64]> =
                        view.vectors.iter().map(|v| v.features.as_ref()).collect();
                    let raw = scorer.score_rows(&rows)?;
                    let z = RobustZ.standardize(&raw);
                    for (v, &zs) in view.vectors.iter().zip(z.iter()) {
                        frag.vector_scores.push(VectorScore {
                            machine: v.machine.as_str().into(),
                            job: v.job.as_str().into(),
                            z: zs,
                        });
                    }
                    let scored = frag.vector_scores.iter().zip(&view.vectors).zip(&raw);
                    for ((score, v), &rs) in scored {
                        if score.z >= threshold {
                            frag.outliers.push(LevelOutlier {
                                level,
                                machine: Arc::clone(&score.machine),
                                job: Some(Arc::clone(&score.job)),
                                phase: None,
                                sensor: None,
                                index: None,
                                timestamp: Some(v.start),
                                outlierness: score.z,
                                raw_score: rs,
                            });
                        }
                    }
                    Ok(frag)
                }));
            }
        }
        LevelScorer::Production(scorer, segments) => {
            if view.series.len() >= 2 {
                tasks.push(Box::new(move || {
                    let mut frag = LevelDetections::empty(level);
                    let collection: Vec<&[f64]> =
                        view.series.iter().map(|s| s.series.values()).collect();
                    if let Ok(raw) = scorer.score_collection(&collection, *segments) {
                        let z = RobustZ.standardize(&raw);
                        for ((at, &zs), &rs) in view.series.iter().zip(z.iter()).zip(&raw) {
                            if zs >= threshold {
                                frag.outliers.push(LevelOutlier {
                                    level,
                                    machine: at.machine.as_str().into(),
                                    job: None,
                                    phase: None,
                                    sensor: Some(at.series.name().into()),
                                    index: None,
                                    timestamp: None,
                                    outlierness: zs,
                                    raw_score: rs,
                                });
                            }
                        }
                    }
                    Ok(frag)
                }));
            }
        }
    }
    tasks
}

/// Runs `CalculateOutlier` for one level of the plant (serial).
///
/// # Errors
/// Propagates algorithm construction/scoring failures. Series too short for
/// the chosen algorithm are skipped silently (phases shorter than the AR
/// warm-up would otherwise poison whole-plant runs).
pub fn detect_level(
    plant: &Plant,
    level: Level,
    policy: &AlgorithmPolicy,
) -> Result<LevelDetections> {
    let view = LevelView::extract(plant, level);
    let scorer = LevelScorer::build(level, policy)?;
    let mut det = LevelDetections::empty(level);
    for task in level_tasks(plant, level, &view, policy, &scorer) {
        det.absorb(task()?);
    }
    Ok(det)
}

/// Runs `CalculateOutlier` for all five levels on one thread per
/// available core (4 when that is unknown), returning them in level order.
///
/// # Errors
/// Propagates the first per-level failure (in deterministic task order).
pub fn detect_all_levels(
    plant: &Plant,
    policy: &AlgorithmPolicy,
) -> Result<BTreeMap<Level, LevelDetections>> {
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    detect_all_levels_on(plant, policy, workers)
}

/// [`detect_all_levels`] on `workers` threads: decomposes all five levels
/// into one flat task list whose tasks any thread may claim, so a wide
/// level cannot serialize behind a narrow one.
fn detect_all_levels_on(
    plant: &Plant,
    policy: &AlgorithmPolicy,
    workers: usize,
) -> Result<BTreeMap<Level, LevelDetections>> {
    // Materialize all five views in one pass so the per-job feature rows
    // are derived once and shared (Arc) across the Job, ProductionLine and
    // Production views instead of being recomputed per level.
    let views: Vec<(Level, LevelView)> = LevelView::extract_all(plant);
    let scorers: Vec<LevelScorer> = views
        .iter()
        .map(|(level, _)| LevelScorer::build(*level, policy))
        .collect::<Result<_>>()?;
    let mut tasks = Vec::new();
    let mut task_level = Vec::new();
    for ((level, view), scorer) in views.iter().zip(&scorers) {
        for task in level_tasks(plant, *level, view, policy, scorer) {
            tasks.push(task);
            task_level.push(*level);
        }
    }
    let fragments = engine::run_tasks(workers, tasks);
    let mut out: BTreeMap<Level, LevelDetections> = Level::ALL
        .into_iter()
        .map(|level| (level, LevelDetections::empty(level)))
        .collect();
    for (level, fragment) in task_level.into_iter().zip(fragments) {
        out.entry(level)
            .or_insert_with(|| LevelDetections::empty(level))
            .absorb(fragment?);
    }
    Ok(out)
}

/// Resolves the job an outlier belongs to. Phase-level series carry their
/// job directly (`series_job`, shared); line-level feature series are
/// indexed by job position.
fn job_for(
    plant: &Plant,
    level: Level,
    at: &SeriesAt,
    series_job: Option<&Arc<str>>,
    idx: usize,
) -> Option<Arc<str>> {
    match level {
        Level::Phase => series_job.cloned(),
        Level::ProductionLine => plant
            .line(&at.machine)
            .and_then(|l| l.jobs.get(idx))
            .map(|j| j.id.as_str().into()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierod_synth::{ScenarioBuilder, Scope};

    fn scenario() -> hierod_synth::Scenario {
        ScenarioBuilder::new(77)
            .machines(2)
            .jobs_per_machine(4)
            .redundancy(2)
            .phase_samples(60)
            .anomaly_rate(1.0)
            .measurement_error_fraction(0.0)
            .magnitude_sigmas(15.0)
            .build()
    }

    #[test]
    fn phase_level_detects_injected_anomalies() {
        let s = scenario();
        let det = detect_level(&s.plant, Level::Phase, &AlgorithmPolicy::default()).unwrap();
        assert!(!det.outliers.is_empty(), "injections must surface");
        assert!(!det.series_scores.is_empty());
        // Every outlier has full provenance.
        for o in &det.outliers {
            assert_eq!(o.level, Level::Phase);
            assert!(o.job.is_some());
            assert!(o.phase.is_some());
            assert!(o.sensor.is_some());
            assert!(o.index.is_some());
            assert!(o.outlierness >= 6.0);
        }
    }

    #[test]
    fn phase_level_quiet_on_clean_plant() {
        let s = ScenarioBuilder::new(5)
            .machines(1)
            .jobs_per_machine(3)
            .phase_samples(60)
            .anomaly_rate(0.0)
            .build();
        let det = detect_level(&s.plant, Level::Phase, &AlgorithmPolicy::default()).unwrap();
        // Clean AR noise should rarely exceed 6 robust-z; tolerate a few.
        let total_points: usize = det.series_scores.iter().map(|s| s.z.len()).sum();
        assert!(
            (det.outliers.len() as f64) < total_points as f64 * 0.002,
            "{} outliers in {} clean points",
            det.outliers.len(),
            total_points
        );
    }

    #[test]
    fn job_level_flags_jobs_with_degraded_caq() {
        // Anomalies must stay a minority for the unsupervised job scorer.
        let s = ScenarioBuilder::new(23)
            .machines(3)
            .jobs_per_machine(12)
            .redundancy(2)
            .phase_samples(60)
            .anomaly_rate(0.3)
            .measurement_error_fraction(0.0)
            .magnitude_sigmas(15.0)
            .build();
        let det = detect_level(&s.plant, Level::Job, &AlgorithmPolicy::default()).unwrap();
        let truth = s.truth.anomalous_jobs();
        // At least one truly anomalous job must be flagged.
        let hits = det
            .outliers
            .iter()
            .filter(|o| {
                truth
                    .iter()
                    .any(|(m, j)| **m == *o.machine && o.job.as_deref() == Some(j))
            })
            .count();
        assert!(
            hits > 0,
            "expected job-level detections among {:?}",
            det.outliers
        );
    }

    #[test]
    fn line_level_outliers_map_to_job_ids() {
        let s = scenario();
        let det =
            detect_level(&s.plant, Level::ProductionLine, &AlgorithmPolicy::default()).unwrap();
        for o in &det.outliers {
            let job = o.job.as_ref().expect("line outliers carry job ids");
            assert!(s.plant.line(&o.machine).unwrap().job(job).is_some());
        }
    }

    #[test]
    fn pooled_run_matches_serial_run_exactly() {
        // The same task list merged in task order must make scheduling
        // invisible: serial, single-worker, and wide runs all agree.
        let s = scenario();
        let policy = AlgorithmPolicy::default();
        let serial: BTreeMap<Level, LevelDetections> = Level::ALL
            .into_iter()
            .map(|l| (l, detect_level(&s.plant, l, &policy).unwrap()))
            .collect();
        for workers in [1, 2, 8] {
            let pooled = detect_all_levels_on(&s.plant, &policy, workers).unwrap();
            assert_eq!(serial, pooled, "{workers} workers");
        }
    }

    #[test]
    fn profile_mode_detects_and_silences_repeating_structure() {
        let s = ScenarioBuilder::new(77)
            .machines(2)
            .jobs_per_machine(6)
            .redundancy(2)
            .phase_samples(60)
            .anomaly_rate(0.5)
            .measurement_error_fraction(0.0)
            .magnitude_sigmas(15.0)
            .build();
        let policy = AlgorithmPolicy {
            phase: PhaseChoice::ProfileAcrossJobs,
            ..AlgorithmPolicy::default()
        };
        let det = detect_level(&s.plant, Level::Phase, &policy).unwrap();
        assert!(!det.outliers.is_empty(), "profile mode must detect events");
        // Laser square-wave edges repeat identically across jobs, so the
        // profile absorbs them: laser outliers should be (nearly) gone
        // unless an event was injected on the laser itself.
        let laser_truth = s
            .truth
            .injections
            .iter()
            .filter(|r| r.sensor.contains("laser"))
            .count();
        let laser_outliers = det
            .outliers
            .iter()
            .filter(|o| {
                o.sensor
                    .as_deref()
                    .map(|x| x.contains("laser"))
                    .unwrap_or(false)
            })
            .count();
        if laser_truth == 0 {
            assert!(
                laser_outliers < 10,
                "profile should absorb repeating laser edges, got {laser_outliers}"
            );
        }
        // Full provenance preserved.
        for o in &det.outliers {
            assert!(o.job.is_some() && o.phase.is_some() && o.sensor.is_some());
        }
    }

    #[test]
    fn production_level_needs_multiple_machines() {
        let s = ScenarioBuilder::new(9)
            .machines(1)
            .jobs_per_machine(3)
            .phase_samples(40)
            .build();
        let det = detect_level(&s.plant, Level::Production, &AlgorithmPolicy::default()).unwrap();
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn invalid_policy_surfaces_as_an_error_not_a_panic() {
        let s = scenario();
        let spec = |text: &str| text.parse::<AlgoSpec>().unwrap();
        let bad_parameter = AlgorithmPolicy {
            phase: PhaseChoice::PerSeries(spec("ar(order=0)")),
            ..AlgorithmPolicy::default()
        };
        assert!(detect_level(&s.plant, Level::Phase, &bad_parameter).is_err());
        assert!(detect_all_levels(&s.plant, &bad_parameter).is_err());
        // Wrong granularity is caught when the level's scorer is built,
        // before any task runs: a point entry cannot score job vectors, a
        // vector entry cannot score the line's feature series.
        let wrong_granularity = AlgorithmPolicy {
            job: spec("ar"),
            line: spec("pca"),
            ..AlgorithmPolicy::default()
        };
        for level in [Level::Job, Level::ProductionLine] {
            assert!(matches!(
                detect_level(&s.plant, level, &wrong_granularity),
                Err(hierod_detect::DetectError::InvalidParameter { .. })
            ));
        }
        assert!(matches!(
            detect_all_levels(&s.plant, &wrong_granularity),
            Err(hierod_detect::DetectError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn measurement_error_affects_only_one_sensor_series() {
        let s = ScenarioBuilder::new(31)
            .machines(1)
            .jobs_per_machine(6)
            .redundancy(3)
            .phase_samples(60)
            .anomaly_rate(1.0)
            .measurement_error_fraction(1.0)
            .magnitude_sigmas(15.0)
            .build();
        let det = detect_level(&s.plant, Level::Phase, &AlgorithmPolicy::default()).unwrap();
        // Pick a recorded measurement error and check the sibling series
        // show no outlier at that index.
        let rec = s
            .truth
            .injections
            .iter()
            .find(|r| {
                r.scope == Scope::MeasurementError
                    && r.outlier == hierod_synth::OutlierType::Additive
                    // Only temperature sensors carry redundant siblings.
                    && r.sensor.contains("temp")
            })
            .expect("an additive measurement error on a redundant group");
        let siblings: Vec<&SeriesScores> = det
            .series_scores
            .iter()
            .filter(|ss| {
                *ss.machine == *rec.machine
                    && ss.job.as_deref() == Some(rec.job.as_str())
                    && ss.phase == Some(rec.phase)
                    && *ss.sensor != *rec.sensor
                    && ss.sensor.contains(
                        rec.sensor
                            .rsplit_once('.')
                            .map(|(prefix, _)| prefix)
                            .unwrap_or(""),
                    )
            })
            .collect();
        assert!(!siblings.is_empty());
        for sib in siblings {
            assert!(
                sib.z[rec.start_idx] < 6.0,
                "sibling {} unexpectedly confirms a measurement error",
                sib.sensor
            );
        }
    }
}
