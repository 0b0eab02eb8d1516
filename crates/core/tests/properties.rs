//! Property tests over Algorithm 1's invariants: the triple stays in its
//! documented ranges for arbitrary scenario configurations, fusion rules
//! respect monotonicity, the pipeline is total over its configuration
//! space, and the indexed report equals the linear-scan definitions it
//! replaced (`mod reference`) on synth plants and on crafted detections.

use std::collections::BTreeMap;
use std::sync::Arc;

use hierod_core::detect_level::{LevelDetections, LevelOutlier, SeriesScores, VectorScore};
use hierod_core::pipeline::build_report;
use hierod_core::{
    detect_all_levels, find_hierarchical_outliers, AlgorithmPolicy, FindOptions, FusionRule,
    HierOutlier,
};
use hierod_detect::engine::robust_z;
use hierod_hierarchy::{Level, PhaseKind, Plant};
use hierod_synth::ScenarioBuilder;
use proptest::prelude::*;

fn outlier(outlierness: f64, support: f64, global: u8) -> HierOutlier {
    HierOutlier {
        level: Level::Phase,
        machine: "m".into(),
        job: None,
        phase: None,
        sensor: None,
        index: None,
        timestamp: None,
        outlierness,
        support,
        global_score: global,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pipeline_triples_stay_in_range(
        seed in 0_u64..1000,
        machines in 1_usize..3,
        jobs in 2_usize..5,
        redundancy in 1_usize..4,
        anomaly_rate in 0.0_f64..1.0,
        me_fraction in 0.0_f64..1.0,
    ) {
        let scenario = ScenarioBuilder::new(seed)
            .machines(machines)
            .jobs_per_machine(jobs)
            .redundancy(redundancy)
            .phase_samples(24)
            .anomaly_rate(anomaly_rate)
            .measurement_error_fraction(me_fraction)
            .build();
        let report = find_hierarchical_outliers(
            &scenario.plant,
            Level::Phase,
            &FindOptions::default(),
        )
        .expect("pipeline is total over configurations");
        for o in &report.outliers {
            prop_assert!((0.0..=1.0).contains(&o.support));
            prop_assert!((1..=5).contains(&o.global_score));
            prop_assert!(o.outlierness.is_finite());
        }
        for w in &report.warnings {
            let hierod_core::Warning::SuspectedMeasurementError { outlier_idx, missing_level } = w;
            prop_assert!(*outlier_idx < report.len());
            prop_assert!(*missing_level < Level::Phase.up().unwrap_or(Level::Phase)
                || *missing_level < Level::Production);
        }
    }
}

proptest! {
    #[test]
    fn weighted_product_monotone_in_each_component(
        outlierness in 0.0_f64..100.0,
        s1 in 0.0_f64..1.0,
        s2 in 0.0_f64..1.0,
        g1 in 1_u8..=5,
        g2 in 1_u8..=5,
        alpha in 0.0_f64..4.0,
        beta in 0.0_f64..1.0,
    ) {
        let rule = FusionRule::WeightedProduct { alpha, beta };
        // Monotone in support.
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        prop_assert!(
            rule.score(&outlier(outlierness, lo, 3)) <= rule.score(&outlier(outlierness, hi, 3)) + 1e-12
        );
        // Monotone in global score.
        let (glo, ghi) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
        prop_assert!(
            rule.score(&outlier(outlierness, 0.5, glo)) <= rule.score(&outlier(outlierness, 0.5, ghi)) + 1e-12
        );
        // Monotone in outlierness.
        prop_assert!(
            rule.score(&outlier(outlierness, 0.5, 3)) <= rule.score(&outlier(outlierness + 1.0, 0.5, 3)) + 1e-12
        );
        // Non-negative.
        prop_assert!(rule.score(&outlier(outlierness, s1, g1)) >= 0.0);
    }

    #[test]
    fn lexicographic_dominance(
        o1 in 0.0_f64..1e6,
        o2 in 0.0_f64..1e6,
        s1 in 0.0_f64..1.0,
        s2 in 0.0_f64..1.0,
        g1 in 1_u8..=5,
        g2 in 1_u8..=5,
    ) {
        let rule = FusionRule::Lexicographic;
        let a = outlier(o1, s1, g1);
        let b = outlier(o2, s2, g2);
        if g1 > g2 {
            prop_assert!(rule.score(&a) > rule.score(&b));
        } else if g1 == g2 && s1 > s2 + 0.11 {
            // Support decides within a global band (gap beats the
            // outlierness squash range).
            prop_assert!(rule.score(&a) > rule.score(&b));
        }
    }

    #[test]
    fn robust_z_centers_the_median(scores in prop::collection::vec(-100.0_f64..100.0, 3..64)) {
        let z = robust_z(&scores);
        prop_assert_eq!(z.len(), scores.len());
        // The median element maps to (approximately) zero.
        let mut sorted = z.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let med = sorted[sorted.len() / 2];
        prop_assert!(med.abs() < 1.0, "median z {med}");
        // Order-preserving.
        for i in 0..scores.len() {
            for j in 0..scores.len() {
                if scores[i] < scores[j] {
                    prop_assert!(z[i] <= z[j] + 1e-12);
                }
            }
        }
    }
}

/// Algorithm 1's lookups as the linear scans `Evidence` replaced, kept as
/// the oracle. Verbatim but for two things: the `Arc<str>` names compare
/// through `*`, and the environment fallback window ends at `u64::MAX`
/// instead of overflowing (the bug the indexed form fixed).
mod reference {
    use std::collections::BTreeMap;

    use hierod_core::detect_level::{LevelDetections, LevelOutlier};
    use hierod_core::support::corresponding_sensors;
    use hierod_core::{AlgorithmPolicy, HierOutlier, HierReport, Warning};
    use hierod_detect::{DetectError, Result};
    use hierod_hierarchy::{Level, Plant};

    fn has_outlier_for(d: &LevelDetections, machine: &str, job: Option<&str>) -> bool {
        d.outliers.iter().any(|o| {
            *o.machine == *machine
                && match job {
                    Some(j) => o.job.as_deref() == Some(j),
                    None => true,
                }
        })
    }

    fn has_outlier_in_span(d: &LevelDetections, machine: &str, t0: u64, t1: u64) -> bool {
        d.outliers.iter().any(|o| {
            *o.machine == *machine && o.timestamp.map(|t| t >= t0 && t <= t1).unwrap_or(false)
        })
    }

    pub fn support_for(
        plant: &Plant,
        outlier: &LevelOutlier,
        phase_detections: &LevelDetections,
        env_detections: Option<&LevelDetections>,
        policy: &AlgorithmPolicy,
    ) -> f64 {
        let Some(sensor) = outlier.sensor.as_deref() else {
            return 0.0;
        };
        let Some(idx) = outlier.index else {
            return 0.0;
        };
        let correspondents = corresponding_sensors(plant, &outlier.machine, sensor);
        if correspondents.is_empty() {
            return 0.0;
        }
        let window = policy.support_window;
        let mut confirmations = 0_usize;
        for corr in &correspondents {
            let confirmed = if corr.ends_with(".room_temp") {
                match (env_detections, outlier.timestamp) {
                    (Some(env), Some(ts)) => {
                        let tol = (window as u64).saturating_mul(16).max(64);
                        env.series_scores.iter().any(|ss| {
                            *ss.sensor == **corr
                                && ss.timestamps.iter().zip(ss.z.iter()).any(|(&t, &z)| {
                                    t.abs_diff(ts) <= tol && z >= policy.threshold(env.level)
                                })
                        })
                    }
                    _ => false,
                }
            } else {
                phase_detections.series_scores.iter().any(|ss| {
                    *ss.sensor == **corr
                        && ss.machine == outlier.machine
                        && ss.job == outlier.job
                        && ss.phase == outlier.phase
                        && ss.z.iter().enumerate().any(|(i, &z)| {
                            i.abs_diff(idx) <= window
                                && z >= policy.threshold(phase_detections.level)
                        })
                })
            };
            if confirmed {
                confirmations += 1;
            }
        }
        confirmations as f64 / correspondents.len() as f64
    }

    pub fn associated(plant: &Plant, outlier: &LevelOutlier, detections: &LevelDetections) -> bool {
        match detections.level {
            Level::Environment => {
                if let (Some(job), Some(line)) =
                    (outlier.job.as_deref(), plant.line(&outlier.machine))
                {
                    if let Some(span) = line.job(job).and_then(|j| j.span()) {
                        return has_outlier_in_span(detections, &outlier.machine, span.0, span.1);
                    }
                }
                match outlier.timestamp {
                    Some(t) => has_outlier_in_span(
                        detections,
                        &outlier.machine,
                        t.saturating_sub(512),
                        t.saturating_add(512),
                    ),
                    None => has_outlier_for(detections, &outlier.machine, None),
                }
            }
            Level::Production => has_outlier_for(detections, &outlier.machine, None),
            _ => has_outlier_for(detections, &outlier.machine, outlier.job.as_deref()),
        }
    }

    pub fn upward_global_score(
        plant: &Plant,
        outlier: &LevelOutlier,
        detections: &BTreeMap<Level, LevelDetections>,
    ) -> u8 {
        let mut score = 1_u8;
        let mut level = outlier.level;
        while let Some(up) = level.up() {
            let Some(det) = detections.get(&up) else {
                break;
            };
            if associated(plant, outlier, det) {
                score += 1;
                level = up;
            } else {
                break;
            }
        }
        score
    }

    #[allow(clippy::question_mark)] // kept as it was written
    pub fn downward_missing_level(
        plant: &Plant,
        outlier: &LevelOutlier,
        detections: &BTreeMap<Level, LevelDetections>,
    ) -> Option<Level> {
        let mut level = outlier.level;
        while let Some(down) = level.down() {
            let Some(det) = detections.get(&down) else {
                return None;
            };
            if associated(plant, outlier, det) {
                level = down;
            } else {
                return Some(down);
            }
        }
        None
    }

    pub fn build_report(
        plant: &Plant,
        start_level: Level,
        detections: &BTreeMap<Level, LevelDetections>,
        policy: &AlgorithmPolicy,
    ) -> Result<HierReport> {
        let start = detections
            .get(&start_level)
            .ok_or_else(|| DetectError::Missing {
                what: format!("detections for start level {start_level:?}"),
            })?;
        let env = detections.get(&Level::Environment);
        let phase = detections
            .get(&Level::Phase)
            .ok_or_else(|| DetectError::Missing {
                what: "detections for level Phase (required by the downward pass)".into(),
            })?;
        let mut report = HierReport::default();
        for o in &start.outliers {
            let support = if start_level == Level::Phase || start_level == Level::Environment {
                support_for(plant, o, phase, env, policy)
            } else {
                0.0
            };
            let global = upward_global_score(plant, o, detections);
            let missing = downward_missing_level(plant, o, detections);
            let idx = report.outliers.len();
            report.outliers.push(HierOutlier {
                level: o.level,
                machine: o.machine.clone(),
                job: o.job.clone(),
                phase: o.phase,
                sensor: o.sensor.clone(),
                index: o.index,
                timestamp: o.timestamp,
                outlierness: o.outlierness,
                support,
                global_score: global,
            });
            if let Some(missing_level) = missing {
                report.warnings.push(Warning::SuspectedMeasurementError {
                    outlier_idx: idx,
                    missing_level,
                });
            }
        }
        Ok(report)
    }
}

/// Support windows to check: none, one sample, the default's neighbour,
/// and one wider than any series here.
const WINDOWS: [usize; 4] = [0, 1, 3, 1_000_000];

/// How much of the report the comparisons exercised: outliers with
/// support, with a global score above 1, and warnings.
#[derive(Debug, Default)]
struct Exercised {
    supported: usize,
    confirmed: usize,
    warned: usize,
}

/// Asserts the indexed report equals the linear one, byte for byte of
/// their `Debug` forms (errors included), from every start level.
fn assert_indexed_equals_linear(
    plant: &Plant,
    detections: &BTreeMap<Level, LevelDetections>,
    policy: &AlgorithmPolicy,
    seen: &mut Exercised,
) {
    for start in Level::ALL {
        let indexed = build_report(plant, start, detections, policy);
        let linear = reference::build_report(plant, start, detections, policy);
        assert_eq!(
            format!("{indexed:?}"),
            format!("{linear:?}"),
            "start {start:?}, window {}, detections {detections:?}",
            policy.support_window
        );
        if let Ok(report) = indexed {
            seen.supported += report.outliers.iter().filter(|o| o.support > 0.0).count();
            seen.confirmed += report
                .outliers
                .iter()
                .filter(|o| o.global_score > 1)
                .count();
            seen.warned += report.warnings.len();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn indexed_report_equals_linear_report_on_synth_plants(
        seed in 0_u64..1000,
        machines in 1_usize..3,
        jobs in 2_usize..5,
        redundancy in 1_usize..5,
        anomaly_rate in 0.0_f64..1.0,
        me_fraction in 0.0_f64..1.0,
    ) {
        let scenario = ScenarioBuilder::new(seed)
            .machines(machines)
            .jobs_per_machine(jobs)
            .redundancy(redundancy)
            .phase_samples(30)
            .anomaly_rate(anomaly_rate)
            .measurement_error_fraction(me_fraction)
            .magnitude_sigmas(12.0)
            .build();
        // Lower thresholds than the default make every level report, so
        // the upward and downward passes walk far.
        let mut policy = AlgorithmPolicy {
            thresholds: [3.0, 1.5, 3.0, 1.5, 1.0],
            ..AlgorithmPolicy::default()
        };
        let detections = detect_all_levels(&scenario.plant, &policy).expect("detections");
        for window in WINDOWS {
            policy.support_window = window;
            assert_indexed_equals_linear(&scenario.plant, &detections, &policy, &mut Exercised::default());
        }
    }
}

/// A xorshift stream: `pick(n)` is uniform-ish in `0..n`.
struct Draw(u64);

impl Draw {
    fn pick(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n.max(1) as u64) as usize
    }

    fn of<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.pick(items.len())].clone()
    }
}

/// A phase execution: machine, job, phase.
type Execution = (Arc<str>, Option<Arc<str>>, Option<PhaseKind>);

/// Names a crafted detection may carry: the plant's own plus ones it does
/// not know. Each is one `Arc`, so equal names are often the same pointer
/// and sometimes (`fresh`) only equal by content.
struct Alphabet {
    machines: Vec<Arc<str>>,
    jobs: Vec<Option<Arc<str>>>,
    phases: Vec<Option<PhaseKind>>,
    sensors: Vec<Arc<str>>,
    /// Sensors in a redundancy group: the ones with correspondents.
    grouped: Vec<Arc<str>>,
    times: Vec<u64>,
    /// The few (machine, job, phase) executions most names come from, so
    /// siblings meet.
    pool: Vec<Execution>,
}

impl Alphabet {
    fn of(plant: &Plant, draw: &mut Draw) -> Self {
        let mut machines: Vec<Arc<str>> = vec!["ghost".into()];
        let mut jobs: Vec<Option<Arc<str>>> = vec![None, Some("ghost-job".into())];
        let mut sensors: Vec<Arc<str>> = vec!["ghost.sensor".into()];
        let mut grouped: Vec<Arc<str>> = Vec::new();
        for line in &plant.lines {
            machines.push(line.machine_id.as_str().into());
            jobs.extend(line.jobs.iter().map(|j| Some(j.id.as_str().into())));
            sensors.extend(line.sensors.iter().map(|s| s.name.as_str().into()));
            sensors.extend(line.environment.series.iter().map(|s| s.name().into()));
            let groups = line.redundancy.iter().filter(|g| g.size() > 1);
            grouped.extend(groups.flat_map(|g| &g.sensors).map(|s| s.as_str().into()));
        }
        let phases = vec![
            None,
            Some(PhaseKind::Preparation),
            Some(PhaseKind::Printing),
        ];
        let pool = (0..3)
            .map(|_| (draw.of(&machines), draw.of(&jobs), draw.of(&phases)))
            .collect();
        // Outlier timestamps near both ends of the clock and inside the
        // plant's jobs; echo timestamps exactly at and just past ±tol.
        let mut times = vec![0, 1, 5, 700, u64::MAX - 1, u64::MAX];
        times.extend(
            plant
                .lines
                .iter()
                .flat_map(|l| &l.jobs)
                .filter_map(|j| j.span())
                .map(|s| s.0),
        );
        Alphabet {
            machines,
            jobs,
            phases,
            sensors,
            grouped,
            times,
            pool,
        }
    }

    /// Machine, job, phase and sensor: mostly a pooled execution and a
    /// grouped sensor, sometimes anything.
    fn key(&self, draw: &mut Draw) -> (Arc<str>, Option<Arc<str>>, Option<PhaseKind>, Arc<str>) {
        let (machine, job, phase) = if draw.pick(4) == 0 {
            (
                draw.of(&self.machines),
                draw.of(&self.jobs),
                draw.of(&self.phases),
            )
        } else {
            draw.of(&self.pool)
        };
        let sensors = if draw.pick(4) == 0 {
            &self.sensors
        } else {
            &self.grouped
        };
        let sensor = self.name(draw, sensors);
        let machine = if draw.pick(3) == 0 {
            Self::fresh(&machine)
        } else {
            machine
        };
        (machine, job, phase, sensor)
    }

    fn fresh(name: &Arc<str>) -> Arc<str> {
        Arc::from(&**name)
    }

    fn name(&self, draw: &mut Draw, names: &[Arc<str>]) -> Arc<str> {
        let name = draw.of(names);
        if draw.pick(3) == 0 {
            Self::fresh(&name)
        } else {
            name
        }
    }

    fn outlier(&self, draw: &mut Draw, level: Level, len: usize) -> LevelOutlier {
        let levels = [
            level,
            level,
            level,
            Level::Phase,
            Level::Job,
            Level::Production,
        ];
        let (machine, job, phase, sensor) = self.key(draw);
        let anywhere = draw.pick(len + 4);
        let indices = [
            None,
            Some(0),
            Some(len.saturating_sub(1)),
            Some(anywhere),
            Some(usize::MAX),
        ];
        let (time, jitter) = (draw.of(&self.times), draw.pick(9) as u64);
        let times = [None, Some(time), Some(time.wrapping_add(jitter))];
        LevelOutlier {
            level: draw.of(&levels),
            machine,
            job,
            phase,
            sensor: (draw.pick(5) != 0).then_some(sensor),
            index: draw.of(&indices),
            timestamp: draw.of(&times),
            outlierness: 7.0,
            raw_score: 7.0,
        }
    }

    /// A series whose timestamps ascend from a base near one of the
    /// outlier times, `tol`-aligned so echoes land exactly on the edges.
    fn series(&self, draw: &mut Draw, tol: u64, len: usize) -> SeriesScores {
        let scores = [0.0, 2.9, 3.0, 5.9, 6.0, 6.0, 40.0, f64::NAN];
        let base = draw.of(&self.times);
        let mut timestamps: Vec<u64> = (0..len as u64)
            .map(|i| {
                let offset = draw.of(&[tol, tol + 1, i, 16 * i]);
                if draw.pick(2) == 0 {
                    base.saturating_sub(offset)
                } else {
                    base.saturating_add(offset)
                }
            })
            .collect();
        timestamps.sort_unstable();
        timestamps.dedup();
        let z: Vec<f64> = (0..timestamps.len() + draw.pick(2))
            .map(|_| draw.of(&scores))
            .collect();
        let (machine, job, phase, sensor) = self.key(draw);
        SeriesScores {
            machine,
            job,
            phase,
            sensor,
            timestamps: timestamps.into(),
            z: z.into(),
        }
    }
}

/// Detections no detector would produce: duplicate and interleaved series
/// keys, outliers at both ends of their series and of the clock, names
/// the plant does not hold, levels left out.
fn crafted(plant: &Plant, draw: &mut Draw, tol: u64) -> BTreeMap<Level, LevelDetections> {
    let names = Alphabet::of(plant, draw);
    let mut detections = BTreeMap::new();
    for level in Level::ALL {
        if level != Level::Phase && draw.pick(5) == 0 {
            continue;
        }
        let mut d = LevelDetections::empty(level);
        let len = draw.pick(14);
        for _ in 0..draw.pick(16) {
            d.series_scores.push(names.series(draw, tol, len));
            if draw.pick(4) == 0 {
                // The same key again, later, with other scores.
                let mut twin = names.series(draw, tol, len);
                if let Some(first) = d.series_scores.first() {
                    twin.machine = Alphabet::fresh(&first.machine);
                    twin.job = first.job.clone();
                    twin.phase = first.phase;
                    twin.sensor = first.sensor.clone();
                }
                d.series_scores.push(twin);
            }
        }
        for _ in 0..draw.pick(24) {
            d.outliers.push(names.outlier(draw, level, len));
        }
        if level == Level::Job {
            d.vector_scores.push(VectorScore {
                machine: names.name(draw, &names.machines),
                job: "j".into(),
                z: 4.0,
            });
        }
        detections.insert(level, d);
    }
    detections
}

#[test]
fn indexed_report_equals_linear_report_on_crafted_detections() {
    let scenario = ScenarioBuilder::new(5)
        .machines(2)
        .jobs_per_machine(2)
        .redundancy(3)
        .phase_samples(12)
        .build();
    // Names a lookup must resolve to their first holder: m0's line again,
    // later, holding m0's jobs in reverse order under the ids in order (so
    // each id spans the other job's time), and m0's first job id again,
    // later in its own line, on m1's second job.
    let mut plant = scenario.plant.clone();
    let renamed = |from: &[hierod_hierarchy::Job], ids: &[hierod_hierarchy::Job]| {
        let mut jobs = from.to_vec();
        for (job, id) in jobs.iter_mut().zip(ids) {
            job.id.clone_from(&id.id);
        }
        jobs
    };
    let (m0, m1) = (plant.lines[0].clone(), plant.lines[1].clone());
    let mut twin = m0.clone();
    let reversed: Vec<_> = m0.jobs.iter().rev().cloned().collect();
    twin.jobs = renamed(&reversed, &m0.jobs);
    plant.lines.push(twin);
    let mut late = m1.jobs[1].clone();
    late.id.clone_from(&m0.jobs[0].id);
    plant.lines[0].jobs.push(late);
    let plant = plant;
    let mut draw = Draw(0x9E37_79B9_7F4A_7C15);
    let mut seen = Exercised::default();
    for _ in 0..2_000 {
        let policy = AlgorithmPolicy {
            support_window: draw.of(&WINDOWS),
            ..AlgorithmPolicy::default()
        };
        let tol = (policy.support_window as u64).saturating_mul(16).max(64);
        let detections = crafted(&plant, &mut draw, tol);
        assert_indexed_equals_linear(&plant, &detections, &policy, &mut seen);
    }
    // Not vacuous: support, upward confirmation and warnings all occur.
    assert!(
        seen.supported > 500 && seen.confirmed > 500 && seen.warned > 500,
        "{seen:?}"
    );
}
