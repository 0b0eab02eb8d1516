//! Algorithm 1's lookups, indexed once per report.
//!
//! For every outlier, [`build_report`](crate::pipeline::build_report) asks
//! which sensors correspond to its sensor and whether they fire near it
//! (support), and whether each level above and below holds an associated
//! outlier (global score). `Evidence` answers each of those questions
//! with an ordered lookup and a slice: it is built once per report from
//! the plant and the level detections it borrows, so the per-outlier work
//! no longer grows with the number of series or outliers in the plant.
//!
//! What it indexes, and how each lookup reproduces the definition it
//! replaces:
//!
//! * phase series by (machine, job, phase), then sensor — a multimap, so a
//!   key naming several series confirms when any of them does; a sibling
//!   is read only in `z[idx − w ..= idx + w]`;
//! * environment series by sensor, read between two `partition_point`s on
//!   their ascending timestamps;
//! * the corresponding sensors of every (machine, sensor) the plant's
//!   redundancy groups name ([`corresponding_sensors`]);
//! * the time span of every (machine, job), as `plant.line(machine)` and
//!   `line.job(job)` find it (first line, first job of that id);
//! * per level, the jobs and the sorted timestamps of its outliers on each
//!   machine, built the first time a level is consulted — a phase-start
//!   report never indexes its own (largest) level.
//!
//! The keys are the plant's few machines, sensors and jobs, so the maps
//! are ordered ones: a lookup is a handful of short string comparisons,
//! cheaper here than hashing the names.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::ops::Range;

use hierod_hierarchy::{Level, PhaseKind, Plant};

use crate::detect_level::{LevelDetections, LevelOutlier, SeriesScores};
use crate::policy::AlgorithmPolicy;
use crate::support::corresponding_sensors;

/// A phase execution's key: machine, job, phase.
pub(crate) type ExecutionKey<'a> = (&'a str, Option<&'a str>, Option<PhaseKind>);

/// By machine, then by a sensor or job name on it.
type ByMachine<'a, T> = BTreeMap<&'a str, BTreeMap<&'a str, T>>;

/// One level's outliers on one machine.
#[derive(Debug, Default)]
struct MachineHits<'a> {
    /// Jobs named by an outlier, sorted and deduplicated.
    jobs: Vec<&'a str>,
    /// Outlier timestamps, sorted (outliers without one are not here).
    times: Vec<u64>,
}

/// The detections of one level and, once consulted, their outliers by
/// machine.
#[derive(Debug)]
pub(crate) struct LevelEntry<'a> {
    detections: &'a LevelDetections,
    hits: OnceCell<BTreeMap<&'a str, MachineHits<'a>>>,
}

impl<'a> LevelEntry<'a> {
    /// The level the detections were made at.
    pub(crate) fn level(&self) -> Level {
        self.detections.level
    }

    fn hits(&self) -> &BTreeMap<&'a str, MachineHits<'a>> {
        let detections: &'a LevelDetections = self.detections;
        self.hits.get_or_init(|| {
            let mut hits: BTreeMap<&'a str, MachineHits<'a>> = BTreeMap::new();
            for o in &detections.outliers {
                let on = hits.entry(&o.machine).or_default();
                on.jobs.extend(o.job.as_deref());
                on.times.extend(o.timestamp);
            }
            for on in hits.values_mut() {
                on.jobs.sort_unstable();
                on.jobs.dedup();
                on.times.sort_unstable();
            }
            hits
        })
    }

    /// An outlier of this level on `machine` (and in `job`, when given).
    pub(crate) fn has_outlier_for(&self, machine: &str, job: Option<&str>) -> bool {
        self.hits()
            .get(machine)
            .is_some_and(|on| job.is_none_or(|job| on.jobs.binary_search(&job).is_ok()))
    }

    /// An outlier of this level on `machine` with a timestamp in `[t0, t1]`.
    pub(crate) fn has_outlier_in_span(&self, machine: &str, t0: u64, t1: u64) -> bool {
        self.hits().get(machine).is_some_and(|on| {
            let first = on.times.partition_point(|&t| t < t0);
            on.times.get(first).is_some_and(|&t| t <= t1)
        })
    }
}

/// The lookups Algorithm 1 makes per outlier, indexed once over one plant
/// and one set of level detections (see the module docs).
#[derive(Debug)]
pub(crate) struct Evidence<'a> {
    /// The phase level's series.
    phase_series: &'a [SeriesScores],
    /// Runs of consecutive `phase_series` sharing one execution key,
    /// sorted by key (a key may head several runs).
    executions: Vec<(ExecutionKey<'a>, Range<usize>)>,
    /// The environment level's series by sensor.
    env_series: BTreeMap<&'a str, Vec<&'a SeriesScores>>,
    /// Corresponding sensors by machine, then sensor.
    correspondents: ByMachine<'a, Vec<String>>,
    /// Job spans by machine, then job.
    spans: ByMachine<'a, Option<(u64, u64)>>,
    levels: BTreeMap<Level, LevelEntry<'a>>,
    /// A sibling's support window, in samples.
    window: usize,
    /// The echo's window, in ticks: the environment clock is coarser than
    /// the phase clock, so 16 ticks per sample of the window, at least 64.
    tol: u64,
    phase_threshold: f64,
    env_threshold: f64,
}

impl<'a> Evidence<'a> {
    /// Indexes `detections` (any subset of the five levels) over `plant`
    /// under `policy`'s thresholds and support window.
    pub(crate) fn new(
        plant: &'a Plant,
        detections: &'a BTreeMap<Level, LevelDetections>,
        policy: &AlgorithmPolicy,
    ) -> Self {
        let phase = detections.get(&Level::Phase);
        let env = detections.get(&Level::Environment);
        let phase_series: &'a [SeriesScores] = phase.map_or(&[], |d| &d.series_scores);
        let mut executions: Vec<(ExecutionKey<'a>, Range<usize>)> = Vec::new();
        for (i, ss) in phase_series.iter().enumerate() {
            let key = (&*ss.machine, ss.job.as_deref(), ss.phase);
            match executions.last_mut() {
                Some((last, run)) if *last == key => run.end = i + 1,
                _ => executions.push((key, i..i + 1)),
            }
        }
        executions.sort_unstable_by_key(|(key, _)| *key);
        let mut env_series: BTreeMap<&'a str, Vec<&'a SeriesScores>> = BTreeMap::new();
        for ss in env.iter().flat_map(|d| &d.series_scores) {
            env_series.entry(&ss.sensor).or_default().push(ss);
        }
        let mut correspondents: ByMachine<'a, Vec<String>> = BTreeMap::new();
        let mut spans: ByMachine<'a, Option<(u64, u64)>> = BTreeMap::new();
        for line in &plant.lines {
            let machine = line.machine_id.as_str();
            let on_machine = correspondents.entry(machine).or_default();
            for sensor in line.redundancy.iter().flat_map(|g| &g.sensors) {
                on_machine
                    .entry(sensor)
                    .or_insert_with(|| corresponding_sensors(plant, machine, sensor));
            }
            // `plant.line` finds a machine's first line, `line.job` a
            // job's first entry: the first of each wins here too.
            spans.entry(machine).or_insert_with(|| {
                let mut on_machine = BTreeMap::new();
                for job in &line.jobs {
                    on_machine
                        .entry(job.id.as_str())
                        .or_insert_with(|| job.span());
                }
                on_machine
            });
        }
        let levels = detections
            .iter()
            .map(|(&level, detections)| {
                let hits = OnceCell::new();
                (level, LevelEntry { detections, hits })
            })
            .collect();
        Evidence {
            phase_series,
            executions,
            env_series,
            correspondents,
            spans,
            levels,
            window: policy.support_window,
            tol: (policy.support_window as u64).saturating_mul(16).max(64),
            phase_threshold: phase.map_or(0.0, |d| policy.threshold(d.level)),
            env_threshold: env.map_or(0.0, |d| policy.threshold(d.level)),
        }
    }

    /// The sensors corresponding to the outlier's sensor on its machine
    /// (empty when it has none or names no sensor), as
    /// [`corresponding_sensors`] names them.
    pub(crate) fn correspondents_of(&self, outlier: &LevelOutlier) -> &[String] {
        let Some(sensor) = outlier.sensor.as_deref() else {
            return &[];
        };
        self.correspondents
            .get(&*outlier.machine)
            .and_then(|on_machine| on_machine.get(sensor))
            .map_or(&[], Vec::as_slice)
    }

    /// Whether a phase series of `sensor` in `execution` scores at or above
    /// the phase threshold within `window` samples of index `idx`.
    pub(crate) fn sibling_fires(
        &self,
        execution: ExecutionKey<'_>,
        sensor: &str,
        idx: usize,
    ) -> bool {
        let first = self.executions.partition_point(|(key, _)| *key < execution);
        let (from, to) = (
            idx.saturating_sub(self.window),
            idx.saturating_add(self.window).saturating_add(1),
        );
        self.executions
            .get(first..)
            .unwrap_or_default()
            .iter()
            .take_while(|(key, _)| *key == execution)
            .flat_map(|(_, run)| self.phase_series.get(run.clone()).unwrap_or_default())
            .filter(|ss| *ss.sensor == *sensor)
            .any(|ss| {
                let near = ss.z.get(from..to.min(ss.z.len())).unwrap_or_default();
                near.iter().any(|&z| z >= self.phase_threshold)
            })
    }

    /// Whether an environment series named `sensor` scores at or above the
    /// environment threshold within the echo's window of timestamp `ts`.
    pub(crate) fn echo_fires(&self, sensor: &str, ts: u64) -> bool {
        let (lo, hi) = (ts.saturating_sub(self.tol), ts.saturating_add(self.tol));
        self.env_series
            .get(sensor)
            .map(Vec::as_slice)
            .unwrap_or_default()
            .iter()
            .any(|ss| {
                let from = ss.timestamps.partition_point(|&t| t < lo);
                let to = ss.timestamps.partition_point(|&t| t <= hi).min(ss.z.len());
                let near = ss.z.get(from..to).unwrap_or_default();
                near.iter().any(|&z| z >= self.env_threshold)
            })
    }

    /// The time span of `job` on `machine`, when the plant holds the job
    /// and it has data.
    pub(crate) fn job_span(&self, machine: &str, job: &str) -> Option<(u64, u64)> {
        *self.spans.get(machine)?.get(job)?
    }

    /// The outlier lookups of `level`, when it was evaluated.
    pub(crate) fn level(&self, level: Level) -> Option<&LevelEntry<'a>> {
        self.levels.get(&level)
    }
}
