//! Level views: the data a detector at level L sees.
//!
//! Section 2 of the paper assigns each level a characteristic data shape:
//! phase → high-resolution series and discrete sequences; job →
//! high-dimensional vectors; environment → context series;
//! production line → series of job features over time; production →
//! the same across machines. [`LevelView::extract`] materializes those
//! shapes from a [`Plant`], and is the single entry point `hierod-core`
//! uses, so the mapping from Fig. 2 to data lives in exactly one place.
//!
//! ## Zero-copy materialization
//!
//! Views are *borrowed*, not copied: sensor-level series (phase and
//! environment views) are O(1) [`TimeSeries::share`] handles onto the
//! plant's own storage — `TimeSeries::shares_storage_with` holds between a
//! view series and the plant series it came from. The derived buffers the
//! upper levels need (per-job feature vectors feeding the job, line and
//! production views) are built **once per extraction** by
//! [`LevelView::extract_all`] and shared across all three views as
//! `Arc<[f64]>` rows, instead of re-deriving them per level per feature.

use std::sync::Arc;

use hierod_timeseries::{DiscreteSequence, TimeSeries};

use crate::level::Level;
use crate::phase::PhaseKind;
use crate::plant::Plant;

/// A series plus its position in the hierarchy (provenance for reports and
/// for the support computation, which must find sibling sensors *at the
/// same location*).
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesAt {
    /// Machine id.
    pub machine: String,
    /// Job id, when the series lives inside a job.
    pub job: Option<String>,
    /// Phase, when the series lives inside a phase.
    pub phase: Option<PhaseKind>,
    /// The series itself (its name is the producing sensor, or a feature
    /// label at line/production level). Shares storage with the plant for
    /// sensor-level views.
    pub series: TimeSeries,
}

/// A job-level feature vector with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct JobVector {
    /// Machine id.
    pub machine: String,
    /// Job id.
    pub job: String,
    /// Job start tick.
    pub start: u64,
    /// Feature values (setup params followed by CAQ measurements), shared
    /// with the line/production views derived from the same extraction.
    pub features: Arc<[f64]>,
    /// Feature names, parallel to `features`.
    pub feature_names: Vec<String>,
}

/// The materialized data of one hierarchy level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelView {
    /// Which level this view shows.
    pub level: Level,
    /// Numeric series at this level (empty at the job level).
    pub series: Vec<SeriesAt>,
    /// Discrete event sequences (phase level only).
    pub sequences: Vec<DiscreteSequence>,
    /// High-dimensional vectors (job level only).
    pub vectors: Vec<JobVector>,
}

/// Per-line derived buffers shared by the job/line/production views: one
/// `Arc<[f64]>` feature row per job, built in a single pass over the plant.
type JobFeatureRows = Vec<Vec<Arc<[f64]>>>;

fn job_feature_rows(plant: &Plant) -> JobFeatureRows {
    plant
        .lines
        .iter()
        .map(|line| {
            line.jobs
                .iter()
                .map(|j| j.feature_vector_shared())
                .collect()
        })
        .collect()
}

impl LevelView {
    /// Extracts the view of `level` from a plant.
    ///
    /// Levels that need the derived job-feature buffers (job, production
    /// line, production) build them on demand; extracting several levels is
    /// cheaper through [`Self::extract_all`], which derives them once.
    pub fn extract(plant: &Plant, level: Level) -> LevelView {
        match level {
            Level::Phase => Self::phase_view(plant),
            Level::Environment => Self::environment_view(plant),
            Level::Job | Level::ProductionLine | Level::Production => {
                Self::extract_with(plant, level, &job_feature_rows(plant))
            }
        }
    }

    /// Extracts all five level views, deriving the shared per-job feature
    /// buffers exactly once (the job, line and production views then hold
    /// `Arc` handles onto the same rows).
    pub fn extract_all(plant: &Plant) -> Vec<(Level, LevelView)> {
        let features = job_feature_rows(plant);
        Level::ALL
            .into_iter()
            .map(|level| (level, Self::extract_with(plant, level, &features)))
            .collect()
    }

    fn extract_with(plant: &Plant, level: Level, features: &JobFeatureRows) -> LevelView {
        match level {
            Level::Phase => Self::phase_view(plant),
            Level::Job => Self::job_view(plant, features),
            Level::Environment => Self::environment_view(plant),
            Level::ProductionLine => Self::line_view(plant, features),
            Level::Production => Self::production_view(plant, features),
        }
    }

    fn phase_view(plant: &Plant) -> LevelView {
        let mut series = Vec::new();
        let mut sequences = Vec::new();
        for line in &plant.lines {
            for job in &line.jobs {
                for phase in &job.phases {
                    for s in &phase.series {
                        series.push(SeriesAt {
                            machine: line.machine_id.clone(),
                            job: Some(job.id.clone()),
                            phase: Some(phase.kind),
                            series: s.share(),
                        });
                    }
                    sequences.extend(phase.events.iter().cloned());
                }
            }
        }
        LevelView {
            level: Level::Phase,
            series,
            sequences,
            vectors: Vec::new(),
        }
    }

    fn job_view(plant: &Plant, features: &JobFeatureRows) -> LevelView {
        let mut vectors = Vec::new();
        for (line, rows) in plant.lines.iter().zip(features) {
            for (job, row) in line.jobs.iter().zip(rows) {
                vectors.push(JobVector {
                    machine: line.machine_id.clone(),
                    job: job.id.clone(),
                    start: job.start,
                    features: Arc::clone(row),
                    feature_names: job.feature_names(),
                });
            }
        }
        LevelView {
            level: Level::Job,
            series: Vec::new(),
            sequences: Vec::new(),
            vectors,
        }
    }

    fn environment_view(plant: &Plant) -> LevelView {
        let mut series = Vec::new();
        for line in &plant.lines {
            for s in &line.environment.series {
                series.push(SeriesAt {
                    machine: line.machine_id.clone(),
                    job: None,
                    phase: None,
                    series: s.share(),
                });
            }
        }
        LevelView {
            level: Level::Environment,
            series,
            sequences: Vec::new(),
            vectors: Vec::new(),
        }
    }

    /// Production-line level: one series per job-feature component, built
    /// column-wise from the shared feature rows (each row was derived once;
    /// this loop only gathers columns).
    fn line_view(plant: &Plant, features: &JobFeatureRows) -> LevelView {
        let mut series = Vec::new();
        for (line, rows) in plant.lines.iter().zip(features) {
            let dims = rows.first().map(|r| r.len()).unwrap_or(0);
            for f in 0..dims {
                // A job lacking the component invalidates the whole series
                // (mirrors `ProductionLine::feature_series`).
                let mut ts = Vec::with_capacity(rows.len());
                let mut vals = Vec::with_capacity(rows.len());
                let mut complete = true;
                for (job, row) in line.jobs.iter().zip(rows) {
                    match row.get(f) {
                        Some(&v) => {
                            ts.push(job.start);
                            vals.push(v);
                        }
                        None => {
                            complete = false;
                            break;
                        }
                    }
                }
                if !complete {
                    continue;
                }
                if let Ok(s) =
                    TimeSeries::new(format!("{}.feature{}", line.machine_id, f), ts, vals)
                {
                    series.push(SeriesAt {
                        machine: line.machine_id.clone(),
                        job: None,
                        phase: None,
                        series: s,
                    });
                }
            }
        }
        LevelView {
            level: Level::ProductionLine,
            series,
            sequences: Vec::new(),
            vectors: Vec::new(),
        }
    }

    /// Production level: for each machine one summary series across jobs —
    /// the mean of the job's CAQ quality measurements (the cross-machine
    /// comparable outcome), falling back to the full feature vector when a
    /// job carries no CAQ data. Detectors compare these series *between*
    /// machines. No per-job buffer is copied: CAQ means are reduced in
    /// place and the fallback reuses the shared feature rows.
    fn production_view(plant: &Plant, features: &JobFeatureRows) -> LevelView {
        let mut series = Vec::new();
        for (line, rows) in plant.lines.iter().zip(features) {
            if line.jobs.is_empty() {
                continue;
            }
            let mut ts = Vec::with_capacity(line.jobs.len());
            let mut vals = Vec::with_capacity(line.jobs.len());
            for (job, row) in line.jobs.iter().zip(rows) {
                let fv: &[f64] = if job.caq.dims() > 0 {
                    &job.caq.values
                } else {
                    row
                };
                if fv.is_empty() {
                    continue;
                }
                ts.push(job.start);
                vals.push(fv.iter().sum::<f64>() / fv.len() as f64);
            }
            if let Ok(s) = TimeSeries::new(format!("{}.summary", line.machine_id), ts, vals) {
                series.push(SeriesAt {
                    machine: line.machine_id.clone(),
                    job: None,
                    phase: None,
                    series: s,
                });
            }
        }
        LevelView {
            level: Level::Production,
            series,
            sequences: Vec::new(),
            vectors: Vec::new(),
        }
    }

    /// Approximate in-memory data volume of the view (for the Fig.-2
    /// inventory report): number of scalar values.
    pub fn volume(&self) -> usize {
        self.series.iter().map(|s| s.series.len()).sum::<usize>()
            + self
                .sequences
                .iter()
                .map(DiscreteSequence::len)
                .sum::<usize>()
            + self.vectors.iter().map(|v| v.features.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caq::CaqResult;
    use crate::environment::Environment;
    use crate::job::{Job, JobConfig};
    use crate::line::ProductionLine;
    use crate::phase::Phase;

    fn demo_plant() -> Plant {
        let phase = Phase::new(
            PhaseKind::WarmUp,
            vec![TimeSeries::regular("m0.bed.0", 0, 1, vec![1.0, 2.0, 3.0]).unwrap()],
            vec![DiscreteSequence::new("m0.state", vec![0, 1])],
        );
        let job0 = Job {
            id: "j0".into(),
            start: 0,
            config: JobConfig::new(vec!["p".into()], vec![1.0]),
            phases: vec![phase],
            caq: CaqResult::new(vec!["q".into()], vec![3.0], true),
        };
        let job1 = Job {
            id: "j1".into(),
            start: 100,
            config: JobConfig::new(vec!["p".into()], vec![2.0]),
            phases: vec![],
            caq: CaqResult::new(vec!["q".into()], vec![4.0], true),
        };
        let line = ProductionLine {
            machine_id: "m0".into(),
            sensors: vec![],
            redundancy: vec![],
            jobs: vec![job0, job1],
            environment: Environment::new(vec![TimeSeries::from_values(
                "m0.room_temp",
                vec![20.0, 21.0],
            )]),
        };
        Plant::new("demo", vec![line])
    }

    #[test]
    fn phase_view_carries_provenance() {
        let v = LevelView::extract(&demo_plant(), Level::Phase);
        assert_eq!(v.level, Level::Phase);
        assert_eq!(v.series.len(), 1);
        assert_eq!(v.series[0].machine, "m0");
        assert_eq!(v.series[0].job.as_deref(), Some("j0"));
        assert_eq!(v.series[0].phase, Some(PhaseKind::WarmUp));
        assert_eq!(v.sequences.len(), 1);
        assert_eq!(v.volume(), 3 + 2);
    }

    #[test]
    fn phase_and_environment_views_share_plant_storage() {
        let plant = demo_plant();
        let phase = LevelView::extract(&plant, Level::Phase);
        let source = &plant.lines[0].jobs[0].phases[0].series[0];
        assert!(
            phase.series[0].series.shares_storage_with(source),
            "phase view must alias the plant's series storage"
        );
        let event = &plant.lines[0].jobs[0].phases[0].events[0];
        assert_eq!(
            phase.sequences[0].symbols().as_ptr(),
            event.symbols().as_ptr(),
            "phase view must alias the plant's event storage"
        );
        let env = LevelView::extract(&plant, Level::Environment);
        assert!(env.series[0]
            .series
            .shares_storage_with(&plant.lines[0].environment.series[0]));
    }

    #[test]
    fn job_view_exposes_vectors() {
        let v = LevelView::extract(&demo_plant(), Level::Job);
        assert_eq!(v.vectors.len(), 2);
        assert_eq!(&v.vectors[0].features[..], &[1.0, 3.0]);
        assert_eq!(&v.vectors[1].features[..], &[2.0, 4.0]);
        assert_eq!(v.vectors[0].feature_names, vec!["setup.p", "caq.q"]);
        assert!(v.series.is_empty());
        assert_eq!(v.volume(), 4);
    }

    #[test]
    fn extract_all_shares_feature_rows_between_levels() {
        let plant = demo_plant();
        let views = LevelView::extract_all(&plant);
        assert_eq!(views.len(), Level::ALL.len());
        for (level, view) in &views {
            assert_eq!(*level, view.level);
        }
        // The job view's rows come from the single shared derivation.
        let job = &views
            .iter()
            .find(|(l, _)| *l == Level::Job)
            .expect("job view")
            .1;
        assert_eq!(job.vectors.len(), 2);
        // Line view columns agree with the job rows (same derived buffer).
        let line = &views
            .iter()
            .find(|(l, _)| *l == Level::ProductionLine)
            .expect("line view")
            .1;
        assert_eq!(line.series[0].series.values(), &[1.0, 2.0]);
        assert_eq!(line.series[1].series.values(), &[3.0, 4.0]);
    }

    #[test]
    fn environment_view_lists_context_series() {
        let v = LevelView::extract(&demo_plant(), Level::Environment);
        assert_eq!(v.series.len(), 1);
        assert_eq!(v.series[0].series.name(), "m0.room_temp");
        assert!(v.series[0].job.is_none());
    }

    #[test]
    fn line_view_builds_feature_series_across_jobs() {
        let v = LevelView::extract(&demo_plant(), Level::ProductionLine);
        // 2 features -> 2 series, each with 2 points (one per job).
        assert_eq!(v.series.len(), 2);
        assert_eq!(v.series[0].series.values(), &[1.0, 2.0]);
        assert_eq!(v.series[1].series.values(), &[3.0, 4.0]);
        assert_eq!(v.series[0].series.timestamps(), &[0, 100]);
    }

    #[test]
    fn production_view_summarizes_per_machine() {
        let v = LevelView::extract(&demo_plant(), Level::Production);
        assert_eq!(v.series.len(), 1);
        // The summary is the mean of each job's CAQ values: [3.0], [4.0].
        assert_eq!(v.series[0].series.values(), &[3.0, 4.0]);
        assert!(v.series[0].series.name().contains("m0"));
    }

    #[test]
    fn empty_plant_yields_empty_views() {
        let p = Plant::default();
        for level in Level::ALL {
            let v = LevelView::extract(&p, level);
            assert_eq!(v.volume(), 0, "level {level}");
        }
        for (_, v) in LevelView::extract_all(&p) {
            assert_eq!(v.volume(), 0);
        }
    }
}
