//! [`StreamDetector`]: online hierarchical detection over ingested samples.
//!
//! The driver consumes two interleaved inputs:
//!
//! * **Control events** — machine/job/phase lifecycle events
//!   ([`ControlEvent`], applied through [`StreamDetector::apply`]) that
//!   mirror the production process structure of the paper's Fig. 2.
//! * **Samples** — per-sensor readings, one [`StreamDetector::ingest`]
//!   call each; a driver that names the same lanes again and again
//!   resolves each once ([`StreamDetector::lane`]) and applies samples by
//!   handle ([`StreamDetector::ingest_resolved`]), which is the same path
//!   with the lookup cached.
//!
//! Each open (machine, job, phase, sensor) series and each environment
//! sensor gets its own **pipeline**: a [`Watermark`] reorder stage feeding
//! an [`OnlineScorer`]. Control events apply to samples ingested *after*
//! the call.
//!
//! On a [`StreamDetector::tick`] or at [`StreamDetector::finish`], the
//! detector turns the pipelines' per-sample scores into phase/environment
//! [`LevelDetections`] through the *same* `emit_series` thresholding path
//! the batch engine uses, runs the upper levels (job, production line,
//! production) on its materialized [`Plant`], and propagates everything
//! through Algorithm 1's `CalcGlobalScore` — yielding the same
//! ⟨global score, outlierness, support⟩ triples as a batch run.
//!
//! ## Freeze once
//!
//! A completed job never changes, so the first assembly that sees it
//! **freezes** it: its released samples move onto the shared storage of
//! one [`Job`] appended to the materialized plant, and its phase-level
//! detections fragment (one `emit_series` per series) is built, exactly
//! once. Every later assembly shares both — an assembly costs the
//! environment series (open until finish), a reference count per shared
//! name and column, and Algorithm 1's indexed pass over the outliers, not
//! closed history. The three upper levels (one row per completed job) are
//! re-run only by an assembly that froze a job. Freezing happens at the
//! assembly, never at the job-complete event, so a stream that is only
//! ingested and finished standardises each series once, at `finish`
//! (DESIGN.md §4.13 has the invariants and the cost model).
//!
//! ## Scorer modes
//!
//! * [`ScorerMode::BatchEquivalent`] wraps the policy's engine scorer in a
//!   full-history [`WindowedBatch`]: per-series raw scores are
//!   bit-identical to batch, at O(series) memory. Scores appear when a
//!   series closes (phase boundary / finish).
//! * [`ScorerMode::Incremental`] uses the spec's incremental form as
//!   [`engine::build_online`] resolves it: bounded memory and immediate
//!   scores, approximating batch.
//!
//! Both modes build from the policy's phase and environment [`AlgoSpec`]s
//! — any point-kind registry entry. [`StreamDetector::new`] resolves all
//! five levels' specs once, so an invalid policy fails before any event.
//! In either mode, a wrapper installed through
//! [`StreamDetector::set_scorer_wrapper`] (the `hierod-adapt` drift
//! monitors) interposes on every pipeline opened afterwards.

use std::collections::BTreeMap;

use hierod_core::detect_level::{detect_level, emit_series, validate_policy, LevelDetections};
use hierod_core::pipeline::build_report;
use hierod_core::{AlgorithmPolicy, HierReport, PhaseChoice};
use hierod_detect::engine::{self, AlgoSpec};
use hierod_detect::online::{OnlineScorer, WindowedBatch};
use hierod_detect::{DetectError, Result};
use hierod_hierarchy::{
    CaqResult, Environment, Job, JobConfig, Level, Phase, PhaseKind, Plant, ProductionLine,
    RedundancyGroup, Sensor, SeriesAt,
};
use hierod_synth::ReplayEvent;
use hierod_timeseries::TimeSeries;
use std::sync::Arc;

use crate::lane::{LaneHandle, LaneId, LaneKind, Sample};
use crate::watermark::{LatenessStats, Watermark};

/// How phase/environment series are scored online.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScorerMode {
    /// Full-history [`WindowedBatch`] around the policy's engine scorer:
    /// raw scores bit-identical to the batch pipeline (the equivalence
    /// test pins this), O(series) memory per open series.
    BatchEquivalent,
    /// True incremental scorers with bounded memory, one per spec as
    /// [`engine::build_online`] resolves it.
    Incremental,
}

/// Configuration of a [`StreamDetector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Allowed lateness (ticks) per sensor watermark; `0` means in-order
    /// streams release immediately and any out-of-order sample is dropped.
    pub lateness: u64,
    /// Online scoring mode.
    pub mode: ScorerMode,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            lateness: 0,
            mode: ScorerMode::BatchEquivalent,
        }
    }
}

/// Ingestion counters of a [`StreamDetector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Samples accepted by [`StreamDetector::ingest`].
    pub samples_ingested: u64,
    /// Samples released by watermarks into scorers.
    pub samples_released: u64,
    /// Samples dropped as late (behind a passed watermark).
    pub late_dropped: u64,
    /// Samples dropped as duplicate timestamps.
    pub duplicates_dropped: u64,
    /// Series whose scorer failed (skipped in detections, like batch skips
    /// unscorable series).
    pub series_failed: u64,
    /// WAL records rejected as corrupt during recovery (always 0 for a
    /// purely in-memory detector; the durable wrapper fills it in).
    pub corrupt_records: u64,
    /// Drift events emitted by adaptive scorer wrappers (always 0 with no
    /// wrapper installed).
    pub drift_events: u64,
    /// Scorer refits performed by adaptive scorer wrappers (always 0 with
    /// no wrapper installed).
    pub refits: u64,
}

/// Per-lane ingestion counters, keyed by [`LaneId`] in [`StreamReport`].
/// Unlike the aggregate [`StreamStats`], these survive recovery
/// round-trips individually — the crash-equivalence tests assert them
/// lane by lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Samples released by this lane's watermarks into scorers.
    pub released: u64,
    /// Samples dropped as late on this lane.
    pub late_dropped: u64,
    /// Samples dropped as duplicates on this lane.
    pub duplicates_dropped: u64,
    /// WAL records for this lane rejected as corrupt during recovery.
    pub corrupt_records: u64,
    /// Drift events emitted on this lane by adaptive scorer wrappers.
    pub drift_events: u64,
    /// Scorer refits performed on this lane by adaptive scorer wrappers.
    pub refits: u64,
}

impl LaneStats {
    fn add(&mut self, other: &LaneStats) {
        self.released += other.released;
        self.late_dropped += other.late_dropped;
        self.duplicates_dropped += other.duplicates_dropped;
        self.corrupt_records += other.corrupt_records;
        self.drift_events += other.drift_events;
        self.refits += other.refits;
    }
}

/// The output of a tick or finish: per-level detections plus the
/// Algorithm-1 report with ⟨global score, outlierness, support⟩ triples.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Detections per level, same shape as the batch
    /// [`detect_all_levels`](hierod_core::detect_all_levels).
    pub detections: BTreeMap<Level, LevelDetections>,
    /// The hierarchical report (triples + measurement-error warnings).
    pub report: HierReport,
    /// Ingestion counters at assembly time.
    pub stats: StreamStats,
    /// Per-lane release/drop counters at assembly time. A lane appears
    /// once any pipeline has opened for it; counters aggregate across all
    /// phases and jobs the lane fed.
    pub lane_stats: BTreeMap<LaneId, LaneStats>,
}

/// One machine/job/phase lifecycle event in value form — the common
/// currency of the durability WAL, the tenant registry, and the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlEvent {
    /// A machine comes online with its sensor inventory.
    MachineUp {
        /// Machine identifier.
        machine: String,
        /// Full sensor inventory.
        sensors: Vec<Sensor>,
        /// Redundancy groups over those sensors.
        redundancy: Vec<RedundancyGroup>,
        /// Ambient sensors sampled outside any job.
        env_sensors: Vec<String>,
    },
    /// A job starts with its configuration vector.
    JobStart {
        /// Machine identifier.
        machine: String,
        /// Job identifier.
        job: String,
        /// First tick of the job.
        start: u64,
        /// Configuration the operator submitted.
        config: JobConfig,
    },
    /// A phase begins; subsequent phase samples belong to it.
    PhaseStart {
        /// Machine identifier.
        machine: String,
        /// Which of the five phases.
        kind: PhaseKind,
        /// The sensors that will report during this phase.
        sensors: Vec<String>,
    },
    /// The machine's open job is closed with its CAQ result.
    JobComplete {
        /// Machine identifier.
        machine: String,
        /// Computer-aided quality result for the finished part.
        caq: CaqResult,
    },
}

impl ControlEvent {
    /// A machine comes online: its sensor inventory, redundancy groups
    /// (the support computation needs them), and environment sensors,
    /// whose pipelines open immediately and stay open until finish.
    pub fn machine_up(
        machine: &str,
        sensors: Vec<Sensor>,
        redundancy: Vec<RedundancyGroup>,
        env_sensors: &[String],
    ) -> Self {
        ControlEvent::MachineUp {
            machine: machine.to_string(),
            sensors,
            redundancy,
            env_sensors: env_sensors.to_vec(),
        }
    }

    /// A job opens on a machine whose previous job has completed.
    pub fn job_start(machine: &str, job: &str, start: u64, config: JobConfig) -> Self {
        ControlEvent::JobStart {
            machine: machine.to_string(),
            job: job.to_string(),
            start,
            config,
        }
    }

    /// A phase opens within the machine's open job, finalizing the
    /// previous phase's pipelines.
    pub fn phase_start(machine: &str, kind: PhaseKind, sensors: &[String]) -> Self {
        ControlEvent::PhaseStart {
            machine: machine.to_string(),
            kind,
            sensors: sensors.to_vec(),
        }
    }

    /// The machine's open job completes with its CAQ result.
    pub fn job_complete(machine: &str, caq: CaqResult) -> Self {
        ControlEvent::JobComplete {
            machine: machine.to_string(),
            caq,
        }
    }
}

/// One step of a plant's event stream as a driver sees it: a lifecycle
/// control or one routed sample. `From<ReplayEvent>` is the one lowering
/// of the synth replay onto the streaming vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A lifecycle event.
    Control(ControlEvent),
    /// One sensor reading on its lane.
    Sample(LaneId, Sample),
}

impl From<ReplayEvent> for StreamEvent {
    fn from(event: ReplayEvent) -> Self {
        let sample = |machine, sensor, kind, timestamp, value| {
            StreamEvent::Sample(
                LaneId {
                    machine,
                    sensor,
                    kind,
                },
                Sample { timestamp, value },
            )
        };
        match event {
            ReplayEvent::MachineUp {
                machine,
                sensors,
                redundancy,
                env_sensors,
            } => StreamEvent::Control(ControlEvent::MachineUp {
                machine,
                sensors,
                redundancy,
                env_sensors,
            }),
            ReplayEvent::JobStart {
                machine,
                job,
                start,
                config,
            } => StreamEvent::Control(ControlEvent::JobStart {
                machine,
                job,
                start,
                config,
            }),
            ReplayEvent::PhaseStart {
                machine,
                kind,
                sensors,
            } => StreamEvent::Control(ControlEvent::PhaseStart {
                machine,
                kind,
                sensors,
            }),
            ReplayEvent::PhaseSample {
                machine,
                sensor,
                timestamp,
                value,
            } => sample(machine, sensor, LaneKind::Phase, timestamp, value),
            ReplayEvent::EnvSample {
                machine,
                sensor,
                timestamp,
                value,
            } => sample(machine, sensor, LaneKind::Environment, timestamp, value),
            // The control vocabulary addresses the machine's one open job,
            // so the replay's job id is redundant here.
            ReplayEvent::JobComplete { machine, caq, .. } => {
                StreamEvent::Control(ControlEvent::JobComplete { machine, caq })
            }
        }
    }
}

/// A mutable view of one open pipeline with its lane coordinates —
/// the durability layer walks these to seal chunks and tag pipelines
/// with the control sequence that opened them.
pub(crate) struct PipeSlot<'a> {
    pub(crate) machine: &'a str,
    pub(crate) sensor: &'a str,
    pub(crate) kind: LaneKind,
    pub(crate) pipe: &'a mut Pipeline,
}

/// A pipeline's released samples.
enum History {
    /// Growing: the pipeline can still release samples.
    Open {
        timestamps: Vec<u64>,
        values: Vec<f64>,
    },
    /// Frozen with the pipeline's job, onto the buffers the materialized
    /// series and every report's phase-level `SeriesScores` share.
    Frozen {
        timestamps: Arc<[u64]>,
        values: Arc<[f64]>,
    },
}

/// One sensor stream's online scoring state: watermark reorder buffer,
/// the scorer, the released history and its scores.
pub(crate) struct Pipeline {
    pub(crate) watermark: Watermark,
    /// `None` once the pipeline is frozen with its job.
    scorer: Option<Box<dyn OnlineScorer>>,
    history: History,
    /// The scorer's output so far: the i-th score is the i-th released
    /// sample's.
    scored: Vec<f64>,
    failed: bool,
    finished: bool,
    /// How many released samples have already been sealed into a segment
    /// (durability layer); samples beyond this index still live only in
    /// the WAL and must be re-emitted on the next rotation.
    pub(crate) sealed: usize,
    /// Drop counters at the last seal — a rotation emits a chunk whenever
    /// the live counters moved past these, even with no new releases.
    pub(crate) sealed_stats: LatenessStats,
    /// Sequence number of the control event that opened this pipeline
    /// (`None` until the durability layer tags it). Recovery matches
    /// restored chunks to pipelines through this tag.
    pub(crate) opened_seq: Option<u64>,
}

impl Pipeline {
    fn new(lateness: u64, scorer: Box<dyn OnlineScorer>) -> Self {
        Self {
            watermark: Watermark::new(lateness),
            scorer: Some(scorer),
            history: History::Open {
                timestamps: Vec::new(),
                values: Vec::new(),
            },
            scored: Vec::new(),
            failed: false,
            finished: false,
            sealed: 0,
            sealed_stats: LatenessStats::default(),
            opened_seq: None,
        }
    }

    /// Restores a sealed chunk of released history: the samples flow into
    /// the history and scorer exactly as their original releases did, then
    /// the watermark rewinds to the recovered frontier (`floor = max
    /// restored timestamp`) with the chunk's absolute drop counters.
    /// Re-offering the journalled carry-over samples afterwards (ascending
    /// timestamps, all above the floor) rebuilds the pre-crash watermark
    /// state exactly. Only valid on a fresh pipeline or directly after a
    /// previous `restore_chunk`.
    pub(crate) fn restore_chunk(
        &mut self,
        timestamps: &[u64],
        values: &[f64],
        late: u64,
        dups: u64,
    ) {
        self.absorb_released(timestamps.iter().copied().zip(values.iter().copied()));
        let stats = LatenessStats {
            late_dropped: late as usize,
            duplicates_dropped: dups as usize,
        };
        let (timestamps, _) = self.released();
        let (floor, sealed) = (timestamps.last().copied(), timestamps.len());
        self.watermark.restore_state(floor, stats);
        self.sealed = sealed;
        self.sealed_stats = stats;
    }

    /// Offers one sample; everything the watermark releases flows into the
    /// history and the scorer. A scorer error poisons the series (it will
    /// be skipped at assembly, mirroring the batch skip of unscorable
    /// series).
    fn offer(&mut self, ts: u64, value: f64, scratch: &mut Vec<(u64, f64)>) {
        scratch.clear();
        self.watermark.offer(ts, value, scratch);
        self.absorb_released(scratch.iter().copied());
    }

    /// Flushes the watermark and finishes the scorer (phase boundary or
    /// end of stream).
    fn finish(&mut self, scratch: &mut Vec<(u64, f64)>) {
        if self.finished {
            return;
        }
        scratch.clear();
        self.watermark.flush(scratch);
        self.absorb_released(scratch.iter().copied());
        if let Some(scorer) = &mut self.scorer {
            if !self.failed && scorer.finish(&mut self.scored).is_err() {
                self.failed = true;
            }
        }
        self.finished = true;
    }

    /// Nothing releases into a frozen pipeline: its job is complete, so
    /// `ingest` routes past it, it is finished, and recovery restores
    /// chunks before the first assembly can freeze anything.
    fn absorb_released(&mut self, released: impl Iterator<Item = (u64, f64)>) {
        let (History::Open { timestamps, values }, Some(scorer)) =
            (&mut self.history, &mut self.scorer)
        else {
            return;
        };
        for (t, v) in released {
            timestamps.push(t);
            values.push(v);
            if !self.failed && scorer.push(t, v, &mut self.scored).is_err() {
                self.failed = true;
            }
        }
    }

    /// The released timestamps and values, parallel. The durability layer
    /// seals their unsealed suffix at a rotation, frozen or not.
    pub(crate) fn released(&self) -> (&[u64], &[f64]) {
        match &self.history {
            History::Open { timestamps, values } => (timestamps, values),
            History::Frozen { timestamps, values } => (timestamps, values),
        }
    }

    /// The released history as a series, when non-degenerate: one copy of
    /// an open pipeline's samples, a share of a frozen one's.
    fn series(&self, name: &str) -> Option<TimeSeries> {
        let (timestamps, values) = match &self.history {
            History::Open { timestamps, values } => {
                (timestamps.as_slice().into(), values.as_slice().into())
            }
            History::Frozen { timestamps, values } => (Arc::clone(timestamps), Arc::clone(values)),
        };
        TimeSeries::from_shared(name, timestamps, values).ok()
    }

    /// One raw score per released sample, or `None` for a series assembly
    /// skips: its scorer failed, or its scores are not complete yet (open
    /// phase in batch-equivalent mode) — the batch path skips unscorable
    /// series the same way.
    fn raw_scores(&self) -> Option<&[f64]> {
        (!self.failed && self.scored.len() == self.released().0.len())
            .then_some(self.scored.as_slice())
    }

    /// This pipeline's share of its lane's counters.
    fn counters(&self) -> LaneStats {
        let w = self.watermark.stats();
        let (drift_events, refits) = self
            .scorer
            .as_ref()
            .map_or((0, 0), |s| (s.drift_events(), s.refits()));
        LaneStats {
            released: self.released().0.len() as u64,
            late_dropped: w.late_dropped as u64,
            duplicates_dropped: w.duplicates_dropped as u64,
            corrupt_records: 0,
            drift_events,
            refits,
        }
    }

    /// Freezes a finished pipeline with its completed job: the history
    /// moves onto shared storage, the scorer is released, and the raw
    /// scores ([`raw_scores`](Self::raw_scores)) move out this once.
    fn freeze(&mut self) -> Option<Vec<f64>> {
        let complete = self.raw_scores().is_some();
        if let History::Open { timestamps, values } = &mut self.history {
            self.history = History::Frozen {
                timestamps: std::mem::take(timestamps).into(),
                values: std::mem::take(values).into(),
            };
        }
        self.scorer = None;
        let scored = std::mem::take(&mut self.scored);
        complete.then_some(scored)
    }
}

/// Where a lane's samples currently go, as indices — no name is compared
/// on the way to the pipeline: `machines[machine].env[slot]` for an
/// environment lane, fixed once the machine is up; for a phase lane
/// `pipes[slot]` of the last phase of `machines[machine]`'s open job, good
/// until the next control event moves the open phase.
#[derive(Debug, Clone, Copy)]
struct Route {
    machine: usize,
    slot: usize,
}

/// One executed (or executing) phase: its kind and per-sensor pipelines
/// in declaration order (which is the plant's series order, so the
/// materialized view ordering matches batch).
struct PhaseState {
    kind: PhaseKind,
    pipes: Vec<(String, Pipeline)>,
}

/// One job's event-sourced state; `caq: None` marks it still open.
struct JobState {
    id: String,
    start: u64,
    config: JobConfig,
    phases: Vec<PhaseState>,
    caq: Option<CaqResult>,
}

/// One machine's event-sourced state. Its sensor inventory and its frozen
/// jobs live in the machine's line of the materialized plant.
struct MachineState {
    jobs: Vec<JobState>,
    /// How many leading `jobs` are frozen (jobs complete in order).
    frozen: usize,
    /// The frozen jobs' phase-level detections, in job order — what every
    /// assembly shares instead of re-thresholding closed series.
    phase: LevelDetections,
    /// Environment pipelines, continuous across jobs, in declaration
    /// order.
    env: Vec<(String, Pipeline)>,
    /// Counters of the frozen jobs' (phase) pipelines, folded per sensor
    /// when the job froze, so `stats`/`lane_stats` walk open pipelines
    /// only — and a freeze looks its lane up by `&str`, cloning the name
    /// the first time only.
    frozen_lanes: BTreeMap<String, LaneStats>,
}

impl MachineState {
    fn open_job_mut(&mut self) -> Option<&mut JobState> {
        self.jobs.last_mut().filter(|j| j.caq.is_none())
    }
}

/// The streaming counterpart of
/// [`find_hierarchical_outliers`](hierod_core::find_hierarchical_outliers):
/// event-sourced plant state plus per-sensor online scoring pipelines.
/// See the module docs for the driving contract.
pub struct StreamDetector {
    policy: AlgorithmPolicy,
    config: StreamConfig,
    /// The spec of [`PhaseChoice::PerSeries`] (profile mode is rejected
    /// at construction).
    phase_spec: AlgoSpec,
    /// Machines in arrival order (plant line order).
    machines: Vec<(String, MachineState)>,
    /// The materialized plant: one line per machine, parallel to
    /// `machines`, holding every frozen job. Jobs are only ever appended;
    /// an assembly replaces nothing but the environment series.
    plant: Plant,
    /// The job, production-line and production detections of the plant
    /// as last frozen. Those levels read only frozen jobs' setup and CAQ
    /// rows, so they are re-run on a tick that froze a job (or the first
    /// one) and shared by every other; empty until then.
    upper: BTreeMap<Level, LevelDetections>,
    /// How many frozen pipelines had failed scorers.
    frozen_failed: u64,
    scratch: Vec<(u64, f64)>,
    samples_ingested: u64,
    /// Every lane a [`LaneHandle`] was issued for, by handle, with its
    /// route once a sample has looked it up. [`apply`](Self::apply)
    /// forgets the routes: a control event is what moves them.
    lanes: Vec<(LaneId, Option<Route>)>,
    /// Resolve index over `lanes`; no sample walks it.
    lane_index: BTreeMap<LaneId, LaneHandle>,
    /// Wrapper applied to every scorer built for a pipeline once installed
    /// (e.g. the `hierod-adapt` drift monitor).
    /// Lives outside [`StreamConfig`] so the config stays `Copy`.
    scorer_wrapper: Option<Arc<ScorerWrapper>>,
}

/// A hook turning a freshly built incremental scorer into its adaptive
/// wrapper. Receives the lane kind so environment and phase lanes can be
/// wrapped differently.
pub type ScorerWrapper =
    dyn Fn(LaneKind, Box<dyn OnlineScorer>) -> Box<dyn OnlineScorer> + Send + Sync;

/// The visitor for [`StreamDetector::visit_scorers`]: machine, sensor,
/// lane kind, and the replaceable scorer slot.
pub type ScorerVisitor<'a> = dyn FnMut(&str, &str, LaneKind, &mut Box<dyn OnlineScorer>) + 'a;

impl StreamDetector {
    /// Creates a detector for the given policy.
    ///
    /// # Errors
    /// Rejects [`PhaseChoice::ProfileAcrossJobs`] — profiles are learned
    /// across completed jobs and have no per-sample online form; use the
    /// batch pipeline for profile mode. Resolves every level's spec once,
    /// as the batch path does before it scores anything, so an unknown
    /// key, an undeclared or malformed parameter or an entry of the wrong
    /// granularity is an [`DetectError::InvalidParameter`] here, before
    /// any control event is applied — not at the first tick.
    pub fn new(policy: AlgorithmPolicy, config: StreamConfig) -> Result<Self> {
        let PhaseChoice::PerSeries(phase_spec) = &policy.phase else {
            return Err(DetectError::invalid(
                "policy.phase",
                "ProfileAcrossJobs is not streamable per-series; use batch detection",
            ));
        };
        validate_policy(&policy)?;
        let phase_spec = phase_spec.clone();
        Ok(Self {
            policy,
            config,
            phase_spec,
            machines: Vec::new(),
            plant: Plant::new("streamed-plant", Vec::new()),
            upper: BTreeMap::new(),
            frozen_failed: 0,
            scratch: Vec::new(),
            samples_ingested: 0,
            lanes: Vec::new(),
            lane_index: BTreeMap::new(),
            scorer_wrapper: None,
        })
    }

    /// Installs the wrapper applied to every pipeline scorer built from
    /// now on, in either mode. Only pipelines opened *after* the call are
    /// wrapped — install before driving control events (the adapt layer
    /// re-wraps existing pipelines through
    /// [`visit_scorers`](Self::visit_scorers) when attaching late).
    pub fn set_scorer_wrapper(&mut self, wrapper: Arc<ScorerWrapper>) {
        self.scorer_wrapper = Some(wrapper);
    }

    /// Visits every open pipeline's scorer with its lane coordinates, in
    /// plant order — the adapt layer's swap point for store-driven refits.
    /// Replacing the scorer box mid-stream changes future scores only;
    /// already-emitted points are kept (the commit-point rules in
    /// DESIGN.md §4.19 restrict swaps to tick boundaries).
    pub fn visit_scorers(&mut self, f: &mut ScorerVisitor<'_>) {
        for slot in self.pipelines_mut() {
            if slot.pipe.finished || slot.pipe.failed {
                continue;
            }
            if let Some(scorer) = &mut slot.pipe.scorer {
                f(slot.machine, slot.sensor, slot.kind, scorer);
            }
        }
    }

    /// Builds a fresh (unwrapped) scorer for a lane of the given kind
    /// under the configured mode — what a refit uses to rebuild a
    /// pipeline's model through the registry before re-warming it from
    /// history.
    ///
    /// # Errors
    /// Propagates registry construction failures.
    pub fn build_lane_scorer(&self, kind: LaneKind) -> Result<Box<dyn OnlineScorer>> {
        self.build_bare_scorer(self.lane_spec(kind))
    }

    /// The policy's spec for lanes of the given kind.
    fn lane_spec(&self, kind: LaneKind) -> &AlgoSpec {
        match kind {
            LaneKind::Environment => &self.policy.environment,
            LaneKind::Phase => &self.phase_spec,
        }
    }

    /// Applies one lifecycle event — the one control entry point, shared
    /// by direct drivers, the durability WAL replay, and the tenant
    /// registry.
    ///
    /// # Errors
    /// * [`ControlEvent::MachineUp`]: a machine id registered twice;
    ///   scorer construction failures for the environment pipelines.
    /// * [`ControlEvent::JobStart`]: [`DetectError::Missing`] for an
    ///   unregistered machine; invalid while the machine has an open job.
    /// * [`ControlEvent::PhaseStart`] / [`ControlEvent::JobComplete`]:
    ///   [`DetectError::Missing`] without a registered machine or open
    ///   job; scorer construction failures.
    pub fn apply(&mut self, event: &ControlEvent) -> Result<()> {
        // Whatever the event does to the open phases, no cached route
        // survives it; the next sample of each lane looks its own up again.
        for (_, route) in &mut self.lanes {
            *route = None;
        }
        match event {
            ControlEvent::MachineUp {
                machine,
                sensors,
                redundancy,
                env_sensors,
            } => self.machine_up(machine, sensors, redundancy, env_sensors),
            ControlEvent::JobStart {
                machine,
                job,
                start,
                config,
            } => self.job_start(machine, job, *start, config),
            ControlEvent::PhaseStart {
                machine,
                kind,
                sensors,
            } => self.phase_start(machine, *kind, sensors),
            ControlEvent::JobComplete { machine, caq } => self.job_complete(machine, caq),
        }
    }

    /// Registers a machine; its environment pipelines open immediately
    /// and stay open until finish.
    fn machine_up(
        &mut self,
        machine: &str,
        sensors: &[Sensor],
        redundancy: &[RedundancyGroup],
        env_sensors: &[String],
    ) -> Result<()> {
        if self.machines.iter().any(|(id, _)| id == machine) {
            return Err(DetectError::invalid(
                "machine",
                format!("machine {machine} already registered"),
            ));
        }
        let env = self.open_pipelines(env_sensors, LaneKind::Environment)?;
        self.machines.push((
            machine.to_string(),
            MachineState {
                jobs: Vec::new(),
                frozen: 0,
                phase: LevelDetections::empty(Level::Phase),
                env,
                frozen_lanes: BTreeMap::new(),
            },
        ));
        self.plant.lines.push(ProductionLine {
            machine_id: machine.to_string(),
            sensors: sensors.to_vec(),
            redundancy: redundancy.to_vec(),
            jobs: Vec::new(),
            environment: Environment::default(),
        });
        Ok(())
    }

    /// Opens a job on a machine whose previous job has completed.
    fn job_start(
        &mut self,
        machine: &str,
        job: &str,
        start: u64,
        config: &JobConfig,
    ) -> Result<()> {
        let m = find_machine(&mut self.machines, machine)?;
        if m.open_job_mut().is_some() {
            return Err(DetectError::invalid(
                "job",
                format!("machine {machine} already has an open job"),
            ));
        }
        m.jobs.push(JobState {
            id: job.to_string(),
            start,
            config: config.clone(),
            phases: Vec::new(),
            caq: None,
        });
        Ok(())
    }

    /// Opens a phase within the machine's open job, finalizing the
    /// previous phase's pipelines (their watermarks flush and their
    /// scorers finish).
    fn phase_start(&mut self, machine: &str, kind: PhaseKind, sensors: &[String]) -> Result<()> {
        let pipes = self.open_pipelines(sensors, LaneKind::Phase)?;
        self.close_open_phase(machine)?
            .phases
            .push(PhaseState { kind, pipes });
        Ok(())
    }

    /// Completes the machine's open job with its CAQ result, finalizing
    /// the last phase's pipelines.
    fn job_complete(&mut self, machine: &str, caq: &CaqResult) -> Result<()> {
        self.close_open_phase(machine)?.caq = Some(caq.clone());
        Ok(())
    }

    /// One pipeline per sensor, in declaration order.
    fn open_pipelines(
        &self,
        sensors: &[String],
        kind: LaneKind,
    ) -> Result<Vec<(String, Pipeline)>> {
        sensors
            .iter()
            .map(|name| {
                let scorer = self.build_scorer(kind)?;
                Ok((name.clone(), Pipeline::new(self.config.lateness, scorer)))
            })
            .collect()
    }

    /// Finishes the pipelines of the current phase of the machine's open
    /// job and returns that job.
    fn close_open_phase(&mut self, machine: &str) -> Result<&mut JobState> {
        let Self {
            machines, scratch, ..
        } = self;
        let job = find_machine(machines, machine)?
            .open_job_mut()
            .ok_or_else(|| DetectError::Missing {
                what: format!("open job on machine {machine}"),
            })?;
        if let Some(phase) = job.phases.last_mut() {
            for (_, pipe) in &mut phase.pipes {
                pipe.finish(scratch);
            }
        }
        Ok(job)
    }

    /// The handle of `lane`, issued on first use. Resolving never fails
    /// and touches no pipeline: whether the lane has anywhere to go is
    /// decided per sample, as for [`ingest`](Self::ingest).
    pub fn lane(&mut self, lane: &LaneId) -> LaneHandle {
        if let Some(&handle) = self.lane_index.get(lane) {
            return handle;
        }
        let handle = LaneHandle(self.lanes.len() as u32);
        self.lanes.push((lane.clone(), None));
        self.lane_index.insert(lane.clone(), handle);
        handle
    }

    /// Routes one sample into its pipeline: phase lanes go to the current
    /// open phase of the machine's open job, environment lanes to the
    /// machine's continuous environment pipeline.
    ///
    /// # Errors
    /// [`DetectError::Missing`] when no pipeline is open for the lane.
    pub fn ingest(&mut self, lane: &LaneId, sample: Sample) -> Result<()> {
        let route = find_route(&self.machines, lane)?;
        offer_at(&mut self.machines, route, lane, sample, &mut self.scratch)?;
        self.samples_ingested += 1;
        Ok(())
    }

    /// [`ingest`](Self::ingest) for a lane resolved by
    /// [`lane`](Self::lane): the route found for the lane's previous
    /// sample is reused until a control event is applied, so a sample
    /// costs index arithmetic, not name comparisons.
    ///
    /// # Errors
    /// As [`ingest`](Self::ingest); also [`DetectError::Missing`] for a
    /// handle this detector did not issue.
    pub fn ingest_resolved(&mut self, lane: LaneHandle, sample: Sample) -> Result<()> {
        let Some((id, cached)) = self.lanes.get_mut(lane.0 as usize) else {
            return Err(DetectError::Missing {
                what: format!("lane handle {}", lane.0),
            });
        };
        let route = match *cached {
            Some(route) => route,
            None => *cached.insert(find_route(&self.machines, id)?),
        };
        offer_at(&mut self.machines, route, id, sample, &mut self.scratch)?;
        self.samples_ingested += 1;
        Ok(())
    }

    /// Every pipeline outside a frozen job with its lane coordinates
    /// (machine, sensor, kind), in plant order: each machine's environment
    /// pipelines first, then its unfrozen jobs' phases in execution order.
    fn unfrozen_pipelines(&self) -> impl Iterator<Item = (&str, &str, LaneKind, &Pipeline)> {
        self.machines.iter().flat_map(|(machine, m)| {
            let env = m.env.iter().map(|(n, p)| (LaneKind::Environment, n, p));
            let phases = m
                .jobs
                .iter()
                .skip(m.frozen)
                .flat_map(|job| &job.phases)
                .flat_map(|phase| &phase.pipes)
                .map(|(n, p)| (LaneKind::Phase, n, p));
            env.chain(phases)
                .map(move |(kind, n, p)| (machine.as_str(), n.as_str(), kind, p))
        })
    }

    /// The mutable walk over every pipeline, frozen or not: each machine's
    /// environment pipelines first, then its jobs' phases in execution
    /// order. The durability layer iterates this to seal rotation chunks
    /// and to tag/restore pipelines.
    pub(crate) fn pipelines_mut(&mut self) -> impl Iterator<Item = PipeSlot<'_>> {
        self.machines.iter_mut().flat_map(|(machine, m)| {
            let env = m.env.iter_mut().map(|(n, p)| (LaneKind::Environment, n, p));
            let phases = m
                .jobs
                .iter_mut()
                .flat_map(|job| &mut job.phases)
                .flat_map(|phase| &mut phase.pipes)
                .map(|(n, p)| (LaneKind::Phase, n, p));
            let machine = machine.as_str();
            env.chain(phases).map(move |(kind, n, pipe)| PipeSlot {
                machine,
                sensor: n,
                kind,
                pipe,
            })
        })
    }

    /// Current ingestion counters.
    pub fn stats(&self) -> StreamStats {
        let mut total = LaneStats::default();
        let mut series_failed = self.frozen_failed;
        for lane in self
            .machines
            .iter()
            .flat_map(|(_, m)| m.frozen_lanes.values())
        {
            total.add(lane);
        }
        for (_, _, _, pipe) in self.unfrozen_pipelines() {
            total.add(&pipe.counters());
            series_failed += u64::from(pipe.failed);
        }
        StreamStats {
            samples_ingested: self.samples_ingested,
            samples_released: total.released,
            late_dropped: total.late_dropped,
            duplicates_dropped: total.duplicates_dropped,
            series_failed,
            corrupt_records: 0,
            drift_events: total.drift_events,
            refits: total.refits,
        }
    }

    /// Per-lane release/drop counters, aggregated over every pipeline
    /// (open or closed) the lane ever fed.
    pub fn lane_stats(&self) -> BTreeMap<LaneId, LaneStats> {
        let mut out = BTreeMap::new();
        for (machine, m) in &self.machines {
            for (sensor, lane) in &m.frozen_lanes {
                let id = LaneId {
                    machine: machine.clone(),
                    sensor: sensor.clone(),
                    kind: LaneKind::Phase,
                };
                out.insert(id, *lane);
            }
        }
        for (machine, sensor, kind, pipe) in self.unfrozen_pipelines() {
            out.entry(LaneId {
                machine: machine.to_string(),
                sensor: sensor.to_string(),
                kind,
            })
            .or_default()
            .add(&pipe.counters());
        }
        out
    }

    /// Credits samples that were ingested before a crash and restored from
    /// sealed segments (their releases and drops are rebuilt by
    /// [`Pipeline::restore_chunk`], but the offer-time counter lives here).
    pub(crate) fn add_recovered_ingested(&mut self, n: u64) {
        self.samples_ingested += n;
    }

    /// Assembles an interim report from everything released so far: jobs
    /// completed since the last assembly are frozen into the materialized
    /// plant, the environment series and the upper levels re-evaluated,
    /// and Algorithm 1's propagation run. In
    /// [`ScorerMode::BatchEquivalent`], a series' scores exist only once
    /// its phase closed; [`ScorerMode::Incremental`] scores appear per
    /// sample.
    ///
    /// Takes `&mut self` because the first assembly after a job completes
    /// freezes it (and re-runs the upper levels, which read only frozen
    /// jobs); the report is the same whether or not anything froze.
    ///
    /// # Errors
    /// Propagates upper-level detector failures.
    pub fn tick(&mut self) -> Result<StreamReport> {
        if self.freeze_completed_jobs() || self.upper.is_empty() {
            // Cleared first, so a failed run is retried by the next tick.
            self.upper.clear();
            let mut upper = BTreeMap::new();
            for level in [Level::Job, Level::ProductionLine, Level::Production] {
                upper.insert(level, detect_level(&self.plant, level, &self.policy)?);
            }
            self.upper = upper;
        }
        let environment = self.assemble_environment();
        let phase = gather(Level::Phase, self.machines.iter().map(|(_, m)| &m.phase));
        let mut detections =
            BTreeMap::from([(Level::Phase, phase), (Level::Environment, environment)]);
        detections.extend(self.upper.iter().map(|(&level, d)| (level, d.clone())));
        let report = build_report(&self.plant, Level::Phase, &detections, &self.policy)?;
        Ok(StreamReport {
            detections,
            report,
            stats: self.stats(),
            lane_stats: self.lane_stats(),
        })
    }

    /// Flushes every watermark, finishes every scorer, and assembles the
    /// final report. Environment pipelines and any still-open phases are
    /// finalized here.
    ///
    /// # Errors
    /// Propagates upper-level detector failures.
    pub fn finish(mut self) -> Result<StreamReport> {
        self.finalize_pipelines();
        self.tick()
    }

    /// Flushes every watermark and finishes every scorer without
    /// assembling.
    pub(crate) fn finalize_pipelines(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for slot in self.pipelines_mut() {
            slot.pipe.finish(&mut scratch);
        }
        self.scratch = scratch;
    }

    /// Freezes every job completed since the last assembly: appends its
    /// [`Job`] to the machine's line of the materialized plant, its
    /// phase-level detections to the machine's fragment, and its
    /// pipelines' counters to the per-lane totals. Only completed jobs
    /// (CAQ present) enter the plant — their feature vectors would
    /// otherwise change dimension mid-job and poison the line-level series.
    /// Series whose scorer failed are skipped in the detections, as the
    /// batch path skips unscorable series. Returns whether a job froze.
    fn freeze_completed_jobs(&mut self) -> bool {
        let threshold = self.policy.threshold(Level::Phase);
        let mut froze = false;
        let Self {
            machines,
            plant,
            frozen_failed,
            ..
        } = self;
        for (line_no, (machine, m)) in machines.iter_mut().enumerate() {
            while let Some(job) = m.jobs.get_mut(m.frozen) {
                let Some(caq) = job.caq.clone() else { break };
                let mut phases = Vec::with_capacity(job.phases.len());
                for phase in &mut job.phases {
                    let mut series = Vec::with_capacity(phase.pipes.len());
                    for (name, pipe) in &mut phase.pipes {
                        match m.frozen_lanes.get_mut(name.as_str()) {
                            Some(lane) => lane.add(&pipe.counters()),
                            None => {
                                m.frozen_lanes.insert(name.clone(), pipe.counters());
                            }
                        }
                        *frozen_failed += u64::from(pipe.failed);
                        let raw = pipe.freeze();
                        let Some(frozen) = pipe.series(name) else {
                            continue;
                        };
                        if let Some(raw) = raw {
                            let at = SeriesAt {
                                machine: machine.clone(),
                                job: Some(job.id.clone()),
                                phase: Some(phase.kind),
                                series: frozen.share(),
                            };
                            // At the phase level `emit_series` reads the
                            // series, its scores and the threshold — nothing
                            // of the plant, which does not hold this job yet.
                            emit_series(
                                plant,
                                Level::Phase,
                                threshold,
                                &at,
                                &raw,
                                false,
                                &mut m.phase,
                            );
                        }
                        series.push(frozen);
                    }
                    phases.push(Phase::new(phase.kind, series, Vec::new()));
                }
                if let Some(line) = plant.lines.get_mut(line_no) {
                    line.jobs.push(Job {
                        id: job.id.clone(),
                        start: job.start,
                        config: job.config.clone(),
                        phases,
                        caq,
                    });
                }
                m.frozen += 1;
                froze = true;
            }
        }
        froze
    }

    /// Rebuilds the materialized plant's environment series — open until
    /// finish, so every assembly sees new samples — and thresholds the
    /// ones whose scores are complete.
    fn assemble_environment(&mut self) -> LevelDetections {
        let mut scored = Vec::new();
        for ((machine, m), line) in self.machines.iter().zip(&mut self.plant.lines) {
            let mut series = Vec::with_capacity(m.env.len());
            for (name, pipe) in &m.env {
                let Some(current) = pipe.series(name) else {
                    continue;
                };
                if let Some(raw) = pipe.raw_scores() {
                    let at = SeriesAt {
                        machine: machine.clone(),
                        job: None,
                        phase: None,
                        series: current.share(),
                    };
                    scored.push((at, raw));
                }
                series.push(current);
            }
            line.environment = Environment::new(series);
        }
        let level = Level::Environment;
        let threshold = self.policy.threshold(level);
        let mut det = LevelDetections::empty(level);
        for (at, raw) in &scored {
            emit_series(&self.plant, level, threshold, at, raw, false, &mut det);
        }
        det
    }

    /// Builds the online scorer for a lane of the given kind under the
    /// configured mode, wrapped when a scorer wrapper is installed.
    fn build_scorer(&self, kind: LaneKind) -> Result<Box<dyn OnlineScorer>> {
        let scorer = self.build_bare_scorer(self.lane_spec(kind))?;
        Ok(match &self.scorer_wrapper {
            Some(wrap) => wrap(kind, scorer),
            None => scorer,
        })
    }

    /// Builds the online scorer without the adaptive wrapper: the mode
    /// picks which of the engine's two online forms of the spec runs.
    fn build_bare_scorer(&self, spec: &AlgoSpec) -> Result<Box<dyn OnlineScorer>> {
        match self.config.mode {
            ScorerMode::BatchEquivalent => {
                Ok(Box::new(WindowedBatch::full_history(engine::build(spec)?)))
            }
            ScorerMode::Incremental => engine::build_online(spec),
        }
    }
}

/// The concatenation of `parts` in order, each column allocated once: the
/// fragments' names and score columns are shared, so this costs reference
/// counts, not copies.
fn gather<'a>(
    level: Level,
    parts: impl Iterator<Item = &'a LevelDetections> + Clone,
) -> LevelDetections {
    let mut out = LevelDetections::empty(level);
    out.outliers
        .reserve_exact(parts.clone().map(|d| d.outliers.len()).sum());
    out.series_scores
        .reserve_exact(parts.clone().map(|d| d.series_scores.len()).sum());
    out.vector_scores
        .reserve_exact(parts.clone().map(|d| d.vector_scores.len()).sum());
    for d in parts {
        out.outliers.extend_from_slice(&d.outliers);
        out.series_scores.extend_from_slice(&d.series_scores);
        out.vector_scores.extend_from_slice(&d.vector_scores);
    }
    out
}

fn no_open_pipeline(sensor: &str) -> DetectError {
    DetectError::Missing {
        what: format!("open pipeline for lane {sensor}"),
    }
}

/// Looks `lane` up by name: its machine, then its environment sensor or
/// its sensor in the open job's current phase.
fn find_route(machines: &[(String, MachineState)], lane: &LaneId) -> Result<Route> {
    let Some((machine, (_, m))) = machines
        .iter()
        .enumerate()
        .find(|(_, (id, _))| *id == lane.machine)
    else {
        return Err(DetectError::Missing {
            what: format!("machine {} for lane {}", lane.machine, lane.sensor),
        });
    };
    let named = |pipes: &[(String, Pipeline)]| pipes.iter().position(|(n, _)| *n == lane.sensor);
    match lane.kind {
        LaneKind::Environment => named(&m.env),
        LaneKind::Phase => m
            .jobs
            .last()
            .filter(|job| job.caq.is_none())
            .and_then(|job| job.phases.last())
            .and_then(|phase| named(&phase.pipes)),
    }
    .map(|slot| Route { machine, slot })
    .ok_or_else(|| no_open_pipeline(&lane.sensor))
}

/// Offers `sample` to the pipeline `route` names for `lane`.
fn offer_at(
    machines: &mut [(String, MachineState)],
    route: Route,
    lane: &LaneId,
    sample: Sample,
    scratch: &mut Vec<(u64, f64)>,
) -> Result<()> {
    let machine = machines.get_mut(route.machine).map(|(_, m)| m);
    let pipes = match lane.kind {
        LaneKind::Environment => machine.map(|m| &mut m.env),
        LaneKind::Phase => machine
            .and_then(|m| m.open_job_mut())
            .and_then(|job| job.phases.last_mut())
            .map(|phase| &mut phase.pipes),
    };
    let (_, pipe) = pipes
        .and_then(|pipes| pipes.get_mut(route.slot))
        .ok_or_else(|| no_open_pipeline(&lane.sensor))?;
    pipe.offer(sample.timestamp, sample.value, scratch);
    Ok(())
}

fn find_machine<'a>(
    machines: &'a mut [(String, MachineState)],
    machine: &str,
) -> Result<&'a mut MachineState> {
    machines
        .iter_mut()
        .find(|(id, _)| id == machine)
        .map(|(_, m)| m)
        .ok_or_else(|| DetectError::Missing {
            what: format!("machine {machine}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierod_hierarchy::SensorKind;

    fn detector(mode: ScorerMode) -> StreamDetector {
        StreamDetector::new(
            AlgorithmPolicy::default(),
            StreamConfig { lateness: 0, mode },
        )
        .expect("default policy is streamable")
    }

    fn bring_up(det: &mut StreamDetector) {
        let sensors = vec![Sensor::new("m0.bed.0", SensorKind::BedTemperature)];
        let groups = vec![RedundancyGroup::new(
            SensorKind::BedTemperature,
            vec!["m0.bed.0".into()],
        )];
        det.apply(&ControlEvent::machine_up(
            "m0",
            sensors,
            groups,
            &["m0.room_temp".into()],
        ))
        .expect("machine_up");
    }

    /// Opens job `j0` and its warm-up phase on the bed sensor.
    fn open_warm_up(det: &mut StreamDetector) {
        let config = JobConfig::new(vec!["p".into()], vec![1.0]);
        det.apply(&ControlEvent::job_start("m0", "j0", 0, config))
            .expect("job_start");
        let sensors = ["m0.bed.0".to_string()];
        det.apply(&ControlEvent::phase_start(
            "m0",
            PhaseKind::WarmUp,
            &sensors,
        ))
        .expect("phase_start");
    }

    fn complete_job(det: &mut StreamDetector) {
        let caq = CaqResult::new(vec!["q".into()], vec![0.98], true);
        det.apply(&ControlEvent::job_complete("m0", caq))
            .expect("job_complete");
    }

    #[test]
    fn rejects_profile_mode() {
        let policy = AlgorithmPolicy {
            phase: PhaseChoice::ProfileAcrossJobs,
            ..AlgorithmPolicy::default()
        };
        assert!(StreamDetector::new(policy, StreamConfig::default()).is_err());
    }

    #[test]
    fn rejects_specs_that_do_not_resolve_to_point_scorers() {
        let spec = |text: &str| text.parse::<AlgoSpec>().expect("well-formed");
        for text in ["frobnicator", "pca", "ar(order=0)", "ar(window=3)"] {
            let policy = AlgorithmPolicy {
                phase: PhaseChoice::PerSeries(spec(text)),
                ..AlgorithmPolicy::default()
            };
            assert!(
                matches!(
                    StreamDetector::new(policy, StreamConfig::default()),
                    Err(DetectError::InvalidParameter { .. })
                ),
                "{text}"
            );
        }
        let bad_environment = AlgorithmPolicy {
            environment: spec("cross-machine-profile"),
            ..AlgorithmPolicy::default()
        };
        assert!(StreamDetector::new(bad_environment, StreamConfig::default()).is_err());
    }

    #[test]
    fn rejects_upper_level_specs_the_first_tick_would_reject() {
        // Wrong granularity at the job and line levels, a misspelt key and
        // a malformed parameter at the production level.
        for (level, text) in [
            (Level::Job, "ar"),
            (Level::ProductionLine, "pca"),
            (Level::Production, "cross-machine-profil"),
            (Level::Production, "phased-kmeans(segments=-1)"),
        ] {
            let mut policy = AlgorithmPolicy::default();
            let slot = match level {
                Level::Job => &mut policy.job,
                Level::ProductionLine => &mut policy.line,
                _ => &mut policy.production,
            };
            *slot = text.parse().expect("well-formed");
            for mode in [ScorerMode::BatchEquivalent, ScorerMode::Incremental] {
                let config = StreamConfig { lateness: 0, mode };
                assert!(
                    matches!(
                        StreamDetector::new(policy.clone(), config),
                        Err(DetectError::InvalidParameter { .. })
                    ),
                    "{level:?}: {text}"
                );
            }
        }
    }

    #[test]
    fn lifecycle_is_enforced() {
        let mut det = detector(ScorerMode::BatchEquivalent);
        let job =
            |id, start| ControlEvent::job_start("m0", id, start, JobConfig::new(vec![], vec![]));
        let phase = ControlEvent::phase_start("m0", PhaseKind::WarmUp, &["m0.bed.0".into()]);
        // No machine yet.
        assert!(det.apply(&job("j0", 0)).is_err());
        bring_up(&mut det);
        // Phase before job.
        assert!(det.apply(&phase).is_err());
        det.apply(&job("j0", 0)).expect("job_start");
        // Double job open.
        assert!(det.apply(&job("j1", 1)).is_err());
        // Duplicate machine.
        let again = ControlEvent::machine_up("m0", vec![], vec![], &[]);
        assert!(det.apply(&again).is_err());
    }

    #[test]
    fn ingest_requires_an_open_pipeline() {
        let mut det = detector(ScorerMode::BatchEquivalent);
        bring_up(&mut det);
        let phase_lane = LaneId {
            machine: "m0".into(),
            sensor: "m0.bed.0".into(),
            kind: LaneKind::Phase,
        };
        let sample = Sample {
            timestamp: 0,
            value: 1.0,
        };
        // Phase sample with no open phase.
        assert!(det.ingest(&phase_lane, sample).is_err());
        // Environment lanes are open from machine_up.
        let env_lane = LaneId {
            machine: "m0".into(),
            sensor: "m0.room_temp".into(),
            kind: LaneKind::Environment,
        };
        det.ingest(&env_lane, sample).expect("env ingest");
        assert_eq!(det.stats().samples_ingested, 1);
    }

    #[test]
    fn end_to_end_single_job_produces_a_report() {
        let mut det = detector(ScorerMode::BatchEquivalent);
        bring_up(&mut det);
        open_warm_up(&mut det);
        let lane = LaneId {
            machine: "m0".into(),
            sensor: "m0.bed.0".into(),
            kind: LaneKind::Phase,
        };
        for t in 0..64_u64 {
            let v = if t == 40 {
                90.0
            } else {
                (t as f64 * 0.4).sin()
            };
            det.ingest(
                &lane,
                Sample {
                    timestamp: t,
                    value: v,
                },
            )
            .expect("ingest");
        }
        complete_job(&mut det);
        let report = det.finish().expect("finish");
        assert_eq!(report.stats.samples_ingested, 64);
        assert_eq!(report.stats.samples_released, 64);
        let phase = report
            .detections
            .get(&Level::Phase)
            .expect("phase detections");
        assert!(
            phase.outliers.iter().any(|o| o.index == Some(40)),
            "the spike must be detected: {:?}",
            phase.outliers
        );
        for o in &report.report.outliers {
            assert!((1..=5).contains(&o.global_score));
        }
    }

    #[test]
    fn incremental_mode_scores_before_finish() {
        let mut det = detector(ScorerMode::Incremental);
        bring_up(&mut det);
        open_warm_up(&mut det);
        let lane = LaneId {
            machine: "m0".into(),
            sensor: "m0.bed.0".into(),
            kind: LaneKind::Phase,
        };
        // A noiseless sinusoid is degenerate for AR fitting (zero
        // innovation variance), so jitter it with deterministic noise.
        let mut state = 0x9e37_79b9_u64;
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5
        };
        for t in 0..200_u64 {
            let v = if t == 150 {
                60.0
            } else {
                (t as f64 * 0.3).sin() + 0.2 * noise()
            };
            det.ingest(
                &lane,
                Sample {
                    timestamp: t,
                    value: v,
                },
            )
            .expect("ingest");
        }
        complete_job(&mut det);
        // tick() after job completion sees per-sample scores without any
        // finish() — incremental scorers emit as samples arrive.
        let report = det.tick().expect("tick");
        let phase = report
            .detections
            .get(&Level::Phase)
            .expect("phase detections");
        assert!(
            phase.outliers.iter().any(|o| o.index == Some(150)),
            "incremental scorers must flag the spike: {:?}",
            phase.outliers
        );
    }

    #[test]
    fn reports_carry_per_lane_drop_counters() {
        let mut det = StreamDetector::new(
            AlgorithmPolicy::default(),
            StreamConfig {
                lateness: 1,
                mode: ScorerMode::BatchEquivalent,
            },
        )
        .expect("streamable policy");
        bring_up(&mut det);
        open_warm_up(&mut det);
        let bed = LaneId {
            machine: "m0".into(),
            sensor: "m0.bed.0".into(),
            kind: LaneKind::Phase,
        };
        let room = LaneId {
            machine: "m0".into(),
            sensor: "m0.room_temp".into(),
            kind: LaneKind::Environment,
        };
        let push = |det: &mut StreamDetector, lane: &LaneId, ts: u64| {
            det.ingest(
                lane,
                Sample {
                    timestamp: ts,
                    value: ts as f64,
                },
            )
            .expect("ingest");
        };
        // Bed lane: a duplicate and a late sample. Room lane: clean.
        for ts in [0_u64, 1, 2, 2, 10, 3] {
            push(&mut det, &bed, ts);
        }
        for ts in 0..4_u64 {
            push(&mut det, &room, ts);
        }
        complete_job(&mut det);
        let report = det.finish().expect("finish");
        let bed_stats = report.lane_stats.get(&bed).expect("bed lane tracked");
        assert_eq!(bed_stats.duplicates_dropped, 1);
        assert_eq!(bed_stats.late_dropped, 1);
        assert_eq!(bed_stats.released, 4);
        let room_stats = report.lane_stats.get(&room).expect("room lane tracked");
        assert_eq!(room_stats.late_dropped, 0);
        assert_eq!(room_stats.duplicates_dropped, 0);
        assert_eq!(room_stats.released, 4);
        // The aggregate view is the sum of the per-lane views.
        let agg: u64 = report.lane_stats.values().map(|l| l.released).sum();
        assert_eq!(agg, report.stats.samples_released);
    }

    #[test]
    fn consecutive_ticks_share_closed_history_instead_of_rebuilding_it() {
        let mut det = detector(ScorerMode::BatchEquivalent);
        bring_up(&mut det);
        let bed = LaneId {
            machine: "m0".into(),
            sensor: "m0.bed.0".into(),
            kind: LaneKind::Phase,
        };
        let run_job = |det: &mut StreamDetector, id: &str, start: u64| {
            let config = JobConfig::new(vec!["p".into()], vec![1.0]);
            det.apply(&ControlEvent::job_start("m0", id, start, config))
                .expect("job_start");
            for kind in [PhaseKind::WarmUp, PhaseKind::Printing] {
                let sensors = [bed.sensor.clone()];
                det.apply(&ControlEvent::phase_start("m0", kind, &sensors))
                    .expect("phase_start");
                let base = start + 100 * u64::from(kind == PhaseKind::Printing);
                for t in 0..48_u64 {
                    let value = if t == 30 {
                        70.0
                    } else {
                        (t as f64 * 0.4).sin()
                    };
                    let timestamp = base + t;
                    det.ingest(&bed, Sample { timestamp, value })
                        .expect("ingest");
                }
            }
            complete_job(det);
        };
        run_job(&mut det, "j0", 0);
        let first = det.tick().expect("first tick");
        let first_plant = det.plant.clone();
        run_job(&mut det, "j1", 1000);
        let second = det.tick().expect("second tick");

        let (closed, all) = (
            &first.detections[&Level::Phase],
            &second.detections[&Level::Phase],
        );
        assert_eq!(closed.series_scores.len(), 2, "j0's two phases");
        assert_eq!(all.series_scores.len(), 4);
        assert!(!closed.outliers.is_empty(), "the spikes must be detected");
        for (before, after) in closed.series_scores.iter().zip(&all.series_scores) {
            assert_eq!((&before.job, before.phase), (&after.job, after.phase));
            assert!(Arc::ptr_eq(&before.z, &after.z), "z re-standardised");
            assert!(Arc::ptr_eq(&before.timestamps, &after.timestamps));
        }
        let series = |plant: &Plant| -> Vec<TimeSeries> {
            let phases = plant.lines[0].jobs.iter().flat_map(|j| &j.phases);
            phases
                .flat_map(|p| p.series.iter().map(TimeSeries::share))
                .collect()
        };
        let (before, after) = (series(&first_plant), series(&det.plant));
        assert_eq!((before.len(), after.len()), (2, 4));
        for ((before, after), scores) in before.iter().zip(&after).zip(&all.series_scores) {
            assert!(before.shares_storage_with(after), "closed series re-copied");
            // A report's timestamps are the materialized series' own buffer.
            assert!(Arc::ptr_eq(&after.timestamps_shared(), &scores.timestamps));
        }
    }

    #[test]
    fn tick_before_any_completed_job_is_empty_but_valid() {
        let mut det = detector(ScorerMode::BatchEquivalent);
        bring_up(&mut det);
        let report = det.tick().expect("tick");
        assert!(report.report.is_empty());
        assert_eq!(report.stats.samples_ingested, 0);
    }

    /// Drives one detector by lane id and a twin by handles resolved once,
    /// before any control event: every sample must meet the same fate,
    /// and the two must finish on the same report.
    fn by_handle_equals_by_id(lateness: u64, steps: &[StreamEvent]) {
        let config = StreamConfig {
            lateness,
            mode: ScorerMode::BatchEquivalent,
        };
        let twin = || StreamDetector::new(AlgorithmPolicy::default(), config).expect("detector");
        let (mut by_id, mut by_handle) = (twin(), twin());
        let mut handles = BTreeMap::new();
        for step in steps {
            if let StreamEvent::Sample(lane, _) = step {
                let handle = by_handle.lane(lane);
                assert_eq!(*handles.entry(lane).or_insert(handle), handle, "one handle");
            }
        }
        let mut rejected = 0;
        for (i, step) in steps.iter().enumerate() {
            match step {
                StreamEvent::Control(event) => {
                    let outcome = by_id.apply(event).map_err(|e| e.to_string());
                    assert_eq!(by_handle.apply(event).map_err(|e| e.to_string()), outcome);
                }
                StreamEvent::Sample(lane, sample) => {
                    let outcome = by_id.ingest(lane, *sample).map_err(|e| e.to_string());
                    let resolved = by_handle.ingest_resolved(handles[lane], *sample);
                    assert_eq!(resolved.map_err(|e| e.to_string()), outcome, "step {i}");
                    rejected += usize::from(outcome.is_err());
                }
            }
        }
        assert!(rejected > 0, "the script must stray outside open phases");
        assert_eq!(by_handle.stats(), by_id.stats());
        assert_eq!(by_handle.lane_stats(), by_id.lane_stats());
        let (a, b) = (
            by_id.finish().expect("finish"),
            by_handle.finish().expect("finish"),
        );
        assert_eq!(format!("{b:?}"), format!("{a:?}"));
        assert!(a.stats.samples_released > 0);
    }

    /// Two jobs on one machine, the bed sensor in both phases of each, a
    /// room sensor throughout — and bed samples sent where no phase is
    /// open: before the first job, between a job's start and its first
    /// phase, after each job completes. `jitter` reorders within a phase.
    fn two_job_script(jitter: impl Fn(u64) -> u64) -> Vec<StreamEvent> {
        let lane = |sensor: &str, kind| LaneId {
            machine: "m0".into(),
            sensor: sensor.into(),
            kind,
        };
        let (bed, room) = (
            lane("m0.bed.0", LaneKind::Phase),
            lane("m0.room_temp", LaneKind::Environment),
        );
        let sample = |lane: &LaneId, timestamp: u64| {
            let value = (timestamp as f64 * 0.3).sin() + f64::from(timestamp % 37 == 5) * 40.0;
            StreamEvent::Sample(lane.clone(), Sample { timestamp, value })
        };
        let sensors = vec![Sensor::new("m0.bed.0", SensorKind::BedTemperature)];
        let groups = vec![RedundancyGroup::new(
            SensorKind::BedTemperature,
            vec!["m0.bed.0".into()],
        )];
        let mut script = vec![sample(&bed, 0), sample(&room, 0)];
        script.push(StreamEvent::Control(ControlEvent::machine_up(
            "m0",
            sensors,
            groups,
            &["m0.room_temp".into()],
        )));
        script.push(sample(&bed, 1));
        for (job, start) in [("j0", 0_u64), ("j1", 1000)] {
            let config = JobConfig::new(vec!["p".into()], vec![1.0]);
            script.push(StreamEvent::Control(ControlEvent::job_start(
                "m0", job, start, config,
            )));
            script.push(sample(&bed, start + 2));
            for (kind, base) in [
                (PhaseKind::WarmUp, start),
                (PhaseKind::Printing, start + 100),
            ] {
                let sensors = [bed.sensor.clone()];
                script.push(StreamEvent::Control(ControlEvent::phase_start(
                    "m0", kind, &sensors,
                )));
                for t in 0..48 {
                    script.push(sample(&bed, base + jitter(t)));
                    if t % 3 == 0 {
                        script.push(sample(&room, base + t));
                    }
                }
            }
            let caq = CaqResult::new(vec!["q".into()], vec![0.98], true);
            script.push(StreamEvent::Control(ControlEvent::job_complete("m0", caq)));
            script.push(sample(&bed, start + 200));
        }
        script
    }

    #[test]
    fn cached_routes_follow_phases_jobs_and_rejections() {
        by_handle_equals_by_id(0, &two_job_script(|t| t));
    }

    #[test]
    fn cached_routes_keep_reordering_late_drops_and_duplicates() {
        // Pairs swapped, one sample far behind the frontier, one repeated.
        let jitter = |t: u64| match t {
            30 => 2,
            40 => 39,
            t => t ^ 1,
        };
        let script = two_job_script(jitter);
        by_handle_equals_by_id(3, &script);
        let mut det = StreamDetector::new(
            AlgorithmPolicy::default(),
            StreamConfig {
                lateness: 3,
                mode: ScorerMode::BatchEquivalent,
            },
        )
        .expect("detector");
        for step in &script {
            match step {
                StreamEvent::Control(event) => det.apply(event).expect("control"),
                StreamEvent::Sample(lane, sample) => {
                    let handle = det.lane(lane);
                    let _ = det.ingest_resolved(handle, *sample);
                }
            }
        }
        let stats = det.stats();
        assert!(
            stats.late_dropped > 0 && stats.duplicates_dropped > 0,
            "{stats:?}"
        );
    }
}
