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
//! The pipelines' per-sample scores become phase/environment
//! [`LevelDetections`] through the *same* `emit_series` thresholding path
//! the batch engine uses — a phase's when it closes, the environment's on
//! every [`StreamDetector::tick`] and at [`StreamDetector::finish`], which
//! also run the upper levels (job, production line,
//! production) on its materialized [`Plant`], and propagates everything
//! through Algorithm 1's `CalcGlobalScore` — yielding the same
//! ⟨global score, outlierness, support⟩ triples as a batch run.
//!
//! ## Open pipeline → closed phase data
//!
//! A pipeline lives only while its series is open. The control that
//! closes a phase **consumes** the phase's pipelines: each one's released
//! samples move onto shared storage as a series of the job's closed
//! phases, the series is standardised and thresholded (one
//! `emit_series`) into the job's phase-level fragment, and its counters
//! fold into per-lane totals — exactly once. The control that completes
//! the job appends its [`Job`] to the materialized plant and its fragment
//! to the machine's phase-level detections, and marks the upper levels
//! (one row per completed job) stale. An assembly then costs the
//! environment series (open until finish), the upper levels when stale, a
//! reference count per shared name and column, and Algorithm 1's indexed
//! pass over the outliers: neither a `tick` nor `finish` touches a
//! series that closed before it, and the detector holds one pipeline per
//! environment sensor and per sensor of each open phase, however many
//! jobs it has seen (DESIGN.md §4.13 has the invariants and the cost
//! model).
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
use hierod_store::segment::DecodedChunk;
use hierod_store::wal::WalRecord;
use hierod_synth::ReplayEvent;
use hierod_timeseries::TimeSeries;
use std::sync::Arc;

use crate::lane::{dense_slot, LaneHandle, LaneId, LaneKind, Sample};
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
    /// detector that recovered nothing).
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

/// One open series' online scoring state: watermark reorder buffer, the
/// scorer, the released history and its scores. The control that closes
/// the series consumes it.
pub(crate) struct Pipeline {
    watermark: Watermark,
    scorer: Box<dyn OnlineScorer>,
    /// The released samples, parallel.
    timestamps: Vec<u64>,
    values: Vec<f64>,
    /// The scorer's output so far: the i-th score is the i-th released
    /// sample's.
    scored: Vec<f64>,
    failed: bool,
    /// How many released samples have already been sealed into a segment
    /// (durability layer); samples beyond this index still live only in
    /// the WAL and must be re-emitted on the next rotation.
    sealed: usize,
    /// Drop counters at the last seal — a rotation emits a chunk whenever
    /// the live counters moved past these, even with no new releases.
    sealed_stats: LatenessStats,
    /// Sequence number of the control event that opened this pipeline,
    /// when the journal numbered it (`None` for a bare detector's).
    /// Recovery matches restored chunks to pipelines through this tag.
    opened_seq: Option<u64>,
}

/// What a closed pipeline still owes the next rotation segment: its
/// released samples past the sealed index, on the shared buffers its
/// closed series holds, and its final drop counters. Only a tagged
/// (durable) pipeline leaves one.
struct Owed {
    sensor: String,
    opened_seq: u64,
    sealed: usize,
    stats: LatenessStats,
    timestamps: Arc<[u64]>,
    values: Arc<[f64]>,
}

/// One series' part of a rotation segment: the samples it released since
/// its last seal and its drop counters now, on the pipeline the control
/// `opened_seq` opened, for lane number `lane`.
pub(crate) struct Unsealed<'a> {
    pub(crate) lane: u32,
    pub(crate) opened_seq: u64,
    pub(crate) timestamps: &'a [u64],
    pub(crate) values: &'a [f64],
    pub(crate) stats: LatenessStats,
}

/// `xs` past its first `sealed` elements.
fn past<T>(xs: &[T], sealed: usize) -> &[T] {
    xs.get(sealed..).unwrap_or(&[])
}

impl Pipeline {
    fn new(lateness: u64, scorer: Box<dyn OnlineScorer>, opened_seq: Option<u64>) -> Self {
        Self {
            watermark: Watermark::new(lateness),
            scorer,
            timestamps: Vec::new(),
            values: Vec::new(),
            scored: Vec::new(),
            failed: false,
            sealed: 0,
            sealed_stats: LatenessStats::default(),
            opened_seq,
        }
    }

    /// Restores a sealed chunk of released history: the samples flow into
    /// the history and scorer exactly as their original releases did, then
    /// the watermark rewinds to the recovered frontier (`floor = max
    /// restored timestamp`) with the chunk's absolute drop counters.
    /// Re-offering the journalled carry-over samples afterwards (ascending
    /// timestamps, all above the floor) rebuilds the pre-crash watermark
    /// state exactly. Only valid on a fresh pipeline or directly after a
    /// previous `restore_chunk`, which journal-order replay guarantees.
    /// Returns the samples and drops the chunk adds to the lane's offers.
    fn restore_chunk(&mut self, ch: &DecodedChunk) -> u64 {
        let before = self.watermark.stats();
        let released = ch.timestamps.iter().copied().zip(ch.values.iter().copied());
        self.absorb_released(released);
        let stats = LatenessStats {
            late_dropped: ch.late_dropped as usize,
            duplicates_dropped: ch.duplicates_dropped as usize,
        };
        self.watermark
            .restore_state(self.timestamps.last().copied(), stats);
        (self.sealed, self.sealed_stats) = (self.timestamps.len(), stats);
        // Counters in the chunk are absolute; its drops are its increment
        // over the previous one's.
        let late = stats.late_dropped.saturating_sub(before.late_dropped);
        let dups = stats
            .duplicates_dropped
            .saturating_sub(before.duplicates_dropped);
        (ch.timestamps.len() + late + dups) as u64
    }

    /// Offers one sample; everything the watermark releases flows into the
    /// history and the scorer. A scorer error poisons the series (it will
    /// be skipped at assembly, mirroring the batch skip of unscorable
    /// series).
    fn offer(&mut self, sample: Sample, scratch: &mut Vec<(u64, f64)>) {
        scratch.clear();
        self.watermark
            .offer(sample.timestamp, sample.value, scratch);
        self.absorb_released(scratch.iter().copied());
    }

    /// Flushes the watermark and finishes the scorer (phase boundary or
    /// end of stream).
    fn finish(&mut self, scratch: &mut Vec<(u64, f64)>) {
        scratch.clear();
        self.watermark.flush(scratch);
        self.absorb_released(scratch.iter().copied());
        if !self.failed && self.scorer.finish(&mut self.scored).is_err() {
            self.failed = true;
        }
    }

    fn absorb_released(&mut self, released: impl Iterator<Item = (u64, f64)>) {
        for (t, v) in released {
            self.timestamps.push(t);
            self.values.push(v);
            if !self.failed && self.scorer.push(t, v, &mut self.scored).is_err() {
                self.failed = true;
            }
        }
    }

    /// Whether a rotation owes a segment anything of this series: releases
    /// or drops past the last seal.
    fn unsealed(&self) -> bool {
        self.timestamps.len() > self.sealed || self.watermark.stats() != self.sealed_stats
    }

    /// Marks everything released sealed, handing what the last seal had
    /// not covered to `chunk` and what the watermark still buffers to
    /// `carry`, on the lane number `lane` returns.
    fn seal(
        &mut self,
        mut lane: impl FnMut() -> u32,
        chunk: &mut impl FnMut(Unsealed<'_>),
        carry: &mut Vec<WalRecord>,
    ) {
        if self.unsealed() {
            let stats = self.watermark.stats();
            chunk(Unsealed {
                lane: lane(),
                opened_seq: self.opened_seq.unwrap_or(0),
                timestamps: past(&self.timestamps, self.sealed),
                values: past(&self.values, self.sealed),
                stats,
            });
            (self.sealed, self.sealed_stats) = (self.timestamps.len(), stats);
        }
        let mut pending = self.watermark.pending_samples().peekable();
        if pending.peek().is_some() {
            let lane = lane();
            let sample = |(timestamp, value)| WalRecord::Sample {
                lane,
                timestamp,
                value,
            };
            carry.extend(pending.map(sample));
        }
    }

    /// The released history as a series: one copy of its samples.
    fn series(&self, name: &str) -> Option<TimeSeries> {
        let (timestamps, values) = (self.timestamps.as_slice(), self.values.as_slice());
        TimeSeries::from_shared(name, timestamps.into(), values.into()).ok()
    }

    /// One raw score per released sample, or `None` for a series assembly
    /// skips: its scorer failed, or its scores are not complete yet (open
    /// series in batch-equivalent mode) — the batch path skips unscorable
    /// series the same way.
    fn raw_scores(&self) -> Option<&[f64]> {
        (!self.failed && self.scored.len() == self.timestamps.len())
            .then_some(self.scored.as_slice())
    }

    /// This pipeline's share of its lane's counters.
    fn counters(&self) -> LaneStats {
        let w = self.watermark.stats();
        LaneStats {
            released: self.timestamps.len() as u64,
            late_dropped: w.late_dropped as u64,
            duplicates_dropped: w.duplicates_dropped as u64,
            corrupt_records: 0,
            drift_events: self.scorer.drift_events(),
            refits: self.scorer.refits(),
        }
    }
}

/// Where a lane's samples currently go, as indices — no name is compared
/// on the way to the pipeline: `machines[machine].env[slot]` for an
/// environment lane, fixed once the machine is up; for a phase lane
/// `pipes[slot]` of the open phase of `machines[machine]`'s open job, good
/// until the next control event moves the open phase.
#[derive(Debug, Clone, Copy)]
struct Route {
    machine: usize,
    slot: usize,
}

/// One lane of the plant, at the number its [`LaneHandle`] carries.
struct Lane {
    id: LaneId,
    /// Where its previous sample went, until a control event moves it.
    route: Option<Route>,
    /// Samples offered on the lane, whether or not a pipeline took them:
    /// for a durable plant, the samples journalled on it.
    offered: u64,
    /// WAL records of the lane that recovery rejected as corrupt.
    corrupt: u64,
}

impl Lane {
    fn new(id: LaneId) -> Self {
        Self {
            id,
            route: None,
            offered: 0,
            corrupt: 0,
        }
    }
}

/// The plant's one lane table: every lane a [`LaneHandle`] was issued or
/// bound for, at its number, and the resolve index over it.
#[derive(Default)]
struct Lanes {
    /// By lane number; `None` for a number a damaged journal left unbound.
    table: Vec<Option<Lane>>,
    /// Resolve index over `table`; no sample walks it.
    index: BTreeMap<LaneId, LaneHandle>,
}

impl Lanes {
    /// The handle of `id`, issuing the next number on first use.
    fn issue(&mut self, id: &LaneId) -> LaneHandle {
        if let Some(&handle) = self.index.get(id) {
            return handle;
        }
        let handle = LaneHandle(self.table.len() as u32);
        self.table.push(Some(Lane::new(id.clone())));
        self.index.insert(id.clone(), handle);
        handle
    }

    fn get_mut(&mut self, handle: LaneHandle) -> Option<&mut Lane> {
        self.table.get_mut(handle.0 as usize)?.as_mut()
    }
}

/// The executing phase: its kind and per-sensor pipelines in
/// declaration order (which is the plant's series order, so the
/// materialized view ordering matches batch).
struct PhaseState {
    kind: PhaseKind,
    pipes: Vec<(String, Pipeline)>,
}

/// The open job's event-sourced state.
struct JobState {
    id: String,
    start: u64,
    config: JobConfig,
    /// The open phase, if one has started since the last closed.
    phase: Option<PhaseState>,
    /// The closed phases, on their series' shared buffers; they become
    /// the plant's [`Job`] when the job completes.
    closed: Vec<Phase>,
    /// The closed phases' phase-level detections, standardised and
    /// thresholded as each phase closed; appended to the machine's
    /// detections when the job completes.
    fragment: LevelDetections,
}

/// One machine's event-sourced state. Its sensor inventory and its
/// completed jobs live in the machine's line of the materialized plant.
struct MachineState {
    job: Option<JobState>,
    /// The completed jobs' phase-level detections, in job order — what
    /// every assembly shares instead of re-thresholding closed series.
    phase: LevelDetections,
    /// Environment pipelines, continuous across jobs, in declaration
    /// order.
    env: Vec<(String, Pipeline)>,
    /// Counters of the closed (phase) pipelines, folded per sensor as
    /// their phase closed, so `stats`/`lane_stats` walk open pipelines
    /// only — and a close looks its lane up by `&str`, cloning the name
    /// the first time only.
    closed_lanes: BTreeMap<String, LaneStats>,
    /// What closed pipelines owe the next rotation segment, in close
    /// order.
    owed: Vec<Owed>,
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
    /// `machines`, holding every completed job. Jobs are only ever
    /// appended, by the control that completes them; an assembly replaces
    /// nothing but the environment series.
    plant: Plant,
    /// The job, production-line and production detections of the plant.
    /// Those levels read only completed jobs' setup and CAQ rows, so a
    /// job completion marks them stale (`None`) and the next assembly
    /// re-runs them; every other shares them.
    upper: Option<BTreeMap<Level, LevelDetections>>,
    /// How many closed pipelines had failed scorers.
    closed_failed: u64,
    scratch: Vec<(u64, f64)>,
    samples_ingested: u64,
    /// The plant's lanes, by the number a [`LaneHandle`] carries.
    lanes: Lanes,
    /// WAL corruption events recovery survived (at most one: a damaged
    /// tail is truncated at its first bad record).
    corrupt_records: u64,
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
            upper: None,
            closed_failed: 0,
            scratch: Vec::new(),
            samples_ingested: 0,
            lanes: Lanes::default(),
            corrupt_records: 0,
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
        for (machine, sensor, kind, pipe) in self.pipelines_mut() {
            if !pipe.failed {
                f(machine, sensor, kind, &mut pipe.scorer);
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
        self.apply_tagged(None, event)
    }

    /// [`apply`](Self::apply), tagging every pipeline the event opens with
    /// `seq`, the sequence number the journal gave the event.
    pub(crate) fn apply_tagged(&mut self, seq: Option<u64>, event: &ControlEvent) -> Result<()> {
        // Whatever the event does to the open phases, no cached route
        // survives it; the next sample of each lane looks its own up again.
        for lane in self.lanes.table.iter_mut().flatten() {
            lane.route = None;
        }
        match event {
            ControlEvent::MachineUp {
                machine,
                sensors,
                redundancy,
                env_sensors,
            } => self.machine_up(machine, sensors, redundancy, env_sensors, seq),
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
            } => {
                // The phase opens within the machine's open job, closing
                // the previous one (`close_open_phase`).
                let pipes = self.open_pipelines(sensors, LaneKind::Phase, seq)?;
                let kind = *kind;
                self.close_open_phase(machine)?.phase = Some(PhaseState { kind, pipes });
                Ok(())
            }
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
        seq: Option<u64>,
    ) -> Result<()> {
        if self.machines.iter().any(|(id, _)| id == machine) {
            return Err(DetectError::invalid(
                "machine",
                format!("machine {machine} already registered"),
            ));
        }
        let env = self.open_pipelines(env_sensors, LaneKind::Environment, seq)?;
        self.machines.push((
            machine.to_string(),
            MachineState {
                job: None,
                phase: LevelDetections::empty(Level::Phase),
                env,
                closed_lanes: BTreeMap::new(),
                owed: Vec::new(),
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
        if m.job.is_some() {
            return Err(DetectError::invalid(
                "job",
                format!("machine {machine} already has an open job"),
            ));
        }
        m.job = Some(JobState {
            id: job.to_string(),
            start,
            config: config.clone(),
            phase: None,
            closed: Vec::new(),
            fragment: LevelDetections::empty(Level::Phase),
        });
        Ok(())
    }

    /// Completes the machine's open job with its CAQ result: its last
    /// phase closes, the [`Job`] joins the machine's line of the
    /// materialized plant and its fragment the machine's phase-level
    /// detections, and the upper levels go stale. Only completed jobs
    /// enter the plant — their feature vectors would otherwise change
    /// dimension mid-job and poison the line-level series.
    fn job_complete(&mut self, machine: &str, caq: &CaqResult) -> Result<()> {
        self.close_open_phase(machine)?;
        let mut lines = self.machines.iter_mut().zip(&mut self.plant.lines);
        if let Some(((_, m), line)) = lines.find(|((id, _), _)| id == machine) {
            if let Some(job) = m.job.take() {
                m.phase.absorb(job.fragment);
                line.jobs.push(Job {
                    id: job.id,
                    start: job.start,
                    config: job.config,
                    phases: job.closed,
                    caq: caq.clone(),
                });
                self.upper = None;
            }
        }
        Ok(())
    }

    /// One pipeline per sensor, in declaration order, tagged with `seq`.
    fn open_pipelines(
        &self,
        sensors: &[String],
        kind: LaneKind,
        seq: Option<u64>,
    ) -> Result<Vec<(String, Pipeline)>> {
        sensors
            .iter()
            .map(|name| {
                let scorer = self.build_scorer(kind)?;
                let pipe = Pipeline::new(self.config.lateness, scorer, seq);
                Ok((name.clone(), pipe))
            })
            .collect()
    }

    /// Closes the open phase of the machine's open job, if any, and
    /// returns that job. The phase's pipelines finish and are consumed
    /// here, once: each series moves onto shared buffers as one of the
    /// job's closed phases and is standardised and thresholded into the
    /// job's fragment, each pipeline's counters fold into its lane's
    /// totals, and a tagged pipeline with anything unsealed leaves what it
    /// owes the next rotation. No later tick or `finish` reads the series
    /// again. Series whose scorer failed are left out of the fragment, as
    /// the batch path skips unscorable series; degenerate ones are left
    /// out of the phase too.
    fn close_open_phase(&mut self, machine: &str) -> Result<&mut JobState> {
        let threshold = self.policy.threshold(Level::Phase);
        let Self {
            machines,
            plant,
            scratch,
            closed_failed,
            ..
        } = self;
        let MachineState {
            job,
            closed_lanes,
            owed,
            ..
        } = find_machine(machines, machine)?;
        let job = job.as_mut().ok_or_else(|| DetectError::Missing {
            what: format!("open job on machine {machine}"),
        })?;
        let Some(PhaseState { kind, pipes }) = job.phase.take() else {
            return Ok(job);
        };
        let mut series = Vec::with_capacity(pipes.len());
        for (name, mut pipe) in pipes {
            pipe.finish(scratch);
            let counters = pipe.counters();
            match closed_lanes.get_mut(name.as_str()) {
                Some(lane) => lane.add(&counters),
                None => {
                    closed_lanes.insert(name.clone(), counters);
                }
            }
            *closed_failed += u64::from(pipe.failed);
            let complete = pipe.raw_scores().is_some();
            let unsealed = pipe.unsealed();
            let timestamps: Arc<[u64]> = std::mem::take(&mut pipe.timestamps).into();
            let values: Arc<[f64]> = std::mem::take(&mut pipe.values).into();
            if let Some(opened_seq) = pipe.opened_seq.filter(|_| unsealed) {
                owed.push(Owed {
                    sensor: name.clone(),
                    opened_seq,
                    sealed: pipe.sealed,
                    stats: pipe.watermark.stats(),
                    timestamps: Arc::clone(&timestamps),
                    values: Arc::clone(&values),
                });
            }
            let Ok(closed) = TimeSeries::from_shared(name, timestamps, values) else {
                continue;
            };
            if complete {
                let at = SeriesAt {
                    machine: machine.to_string(),
                    job: Some(job.id.clone()),
                    phase: Some(kind),
                    series: closed.share(),
                };
                // At the phase level `emit_series` reads the series, its
                // scores and the threshold — nothing of the plant, which
                // does not hold this job yet.
                emit_series(
                    plant,
                    Level::Phase,
                    threshold,
                    &at,
                    &pipe.scored,
                    false,
                    &mut job.fragment,
                );
            }
            series.push(closed);
        }
        job.closed.push(Phase::new(kind, series, Vec::new()));
        Ok(job)
    }

    /// The handle of `lane`, the next lane number on first use. Resolving
    /// never fails and touches no pipeline: whether the lane has anywhere
    /// to go is decided per sample, as for [`ingest`](Self::ingest).
    pub fn lane(&mut self, lane: &LaneId) -> LaneHandle {
        self.lanes.issue(lane)
    }

    /// The handle issued or bound for `lane`, if any — or else the number
    /// [`lane`](Self::lane) would issue it.
    pub(crate) fn lane_number(&self, lane: &LaneId) -> std::result::Result<LaneHandle, u32> {
        let next = self.lanes.table.len() as u32;
        self.lanes.index.get(lane).copied().ok_or(next)
    }

    /// Binds `lane` at number `n` as a journalled definition declares it;
    /// one at or above [`MAX_LANES`](crate::MAX_LANES) stays unbound. A
    /// number binds once: every segment declares its lanes again.
    pub(crate) fn bind_lane(&mut self, n: u32, lane: LaneId) {
        if let Some(slot @ None) = dense_slot(&mut self.lanes.table, n) {
            self.lanes.index.insert(lane.clone(), LaneHandle(n));
            *slot = Some(Lane::new(lane));
        }
    }

    /// Whether `handle` names a bound lane number.
    pub(crate) fn is_bound(&self, handle: LaneHandle) -> bool {
        matches!(self.lanes.table.get(handle.0 as usize), Some(Some(_)))
    }

    /// Every bound lane number with its id, ascending.
    pub(crate) fn lane_defs(&self) -> impl Iterator<Item = (u32, &LaneId)> {
        let table = self.lanes.table.iter().enumerate();
        table.filter_map(|(n, lane)| Some((n as u32, &lane.as_ref()?.id)))
    }

    /// Samples offered per lane by handle (or restored into it), for
    /// every lane that has any.
    pub(crate) fn offered(&self) -> BTreeMap<LaneId, u64> {
        let mut out = BTreeMap::new();
        for lane in self.lanes.table.iter().flatten() {
            *out.entry(lane.id.clone()).or_insert(0) += lane.offered;
        }
        out.retain(|_, offered| *offered > 0);
        out
    }

    /// Records the one WAL corruption event recovery survived, on lane
    /// number `lane` when the damaged record named a bound one.
    pub(crate) fn note_corruption(&mut self, lane: Option<u32>) {
        self.corrupt_records = 1;
        if let Some(lane) = lane.and_then(|n| self.lanes.get_mut(LaneHandle(n))) {
            lane.corrupt = 1;
        }
    }

    /// Routes one sample into its pipeline: phase lanes go to the current
    /// open phase of the machine's open job, environment lanes to the
    /// machine's continuous environment pipeline.
    ///
    /// # Errors
    /// [`DetectError::Missing`] when no pipeline is open for the lane.
    pub fn ingest(&mut self, lane: &LaneId, sample: Sample) -> Result<()> {
        let route = find_route(&self.machines, lane)?;
        pipe_at(&mut self.machines, route, lane)?.offer(sample, &mut self.scratch);
        self.samples_ingested += 1;
        Ok(())
    }

    /// [`ingest`](Self::ingest) for a lane resolved by
    /// [`lane`](Self::lane): the route found for the lane's previous
    /// sample is reused until a control event is applied, so a sample
    /// costs index arithmetic, not name comparisons. The lane counts the
    /// offer whether or not a pipeline takes it.
    ///
    /// # Errors
    /// As [`ingest`](Self::ingest); also [`DetectError::Missing`] for a
    /// handle this detector did not issue.
    pub fn ingest_resolved(&mut self, lane: LaneHandle, sample: Sample) -> Result<()> {
        let Self {
            machines,
            lanes,
            scratch,
            ..
        } = self;
        let lane = lanes.get_mut(lane).ok_or_else(|| DetectError::Missing {
            what: format!("lane number {}", lane.0),
        })?;
        lane.offered += 1;
        resolve(machines, lane)?.offer(sample, scratch);
        self.samples_ingested += 1;
        Ok(())
    }

    /// Restores a sealed chunk into the open pipeline `lane` routes to —
    /// the route a sample on the lane takes — if the control
    /// `ch.after_control_seq` opened it, and credits the chunk's samples
    /// and its drops past the pipeline's as ingested and offered. `false`,
    /// touching nothing, for a chunk that addresses no open pipeline:
    /// journal-order replay never produces one (a chunk sorts directly
    /// after the control that opened its pipeline and before any later
    /// control, which may close it), so only a damaged or crafted journal
    /// does.
    pub(crate) fn restore_chunk(&mut self, lane: LaneHandle, ch: &DecodedChunk) -> bool {
        let Some(lane) = self.lanes.get_mut(lane) else {
            return false;
        };
        let pipe = resolve(&mut self.machines, lane).ok();
        let Some(pipe) = pipe.filter(|pipe| pipe.opened_seq == Some(ch.after_control_seq)) else {
            return false;
        };
        let credit = pipe.restore_chunk(ch);
        lane.offered += credit;
        self.samples_ingested += credit;
        true
    }

    /// Every open pipeline with its lane coordinates (machine, sensor,
    /// kind), in plant order: each machine's environment pipelines first,
    /// then its open phase's.
    fn pipelines(&self) -> impl Iterator<Item = (&str, &str, LaneKind, &Pipeline)> {
        self.machines.iter().flat_map(|(machine, m)| {
            let env = m.env.iter().map(|(n, p)| (LaneKind::Environment, n, p));
            let phase = m.job.iter().flat_map(|job| &job.phase);
            let phase = phase.flat_map(|phase| &phase.pipes);
            env.chain(phase.map(|(n, p)| (LaneKind::Phase, n, p)))
                .map(move |(kind, n, p)| (machine.as_str(), n.as_str(), kind, p))
        })
    }

    /// [`pipelines`](Self::pipelines), mutably.
    fn pipelines_mut(&mut self) -> impl Iterator<Item = (&str, &str, LaneKind, &mut Pipeline)> {
        self.machines.iter_mut().flat_map(|(machine, m)| {
            let env = m.env.iter_mut().map(|(n, p)| (LaneKind::Environment, n, p));
            let phase = m.job.iter_mut().flat_map(|job| &mut job.phase);
            let phase = phase.flat_map(|phase| &mut phase.pipes);
            let machine = machine.as_str();
            env.chain(phase.map(|(n, p)| (LaneKind::Phase, n, p)))
                .map(move |(kind, n, p)| (machine, n.as_str(), kind, p))
        })
    }

    /// Marks everything released so far sealed and hands `chunk` what a
    /// rotation segment owes: per machine, in this order, its environment
    /// pipelines' unsealed parts, what its closed pipelines left owing (in
    /// close order), and its open phase's. Returns every open watermark's
    /// buffered samples, in the same order, as the next WAL's opening
    /// records. Both are numbered by the lane table (a lane no sample
    /// named, which no durable plant has, is issued a number here).
    pub(crate) fn seal(&mut self, mut chunk: impl FnMut(Unsealed<'_>)) -> Vec<WalRecord> {
        let mut carry = Vec::new();
        let Self {
            machines, lanes, ..
        } = self;
        for (machine, m) in machines {
            let mut lane = |sensor: &str, kind| {
                let id = LaneId {
                    machine: machine.clone(),
                    sensor: sensor.to_string(),
                    kind,
                };
                lanes.issue(&id).0
            };
            for (sensor, pipe) in &mut m.env {
                let env = || lane(sensor, LaneKind::Environment);
                pipe.seal(env, &mut chunk, &mut carry);
            }
            for owed in m.owed.drain(..) {
                chunk(Unsealed {
                    lane: lane(&owed.sensor, LaneKind::Phase),
                    opened_seq: owed.opened_seq,
                    timestamps: past(&owed.timestamps, owed.sealed),
                    values: past(&owed.values, owed.sealed),
                    stats: owed.stats,
                });
            }
            let phase = m.job.iter_mut().flat_map(|job| &mut job.phase);
            for (sensor, pipe) in phase.flat_map(|phase| &mut phase.pipes) {
                pipe.seal(|| lane(sensor, LaneKind::Phase), &mut chunk, &mut carry);
            }
        }
        carry
    }

    /// Current ingestion counters.
    pub fn stats(&self) -> StreamStats {
        let mut total = LaneStats::default();
        let mut series_failed = self.closed_failed;
        for lane in self
            .machines
            .iter()
            .flat_map(|(_, m)| m.closed_lanes.values())
        {
            total.add(lane);
        }
        for (_, _, _, pipe) in self.pipelines() {
            total.add(&pipe.counters());
            series_failed += u64::from(pipe.failed);
        }
        StreamStats {
            samples_ingested: self.samples_ingested,
            samples_released: total.released,
            late_dropped: total.late_dropped,
            duplicates_dropped: total.duplicates_dropped,
            series_failed,
            corrupt_records: self.corrupt_records,
            drift_events: total.drift_events,
            refits: total.refits,
        }
    }

    /// Per-lane release/drop counters, aggregated over every pipeline
    /// (open or closed) the lane ever fed, with the WAL corruption
    /// recovery attributed to a lane.
    pub fn lane_stats(&self) -> BTreeMap<LaneId, LaneStats> {
        let mut out = BTreeMap::new();
        for (machine, m) in &self.machines {
            for (sensor, lane) in &m.closed_lanes {
                let id = LaneId {
                    machine: machine.clone(),
                    sensor: sensor.clone(),
                    kind: LaneKind::Phase,
                };
                out.insert(id, *lane);
            }
        }
        for (machine, sensor, kind, pipe) in self.pipelines() {
            out.entry(LaneId {
                machine: machine.to_string(),
                sensor: sensor.to_string(),
                kind,
            })
            .or_default()
            .add(&pipe.counters());
        }
        let lanes = self.lanes.table.iter().flatten();
        for lane in lanes.filter(|lane| lane.corrupt > 0) {
            out.entry(lane.id.clone()).or_default().corrupt_records += lane.corrupt;
        }
        out
    }

    /// Assembles an interim report from everything released so far: the
    /// completed jobs' phase detections (built as each phase closed) are
    /// gathered, the environment series re-evaluated, the upper levels
    /// re-run if a job completed since the last assembly, and Algorithm
    /// 1's propagation run. A phase series enters the report once its job
    /// completes, standardised when its phase closed; no tick reads it
    /// again. In [`ScorerMode::BatchEquivalent`] its scores come into
    /// being at that close; [`ScorerMode::Incremental`] scores them per
    /// sample.
    ///
    /// Takes `&mut self` for the two things an assembly refreshes: the
    /// cached upper levels and the materialized environment series. It
    /// reads no phase state.
    ///
    /// # Errors
    /// Propagates upper-level detector failures; the upper levels stay
    /// stale, so the next tick runs them again.
    pub fn tick(&mut self) -> Result<StreamReport> {
        if self.upper.is_none() {
            let mut upper = BTreeMap::new();
            for level in [Level::Job, Level::ProductionLine, Level::Production] {
                upper.insert(level, detect_level(&self.plant, level, &self.policy)?);
            }
            self.upper = Some(upper);
        }
        let environment = self.assemble_environment();
        let phase = gather(Level::Phase, self.machines.iter().map(|(_, m)| &m.phase));
        let mut detections =
            BTreeMap::from([(Level::Phase, phase), (Level::Environment, environment)]);
        let upper = self.upper.iter().flatten();
        detections.extend(upper.map(|(&level, d)| (level, d.clone())));
        let report = build_report(&self.plant, Level::Phase, &detections, &self.policy)?;
        Ok(StreamReport {
            detections,
            report,
            stats: self.stats(),
            lane_stats: self.lane_stats(),
        })
    }

    /// Flushes every watermark, finishes every scorer, and assembles the
    /// final report. Only open pipelines are left to finalize here — the
    /// environment's and any still-open phase's, whose job never completes
    /// and so never enters the report; a phase that closed before costs
    /// `finish` nothing but its share of the assembly.
    ///
    /// # Errors
    /// Propagates upper-level detector failures.
    pub fn finish(mut self) -> Result<StreamReport> {
        self.finalize_pipelines();
        self.tick()
    }

    /// Flushes every open watermark and finishes every open scorer without
    /// assembling.
    pub(crate) fn finalize_pipelines(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for (_, _, _, pipe) in self.pipelines_mut() {
            pipe.finish(&mut scratch);
        }
        self.scratch = scratch;
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
            .job
            .as_ref()
            .and_then(|job| job.phase.as_ref())
            .and_then(|phase| named(&phase.pipes)),
    }
    .map(|slot| Route { machine, slot })
    .ok_or_else(|| no_open_pipeline(&lane.sensor))
}

/// The open pipeline `route` names for `lane`.
fn pipe_at<'a>(
    machines: &'a mut [(String, MachineState)],
    route: Route,
    lane: &LaneId,
) -> Result<&'a mut Pipeline> {
    let machine = machines.get_mut(route.machine).map(|(_, m)| m);
    let pipes = match lane.kind {
        LaneKind::Environment => machine.map(|m| &mut m.env),
        LaneKind::Phase => machine
            .and_then(|m| m.job.as_mut())
            .and_then(|job| job.phase.as_mut())
            .map(|phase| &mut phase.pipes),
    };
    pipes
        .and_then(|pipes| pipes.get_mut(route.slot))
        .map(|(_, pipe)| pipe)
        .ok_or_else(|| no_open_pipeline(&lane.sensor))
}

/// The open pipeline `lane` routes to, through the route cached for its
/// previous sample when a control event has not cleared it since.
fn resolve<'a>(
    machines: &'a mut [(String, MachineState)],
    lane: &mut Lane,
) -> Result<&'a mut Pipeline> {
    let route = match lane.route {
        Some(route) => route,
        None => *lane.route.insert(find_route(machines, &lane.id)?),
    };
    pipe_at(machines, route, &lane.id)
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
        // The job joined the plant with its completion, before any tick.
        let first_plant = det.plant.clone();
        assert_eq!(first_plant.lines[0].jobs.len(), 1);
        let first = det.tick().expect("first tick");
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
    fn a_phase_is_standardised_when_it_closes_and_shared_by_the_next_tick() {
        let mut det = detector(ScorerMode::BatchEquivalent);
        bring_up(&mut det);
        open_warm_up(&mut det);
        let bed = LaneId {
            machine: "m0".into(),
            sensor: "m0.bed.0".into(),
            kind: LaneKind::Phase,
        };
        for t in 0..64_u64 {
            let value = if t == 40 {
                90.0
            } else {
                (t as f64 * 0.4).sin()
            };
            det.ingest(
                &bed,
                Sample {
                    timestamp: t,
                    value,
                },
            )
            .expect("ingest");
        }
        let job = |det: &StreamDetector| {
            let (_, m) = &det.machines[0];
            m.job.as_ref().map(|job| {
                let live = job.phase.as_ref().map_or(0, |phase| phase.pipes.len());
                (live, job.closed.len(), job.fragment.series_scores.clone())
            })
        };
        let (live, closed, fragment) = job(&det).expect("open job");
        assert_eq!((live, closed, fragment.len()), (1, 0, 0), "warm-up is open");

        // The printing phase's start closes the warm-up: no tick yet.
        let sensors = [bed.sensor.clone()];
        det.apply(&ControlEvent::phase_start(
            "m0",
            PhaseKind::Printing,
            &sensors,
        ))
        .expect("phase_start");
        let (live, closed, warm_up) = job(&det).expect("open job");
        assert_eq!((live, closed, warm_up.len()), (1, 1, 1), "warm-up closed");
        for t in 100..164_u64 {
            let value = (t as f64 * 0.3).cos();
            det.ingest(
                &bed,
                Sample {
                    timestamp: t,
                    value,
                },
            )
            .expect("ingest");
        }
        complete_job(&mut det);
        // The completion moved the job into the plant, no tick needed, and
        // left no pipeline open.
        assert!(job(&det).is_none(), "no open job");
        assert_eq!(det.pipelines().count(), 1, "the room sensor's only");
        assert_eq!(det.plant.lines[0].jobs[0].phases.len(), 2);
        let fragment = det.machines[0].1.phase.series_scores.clone();
        assert_eq!(fragment.len(), 2);
        assert!(Arc::ptr_eq(&fragment[0].z, &warm_up[0].z));

        let report = det.tick().expect("tick");
        let phase = &report.detections[&Level::Phase];
        assert_eq!(phase.series_scores.len(), 2);
        for (ticked, closed) in phase.series_scores.iter().zip(&fragment) {
            assert!(Arc::ptr_eq(&ticked.z, &closed.z), "re-standardised");
            assert!(Arc::ptr_eq(&ticked.timestamps, &closed.timestamps));
        }
        assert!(phase.outliers.iter().any(|o| o.index == Some(40)));
    }

    #[test]
    fn held_pipelines_are_bounded_by_the_open_state() {
        let mut det = detector(ScorerMode::BatchEquivalent);
        bring_up(&mut det);
        let bed = LaneId {
            machine: "m0".into(),
            sensor: "m0.bed.0".into(),
            kind: LaneKind::Phase,
        };
        let (mut held, mut after) = (Vec::new(), Vec::new());
        for job in 0..20_u64 {
            let config = JobConfig::new(vec!["p".into()], vec![1.0]);
            det.apply(&ControlEvent::job_start("m0", "j", job * 100, config))
                .expect("job_start");
            let sensors = [bed.sensor.clone()];
            det.apply(&ControlEvent::phase_start(
                "m0",
                PhaseKind::Printing,
                &sensors,
            ))
            .expect("phase_start");
            for t in 0..16 {
                let (timestamp, value) = (job * 100 + t, (t as f64).sin());
                det.ingest(&bed, Sample { timestamp, value })
                    .expect("ingest");
            }
            // Held mid-phase: the room sensor's and the open phase's.
            held.push(det.pipelines_mut().count());
            complete_job(&mut det);
            // Between jobs: the room sensor's only.
            after.push(det.pipelines_mut().count());
        }
        assert_eq!(det.plant.lines[0].jobs.len(), 20);
        assert_eq!((held[0], held[19]), (2, 2), "{held:?}");
        assert_eq!((after[0], after[19]), (1, 1), "{after:?}");
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
