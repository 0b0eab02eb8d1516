//! Store-driven refit: [`AdaptiveStream`] rebuilds drifted scorers from
//! sealed history.
//!
//! ## Commit-point rules (DESIGN.md §4.19)
//!
//! Scorer swaps happen **only** inside [`AdaptiveStream::tick`], after
//! the inner durable tick has assembled its report:
//!
//! 1. Already-emitted scores are never revised — a swap changes future
//!    scores only.
//! 2. The decision to refit is a deterministic function of the drive
//!    sequence: drift monitors are deterministic over the score stream,
//!    the schedule is a function of the tick ordinal, and training data
//!    comes from the store's sealed history (itself a deterministic
//!    function of the journalled inputs). Re-driving the same inputs
//!    with the same policies reproduces the same refits at the same
//!    ticks.
//! 3. Scorers are *derived* state: the durability contract journals
//!    inputs, not models, so swapping a scorer never touches the WAL.
//!
//! ## Refit mechanics
//!
//! On a tick where at least one lane wants a refit (drift pending, or
//! the schedule fires), the stream rotates — sealing released samples
//! into an immutable segment — snapshots the sealed storage, and for
//! each lane: range-scans the trailing training window through
//! [`HistoryReader`], builds a fresh scorer for the lane's kind through
//! the `AlgoSpec` registry
//! ([`build_lane_scorer`](hierod_stream::StreamDetector::build_lane_scorer)), warms
//! it by replaying the training samples, and swaps it into the lane's
//! [`DriftingScorer`] wrapper.

use std::sync::Arc;

use hierod_core::AlgorithmPolicy;
use hierod_detect::online::OnlineScorer;
use hierod_detect::{DetectError, Result};
use hierod_history::reader::{snapshot, HistoryReader, RangeQuery};
use hierod_store::storage::Storage;
use hierod_store::store::StoreOptions;
use hierod_stream::{
    ControlEvent, DurableStream, LaneId, LaneKind, Sample, ScorerMode, StreamConfig, StreamReport,
};

use crate::drift::MonitorSpec;
use crate::scorer::DriftingScorer;

/// Maps a storage failure into the detection error domain.
fn substrate(e: std::io::Error) -> DetectError {
    DetectError::Substrate(format!("adapt: {e}"))
}

/// Why a lane was refitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefitCause {
    /// A drift monitor latched a pending drift.
    Drift,
    /// The periodic schedule fired.
    Schedule,
}

/// One performed refit, for reports and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct RefitRecord {
    /// Adaptive tick ordinal (1-based) at which the swap committed.
    pub tick: u64,
    /// Machine of the refitted lane.
    pub machine: String,
    /// Sensor of the refitted lane.
    pub sensor: String,
    /// Training samples replayed into the fresh scorer.
    pub trained_samples: usize,
    /// What triggered the refit.
    pub cause: RefitCause,
}

/// When and how to refit.
#[derive(Debug, Clone, PartialEq)]
pub struct RefitPolicy {
    /// Refit a lane when its drift monitor latches an event.
    pub on_drift: bool,
    /// Additionally refit every lane each `k` ticks (`None` disables
    /// the schedule).
    pub every_ticks: Option<u64>,
    /// Trailing history window (in ticks) replayed as training data.
    pub training_window: u64,
    /// Minimum training samples required to commit a swap; lanes with
    /// less sealed history keep their current scorer (the drift flag is
    /// left pending, so the next tick retries with more history).
    pub min_training: usize,
}

impl Default for RefitPolicy {
    fn default() -> Self {
        Self {
            on_drift: true,
            every_ticks: None,
            training_window: 1024,
            min_training: 32,
        }
    }
}

/// A [`DurableStream`] with drift-driven, store-trained scorer refits.
///
/// Construction with [`AdaptiveStream::open`] (or
/// [`attach`](AdaptiveStream::attach)) installs the drift-monitor
/// wrapper; [`passthrough`](AdaptiveStream::passthrough) wraps without
/// adaptation, in which case every operation delegates 1:1 and the
/// finish report is byte-identical to the plain durable stream (pinned
/// by `tests/adapt_equivalence.rs`).
pub struct AdaptiveStream<S: Storage> {
    inner: DurableStream<S>,
    policy: RefitPolicy,
    enabled: bool,
    ticks: u64,
    refit_log: Vec<RefitRecord>,
}

impl<S: Storage> AdaptiveStream<S> {
    /// Opens (or recovers) a durable stream on `storage` with adaptation
    /// enabled: the stream config is forced to
    /// [`ScorerMode::Incremental`] (a refit re-warms a bounded-memory
    /// scorer from the training window) and every pipeline scorer is
    /// wrapped in a [`DriftingScorer`] built from `monitor`.
    ///
    /// # Errors
    /// As [`DurableStream::open`].
    pub fn open(
        policy: AlgorithmPolicy,
        mut config: StreamConfig,
        storage: S,
        options: StoreOptions,
        monitor: MonitorSpec,
        refit: RefitPolicy,
    ) -> Result<Self> {
        config.mode = ScorerMode::Incremental;
        let (stream, _recovery) = DurableStream::open(policy, config, storage, options)?;
        Ok(Self::attach(stream, monitor, refit))
    }

    /// Enables adaptation on an already-open durable stream, whatever
    /// its scorer mode: installs the wrapper for every pipeline opened
    /// afterwards and re-wraps every currently open pipeline (scorers
    /// recovered before the attach get a fresh monitor; their warm
    /// scoring state is preserved).
    pub fn attach(mut inner: DurableStream<S>, monitor: MonitorSpec, refit: RefitPolicy) -> Self {
        let det = inner.detector_mut();
        let spec = monitor.clone();
        det.set_scorer_wrapper(Arc::new(move |_kind, scorer| {
            Box::new(DriftingScorer::new(scorer, spec.build()))
        }));
        det.visit_scorers(&mut |_m, _s, _k, slot| {
            let already = slot.as_any_mut().is_some_and(|a| a.is::<DriftingScorer>());
            if !already {
                let bare = std::mem::replace(slot, Box::new(Hole));
                *slot = Box::new(DriftingScorer::new(bare, monitor.build()));
            }
        });
        Self {
            inner,
            policy: refit,
            enabled: true,
            ticks: 0,
            refit_log: Vec::new(),
        }
    }

    /// Wraps without adaptation: no wrapper is installed and
    /// [`tick`](Self::tick) delegates without polling monitors. The
    /// equivalence tests drive this side-by-side with a plain
    /// [`DurableStream`] and pin byte-identical finish reports.
    pub fn passthrough(inner: DurableStream<S>) -> Self {
        Self {
            inner,
            policy: RefitPolicy::default(),
            enabled: false,
            ticks: 0,
            refit_log: Vec::new(),
        }
    }

    /// `true` when adaptation (wrapper + refit polling) is active.
    pub fn is_adaptive(&self) -> bool {
        self.enabled
    }

    /// Every refit performed so far, in commit order.
    pub fn refit_log(&self) -> &[RefitRecord] {
        &self.refit_log
    }

    /// The wrapped durable stream (read-only) — counters and the
    /// detector are reached through it (`.durable().stats()`, …).
    pub fn durable(&self) -> &DurableStream<S> {
        &self.inner
    }

    /// Unwraps back into the durable stream.
    pub fn into_inner(self) -> DurableStream<S> {
        self.inner
    }

    /// Delegates to [`DurableStream::control`].
    ///
    /// # Errors
    /// As the delegate.
    pub fn control(&mut self, event: &ControlEvent) -> Result<()> {
        self.inner.control(event)
    }

    /// Delegates to [`DurableStream::ingest`].
    ///
    /// # Errors
    /// As the delegate.
    pub fn ingest(&mut self, lane: &LaneId, sample: Sample) -> Result<()> {
        self.inner.ingest(lane, sample)
    }

    /// Delegates to [`DurableStream::rotate`].
    ///
    /// # Errors
    /// As the delegate.
    pub fn rotate(&mut self) -> Result<()> {
        self.inner.rotate()
    }

    /// Ticks the inner stream, then — with adaptation enabled — runs the
    /// refit pass: polls every lane's drift flag and the schedule, and
    /// commits any due swaps. The returned report reflects the state
    /// *before* the swaps (rule 1: emitted scores are never revised).
    ///
    /// # Errors
    /// As [`DurableStream::tick`], plus storage failures from sealing or
    /// scanning training history.
    pub fn tick(&mut self) -> Result<StreamReport> {
        self.ticks += 1;
        let report = self.inner.tick()?;
        if self.enabled {
            self.refit_pass()?;
        }
        Ok(report)
    }

    /// Delegates to [`DurableStream::finish`]. No final refit pass: the
    /// stream is over, adaptation has nothing left to improve.
    ///
    /// # Errors
    /// As the delegate.
    pub fn finish(self) -> Result<StreamReport> {
        self.inner.finish()
    }

    /// The refit pass. See the module docs for the commit-point rules.
    fn refit_pass(&mut self) -> Result<()> {
        let scheduled = self
            .policy
            .every_ticks
            .is_some_and(|k| k > 0 && self.ticks % k == 0);
        let on_drift = self.policy.on_drift;
        // Phase 1: collect lanes due for a refit (no swaps yet — the
        // scan below needs `&self.inner`).
        let mut plan: Vec<(String, String, LaneKind, RefitCause)> = Vec::new();
        self.inner
            .detector_mut()
            .visit_scorers(&mut |m, s, k, slot| {
                let Some(d) = slot
                    .as_any_mut()
                    .and_then(|a| a.downcast_mut::<DriftingScorer>())
                else {
                    return;
                };
                let cause = if on_drift && d.drift_pending() {
                    Some(RefitCause::Drift)
                } else if scheduled {
                    Some(RefitCause::Schedule)
                } else {
                    None
                };
                if let Some(c) = cause {
                    plan.push((m.to_string(), s.to_string(), k, c));
                }
            });
        if plan.is_empty() {
            return Ok(());
        }
        // Phase 2: seal released history so training data is scannable.
        self.inner.rotate()?;
        let reader = {
            let (storage, _) = self.inner.sealed_storage();
            HistoryReader::new(snapshot(storage).map_err(substrate)?).map_err(substrate)?
        };
        // Phase 3: per lane — scan, rebuild, warm, swap.
        for (machine, sensor, kind, cause) in plan {
            let Some(training) =
                self.training_samples(&reader, &machine, &sensor, self.policy.training_window)?
            else {
                continue;
            };
            if training.len() < self.policy.min_training {
                continue; // keep the pending flag latched; retry next tick
            }
            let mut fresh = self.inner.detector().build_lane_scorer(kind)?;
            let mut sink = Vec::new();
            for &(t, v) in &training {
                fresh.push(t, v, &mut sink)?;
                sink.clear();
            }
            let trained = training.len();
            let mut fresh = Some(fresh);
            let mut committed = false;
            self.inner
                .detector_mut()
                .visit_scorers(&mut |m, s, _k, slot| {
                    if m != machine || s != sensor {
                        return;
                    }
                    let Some(d) = slot
                        .as_any_mut()
                        .and_then(|a| a.downcast_mut::<DriftingScorer>())
                    else {
                        return;
                    };
                    if let Some(f) = fresh.take() {
                        drop(d.swap_inner(f));
                        committed = true;
                    }
                });
            if committed {
                self.refit_log.push(RefitRecord {
                    tick: self.ticks,
                    machine,
                    sensor,
                    trained_samples: trained,
                    cause,
                });
            }
        }
        Ok(())
    }

    /// The lane's trailing training window from sealed history:
    /// `None` when the lane has no sealed samples at all.
    fn training_samples(
        &self,
        reader: &HistoryReader,
        machine: &str,
        sensor: &str,
        window: u64,
    ) -> Result<Option<Vec<(u64, f64)>>> {
        let mut query = RangeQuery::range(0, u64::MAX);
        query.machine = Some(machine.to_string());
        query.sensor = Some(sensor.to_string());
        let (lanes, _stats) = reader.scan(&query).map_err(substrate)?;
        let mut samples: Vec<(u64, f64)> = Vec::new();
        for lane in &lanes {
            samples.extend(
                lane.series
                    .timestamps()
                    .iter()
                    .copied()
                    .zip(lane.series.values().iter().copied()),
            );
        }
        if samples.is_empty() {
            return Ok(None);
        }
        samples.sort_by_key(|&(t, _)| t);
        samples.dedup_by_key(|&mut (t, _)| t);
        let last = samples.last().map_or(0, |&(t, _)| t);
        let floor = last.saturating_sub(window);
        samples.retain(|&(t, _)| t >= floor);
        Ok(Some(samples))
    }
}

/// Placeholder scorer used only as `mem::replace` filler during the
/// attach re-wrap; never scored against.
struct Hole;

impl OnlineScorer for Hole {
    fn push(&mut self, _timestamp: u64, _value: f64, _out: &mut Vec<f64>) -> Result<()> {
        Ok(())
    }

    fn finish(&mut self, _out: &mut Vec<f64>) -> Result<()> {
        Ok(())
    }

    fn name(&self) -> &'static str {
        "hole"
    }
}
