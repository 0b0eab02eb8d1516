//! [`DurableStream`]: crash-durable online detection.
//!
//! Wraps a [`StreamDetector`] in a [`hierod_store::Store`] so that every
//! accepted sample and every control event is journalled to a
//! write-ahead log **before** it mutates detector state. On restart,
//! [`DurableStream::open`] rebuilds the exact pre-crash detector from
//! the sealed segments plus the WAL tail — the fault-injection suite
//! pins *write-crash-recover ≡ no-crash*.
//!
//! ## Journal-at-offer-time
//!
//! * A **control event** (machine up, job start, phase start, job
//!   complete) is encoded, appended, and fsynced before it is applied.
//!   If the application fails (lifecycle violation), the record stays in
//!   the WAL and the replay repeats the same failure deterministically —
//!   a rejected control has no effect either way.
//! * A **sample** is encoded into the journal before the detector sees
//!   it, under the store's group-commit batching, and the encoded bytes
//!   reach the WAL file before the call that brought the sample returns —
//!   once per call, so a run of samples costs one hand-off. A sample the
//!   detector then rejects (no open pipeline) is replayed and re-rejected
//!   identically. Should the hand-off fail, the call fails and so does
//!   every later write of this stream ([`hierod_store::Store::append`]):
//!   nothing the detector saw beyond the journal is ever reported.
//! * [`DurableStream::tick`] and [`DurableStream::finish`] hard-commit
//!   the WAL first, so any score ever exposed to a caller is backed by
//!   durable input.
//!
//! ## Rotation and recovery
//!
//! [`DurableStream::rotate`] seals what the detector hands it into an
//! immutable columnar segment: per-series chunks (the unsealed suffix of
//! released history plus the absolute drop counters), each numbered by
//! the detector's lane table, the control events journalled since the
//! last rotation, and every lane definition in that table. Per machine
//! the chunks come in a fixed order: the environment pipelines', then
//! what the phases closed since the last rotation left owing (in close
//! order), then the open phase's. Only open pipelines and those owed
//! records are visited — never a series sealed before. Samples still
//! buffered in watermarks are carried over as the opening records of the
//! next WAL.
//!
//! Recovery replays segments in order — within one segment, controls
//! and chunks merge by sequence number — and then replays the WAL tail
//! through the ordinary ingest path. A control tags the pipelines it
//! opens with its sequence number. A chunk routes like a sample: it
//! lands in its lane's *open* pipeline, and only if the control that
//! opened that pipeline is its `after_control_seq`; any other chunk is
//! refused and counted. The watermark rewind plus re-offered carry-over
//! samples reconstruct the reorder buffers exactly.
//!
//! ## Lanes
//!
//! The plant has one lane table, the detector's: a [`LaneHandle`] is the
//! store-local lane number the WAL and the segments record, and each
//! entry holds the lane's id and its offered and corrupt counts. This
//! stream keeps no lane state of its own. A new lane's `LaneDef` is
//! journalled before the detector issues its number, so a failed append
//! binds nothing; recovery binds each def at its number, and a number
//! whose def is missing or does not decode stays a hole. Lane numbers
//! stay below [`MAX_LANES`] — a `LaneDef` above it, in a WAL or a
//! segment, is skipped like an undecodable one.
//!
//! ## Exactly-once resume
//!
//! [`DurableStream::delivered`] and [`DurableStream::controls_applied`]
//! tell a reconnecting client how much of its stream survived the
//! crash: resend lane samples from the delivered index and controls
//! with higher sequence numbers, and the merged stream is gap-free
//! without double-applying anything that was already durable.

use std::collections::BTreeMap;
use std::io;

use hierod_core::AlgorithmPolicy;
use hierod_detect::{DetectError, Result};
use hierod_store::segment::{ControlRecord, DecodedChunk, LaneDef, SegmentChunk, SegmentDraft};
use hierod_store::storage::Storage;
use hierod_store::store::{Recovered, RecoveryStats, Store, StoreOptions};
use hierod_store::wal::WalRecord;

use crate::codec::{decode_control, decode_lane, encode_control, encode_lane};
use crate::detector::{
    ControlEvent, LaneStats, StreamConfig, StreamDetector, StreamReport, StreamStats,
};
use crate::lane::{LaneHandle, LaneId, LaneTable, RunError, Sample, WireLane, MAX_LANES};

/// Maps a storage failure into the detection error domain.
fn substrate(e: io::Error) -> DetectError {
    DetectError::Substrate(format!("store: {e}"))
}

/// What [`DurableStream::open`] rebuilt and repaired.
#[derive(Debug, Clone, Default)]
pub struct DurableRecovery {
    /// Highest control sequence number found durable (segments + WAL).
    /// A resuming client resends controls with higher sequence numbers.
    pub controls_applied: u64,
    /// Samples restored from sealed segment chunks (released or dropped
    /// before the last rotation).
    pub restored_samples: u64,
    /// WAL sample records replayed through the live ingest path.
    pub replayed_samples: u64,
    /// Corruption events survived (a damaged WAL tail truncated at the
    /// first bad record counts once).
    pub corrupt_records: u64,
    /// Sealed chunks refused because they addressed no open pipeline when
    /// they replayed: their lane's open pipeline, if any, was not opened
    /// by their `after_control_seq` control — it closed since, or that
    /// control opened none. A closed phase is already thresholded, so
    /// nothing is absorbed into it. Journal order never produces one (a
    /// chunk sorts directly after the control that opened its pipeline and
    /// before any later control); a segment that does is damaged or
    /// crafted, and its samples are not restored.
    pub refused_chunks: u64,
    /// Low-level store repair accounting.
    pub store: RecoveryStats,
}

/// Recovery accounting of one plant, suitable for a health endpoint (the
/// store-level repair detail stays on [`DurableRecovery`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Highest control sequence found durable.
    pub controls_applied: u64,
    /// Samples restored from sealed segments.
    pub restored_samples: u64,
    /// WAL samples replayed through live ingest.
    pub replayed_samples: u64,
    /// Corruption events survived.
    pub corrupt_records: u64,
}

impl RecoverySummary {
    /// Projects a [`DurableRecovery`] into endpoint form.
    pub fn from_recovery(rec: &DurableRecovery) -> Self {
        RecoverySummary {
            controls_applied: rec.controls_applied,
            restored_samples: rec.restored_samples,
            replayed_samples: rec.replayed_samples,
            corrupt_records: rec.corrupt_records,
        }
    }
}

/// A [`StreamDetector`] whose inputs are crash-durable: WAL + columnar
/// segments underneath, identical detection semantics on top. See the
/// module docs for the journaling and recovery contract.
pub struct DurableStream<S: Storage> {
    inner: StreamDetector,
    store: Store<S>,
    next_seq: u64,
    /// Controls journalled to the active WAL, owed to the next segment.
    unsealed_controls: Vec<ControlRecord>,
}

/// What the journal holds for a bound lane at one step of
/// [`replay_journal`].
pub enum Stored<'a> {
    /// A sealed chunk: samples the live detector released, in time
    /// order, on the pipeline the control `after_control_seq` opened.
    Chunk(&'a DecodedChunk),
    /// One WAL-tail sample as it was offered (the live detector may
    /// have turned it down).
    Sample(Sample),
}

/// What [`replay_journal`] leaves behind.
pub struct Replayed {
    next_seq: u64,
    /// The WAL tail's controls, owed to the next segment.
    unsealed_controls: Vec<ControlRecord>,
    /// Journalled controls the detector accepted. One it refused live
    /// (or whose payload does not decode) is in the journal all the
    /// same and is not counted here.
    pub controls_accepted: u64,
}

impl Replayed {
    fn control(&mut self, inner: &mut StreamDetector, seq: u64, payload: &[u8]) {
        self.next_seq = self.next_seq.max(seq.saturating_add(1));
        let accepted = decode_control(payload)
            .is_some_and(|event| inner.apply_tagged(Some(seq), &event).is_ok());
        self.controls_accepted += u64::from(accepted);
    }
}

/// Binds a journalled lane definition at its number; one that does not
/// decode leaves the number unbound.
fn bind(inner: &mut StreamDetector, lane: u32, meta: &[u8]) {
    if let Some(id) = decode_lane(meta) {
        inner.bind_lane(lane, id);
    }
}

/// Hands `on_samples` what the journal holds on lane number `lane`, if it
/// is bound.
fn samples(
    inner: &mut StreamDetector,
    lane: u32,
    stored: Stored<'_>,
    on_samples: &mut impl FnMut(&mut StreamDetector, LaneHandle, Stored<'_>),
) {
    let lane = LaneHandle(lane);
    if inner.is_bound(lane) {
        on_samples(inner, lane, stored);
    }
}

/// The journal-order walk: replays what a load of a store directory
/// returned ([`Store::open`], [`hierod_store::store::load`]) into
/// `inner`, a fresh detector, in the order the live one saw it. Per
/// sealed file: its lane definitions, then its controls and chunks
/// merged by sequence number — a chunk sorts directly after the control
/// that opened its pipeline and before any later control (which may
/// close that pipeline again). Then the WAL tail, record by record.
///
/// The walk itself binds each lane definition at its number in the
/// detector's lane table and applies controls, tagging the pipelines each
/// opens; `on_samples` decides what a chunk or a tail sample on a bound
/// lane number does to the detector. One rule covers every record
/// the live path journalled and then turned down — a control the
/// detector refuses, a payload or lane definition that does not decode,
/// a lane number at or above [`MAX_LANES`], samples on an unbound lane:
/// it is turned down again, identically, and the replay goes on.
pub fn replay_journal(
    loaded: &Recovered,
    inner: &mut StreamDetector,
    mut on_samples: impl FnMut(&mut StreamDetector, LaneHandle, Stored<'_>),
) -> Replayed {
    enum Item<'a> {
        Control(&'a ControlRecord),
        Chunk(&'a DecodedChunk),
    }
    let mut out = Replayed {
        next_seq: 1,
        unsealed_controls: Vec::new(),
        controls_accepted: 0,
    };
    for seg in &loaded.segments {
        for def in &seg.lane_defs {
            bind(inner, def.lane, &def.meta);
        }
        let controls = seg.controls.iter().map(|c| (c.seq, Item::Control(c)));
        let chunks = seg.chunks.iter();
        let chunks = chunks.map(|ch| (ch.after_control_seq, Item::Chunk(ch)));
        let mut items: Vec<(u64, Item)> = controls.chain(chunks).collect();
        // Stable: chunks of one control keep their file order.
        items.sort_by_key(|(seq, item)| (*seq, matches!(item, Item::Chunk(_))));
        for (seq, item) in items {
            match item {
                Item::Control(c) => out.control(inner, seq, &c.payload),
                Item::Chunk(ch) => samples(inner, ch.lane, Stored::Chunk(ch), &mut on_samples),
            }
        }
    }
    for record in &loaded.wal {
        match record {
            WalRecord::LaneDef { lane, meta } => bind(inner, *lane, meta),
            WalRecord::Control { seq, payload } => {
                out.unsealed_controls.push(ControlRecord {
                    seq: *seq,
                    payload: payload.clone(),
                });
                out.control(inner, *seq, payload);
            }
            &WalRecord::Sample {
                lane,
                timestamp,
                value,
            } => {
                let sample = Stored::Sample(Sample { timestamp, value });
                samples(inner, lane, sample, &mut on_samples);
            }
        }
    }
    out
}

impl<S: Storage> DurableStream<S> {
    /// Opens (or recovers) a durable detector on `storage`.
    ///
    /// An empty directory starts a fresh stream. Otherwise the store's
    /// recovery loads the directory and [`replay_journal`] walks it:
    /// sealed chunks are restored into the open pipelines their controls
    /// opened, through the route a sample on their lane takes — a chunk
    /// that addresses no open pipeline is refused
    /// ([`DurableRecovery::refused_chunks`]) — and the WAL tail
    /// (truncated at its first corrupt record, if any) is re-ingested
    /// through the ordinary path, leaving the detector in exactly the
    /// state the last durable write observed.
    ///
    /// # Errors
    /// Storage failures and segment damage (segments are fully
    /// checksummed; unlike the append-path WAL they are never silently
    /// truncated) surface as [`DetectError::Substrate`]; policy
    /// rejection as in [`StreamDetector::new`].
    pub fn open(
        policy: AlgorithmPolicy,
        config: StreamConfig,
        storage: S,
        options: StoreOptions,
    ) -> Result<(Self, DurableRecovery)> {
        let (store, recovered) = Store::open(storage, options).map_err(substrate)?;
        let mut inner = StreamDetector::new(policy, config)?;
        let mut restored_samples = 0_u64;
        let mut replayed_samples = 0_u64;
        let mut refused_chunks = 0_u64;
        let replayed = replay_journal(&recovered, &mut inner, |inner, lane, stored| match stored {
            Stored::Sample(sample) => {
                replayed_samples += 1;
                // A sample the pre-crash detector rejected is re-rejected
                // here with the same error; either way it was journalled,
                // so its lane counts the offer.
                let _ = inner.ingest_resolved(lane, sample);
            }
            Stored::Chunk(ch) if inner.restore_chunk(lane, ch) => {
                restored_samples += ch.timestamps.len() as u64;
            }
            Stored::Chunk(_) => refused_chunks += 1,
        });
        if let Some(c) = &recovered.stats.corruption {
            inner.note_corruption(c.lane);
        }
        let recovery = DurableRecovery {
            controls_applied: replayed.next_seq - 1,
            restored_samples,
            replayed_samples,
            corrupt_records: u64::from(recovered.stats.corruption.is_some()),
            refused_chunks,
            store: recovered.stats,
        };
        Ok((
            Self {
                inner,
                store,
                next_seq: replayed.next_seq,
                unsealed_controls: replayed.unsealed_controls,
            },
            recovery,
        ))
    }

    /// The plant's number for `id`. A lane it has not seen is numbered
    /// next by the detector once the [`WalRecord::LaneDef`] a sample on
    /// it needs ahead of it is journalled, so a failed append (or a full
    /// table) binds nothing.
    fn lane_no(&mut self, id: &LaneId) -> Result<LaneHandle> {
        let next = match self.inner.lane_number(id) {
            Ok(handle) => return Ok(handle),
            Err(next) => next,
        };
        if next >= MAX_LANES {
            return Err(DetectError::invalid(
                "lane",
                format!("the plant's lane table is full ({MAX_LANES} lanes)"),
            ));
        }
        let def = WalRecord::LaneDef {
            lane: next,
            meta: encode_lane(id),
        };
        self.store.append(&def).map_err(substrate)?;
        Ok(self.inner.lane(id))
    }

    /// Journals and fsyncs a control payload, assigning its sequence
    /// number. Controls are never batched: a lifecycle event must be
    /// durable before the state machine moves.
    fn journal_control(&mut self, payload: Vec<u8>) -> Result<u64> {
        let seq = self.next_seq;
        self.store
            .append(&WalRecord::Control {
                seq,
                payload: payload.clone(),
            })
            .map_err(substrate)?;
        self.store.commit().map_err(substrate)?;
        self.unsealed_controls.push(ControlRecord { seq, payload });
        self.next_seq = seq.saturating_add(1);
        Ok(seq)
    }

    /// Journals (fsynced) and applies one control event.
    ///
    /// # Errors
    /// Storage failures as [`DetectError::Substrate`], then the inner
    /// detector's lifecycle errors.
    pub fn control(&mut self, event: &ControlEvent) -> Result<()> {
        let seq = self.journal_control(encode_control(event))?;
        self.inner.apply_tagged(Some(seq), event)
    }

    /// Journals one sample on a lane this stream numbered and applies it.
    fn apply(&mut self, lane: LaneHandle, sample: Sample) -> Result<()> {
        let record = WalRecord::Sample {
            lane: lane.0,
            timestamp: sample.timestamp,
            value: sample.value,
        };
        self.store.append(&record).map_err(substrate)?;
        self.inner.ingest_resolved(lane, sample)
    }

    /// Durable [`StreamDetector::ingest`]: the sample is journalled
    /// (group-committed) before the detector sees it, so a crash never
    /// loses an accepted sample that a later fsync covered. A run of one:
    /// the lane is resolved, then the sample takes the path every sample
    /// of [`Tenant::ingest_run`](crate::tenant::Tenant::ingest_run) takes.
    ///
    /// # Errors
    /// Storage failures as [`DetectError::Substrate`]; routing errors
    /// from the inner detector (the sample is journalled regardless —
    /// replay repeats the rejection).
    pub fn ingest(&mut self, lane: &LaneId, sample: Sample) -> Result<()> {
        let applied = self.lane_no(lane).and_then(|n| self.apply(n, sample));
        let handed = self.store.flush().map_err(substrate);
        applied.and(handed)
    }

    /// Applies one sample of a client's wire lane, resolving the lane if
    /// this is the first sample to need it.
    fn apply_wire(&mut self, lane: &mut WireLane, sample: Sample) -> Result<()> {
        let handle = match lane.handle {
            Some(handle) => handle,
            None => *lane.handle.insert(self.lane_no(&lane.id)?),
        };
        self.apply(handle, sample)
    }

    /// Applies a run of samples addressed by wire lane, each through
    /// `lanes` — whose handles this stream must have issued; the tenant
    /// in front sees to that. A lane is resolved (and its `LaneDef`
    /// journalled) by the first sample that needs it, every record is
    /// attempted, the journal is handed to the WAL file once, behind the
    /// last one, and the first failure in stream order is returned.
    pub(crate) fn ingest_run(
        &mut self,
        lanes: &mut LaneTable,
        run: &[(u32, Sample)],
    ) -> Option<RunError> {
        let mut first = None;
        for &(wire, sample) in run {
            let applied = match lanes.get_mut(wire) {
                None => Err(RunError::UndefinedLane(wire)),
                Some(lane) => self.apply_wire(lane, sample).map_err(RunError::Rejected),
            };
            if let Err(e) = applied {
                first.get_or_insert(e);
            }
        }
        if let Err(e) = self.store.flush() {
            first.get_or_insert(RunError::Rejected(substrate(e)));
        }
        first
    }

    /// Hard-commits the WAL, then assembles an interim report — every
    /// score it exposes is backed by durable input.
    ///
    /// # Errors
    /// Storage failures as [`DetectError::Substrate`]; upper-level
    /// detector failures as in [`StreamDetector::tick`].
    pub fn tick(&mut self) -> Result<StreamReport> {
        self.store.commit().map_err(substrate)?;
        self.inner.tick()
    }

    /// Finalizes every pipeline (watermarks flush, scorers finish), then
    /// hard-commits the WAL and assembles the final report.
    ///
    /// # Errors
    /// Storage failures as [`DetectError::Substrate`]; upper-level
    /// detector failures as in [`StreamDetector::finish`].
    pub fn finish(mut self) -> Result<StreamReport> {
        self.inner.finalize_pipelines();
        self.tick()
    }

    /// Seals everything released so far into an immutable columnar
    /// segment and starts a fresh WAL whose opening records are the
    /// samples still buffered in watermarks. Call between jobs (or on a
    /// size trigger) to bound WAL replay time; recovery cost after this
    /// is segment decoding plus the short new tail.
    ///
    /// # Errors
    /// Storage failures as [`DetectError::Substrate`]. On error the
    /// store is still on the old WAL and nothing is lost.
    pub fn rotate(&mut self) -> Result<()> {
        let mut chunks = Vec::new();
        let carry = self.inner.seal(|ch| {
            chunks.push(SegmentChunk {
                lane: ch.lane,
                after_control_seq: ch.opened_seq,
                timestamps: ch.timestamps.to_vec(),
                values: ch.values.to_vec(),
                late_dropped: ch.stats.late_dropped as u64,
                duplicates_dropped: ch.stats.duplicates_dropped as u64,
            });
        });
        let defs = self.inner.lane_defs().map(|(lane, id)| LaneDef {
            lane,
            meta: encode_lane(id),
        });
        let draft = SegmentDraft {
            lane_defs: defs.collect(),
            controls: std::mem::take(&mut self.unsealed_controls),
            chunks,
            ..SegmentDraft::default()
        };
        self.store.rotate(&draft, &carry).map_err(substrate)
    }

    /// Current counters, recovery corruption included.
    pub fn stats(&self) -> StreamStats {
        self.inner.stats()
    }

    /// Per-lane release/drop/corruption counters — the live query
    /// surface: unlike walking a [`StreamReport`], this never runs
    /// detection, so operators can poll it cheaply.
    pub fn lane_stats(&self) -> BTreeMap<LaneId, LaneStats> {
        self.inner.lane_stats()
    }

    /// Per-lane count of samples made durable (journalled, whether or
    /// not the detector accepted them), for every lane that has any — a
    /// view built from the lane table when asked for. A resuming client
    /// resends each lane's stream starting at this index.
    pub fn delivered(&self) -> BTreeMap<LaneId, u64> {
        self.inner.offered()
    }

    /// Highest control sequence number journalled so far; a resuming
    /// client resends controls with higher sequence numbers.
    pub fn controls_applied(&self) -> u64 {
        self.next_seq - 1
    }

    /// The wrapped in-memory detector (read-only).
    pub fn detector(&self) -> &StreamDetector {
        &self.inner
    }

    /// Mutable access to the wrapped detector — the `hierod-adapt` hook
    /// for installing scorer wrappers and swapping pipeline scorers at
    /// tick boundaries (see DESIGN.md §4.19).
    ///
    /// Scorer-level mutation only: scorers are *derived* state, rebuilt
    /// deterministically on recovery from the journalled inputs, so
    /// replacing one does not touch the durability contract. Driving
    /// lifecycle methods directly on the returned detector (instead of
    /// through [`DurableStream::control`]) would bypass the WAL and must
    /// not be done.
    pub fn detector_mut(&mut self) -> &mut StreamDetector {
        &mut self.inner
    }

    /// The underlying store (read-only; exposes WAL index and storage).
    pub fn store(&self) -> &Store<S> {
        &self.store
    }

    /// Hands the sealed half of the store to the history tier: the
    /// backing storage plus the first *unsealed* index (the active
    /// WAL's). Every rotation segment below that index is immutable, so
    /// a compactor may merge and retire them through this handle while
    /// the stream keeps writing — the two sides never touch the same
    /// file.
    pub fn sealed_storage(&self) -> (&S, u64) {
        (self.store.storage(), self.store.wal_index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::ScorerMode;
    use crate::lane::LaneKind;
    use hierod_hierarchy::{CaqResult, JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
    use hierod_store::MemStorage;

    fn lane(machine: &str, sensor: &str, kind: LaneKind) -> LaneId {
        LaneId {
            machine: machine.into(),
            sensor: sensor.into(),
            kind,
        }
    }

    fn policy_and_config() -> (AlgorithmPolicy, StreamConfig) {
        (
            AlgorithmPolicy::default(),
            StreamConfig {
                lateness: 2,
                mode: ScorerMode::BatchEquivalent,
            },
        )
    }

    fn run_scenario(d: &mut DurableStream<MemStorage>, rotate_mid: bool) {
        let (machine, bed, room) = ("m0", "m0.bed.0", "m0.room");
        d.control(&ControlEvent::machine_up(
            machine,
            vec![Sensor::new(bed, SensorKind::BedTemperature)],
            vec![RedundancyGroup::new(
                SensorKind::BedTemperature,
                vec![bed.into()],
            )],
            &[room.to_string()],
        ))
        .unwrap();
        d.control(&ControlEvent::job_start(
            machine,
            "j0",
            0,
            JobConfig::new(vec!["p".into()], vec![1.0]),
        ))
        .unwrap();
        d.control(&ControlEvent::phase_start(
            machine,
            PhaseKind::WarmUp,
            &[bed.to_string()],
        ))
        .unwrap();
        let bed_lane = lane(machine, bed, LaneKind::Phase);
        let room_lane = lane(machine, room, LaneKind::Environment);
        for t in 0..48_u64 {
            let v = if t == 30 {
                55.0
            } else {
                (t as f64 * 0.3).cos()
            };
            d.ingest(
                &bed_lane,
                Sample {
                    timestamp: t,
                    value: v,
                },
            )
            .unwrap();
            if t % 2 == 0 {
                d.ingest(
                    &room_lane,
                    Sample {
                        timestamp: t,
                        value: 20.0 + (t as f64 * 0.1).sin(),
                    },
                )
                .unwrap();
            }
        }
        if rotate_mid {
            d.rotate().unwrap();
        }
        d.control(&ControlEvent::job_complete(
            machine,
            CaqResult::new(vec!["q".into()], vec![0.97], true),
        ))
        .unwrap();
    }

    #[test]
    fn clean_restart_rebuilds_identical_report() {
        for rotate_mid in [false, true] {
            let storage = MemStorage::new();
            let (policy, config) = policy_and_config();
            let (mut d, _) =
                DurableStream::open(policy, config, storage.clone(), StoreOptions::default())
                    .unwrap();
            run_scenario(&mut d, rotate_mid);
            let baseline = d.tick().unwrap();
            let delivered = d.delivered();
            let controls = d.controls_applied();
            drop(d);

            // Reopen on the synced image (commit happened in tick()).
            let image = storage.crash_image(false);
            let (policy, config) = policy_and_config();
            let (d2, recovery) =
                DurableStream::open(policy, config, image, StoreOptions::default()).unwrap();
            assert_eq!(d2.controls_applied(), controls);
            assert_eq!(d2.delivered(), delivered);
            assert_eq!(recovery.corrupt_records, 0);
            let report = d2.finish().unwrap();
            let baseline_final = {
                // The baseline detector above was only ticked; finish the
                // same scenario in one uninterrupted life for comparison.
                let (policy, config) = policy_and_config();
                let (mut d3, _) =
                    DurableStream::open(policy, config, MemStorage::new(), StoreOptions::default())
                        .unwrap();
                run_scenario(&mut d3, rotate_mid);
                d3.finish().unwrap()
            };
            assert_eq!(
                report.stats, baseline_final.stats,
                "rotate_mid={rotate_mid}"
            );
            assert_eq!(
                report.lane_stats, baseline_final.lane_stats,
                "rotate_mid={rotate_mid}"
            );
            assert_eq!(
                format!("{:?}", report.report),
                format!("{:?}", baseline_final.report),
                "rotate_mid={rotate_mid}"
            );
            drop(baseline);
        }
    }

    #[test]
    fn recovery_reports_progress_counters() {
        let storage = MemStorage::new();
        let (policy, config) = policy_and_config();
        let (mut d, fresh) =
            DurableStream::open(policy, config, storage.clone(), StoreOptions::default()).unwrap();
        assert_eq!(fresh.controls_applied, 0);
        assert_eq!(fresh.restored_samples + fresh.replayed_samples, 0);
        run_scenario(&mut d, true);
        d.tick().unwrap();
        drop(d);

        let image = storage.crash_image(false);
        let (policy, config) = policy_and_config();
        let (_, recovery) =
            DurableStream::open(policy, config, image, StoreOptions::default()).unwrap();
        assert!(recovery.restored_samples > 0, "rotation sealed chunks");
        assert_eq!(
            recovery.restored_samples + recovery.replayed_samples,
            48 + 24,
            "every journalled sample is accounted for"
        );
        assert_eq!(recovery.controls_applied, 4);
    }

    #[test]
    fn journalled_but_rejected_samples_replay_deterministically() {
        let storage = MemStorage::new();
        let (policy, config) = policy_and_config();
        let (mut d, _) =
            DurableStream::open(policy, config, storage.clone(), StoreOptions::default()).unwrap();
        d.control(&ControlEvent::machine_up(
            "m0",
            vec![],
            vec![],
            &["m0.room".to_string()],
        ))
        .unwrap();
        // Phase lane with no open phase: journalled, then rejected.
        let bad = lane("m0", "m0.bed.0", LaneKind::Phase);
        assert!(d
            .ingest(
                &bad,
                Sample {
                    timestamp: 0,
                    value: 1.0
                }
            )
            .is_err());
        assert_eq!(d.delivered().get(&bad), Some(&1));
        d.tick().unwrap();
        drop(d);

        let image = storage.crash_image(false);
        let (policy, config) = policy_and_config();
        let (d2, recovery) =
            DurableStream::open(policy, config, image, StoreOptions::default()).unwrap();
        assert_eq!(recovery.replayed_samples, 1);
        assert_eq!(d2.delivered().get(&bad), Some(&1));
        assert_eq!(d2.stats().samples_ingested, 0, "rejection replayed");
    }

    #[test]
    fn a_run_journals_and_scores_what_its_samples_would_one_by_one() {
        // The scenario's samples by lane id, one call each ...
        let by_id = MemStorage::new();
        let (policy, config) = policy_and_config();
        let (mut d, _) =
            DurableStream::open(policy, config, by_id.clone(), StoreOptions::default()).unwrap();
        run_scenario(&mut d, false);

        // ... and again in runs of five through a client's lane table,
        // whose wire numbers are not the store's.
        let in_runs = MemStorage::new();
        let (policy, config) = policy_and_config();
        let (mut r, _) =
            DurableStream::open(policy, config, in_runs.clone(), StoreOptions::default()).unwrap();
        let wal = hierod_store::wal::scan(&by_id.read("wal-0.log").unwrap());
        let mut table = LaneTable::default();
        let mut run = Vec::new();
        for record in wal.records.iter().chain([&WalRecord::Control {
            seq: 0,
            payload: Vec::new(),
        }]) {
            match record {
                WalRecord::LaneDef { lane, meta } => {
                    assert!(table.bind(lane + 40, decode_lane(meta).unwrap()));
                }
                WalRecord::Sample {
                    lane,
                    timestamp,
                    value,
                } => {
                    let (timestamp, value) = (*timestamp, *value);
                    run.push((lane + 40, Sample { timestamp, value }));
                    if run.len() < 5 {
                        continue;
                    }
                }
                WalRecord::Control { .. } => {}
            }
            assert_eq!(r.ingest_run(&mut table, &run), None);
            run.clear();
            if let WalRecord::Control { payload, .. } = record {
                if let Some(event) = decode_control(payload) {
                    r.control(&event).unwrap();
                }
            }
        }
        assert_eq!(
            in_runs.read("wal-0.log").unwrap(),
            by_id.read("wal-0.log").unwrap()
        );
        assert_eq!(r.delivered(), d.delivered());
        assert_eq!(r.lane_stats(), d.lane_stats());
        assert_eq!(r.stats(), d.stats());
        let (by_id, in_runs) = (d.finish().unwrap(), r.finish().unwrap());
        assert_eq!(format!("{in_runs:?}"), format!("{by_id:?}"));
        // A wire lane nobody bound, and a bound one with nowhere to go
        // (on another stream, so through a table of its own).
        let mut table = LaneTable::default();
        assert!(table.bind(41, lane("m0", "m0.room", LaneKind::Environment)));
        let (policy, config) = policy_and_config();
        let (mut r, _) =
            DurableStream::open(policy, config, MemStorage::new(), StoreOptions::default())
                .unwrap();
        let sample = Sample {
            timestamp: 0,
            value: 1.0,
        };
        let run = [(41, sample), (3, sample), (41, sample)];
        let first = r.ingest_run(&mut table, &run);
        assert!(
            matches!(&first, Some(RunError::Rejected(DetectError::Missing { what })) if what.contains("machine m0")),
            "{first:?}"
        );
        assert_eq!(
            r.ingest_run(&mut table, &run[1..]),
            Some(RunError::UndefinedLane(3))
        );
        assert_eq!(r.delivered().values().sum::<u64>(), 3, "all attempted");
    }

    #[test]
    fn lane_numbers_past_the_cap_are_skipped_on_recovery_not_allocated() {
        let storage = MemStorage::new();
        let hostile = lane("m0", "m0.hostile", LaneKind::Environment);
        let room = lane("m0", "m0.room", LaneKind::Environment);
        let sample = |lane| WalRecord::Sample {
            lane,
            timestamp: 7,
            value: 1.0,
        };
        let image = hierod_store::wal::encode_image(&[
            WalRecord::LaneDef {
                lane: u32::MAX,
                meta: encode_lane(&hostile),
            },
            sample(u32::MAX),
            WalRecord::LaneDef {
                lane: MAX_LANES,
                meta: encode_lane(&hostile),
            },
            sample(MAX_LANES),
            WalRecord::LaneDef {
                lane: MAX_LANES - 1,
                meta: encode_lane(&room),
            },
            sample(MAX_LANES - 1),
        ]);
        hierod_store::store::publish(&storage, "wal-0.log", &image).unwrap();
        let (policy, config) = policy_and_config();
        let (mut d, recovery) =
            DurableStream::open(policy, config, storage, StoreOptions::default()).unwrap();
        assert_eq!(recovery.replayed_samples, 1, "the one lane under the cap");
        assert_eq!(d.delivered(), BTreeMap::from([(room.clone(), 1)]));
        assert_eq!(d.inner.lane_number(&hostile), Err(MAX_LANES));
        // The table is full: a lane the plant has not seen is turned away
        // (typed), the one it has keeps working.
        let probe = Sample {
            timestamp: 8,
            value: 1.0,
        };
        let full = d.ingest(&hostile, probe).unwrap_err();
        assert!(
            matches!(full, DetectError::InvalidParameter { .. }),
            "{full}"
        );
        assert!(matches!(
            d.ingest(&room, probe),
            Err(DetectError::Missing { .. })
        ));
        assert_eq!(d.delivered(), BTreeMap::from([(room.clone(), 2)]));

        // A hole: number 0's def does not decode, number 1's does. The
        // samples on 1 stay 1's, and the next lane the plant sees is 2.
        let storage = MemStorage::new();
        let image = hierod_store::wal::encode_image(&[
            WalRecord::LaneDef {
                lane: 0,
                meta: vec![0xff],
            },
            WalRecord::LaneDef {
                lane: 1,
                meta: encode_lane(&room),
            },
            sample(1),
            sample(1),
        ]);
        hierod_store::store::publish(&storage, "wal-0.log", &image).unwrap();
        let (policy, config) = policy_and_config();
        let (mut d, recovery) =
            DurableStream::open(policy, config, storage.clone(), StoreOptions::default()).unwrap();
        assert_eq!(recovery.replayed_samples, 2);
        assert_eq!(d.delivered(), BTreeMap::from([(room, 2)]));
        let unseen = lane("m0", "m0.unseen", LaneKind::Environment);
        assert!(d.ingest(&unseen, probe).is_err(), "no machine m0");
        let wal = hierod_store::store::load(&storage).unwrap().wal;
        let def = WalRecord::LaneDef {
            lane: 2,
            meta: encode_lane(&unseen),
        };
        assert!(wal.contains(&def), "{wal:?}");
    }
}
