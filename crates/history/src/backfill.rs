//! Backfill re-detection: replay a stored time range through a fresh
//! detector, optionally under a different phase-level algorithm, and
//! diff the resulting outlier report against another run.
//!
//! The store keeps everything the detector ever saw — control events
//! and released samples in sealed files, the still-hot tail in the
//! WAL. [`backfill`] reassembles that record into one globally ordered
//! stream and drives a fresh [`StreamDetector`] over it:
//!
//! * control events replay in sequence order (a sequence number seen
//!   twice across the given storage roots replays once);
//! * sealed chunk samples replay right after the control that opened
//!   their pipeline (the chunk's `after_control_seq` tag), exactly as
//!   store recovery does;
//! * WAL-tail samples replay after the last control journalled before
//!   them.
//!
//! A tenant's live report is pinned byte-identical to a bare
//! detector's, so replaying the full range with the original policy
//! reproduces the original report — and replaying with a different
//! [`AlgoSpec`] answers "what would that month have looked like under
//! sliding-z?" without touching the live plant. [`diff_reports`]
//! compares the two as multisets of outliers (keyed by their debug
//! form, so NaN scores cannot make an outlier unequal to itself).

use std::collections::{BTreeMap, BTreeSet};
use std::io;

use hierod_core::{AlgorithmPolicy, HierOutlier, HierReport, PhaseChoice};
use hierod_detect::engine::AlgoSpec;
use hierod_detect::{DetectError, Result};
use hierod_store::{segment, Storage, WalRecord};
use hierod_stream::codec::{decode_control, decode_lane};
use hierod_stream::{ControlEvent, LaneId, Sample, StreamConfig, StreamDetector, StreamReport};

use crate::reader::{snapshot, StoreSnapshot};

fn substrate(e: io::Error) -> DetectError {
    DetectError::Substrate(e.to_string())
}

/// Replay order within one control sequence number: the control itself,
/// then every sample attributed to it.
const ORDER_CONTROL: u8 = 0;
const ORDER_SAMPLE: u8 = 1;

enum Payload {
    Control(ControlEvent),
    Sample(LaneId, Sample),
}

/// The result of one backfill run.
#[derive(Debug, Clone)]
pub struct BackfillOutcome {
    /// The report the detector produced over the replayed range.
    pub report: StreamReport,
    /// Control events replayed (all of them — the job/phase skeleton
    /// must exist regardless of the sample range).
    pub controls_replayed: u64,
    /// Samples inside the requested range that were replayed.
    pub samples_replayed: u64,
    /// Samples outside the requested range that were skipped.
    pub samples_skipped: u64,
}

/// Collects one shard's snapshot into the global item list.
fn collect_shard(
    snap: &StoreSnapshot,
    items: &mut Vec<(u64, u8, Payload)>,
    seen_controls: &mut BTreeSet<u64>,
) -> Result<()> {
    let bad = |msg: String| DetectError::Substrate(msg);
    // Lane numbers are shard-local; resolve them to identities as the
    // shard's record declares them.
    let mut lanes: BTreeMap<u32, LaneId> = BTreeMap::new();
    // The WAL tail's samples belong to the last control journalled
    // before them; seed the running sequence with the sealed maximum.
    let mut running_seq = 0u64;

    for file in &snap.files {
        for def in &file.index.lane_defs {
            let id = decode_lane(&def.meta)
                .ok_or_else(|| bad(format!("{}: undecodable lane metadata", file.name)))?;
            lanes.insert(def.lane, id);
        }
        for control in &file.index.controls {
            running_seq = running_seq.max(control.seq);
            if !seen_controls.insert(control.seq) {
                continue; // broadcast duplicate from another shard
            }
            let event = decode_control(&control.payload)
                .ok_or_else(|| bad(format!("{}: undecodable control payload", file.name)))?;
            items.push((control.seq, ORDER_CONTROL, Payload::Control(event)));
        }
        for meta in &file.index.chunks {
            let id = lanes
                .get(&meta.lane)
                .ok_or_else(|| bad(format!("{}: chunk on undeclared lane", file.name)))?
                .clone();
            let chunk = segment::decode_chunk(&file.bytes, meta)
                .map_err(|e| bad(format!("{}: {e}", file.name)))?;
            for (&t, &v) in chunk.timestamps.iter().zip(chunk.values.iter()) {
                items.push((
                    meta.after_control_seq,
                    ORDER_SAMPLE,
                    Payload::Sample(
                        id.clone(),
                        Sample {
                            timestamp: t,
                            value: v,
                        },
                    ),
                ));
            }
        }
    }

    for record in &snap.wal {
        match record {
            WalRecord::LaneDef { lane, meta } => {
                let id = decode_lane(meta)
                    .ok_or_else(|| bad("wal: undecodable lane metadata".into()))?;
                lanes.insert(*lane, id);
            }
            WalRecord::Control { seq, payload } => {
                running_seq = running_seq.max(*seq);
                if !seen_controls.insert(*seq) {
                    continue;
                }
                let event = decode_control(payload)
                    .ok_or_else(|| bad("wal: undecodable control payload".into()))?;
                items.push((*seq, ORDER_CONTROL, Payload::Control(event)));
            }
            WalRecord::Sample {
                lane,
                timestamp,
                value,
            } => {
                let id = lanes
                    .get(lane)
                    .ok_or_else(|| bad("wal: sample on undeclared lane".into()))?
                    .clone();
                items.push((
                    running_seq,
                    ORDER_SAMPLE,
                    Payload::Sample(
                        id,
                        Sample {
                            timestamp: *timestamp,
                            value: *value,
                        },
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Replays the stored record of a plant (its storage roots — one, for
/// every tenant the registry opens) through a fresh detector, ingesting
/// only samples with timestamps in `[start, end]`.
///
/// With the plant's original `policy`/`config` and the full range, the
/// replay reproduces the plant's own finished report. Pass a `spec` to
/// re-detect under a different phase-level algorithm instead — any
/// point-kind registry entry.
///
/// # Errors
/// A `spec` the registry does not resolve to a point scorer (rejected
/// before storage is read); snapshot failures (corrupt files,
/// inconsistent directory), records that do not decode, or a control
/// replay the detector rejects.
/// Sample-level ingest rejections (duplicates journalled in the WAL
/// tail, late arrivals) are skipped, exactly as store recovery skips
/// them.
pub fn backfill<S: Storage>(
    shards: &[&S],
    policy: &AlgorithmPolicy,
    config: StreamConfig,
    start: u64,
    end: u64,
    spec: Option<&AlgoSpec>,
) -> Result<BackfillOutcome> {
    let mut policy = policy.clone();
    if let Some(spec) = spec {
        policy.phase = PhaseChoice::PerSeries(spec.clone());
    }
    let mut detector = StreamDetector::new(policy, config)?;

    let mut items: Vec<(u64, u8, Payload)> = Vec::new();
    let mut seen_controls = BTreeSet::new();
    for storage in shards {
        let snap = snapshot(*storage).map_err(substrate)?;
        collect_shard(&snap, &mut items, &mut seen_controls)?;
    }
    // Stable: within one (seq, order) slot, sealed-before-WAL and file
    // order survive — the same interleaving recovery replays.
    items.sort_by_key(|&(seq, order, _)| (seq, order));

    let mut controls_replayed = 0;
    let mut samples_replayed = 0;
    let mut samples_skipped = 0;
    for (_, _, payload) in items {
        match payload {
            Payload::Control(event) => {
                detector.apply(&event)?;
                controls_replayed += 1;
            }
            Payload::Sample(id, sample) => {
                if sample.timestamp < start || sample.timestamp > end {
                    samples_skipped += 1;
                    continue;
                }
                // Duplicates and stragglers journalled in the WAL tail
                // are the detector's call to reject, same as recovery.
                if detector.ingest(&id, sample).is_ok() {
                    samples_replayed += 1;
                } else {
                    samples_skipped += 1;
                }
            }
        }
    }
    Ok(BackfillOutcome {
        report: detector.finish()?,
        controls_replayed,
        samples_replayed,
        samples_skipped,
    })
}

/// How two reports' outlier multisets differ.
#[derive(Debug, Clone, Default)]
pub struct BackfillDiff {
    /// Outliers in the replayed report but not the original.
    pub added: Vec<HierOutlier>,
    /// Outliers in the original report but not the replayed one.
    pub removed: Vec<HierOutlier>,
}

impl BackfillDiff {
    /// `true` when the two reports found exactly the same outliers.
    pub fn identical(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Diffs two reports as multisets of outliers keyed by their debug
/// form (bitwise on scores: an outlier always equals itself, NaN or
/// not).
pub fn diff_reports(original: &HierReport, replayed: &HierReport) -> BackfillDiff {
    let mut counts: BTreeMap<String, i64> = BTreeMap::new();
    for o in &original.outliers {
        *counts.entry(format!("{o:?}")).or_default() -= 1;
    }
    for o in &replayed.outliers {
        *counts.entry(format!("{o:?}")).or_default() += 1;
    }
    let mut diff = BackfillDiff::default();
    for o in &replayed.outliers {
        let n = counts.entry(format!("{o:?}")).or_default();
        if *n > 0 {
            *n -= 1;
            diff.added.push(o.clone());
        }
    }
    for o in &original.outliers {
        let n = counts.entry(format!("{o:?}")).or_default();
        if *n < 0 {
            *n += 1;
            diff.removed.push(o.clone());
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierod_hierarchy::Level;

    fn outlier(outlierness: f64) -> HierOutlier {
        HierOutlier {
            level: Level::Phase,
            machine: "m0".into(),
            job: Some("j0".into()),
            phase: None,
            sensor: Some("m0.bed".into()),
            index: Some(3),
            timestamp: Some(7),
            outlierness,
            support: 0.5,
            global_score: 2,
        }
    }

    #[test]
    fn diff_is_a_multiset_diff() {
        let a = HierReport {
            outliers: vec![outlier(1.0), outlier(1.0), outlier(2.0)],
            warnings: vec![],
        };
        let b = HierReport {
            outliers: vec![outlier(1.0), outlier(3.0)],
            warnings: vec![],
        };
        let diff = diff_reports(&a, &b);
        assert_eq!(diff.added.len(), 1); // one outlier(3.0)
        assert_eq!(diff.removed.len(), 2); // one outlier(1.0), one outlier(2.0)
        assert!(!diff.identical());
        assert!(diff_reports(&a, &a).identical());
    }

    #[test]
    fn nan_scores_do_not_break_the_diff() {
        let a = HierReport {
            outliers: vec![outlier(f64::NAN)],
            warnings: vec![],
        };
        assert!(diff_reports(&a, &a.clone()).identical());
    }
}
