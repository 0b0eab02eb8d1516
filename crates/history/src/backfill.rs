//! Backfill re-detection: replay a stored time range through a fresh
//! detector, optionally under a different phase-level algorithm, and
//! diff the resulting outlier report against another run.
//!
//! The store keeps everything the detector ever saw — control events
//! and released samples in sealed files, the still-hot tail in the
//! WAL. [`backfill`] is a reader of that record the way recovery is:
//! the store's read-only load ([`hierod_store::store::load`]) walked in
//! journal order ([`hierod_stream::replay_journal`]) into a fresh
//! [`StreamDetector`]. The only thing it decides for itself is what a
//! stored sample does: one inside the requested range is ingested by
//! its lane's handle, one outside is skipped.
//!
//! A tenant's live report is pinned byte-identical to a bare
//! detector's, so replaying the full range with the original policy
//! reproduces the original report — and replaying with a different
//! [`AlgoSpec`] answers "what would that month have looked like under
//! sliding-z?" without touching the live plant. [`diff_reports`]
//! compares the two as multisets of outliers (keyed by their debug
//! form, so NaN scores cannot make an outlier unequal to itself).

use std::collections::BTreeMap;

use hierod_core::{AlgorithmPolicy, HierOutlier, HierReport, PhaseChoice};
use hierod_detect::engine::AlgoSpec;
use hierod_detect::{DetectError, Result};
use hierod_store::store::load;
use hierod_store::Storage;
use hierod_stream::{
    replay_journal, LaneHandle, Sample, Stored, StreamConfig, StreamDetector, StreamReport,
};

/// The result of one backfill run.
#[derive(Debug, Clone)]
pub struct BackfillOutcome {
    /// The report the detector produced over the replayed range.
    pub report: StreamReport,
    /// Control events the replay applied, whatever the sample range (the
    /// job/phase skeleton must exist regardless): the journalled controls
    /// the detector *accepted*. A control the live detector refused — it
    /// is journalled before it is applied — is refused again and not
    /// counted, so this can be lower than the plant's
    /// [`controls_applied`](hierod_stream::DurableStream::controls_applied).
    pub controls_replayed: u64,
    /// Samples inside the requested range that were replayed.
    pub samples_replayed: u64,
    /// Samples outside the requested range, or that the detector turned
    /// down, that were skipped.
    pub samples_skipped: u64,
}

/// Replays the stored record of a plant — `storage` holds exactly one
/// root, the plant's one journal — through a fresh detector, ingesting
/// only samples with timestamps in `[start, end]`.
///
/// With the plant's original `policy`/`config` and the full range, the
/// replay reproduces the plant's own finished report. Pass a `spec` to
/// re-detect under a different phase-level algorithm instead — any
/// point-kind registry entry.
///
/// # Errors
/// [`DetectError::InvalidParameter`] for any number of roots but one, or
/// a `spec` the registry does not resolve to a point scorer (both
/// rejected before storage is read); load failures (corrupt files,
/// inconsistent directory). A record the live detector turned down — a
/// refused control, a duplicate or late sample journalled in the WAL
/// tail — is turned down again and the replay goes on, exactly as in
/// recovery.
pub fn backfill<S: Storage>(
    storage: &[&S],
    policy: &AlgorithmPolicy,
    config: StreamConfig,
    start: u64,
    end: u64,
    spec: Option<&AlgoSpec>,
) -> Result<BackfillOutcome> {
    let [storage] = storage else {
        return Err(DetectError::invalid(
            "storage",
            format!("a plant has one journal, got {} roots", storage.len()),
        ));
    };
    let mut policy = policy.clone();
    if let Some(spec) = spec {
        policy.phase = PhaseChoice::PerSeries(spec.clone());
    }
    let mut detector = StreamDetector::new(policy, config)?;
    let loaded = load(*storage).map_err(|e| DetectError::Substrate(e.to_string()))?;

    let mut samples_replayed = 0;
    let mut samples_skipped = 0;
    let mut ingest = |detector: &mut StreamDetector, lane: LaneHandle, sample: Sample| {
        let inside = start <= sample.timestamp && sample.timestamp <= end;
        if inside && detector.ingest_resolved(lane, sample).is_ok() {
            samples_replayed += 1;
        } else {
            samples_skipped += 1;
        }
    };
    let journal = replay_journal(
        &loaded,
        &mut detector,
        |detector, lane, stored| match stored {
            Stored::Chunk(chunk) => {
                for (&timestamp, &value) in chunk.timestamps.iter().zip(chunk.values.iter()) {
                    ingest(detector, lane, Sample { timestamp, value });
                }
            }
            Stored::Sample(sample) => ingest(detector, lane, sample),
        },
    );
    Ok(BackfillOutcome {
        report: detector.finish()?,
        controls_replayed: journal.controls_accepted,
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
