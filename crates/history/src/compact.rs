//! Tiered compaction: sealed rotation segments → Gorilla-compressed
//! history files.
//!
//! # Protocol
//!
//! Which files of a store directory are live is the store's one rule
//! ([`hierod_store::store::layout`]); compaction plans from what that
//! rule returns and only ever moves a directory between states it
//! accepts. The **floor** F is the first rotation index not yet
//! absorbed into history.
//!
//! An L0 step absorbs up to [`CompactionOptions::l0_batch`] rotation
//! segments at the floor:
//!
//! 1. publish `hist-F-H.seg` (tmp → fsync → rename, via
//!    [`hierod_store::store::publish`]) — the merged, re-encoded image;
//! 2. publish `compaction.floor` = H+1 — **the commit point**;
//! 3. remove `seg-F.seg ..= seg-H.seg`.
//!
//! A crash after (1) leaves a history file the rule calls stale (never
//! committed); a crash after (2) leaves rotation segments it calls
//! stale (below the floor). Recovery removes either, and the next
//! `compact` resumes from the published floor.
//!
//! Tier merges then fold [`CompactionOptions::fanout`] *adjacent*
//! same-level hist files into one file at the next level: publish the
//! merged file (a strict superset of each input, which the rule then
//! calls superseded), then remove the inputs. The floor does not move.
//!
//! # Merging
//!
//! Chunks keep their `(lane, after_control_seq)` identity so the
//! store's recovery replay — which interleaves chunks with control
//! events by sequence number — is oblivious to compaction. Within one
//! `(lane, seq)` run, sample columns are concatenated and re-split into
//! time partitions of at most [`CompactionOptions::partition_ticks`]
//! ticks. The drop counters sealed into chunks are *absolute* at seal
//! time, so each output chunk carries the counters of the input chunk
//! that provided its last sample (and the run's final chunk carries the
//! run's final counters) — replayed drop accounting is unchanged.

use std::collections::BTreeMap;
use std::io;

use hierod_store::segment::{self, ColumnEncoding, ControlRecord, LaneDef, SegmentChunk};
use hierod_store::store::{hist_name, publish, publish_floor, read_floor, read_layout, seg_name};
use hierod_store::{SegmentData, SegmentDraft, Storage};

/// Footer-extension tag for the history level byte in
/// [`SegmentDraft::extra`]: `[LEVEL_TAG, level]`.
const LEVEL_TAG: u8 = 1;

/// Encodes a history level as the segment's `extra` metadata.
pub fn level_extra(level: u8) -> Vec<u8> {
    vec![LEVEL_TAG, level]
}

/// Reads the history level back out of a segment's `extra` metadata.
/// `None` for rotation segments (empty extra) or foreign metadata.
pub fn parse_level(extra: &[u8]) -> Option<u8> {
    match extra {
        [LEVEL_TAG, level] => Some(*level),
        _ => None,
    }
}

/// Tuning knobs for [`compact`].
#[derive(Debug, Clone)]
pub struct CompactionOptions {
    /// Rotation segments absorbed per L0 history file (≥ 1).
    pub l0_batch: usize,
    /// Adjacent same-level history files merged per tier step (≥ 2).
    pub fanout: usize,
    /// Maximum time span (in timestamp ticks) of one output chunk;
    /// `0` disables re-partitioning.
    pub partition_ticks: u64,
    /// Highest level tier merges may produce; level-`max_level` files
    /// are left alone.
    pub max_level: u8,
}

impl Default for CompactionOptions {
    fn default() -> Self {
        Self {
            l0_batch: 4,
            fanout: 4,
            partition_ticks: 4096,
            max_level: 3,
        }
    }
}

/// What one [`compact`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Rotation segments absorbed below the floor.
    pub segments_absorbed: usize,
    /// L0 history files published.
    pub l0_files: usize,
    /// Tier merges performed (each removes `fanout` files, adds one).
    pub tier_merges: usize,
    /// Total bytes published (hist files; excludes floor markers).
    pub bytes_written: u64,
    /// The floor after compaction: `seg-N` for `N < floor` are gone.
    pub floor: u64,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_segment<S: Storage>(storage: &S, name: &str) -> io::Result<SegmentData> {
    let bytes = storage.read(name)?;
    segment::decode(&bytes).map_err(|e| invalid(format!("{name}: {e}")))
}

/// One `(lane, after_control_seq)` run of chunks in encounter order.
struct Run {
    lane: u32,
    seq: u64,
    timestamps: Vec<u64>,
    values: Vec<f64>,
    /// `(end_index_exclusive, late_dropped, duplicates_dropped)` — the
    /// absolute counters in effect for samples before `end_index`.
    counters: Vec<(usize, u64, u64)>,
}

/// Merges decoded segments (in rotation order) into one draft, re-split
/// into `partition_ticks` time partitions.
fn merge_segments(inputs: &[SegmentData], partition_ticks: u64) -> io::Result<SegmentDraft> {
    // Lane defs: union by lane number; conflicting metadata for the
    // same lane number would make replay ambiguous.
    let mut lanes: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
    for data in inputs {
        for def in &data.lane_defs {
            match lanes.get(&def.lane) {
                None => {
                    lanes.insert(def.lane, def.meta.clone());
                }
                Some(meta) if *meta == def.meta => {}
                Some(_) => {
                    return Err(invalid(format!(
                        "lane {} redefined with different metadata",
                        def.lane
                    )))
                }
            }
        }
    }

    // Controls: rotation segments seal only the controls that arrived
    // since the previous rotation, so concatenation in rotation order
    // is the full record; sequences must stay strictly increasing.
    let mut controls: Vec<ControlRecord> = Vec::new();
    for data in inputs {
        for c in &data.controls {
            if controls.last().is_some_and(|prev| prev.seq >= c.seq) {
                return Err(invalid(format!(
                    "control sequence {} not increasing across merged segments",
                    c.seq
                )));
            }
            controls.push(c.clone());
        }
    }

    // Chunks: group into (lane, seq) runs in encounter order, keeping
    // per-sample attribution to the sealing chunk's absolute counters.
    let mut order: Vec<Run> = Vec::new();
    let mut index: BTreeMap<(u32, u64), usize> = BTreeMap::new();
    for data in inputs {
        for chunk in &data.chunks {
            let key = (chunk.lane, chunk.after_control_seq);
            let at = *index.entry(key).or_insert_with(|| {
                order.push(Run {
                    lane: chunk.lane,
                    seq: chunk.after_control_seq,
                    timestamps: Vec::new(),
                    values: Vec::new(),
                    counters: Vec::new(),
                });
                order.len() - 1
            });
            let run = match order.get_mut(at) {
                Some(run) => run,
                None => return Err(invalid("run index out of bounds".into())),
            };
            if let (Some(&last), Some(&first)) = (run.timestamps.last(), chunk.timestamps.first()) {
                if last >= first {
                    return Err(invalid(format!(
                        "lane {} seq {}: chunk timestamps overlap across segments",
                        chunk.lane, chunk.after_control_seq
                    )));
                }
            }
            run.timestamps.extend_from_slice(&chunk.timestamps);
            run.values.extend_from_slice(&chunk.values);
            run.counters.push((
                run.timestamps.len(),
                chunk.late_dropped,
                chunk.duplicates_dropped,
            ));
        }
    }

    let mut draft = SegmentDraft {
        lane_defs: lanes
            .into_iter()
            .map(|(lane, meta)| LaneDef { lane, meta })
            .collect(),
        controls,
        ..SegmentDraft::default()
    };
    for run in order {
        split_run(run, partition_ticks, &mut draft.chunks);
    }
    Ok(draft)
}

/// Splits one merged run into output chunks of at most
/// `partition_ticks` time span, assigning each chunk the absolute drop
/// counters of the input chunk that sealed its last sample.
fn split_run(run: Run, partition_ticks: u64, out: &mut Vec<SegmentChunk>) {
    let (final_late, final_dups) = run
        .counters
        .last()
        .map(|&(_, late, dups)| (late, dups))
        .unwrap_or((0, 0));
    if run.timestamps.is_empty() {
        // Drop-counter-only run: one empty chunk keeps the accounting.
        out.push(SegmentChunk {
            lane: run.lane,
            after_control_seq: run.seq,
            timestamps: Vec::new(),
            values: Vec::new(),
            late_dropped: final_late,
            duplicates_dropped: final_dups,
        });
        return;
    }

    // Partition boundaries by time span.
    let mut bounds: Vec<usize> = Vec::new();
    if partition_ticks > 0 {
        let mut start_ts = None;
        for (i, &ts) in run.timestamps.iter().enumerate() {
            match start_ts {
                None => start_ts = Some(ts),
                Some(s) if ts.saturating_sub(s) >= partition_ticks => {
                    bounds.push(i);
                    start_ts = Some(ts);
                }
                Some(_) => {}
            }
        }
    }
    bounds.push(run.timestamps.len());

    let mut lo = 0;
    let last_bound = bounds.len() - 1;
    for (b, &hi) in bounds.iter().enumerate() {
        // Counters of the input chunk that sealed sample `hi - 1`; the
        // run's last chunk carries the run's final counters so the
        // replayed totals match even when trailing input chunks were
        // empty.
        let (late, dups) = if b == last_bound {
            (final_late, final_dups)
        } else {
            run.counters
                .iter()
                .find(|&&(end, _, _)| end >= hi)
                .map(|&(_, l, d)| (l, d))
                .unwrap_or((final_late, final_dups))
        };
        out.push(SegmentChunk {
            lane: run.lane,
            after_control_seq: run.seq,
            timestamps: run.timestamps.get(lo..hi).unwrap_or_default().to_vec(),
            values: run.values.get(lo..hi).unwrap_or_default().to_vec(),
            late_dropped: late,
            duplicates_dropped: dups,
        });
        lo = hi;
    }
}

/// Merges, re-encodes, and publishes one history file covering
/// rotation range `lo..=hi` at `level`; returns its byte size.
fn publish_hist<S: Storage>(
    storage: &S,
    inputs: &[SegmentData],
    lo: u64,
    hi: u64,
    level: u8,
    partition_ticks: u64,
) -> io::Result<u64> {
    let mut draft = merge_segments(inputs, partition_ticks)?;
    draft.extra = level_extra(level);
    let bytes = draft
        .encode_as(ColumnEncoding::Gorilla)
        .map_err(|e| invalid(format!("{}: {e}", hist_name(lo, hi))))?;
    publish(storage, &hist_name(lo, hi), &bytes)?;
    Ok(bytes.len() as u64)
}

/// One live history file during tier planning.
struct HistFile {
    lo: u64,
    hi: u64,
    level: u8,
}

/// The live history files ([`read_layout`]), ascending, with levels.
fn live_hist_files<S: Storage>(storage: &S) -> io::Result<Vec<HistFile>> {
    let mut files = Vec::new();
    for (lo, hi) in read_layout(storage)?.hist {
        let name = hist_name(lo, hi);
        let index = segment::decode_index(&storage.read(&name)?)
            .map_err(|e| invalid(format!("{name}: {e}")))?;
        let level = parse_level(&index.extra).unwrap_or(1);
        files.push(HistFile { lo, hi, level });
    }
    Ok(files)
}

/// Runs compaction over a sealed store directory.
///
/// `sealed_end` is the first rotation index **not** yet sealed — i.e.
/// the store's current WAL index
/// ([`DurableStream::sealed_storage`](hierod_stream::DurableStream::sealed_storage)
/// hands out exactly this pair). All rotation segments below it are
/// absorbed into L0 history files, then adjacent same-level files are
/// tier-merged up to [`CompactionOptions::max_level`].
///
/// The caller must be the only compactor for the directory, but the
/// owning store may keep appending to its WAL concurrently: compaction
/// only touches files strictly below `sealed_end`.
///
/// # Errors
/// Storage I/O failures (including injected crashes) and corrupt
/// segment images. Interrupted runs are safe: recovery (or the next
/// `compact` call) resumes from the published floor.
pub fn compact<S: Storage>(
    storage: &S,
    sealed_end: u64,
    options: &CompactionOptions,
) -> io::Result<CompactionStats> {
    if options.l0_batch == 0 {
        return Err(invalid("l0_batch must be at least 1".into()));
    }
    if options.fanout < 2 {
        return Err(invalid("fanout must be at least 2".into()));
    }
    let mut stats = CompactionStats::default();
    let mut floor = read_floor(storage)?;

    // L0: absorb rotation segments at the floor, batch by batch.
    while floor < sealed_end {
        let hi = (floor + options.l0_batch as u64).min(sealed_end) - 1;
        let mut inputs = Vec::with_capacity((hi + 1 - floor) as usize);
        for i in floor..=hi {
            inputs.push(read_segment(storage, &seg_name(i))?);
        }
        stats.bytes_written +=
            publish_hist(storage, &inputs, floor, hi, 1, options.partition_ticks)?;
        publish_floor(storage, hi + 1)?; // commit point
        for i in floor..=hi {
            storage.remove(&seg_name(i))?;
        }
        stats.segments_absorbed += inputs.len();
        stats.l0_files += 1;
        floor = hi + 1;
    }
    stats.floor = floor;

    // Tier merges: fold `fanout` adjacent same-level files into one
    // file at the next level, repeating until no group is full.
    loop {
        let files = live_hist_files(storage)?;
        let Some(group) = find_merge_group(&files, options) else {
            break;
        };
        let Some((first, last)) = group.first().zip(group.last()) else {
            break;
        };
        let (lo, hi) = (first.lo, last.hi);
        let level = first.level + 1;
        let mut inputs = Vec::with_capacity(group.len());
        for f in group {
            inputs.push(read_segment(storage, &hist_name(f.lo, f.hi))?);
        }
        stats.bytes_written +=
            publish_hist(storage, &inputs, lo, hi, level, options.partition_ticks)?;
        // The merged file strictly contains each input, so a crash here
        // leaves them superseded — recovery removes them just like the
        // explicit removal below does.
        for f in group {
            storage.remove(&hist_name(f.lo, f.hi))?;
        }
        stats.tier_merges += 1;
    }
    Ok(stats)
}

/// Finds the first run of `fanout` adjacent files sharing a level below
/// `max_level`.
fn find_merge_group<'a>(
    files: &'a [HistFile],
    options: &CompactionOptions,
) -> Option<&'a [HistFile]> {
    if files.len() < options.fanout {
        return None;
    }
    for start in 0..=(files.len() - options.fanout) {
        let group = files.get(start..start + options.fanout)?;
        let level = group.first()?.level;
        if level >= options.max_level {
            continue;
        }
        let uniform = group.iter().all(|f| f.level == level);
        let adjacent = group.windows(2).all(|w| match w {
            [a, b] => b.lo == a.hi + 1,
            _ => true,
        });
        if uniform && adjacent {
            return Some(group);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_extra_round_trips() {
        for level in [0u8, 1, 2, 255] {
            assert_eq!(parse_level(&level_extra(level)), Some(level));
        }
        assert_eq!(parse_level(&[]), None);
        assert_eq!(parse_level(&[2, 1]), None);
        assert_eq!(parse_level(&[1, 1, 0]), None);
    }

    fn chunk(lane: u32, seq: u64, ts: &[u64], late: u64, dups: u64) -> SegmentChunk {
        SegmentChunk {
            lane,
            after_control_seq: seq,
            timestamps: ts.to_vec(),
            values: ts.iter().map(|&t| t as f64 * 0.5).collect(),
            late_dropped: late,
            duplicates_dropped: dups,
        }
    }

    fn data(chunks: Vec<SegmentChunk>, controls: Vec<(u64, &[u8])>) -> SegmentData {
        let draft = SegmentDraft {
            lane_defs: vec![LaneDef {
                lane: 0,
                meta: b"lane-0".to_vec(),
            }],
            controls: controls
                .into_iter()
                .map(|(seq, payload)| ControlRecord {
                    seq,
                    payload: payload.to_vec(),
                })
                .collect(),
            chunks,
            extra: Vec::new(),
        };
        let bytes = draft.encode().expect("encode");
        segment::decode(&bytes).expect("decode")
    }

    #[test]
    fn merge_concatenates_runs_and_splits_partitions() {
        let a = data(vec![chunk(0, 1, &[0, 10, 20], 1, 0)], vec![(1, b"up")]);
        let b = data(vec![chunk(0, 1, &[30, 120, 130], 4, 2)], vec![(2, b"job")]);
        let draft = merge_segments(&[a, b], 100).expect("merge");
        assert_eq!(draft.controls.len(), 2);
        assert_eq!(draft.chunks.len(), 2);
        // First partition spans [0, 100): samples 0..4 — its last
        // sample (ts 30) was sealed by the second input chunk.
        assert_eq!(draft.chunks[0].timestamps, vec![0, 10, 20, 30]);
        assert_eq!(draft.chunks[0].late_dropped, 4);
        assert_eq!(draft.chunks[0].duplicates_dropped, 2);
        // Second partition gets the run's final counters.
        assert_eq!(draft.chunks[1].timestamps, vec![120, 130]);
        assert_eq!(draft.chunks[1].late_dropped, 4);
    }

    #[test]
    fn merge_keeps_first_partition_counters_when_split_mid_chunk() {
        let a = data(vec![chunk(0, 1, &[0, 10], 7, 3)], vec![]);
        let b = data(vec![chunk(0, 1, &[200, 210], 9, 5)], vec![]);
        let draft = merge_segments(&[a, b], 50).expect("merge");
        assert_eq!(draft.chunks.len(), 2);
        // Partition 1 ends at the first input chunk's seal point.
        assert_eq!(draft.chunks[0].late_dropped, 7);
        assert_eq!(draft.chunks[0].duplicates_dropped, 3);
        assert_eq!(draft.chunks[1].late_dropped, 9);
        assert_eq!(draft.chunks[1].duplicates_dropped, 5);
    }

    #[test]
    fn empty_run_keeps_final_drop_counters() {
        let a = data(vec![chunk(0, 1, &[], 2, 0)], vec![]);
        let b = data(vec![chunk(0, 1, &[], 6, 1)], vec![]);
        let draft = merge_segments(&[a, b], 0).expect("merge");
        assert_eq!(draft.chunks.len(), 1);
        assert!(draft.chunks[0].timestamps.is_empty());
        assert_eq!(draft.chunks[0].late_dropped, 6);
        assert_eq!(draft.chunks[0].duplicates_dropped, 1);
    }

    #[test]
    fn overlapping_runs_are_rejected() {
        let a = data(vec![chunk(0, 1, &[0, 50], 0, 0)], vec![]);
        let b = data(vec![chunk(0, 1, &[50, 60], 0, 0)], vec![]);
        assert!(merge_segments(&[a, b], 0).is_err());
    }

    #[test]
    fn conflicting_lane_defs_are_rejected() {
        let a = data(vec![], vec![]);
        let mut b = data(vec![], vec![]);
        b.lane_defs[0].meta = b"other".to_vec();
        assert!(merge_segments(&[a, b], 0).is_err());
    }

    #[test]
    fn non_increasing_controls_are_rejected() {
        let a = data(vec![], vec![(5, b"x")]);
        let b = data(vec![], vec![(5, b"y")]);
        assert!(merge_segments(&[a, b], 0).is_err());
    }
}
