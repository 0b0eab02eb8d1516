//! Read-only snapshots of a store directory and pruned time-range
//! scans over them.
//!
//! [`snapshot`] applies the store's recovery liveness rules — committed
//! history files tiling `0..floor`, live rotation segments
//! `floor..wal_index`, the highest WAL — **without mutating anything**:
//! uncommitted or superseded files are skipped, not removed, so a
//! reader can run against a directory whose owning store is still
//! alive.
//!
//! [`HistoryReader`] serves range scans from such a snapshot. Only the
//! footer index of each file is decoded up front; chunk columns are
//! decoded lazily, and the footer's per-chunk `min_ts`/`max_ts` bounds
//! prune chunks that cannot intersect the query range without reading
//! (or checksumming) a single column byte. When one chunk alone covers
//! the queried range of a lane, its `Arc` columns are adopted into the
//! result [`TimeSeries`] zero-copy.
//!
//! Scans cover **sealed** data only — history files and rotation
//! segments. The active WAL tail is raw journal bytes (it may contain
//! samples the detector later rejected as duplicates), so it is
//! exposed on the snapshot for replay-style consumers
//! ([`crate::backfill`]) but never spliced into scan results.

use std::collections::BTreeMap;
use std::io;

use hierod_store::segment::{self, ChunkMeta, SegmentIndex};
use hierod_store::store::{parse_hist_name, read_floor, seg_name, FLOOR_NAME};
use hierod_store::{wal, Storage, WalRecord};
use hierod_stream::codec::decode_lane;
use hierod_stream::LaneId;
use hierod_timeseries::TimeSeries;

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One sealed file in a snapshot: raw bytes plus the verified footer.
#[derive(Debug, Clone)]
pub struct SegmentFile {
    /// File name within the store directory.
    pub name: String,
    /// The full file image (columns are decoded lazily out of it).
    pub bytes: Vec<u8>,
    /// The verified footer index.
    pub index: SegmentIndex,
}

/// A consistent read-only view of one store directory.
#[derive(Debug, Clone, Default)]
pub struct StoreSnapshot {
    /// Live sealed files in replay order: history files by range start,
    /// then rotation segments by index.
    pub files: Vec<SegmentFile>,
    /// Valid records of the active WAL tail (raw journal — may include
    /// samples the detector rejected).
    pub wal: Vec<WalRecord>,
    /// The compaction floor at snapshot time.
    pub floor: u64,
    /// The active WAL index at snapshot time.
    pub wal_index: u64,
}

fn read_index<S: Storage>(storage: &S, name: &str) -> io::Result<SegmentFile> {
    let bytes = storage.read(name)?;
    let index = segment::decode_index(&bytes).map_err(|e| invalid(format!("{name}: {e}")))?;
    Ok(SegmentFile {
        name: name.to_string(),
        bytes,
        index,
    })
}

/// Takes a read-only snapshot of a store directory, applying the same
/// liveness rules as [`hierod_store::Store::open`] recovery (highest
/// WAL wins; history files tile `0..floor`; rotation segments cover
/// `floor..wal_index`) without repairing anything.
///
/// # Errors
/// Storage I/O failures; corrupt footers; a directory whose live files
/// do not tile their expected ranges (a state recovery would also
/// reject).
pub fn snapshot<S: Storage>(storage: &S) -> io::Result<StoreSnapshot> {
    let names = storage.list()?;
    let floor = read_floor(storage)?;

    // Committed, non-superseded history files.
    let all_hist: Vec<(u64, u64)> = names.iter().filter_map(|n| parse_hist_name(n)).collect();
    let mut hist: Vec<(u64, u64)> = all_hist
        .iter()
        .copied()
        .filter(|&(lo, hi)| {
            hi < floor
                && !all_hist
                    .iter()
                    .any(|&(l2, h2)| l2 <= lo && hi <= h2 && (h2 - l2) > (hi - lo) && h2 < floor)
        })
        .collect();
    hist.sort_unstable();
    let mut next_expected = 0;
    for &(lo, hi) in &hist {
        if lo != next_expected {
            return Err(invalid(format!(
                "history run mismatch: expected range starting at {next_expected}, found hist-{lo}-{hi}"
            )));
        }
        next_expected = hi + 1;
    }
    if next_expected != floor {
        return Err(invalid(format!(
            "history run mismatch: files cover 0..{next_expected} but {FLOOR_NAME} is {floor}"
        )));
    }

    // Live rotation segments and the active WAL.
    let mut segs: Vec<u64> = names
        .iter()
        .filter_map(|n| {
            n.strip_prefix("seg-")?
                .strip_suffix(".seg")?
                .parse::<u64>()
                .ok()
        })
        .filter(|&i| i >= floor)
        .collect();
    segs.sort_unstable();
    let wal_max: Option<u64> = names
        .iter()
        .filter_map(|n| n.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok())
        .max();
    let wal_index = match wal_max {
        Some(w) => w,
        None => segs.last().map(|&s| s + 1).unwrap_or(0).max(floor),
    };
    let expected: Vec<u64> = (floor..wal_index).collect();
    if segs != expected {
        return Err(invalid(format!(
            "rotation segments not contiguous: expected seg-{floor}..seg-{wal_index}"
        )));
    }

    let mut files = Vec::with_capacity(hist.len() + segs.len());
    for &(lo, hi) in &hist {
        files.push(read_index(
            storage,
            &hierod_store::store::hist_name(lo, hi),
        )?);
    }
    for &i in &segs {
        files.push(read_index(storage, &seg_name(i))?);
    }

    let wal = match wal_max {
        None => Vec::new(),
        Some(w) => wal::scan(&storage.read(&format!("wal-{w}.log"))?).records,
    };

    Ok(StoreSnapshot {
        files,
        wal,
        floor,
        wal_index,
    })
}

/// A time-range query over the sealed history.
#[derive(Debug, Clone, Default)]
pub struct RangeQuery {
    /// First timestamp of interest (inclusive).
    pub start: u64,
    /// Last timestamp of interest (inclusive).
    pub end: u64,
    /// Restrict to lanes of one machine.
    pub machine: Option<String>,
    /// Restrict to lanes of one sensor.
    pub sensor: Option<String>,
}

impl RangeQuery {
    /// A query over `[start, end]` with no lane restriction.
    pub fn range(start: u64, end: u64) -> Self {
        Self {
            start,
            end,
            machine: None,
            sensor: None,
        }
    }

    fn matches(&self, id: &LaneId) -> bool {
        self.machine.as_deref().is_none_or(|m| m == id.machine)
            && self.sensor.as_deref().is_none_or(|s| s == id.sensor)
    }
}

/// One lane's samples within a scanned range.
#[derive(Debug, Clone)]
pub struct LaneSeries {
    /// The lane the samples came from.
    pub id: LaneId,
    /// The samples within the range, named after the sensor.
    pub series: TimeSeries,
}

/// What a scan touched: the pruning ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Chunks belonging to lanes the query selected.
    pub chunks_total: usize,
    /// Chunks skipped on footer `min_ts`/`max_ts` bounds alone.
    pub chunks_pruned: usize,
    /// Chunks whose columns were decoded and checksummed.
    pub chunks_decoded: usize,
    /// Samples returned across all lanes.
    pub samples: u64,
}

/// Serves pruned time-range scans from a [`StoreSnapshot`].
#[derive(Debug, Clone)]
pub struct HistoryReader {
    snapshot: StoreSnapshot,
    lanes: BTreeMap<u32, LaneId>,
}

impl HistoryReader {
    /// Builds a reader over a snapshot, resolving the union of every
    /// file's lane declarations.
    ///
    /// # Errors
    /// Lane metadata that does not decode as a [`LaneId`], or one lane
    /// number declared with two different identities.
    pub fn new(snapshot: StoreSnapshot) -> io::Result<Self> {
        let mut lanes: BTreeMap<u32, LaneId> = BTreeMap::new();
        for file in &snapshot.files {
            for def in &file.index.lane_defs {
                let id = decode_lane(&def.meta)
                    .ok_or_else(|| invalid(format!("{}: undecodable lane metadata", file.name)))?;
                match lanes.get(&def.lane) {
                    None => {
                        lanes.insert(def.lane, id);
                    }
                    Some(prev) if *prev == id => {}
                    Some(_) => {
                        return Err(invalid(format!(
                            "{}: lane {} redeclared with a different identity",
                            file.name, def.lane
                        )))
                    }
                }
            }
        }
        Ok(Self { snapshot, lanes })
    }

    /// The snapshot this reader serves from.
    pub fn snapshot(&self) -> &StoreSnapshot {
        &self.snapshot
    }

    /// The lanes declared across the snapshot.
    pub fn lanes(&self) -> &BTreeMap<u32, LaneId> {
        &self.lanes
    }

    /// Scans the sealed history for samples in `query`'s time range,
    /// one series per selected lane (lanes with no samples in range are
    /// omitted). Chunks outside the range are pruned on footer metadata
    /// alone; a lane served entirely by one chunk inside the range
    /// adopts that chunk's columns zero-copy.
    ///
    /// # Errors
    /// Column corruption in a chunk the range forced us to decode, or
    /// samples that are not strictly time-ordered across a lane's
    /// chunks (sealed data is always ordered; damage is corruption).
    pub fn scan(&self, query: &RangeQuery) -> io::Result<(Vec<LaneSeries>, ScanStats)> {
        let mut stats = ScanStats::default();
        // (file index, chunk meta) per selected lane, in replay order.
        let mut per_lane: BTreeMap<u32, Vec<(usize, ChunkMeta)>> = BTreeMap::new();
        for (f, file) in self.snapshot.files.iter().enumerate() {
            for meta in &file.index.chunks {
                let Some(id) = self.lanes.get(&meta.lane) else {
                    continue;
                };
                if !query.matches(id) {
                    continue;
                }
                stats.chunks_total += 1;
                let overlaps =
                    meta.count > 0 && meta.min_ts <= query.end && meta.max_ts >= query.start;
                if !overlaps {
                    stats.chunks_pruned += 1;
                    continue;
                }
                per_lane
                    .entry(meta.lane)
                    .or_default()
                    .push((f, meta.clone()));
            }
        }

        let mut out = Vec::new();
        for (lane, chunks) in per_lane {
            let Some(id) = self.lanes.get(&lane) else {
                continue;
            };
            let series = self.assemble(id, &chunks, query, &mut stats)?;
            if let Some(series) = series {
                stats.samples += series.len() as u64;
                out.push(LaneSeries {
                    id: id.clone(),
                    series,
                });
            }
        }
        Ok((out, stats))
    }

    /// Decodes one lane's surviving chunks into a series, taking the
    /// zero-copy path when a single chunk covers the range.
    fn assemble(
        &self,
        id: &LaneId,
        chunks: &[(usize, ChunkMeta)],
        query: &RangeQuery,
        stats: &mut ScanStats,
    ) -> io::Result<Option<TimeSeries>> {
        let mut decoded = Vec::with_capacity(chunks.len());
        for (f, meta) in chunks {
            let file = self
                .snapshot
                .files
                .get(*f)
                .ok_or_else(|| invalid("file index out of bounds".into()))?;
            let chunk = segment::decode_chunk(&file.bytes, meta)
                .map_err(|e| invalid(format!("{}: {e}", file.name)))?;
            stats.chunks_decoded += 1;
            decoded.push(chunk);
        }

        // Zero-copy adoption: one chunk, fully inside the range.
        if let [only] = decoded.as_slice() {
            let inside = only
                .timestamps
                .first()
                .zip(only.timestamps.last())
                .is_some_and(|(&min, &max)| query.start <= min && max <= query.end);
            if inside {
                let series = TimeSeries::from_shared(
                    id.sensor.clone(),
                    only.timestamps.clone(),
                    only.values.clone(),
                )
                .map_err(|e| invalid(format!("lane {}: {e}", only.lane)))?;
                return Ok(Some(series));
            }
        }

        let mut timestamps: Vec<u64> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        for chunk in &decoded {
            for (&t, &v) in chunk.timestamps.iter().zip(chunk.values.iter()) {
                if t < query.start || t > query.end {
                    continue;
                }
                if timestamps.last().is_some_and(|&prev| prev >= t) {
                    return Err(invalid(format!(
                        "lane {}: samples not strictly time-ordered across chunks",
                        chunk.lane
                    )));
                }
                timestamps.push(t);
                values.push(v);
            }
        }
        if timestamps.is_empty() {
            return Ok(None);
        }
        let series = TimeSeries::from_shared(id.sensor.clone(), timestamps.into(), values.into())
            .map_err(|e| invalid(format!("lane scan: {e}")))?;
        Ok(Some(series))
    }
}
