//! Read-only snapshots of a store directory and pruned time-range
//! scans over them.
//!
//! [`snapshot`] is a reader of the store's recovery rule
//! ([`hierod_store::store::layout`]): it takes the files that rule
//! calls live and the sealed ones' footer indexes, and **mutates
//! nothing** — what recovery would remove it skips — so a reader can
//! run against a directory whose owning store is still alive.
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
//! samples the detector later rejected as duplicates): it is replay
//! territory ([`crate::backfill`](mod@crate::backfill)), never spliced into scan results.

use std::collections::BTreeMap;
use std::io;

use hierod_store::segment::{self, ChunkMeta, SegmentIndex};
use hierod_store::store::read_layout;
use hierod_store::Storage;
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

/// A consistent read-only view of one store directory's sealed half.
#[derive(Debug, Clone, Default)]
pub struct StoreSnapshot {
    /// Live sealed files in replay order: history files by range start,
    /// then rotation segments by index.
    pub files: Vec<SegmentFile>,
    /// The compaction floor at snapshot time.
    pub floor: u64,
    /// The active WAL index at snapshot time.
    pub wal_index: u64,
}

/// Takes a read-only snapshot of a store directory: the sealed files
/// [`hierod_store::Store::open`] would load, footer indexes only.
///
/// # Errors
/// Storage I/O failures; corrupt footers; a directory recovery would
/// also reject.
pub fn snapshot<S: Storage>(storage: &S) -> io::Result<StoreSnapshot> {
    let layout = read_layout(storage)?;
    let mut files = Vec::new();
    for name in layout.sealed_names() {
        let bytes = storage.read(&name)?;
        let index = segment::decode_index(&bytes).map_err(|e| invalid(format!("{name}: {e}")))?;
        files.push(SegmentFile { name, bytes, index });
    }
    Ok(StoreSnapshot {
        files,
        floor: layout.floor,
        wal_index: layout.wal_index,
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

        let total = decoded.iter().map(|c| c.timestamps.len()).sum();
        let mut timestamps: Vec<u64> = Vec::with_capacity(total);
        let mut values: Vec<f64> = Vec::with_capacity(total);
        for chunk in &decoded {
            // A decoded chunk is strictly increasing: `[start, end]` is one
            // slice of it.
            let lo = chunk.timestamps.partition_point(|&t| t < query.start);
            let hi = chunk.timestamps.partition_point(|&t| t <= query.end);
            let (Some(kept_ts), Some(kept_values)) =
                (chunk.timestamps.get(lo..hi), chunk.values.get(lo..hi))
            else {
                continue;
            };
            if let (Some(&prev), Some(&first)) = (timestamps.last(), kept_ts.first()) {
                if prev >= first {
                    return Err(invalid(format!(
                        "lane {}: samples not strictly time-ordered across chunks",
                        chunk.lane
                    )));
                }
            }
            timestamps.extend_from_slice(kept_ts);
            values.extend_from_slice(kept_values);
        }
        if timestamps.is_empty() {
            return Ok(None);
        }
        let series = TimeSeries::from_shared(id.sensor.clone(), timestamps.into(), values.into())
            .map_err(|e| invalid(format!("lane scan: {e}")))?;
        Ok(Some(series))
    }
}
