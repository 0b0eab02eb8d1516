//! Frame types, payload codecs, and the incremental frame reader.
//!
//! Ingest frames are the WAL's records ([`hierod_store::wal`], whose
//! module docs lay out every byte). A sample frame is a *run*: one to
//! [`wal::MAX_RUN`] samples under one frame and one checksum. Senders
//! write tag 4: the first sample whole, each later one a head byte that
//! says whether its lane and timestamp delta follow or are implied by
//! the run so far, then its value's XOR with the lane's last value,
//! trimmed of leading and trailing zero bytes. A run of one is the first
//! sample alone. The tag-3 run older senders write — lane, timestamp
//! delta and whole value per later sample — is still read.
//! `hierod_server`'s `Client` coalesces consecutive samples into one run;
//! any other frame, a flush or the cap closes it. Which tags are runs is
//! [`wal::is_run`]'s to say, not this module's.
//!
//! [`FrameReader::take_samples`] decodes run frames straight into the
//! connection's run of `(wire lane, sample)`; [`FrameReader::poll`]
//! hands a run out as one [`Frame::Ingest`] of a
//! [`WalRecord::Sample`] per sample, as [`wal::scan`] does for the
//! journal. A run that is torn, fails its checksum or does not parse —
//! a field cut short, trailing bytes, a timestamp that leaves `u64`,
//! more than [`wal::MAX_RUN`] samples, anything a writer cannot produce
//! — is rejected whole.

use std::io::{self, Read, Write};
use std::sync::Arc;

use hierod_core::HierOutlier;
use hierod_hierarchy::Level;
use hierod_history::ScanStats;
use hierod_store::codec;
use hierod_store::crc::crc32;
use hierod_store::wal::{self, put_framed, WalRecord, MAX_RUN_PAYLOAD};
use hierod_stream::codec::{decode_lane, encode_lane};
use hierod_stream::{Health, LaneId, LaneStats, PlantHealth, RecoverySummary, Sample, StreamStats};

use crate::report::{
    self, put_lane_stats, put_outliers, put_stream_stats, take_lane_stats, take_outliers,
    take_stream_stats, LevelSeries,
};

/// Cap on one frame's payload (64 MiB). A length field above it is
/// corruption, not an allocation request; a server whose reply would be
/// longer answers [`ErrorCode::TooLarge`] instead. A report names its
/// series without their columns (codec v3), so it grows with the
/// findings; the replies that grow with the history — range scans and
/// series queries — are narrowed by their range.
pub const MAX_FRAME_LEN: u32 = 1 << 26;

// Tags below 16 are the WAL's record tags, verbatim: `hierod_store::wal`
// knows them, and `Frame::decode_payload` hands it any tag not here.
// Request frames.
const TAG_ADMIT: u8 = 16;
const TAG_TICK: u8 = 17;
const TAG_FINISH: u8 = 18;
const TAG_QUERY_SCORES: u8 = 19;
const TAG_QUERY_LANE_STATS: u8 = 20;
const TAG_QUERY_DELTAS: u8 = 21;
const TAG_QUERY_HEALTH: u8 = 22;
const TAG_RANGE_SCAN: u8 = 23;
const TAG_BACKFILL: u8 = 24;
const TAG_QUERY_SERIES: u8 = 25;
// Response frames.
const TAG_OK: u8 = 32;
const TAG_ERROR: u8 = 33;
const TAG_TICK_DONE: u8 = 34;
const TAG_REPORT: u8 = 35;
const TAG_SCORES: u8 = 36;
const TAG_LANE_STATS: u8 = 37;
const TAG_DELTAS: u8 = 38;
const TAG_NO_CHANGE: u8 = 39;
const TAG_HEALTH: u8 = 40;
const TAG_SERIES: u8 = 41;
const TAG_BACKFILL_DONE: u8 = 42;
const TAG_SERIES_SCORES: u8 = 43;

/// One lane of a [`Frame::Series`] reply: lane identity, timestamp column,
/// value column.
pub type LaneColumns = (LaneId, Arc<[u64]>, Arc<[f64]>);

/// Machine-readable error class carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed or out-of-sequence request (e.g. ingest before admit).
    Protocol,
    /// The request addressed a plant/lane/machine that does not exist.
    Missing,
    /// The request was structurally valid but semantically rejected
    /// (bad tenant id, lifecycle violation, duplicate admission).
    Invalid,
    /// The plant is parked in the failed set — storage too damaged to
    /// recover; an operator must intervene.
    Failed,
    /// A storage or substrate failure while handling the request.
    Substrate,
    /// The server is shutting down and draining connections.
    Draining,
    /// The reply would exceed [`MAX_FRAME_LEN`]; the connection stays
    /// usable, and a narrower request may fit.
    TooLarge,
}

impl ErrorCode {
    /// Stable one-byte wire code.
    pub(crate) fn code(self) -> u8 {
        match self {
            ErrorCode::Protocol => 1,
            ErrorCode::Missing => 2,
            ErrorCode::Invalid => 3,
            ErrorCode::Failed => 4,
            ErrorCode::Substrate => 5,
            ErrorCode::Draining => 6,
            ErrorCode::TooLarge => 7,
        }
    }

    /// Inverse of `ErrorCode::code`.
    pub fn from_code(code: u8) -> Option<ErrorCode> {
        match code {
            1 => Some(ErrorCode::Protocol),
            2 => Some(ErrorCode::Missing),
            3 => Some(ErrorCode::Invalid),
            4 => Some(ErrorCode::Failed),
            5 => Some(ErrorCode::Substrate),
            6 => Some(ErrorCode::Draining),
            7 => Some(ErrorCode::TooLarge),
            _ => None,
        }
    }
}

/// One wire frame, either direction. See the module docs for the frame
/// format and DESIGN.md §4.16 for the full tag table.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// An ingest frame: a WAL record, byte-for-byte ([`WalRecord`]
    /// tags 1–4 — lane definition, control event, sample run). A sample is
    /// encoded as a run of one; a received run of many decodes as one
    /// such frame per sample (module docs). Not individually
    /// acknowledged; errors surface at the next synchronous request. A
    /// control's `seq` is ignored: the plant's journal numbers the
    /// controls it applies.
    Ingest(WalRecord),
    /// Selects (or creates) the plant this connection drives.
    Admit {
        /// Plant id (validated against the tenant-id grammar).
        plant: String,
        /// Create the plant when it does not exist yet.
        create: bool,
    },
    /// Assembles an interim durable report; answered by
    /// [`Frame::TickDone`].
    Tick,
    /// Finalizes the plant and returns the final report; answered by
    /// [`Frame::Report`].
    Finish,
    /// Asks for the current ⟨global score, outlierness, support⟩
    /// triples, optionally restricted to one level; answered by
    /// [`Frame::Scores`].
    QueryScores {
        /// Restrict to one level (`None` = all levels).
        level: Option<Level>,
    },
    /// Asks for per-lane ingest counters and aggregate stream stats;
    /// answered by [`Frame::LaneStatsReply`].
    QueryLaneStats,
    /// Asks for report changes since version `since`; answered by
    /// [`Frame::Deltas`], [`Frame::Report`] (resync), or
    /// [`Frame::NoChange`].
    QueryDeltas {
        /// The last report version this client has seen (0 = none).
        since: u64,
    },
    /// Asks for the service health snapshot; answered by
    /// [`Frame::HealthReply`].
    QueryHealth,
    /// Asks for the plant's sealed history samples in `[start, end]`,
    /// optionally filtered to one machine and/or sensor; answered by
    /// [`Frame::Series`].
    RangeScan {
        /// Inclusive range start (tick domain).
        start: u64,
        /// Inclusive range end.
        end: u64,
        /// Restrict to lanes of one machine (`None` = all machines).
        machine: Option<String>,
        /// Restrict to lanes of one sensor (`None` = all sensors).
        sensor: Option<String>,
    },
    /// Asks the server to replay the stored `[start, end]` range
    /// through a fresh detector, optionally with the phase-level
    /// detector swapped to `spec` (an `AlgoSpec` in its `Display` form,
    /// e.g. `"sliding-z(window=8)"`); answered by
    /// [`Frame::BackfillDone`].
    Backfill {
        /// Inclusive range start (tick domain).
        start: u64,
        /// Inclusive range end.
        end: u64,
        /// Replacement phase-detector spec (`None` = original policy).
        spec: Option<String>,
    },
    /// Asks for per-series score columns of the current report — which
    /// reports name but do not carry — cut to `[start, end]`, optionally
    /// restricted to one level, machine and/or sensor (see
    /// [`SeriesQuery`](report::SeriesQuery)); answered by [`Frame::SeriesScores`].
    QuerySeries {
        /// Restrict to one level (`None` = all levels).
        level: Option<Level>,
        /// Restrict to series of one machine (`None` = all machines).
        machine: Option<String>,
        /// Restrict to series of one sensor (`None` = all sensors).
        sensor: Option<String>,
        /// Inclusive range start (tick domain).
        start: u64,
        /// Inclusive range end.
        end: u64,
    },
    /// Generic success acknowledgement.
    Ok {
        /// Request-specific detail (e.g. admission outcome).
        info: u64,
    },
    /// Request failure; the connection stays usable.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// A tick completed: the report cache now holds `version`.
    TickDone {
        /// New report version.
        version: u64,
        /// Number of hierarchical outliers in the report.
        outliers: u64,
    },
    /// A serialized [`StreamReport`](hierod_stream::StreamReport), its
    /// series named without their columns (see [`report::encode_report`]).
    Report {
        /// Report version (monotone per plant).
        version: u64,
        /// `encode_report` bytes.
        report: Vec<u8>,
    },
    /// Current outlier triples, filtered as requested.
    Scores {
        /// Report version the scores came from.
        version: u64,
        /// The triples with full provenance.
        outliers: Vec<HierOutlier>,
    },
    /// Per-lane counters plus aggregate stream stats.
    LaneStatsReply {
        /// Aggregate counters (including `corrupt_records`).
        stats: StreamStats,
        /// Per-lane counters, sorted by lane.
        lanes: Vec<(LaneId, LaneStats)>,
    },
    /// Outlier-set changes between two report versions.
    Deltas {
        /// Version the delta starts from.
        from: u64,
        /// Version the delta ends at (the current one).
        to: u64,
        /// Triples present in `to` but not `from`.
        added: Vec<HierOutlier>,
        /// Triples present in `from` but not `to`.
        removed: Vec<HierOutlier>,
    },
    /// Nothing changed since the queried version.
    NoChange {
        /// The current report version.
        version: u64,
    },
    /// Service health snapshot.
    HealthReply(Health),
    /// Sealed-history samples answering a [`Frame::RangeScan`]: one
    /// column pair per matching lane, sorted by lane, plus the scan's
    /// pruning counters.
    Series {
        /// Per-lane results: lane identity, timestamp column, value
        /// column (columns are index-aligned and strictly increasing in
        /// time). The columns are shared storage, so a server replies
        /// with the scanned series' own buffers.
        lanes: Vec<LaneColumns>,
        /// Chunk-pruning accounting of the scan.
        stats: ScanStats,
    },
    /// A backfill replay finished; answers [`Frame::Backfill`].
    BackfillDone {
        /// `encode_report` bytes of the replayed report.
        report: Vec<u8>,
        /// Control events replayed (the full lifecycle skeleton).
        controls_replayed: u64,
        /// Samples inside the requested range that were replayed.
        samples_replayed: u64,
        /// Samples outside the requested range that were skipped.
        samples_skipped: u64,
    },
    /// Per-series score columns answering a [`Frame::QuerySeries`]: every
    /// selected series with samples in the range, in report order.
    SeriesScores {
        /// Report version the columns came from.
        version: u64,
        /// Level, key, and the columns cut to the range. The columns are
        /// shared storage: a series wholly inside the range is replied
        /// with the report's own buffers.
        series: Vec<LevelSeries>,
    },
}

// ---------------------------------------------------------------------
// Optional-value helpers shared with the report codec.

pub(crate) fn put_opt_str(out: &mut Vec<u8>, v: Option<&str>) {
    match v {
        Some(s) => {
            out.push(1);
            codec::put_str(out, s);
        }
        None => out.push(0),
    }
}

pub(crate) fn take_opt_str(buf: &mut &[u8]) -> Option<Option<String>> {
    match codec::take_u8(buf)? {
        0 => Some(None),
        1 => Some(Some(codec::take_str(buf)?)),
        _ => None,
    }
}

pub(crate) fn put_opt_varint(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(n) => {
            out.push(1);
            codec::put_varint(out, n);
        }
        None => out.push(0),
    }
}

pub(crate) fn take_opt_varint(buf: &mut &[u8]) -> Option<Option<u64>> {
    match codec::take_u8(buf)? {
        0 => Some(None),
        1 => Some(Some(codec::take_varint(buf)?)),
        _ => None,
    }
}

/// A level filter: 0 for none, else the level's number — any other byte
/// is malformed.
fn take_opt_level(buf: &mut &[u8]) -> Option<Option<Level>> {
    match codec::take_u8(buf)? {
        0 => Some(None),
        n => Some(Some(Level::from_number(n)?)),
    }
}

pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

pub(crate) fn take_bool(buf: &mut &[u8]) -> Option<bool> {
    match codec::take_u8(buf)? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

fn put_series(out: &mut Vec<u8>, lanes: &[LaneColumns], stats: &ScanStats) {
    // One reservation: a lane's record at most, plus its columns.
    let size = lanes
        .iter()
        .map(|(lane, timestamps, values)| {
            report::RECORD_FIXED_MAX
                + lane.machine.len()
                + lane.sensor.len()
                + report::columns_size_hint(timestamps, values.len())
        })
        .sum::<usize>();
    out.reserve(report::RECORD_FIXED_MAX + size);
    codec::put_varint(out, lanes.len() as u64);
    for (lane, timestamps, values) in lanes {
        codec::put_bytes(out, &encode_lane(lane));
        report::put_timestamps(out, timestamps);
        report::put_floats(out, values);
    }
    codec::put_varint(out, stats.chunks_total as u64);
    codec::put_varint(out, stats.chunks_pruned as u64);
    codec::put_varint(out, stats.chunks_decoded as u64);
    codec::put_varint(out, stats.samples);
}

fn take_series(buf: &mut &[u8]) -> Option<(Vec<LaneColumns>, ScanStats)> {
    let n = codec::take_varint(buf)?;
    let mut lanes = Vec::new();
    for _ in 0..n {
        let lane = decode_lane(codec::take_bytes(buf)?)?;
        let timestamps = report::take_timestamps(buf)?;
        let values = report::take_floats(buf)?;
        lanes.push((lane, timestamps.into(), values.into()));
    }
    let stats = ScanStats {
        chunks_total: usize::try_from(codec::take_varint(buf)?).ok()?,
        chunks_pruned: usize::try_from(codec::take_varint(buf)?).ok()?,
        chunks_decoded: usize::try_from(codec::take_varint(buf)?).ok()?,
        samples: codec::take_varint(buf)?,
    };
    Some((lanes, stats))
}

fn put_health(out: &mut Vec<u8>, h: &Health) {
    codec::put_varint(out, h.live.len() as u64);
    for p in &h.live {
        codec::put_str(out, &p.id);
        codec::put_varint(out, p.recovery.controls_applied);
        codec::put_varint(out, p.recovery.restored_samples);
        codec::put_varint(out, p.recovery.replayed_samples);
        codec::put_varint(out, p.recovery.corrupt_records);
    }
    codec::put_varint(out, h.failed.len() as u64);
    for (id, err) in &h.failed {
        codec::put_str(out, id);
        codec::put_str(out, err);
    }
}

fn take_health(buf: &mut &[u8]) -> Option<Health> {
    let n = codec::take_varint(buf)?;
    let mut live = Vec::new();
    for _ in 0..n {
        let id = codec::take_str(buf)?;
        let recovery = RecoverySummary {
            controls_applied: codec::take_varint(buf)?,
            restored_samples: codec::take_varint(buf)?,
            replayed_samples: codec::take_varint(buf)?,
            corrupt_records: codec::take_varint(buf)?,
        };
        live.push(PlantHealth { id, recovery });
    }
    let m = codec::take_varint(buf)?;
    let mut failed = Vec::new();
    for _ in 0..m {
        failed.push((codec::take_str(buf)?, codec::take_str(buf)?));
    }
    Some(Health { live, failed })
}

impl Frame {
    /// Serialises the frame's payload (tag + body). Ingest frames defer
    /// to the WAL record encoder so their bytes are WAL-verbatim.
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Ingest(record) => record.encode_payload(out),
            Frame::Admit { plant, create } => {
                out.push(TAG_ADMIT);
                codec::put_str(out, plant);
                put_bool(out, *create);
            }
            Frame::Tick => out.push(TAG_TICK),
            Frame::Finish => out.push(TAG_FINISH),
            Frame::QueryScores { level } => {
                out.push(TAG_QUERY_SCORES);
                out.push(level.map_or(0, Level::number));
            }
            Frame::QueryLaneStats => out.push(TAG_QUERY_LANE_STATS),
            Frame::QueryDeltas { since } => {
                out.push(TAG_QUERY_DELTAS);
                codec::put_varint(out, *since);
            }
            Frame::QueryHealth => out.push(TAG_QUERY_HEALTH),
            Frame::RangeScan {
                start,
                end,
                machine,
                sensor,
            } => {
                out.push(TAG_RANGE_SCAN);
                codec::put_varint(out, *start);
                codec::put_varint(out, *end);
                put_opt_str(out, machine.as_deref());
                put_opt_str(out, sensor.as_deref());
            }
            Frame::Backfill { start, end, spec } => {
                out.push(TAG_BACKFILL);
                codec::put_varint(out, *start);
                codec::put_varint(out, *end);
                put_opt_str(out, spec.as_deref());
            }
            Frame::QuerySeries {
                level,
                machine,
                sensor,
                start,
                end,
            } => {
                out.push(TAG_QUERY_SERIES);
                out.push(level.map_or(0, Level::number));
                put_opt_str(out, machine.as_deref());
                put_opt_str(out, sensor.as_deref());
                codec::put_varint(out, *start);
                codec::put_varint(out, *end);
            }
            Frame::Ok { info } => {
                out.push(TAG_OK);
                codec::put_varint(out, *info);
            }
            Frame::Error { code, message } => {
                out.push(TAG_ERROR);
                out.push(code.code());
                codec::put_str(out, message);
            }
            Frame::TickDone { version, outliers } => {
                out.push(TAG_TICK_DONE);
                codec::put_varint(out, *version);
                codec::put_varint(out, *outliers);
            }
            Frame::Report { version, report } => {
                out.push(TAG_REPORT);
                codec::put_varint(out, *version);
                codec::put_bytes(out, report);
            }
            Frame::Scores { version, outliers } => {
                out.push(TAG_SCORES);
                codec::put_varint(out, *version);
                put_outliers(out, outliers);
            }
            Frame::LaneStatsReply { stats, lanes } => {
                out.push(TAG_LANE_STATS);
                put_stream_stats(out, stats);
                put_lane_stats(out, lanes.iter().map(|(lane, l)| (lane, l)));
            }
            Frame::Deltas {
                from,
                to,
                added,
                removed,
            } => {
                out.push(TAG_DELTAS);
                codec::put_varint(out, *from);
                codec::put_varint(out, *to);
                put_outliers(out, added);
                put_outliers(out, removed);
            }
            Frame::NoChange { version } => {
                out.push(TAG_NO_CHANGE);
                codec::put_varint(out, *version);
            }
            Frame::HealthReply(health) => {
                out.push(TAG_HEALTH);
                put_health(out, health);
            }
            Frame::Series { lanes, stats } => {
                out.push(TAG_SERIES);
                put_series(out, lanes, stats);
            }
            Frame::BackfillDone {
                report,
                controls_replayed,
                samples_replayed,
                samples_skipped,
            } => {
                out.push(TAG_BACKFILL_DONE);
                codec::put_bytes(out, report);
                codec::put_varint(out, *controls_replayed);
                codec::put_varint(out, *samples_replayed);
                codec::put_varint(out, *samples_skipped);
            }
            Frame::SeriesScores { version, series } => {
                out.reserve(
                    report::RECORD_FIXED_MAX
                        + series
                            .iter()
                            .map(report::level_series_size_hint)
                            .sum::<usize>(),
                );
                out.push(TAG_SERIES_SCORES);
                codec::put_varint(out, *version);
                codec::put_varint(out, series.len() as u64);
                for s in series {
                    report::put_level_series(out, s);
                }
            }
        }
    }

    /// Appends the fully framed record (`[len][crc][payload]`) to
    /// `out` — for an ingest frame, the framed WAL record. The payload is
    /// written in place behind a reserved header: a caller that reuses
    /// `out` (as `hierod_server::Client` does for its ingest frames)
    /// encodes without allocating.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_framed(out, |out| self.encode_payload(out));
    }

    /// Decodes one payload (tag + body); total — `None` on any
    /// malformation, trailing bytes included. A sample run decodes only
    /// if it is a run of one: [`FrameReader`] hands a longer one out a
    /// sample at a time.
    pub fn decode_payload(bytes: &[u8]) -> Option<Frame> {
        let mut buf = bytes;
        let buf = &mut buf;
        let frame = match codec::take_u8(buf)? {
            TAG_ADMIT => Frame::Admit {
                plant: codec::take_str(buf)?,
                create: take_bool(buf)?,
            },
            TAG_TICK => Frame::Tick,
            TAG_FINISH => Frame::Finish,
            TAG_QUERY_SCORES => Frame::QueryScores {
                level: take_opt_level(buf)?,
            },
            TAG_QUERY_LANE_STATS => Frame::QueryLaneStats,
            TAG_QUERY_DELTAS => Frame::QueryDeltas {
                since: codec::take_varint(buf)?,
            },
            TAG_QUERY_HEALTH => Frame::QueryHealth,
            TAG_RANGE_SCAN => Frame::RangeScan {
                start: codec::take_varint(buf)?,
                end: codec::take_varint(buf)?,
                machine: take_opt_str(buf)?,
                sensor: take_opt_str(buf)?,
            },
            TAG_BACKFILL => Frame::Backfill {
                start: codec::take_varint(buf)?,
                end: codec::take_varint(buf)?,
                spec: take_opt_str(buf)?,
            },
            TAG_QUERY_SERIES => Frame::QuerySeries {
                level: take_opt_level(buf)?,
                machine: take_opt_str(buf)?,
                sensor: take_opt_str(buf)?,
                start: codec::take_varint(buf)?,
                end: codec::take_varint(buf)?,
            },
            TAG_OK => Frame::Ok {
                info: codec::take_varint(buf)?,
            },
            TAG_ERROR => Frame::Error {
                code: ErrorCode::from_code(codec::take_u8(buf)?)?,
                message: codec::take_str(buf)?,
            },
            TAG_TICK_DONE => Frame::TickDone {
                version: codec::take_varint(buf)?,
                outliers: codec::take_varint(buf)?,
            },
            TAG_REPORT => Frame::Report {
                version: codec::take_varint(buf)?,
                report: codec::take_bytes(buf)?.to_vec(),
            },
            TAG_SCORES => Frame::Scores {
                version: codec::take_varint(buf)?,
                outliers: take_outliers(buf)?,
            },
            TAG_LANE_STATS => Frame::LaneStatsReply {
                stats: take_stream_stats(buf)?,
                lanes: take_lane_stats(buf)?,
            },
            TAG_DELTAS => Frame::Deltas {
                from: codec::take_varint(buf)?,
                to: codec::take_varint(buf)?,
                added: take_outliers(buf)?,
                removed: take_outliers(buf)?,
            },
            TAG_NO_CHANGE => Frame::NoChange {
                version: codec::take_varint(buf)?,
            },
            TAG_HEALTH => Frame::HealthReply(take_health(buf)?),
            TAG_SERIES => {
                let (lanes, stats) = take_series(buf)?;
                Frame::Series { lanes, stats }
            }
            TAG_BACKFILL_DONE => Frame::BackfillDone {
                report: codec::take_bytes(buf)?.to_vec(),
                controls_replayed: codec::take_varint(buf)?,
                samples_replayed: codec::take_varint(buf)?,
                samples_skipped: codec::take_varint(buf)?,
            },
            TAG_SERIES_SCORES => {
                let version = codec::take_varint(buf)?;
                let n = codec::take_varint(buf)?;
                let mut series = Vec::new();
                for _ in 0..n {
                    series.push(report::take_level_series(buf)?);
                }
                Frame::SeriesScores { version, series }
            }
            _ => return WalRecord::decode_payload(bytes).map(Frame::Ingest),
        };
        buf.is_empty().then_some(frame)
    }
}

/// Writes one framed frame to `w` (no internal buffering; callers batch
/// by wrapping `w` in a `BufWriter` and flushing at protocol
/// boundaries).
///
/// # Errors
/// Propagates the underlying write error.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let mut out = Vec::with_capacity(64);
    frame.encode(&mut out);
    w.write_all(&out)
}

/// What one [`FrameReader::poll`] observed.
#[derive(Debug)]
pub enum Poll {
    /// One complete, checksum-verified frame.
    Frame(Frame),
    /// No complete frame buffered and the reader would block (read
    /// timeout / `WouldBlock`); partial bytes stay buffered.
    Idle,
    /// Clean end of stream at a frame boundary.
    Eof,
}

/// The payload of the sample-run frame at the front of `bytes`, complete
/// and checksum-verified, and the bytes behind it; `None` if what is
/// there is anything else.
fn front_run(mut bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len, crc) = (codec::take_u32(&mut bytes)?, codec::take_u32(&mut bytes)?);
    let len = Some(len as usize).filter(|&len| len <= MAX_RUN_PAYLOAD)?;
    let payload = codec::take(&mut bytes, len)?;
    // The tag first: only a frame that says it is a sample run is worth
    // checksumming here.
    if !wal::is_run(payload) || crc32(payload) != crc {
        return None;
    }
    Some((payload, bytes))
}

/// Decodes a run payload onto the end of `run`; `false` (and `run`
/// untouched) if it is malformed.
fn decode_run(payload: &[u8], run: &mut Vec<(u32, Sample)>) -> bool {
    wal::decode_run(payload, run, |lane, timestamp, value| {
        (lane, Sample { timestamp, value })
    })
}

/// Incremental frame decoder over any [`Read`].
///
/// Tolerates arbitrary read fragmentation (a frame split across reads
/// stays buffered) and read timeouts (mid-frame timeouts return
/// [`Poll::Idle`] without losing bytes — the server's drain loop relies
/// on this to poll its shutdown flag between frames).
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    /// The samples of the last run frame [`poll`](FrameReader::poll)
    /// decoded, from `next` on not yet handed out.
    pending: Vec<(u32, Sample)>,
    next: usize,
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `n` buffered bytes as decoded, reclaiming the buffer's front
    /// once it is worth a move.
    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// The next sample of the last decoded run, as its own ingest frame.
    fn next_pending(&mut self) -> Option<Frame> {
        let &(lane, sample) = self.pending.get(self.next)?;
        self.next += 1;
        Some(Frame::Ingest(WalRecord::Sample {
            lane,
            timestamp: sample.timestamp,
            value: sample.value,
        }))
    }

    /// Attempts to decode one frame from the buffered bytes; a sample
    /// run is decoded whole into `pending` and handed out a sample at a
    /// time.
    ///
    /// # Errors
    /// `InvalidData` on oversized lengths, checksum mismatches, or
    /// malformed payloads — the connection is unrecoverable after any
    /// of these (framing is lost).
    fn try_decode(&mut self) -> io::Result<Option<Frame>> {
        let avail = self.buf.get(self.start..).unwrap_or_default();
        let mut cursor = avail;
        let (Some(len), Some(crc)) = (codec::take_u32(&mut cursor), codec::take_u32(&mut cursor))
        else {
            return Ok(None);
        };
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds cap {MAX_FRAME_LEN}"),
            ));
        }
        let Some(payload) = codec::take(&mut cursor, len as usize) else {
            return Ok(None);
        };
        if crc32(payload) != crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame checksum mismatch",
            ));
        }
        let malformed = || io::Error::new(io::ErrorKind::InvalidData, "malformed frame payload");
        let frame = if wal::is_run(payload) {
            self.pending.clear();
            self.next = 0;
            if !decode_run(payload, &mut self.pending) {
                return Err(malformed());
            }
            None
        } else {
            Some(Frame::decode_payload(payload).ok_or_else(malformed)?)
        };
        self.consume(8 + len as usize);
        Ok(frame.or_else(|| self.next_pending()))
    }

    /// Moves the samples [`poll`](FrameReader::poll) has decoded but not
    /// yet handed out, then every sample of each complete,
    /// checksum-verified, well-formed run frame at the front of the
    /// buffered bytes, into `run`, as `(wire lane, sample)`, in stream
    /// order — a frame decoded straight into `run`. Stops in front of the
    /// first frame that is anything else — another kind of frame, an
    /// incomplete one, a damaged one — which is left for `poll` to decode
    /// or report. Reads nothing: what it takes is what earlier reads
    /// already delivered, so a run is never longer than one read's worth
    /// of frames (plus the frame the read before it left incomplete).
    pub fn take_samples(&mut self, run: &mut Vec<(u32, Sample)>) {
        run.extend(self.pending.drain(self.next..));
        self.pending.clear();
        self.next = 0;
        let avail = self.buf.get(self.start..).unwrap_or_default();
        let mut rest = avail;
        while let Some((payload, behind)) = front_run(rest) {
            if !decode_run(payload, run) {
                break;
            }
            rest = behind;
        }
        self.consume(avail.len() - rest.len());
    }

    /// Reads until one complete frame, a would-block, or EOF.
    ///
    /// # Errors
    /// `InvalidData` for protocol damage (a frame that does not decode),
    /// `UnexpectedEof` for a connection cut mid-frame, and any other
    /// underlying I/O error.
    pub fn poll<R: Read>(&mut self, r: &mut R) -> io::Result<Poll> {
        if let Some(frame) = self.next_pending() {
            return Ok(Poll::Frame(frame));
        }
        loop {
            if let Some(frame) = self.try_decode()? {
                return Ok(Poll::Frame(frame));
            }
            let mut tmp = [0_u8; 8192];
            match r.read(&mut tmp) {
                Ok(0) => {
                    return if self.start == self.buf.len() {
                        Ok(Poll::Eof)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-frame",
                        ))
                    };
                }
                Ok(n) => {
                    if let Some(chunk) = tmp.get(..n) {
                        self.buf.extend_from_slice(chunk);
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(Poll::Idle);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}
