//! Deterministic report serialisation, and the per-series columns on
//! demand.
//!
//! [`encode_report`] turns a [`StreamReport`] — per-level detections,
//! the Algorithm-1 ⟨global score, outlierness, support⟩ triples with
//! warnings, aggregate stream stats, and per-lane stats — into one
//! byte string; [`decode_report`] is its total inverse up to the columns
//! (below). Both paths iterate the report's `BTreeMap`s, so the encoding
//! is a pure function of the report's value: two equal reports encode to
//! equal bytes, no matter which process produced them. That determinism
//! is what the wire-equivalence test leans on when it pins *report over
//! TCP ≡ report from the embedded service, byte for byte*.
//!
//! ## Codec v3: findings, not history
//!
//! A report names every scored series — machine, job, phase, sensor —
//! but does not carry its `timestamps` and `z` columns: those grow with
//! everything ingested (12 MB for a million-sample plant with 6,079
//! outliers), the rest grows with the findings. What a report is once it
//! has crossed the wire is [`without_columns`] of the report that was
//! sent. The columns are served on demand: a [`SeriesQuery`] picks series
//! by level, machine and sensor and cuts their columns to a time range
//! (`Frame::QuerySeries`, answered from the report a server caches).
//! Version 2 bytes, which carried the columns, decode to `None`.
//!
//! Floats are encoded bit-exactly ([`codec::put_f64`]), so NaN scores
//! survive the round trip unchanged.

use std::collections::BTreeMap;
use std::sync::Arc;

use hierod_core::detect_level::{LevelDetections, LevelOutlier, SeriesScores, VectorScore};
use hierod_core::{HierOutlier, HierReport, Warning};
use hierod_hierarchy::{Level, PhaseKind};
use hierod_store::codec;
use hierod_stream::codec::{decode_lane, encode_lane, phase_kind_code, phase_kind_from};
use hierod_stream::{LaneId, LaneStats, StreamReport, StreamStats};

use crate::frame::{put_opt_str, put_opt_varint, take_opt_varint};

fn put_opt_phase(out: &mut Vec<u8>, v: Option<PhaseKind>) {
    match v {
        Some(kind) => {
            out.push(1);
            out.push(phase_kind_code(kind));
        }
        None => out.push(0),
    }
}

fn take_opt_phase(buf: &mut &[u8]) -> Option<Option<PhaseKind>> {
    match codec::take_u8(buf)? {
        0 => Some(None),
        1 => Some(Some(phase_kind_from(codec::take_u8(buf)?)?)),
        _ => None,
    }
}

fn take_opt_index(buf: &mut &[u8]) -> Option<Option<usize>> {
    match take_opt_varint(buf)? {
        None => Some(None),
        Some(v) => Some(Some(usize::try_from(v).ok()?)),
    }
}

/// A name, decoded straight into the shared string the report types hold.
fn take_name(buf: &mut &[u8]) -> Option<Arc<str>> {
    std::str::from_utf8(codec::take_bytes(buf)?)
        .ok()
        .map(Arc::from)
}

fn take_opt_name(buf: &mut &[u8]) -> Option<Option<Arc<str>>> {
    match codec::take_u8(buf)? {
        0 => Some(None),
        1 => Some(Some(take_name(buf)?)),
        _ => None,
    }
}

fn put_hier_outlier(out: &mut Vec<u8>, o: &HierOutlier) {
    out.push(o.level.number());
    codec::put_str(out, &o.machine);
    put_opt_str(out, o.job.as_deref());
    put_opt_phase(out, o.phase);
    put_opt_str(out, o.sensor.as_deref());
    put_opt_varint(out, o.index.map(|i| i as u64));
    put_opt_varint(out, o.timestamp);
    codec::put_f64(out, o.outlierness);
    codec::put_f64(out, o.support);
    out.push(o.global_score);
}

fn take_hier_outlier(buf: &mut &[u8]) -> Option<HierOutlier> {
    Some(HierOutlier {
        level: Level::from_number(codec::take_u8(buf)?)?,
        machine: take_name(buf)?,
        job: take_opt_name(buf)?,
        phase: take_opt_phase(buf)?,
        sensor: take_opt_name(buf)?,
        index: take_opt_index(buf)?,
        timestamp: take_opt_varint(buf)?,
        outlierness: codec::take_f64(buf)?,
        support: codec::take_f64(buf)?,
        global_score: codec::take_u8(buf)?,
    })
}

pub(crate) fn put_outliers(out: &mut Vec<u8>, outliers: &[HierOutlier]) {
    codec::put_varint(out, outliers.len() as u64);
    for o in outliers {
        put_hier_outlier(out, o);
    }
}

pub(crate) fn take_outliers(buf: &mut &[u8]) -> Option<Vec<HierOutlier>> {
    let n = codec::take_varint(buf)?;
    let mut out = Vec::new();
    for _ in 0..n {
        out.push(take_hier_outlier(buf)?);
    }
    Some(out)
}

pub(crate) fn put_stream_stats(out: &mut Vec<u8>, s: &StreamStats) {
    codec::put_varint(out, s.samples_ingested);
    codec::put_varint(out, s.samples_released);
    codec::put_varint(out, s.late_dropped);
    codec::put_varint(out, s.duplicates_dropped);
    codec::put_varint(out, s.series_failed);
    codec::put_varint(out, s.corrupt_records);
    codec::put_varint(out, s.drift_events);
    codec::put_varint(out, s.refits);
}

pub(crate) fn take_stream_stats(buf: &mut &[u8]) -> Option<StreamStats> {
    Some(StreamStats {
        samples_ingested: codec::take_varint(buf)?,
        samples_released: codec::take_varint(buf)?,
        late_dropped: codec::take_varint(buf)?,
        duplicates_dropped: codec::take_varint(buf)?,
        series_failed: codec::take_varint(buf)?,
        corrupt_records: codec::take_varint(buf)?,
        drift_events: codec::take_varint(buf)?,
        refits: codec::take_varint(buf)?,
    })
}

/// The lane-stats records, from a reply frame's list or a report's map.
pub(crate) fn put_lane_stats<'a>(
    out: &mut Vec<u8>,
    lanes: impl ExactSizeIterator<Item = (&'a LaneId, &'a LaneStats)>,
) {
    codec::put_varint(out, lanes.len() as u64);
    for (lane, l) in lanes {
        codec::put_bytes(out, &encode_lane(lane));
        codec::put_varint(out, l.released);
        codec::put_varint(out, l.late_dropped);
        codec::put_varint(out, l.duplicates_dropped);
        codec::put_varint(out, l.corrupt_records);
        codec::put_varint(out, l.drift_events);
        codec::put_varint(out, l.refits);
    }
}

pub(crate) fn take_lane_stats(buf: &mut &[u8]) -> Option<Vec<(LaneId, LaneStats)>> {
    let n = codec::take_varint(buf)?;
    let mut out = Vec::new();
    for _ in 0..n {
        let lane = decode_lane(codec::take_bytes(buf)?)?;
        let stats = LaneStats {
            released: codec::take_varint(buf)?,
            late_dropped: codec::take_varint(buf)?,
            duplicates_dropped: codec::take_varint(buf)?,
            corrupt_records: codec::take_varint(buf)?,
            drift_events: codec::take_varint(buf)?,
            refits: codec::take_varint(buf)?,
        };
        out.push((lane, stats));
    }
    Some(out)
}

fn put_level_outlier(out: &mut Vec<u8>, o: &LevelOutlier) {
    out.push(o.level.number());
    codec::put_str(out, &o.machine);
    put_opt_str(out, o.job.as_deref());
    put_opt_phase(out, o.phase);
    put_opt_str(out, o.sensor.as_deref());
    put_opt_varint(out, o.index.map(|i| i as u64));
    put_opt_varint(out, o.timestamp);
    codec::put_f64(out, o.outlierness);
    codec::put_f64(out, o.raw_score);
}

fn take_level_outlier(buf: &mut &[u8]) -> Option<LevelOutlier> {
    Some(LevelOutlier {
        level: Level::from_number(codec::take_u8(buf)?)?,
        machine: take_name(buf)?,
        job: take_opt_name(buf)?,
        phase: take_opt_phase(buf)?,
        sensor: take_opt_name(buf)?,
        index: take_opt_index(buf)?,
        timestamp: take_opt_varint(buf)?,
        outlierness: codec::take_f64(buf)?,
        raw_score: codec::take_f64(buf)?,
    })
}

/// A series' key — machine, job, phase, sensor — which is all a report
/// carries of it.
fn put_series_key(out: &mut Vec<u8>, s: &SeriesScores) {
    codec::put_str(out, &s.machine);
    put_opt_str(out, s.job.as_deref());
    put_opt_phase(out, s.phase);
    codec::put_str(out, &s.sensor);
}

/// Inverse of [`put_series_key`]: the keyed series with empty columns.
fn take_series_key(buf: &mut &[u8]) -> Option<SeriesScores> {
    Some(SeriesScores {
        machine: take_name(buf)?,
        job: take_opt_name(buf)?,
        phase: take_opt_phase(buf)?,
        sensor: take_name(buf)?,
        timestamps: Arc::from([]),
        z: Arc::from([]),
    })
}

/// A claimed element count, bounded by how many the remaining bytes can hold.
fn claimed(n: u64, fit: usize) -> usize {
    usize::try_from(n).map_or(fit, |n| n.min(fit))
}

/// The bytes a timestamp column and `floats` floats take at most, each
/// timestamp at the width of the column's last one — an ascending
/// column's widest. Exact where a column's timestamps share a width, an
/// upper bound for any ascending column, and only a hint otherwise: a
/// frame that outgrows it grows its buffer as any `Vec` does.
pub(crate) fn columns_size_hint(timestamps: &[u64], floats: usize) -> usize {
    timestamps.last().map_or(0, |&t| codec::varint_len(t)) * timestamps.len() + 8 * floats
}

/// A timestamp column: its length, then one varint each.
pub(crate) fn put_timestamps(out: &mut Vec<u8>, timestamps: &[u64]) {
    codec::put_varint(out, timestamps.len() as u64);
    for &t in timestamps {
        codec::put_varint(out, t);
    }
}

/// Inverse of [`put_timestamps`]. The length is the wire's claim: reserve
/// no more than the bytes that are actually there could hold (a
/// timestamp is ≥ 1 byte).
pub(crate) fn take_timestamps(buf: &mut &[u8]) -> Option<Vec<u64>> {
    let n = codec::take_varint(buf)?;
    let mut timestamps = Vec::with_capacity(claimed(n, buf.len()));
    for _ in 0..n {
        timestamps.push(codec::take_varint(buf)?);
    }
    Some(timestamps)
}

/// A float column: its length, then the raw bit patterns in one pass.
pub(crate) fn put_floats(out: &mut Vec<u8>, values: &[f64]) {
    codec::put_varint(out, values.len() as u64);
    codec::put_f64s(out, values);
}

/// Inverse of [`put_floats`]; reads (and reserves) only once the claimed
/// count's bytes are known to be there.
pub(crate) fn take_floats(buf: &mut &[u8]) -> Option<Vec<f64>> {
    let n = usize::try_from(codec::take_varint(buf)?).ok()?;
    codec::take_f64s(buf, n)
}

/// One entry of a `Frame::SeriesScores` reply: the level a series was
/// scored at, and the series — its key plus the part of its columns a
/// [`SeriesQuery`] asked for.
pub type LevelSeries = (Level, SeriesScores);

/// A level series' record at most, plus its columns.
pub(crate) fn level_series_size_hint((_, s): &LevelSeries) -> usize {
    let job = s.job.as_ref().map_or(0, |job| job.len());
    RECORD_FIXED_MAX
        + s.machine.len()
        + job
        + s.sensor.len()
        + columns_size_hint(&s.timestamps, s.z.len())
}

/// A level series: level, key, timestamp column, score column.
pub(crate) fn put_level_series(out: &mut Vec<u8>, (level, s): &LevelSeries) {
    out.push(level.number());
    put_series_key(out, s);
    put_timestamps(out, &s.timestamps);
    put_floats(out, &s.z);
}

/// Inverse of [`put_level_series`].
pub(crate) fn take_level_series(buf: &mut &[u8]) -> Option<LevelSeries> {
    let level = Level::from_number(codec::take_u8(buf)?)?;
    let mut s = take_series_key(buf)?;
    s.timestamps = take_timestamps(buf)?.into();
    s.z = take_floats(buf)?.into();
    Some((level, s))
}

/// Which per-series score columns a `Frame::QuerySeries` asks for: the
/// series of one level (or all), of one machine and/or sensor (or all),
/// each cut to the samples in inclusive `[start, end]`.
///
/// A server answers in two steps so that it holds its cache lock for
/// reference counts only: [`pick`](SeriesQuery::pick) under the lock,
/// [`cut`](SeriesQuery::cut) after it. [`answer`](SeriesQuery::answer) is
/// both, for callers that hold the report themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesQuery {
    /// Restrict to one level (`None` = all levels).
    pub level: Option<Level>,
    /// Restrict to series of one machine (`None` = all machines).
    pub machine: Option<String>,
    /// Restrict to series of one sensor (`None` = all sensors).
    pub sensor: Option<String>,
    /// Inclusive range start (tick domain).
    pub start: u64,
    /// Inclusive range end.
    pub end: u64,
}

impl SeriesQuery {
    /// The series of `report` the query's level, machine and sensor
    /// select, in report order, their columns shared with `report`.
    pub fn pick(&self, report: &StreamReport) -> Vec<LevelSeries> {
        let wanted = |s: &SeriesScores| {
            self.machine.as_deref().is_none_or(|m| m == &*s.machine)
                && self.sensor.as_deref().is_none_or(|m| m == &*s.sensor)
        };
        report
            .detections
            .values()
            .filter(|d| self.level.is_none_or(|l| l == d.level))
            .flat_map(|d| d.series_scores.iter().map(move |s| (d.level, s)))
            .filter(|(_, s)| wanted(s))
            .map(|(level, s)| (level, s.clone()))
            .collect()
    }

    /// `picked` with every series' columns cut to the samples in
    /// `[start, end]` — a series' timestamps ascend, so the cut is two
    /// `partition_point`s — and the series with none there dropped. A
    /// series wholly inside keeps its shared columns; `start > end`
    /// selects nothing.
    pub fn cut(&self, picked: Vec<LevelSeries>) -> Vec<LevelSeries> {
        picked
            .into_iter()
            .filter_map(|(level, mut s)| {
                let from = s.timestamps.partition_point(|&t| t < self.start);
                let to = s.timestamps.partition_point(|&t| t <= self.end);
                if to <= from {
                    return None;
                }
                if (from, to) != (0, s.timestamps.len()) {
                    s.timestamps = s.timestamps.get(from..to)?.into();
                    s.z = s.z.get(from..to)?.into();
                }
                Some((level, s))
            })
            .collect()
    }

    /// [`cut`](SeriesQuery::cut) of [`pick`](SeriesQuery::pick): the
    /// answer to this query from `report`.
    pub fn answer(&self, report: &StreamReport) -> Vec<LevelSeries> {
        self.cut(self.pick(report))
    }
}

/// What `report` is once it has crossed the wire: the same report with
/// every series' `timestamps` and `z` columns empty (see the module docs).
/// `decode_report(&encode_report(r))` equals `without_columns(r)`.
pub fn without_columns(report: &StreamReport) -> StreamReport {
    let mut report = report.clone();
    for s in report
        .detections
        .values_mut()
        .flat_map(|d| d.series_scores.iter_mut())
    {
        s.timestamps = Arc::from([]);
        s.z = Arc::from([]);
    }
    report
}

fn put_vector_score(out: &mut Vec<u8>, v: &VectorScore) {
    codec::put_str(out, &v.machine);
    codec::put_str(out, &v.job);
    codec::put_f64(out, v.z);
}

fn take_vector_score(buf: &mut &[u8]) -> Option<VectorScore> {
    Some(VectorScore {
        machine: take_name(buf)?,
        job: take_name(buf)?,
        z: codec::take_f64(buf)?,
    })
}

fn put_detections(out: &mut Vec<u8>, d: &LevelDetections) {
    out.push(d.level.number());
    codec::put_varint(out, d.outliers.len() as u64);
    for o in &d.outliers {
        put_level_outlier(out, o);
    }
    codec::put_varint(out, d.series_scores.len() as u64);
    for s in &d.series_scores {
        put_series_key(out, s);
    }
    codec::put_varint(out, d.vector_scores.len() as u64);
    for v in &d.vector_scores {
        put_vector_score(out, v);
    }
}

fn take_detections(buf: &mut &[u8]) -> Option<LevelDetections> {
    let level = Level::from_number(codec::take_u8(buf)?)?;
    let mut d = LevelDetections::empty(level);
    let n = codec::take_varint(buf)?;
    for _ in 0..n {
        d.outliers.push(take_level_outlier(buf)?);
    }
    let n = codec::take_varint(buf)?;
    for _ in 0..n {
        d.series_scores.push(take_series_key(buf)?);
    }
    let n = codec::take_varint(buf)?;
    for _ in 0..n {
        d.vector_scores.push(take_vector_score(buf)?);
    }
    Some(d)
}

/// What a record's fixed-width and varint fields (levels, tags, lengths,
/// indices, timestamps, two floats) can take at most, strings excluded —
/// a lane's record, its six counters included, fits in two.
pub(crate) const RECORD_FIXED_MAX: usize = 80;

/// The size [`encode_report`] allocates, once: [`RECORD_FIXED_MAX`] plus
/// its strings per record — an upper bound, as a series is a key.
fn encoded_size_hint(report: &StreamReport) -> usize {
    let opt = |s: &Option<Arc<str>>| s.as_ref().map_or(0, |s| s.len());
    let mut size = 2 * RECORD_FIXED_MAX; // version, section counts, stream stats
    for d in report.detections.values() {
        size += RECORD_FIXED_MAX;
        for o in &d.outliers {
            size += RECORD_FIXED_MAX + o.machine.len() + opt(&o.job) + opt(&o.sensor);
        }
        for s in &d.series_scores {
            size += RECORD_FIXED_MAX + s.machine.len() + opt(&s.job) + s.sensor.len();
        }
        for v in &d.vector_scores {
            size += RECORD_FIXED_MAX + v.machine.len() + v.job.len();
        }
    }
    for o in &report.report.outliers {
        size += RECORD_FIXED_MAX + o.machine.len() + opt(&o.job) + opt(&o.sensor);
    }
    size += report.report.warnings.len() * RECORD_FIXED_MAX;
    for lane in report.lane_stats.keys() {
        size += 2 * RECORD_FIXED_MAX + lane.machine.len() + lane.sensor.len();
    }
    size
}

/// Serialises a [`StreamReport`] deterministically, every series as its
/// key (codec v3). See the module docs for the determinism contract and
/// where the columns went.
pub fn encode_report(report: &StreamReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_size_hint(report));
    out.push(3); // report codec version (3: series keys without columns)
    codec::put_varint(&mut out, report.detections.len() as u64);
    for d in report.detections.values() {
        put_detections(&mut out, d);
    }
    put_outliers(&mut out, &report.report.outliers);
    codec::put_varint(&mut out, report.report.warnings.len() as u64);
    for w in &report.report.warnings {
        let Warning::SuspectedMeasurementError {
            outlier_idx,
            missing_level,
        } = w;
        codec::put_varint(&mut out, *outlier_idx as u64);
        out.push(missing_level.number());
    }
    put_stream_stats(&mut out, &report.stats);
    put_lane_stats(&mut out, report.lane_stats.iter());
    out
}

/// Total inverse of [`encode_report`] up to the columns: the report it
/// returns is [`without_columns`] of the one encoded. `None` on any
/// malformation (truncation, bad level codes, trailing bytes) and on any
/// other codec version.
pub fn decode_report(bytes: &[u8]) -> Option<StreamReport> {
    let mut buf = bytes;
    let buf = &mut buf;
    if codec::take_u8(buf)? != 3 {
        return None;
    }
    let n = codec::take_varint(buf)?;
    let mut detections = BTreeMap::new();
    for _ in 0..n {
        let d = take_detections(buf)?;
        detections.insert(d.level, d);
    }
    let outliers = take_outliers(buf)?;
    let n = codec::take_varint(buf)?;
    let mut warnings = Vec::new();
    for _ in 0..n {
        let outlier_idx = usize::try_from(codec::take_varint(buf)?).ok()?;
        let missing_level = Level::from_number(codec::take_u8(buf)?)?;
        warnings.push(Warning::SuspectedMeasurementError {
            outlier_idx,
            missing_level,
        });
    }
    let stats = take_stream_stats(buf)?;
    // `extend` inserts in order, so a repeated lane keeps its later record.
    let mut lane_stats = BTreeMap::new();
    lane_stats.extend(take_lane_stats(buf)?);
    buf.is_empty().then_some(StreamReport {
        detections,
        report: HierReport { outliers, warnings },
        stats,
        lane_stats,
    })
}
