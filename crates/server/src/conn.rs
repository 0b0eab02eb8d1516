//! Per-connection protocol handling: wire frames in, [`PlantService`]
//! calls down, wire frames out.
//!
//! ## Runs
//!
//! Sample frames are applied in runs — a sample run frame and every
//! sample frame the reader already holds behind it — through one
//! [`PlantService::ingest_run`]: one plant lookup, one acquisition of the
//! plant, per run instead of per frame (see the crate docs for what
//! bounds a run). Lane definitions, control frames and requests end a run
//! and are handled one at a time, as before.
//!
//! A worker yields its core after every run. Runs made ingest cheap enough
//! that the sender, not this worker, is what blocks, so a flooding
//! connection's worker is runnable without a break; with more busy threads
//! than cores, a co-tenant's worker that wakes on the same core then waits
//! until the kernel's tick preempts the flooder (4 ms at `HZ=250`), and
//! whether a run of the `neighbours` benchmark collects twenty such pairs
//! or not moved its victim's p99 between 4.3 and 7.1 ms from run to run.
//! With the yield the wait is one run (≈ 50 µs): p99 4.5 ms [4.3, 4.7]
//! over ten runs, flood rate unchanged. What is left is waits behind
//! threads the server does not own (the flooding *client* decoding its
//! `finish` reply on the same machine) and behind a worker's own `finish`.
//!
//! ## Locks
//!
//! No frame takes a server-wide lock. The service is shared by reference
//! and excludes per plant on its own (see [`hierod_service`]); what this
//! module adds is one [`CacheSlot`] per admitted plant, each behind its
//! own mutex, found through [`ServiceState::caches`]:
//!
//! * the **cache map** lock covers a lookup, an insert or a remove of a
//!   slot handle and is never held together with any other lock;
//! * a plant's **cache slot** lock is held across `service.tick` and the
//!   `advance` that stores its report — so for two connections ticking
//!   one plant, version order is assembly order — and across answering a
//!   score or delta query from the stored report. A series query holds it
//!   only to pick its series' shared columns; it cuts and encodes them
//!   after release. Ingest never takes it: a run holds its plant's tenant
//!   slot (inside the service) and nothing else.
//!
//! Order: cache slot → (inside the service) registry map → tenant.
//! Nothing acquires leftwards, and `Finish` holds nothing at all across
//! `service.finish` or the `encode_report` of its reply: it closes the
//! plant's slot first (later ticks and queries answer `Missing`), lets
//! the service detach and finalise the plant, and unmaps the slot
//! afterwards — whether or not the finish succeeded, so a failed one
//! cannot leave a report behind that keeps being served.
//!
//! ## Replies over the cap
//!
//! A reply is encoded before a byte of it is written; one whose payload
//! would exceed [`MAX_FRAME_LEN`] — a range scan or series query over too
//! much history — is swapped for an [`ErrorCode::TooLarge`] error, so the
//! client learns to narrow its range and the connection keeps serving.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{self, BufWriter, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use hierod_core::HierOutlier;
use hierod_detect::engine::AlgoSpec;
use hierod_detect::DetectError;
use hierod_history::RangeQuery;
use hierod_service::PlantService;
use hierod_store::wal::WalRecord;
use hierod_stream::codec::{decode_control, decode_lane};
use hierod_stream::{LaneTable, RunError, Sample, StreamReport, MAX_LANES};
use hierod_wire::{
    encode_report, write_frame, ErrorCode, Frame, FrameReader, Poll, SeriesQuery, MAX_FRAME_LEN,
};

use crate::{lock, Shared, READ_TIMEOUT};

/// Versioned report snapshot for one plant, kept so score and delta
/// queries answer from the last assembled report instead of forcing a
/// fresh (and side-effecting) tick. A tick only moves reports in; the
/// delta and the resync payload are built when a query asks for them.
#[derive(Debug)]
pub(crate) struct ReportCache {
    /// Monotone report version, from 1.
    version: u64,
    /// The report of the current version, as the service returned it (it
    /// shares closed history with the detector, so holding it is cheap).
    current: StreamReport,
    /// Outlier triples of the previous version (delta base), moved out of
    /// the previous report.
    prev: Vec<HierOutlier>,
    /// `(added, removed)` between `prev` and `current`, built by the first
    /// query of this version that is exactly one version behind.
    delta: Option<(Vec<HierOutlier>, Vec<HierOutlier>)>,
}

impl ReportCache {
    fn new(first: StreamReport) -> Self {
        ReportCache {
            version: 1,
            current: first,
            prev: Vec::new(),
            delta: None,
        }
    }

    /// Moves the next report in and returns its version; the report it
    /// displaces keeps only its outlier list, as the delta base.
    fn advance(&mut self, next: StreamReport) -> u64 {
        self.prev = std::mem::replace(&mut self.current, next).report.outliers;
        self.version += 1;
        self.delta = None;
        self.version
    }

    fn outliers(&self) -> &[HierOutlier] {
        &self.current.report.outliers
    }

    /// Answers `QueryDeltas { since }`.
    fn deltas_since(&mut self, since: u64) -> Frame {
        let version = self.version;
        if since == version {
            Frame::NoChange { version }
        } else if since.checked_add(1) == Some(version) {
            let current = &self.current.report.outliers;
            let (added, removed) = self
                .delta
                .get_or_insert_with(|| outlier_delta(&self.prev, current));
            Frame::Deltas {
                from: since,
                to: version,
                added: added.clone(),
                removed: removed.clone(),
            }
        } else {
            // Too far behind (or ahead): full resync.
            Frame::Report {
                version,
                report: encode_report(&self.current),
            }
        }
    }
}

/// 64-bit FNV-1a, the location index's hasher: cheaper than the default
/// SipHash on short keys, and not collision-resistant — which is safe here
/// because `outlier_delta`'s keys are one plant's own locations, so a
/// client that crafts colliding names slows only its own plant's deltas.
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Where an outlier sits; two equal outliers share it, so equality only
/// has to be checked among the outliers of one location.
type Location<'a> = (
    u8,
    &'a str,
    Option<&'a str>,
    Option<u8>,
    Option<&'a str>,
    Option<usize>,
);

fn location(o: &HierOutlier) -> Location<'_> {
    (
        o.level.number(),
        &o.machine,
        o.job.as_deref(),
        o.phase.map(|kind| kind as u8),
        o.sensor.as_deref(),
        o.index,
    )
}

/// The outliers of `current` that no outlier of `prev` equals, in
/// `current`'s order, and the outliers of `prev` that no outlier of
/// `current` equals, in `prev`'s order. Equality is the whole
/// [`HierOutlier`], so a changed score is one removal plus one addition.
/// Linear in both lists: `prev` is indexed by location once.
fn outlier_delta(
    prev: &[HierOutlier],
    current: &[HierOutlier],
) -> (Vec<HierOutlier>, Vec<HierOutlier>) {
    // Most ticks change nothing (jobs complete far less often than a
    // dashboard refreshes): one pass of comparisons, no index.
    if prev == current {
        return (Vec::new(), Vec::new());
    }
    // Outliers sharing a location (duplicates, in practice none) chain
    // through `next`, so the index allocates nothing per entry.
    let mut head: HashMap<Location<'_>, usize, BuildHasherDefault<Fnv1a>> =
        HashMap::with_capacity_and_hasher(prev.len(), BuildHasherDefault::default());
    let mut next = vec![None; prev.len()];
    for (i, (o, next)) in prev.iter().zip(&mut next).enumerate() {
        *next = head.insert(location(o), i);
    }
    let mut kept = vec![false; prev.len()];
    let mut added = Vec::new();
    for o in current {
        let mut found = false;
        let mut at = head.get(&location(o)).copied();
        while let Some(i) = at {
            if let (Some(p), Some(kept)) = (prev.get(i), kept.get_mut(i)) {
                if p == o {
                    found = true;
                    *kept = true;
                }
            }
            at = next.get(i).copied().flatten();
        }
        if !found {
            added.push(o.clone());
        }
    }
    let removed = prev
        .iter()
        .zip(kept)
        .filter(|(_, kept)| !kept)
        .map(|(o, _)| o.clone())
        .collect();
    (added, removed)
}

/// What the server remembers of one admitted plant's reports.
#[derive(Debug)]
enum CacheSlot {
    /// Admitted, never ticked.
    Empty,
    /// The last tick's report and its version.
    Filled(Box<ReportCache>),
    /// A `Finish` is detaching the plant: nothing is served from here
    /// again, and the slot is about to leave the map.
    Closed,
}

type SharedSlot = Arc<Mutex<CacheSlot>>;

/// The service, shared by every worker, plus the per-plant report cache
/// slots. See the module docs for what each lock covers.
#[derive(Debug)]
pub(crate) struct ServiceState<S> {
    service: S,
    caches: Mutex<BTreeMap<String, SharedSlot>>,
}

impl<S: PlantService> ServiceState<S> {
    pub(crate) fn new(service: S) -> Self {
        ServiceState {
            service,
            caches: Mutex::new(BTreeMap::new()),
        }
    }

    /// The cache slot of `plant`, if a connection admitted it and no
    /// `Finish` has unmapped it since.
    fn slot(&self, plant: &str) -> Option<SharedSlot> {
        lock(&self.caches).get(plant).cloned()
    }

    /// [`Self::slot`], or the reply for a plant that is not live.
    fn live_slot(&self, plant: &str) -> Result<SharedSlot, Frame> {
        self.slot(plant).ok_or_else(|| plant_gone(plant))
    }

    /// `f` of `plant`'s cached report, under its slot lock; the reply
    /// for a plant that was never ticked or is not live otherwise.
    fn cached<T>(&self, plant: &str, f: impl FnOnce(&mut ReportCache) -> T) -> Result<T, Frame> {
        let slot = self.live_slot(plant)?;
        let mut cache = lock(&slot);
        match &mut *cache {
            CacheSlot::Filled(cache) => Ok(f(cache)),
            CacheSlot::Empty => Err(not_ticked()),
            CacheSlot::Closed => Err(plant_gone(plant)),
        }
    }

    /// The cache slot of a plant the service has just admitted.
    fn admitted_slot(&self, plant: &str) -> SharedSlot {
        Arc::clone(
            lock(&self.caches)
                .entry(plant.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(CacheSlot::Empty))),
        )
    }

    /// Unmaps `plant`'s cache slot if it still is `slot`.
    fn unmap(&self, plant: &str, slot: &SharedSlot) {
        let mut caches = lock(&self.caches);
        if caches.get(plant).is_some_and(|s| Arc::ptr_eq(s, slot)) {
            caches.remove(plant);
        }
    }
}

fn not_ticked() -> Frame {
    error_frame(ErrorCode::Missing, "no report assembled yet (tick first)")
}

fn plant_gone(plant: &str) -> Frame {
    error_frame(ErrorCode::Missing, format!("plant {plant:?} is not live"))
}

/// Connection-local protocol state.
#[derive(Default)]
struct ConnState {
    /// The plant this connection drives (set by `Admit`).
    plant: Option<String>,
    /// Wire lane → lane id, built from `LaneDef` ingest frames as WAL
    /// replay builds its own; dense, at most [`MAX_LANES`] entries. Each
    /// lane's handle into the plant is resolved by the first sample that
    /// needs one and kept while the plant stays the same incarnation.
    lanes: LaneTable,
    /// First ingest failure, parked until the next synchronous request.
    pending: Option<(ErrorCode, String)>,
    /// The sample run being applied; kept for its capacity.
    run: Vec<(u32, Sample)>,
    /// The report of the plant this connection just finished, parked
    /// until its reply is flushed: dropping it frees every closed buffer
    /// of the plant, which the client need not wait for.
    finished: Option<StreamReport>,
}

impl ConnState {
    fn park(&mut self, code: ErrorCode, message: String) {
        // Keep the FIRST error: later ones are usually cascades.
        if self.pending.is_none() {
            self.pending = Some((code, message));
        }
    }
}

fn classify(e: &DetectError) -> ErrorCode {
    match e {
        DetectError::Missing { .. } => ErrorCode::Missing,
        DetectError::Substrate(_) => ErrorCode::Substrate,
        _ => ErrorCode::Invalid,
    }
}

/// The error reply for a request the service refused.
fn refused(e: DetectError) -> Frame {
    error_frame(classify(&e), e.to_string())
}

fn error_frame(code: ErrorCode, message: impl Into<String>) -> Frame {
    Frame::Error {
        code,
        message: message.into(),
    }
}

fn parked(e: DetectError) -> (ErrorCode, String) {
    (classify(&e), e.to_string())
}

fn protocol(message: String) -> Option<(ErrorCode, String)> {
    Some((ErrorCode::Protocol, message))
}

/// Applies one ingest record — or, for a sample, the whole of `conn.run`,
/// the run of sample frames it opened: one service call, so one plant
/// lookup and one acquisition of the plant however many samples the read
/// delivered. Every sample of a run is attempted; the first failure is
/// parked, never answered.
fn apply_ingest<S: PlantService>(service: &S, conn: &mut ConnState, record: WalRecord) {
    let failure = match (conn.plant.as_deref(), record) {
        (None, _) => protocol("ingest before admit".to_string()),
        (Some(_), WalRecord::LaneDef { lane, meta }) => match decode_lane(&meta) {
            None => protocol(format!("undecodable lane {lane} meta")),
            Some(id) => (!conn.lanes.bind(lane, id))
                .then(|| format!("lane {lane} is past the cap of {MAX_LANES} lanes"))
                .and_then(protocol),
        },
        (Some(plant), WalRecord::Control { seq: _, payload }) => match decode_control(&payload) {
            Some(event) => service.control(plant, &event).err().map(parked),
            None => protocol("undecodable control payload".to_string()),
        },
        (Some(plant), WalRecord::Sample { .. }) => {
            match service.ingest_run(plant, &mut conn.lanes, &conn.run) {
                None => None,
                Some(RunError::UndefinedLane(lane)) => {
                    protocol(format!("sample for undefined lane {lane}"))
                }
                Some(RunError::Rejected(e)) => Some(parked(e)),
            }
        }
    };
    if let Some((code, message)) = failure {
        conn.park(code, message);
    }
}

/// Handles one synchronous request frame, returning the reply frame.
fn handle_request<S: PlantService>(
    state: &ServiceState<S>,
    conn: &mut ConnState,
    frame: Frame,
) -> Frame {
    // A parked ingest error pre-empts the request: the client learns
    // its firehose broke before it can trust any further answer.
    if let Some((code, message)) = conn.pending.take() {
        return error_frame(code, message);
    }
    reply(state, conn, frame).unwrap_or_else(|reply| reply)
}

/// The plant a synchronous request addresses, or a protocol error.
fn admitted(conn: &ConnState) -> Result<String, Frame> {
    conn.plant
        .clone()
        .ok_or_else(|| error_frame(ErrorCode::Protocol, "request before admit"))
}

/// The reply to one synchronous request; `Err` is an error reply.
fn reply<S: PlantService>(
    state: &ServiceState<S>,
    conn: &mut ConnState,
    frame: Frame,
) -> Result<Frame, Frame> {
    let service = &state.service;
    Ok(match frame {
        Frame::Admit { plant, create } => match service.admit(&plant, create) {
            Ok(outcome) => {
                // A slot some `Finish` has closed but not yet unmapped:
                // whichever incarnation the service just admitted, this
                // server cannot cache for it until that finish is over.
                let slot = state.admitted_slot(&plant);
                if matches!(*lock(&slot), CacheSlot::Closed) {
                    return Err(error_frame(
                        ErrorCode::Invalid,
                        format!("plant {plant:?} is finishing"),
                    ));
                }
                conn.plant = Some(plant);
                conn.lanes.clear();
                Frame::Ok {
                    info: match outcome {
                        hierod_service::Admission::Existing => 0,
                        hierod_service::Admission::Created => 1,
                    },
                }
            }
            Err(e) => {
                let parked = service.health().failed.iter().any(|(id, _)| *id == plant);
                if parked {
                    error_frame(ErrorCode::Failed, e.to_string())
                } else {
                    refused(e)
                }
            }
        },
        Frame::Tick => {
            let plant = admitted(conn)?;
            let slot = state.live_slot(&plant)?;
            // Held across the tick and the store, so that version order
            // is assembly order when two connections tick one plant.
            let mut cache = lock(&slot);
            if matches!(*cache, CacheSlot::Closed) {
                return Err(plant_gone(&plant));
            }
            // LOCKS: crates/stream::plants, crates/stream::slot
            let report = service.tick(&plant).map_err(refused)?;
            let outliers = report.report.outliers.len() as u64;
            let version = match &mut *cache {
                CacheSlot::Filled(cache) => cache.advance(report),
                vacant => {
                    *vacant = CacheSlot::Filled(Box::new(ReportCache::new(report)));
                    1
                }
            };
            Frame::TickDone { version, outliers }
        }
        Frame::Finish => {
            let plant = admitted(conn)?;
            // Close the slot, then finish with nothing held: the service
            // detaches the plant before it finalises it, and whatever it
            // returns the plant is gone — so its slot goes too, and a
            // failed finish leaves no report behind to be served.
            let slot = state.slot(&plant);
            let last = slot
                .as_ref()
                .map(|slot| std::mem::replace(&mut *lock(slot), CacheSlot::Closed));
            let finished = service.finish(&plant);
            if let Some(slot) = &slot {
                state.unmap(&plant, slot);
            }
            let report = finished.map_err(refused)?;
            let version = match last {
                Some(CacheSlot::Filled(cache)) => cache.version + 1,
                _ => 1,
            };
            conn.plant = None;
            conn.lanes.clear();
            let report = encode_report(conn.finished.insert(report));
            Frame::Report { version, report }
        }
        Frame::QueryScores { level } => {
            let plant = admitted(conn)?;
            state.cached(&plant, |cache| Frame::Scores {
                version: cache.version,
                outliers: cache
                    .outliers()
                    .iter()
                    .filter(|o| level.is_none_or(|l| o.level == l))
                    .cloned()
                    .collect(),
            })?
        }
        Frame::QueryLaneStats => {
            let plant = admitted(conn)?;
            // One call, one acquisition of the plant: no other
            // connection's ingest lands between the totals and the lanes.
            let (stats, lanes) = service.lane_snapshot(&plant).map_err(refused)?;
            Frame::LaneStatsReply {
                stats,
                lanes: lanes.into_iter().collect(),
            }
        }
        Frame::QueryDeltas { since } => {
            let plant = admitted(conn)?;
            state.cached(&plant, |cache| cache.deltas_since(since))?
        }
        Frame::QuerySeries {
            level,
            machine,
            sensor,
            start,
            end,
        } => {
            let plant = admitted(conn)?;
            let query = SeriesQuery {
                level,
                machine,
                sensor,
                start,
                end,
            };
            // Under the lock: reference counts. The cut copies samples, so
            // it waits until the slot is free again.
            let (version, picked) =
                state.cached(&plant, |cache| (cache.version, query.pick(&cache.current)))?;
            Frame::SeriesScores {
                version,
                series: query.cut(picked),
            }
        }
        Frame::RangeScan {
            start,
            end,
            machine,
            sensor,
        } => {
            let plant = admitted(conn)?;
            let query = RangeQuery {
                start,
                end,
                machine,
                sensor,
            };
            let (lanes, stats) = service.range_scan(&plant, &query).map_err(refused)?;
            Frame::Series {
                lanes: lanes
                    .into_iter()
                    .map(|l| (l.id, l.series.timestamps_shared(), l.series.values_shared()))
                    .collect(),
                stats,
            }
        }
        Frame::Backfill { start, end, spec } => {
            let plant = admitted(conn)?;
            let spec = spec
                .as_deref()
                .map(str::parse::<AlgoSpec>)
                .transpose()
                .map_err(refused)?;
            let outcome = service
                .backfill(&plant, start, end, spec.as_ref())
                .map_err(refused)?;
            Frame::BackfillDone {
                report: encode_report(&outcome.report),
                controls_replayed: outcome.controls_replayed,
                samples_replayed: outcome.samples_replayed,
                samples_skipped: outcome.samples_skipped,
            }
        }
        Frame::QueryHealth => Frame::HealthReply(service.health()),
        Frame::Ingest(_) => error_frame(ErrorCode::Protocol, "unreachable: ingest is async"),
        // A client sending response-tagged frames is off-protocol.
        _ => error_frame(ErrorCode::Protocol, "unexpected response-tagged frame"),
    })
}

/// `reply`, framed — or, when its payload would exceed [`MAX_FRAME_LEN`],
/// an [`ErrorCode::TooLarge`] error in its place (module docs).
fn encode_reply(reply: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    reply.encode(&mut out);
    let payload = out.len().saturating_sub(8);
    if payload > MAX_FRAME_LEN as usize {
        let message = format!("{payload} bytes > cap {MAX_FRAME_LEN}; narrow the range");
        out = Vec::new();
        error_frame(ErrorCode::TooLarge, message).encode(&mut out);
    }
    out
}

/// Serves one connection until EOF, a protocol error, or drain.
pub(crate) fn serve_connection<S: PlantService>(
    stream: TcpStream,
    state: &ServiceState<S>,
    shared: &Shared,
) -> io::Result<()> {
    // The read timeout is the drain poll interval (see module docs of
    // the crate): poll() returns Idle instead of blocking forever.
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut reader_stream = stream.try_clone()?;
    let mut writer = BufWriter::new(stream);
    let mut reader = FrameReader::new();
    let mut conn = ConnState::default();
    loop {
        match reader.poll(&mut reader_stream) {
            Ok(Poll::Frame(frame)) => {
                // A sample brings along every sample frame already
                // buffered behind it: the run this read delivered.
                let frames = match frame {
                    Frame::Ingest(WalRecord::Sample {
                        lane,
                        timestamp,
                        value,
                    }) => {
                        conn.run.clear();
                        conn.run.push((lane, Sample { timestamp, value }));
                        reader.take_samples(&mut conn.run);
                        conn.run.len() as u64
                    }
                    _ => 1,
                };
                shared
                    .frames
                    .fetch_add(frames, std::sync::atomic::Ordering::Relaxed);
                if shared.draining() {
                    write_frame(
                        &mut writer,
                        &error_frame(ErrorCode::Draining, "server is draining"),
                    )?;
                    writer.flush()?;
                    return Ok(());
                }
                match frame {
                    // No ack: the next synchronous request surfaces any
                    // parked error.
                    Frame::Ingest(record) => {
                        apply_ingest(&state.service, &mut conn, record);
                        // A flat-out sender keeps this socket readable, so
                        // this worker never blocks; offer the core between
                        // runs, or another connection's worker that woke
                        // on it waits for the scheduler's tick instead of
                        // for one run (module docs, "Runs").
                        std::thread::yield_now();
                    }
                    request => {
                        let reply = handle_request(state, &mut conn, request);
                        writer.write_all(&encode_reply(&reply))?;
                        writer.flush()?;
                        conn.finished = None;
                    }
                }
            }
            Ok(Poll::Idle) => {
                if shared.draining() {
                    // Quiet connection during drain: just hang up; a
                    // client mid-think gets a clean EOF.
                    return Ok(());
                }
            }
            Ok(Poll::Eof) => return Ok(()),
            Err(e) => {
                // Framing damage: tell the client (best effort), drop.
                if e.kind() == io::ErrorKind::InvalidData {
                    let _ = write_frame(
                        &mut writer,
                        &error_frame(ErrorCode::Protocol, e.to_string()),
                    );
                    let _ = writer.flush();
                }
                return Err(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierod_core::HierReport;
    use hierod_detect::Result;
    use hierod_hierarchy::{Level, PhaseKind};
    use hierod_history::{BackfillOutcome, CompactionOptions, CompactionStats, LaneSeries};
    use hierod_service::Admission;
    use hierod_stream::{ControlEvent, Health, LaneId, LaneStats, StreamStats};

    /// The quadratic delta the keyed one replaced, kept as the oracle.
    fn quadratic_delta(
        prev: &[HierOutlier],
        current: &[HierOutlier],
    ) -> (Vec<HierOutlier>, Vec<HierOutlier>) {
        let added = current.iter().filter(|o| !prev.contains(o)).cloned();
        let removed = prev.iter().filter(|o| !current.contains(o)).cloned();
        (added.collect(), removed.collect())
    }

    fn outlier(job: &str, sensor: &str, index: usize, global_score: u8) -> HierOutlier {
        HierOutlier {
            level: Level::Phase,
            machine: "m0".into(),
            job: Some(job.into()),
            phase: Some(PhaseKind::WarmUp),
            sensor: Some(sensor.into()),
            index: Some(index),
            timestamp: Some(index as u64),
            outlierness: 7.5,
            support: 0.5,
            global_score,
        }
    }

    fn report_of(outliers: Vec<HierOutlier>) -> StreamReport {
        StreamReport {
            detections: BTreeMap::new(),
            report: HierReport {
                outliers,
                warnings: Vec::new(),
            },
            stats: StreamStats::default(),
            lane_stats: BTreeMap::new(),
        }
    }

    /// A service whose every `tick` returns the next scripted report.
    struct Scripted(Mutex<std::collections::VecDeque<StreamReport>>);

    fn unscripted<T>() -> Result<T> {
        Err(DetectError::Missing {
            what: "not scripted".into(),
        })
    }

    impl PlantService for Scripted {
        fn admit(&self, _: &str, _: bool) -> Result<Admission> {
            Ok(Admission::Created)
        }
        fn plants(&self) -> Vec<String> {
            Vec::new()
        }
        fn control(&self, _: &str, _: &ControlEvent) -> Result<()> {
            unscripted()
        }
        fn ingest(&self, _: &str, _: &LaneId, _: Sample) -> Result<()> {
            unscripted()
        }
        fn ingest_run(&self, _: &str, _: &mut LaneTable, _: &[(u32, Sample)]) -> Option<RunError> {
            unscripted::<()>().err().map(RunError::Rejected)
        }
        fn tick(&self, _: &str) -> Result<StreamReport> {
            lock(&self.0).pop_front().map_or_else(unscripted, Ok)
        }
        fn finish(&self, _: &str) -> Result<StreamReport> {
            unscripted()
        }
        /// The one scripted read: three samples released, all on one lane.
        fn lane_snapshot(&self, _: &str) -> Result<(StreamStats, BTreeMap<LaneId, LaneStats>)> {
            let lane = LaneId {
                machine: "m0".into(),
                sensor: "m0.room".into(),
                kind: hierod_stream::LaneKind::Environment,
            };
            let (mut stats, mut on_lane) = (StreamStats::default(), LaneStats::default());
            (stats.samples_released, on_lane.released) = (3, 3);
            Ok((stats, BTreeMap::from([(lane, on_lane)])))
        }
        fn health(&self) -> Health {
            Health::default()
        }
        fn rotate(&self, _: &str) -> Result<()> {
            unscripted()
        }
        fn compact(&self, _: &str, _: &CompactionOptions) -> Result<CompactionStats> {
            unscripted()
        }
        fn range_scan(
            &self,
            _: &str,
            _: &RangeQuery,
        ) -> Result<(Vec<LaneSeries>, hierod_history::ScanStats)> {
            unscripted()
        }
        fn backfill(
            &self,
            _: &str,
            _: u64,
            _: u64,
            _: Option<&AlgoSpec>,
        ) -> Result<BackfillOutcome> {
            unscripted()
        }
    }

    #[test]
    fn scripted_ticks_answer_deltas_like_the_quadratic_oracle() {
        // v1 → v2: a later job raised the old outlier's global score, its
        // neighbour at another index of the same series stayed, a new
        // outlier arrived. v2 → v3: nothing changed.
        let v1 = vec![
            outlier("j0", "m0.bed.0", 3, 2),
            outlier("j0", "m0.bed.0", 7, 2),
        ];
        let v2 = vec![
            outlier("j0", "m0.bed.0", 3, 3),
            outlier("j0", "m0.bed.0", 7, 2),
            outlier("j1", "m0.bed.1", 3, 1),
        ];
        let reports = [v1.clone(), v2.clone(), v2.clone()].map(report_of);
        let state = ServiceState::new(Scripted(Mutex::new(reports.iter().cloned().collect())));
        let mut conn = ConnState::default();
        let mut ask = |frame| handle_request(&state, &mut conn, frame);
        ask(Frame::Admit {
            plant: "p".into(),
            create: true,
        });
        let tick = |ask: &mut dyn FnMut(Frame) -> Frame, version, outliers| {
            assert_eq!(ask(Frame::Tick), Frame::TickDone { version, outliers });
        };
        let deltas = |from: u64, prev: &[HierOutlier], current: &[HierOutlier]| {
            let (added, removed) = quadratic_delta(prev, current);
            Frame::Deltas {
                from,
                to: from + 1,
                added,
                removed,
            }
        };

        tick(&mut ask, 1, 2);
        assert_eq!(ask(Frame::QueryDeltas { since: 0 }), deltas(0, &[], &v1));
        tick(&mut ask, 2, 3);
        let changed = ask(Frame::QueryDeltas { since: 1 });
        assert_eq!(changed, deltas(1, &v1, &v2));
        let Frame::Deltas { added, removed, .. } = &changed else {
            unreachable!("just compared equal to a Deltas frame");
        };
        assert_eq!(added.as_slice(), [v2[0].clone(), v2[2].clone()]);
        assert_eq!(
            removed.as_slice(),
            [v1[0].clone()],
            "a changed score is remove + add"
        );
        // A second asker of the same version gets the same answer.
        assert_eq!(ask(Frame::QueryDeltas { since: 1 }), changed);

        tick(&mut ask, 3, 3);
        assert_eq!(ask(Frame::QueryDeltas { since: 2 }), deltas(2, &v2, &v2));
        assert_eq!(
            ask(Frame::QueryDeltas { since: 3 }),
            Frame::NoChange { version: 3 }
        );
        // Two versions behind, ahead, and the overflow edge all resync to
        // this tick's report, encoded when asked for.
        for since in [1, 0, 5, u64::MAX] {
            let resync = Frame::Report {
                version: 3,
                report: encode_report(&reports[2]),
            };
            assert_eq!(ask(Frame::QueryDeltas { since }), resync, "since {since}");
        }
    }

    #[test]
    fn lane_stats_are_answered_from_one_read_of_the_plant() {
        // `stats` and `lane_stats` are not scripted: a reply assembled
        // from two reads of the plant — between which another connection's
        // ingest can land — would be an error frame here.
        let state = ServiceState::new(Scripted(Mutex::new(Default::default())));
        let mut conn = ConnState::default();
        let admit = Frame::Admit {
            plant: "p".into(),
            create: true,
        };
        handle_request(&state, &mut conn, admit);
        let Frame::LaneStatsReply { stats, lanes } =
            handle_request(&state, &mut conn, Frame::QueryLaneStats)
        else {
            panic!("one snapshot, one reply");
        };
        let by_lane: u64 = lanes.iter().map(|(_, l)| l.released).sum();
        assert_eq!((stats.samples_released, by_lane), (3, 3));
    }

    #[test]
    fn an_over_cap_reply_is_a_typed_error_and_the_connection_serves_on() {
        use hierod_core::detect_level::{LevelDetections, SeriesScores};

        // Sixteen phase series sharing one pair of 260k-sample columns, each
        // timestamp a 9-byte varint: 17 bytes a sample, 70.7 MB in all —
        // over the 64 MiB cap — while one series is 4.4 MB.
        const N: u64 = 260_000;
        let timestamps: Arc<[u64]> = (0..N).map(|t| (1 << 56) + t).collect();
        let z: Arc<[f64]> = (0..N).map(|t| t as f64).collect();
        let mut phase = LevelDetections::empty(Level::Phase);
        phase.series_scores = (0..16)
            .map(|i| SeriesScores {
                machine: "m0".into(),
                job: Some("j0".into()),
                phase: Some(PhaseKind::WarmUp),
                sensor: format!("m0.bed.{i}").into(),
                timestamps: Arc::clone(&timestamps),
                z: Arc::clone(&z),
            })
            .collect();
        let mut report = report_of(Vec::new());
        report.detections.insert(Level::Phase, phase);
        let service = Scripted(Mutex::new([report].into_iter().collect()));
        let server = crate::Server::bind(service, crate::ServerConfig::default()).unwrap();
        let handle = server.handle();
        let serving = std::thread::spawn(move || server.serve().unwrap());

        let mut client = crate::Client::connect(handle.local_addr()).unwrap();
        client.admit("p", true).unwrap();
        assert_eq!(client.tick().unwrap(), (1, 0));
        match client.query_series(None, None, None, 0, u64::MAX) {
            Err(crate::client::ClientError::Server(e)) => {
                assert_eq!(e.code, ErrorCode::TooLarge);
                assert!(e.message.ends_with("narrow the range"), "{}", e.message);
            }
            other => panic!("expected TooLarge, got {:?}", other.map(|(v, _)| v)),
        }
        // Same connection: a small request, then a narrower query.
        assert_eq!(client.query_lane_stats().unwrap().0.samples_released, 3);
        let (_, one) = client
            .query_series(None, None, Some("m0.bed.3"), 0, u64::MAX)
            .unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one.first().map(|(_, s)| s.z.len()), Some(N as usize));
        drop(client);
        handle.shutdown();
        serving.join().unwrap();
    }

    #[test]
    fn keyed_delta_equals_the_quadratic_oracle_on_arbitrary_lists() {
        // Small alphabets force shared locations, exact duplicates and NaN
        // scores (which equal nothing, themselves included). Names are
        // drawn either from one shared set of strings or freshly
        // allocated, so equal locations compare by pointer in some pairs
        // and by content in others.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let shared: [Arc<str>; 4] = ["m0", "m1", "m0.bed.0", "m0.bed.1"].map(Arc::from);
        for _ in 0..600 {
            let mut list = |max: u64| -> Vec<HierOutlier> {
                (0..next(max))
                    .map(|_| {
                        let job = ["j0", "j1"][next(2) as usize];
                        let sensor = ["m0.bed.0", "m0.bed.1"][next(2) as usize];
                        let mut o = outlier(job, sensor, next(3) as usize, 1 + next(2) as u8);
                        if next(2) == 0 {
                            o.machine = Arc::clone(&shared[next(2) as usize]);
                            o.sensor = Some(Arc::clone(&shared[2 + next(2) as usize]));
                        }
                        if next(4) == 0 {
                            o.level = Level::Environment;
                            o.phase = None;
                        }
                        if next(5) == 0 {
                            o.timestamp = None;
                        }
                        if next(9) == 0 {
                            o.outlierness = f64::NAN;
                        }
                        o
                    })
                    .collect()
            };
            let (prev, current) = (list(11), list(7));
            assert_eq!(
                format!("{:?}", outlier_delta(&prev, &current)),
                format!("{:?}", quadratic_delta(&prev, &current)),
                "prev {prev:?} current {current:?}"
            );
            // A list against its own clone: every name shared, no change.
            let (added, removed) = outlier_delta(&current, &current.clone());
            let unequal = current.iter().filter(|o| o.outlierness.is_nan()).count();
            assert_eq!((added.len(), removed.len()), (unequal, unequal));
        }
    }
}
