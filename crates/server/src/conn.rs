//! Per-connection protocol handling: wire frames in, [`PlantService`]
//! calls down, wire frames out.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Mutex;

use hierod_core::HierOutlier;
use hierod_detect::engine::AlgoSpec;
use hierod_detect::DetectError;
use hierod_history::RangeQuery;
use hierod_service::PlantService;
use hierod_store::wal::WalRecord;
use hierod_stream::codec::{decode_control, decode_lane};
use hierod_stream::{LaneId, Sample};
use hierod_wire::{encode_report, write_frame, ErrorCode, Frame, FrameReader, Poll};

use crate::{lock, ServerConfig, Shared};

/// Versioned report snapshot for one plant, kept so score and delta
/// queries answer from the last assembled report instead of forcing a
/// fresh (and side-effecting) tick.
#[derive(Debug, Default)]
pub(crate) struct ReportCache {
    /// Monotone report version; 0 means no report assembled yet.
    version: u64,
    /// Outlier triples of the current version.
    current: Vec<HierOutlier>,
    /// Outlier triples of the previous version (delta base).
    prev: Vec<HierOutlier>,
    /// `encode_report` bytes of the current version (resync payload).
    encoded: Vec<u8>,
}

/// The service plus the per-plant report caches, guarded by one mutex in
/// [`Server`](crate::Server).
#[derive(Debug)]
pub(crate) struct ServiceState<S> {
    service: S,
    caches: BTreeMap<String, ReportCache>,
}

impl<S: PlantService> ServiceState<S> {
    pub(crate) fn new(service: S) -> Self {
        ServiceState {
            service,
            caches: BTreeMap::new(),
        }
    }
}

/// Connection-local protocol state.
#[derive(Default)]
struct ConnState {
    /// The plant this connection drives (set by `Admit`).
    plant: Option<String>,
    /// Lane-number → lane-id table built from `LaneDef` ingest frames,
    /// mirroring how WAL replay rebuilds its lane table.
    lanes: BTreeMap<u32, LaneId>,
    /// First ingest failure, parked until the next synchronous request.
    pending: Option<(ErrorCode, String)>,
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

fn error_frame(code: ErrorCode, message: impl Into<String>) -> Frame {
    Frame::Error {
        code,
        message: message.into(),
    }
}

/// Applies one ingest record; failures are parked, never answered.
fn apply_ingest<S: PlantService>(
    state: &mut ServiceState<S>,
    conn: &mut ConnState,
    record: WalRecord,
) {
    let Some(plant) = conn.plant.clone() else {
        conn.park(ErrorCode::Protocol, "ingest before admit".to_string());
        return;
    };
    match record {
        WalRecord::LaneDef { lane, meta } => match decode_lane(&meta) {
            Some(id) => {
                conn.lanes.insert(lane, id);
            }
            None => conn.park(ErrorCode::Protocol, format!("undecodable lane {lane} meta")),
        },
        WalRecord::Control { seq: _, payload } => match decode_control(&payload) {
            Some(event) => {
                if let Err(e) = state.service.control(&plant, &event) {
                    conn.park(classify(&e), e.to_string());
                }
            }
            None => conn.park(
                ErrorCode::Protocol,
                "undecodable control payload".to_string(),
            ),
        },
        WalRecord::Sample {
            lane,
            timestamp,
            value,
        } => match conn.lanes.get(&lane) {
            Some(id) => {
                let id = id.clone();
                if let Err(e) = state
                    .service
                    .ingest(&plant, &id, Sample { timestamp, value })
                {
                    conn.park(classify(&e), e.to_string());
                }
            }
            None => conn.park(
                ErrorCode::Protocol,
                format!("sample for undefined lane {lane}"),
            ),
        },
    }
}

/// The plant a synchronous request addresses, or a protocol error.
fn addressed(conn: &ConnState) -> Result<String, Frame> {
    conn.plant
        .clone()
        .ok_or_else(|| error_frame(ErrorCode::Protocol, "request before admit"))
}

/// Handles one synchronous request frame, returning the reply frame.
fn handle_request<S: PlantService>(
    state: &mut ServiceState<S>,
    conn: &mut ConnState,
    frame: Frame,
) -> Frame {
    // A parked ingest error pre-empts the request: the client learns
    // its firehose broke before it can trust any further answer.
    if let Some((code, message)) = conn.pending.take() {
        return error_frame(code, message);
    }
    match frame {
        Frame::Admit { plant, create } => match state.service.admit(&plant, create) {
            Ok(outcome) => {
                conn.plant = Some(plant);
                conn.lanes.clear();
                Frame::Ok {
                    info: match outcome {
                        hierod_service::Admission::Existing => 0,
                        hierod_service::Admission::Created => 1,
                    },
                }
            }
            Err(e) => error_frame(classify(&e), e.to_string()),
        },
        Frame::Tick => {
            let plant = match addressed(conn) {
                Ok(p) => p,
                Err(f) => return f,
            };
            match state.service.tick(&plant) {
                Ok(report) => {
                    let cache = state.caches.entry(plant).or_default();
                    cache.prev = std::mem::take(&mut cache.current);
                    cache.current = report.report.outliers.clone();
                    cache.encoded = encode_report(&report);
                    cache.version += 1;
                    Frame::TickDone {
                        version: cache.version,
                        outliers: cache.current.len() as u64,
                    }
                }
                Err(e) => error_frame(classify(&e), e.to_string()),
            }
        }
        Frame::Finish => {
            let plant = match addressed(conn) {
                Ok(p) => p,
                Err(f) => return f,
            };
            match state.service.finish(&plant) {
                Ok(report) => {
                    let version = state
                        .caches
                        .remove(&plant)
                        .map_or(1, |cache| cache.version + 1);
                    conn.plant = None;
                    conn.lanes.clear();
                    Frame::Report {
                        version,
                        report: encode_report(&report),
                    }
                }
                Err(e) => error_frame(classify(&e), e.to_string()),
            }
        }
        Frame::QueryScores { level } => {
            let plant = match addressed(conn) {
                Ok(p) => p,
                Err(f) => return f,
            };
            match state.caches.get(&plant) {
                Some(cache) => Frame::Scores {
                    version: cache.version,
                    outliers: cache
                        .current
                        .iter()
                        .filter(|o| level.map_or(true, |l| o.level == l))
                        .cloned()
                        .collect(),
                },
                None => error_frame(ErrorCode::Missing, "no report assembled yet (tick first)"),
            }
        }
        Frame::QueryLaneStats => {
            let plant = match addressed(conn) {
                Ok(p) => p,
                Err(f) => return f,
            };
            let stats = match state.service.stats(&plant) {
                Ok(s) => s,
                Err(e) => return error_frame(classify(&e), e.to_string()),
            };
            match state.service.lane_stats(&plant) {
                Ok(lanes) => Frame::LaneStatsReply {
                    stats,
                    lanes: lanes.into_iter().collect(),
                },
                Err(e) => error_frame(classify(&e), e.to_string()),
            }
        }
        Frame::QueryDeltas { since } => {
            let plant = match addressed(conn) {
                Ok(p) => p,
                Err(f) => return f,
            };
            let Some(cache) = state.caches.get(&plant) else {
                return error_frame(ErrorCode::Missing, "no report assembled yet (tick first)");
            };
            if since == cache.version {
                Frame::NoChange {
                    version: cache.version,
                }
            } else if since.checked_add(1) == Some(cache.version) {
                Frame::Deltas {
                    from: since,
                    to: cache.version,
                    added: cache
                        .current
                        .iter()
                        .filter(|o| !cache.prev.contains(o))
                        .cloned()
                        .collect(),
                    removed: cache
                        .prev
                        .iter()
                        .filter(|o| !cache.current.contains(o))
                        .cloned()
                        .collect(),
                }
            } else {
                // Too far behind (or ahead): full resync.
                Frame::Report {
                    version: cache.version,
                    report: cache.encoded.clone(),
                }
            }
        }
        Frame::RangeScan {
            start,
            end,
            machine,
            sensor,
        } => {
            let plant = match addressed(conn) {
                Ok(p) => p,
                Err(f) => return f,
            };
            let query = RangeQuery {
                start,
                end,
                machine,
                sensor,
            };
            match state.service.range_scan(&plant, &query) {
                Ok((lanes, stats)) => Frame::Series {
                    lanes: lanes
                        .into_iter()
                        .map(|l| {
                            (
                                l.id,
                                l.series.timestamps().to_vec(),
                                l.series.values().to_vec(),
                            )
                        })
                        .collect(),
                    stats,
                },
                Err(e) => error_frame(classify(&e), e.to_string()),
            }
        }
        Frame::Backfill { start, end, spec } => {
            let plant = match addressed(conn) {
                Ok(p) => p,
                Err(f) => return f,
            };
            let spec = match spec.as_deref().map(str::parse::<AlgoSpec>).transpose() {
                Ok(s) => s,
                Err(e) => return error_frame(classify(&e), e.to_string()),
            };
            match state.service.backfill(&plant, start, end, spec.as_ref()) {
                Ok(outcome) => Frame::BackfillDone {
                    report: encode_report(&outcome.report),
                    controls_replayed: outcome.controls_replayed,
                    samples_replayed: outcome.samples_replayed,
                    samples_skipped: outcome.samples_skipped,
                },
                Err(e) => error_frame(classify(&e), e.to_string()),
            }
        }
        Frame::QueryHealth => Frame::HealthReply(state.service.health()),
        Frame::Ingest(_) => error_frame(ErrorCode::Protocol, "unreachable: ingest is async"),
        // A client sending response-tagged frames is off-protocol.
        _ => error_frame(ErrorCode::Protocol, "unexpected response-tagged frame"),
    }
}

/// Serves one connection until EOF, a protocol error, or drain.
pub(crate) fn serve_connection<S: PlantService>(
    stream: TcpStream,
    service: &Mutex<ServiceState<S>>,
    shared: &Shared,
    config: &ServerConfig,
) -> io::Result<()> {
    // The read timeout is the drain poll interval (see module docs of
    // the crate): poll() returns Idle instead of blocking forever.
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_nodelay(true)?;
    let mut reader_stream = stream.try_clone()?;
    let mut writer = BufWriter::new(stream);
    let mut reader = FrameReader::new();
    let mut conn = ConnState::default();
    loop {
        match reader.poll(&mut reader_stream) {
            Ok(Poll::Frame(frame)) => {
                shared
                    .frames
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if shared.draining() {
                    write_frame(
                        &mut writer,
                        &error_frame(ErrorCode::Draining, "server is draining"),
                    )?;
                    writer.flush()?;
                    return Ok(());
                }
                match frame {
                    Frame::Ingest(record) => {
                        let mut state = lock(service);
                        apply_ingest(&mut state, &mut conn, record);
                        // No ack: the next synchronous request surfaces
                        // any parked error.
                    }
                    request => {
                        let reply = {
                            let mut state = lock(service);
                            handle_request(&mut state, &mut conn, request)
                        };
                        write_frame(&mut writer, &reply)?;
                        writer.flush()?;
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
