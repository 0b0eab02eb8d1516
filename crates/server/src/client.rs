//! A small blocking client over the wire protocol — the reference
//! consumer used by the integration tests, the serving example, and the
//! server benchmark.
//!
//! Ingest calls ([`Client::lane_def`], [`Client::control`],
//! [`Client::sample`]) only buffer bytes; nothing hits the socket until
//! [`Client::flush`] or the next synchronous request. That mirrors the
//! protocol's design: ingest is an unacknowledged firehose, and errors
//! surface at the next request/response exchange. Consecutive samples
//! travel as one run frame (one header, one checksum, delta-coded
//! timestamps; [`hierod_wire::frame`]), closed by any other frame, a
//! flush, or [`MAX_RUN`](hierod_store::wal::MAX_RUN) samples.
//!
//! The reports [`Client::finish`], [`Client::backfill`] and a
//! [`DeltaReply::Resync`] return carry the Algorithm-1 triples and name
//! every scored series, but not the series' per-sample `timestamps` and
//! `z` columns: [`decode_report`](hierod_wire::decode_report) gives them
//! back empty. Fetch the columns of the series you want with
//! [`Client::query_series`], cut to a time range, from the plant's last
//! tick. A reply that would exceed the frame cap comes back as a
//! [`ErrorCode::TooLarge`] server error, and the connection stays usable.

use std::io::{self, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use hierod_core::HierOutlier;
use hierod_hierarchy::Level;
use hierod_history::ScanStats;
use hierod_store::wal::{RunWriter, WalRecord};
use hierod_stream::codec::{encode_control, encode_lane};
use hierod_stream::{ControlEvent, Health, LaneId, LaneStats, StreamStats};
use hierod_wire::{ErrorCode, Frame, FrameReader, LaneColumns, LevelSeries, Poll};

/// A server-reported failure, preserved with its wire error class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerError {
    /// Machine-readable class from the wire.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server error ({:?}): {}", self.code, self.message)
    }
}

impl std::error::Error for ServerError {}

/// Client-side failures: transport, or a server-reported error.
#[derive(Debug)]
pub enum ClientError {
    /// Socket / framing failure.
    Io(io::Error),
    /// The server answered with [`Frame::Error`].
    Server(ServerError),
    /// The server answered with a frame the request cannot accept.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Server(e) => write!(f, "{e}"),
            ClientError::Unexpected(what) => write!(f, "unexpected reply frame: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Result alias for client calls.
pub(crate) type Result<T> = std::result::Result<T, ClientError>;

/// What [`Client::query_deltas`] observed.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaReply {
    /// Nothing changed since the queried version.
    NoChange {
        /// Current report version.
        version: u64,
    },
    /// Incremental outlier-set change.
    Deltas {
        /// Version the delta starts from.
        from: u64,
        /// Version the delta ends at.
        to: u64,
        /// Newly appeared triples.
        added: Vec<HierOutlier>,
        /// Vanished triples.
        removed: Vec<HierOutlier>,
    },
    /// Client was too far behind: full re-sync.
    Resync {
        /// Current report version.
        version: u64,
        /// `encode_report` bytes of the report (series named, their
        /// columns left to [`Client::query_series`]).
        report: Vec<u8>,
    },
}

/// Blocking wire-protocol client over one TCP connection.
pub struct Client {
    writer: BufWriter<TcpStream>,
    reader_stream: TcpStream,
    reader: FrameReader,
    /// The frame being sent, encoded — or the open sample run; kept for
    /// its capacity, so an ingest frame costs no allocation.
    frame: Vec<u8>,
    /// The sample run open in `frame`.
    run: RunWriter,
}

impl Client {
    /// Connects to a serving [`Server`](crate::Server).
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader_stream = stream.try_clone()?;
        Ok(Client {
            writer: BufWriter::new(stream),
            reader_stream,
            reader: FrameReader::new(),
            frame: Vec::new(),
            run: RunWriter::default(),
        })
    }

    /// Buffers what `frame` holds — the closed sample run, or a closed
    /// run and the frame behind it — and empties it.
    fn spill(&mut self) -> io::Result<()> {
        let written = self.writer.write_all(&self.frame);
        self.frame.clear();
        written
    }

    /// Closes the open sample run, if any, and buffers it.
    fn close_run(&mut self) -> io::Result<()> {
        if !self.run.is_open() {
            return Ok(());
        }
        self.run.close(&mut self.frame);
        self.spill()
    }

    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.close_run()?;
        frame.encode(&mut self.frame);
        self.spill()
    }

    fn recv(&mut self) -> Result<Frame> {
        loop {
            match self.reader.poll(&mut self.reader_stream)? {
                Poll::Frame(frame) => return Ok(frame),
                Poll::Idle => continue,
                Poll::Eof => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
            }
        }
    }

    fn request(&mut self, frame: &Frame) -> Result<Frame> {
        self.send(frame)?;
        self.writer.flush()?;
        match self.recv()? {
            Frame::Error { code, message } => {
                Err(ClientError::Server(ServerError { code, message }))
            }
            reply => Ok(reply),
        }
    }

    /// Closes the open sample run and flushes buffered ingest frames to
    /// the socket.
    ///
    /// # Errors
    /// Transport failures.
    pub fn flush(&mut self) -> io::Result<()> {
        self.close_run()?;
        self.writer.flush()
    }

    /// Admits (or with `create`, creates) `plant` and binds this
    /// connection to it. Returns `true` when the plant was created.
    ///
    /// # Errors
    /// Transport failures or a server-side rejection.
    pub fn admit(&mut self, plant: &str, create: bool) -> Result<bool> {
        match self.request(&Frame::Admit {
            plant: plant.to_string(),
            create,
        })? {
            Frame::Ok { info } => Ok(info == 1),
            _ => Err(ClientError::Unexpected("admit expects Ok")),
        }
    }

    /// Buffers a lane-definition ingest frame binding `lane` to `id`.
    ///
    /// # Errors
    /// Transport failures (on buffer spill only).
    pub fn lane_def(&mut self, lane: u32, id: &LaneId) -> io::Result<()> {
        self.send(&Frame::Ingest(WalRecord::LaneDef {
            lane,
            meta: encode_lane(id),
        }))
    }

    /// Buffers a control-event ingest frame. Its `seq` is 0: the server
    /// ignores it, and the plant's journal numbers the control itself.
    ///
    /// # Errors
    /// Transport failures (on buffer spill only).
    pub fn control(&mut self, event: &ControlEvent) -> io::Result<()> {
        self.send(&Frame::Ingest(WalRecord::Control {
            seq: 0,
            payload: encode_control(event),
        }))
    }

    /// Adds one sample on a previously defined lane to the open run
    /// frame, which is buffered once it closes.
    ///
    /// # Errors
    /// Transport failures (on buffer spill only).
    pub fn sample(&mut self, lane: u32, timestamp: u64, value: f64) -> io::Result<()> {
        self.run
            .push_sample(&mut self.frame, lane, timestamp, value);
        if self.run.is_open() {
            return Ok(());
        }
        self.spill()
    }

    /// Ticks the plant: assembles an interim durable report server-side.
    /// Returns `(version, outlier_count)`.
    ///
    /// # Errors
    /// Transport failures or a server-side rejection (including parked
    /// ingest errors).
    pub fn tick(&mut self) -> Result<(u64, u64)> {
        match self.request(&Frame::Tick)? {
            Frame::TickDone { version, outliers } => Ok((version, outliers)),
            _ => Err(ClientError::Unexpected("tick expects TickDone")),
        }
    }

    /// Finalizes the plant and returns `(version, encode_report bytes)`.
    ///
    /// # Errors
    /// Transport failures or a server-side rejection.
    pub fn finish(&mut self) -> Result<(u64, Vec<u8>)> {
        match self.request(&Frame::Finish)? {
            Frame::Report { version, report } => Ok((version, report)),
            _ => Err(ClientError::Unexpected("finish expects Report")),
        }
    }

    /// Queries the current outlier triples, optionally for one level.
    ///
    /// # Errors
    /// Transport failures or a server-side rejection.
    pub fn query_scores(&mut self, level: Option<Level>) -> Result<(u64, Vec<HierOutlier>)> {
        match self.request(&Frame::QueryScores { level })? {
            Frame::Scores { version, outliers } => Ok((version, outliers)),
            _ => Err(ClientError::Unexpected("query_scores expects Scores")),
        }
    }

    /// Queries aggregate stream stats plus per-lane counters.
    ///
    /// # Errors
    /// Transport failures or a server-side rejection.
    pub fn query_lane_stats(&mut self) -> Result<(StreamStats, Vec<(LaneId, LaneStats)>)> {
        match self.request(&Frame::QueryLaneStats)? {
            Frame::LaneStatsReply { stats, lanes } => Ok((stats, lanes)),
            _ => Err(ClientError::Unexpected(
                "query_lane_stats expects LaneStatsReply",
            )),
        }
    }

    /// Queries report changes since `since`.
    ///
    /// # Errors
    /// Transport failures or a server-side rejection.
    pub fn query_deltas(&mut self, since: u64) -> Result<DeltaReply> {
        match self.request(&Frame::QueryDeltas { since })? {
            Frame::NoChange { version } => Ok(DeltaReply::NoChange { version }),
            Frame::Deltas {
                from,
                to,
                added,
                removed,
            } => Ok(DeltaReply::Deltas {
                from,
                to,
                added,
                removed,
            }),
            Frame::Report { version, report } => Ok(DeltaReply::Resync { version, report }),
            _ => Err(ClientError::Unexpected("query_deltas expects delta reply")),
        }
    }

    /// Queries the service health snapshot.
    ///
    /// # Errors
    /// Transport failures or a server-side rejection.
    pub fn query_health(&mut self) -> Result<Health> {
        match self.request(&Frame::QueryHealth)? {
            Frame::HealthReply(health) => Ok(health),
            _ => Err(ClientError::Unexpected("query_health expects HealthReply")),
        }
    }

    /// Fetches per-series score columns from the report of the plant's
    /// last tick: every series of `level`, `machine` and `sensor` (`None`
    /// = any) with samples in `[start, end]`, each a key plus its
    /// `timestamps` and `z` columns cut to the range, in report order.
    /// Returns the report version they came from.
    ///
    /// # Errors
    /// Transport failures or a server-side rejection: `Missing` before the
    /// plant's first tick or after its finish, `TooLarge` for a range whose
    /// columns would not fit in one frame.
    pub fn query_series(
        &mut self,
        level: Option<Level>,
        machine: Option<&str>,
        sensor: Option<&str>,
        start: u64,
        end: u64,
    ) -> Result<(u64, Vec<LevelSeries>)> {
        match self.request(&Frame::QuerySeries {
            level,
            machine: machine.map(str::to_string),
            sensor: sensor.map(str::to_string),
            start,
            end,
        })? {
            Frame::SeriesScores { version, series } => Ok((version, series)),
            _ => Err(ClientError::Unexpected("query_series expects SeriesScores")),
        }
    }

    /// Scans the plant's sealed history for samples in `[start, end]`,
    /// optionally filtered to one machine and/or sensor. Returns the
    /// per-lane columns (sorted by lane) and the scan's pruning stats.
    ///
    /// # Errors
    /// Transport failures or a server-side rejection.
    pub fn range_scan(
        &mut self,
        start: u64,
        end: u64,
        machine: Option<&str>,
        sensor: Option<&str>,
    ) -> Result<(Vec<LaneColumns>, ScanStats)> {
        match self.request(&Frame::RangeScan {
            start,
            end,
            machine: machine.map(str::to_string),
            sensor: sensor.map(str::to_string),
        })? {
            Frame::Series { lanes, stats } => Ok((lanes, stats)),
            _ => Err(ClientError::Unexpected("range_scan expects Series")),
        }
    }

    /// Replays the plant's stored `[start, end]` range through a fresh
    /// server-side detector — with the original policy when `spec` is
    /// `None`, or with the phase detector swapped to `spec` (an
    /// `AlgoSpec` display string such as `"sliding-z(window=8)"`).
    /// Returns the replayed report's `encode_report` bytes plus
    /// `(controls_replayed, samples_replayed, samples_skipped)`.
    ///
    /// # Errors
    /// Transport failures or a server-side rejection.
    pub fn backfill(
        &mut self,
        start: u64,
        end: u64,
        spec: Option<&str>,
    ) -> Result<(Vec<u8>, (u64, u64, u64))> {
        match self.request(&Frame::Backfill {
            start,
            end,
            spec: spec.map(str::to_string),
        })? {
            Frame::BackfillDone {
                report,
                controls_replayed,
                samples_replayed,
                samples_skipped,
            } => Ok((
                report,
                (controls_replayed, samples_replayed, samples_skipped),
            )),
            _ => Err(ClientError::Unexpected("backfill expects BackfillDone")),
        }
    }
}

impl Drop for Client {
    /// Buffers the open sample run, so dropping a client sends what its
    /// buffered writer sends when dropped: everything.
    fn drop(&mut self) {
        let _ = self.close_run();
    }
}
