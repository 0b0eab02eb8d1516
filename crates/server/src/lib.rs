//! `hierod-server`: the api layer of the api → service → engine split —
//! a std-only TCP server exposing a [`PlantService`] to concurrent
//! clients over the `hierod-wire` protocol.
//!
//! ## Threading model
//!
//! [`Server::serve`] runs the acceptor and `workers` connection loops on
//! threads of its own, one each, in one [`std::thread::scope`] (no
//! detached threads, nothing outlives the call). The acceptor offers
//! sockets to a **bounded** [`HandoffQueue`] of 64 (at capacity new
//! connections are refused, not buffered without limit); each worker pops
//! one socket and serves it to completion before taking the next.
//!
//! ## Runs
//!
//! Ingest is applied a socket read at a time, not a frame at a time: a
//! sample frame — itself a run of up to 512 samples, as the client
//! coalesces them ([`hierod_wire::frame`]) — takes with it every sample
//! frame already buffered behind it, and the run goes through one
//! `PlantService::ingest_run` — one plant lookup, one acquisition of that
//! plant, one hand-off to its WAL file, where it is journalled as runs
//! again — with the frame counter bumped once by the run's length (in
//! samples) and the drain flag checked once. A run ends at a lane
//! definition, a control frame, a request, or the end of what `read` has
//! delivered, so it holds at most one read's worth of samples (8 KiB,
//! ≈ 800 samples at ≈ 10 B each, plus the frame the previous read left
//! incomplete, at most 512 samples): that, and no more, is how long a
//! same-plant `tick` waits for ingest. Every sample of a run is attempted
//! and answered for exactly as if it had been its own call. Between runs the
//! worker yields its core, so on a box with more busy threads than cores
//! another connection's worker waits for one run, not for the kernel to
//! preempt a worker whose socket never runs dry (`conn.rs`, "Runs").
//!
//! The service is shared by reference — [`Server`] wants a `Sync`
//! [`PlantService`] and takes no lock of its own around it — and
//! detection runs inline on whichever worker serves the frame. What a
//! frame excludes is therefore what the service excludes:
//! `RegistryService` locks one plant per call, so two connections on
//! different plants run side by side, and one plant's `tick`, storage
//! stall or end-of-shift `finish` delays callers of that plant only. A
//! `Finish` detaches the plant and then finalises and encodes its report
//! with no lock held at all.
//!
//! The one piece of shared state this crate adds is a report cache slot
//! per admitted plant, each behind its own mutex (`conn.rs`). Lock
//! order, outermost first: **cache slot → registry map → tenant**;
//! nothing acquires leftwards. `cargo xtask lint` holds the graph
//! acyclic, `hierod-service`'s `tests/loom_registry.rs` walks the inner
//! two, and `tests/tenant_isolation.rs` parks one plant inside storage
//! and runs a neighbour's whole session beside it.
//!
//! ## Graceful drain
//!
//! [`ServerHandle::shutdown`] closes the hand-off queue (a flag flipped
//! under the queue mutex, so parked workers cannot miss the wakeup —
//! the protocol `tests/loom_queue.rs` model-checks). The acceptor stops
//! accepting; workers drain already-queued sockets, and in-flight
//! connections — whose reads carry a short timeout (50 ms) precisely so
//! [`FrameReader::poll`](hierod_wire::FrameReader) surfaces
//! [`Poll::Idle`](hierod_wire::Poll) between frames — notice the flag at
//! the next frame boundary, answer any further request with
//! [`ErrorCode::Draining`](hierod_wire::ErrorCode), and hang up.
//! [`Server::serve`] returns once every worker has drained.
//!
//! ## Protocol state
//!
//! Each connection holds its admitted plant and its own lane table
//! (built from `LaneDef` frames, mirroring WAL replay): dense, at most
//! [`MAX_LANES`](hierod_stream::MAX_LANES) entries — a lane number past
//! the cap is a parked `Protocol` error — each entry the lane's id and,
//! once a sample has needed it, the plant's handle for it: the plant's
//! own lane number, as its journal records it, good for as long as the
//! plant stays the incarnation that issued it. The two numberings are
//! independent — a client's wire lane 7 may be the plant's lane 0, and
//! only the plant's is ever written to storage. Ingest frames
//! are deliberately not acknowledged one-by-one — the first ingest
//! error is parked and surfaces at the connection's next synchronous
//! request, so a firehose of samples costs no response traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use hierod_service::PlantService;

pub mod client;
mod conn;
pub mod queue;

pub use client::Client;

use queue::HandoffQueue;

/// Bound on the accepted-but-unserved socket queue; beyond it new sockets
/// are refused immediately instead of queueing unboundedly.
const ACCEPT_QUEUE: usize = 64;

/// Socket read timeout — the drain poll interval: how long a worker can
/// sit in a blocking read before it re-checks the shutdown flag. The
/// acceptor backs off this long after a failed accept.
pub(crate) const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Tuning knobs for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (use port 0 to let the OS pick).
    pub addr: String,
    /// Connection-serving workers (the acceptor is extra).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
        }
    }
}

/// Counters accumulated over one [`Server::serve`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections served to completion.
    pub connections: u64,
    /// Frames handled across all connections (requests and ingest).
    pub frames: u64,
    /// Connections refused because the accept queue was full.
    pub refused: u64,
}

/// State shared between the server, its tasks, and detached handles.
#[derive(Debug)]
pub(crate) struct Shared {
    connections: AtomicU64,
    pub(crate) frames: AtomicU64,
    refused: AtomicU64,
    queue: HandoffQueue<TcpStream>,
}

impl Shared {
    /// Shutdown doubles as queue closure: one flag serves both the
    /// accept path and the per-frame drain check.
    pub(crate) fn draining(&self) -> bool {
        self.queue.is_closed()
    }
}

/// Cloneable controller for a running server: carries the bound address
/// and the shutdown switch, and stays valid while [`Server::serve`]
/// blocks on another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain: stop accepting, finish in-flight
    /// frames, answer further requests with `Draining`, return from
    /// [`Server::serve`].
    pub fn shutdown(&self) {
        self.shared.queue.close();
    }
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bound-but-not-yet-serving TCP front-end over any [`PlantService`].
pub struct Server<S: PlantService> {
    state: conn::ServiceState<S>,
    listener: TcpListener,
    config: ServerConfig,
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl<S: PlantService + Send + Sync> Server<S> {
    /// Binds the listener (without serving yet, so callers can grab a
    /// [`ServerHandle`] before the blocking [`Server::serve`] call).
    ///
    /// # Errors
    /// Bind or local-address query failures.
    pub fn bind(service: S, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // The acceptor polls: it must wake up to observe shutdown even
        // when no client ever connects.
        listener.set_nonblocking(true)?;
        Ok(Server {
            state: conn::ServiceState::new(service),
            listener,
            config,
            shared: Arc::new(Shared {
                connections: AtomicU64::new(0),
                frames: AtomicU64::new(0),
                refused: AtomicU64::new(0),
                queue: HandoffQueue::new(ACCEPT_QUEUE),
            }),
            addr,
        })
    }

    /// A controller handle; clone freely across threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until [`ServerHandle::shutdown`], then drains and returns
    /// the run's counters. Blocks the calling thread; the acceptor and
    /// all workers are scoped inside this call.
    ///
    /// # Errors
    /// Currently infallible at this layer (per-connection I/O errors
    /// close that connection only); the `Result` reserves the right to
    /// surface listener failures.
    pub fn serve(self) -> io::Result<ServerStats> {
        let (shared, state) = (&*self.shared, &self.state);
        std::thread::scope(|scope| {
            scope.spawn(|| accept_loop(&self.listener, shared));
            for _ in 0..self.config.workers.max(1) {
                scope.spawn(|| worker_loop(state, shared));
            }
        });
        // Relaxed suffices: the scope joins every thread, and the joins
        // happened-before these loads — no counter update can race them.
        Ok(ServerStats {
            connections: self.shared.connections.load(Ordering::Relaxed),
            frames: self.shared.frames.load(Ordering::Relaxed),
            refused: self.shared.refused.load(Ordering::Relaxed),
        })
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.draining() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Refuse at the door: a full (or just-closed) queue hands
                // the socket back and dropping it resets the connection
                // rather than parking it unbounded.
                if shared.queue.offer(stream).is_err() {
                    shared.refused.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transient accept errors (aborted handshakes, fd pressure):
            // back off briefly and keep listening.
            Err(_) => std::thread::sleep(READ_TIMEOUT),
        }
    }
    // Workers blocked in `pop` were already woken by `close`; nothing to
    // notify here.
}

fn worker_loop<S: PlantService>(state: &conn::ServiceState<S>, shared: &Shared) {
    // `pop` parks until a socket arrives and yields `None` only once the
    // queue is closed *and* drained — exactly the worker exit condition.
    while let Some(stream) = shared.queue.pop() {
        // Per-connection I/O errors end that connection only.
        let _ = conn::serve_connection(stream, state, shared);
        shared.connections.fetch_add(1, Ordering::Relaxed);
    }
}
