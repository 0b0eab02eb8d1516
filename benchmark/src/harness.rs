//! What every workload shares: the served plant (an in-process
//! `hierod_server::Server` over in-memory storage), an accounting client,
//! the open-loop schedule, and process gauges.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hierod_core::AlgorithmPolicy;
use hierod_server::client::ClientError;
use hierod_server::{Client, Server, ServerConfig, ServerHandle, ServerStats};
use hierod_service::RegistryService;
use hierod_store::storage::{Storage, StorageFile};
use hierod_store::tenants::{MemFactory, StorageFactory};
use hierod_store::MemStorage;
use hierod_stream::tenant::TenantConfig;
use hierod_stream::{ScorerMode, StreamConfig};

use crate::plant::{Op, Plan};
use crate::trace::Tracer;

/// Records per traced ingest batch.
pub const BATCH: usize = 4096;

/// Storage traffic, counted where the store hands bytes to "disk".
/// Relaxed everywhere: plain statistics that publish no other data.
#[derive(Debug, Default)]
pub struct IoCounters {
    pub syncs: AtomicU64,
    pub bytes_appended: AtomicU64,
}

/// Bytes of the files in `storage` whose name starts with `prefix`.
pub fn stored_bytes(storage: &MemStorage, prefix: &str) -> u64 {
    storage
        .list()
        .unwrap_or_default()
        .iter()
        .filter(|name| name.starts_with(prefix))
        .map(|name| storage.file_len(name).unwrap_or(0) as u64)
        .sum()
}

/// `MemFactory` behind a shared handle, so the benchmark keeps access to
/// the bytes after the server took the service: crash images, purging,
/// sizes.
#[derive(Clone, Default)]
pub struct BenchFactory {
    inner: Arc<MemFactory>,
}

impl BenchFactory {
    pub fn new() -> Self {
        Self::default()
    }

    /// What a restarted process would find: synced bytes only.
    pub fn crash_image(&self) -> BenchFactory {
        BenchFactory {
            inner: Arc::new(self.inner.crash_image(false)),
        }
    }

    fn shards(&self, tenant: &str) -> Vec<MemStorage> {
        let count = self.inner.shard_count(tenant).unwrap_or(0);
        (0..count)
            .filter_map(|k| self.inner.storage(tenant, k))
            .collect()
    }

    /// Bytes of one tenant's files whose name starts with `prefix`
    /// (`""`: everything it holds), all shards.
    pub fn stored_bytes(&self, tenant: &str, prefix: &str) -> u64 {
        self.shards(tenant)
            .iter()
            .map(|storage| stored_bytes(storage, prefix))
            .sum()
    }

    /// Frees a finished tenant's files so a long run's memory stays at
    /// one live plant, not the sum of all plants ever served.
    pub fn purge(&self, tenant: &str) {
        for storage in self.shards(tenant) {
            for name in storage.list().unwrap_or_default() {
                let _ = storage.remove(&name);
            }
        }
    }
}

/// A `MemStorage` that counts what the store above it syncs and appends
/// (the ladder's journal probe).
pub struct CountingStorage {
    inner: MemStorage,
    io: Arc<IoCounters>,
}

struct CountingFile {
    inner: Box<dyn StorageFile>,
    io: Arc<IoCounters>,
}

impl StorageFile for CountingFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.io
            .bytes_appended
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.io.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
}

impl CountingStorage {
    pub fn new(inner: MemStorage, io: Arc<IoCounters>) -> Self {
        CountingStorage { inner, io }
    }

    fn wrap(&self, file: Box<dyn StorageFile>) -> Box<dyn StorageFile> {
        Box::new(CountingFile {
            inner: file,
            io: Arc::clone(&self.io),
        })
    }
}

impl Storage for CountingStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }
    fn create(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        self.inner.create(name).map(|f| self.wrap(f))
    }
    fn open_append(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        self.inner.open_append(name).map(|f| self.wrap(f))
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

impl StorageFactory for BenchFactory {
    type Storage = MemStorage;

    fn open_shard(&self, tenant: &str, shard: usize) -> io::Result<MemStorage> {
        self.inner.open_shard(tenant, shard)
    }
    fn list_tenants(&self) -> io::Result<Vec<String>> {
        self.inner.list_tenants()
    }
    fn shard_count(&self, tenant: &str) -> io::Result<usize> {
        self.inner.shard_count(tenant)
    }
}

pub type Service = RegistryService<BenchFactory>;

/// Default policy, BatchEquivalent scorers, 1 shard, group commit 64;
/// only the allowed lateness varies between workloads.
pub fn tenant_config(lateness: u64) -> TenantConfig {
    TenantConfig {
        stream: StreamConfig {
            lateness,
            mode: ScorerMode::BatchEquivalent,
        },
        ..TenantConfig::default()
    }
}

pub fn open_service(factory: BenchFactory, lateness: u64) -> Service {
    RegistryService::open(factory, AlgorithmPolicy::default(), tenant_config(lateness))
        .expect("open the plant service over in-memory storage")
}

/// A serving server on its own thread.
pub struct Served {
    handle: ServerHandle,
    join: JoinHandle<ServerStats>,
    pub factory: BenchFactory,
}

impl Served {
    /// Binds `service` on an OS-chosen localhost port with two workers
    /// (one per core of the reference machine) and starts serving.
    pub fn start(service: Service, factory: BenchFactory) -> Served {
        let config = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        let server = Server::bind(service, config).expect("bind 127.0.0.1:0");
        let handle = server.handle();
        let join = thread::spawn(move || server.serve().expect("serve"));
        Served {
            handle,
            join,
            factory,
        }
    }

    pub fn fresh(lateness: u64) -> Served {
        let factory = BenchFactory::new();
        Served::start(open_service(factory.clone(), lateness), factory)
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// Drains the server and waits for its thread.
    pub fn stop(self) -> ServerStats {
        self.handle.shutdown();
        self.join.join().expect("server thread")
    }
}

/// Client calls made and failed, the frame-cap overruns among them, and
/// the open-loop pairs that missed their latency limit.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub cap_overruns: u64,
    pub pairs: u64,
    pub pairs_over_limit: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.cap_overruns += other.cap_overruns;
        self.pairs += other.pairs;
        self.pairs_over_limit += other.pairs_over_limit;
    }

    /// Counts one synchronous call and passes its value on.
    pub fn sync<T>(&mut self, result: Result<T, ClientError>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                self.failed += 1;
                // A reply above `wire::MAX_FRAME_LEN` reaches the client
                // as framing damage.
                if matches!(&error, ClientError::Io(e) if e.kind() == io::ErrorKind::InvalidData) {
                    self.cap_overruns += 1;
                }
                eprintln!("client call failed: {error}");
                None
            }
        }
    }

    /// Counts `n` buffered ingest calls of which `failed` returned errors.
    pub fn ingest(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Counts one open-loop pair against the latency limit; a failed
    /// pair misses any limit.
    pub fn pair(&mut self, latency_ms: Option<f64>, limit_ms: f64) {
        self.pairs += 1;
        if latency_ms.map_or(true, |ms| ms > limit_ms) {
            self.pairs_over_limit += 1;
        }
    }
}

pub fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("connect to the in-process server")
}

/// Declares every lane of `plan` on the connection (buffered).
pub fn define_lanes(client: &mut Client, plan: &Plan, tally: &mut Tally) {
    let mut failed = 0;
    for (index, id) in plan.lanes.iter().enumerate() {
        failed += u64::from(client.lane_def(index as u32 + 1, id).is_err());
    }
    tally.ingest(plan.lanes.len() as u64, failed);
}

/// Sends `ops` as unacknowledged ingest frames, one span and one count
/// per [`BATCH`] records. Returns the samples sent.
pub fn send_ops(
    client: &mut Client,
    plan: &Plan,
    ops: &[Op],
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> u64 {
    let mut samples = 0;
    for batch in ops.chunks(BATCH) {
        let span = tracer.begin("client.ingest_batch");
        let mut failed = 0;
        for op in batch {
            let sent = match *op {
                Op::Control(index) => client.control(&plan.controls[index as usize]),
                Op::Sample { lane, ts, value } => {
                    samples += 1;
                    client.sample(lane, ts, value)
                }
            };
            failed += u64::from(sent.is_err());
        }
        tally.ingest(batch.len() as u64, failed);
        tracer.end_counted(span, "records", batch.len() as u64);
    }
    samples
}

/// An open-loop schedule: event `k` is due at `start + k * period`,
/// whatever happened to earlier events.
pub struct Schedule {
    start: Instant,
    period: Duration,
}

impl Schedule {
    pub fn new(start: Instant, period: Duration) -> Self {
        Schedule { start, period }
    }

    pub fn due(&self, k: u64) -> Instant {
        self.start + self.period.mul_f64(k as f64)
    }

    /// How long past its due time event `k` is at `now` (0 before it).
    pub fn late_by(&self, k: u64, now: Instant) -> Duration {
        now.saturating_duration_since(self.due(k))
    }

    /// Sleeps until event `k` is due; returns how late the generator
    /// already is (0 when it had to wait).
    pub fn wait(&self, k: u64) -> Duration {
        let now = Instant::now();
        let late = self.late_by(k, now);
        if late.is_zero() {
            thread::sleep(self.due(k).saturating_duration_since(now));
        }
        late
    }
}

/// Milliseconds from when something was due to now.
pub fn ms_since(due: Instant) -> f64 {
    Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3
}

/// `VmHWM` of this process in MiB (0 where /proc is absent).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used, all threads.
pub fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the command
    // name (which may contain spaces), in ticks of 1/100 s on Linux.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_name = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let mut fields = after_name.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / 100.0
}

/// Accumulates process CPU time over the timed stretches of a run; the
/// gate's own work is left out by pausing around it.
#[derive(Debug, Default)]
pub struct CpuMeter {
    total_s: f64,
    since: Option<f64>,
}

impl CpuMeter {
    pub fn running() -> Self {
        CpuMeter {
            total_s: 0.0,
            since: Some(process_cpu_s()),
        }
    }

    pub fn pause(&mut self) {
        if let Some(since) = self.since.take() {
            self.total_s += process_cpu_s() - since;
        }
    }

    pub fn resume(&mut self) {
        self.since.get_or_insert_with(process_cpu_s);
    }

    /// Pauses and returns the seconds accumulated so far.
    pub fn stop(&mut self) -> f64 {
        self.pause();
        self.total_s
    }
}

/// Nanoseconds the calling thread has spent on a CPU.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_time_latency_counts_the_wait_a_stall_imposes() {
        // Events every 10 ms, each served in 1 ms, and a stall that keeps
        // the generator away until 35 ms: events 1..=3 answer 26, 17 and
        // 8 ms after they were due although none took longer than 1 ms —
        // the wait a send-time clock would hide. The stall is injected
        // on a simulated clock, so the test never sleeps.
        let start = Instant::now();
        let ms = Duration::from_millis;
        let schedule = Schedule::new(start, ms(10));
        let mut now = start + ms(35);
        let mut from_due = Vec::new();
        let mut from_send = Vec::new();
        for k in 1..=4 {
            // What `wait` does: move the clock to the due time if early.
            now = now.max(schedule.due(k));
            let sent = now;
            now += ms(1);
            from_due.push(schedule.late_by(k, now));
            from_send.push(now - sent);
        }
        assert_eq!(from_due, [ms(26), ms(17), ms(8), ms(1)]);
        assert_eq!(from_send, [ms(1); 4]);
        assert_eq!(schedule.late_by(9, start), Duration::ZERO, "not due yet");
        // The real clock agrees on an event that is already overdue.
        assert!(Schedule::new(start - ms(50), ms(10)).wait(2) >= ms(30));
    }

    #[test]
    fn tally_counts_failures_and_missed_limits() {
        let mut tally = Tally::default();
        assert_eq!(tally.sync(Ok(7)), Some(7));
        let too_big = io::Error::new(io::ErrorKind::InvalidData, "frame length exceeds cap");
        assert_eq!(tally.sync::<u8>(Err(ClientError::Io(too_big))), None);
        tally.ingest(10, 1);
        tally.pair(Some(3.0), 50.0);
        tally.pair(Some(51.0), 50.0);
        tally.pair(None, 50.0);
        assert_eq!(
            (tally.attempted, tally.failed, tally.cap_overruns),
            (12, 2, 1)
        );
        assert_eq!((tally.pairs, tally.pairs_over_limit), (3, 2));
    }

    #[test]
    fn gauges_read_this_process() {
        assert!(peak_rss_mb() > 1.0);
        let before = thread_cpu_ns();
        let mut x = 0_u64;
        for i in 0..20_000_000_u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_ns() > before);
        assert!(process_cpu_s() >= 0.0);
    }
}
