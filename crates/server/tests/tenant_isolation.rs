//! One plant's stall is that plant's alone — deterministically, with no
//! timing in the assertion.
//!
//! A test-local [`StorageFactory`] parks every `create`/`sync` of the
//! tenants it gates until the test opens the gate. While tenant A sits
//! parked *inside* the server — in a `tick`'s hard commit, in the open of
//! a plant being created, in a `finish` — a neighbour's whole session
//! (admit, ingest burst, barrier, tick, deltas, finish) and a third
//! connection's health query must run to completion. The neighbour's
//! result arrives over a channel; the generous `recv_timeout` only bounds
//! how long a *failing* run takes to say so (with one server-wide lock,
//! every one of these waits forever).

use std::io;
use std::net::SocketAddr;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use hierod_core::AlgorithmPolicy;
use hierod_hierarchy::{CaqResult, JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
use hierod_server::{Client, Server, ServerConfig};
use hierod_service::{PlantService, RegistryService};
use hierod_store::storage::{Storage, StorageFile};
use hierod_store::tenants::{MemFactory, StorageFactory};
use hierod_store::MemStorage;
use hierod_stream::tenant::TenantConfig;
use hierod_stream::{ControlEvent, LaneId, LaneKind, Sample};
use hierod_wire::encode_report;

/// Long enough that only a blocked call reaches it.
const PATIENCE: Duration = Duration::from_secs(20);

/// Parks callers while closed, and tells the test each time one parks.
struct Gate {
    closed: Mutex<bool>,
    opened: Condvar,
    parked: Mutex<Sender<()>>,
}

impl Gate {
    fn set(&self, closed: bool) {
        *self.closed.lock().unwrap_or_else(PoisonError::into_inner) = closed;
        self.opened.notify_all();
    }

    fn pass(&self) {
        let mut closed = self.closed.lock().unwrap_or_else(PoisonError::into_inner);
        if *closed {
            let parked = self.parked.lock().unwrap_or_else(PoisonError::into_inner);
            parked.send(()).expect("the test outlives the server");
        }
        while *closed {
            closed = self
                .opened
                .wait(closed)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// [`MemFactory`] whose `gated-*` tenants pass the gate before every
/// `create` and every `sync` — the storage calls behind opening a plant
/// and behind a hard commit.
struct GatedFactory {
    inner: MemFactory,
    gate: Arc<Gate>,
}

struct Gated {
    inner: MemStorage,
    gate: Option<Arc<Gate>>,
}

struct GatedFile {
    inner: Box<dyn StorageFile>,
    gate: Option<Arc<Gate>>,
}

impl StorageFile for GatedFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(bytes)
    }
    fn sync(&mut self) -> io::Result<()> {
        if let Some(gate) = &self.gate {
            gate.pass();
        }
        self.inner.sync()
    }
}

impl Gated {
    fn file(&self, inner: Box<dyn StorageFile>) -> Box<dyn StorageFile> {
        Box::new(GatedFile {
            inner,
            gate: self.gate.clone(),
        })
    }
}

impl Storage for Gated {
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }
    fn create(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        if let Some(gate) = &self.gate {
            gate.pass();
        }
        self.inner.create(name).map(|f| self.file(f))
    }
    fn open_append(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        self.inner.open_append(name).map(|f| self.file(f))
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

impl StorageFactory for GatedFactory {
    type Storage = Gated;

    fn open_shard(&self, tenant: &str, shard: usize) -> io::Result<Gated> {
        Ok(Gated {
            inner: self.inner.open_shard(tenant, shard)?,
            gate: tenant.starts_with("gated").then(|| Arc::clone(&self.gate)),
        })
    }
    fn list_tenants(&self) -> io::Result<Vec<String>> {
        self.inner.list_tenants()
    }
    fn shard_count(&self, tenant: &str) -> io::Result<usize> {
        self.inner.shard_count(tenant)
    }
}

const MACHINE: &str = "m0";
const BED: &str = "m0.bed.0";
const ROOM: &str = "m0.room";
const BED_LANE: u32 = 1;
const ROOM_LANE: u32 = 2;

fn lane(sensor: &str, kind: LaneKind) -> LaneId {
    LaneId {
        machine: MACHINE.into(),
        sensor: sensor.into(),
        kind,
    }
}

fn job_start() -> [ControlEvent; 3] {
    [
        ControlEvent::machine_up(
            MACHINE,
            vec![Sensor::new(BED, SensorKind::BedTemperature)],
            vec![RedundancyGroup::new(
                SensorKind::BedTemperature,
                vec![BED.into()],
            )],
            &[ROOM.to_string()],
        ),
        ControlEvent::job_start(
            MACHINE,
            "j0",
            0,
            JobConfig::new(vec!["p".into()], vec![1.0]),
        ),
        ControlEvent::phase_start(MACHINE, PhaseKind::WarmUp, &[BED.to_string()]),
    ]
}

fn job_complete() -> ControlEvent {
    ControlEvent::job_complete(MACHINE, CaqResult::new(vec!["q".into()], vec![0.9], true))
}

fn bed_value(t: u64) -> f64 {
    if t == 20 {
        60.0
    } else {
        (t as f64 * 0.4).sin()
    }
}

/// The script every plant here runs, in two legs, each ending on samples
/// no control has hard-committed — so the `tick` after the first and the
/// `finish` after the second have something to sync, and park.
trait Sink {
    fn control(&mut self, event: &ControlEvent);
    fn bed(&mut self, t: u64);
    fn room(&mut self, t: u64);
}

fn leg_one(sink: &mut impl Sink) {
    for event in job_start() {
        sink.control(&event);
    }
    for t in 0..32 {
        sink.bed(t);
    }
}

fn leg_two(sink: &mut impl Sink) {
    sink.control(&job_complete());
    for t in 0..8 {
        sink.room(t);
    }
}

impl Sink for Client {
    fn control(&mut self, event: &ControlEvent) {
        Client::control(self, event).unwrap();
    }
    fn bed(&mut self, t: u64) {
        self.sample(BED_LANE, t, bed_value(t)).unwrap();
    }
    fn room(&mut self, t: u64) {
        self.sample(ROOM_LANE, t, 20.0).unwrap();
    }
}

struct Embedded<'a>(&'a RegistryService<MemFactory>, &'a str);

impl Embedded<'_> {
    fn sample(&self, lane: LaneId, timestamp: u64, value: f64) {
        self.0
            .ingest(self.1, &lane, Sample { timestamp, value })
            .unwrap();
    }
}

impl Sink for Embedded<'_> {
    fn control(&mut self, event: &ControlEvent) {
        self.0.control(self.1, event).unwrap();
    }
    fn bed(&mut self, t: u64) {
        self.sample(lane(BED, LaneKind::Phase), t, bed_value(t));
    }
    fn room(&mut self, t: u64) {
        self.sample(lane(ROOM, LaneKind::Environment), t, 20.0);
    }
}

/// The same script through an embedded service: the bytes a served
/// `finish` must equal.
fn embedded_finish() -> Vec<u8> {
    let svc = RegistryService::open(
        MemFactory::new(),
        AlgorithmPolicy::default(),
        TenantConfig::default(),
    )
    .unwrap();
    svc.admit("p", true).unwrap();
    let mut sink = Embedded(&svc, "p");
    leg_one(&mut sink);
    svc.tick("p").unwrap();
    leg_two(&mut sink);
    encode_report(&svc.finish("p").unwrap())
}

fn connect(addr: SocketAddr, plant: &str) -> Client {
    let mut client = Client::connect(addr).unwrap();
    assert!(client.admit(plant, true).unwrap(), "{plant} is new");
    client
        .lane_def(BED_LANE, &lane(BED, LaneKind::Phase))
        .unwrap();
    client
        .lane_def(ROOM_LANE, &lane(ROOM, LaneKind::Environment))
        .unwrap();
    client
}

/// A neighbour's whole session on a plant of its own, plus a third
/// connection's health query. Returns the neighbour's finish bytes.
fn neighbour_session(addr: SocketAddr, plant: &str) -> Vec<u8> {
    let mut client = connect(addr, plant);
    leg_one(&mut client);
    let (stats, _) = client.query_lane_stats().unwrap();
    assert_eq!(stats.samples_ingested, 32, "the burst landed");
    let (version, _) = client.tick().unwrap();
    assert_eq!(version, 1);
    client.query_deltas(0).unwrap();
    leg_two(&mut client);
    let health = Client::connect(addr).unwrap().query_health().unwrap();
    assert!(health.live.iter().any(|p| p.id == plant), "{health:?}");
    let (_, bytes) = client.finish().unwrap();
    bytes
}

/// Runs `call` on its own thread with the gate closed, waits until it is
/// parked inside the server, runs a neighbour session beside it, and only
/// then opens the gate. Returns what `call` returned.
fn while_parked<T: Send + 'static>(
    what: &str,
    gate: &Arc<Gate>,
    parked: &Receiver<()>,
    addr: SocketAddr,
    neighbour: &'static str,
    call: impl FnOnce() -> T + Send + 'static,
) -> T {
    gate.set(true);
    let parked_call = thread::spawn(call);
    parked
        .recv_timeout(PATIENCE)
        .unwrap_or_else(|_| panic!("{what}: the gated call never reached storage"));

    let (done, session) = mpsc::channel();
    thread::spawn(move || done.send(neighbour_session(addr, neighbour)));
    let bytes = session.recv_timeout(PATIENCE);
    // Open before judging, so a failing run unwinds instead of hanging.
    gate.set(false);
    let bytes =
        bytes.unwrap_or_else(|_| panic!("{what}: the neighbour waited for the gated plant"));
    assert_eq!(bytes, embedded_finish(), "{what}: neighbour's report");
    parked_call.join().expect("the gated call completes")
}

#[test]
fn a_plant_parked_in_storage_stalls_nobody_else() {
    let (tx, parked) = mpsc::channel();
    let gate = Arc::new(Gate {
        closed: Mutex::new(false),
        opened: Condvar::new(),
        parked: Mutex::new(tx),
    });
    let factory = GatedFactory {
        inner: MemFactory::new(),
        gate: Arc::clone(&gate),
    };
    let svc = RegistryService::open(factory, AlgorithmPolicy::default(), TenantConfig::default())
        .unwrap();
    let server = Server::bind(svc, ServerConfig::default()).unwrap();
    let handle = server.handle();
    let addr = handle.local_addr();
    let serving = thread::spawn(move || server.serve().unwrap());

    // (a) Parked in `tick`: the hard commit's sync, under A's own lock.
    // (The barrier first: the leg's controls sync too, and must be done
    // with that before the gate closes.)
    let mut a = connect(addr, "gated-a");
    leg_one(&mut a);
    a.query_lane_stats().unwrap();
    let (mut a, ticked) = while_parked("tick", &gate, &parked, addr, "free-1", move || {
        let ticked = a.tick().unwrap();
        (a, ticked)
    });
    assert_eq!(ticked.0, 1);

    // (c) Parked in `admit(create)`: the new plant's storage open.
    let created = while_parked("admit", &gate, &parked, addr, "free-2", move || {
        let mut c = Client::connect(addr).unwrap();
        c.admit("gated-c", true).unwrap()
    });
    assert!(created);

    // (b) Parked in `finish`: detached, finalising with no lock held.
    leg_two(&mut a);
    a.query_lane_stats().unwrap();
    let (_, bytes) = while_parked("finish", &gate, &parked, addr, "free-3", move || {
        a.finish().unwrap()
    });
    assert_eq!(bytes, embedded_finish(), "the gated plant's own report");

    handle.shutdown();
    serving.join().unwrap();
}
