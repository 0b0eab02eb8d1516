//! Model-checked interleavings of the per-plant locks, walked through
//! the real [`RegistryService`] → `PlantRegistry` code.
//!
//! Run with `cargo test -p hierod-service --features loom --test
//! loom_registry`. Each body executes under `loom::model`, which replays
//! it across permuted schedules: every acquisition of the registry map's
//! lock and of a plant's own lock is a decision point (preemption-bounded
//! DFS — see shims/loom). An ABBA between the two, or a waiter nobody
//! wakes, surfaces as a model deadlock; a sample applied to a detached
//! tenant, or two tenants alive on one journal, as a failed assertion.

#![cfg(feature = "loom")]

use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex, PoisonError};

use hierod_core::AlgorithmPolicy;
use hierod_detect::DetectError;
use hierod_service::{Admission, PlantService, RegistryService};
use hierod_store::storage::{Storage, StorageFile};
use hierod_store::tenants::{MemFactory, StorageFactory};
use hierod_store::MemStorage;
use hierod_stream::tenant::TenantConfig;
use hierod_stream::{ControlEvent, LaneId, LaneKind, LaneTable, RunError, Sample};

/// Live storages per tenant. Plain `std` state: bookkeeping of the
/// test, not a decision point of the model.
type Live = Arc<Mutex<BTreeMap<String, usize>>>;

/// A [`MemFactory`] that refuses to hand out a tenant's storage while an
/// earlier handle to it is still alive: a tenant owns its storage until
/// it is dropped, so two live handles are two writers on one journal.
#[derive(Default)]
struct OneWriter {
    inner: MemFactory,
    live: Live,
}

struct Writer {
    inner: MemStorage,
    tenant: String,
    live: Live,
}

impl Drop for Writer {
    fn drop(&mut self) {
        let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(n) = live.get_mut(&self.tenant) {
            *n -= 1;
        }
    }
}

impl Storage for Writer {
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }
    fn create(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        self.inner.create(name)
    }
    fn open_append(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        self.inner.open_append(name)
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

impl StorageFactory for OneWriter {
    type Storage = Writer;

    fn open_shard(&self, tenant: &str, shard: usize) -> io::Result<Writer> {
        let inner = self.inner.open_shard(tenant, shard)?;
        let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        let n = live.entry(tenant.to_string()).or_insert(0);
        *n += 1;
        assert_eq!(*n, 1, "a second tenant opened on {tenant:?}'s live journal");
        Ok(Writer {
            inner,
            tenant: tenant.to_string(),
            live: Arc::clone(&self.live),
        })
    }
    fn list_tenants(&self) -> io::Result<Vec<String>> {
        self.inner.list_tenants()
    }
    fn shard_count(&self, tenant: &str) -> io::Result<usize> {
        self.inner.shard_count(tenant)
    }
}

const ROOM: &str = "m0.room";

fn room_lane() -> LaneId {
    LaneId {
        machine: "m0".into(),
        sensor: ROOM.into(),
        kind: LaneKind::Environment,
    }
}

/// A service with `plants` admitted, each with one machine whose
/// environment lane accepts samples outside any job.
fn service(plants: &[&str]) -> RegistryService<OneWriter> {
    let svc = RegistryService::open(
        OneWriter::default(),
        AlgorithmPolicy::default(),
        TenantConfig::default(),
    )
    .expect("open");
    let up = ControlEvent::machine_up("m0", vec![], vec![], &[ROOM.to_string()]);
    for plant in plants {
        assert_eq!(svc.admit(plant, true).expect("admit"), Admission::Created);
        svc.control(plant, &up).expect("machine up");
    }
    svc
}

/// Ingests `n` samples, returning how many calls returned `Ok`; every
/// other call must have returned `Missing`.
fn ingest(svc: &RegistryService<OneWriter>, plant: &str, n: u64) -> u64 {
    let lane = room_lane();
    let mut landed = 0;
    for timestamp in 0..n {
        let sample = Sample {
            timestamp,
            value: 20.0,
        };
        match svc.ingest(plant, &lane, sample) {
            Ok(()) => landed += 1,
            Err(DetectError::Missing { .. }) => {}
            Err(other) => panic!("ingest must land or be Missing, got {other}"),
        }
    }
    landed
}

/// One plant under ingest × `finish` × `admit(create)`: no deadlock, an
/// ingest either lands before the detach (and is in the final report) or
/// returns `Missing`, and the id is never live twice — a re-create waits
/// out the finish and then recovers exactly what was journalled.
#[test]
fn ingest_finish_and_admit_on_one_plant_conserve_samples_under_all_interleavings() {
    loom::model(|| {
        let svc = service(&["p"]);
        loom::thread::scope(|s| {
            let ingester = s.spawn(|| ingest(&svc, "p", 2));
            let finisher = s.spawn(|| svc.finish("p").expect("the one finish of a live plant"));
            let admitted = svc.admit("p", true);
            let landed = ingester.join().expect("ingester");
            let report = finisher.join().expect("finisher");
            match admitted {
                // Seen live before the detach: the finish took it since.
                Ok(Admission::Existing) => {
                    assert!(svc.plants().is_empty());
                    assert_eq!(report.stats.samples_ingested, landed);
                }
                // Re-created after the finish: the journal replays what
                // the finished report counted, later ingests land on top.
                Ok(Admission::Created) => {
                    assert_eq!(svc.plants(), ["p"]);
                    assert!(report.stats.samples_ingested <= landed);
                    let (stats, _) = svc.lane_snapshot("p").expect("live");
                    assert_eq!(stats.samples_ingested, landed);
                }
                // Asked while the finish was running.
                Err(e) => {
                    assert!(e.to_string().contains("is finishing"), "{e}");
                    assert!(svc.plants().is_empty());
                    assert_eq!(report.stats.samples_ingested, landed);
                }
            }
        });
    });
}

/// A lane table's run ingest × `finish` × `admit(create)` on one plant,
/// with stale handles in hand throughout: the table resolved its lanes
/// against plant `q`, which numbers them `[other, room]`, before it ever
/// talks to `p`, which numbers them `[room, other]` — and `p` is finished
/// and re-created under it. A run lands whole on the incarnation it
/// finds, its lanes resolved again whenever that is not the one its
/// handles came from, or is turned away `Missing` whole; no sample is
/// ever counted on the other lane's slot.
#[test]
fn run_ingest_with_stale_handles_lands_on_its_own_lanes_under_all_interleavings() {
    loom::model(|| {
        let svc = service(&[]);
        let other = LaneId {
            sensor: "m0.other".into(),
            ..room_lane()
        };
        let sensors = [ROOM.to_string(), other.sensor.clone()];
        let up = ControlEvent::machine_up("m0", vec![], vec![], &sensors);
        let sample = |timestamp| {
            let value = 20.0;
            Sample { timestamp, value }
        };
        for (plant, first, second) in [("q", &other, &room_lane()), ("p", &room_lane(), &other)] {
            svc.admit(plant, true).expect("admit");
            svc.control(plant, &up).expect("machine up");
            svc.ingest(plant, first, sample(0)).expect("numbered 0");
            svc.ingest(plant, second, sample(0)).expect("numbered 1");
        }
        let mut lanes = LaneTable::default();
        assert!(lanes.bind(7, room_lane()));
        assert_eq!(svc.ingest_run("q", &mut lanes, &[(7, sample(1))]), None);
        loom::thread::scope(|s| {
            let ingester = s.spawn(|| {
                let mut landed = 0;
                for from in [1, 3] {
                    let run = [(7, sample(from)), (7, sample(from + 1))];
                    match svc.ingest_run("p", &mut lanes, &run) {
                        None => landed += 2,
                        Some(RunError::Rejected(DetectError::Missing { .. })) => {}
                        Some(other) => panic!("a run lands or is Missing, got {other:?}"),
                    }
                }
                landed
            });
            let finisher = s.spawn(|| svc.finish("p").expect("the one finish of a live plant"));
            let admitted = svc.admit("p", true);
            let landed = ingester.join().expect("ingester");
            let report = finisher.join().expect("finisher");
            let by_lane = match admitted {
                // Re-created: the journal replays what the finished report
                // counted, later runs landed on top.
                Ok(Admission::Created) => svc.lane_snapshot("p").expect("live").1,
                _ => report.lane_stats,
            };
            assert_eq!(by_lane[&room_lane()].released, 1 + landed);
            assert_eq!(by_lane[&other].released, 1);
        });
    });
}

/// Two plants and a third being created: `finish` of one, ingest into
/// another and `admit(create)` of a new id share only the map lock, and
/// none of them can lose or block another.
#[test]
fn finish_ingest_and_create_on_different_plants_never_interfere_under_all_interleavings() {
    loom::model(|| {
        let svc = service(&["p", "q"]);
        loom::thread::scope(|s| {
            let ingester = s.spawn(|| ingest(&svc, "q", 2));
            let finisher = s.spawn(|| svc.finish("p").expect("finish p"));
            assert_eq!(svc.admit("r", true).expect("admit r"), Admission::Created);
            assert_eq!(ingester.join().expect("ingester"), 2);
            assert_eq!(finisher.join().expect("finisher").stats.samples_ingested, 0);
        });
        assert_eq!(svc.plants(), ["q", "r"]);
        let (stats, _) = svc.lane_snapshot("q").expect("q");
        assert_eq!(stats.samples_ingested, 2);
    });
}

/// Two callers creating one new id: storage opens once (the factory
/// asserts it), one sees `Created`, the other waits on the new plant's
/// own lock and sees `Existing`.
#[test]
fn concurrent_creates_of_one_id_open_it_once_under_all_interleavings() {
    loom::model(|| {
        let svc = service(&[]);
        loom::thread::scope(|s| {
            let other = s.spawn(|| svc.admit("p", true).expect("admit"));
            let mine = svc.admit("p", true).expect("admit");
            let theirs = other.join().expect("other");
            assert_ne!(mine, theirs, "exactly one creates");
        });
        assert_eq!(svc.plants(), ["p"]);
    });
}
