//! Multi-plant tenancy: many independent plants in one process.
//!
//! The paper's setting is a *production site* — but real deployments
//! monitor several sites from one collector. [`PlantRegistry`] lifts
//! "plant" to a first-class [`Tenant`]: each tenant owns one
//! [`DurableStream`] — one journal, one detector, the whole plant —
//! rooted at its own storage directory (`<root>/<plant-id>/shard-0/`,
//! a fixed name, via [`hierod_store::StorageFactory`]).
//!
//! ## Isolation contract
//!
//! Tenants never share WAL, segments, detectors, error state — or a
//! lock:
//!
//! * [`PlantRegistry::open`] recovers every discovered tenant
//!   **independently**. A tenant whose storage is too damaged to open
//!   is parked in the failed set ([`Health::failed`]) with its error —
//!   its siblings recover exactly as if it did not exist.
//! * Soft corruption (torn WAL tails, flipped bits) surfaces per
//!   tenant in that tenant's [`DurableRecovery`] counters, never in
//!   another's.
//! * Every tenant sits in its own mutex. The one registry-wide lock
//!   guards the id → slot *map* and is held for a lookup, an insert or
//!   a remove — never across storage I/O, detection, report assembly,
//!   or a wait for a tenant's lock that another thread can hold. One
//!   plant's `tick`, `finish` or storage stall therefore delays nobody
//!   but callers of that same plant.
//!
//! ## Two ways in
//!
//! * **Exclusive** (`&mut self`: [`create_tenant`](PlantRegistry::create_tenant),
//!   [`tenant_mut`](PlantRegistry::tenant_mut)): the engine surface of
//!   the equivalence pins and the benchmark ladder. Exclusive access to
//!   the registry is exclusive access to every slot, so these go through
//!   `get_mut` and take no lock.
//! * **Shared** (`&self`: [`admit_tenant`](PlantRegistry::admit_tenant),
//!   [`with_tenant`](PlantRegistry::with_tenant),
//!   [`finish_tenant`](PlantRegistry::finish_tenant)): what
//!   `hierod-service` serves many workers from. A caller clones the
//!   plant's slot out of the map, lets the map go, and only then takes
//!   the slot.
//!
//! Lock order: **map → slot**, and the only place both are held is
//! `admit_tenant` locking the slot it has just inserted (nobody else can
//! hold that one). Nothing takes the map while holding a slot.
//!
//! ## Layering
//!
//! [`Tenant`] and [`PlantRegistry`] are the **engine**: durable
//! control/ingest/tick/finish per plant, and isolated recovery.
//! `hierod-service`'s `PlantService` trait, one layer up, addresses the
//! same operations by plant id — the shared entry point of the
//! embedded-library path and the network path.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::{Arc, PoisonError};

#[cfg(feature = "loom")]
use loom::sync::{Mutex, MutexGuard};
#[cfg(not(feature = "loom"))]
use std::sync::{Mutex, MutexGuard};

use hierod_core::AlgorithmPolicy;
use hierod_detect::{DetectError, Result};
use hierod_store::store::StoreOptions;
use hierod_store::tenants::{valid_tenant_id, StorageFactory};

use crate::detector::{
    ControlEvent, LaneStats, StreamConfig, StreamDetector, StreamReport, StreamStats,
};
use crate::durable::{DurableRecovery, DurableStream, RecoverySummary};
use crate::lane::{LaneId, LaneTable, RunError, Sample};

/// Maps a storage failure into the detection error domain.
fn substrate(e: io::Error) -> DetectError {
    DetectError::Substrate(format!("tenants: {e}"))
}

/// Poison-tolerant lock: a panic under one plant's lock must not take
/// the plant's later callers (or, for the map, every plant) down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The lock-free counterpart of [`lock`] for an exclusively borrowed
/// mutex.
fn exclusive<T>(m: &mut Mutex<T>) -> &mut T {
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// Per-tenant configuration applied to every plant a registry hosts.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantConfig {
    /// Streaming configuration of every plant's detector.
    pub stream: StreamConfig,
    /// Store tuning of every plant's journal.
    pub store: StoreOptions,
}

/// One plant: a [`DurableStream`] under a tenant-scoped storage root.
/// Every operation forwards to it.
pub struct Tenant<S: hierod_store::Storage> {
    /// Which opening of a plant, among all its registry ever made, this
    /// is: what a [`LaneTable`]'s handles are checked against.
    incarnation: u64,
    stream: DurableStream<S>,
}

impl<S: hierod_store::Storage> Tenant<S> {
    /// Read-only access to the plant's durable stream (the history tier
    /// reaches its sealed storage through this).
    pub fn stream(&self) -> &DurableStream<S> {
        &self.stream
    }

    /// Journals and applies a control event (see
    /// [`DurableStream::control`]).
    ///
    /// # Errors
    /// As [`DurableStream::control`].
    pub fn control(&mut self, event: &ControlEvent) -> Result<()> {
        self.stream.control(event)
    }

    /// Journals and ingests a sample (see [`DurableStream::ingest`]).
    ///
    /// # Errors
    /// As [`DurableStream::ingest`].
    pub fn ingest(&mut self, lane: &LaneId, sample: Sample) -> Result<()> {
        self.stream.ingest(lane, sample)
    }

    /// Journals and ingests a run of samples addressed by the wire lanes
    /// of `lanes` — what a server applies per socket read, under one
    /// acquisition of this plant. Every record is attempted, as if each
    /// had come through [`ingest`](Tenant::ingest) with the id its lane is
    /// bound to; the first failure in stream order is returned.
    ///
    /// The handles `lanes` has resolved are used only if this incarnation
    /// of the plant issued them: a table that last talked to another one
    /// (the plant was finished and re-created in between) resolves its
    /// lanes again, by id, so a sample never lands on another lane's
    /// slot.
    pub fn ingest_run(&mut self, lanes: &mut LaneTable, run: &[(u32, Sample)]) -> Option<RunError> {
        lanes.claim(self.incarnation);
        self.stream.ingest_run(lanes, run)
    }

    /// Rotates the WAL into a sealed segment (see
    /// [`DurableStream::rotate`]).
    ///
    /// # Errors
    /// As [`DurableStream::rotate`].
    pub fn rotate(&mut self) -> Result<()> {
        self.stream.rotate()
    }

    /// Current ingestion counters — the same totals a
    /// [`tick`](Tenant::tick) report carries, without assembling one.
    pub fn stats(&self) -> StreamStats {
        self.stream.stats()
    }

    /// Per-lane release/drop/corruption counters — the same map a
    /// [`tick`](Tenant::tick) report carries, without assembling one.
    pub fn lane_stats(&self) -> BTreeMap<LaneId, LaneStats> {
        self.stream.lane_stats()
    }

    /// Hard-commits the WAL, then assembles an interim report (see
    /// [`DurableStream::tick`]).
    ///
    /// # Errors
    /// As [`DurableStream::tick`].
    pub fn tick(&mut self) -> Result<StreamReport> {
        self.stream.tick()
    }

    /// Finalizes the plant and assembles its final report (see
    /// [`DurableStream::finish`]).
    ///
    /// # Errors
    /// As [`DurableStream::finish`].
    pub(crate) fn finish(self) -> Result<StreamReport> {
        self.stream.finish()
    }
}

/// One plant's seat: `None` while its storage is being opened (the
/// opener holds the lock) and for good once `finish` has taken the
/// tenant out. Shared so a caller can let go of the map before locking.
type Slot<S> = Arc<Mutex<Option<Tenant<S>>>>;

/// The tenant in an exclusively borrowed slot, without locking. Slot
/// handles are locals of [`PlantRegistry`]'s `&self` methods, so none
/// outlives a shared borrow of the registry: `Arc::get_mut` cannot fail
/// while the registry is exclusively borrowed.
fn seated<S: hierod_store::Storage>(slot: &mut Slot<S>) -> Option<&mut Tenant<S>> {
    exclusive(Arc::get_mut(slot)?).as_mut()
}

/// One live (or just-being-opened) plant in the registry's map.
struct Entry<S: hierod_store::Storage> {
    slot: Slot<S>,
    /// What the open that seated this incarnation recovered: zeros for a
    /// plant with no prior storage, and while its open is still running.
    recovery: RecoverySummary,
}

/// What the registry-wide lock guards.
struct Plants<S: hierod_store::Storage> {
    /// Incarnations handed out so far (the first is 1: a fresh
    /// [`LaneTable`] belongs to none).
    incarnations: u64,
    /// Live (or just-being-opened) plants.
    live: BTreeMap<String, Entry<S>>,
    /// Ids detached by a `finish` still running: their storage has a
    /// writer, so they must not be re-created yet.
    closing: BTreeSet<String>,
}

/// One live plant in a [`Health`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlantHealth {
    /// Plant id.
    pub id: String,
    /// What recovery rebuilt when this incarnation of the plant was
    /// opened — at registry open, or on an admission that re-created it
    /// from its storage (all zeros for a plant with no prior storage, and
    /// while its open is still running).
    pub recovery: RecoverySummary,
}

/// A point-in-time health snapshot of every plant a registry hosts: the
/// readiness answer is `failed` mapped straight onto "not ready" — a
/// plant whose storage could not be recovered parks the deployment in a
/// degraded state until an operator repairs or removes it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Health {
    /// Live plants with their recovery summaries, sorted by id.
    pub live: Vec<PlantHealth>,
    /// Plants that failed hard to recover, with their errors, sorted.
    pub failed: Vec<(String, String)>,
}

impl Health {
    /// Ready means every discovered plant recovered: nothing is parked
    /// in the failed set.
    pub fn ready(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Hosts N independent plants in one process, each with its own
/// durable directory and its own lock. See the module docs for the
/// isolation contract and the lock order.
pub struct PlantRegistry<F: StorageFactory> {
    factory: F,
    policy: AlgorithmPolicy,
    config: TenantConfig,
    plants: Mutex<Plants<F::Storage>>,
    failed: BTreeMap<String, String>,
}

/// Opens (or recovers) one plant on its storage root — always
/// `shard-0`, the layout's fixed directory name.
fn open_tenant<F: StorageFactory>(
    factory: &F,
    policy: &AlgorithmPolicy,
    config: &TenantConfig,
    id: &str,
    incarnation: u64,
) -> Result<(Tenant<F::Storage>, DurableRecovery)> {
    let storage = factory.open_shard(id, 0).map_err(substrate)?;
    let (stream, recovery) =
        DurableStream::open(policy.clone(), config.stream, storage, config.store)?;
    let tenant = Tenant {
        incarnation,
        stream,
    };
    Ok((tenant, recovery))
}

fn invalid_id(id: &str) -> DetectError {
    DetectError::invalid("tenant", format!("invalid tenant id {id:?}"))
}

fn no_live_tenant(id: &str) -> DetectError {
    DetectError::invalid("tenant", format!("no live tenant {id:?}"))
}

impl<F: StorageFactory> PlantRegistry<F> {
    /// Opens a registry over `factory`, recovering every tenant that
    /// already has storage — **each in isolation**. Tenants that fail
    /// hard to open (e.g. damaged segments) are recorded in the failed set
    /// ([`health`](Self::health)) and skipped; their siblings recover
    /// normally. So is a tenant directory holding more than one shard
    /// root (laid out by an older build that hash-partitioned lanes over
    /// several journals): opening `shard-0` alone would silently drop
    /// every lane the other journals own, so its storage is left
    /// untouched. Returns the per-tenant recovery summaries.
    ///
    /// # Errors
    /// Only on failure to enumerate tenants at all (the factory root
    /// itself is unreadable) or on policy rejection — checked once, before
    /// any tenant's storage is touched, so a registry never serves a
    /// policy that cannot produce a report.
    pub fn open(
        factory: F,
        policy: AlgorithmPolicy,
        config: TenantConfig,
    ) -> Result<(Self, BTreeMap<String, DurableRecovery>)> {
        StreamDetector::new(policy.clone(), config.stream)?;
        let ids = factory.list_tenants().map_err(substrate)?;
        let mut live = BTreeMap::new();
        let mut failed = BTreeMap::new();
        let mut recoveries = BTreeMap::new();
        let mut incarnations = 0;
        for id in ids {
            incarnations += 1;
            let opened = match factory.shard_count(&id) {
                Ok(n) if n > 1 => Err(DetectError::Substrate(format!(
                    "tenants: plant {id:?} has {n} shard directories; this build reads exactly one"
                ))),
                Ok(_) => open_tenant(&factory, &policy, &config, &id, incarnations),
                Err(e) => Err(substrate(e)),
            };
            match opened {
                Ok((tenant, recovery)) => {
                    let entry = Entry {
                        slot: Arc::new(Mutex::new(Some(tenant))),
                        recovery: RecoverySummary::from_recovery(&recovery),
                    };
                    live.insert(id.clone(), entry);
                    recoveries.insert(id, recovery);
                }
                Err(e) => {
                    failed.insert(id, e.to_string());
                }
            }
        }
        let registry = PlantRegistry {
            factory,
            policy,
            config,
            plants: Mutex::new(Plants {
                incarnations,
                live,
                closing: BTreeSet::new(),
            }),
            failed,
        };
        Ok((registry, recoveries))
    }

    /// Creates (and registers) a fresh tenant. Exclusive access: no lock
    /// is taken.
    ///
    /// # Errors
    /// Invalid tenant id, an id already live or failed, or storage /
    /// policy errors opening its stream.
    pub fn create_tenant(&mut self, id: &str) -> Result<&mut Tenant<F::Storage>> {
        if !valid_tenant_id(id) {
            return Err(invalid_id(id));
        }
        let plants = exclusive(&mut self.plants);
        if plants.live.contains_key(id) || self.failed.contains_key(id) {
            return Err(DetectError::invalid(
                "tenant",
                format!("tenant {id:?} already exists"),
            ));
        }
        plants.incarnations += 1;
        let incarnation = plants.incarnations;
        let (tenant, recovery) =
            open_tenant(&self.factory, &self.policy, &self.config, id, incarnation)?;
        let entry = plants.live.entry(id.to_string()).or_insert(Entry {
            slot: Arc::new(Mutex::new(Some(tenant))),
            recovery: RecoverySummary::from_recovery(&recovery),
        });
        seated(&mut entry.slot).ok_or_else(|| no_live_tenant(id))
    }

    /// Mutable access to a live tenant (ingest, controls, tick).
    /// Exclusive access: no lock is taken.
    pub fn tenant_mut(&mut self, id: &str) -> Option<&mut Tenant<F::Storage>> {
        seated(&mut exclusive(&mut self.plants).live.get_mut(id)?.slot)
    }

    /// Runs `f` on one live tenant under that tenant's own lock — the
    /// shared-reference counterpart of [`tenant_mut`](Self::tenant_mut).
    /// The registry-wide lock is released before the tenant's is taken,
    /// so whatever `f` does (a hard commit, a report assembly) delays
    /// callers of this plant only. `None` when `id` is not live — never
    /// was, or a `finish` has already detached it.
    pub fn with_tenant<R>(
        &self,
        id: &str,
        f: impl FnOnce(&mut Tenant<F::Storage>) -> R,
    ) -> Option<R> {
        let slot = lock(&self.plants)
            .live
            .get(id)
            .map(|e| Arc::clone(&e.slot))?;
        let mut seat = lock(&slot);
        seat.as_mut().map(f)
    }

    /// Ensures `id` is live from a shared reference: `Ok(false)` when it
    /// already is, `Ok(true)` when this call created it. Concurrent
    /// callers for one new id open its storage once — the rest wait on
    /// the new plant's own lock, not on the registry's, and see it live.
    ///
    /// # Errors
    /// [`DetectError::Missing`] for an unknown id without `create`;
    /// [`DetectError::Substrate`] for a plant parked in the failed set
    /// ([`health`](Self::health)); an invalid id; an id whose `finish` is
    /// still running; storage / policy errors opening its stream.
    pub fn admit_tenant(&self, id: &str, create: bool) -> Result<bool> {
        loop {
            let mut plants = lock(&self.plants);
            let Some(existing) = plants.live.get(id).map(|e| Arc::clone(&e.slot)) else {
                if let Some(err) = self.failed.get(id) {
                    return Err(DetectError::Substrate(format!(
                        "plant {id:?} failed recovery: {err}"
                    )));
                }
                if !create {
                    return Err(DetectError::Missing {
                        what: format!("plant {id:?}"),
                    });
                }
                if !valid_tenant_id(id) {
                    return Err(invalid_id(id));
                }
                if plants.closing.contains(id) {
                    return Err(DetectError::invalid(
                        "tenant",
                        format!("tenant {id:?} is finishing"),
                    ));
                }
                // Reserve the id with an empty slot and take the slot's
                // lock before the map's is released: later callers find
                // the slot, queue on *it*, and the storage open below
                // runs with the map free.
                let slot: Slot<F::Storage> = Arc::new(Mutex::new(None));
                let entry = Entry {
                    slot: Arc::clone(&slot),
                    recovery: RecoverySummary::default(),
                };
                plants.live.insert(id.to_string(), entry);
                plants.incarnations += 1;
                let incarnation = plants.incarnations;
                let mut seat = lock(&slot);
                drop(plants);
                let opened =
                    open_tenant(&self.factory, &self.policy, &self.config, id, incarnation);
                return match opened {
                    Ok((tenant, recovery)) => {
                        *seat = Some(tenant);
                        drop(seat);
                        // The map only after the slot is let go (lock
                        // order), and only if a finish has not detached
                        // this incarnation meanwhile.
                        let mut plants = lock(&self.plants);
                        if let Some(entry) = plants.live.get_mut(id) {
                            if Arc::ptr_eq(&entry.slot, &slot) {
                                entry.recovery = RecoverySummary::from_recovery(&recovery);
                            }
                        }
                        Ok(true)
                    }
                    Err(e) => {
                        drop(seat);
                        self.forget(id, &slot);
                        Err(e)
                    }
                };
            };
            drop(plants);
            if lock(&existing).is_some() {
                return Ok(false);
            }
            // An empty slot nobody holds: its opener failed or a finish
            // emptied it. Clear it (if it is still mapped) and look again.
            self.forget(id, &existing);
        }
    }

    /// Unmaps `id` if it still maps to `slot`.
    fn forget(&self, id: &str, slot: &Slot<F::Storage>) {
        let mut plants = lock(&self.plants);
        if plants
            .live
            .get(id)
            .is_some_and(|e| Arc::ptr_eq(&e.slot, slot))
        {
            plants.live.remove(id);
        }
    }

    /// Ids of all live tenants, sorted (an id whose storage
    /// [`admit_tenant`](Self::admit_tenant) is still opening counts; one
    /// whose `finish` is running does not).
    pub fn tenant_ids(&self) -> Vec<String> {
        lock(&self.plants).live.keys().cloned().collect()
    }

    /// A health snapshot: every live plant (as [`tenant_ids`](Self::tenant_ids)
    /// lists them) with what the open that seated its current incarnation
    /// recovered — at registry open, on create or on a re-admission after
    /// a finish; zeros for a plant with no prior storage and for one whose
    /// open is still running — and the failed set. Takes
    /// the map lock only, so a plant parked in storage delays no caller.
    pub fn health(&self) -> Health {
        let live = lock(&self.plants)
            .live
            .iter()
            .map(|(id, e)| PlantHealth {
                id: id.clone(),
                recovery: e.recovery,
            })
            .collect();
        let failed = self
            .failed
            .iter()
            .map(|(id, err)| (id.clone(), err.clone()))
            .collect();
        Health { live, failed }
    }

    /// Detaches a tenant from the registry, then finalizes its report
    /// (see `Tenant::finish`) with **no lock held**: the map lock
    /// covers the remove, the tenant's own lock covers taking it out of
    /// its slot, and a concurrent caller that already holds the slot
    /// either ran before the take or finds the slot empty. Whatever
    /// `finish` returns, the tenant is gone from the registry. Its id
    /// stays reserved until `finish` is over — re-creating it earlier
    /// would open a second writer on the same storage.
    ///
    /// # Errors
    /// Unknown tenant id, or the tenant's finalize/assemble error.
    pub fn finish_tenant(&self, id: &str) -> Result<StreamReport> {
        let slot = {
            let mut plants = lock(&self.plants);
            let slot = plants
                .live
                .remove(id)
                .ok_or_else(|| no_live_tenant(id))?
                .slot;
            plants.closing.insert(id.to_string());
            slot
        };
        let tenant = lock(&slot).take();
        let finished = tenant.map_or_else(|| Err(no_live_tenant(id)), Tenant::finish);
        lock(&self.plants).closing.remove(id);
        finished
    }

    /// The storage factory (read-only; useful for fault injection in
    /// tests).
    pub fn factory(&self) -> &F {
        &self.factory
    }

    /// The algorithm policy every tenant in this registry runs with.
    /// Backfill re-detection clones it to replay stored ranges through a
    /// fresh detector.
    pub fn policy(&self) -> &AlgorithmPolicy {
        &self.policy
    }

    /// The per-tenant configuration applied to every plant.
    pub fn config(&self) -> &TenantConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::LaneKind;
    use hierod_hierarchy::{CaqResult, JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
    use hierod_store::tenants::MemFactory;

    fn drive(tenant: &mut Tenant<hierod_store::MemStorage>, bias: f64) {
        let (machine, bed, room) = ("m0", "m0.bed.0", "m0.room");
        let up = ControlEvent::machine_up(
            machine,
            vec![Sensor::new(bed, SensorKind::BedTemperature)],
            vec![RedundancyGroup::new(
                SensorKind::BedTemperature,
                vec![bed.into()],
            )],
            &[room.to_string()],
        );
        let config = JobConfig::new(vec!["p".into()], vec![1.0]);
        for event in [
            up,
            ControlEvent::job_start(machine, "j0", 0, config),
            ControlEvent::phase_start(machine, PhaseKind::WarmUp, &[bed.to_string()]),
        ] {
            tenant.control(&event).unwrap();
        }
        let bed_lane = LaneId {
            machine: machine.into(),
            sensor: bed.into(),
            kind: LaneKind::Phase,
        };
        let room_lane = LaneId {
            machine: machine.into(),
            sensor: room.into(),
            kind: LaneKind::Environment,
        };
        for t in 0..40_u64 {
            tenant
                .ingest(
                    &bed_lane,
                    Sample {
                        timestamp: t,
                        value: if t == 30 {
                            bias + 55.0
                        } else {
                            bias + (t as f64 * 0.3).cos()
                        },
                    },
                )
                .unwrap();
            tenant
                .ingest(
                    &room_lane,
                    Sample {
                        timestamp: t,
                        value: 20.0 + bias,
                    },
                )
                .unwrap();
        }
        let caq = CaqResult::new(vec!["q".into()], vec![0.9], true);
        tenant
            .control(&ControlEvent::job_complete(machine, caq))
            .unwrap();
    }

    #[test]
    fn registry_hosts_independent_tenants() {
        let (mut registry, recovered) = PlantRegistry::open(
            MemFactory::new(),
            AlgorithmPolicy::default(),
            TenantConfig::default(),
        )
        .unwrap();
        assert!(recovered.is_empty());
        drive(registry.create_tenant("plant-a").unwrap(), 0.0);
        drive(registry.create_tenant("plant-b").unwrap(), 5.0);
        assert_eq!(registry.tenant_ids(), ["plant-a", "plant-b"]);

        let a = registry.finish_tenant("plant-a").unwrap();
        let b = registry.finish_tenant("plant-b").unwrap();
        assert_eq!(a.stats.samples_ingested, 80);
        assert_eq!(b.stats.samples_ingested, 80);
        assert_eq!(a.lane_stats.len(), 2, "phase + environment lanes");
        assert_eq!(b.lane_stats.len(), 2);
        assert!(registry.tenant_ids().is_empty());
        assert!(registry.finish_tenant("plant-a").is_err());
    }

    #[test]
    fn reopen_recovers_each_tenant() {
        let factory = MemFactory::new();
        {
            let (mut registry, _) = PlantRegistry::open(
                factory.crash_image(true),
                AlgorithmPolicy::default(),
                TenantConfig::default(),
            )
            .unwrap();
            drop(registry.create_tenant("solo"));
        }
        let (mut registry, _) =
            PlantRegistry::open(factory, AlgorithmPolicy::default(), TenantConfig::default())
                .unwrap();
        drive(registry.create_tenant("plant-a").unwrap(), 0.0);
        let report = registry.tenant_mut("plant-a").unwrap().tick().unwrap();

        let image = registry.factory().crash_image(false);
        let (reopened, recovered) =
            PlantRegistry::open(image, AlgorithmPolicy::default(), TenantConfig::default())
                .unwrap();
        assert_eq!(reopened.tenant_ids(), ["plant-a"]);
        assert!(reopened.health().failed.is_empty());
        let rec = &recovered["plant-a"];
        assert_eq!(rec.restored_samples + rec.replayed_samples, 80);
        let recovered_report = {
            let mut reopened = reopened;
            reopened.tenant_mut("plant-a").unwrap().tick().unwrap()
        };
        assert_eq!(
            format!("{report:?}"),
            format!("{recovered_report:?}"),
            "post-recovery tick matches pre-crash tick"
        );
    }

    #[test]
    fn open_rejects_a_policy_no_report_could_come_from() {
        let bad = AlgorithmPolicy {
            job: "ar".parse().unwrap(),
            ..AlgorithmPolicy::default()
        };
        // Over an empty factory no tenant would resolve the spec either.
        let empty = PlantRegistry::open(MemFactory::new(), bad.clone(), TenantConfig::default());
        assert!(matches!(empty, Err(DetectError::InvalidParameter { .. })));
        // Over a populated one the plants are not written off as failed.
        let (mut registry, _) = PlantRegistry::open(
            MemFactory::new(),
            AlgorithmPolicy::default(),
            TenantConfig::default(),
        )
        .unwrap();
        drive(registry.create_tenant("plant-a").unwrap(), 0.0);
        let image = registry.factory().crash_image(false);
        let populated = PlantRegistry::open(image, bad, TenantConfig::default());
        assert!(matches!(
            populated,
            Err(DetectError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn invalid_and_duplicate_tenant_ids_are_rejected() {
        let (mut registry, _) = PlantRegistry::open(
            MemFactory::new(),
            AlgorithmPolicy::default(),
            TenantConfig::default(),
        )
        .unwrap();
        assert!(registry.create_tenant("../evil").is_err());
        assert!(registry.create_tenant(".hidden").is_err());
        registry.create_tenant("plant-a").unwrap();
        assert!(registry.create_tenant("plant-a").is_err());
    }
}
