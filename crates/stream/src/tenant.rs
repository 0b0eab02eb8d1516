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
//! Tenants never share WAL, segments, detectors, or error state:
//!
//! * [`PlantRegistry::open`] recovers every discovered tenant
//!   **independently**. A tenant whose storage is too damaged to open
//!   is parked in [`PlantRegistry::failed`] with its error — its
//!   siblings recover exactly as if it did not exist.
//! * Soft corruption (torn WAL tails, flipped bits) surfaces per
//!   tenant in that tenant's [`DurableRecovery`] counters, never in
//!   another's.
//! * All per-tenant operations route through [`PlantRegistry::tenant_mut`];
//!   there is no cross-tenant state to poison.
//!
//! ## Layering
//!
//! [`Tenant`] and [`PlantRegistry`] are the **engine**: durable
//! control/ingest/tick/finish per plant, and isolated recovery.
//! `hierod-service`'s `PlantService` trait, one layer up, addresses the
//! same operations by plant id — the shared entry point of the
//! embedded-library path and the network path.

use std::collections::BTreeMap;
use std::io;

use hierod_core::AlgorithmPolicy;
use hierod_detect::{DetectError, Result};
use hierod_store::store::StoreOptions;
use hierod_store::tenants::{valid_tenant_id, StorageFactory};

use crate::detector::{ControlEvent, LaneStats, StreamConfig, StreamReport, StreamStats};
use crate::durable::{DurableRecovery, DurableStream};
use crate::lane::{LaneId, Sample};

/// Maps a storage failure into the detection error domain.
fn substrate(e: io::Error) -> DetectError {
    DetectError::Substrate(format!("tenants: {e}"))
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
    id: String,
    stream: DurableStream<S>,
}

impl<S: hierod_store::Storage> Tenant<S> {
    /// The tenant id (a valid storage directory name).
    pub fn id(&self) -> &str {
        &self.id
    }

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
    pub fn finish(self) -> Result<StreamReport> {
        self.stream.finish()
    }
}

/// Hosts N independent plants in one process, each with its own
/// durable directory. See the module docs for the isolation contract.
pub struct PlantRegistry<F: StorageFactory> {
    factory: F,
    policy: AlgorithmPolicy,
    config: TenantConfig,
    tenants: BTreeMap<String, Tenant<F::Storage>>,
    failed: BTreeMap<String, String>,
}

/// Opens (or recovers) one plant on its storage root — always
/// `shard-0`, the layout's fixed directory name.
fn open_tenant<F: StorageFactory>(
    factory: &F,
    policy: &AlgorithmPolicy,
    config: &TenantConfig,
    id: &str,
) -> Result<(Tenant<F::Storage>, DurableRecovery)> {
    let storage = factory.open_shard(id, 0).map_err(substrate)?;
    let (stream, recovery) =
        DurableStream::open(policy.clone(), config.stream, storage, config.store)?;
    let tenant = Tenant {
        id: id.to_string(),
        stream,
    };
    Ok((tenant, recovery))
}

impl<F: StorageFactory> PlantRegistry<F> {
    /// Opens a registry over `factory`, recovering every tenant that
    /// already has storage — **each in isolation**. Tenants that fail
    /// hard to open (e.g. damaged segments) are recorded in
    /// [`PlantRegistry::failed`] and skipped; their siblings recover
    /// normally. So is a tenant directory holding more than one shard
    /// root (laid out by an older build that hash-partitioned lanes over
    /// several journals): opening `shard-0` alone would silently drop
    /// every lane the other journals own, so its storage is left
    /// untouched. Returns the per-tenant recovery summaries.
    ///
    /// # Errors
    /// Only on failure to enumerate tenants at all (the factory root
    /// itself is unreadable) or on policy rejection.
    pub fn open(
        factory: F,
        policy: AlgorithmPolicy,
        config: TenantConfig,
    ) -> Result<(Self, BTreeMap<String, DurableRecovery>)> {
        let ids = factory.list_tenants().map_err(substrate)?;
        let mut registry = PlantRegistry {
            factory,
            policy,
            config,
            tenants: BTreeMap::new(),
            failed: BTreeMap::new(),
        };
        let mut recoveries = BTreeMap::new();
        for id in ids {
            let opened = match registry.factory.shard_count(&id) {
                Ok(n) if n > 1 => Err(DetectError::Substrate(format!(
                    "tenants: plant {id:?} has {n} shard directories; this build reads exactly one"
                ))),
                Ok(_) => open_tenant(&registry.factory, &registry.policy, &registry.config, &id),
                Err(e) => Err(substrate(e)),
            };
            match opened {
                Ok((tenant, recovery)) => {
                    registry.tenants.insert(id.clone(), tenant);
                    recoveries.insert(id, recovery);
                }
                Err(e) => {
                    registry.failed.insert(id, e.to_string());
                }
            }
        }
        Ok((registry, recoveries))
    }

    /// Creates (and registers) a fresh tenant.
    ///
    /// # Errors
    /// Invalid tenant id, an id already live or failed, or storage /
    /// policy errors opening its stream.
    pub fn create_tenant(&mut self, id: &str) -> Result<&mut Tenant<F::Storage>> {
        if !valid_tenant_id(id) {
            return Err(DetectError::invalid(
                "tenant",
                format!("invalid tenant id {id:?}"),
            ));
        }
        if self.tenants.contains_key(id) || self.failed.contains_key(id) {
            return Err(DetectError::invalid(
                "tenant",
                format!("tenant {id:?} already exists"),
            ));
        }
        let (tenant, _) = open_tenant(&self.factory, &self.policy, &self.config, id)?;
        Ok(self.tenants.entry(id.to_string()).or_insert(tenant))
    }

    /// Read-only access to a live tenant.
    pub fn tenant(&self, id: &str) -> Option<&Tenant<F::Storage>> {
        self.tenants.get(id)
    }

    /// Mutable access to a live tenant (ingest, controls, tick).
    pub fn tenant_mut(&mut self, id: &str) -> Option<&mut Tenant<F::Storage>> {
        self.tenants.get_mut(id)
    }

    /// Ids of all live tenants, sorted.
    pub fn tenant_ids(&self) -> Vec<&str> {
        self.tenants.keys().map(String::as_str).collect()
    }

    /// Tenants that failed hard to recover, with their errors. Their
    /// storage is left untouched for offline repair.
    pub fn failed(&self) -> &BTreeMap<String, String> {
        &self.failed
    }

    /// Removes a tenant from the registry and finalizes its report (see
    /// [`Tenant::finish`]).
    ///
    /// # Errors
    /// Unknown tenant id, or the tenant's finalize/assemble error.
    pub fn finish_tenant(&mut self, id: &str) -> Result<StreamReport> {
        let tenant = self
            .tenants
            .remove(id)
            .ok_or_else(|| DetectError::invalid("tenant", format!("no live tenant {id:?}")))?;
        tenant.finish()
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
        assert!(reopened.failed().is_empty());
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
