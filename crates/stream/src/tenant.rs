//! Multi-plant tenancy: many independent plants in one process.
//!
//! The paper's setting is a *production site* — but real deployments
//! monitor several sites from one collector. [`PlantRegistry`] lifts
//! "plant" to a first-class [`Tenant`]: each tenant owns a full
//! durable shard set ([`DurableStream`] per shard, see
//! [`crate::shard`]) rooted at its own storage directory
//! (`<root>/<plant-id>/shard-<k>/`, via
//! [`hierod_store::StorageFactory`]).
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
//!   tenant in that tenant's [`TenantRecovery`] counters, never in
//!   another's.
//! * All per-tenant operations route through [`PlantRegistry::tenant_mut`];
//!   there is no cross-tenant state to poison.
//!
//! ## Determinism
//!
//! A tenant's merged report is assembled across its shards in fixed
//! shard order (see [`crate::shard`]): for a given event stream it is
//! byte-identical to a single-shard, single-tenant run.
//!
//! ## Layering
//!
//! [`Tenant`] and [`PlantRegistry`] are the **engine**: [`ControlEvent`]
//! broadcast, routed ingest, merged tick/finish, and isolated recovery.
//! `hierod-service`'s `PlantService` trait, one layer up, addresses the
//! same operations by plant id — the shared entry point of the
//! embedded-library path and the network path.

use std::collections::BTreeMap;
use std::io;

use hierod_core::AlgorithmPolicy;
use hierod_detect::{DetectError, Result};
use hierod_store::store::StoreOptions;
use hierod_store::tenants::{valid_tenant_id, StorageFactory};

use crate::detector::{assemble_multi, ControlEvent, StreamConfig, StreamDetector, StreamReport};
use crate::durable::{DurableRecovery, DurableStream};
use crate::lane::{LaneId, Sample};
use crate::shard::shard_of;

/// Maps a storage failure into the detection error domain.
fn substrate(e: io::Error) -> DetectError {
    DetectError::Substrate(format!("tenants: {e}"))
}

/// Per-tenant configuration applied to every plant a registry hosts.
#[derive(Debug, Clone, Copy)]
pub struct TenantConfig {
    /// Shard count for **newly created** tenants. Existing tenants
    /// reopen with the shard count their directory was laid out with.
    pub shards: usize,
    /// Streaming configuration shared by every shard.
    pub stream: StreamConfig,
    /// Store tuning shared by every shard.
    pub store: StoreOptions,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            shards: 1,
            stream: StreamConfig::default(),
            store: StoreOptions::default(),
        }
    }
}

/// What reopening one tenant recovered, shard by shard.
#[derive(Debug, Clone, Default)]
pub struct TenantRecovery {
    /// Per-shard recovery detail, indexed by shard.
    pub shards: Vec<DurableRecovery>,
}

impl TenantRecovery {
    /// Highest control sequence durable on any shard (controls are
    /// broadcast, so shards can trail each other only by a crash).
    pub fn controls_applied(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.controls_applied)
            .max()
            .unwrap_or(0)
    }

    /// Samples restored from sealed segments, across all shards.
    pub fn restored_samples(&self) -> u64 {
        self.shards.iter().map(|s| s.restored_samples).sum()
    }

    /// WAL samples replayed through live ingest, across all shards.
    pub fn replayed_samples(&self) -> u64 {
        self.shards.iter().map(|s| s.replayed_samples).sum()
    }

    /// Corruption events survived, across all shards.
    pub fn corrupt_records(&self) -> u64 {
        self.shards.iter().map(|s| s.corrupt_records).sum()
    }
}

/// One plant: a durable shard set under a tenant-scoped storage root.
///
/// Controls are broadcast to every shard (each shard journals them to
/// its own WAL); samples are journalled and scored only on the shard
/// that owns their machine×sensor lane ([`shard_of`]). Reports are
/// merged across shards in fixed order, so they are byte-identical to
/// an unsharded run of the same event stream.
pub struct Tenant<S: hierod_store::Storage> {
    id: String,
    shards: Vec<DurableStream<S>>,
}

impl<S: hierod_store::Storage> Tenant<S> {
    /// The tenant id (a valid storage directory name).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Number of shards this tenant is laid out with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read-only access to the underlying durable shards.
    pub fn shards(&self) -> &[DurableStream<S>] {
        &self.shards
    }

    /// Runs `op` on every shard in shard order and returns the first
    /// error. Later shards are still driven after an earlier failure, so
    /// the set never diverges structurally and a dead shard never costs
    /// a healthy sibling its group-commit tail.
    fn on_every_shard(
        &mut self,
        mut op: impl FnMut(&mut DurableStream<S>) -> Result<()>,
    ) -> Result<()> {
        let mut first_err = None;
        for shard in &mut self.shards {
            if let Err(e) = op(shard) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Journals and applies a control event on **every** shard, in
    /// shard order.
    ///
    /// # Errors
    /// The first storage failure ([`DetectError::Substrate`]) or
    /// lifecycle error; remaining shards are still driven.
    pub fn control(&mut self, event: &ControlEvent) -> Result<()> {
        self.on_every_shard(|shard| shard.control(event))
    }

    /// Journals and ingests a sample on the shard owning its lane.
    ///
    /// # Errors
    /// As [`DurableStream::ingest`].
    pub fn ingest(&mut self, lane: &LaneId, sample: Sample) -> Result<()> {
        let owner = shard_of(&lane.machine, &lane.sensor, self.shards.len());
        match self.shards.get_mut(owner) {
            Some(shard) => shard.ingest(lane, sample),
            None => Err(DetectError::Missing {
                what: format!(
                    "shard {owner} of {} on tenant {}",
                    self.shards.len(),
                    self.id
                ),
            }),
        }
    }

    /// Rotates every shard's WAL into a sealed segment (see
    /// [`DurableStream::rotate`]).
    ///
    /// # Errors
    /// The first storage failure; remaining shards are still rotated.
    pub fn rotate(&mut self) -> Result<()> {
        self.on_every_shard(DurableStream::rotate)
    }

    /// Current ingestion counters merged across all shards — the same
    /// totals a [`tick`](Tenant::tick) report would carry, without
    /// assembling one.
    pub fn stats(&self) -> crate::detector::StreamStats {
        let mut out = crate::detector::StreamStats::default();
        for shard in &self.shards {
            let s = shard.stats();
            out.samples_ingested += s.samples_ingested;
            out.samples_released += s.samples_released;
            out.late_dropped += s.late_dropped;
            out.duplicates_dropped += s.duplicates_dropped;
            out.series_failed += s.series_failed;
            out.corrupt_records += s.corrupt_records;
        }
        out
    }

    /// Per-lane release/drop/corruption counters merged across all
    /// shards (each lane lives on exactly one shard, so the merge is a
    /// disjoint union). This is the direct query-path accessor — callers
    /// no longer need to assemble a full report to read lane health.
    pub fn lane_stats(&self) -> BTreeMap<LaneId, crate::detector::LaneStats> {
        let mut out: BTreeMap<LaneId, crate::detector::LaneStats> = BTreeMap::new();
        for shard in &self.shards {
            for (lane, l) in shard.lane_stats() {
                let entry = out.entry(lane).or_default();
                entry.released += l.released;
                entry.late_dropped += l.late_dropped;
                entry.duplicates_dropped += l.duplicates_dropped;
                entry.corrupt_records += l.corrupt_records;
            }
        }
        out
    }

    /// Hard-commits every shard's WAL, then assembles an interim merged
    /// report in fixed shard order — every score it exposes is backed
    /// by durable input on its owning shard.
    ///
    /// # Errors
    /// Storage failures as [`DetectError::Substrate`]; upper-level
    /// detector failures as in [`crate::StreamDetector::tick`].
    pub fn tick(&mut self) -> Result<StreamReport> {
        self.on_every_shard(DurableStream::commit_wal)?;
        self.assemble()
    }

    /// Hard-commits and finalizes every shard, then assembles the final
    /// merged report — byte-identical to the unsharded run.
    ///
    /// # Errors
    /// The first storage failure as [`DetectError::Substrate`] —
    /// remaining shards are still committed and finalized, so a healthy
    /// shard's group-commit tail is durable either way; upper-level
    /// detector failures as in [`crate::StreamDetector::finish`].
    pub fn finish(mut self) -> Result<StreamReport> {
        self.on_every_shard(DurableStream::finalize_pipelines)?;
        self.assemble()
    }

    /// The merged report across shards in fixed shard order, with every
    /// shard's recovery corruption counters folded in.
    fn assemble(&self) -> Result<StreamReport> {
        let refs: Vec<&StreamDetector> = self.shards.iter().map(|s| s.detector()).collect();
        let mut report = assemble_multi(&refs)?;
        for shard in &self.shards {
            shard.patch_report(&mut report);
        }
        Ok(report)
    }
}

/// Hosts N independent plants in one process, each with its own shard
/// set and per-tenant durable directory. See the module docs for the
/// isolation contract.
pub struct PlantRegistry<F: StorageFactory> {
    factory: F,
    policy: AlgorithmPolicy,
    config: TenantConfig,
    tenants: BTreeMap<String, Tenant<F::Storage>>,
    failed: BTreeMap<String, String>,
}

fn open_tenant<F: StorageFactory>(
    factory: &F,
    policy: &AlgorithmPolicy,
    config: &TenantConfig,
    id: &str,
    shards: usize,
) -> Result<(Tenant<F::Storage>, TenantRecovery)> {
    let count = shards.max(1);
    let mut set = Vec::with_capacity(count);
    let mut recovery = TenantRecovery::default();
    for k in 0..count {
        let storage = factory.open_shard(id, k).map_err(substrate)?;
        let (shard, rec) = DurableStream::open_shard(
            policy.clone(),
            config.stream,
            storage,
            config.store,
            k,
            count,
        )?;
        set.push(shard);
        recovery.shards.push(rec);
    }
    Ok((
        Tenant {
            id: id.to_string(),
            shards: set,
        },
        recovery,
    ))
}

impl<F: StorageFactory> PlantRegistry<F> {
    /// Opens a registry over `factory`, recovering every tenant that
    /// already has storage — **each in isolation**. Tenants that fail
    /// hard to open (e.g. damaged segments) are recorded in
    /// [`PlantRegistry::failed`] and skipped; their siblings recover
    /// normally. Returns the per-tenant recovery summaries.
    ///
    /// # Errors
    /// Only on failure to enumerate tenants at all (the factory root
    /// itself is unreadable) or on policy rejection.
    pub fn open(
        factory: F,
        policy: AlgorithmPolicy,
        config: TenantConfig,
    ) -> Result<(Self, BTreeMap<String, TenantRecovery>)> {
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
            let shards = match registry.factory.shard_count(&id) {
                Ok(n) => n.max(1),
                Err(e) => {
                    registry.failed.insert(id, substrate(e).to_string());
                    continue;
                }
            };
            match open_tenant(
                &registry.factory,
                &registry.policy,
                &registry.config,
                &id,
                shards,
            ) {
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

    /// Creates (and registers) a fresh tenant with
    /// [`TenantConfig::shards`] shards.
    ///
    /// # Errors
    /// Invalid tenant id, an id already live or failed, or storage /
    /// policy errors opening the shard set.
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
        let (tenant, _) = open_tenant(
            &self.factory,
            &self.policy,
            &self.config,
            id,
            self.config.shards,
        )?;
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

    /// Removes a tenant from the registry and finalizes its merged
    /// report (see [`Tenant::finish`]).
    ///
    /// # Errors
    /// Unknown tenant id, or any shard's finalize/assemble error.
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
    use crate::detector::ScorerMode;
    use crate::lane::LaneKind;
    use hierod_hierarchy::{CaqResult, JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
    use hierod_store::tenants::MemFactory;

    fn config() -> TenantConfig {
        TenantConfig {
            shards: 2,
            stream: StreamConfig {
                lateness: 2,
                mode: ScorerMode::BatchEquivalent,
            },
            store: StoreOptions::default(),
        }
    }

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
        let (mut registry, recovered) =
            PlantRegistry::open(MemFactory::new(), AlgorithmPolicy::default(), config()).unwrap();
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
    fn reopen_recovers_each_tenant_with_its_own_layout() {
        let factory = MemFactory::new();
        {
            let (mut registry, _) = PlantRegistry::open(
                factory.crash_image(true),
                AlgorithmPolicy::default(),
                config(),
            )
            .unwrap();
            drop(registry.create_tenant("solo"));
        }
        let (mut registry, _) =
            PlantRegistry::open(factory, AlgorithmPolicy::default(), config()).unwrap();
        drive(registry.create_tenant("plant-a").unwrap(), 0.0);
        let report = registry.tenant_mut("plant-a").unwrap().tick().unwrap();

        let image = registry.factory().crash_image(false);
        let (reopened, recovered) =
            PlantRegistry::open(image, AlgorithmPolicy::default(), config()).unwrap();
        assert_eq!(reopened.tenant_ids(), ["plant-a"]);
        assert!(reopened.failed().is_empty());
        let rec = &recovered["plant-a"];
        assert_eq!(rec.shards.len(), 2);
        assert_eq!(rec.restored_samples() + rec.replayed_samples(), 80);
        let tenant = reopened.tenant("plant-a").unwrap();
        assert_eq!(tenant.shard_count(), 2);
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
        let (mut registry, _) =
            PlantRegistry::open(MemFactory::new(), AlgorithmPolicy::default(), config()).unwrap();
        assert!(registry.create_tenant("../evil").is_err());
        assert!(registry.create_tenant(".hidden").is_err());
        registry.create_tenant("plant-a").unwrap();
        assert!(registry.create_tenant("plant-a").is_err());
    }
}
