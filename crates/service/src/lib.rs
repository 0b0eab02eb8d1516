//! `hierod-service`: the service layer of the api → service → engine
//! split.
//!
//! [`PlantService`] is the one plant-driving entry point shared by the
//! embedded-library path (call it directly) and the network path
//! (`hierod-server` maps wire frames onto it). The engine behind it —
//! [`Tenant`]/[`PlantRegistry`] with
//! their durable control/ingest/tick/finish and isolated recovery —
//! is no longer the public surface: anything a
//! consumer can do, it does through this trait, so the two paths cannot
//! drift apart (the wire-equivalence test pins byte-identical reports
//! across them).
//!
//! Lifecycle events have one vocabulary at every layer: callers build a
//! [`ControlEvent`] (its `machine_up` / `job_start` / `phase_start` /
//! `job_complete` constructors are the typed form) and hand it to
//! [`PlantService::control`].
//!
//! [`RegistryService`] is the production implementation over a
//! [`PlantRegistry`]; its
//! [`health`](PlantService::health) is the registry's
//! [`health`](hierod_stream::PlantRegistry::health): the
//! [`failed`](hierod_stream::PlantRegistry::failed) set and per-tenant
//! recovery summaries, mapped directly onto a readiness answer.
//!
//! ## Concurrency
//!
//! Every [`PlantService`] method takes `&self`: a `Sync` implementor is
//! served from many workers at once, and what one call excludes is the
//! implementor's business. [`RegistryService`] excludes per plant —
//! every by-id call holds that one plant's lock and no other (the
//! registry-wide lock covers the id lookup only and is released before
//! the plant's is taken; for [`ingest_run`](PlantService::ingest_run) that
//! is one lookup and one acquisition for a whole run of samples), and
//! [`finish`](PlantService::finish) detaches
//! the plant first and then finalises it with no lock held at all. See
//! [`hierod_stream::tenant`] for the lock order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

use std::collections::BTreeMap;
use std::io;

use hierod_core::AlgorithmPolicy;
use hierod_detect::engine::AlgoSpec;
use hierod_detect::{DetectError, Result};
use hierod_history::{
    snapshot, BackfillOutcome, CompactionOptions, CompactionStats, HistoryReader, LaneSeries,
    RangeQuery, ScanStats,
};
use hierod_store::tenants::StorageFactory;
use hierod_stream::tenant::{PlantRegistry, Tenant, TenantConfig};
use hierod_stream::{
    ControlEvent, Health, LaneId, LaneStats, LaneTable, RecoverySummary, RunError, Sample,
    StreamReport, StreamStats,
};

/// Maps a storage failure into the detection error domain.
fn substrate(e: io::Error) -> DetectError {
    DetectError::Substrate(format!("history: {e}"))
}

fn no_plant(plant: &str) -> DetectError {
    DetectError::Missing {
        what: format!("plant {plant:?}"),
    }
}

/// What [`PlantService::admit`] did for the requested plant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The plant already existed (recovered or previously created).
    Existing,
    /// The plant was created fresh.
    Created,
}

/// The plant-driving entry point shared by the embedded-library path
/// and the network path. See the module docs for the layering contract.
///
/// All operations address a plant by id; the id grammar is
/// [`valid_tenant_id`](hierod_store::valid_tenant_id) (enforced by
/// implementations at admission).
///
/// Every method takes `&self`, so one service value can be driven from
/// several threads when the implementor is `Sync`; calls on one plant
/// are applied in some serial order, calls on different plants need not
/// wait for each other (see the module docs).
pub trait PlantService {
    /// Ensures `plant` is live: admits an existing plant, creates a
    /// fresh one when `create` is set, and fails otherwise (or when the
    /// plant is parked in the failed set).
    ///
    /// # Errors
    /// Invalid plant id, unknown plant without `create`, or a plant
    /// whose storage failed recovery.
    fn admit(&self, plant: &str, create: bool) -> Result<Admission>;

    /// Ids of all live plants, sorted.
    fn plants(&self) -> Vec<String>;

    /// Applies one lifecycle control event to `plant`.
    ///
    /// # Errors
    /// Unknown plant, storage failures, or lifecycle violations.
    fn control(&self, plant: &str, event: &ControlEvent) -> Result<()>;

    /// Ingests one sample into `plant` on `lane`.
    ///
    /// # Errors
    /// Unknown plant or storage failures; samples with no open pipeline
    /// are counted, not errors.
    fn ingest(&self, plant: &str, lane: &LaneId, sample: Sample) -> Result<()>;

    /// Ingests a run of samples into `plant`, each addressed by a wire
    /// lane of the caller's `lanes` table — one call, and for
    /// [`RegistryService`] one acquisition of the plant, for as many
    /// samples as a connection has read. Every record is attempted, as if
    /// it had come through [`ingest`](PlantService::ingest) under the id
    /// its wire lane is bound to; the first failure in stream order is
    /// returned (`None`: all landed). Handles `lanes` has resolved are
    /// reused only while `plant` is the incarnation that issued them.
    fn ingest_run(
        &self,
        plant: &str,
        lanes: &mut LaneTable,
        run: &[(u32, Sample)],
    ) -> Option<RunError>;

    /// Assembles an interim report for `plant`, hard-committing its WAL
    /// first (every exposed score is backed by durable input).
    ///
    /// # Errors
    /// Unknown plant, storage failures, or upper-level detector errors.
    fn tick(&self, plant: &str) -> Result<StreamReport>;

    /// Finalizes `plant` — flushes watermarks, finishes scorers — and
    /// removes it from the live set, returning the final report.
    ///
    /// # Errors
    /// Unknown plant, storage failures, or upper-level detector errors.
    fn finish(&self, plant: &str) -> Result<StreamReport>;

    /// The ingestion counters of `plant` and its per-lane
    /// release/drop/corruption counters, without assembling a report, of
    /// one instant: no ingest into `plant` lands between the two, so the
    /// totals are the sums of the lanes.
    ///
    /// # Errors
    /// Unknown plant.
    fn lane_snapshot(&self, plant: &str) -> Result<(StreamStats, BTreeMap<LaneId, LaneStats>)>;

    /// Point-in-time health snapshot: live plants with recovery
    /// summaries, plus the failed set that gates readiness.
    fn health(&self) -> Health;

    /// Seals the WAL of `plant` into a rotation segment,
    /// making the data visible to [`PlantService::range_scan`] and
    /// eligible for [`PlantService::compact`].
    ///
    /// # Errors
    /// Unknown plant or storage failures.
    fn rotate(&self, plant: &str) -> Result<()>;

    /// Merges `plant`'s sealed rotation segments into the tiered,
    /// Gorilla-compressed history files.
    ///
    /// # Errors
    /// Unknown plant, invalid options, or storage failures.
    fn compact(&self, plant: &str, options: &CompactionOptions) -> Result<CompactionStats>;

    /// Scans `plant`'s sealed history (compacted files and rotation
    /// segments; never the live WAL tail) for samples in the query's
    /// time range, sorted by lane.
    ///
    /// # Errors
    /// Unknown plant or storage failures.
    fn range_scan(&self, plant: &str, query: &RangeQuery) -> Result<(Vec<LaneSeries>, ScanStats)>;

    /// Replays `plant`'s stored `[start, end]` range through a fresh
    /// detector — with the service's own policy when `spec` is `None`,
    /// or with the phase-level detector swapped per `spec`.
    ///
    /// # Errors
    /// Unknown plant, an unmappable spec, storage failures, or detector
    /// errors during the replay.
    fn backfill(
        &self,
        plant: &str,
        start: u64,
        end: u64,
        spec: Option<&AlgoSpec>,
    ) -> Result<BackfillOutcome>;
}

/// The production [`PlantService`]: a
/// [`PlantRegistry`] engine plus the
/// recovery summaries its opening produced. `Sync` whenever its storage
/// factory is: share it by reference and call it from as many threads as
/// there are plants to keep busy.
pub struct RegistryService<F: StorageFactory> {
    registry: PlantRegistry<F>,
    recoveries: BTreeMap<String, RecoverySummary>,
}

impl<F: StorageFactory> RegistryService<F> {
    /// Opens the service over `factory`, recovering every tenant that
    /// already has storage — each in isolation (a plant that fails hard
    /// lands in [`Health::failed`], its siblings recover normally).
    ///
    /// # Errors
    /// Only on failure to enumerate tenants at all or policy rejection.
    pub fn open(factory: F, policy: AlgorithmPolicy, config: TenantConfig) -> Result<Self> {
        let (registry, recovered) = PlantRegistry::open(factory, policy, config)?;
        let recoveries = recovered
            .iter()
            .map(|(id, rec)| (id.clone(), RecoverySummary::from_recovery(rec)))
            .collect();
        Ok(RegistryService {
            registry,
            recoveries,
        })
    }

    /// The engine underneath (read-only; tests use it for fault
    /// injection and direct inspection).
    pub fn registry(&self) -> &PlantRegistry<F> {
        &self.registry
    }

    /// Per-plant recovery summaries from this process's opening (the
    /// plants [`open`](Self::open) found on storage; a later re-admission
    /// shows in [`health`](PlantService::health) only).
    pub fn recoveries(&self) -> &BTreeMap<String, RecoverySummary> {
        &self.recoveries
    }

    /// Runs `f` on `plant` under that plant's lock, and no other.
    fn on<R>(
        &self,
        plant: &str,
        f: impl FnOnce(&mut Tenant<F::Storage>) -> Result<R>,
    ) -> Result<R> {
        self.registry
            .with_tenant(plant, f)
            .unwrap_or_else(|| Err(no_plant(plant)))
    }
}

impl<F: StorageFactory> PlantService for RegistryService<F> {
    fn admit(&self, plant: &str, create: bool) -> Result<Admission> {
        Ok(if self.registry.admit_tenant(plant, create)? {
            Admission::Created
        } else {
            Admission::Existing
        })
    }

    fn plants(&self) -> Vec<String> {
        self.registry.tenant_ids()
    }

    fn control(&self, plant: &str, event: &ControlEvent) -> Result<()> {
        self.on(plant, |tenant| tenant.control(event))
    }

    fn ingest(&self, plant: &str, lane: &LaneId, sample: Sample) -> Result<()> {
        self.on(plant, |tenant| tenant.ingest(lane, sample))
    }

    fn ingest_run(
        &self,
        plant: &str,
        lanes: &mut LaneTable,
        run: &[(u32, Sample)],
    ) -> Option<RunError> {
        self.registry
            .with_tenant(plant, |tenant| tenant.ingest_run(lanes, run))
            .unwrap_or_else(|| Some(RunError::Rejected(no_plant(plant))))
    }

    fn tick(&self, plant: &str) -> Result<StreamReport> {
        self.on(plant, Tenant::tick)
    }

    fn finish(&self, plant: &str) -> Result<StreamReport> {
        self.registry.finish_tenant(plant)
    }

    fn lane_snapshot(&self, plant: &str) -> Result<(StreamStats, BTreeMap<LaneId, LaneStats>)> {
        self.on(plant, |tenant| Ok((tenant.stats(), tenant.lane_stats())))
    }

    fn rotate(&self, plant: &str) -> Result<()> {
        self.on(plant, Tenant::rotate)
    }

    fn compact(&self, plant: &str, options: &CompactionOptions) -> Result<CompactionStats> {
        self.on(plant, |tenant| {
            let (storage, sealed_end) = tenant.stream().sealed_storage();
            hierod_history::compact(storage, sealed_end, options).map_err(substrate)
        })
    }

    fn range_scan(&self, plant: &str, query: &RangeQuery) -> Result<(Vec<LaneSeries>, ScanStats)> {
        // The plant's lock covers the snapshot — it copies the sealed files'
        // bytes — and nothing else: decoding waits for no ingest, and no
        // ingest waits for it.
        let sealed = self.on(plant, |tenant| {
            let (storage, _) = tenant.stream().sealed_storage();
            snapshot(storage).map_err(substrate)
        })?;
        let reader = HistoryReader::new(sealed).map_err(substrate)?;
        let (mut series, stats) = reader.scan(query).map_err(substrate)?;
        // The reader yields store-local lane-number order (first-use
        // order); the reply's order is by lane id.
        series.sort_by(|a, b| a.id.cmp(&b.id));
        Ok((series, stats))
    }

    fn backfill(
        &self,
        plant: &str,
        start: u64,
        end: u64,
        spec: Option<&AlgoSpec>,
    ) -> Result<BackfillOutcome> {
        self.on(plant, |tenant| {
            let (storage, _) = tenant.stream().sealed_storage();
            hierod_history::backfill(
                &[storage],
                self.registry.policy(),
                self.registry.config().stream,
                start,
                end,
                spec,
            )
        })
    }

    fn health(&self) -> Health {
        self.registry.health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierod_hierarchy::{CaqResult, JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
    use hierod_store::tenants::MemFactory;
    use hierod_stream::tenant::TenantConfig;
    use hierod_stream::{LaneKind, StreamEvent};

    fn service() -> RegistryService<MemFactory> {
        RegistryService::open(
            MemFactory::new(),
            AlgorithmPolicy::default(),
            TenantConfig::default(),
        )
        .unwrap()
    }

    /// One machine, one job, one warm-up phase with a spike at t=20.
    fn script() -> Vec<StreamEvent> {
        let (machine, bed, room) = ("m0", "m0.bed.0", "m0.room");
        let mut script = vec![
            StreamEvent::Control(ControlEvent::machine_up(
                machine,
                vec![Sensor::new(bed, SensorKind::BedTemperature)],
                vec![RedundancyGroup::new(
                    SensorKind::BedTemperature,
                    vec![bed.into()],
                )],
                &[room.to_string()],
            )),
            StreamEvent::Control(ControlEvent::job_start(
                machine,
                "j0",
                0,
                JobConfig::new(vec!["p".into()], vec![1.0]),
            )),
            StreamEvent::Control(ControlEvent::phase_start(
                machine,
                PhaseKind::WarmUp,
                &[bed.to_string()],
            )),
        ];
        let bed_lane = LaneId {
            machine: machine.into(),
            sensor: bed.into(),
            kind: LaneKind::Phase,
        };
        script.extend((0..32_u64).map(|t| {
            let value = if t == 20 {
                60.0
            } else {
                (t as f64 * 0.4).sin()
            };
            StreamEvent::Sample(
                bed_lane.clone(),
                Sample {
                    timestamp: t,
                    value,
                },
            )
        }));
        script.push(StreamEvent::Control(ControlEvent::job_complete(
            machine,
            CaqResult::new(vec!["q".into()], vec![0.9], true),
        )));
        script
    }

    fn drive(svc: &mut RegistryService<MemFactory>, plant: &str) {
        for event in script() {
            match event {
                StreamEvent::Control(control) => svc.control(plant, &control).unwrap(),
                StreamEvent::Sample(lane, sample) => svc.ingest(plant, &lane, sample).unwrap(),
            }
        }
    }

    #[test]
    fn admission_create_then_existing() {
        let svc = service();
        assert_eq!(svc.admit("plant-a", true).unwrap(), Admission::Created);
        assert_eq!(svc.admit("plant-a", true).unwrap(), Admission::Existing);
        assert_eq!(svc.admit("plant-a", false).unwrap(), Admission::Existing);
        assert!(svc.admit("plant-b", false).is_err());
        assert!(svc.admit("../evil", true).is_err());
        assert_eq!(svc.plants(), vec!["plant-a".to_string()]);
    }

    #[test]
    fn health_maps_failed_onto_readiness() {
        let svc = service();
        svc.admit("plant-a", true).unwrap();
        let health = svc.health();
        assert!(health.ready());
        assert_eq!(health.live.len(), 1);
        assert_eq!(health.live[0].id, "plant-a");
        assert_eq!(health.failed.len(), 0);

        // A plant laid out with two shard directories is parked, not
        // opened on half its lanes: the deployment is not ready.
        let factory = MemFactory::new();
        factory.open_shard("old", 1).unwrap();
        let svc =
            RegistryService::open(factory, AlgorithmPolicy::default(), TenantConfig::default())
                .unwrap();
        assert!(!svc.health().ready());
    }

    #[test]
    fn health_reports_what_a_re_admitted_plant_recovered() {
        let mut svc = service();
        svc.admit("p", true).unwrap();
        assert_eq!(svc.health().live[0].recovery, RecoverySummary::default());
        drive(&mut svc, "p");
        svc.finish("p").unwrap();

        // Re-created in the same process, the plant replays its journal:
        // four controls and 32 samples come back, and health says so.
        assert_eq!(svc.admit("p", true).unwrap(), Admission::Created);
        let health = svc.health();
        assert_eq!(health.live.len(), 1);
        let recovery = health.live[0].recovery;
        assert_eq!(recovery.controls_applied, 4);
        assert_eq!(recovery.restored_samples + recovery.replayed_samples, 32);
        assert!(svc.recoveries().is_empty(), "the opening recovered nothing");
    }

    #[test]
    fn embedded_path_equals_raw_engine_path() {
        // The service is a pure lowering: driving through PlantService
        // must yield the same report as driving the registry directly.
        let mut svc = service();
        svc.admit("p", true).unwrap();
        drive(&mut svc, "p");
        let (stats, lanes) = svc.lane_snapshot("p").unwrap();
        assert_eq!(stats.samples_ingested, 32);
        assert_eq!(lanes.len(), 2, "phase lane + environment lane");
        assert_eq!(stats, svc.tick("p").unwrap().stats);
        assert_eq!(lanes, svc.tick("p").unwrap().lane_stats);
        let via_service = svc.finish("p").unwrap();
        assert!(svc.plants().is_empty());
        assert!(svc.finish("p").is_err());

        let (mut registry, _) = PlantRegistry::open(
            MemFactory::new(),
            AlgorithmPolicy::default(),
            TenantConfig::default(),
        )
        .unwrap();
        let tenant = registry.create_tenant("p").unwrap();
        for event in script() {
            match event {
                StreamEvent::Control(control) => tenant.control(&control).unwrap(),
                StreamEvent::Sample(lane, sample) => tenant.ingest(&lane, sample).unwrap(),
            }
        }
        let via_engine = registry.finish_tenant("p").unwrap();
        assert_eq!(format!("{via_service:?}"), format!("{via_engine:?}"));
    }

    #[test]
    fn finish_racing_ingest_conserves_samples() {
        // One thread ingests into a plant until it has been turned away a
        // hundred times; another finishes the plant once the first is
        // under way. Every call has its own `Result`, so the books must
        // balance exactly: what returned `Ok` is what the final report
        // counted, everything else was `Missing` — and nothing reached
        // the journal behind the report's back, or the plant re-created
        // from that journal would replay more than was reported.
        let svc = service();
        svc.admit("p", true).unwrap();
        let room = LaneId {
            machine: "m0".into(),
            sensor: "m0.room".into(),
            kind: LaneKind::Environment,
        };
        let up = ControlEvent::machine_up("m0", vec![], vec![], std::slice::from_ref(&room.sensor));
        svc.control("p", &up).unwrap();

        let (under_way, go) = std::sync::mpsc::channel();
        let (landed, report) = std::thread::scope(|s| {
            let ingester = s.spawn(|| {
                let (mut landed, mut missing) = (0_u64, 0);
                while missing < 100 {
                    let sample = Sample {
                        timestamp: landed,
                        value: 20.0,
                    };
                    match svc.ingest("p", &room, sample) {
                        Ok(()) => {
                            landed += 1;
                            if landed == 50 {
                                under_way.send(()).unwrap();
                            }
                        }
                        Err(DetectError::Missing { .. }) => missing += 1,
                        Err(other) => panic!("ingest must land or be Missing: {other}"),
                    }
                }
                landed
            });
            go.recv().unwrap();
            let report = svc.finish("p").unwrap();
            (ingester.join().unwrap(), report)
        });
        assert!(landed >= 50);
        assert_eq!(report.stats.samples_ingested, landed);
        assert_eq!(svc.admit("p", true).unwrap(), Admission::Created);
        let (stats, _) = svc.lane_snapshot("p").unwrap();
        assert_eq!(stats.samples_ingested, landed);
    }

    #[test]
    fn history_surface_rotates_compacts_scans_and_backfills() {
        let mut svc = service();
        svc.admit("plant-a", true).unwrap();
        drive(&mut svc, "plant-a");

        // Nothing sealed yet: a scan sees no history (the WAL tail is
        // backfill territory, never scan territory).
        let everything = RangeQuery::range(0, u64::MAX);
        let (lanes, _) = svc.range_scan("plant-a", &everything).unwrap();
        assert!(lanes.is_empty());

        // Rotation seals the released samples into a segment the scan
        // can serve.
        svc.rotate("plant-a").unwrap();
        let (lanes, stats) = svc.range_scan("plant-a", &everything).unwrap();
        assert!(stats.samples > 0);
        let sealed = format!("{lanes:?}");

        // Compaction absorbs every rotation segment and preserves the
        // scan bit-for-bit.
        let compaction = svc
            .compact("plant-a", &CompactionOptions::default())
            .unwrap();
        assert!(compaction.segments_absorbed > 0);
        let (lanes, _) = svc.range_scan("plant-a", &everything).unwrap();
        assert_eq!(format!("{lanes:?}"), sealed);

        // A filter to a machine that does not exist selects nothing.
        let mut off_plant = everything.clone();
        off_plant.machine = Some("m-unknown".into());
        let (lanes, _) = svc.range_scan("plant-a", &off_plant).unwrap();
        assert!(lanes.is_empty());

        // Backfill with the original policy reproduces the finish
        // report exactly; a swapped spec still replays cleanly.
        let replayed = svc.backfill("plant-a", 0, u64::MAX, None).unwrap();
        assert_eq!(replayed.samples_skipped, 0);
        let spec: AlgoSpec = "sliding-z(window=8)".parse().unwrap();
        let rescored = svc.backfill("plant-a", 0, u64::MAX, Some(&spec)).unwrap();
        assert_eq!(rescored.samples_replayed, replayed.samples_replayed);
        assert!(svc
            .backfill("plant-a", 0, u64::MAX, Some(&AlgoSpec::new("pca")))
            .is_err());

        let original = svc.finish("plant-a").unwrap();
        assert_eq!(
            format!("{:?}", replayed.report.report),
            format!("{:?}", original.report),
            "backfill with the original policy must reproduce the report"
        );
        // Scans address live plants only.
        assert!(svc.range_scan("plant-a", &everything).is_err());
    }
}
