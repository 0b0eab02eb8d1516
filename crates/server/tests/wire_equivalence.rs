//! Acceptance pin for the api → service → engine split: a report
//! obtained **over the wire** (ingest via TCP frames, query via TCP)
//! is byte-identical to the report produced by driving the same
//! scenario through the embedded [`PlantService`] path — the network
//! layer adds transport, never meaning.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use hierod_core::{AlgorithmPolicy, HierOutlier};
use hierod_hierarchy::{
    CaqResult, JobConfig, Level, PhaseKind, RedundancyGroup, Sensor, SensorKind,
};
use hierod_history::{CompactionOptions, RangeQuery};
use hierod_server::client::{ClientError, DeltaReply};
use hierod_server::{Client, Server, ServerConfig, ServerHandle, ServerStats};
use hierod_service::{PlantService, RegistryService};
use hierod_store::tenants::{MemFactory, StorageFactory};
use hierod_store::MemStorage;
use hierod_stream::tenant::TenantConfig;
use hierod_stream::{ControlEvent, LaneId, LaneKind, Sample};
use hierod_wire::{decode_report, encode_report, ErrorCode};

fn spawn_server() -> (ServerHandle, thread::JoinHandle<ServerStats>) {
    let svc = RegistryService::open(
        MemFactory::new(),
        AlgorithmPolicy::default(),
        TenantConfig::default(),
    )
    .unwrap();
    spawn_server_with(svc)
}

fn spawn_server_with<F>(svc: RegistryService<F>) -> (ServerHandle, thread::JoinHandle<ServerStats>)
where
    F: StorageFactory + Send + Sync + 'static,
    F::Storage: Send,
{
    let server = Server::bind(svc, ServerConfig::default()).unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.serve().unwrap());
    (handle, join)
}

const MACHINE: &str = "m0";
const BED: &str = "m0.bed.0";
const ROOM: &str = "m0.room";
const BED_LANE: u32 = 1;

fn bed_lane_id() -> LaneId {
    LaneId {
        machine: MACHINE.into(),
        sensor: BED.into(),
        kind: LaneKind::Phase,
    }
}

fn scenario_events() -> Vec<ControlEvent> {
    vec![
        ControlEvent::MachineUp {
            machine: MACHINE.into(),
            sensors: vec![Sensor::new(BED, SensorKind::BedTemperature)],
            redundancy: vec![RedundancyGroup::new(
                SensorKind::BedTemperature,
                vec![BED.into()],
            )],
            env_sensors: vec![ROOM.to_string()],
        },
        ControlEvent::JobStart {
            machine: MACHINE.into(),
            job: "j0".into(),
            start: 0,
            config: JobConfig::new(vec!["p".into()], vec![1.0]),
        },
        ControlEvent::PhaseStart {
            machine: MACHINE.into(),
            kind: PhaseKind::WarmUp,
            sensors: vec![BED.to_string()],
        },
    ]
}

fn sample_at(t: u64) -> f64 {
    if t == 20 {
        60.0
    } else {
        (t as f64 * 0.4).sin()
    }
}

fn job_complete() -> ControlEvent {
    ControlEvent::JobComplete {
        machine: MACHINE.into(),
        caq: CaqResult::new(vec!["q".into()], vec![0.9], true),
    }
}

/// Drives the scenario over TCP: lane defs, controls, and samples as
/// unacknowledged ingest frames, then a synchronous finish.
fn drive_wire(client: &mut Client, samples: u64) {
    client.lane_def(BED_LANE, &bed_lane_id()).unwrap();
    for event in scenario_events() {
        client.control(&event).unwrap();
    }
    for t in 0..samples {
        client.sample(BED_LANE, t, sample_at(t)).unwrap();
    }
    client.control(&job_complete()).unwrap();
}

/// The identical scenario through the embedded service path.
fn drive_embedded(svc: &mut RegistryService<MemFactory>, plant: &str, samples: u64) {
    let lane = bed_lane_id();
    for event in scenario_events() {
        svc.control(plant, &event).unwrap();
    }
    for t in 0..samples {
        svc.ingest(
            plant,
            &lane,
            Sample {
                timestamp: t,
                value: sample_at(t),
            },
        )
        .unwrap();
    }
    svc.control(plant, &job_complete()).unwrap();
}

#[test]
fn report_over_wire_is_byte_identical_to_embedded() {
    let (handle, join) = spawn_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert!(client.admit("plant-a", true).unwrap());
    drive_wire(&mut client, 32);
    let (version, wire_bytes) = client.finish().unwrap();
    assert_eq!(version, 1);

    let mut svc = RegistryService::open(
        MemFactory::new(),
        AlgorithmPolicy::default(),
        TenantConfig::default(),
    )
    .unwrap();
    svc.admit("plant-a", true).unwrap();
    drive_embedded(&mut svc, "plant-a", 32);
    let embedded = svc.finish("plant-a").unwrap();
    let embedded_bytes = encode_report(&embedded);

    assert_eq!(
        wire_bytes, embedded_bytes,
        "wire report must be byte-identical to the embedded path"
    );
    // And the bytes decode back to the embedded report exactly.
    let decoded = decode_report(&wire_bytes).unwrap();
    assert_eq!(format!("{decoded:?}"), format!("{embedded:?}"));
    assert!(decoded.stats.samples_ingested == 32);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn lane_stats_and_corrupt_counter_flow_through_the_query_path() {
    let (handle, join) = spawn_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.admit("plant-a", true).unwrap();
    drive_wire(&mut client, 32);
    let (stats, lanes) = client.query_lane_stats().unwrap();
    assert_eq!(stats.samples_ingested, 32);
    assert_eq!(stats.corrupt_records, 0);
    let lanes: BTreeMap<_, _> = lanes.into_iter().collect();
    assert_eq!(lanes.len(), 2, "phase lane + environment lane");
    assert!(lanes.contains_key(&bed_lane_id()));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn scores_and_deltas_follow_report_versions() {
    let (handle, join) = spawn_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.admit("plant-a", true).unwrap();
    drive_wire(&mut client, 32);

    let (v1, n1) = client.tick().unwrap();
    assert_eq!(v1, 1);
    let (sv, scores) = client.query_scores(None).unwrap();
    assert_eq!(sv, 1);
    assert_eq!(scores.len() as u64, n1);
    // Level filter never widens the set.
    let (_, l5) = client.query_scores(Some(Level::Phase)).unwrap();
    assert!(l5.len() <= scores.len());

    // Caught-up client: no change.
    assert_eq!(
        client.query_deltas(v1).unwrap(),
        DeltaReply::NoChange { version: 1 }
    );
    // One version behind after another tick: an incremental delta.
    let (v2, _) = client.tick().unwrap();
    assert_eq!(v2, 2);
    match client.query_deltas(1).unwrap() {
        DeltaReply::Deltas { from, to, .. } => {
            assert_eq!((from, to), (1, 2));
        }
        other => panic!("expected Deltas, got {other:?}"),
    }
    // Too far behind: full resync carrying a decodable report.
    match client.query_deltas(0).unwrap() {
        DeltaReply::Resync { version, report } => {
            assert_eq!(version, 2);
            assert!(decode_report(&report).is_some());
        }
        other => panic!("expected Resync, got {other:?}"),
    }
    // A hostile version must not overflow `since + 1` inside the service
    // lock: it is just "too far ahead", and the server keeps serving this
    // connection and new ones.
    assert!(matches!(
        client.query_deltas(u64::MAX).unwrap(),
        DeltaReply::Resync { version: 2, .. }
    ));
    assert_eq!(
        client.query_deltas(v2).unwrap(),
        DeltaReply::NoChange { version: 2 }
    );
    let mut second = Client::connect(handle.local_addr()).unwrap();
    second.admit("plant-a", false).unwrap();
    assert_eq!(
        second.query_deltas(v2).unwrap(),
        DeltaReply::NoChange { version: 2 }
    );
    handle.shutdown();
    join.join().unwrap();
}

/// A second job on the same machine, with its own spike.
fn second_job() -> [ControlEvent; 2] {
    [
        ControlEvent::JobStart {
            machine: MACHINE.into(),
            job: "j1".into(),
            start: 100,
            config: JobConfig::new(vec!["p".into()], vec![2.0]),
        },
        ControlEvent::PhaseStart {
            machine: MACHINE.into(),
            kind: PhaseKind::WarmUp,
            sensors: vec![BED.to_string()],
        },
    ]
}

fn second_sample(t: u64) -> f64 {
    if t == 111 {
        -45.0
    } else {
        sample_at(t)
    }
}

/// What `QueryDeltas` must answer one version on: the quadratic diff of
/// two embedded reports' outlier lists.
fn embedded_diff(from: u64, prev: &[HierOutlier], current: &[HierOutlier]) -> DeltaReply {
    DeltaReply::Deltas {
        from,
        to: from + 1,
        added: current
            .iter()
            .filter(|o| !prev.contains(o))
            .cloned()
            .collect(),
        removed: prev
            .iter()
            .filter(|o| !current.contains(o))
            .cloned()
            .collect(),
    }
}

#[test]
fn tick_delta_sequence_over_wire_equals_the_embedded_diff() {
    let second_job = second_job();

    let (handle, join) = spawn_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.admit("plant-a", true).unwrap();
    drive_wire(&mut client, 32);
    let (v1, _) = client.tick().unwrap();
    let first = client.query_deltas(v1 - 1).unwrap();
    for event in &second_job {
        client.control(event).unwrap();
    }
    for t in 100..132 {
        client.sample(BED_LANE, t, second_sample(t)).unwrap();
    }
    client.control(&job_complete()).unwrap();
    let (v2, _) = client.tick().unwrap();
    let second = client.query_deltas(v1).unwrap();
    let resync = client.query_deltas(v1 - 1).unwrap();
    handle.shutdown();
    join.join().unwrap();

    let mut svc = RegistryService::open(
        MemFactory::new(),
        AlgorithmPolicy::default(),
        TenantConfig::default(),
    )
    .unwrap();
    svc.admit("plant-a", true).unwrap();
    drive_embedded(&mut svc, "plant-a", 32);
    let r1 = svc.tick("plant-a").unwrap();
    for event in &second_job {
        svc.control("plant-a", event).unwrap();
    }
    for t in 100..132 {
        let sample = Sample {
            timestamp: t,
            value: second_sample(t),
        };
        svc.ingest("plant-a", &bed_lane_id(), sample).unwrap();
    }
    svc.control("plant-a", &job_complete()).unwrap();
    let r2 = svc.tick("plant-a").unwrap();
    let (o1, o2) = (&r1.report.outliers, &r2.report.outliers);
    assert!(o2.len() > o1.len(), "the second job must add outliers");

    assert_eq!((v1, v2), (1, 2));
    assert_eq!(first, embedded_diff(0, &[], o1));
    assert_eq!(second, embedded_diff(1, o1, o2));
    assert_eq!(
        resync,
        DeltaReply::Resync {
            version: 2,
            report: encode_report(&r2),
        }
    );
}

#[test]
fn two_connections_on_one_plant_see_one_version_order() {
    // One connection drives and ticks the plant — mid-job, after the
    // first job, after the second — while a second connection, admitted
    // to the same plant, polls for deltas as fast as it can. Wherever a
    // poll lands between the ticks, what it is told must be the embedded
    // reports' story: versions only ever rise, a `Deltas` is the diff of
    // two consecutive embedded reports, a resync is the embedded report.
    let (handle, join) = spawn_server();
    let addr = handle.local_addr();
    let mut ticker = Client::connect(addr).unwrap();
    ticker.admit("plant-a", true).unwrap();
    let mut poller = Client::connect(addr).unwrap();
    assert!(!poller.admit("plant-a", false).unwrap(), "same plant");

    let polling = thread::spawn(move || {
        let (mut seen, mut replies) = (0, Vec::new());
        while seen < 3 {
            // `Missing` until the first tick has stored a report.
            let Ok(reply) = poller.query_deltas(seen) else {
                thread::yield_now();
                continue;
            };
            let version = match &reply {
                DeltaReply::NoChange { version } | DeltaReply::Resync { version, .. } => *version,
                DeltaReply::Deltas { to, .. } => *to,
            };
            assert!(version >= seen, "version went back: {seen} -> {version}");
            if version > seen {
                replies.push((seen, reply));
                seen = version;
            }
        }
        replies
    });
    ticker.lane_def(BED_LANE, &bed_lane_id()).unwrap();
    for event in scenario_events() {
        ticker.control(&event).unwrap();
    }
    for t in 0..32 {
        ticker.sample(BED_LANE, t, sample_at(t)).unwrap();
    }
    assert_eq!(ticker.tick().unwrap().0, 1);
    ticker.control(&job_complete()).unwrap();
    assert_eq!(ticker.tick().unwrap().0, 2);
    for event in second_job() {
        ticker.control(&event).unwrap();
    }
    for t in 100..132 {
        ticker.sample(BED_LANE, t, second_sample(t)).unwrap();
    }
    ticker.control(&job_complete()).unwrap();
    assert_eq!(ticker.tick().unwrap().0, 3);
    let replies = polling.join().unwrap();
    handle.shutdown();
    join.join().unwrap();

    let svc = RegistryService::open(
        MemFactory::new(),
        AlgorithmPolicy::default(),
        TenantConfig::default(),
    )
    .unwrap();
    svc.admit("plant-a", true).unwrap();
    let lane = bed_lane_id();
    let ingest = |t: u64, value: f64| {
        let sample = Sample {
            timestamp: t,
            value,
        };
        svc.ingest("plant-a", &lane, sample).unwrap();
    };
    for event in scenario_events() {
        svc.control("plant-a", &event).unwrap();
    }
    for t in 0..32 {
        ingest(t, sample_at(t));
    }
    let mut reports = vec![svc.tick("plant-a").unwrap()];
    svc.control("plant-a", &job_complete()).unwrap();
    reports.push(svc.tick("plant-a").unwrap());
    for event in second_job() {
        svc.control("plant-a", &event).unwrap();
    }
    for t in 100..132 {
        ingest(t, second_sample(t));
    }
    svc.control("plant-a", &job_complete()).unwrap();
    reports.push(svc.tick("plant-a").unwrap());
    let outliers = |version: u64| match version.checked_sub(1) {
        Some(index) => reports[index as usize].report.outliers.as_slice(),
        None => &[],
    };
    assert!(outliers(3).len() > outliers(2).len(), "the second job adds");

    assert!(!replies.is_empty());
    for (since, reply) in replies {
        match &reply {
            DeltaReply::Deltas { to, .. } => {
                assert_eq!(*to, since + 1);
                assert_eq!(reply, embedded_diff(since, outliers(since), outliers(*to)));
            }
            DeltaReply::Resync { version, report } => {
                assert!(*version > since + 1, "one behind is a delta");
                assert_eq!(report, &encode_report(&reports[*version as usize - 1]));
            }
            DeltaReply::NoChange { .. } => unreachable!("recorded only when the version rose"),
        }
    }
}

/// A [`MemFactory`] that counts how often a tenant's storage is opened.
#[derive(Default)]
struct CountingFactory {
    inner: MemFactory,
    opens: Arc<AtomicUsize>,
}

impl StorageFactory for CountingFactory {
    type Storage = MemStorage;

    fn open_shard(&self, tenant: &str, shard: usize) -> io::Result<MemStorage> {
        self.opens.fetch_add(1, Ordering::Relaxed);
        self.inner.open_shard(tenant, shard)
    }
    fn list_tenants(&self) -> io::Result<Vec<String>> {
        self.inner.list_tenants()
    }
    fn shard_count(&self, tenant: &str) -> io::Result<usize> {
        self.inner.shard_count(tenant)
    }
}

#[test]
fn racing_creates_of_one_plant_open_it_once() {
    let factory = CountingFactory::default();
    let opens = Arc::clone(&factory.opens);
    let svc = RegistryService::open(factory, AlgorithmPolicy::default(), TenantConfig::default())
        .unwrap();
    let (handle, join) = spawn_server_with(svc);
    let addr = handle.local_addr();
    let start = Arc::new(Barrier::new(8));
    let racers: Vec<_> = (0..8)
        .map(|_| {
            let start = Arc::clone(&start);
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                start.wait();
                // Never "already exists": a loser of the race waits for the
                // winner's open and is told the plant is there.
                client.admit("plant-a", true).unwrap()
            })
        })
        .collect();
    let created: Vec<bool> = racers.into_iter().map(|r| r.join().unwrap()).collect();
    assert_eq!(created.iter().filter(|&&c| c).count(), 1, "{created:?}");
    assert_eq!(opens.load(Ordering::Relaxed), 1, "one storage open");
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn a_failed_finish_takes_the_plant_and_its_cached_report_with_it() {
    // The plant's storage handle, taken before the service owns the
    // factory: the service recovers an empty plant on it.
    let factory = MemFactory::new();
    let storage = factory.open_shard("plant-a", 0).unwrap();
    let svc = RegistryService::open(factory, AlgorithmPolicy::default(), TenantConfig::default())
        .unwrap();
    let (handle, join) = spawn_server_with(svc);
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert!(!client.admit("plant-a", false).unwrap(), "recovered");
    client.lane_def(BED_LANE, &bed_lane_id()).unwrap();
    for event in scenario_events() {
        client.control(&event).unwrap();
    }
    for t in 0..32 {
        client.sample(BED_LANE, t, sample_at(t)).unwrap();
    }
    client.tick().unwrap();
    assert_eq!(
        client.query_scores(None).unwrap().0,
        1,
        "served from the cache"
    );
    // A journalled tail the tick's hard commit did not cover (the barrier
    // says it has been applied).
    for t in 32..36 {
        client.sample(BED_LANE, t, sample_at(t)).unwrap();
    }
    client.query_lane_stats().unwrap();

    // Kill the storage: the next append tears, and the sync of that tail
    // inside `finish` fails. The torn sample's own error is parked and
    // surfaces at the next request, which is not the finish.
    storage.set_write_budget(Some(0));
    client.sample(BED_LANE, 36, 0.0).unwrap();
    let code = |result: Result<_, ClientError>| match result {
        Err(ClientError::Server(e)) => e.code,
        other => panic!("expected a server error, got {:?}", other.map(|_| ())),
    };
    assert_eq!(code(client.tick().map(|_| ())), ErrorCode::Substrate);
    assert_eq!(code(client.finish().map(|_| ())), ErrorCode::Substrate);

    // The plant is gone although its finish failed, and so is every
    // trace of its last report — on this connection and on a new one.
    assert_eq!(
        code(client.query_scores(None).map(|_| ())),
        ErrorCode::Missing
    );
    assert_eq!(code(client.query_deltas(1).map(|_| ())), ErrorCode::Missing);
    assert!(client.query_health().unwrap().live.is_empty());
    assert_eq!(
        code(client.admit("plant-a", false).map(|_| ())),
        ErrorCode::Missing
    );
    let mut fresh = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(
        code(fresh.admit("plant-a", false).map(|_| ())),
        ErrorCode::Missing
    );
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn health_endpoint_maps_registry_state_onto_readiness() {
    let (handle, join) = spawn_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.admit("plant-a", true).unwrap();
    let health = client.query_health().unwrap();
    assert!(health.ready());
    assert_eq!(health.live.len(), 1);
    assert_eq!(health.live[0].id, "plant-a");
    assert!(health.failed.is_empty());
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn admission_rejects_traversal_ids_over_the_wire() {
    let (handle, join) = spawn_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert!(client.admit("../evil", true).is_err());
    assert!(client.admit("a..b", true).is_err());
    // The connection survives a rejected admission.
    assert!(client.admit("plant-a", true).unwrap());
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn parked_ingest_errors_surface_at_the_next_request() {
    let (handle, join) = spawn_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.admit("plant-a", true).unwrap();
    // Sample on a lane that was never defined: parked, not answered.
    client.sample(99, 0, 1.0).unwrap();
    let err = client.tick().unwrap_err();
    assert!(
        err.to_string().contains("undefined lane"),
        "parked error should surface: {err}"
    );
    // The park is cleared; the connection keeps working.
    drive_wire(&mut client, 8);
    client.finish().unwrap();
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn concurrent_clients_drive_isolated_plants() {
    let (handle, join) = spawn_server();
    let mut workers = Vec::new();
    for i in 0..8 {
        let addr = handle.local_addr();
        workers.push(thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let plant = format!("plant-{i}");
            assert!(client.admit(&plant, true).unwrap());
            drive_wire(&mut client, 32);
            let (_, bytes) = client.finish().unwrap();
            decode_report(&bytes).unwrap()
        }));
    }
    let reports: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    // Isolation: every plant saw exactly its own 32 samples.
    for report in &reports {
        assert_eq!(report.stats.samples_ingested, 32);
    }
    handle.shutdown();
    let stats = join.join().unwrap();
    assert!(stats.connections >= 8);

    // All clients ran the same scenario: identical bytes everywhere.
    let first = encode_report(&reports[0]);
    for report in &reports[1..] {
        assert_eq!(encode_report(report), first);
    }
}

/// An embedded service with the standard scenario driven, its WAL
/// rotated into a sealed segment, and the segment compacted into the
/// Gorilla-compressed history tier.
fn sealed_service(plant: &str) -> RegistryService<MemFactory> {
    let mut svc = RegistryService::open(
        MemFactory::new(),
        AlgorithmPolicy::default(),
        TenantConfig::default(),
    )
    .unwrap();
    svc.admit(plant, true).unwrap();
    drive_embedded(&mut svc, plant, 32);
    svc.rotate(plant).unwrap();
    let stats = svc.compact(plant, &CompactionOptions::default()).unwrap();
    assert!(stats.segments_absorbed > 0);
    svc
}

#[test]
fn range_scan_over_wire_matches_embedded() {
    // Expectations from one embedded service; an identically driven
    // twin goes behind the server.
    let expect_svc = sealed_service("plant-a");
    let (expected, expected_stats) = expect_svc
        .range_scan("plant-a", &RangeQuery::range(0, u64::MAX))
        .unwrap();
    let expected: Vec<(LaneId, Vec<u64>, Vec<f64>)> = expected
        .into_iter()
        .map(|l| {
            (
                l.id,
                l.series.timestamps().to_vec(),
                l.series.values().to_vec(),
            )
        })
        .collect();
    assert!(expected_stats.samples > 0, "scenario must seal samples");

    let (handle, join) = spawn_server_with(sealed_service("plant-a"));
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert!(!client.admit("plant-a", false).unwrap(), "plant exists");
    let (lanes, stats) = client.range_scan(0, u64::MAX, None, None).unwrap();
    assert_eq!(format!("{lanes:?}"), format!("{expected:?}"));
    assert_eq!(stats, expected_stats);

    // Filters travel the wire too: an unknown machine selects nothing.
    let (empty, _) = client
        .range_scan(0, u64::MAX, Some("m-unknown"), None)
        .unwrap();
    assert!(empty.is_empty());
    // Scans before admission are protocol errors.
    let mut fresh = Client::connect(handle.local_addr()).unwrap();
    assert!(fresh.range_scan(0, u64::MAX, None, None).is_err());
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn backfill_over_wire_reproduces_the_finish_report() {
    let (handle, join) = spawn_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.admit("plant-a", true).unwrap();
    drive_wire(&mut client, 32);

    // Backfill with the original policy replays the journal through a
    // fresh detector: byte-identical to what finish will report.
    let (replayed, (controls, samples, skipped)) = client.backfill(0, u64::MAX, None).unwrap();
    assert_eq!(controls, 4, "machine-up, job-start, phase-start, complete");
    assert_eq!(samples, 32);
    assert_eq!(skipped, 0);

    // A window replays fewer samples and skips the rest.
    let (_, (_, windowed, windowed_skipped)) = client.backfill(0, 15, None).unwrap();
    assert_eq!(windowed, 16);
    assert_eq!(windowed_skipped, 16);

    // A swapped spec replays cleanly; a malformed one is rejected
    // without poisoning the connection.
    let (rescored, _) = client
        .backfill(0, u64::MAX, Some("sliding-z(window=8)"))
        .unwrap();
    assert!(decode_report(&rescored).is_some());
    assert!(client.backfill(0, u64::MAX, Some("ar(order=3")).is_err());

    // The swap accepts any point-kind registry entry (`sax` is the
    // Table-1 OS row) and resolves it as the registry does everywhere
    // else: a bare `deviants` is the registry's 8 buckets.
    let rescore = |client: &mut Client, spec| {
        let reply = client.backfill(0, u64::MAX, Some(spec));
        reply.map(|(bytes, _)| bytes)
    };
    assert!(decode_report(&rescore(&mut client, "sax(window_len=16)").unwrap()).is_some());
    assert_eq!(
        rescore(&mut client, "deviants").unwrap(),
        rescore(&mut client, "deviants(buckets=8)").unwrap()
    );
    // Anything else — a vector-kind entry, an unknown key — is a typed
    // rejection that leaves the connection serving.
    for spec in ["pca", "frobnicator"] {
        match rescore(&mut client, spec) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Invalid, "{spec}"),
            other => panic!("{spec}: expected an Invalid error, got {other:?}"),
        }
        client.query_lane_stats().unwrap();
    }

    let (_, finish_bytes) = client.finish().unwrap();
    assert_eq!(
        replayed, finish_bytes,
        "backfill with the original policy must be byte-identical to finish"
    );
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn graceful_drain_stops_accepting_and_serve_returns() {
    let (handle, join) = spawn_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.admit("plant-a", true).unwrap();
    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats.connections, 1);
    // Further requests on the old connection fail (Draining or EOF).
    assert!(client.query_health().is_err());
}
