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
use hierod_wire::{decode_report, encode_report, without_columns, ErrorCode, Frame, SeriesQuery};

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
    // And the bytes decode back to the embedded report exactly, its
    // series named without their columns (those are `query_series`').
    let decoded = decode_report(&wire_bytes).unwrap();
    assert_eq!(
        format!("{decoded:?}"),
        format!("{:?}", without_columns(&embedded))
    );
    assert!(decoded.stats.samples_ingested == 32);

    handle.shutdown();
    join.join().unwrap();
}

/// The reply frame a `QuerySeries` for `query` must be, from `report`.
fn series_reply(
    version: u64,
    query: &SeriesQuery,
    report: &hierod_stream::StreamReport,
) -> Vec<u8> {
    let mut bytes = Vec::new();
    Frame::SeriesScores {
        version,
        series: query.answer(report),
    }
    .encode(&mut bytes);
    bytes
}

#[test]
fn series_over_wire_equal_the_embedded_tick_filtered_alike() {
    let queries = [
        (None, None, None, 0, u64::MAX),
        (Some(Level::Phase), Some(MACHINE), Some(BED), 16, 24),
        (Some(Level::Phase), None, Some(BED), 20, 20),
        (None, Some(MACHINE), None, 10, u64::MAX),
        (Some(Level::Environment), None, None, 0, u64::MAX),
        (None, Some("m-unknown"), None, 0, u64::MAX),
    ]
    .map(|(level, machine, sensor, start, end)| SeriesQuery {
        level,
        machine: machine.map(str::to_string),
        sensor: sensor.map(str::to_string),
        start,
        end,
    });

    let (handle, join) = spawn_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.admit("plant-a", true).unwrap();
    drive_wire(&mut client, 32);
    let err = client
        .query_series(None, None, None, 0, u64::MAX)
        .unwrap_err();
    assert!(
        matches!(&err, ClientError::Server(e) if e.code == ErrorCode::Missing),
        "before the first tick: {err}"
    );
    let (version, _) = client.tick().unwrap();
    let served: Vec<_> = queries
        .iter()
        .map(|q| {
            let q = q.clone();
            let reply = client.query_series(
                q.level,
                q.machine.as_deref(),
                q.sensor.as_deref(),
                q.start,
                q.end,
            );
            let (v, series) = reply.unwrap();
            let mut bytes = Vec::new();
            Frame::SeriesScores { version: v, series }.encode(&mut bytes);
            bytes
        })
        .collect();
    // A second connection on the plant outlives its finish.
    let mut second = Client::connect(handle.local_addr()).unwrap();
    second.admit("plant-a", false).unwrap();
    client.finish().unwrap();
    let err = second
        .query_series(None, None, None, 0, u64::MAX)
        .unwrap_err();
    assert!(
        matches!(&err, ClientError::Server(e) if e.code == ErrorCode::Missing),
        "after finish: {err}"
    );
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
    let embedded = svc.tick("plant-a").unwrap();
    let everything = queries[0].answer(&embedded);
    assert!(
        everything.iter().any(|(_, s)| s.z.len() == 32),
        "the phase series is scored in full"
    );
    let (_, around_spike) = &queries[1].answer(&embedded)[0];
    assert_eq!(
        around_spike.timestamps.as_ref(),
        (16..=24).collect::<Vec<u64>>()
    );
    for (query, served) in queries.iter().zip(&served) {
        assert_eq!(
            served,
            &series_reply(version, query, &embedded),
            "{query:?}"
        );
    }
}

#[test]
fn hostile_range_bounds_get_typed_answers_and_the_connection_serves_on() {
    let (handle, join) = spawn_server_with(sealed_service("plant-a"));
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert!(!client.admit("plant-a", false).unwrap(), "plant exists");
    client.tick().unwrap();
    let (_, all) = client.query_series(None, None, None, 0, u64::MAX).unwrap();
    assert!(!all.is_empty());
    for (start, end) in [(9, 3), (u64::MAX, 0), (u64::MAX, u64::MAX)] {
        let (_, series) = client.query_series(None, None, None, start, end).unwrap();
        assert!(series.is_empty(), "series in [{start}, {end}]");
        let (lanes, _) = client.range_scan(start, end, None, None).unwrap();
        assert!(
            lanes.iter().all(|(_, t, _)| t.is_empty()),
            "scan [{start}, {end}]"
        );
        let (_, (_, replayed, _)) = client.backfill(start, end, None).unwrap();
        assert_eq!(replayed, 0, "backfill [{start}, {end}]");
        client.query_lane_stats().unwrap();
    }
    // `u64::MAX` as an end is "to the end of time", not an overflow.
    let (_, to_the_end) = client.query_series(None, None, None, 0, u64::MAX).unwrap();
    assert_eq!(format!("{to_the_end:?}"), format!("{all:?}"));
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

/// A plant whose sealed segment is damaged fails recovery and is parked
/// in the registry's failed set; admitting it over the wire is answered
/// with the failed-plant code, not a generic substrate error, and its
/// sibling is admitted as usual.
#[test]
fn admitting_a_plant_parked_in_the_failed_set_answers_failed() {
    use hierod_store::storage::Storage;

    let mut svc = RegistryService::open(
        MemFactory::new(),
        AlgorithmPolicy::default(),
        TenantConfig::default(),
    )
    .unwrap();
    for plant in ["plant-a", "plant-b"] {
        svc.admit(plant, true).unwrap();
        drive_embedded(&mut svc, plant, 32);
        svc.rotate(plant).unwrap();
    }
    let image = svc.registry().factory().crash_image(false);
    let storage = image.storage("plant-a", 0).unwrap();
    let segment = storage
        .list()
        .unwrap()
        .into_iter()
        .find(|name| name.starts_with("seg-"))
        .expect("a sealed segment");
    let len = storage.file_len(&segment).unwrap();
    assert!(storage.flip_bit(&segment, len - 2, 3));

    let reopened =
        RegistryService::open(image, AlgorithmPolicy::default(), TenantConfig::default()).unwrap();
    let (handle, join) = spawn_server_with(reopened);
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let health = client.query_health().unwrap();
    assert_eq!(health.failed.len(), 1);
    assert_eq!(health.failed[0].0, "plant-a");
    for create in [false, true] {
        match client.admit("plant-a", create) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Failed, "{e}"),
            other => panic!("admitting a failed plant: {other:?}"),
        }
    }
    // The connection serves on, and the sibling recovered.
    assert!(!client.admit("plant-b", false).unwrap());
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

    // One out-of-order control — the job is complete, there is no open
    // job to start a phase in — is journalled, refused and parked: it
    // answers the next request and the connection keeps serving.
    client
        .control(&scenario_events().pop().expect("the phase start"))
        .unwrap();
    let parked = client.tick().unwrap_err().to_string();
    assert!(parked.contains("open job on machine m0"), "{parked}");

    // Backfill with the original policy replays the journal through a
    // fresh detector: byte-identical to what finish will report. The
    // refused control is refused again and not counted (five journalled).
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

// ---------------------------------------------------------------------
// Runs: what a connection's read delivered is applied in one service
// call. Neither the way TCP cut the stream up, nor a plant re-created
// under a connection, nor a neighbour on the same plant may show.

mod runs {
    use super::*;
    use std::io::Write;
    use std::net::{SocketAddr, TcpStream};
    use std::sync::mpsc;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    use hierod_detect::DetectError;
    use hierod_store::storage::{Storage, StorageFile};
    use hierod_store::wal::WalRecord;
    use hierod_stream::codec::{encode_control, encode_lane};
    use hierod_stream::{DurableStream, MAX_LANES};
    use hierod_wire::{Frame, FrameReader, Poll};

    /// One ingest record as a client would frame it.
    #[derive(Clone)]
    enum Rec {
        Def(u32, LaneId),
        Control(ControlEvent),
        Sample(u32, u64, f64),
    }

    fn room_lane_id() -> LaneId {
        LaneId {
            machine: MACHINE.into(),
            sensor: ROOM.into(),
            kind: LaneKind::Environment,
        }
    }

    /// Samples and controls, a phase sample before any phase is open, a
    /// sample on a wire lane nobody defined (first of the two failures when
    /// `undefined_first`), a `LaneDef` re-binding wire lane 2 mid-stream,
    /// and a straggler after the job has closed.
    fn op_stream(undefined_first: bool) -> Vec<Rec> {
        let mut ops = vec![Rec::Def(1, bed_lane_id()), Rec::Def(2, room_lane_id())];
        let [up, job, phase] = <[ControlEvent; 3]>::try_from(scenario_events()).unwrap();
        ops.push(Rec::Control(up));
        ops.extend((0..4).map(|t| Rec::Sample(2, t, 20.0)));
        let mut strays = [Rec::Sample(1, 0, 1.0), Rec::Sample(9, 0, 1.0)];
        if undefined_first {
            strays.reverse();
        }
        ops.extend(strays);
        ops.extend([Rec::Control(job), Rec::Control(phase)]);
        for t in 0..600 {
            ops.push(Rec::Sample(1, t, sample_at(t)));
            if t % 4 == 0 {
                ops.push(Rec::Sample(2, 4 + t, 20.0 + (t as f64 * 0.1).cos()));
            }
        }
        ops.push(Rec::Def(2, bed_lane_id()));
        ops.extend((600..640).map(|t| Rec::Sample(2, t, sample_at(t))));
        ops.push(Rec::Control(job_complete()));
        ops.push(Rec::Sample(1, 700, 0.0));
        ops
    }

    /// Everything a run of the op stream leaves behind.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        /// The first ingest failure, as the next request is answered.
        parked: (ErrorCode, String),
        /// The barrier's reply frame, encoded.
        barrier: Vec<u8>,
        wal: Vec<u8>,
        delivered: BTreeMap<LaneId, u64>,
        finish: Vec<u8>,
    }

    /// A service that recovers an empty plant `p` on storage the test
    /// keeps a handle to.
    fn plant_and_its_storage() -> (RegistryService<MemFactory>, MemStorage) {
        let factory = MemFactory::new();
        let storage = factory.open_shard("p", 0).unwrap();
        let svc =
            RegistryService::open(factory, AlgorithmPolicy::default(), TenantConfig::default())
                .unwrap();
        (svc, storage)
    }

    /// The per-record reference: every record through its own embedded
    /// service call, the first failure kept, as the server parks it.
    fn replay_embedded(ops: &[Rec]) -> Outcome {
        let (svc, storage) = plant_and_its_storage();
        let mut lanes = BTreeMap::new();
        let mut parked = None;
        for op in ops {
            let failure = match op {
                Rec::Def(lane, id) => {
                    lanes.insert(*lane, id.clone());
                    None
                }
                Rec::Control(event) => svc.control("p", event).err(),
                Rec::Sample(lane, timestamp, value) => match lanes.get(lane) {
                    Some(id) => {
                        let (timestamp, value) = (*timestamp, *value);
                        svc.ingest("p", id, Sample { timestamp, value }).err()
                    }
                    None => {
                        let message = format!("sample for undefined lane {lane}");
                        parked.get_or_insert((ErrorCode::Protocol, message));
                        None
                    }
                },
            };
            if let Some(e) = failure {
                let code = match e {
                    DetectError::Missing { .. } => ErrorCode::Missing,
                    DetectError::Substrate(_) => ErrorCode::Substrate,
                    _ => ErrorCode::Invalid,
                };
                parked.get_or_insert((code, e.to_string()));
            }
        }
        let (stats, by_lane) = svc.lane_snapshot("p").unwrap();
        let mut barrier = Vec::new();
        Frame::LaneStatsReply {
            stats,
            lanes: by_lane.into_iter().collect(),
        }
        .encode(&mut barrier);
        let delivered = svc
            .registry()
            .with_tenant("p", |tenant| tenant.stream().delivered())
            .unwrap();
        Outcome {
            parked: parked.expect("the op stream strays"),
            barrier,
            wal: storage.read("wal-0.log").unwrap(),
            delivered,
            finish: encode_report(&svc.finish("p").unwrap()),
        }
    }

    fn encode_ops(ops: &[Rec]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (seq, op) in ops.iter().enumerate() {
            let record = match op {
                Rec::Def(lane, id) => WalRecord::LaneDef {
                    lane: *lane,
                    meta: encode_lane(id),
                },
                Rec::Control(event) => WalRecord::Control {
                    seq: seq as u64,
                    payload: encode_control(event),
                },
                Rec::Sample(lane, timestamp, value) => WalRecord::Sample {
                    lane: *lane,
                    timestamp: *timestamp,
                    value: *value,
                },
            };
            Frame::Ingest(record).encode(&mut bytes);
        }
        bytes
    }

    /// A client that chooses how its bytes are cut into writes.
    struct RawClient {
        stream: TcpStream,
        reader: FrameReader,
    }

    impl RawClient {
        fn connect(addr: SocketAddr) -> RawClient {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            RawClient {
                stream,
                reader: FrameReader::new(),
            }
        }

        fn write(&mut self, bytes: &[u8], chunk: usize) {
            for piece in bytes.chunks(chunk) {
                self.stream.write_all(piece).unwrap();
            }
        }

        fn request(&mut self, frame: &Frame) -> Frame {
            let mut bytes = Vec::new();
            frame.encode(&mut bytes);
            self.write(&bytes, bytes.len());
            loop {
                match self.reader.poll(&mut self.stream).unwrap() {
                    Poll::Frame(reply) => return reply,
                    Poll::Idle => {}
                    Poll::Eof => panic!("the server hung up"),
                }
            }
        }
    }

    /// The op stream over TCP, written `chunk` bytes at a time.
    fn serve_in_writes_of(ops: &[Rec], chunk: usize) -> Outcome {
        let (svc, storage) = plant_and_its_storage();
        let (handle, join) = spawn_server_with(svc);
        let mut client = RawClient::connect(handle.local_addr());
        let admit = Frame::Admit {
            plant: "p".into(),
            create: false,
        };
        assert_eq!(client.request(&admit), Frame::Ok { info: 0 });
        let bytes = encode_ops(ops);
        client.write(&bytes, chunk.min(bytes.len()));
        let Frame::Error { code, message } = client.request(&Frame::QueryLaneStats) else {
            panic!("the parked failure answers the first request");
        };
        let mut barrier = Vec::new();
        client.request(&Frame::QueryLaneStats).encode(&mut barrier);
        let wal = storage.read("wal-0.log").unwrap();
        let config = TenantConfig::default();
        let (recovered, _) = DurableStream::open(
            AlgorithmPolicy::default(),
            config.stream,
            storage.crash_image(true),
            config.store,
        )
        .unwrap();
        let Frame::Report { report, .. } = client.request(&Frame::Finish) else {
            panic!("finish answers with the report");
        };
        handle.shutdown();
        join.join().unwrap();
        Outcome {
            parked: (code, message),
            barrier,
            wal,
            delivered: recovered.delivered(),
            finish: report,
        }
    }

    #[test]
    fn any_fragmentation_of_the_stream_equals_the_per_record_replay() {
        for undefined_first in [false, true] {
            let ops = op_stream(undefined_first);
            let reference = replay_embedded(&ops);
            let expected = match undefined_first {
                true => (ErrorCode::Protocol, "sample for undefined lane 9"),
                false => (ErrorCode::Missing, "open pipeline for lane m0.bed.0"),
            };
            assert_eq!(reference.parked.0, expected.0);
            assert!(
                reference.parked.1.contains(expected.1),
                "{:?}",
                reference.parked
            );
            assert_eq!(reference.delivered[&bed_lane_id()], 1 + 600 + 40 + 1);
            for chunk in [1, 8192, usize::MAX] {
                let served = serve_in_writes_of(&ops, chunk);
                assert!(
                    served == reference,
                    "writes of {chunk} bytes, undefined first {undefined_first}: \
                     {:?} / {:?}, wal {} / {} bytes",
                    served.parked,
                    reference.parked,
                    served.wal.len(),
                    reference.wal.len()
                );
            }
        }
    }

    #[test]
    fn a_lane_number_past_the_cap_is_a_parked_protocol_error() {
        let (handle, join) = spawn_server();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        client.admit("plant-a", true).unwrap();
        for lane in [u32::MAX, MAX_LANES] {
            client.lane_def(lane, &bed_lane_id()).unwrap();
            match client.query_lane_stats() {
                Err(ClientError::Server(e)) => {
                    assert_eq!(e.code, ErrorCode::Protocol);
                    assert!(e.message.contains("past the cap"), "{}", e.message);
                }
                other => panic!("lane {lane}: expected the parked error, got {other:?}"),
            }
            // Nothing was bound, and the connection carries on.
            client.sample(lane, 0, 1.0).unwrap();
            let err = client.query_lane_stats().unwrap_err();
            assert!(err.to_string().contains("undefined lane"), "{err}");
        }
        client.lane_def(MAX_LANES - 1, &bed_lane_id()).unwrap();
        for event in scenario_events() {
            client.control(&event).unwrap();
        }
        client.sample(MAX_LANES - 1, 0, 1.0).unwrap();
        assert_eq!(client.query_lane_stats().unwrap().0.samples_ingested, 1);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn handles_do_not_outlive_the_plant_that_issued_them() {
        // `first` streams into the plant over lanes it resolved in the
        // order room, bed. A second connection finishes the plant, and —
        // its journal gone — re-creates it, resolving bed before room.
        let (svc, storage) = plant_and_its_storage();
        let (handle, join) = spawn_server_with(svc);
        let addr = handle.local_addr();
        let released = |client: &mut Client| -> BTreeMap<LaneId, u64> {
            let (_, lanes) = client.query_lane_stats().unwrap();
            lanes.into_iter().map(|(id, l)| (id, l.released)).collect()
        };
        let open_phase = |client: &mut Client| {
            for event in scenario_events() {
                client.control(&event).unwrap();
            }
        };
        let mut first = Client::connect(addr).unwrap();
        assert!(!first.admit("p", false).unwrap(), "recovered, empty");
        first.lane_def(1, &room_lane_id()).unwrap();
        first.lane_def(2, &bed_lane_id()).unwrap();
        open_phase(&mut first);
        first.sample(1, 0, 20.0).unwrap();
        first.sample(2, 0, 1.0).unwrap();
        let both = BTreeMap::from([(bed_lane_id(), 1), (room_lane_id(), 1)]);
        assert_eq!(released(&mut first), both);

        let mut second = Client::connect(addr).unwrap();
        assert!(!second.admit("p", false).unwrap());
        second.finish().unwrap();
        // Between the incarnations there is no plant: turned away, typed.
        first.sample(1, 1, 20.0).unwrap();
        match first.query_lane_stats() {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Missing, "{e}"),
            other => panic!("expected Missing, got {other:?}"),
        }
        for name in storage.list().unwrap() {
            storage.remove(&name).unwrap();
        }
        assert!(second.admit("p", true).unwrap(), "a new incarnation");
        second.lane_def(1, &bed_lane_id()).unwrap();
        second.lane_def(2, &room_lane_id()).unwrap();
        open_phase(&mut second);
        second.sample(1, 0, 1.0).unwrap();
        second.sample(2, 0, 20.0).unwrap();
        assert_eq!(released(&mut second), both);

        // `first` still holds room → 0, bed → 1; the plant now has them
        // the other way round. Three more room samples, one more bed.
        for t in 1..4 {
            first.sample(1, t, 20.0).unwrap();
        }
        first.sample(2, 1, 1.0).unwrap();
        let after = BTreeMap::from([(bed_lane_id(), 2), (room_lane_id(), 4)]);
        assert_eq!(released(&mut first), after);
        handle.shutdown();
        join.join().unwrap();
    }

    /// What the gated plant's storage tells the test.
    enum Event {
        /// A `sync` of the plant's WAL is parked at the turnstile.
        Parked,
        FloodDone,
    }

    /// A turnstile in front of every `sync` of the plant's WAL: while it
    /// turns, a sync says it is parked and waits to be let through, one
    /// at a time.
    struct Gate {
        /// (syncs let through but not yet passed, still turning)
        state: Mutex<(u64, bool)>,
        moved: Condvar,
        events: Mutex<mpsc::Sender<Event>>,
    }

    impl Gate {
        fn let_one_through(&self) {
            self.state.lock().unwrap().0 += 1;
            self.moved.notify_all();
        }

        fn turning(&self, turning: bool) {
            self.state.lock().unwrap().1 = turning;
            self.moved.notify_all();
        }

        fn pass(&self) {
            let mut state = self.state.lock().unwrap();
            if state.1 {
                self.events.lock().unwrap().send(Event::Parked).unwrap();
            }
            while state.1 && state.0 == 0 {
                state = self.moved.wait(state).unwrap();
            }
            state.0 = state.0.saturating_sub(1);
        }
    }

    struct GatedFactory(MemFactory, Arc<Gate>);
    struct Gated(MemStorage, Arc<Gate>);
    struct GatedFile(Box<dyn StorageFile>, Arc<Gate>);

    impl StorageFile for GatedFile {
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.0.append(bytes)
        }
        fn sync(&mut self) -> io::Result<()> {
            self.1.pass();
            self.0.sync()
        }
    }

    impl Storage for Gated {
        fn list(&self) -> io::Result<Vec<String>> {
            self.0.list()
        }
        fn read(&self, name: &str) -> io::Result<Vec<u8>> {
            self.0.read(name)
        }
        fn create(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
            let file = self.0.create(name)?;
            Ok(Box::new(GatedFile(file, Arc::clone(&self.1))))
        }
        fn open_append(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
            let file = self.0.open_append(name)?;
            Ok(Box::new(GatedFile(file, Arc::clone(&self.1))))
        }
        fn rename(&self, from: &str, to: &str) -> io::Result<()> {
            self.0.rename(from, to)
        }
        fn remove(&self, name: &str) -> io::Result<()> {
            self.0.remove(name)
        }
    }

    impl StorageFactory for GatedFactory {
        type Storage = Gated;

        fn open_shard(&self, tenant: &str, shard: usize) -> io::Result<Gated> {
            Ok(Gated(
                self.0.open_shard(tenant, shard)?,
                Arc::clone(&self.1),
            ))
        }
        fn list_tenants(&self) -> io::Result<Vec<String>> {
            self.0.list_tenants()
        }
        fn shard_count(&self, tenant: &str) -> io::Result<usize> {
            self.0.shard_count(tenant)
        }
    }

    #[test]
    fn lane_stats_totals_and_lanes_are_one_snapshot() {
        // A second connection floods the plant's room lane and parks in
        // every group commit — mid-run, the plant held — until the test
        // lets that one sync through; the first connection asks for the
        // lane stats over and over beside it. Wherever an answer falls
        // among the flood's runs, its totals are the sums of its lanes.
        // (That the answer is one service call, hence one acquisition of
        // the plant, is pinned without a race in `conn.rs`'s unit tests.)
        const FLOOD: u64 = 64 * 12;
        let (events, happened) = mpsc::channel();
        let gate = Arc::new(Gate {
            state: Mutex::new((0, false)),
            moved: Condvar::new(),
            events: Mutex::new(events.clone()),
        });
        let factory = GatedFactory(MemFactory::new(), Arc::clone(&gate));
        let svc =
            RegistryService::open(factory, AlgorithmPolicy::default(), TenantConfig::default())
                .unwrap();
        let (handle, join) = spawn_server_with(svc);
        let addr = handle.local_addr();
        let mut asker = Client::connect(addr).unwrap();
        asker.admit("p", true).unwrap();
        let [up, ..] = <[ControlEvent; 3]>::try_from(scenario_events()).unwrap();
        asker.control(&up).unwrap();
        asker.query_lane_stats().unwrap();

        gate.turning(true);
        let flooding = thread::spawn(move || {
            let mut flooder = Client::connect(addr).unwrap();
            flooder.admit("p", false).unwrap();
            flooder.lane_def(1, &room_lane_id()).unwrap();
            // A write per sample: many short runs, so many chances for
            // an ingest to fall between two reads of the plant.
            for t in 0..FLOOD {
                flooder.sample(1, t, 20.0).unwrap();
                flooder.flush().unwrap();
            }
            let (stats, _) = flooder.query_lane_stats().unwrap();
            events.send(Event::FloodDone).unwrap();
            stats.samples_ingested
        });
        let asking = thread::spawn(move || {
            let mut answers = 0_u64;
            loop {
                let (stats, lanes) = asker.query_lane_stats().unwrap();
                answers += 1;
                let by_lane: u64 = lanes
                    .iter()
                    .map(|(_, l)| l.released + l.late_dropped + l.duplicates_dropped)
                    .sum();
                assert_eq!(
                    stats.samples_released + stats.late_dropped + stats.duplicates_dropped,
                    by_lane,
                    "answer {answers}: {stats:?} vs {lanes:?}"
                );
                if stats.samples_ingested == FLOOD {
                    return answers;
                }
            }
        });
        let mut parked = 0;
        loop {
            match happened.recv_timeout(Duration::from_secs(20)) {
                Ok(Event::Parked) => {
                    parked += 1;
                    gate.let_one_through();
                }
                Ok(Event::FloodDone) => break,
                Err(_) => panic!("the flood stalled after {parked} parked syncs"),
            }
        }
        gate.turning(false);
        assert_eq!(flooding.join().unwrap(), FLOOD);
        assert!(asking.join().unwrap() >= 1);
        assert_eq!(parked, FLOOD / 64, "one park per group commit");
        handle.shutdown();
        join.join().unwrap();
    }
}
