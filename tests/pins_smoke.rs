//! Tier-1 smoke of the byte-identical equivalence pins: one small case
//! of each, through the public facade, so the root package's bare
//! `cargo test` fails when a driver call site bends a pin. The full
//! suites (crash sweeps, proptests, fuzzing) live in the member crates:
//! `tenant_equivalence` (which also holds cached tick ≡ fresh-replay
//! tick), `store_recovery`, `tenant_recovery`, `wire_equivalence`,
//! `history_equivalence`, `adapt_equivalence`.
//! `served_runs_equal_per_record_ingest` is the small case of
//! `wire_equivalence`'s fragmentation pin, and
//! `aborted_rotation_recovers_and_range_scan_answers` of
//! `history_equivalence`'s snapshot ≡ recovery sweep.
//! `unresolvable_policy_is_rejected_at_construction` is not an equivalence
//! pin but rides here because tier-1 runs only this package: a policy the
//! first tick would reject must never get as far as a tick.

use std::collections::BTreeMap;
use std::thread;

use hierod::adapt::AdaptiveStream;
use hierod::core::AlgorithmPolicy;
use hierod::detect::DetectError;
use hierod::server::{Client, Server, ServerConfig};
use hierod::service::{PlantService, RegistryService};
use hierod::store::tenants::MemFactory;
use hierod::store::{MemStorage, StoreOptions};
use hierod::stream::{
    ControlEvent, DurableStream, PlantRegistry, StreamConfig, StreamDetector, StreamEvent,
    TenantConfig,
};
use hierod::synth::ScenarioBuilder;
use hierod::wire::encode_report;

/// One machine, two jobs, redundant sensors, an anomaly in every job.
fn script(seed: u64) -> Vec<StreamEvent> {
    let scenario = ScenarioBuilder::new(seed)
        .machines(1)
        .jobs_per_machine(2)
        .redundancy(2)
        .phase_samples(24)
        .anomaly_rate(1.0)
        .build();
    scenario
        .replay()
        .into_iter()
        .map(StreamEvent::from)
        .collect()
}

/// `$d.control([$plant,] event)` / `$d.ingest([$plant,] lane, sample)`
/// for every event — the two-arm driver every layer shares.
macro_rules! drive {
    ($d:expr, $events:expr $(, $plant:expr)?) => {{
        let driven = &mut $d;
        for event in $events {
            match event {
                StreamEvent::Control(c) => driven.control($($plant,)? c).expect("control"),
                StreamEvent::Sample(lane, s) => {
                    driven.ingest($($plant,)? lane, *s).expect("ingest")
                }
            }
        }
    }};
}

/// A bare, in-memory detector that has seen `events`.
fn detector_after(events: &[StreamEvent]) -> StreamDetector {
    let mut det =
        StreamDetector::new(AlgorithmPolicy::default(), StreamConfig::default()).expect("detector");
    feed(&mut det, events);
    det
}

fn feed(det: &mut StreamDetector, events: &[StreamEvent]) {
    for event in events {
        match event {
            StreamEvent::Control(c) => det.apply(c).expect("control"),
            StreamEvent::Sample(lane, s) => det.ingest(lane, *s).expect("ingest"),
        }
    }
}

/// The reference every pin compares against: the bare, in-memory
/// detector's finish report, as wire bytes (covers every score bit).
fn reference(events: &[StreamEvent]) -> Vec<u8> {
    let report = detector_after(events).finish().expect("finish");
    assert!(!report.report.is_empty(), "a pin over no outliers is weak");
    encode_report(&report)
}

fn registry(factory: MemFactory) -> PlantRegistry<MemFactory> {
    PlantRegistry::open(factory, AlgorithmPolicy::default(), TenantConfig::default())
        .expect("registry")
        .0
}

fn service() -> RegistryService<MemFactory> {
    service_on(MemFactory::new())
}

fn service_on(factory: MemFactory) -> RegistryService<MemFactory> {
    RegistryService::open(factory, AlgorithmPolicy::default(), TenantConfig::default())
        .expect("service")
}

#[test]
fn tenant_equals_bare_detector() {
    let events = script(42);
    let mut reg = registry(MemFactory::new());
    drive!(reg.create_tenant("p").expect("tenant"), &events);
    let report = reg.finish_tenant("p").expect("finish");
    assert_eq!(encode_report(&report), reference(&events));
}

/// A long-lived detector shares frozen jobs into every later report; a
/// fresh detector that replayed the same prefix has nothing cached.
#[test]
fn cached_tick_equals_fresh_replay_tick() {
    let events = script(42);
    let mut long_lived = detector_after(&[]);
    let mut ticks = 0;
    for (i, event) in events.iter().enumerate() {
        feed(&mut long_lived, std::slice::from_ref(event));
        let completed = matches!(
            event,
            StreamEvent::Control(ControlEvent::JobComplete { .. })
        );
        if completed || i == events.len() / 2 {
            let cached = long_lived.tick().expect("tick");
            let fresh = detector_after(&events[..=i]).tick().expect("fresh tick");
            assert!(
                encode_report(&cached) == encode_report(&fresh),
                "tick after event {i} diverged from a fresh replay"
            );
            ticks += 1;
        }
    }
    assert_eq!(ticks, 3, "mid-job, after job 1, after job 2");
}

#[test]
fn crash_recover_equals_uninterrupted() {
    let events = script(42);
    let (before, after) = events.split_at(events.len() / 2);
    let mut reg = registry(MemFactory::new());
    drive!(reg.create_tenant("p").expect("tenant"), before);
    // The tick is the durability point; the crash keeps fsynced bytes only.
    reg.tenant_mut("p").expect("tenant").tick().expect("tick");
    let mut reg = registry(reg.factory().crash_image(false));
    drive!(reg.tenant_mut("p").expect("recovered tenant"), after);
    let report = reg.finish_tenant("p").expect("finish");
    assert_eq!(encode_report(&report), reference(&events));
}

#[test]
fn tenants_are_isolated() {
    let (a, b) = (script(42), script(7));
    let mut reg = registry(MemFactory::new());
    drop(reg.create_tenant("a"));
    drop(reg.create_tenant("b"));
    // Interleave the two plants' streams event by event.
    for (ea, eb) in a.iter().zip(&b) {
        drive!(reg.tenant_mut("a").expect("a"), [ea]);
        drive!(reg.tenant_mut("b").expect("b"), [eb]);
    }
    drive!(reg.tenant_mut("a").expect("a"), a.iter().skip(b.len()));
    drive!(reg.tenant_mut("b").expect("b"), b.iter().skip(a.len()));
    let report_a = reg.finish_tenant("a").expect("finish a");
    let report_b = reg.finish_tenant("b").expect("finish b");
    assert_eq!(encode_report(&report_a), reference(&a));
    assert_eq!(encode_report(&report_b), reference(&b));
}

#[test]
fn wire_equals_embedded() {
    let events = script(42);
    let server = Server::bind(service(), ServerConfig::default()).expect("bind");
    let handle = server.handle();
    let join = thread::spawn(move || server.serve().expect("serve"));
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.admit("p", true).expect("admit");
    let mut lanes = BTreeMap::new();
    for event in &events {
        match event {
            StreamEvent::Control(c) => client.control(c).expect("control"),
            StreamEvent::Sample(lane, s) => {
                let next = lanes.len() as u32;
                let no = *lanes.entry(lane).or_insert_with(|| {
                    client.lane_def(next, lane).expect("lane def");
                    next
                });
                client.sample(no, s.timestamp, s.value).expect("sample");
            }
        }
    }
    let (_, wire_bytes) = client.finish().expect("finish");
    handle.shutdown();
    join.join().expect("server thread");

    let mut svc = service();
    svc.admit("p", true).expect("admit");
    drive!(svc, &events, "p");
    let embedded = svc.finish("p").expect("finish");
    assert_eq!(wire_bytes, encode_report(&embedded));
    assert_eq!(wire_bytes, reference(&events));
}

/// The server applies what each read delivered as one run; however TCP
/// cuts the stream up, the report is the per-record one.
#[test]
fn served_runs_equal_per_record_ingest() {
    use hierod::store::wal::WalRecord;
    use hierod::stream::codec::{encode_control, encode_lane};
    use hierod::wire::{Frame, FrameReader, Poll};
    use std::io::Write;

    let events = script(42);
    let mut stream = Vec::new();
    let mut lanes = BTreeMap::new();
    let mut put = |record| Frame::Ingest(record).encode(&mut stream);
    for (seq, event) in events.iter().enumerate() {
        match event {
            StreamEvent::Control(c) => put(WalRecord::Control {
                seq: seq as u64,
                payload: encode_control(c),
            }),
            StreamEvent::Sample(id, s) => {
                let next = lanes.len() as u32;
                let lane = *lanes.entry(id).or_insert_with(|| {
                    let meta = encode_lane(id);
                    put(WalRecord::LaneDef { lane: next, meta });
                    next
                });
                let (timestamp, value) = (s.timestamp, s.value);
                put(WalRecord::Sample {
                    lane,
                    timestamp,
                    value,
                });
            }
        }
    }
    Frame::Finish.encode(&mut stream);

    let server = Server::bind(service(), ServerConfig::default()).expect("bind");
    let handle = server.handle();
    let join = thread::spawn(move || server.serve().expect("serve"));
    for (plant, chunk) in [("bytes", 1), ("whole", stream.len())] {
        let mut socket = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
        socket.set_nodelay(true).expect("nodelay");
        let mut admit = Vec::new();
        let (plant, create) = (plant.to_string(), true);
        Frame::Admit { plant, create }.encode(&mut admit);
        socket.write_all(&admit).expect("admit");
        for piece in stream.chunks(chunk) {
            socket.write_all(piece).expect("write");
        }
        let mut reader = FrameReader::new();
        let mut replies = Vec::new();
        while replies.len() < 2 {
            if let Poll::Frame(reply) = reader.poll(&mut socket).expect("reply") {
                replies.push(reply);
            }
        }
        let [Frame::Ok { info: 1 }, Frame::Report { report, .. }] = &replies[..] else {
            panic!("admitted, then finished: {replies:?}");
        };
        assert!(
            *report == reference(&events),
            "written {chunk} bytes at a time"
        );
    }
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn backfill_equals_finish() {
    let events = script(42);
    let mut svc = service();
    svc.admit("p", true).expect("admit");
    drive!(svc, &events, "p");
    svc.rotate("p").expect("rotate");
    let replayed = svc.backfill("p", 0, u64::MAX, None).expect("backfill");
    let original = svc.finish("p").expect("finish");
    assert_eq!(
        format!("{:?}", replayed.report.report),
        format!("{:?}", original.report)
    );
    assert_eq!(encode_report(&original), reference(&events));
}

/// A rotation that dies between sealing its segment and starting the
/// next WAL leaves the segment beside the WAL it was sealed from.
/// Recovery ignores such a segment; so does every reader of the plant.
#[test]
fn aborted_rotation_recovers_and_range_scan_answers() {
    use hierod::history::RangeQuery;
    use hierod::store::Storage;

    let events = script(42);
    let (before, after) = events.split_at(events.len() / 2);
    let mut svc = service();
    svc.admit("p", true).expect("admit");
    drive!(svc, before, "p");
    svc.rotate("p").expect("rotate");
    drive!(svc, after, "p");
    svc.tick("p").expect("tick");

    // The next segment's length, from sealing it on a copy: the write
    // budget that lets exactly that much through kills the rotation on
    // the first byte of the next WAL.
    let probe = service_on(svc.registry().factory().crash_image(true));
    probe.rotate("p").expect("probe rotate");
    let shard = |svc: &RegistryService<MemFactory>| {
        let shard = svc.registry().factory().storage("p", 0);
        shard.expect("the plant's one shard")
    };
    let seg_len = shard(&probe).file_len("seg-1.seg").expect("sealed");
    shard(&svc).set_write_budget(Some(seg_len as u64));
    svc.rotate("p").expect_err("killed mid-rotation");

    let svc = service_on(svc.registry().factory().crash_image(false));
    let names = shard(&svc).list().expect("list");
    for name in ["seg-0.seg", "seg-1.seg", "wal-1.log"] {
        assert!(names.iter().any(|n| n == name), "{name} in {names:?}");
    }
    let query = RangeQuery::range(0, u64::MAX);
    let (_, scanned) = svc.range_scan("p", &query).expect("range scan");
    assert!(scanned.samples > 0, "the first rotation's samples");
    let report = svc.finish("p").expect("finish");
    assert_eq!(encode_report(&report), reference(&events));
}

#[test]
fn adaptive_passthrough_equals_plain() {
    let events = script(42);
    let (durable, _) = DurableStream::open(
        AlgorithmPolicy::default(),
        StreamConfig::default(),
        MemStorage::new(),
        StoreOptions::default(),
    )
    .expect("open");
    let mut stream = AdaptiveStream::passthrough(durable);
    drive!(stream, &events);
    assert!(stream.refit_log().is_empty());
    let report = stream.finish().expect("finish");
    assert_eq!(encode_report(&report), reference(&events));
}

/// The batch path resolves all five levels' specs before it scores
/// anything; a detector and a server must do so before they accept
/// anything.
#[test]
fn unresolvable_policy_is_rejected_at_construction() {
    let bad = AlgorithmPolicy {
        job: "ar".parse().expect("well-formed"),
        ..AlgorithmPolicy::default()
    };
    let invalid = |e: &DetectError| matches!(e, DetectError::InvalidParameter { .. });
    let det = StreamDetector::new(bad.clone(), StreamConfig::default());
    assert!(det.is_err_and(|e| invalid(&e)), "accepted by the detector");
    let svc = RegistryService::open(MemFactory::new(), bad, TenantConfig::default());
    assert!(svc.is_err_and(|e| invalid(&e)), "accepted by the service");
}
