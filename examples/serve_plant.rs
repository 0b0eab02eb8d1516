//! The layered network front-end end to end (DESIGN.md §4.16): start a
//! [`Server`] hosting a [`RegistryService`] over in-memory storage,
//! then drive a plant from a [`Client`] over a real TCP socket —
//! admission, lane definitions, control events, a firehose of
//! unacknowledged samples, a synchronous detection tick — and query
//! per-level scores, one series' score columns, per-lane stats,
//! versioned report deltas, and health, before draining the server
//! gracefully.
//!
//! ```sh
//! cargo run --release --example serve_plant
//! ```
//!
//! [`Server`]: hierod::server::Server
//! [`Client`]: hierod::server::Client
//! [`RegistryService`]: hierod::service::RegistryService

use std::thread;

use hierod::core::AlgorithmPolicy;
use hierod::hierarchy::{
    CaqResult, JobConfig, Level, PhaseKind, RedundancyGroup, Sensor, SensorKind,
};
use hierod::server::client::DeltaReply;
use hierod::server::{Client, Server, ServerConfig};
use hierod::service::RegistryService;
use hierod::store::tenants::MemFactory;
use hierod::stream::tenant::TenantConfig;
use hierod::stream::{ControlEvent, LaneId, LaneKind};
use hierod::wire::decode_report;

const MACHINE: &str = "m0";
const BED: &str = "m0.bed.0";
const BED_LANE: u32 = 1;

/// Quiet sinusoid with one injected spike at t = 20.
fn sample_at(t: u64) -> f64 {
    if t == 20 {
        60.0
    } else {
        (t as f64 * 0.4).sin()
    }
}

fn main() {
    // ── engine + service: the multi-plant registry behind the
    // PlantService seam, on in-memory storage for a self-contained demo.
    let svc = RegistryService::open(
        MemFactory::new(),
        AlgorithmPolicy::default(),
        TenantConfig::default(),
    )
    .expect("open service");

    // ── api: bind on an ephemeral port, serve on a background thread.
    let server = Server::bind(svc, ServerConfig::default()).expect("bind");
    let handle = server.handle();
    let serving = thread::spawn(move || server.serve().expect("serve"));
    let addr = handle.local_addr();
    println!("serving on {addr}\n");

    let mut client = Client::connect(addr).expect("connect");

    // Tenant admission: ids are validated server-side, so a traversal
    // attempt is refused at the wire before it can touch storage.
    let created = client.admit("plant-a", true).expect("admit");
    println!("admitted plant-a (created: {created})");
    let refused = client.admit("../evil", true);
    println!("admit \"../evil\" -> {}\n", refused.unwrap_err());

    // Stand up one machine with a single bed-temperature lane. Lane
    // definitions and control events ride the same unacknowledged
    // ingest path as samples (WAL-verbatim frames).
    client
        .lane_def(
            BED_LANE,
            &LaneId {
                machine: MACHINE.into(),
                sensor: BED.into(),
                kind: LaneKind::Phase,
            },
        )
        .expect("lane def");
    client
        .control(&ControlEvent::MachineUp {
            machine: MACHINE.into(),
            sensors: vec![Sensor::new(BED, SensorKind::BedTemperature)],
            redundancy: vec![RedundancyGroup::new(
                SensorKind::BedTemperature,
                vec![BED.into()],
            )],
            env_sensors: Vec::new(),
        })
        .expect("machine up");
    client
        .control(&ControlEvent::JobStart {
            machine: MACHINE.into(),
            job: "j0".into(),
            start: 0,
            config: JobConfig::new(vec!["p".into()], vec![1.0]),
        })
        .expect("job start");
    client
        .control(&ControlEvent::PhaseStart {
            machine: MACHINE.into(),
            kind: PhaseKind::WarmUp,
            sensors: vec![BED.to_string()],
        })
        .expect("phase start");

    // The firehose: samples are buffered client-side and never
    // individually acknowledged; any server-side failure is parked and
    // surfaces at the next synchronous request.
    for t in 0..32 {
        client.sample(BED_LANE, t, sample_at(t)).expect("sample");
    }
    client
        .control(&ControlEvent::JobComplete {
            machine: MACHINE.into(),
            caq: CaqResult::new(vec!["q".into()], vec![0.9], true),
        })
        .expect("job complete");

    // A synchronous detection round: drains the ingest stream, runs
    // the detector, and versions the plant's report cache.
    let (version, outliers) = client.tick().expect("tick");
    println!("tick -> report v{version}, {outliers} outlier(s)");

    // Per-level scores, straight off the report cache.
    let (_, phase_hits) = client.query_scores(Some(Level::Phase)).expect("scores");
    for o in &phase_hits {
        println!(
            "  phase outlier: machine={} sensor={} t={:?} outlierness={:.2} \
             support={:.2} global_score={}",
            o.machine,
            o.sensor.as_deref().unwrap_or("-"),
            o.timestamp,
            o.outlierness,
            o.support,
            o.global_score
        );
    }

    // Reports name every scored series but do not carry its per-sample
    // columns; fetch the bed sensor's phase-level robust z-scores around
    // the spike, cut to [16, 24], from the same report.
    let (_, series) = client
        .query_series(Some(Level::Phase), Some(MACHINE), Some(BED), 16, 24)
        .expect("series");
    for (level, s) in &series {
        let peak = s.z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "  {level:?} series {}/{}: {} score(s) in [16, 24], peak z={peak:.2}",
            s.machine,
            s.sensor,
            s.z.len()
        );
    }

    // Per-lane ingestion counters and stream-wide stats.
    let (stats, lanes) = client.query_lane_stats().expect("lane stats");
    println!(
        "\nstream stats: {} samples ingested, {} released, {} corrupt records",
        stats.samples_ingested, stats.samples_released, stats.corrupt_records
    );
    for (lane, ls) in &lanes {
        println!(
            "  lane {}/{}: {} released",
            lane.machine, lane.sensor, ls.released
        );
    }

    // Versioned delta queries: a dashboard holding v`version` learns it
    // is current without re-downloading the report; a cold client gets
    // a full resync.
    match client.query_deltas(version).expect("deltas") {
        DeltaReply::NoChange { version } => println!("\ndeltas since v{version}: no change"),
        other => println!("\ndeltas: {other:?}"),
    }
    let (version, _) = client.tick().expect("second tick");
    match client.query_deltas(version - 1).expect("deltas") {
        DeltaReply::Deltas {
            from,
            to,
            added,
            removed,
        } => println!(
            "deltas v{from}->v{to}: +{} -{} outlier(s)",
            added.len(),
            removed.len()
        ),
        other => println!("deltas: {other:?}"),
    }
    match client.query_deltas(0).expect("resync") {
        DeltaReply::Resync { version, report } => {
            let report = decode_report(&report).expect("decode report");
            let named: usize = report
                .detections
                .values()
                .map(|d| d.series_scores.len())
                .sum();
            println!(
                "cold resync -> report v{version} ({} outlier(s), {named} series named)",
                report.report.outliers.len()
            );
        }
        other => println!("resync: {other:?}"),
    }

    // Readiness health: live tenants vs tenants parked by recovery
    // failures — what a load balancer polls.
    let health = client.query_health().expect("health");
    println!(
        "health: {} live, {} failed, ready={}",
        health.live.len(),
        health.failed.len(),
        health.ready()
    );

    // Graceful drain: stop accepting, finish in-flight work, return
    // the serving statistics.
    drop(client);
    handle.shutdown();
    let stats = serving.join().expect("server thread");
    println!(
        "\ndrained: {} connection(s), {} frame(s) served",
        stats.connections, stats.frames
    );
}
