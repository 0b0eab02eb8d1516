//! A report's size follows the findings, not the history: a plant past
//! the point where reports that carried every series' score columns
//! outgrew one frame (≈ 5.9M samples) still ticks, answers a series query
//! and finishes over TCP.
//!
//! Ignored by default — it streams 6.5M samples. Run it in release mode:
//!
//! ```sh
//! cargo test --release -p hierod-server -- --ignored
//! ```

use std::thread;

use hierod_core::AlgorithmPolicy;
use hierod_hierarchy::{
    CaqResult, JobConfig, Level, PhaseKind, RedundancyGroup, Sensor, SensorKind,
};
use hierod_server::{Client, Server, ServerConfig};
use hierod_service::RegistryService;
use hierod_store::tenants::MemFactory;
use hierod_stream::tenant::TenantConfig;
use hierod_stream::{ControlEvent, LaneId, LaneKind};
use hierod_wire::{decode_report, MAX_FRAME_LEN};

const MACHINE: &str = "m0";
const SENSORS: [&str; 3] = ["m0.bed.0", "m0.bed.1", "m0.bed.2"];
const JOBS: u64 = 100;
const PHASE_SAMPLES: u64 = 21_700;

/// A noisy plateau per job with one spike on the first sensor.
fn value(job: u64, sensor: usize, i: u64) -> f64 {
    if sensor == 0 && i == PHASE_SAMPLES / 2 && job % 7 == 0 {
        return 90.0;
    }
    let x = (job * PHASE_SAMPLES + i) as f64;
    60.0 + (x * 0.37).sin() + 0.2 * (x * 1.3 + sensor as f64).cos()
}

#[test]
#[ignore = "streams 6.5M samples; run with --release -- --ignored"]
fn a_plant_past_the_old_report_cap_ticks_queries_and_finishes() {
    let svc = RegistryService::open(
        MemFactory::new(),
        AlgorithmPolicy::default(),
        TenantConfig::default(),
    )
    .unwrap();
    let server = Server::bind(svc, ServerConfig::default()).unwrap();
    let handle = server.handle();
    let serving = thread::spawn(move || server.serve().unwrap());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert!(client.admit("big", true).unwrap());

    for (lane, sensor) in SENSORS.iter().enumerate() {
        let id = LaneId {
            machine: MACHINE.into(),
            sensor: (*sensor).into(),
            kind: LaneKind::Phase,
        };
        client.lane_def(lane as u32 + 1, &id).unwrap();
    }
    client
        .control(&ControlEvent::MachineUp {
            machine: MACHINE.into(),
            sensors: SENSORS
                .iter()
                .map(|s| Sensor::new(*s, SensorKind::BedTemperature))
                .collect(),
            redundancy: vec![RedundancyGroup::new(
                SensorKind::BedTemperature,
                SENSORS.iter().map(|s| s.to_string()).collect(),
            )],
            env_sensors: Vec::new(),
        })
        .unwrap();
    for job in 0..JOBS {
        let start = job * PHASE_SAMPLES;
        client
            .control(&ControlEvent::JobStart {
                machine: MACHINE.into(),
                job: format!("j{job}"),
                start,
                config: JobConfig::new(vec!["p".into()], vec![job as f64]),
            })
            .unwrap();
        client
            .control(&ControlEvent::PhaseStart {
                machine: MACHINE.into(),
                kind: PhaseKind::Printing,
                sensors: SENSORS.iter().map(|s| s.to_string()).collect(),
            })
            .unwrap();
        for i in 0..PHASE_SAMPLES {
            for sensor in 0..SENSORS.len() {
                let v = value(job, sensor, i);
                client.sample(sensor as u32 + 1, start + i, v).unwrap();
            }
        }
        client
            .control(&ControlEvent::JobComplete {
                machine: MACHINE.into(),
                caq: CaqResult::new(vec!["q".into()], vec![0.9], true),
            })
            .unwrap();
    }
    let samples = JOBS * PHASE_SAMPLES * SENSORS.len() as u64;
    assert!(samples >= 6_500_000);

    let (version, outliers) = client.tick().unwrap();
    assert!(outliers > 0, "the spikes are found");

    // One series of one job, in full: the columns the report leaves out.
    let job = 42;
    let (from, to) = (job * PHASE_SAMPLES, (job + 1) * PHASE_SAMPLES - 1);
    let (at, series) = client
        .query_series(
            Some(Level::Phase),
            Some(MACHINE),
            Some(SENSORS[1]),
            from,
            to,
        )
        .unwrap();
    assert_eq!(at, version);
    let [(_, s)] = &series[..] else {
        panic!("one phase series of job {job}, got {}", series.len());
    };
    assert_eq!(s.job.as_deref(), Some("j42"));
    assert_eq!(s.z.len() as u64, PHASE_SAMPLES);
    assert_eq!(s.timestamps.first(), Some(&from));

    let (_, bytes) = client.finish().unwrap();
    assert!(
        bytes.len() < MAX_FRAME_LEN as usize / 16,
        "{} report bytes for {samples} samples",
        bytes.len()
    );
    let report = decode_report(&bytes).unwrap();
    assert_eq!(report.stats.samples_ingested, samples);
    assert!(!report.report.outliers.is_empty());
    drop(client);
    handle.shutdown();
    serving.join().unwrap();
}
