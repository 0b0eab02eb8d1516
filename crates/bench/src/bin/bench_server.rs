//! bench_server — the layered network front-end under concurrent load:
//! sustained request/s, ingest samples/s, and end-to-end latency
//! through api (TCP) → service → engine.
//!
//! Three experiments, summary committed under `results/bench_server.md`:
//!
//! 1. **Ingest throughput** — C connections (1/4/16), each driving its
//!    own plant: lane defs + controls, then a firehose of unacknowledged
//!    sample frames, closed by a synchronous finish. Aggregate
//!    samples/s over the wall time of the slowest connection.
//! 2. **Request throughput + latency** — 16 connections issuing
//!    synchronous `QueryLaneStats` round trips against live plants;
//!    per-request latencies pooled for p50/p99, aggregate requests/s.
//! 3. **Mixed hot path** — 16 connections interleaving sample bursts
//!    with periodic `Tick` + `QueryScores`, the monitoring-dashboard
//!    shape: ingest dominates, queries must stay responsive.

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use hierod_core::AlgorithmPolicy;
use hierod_hierarchy::{CaqResult, JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
use hierod_server::{Client, Server, ServerConfig, ServerHandle, ServerStats};
use hierod_service::RegistryService;
use hierod_store::tenants::MemFactory;
use hierod_stream::tenant::TenantConfig;
use hierod_stream::{ControlEvent, LaneId, LaneKind};

/// Deterministic noisy signal, decorrelated per lane.
fn signal(t: u64, lane: u64) -> f64 {
    let mut s = t
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(lane.wrapping_mul(0xd134_2543_de82_ef95) | 1);
    s ^= s >> 33;
    (t as f64 * 0.05).sin() + (s & 0xffff) as f64 / 65536.0 - 0.5
}

fn spawn_server(workers: usize) -> (ServerHandle, thread::JoinHandle<ServerStats>) {
    let svc = RegistryService::open(
        MemFactory::new(),
        AlgorithmPolicy::default(),
        TenantConfig::default(),
    )
    .expect("open service");
    let server = Server::bind(
        svc,
        ServerConfig {
            workers,
            accept_queue: 128,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.handle();
    let join = thread::spawn(move || server.serve().expect("serve"));
    (handle, join)
}

/// Admits `plant` and stands up `lanes` printing-phase lanes on it.
fn stand_up_plant(client: &mut Client, plant: &str, lanes: usize) -> Vec<u32> {
    client.admit(plant, true).expect("admit");
    let machine = "m0";
    let names: Vec<String> = (0..lanes).map(|s| format!("{machine}.bed.{s}")).collect();
    client
        .control(&ControlEvent::MachineUp {
            machine: machine.into(),
            sensors: names
                .iter()
                .map(|n| Sensor::new(n, SensorKind::BedTemperature))
                .collect(),
            redundancy: vec![RedundancyGroup::new(
                SensorKind::BedTemperature,
                names.clone(),
            )],
            env_sensors: Vec::new(),
        })
        .expect("machine up");
    client
        .control(&ControlEvent::JobStart {
            machine: machine.into(),
            job: "j0".into(),
            start: 0,
            config: JobConfig::new(vec!["p".into()], vec![1.0]),
        })
        .expect("job start");
    client
        .control(&ControlEvent::PhaseStart {
            machine: machine.into(),
            kind: PhaseKind::Printing,
            sensors: names.clone(),
        })
        .expect("phase start");
    let lane_ids: Vec<u32> = (1..=lanes as u32).collect();
    for (no, name) in lane_ids.iter().zip(&names) {
        client
            .lane_def(
                *no,
                &LaneId {
                    machine: machine.into(),
                    sensor: name.clone(),
                    kind: LaneKind::Phase,
                },
            )
            .expect("lane def");
    }
    lane_ids
}

fn close_plant(client: &mut Client) {
    client
        .control(&ControlEvent::JobComplete {
            machine: "m0".into(),
            caq: CaqResult::new(vec!["q".into()], vec![0.95], true),
        })
        .expect("job complete");
    client.finish().expect("finish");
}

/// Experiment 1: aggregate ingest samples/s at `conns` connections.
fn run_ingest(
    addr: SocketAddr,
    tag: &'static str,
    conns: usize,
    lanes: usize,
    samples_per_lane: u64,
) -> f64 {
    let start = Instant::now();
    let workers: Vec<_> = (0..conns)
        .map(|c| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let lane_ids = stand_up_plant(&mut client, &format!("{tag}-{c}"), lanes);
                for t in 0..samples_per_lane {
                    for (i, lane) in lane_ids.iter().enumerate() {
                        client
                            .sample(*lane, t, signal(t, i as u64))
                            .expect("sample");
                    }
                }
                close_plant(&mut client);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("ingest worker");
    }
    let total = (conns * lanes) as f64 * samples_per_lane as f64;
    total / start.elapsed().as_secs_f64()
}

/// Experiment 2: request round trips; returns (req/s, p50, p99).
fn run_requests(
    addr: SocketAddr,
    tag: &'static str,
    conns: usize,
    requests: usize,
) -> (f64, Duration, Duration) {
    let start = Instant::now();
    let workers: Vec<_> = (0..conns)
        .map(|c| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                stand_up_plant(&mut client, &format!("{tag}-{c}"), 2);
                let mut lat = Vec::with_capacity(requests);
                for _ in 0..requests {
                    let t0 = Instant::now();
                    client.query_lane_stats().expect("query");
                    lat.push(t0.elapsed());
                }
                close_plant(&mut client);
                lat
            })
        })
        .collect();
    let mut lat: Vec<Duration> = Vec::with_capacity(conns * requests);
    for w in workers {
        lat.extend(w.join().expect("request worker"));
    }
    let elapsed = start.elapsed().as_secs_f64();
    lat.sort();
    let pick = |q: f64| lat[((lat.len() - 1) as f64 * q) as usize];
    (lat.len() as f64 / elapsed, pick(0.50), pick(0.99))
}

/// Experiment 3: bursts of samples punctuated by Tick + QueryScores;
/// returns (samples/s, p99 of the synchronous tick+query pair).
fn run_mixed(
    addr: SocketAddr,
    tag: &'static str,
    conns: usize,
    lanes: usize,
    bursts: usize,
    burst: u64,
) -> (f64, Duration) {
    let start = Instant::now();
    let workers: Vec<_> = (0..conns)
        .map(|c| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let lane_ids = stand_up_plant(&mut client, &format!("{tag}-{c}"), lanes);
                let mut lat = Vec::with_capacity(bursts);
                for b in 0..bursts as u64 {
                    for t in b * burst..(b + 1) * burst {
                        for (i, lane) in lane_ids.iter().enumerate() {
                            client
                                .sample(*lane, t, signal(t, i as u64))
                                .expect("sample");
                        }
                    }
                    let t0 = Instant::now();
                    let (version, _) = client.tick().expect("tick");
                    client.query_scores(None).expect("scores");
                    lat.push(t0.elapsed());
                    assert_eq!(version, b + 1);
                }
                close_plant(&mut client);
                lat
            })
        })
        .collect();
    let mut lat = Vec::new();
    for w in workers {
        lat.extend(w.join().expect("mixed worker"));
    }
    let elapsed = start.elapsed().as_secs_f64();
    lat.sort();
    let p99 = lat[((lat.len() - 1) as f64 * 0.99) as usize];
    let total = (conns * lanes) as f64 * (bursts as u64 * burst) as f64;
    (total / elapsed, p99)
}

fn fmt(rate: f64) -> String {
    let n = rate.round() as u64;
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

fn ms(d: Duration) -> String {
    format!("{:.3}ms", d.as_secs_f64() * 1e3)
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = cores.clamp(4, 16);
    println!("# bench_server — cores available: {cores}, server workers: {workers}");
    println!();

    println!("## ingest throughput (4 lanes/plant, 8,000 samples/lane)");
    println!("{:<14} {:>16}", "connections", "samples/s");
    for conns in [1_usize, 4, 16] {
        let (handle, join) = spawn_server(workers);
        // Warm-up pass on a throwaway scale.
        run_ingest(handle.local_addr(), "warm", conns.min(2), 2, 500);
        let rate = run_ingest(handle.local_addr(), "plant", conns, 4, 8_000);
        handle.shutdown();
        join.join().expect("server");
        println!("{:<14} {:>16}", conns, fmt(rate));
    }
    println!();

    println!("## synchronous requests (16 connections, QueryLaneStats x 400 each)");
    let (handle, join) = spawn_server(workers);
    run_requests(handle.local_addr(), "warm", 4, 50); // warm-up
    let (rps, p50, p99) = run_requests(handle.local_addr(), "qplant", 16, 400);
    handle.shutdown();
    join.join().expect("server");
    println!(
        "{:>14} req/s   p50 {:>10}   p99 {:>10}",
        fmt(rps),
        ms(p50),
        ms(p99)
    );
    println!();

    println!("## mixed hot path (16 connections, 4 lanes, 8 bursts x 1,024 samples + tick/query)");
    let (handle, join) = spawn_server(workers);
    run_mixed(handle.local_addr(), "warm", 2, 2, 2, 256); // warm-up
    let (rate, p99) = run_mixed(handle.local_addr(), "mplant", 16, 4, 8, 1_024);
    let stats = {
        handle.shutdown();
        join.join().expect("server")
    };
    println!(
        "{:>14} samples/s   tick+query p99 {:>10}   frames {:>12}",
        fmt(rate),
        ms(p99),
        fmt(stats.frames as f64)
    );
}
