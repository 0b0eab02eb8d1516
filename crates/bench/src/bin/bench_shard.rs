//! B11 — sharded streaming: what hash routing, control broadcast and the
//! fixed-order merge cost the inline durable driver.
//!
//! One scenario, three topologies on the calling thread, summary
//! committed under `results/bench_shard.md`:
//!
//! 1. **Unsharded** — one store-less `StreamDetector` scoring every
//!    lane.
//! 2. **`Tenant(1)`** — the production driver, a durable `Tenant` over
//!    `MemStorage` with one shard: the gap to row 1 prices the journal.
//! 3. **`Tenant(4)`** — the same with four shards: the 4-vs-1 gap
//!    isolates the hash-routing + broadcast + fixed-order merge
//!    machinery (the served-plant ladder in `benchmark/` runs a 1-shard
//!    tenant and so does not report it).
//!
//! All runs use `ScorerMode::Incremental` (rolling robust-z, w=256, on
//! every phase lane) so per-sample scorer work dominates.

use std::time::Instant;

use hierod_core::AlgorithmPolicy;
use hierod_hierarchy::{CaqResult, JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
use hierod_store::tenants::MemFactory;
use hierod_stream::{
    ControlEvent, LaneId, LaneKind, PlantRegistry, Sample, ScorerMode, StreamConfig,
    StreamDetector, TenantConfig,
};

/// Deterministic noisy signal: cheap to generate, non-trivial to score.
fn signal(t: u64, lane: u64) -> f64 {
    let mut s = t
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(lane.wrapping_mul(0xd134_2543_de82_ef95) | 1);
    s ^= s >> 33;
    (t as f64 * 0.05).sin() + (s & 0xffff) as f64 / 65536.0 - 0.5
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        lateness: 0,
        mode: ScorerMode::Incremental,
    }
}

/// One plant's event stream: `machines` machines, one job each, one
/// printing phase covering `sensors_per_machine` lanes, `samples` per
/// lane pushed round-robin in 64-sample bursts (the synth replay
/// interleaving, minus the replay overhead).
struct Workload {
    controls_up: Vec<ControlEvent>,
    controls_down: Vec<ControlEvent>,
    lanes: Vec<LaneId>,
    samples: u64,
}

impl Workload {
    fn new(machines: usize, sensors_per_machine: usize, samples: u64) -> Self {
        let mut controls_up = Vec::new();
        let mut controls_down = Vec::new();
        let mut lanes = Vec::new();
        for m in 0..machines {
            let machine = format!("m{m}");
            let names: Vec<String> = (0..sensors_per_machine)
                .map(|s| format!("{machine}.bed.{s}"))
                .collect();
            controls_up.push(ControlEvent::machine_up(
                &machine,
                names
                    .iter()
                    .map(|n| Sensor::new(n, SensorKind::BedTemperature))
                    .collect(),
                vec![RedundancyGroup::new(
                    SensorKind::BedTemperature,
                    names.clone(),
                )],
                &[],
            ));
            controls_up.push(ControlEvent::job_start(
                &machine,
                "j0",
                0,
                JobConfig::new(vec!["p".into()], vec![1.0]),
            ));
            controls_up.push(ControlEvent::phase_start(
                &machine,
                PhaseKind::Printing,
                &names,
            ));
            controls_down.push(ControlEvent::job_complete(
                &machine,
                CaqResult::new(vec!["q".into()], vec![0.95], true),
            ));
            for name in names {
                lanes.push(LaneId {
                    machine: machine.clone(),
                    sensor: name,
                    kind: LaneKind::Phase,
                });
            }
        }
        Workload {
            controls_up,
            controls_down,
            lanes,
            samples,
        }
    }

    fn total_samples(&self) -> u64 {
        self.samples * self.lanes.len() as u64
    }

    /// Calls `sink(lane_index, sample)` for every sample in round-robin
    /// burst order.
    fn for_each_sample(&self, mut sink: impl FnMut(usize, Sample)) {
        const BURST: u64 = 512;
        let mut t = 0;
        while t < self.samples {
            let end = (t + BURST).min(self.samples);
            for (i, _) in self.lanes.iter().enumerate() {
                for ts in t..end {
                    sink(
                        i,
                        Sample {
                            timestamp: ts,
                            value: signal(ts, i as u64),
                        },
                    );
                }
            }
            t = end;
        }
    }
}

/// Everything on the calling thread, no shards, no journal.
fn run_unsharded(w: &Workload) -> f64 {
    let mut det =
        StreamDetector::new(AlgorithmPolicy::default(), stream_config()).expect("detector");
    let start = Instant::now();
    for ev in &w.controls_up {
        det.apply(ev).expect("control");
    }
    w.for_each_sample(|i, sample| det.ingest(&w.lanes[i], sample).expect("ingest"));
    for ev in &w.controls_down {
        det.apply(ev).expect("control");
    }
    let report = det.finish().expect("finish");
    assert_eq!(report.stats.samples_ingested, w.total_samples());
    w.total_samples() as f64 / start.elapsed().as_secs_f64()
}

/// The inline durable driver at `shards` shards, still one thread.
fn run_tenant(w: &Workload, shards: usize) -> f64 {
    let config = TenantConfig {
        shards,
        stream: stream_config(),
        ..TenantConfig::default()
    };
    let (mut registry, _) =
        PlantRegistry::open(MemFactory::new(), AlgorithmPolicy::default(), config)
            .expect("registry");
    let tenant = registry.create_tenant("plant").expect("tenant");
    let start = Instant::now();
    for ev in &w.controls_up {
        tenant.control(ev).expect("control");
    }
    w.for_each_sample(|i, sample| tenant.ingest(&w.lanes[i], sample).expect("ingest"));
    for ev in &w.controls_down {
        tenant.control(ev).expect("control");
    }
    let report = registry.finish_tenant("plant").expect("finish");
    assert_eq!(report.stats.samples_ingested, w.total_samples());
    w.total_samples() as f64 / start.elapsed().as_secs_f64()
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

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("# bench_shard — cores available: {cores}");
    println!();

    // 4 machines × 4 sensors = 16 lanes.
    let w = Workload::new(4, 4, 25_000);
    println!(
        "# scenario: 4 machines x 4 sensors, {} samples/lane, {} total",
        w.samples,
        w.total_samples()
    );
    let small = Workload::new(4, 4, 2_000);
    run_unsharded(&small); // warm-up
    let unsharded = run_unsharded(&w);
    println!(
        "{:<40} {:>14} {:>13}",
        "topology", "samples/s", "vs unsharded"
    );
    println!(
        "{:<40} {:>14} {:>12.2}x",
        "unsharded StreamDetector (store-less)",
        fmt(unsharded),
        1.0
    );
    run_tenant(&small, 4); // warm-up
    for shards in [1_usize, 4] {
        let rate = run_tenant(&w, shards);
        println!(
            "{:<40} {:>14} {:>12.2}x",
            format!("Tenant({shards}), inline durable (MemStorage)"),
            fmt(rate),
            rate / unsharded
        );
    }
}
