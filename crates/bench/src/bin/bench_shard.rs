//! B11 — sharded multi-core streaming: aggregate throughput of the
//! shard/tenant scale-out path vs. the single-consumer baseline.
//!
//! Four experiments, summary committed under `results/bench_shard.md`:
//!
//! 1. **Single-consumer baseline** — one unsharded `StreamDetector`
//!    scoring every lane on the calling thread (the pre-refactor
//!    topology: one consumer, one plant, one store-less detector).
//! 2. **Inline sharding** — the same scenario through the production
//!    inline driver, a durable `Tenant` over `MemStorage`, at 1 and 4
//!    shards on one thread: the 1-shard row prices the journal, the
//!    4-vs-1 gap isolates the hash-routing + broadcast + fixed-order
//!    merge machinery with no parallelism in play.
//! 3. **Shard worker threads** — [`ShardedStream`] with 1/2/4 shard
//!    threads fed over per-shard SPSC rings; aggregate samples/s plus
//!    per-shard-thread normalized throughput (comparable to the 1-core
//!    `bench_stream` rows).
//! 4. **Plants × sensors × shards** — N independent tenants
//!    (one `ShardedStream` each, the in-memory half of a
//!    `PlantRegistry`) driven round-robin: the multi-tenant scaling
//!    table.
//!
//! All runs use `ScorerMode::Incremental` (rolling robust-z, w=256, on
//! every phase lane) so per-sample scorer work — the part that shards
//! across cores — dominates.

use std::time::Instant;

use hierod_core::AlgorithmPolicy;
use hierod_hierarchy::{CaqResult, JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
use hierod_store::tenants::MemFactory;
use hierod_stream::{
    ControlEvent, IngestRouter, LaneId, LaneKind, PlantRegistry, Sample, ScorerMode, ShardedStream,
    StreamConfig, StreamDetector, TenantConfig, Watermark,
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

/// The seed's `RollingRobustZ` push (pre-refactor): binary
/// insert/remove into a sorted shadow, then a **full re-sort of the
/// deviation scratch on every push** — the O(w log w) behaviour this
/// PR's two-pointer MAD selection removed. Reproduced here verbatim so
/// the "single-consumer baseline on the same scenario" ratio is
/// measured against the seed, not against the already-optimized scorer.
struct SeedRollingRobustZ {
    cap: usize,
    ring: std::collections::VecDeque<f64>,
    sorted: Vec<f64>,
    scratch: Vec<f64>,
}

impl SeedRollingRobustZ {
    fn new(cap: usize) -> Self {
        SeedRollingRobustZ {
            cap,
            ring: std::collections::VecDeque::with_capacity(cap),
            sorted: Vec::with_capacity(cap),
            scratch: Vec::with_capacity(cap),
        }
    }

    fn push(&mut self, value: f64) -> f64 {
        if self.ring.len() == self.cap {
            if let Some(old) = self.ring.pop_front() {
                if let Ok(at) = self.sorted.binary_search_by(|x| x.total_cmp(&old)) {
                    self.sorted.remove(at);
                }
            }
        }
        self.ring.push_back(value);
        let at = match self.sorted.binary_search_by(|x| x.total_cmp(&value)) {
            Ok(at) | Err(at) => at,
        };
        self.sorted.insert(at, value);
        let n = self.sorted.len();
        let med = if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0
        };
        self.scratch.clear();
        self.scratch
            .extend(self.sorted.iter().map(|x| (x - med).abs()));
        self.scratch.sort_by(|a, b| a.total_cmp(b));
        let mad = if n % 2 == 1 {
            self.scratch[n / 2]
        } else {
            (self.scratch[n / 2 - 1] + self.scratch[n / 2]) / 2.0
        };
        let spread = if mad > 1e-12 {
            mad
        } else {
            let mean = self.sorted.iter().sum::<f64>() / n as f64;
            let var = self
                .sorted
                .iter()
                .map(|x| (x - mean) * (x - mean))
                .sum::<f64>()
                / n as f64;
            var.sqrt()
        };
        if spread > 1e-12 {
            (value - med).abs() / spread
        } else {
            0.0
        }
    }
}

/// Experiment 0: the seed topology AND the seed scorer — one consumer
/// thread draining every lane's ring through the `IngestRouter` into a
/// per-lane lateness-0 watermark + pre-PR rolling robust-z. This is
/// the `bench_stream.md` single-consumer world the acceptance ratio is
/// taken against.
fn run_seed_single_consumer(w: &Workload) -> f64 {
    use std::collections::HashMap;
    const BURST: u64 = 512;
    let mut router = IngestRouter::new();
    let mut producers = Vec::with_capacity(w.lanes.len());
    let mut index: HashMap<LaneId, usize> = HashMap::new();
    let mut pipes: Vec<(Watermark, SeedRollingRobustZ)> = Vec::with_capacity(w.lanes.len());
    for (i, id) in w.lanes.iter().enumerate() {
        producers.push(router.add_lane(id.clone(), BURST as usize * 2));
        index.insert(id.clone(), i);
        pipes.push((Watermark::new(0), SeedRollingRobustZ::new(256)));
    }
    let mut sink = 0.0_f64;
    let mut released: Vec<(u64, f64)> = Vec::new();
    let start = Instant::now();
    let mut t = 0;
    while t < w.samples {
        let end = (t + BURST).min(w.samples);
        for (i, tx) in producers.iter_mut().enumerate() {
            for ts in t..end {
                tx.push(Sample {
                    timestamp: ts,
                    value: signal(ts, i as u64),
                })
                .expect("lane open");
            }
        }
        router.drain(|id, sample| {
            let (watermark, scorer) = &mut pipes[index[id]];
            watermark.offer(sample.timestamp, sample.value, &mut released);
            for (_, v) in released.drain(..) {
                sink += scorer.push(v);
            }
        });
        t = end;
    }
    let rate = w.total_samples() as f64 / start.elapsed().as_secs_f64();
    assert!(sink.is_finite());
    rate
}

/// Experiment 1: everything on the calling thread, no shards.
fn run_single_consumer(w: &Workload) -> f64 {
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

/// Experiment 2: the inline durable driver, still one thread.
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

/// Experiments 3 and 4: `plants` independent `ShardedStream`s with
/// `shards` worker threads each, driven round-robin by this thread.
fn run_sharded(w: &Workload, plants: usize, shards: usize) -> f64 {
    let mut streams = Vec::with_capacity(plants);
    for _ in 0..plants {
        let mut stream = ShardedStream::spawn(
            &AlgorithmPolicy::default(),
            stream_config(),
            shards,
            64 * 1024,
        )
        .expect("spawn");
        for ev in &w.controls_up {
            stream.control(ev).expect("control");
        }
        let lanes: Vec<u32> = w
            .lanes
            .iter()
            .map(|id| stream.lane(id.clone()).expect("lane"))
            .collect();
        streams.push((stream, lanes));
    }
    let start = Instant::now();
    w.for_each_sample(|i, sample| {
        for (stream, lanes) in &mut streams {
            stream.send(lanes[i], sample).expect("send");
        }
    });
    let mut total = 0;
    for (mut stream, _) in streams {
        for ev in &w.controls_down {
            stream.control(ev).expect("control");
        }
        let report = stream.finish().expect("finish");
        assert_eq!(report.stats.samples_ingested, w.total_samples());
        total += report.stats.samples_ingested;
    }
    total as f64 / start.elapsed().as_secs_f64()
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

    // Headline scenario: 4 machines × 4 sensors = 16 lanes.
    let w = Workload::new(4, 4, 25_000);
    println!(
        "# headline scenario: 4 machines x 4 sensors, {} samples/lane, {} total",
        w.samples,
        w.total_samples()
    );
    let small = Workload::new(4, 4, 2_000);
    run_seed_single_consumer(&small); // warm-up
    let seed_w = Workload::new(4, 4, 4_000); // the seed scorer is ~30x slower
    let seed = run_seed_single_consumer(&seed_w);
    run_single_consumer(&small); // warm-up
    let baseline = run_single_consumer(&w);
    println!(
        "{:<40} {:>14} {:>12} {:>9}",
        "topology", "samples/s", "/thread", "vs seed"
    );
    println!(
        "{:<40} {:>14} {:>12} {:>8.2}x",
        "seed single-consumer (pre-PR scorer)",
        fmt(seed),
        fmt(seed),
        1.0
    );
    println!(
        "{:<40} {:>14} {:>12} {:>8.2}x",
        "single-consumer, this PR (unsharded)",
        fmt(baseline),
        fmt(baseline),
        baseline / seed
    );
    run_tenant(&small, 4); // warm-up
    for shards in [1_usize, 4] {
        let rate = run_tenant(&w, shards);
        println!(
            "{:<40} {:>14} {:>12} {:>8.2}x",
            format!("Tenant({shards}), inline durable (MemStorage)"),
            fmt(rate),
            fmt(rate),
            rate / seed
        );
    }
    let mut four_thread = 0.0;
    for shards in [1_usize, 2, 4] {
        run_sharded(&small, 1, shards); // warm-up
        let rate = run_sharded(&w, 1, shards);
        if shards == 4 {
            four_thread = rate;
        }
        println!(
            "{:<40} {:>14} {:>12} {:>8.2}x",
            format!("ShardedStream, {shards} shard thread(s)"),
            fmt(rate),
            fmt(rate / shards as f64),
            rate / seed
        );
    }
    println!();
    println!(
        "4 shard threads vs seed single-consumer baseline: {:.2}x (same scenario)",
        four_thread / seed
    );
    println!(
        "4 shard threads vs this PR's unsharded single consumer: {:.2}x on {cores} core(s)",
        four_thread / baseline
    );

    println!();
    println!("# plants x sensors x shard-threads scaling (samples/lane 8,000)");
    println!(
        "{:<8} {:<22} {:<8} {:>14} {:>14} {:>12}",
        "plants", "sensors (4 machines)", "shards", "total lanes", "samples/s", "/thread"
    );
    for plants in [1_usize, 2, 4] {
        for sensors_per_machine in [2_usize, 8] {
            for shards in [1_usize, 4] {
                let w = Workload::new(4, sensors_per_machine, 8_000);
                let rate = run_sharded(&w, plants, shards);
                println!(
                    "{:<8} {:<22} {:<8} {:>14} {:>14} {:>12}",
                    plants,
                    4 * sensors_per_machine,
                    shards,
                    plants * w.lanes.len(),
                    fmt(rate),
                    fmt(rate / (plants * shards) as f64)
                );
            }
        }
    }
}
