//! E8 — cost model of the adaptive subsystem (DESIGN.md §4.19).
//!
//! Three experiments, summary committed under `results/bench_adapt.md`:
//!
//! 1. **Wrapper overhead** — the same quiet scenario driven through a
//!    passthrough [`AdaptiveStream`] and through an adaptive one whose
//!    conservative monitor never fires: the delta is the per-sample
//!    price of the [`DriftingScorer`] shell (score clipping + one
//!    monitor observation per emitted score).
//! 2. **Refit cost** — the adaptive run repeated with a scheduled
//!    refit every 64 ticks (one refit pass per ~4k samples per lane,
//!    drift or not). Each refit seals history, range-scans the
//!    training window, rebuilds the lane scorer through the registry,
//!    and warm-replays the window. The acceptance bar is the whole
//!    refit regime staying a *bounded fraction* of ingest cost
//!    (< 100% — adaptation may not dominate the pipeline it serves).
//! 3. **Detection latency** — the two monitors fed a synthetic
//!    residual stream with a mean shift at a known sample: how many
//!    post-shift residuals until the alarm, per shift size.
//!
//! All runs use `MemStorage`; numbers measure CPU cost of the adapt
//! layer, not disk or network hardware.

use std::time::Instant;

use hierod_adapt::{
    AdaptiveStream, AdwinWindow, DriftMonitor, MonitorSpec, PageHinkley, RefitPolicy,
};
use hierod_core::AlgorithmPolicy;
use hierod_hierarchy::{CaqResult, JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
use hierod_store::store::StoreOptions;
use hierod_store::MemStorage;
use hierod_stream::{
    ControlEvent, DurableStream, LaneId, LaneKind, Sample, ScorerMode, StreamConfig,
};

const SENSORS: usize = 4;
const SAMPLES_PER_LANE: u64 = 24_000;
const TICK_EVERY: u64 = 64;

/// Deterministic noise in [-0.5, 0.5] (SplitMix64 finalizer).
fn noise(i: u64) -> f64 {
    let mut z = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) as f64 / u64::MAX as f64) - 0.5
}

/// Quiet bed-temperature signal: a *stationary* fast oscillation plus
/// noise. A slow sinusoid would be genuine mean drift from the
/// incremental scorer's viewpoint and the monitors would rightly fire;
/// this stream keeps them silent, isolating the wrapper's cost.
fn signal(lane: usize, t: u64) -> f64 {
    24.0 + (t as f64 * 0.37).sin()
        + 0.2 * (t as f64 * 0.11).cos()
        + 0.6 * noise(t.wrapping_add(lane as u64 * 0x9e37))
}

fn lanes() -> Vec<LaneId> {
    (0..SENSORS)
        .map(|k| LaneId {
            machine: "m0".into(),
            sensor: format!("m0.bed.{k}"),
            kind: LaneKind::Phase,
        })
        .collect()
}

fn open_plain() -> DurableStream<MemStorage> {
    let (d, _) = DurableStream::open(
        AlgorithmPolicy::default(),
        StreamConfig {
            lateness: 0,
            mode: ScorerMode::Incremental,
        },
        MemStorage::new(),
        StoreOptions { group_commit: 4096 },
    )
    .expect("open durable");
    d
}

/// A Page–Hinkley spec whose threshold is unreachable: the monitor does
/// its full per-sample bookkeeping (the cost being measured) but never
/// alarms, so no run here is perturbed by incidental refits. Over a
/// 24k-sample stream even the conservative default eventually trips on
/// the scorer's own score excursions.
fn armed_but_silent() -> MonitorSpec {
    MonitorSpec::PageHinkley {
        delta: 0.05,
        lambda: 1e12,
        min_samples: 32,
    }
}

fn open_adaptive(refit: RefitPolicy) -> AdaptiveStream<MemStorage> {
    AdaptiveStream::open(
        AlgorithmPolicy::default(),
        StreamConfig {
            lateness: 0,
            mode: ScorerMode::Incremental,
        },
        MemStorage::new(),
        StoreOptions { group_commit: 4096 },
        armed_but_silent(),
        refit,
    )
    .expect("open adaptive")
}

/// Drives the full quiet scenario and returns the wall time. The two
/// stream types share no trait; the macro keeps one drive sequence.
macro_rules! drive {
    ($d:expr) => {{
        let lanes = lanes();
        let sensors: Vec<Sensor> = lanes
            .iter()
            .map(|l| Sensor::new(&l.sensor, SensorKind::BedTemperature))
            .collect();
        let redundancy = vec![RedundancyGroup::new(
            SensorKind::BedTemperature,
            lanes.iter().map(|l| l.sensor.clone()).collect(),
        )];
        $d.control(&ControlEvent::machine_up("m0", sensors, redundancy, &[]))
            .expect("machine_up");
        $d.control(&ControlEvent::job_start(
            "m0",
            "j0",
            0,
            JobConfig::new(vec!["speed".into()], vec![1.0]),
        ))
        .expect("job_start");
        $d.control(&ControlEvent::phase_start(
            "m0",
            PhaseKind::Printing,
            &lanes.iter().map(|l| l.sensor.clone()).collect::<Vec<_>>(),
        ))
        .expect("phase_start");
        let start = Instant::now();
        for t in 0..SAMPLES_PER_LANE {
            for (k, lane) in lanes.iter().enumerate() {
                $d.ingest(
                    lane,
                    Sample {
                        timestamp: t,
                        value: signal(k, t),
                    },
                )
                .expect("ingest");
            }
            if (t + 1) % TICK_EVERY == 0 {
                $d.tick().expect("tick");
            }
        }
        $d.control(&ControlEvent::job_complete(
            "m0",
            CaqResult::new(vec!["q".into()], vec![0.9], true),
        ))
        .expect("job_complete");
        start.elapsed().as_secs_f64()
    }};
}

/// Samples from shift onset to the first alarm, or `None` if the
/// monitor never fires within the post-shift budget.
fn latency(monitor: &mut dyn DriftMonitor, shift: f64) -> Option<u64> {
    const QUIET: u64 = 1_000;
    const BUDGET: u64 = 4_000;
    for i in 0..QUIET + BUDGET {
        let residual = 0.5 + 0.4 * noise(i) + if i >= QUIET { shift } else { 0.0 };
        if let Some(_event) = monitor.observe(residual) {
            if i >= QUIET {
                return Some(i - QUIET + 1);
            }
            // Pre-shift alarm: a false positive on the quiet stream.
            return None;
        }
    }
    None
}

fn main() {
    let total = SAMPLES_PER_LANE * SENSORS as u64;
    println!(
        "# scenario: {SAMPLES_PER_LANE} ticks x {SENSORS} lanes = {total} samples, \
         tick every {TICK_EVERY}, quiet signal"
    );

    // ── 1. wrapper overhead (monitors on, nothing fires).
    let mut passthrough = AdaptiveStream::passthrough(open_plain());
    let base_secs = drive!(passthrough);
    assert_eq!(passthrough.durable().stats().refits, 0);
    let quiet_policy = RefitPolicy {
        on_drift: true,
        every_ticks: None,
        ..RefitPolicy::default()
    };
    let mut adaptive = open_adaptive(quiet_policy);
    let wrapped_secs = drive!(adaptive);
    let wrap_overhead = (wrapped_secs - base_secs) / base_secs;
    println!();
    println!("# wrapper overhead (drift monitors armed, zero refits)");
    println!(
        "passthrough: {:.3}s ({:.0} samples/s)",
        base_secs,
        total as f64 / base_secs
    );
    println!(
        "adaptive:    {:.3}s ({:.0} samples/s), overhead {:+.1}%",
        wrapped_secs,
        total as f64 / wrapped_secs,
        100.0 * wrap_overhead
    );
    assert_eq!(
        adaptive.durable().stats().refits,
        0,
        "quiet run must not refit"
    );

    // ── 2. refit cost under an aggressive schedule.
    let schedule_policy = RefitPolicy {
        on_drift: false,
        every_ticks: Some(64),
        training_window: 1024,
        min_training: 32,
    };
    let mut refitting = open_adaptive(schedule_policy);
    let refit_secs = drive!(refitting);
    let refits = refitting.refit_log().len();
    let refit_overhead = (refit_secs - base_secs) / base_secs;
    let per_refit_ms = if refits > 0 {
        1e3 * (refit_secs - wrapped_secs).max(0.0) / refits as f64
    } else {
        0.0
    };
    println!();
    println!("# refit cost (scheduled every 64 ticks, 1024-tick training window)");
    println!(
        "refitting:   {:.3}s ({} refits, ~{:.2}ms each), overhead {:+.1}% of ingest",
        refit_secs,
        refits,
        per_refit_ms,
        100.0 * refit_overhead
    );
    assert!(refits > 0, "schedule fired no refits");
    assert!(
        refit_overhead < 1.0,
        "acceptance: a scheduled refit regime must cost less than \
         the ingest it serves (got {:+.1}%)",
        100.0 * refit_overhead
    );

    // ── 3. post-shift detection latency of the monitors.
    println!();
    println!("# detection latency (samples from shift onset to alarm)");
    println!(
        "{:<26} {:>8} {:>8} {:>8}",
        "monitor", "shift 1", "shift 2", "shift 4"
    );
    for (name, build) in [
        (
            "page-hinkley (default)",
            Box::new(|| Box::new(PageHinkley::default()) as Box<dyn DriftMonitor>)
                as Box<dyn Fn() -> Box<dyn DriftMonitor>>,
        ),
        (
            "adwin (default)",
            Box::new(|| Box::new(AdwinWindow::default()) as Box<dyn DriftMonitor>),
        ),
    ] {
        let cells: Vec<String> = [1.0, 2.0, 4.0]
            .iter()
            .map(|&shift| {
                latency(build().as_mut(), shift).map_or_else(|| "-".to_string(), |n| n.to_string())
            })
            .collect();
        println!(
            "{:<26} {:>8} {:>8} {:>8}",
            name, cells[0], cells[1], cells[2]
        );
    }
}
