//! The adaptive subsystem's equivalence suite (acceptance gate for
//! DESIGN.md §4.19).
//!
//! * **Passthrough ≡ plain** — an [`AdaptiveStream`] opened in
//!   passthrough mode produces a finish report *byte-identical* (via
//!   the wire codec) to a plain [`DurableStream`] driving the same
//!   scenario.
//! * **Adaptive determinism** — two identical adaptive runs produce
//!   identical reports, drift counters, and refit logs.
//! * **Drift scenario** — a regime shift raises `drift_events` and
//!   triggers store-trained refits, with counters flowing through
//!   `durable().stats()` and `durable().lane_stats()`.
//! * **Attach ≡ open** — attaching to an already-open plain stream
//!   monitors every pipeline opened afterwards, exactly as `open` does.

use hierod_adapt::{AdaptiveStream, DriftingScorer, MonitorSpec, RefitPolicy};
use hierod_core::AlgorithmPolicy;
use hierod_hierarchy::{CaqResult, JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
use hierod_store::store::StoreOptions;
use hierod_store::MemStorage;
use hierod_stream::{
    ControlEvent, DurableStream, LaneId, LaneKind, Sample, ScorerMode, StreamConfig, StreamReport,
};
use hierod_wire::encode_report;

fn lane(machine: &str, sensor: &str, kind: LaneKind) -> LaneId {
    LaneId {
        machine: machine.into(),
        sensor: sensor.into(),
        kind,
    }
}

fn policy_and_config(mode: ScorerMode) -> (AlgorithmPolicy, StreamConfig) {
    (
        AlgorithmPolicy::default(),
        StreamConfig { lateness: 3, mode },
    )
}

fn open_plain(mode: ScorerMode) -> DurableStream<MemStorage> {
    let (policy, config) = policy_and_config(mode);
    let (d, _) = DurableStream::open(
        policy,
        config,
        MemStorage::new(),
        StoreOptions { group_commit: 1 },
    )
    .expect("open");
    d
}

/// Deterministic noise in [-0.5, 0.5] (SplitMix64 finalizer). Real
/// gauges are noisy; a noise-free sinusoid would let the AR scorer fit
/// near-exactly, collapse its residual scale, and emit astronomic
/// z-scores on perfectly normal samples.
fn noise(i: u64) -> f64 {
    let mut z = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) as f64 / u64::MAX as f64) - 0.5
}

/// A value at tick `t` of a noisy stream whose regime shifts by `shift`
/// after sample 300.
fn regime_value(i: u64, t: u64, shift: f64) -> f64 {
    let base = (t as f64 * 0.37).sin() + 0.2 * (t as f64 * 0.11).cos() + 0.6 * noise(i);
    if i >= 300 {
        base + shift
    } else {
        base
    }
}

/// Drives one machine, one long warm-up phase of `n` samples with a
/// regime shift of `shift` at sample 300, ticking every 64 samples.
/// Generic over the two stream types via a closure pair would obscure
/// more than it saves; the duplication is the test.
fn drive_plain(d: &mut DurableStream<MemStorage>, n: u64, shift: f64) -> Vec<StreamReport> {
    let bed = "m0.bed.0".to_string();
    d.control(&ControlEvent::machine_up(
        "m0",
        vec![Sensor::new(&bed, SensorKind::BedTemperature)],
        vec![RedundancyGroup::new(
            SensorKind::BedTemperature,
            vec![bed.clone()],
        )],
        &[],
    ))
    .expect("machine up");
    d.control(&ControlEvent::job_start(
        "m0",
        "j0",
        0,
        JobConfig::new(vec!["speed".into()], vec![1.0]),
    ))
    .expect("job start");
    d.control(&ControlEvent::phase_start(
        "m0",
        PhaseKind::WarmUp,
        std::slice::from_ref(&bed),
    ))
    .expect("phase start");
    let mut reports = Vec::new();
    for i in 0..n {
        let t = i ^ 1; // mild out-of-order jitter
        d.ingest(
            &lane("m0", &bed, LaneKind::Phase),
            Sample {
                timestamp: t,
                value: regime_value(i, t, shift),
            },
        )
        .expect("ingest");
        if (i + 1) % 64 == 0 {
            reports.push(d.tick().expect("tick"));
        }
    }
    d.control(&ControlEvent::job_complete(
        "m0",
        CaqResult::new(vec!["q".into()], vec![0.9], true),
    ))
    .expect("job complete");
    reports
}

fn drive_adaptive(d: &mut AdaptiveStream<MemStorage>, n: u64, shift: f64) -> Vec<StreamReport> {
    let bed = "m0.bed.0".to_string();
    d.control(&ControlEvent::machine_up(
        "m0",
        vec![Sensor::new(&bed, SensorKind::BedTemperature)],
        vec![RedundancyGroup::new(
            SensorKind::BedTemperature,
            vec![bed.clone()],
        )],
        &[],
    ))
    .expect("machine up");
    d.control(&ControlEvent::job_start(
        "m0",
        "j0",
        0,
        JobConfig::new(vec!["speed".into()], vec![1.0]),
    ))
    .expect("job start");
    d.control(&ControlEvent::phase_start(
        "m0",
        PhaseKind::WarmUp,
        std::slice::from_ref(&bed),
    ))
    .expect("phase start");
    let mut reports = Vec::new();
    for i in 0..n {
        let t = i ^ 1;
        d.ingest(
            &lane("m0", &bed, LaneKind::Phase),
            Sample {
                timestamp: t,
                value: regime_value(i, t, shift),
            },
        )
        .expect("ingest");
        if (i + 1) % 64 == 0 {
            reports.push(d.tick().expect("tick"));
        }
    }
    d.control(&ControlEvent::job_complete(
        "m0",
        CaqResult::new(vec!["q".into()], vec![0.9], true),
    ))
    .expect("job complete");
    reports
}

/// A sensitive monitor + eager policy so the short test scenario
/// actually exercises the refit path.
fn eager() -> (MonitorSpec, RefitPolicy) {
    (
        MonitorSpec::PageHinkley {
            delta: 0.02,
            lambda: 8.0,
            min_samples: 16,
        },
        RefitPolicy {
            on_drift: true,
            every_ticks: None,
            training_window: 512,
            min_training: 16,
        },
    )
}

#[test]
fn passthrough_report_is_byte_identical_to_plain() {
    // Same incremental scorer mode on both sides: the only difference
    // is the AdaptiveStream shell, which in passthrough mode must be
    // invisible down to the last wire byte.
    let mut plain = open_plain(ScorerMode::Incremental);
    drive_plain(&mut plain, 600, 6.0);
    let plain_report = plain.finish().expect("finish");

    let mut wrapped = AdaptiveStream::passthrough(open_plain(ScorerMode::Incremental));
    assert!(!wrapped.is_adaptive());
    drive_adaptive(&mut wrapped, 600, 6.0);
    let wrapped_report = wrapped.finish().expect("finish");

    assert_eq!(
        encode_report(&plain_report),
        encode_report(&wrapped_report),
        "passthrough adaptive stream altered the report"
    );
    assert_eq!(plain_report.stats.drift_events, 0);
    assert_eq!(plain_report.stats.refits, 0);
}

#[test]
fn adaptive_runs_are_deterministic() {
    let run = || {
        let (monitor, refit) = eager();
        let (policy, config) = policy_and_config(ScorerMode::Incremental);
        let mut d = AdaptiveStream::open(
            policy,
            config,
            MemStorage::new(),
            StoreOptions { group_commit: 1 },
            monitor,
            refit,
        )
        .expect("open");
        drive_adaptive(&mut d, 900, 8.0);
        let log = d.refit_log().to_vec();
        let stats = d.durable().stats();
        let report = d.finish().expect("finish");
        (
            encode_report(&report),
            log,
            stats.drift_events,
            stats.refits,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "reports diverged");
    assert_eq!(a.1, b.1, "refit logs diverged");
    assert_eq!((a.2, a.3), (b.2, b.3), "counters diverged");
}

#[test]
fn drift_scenario_raises_counters_and_refits() {
    let (monitor, refit) = eager();
    let (policy, config) = policy_and_config(ScorerMode::Incremental);
    let mut d = AdaptiveStream::open(
        policy,
        config,
        MemStorage::new(),
        StoreOptions { group_commit: 1 },
        monitor,
        refit,
    )
    .expect("open");
    assert!(d.is_adaptive());
    drive_adaptive(&mut d, 900, 8.0);

    let stats = d.durable().stats();
    assert!(stats.drift_events > 0, "no drift events: {stats:?}");
    assert!(stats.refits > 0, "no refits: {stats:?}");
    assert!(!d.refit_log().is_empty());
    let rec = &d.refit_log()[0];
    assert_eq!(rec.machine, "m0");
    assert_eq!(rec.sensor, "m0.bed.0");
    assert!(rec.trained_samples >= 16);

    // Counters flow per-lane too.
    let lanes = d.durable().lane_stats();
    let bed = lanes
        .get(&lane("m0", "m0.bed.0", LaneKind::Phase))
        .expect("bed lane");
    assert_eq!(bed.drift_events, stats.drift_events);
    assert_eq!(bed.refits, stats.refits);

    // And into the finish report.
    let report = d.finish().expect("finish");
    assert!(report.stats.drift_events > 0);
    assert!(report.stats.refits > 0);
}

#[test]
fn attach_to_an_open_stream_monitors_pipelines_opened_afterwards() {
    // The drift scenario, then one more job whose phase pipeline is
    // inspected while still open: every pipeline here opens after the
    // stream became adaptive, whichever way it became so.
    let observe = |mut d: AdaptiveStream<MemStorage>| {
        drive_adaptive(&mut d, 900, 8.0);
        let stats = d.durable().stats();
        let lanes = d.durable().lane_stats();
        let log = d.refit_log().to_vec();
        d.control(&ControlEvent::job_start(
            "m0",
            "j1",
            1000,
            JobConfig::new(vec!["speed".into()], vec![1.0]),
        ))
        .expect("job start");
        d.control(&ControlEvent::phase_start(
            "m0",
            PhaseKind::WarmUp,
            &["m0.bed.0".to_string()],
        ))
        .expect("phase start");
        let mut wrapped = Vec::new();
        d.into_inner()
            .detector_mut()
            .visit_scorers(&mut |_m, _s, _k, slot| {
                let is_drifting = slot.as_any_mut().is_some_and(|a| a.is::<DriftingScorer>());
                wrapped.push(is_drifting);
            });
        (stats.drift_events, stats.refits, lanes, log, wrapped)
    };

    let (monitor, refit) = eager();
    let (policy, config) = policy_and_config(ScorerMode::Incremental);
    let opened = observe(
        AdaptiveStream::open(
            policy,
            config,
            MemStorage::new(),
            StoreOptions { group_commit: 1 },
            monitor.clone(),
            refit.clone(),
        )
        .expect("open"),
    );
    let attached = observe(AdaptiveStream::attach(
        open_plain(ScorerMode::Incremental),
        monitor,
        refit,
    ));

    assert!(opened.0 > 0 && opened.1 > 0, "reference run saw no drift");
    assert_eq!(attached, opened, "attach diverged from open");
    assert_eq!(attached.4, vec![true], "an open pipeline is unmonitored");
}

#[test]
fn quiet_scenario_never_refits() {
    // The default (conservative) monitor: the eager test monitor is
    // deliberately sensitive enough to trip on the scorer's own
    // cold-start score transient.
    let monitor = MonitorSpec::page_hinkley();
    let refit = eager().1;
    let (policy, config) = policy_and_config(ScorerMode::Incremental);
    let mut d = AdaptiveStream::open(
        policy,
        config,
        MemStorage::new(),
        StoreOptions { group_commit: 1 },
        monitor,
        refit,
    )
    .expect("open");
    drive_adaptive(&mut d, 600, 0.0); // no regime shift
    assert!(d.refit_log().is_empty(), "refit without drift");
    assert_eq!(d.durable().stats().refits, 0);
}

#[test]
fn scheduled_refits_fire_without_drift() {
    let (policy, config) = policy_and_config(ScorerMode::Incremental);
    let mut d = AdaptiveStream::open(
        policy,
        config,
        MemStorage::new(),
        StoreOptions { group_commit: 1 },
        MonitorSpec::adwin(),
        RefitPolicy {
            on_drift: false,
            every_ticks: Some(4),
            training_window: 512,
            min_training: 16,
        },
    )
    .expect("open");
    drive_adaptive(&mut d, 600, 0.0);
    assert!(
        !d.refit_log().is_empty(),
        "schedule fired no refits: {:?}",
        d.refit_log()
    );
    assert!(d
        .refit_log()
        .iter()
        .all(|r| r.cause == hierod_adapt::RefitCause::Schedule));
}
