//! Pins durable `Tenant` ≡ bare [`StreamDetector`]: a plant streamed
//! through the production [`Tenant`](hierod_stream::Tenant) — journalled
//! to its WAL before every mutation — produces a [`StreamReport`]
//! **byte-identical** (same `Debug` rendering, which covers every score
//! bit) to the in-memory detector run in `BatchEquivalent` mode, at an
//! interim `tick` as well as at `finish`.

use hierod_core::AlgorithmPolicy;
use hierod_store::tenants::MemFactory;
use hierod_stream::{
    PlantRegistry, ScorerMode, StreamConfig, StreamDetector, StreamEvent, StreamReport,
    TenantConfig,
};
use hierod_synth::{Scenario, ScenarioBuilder};

fn scenario() -> Scenario {
    ScenarioBuilder::new(42)
        .machines(3)
        .jobs_per_machine(3)
        .redundancy(2)
        .phase_samples(40)
        .anomaly_rate(0.8)
        .environment_anomalies(0.5, 6.0)
        .build()
}

fn config() -> StreamConfig {
    StreamConfig {
        lateness: 0,
        mode: ScorerMode::BatchEquivalent,
    }
}

/// The replay in stream order.
fn steps(scenario: &Scenario) -> Vec<StreamEvent> {
    scenario
        .replay()
        .into_iter()
        .map(StreamEvent::from)
        .collect()
}

/// Returns the rendering of an interim `tick` taken halfway through the
/// stream, and the final report.
fn run_unsharded(scenario: &Scenario) -> (String, StreamReport) {
    let mut det = StreamDetector::new(AlgorithmPolicy::default(), config()).expect("detector");
    let steps = steps(scenario);
    let mut interim = String::new();
    for (i, step) in steps.iter().enumerate() {
        if i == steps.len() / 2 {
            interim = format!("{:?}", det.tick().expect("tick"));
        }
        match step {
            StreamEvent::Control(event) => det.apply(event).expect("control"),
            StreamEvent::Sample(lane, sample) => det.ingest(lane, *sample).expect("ingest"),
        }
    }
    (interim, det.finish().expect("finish"))
}

/// The inline driver: the production [`Tenant`] over in-memory storage.
/// Same return shape as [`run_unsharded`].
fn run_tenant(scenario: &Scenario) -> (String, StreamReport) {
    let tenant_config = TenantConfig {
        stream: config(),
        ..TenantConfig::default()
    };
    let (mut registry, _) =
        PlantRegistry::open(MemFactory::new(), AlgorithmPolicy::default(), tenant_config)
            .expect("registry");
    let tenant = registry.create_tenant("plant").expect("tenant");
    let steps = steps(scenario);
    let mut interim = String::new();
    for (i, step) in steps.iter().enumerate() {
        if i == steps.len() / 2 {
            interim = format!("{:?}", tenant.tick().expect("tick"));
        }
        match step {
            StreamEvent::Control(event) => tenant.control(event).expect("control"),
            StreamEvent::Sample(lane, sample) => tenant.ingest(lane, *sample).expect("ingest"),
        }
    }
    (interim, registry.finish_tenant("plant").expect("finish"))
}

#[test]
fn tenant_report_is_byte_identical_to_bare_detector() {
    let scenario = scenario();
    let (want_tick, baseline) = run_unsharded(&scenario);
    assert!(
        baseline.stats.samples_ingested > 0,
        "scenario produced no samples"
    );
    assert!(
        !baseline.report.outliers.is_empty(),
        "scenario produced no outliers — the comparison would be weak"
    );
    let want = format!("{baseline:?}");
    assert_ne!(want_tick, want, "the interim tick must see a partial plant");
    let (tick, report) = run_tenant(&scenario);
    assert_eq!(tick, want_tick, "Tenant tick diverged");
    assert_eq!(
        format!("{report:?}"),
        want,
        "Tenant diverged from unsharded"
    );
}
