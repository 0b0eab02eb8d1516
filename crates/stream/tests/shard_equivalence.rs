//! Pins the sharding tentpole guarantee: a single plant streamed
//! through N shards by the production [`Tenant`] produces a
//! [`StreamReport`] **byte-identical** (same `Debug` rendering, which
//! covers every score bit) to the unsharded [`StreamDetector`] run in
//! `BatchEquivalent` mode, at an interim `tick` as well as at `finish`.
//!
//! The argument, verified here end-to-end: controls are broadcast, so
//! every shard holds a congruent skeleton; each machine×sensor lane is
//! owned by exactly one shard, so its sample sequence and scorer state
//! are exactly those of the unsharded run; the merge walks the
//! skeleton in fixed order filling each slot from its owner.

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
fn run_tenant(scenario: &Scenario, shards: usize) -> (String, StreamReport) {
    let tenant_config = TenantConfig {
        shards,
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
fn sharded_report_is_byte_identical_to_unsharded() {
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
    for shards in [1, 2, 3, 4] {
        let (tick, report) = run_tenant(&scenario, shards);
        assert_eq!(tick, want_tick, "Tenant({shards}) tick diverged");
        assert_eq!(
            format!("{report:?}"),
            want,
            "Tenant({shards}) diverged from unsharded"
        );
    }
}
