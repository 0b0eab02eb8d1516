//! Two-tenant crash recovery: pins the tenancy tentpole's isolation
//! contract on [`PlantRegistry`].
//!
//! * A tenant that crashes mid-stream recovers from its own durable
//!   directory and — after the client resends the undelivered suffix —
//!   finishes with a report byte-identical to an uninterrupted run.
//! * The sibling tenant is entirely unaffected: same recovery counters
//!   and byte-identical report whether or not its neighbour crashed,
//!   was corrupted, or failed recovery outright.
//! * Hard damage (a corrupt sealed segment) parks only the damaged
//!   tenant in [`PlantRegistry::failed`]; soft damage (a flipped WAL
//!   bit) is truncated and counted only on the damaged tenant.
//! * A shard whose storage dies cannot cost its sibling shards their
//!   group-commit tail: `finish` drives every shard and returns the
//!   first error.

use hierod_core::AlgorithmPolicy;
use hierod_store::tenants::MemFactory;
use hierod_store::Storage;
use hierod_stream::{
    shard_of, ControlEvent, PlantRegistry, ScorerMode, StreamConfig, StreamEvent, StreamReport,
    Tenant, TenantConfig,
};
use hierod_synth::ScenarioBuilder;

const SHARDS: usize = 2;

fn config() -> TenantConfig {
    TenantConfig {
        shards: SHARDS,
        stream: StreamConfig {
            lateness: 0,
            mode: ScorerMode::BatchEquivalent,
        },
        ..TenantConfig::default()
    }
}

fn registry(factory: MemFactory) -> PlantRegistry<MemFactory> {
    PlantRegistry::open(factory, AlgorithmPolicy::default(), config())
        .expect("open registry")
        .0
}

/// One machine, two jobs — returns the step stream and the index of
/// the clean crash boundary (just after the first `JobComplete`).
fn steps() -> (Vec<StreamEvent>, usize) {
    let scenario = ScenarioBuilder::new(11)
        .machines(1)
        .jobs_per_machine(2)
        .redundancy(2)
        .phase_samples(40)
        .anomaly_rate(1.0)
        .build();
    let steps: Vec<StreamEvent> = scenario
        .replay()
        .into_iter()
        .map(StreamEvent::from)
        .collect();
    let first_complete = steps
        .iter()
        .position(|s| matches!(s, StreamEvent::Control(ControlEvent::JobComplete { .. })))
        .expect("at least one completed job");
    (steps, first_complete + 1)
}

fn drive(tenant: &mut Tenant<hierod_store::MemStorage>, steps: &[StreamEvent]) {
    for step in steps {
        match step {
            StreamEvent::Control(event) => tenant.control(event).expect("control"),
            StreamEvent::Sample(lane, sample) => tenant.ingest(lane, *sample).expect("ingest"),
        }
    }
}

/// Uninterrupted single-tenant run over `steps`, as a Debug rendering
/// (covers every score bit of the report).
fn baseline(steps: &[StreamEvent]) -> String {
    let mut reg = registry(MemFactory::new());
    drive(reg.create_tenant("base").expect("create"), steps);
    let report: StreamReport = reg.finish_tenant("base").expect("finish");
    format!("{report:?}")
}

/// Flips one bit near the durable tail of the first matching file on
/// one shard of a tenant. Returns the damaged file's name.
fn damage(factory: &MemFactory, tenant: &str, prefix: &str) -> String {
    let storage = factory.storage(tenant, 0).expect("shard 0 storage");
    let name = storage
        .list()
        .expect("list")
        .into_iter()
        .find(|n| n.starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix} file on {tenant}/shard-0"));
    let len = storage.file_len(&name).expect("file length");
    assert!(storage.flip_bit(&name, len - 2, 3), "flip bit");
    name
}

#[test]
fn crashed_tenant_recovers_equivalent_and_sibling_is_untouched() {
    let (steps, boundary) = steps();
    let want = baseline(&steps);

    // Live run: plant-a crashes at the job boundary, plant-b runs to
    // the end (but the process dies before plant-b's finish).
    let mut reg = registry(MemFactory::new());
    drop(reg.create_tenant("plant-a"));
    drop(reg.create_tenant("plant-b"));
    drive(reg.tenant_mut("plant-a").expect("a"), &steps[..boundary]);
    drive(reg.tenant_mut("plant-b").expect("b"), &steps);
    // Durability points: both tenants hard-commit their WALs.
    reg.tenant_mut("plant-a")
        .expect("a")
        .tick()
        .expect("tick a");
    reg.tenant_mut("plant-b")
        .expect("b")
        .tick()
        .expect("tick b");

    // Crash: only fsynced bytes survive.
    let (mut recovered, recoveries) = PlantRegistry::open(
        reg.factory().crash_image(false),
        AlgorithmPolicy::default(),
        config(),
    )
    .expect("reopen");
    assert!(recovered.failed().is_empty(), "{:?}", recovered.failed());
    assert_eq!(recovered.tenant_ids(), ["plant-a", "plant-b"]);
    for id in ["plant-a", "plant-b"] {
        let rec = &recoveries[id];
        assert_eq!(rec.shards.len(), SHARDS, "{id} shard layout");
        assert_eq!(rec.corrupt_records(), 0, "{id} clean crash");
        assert!(rec.replayed_samples() + rec.restored_samples() > 0, "{id}");
    }

    // The crashed tenant resumes with the undelivered suffix and ends
    // byte-identical to the uninterrupted run...
    drive(
        recovered.tenant_mut("plant-a").expect("a"),
        &steps[boundary..],
    );
    let a = recovered.finish_tenant("plant-a").expect("finish a");
    assert_eq!(
        format!("{a:?}"),
        want,
        "plant-a diverged from uninterrupted run"
    );

    // ...and the sibling, which lost nothing, is also byte-identical.
    let b = recovered.finish_tenant("plant-b").expect("finish b");
    assert_eq!(format!("{b:?}"), want, "plant-b affected by sibling crash");
}

#[test]
fn corrupt_tenant_storage_cannot_poison_sibling_recovery() {
    let (steps, _) = steps();
    let want = baseline(&steps);

    let mut reg = registry(MemFactory::new());
    drop(reg.create_tenant("plant-a"));
    drop(reg.create_tenant("plant-b"));
    drive(reg.tenant_mut("plant-a").expect("a"), &steps);
    drive(reg.tenant_mut("plant-b").expect("b"), &steps);
    // Seal plant-a's history into a segment so hard (segment) damage is
    // possible; commit plant-b's WAL.
    reg.tenant_mut("plant-a")
        .expect("a")
        .rotate()
        .expect("rotate a");
    reg.tenant_mut("plant-b")
        .expect("b")
        .tick()
        .expect("tick b");

    // Soft damage: flip a bit in plant-a's WAL tail. Recovery truncates
    // and counts it — on plant-a only.
    let soft = reg.factory().crash_image(false);
    damage(&soft, "plant-a", "wal-");
    let (mut recovered, recoveries) =
        PlantRegistry::open(soft, AlgorithmPolicy::default(), config()).expect("reopen soft");
    assert!(recovered.failed().is_empty());
    assert!(
        recoveries["plant-a"].corrupt_records() > 0,
        "damage detected"
    );
    assert_eq!(recoveries["plant-b"].corrupt_records(), 0, "sibling clean");
    let b = recovered.finish_tenant("plant-b").expect("finish b");
    assert_eq!(
        format!("{b:?}"),
        want,
        "plant-b affected by sibling corruption"
    );

    // Hard damage: flip a bit in a sealed segment. Segments are fully
    // checksummed and fail recovery outright — plant-a is parked in
    // `failed()`, plant-b recovers as if nothing happened.
    let hard = reg.factory().crash_image(false);
    damage(&hard, "plant-a", "seg-");
    let (mut recovered, recoveries) =
        PlantRegistry::open(hard, AlgorithmPolicy::default(), config()).expect("reopen hard");
    assert!(recovered.failed().contains_key("plant-a"), "plant-a parked");
    assert!(!recoveries.contains_key("plant-a"));
    assert_eq!(recovered.tenant_ids(), ["plant-b"]);
    let b = recovered.finish_tenant("plant-b").expect("finish b");
    assert_eq!(
        format!("{b:?}"),
        want,
        "plant-b affected by sibling hard failure"
    );
}

#[test]
fn finish_commits_healthy_shards_past_a_failed_one() {
    let (steps, _) = steps();
    // Stop inside the last phase, so both shards hold a group-commit
    // tail of samples no control event has hard-committed yet.
    let cut = steps
        .iter()
        .rposition(|s| matches!(s, StreamEvent::Control(_)))
        .expect("a final JobComplete");
    let on_shard = |k: usize| {
        move |s: &&StreamEvent| {
            matches!(s, StreamEvent::Sample(lane, _)
                if shard_of(&lane.machine, &lane.sensor, SHARDS) == k)
        }
    };

    let mut reg = registry(MemFactory::new());
    drop(reg.create_tenant("plant"));
    drive(reg.tenant_mut("plant").expect("plant"), &steps[..cut]);

    // Kill shard 0's storage: its next append tears and every later
    // operation — including the commit inside finish — fails.
    reg.factory()
        .storage("plant", 0)
        .expect("shard 0 storage")
        .set_write_budget(Some(0));
    let Some(StreamEvent::Sample(lane, sample)) = steps[..cut].iter().rfind(on_shard(0)) else {
        panic!("shard 0 owns no lane");
    };
    let tenant = reg.tenant_mut("plant").expect("plant");
    assert!(tenant.ingest(lane, *sample).is_err(), "budget exhausted");

    let err = reg.finish_tenant("plant").expect_err("shard 0 is dead");
    assert!(err.to_string().contains("write budget"), "{err}");

    // Shard 1 was still hard-committed: every sample it journalled
    // survives a crash that keeps only fsynced bytes.
    let (_, recoveries) = PlantRegistry::open(
        reg.factory().crash_image(false),
        AlgorithmPolicy::default(),
        config(),
    )
    .expect("reopen");
    let shard1 = &recoveries["plant"].shards[1];
    assert_eq!(
        shard1.restored_samples + shard1.replayed_samples,
        steps[..cut].iter().filter(on_shard(1)).count() as u64,
        "shard 1 lost its group-commit tail"
    );
}
