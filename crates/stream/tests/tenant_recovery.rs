//! Two-tenant crash recovery: pins the tenancy tentpole's isolation
//! contract on [`PlantRegistry`].
//!
//! * A tenant that crashes mid-stream recovers from its own durable
//!   directory and — after the client resends the undelivered suffix —
//!   finishes with a report byte-identical to an uninterrupted run.
//! * The sibling tenant is entirely unaffected: same recovery counters
//!   and byte-identical report whether or not its neighbour crashed,
//!   was corrupted, or failed recovery outright.
//! * Hard damage (a corrupt sealed segment, or a directory an older
//!   build laid out over several shard journals) parks only the damaged
//!   tenant in the failed set of [`PlantRegistry::health`]; soft damage
//!   (a flipped WAL bit) is truncated and counted only on the damaged
//!   tenant.
//! * A tenant whose storage dies mid-phase fails its own `finish` with
//!   a typed error; the sibling tenant still finishes byte-identical.

use hierod_core::AlgorithmPolicy;
use hierod_detect::DetectError;
use hierod_store::tenants::{MemFactory, StorageFactory};
use hierod_store::Storage;
use hierod_stream::{
    ControlEvent, PlantRegistry, ScorerMode, StreamConfig, StreamEvent, StreamReport, Tenant,
    TenantConfig,
};
use hierod_synth::ScenarioBuilder;

fn config() -> TenantConfig {
    TenantConfig {
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

/// Flips one bit near the durable tail of the first matching file of a
/// tenant. Returns the damaged file's name.
fn damage(factory: &MemFactory, tenant: &str, prefix: &str) -> String {
    let storage = factory.storage(tenant, 0).expect("tenant storage");
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
    let failed = recovered.health().failed;
    assert!(failed.is_empty(), "{failed:?}");
    assert_eq!(recovered.tenant_ids(), ["plant-a", "plant-b"]);
    for id in ["plant-a", "plant-b"] {
        let rec = &recoveries[id];
        assert_eq!(rec.corrupt_records, 0, "{id} clean crash");
        assert!(rec.replayed_samples + rec.restored_samples > 0, "{id}");
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
    let (recovered, recoveries) =
        PlantRegistry::open(soft, AlgorithmPolicy::default(), config()).expect("reopen soft");
    assert!(recovered.health().failed.is_empty());
    assert!(recoveries["plant-a"].corrupt_records > 0, "damage detected");
    assert_eq!(recoveries["plant-b"].corrupt_records, 0, "sibling clean");
    let b = recovered.finish_tenant("plant-b").expect("finish b");
    assert_eq!(
        format!("{b:?}"),
        want,
        "plant-b affected by sibling corruption"
    );

    // Hard damage: flip a bit in a sealed segment. Segments are fully
    // checksummed and fail recovery outright — plant-a is parked in
    // the failed set, plant-b recovers as if nothing happened.
    let hard = reg.factory().crash_image(false);
    damage(&hard, "plant-a", "seg-");
    let (recovered, recoveries) =
        PlantRegistry::open(hard, AlgorithmPolicy::default(), config()).expect("reopen hard");
    let parked = recovered.health().failed;
    assert!(
        parked.iter().any(|(id, _)| id == "plant-a"),
        "plant-a parked"
    );
    assert!(!recoveries.contains_key("plant-a"));
    assert_eq!(recovered.tenant_ids(), ["plant-b"]);
    let b = recovered.finish_tenant("plant-b").expect("finish b");
    assert_eq!(
        format!("{b:?}"),
        want,
        "plant-b affected by sibling hard failure"
    );

    // Foreign layout: an older build hash-partitioned plant-a over two
    // journals. Opening `shard-0` alone would drop the other journal's
    // lanes, so plant-a is parked with its storage untouched.
    let old = reg.factory().crash_image(false);
    old.open_shard("plant-a", 1).expect("second shard root");
    let files = |f: &MemFactory| {
        f.storage("plant-a", 0)
            .expect("shard 0")
            .list()
            .expect("list")
    };
    let before = files(&old);
    let (recovered, recoveries) =
        PlantRegistry::open(old, AlgorithmPolicy::default(), config()).expect("reopen old");
    let health = recovered.health();
    let (_, parked) = health
        .failed
        .iter()
        .find(|(id, _)| id == "plant-a")
        .expect("plant-a parked");
    assert!(
        parked.contains("plant \"plant-a\" has 2 shard directories; this build reads exactly one"),
        "{parked}"
    );
    assert!(!recoveries.contains_key("plant-a"));
    assert_eq!(recovered.tenant_ids(), ["plant-b"]);
    assert_eq!(files(recovered.factory()), before, "storage untouched");
    let b = recovered.finish_tenant("plant-b").expect("finish b");
    assert_eq!(format!("{b:?}"), want, "plant-b affected by parked sibling");
}

#[test]
fn dead_storage_fails_only_its_own_tenant() {
    let (steps, _) = steps();
    let want = baseline(&steps);
    // Stop short of the final JobComplete: inside the last phase, with
    // a group-commit tail no control event has hard-committed yet.
    let cut = steps.len() - 1;

    let mut reg = registry(MemFactory::new());
    drop(reg.create_tenant("plant"));
    drop(reg.create_tenant("sibling"));
    drive(reg.tenant_mut("plant").expect("plant"), &steps[..cut]);
    drive(reg.tenant_mut("sibling").expect("sibling"), &steps);

    // Kill the tenant's storage: its next append tears and every later
    // operation — including the commit inside finish — fails.
    reg.factory()
        .storage("plant", 0)
        .expect("tenant storage")
        .set_write_budget(Some(0));
    let Some(StreamEvent::Sample(lane, sample)) = steps[..cut].last() else {
        panic!("the cut sits mid-phase, behind a sample");
    };
    let tenant = reg.tenant_mut("plant").expect("plant");
    assert!(tenant.ingest(lane, *sample).is_err(), "budget exhausted");

    let err = reg.finish_tenant("plant").expect_err("storage is dead");
    assert!(matches!(err, DetectError::Substrate(_)), "{err}");
    assert!(err.to_string().contains("write budget"), "{err}");

    let sibling = reg.finish_tenant("sibling").expect("finish sibling");
    assert_eq!(
        format!("{sibling:?}"),
        want,
        "sibling affected by a dead neighbour"
    );
}

/// The by-`LaneId` views — `delivered()`, `lane_stats()`, `stats()` — of
/// a tenant fed in runs through a client's lane table, live and after a
/// crash, are those of a tenant fed the same steps one `ingest` at a time.
#[test]
fn run_fed_tenant_keeps_the_by_id_views_live_and_recovered() {
    use hierod_stream::LaneTable;
    use std::collections::BTreeMap;

    let (steps, boundary) = steps();
    let mut reg = registry(MemFactory::new());
    drop(reg.create_tenant("by-id"));
    drop(reg.create_tenant("in-runs"));
    drive(reg.tenant_mut("by-id").expect("by-id"), &steps[..boundary]);

    // Wire lanes in reverse order of first use, runs cut at seven samples
    // and at every control event.
    let mut wire = BTreeMap::new();
    for step in &steps {
        if let StreamEvent::Sample(lane, _) = step {
            let next = 1000 - wire.len() as u32;
            wire.entry(lane.clone()).or_insert(next);
        }
    }
    let mut table = LaneTable::default();
    for (lane, &no) in &wire {
        assert!(table.bind(no, lane.clone()));
    }
    let tenant = reg.tenant_mut("in-runs").expect("in-runs");
    let mut run = Vec::new();
    for step in &steps[..boundary] {
        match step {
            StreamEvent::Sample(lane, sample) => run.push((wire[lane], *sample)),
            StreamEvent::Control(_) => {}
        }
        if run.len() == 7 || matches!(step, StreamEvent::Control(_)) {
            assert_eq!(tenant.ingest_run(&mut table, &run), None);
            run.clear();
        }
        if let StreamEvent::Control(event) = step {
            tenant.control(event).expect("control");
        }
    }
    assert!(run.is_empty(), "the boundary sits behind a control event");

    // What the parent's per-lane map held: one count per sample sent.
    let mut sent: BTreeMap<_, u64> = BTreeMap::new();
    for step in &steps[..boundary] {
        if let StreamEvent::Sample(lane, _) = step {
            *sent.entry(lane.clone()).or_insert(0) += 1;
        }
    }
    let views = |reg: &mut PlantRegistry<MemFactory>, id: &str| {
        let tenant = reg.tenant_mut(id).expect("live");
        (
            tenant.stream().delivered(),
            tenant.lane_stats(),
            tenant.stats(),
        )
    };
    let by_id = views(&mut reg, "by-id");
    assert_eq!(by_id.0, sent);
    assert_eq!(views(&mut reg, "in-runs"), by_id);

    for id in ["by-id", "in-runs"] {
        reg.tenant_mut(id).expect("live").tick().expect("tick");
    }
    let mut recovered = registry(reg.factory().crash_image(false));
    assert_eq!(views(&mut recovered, "in-runs"), by_id);
    assert_eq!(views(&mut recovered, "by-id"), by_id);
    // The client's table died with the process; a new one resolves its
    // lanes against the recovered plant and carries on.
    let mut table = LaneTable::default();
    for (lane, &no) in &wire {
        assert!(table.bind(no, lane.clone()));
    }
    let tenant = recovered.tenant_mut("in-runs").expect("in-runs");
    for step in &steps[boundary..] {
        match step {
            StreamEvent::Sample(lane, sample) => {
                assert_eq!(
                    tenant.ingest_run(&mut table, &[(wire[lane], *sample)]),
                    None
                );
            }
            StreamEvent::Control(event) => tenant.control(event).expect("control"),
        }
    }
    let report = recovered.finish_tenant("in-runs").expect("finish");
    assert_eq!(format!("{report:?}"), baseline(&steps));
}

#[test]
fn tenant_crashed_between_a_phase_close_and_its_job_complete_recovers_equivalent() {
    let (steps, boundary) = steps();
    let want = baseline(&steps);
    // The second job's second phase start closes its first phase; the
    // rotation seals that closed pipeline, the crash comes five samples
    // into the next phase, long before the job completes.
    let close = boundary
        + steps[boundary..]
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, StreamEvent::Control(ControlEvent::PhaseStart { .. })))
            .nth(1)
            .map(|(i, _)| i)
            .expect("a second phase in the second job");
    let crash = close + 6;
    assert!(
        steps[close + 1..crash]
            .iter()
            .all(|s| matches!(s, StreamEvent::Sample(..))),
        "the crash falls inside the phase"
    );

    let mut reg = registry(MemFactory::new());
    drop(reg.create_tenant("plant-a"));
    let tenant = reg.tenant_mut("plant-a").expect("a");
    drive(tenant, &steps[..=close]);
    tenant.rotate().expect("rotate after the phase close");
    drive(tenant, &steps[close + 1..crash]);
    tenant.tick().expect("hard-commit the WAL");

    let (mut recovered, recoveries) = PlantRegistry::open(
        reg.factory().crash_image(false),
        AlgorithmPolicy::default(),
        config(),
    )
    .expect("reopen");
    let rec = &recoveries["plant-a"];
    assert_eq!((rec.corrupt_records, rec.refused_chunks), (0, 0));
    assert!(
        rec.restored_samples > 0 && rec.replayed_samples > 0,
        "{rec:?}"
    );
    drive(recovered.tenant_mut("plant-a").expect("a"), &steps[crash..]);
    let a = recovered.finish_tenant("plant-a").expect("finish a");
    assert_eq!(
        format!("{a:?}"),
        want,
        "plant-a diverged from uninterrupted run"
    );
}
