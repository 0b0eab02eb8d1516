//! The embedded reference the correctness gate compares served output
//! against: the same plan, in the same event order, through an embedded
//! `RegistryService` — no socket, no server.

use hierod_core::AlgorithmPolicy;
use hierod_service::{PlantService, RegistryService};
use hierod_store::tenants::MemFactory;
use hierod_stream::{Sample, StreamStats};
use hierod_wire::encode_report;

use crate::harness::tenant_config;
use crate::plant::{Op, Plan};

/// Length and FNV-1a hash of a report's bytes: enough to compare many
/// served reports against one reference without keeping them all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub len: usize,
    pub fnv: u64,
}

pub fn digest(bytes: &[u8]) -> Digest {
    let mut fnv = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Digest {
        len: bytes.len(),
        fnv,
    }
}

/// What the embedded path says about a plan.
pub struct Reference {
    pub report: Digest,
    pub outliers: u64,
    pub stats: StreamStats,
}

/// Feeds every op of `plan` to `service` as plant `plant`.
pub fn feed<S: PlantService>(service: &mut S, plant: &str, plan: &Plan) {
    for op in &plan.ops {
        match *op {
            Op::Control(index) => service
                .control(plant, &plan.controls[index as usize])
                .expect("embedded control"),
            Op::Sample { lane, ts, value } => service
                .ingest(
                    plant,
                    &plan.lanes[lane as usize - 1],
                    Sample {
                        timestamp: ts,
                        value,
                    },
                )
                .expect("embedded ingest"),
        }
    }
}

pub fn embedded_finish(plan: &Plan, lateness: u64) -> Reference {
    let mut service = RegistryService::open(
        MemFactory::new(),
        AlgorithmPolicy::default(),
        tenant_config(lateness),
    )
    .expect("open the embedded reference service");
    service.admit("reference", true).expect("admit");
    feed(&mut service, "reference", plan);
    let report = service.finish("reference").expect("embedded finish");
    Reference {
        report: digest(&encode_report(&report)),
        outliers: report.report.outliers.len() as u64,
        stats: report.stats,
    }
}

/// One line of the correctness gate.
#[derive(Debug, Clone)]
pub struct Check {
    pub what: String,
    pub ok: bool,
}

/// The gate of one run: every check must hold.
#[derive(Debug, Default, Clone)]
pub struct Gate {
    pub checks: Vec<Check>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.checks.push(Check {
            what: what.into(),
            ok,
        });
    }

    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, got: T, want: T, what: &str) {
        let ok = got == want;
        let what = if ok {
            what.to_string()
        } else {
            format!("{what}: got {got:?}, want {want:?}")
        };
        self.check(ok, what);
    }

    pub fn green(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    pub fn extend(&mut self, other: Gate) {
        self.checks.extend(other.checks);
    }
}
