//! Every metric the benchmark reports, by name: unit, direction, and —
//! for the end-to-end ones — the share of the baseline median by which it
//! may worsen before that counts as a regression. `BENCHMARK.json` is this
//! table rendered (`hierod-benchmark manifest`); a test keeps them equal.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `Some` for end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off; every workload reports every one.
///
/// `samples_per_s` and `reply_*` are each workload's own headline pair
/// (README, "Metric glossary"): ingest rate and `finish` on `firehose`,
/// achieved pace and report lag on `dashboard`, flood rate and victim
/// round trip on `neighbours`, wire scan rate and window-scan latency on
/// `cold_store`.
///
/// Bounds: timings carry the contract's ceiling of 25% — over sets of ten
/// 20-second runs on the 2-core reference VM their quartile distance
/// reached 19% of the median (README, "Steadiness"); memory and stored
/// bytes are steadier and bounded tighter.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("samples_per_s", "samples/s", Higher, 0.25),
    e2e("reply_tail_ms", "ms", Lower, 0.25),
    e2e("stored_bytes_per_sample", "B", Lower, 0.02),
    e2e("cpu_us_per_sample", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.20),
];

/// Measured in the traced run and by the ladder probes after it; 0 where
/// the layer is not on the workload's path.
pub const PER_LAYER: &[Metric] = &[
    layer("trace_overhead_ratio", "ratio", Higher),
    layer("run_valid", "count", Higher),
    layer("failed_ops_ratio", "ratio", Lower),
    layer("over_limit_ratio", "ratio", Lower),
    layer("reply_p50_ms", "ms", Lower),
    layer("finish_p50_ms", "ms", Lower),
    layer("compact_s", "s", Lower),
    layer("backfill_s", "s", Lower),
    layer("recovery_s", "s", Lower),
    layer("synth.generate_s", "s", Lower),
    layer("synth.compile_s", "s", Lower),
    layer("synth.sched_lag_p95_ms", "ms", Lower),
    layer("server.client_busy_share", "ratio", Lower),
    layer("server.idle_rtt_us_p50", "us", Lower),
    layer("server.self_ns_per_sample", "ns", Lower),
    layer("server.victim_wait_ms_p95", "ms", Lower),
    layer("server.frames", "count", Higher),
    layer("server.refused", "count", Lower),
    layer("wire.encode_ns_per_frame", "ns", Lower),
    layer("wire.decode_ns_per_frame", "ns", Lower),
    layer("wire.bytes_per_sample", "B", Lower),
    layer("wire.report_encode_ms", "ms", Lower),
    layer("wire.report_decode_ms", "ms", Lower),
    layer("wire.report_bytes", "B", Lower),
    layer("wire.delta_bytes_per_tick", "B", Lower),
    layer("service.ingest_ns_per_sample", "ns", Lower),
    layer("service.tick_ms_p50", "ms", Lower),
    layer("stream.detector_ns_per_sample", "ns", Lower),
    layer("stream.durable_ns_per_sample", "ns", Lower),
    layer("stream.tenant_ns_per_sample", "ns", Lower),
    layer("stream.journal_self_ns_per_sample", "ns", Lower),
    layer("stream.control_ms_p95", "ms", Lower),
    layer("stream.watermark_ns_per_sample", "ns", Lower),
    layer("stream.reorder_pending_max", "count", Lower),
    layer("stream.late_dropped", "count", Lower),
    layer("stream.duplicates_dropped", "count", Lower),
    layer("stream.tick_ms_first_decile", "ms", Lower),
    layer("stream.tick_ms_last_decile", "ms", Lower),
    layer("stream.recovery_replay_ms", "ms", Lower),
    layer("store.wal_append_ns_per_record", "ns", Lower),
    layer("store.wal_bytes_per_sample", "B", Lower),
    layer("store.syncs", "count", Lower),
    layer("store.rotate_ms_p50", "ms", Lower),
    layer("store.segment_bytes_per_sample", "B", Lower),
    layer("store.recovery_scan_ms", "ms", Lower),
    layer("detect.push_ns_per_sample", "ns", Lower),
    layer(
        "detect.online.windowed_batch_robust_z_ns_per_sample",
        "ns",
        Lower,
    ),
    layer("detect.online.rolling_robust_z_ns_per_sample", "ns", Lower),
    layer("detect.online.incremental_ar_ns_per_sample", "ns", Lower),
    layer("detect.online.sliding_knn_ns_per_sample", "ns", Lower),
    layer("detect.online.sliding_lof_ns_per_sample", "ns", Lower),
    layer("core.finish_ms", "ms", Lower),
    layer("core.tick_ms_per_koutlier", "ms", Lower),
    layer("core.report_outliers", "count", Lower),
    layer("core.batch_find_ms", "ms", Lower),
    layer("history.compact_ms", "ms", Lower),
    layer("history.compact_bytes_rewritten", "B", Lower),
    layer("history.scan_full_ms_p50", "ms", Lower),
    layer("history.scan_window_ms_p50", "ms", Lower),
    layer("history.chunks_pruned_ratio", "ratio", Higher),
    layer("history.backfill_replay_ms", "ms", Lower),
    layer("adapt.passthrough_ns_per_sample", "ns", Lower),
    layer("adapt.refit_tick_ms_p50", "ms", Lower),
];

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "firehose",
        "one connection streams 1M-sample plants flat out: the ingest path does the work, report assembly almost none",
    ),
    (
        "dashboard",
        "paced, jittered ingest at 2% of capacity with a tick+delta query every 50 ms: report assembly and reordering do the work",
    ),
    (
        "neighbours",
        "a flooding tenant beside a polling one: the same layers under contention for the one service lock",
    ),
    (
        "cold_store",
        "compaction, range scans, backfill and crash recovery: the read side of what firehose writes, little socket or journal work",
    ),
];

pub const RUN_SECONDS: u64 = 20;

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

fn metric_json(metric: &Metric) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::Str(metric.name.to_string())),
        ("unit".to_string(), Json::Str(metric.unit.to_string())),
        (
            "better".to_string(),
            Json::Str(
                match metric.better {
                    Lower => "lower",
                    Higher => "higher",
                }
                .to_string(),
            ),
        ),
    ];
    if let Some(bound) = metric.bound {
        fields.push(("bound".to_string(), Json::Num(bound)));
    }
    Json::Obj(fields)
}

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::object([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::Str(s.to_string())).collect()),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".to_string())])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::object([
                            ("name", Json::Str(name.to_string())),
                            ("why", Json::Str(why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}

/// `manifest()` over several lines, one metric per line.
pub fn manifest_text() -> String {
    let manifest = manifest();
    let mut out = String::from("{\n");
    let fields = manifest.as_object().unwrap_or_default();
    for (i, (key, value)) in fields.iter().enumerate() {
        let last = i + 1 == fields.len();
        match value {
            Json::Arr(items) if items.iter().all(|item| matches!(item, Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 == items.len() { "" } else { "," };
                    out.push_str(&format!("    {}{comma}\n", item.render()));
                }
                out.push_str(if last { "  ]\n" } else { "  ],\n" });
            }
            other => {
                let comma = if last { "" } else { "," };
                out.push_str(&format!("  \"{key}\": {}{comma}\n", other.render()));
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn the_table_keeps_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|(name, _)| *name));
        for name in &names {
            assert!(name_ok(name), "{name}");
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "every name is used once");
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                metric.unit.len() <= 16
                    && metric
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{}",
                metric.unit
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "set-up has the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest_text().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(Json::parse(&text).expect("valid JSON"), manifest());
        assert_eq!(
            Json::parse(&manifest_text()).expect("valid JSON"),
            manifest()
        );
    }
}
