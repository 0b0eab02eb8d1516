//! `hierod-benchmark`: four workloads against an in-process
//! `hierod_server::Server` over real localhost TCP.
//!
//! ```text
//! hierod-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! hierod-benchmark --smoke
//! hierod-benchmark compare <A.jsonl> <B.jsonl>
//! hierod-benchmark manifest
//! ```
//!
//! The last line of standard output is the run's result as one JSON
//! object; everything a human reads goes to standard error. See
//! `benchmark/README.md`.

mod cold_store;
mod compare;
mod dashboard;
mod firehose;
mod harness;
mod json;
mod ladder;
mod metrics;
mod neighbours;
mod plant;
mod reference;
mod stats;
mod trace;
mod workload;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use trace::Tracer;
use workload::{Outcome, Values, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
const OUT_DIR: &str = "benchmark/out";
const FLUSH_POLICY: &str =
    "in-memory storage, group commit 64: a sync is counted (store.syncs), not timed";

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

/// `core.report_outliers` of the embedded reference at default sizes,
/// pinned for the seeds the acceptance runs use.
fn pinned_outliers(workload: &str, seed: u64) -> Option<u64> {
    Some(match (workload, seed) {
        ("firehose" | "neighbours", 11) => 6079,
        ("firehose" | "neighbours", 12) => 6046,
        ("dashboard", 11) => 2820,
        ("dashboard", 12) => 2815,
        ("cold_store", 11) => 3411,
        ("cold_store", 12) => 3430,
        _ => return None,
    })
}

struct Record {
    json: Json,
    /// The line the driver reads.
    driver_line: String,
    passed: bool,
}

fn execute<W: Workload>(options: &Options) -> Record {
    let name = options.workload.as_str();
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..if options.smoke { 1 } else { SETUP_REPEATS } {
        // The previous set-up is torn down first: one server at a time.
        if let Some(previous) = workload.take() {
            W::tear_down(previous);
        }
        let started = Instant::now();
        workload = Some(W::set_up(options.seed, options.smoke));
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    let setup_s = stats::median(&setups);

    let mut values = Values::default();
    let mut tracer = Tracer::new(options.trace, Instant::now(), 0);
    let mut outcomes: Vec<Outcome> = Vec::new();
    if options.trace {
        // Half the time untraced, half traced: the ratio of the two
        // headline rates is what tracing costs.
        outcomes.push(workload.run(0, options.seconds / 2.0, &mut Tracer::off()));
        outcomes.push(workload.run(1, options.seconds / 2.0, &mut tracer));
    } else {
        outcomes.push(workload.run(0, options.seconds, &mut tracer));
    }
    let measured = outcomes.last().expect("one run");
    values.0.extend(measured.values.0.iter().cloned());
    values.set("setup_s", setup_s);
    values.set(
        "cpu_us_per_sample",
        measured.cpu_s * 1e6 / measured.samples_moved.max(1) as f64,
    );

    let mut tally = harness::Tally::default();
    let mut gate = reference::Gate::default();
    let mut invalid = Vec::new();
    let mut notes = Vec::new();
    for outcome in &outcomes {
        tally.add(outcome.tally);
        gate.extend(outcome.gate.clone());
        invalid.extend(outcome.invalid.iter().cloned());
        notes.extend(outcome.notes.iter().cloned());
    }
    if !options.smoke {
        if let (Some(pinned), Some(got)) = (
            pinned_outliers(name, options.seed),
            values.get("core.report_outliers"),
        ) {
            gate.equal(
                got as u64,
                pinned,
                "core.report_outliers is the pinned count for this seed",
            );
        }
    }
    values.set(
        "failed_ops_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    values.set(
        "over_limit_ratio",
        tally.pairs_over_limit as f64 / tally.pairs.max(1) as f64,
    );
    values.set("run_valid", if invalid.is_empty() { 1.0 } else { 0.0 });

    if options.trace {
        let untraced = outcomes[0].values.get("samples_per_s").unwrap_or(0.0);
        let traced = outcomes[1].values.get("samples_per_s").unwrap_or(0.0);
        values.set(
            "trace_overhead_ratio",
            if untraced > 0.0 {
                traced / untraced
            } else {
                0.0
            },
        );
        let input = workload.ladder_input();
        values.set("synth.generate_s", input.plan.generate_s);
        values.set("synth.compile_s", input.plan.compile_s);
        ladder::climb(&input, &mut tracer, &mut values);
        if let Some(served) = values.get("server.served_ns_per_sample") {
            // What is left of a served sample's time once the frame
            // decode and the service call are taken out: socket, lock,
            // per-record lane lookup.
            values.set(
                "server.self_ns_per_sample",
                served
                    - values.get("wire.decode_ns_per_frame").unwrap_or(0.0)
                    - values.get("service.ingest_ns_per_sample").unwrap_or(0.0),
            );
        }
    }
    let server = workload.tear_down();
    values.set("server.frames", server.frames as f64);
    values.set("server.refused", server.refused as f64);

    let reported = if options.trace { PER_LAYER } else { END_TO_END };
    let metric_fields = |set: &[metrics::Metric]| -> Vec<(String, Json)> {
        set.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::object([
                        ("value", Json::Num(values.get(m.name).unwrap_or(0.0))),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect()
    };
    let correct = gate.green();
    let driver_line = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted.max(1) as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::Obj(metric_fields(reported))),
    ])
    .render();

    // The full record: everything measured, named or not in the
    // manifest's list for this mode.
    let mut all = metric_fields(reported);
    for (key, value) in &values.0 {
        if !all.iter().any(|(k, _)| k == key) {
            let unit = metrics::find(key).map_or("", |m| m.unit);
            all.push((
                key.clone(),
                Json::object([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            ));
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = Json::object([
        ("workload", Json::Str(name.to_string())),
        ("seed", Json::Num(options.seed as f64)),
        ("seconds", Json::Num(options.seconds)),
        ("trace", Json::Bool(options.trace)),
        ("smoke", Json::Bool(options.smoke)),
        ("cores", Json::Num(cores as f64)),
        ("flush_policy", Json::Str(FLUSH_POLICY.to_string())),
        ("correct", Json::Bool(correct)),
        ("valid", Json::Bool(invalid.is_empty())),
        (
            "invalid",
            Json::Arr(invalid.iter().cloned().map(Json::Str).collect()),
        ),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("frame_cap_overruns", Json::Num(tally.cap_overruns as f64)),
        ("metrics", Json::Obj(all.clone())),
        (
            "notes",
            Json::Arr(notes.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "gate_failures",
            Json::Arr(
                gate.checks
                    .iter()
                    .filter(|c| !c.ok)
                    .map(|c| Json::Str(c.what.clone()))
                    .collect(),
            ),
        ),
    ]);

    eprintln!(
        "\n== {name}  seed {}  {} s  trace {}  cores {cores}{}",
        options.seed,
        options.seconds,
        u8::from(options.trace),
        if options.smoke { "  (smoke sizes)" } else { "" }
    );
    eprintln!("   flush policy: {FLUSH_POLICY}");
    for (key, metric) in &all {
        let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
        eprintln!("   {key:<52} {value:>18.4} {unit}");
    }
    for note in &notes {
        eprintln!("   note: {note}");
    }
    eprintln!(
        "   gate: {} of {} checks green; client calls: {} attempted, {} failed, {} over the frame cap",
        gate.checks.iter().filter(|c| c.ok).count(),
        gate.checks.len(),
        tally.attempted,
        tally.failed,
        tally.cap_overruns
    );
    for check in gate.checks.iter().filter(|c| !c.ok) {
        eprintln!("   GATE FAILED: {}", check.what);
    }
    for reason in &invalid {
        eprintln!("   INVALID RUN: {reason}");
    }

    if options.trace {
        eprintln!("   spans (self = duration minus direct children):");
        eprintln!(
            "   {:<32} {:>9} {:>12} {:>12}",
            "name", "calls", "total ms", "self ms"
        );
        for (span, s) in tracer.summary() {
            eprintln!(
                "   {span:<32} {:>9} {:>12.3} {:>12.3}",
                s.calls,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
        let smoke = if options.smoke { "_smoke" } else { "" };
        write_file(
            &Path::new(OUT_DIR).join(format!("trace_{name}{smoke}.json")),
            &tracer.to_json().render(),
        );
    }
    Record {
        json,
        driver_line,
        passed: correct && tally.failed == 0,
    }
}

fn write_file(path: &Path, text: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    if let Err(error) = written {
        eprintln!("cannot write {}: {error}", path.display());
    }
}

fn dispatch(options: &Options) -> Option<Record> {
    Some(match options.workload.as_str() {
        "firehose" => execute::<firehose::Firehose>(options),
        "dashboard" => execute::<dashboard::Dashboard>(options),
        "neighbours" => execute::<neighbours::Neighbours>(options),
        "cold_store" => execute::<cold_store::ColdStore>(options),
        _ => return None,
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: hierod-benchmark --workload <firehose|dashboard|neighbours|cold_store> \
         [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       \
         hierod-benchmark --smoke\n       \
         hierod-benchmark compare <A.jsonl> <B.jsonl>\n       \
         hierod-benchmark manifest"
    );
    ExitCode::from(2)
}

fn run_compare(a: &str, b: &str) -> ExitCode {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::read_runs(&text).map_err(|e| format!("{path}: {e}")))
    };
    match (read(a), read(b)) {
        (Ok(a), Ok(b)) => {
            let rows = compare::compare(&a, &b);
            print!("{}", compare::render(&rows));
            let count = |v| rows.iter().filter(|r| r.verdict == v).count();
            let regressions = count(compare::Verdict::Regression);
            println!(
                "{} rows: {} regressions, {} unresolved",
                rows.len(),
                regressions,
                count(compare::Verdict::Unresolved)
            );
            if regressions > 0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => return run_compare(&args[1], &args[2]),
        Some("manifest") => {
            print!("{}", metrics::manifest_text());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let mut options = Options {
        workload: String::new(),
        seed: 11,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().map(String::as_str);
        let parsed = match flag.as_str() {
            "--smoke" => {
                options.smoke = true;
                true
            }
            "--workload" => value().map(|v| options.workload = v.to_string()).is_some(),
            "--seed" => value()
                .and_then(|v| v.parse().ok())
                .map(|v| options.seed = v)
                .is_some(),
            "--seconds" => value()
                .and_then(|v| v.parse().ok())
                .filter(|s: &f64| *s > 0.0)
                .map(|v| options.seconds = v)
                .is_some(),
            "--trace" => value()
                .and_then(|v| match v {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                })
                .map(|v| options.trace = v)
                .is_some(),
            "--out" => value()
                .map(|v| options.out = Some(PathBuf::from(v)))
                .is_some(),
            _ => false,
        };
        if !parsed {
            return usage();
        }
    }

    let names: Vec<&str> = if !options.workload.is_empty() {
        vec![options.workload.as_str()]
    } else if options.smoke {
        metrics::WORKLOADS.iter().map(|(name, _)| *name).collect()
    } else {
        return usage();
    };
    if options.smoke && args.iter().all(|a| a != "--seconds") {
        options.seconds = 1.0;
    }
    let mut passed = true;
    for name in names.iter().map(|n| n.to_string()).collect::<Vec<_>>() {
        options.workload = name;
        let Some(record) = dispatch(&options) else {
            return usage();
        };
        passed &= record.passed;
        let line = record.json.render();
        match &options.out {
            Some(path) => {
                let appended = path
                    .parent()
                    .filter(|p| !p.as_os_str().is_empty())
                    .map_or(Ok(()), std::fs::create_dir_all)
                    .and_then(|()| {
                        std::fs::OpenOptions::new()
                            .create(true)
                            .append(true)
                            .open(path)
                    })
                    .and_then(|mut file| writeln!(file, "{line}"));
                if let Err(error) = appended {
                    eprintln!("cannot append to {}: {error}", path.display());
                }
            }
            None => {
                let suffix = match (options.smoke, options.trace) {
                    (true, _) => "_smoke",
                    (false, true) => "_trace",
                    (false, false) => "",
                };
                write_file(
                    &Path::new(OUT_DIR).join(format!("result_{}{suffix}.json", options.workload)),
                    &format!("{line}\n"),
                );
            }
        }
        println!("{}", record.driver_line);
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
