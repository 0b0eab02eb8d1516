//! Streaming monitoring with [`StreamDetector`]: the plant arrives as a
//! live event stream, and after every completed job the detector ticks
//! and reports the outliers that are new (or whose ⟨global score,
//! outlierness, support⟩ triple moved) since the previous tick — the
//! deployment shape of the paper's condition-monitoring use case.
//!
//! ```sh
//! cargo run --release --example streaming_monitor
//! ```
//!
//! [`StreamDetector`]: hierod::stream::StreamDetector

use std::collections::BTreeSet;

use hierod::core::{AlgorithmPolicy, FusionRule};
use hierod::stream::{ControlEvent, StreamConfig, StreamDetector, StreamEvent};
use hierod::synth::ScenarioBuilder;

fn main() {
    let scenario = ScenarioBuilder::new(13)
        .machines(2)
        .jobs_per_machine(14)
        .redundancy(3)
        .phase_samples(50)
        .anomaly_rate(0.3)
        .measurement_error_fraction(0.3)
        .magnitude_sigmas(14.0)
        .build();
    let truth = scenario.truth.anomalous_jobs();
    let fusion = FusionRule::default_weighted();

    let mut detector = StreamDetector::new(AlgorithmPolicy::default(), StreamConfig::default())
        .expect("stream detector");
    let mut seen = BTreeSet::new();
    let mut open_job = String::new();

    println!("streaming assessment (one tick per completed job, top 3 new outliers):\n");
    for event in scenario.replay().into_iter().map(StreamEvent::from) {
        let control = match event {
            StreamEvent::Sample(lane, sample) => {
                detector.ingest(&lane, sample).expect("ingest");
                continue;
            }
            StreamEvent::Control(control) => control,
        };
        detector.apply(&control).expect("control");
        match control {
            ControlEvent::JobStart { job, .. } => open_job = job,
            ControlEvent::JobComplete { machine, .. } => {
                let report = detector.tick().expect("tick").report;
                let fresh: Vec<_> = (report.ranked_by(|o| fusion.score(o)).into_iter())
                    .filter(|o| seen.insert(o.summary()))
                    .collect();
                let anomalous = truth.contains(&(machine, open_job.clone()));
                let note = if anomalous { "process anomaly" } else { "" };
                println!("{open_job:<8} {:>3} new  {note}", fresh.len());
                for outlier in fresh.iter().take(3) {
                    println!("    {}", outlier.summary());
                }
            }
            _ => {}
        }
    }
    let ingested = detector.stats().samples_ingested;
    println!("\n{ingested} samples ingested, {} reported", seen.len());
}
