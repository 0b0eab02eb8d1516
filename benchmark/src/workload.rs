//! What a workload is to the driver in `main.rs`.

use hierod_server::ServerStats;

use crate::harness::Tally;
use crate::ladder::LadderInput;
use crate::reference::Gate;
use crate::trace::Tracer;

/// Named measurements, in the order they were taken.
#[derive(Debug, Default, Clone)]
pub struct Values(pub Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// What one timed run of a workload produced.
#[derive(Default)]
pub struct Outcome {
    pub values: Values,
    pub tally: Tally,
    pub gate: Gate,
    /// Samples the run moved through the system and the CPU seconds the
    /// whole process spent on it (gate excluded): `cpu_us_per_sample`.
    pub samples_moved: u64,
    pub cpu_s: f64,
    /// Why the run does not measure the system (generator-bound, pace
    /// not held); empty for a valid run.
    pub invalid: Vec<String>,
    /// Sample counts and percentile labels behind the numbers.
    pub notes: Vec<String>,
}

pub trait Workload: Sized {
    /// Generates inputs, binds the server, runs the warm-up plant.
    fn set_up(seed: u64, smoke: bool) -> Self;

    /// Runs the traffic for about `seconds`, then the untimed gate.
    /// `run` numbers the runs of one process, keeping plant ids unique.
    fn run(&mut self, run: u32, seconds: f64, tracer: &mut Tracer) -> Outcome;

    /// The input the per-layer probes replay.
    fn ladder_input(&self) -> LadderInput<'_>;

    /// Stops the server.
    fn tear_down(self) -> ServerStats;
}
