//! Offline stand-in for the `criterion` crate.
//!
//! The build environment cannot fetch crates.io, so this workspace member
//! provides the API subset the `crates/bench` benches use — `Criterion`,
//! `benchmark_group`, `bench_function`, `bench_with_input`, `BenchmarkId`,
//! `Bencher::iter`, `Bencher::iter_batched` with its `BatchSize`,
//! `black_box`, `criterion_group!`, `criterion_main!` — backed by a simple
//! wall-clock harness instead of criterion's statistical machinery.
//!
//! Each benchmark is warmed up briefly, then timed over enough iterations
//! to fill a measurement window; the mean per-iteration time is printed as
//! `<id> ... time: <t>`. Environment knobs:
//!
//! * `BENCH_WARMUP_MS` (default 50) — warm-up window per benchmark;
//! * `BENCH_MEASURE_MS` (default 300) — measurement window per benchmark.

#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Reads a millisecond knob from the environment.
fn env_ms(var: &str, default: u64) -> Duration {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_millis(default))
}

/// Formats a per-iteration duration the way criterion's reports do.
fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// The bench harness handle passed to every benchmark function.
pub struct Criterion {
    warmup: Duration,
    measure: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            warmup: env_ms("BENCH_WARMUP_MS", 50),
            measure: env_ms("BENCH_MEASURE_MS", 300),
        }
    }
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(id, self.warmup, self.measure, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the harness sizes runs by wall
    /// clock, not sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Overrides the measurement window.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.criterion.measure = d;
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        run_one(&full, self.criterion.warmup, self.criterion.measure, &mut f);
        self
    }

    /// Runs one parameterized benchmark inside the group.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        run_one(
            &full,
            self.criterion.warmup,
            self.criterion.measure,
            &mut |b| f(b, input),
        );
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// A benchmark identifier: function name plus parameter rendering.
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// Builds `name/parameter`.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            text: format!("{name}/{parameter}"),
        }
    }

    /// Builds an id from the parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            text: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// How many inputs [`Bencher::iter_batched`] prepares at a time. Accepted
/// for API compatibility: the shim builds one input per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Inputs too large to keep many of.
    LargeInput,
}

/// Timer handle handed to the closure being benchmarked.
pub struct Bencher {
    warmup: Duration,
    measure: Duration,
    /// (total time, iterations) recorded by the last `iter` call.
    result: Option<(Duration, u64)>,
}

impl Bencher {
    /// Times `f`, running it repeatedly until the measurement window is
    /// filled.
    pub fn iter<R, F>(&mut self, mut f: F)
    where
        F: FnMut() -> R,
    {
        // Warm-up: run until the warm-up window elapses (at least once).
        let start = Instant::now();
        let mut warm_iters: u64 = 0;
        loop {
            black_box(f());
            warm_iters += 1;
            if start.elapsed() >= self.warmup {
                break;
            }
        }
        // Size the measured batch from the observed warm-up rate.
        let per_iter = start.elapsed().as_secs_f64() / warm_iters as f64;
        let target = (self.measure.as_secs_f64() / per_iter.max(1e-9)).ceil() as u64;
        let iters = target.clamp(1, 10_000_000);
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        self.result = Some((start.elapsed(), iters));
    }

    /// Times `routine` alone on inputs `setup` builds, one per iteration:
    /// neither the setup nor dropping the routine's output is timed. Runs
    /// once to warm up, then until the measurement window of wall-clock
    /// time (setup included) has passed, at least three times — for
    /// routines that consume an expensive input.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut once = |timed: &mut Duration| {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            *timed += start.elapsed();
            drop(output);
        };
        let mut warm_up = Duration::ZERO;
        once(&mut warm_up);
        let (start, mut timed, mut iters) = (Instant::now(), Duration::ZERO, 0_u64);
        while iters < 3 || start.elapsed() < self.measure {
            once(&mut timed);
            iters += 1;
        }
        self.result = Some((timed, iters));
    }
}

fn run_one<F>(id: &str, warmup: Duration, measure: Duration, f: &mut F)
where
    F: FnMut(&mut Bencher),
{
    let mut b = Bencher {
        warmup,
        measure,
        result: None,
    };
    f(&mut b);
    match b.result {
        Some((total, iters)) => {
            let per = total.as_secs_f64() / iters as f64;
            println!("{id:<60} time: {:>12}   ({iters} iters)", fmt_time(per));
        }
        None => println!("{id:<60} time:        (not measured)"),
    }
}

/// Declares a bench group: `criterion_group!(benches, fn_a, fn_b, ...)`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench binary's `main`, running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Criterion {
        Criterion {
            warmup: Duration::from_millis(1),
            measure: Duration::from_millis(5),
        }
    }

    #[test]
    fn bench_function_runs_and_records() {
        let mut c = quick();
        let mut calls = 0_u64;
        c.bench_function("noop", |b| {
            b.iter(|| {
                calls += 1;
                black_box(calls)
            })
        });
        assert!(calls > 0);
    }

    #[test]
    fn groups_compose_ids() {
        let mut c = quick();
        let mut g = c.benchmark_group("g");
        g.sample_size(10)
            .bench_with_input(BenchmarkId::new("case", 3), &3_u64, |b, &n| {
                b.iter(|| black_box(n * 2))
            });
        g.finish();
    }

    #[test]
    fn id_rendering() {
        assert_eq!(BenchmarkId::new("f", 12).to_string(), "f/12");
        assert_eq!(BenchmarkId::from_parameter("p").to_string(), "p");
    }
}
