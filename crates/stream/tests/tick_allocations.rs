//! A steady-state tick's allocations do not grow with the outlier count.
//!
//! Between two ticks that close no job, a tick plus dropping the report it
//! replaces must cost a number of allocations set by the plant's lanes and
//! levels, not by how many outliers the report carries: outliers share
//! their names (`Arc<str>`) with the frozen phase fragments, and every
//! per-outlier column is allocated once. The same plant is replayed under
//! two phase thresholds, so the lanes are identical and only the outlier
//! count differs (by at least 4×).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hierod_core::AlgorithmPolicy;
use hierod_stream::{StreamConfig, StreamDetector, StreamEvent, StreamReport};
use hierod_synth::ScenarioBuilder;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: a pass-through to `System`: every call forwards exactly the
// pointer, layout and size it received, and the bookkeeping is a
// const-initialised thread-local `Cell` that never allocates, so the
// `GlobalAlloc` contract holds because `System`'s does.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's block and sizes, forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the pointer/layout pair `alloc` handed out.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Replays the plant under a phase threshold and ticks until every job is
/// frozen; returns one more tick's report and the allocations that tick
/// made plus those of dropping the report it displaced.
fn steady_tick(phase_threshold: f64) -> (StreamReport, u64) {
    let scenario = ScenarioBuilder::new(3)
        .machines(2)
        .jobs_per_machine(4)
        .redundancy(3)
        .phase_samples(60)
        .anomaly_rate(0.5)
        .build();
    let mut policy = AlgorithmPolicy::default();
    policy.thresholds[0] = phase_threshold;
    let mut det = StreamDetector::new(policy, StreamConfig::default()).expect("detector");
    for event in scenario.replay().into_iter().map(StreamEvent::from) {
        match event {
            StreamEvent::Control(control) => det.apply(&control).expect("control"),
            StreamEvent::Sample(lane, sample) => det.ingest(&lane, sample).expect("ingest"),
        }
    }
    det.tick().expect("freezing tick");
    let displaced = det.tick().expect("steady tick");
    let before = allocations();
    let next = det.tick().expect("measured tick");
    drop(displaced);
    let spent = allocations() - before;
    (next, spent)
}

#[test]
fn a_steady_tick_allocates_per_lane_not_per_outlier() {
    let (few, few_allocs) = steady_tick(4.0);
    let (many, many_allocs) = steady_tick(2.0);
    let (k, k4) = (few.report.outliers.len(), many.report.outliers.len());
    assert!(k >= 20 && k4 >= 4 * k, "outlier counts {k} and {k4}");
    // Same plant, same lanes: whatever the outlier count adds must stay
    // within a bounded number per lane (here one per lane, generously).
    let lanes = many.lane_stats.len() as u64;
    assert_eq!(lanes, few.lane_stats.len() as u64);
    assert!(
        many_allocs <= few_allocs + lanes,
        "{k} outliers: {few_allocs} allocations; {k4} outliers: {many_allocs} ({lanes} lanes)"
    );
}
