//! Level-view extraction allocates per series, not per sample.
//!
//! `LevelView::extract_all` hands every phase and environment series and
//! every phase event sequence to its view as an `Arc` share of the plant's
//! buffers, and derives the per-job feature rows once for the three upper
//! levels. So both the number of allocations it makes and the bytes they
//! request are fixed by the plant's shape (machines, jobs, phases,
//! sensors) and must not move when every phase carries more samples. The
//! same plant shape is generated at three phase lengths; the allocation
//! count is pinned at each, and the bytes must agree across all three.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hierod_hierarchy::LevelView;
use hierod_synth::ScenarioBuilder;

thread_local! {
    /// Allocations (and reallocations) made by this thread, and the bytes
    /// they requested (a reallocation counts its new size).
    static ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count_one(bytes: usize) {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| {
        let (count, total) = n.get();
        n.set((count + 1, total + bytes as u64));
    });
}

struct Counting;

// SAFETY: a pass-through to `System`: every call forwards exactly the
// pointer, layout and size it received, and the bookkeeping is a
// const-initialised thread-local `Cell` that never allocates, so the
// `GlobalAlloc` contract holds because `System`'s does.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
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

fn allocations() -> (u64, u64) {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations `extract_all` makes, and the bytes they request, on a
/// 3-machine × 6-job plant (3-fold redundancy) whose phases carry
/// `phase_samples` samples each.
fn extraction_allocations(phase_samples: usize) -> (u64, u64) {
    let scenario = ScenarioBuilder::new(1)
        .machines(3)
        .jobs_per_machine(6)
        .redundancy(3)
        .phase_samples(phase_samples)
        .build();
    let before = allocations();
    let views = LevelView::extract_all(&scenario.plant);
    let after = allocations();
    assert_eq!(views.len(), 5, "one view per level");
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn extract_all_allocates_the_same_at_every_phase_length() {
    let (_, bytes_at_64) = extraction_allocations(64);
    for phase_samples in [64, 256, 1024] {
        let (count, bytes) = extraction_allocations(phase_samples);
        assert_eq!(count, 2_311, "{phase_samples} samples per phase");
        assert_eq!(
            bytes, bytes_at_64,
            "bytes at {phase_samples} samples per phase vs at 64"
        );
    }
}
