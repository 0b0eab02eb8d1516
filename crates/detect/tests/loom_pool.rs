//! Model-checked interleavings of the batch task runner [`run_tasks`].
//!
//! Run with `cargo test -p hierod-detect --features loom --test loom_pool`.
//! Each test body executes under `loom::model`, which replays it across
//! permuted schedules (every queue/result Mutex acquire, spawn, and join is
//! a decision point, preemption-bounded DFS — see shims/loom). Task and
//! worker counts are deliberately tiny: the schedule space is exponential.

#![cfg(feature = "loom")]

use std::sync::atomic::{AtomicUsize, Ordering};

use hierod_detect::engine::{run_tasks, Task};

/// Result order must equal task order under EVERY schedule — scheduling
/// must be invisible to callers.
#[test]
fn results_in_task_order_under_all_interleavings() {
    loom::model(|| {
        let tasks: Vec<Task<usize>> = (0..3_usize)
            .map(|i| Box::new(move || i * 10) as Task<usize>)
            .collect();
        let out = run_tasks(2, tasks);
        assert_eq!(out, vec![0, 10, 20]);
    });
}

/// No schedule may run a task twice or drop one: with two workers racing
/// over the shared queue, each task executes exactly once.
#[test]
fn every_task_runs_exactly_once_under_all_interleavings() {
    loom::model(|| {
        let ran = [
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        ];
        let tasks: Vec<Task<()>> = (0..3)
            .map(|i| {
                let slot = &ran[i];
                Box::new(move || {
                    slot.fetch_add(1, Ordering::Relaxed);
                }) as Task<()>
            })
            .collect();
        run_tasks(2, tasks);
        for (i, r) in ran.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed), 1, "task {i}");
        }
    });
}

/// More workers than tasks: the width clamps to the task count, and a
/// worker that finds the queue empty must shut down cleanly in every
/// schedule (no deadlock, no lost result).
#[test]
fn surplus_workers_shut_down_under_all_interleavings() {
    loom::model(|| {
        let tasks: Vec<Task<u8>> = vec![Box::new(|| 7), Box::new(|| 9)];
        assert_eq!(run_tasks(3, tasks), vec![7, 9]);
    });
}

/// Tasks borrowing the caller's stack stay sound across schedules (the
/// scoped-thread join is itself a modeled decision point).
#[test]
fn borrowed_caller_data_under_all_interleavings() {
    loom::model(|| {
        let data: Vec<u64> = (0..8).collect();
        let tasks: Vec<Task<u64>> = data
            .chunks(4)
            .map(|chunk| Box::new(move || chunk.iter().sum()) as Task<u64>)
            .collect();
        let partials = run_tasks(2, tasks);
        assert_eq!(partials.iter().sum::<u64>(), data.iter().sum::<u64>());
    });
}
