//! Batch task runner.
//!
//! The hierarchy used to parallelize detection with one thread per level
//! (≤ 5 threads, serial per-sensor scoring inside each). That caps speed-up
//! at the slowest level and leaves wide plants (many machines × sensors)
//! under-parallelized. [`run_tasks`] instead takes the full task list —
//! typically one [`ScoringTask`](crate::engine) per (level × machine ×
//! sensor/job group) — and runs it on a fixed set of scoped threads that
//! claim tasks one at a time from one shared queue. Tasks are coarse and
//! never spawn tasks, so one queue balances them without per-thread
//! deques, and a thread that finds the queue empty can exit.
//!
//! Results return **in task order**, so scheduling is invisible to callers:
//! the same task list always produces the same output vector.

use std::sync::PoisonError;

// Under `--features loom` the runner uses model-checked primitives (see
// shims/loom and tests/loom_pool.rs); the shim degrades to plain `std`
// outside a `loom::model` run, so the ordinary tests still pass either way.
#[cfg(feature = "loom")]
use loom::{sync::Mutex, thread};
#[cfg(not(feature = "loom"))]
use std::{sync::Mutex, thread};

/// A unit of work: boxed so heterogeneous closures share one queue. The
/// lifetime ties tasks to data borrowed from the caller's stack (plant
/// views, policies), which the scoped threads may freely reference.
pub type Task<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// Runs every task on `workers` scoped threads and returns their results
/// in task order.
///
/// `workers` is clamped to `1..=tasks.len()`; one worker runs the tasks
/// inline on the calling thread. Tasks may borrow from the caller's stack.
/// A panicking task propagates its panic to the caller after the scope
/// joins (no result is lost silently).
pub fn run_tasks<T: Send>(workers: usize, tasks: Vec<Task<'_, T>>) -> Vec<T> {
    let workers = workers.clamp(1, tasks.len().max(1));
    if workers == 1 {
        return tasks.into_iter().map(|t| t()).collect();
    }
    let done = Mutex::new(Vec::with_capacity(tasks.len()));
    let queue = Mutex::new(tasks.into_iter().enumerate());
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // The guard is a temporary of this statement: the queue is
                // unlocked again before the claimed task runs. No task runs
                // under either lock, so neither is ever poisoned; recovering
                // the guard anyway keeps the lib free of panic sites.
                let claimed = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((idx, task)) = claimed else { break };
                let out = task();
                done.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((idx, out));
            });
        }
    });
    let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    done.sort_unstable_by_key(|&(idx, _)| idx);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn results_come_back_in_task_order() {
        let tasks: Vec<Task<usize>> = (0..64)
            .map(|i| {
                let t: Task<usize> = Box::new(move || {
                    // Uneven task cost so threads finish out of order.
                    let spin = (i % 7) * 1000;
                    let mut acc = 0usize;
                    for j in 0..spin {
                        acc = acc.wrapping_add(j);
                    }
                    std::hint::black_box(acc);
                    i * 2
                });
                t
            })
            .collect();
        let out = run_tasks(4, tasks);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Task<()>> = (0..100)
            .map(|_| {
                let c = &counter;
                let t: Task<()> = Box::new(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
                t
            })
            .collect();
        run_tasks(3, tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn tasks_may_borrow_caller_data() {
        let data: Vec<u64> = (0..1000).collect();
        let tasks: Vec<Task<u64>> = data
            .chunks(100)
            .map(|chunk| {
                let t: Task<u64> = Box::new(move || chunk.iter().sum());
                t
            })
            .collect();
        let partials = run_tasks(4, tasks);
        assert_eq!(partials.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn empty_and_single_worker_paths() {
        assert_eq!(run_tasks(4, Vec::<Task<u8>>::new()), Vec::<u8>::new());
        // Zero workers clamps to one.
        let one: Vec<Task<u8>> = vec![Box::new(|| 7)];
        assert_eq!(run_tasks(0, one), vec![7]);
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let tasks: Vec<Task<usize>> = (0..3_usize)
            .map(|i| Box::new(move || i) as Task<usize>)
            .collect();
        assert_eq!(run_tasks(16, tasks), vec![0, 1, 2]);
    }

    #[test]
    fn no_lock_is_held_while_a_task_runs() {
        // Each task waits for the other to start, which only happens if
        // the queue is unlocked while a claimed task runs.
        let started = [AtomicBool::new(false), AtomicBool::new(false)];
        let deadline = Instant::now() + Duration::from_secs(10);
        let tasks: Vec<Task<bool>> = (0..2)
            .map(|i| {
                let started = &started;
                Box::new(move || {
                    started[i].store(true, Ordering::Relaxed);
                    while !started[1 - i].load(Ordering::Relaxed) {
                        if Instant::now() > deadline {
                            return false;
                        }
                        std::thread::yield_now();
                    }
                    true
                }) as Task<bool>
            })
            .collect();
        assert_eq!(run_tasks(2, tasks), vec![true, true]);
    }

    #[test]
    fn a_panicking_task_resurfaces_after_the_others_ran() {
        let ran: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let tasks: Vec<Task<()>> = ran
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move || {
                    if i == 3 {
                        panic!("task 3 panics");
                    }
                    slot.fetch_add(1, Ordering::Relaxed);
                }) as Task<()>
            })
            .collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_tasks(2, tasks)));
        assert!(outcome.is_err(), "the task's panic must reach the caller");
        for (i, r) in ran.iter().enumerate().filter(|&(i, _)| i != 3) {
            assert_eq!(r.load(Ordering::Relaxed), 1, "task {i}");
        }
    }
}
