//! Work-stealing task pool.
//!
//! The hierarchy used to parallelize detection with one thread per level
//! (≤ 5 threads, serial per-sensor scoring inside each). That caps speed-up
//! at the slowest level and leaves wide plants (many machines × sensors)
//! under-parallelized. [`TaskPool`] instead takes the full task list —
//! typically one [`ScoringTask`](crate::engine) per (level × machine ×
//! sensor/job group) — and runs it on a fixed worker set with work
//! stealing: each worker owns a deque seeded round-robin, pops from its own
//! back (LIFO: cache-warm, recently pushed), and steals from other deques'
//! fronts (FIFO: the oldest, usually largest remaining work) when its own
//! runs dry. Tasks never spawn tasks, so a worker that completes a full
//! sweep of all deques without finding work can exit.
//!
//! Results return **in task order**, so scheduling is invisible to callers:
//! the same task list always produces the same output vector.

use std::collections::VecDeque;
use std::sync::PoisonError;

// Under `--features loom` the pool runs on model-checked primitives (see
// shims/loom and tests/loom_pool.rs); the shim degrades to plain `std`
// outside a `loom::model` run, so the ordinary tests still pass either way.
#[cfg(feature = "loom")]
use loom::{sync::Mutex, thread};
#[cfg(not(feature = "loom"))]
use std::{sync::Mutex, thread};

/// A unit of work: boxed so heterogeneous closures share one queue. The
/// lifetime ties tasks to data borrowed from the caller's stack (plant
/// views, policies), which the scoped workers may freely reference.
pub type Task<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// Fixed-size work-stealing thread pool (scoped; no detached threads).
#[derive(Debug, Clone)]
pub struct TaskPool {
    workers: usize,
}

impl Default for TaskPool {
    fn default() -> Self {
        Self::with_default_parallelism()
    }
}

impl TaskPool {
    /// A pool with an explicit worker count (min 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn with_default_parallelism() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self::new(workers)
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every task and returns their results in task order.
    ///
    /// Workers are scoped threads, so tasks may borrow from the caller's
    /// stack. A panicking task propagates its panic to the caller after the
    /// scope joins (no result is lost silently).
    pub fn run<'env, T: Send>(&self, tasks: Vec<Task<'env, T>>) -> Vec<T> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        if workers == 1 {
            return tasks.into_iter().map(|t| t()).collect();
        }
        // Seed the per-worker deques round-robin with (index, task).
        type Deque<'env, T> = Mutex<VecDeque<(usize, Task<'env, T>)>>;
        let mut deques: Vec<Deque<'env, T>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        let mut tasks = tasks.into_iter().enumerate().peekable();
        while tasks.peek().is_some() {
            for (deque, task) in deques.iter_mut().zip(&mut tasks) {
                deque
                    .get_mut()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push_back(task);
            }
        }
        let deques = &deques;
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let slots = &slots;
        let store = |idx: usize, out: T| {
            if let Some(slot) = slots.get(idx) {
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
            }
        };
        thread::scope(|scope| {
            for (w, own) in deques.iter().enumerate() {
                scope.spawn(move || {
                    loop {
                        // Own deque first: pop the back (most recently
                        // seeded work; LIFO keeps the footprint warm).
                        // Poisoned locks are recovered, not propagated: a
                        // panicking task resurfaces at scope join anyway,
                        // and a deque/slot is consistent at every await
                        // point (push/pop are atomic under the lock).
                        let popped = own
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .pop_back();
                        // Steal sweep: oldest work from the other deques,
                        // starting with the next worker's.
                        let next = popped.or_else(|| {
                            let mut victims = deques.iter().cycle().skip(w + 1).take(workers - 1);
                            victims.find_map(|victim| {
                                victim
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .pop_front()
                            })
                        });
                        // Tasks never spawn tasks: an empty sweep means all
                        // queues are drained for good.
                        let Some((idx, task)) = next else { break };
                        store(idx, task());
                    }
                });
            }
        });
        // Every slot is filled here: the scope joined every worker, and a
        // task that panicked instead of filling its slot re-raised at join.
        slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).take())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_task_order() {
        let pool = TaskPool::new(4);
        let tasks: Vec<Task<usize>> = (0..64)
            .map(|i| {
                let t: Task<usize> = Box::new(move || {
                    // Uneven task cost to force stealing.
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
        let out = pool.run(tasks);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let pool = TaskPool::new(3);
        let tasks: Vec<Task<()>> = (0..100)
            .map(|_| {
                let c = &counter;
                let t: Task<()> = Box::new(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
                t
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn tasks_may_borrow_caller_data() {
        let data: Vec<u64> = (0..1000).collect();
        let pool = TaskPool::with_default_parallelism();
        let tasks: Vec<Task<u64>> = data
            .chunks(100)
            .map(|chunk| {
                let t: Task<u64> = Box::new(move || chunk.iter().sum());
                t
            })
            .collect();
        let partials = pool.run(tasks);
        assert_eq!(partials.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn empty_and_single_worker_paths() {
        let pool = TaskPool::new(0); // clamps to 1
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.run(Vec::<Task<u8>>::new()), Vec::<u8>::new());
        let one: Vec<Task<u8>> = vec![Box::new(|| 7)];
        assert_eq!(pool.run(one), vec![7]);
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let pool = TaskPool::new(16);
        let tasks: Vec<Task<usize>> = (0..3_usize)
            .map(|i| Box::new(move || i) as Task<usize>)
            .collect();
        assert_eq!(pool.run(tasks), vec![0, 1, 2]);
    }
}
