//! Offline stand-in for the `loom` model checker.
//!
//! The build environment has no crates.io access, so this shim implements
//! the slice of loom that the workspace's concurrency models need:
//! [`model`] runs a closure repeatedly under a **cooperative scheduler**
//! that permits exactly one logical thread to run at a time and treats
//! every synchronization operation ([`sync::Mutex`] lock/unlock,
//! [`sync::Condvar`] wait/notify, [`sync::atomic`] access, spawn, join)
//! as a scheduling decision point. Across runs it performs a
//! depth-first search over those decisions with a **preemption bound**
//! (CHESS-style: most concurrency bugs need only a couple of forced
//! context switches), replaying each explored schedule prefix
//! deterministically and diverging at the next unexplored choice.
//!
//! Differences from real loom, by design:
//!
//! * Exploration is preemption-bounded DFS, not DPOR; the bound (default
//!   2, `LOOM_MAX_PREEMPTIONS`) and the schedule cap
//!   (`LOOM_MAX_BRANCHES`, default 20 000) truncate the search instead of
//!   proving exhaustiveness. A truncated search prints a notice.
//! * Atomics are modeled as **logical interleavings only**: every access
//!   is a decision point but executes with `SeqCst` std semantics, so
//!   check-then-act races and lost updates are explored while
//!   weak-memory reorderings are not (the nightly TSan CI job covers
//!   that axis). Condvar waits park the logical thread; a lost wakeup
//!   leaves no runnable thread and is reported as a deadlock.
//! * Outside a [`model`] run every primitive degrades to its `std`
//!   behaviour, so code compiled with `--features loom` still runs its
//!   ordinary tests.
//!
//! Extras over real loom: [`thread::scope`] mirrors
//! `std::thread::scope`, so scoped-borrowing code can be modeled without
//! an `Arc` rewrite.

#![forbid(unsafe_code)]

pub mod sched;
pub mod sync;
pub mod thread;

pub use sched::model;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The classic lost update: read under one lock, write under another.
    /// A real model checker must surface BOTH final values — 2 (serial)
    /// and 1 (both threads read 0 before either writes).
    #[test]
    fn explores_lost_update_interleavings() {
        let observed = std::sync::Mutex::new(HashSet::new());
        model(|| {
            let counter = sync::Mutex::new(0_u32);
            thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let v = *counter.lock().expect("model mutex");
                        // Lock dropped here: the other thread may interleave.
                        *counter.lock().expect("model mutex") = v + 1;
                    });
                }
            });
            let end = *counter.lock().expect("model mutex");
            observed.lock().expect("collector").insert(end);
        });
        let observed = observed.into_inner().expect("collector");
        assert!(observed.contains(&2), "serial schedule not explored");
        assert!(
            observed.contains(&1),
            "lost-update schedule not explored: {observed:?}"
        );
    }

    /// With the read-modify-write under a single critical section, every
    /// explored schedule must end at 2.
    #[test]
    fn mutex_gives_mutual_exclusion_in_every_schedule() {
        model(|| {
            let counter = sync::Mutex::new(0_u32);
            thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        *counter.lock().expect("model mutex") += 1;
                    });
                }
            });
            assert_eq!(*counter.lock().expect("model mutex"), 2);
        });
    }

    /// Opposite lock orders deadlock under some schedule; the shim must
    /// find it and panic rather than hang.
    #[test]
    fn detects_abba_deadlock() {
        let run = std::panic::catch_unwind(|| {
            model(|| {
                let a = sync::Mutex::new(());
                let b = sync::Mutex::new(());
                thread::scope(|s| {
                    s.spawn(|| {
                        let _ga = a.lock().expect("a");
                        let _gb = b.lock().expect("b");
                    });
                    s.spawn(|| {
                        let _gb = b.lock().expect("b");
                        let _ga = a.lock().expect("a");
                    });
                });
            });
        });
        assert!(run.is_err(), "ABBA deadlock was not detected");
    }

    /// A child assertion failure propagates out of `model` (with the
    /// schedule trace on stderr) instead of wedging parked threads.
    #[test]
    fn child_panic_propagates() {
        let run = std::panic::catch_unwind(|| {
            model(|| {
                thread::scope(|s| {
                    s.spawn(|| panic!("child failure"));
                });
            });
        });
        assert!(run.is_err());
    }

    /// So does a failure of the scope body itself, while its children are
    /// still parked waiting to be scheduled.
    #[test]
    fn scope_body_panic_propagates() {
        let run = std::panic::catch_unwind(|| {
            model(|| {
                let m = sync::Mutex::new(());
                thread::scope(|s| {
                    s.spawn(|| drop(m.lock().expect("model mutex")));
                    let _held = m.lock().expect("model mutex");
                    panic!("scope body failure");
                });
            });
        });
        assert!(run.is_err());
    }

    /// Outside `model`, the primitives behave exactly like `std`.
    #[test]
    fn std_passthrough_outside_model() {
        let m = sync::Mutex::new(5_i32);
        *m.lock().expect("std mutex") += 1;
        assert_eq!(*m.lock().expect("std mutex"), 6);
        let sum = thread::scope(|s| {
            let h = s.spawn(|| 21);
            h.join().expect("join") + 21
        });
        assert_eq!(sum, 42);
        thread::yield_now();
    }

    /// Condvar handoff: a consumer waits for a flag the producer sets.
    /// Every explored schedule must complete (the wait must neither hang
    /// nor miss the notify, including when notify fires before the wait —
    /// the predicate loop covers that case).
    #[test]
    fn condvar_handoff_completes_in_every_schedule() {
        model(|| {
            let pair = (sync::Mutex::new(false), sync::Condvar::new());
            thread::scope(|s| {
                s.spawn(|| {
                    let (lock, cv) = &pair;
                    let mut ready = lock.lock().expect("model mutex");
                    while !*ready {
                        ready = cv.wait(ready).expect("model cv");
                    }
                });
                s.spawn(|| {
                    let (lock, cv) = &pair;
                    *lock.lock().expect("model mutex") = true;
                    cv.notify_all();
                });
            });
        });
    }

    /// A wait with no notifier is a lost wakeup; the model must report it
    /// as a deadlock instead of hanging.
    #[test]
    fn missing_notify_is_detected_as_deadlock() {
        let run = std::panic::catch_unwind(|| {
            model(|| {
                let pair = (sync::Mutex::new(false), sync::Condvar::new());
                thread::scope(|s| {
                    s.spawn(|| {
                        let (lock, cv) = &pair;
                        let mut ready = lock.lock().expect("model mutex");
                        while !*ready {
                            ready = cv.wait(ready).expect("model cv");
                        }
                    });
                });
            });
        });
        assert!(run.is_err(), "missing notify was not detected");
    }

    /// Unsynchronized check-then-act on an atomic: the explorer must find
    /// the schedule where both threads read 0 and the counter loses an
    /// increment, and also the serial schedule where it doesn't.
    #[test]
    fn explores_atomic_lost_update_interleavings() {
        use sync::atomic::{AtomicUsize, Ordering};
        let observed = std::sync::Mutex::new(HashSet::new());
        model(|| {
            let counter = AtomicUsize::new(0);
            thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let v = counter.load(Ordering::SeqCst);
                        counter.store(v + 1, Ordering::SeqCst);
                    });
                }
            });
            observed
                .lock()
                .expect("collector")
                .insert(counter.load(Ordering::SeqCst));
        });
        let observed = observed.into_inner().expect("collector");
        assert!(observed.contains(&2), "serial schedule not explored");
        assert!(
            observed.contains(&1),
            "atomic lost-update schedule not explored: {observed:?}"
        );
    }

    /// `fetch_add` is atomic: no schedule may lose an increment.
    #[test]
    fn fetch_add_never_loses_updates() {
        use sync::atomic::{AtomicUsize, Ordering};
        model(|| {
            let counter = AtomicUsize::new(0);
            thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::SeqCst), 2);
        });
    }
}
