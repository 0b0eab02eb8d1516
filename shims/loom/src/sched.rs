//! The cooperative scheduler and its DFS explorer.
//!
//! One logical thread runs at a time. Every decision point calls
//! `Scheduler::decide`, which consults the replayed schedule prefix (or
//! extends it with the default choice), switches `active` to the chosen
//! thread, and blocks the caller until it is scheduled again. The
//! controller in [`model`] advances the schedule odometer between runs.

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Sentinel `active` value when every thread has finished.
const NOBODY: usize = usize::MAX;

#[derive(Debug, Clone, PartialEq)]
enum ThreadState {
    /// Eligible to be scheduled.
    Runnable,
    /// Waiting for a model lock.
    Blocked(usize),
    /// Parked on a model condvar, waiting for a notify.
    WaitingCv(usize),
    /// Waiting for these threads to finish.
    Joining(Vec<usize>),
    /// Done.
    Finished,
}

#[derive(Debug)]
struct State {
    threads: Vec<ThreadState>,
    /// Owner of each model lock, by lock id.
    locks: Vec<Option<usize>>,
    /// Number of registered model condvars (ids are dense).
    condvars: usize,
    /// The one thread allowed to run.
    active: usize,
    /// Choice taken at each decision step (replayed prefix + extensions).
    choices: Vec<usize>,
    /// Number of alternatives that were available at each step.
    sizes: Vec<usize>,
    /// Next decision step index.
    step: usize,
    /// Forced context switches consumed so far.
    preemptions: usize,
    /// Set on deadlock or a panicked thread: everyone unwinds.
    abort: bool,
}

/// The per-model-run scheduler shared by all controlled threads.
#[derive(Debug)]
pub struct Scheduler {
    state: Mutex<State>,
    cv: Condvar,
    preemption_bound: usize,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

/// The scheduler/thread-id pair of the calling thread, when it is a
/// controlled thread of a running model.
pub fn current() -> Option<(Arc<Scheduler>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

pub(crate) fn set_current(ctx: Option<(Arc<Scheduler>, usize)>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

impl Scheduler {
    fn new(replay: Vec<usize>, preemption_bound: usize) -> Self {
        Self {
            state: Mutex::new(State {
                threads: vec![ThreadState::Runnable],
                locks: Vec::new(),
                condvars: 0,
                active: 0,
                choices: replay,
                sizes: Vec::new(),
                step: 0,
                preemptions: 0,
                abort: false,
            }),
            cv: Condvar::new(),
            preemption_bound,
        }
    }

    fn st(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a new controlled thread, returning its id.
    pub(crate) fn register_thread(&self) -> usize {
        let mut st = self.st();
        st.threads.push(ThreadState::Runnable);
        st.threads.len() - 1
    }

    /// Registers a new model lock, returning its id.
    pub(crate) fn register_lock(&self) -> usize {
        let mut st = self.st();
        st.locks.push(None);
        st.locks.len() - 1
    }

    /// Registers a new model condvar, returning its id.
    pub(crate) fn register_condvar(&self) -> usize {
        let mut st = self.st();
        let id = st.condvars;
        st.condvars += 1;
        id
    }

    /// The schedulable thread ids, in id order.
    fn runnable(st: &State) -> Vec<usize> {
        st.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == ThreadState::Runnable)
            .map(|(i, _)| i)
            .collect()
    }

    /// Takes one scheduling decision: picks the next active thread among
    /// the runnable ones, following the replay prefix or defaulting to
    /// "keep running the current thread" (no preemption). Panics the whole
    /// model on deadlock.
    fn decide(&self, st: &mut State) {
        let runnable = Self::runnable(st);
        if runnable.is_empty() {
            if st.threads.iter().all(|t| *t == ThreadState::Finished) {
                st.active = NOBODY;
                self.cv.notify_all();
                return;
            }
            st.abort = true;
            self.cv.notify_all();
            panic!(
                "loom shim: deadlock — no runnable thread (states: {:?})",
                st.threads
            );
        }
        // Choice list: continuing the active thread (when possible) first,
        // so the zero choice never costs a preemption; other runnable
        // threads only while the preemption budget lasts.
        let active_runnable = runnable.contains(&st.active);
        let choices: Vec<usize> = if active_runnable {
            if st.preemptions >= self.preemption_bound {
                vec![st.active]
            } else {
                std::iter::once(st.active)
                    .chain(runnable.iter().copied().filter(|&t| t != st.active))
                    .collect()
            }
        } else {
            runnable
        };
        let step = st.step;
        let pick_idx = if step < st.choices.len() {
            st.choices[step].min(choices.len() - 1)
        } else {
            st.choices.push(0);
            0
        };
        if step < st.sizes.len() {
            st.sizes[step] = choices.len();
        } else {
            st.sizes.push(choices.len());
        }
        st.step += 1;
        let next = choices[pick_idx];
        if active_runnable && next != st.active {
            st.preemptions += 1;
        }
        st.active = next;
        self.cv.notify_all();
    }

    /// Blocks until `me` is the active thread (or the model aborts).
    fn wait_for_turn<'a>(&'a self, mut st: MutexGuard<'a, State>, me: usize) {
        while st.active != me {
            if st.abort {
                drop(st);
                panic!("loom shim: model aborted");
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A plain decision point: `me` stays runnable, but another thread may
    /// be scheduled here.
    pub(crate) fn yield_point(&self, me: usize) {
        let mut st = self.st();
        self.decide(&mut st);
        self.wait_for_turn(st, me);
    }

    /// Acquires model lock `lock` for `me`, blocking (and rescheduling)
    /// while another thread owns it.
    pub(crate) fn acquire(&self, lock: usize, me: usize) {
        self.yield_point(me);
        loop {
            let mut st = self.st();
            if st.locks[lock].is_none() {
                st.locks[lock] = Some(me);
                return;
            }
            st.threads[me] = ThreadState::Blocked(lock);
            self.decide(&mut st);
            self.wait_for_turn(st, me);
        }
    }

    /// Releases model lock `lock`, waking its waiters, and yields.
    ///
    /// Runs in guard `Drop` impls, including during unwinding: once the
    /// model is aborting it only transfers ownership and returns (a panic
    /// here would be a panic-in-drop, taking the whole process down).
    pub(crate) fn release(&self, lock: usize, me: usize) {
        let mut st = self.st();
        debug_assert_eq!(st.locks[lock], Some(me), "release by non-owner");
        st.locks[lock] = None;
        for t in st.threads.iter_mut() {
            if *t == ThreadState::Blocked(lock) {
                *t = ThreadState::Runnable;
            }
        }
        if st.abort {
            self.cv.notify_all();
            return;
        }
        self.decide(&mut st);
        self.wait_for_turn(st, me);
    }

    /// Parks `me` on condvar `cv`, atomically releasing model lock `lock`
    /// (waking its waiters), and re-acquires the lock after a notify.
    ///
    /// Release + park happen under one scheduler-state lock, so there is no
    /// window where a notify can slip between them — exactly the atomicity
    /// `std::sync::Condvar::wait` guarantees. A notify that never comes
    /// leaves the thread `WaitingCv` forever; with no runnable thread left
    /// the next [`Self::decide`] panics the model as a deadlock, which is
    /// how lost-wakeup bugs surface in tests.
    pub(crate) fn cv_wait(&self, cv: usize, lock: usize, me: usize) {
        {
            let mut st = self.st();
            debug_assert_eq!(st.locks[lock], Some(me), "cv_wait without owning the lock");
            st.locks[lock] = None;
            for t in st.threads.iter_mut() {
                if *t == ThreadState::Blocked(lock) {
                    *t = ThreadState::Runnable;
                }
            }
            st.threads[me] = ThreadState::WaitingCv(cv);
            self.decide(&mut st);
            self.wait_for_turn(st, me);
        }
        // Notified: re-acquire the lock. No leading yield_point — the wake
        // itself was the decision point (mirrors `acquire`'s inner loop).
        loop {
            let mut st = self.st();
            if st.locks[lock].is_none() {
                st.locks[lock] = Some(me);
                return;
            }
            st.threads[me] = ThreadState::Blocked(lock);
            self.decide(&mut st);
            self.wait_for_turn(st, me);
        }
    }

    /// Wakes one (lowest thread id) or all waiters of condvar `cv`; a
    /// decision point like any other synchronization edge.
    pub(crate) fn cv_notify(&self, cv: usize, me: usize, all: bool) {
        let mut st = self.st();
        for t in st.threads.iter_mut() {
            if *t == ThreadState::WaitingCv(cv) {
                *t = ThreadState::Runnable;
                if !all {
                    break;
                }
            }
        }
        self.decide(&mut st);
        self.wait_for_turn(st, me);
    }

    /// First schedule of a freshly spawned thread: wait to be picked.
    pub(crate) fn first_run(&self, me: usize) {
        let st = self.st();
        self.wait_for_turn(st, me);
    }

    /// Marks `me` finished, unblocks joiners, and schedules a successor.
    pub(crate) fn finish(&self, me: usize) {
        let mut st = self.st();
        st.threads[me] = ThreadState::Finished;
        for t in st.threads.iter_mut() {
            if let ThreadState::Joining(waiting) = t {
                waiting.retain(|&w| w != me);
                if waiting.is_empty() {
                    *t = ThreadState::Runnable;
                }
            }
        }
        self.decide(&mut st);
        // No wait: this thread is done.
    }

    /// Marks the model as failed (a controlled thread panicked) so waiting
    /// threads unwind instead of hanging.
    pub(crate) fn mark_abort(&self) {
        let mut st = self.st();
        st.abort = true;
        self.cv.notify_all();
    }

    /// Blocks `me` until every listed thread has finished.
    pub(crate) fn join_all(&self, me: usize, children: &[usize]) {
        let mut st = self.st();
        let pending: Vec<usize> = children
            .iter()
            .copied()
            .filter(|&c| st.threads[c] != ThreadState::Finished)
            .collect();
        if pending.is_empty() {
            return;
        }
        st.threads[me] = ThreadState::Joining(pending);
        self.decide(&mut st);
        self.wait_for_turn(st, me);
    }
}

/// DFS odometer over schedules.
struct Explorer {
    replay: Vec<usize>,
}

impl Explorer {
    /// Advances to the next unexplored schedule; false when the space is
    /// exhausted.
    fn advance(&mut self, mut sizes: Vec<usize>, mut choices: Vec<usize>) -> bool {
        while let (Some(&c), Some(&n)) = (choices.last(), sizes.last()) {
            if c + 1 < n {
                *choices.last_mut().expect("non-empty") += 1;
                self.replay = choices;
                return true;
            }
            choices.pop();
            sizes.pop();
        }
        false
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Explores the closure under permuted thread interleavings.
///
/// Runs `f` once per schedule: the first run takes the non-preemptive
/// schedule, and each subsequent run replays an explored prefix and
/// diverges at the last decision with untried alternatives, until the
/// preemption-bounded space is exhausted or `LOOM_MAX_BRANCHES` is hit.
/// Panics (assertion failures, deadlocks) propagate out of `model` with
/// the failing schedule's decision trace printed to stderr.
pub fn model<F: Fn()>(f: F) {
    let preemption_bound = env_usize("LOOM_MAX_PREEMPTIONS", 2);
    let max_branches = env_usize("LOOM_MAX_BRANCHES", 20_000);
    let mut explorer = Explorer { replay: Vec::new() };
    let mut schedules = 0_usize;
    let mut distinct_traces: HashSet<Vec<usize>> = HashSet::new();
    loop {
        schedules += 1;
        let sched = Arc::new(Scheduler::new(explorer.replay.clone(), preemption_bound));
        set_current(Some((sched.clone(), 0)));
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&f));
        set_current(None);
        let (sizes, choices) = {
            let st = sched.st();
            (st.sizes.clone(), st.choices.clone())
        };
        if let Err(panic) = run {
            eprintln!("loom shim: schedule {schedules} failed; decision trace: {choices:?}");
            std::panic::resume_unwind(panic);
        }
        {
            let mut st = sched.st();
            st.threads[0] = ThreadState::Finished;
            debug_assert!(
                st.threads.iter().all(|t| *t == ThreadState::Finished),
                "model closure returned with live threads"
            );
        }
        distinct_traces.insert(choices.clone());
        if schedules >= max_branches {
            eprintln!(
                "loom shim: exploration truncated at {schedules} schedules \
                 (LOOM_MAX_BRANCHES)"
            );
            break;
        }
        if !explorer.advance(sizes, choices) {
            break;
        }
    }
    // A completed search is the useful signal in test logs.
    eprintln!(
        "loom shim: explored {schedules} schedules ({} distinct traces, preemption bound \
         {preemption_bound})",
        distinct_traces.len()
    );
}
