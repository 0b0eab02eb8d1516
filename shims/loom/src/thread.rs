//! Model-aware scoped threads.
//!
//! [`scope`] mirrors `std::thread::scope`. Under a [`model`](crate::model)
//! run each spawned closure becomes a controlled logical thread: it parks
//! until the scheduler picks it, every spawn is a decision point, and the
//! scope end joins through the scheduler so a blocked joiner deschedules
//! instead of spinning. A panicking child aborts the whole model (waking
//! every parked thread) and then propagates through the `std` scope as
//! usual. Outside a model run this is a zero-cost passthrough.

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::sched::{self, Scheduler};

/// Scope handle passed to the [`scope`] closure.
pub struct Scope<'scope, 'env: 'scope> {
    std: &'scope std::thread::Scope<'scope, 'env>,
    ctx: Option<(Arc<Scheduler>, usize)>,
    children: RefCell<Vec<usize>>,
}

/// Handle for a thread spawned in a [`Scope`].
pub struct JoinHandle<'scope, T> {
    std: std::thread::ScopedJoinHandle<'scope, T>,
    model: Option<(Arc<Scheduler>, usize, usize)>,
}

impl<T> JoinHandle<'_, T> {
    /// Waits for the thread to finish, descheduling under a model.
    pub fn join(self) -> std::thread::Result<T> {
        if let Some((sched, me, child)) = self.model {
            sched.join_all(me, &[child]);
        }
        self.std.join()
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a scoped thread; under a model it runs only when scheduled.
    pub fn spawn<F, T>(&self, f: F) -> JoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        match &self.ctx {
            Some((sched, me)) => {
                let child = sched.register_thread();
                self.children.borrow_mut().push(child);
                let sched2 = sched.clone();
                let handle = self.std.spawn(move || {
                    sched::set_current(Some((sched2.clone(), child)));
                    sched2.first_run(child);
                    let out = catch_unwind(AssertUnwindSafe(f));
                    sched::set_current(None);
                    match out {
                        Ok(v) => {
                            sched2.finish(child);
                            v
                        }
                        Err(panic) => {
                            // Wake every parked thread so the model unwinds
                            // instead of deadlocking, then let the std scope
                            // propagate the panic.
                            sched2.mark_abort();
                            resume_unwind(panic);
                        }
                    }
                });
                // The spawn itself is a decision point: the child may run
                // now or the parent may continue.
                sched.yield_point(*me);
                JoinHandle {
                    std: handle,
                    model: Some((sched.clone(), *me, child)),
                }
            }
            None => JoinHandle {
                std: self.std.spawn(f),
                model: None,
            },
        }
    }
}

/// Scoped-thread entry point; see the module docs.
///
/// Unlike `std`, the closure takes `&Scope` with an unconstrained borrow
/// (not `&'scope Scope`): our `Scope` wraps a *reference* to the invariant
/// `std::thread::Scope`, which cannot itself be borrowed for `'scope` from
/// inside the closure. Call sites written against `std` compile unchanged.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
{
    let ctx = sched::current();
    std::thread::scope(|s| {
        let wrapped = Scope {
            std: s,
            ctx: ctx.clone(),
            children: RefCell::new(Vec::new()),
        };
        let out = match catch_unwind(AssertUnwindSafe(|| f(&wrapped))) {
            Ok(out) => out,
            Err(panic) => {
                // The scope body itself failed (an assertion on the
                // spawning thread): its children are parked waiting to be
                // scheduled, and the implicit std join below would wait
                // for them forever. Wake them so the model unwinds.
                if let Some((sched, _)) = &wrapped.ctx {
                    sched.mark_abort();
                }
                resume_unwind(panic);
            }
        };
        // Join through the scheduler first so the implicit std join below
        // returns immediately instead of parking an *active* logical
        // thread (which would wedge the model).
        if let Some((sched, me)) = &wrapped.ctx {
            let children = wrapped.children.borrow();
            sched.join_all(*me, &children);
        }
        out
    })
}

/// Cooperative yield: a decision point under a model, `std` yield outside.
pub fn yield_now() {
    match sched::current() {
        Some((sched, me)) => sched.yield_point(me),
        None => std::thread::yield_now(),
    }
}
