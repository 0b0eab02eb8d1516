//! The bounded accept queue: acceptor → worker socket hand-off.
//!
//! Extracted from the server body so the one piece of bespoke
//! synchronization in this crate is a small, loom-modelable type
//! (`tests/loom_queue.rs` explores its interleavings) instead of logic
//! inlined across the accept and worker loops.
//!
//! The shape is a monitor: a mutex-guarded `VecDeque` with a condvar for
//! parked poppers, plus a sticky `closed` flag for drain. The flag is
//! flipped *while holding the queue mutex*: a popper holds that mutex
//! from its closed-check to its `wait`, so the flip-and-notify can never
//! land inside that window — which is exactly the missed-wakeup race a
//! naked atomic flag would have, and why no timeout polling is needed.

use std::collections::VecDeque;
use std::sync::PoisonError;

#[cfg(feature = "loom")]
use loom::sync::{
    atomic::{AtomicBool, Ordering},
    Condvar, Mutex,
};
#[cfg(not(feature = "loom"))]
use std::sync::{
    atomic::{AtomicBool, Ordering},
    Condvar, Mutex,
};

/// A bounded multi-producer/multi-consumer hand-off queue with drain
/// semantics: [`offer`](HandoffQueue::offer) refuses instead of blocking,
/// [`pop`](HandoffQueue::pop) blocks until an item or close, and items
/// queued before [`close`](HandoffQueue::close) are still delivered.
#[derive(Debug)]
pub struct HandoffQueue<T> {
    items: Mutex<VecDeque<T>>,
    capacity: usize,
    closed: AtomicBool,
    available: Condvar,
}

impl<T> HandoffQueue<T> {
    /// Creates a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        HandoffQueue {
            items: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            closed: AtomicBool::new(false),
            available: Condvar::new(),
        }
    }

    /// Non-blocking bounded push. `Err` hands the item back when the
    /// queue is at capacity or closed — the caller owns the refusal
    /// policy (the server drops the socket, resetting the connection).
    pub fn offer(&self, item: T) -> Result<(), T> {
        if self.is_closed() {
            return Err(item);
        }
        let mut items = self.items.lock().unwrap_or_else(PoisonError::into_inner);
        if items.len() >= self.capacity {
            return Err(item);
        }
        items.push_back(item);
        drop(items);
        self.available.notify_one();
        Ok(())
    }

    /// Blocking pop: the next item, or `None` once the queue is closed
    /// *and* drained. Safe to call from many workers.
    pub fn pop(&self) -> Option<T> {
        let mut items = self.items.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = items.pop_front() {
                return Some(item);
            }
            if self.is_closed() {
                return None;
            }
            items = self
                .available
                .wait(items)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: further offers are refused, parked poppers wake,
    /// and already-queued items remain poppable (drain). Idempotent.
    pub fn close(&self) {
        let items = self.items.lock().unwrap_or_else(PoisonError::into_inner);
        // Release pairs with the Acquire in `is_closed`; holding the
        // mutex across the store serializes it against every popper's
        // check-then-wait window (see module docs).
        self.closed.store(true, Ordering::Release);
        drop(items);
        self.available.notify_all();
    }

    /// Whether [`close`](HandoffQueue::close) has been called. Lock-free:
    /// the per-frame drain check on every connection goes through this.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_bounded_refusal() {
        let q = HandoffQueue::new(2);
        assert!(q.offer(1).is_ok());
        assert!(q.offer(2).is_ok());
        assert_eq!(q.offer(3), Err(3), "at capacity: refused, handed back");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_refuses_offers_but_drains_items() {
        let q = HandoffQueue::new(4);
        assert!(q.offer(1).is_ok());
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.offer(2), Err(2));
        assert_eq!(q.pop(), Some(1), "queued before close: still delivered");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_has_a_floor_of_one() {
        let q = HandoffQueue::new(0);
        assert!(q.offer(7).is_ok());
        assert_eq!(q.offer(8), Err(8));
    }

    #[test]
    fn close_unblocks_a_parked_popper() {
        let q = std::sync::Arc::new(HandoffQueue::<u32>::new(1));
        let popper = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().expect("join"), None);
    }
}
