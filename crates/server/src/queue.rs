//! The server's admission queue — the reactor pushes, the executor pool
//! pops: a bounded multi-producer/multi-consumer submission queue with
//! non-blocking admission: [`BoundedQueue::try_push`] never waits — when the
//! queue is at capacity the item is handed straight back so the caller can
//! answer `OVERLOADED` instead of queueing unboundedly.
//!
//! Built on the `mmdb_conc::sync` facade (std `Mutex`/`Condvar` in normal
//! builds, the model-checking scheduler under `mmdb-conc`'s `model`
//! feature); consumers block in [`BoundedQueue::pop`] until an item arrives
//! or the queue is closed *and* drained — which is exactly the
//! graceful-shutdown contract: close, let the workers finish the backlog,
//! then they exit. The contract "every accepted item is popped exactly
//! once before drain completes" is model-checked in
//! `crates/conc/tests/model_queue.rs`.

use mmdb_conc::sync::{Condvar, Mutex};
use std::collections::VecDeque;

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The queue. Shared by `Arc`; all methods take `&self`.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    capacity: usize,
}

/// Why a [`BoundedQueue::try_push`] was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue held `capacity` items already.
    Full,
    /// The queue was closed for new submissions.
    Closed,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` queued items (min 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured admission limit.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently queued items.
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking submission. Returns the item when the queue is full or
    /// closed — admission control, never backpressure-by-blocking.
    pub fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        let mut state = self.state.lock();
        if state.closed {
            return Err((item, PushError::Closed));
        }
        if state.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and returns it, or returns `None`
    /// once the queue is closed **and** fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state);
        }
    }

    /// Closes the queue: future pushes fail, consumers drain what is left
    /// and then observe `None`.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn admission_control_rejects_when_full() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let (item, err) = q.try_push(3).unwrap_err();
        assert_eq!(item, 3);
        assert_eq!(err, PushError::Full);
        assert_eq!(q.len(), 2);
        // A pop frees a slot.
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3).unwrap_err().1, PushError::Closed);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        q.try_push(7).unwrap();
        q.close();
        let mut got: Vec<Option<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![None, None, Some(7)]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2).unwrap_err().1, PushError::Full);
    }
}
