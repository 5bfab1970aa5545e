//! A reference scheduler backed by a comparison `BinaryHeap`.
//!
//! [`HeapQueue`] implements the same `(time, seq)` contract as
//! [`EventQueue`](crate::EventQueue) with the textbook data structure —
//! payloads inline in heap nodes, O(log n) sift per operation. It exists
//! only as the oracle of the order-equivalence property tests
//! (`tests/wheel_equivalence.rs`); the simulator never uses it. The wheel's
//! own throughput is the benchmark's `simkern.hold_events_per_s`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct HeapEntry<E> {
    t: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    /// Reversed `(t, seq)` order so the max-heap pops the earliest entry.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.t, other.seq).cmp(&(self.t, self.seq))
    }
}

/// A binary-heap discrete-event queue with the [`EventQueue`](crate::EventQueue) API.
pub struct HeapQueue<E> {
    now: u64,
    seq: u64,
    heap: BinaryHeap<HeapEntry<E>>,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        HeapQueue {
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// The virtual clock.
    #[must_use]
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.now)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` for `at`, clamped to the current time.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let t = at.as_micros().max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(HeapEntry { t, seq, event });
    }

    /// Pops the earliest pending event if its deadline is ≤ `limit`,
    /// advancing the clock to that deadline.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let due = self.heap.peek().map(|e| e.t <= limit.as_micros());
        if due != Some(true) {
            return None;
        }
        let entry = self.heap.pop().expect("peeked");
        self.now = entry.t;
        Some((SimTime::from_micros(entry.t), entry.event))
    }

    /// Advances the clock to `t` without popping.
    pub fn advance_to(&mut self, t: SimTime) {
        let t = t.as_micros();
        if t > self.now {
            self.now = t;
        }
    }

    /// Earliest pending deadline, if any.
    #[must_use]
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| SimTime::from_micros(e.t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_queue_contract() {
        let mut q = HeapQueue::new();
        q.schedule(SimTime::from_micros(50), "b");
        q.schedule(SimTime::from_micros(50), "c");
        q.schedule(SimTime::from_micros(7), "a");
        let order: Vec<&str> =
            std::iter::from_fn(|| q.pop_due(SimTime::MAX).map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_micros(50));
    }
}
