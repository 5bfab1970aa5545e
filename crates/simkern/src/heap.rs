//! A reference scheduler backed by a comparison `BinaryHeap`.
//!
//! [`HeapQueue`] implements the same `(time, seq)` contract as
//! [`EventQueue`](crate::EventQueue) with the textbook data structure —
//! `(time, seq)` keys in a heap, O(log n) sift per operation. It exists
//! only as the oracle of the order-equivalence property tests
//! (`tests/wheel_equivalence.rs`); the simulator never uses it. The wheel's
//! own throughput is the benchmark's `simkern.hold_events_per_s`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::queue::SeqBlock;
use crate::time::SimTime;

/// A binary-heap discrete-event queue with the [`EventQueue`](crate::EventQueue)
/// API. Its handles are the events' `seq` numbers.
///
/// Cancellation is lazy deletion, as in dslab's `canceled_events`: the
/// heap keeps `(t, seq)` keys, payloads wait in a map, and a cancelled key
/// stays in the heap until it surfaces at the top, where it is discarded.
/// The top of the heap is therefore always a live event.
pub struct HeapQueue<E> {
    now: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    events: HashMap<u64, E>,
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
            events: HashMap::new(),
        }
    }

    /// The virtual clock.
    #[must_use]
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.now)
    }

    /// Number of pending events; cancelled ones are not counted.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedules `event` for `at`, clamped to the current time, and returns
    /// its handle.
    pub fn schedule(&mut self, at: SimTime, event: E) -> u64 {
        let t = at.as_micros().max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((t, seq)));
        self.events.insert(seq, event);
        seq
    }

    /// Takes the next `n` seqs for [`schedule_reserved`](Self::schedule_reserved).
    pub fn reserve(&mut self, n: u64) -> SeqBlock {
        let block = SeqBlock::new(self.seq, n);
        self.seq += n;
        block
    }

    /// Schedules `event` for `at`, clamped to the current time, under
    /// `block`'s next seq, and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics when the block is spent.
    pub fn schedule_reserved(&mut self, block: &mut SeqBlock, at: SimTime, event: E) -> u64 {
        let t = at.as_micros().max(self.now);
        let seq = block.take();
        self.heap.push(Reverse((t, seq)));
        self.events.insert(seq, event);
        seq
    }

    /// Cancels a pending event and returns it; `None` when it already
    /// popped or was cancelled.
    pub fn cancel(&mut self, handle: u64) -> Option<E> {
        let event = self.events.remove(&handle)?;
        self.discard_cancelled_top();
        Some(event)
    }

    /// Pops the earliest pending event if its deadline is ≤ `limit`,
    /// advancing the clock to that deadline.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let &Reverse((t, seq)) = self.heap.peek()?;
        if t > limit.as_micros() {
            return None;
        }
        self.heap.pop();
        self.now = t;
        let event = self.events.remove(&seq).expect("the heap's top is live");
        self.discard_cancelled_top();
        Some((SimTime::from_micros(t), event))
    }

    fn discard_cancelled_top(&mut self) {
        while let Some(Reverse((_, seq))) = self.heap.peek() {
            if self.events.contains_key(seq) {
                return;
            }
            self.heap.pop();
        }
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
        self.heap
            .peek()
            .map(|Reverse((t, _))| SimTime::from_micros(*t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancelled_events_are_skipped() {
        let mut q = HeapQueue::new();
        let a = q.schedule(SimTime::from_micros(5), "a");
        q.schedule(SimTime::from_micros(9), "b");
        assert_eq!(q.cancel(a), Some("a"));
        assert_eq!(q.cancel(a), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_deadline(), Some(SimTime::from_micros(9)));
        assert_eq!(
            q.pop_due(SimTime::MAX),
            Some((SimTime::from_micros(9), "b"))
        );
        assert!(q.is_empty());
    }

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
