//! The hierarchical timing-wheel event queue.
//!
//! [`EventQueue`] is the kernel's scheduler: a virtual clock plus a pending
//! set ordered by `(time, seq)`, where `seq` is a monotonically increasing
//! insertion counter. The `(time, seq)` total order is the contract clients
//! replay against — two runs that schedule the same events in the same order
//! pop them in the same order, which is what keeps same-seed simulations
//! byte-identical.
//!
//! # Structure
//!
//! Pending events live in one of four places:
//!
//! * `due` — events at exactly the current time, in seq order. Popping is a
//!   `VecDeque` pop.
//! * the **wheel** — [`LEVELS`] levels of 64 slots each. Level `k` slots are
//!   `64^k` µs wide, so level 0 resolves single microseconds and the whole
//!   wheel spans `64^6` µs (≈ 19 h of simulated time) ahead of the clock. A
//!   per-level `u64` occupancy bitmap makes "next non-empty slot" a single
//!   `trailing_zeros`. An event sits at the *lowest* level whose current
//!   window contains its deadline; as the clock enters a higher-level slot,
//!   that slot cascades down one level in insertion order, preserving seq
//!   order without ever comparing entries.
//! * `overflow` — a `BinaryHeap` for the rare event scheduled beyond the
//!   wheel span; migrated into the wheel when the clock catches up.
//!
//! Slot entries are 16-byte `(time, index)` pairs; payloads live in a slab
//! indexed by `u32` (freed indices are recycled), so cascades move compact
//! records, not event structs. Seq order is positional: `due` and every
//! wheel slot hold their entries in global seq order, whatever their
//! deadlines. A plain schedule appends the newest seq; a cascade empties a
//! slot, in order, into lower slots that are empty for the clock's new
//! window; overflow migration inserts each batch in seq order. So equal
//! deadlines always pop in seq order without the hot path comparing seqs.
//!
//! # Cancellation
//!
//! An index has two owners. Its wheel entry owns the *index*: it is freed
//! only when the entry is popped or discarded, never reused while the
//! entry points at it, so "the payload is gone" is the whole test for a
//! cancelled entry — the hot path reads no generation, only the payload it
//! takes. The [`EventHandle`] owns the *payload*:
//! [`cancel`](EventQueue::cancel) takes it out in O(1) and leaves the entry
//! where it is, as a tombstone. Tombstones are never popped, reported or
//! counted, and those in front of the next live deadline are discarded
//! before the clock jumps there, so no entry is ever left behind the
//! clock. Survivors are not moved, so they keep their `seq` order: a
//! cancellation changes which events fire, never the order of the rest.
//!
//! # Reserved seqs
//!
//! [`reserve`](EventQueue::reserve) takes a block of `n` seqs now, and
//! [`schedule_reserved`](EventQueue::schedule_reserved) later schedules an
//! event under the block's next one: a reserved seq sorts where it was
//! reserved — after every event scheduled before the reservation and before
//! every event scheduled after it, at the same deadline. That is what lets
//! a source stream its events one at a time (schedule the next when the
//! current fires) and still pop in exactly the order it would have if it
//! had scheduled them all at the reservation. The ordering is settled when
//! the entry is inserted: it goes to the position its seq sorts to in its
//! container (`due`, one wheel slot, or the overflow heap), found by a
//! binary search over the container's seq order. Popping never reads a
//! seq.
//!
//! Scheduling and popping are O(1) amortised versus O(log n) comparison-heap
//! operations — the difference that lets 10k-node worlds with hundreds of
//! thousands of in-flight events dispatch at tens of millions of events/sec.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Number of wheel levels.
pub const LEVELS: usize = 6;
/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Bit shift above which a deadline no longer fits any wheel level.
const SPAN_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// A handle to one scheduled event: its payload index plus the generation
/// (the low 32 bits of its `seq`) of the event it was issued for.
///
/// Valid from [`schedule`](EventQueue::schedule) until the event pops or is
/// cancelled; afterwards every operation on it returns `None`. (A stale
/// handle could alias only if its index were reused by an event scheduled
/// exactly a multiple of 2³² schedules later.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    idx: u32,
    gen: u32,
}

/// A block of seqs taken by [`EventQueue::reserve`], spent one at a time,
/// in order, by [`EventQueue::schedule_reserved`] on the queue that issued
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqBlock {
    next: u64,
    end: u64,
}

impl SeqBlock {
    /// The block `[start, start + n)`.
    pub(crate) fn new(start: u64, n: u64) -> Self {
        SeqBlock {
            next: start,
            end: start + n,
        }
    }

    /// Seqs not yet spent.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.end - self.next
    }

    /// Spends the block's next seq.
    ///
    /// # Panics
    ///
    /// Panics when the block is spent.
    pub(crate) fn take(&mut self) -> u64 {
        assert!(self.next < self.end, "the seq block is spent");
        self.next += 1;
        self.next - 1
    }
}

/// A scheduled entry: deadline and payload index — 16 bytes, so cascades
/// stream compact records. No sequence number: position within a slot IS
/// seq order, cascades preserve it, and the one structure that genuinely
/// reorders — the overflow heap — carries its own `(t, seq, idx)` triples
/// and hands each migrating batch back in seq order. No generation either
/// (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Entry {
    t: u64,
    idx: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 16);

/// A discrete-event queue with a virtual clock.
///
/// Events are any `E`; the queue imposes no trait bounds beyond what the
/// containers need. See the crate docs for the layout. A clone is exact:
/// the same pending events under the same handles and seqs, with the free
/// list and the tombstones.
#[derive(Debug)]
pub struct EventQueue<E> {
    now: u64,
    seq: u64,
    /// Payloads by index; an entry is live while its payload is here.
    payloads: Vec<Option<E>>,
    /// Each index's latest seq, beside `payloads` rather than in it so a
    /// payload-sized slot does not grow by a padded word. Its low 32 bits
    /// are the handle's generation. Written on schedule and read only
    /// through a handle or by a reserved insertion, so popping never reads
    /// it.
    seqs: Vec<u64>,
    /// Indices free for reuse.
    free: Vec<u32>,
    /// Live events.
    len: usize,
    /// Flat `LEVELS × SLOTS` grid: `slots[k * SLOTS + i]` holds entries for
    /// level-`k` slot `i`, in seq order. Slot buffers are recycled across
    /// cascades (never dropped), so a steady-state queue stops allocating.
    slots: Vec<Vec<Entry>>,
    /// Occupancy bitmap per level: bit `i` set ⇔ `slots[k][i]` non-empty.
    occupied: [u64; LEVELS],
    /// Events at exactly `now`, in seq order: `due[due_head..]` is pending.
    /// A `Vec` plus cursor (not a `VecDeque`) so the fast path can claim a
    /// whole level-0 slot by buffer swap instead of copying entries.
    due: Vec<Entry>,
    due_head: usize,
    /// Events beyond the wheel span, ordered by `(t, seq)`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl<E: Clone> Clone for EventQueue<E> {
    /// Copies only the wheel slots the occupancy bitmap marks; the others
    /// are empty, whatever capacity they keep for reuse.
    fn clone(&self) -> Self {
        let EventQueue {
            now,
            seq,
            payloads,
            seqs,
            free,
            len,
            slots,
            occupied,
            due,
            due_head,
            overflow,
        } = self;
        let slots = slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                if occupied[i / SLOTS] & (1 << (i % SLOTS)) != 0 {
                    slot.clone()
                } else {
                    Vec::new()
                }
            })
            .collect();
        EventQueue {
            now: *now,
            seq: *seq,
            payloads: payloads.clone(),
            seqs: seqs.clone(),
            free: free.clone(),
            len: *len,
            slots,
            occupied: *occupied,
            due: due.clone(),
            due_head: *due_head,
            overflow: overflow.clone(),
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            now: 0,
            seq: 0,
            payloads: Vec::new(),
            seqs: Vec::new(),
            free: Vec::new(),
            len: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            due: Vec::new(),
            due_head: 0,
            overflow: BinaryHeap::new(),
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
        self.len
    }

    /// True when nothing is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `event` for `at`, clamped to the current time — the clock
    /// never runs backwards, so a stale deadline fires immediately rather
    /// than silently in the past. The handle cancels it until it pops.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        let seq = self.seq;
        self.seq += 1;
        self.schedule_as(seq, at, event, false)
    }

    /// Takes the next `n` seqs for [`schedule_reserved`](Self::schedule_reserved):
    /// events scheduled through the block sort, among equal deadlines, as
    /// if they had been scheduled now.
    pub fn reserve(&mut self, n: u64) -> SeqBlock {
        let block = SeqBlock::new(self.seq, n);
        self.seq += n;
        block
    }

    /// Schedules `event` for `at` (clamped as in [`schedule`](Self::schedule))
    /// under `block`'s next seq: it pops after every pending event with the
    /// same deadline and a smaller seq and before every one with a larger
    /// seq. A binary search finds its place, and the insertion moves the
    /// container's later entries, so it suits a source with one event
    /// pending at a time.
    ///
    /// # Panics
    ///
    /// Panics when the block is spent. A block from another queue is a
    /// logic error.
    pub fn schedule_reserved(
        &mut self,
        block: &mut SeqBlock,
        at: SimTime,
        event: E,
    ) -> EventHandle {
        self.schedule_as(block.take(), at, event, true)
    }

    /// Stores `event` under `seq` and places its entry: `reserved` entries
    /// by seq among their deadline's, the rest (the newest seq) at the end.
    fn schedule_as(&mut self, seq: u64, at: SimTime, event: E, reserved: bool) -> EventHandle {
        let t = at.as_micros().max(self.now);
        let idx = if let Some(idx) = self.free.pop() {
            self.payloads[idx as usize] = Some(event);
            self.seqs[idx as usize] = seq;
            idx
        } else {
            let idx = u32::try_from(self.payloads.len()).expect("more than 2³² pending events");
            self.payloads.push(Some(event));
            self.seqs.push(seq);
            idx
        };
        self.len += 1;
        if t >> SPAN_BITS != self.now >> SPAN_BITS {
            // Beyond the wheel span: the overflow heap needs the explicit
            // seq for tie-breaking, wheel slots get it from insertion order.
            self.overflow.push(Reverse((t, seq, idx)));
        } else if reserved {
            self.insert_sorted(Entry { t, idx }, seq);
        } else {
            self.insert_entry(Entry { t, idx });
        }
        EventHandle {
            idx,
            gen: seq as u32,
        }
    }

    /// Payload slots allocated so far, live or free for reuse: the most
    /// entries, pending or cancelled but not yet discarded, ever held.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.payloads.len()
    }

    /// Cancels a pending event and returns it; `None` when the handle's
    /// event already popped or was cancelled. O(1): the wheel entry stays
    /// behind as a tombstone that is never popped, counted or reported, and
    /// keeps its index until it is discarded.
    pub fn cancel(&mut self, handle: EventHandle) -> Option<E> {
        let idx = handle.idx as usize;
        if self.seqs.get(idx).map(|&seq| seq as u32) != Some(handle.gen) {
            return None;
        }
        let event = self.payloads[idx].take()?;
        self.len -= 1;
        Some(event)
    }

    /// Discards every tombstone now, freeing its index, without moving the
    /// clock. Pops discard the tombstones they pass; a queue whose events
    /// leave by [`cancel`](Self::cancel) alone never pops, so it calls this
    /// instead. Survivors stay where they are. O(pending entries).
    pub fn discard_cancelled(&mut self) {
        let mut due = std::mem::take(&mut self.due);
        due.drain(..self.due_head);
        self.due_head = 0;
        due.retain(|e| self.keep(e.idx));
        self.due = due;
        for k in 0..LEVELS {
            let mut bits = self.occupied[k];
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.live_slot(k * SLOTS + slot).is_empty() {
                    self.occupied[k] &= !(1 << slot);
                }
            }
        }
        let mut far = std::mem::take(&mut self.overflow);
        far.retain(|&Reverse((_, _, idx))| self.keep(idx));
        self.overflow = far;
    }

    /// Pops the earliest pending event if its deadline is ≤ `limit`,
    /// advancing the clock to that deadline. Returns `None` — with the
    /// clock untouched — when the next event lies beyond the horizon, so a
    /// horizon miss is observationally free and the clock only ever sits on
    /// popped deadlines or explicit [`advance_to`](Self::advance_to) marks.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if !self.front(limit.as_micros()) {
            return None;
        }
        let entry = self.pop_due_head();
        let event = self
            .release(entry.idx)
            .expect("front leaves a live entry at the head of due");
        Some((SimTime::from_micros(entry.t), event))
    }

    /// Brings the earliest live event to the head of `due` if its deadline
    /// is ≤ `limit`, moving the clock there and discarding the tombstones
    /// met on the way; `false` (clock untouched) when there is none.
    fn front(&mut self, limit: u64) -> bool {
        loop {
            while let Some(&entry) = self.due.get(self.due_head) {
                if self.is_live(entry.idx) {
                    return self.now <= limit;
                }
                self.pop_due_head();
                self.release(entry.idx);
            }
            match self.next_live() {
                Some(t) if t <= limit => {
                    // Cascades inside `set_now` land the deadline's events
                    // in `due` (via insert-at-now) or the current level-0
                    // slot.
                    self.set_now(t);
                    self.drain_current_into_due();
                }
                _ => return false,
            }
        }
    }

    fn is_live(&self, idx: u32) -> bool {
        self.payloads[idx as usize].is_some()
    }

    /// Whether `idx`'s entry stays: a tombstone's index is freed instead.
    fn keep(&mut self, idx: u32) -> bool {
        let live = self.is_live(idx);
        if !live {
            self.release(idx);
        }
        live
    }

    /// Frees `idx` as its entry is popped or discarded, returning the
    /// payload if the event was live.
    fn release(&mut self, idx: u32) -> Option<E> {
        let event = self.payloads[idx as usize].take();
        self.len -= usize::from(event.is_some());
        self.free.push(idx);
        event
    }

    fn pop_due_head(&mut self) -> Entry {
        let entry = self.due[self.due_head];
        self.due_head += 1;
        if self.due_head == self.due.len() {
            self.due.clear();
            self.due_head = 0;
        }
        entry
    }

    /// Advances the clock to `t` without popping.
    ///
    /// The caller must have drained every event due at or before `t` (via
    /// [`pop_due`](Self::pop_due)); skipping pending events is a logic error.
    pub fn advance_to(&mut self, t: SimTime) {
        let t = t.as_micros();
        if t > self.now {
            // Clears the tombstones in front of the next live event, so the
            // jump leaves no entry behind the clock.
            let skipped = self.front(t);
            debug_assert!(!skipped, "advance_to skipped due events");
            self.set_now(t);
        }
    }

    /// Earliest pending deadline, if any. Never a cancelled event's: the
    /// tombstones in front of the answer are discarded on the way.
    #[must_use]
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        let due = self.due[self.due_head..]
            .iter()
            .find(|e| self.is_live(e.idx));
        due.map(|e| e.t)
            .or_else(|| self.next_live())
            .map(SimTime::from_micros)
    }

    /// Every pending event with its deadline and handle, in the order
    /// [`pop_due`](Self::pop_due) would fire them. It walks the whole queue:
    /// this is for inspecting what can happen next, not for a hot path.
    #[must_use]
    pub fn pending(&self) -> Vec<(SimTime, EventHandle, &E)> {
        let live = |&Entry { t, idx }: &Entry| {
            let event = self.payloads[idx as usize].as_ref()?;
            let gen = self.seqs[idx as usize] as u32;
            Some((SimTime::from_micros(t), EventHandle { idx, gen }, event))
        };
        let mut out: Vec<_> = self.due[self.due_head..].iter().filter_map(live).collect();
        // Containers hold disjoint, increasing deadline ranges: `due`, then
        // each level's slots ahead of the clock, then the overflow heap.
        // Equal deadlines share a slot in seq order, so a stable sort by
        // deadline within each slot is the pop order.
        for k in 0..LEVELS {
            for slot in self.ahead(k) {
                let start = out.len();
                out.extend(self.slots[k * SLOTS + slot].iter().filter_map(live));
                out[start..].sort_by_key(|&(t, ..)| t);
            }
        }
        let mut far: Vec<_> = self.overflow.iter().map(|Reverse(e)| *e).collect();
        far.sort_unstable();
        out.extend(
            far.iter()
                .filter_map(|&(t, _, idx)| live(&Entry { t, idx })),
        );
        out
    }

    /// The earliest live deadline outside `due`. Tombstones met on the way
    /// are discarded — a slot holding nothing else is emptied — so nothing,
    /// live or cancelled, precedes the returned deadline.
    fn next_live(&mut self) -> Option<u64> {
        for k in 0..LEVELS {
            while let Some(slot) = self.ahead(k).next() {
                if let Some(t) = self.live_min(k * SLOTS + slot) {
                    return Some(t);
                }
                self.occupied[k] &= !(1 << slot);
            }
        }
        while let Some(&Reverse((t, _, idx))) = self.overflow.peek() {
            if self.is_live(idx) {
                return Some(t);
            }
            self.release(idx);
            self.overflow.pop();
        }
        None
    }

    /// The earliest deadline among wheel slot `i`'s live entries. Every
    /// entry of a level-0 slot shares one deadline, so its first entry
    /// stands for all; when the earliest entry is a tombstone the slot is
    /// purged of tombstones and searched again.
    fn live_min(&mut self, i: usize) -> Option<u64> {
        let slot = &self.slots[i];
        let first = if i < SLOTS {
            slot.first()
        } else {
            slot.iter().min_by_key(|e| e.t)
        }?;
        if self.is_live(first.idx) {
            return Some(first.t);
        }
        self.live_slot(i).iter().map(|e| e.t).min()
    }

    /// Purges wheel slot `i` of tombstones and returns what is left.
    fn live_slot(&mut self, i: usize) -> &[Entry] {
        let mut slot = std::mem::take(&mut self.slots[i]);
        slot.retain(|e| self.keep(e.idx));
        self.slots[i] = slot;
        &self.slots[i]
    }

    /// Places an entry into `due` or a wheel slot. The deadline must be
    /// within the wheel span (callers route far deadlines to overflow).
    fn insert_entry(&mut self, entry: Entry) {
        debug_assert!(entry.t >= self.now);
        if entry.t == self.now {
            self.due.push(entry);
            return;
        }
        let (k, slot) = wheel_slot(entry.t, self.now);
        self.slots[k * SLOTS + slot].push(entry);
        self.occupied[k] |= 1 << slot;
    }

    /// Places an entry scheduled under `seq` where that seq sorts in its
    /// container: `due` for the current instant, otherwise the one wheel
    /// slot the deadline maps to. Both hold their entries in seq order (see
    /// the module docs), so a binary search finds the place and keeps that
    /// order; the entries sharing its deadline then pop around it by seq.
    /// The deadline must be within the wheel span.
    fn insert_sorted(&mut self, entry: Entry, seq: u64) {
        let EventQueue {
            now,
            seqs,
            slots,
            due,
            due_head,
            occupied,
            ..
        } = self;
        let (list, start) = if entry.t == *now {
            (due, *due_head)
        } else {
            let (k, slot) = wheel_slot(entry.t, *now);
            occupied[k] |= 1 << slot;
            (&mut slots[k * SLOTS + slot], 0)
        };
        debug_assert!(list[start..].is_sorted_by_key(|e| seqs[e.idx as usize]));
        let at = start + list[start..].partition_point(|e| seqs[e.idx as usize] < seq);
        list.insert(at, entry);
    }

    /// Level `k`'s occupied slots ahead of the clock, earliest first. The
    /// clock's own slot is excluded: at level 0 it is drained into `due` the
    /// moment the clock lands on it, and at higher levels it cascades down
    /// when the clock enters it, so a set bit there would be a stale past
    /// entry, not pending work.
    fn ahead(&self, k: usize) -> impl Iterator<Item = usize> {
        let cur = ((self.now >> (SLOT_BITS * k as u32)) & 63) as u32;
        let mut bits = self.occupied[k] & ((!0u64 << cur) << 1);
        std::iter::from_fn(move || {
            let slot = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
            bits &= bits - 1;
            Some(slot)
        })
    }

    /// Moves the clock to `t`, cascading every higher-level slot the clock
    /// enters down one level (preserving seq order) and migrating overflow
    /// entries that now fit the wheel.
    fn set_now(&mut self, t: u64) {
        let old = self.now;
        debug_assert!(t >= old);
        self.now = t;
        if (t ^ old) >> SLOT_BITS == 0 {
            // Within the clock's 64 µs window: no level boundary crossed.
            return;
        }
        for k in (1..LEVELS).rev() {
            let shift = SLOT_BITS * k as u32;
            if t >> shift == old >> shift {
                continue;
            }
            let slot = ((t >> shift) & 63) as usize;
            if self.occupied[k] & (1 << slot) != 0 {
                self.occupied[k] &= !(1 << slot);
                let mut entries = std::mem::take(&mut self.slots[k * SLOTS + slot]);
                for entry in entries.drain(..) {
                    debug_assert!(entry.t >= t, "cascade found an event in the past");
                    self.insert_entry(entry);
                }
                // Cascaded entries always land at a lower level (their
                // deadline shares the clock's level-k slot), so the slot is
                // still empty — hand its buffer back for reuse.
                self.slots[k * SLOTS + slot] = entries;
            }
        }
        if t >> SPAN_BITS != old >> SPAN_BITS {
            // The wheel is empty for the new span. The heap yields the batch
            // that now fits in `(t, seq)` order; inserting it in seq order
            // keeps every container in seq order.
            let mut batch = Vec::new();
            while let Some(&Reverse((et, seq, idx))) = self.overflow.peek() {
                if et >> SPAN_BITS != t >> SPAN_BITS {
                    break;
                }
                self.overflow.pop();
                batch.push((seq, Entry { t: et, idx }));
            }
            batch.sort_unstable_by_key(|&(seq, _)| seq);
            for (_, entry) in batch {
                self.insert_entry(entry);
            }
        }
    }

    /// Drains the level-0 slot at the current index into `due`. Those
    /// entries are exactly at `now`: level-0 indices equal `t & 63`, and the
    /// slot only holds deadlines in the clock's current 64 µs window.
    fn drain_current_into_due(&mut self) {
        let cur = (self.now & 63) as usize;
        if self.occupied[0] & (1 << cur) != 0 {
            self.occupied[0] &= !(1 << cur);
            debug_assert!(self.slots[cur].iter().all(|e| e.t == self.now));
            if self.due_is_empty() {
                // The common case: claim the slot wholesale by buffer swap
                // (the emptied `due` buffer becomes the slot's next one).
                self.due.clear();
                self.due_head = 0;
                std::mem::swap(&mut self.due, &mut self.slots[cur]);
            } else {
                let EventQueue { due, slots, .. } = self;
                due.append(&mut slots[cur]);
            }
        }
    }

    /// True when no event at exactly `now` is waiting in `due`.
    fn due_is_empty(&self) -> bool {
        self.due_head >= self.due.len()
    }
}

/// The wheel level and slot that hold deadline `t` while the clock reads
/// `now` (`t > now`, within the span): the lowest level whose current
/// window contains the deadline. Level k covers deadlines sharing the
/// clock's level-(k+1) slot, so the highest bit where deadline and clock
/// differ picks the level.
fn wheel_slot(t: u64, now: u64) -> (usize, usize) {
    let high_bit = 63 - (t ^ now).leading_zeros();
    let k = (high_bit / SLOT_BITS) as usize;
    debug_assert!(k < LEVELS, "deadline beyond the wheel span");
    (k, ((t >> (SLOT_BITS * k as u32)) & 63) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(u64, E)> {
        let mut out = Vec::new();
        while let Some((t, e)) = q.pop_due(SimTime::MAX) {
            out.push((t.as_micros(), e));
        }
        out
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(at(500), "c");
        q.schedule(at(3), "a");
        q.schedule(at(70), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(drain(&mut q), vec![(3, "a"), (70, "b"), (500, "c")]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.schedule(at(1_000), i);
        }
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn stale_deadlines_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule(at(100), "late");
        assert!(q.pop_due(SimTime::MAX).is_some());
        assert_eq!(q.now(), at(100));
        q.schedule(at(5), "stale");
        let (t, e) = q.pop_due(SimTime::MAX).unwrap();
        assert_eq!((t, e), (at(100), "stale"));
    }

    #[test]
    fn pop_due_respects_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(at(10), ());
        q.schedule(at(200), ());
        assert!(q.pop_due(at(100)).is_some());
        assert!(q.pop_due(at(100)).is_none());
        assert!(q.now() <= at(100));
        q.advance_to(at(100));
        // An event scheduled after a horizon miss still sorts correctly.
        q.schedule(at(150), ());
        let (t, ()) = q.pop_due(SimTime::MAX).unwrap();
        assert_eq!(t, at(150));
        let (t, ()) = q.pop_due(SimTime::MAX).unwrap();
        assert_eq!(t, at(200));
    }

    #[test]
    fn schedule_at_now_during_drain_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(at(50), 1u32);
        q.schedule(at(50), 2);
        let (t, e) = q.pop_due(SimTime::MAX).unwrap();
        assert_eq!((t.as_micros(), e), (50, 1));
        // Scheduled mid-dispatch at the current instant: runs after the
        // already-due entry, same time.
        q.schedule(q.now(), 3);
        assert_eq!(drain(&mut q), vec![(50, 2), (50, 3)]);
    }

    #[test]
    fn far_deadlines_cross_every_level_and_overflow() {
        let mut q = EventQueue::new();
        let span = 1u64 << SPAN_BITS;
        let times = [
            1,
            63,
            64,
            64 * 64 + 7,
            64 * 64 * 64 + 1,
            span - 1,
            span,
            span + 123,
            3 * span + 5,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(at(t), i);
        }
        let popped: Vec<u64> = drain(&mut q).into_iter().map(|(t, _)| t).collect();
        let mut expect = times.to_vec();
        expect.sort_unstable();
        assert_eq!(popped, expect);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        let step = SimDuration::from_millis(7);
        let mut expected = 0u64;
        q.schedule(at(0), ());
        for _ in 0..1_000 {
            let (t, ()) = q.pop_due(SimTime::MAX).unwrap();
            assert_eq!(t.as_micros(), expected);
            expected += step.as_micros();
            q.schedule(q.now() + step, ());
        }
    }

    #[test]
    fn next_deadline_is_exact_across_levels() {
        let mut q = EventQueue::<u8>::new();
        assert_eq!(q.next_deadline(), None);
        q.schedule(at(64 * 64 + 9), 0);
        assert_eq!(q.next_deadline(), Some(at(64 * 64 + 9)));
        q.schedule(at(40), 1);
        assert_eq!(q.next_deadline(), Some(at(40)));
    }

    #[test]
    fn cancelled_events_are_never_popped_counted_or_reported() {
        let mut q = EventQueue::new();
        let a = q.schedule(at(10), "a");
        let b = q.schedule(at(10), "b");
        let far = q.schedule(at(64 * 64 * 3), "far");
        q.schedule(at(64 * 64 * 5), "kept");
        assert_eq!(q.cancel(a), Some("a"));
        assert_eq!(q.cancel(far), Some("far"));
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_deadline(), Some(at(10)));
        let pending: Vec<&str> = q.pending().into_iter().map(|(_, _, e)| *e).collect();
        assert_eq!(pending, vec!["b", "kept"]);
        assert_eq!(q.cancel(b), Some("b"));
        assert_eq!(q.next_deadline(), Some(at(64 * 64 * 5)));
        assert_eq!(drain(&mut q), vec![(64 * 64 * 5, "kept")]);
        assert!(q.is_empty());
    }

    #[test]
    fn a_popped_or_cancelled_handle_cancels_nothing() {
        let mut q = EventQueue::new();
        let popped = q.schedule(at(5), 1u32);
        assert_eq!(q.pop_due(SimTime::MAX), Some((at(5), 1)));
        assert_eq!(q.cancel(popped), None, "cancel after pop");
        let twice = q.schedule(at(9), 2);
        assert_eq!(twice.idx, popped.idx, "a popped event's index is reused");
        assert_eq!(q.cancel(twice), Some(2));
        assert_eq!(q.cancel(twice), None, "second cancel");
        let next = q.schedule(at(9), 3);
        assert_ne!(next.idx, twice.idx, "a tombstone keeps its index");
        assert_eq!(drain(&mut q), vec![(9, 3)]);
        // Both indices are free again and the next schedules reuse them;
        // the old handles must not reach the events now living there.
        let tenants = [q.schedule(at(20), 4), q.schedule(at(20), 5)];
        assert_eq!(q.capacity(), 2, "no schedule grew the slab");
        assert!(tenants.iter().any(|h| h.idx == twice.idx));
        for stale in [popped, twice] {
            assert!(tenants.iter().all(|h| *h != stale));
            assert_eq!(q.cancel(stale), None);
        }
        assert_eq!(drain(&mut q), vec![(20, 4), (20, 5)]);
    }

    #[test]
    fn a_steady_hold_stops_growing_the_slab() {
        // Each round pops one event and schedules two, one of which is
        // cancelled: the pending set stays at 8, so must the footprint.
        let mut q = EventQueue::new();
        for i in 0..8u64 {
            q.schedule(at(i * 10), i);
        }
        for round in 0..10_000u64 {
            let (t, _) = q.pop_due(SimTime::MAX).unwrap();
            let doomed = q.schedule(t + SimDuration::from_micros(37), round);
            q.schedule(t + SimDuration::from_micros(80), round);
            assert_eq!(q.cancel(doomed), Some(round));
        }
        assert_eq!(q.len(), 8);
        assert!(q.capacity() <= 16, "slab grew to {}", q.capacity());
    }

    #[test]
    fn discarding_tombstones_frees_them_in_place() {
        // A queue drained by cancel alone, as a controlled world drains
        // its kernel: no pop ever passes the tombstones.
        let mut q = EventQueue::new();
        let span = 1u64 << SPAN_BITS;
        let kept = [q.schedule(at(0), 0), q.schedule(at(64 * 64 + 1), 1)];
        for round in 0..1_000u64 {
            let handles: Vec<_> = [0, 3, 70, 64 * 64 + 1, span + 9]
                .iter()
                .map(|&t| q.schedule(at(t), round))
                .collect();
            for h in handles {
                assert_eq!(q.cancel(h), Some(round));
            }
            q.discard_cancelled();
            assert!(q.capacity() <= 7, "slab grew to {}", q.capacity());
        }
        assert_eq!(q.now(), SimTime::ZERO);
        let listed: Vec<_> = q.pending().into_iter().map(|(_, h, _)| h).collect();
        assert_eq!(listed, kept);
        assert_eq!(drain(&mut q), vec![(0, 0), (64 * 64 + 1, 1)]);
    }

    #[test]
    fn tombstones_never_sit_behind_the_clock() {
        // Cancelled entries at every level, then clock jumps over them by
        // both routes (a pop beyond them and an explicit advance); the
        // wheel must keep working across later window wraps.
        let mut q = EventQueue::new();
        let span = 1u64 << SPAN_BITS;
        for t in [3, 70, 64 * 64 + 1, 64 * 64 * 64 * 2, span + 9] {
            let h = q.schedule(at(t), t);
            q.cancel(h);
        }
        q.schedule(at(64 * 64 * 64 * 3), 1);
        q.advance_to(at(64 * 64 * 64 * 2 + 5));
        assert_eq!(q.pop_due(SimTime::MAX), Some((at(64 * 64 * 64 * 3), 1)));
        let base = q.now().as_micros();
        for t in [1, 66, 64 * 64 + 2, span] {
            q.schedule(at(base + t), base + t);
        }
        let popped: Vec<u64> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(
            popped,
            vec![base + 1, base + 66, base + 64 * 64 + 2, base + span]
        );
    }

    #[test]
    fn a_horizon_miss_over_tombstones_leaves_the_clock() {
        // Once in the wheel and once in the overflow heap.
        for base in [0, 1u64 << SPAN_BITS] {
            let mut q = EventQueue::new();
            let h = q.schedule(at(base + 20), ());
            q.schedule(at(base + 500), ());
            q.cancel(h);
            assert_eq!(q.pop_due(at(base + 100)), None);
            assert_eq!(q.now(), SimTime::ZERO);
            q.advance_to(at(base + 100));
            assert_eq!(q.pop_due(SimTime::MAX), Some((at(base + 500), ())));
        }
    }

    #[test]
    fn a_reserved_seq_sorts_where_it_was_reserved() {
        // At every place a deadline can wait — due, each wheel level, the
        // overflow heap — events scheduled before and after a reservation
        // tie with the two reserved ones scheduled last.
        let span = 1u64 << SPAN_BITS;
        for t in [0, 5, 70, 64 * 64 + 3, 64 * 64 * 64 * 9, span - 1, span + 7] {
            let mut q = EventQueue::new();
            q.schedule(at(t), "before");
            let mut block = q.reserve(2);
            q.schedule(at(t), "after");
            q.schedule(at(t + 1), "later");
            assert_eq!(block.remaining(), 2);
            let first = q.schedule_reserved(&mut block, at(t), "first");
            q.schedule_reserved(&mut block, at(t), "second");
            assert_eq!(block.remaining(), 0);
            let listed: Vec<&str> = q.pending().into_iter().map(|(_, _, e)| *e).collect();
            assert_eq!(
                listed,
                ["before", "first", "second", "after", "later"],
                "t = {t}"
            );
            assert_eq!(q.cancel(first), Some("first"));
            let popped: Vec<&str> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
            assert_eq!(popped, ["before", "second", "after", "later"], "t = {t}");
        }
    }

    #[test]
    fn a_reserved_event_streamed_behind_the_clock_keeps_its_place() {
        // A source that schedules its next event when the current one
        // fires: each lands among events scheduled long after the block.
        let mut q = EventQueue::new();
        let mut block = q.reserve(3);
        for k in 1..=3u64 {
            q.schedule(at(k * 1_000), ("other", k));
        }
        q.schedule_reserved(&mut block, at(1_000), ("stream", 1));
        let mut order = Vec::new();
        while let Some((t, e)) = q.pop_due(SimTime::MAX) {
            if e.0 == "stream" && block.remaining() > 0 {
                q.schedule_reserved(
                    &mut block,
                    t + SimDuration::from_micros(1_000),
                    ("stream", e.1 + 1),
                );
            }
            order.push(e);
        }
        let expect: Vec<_> = (1..=3)
            .flat_map(|k| [("stream", k), ("other", k)])
            .collect();
        assert_eq!(order, expect);
    }

    #[test]
    #[should_panic(expected = "the seq block is spent")]
    fn a_spent_block_schedules_nothing() {
        let mut q = EventQueue::new();
        let mut block = q.reserve(1);
        q.schedule_reserved(&mut block, at(1), ());
        q.schedule_reserved(&mut block, at(2), ());
    }

    /// Pops everything, payloads only.
    fn order<E>(q: &mut EventQueue<E>) -> Vec<E> {
        drain(q).into_iter().map(|(_, e)| e).collect()
    }

    #[test]
    fn a_reserved_seq_sorts_into_a_slot_a_cascade_filled() {
        // Deadlines `t` and `t + 9` share the level-1 slot that the level-2
        // slot cascades into when the clock reaches 4,096, interleaved
        // before and after the reservation.
        let t = 64 * 64 + 64 * 3 + 7;
        let mut q = EventQueue::new();
        q.schedule(at(64 * 64), "clock");
        q.schedule(at(t + 9), "other before");
        q.schedule(at(t), "before");
        let mut block = q.reserve(1);
        q.schedule(at(t), "after");
        q.schedule(at(t + 9), "other after");
        assert_eq!(q.pop_due(SimTime::MAX), Some((at(64 * 64), "clock")));
        assert_eq!(q.slots[SLOTS + 3].len(), 4, "the cascade filled one slot");
        q.schedule_reserved(&mut block, at(t), "reserved");
        assert_eq!(
            order(&mut q),
            ["before", "reserved", "after", "other before", "other after"]
        );
    }

    #[test]
    fn a_reserved_seq_sorts_into_a_slot_overflow_migration_filled() {
        // Beyond the span the heap holds the entries in `(t, seq)` order;
        // they migrate into one level-1 slot, where `t` and the earlier
        // deadlines scheduled after the reservation must lie in seq order
        // for the binary search to find the reserved entry's place.
        let span = 1u64 << SPAN_BITS;
        let t = span + 64 + 10;
        let mut q = EventQueue::new();
        q.schedule(at(span + 1), "clock");
        q.schedule(at(t), "before");
        let mut block = q.reserve(1);
        for (dt, name) in [(5, "earlier"), (4, "sooner"), (3, "soon")] {
            q.schedule(at(t - dt), name);
        }
        q.schedule(at(t), "after");
        assert_eq!(q.pop_due(SimTime::MAX), Some((at(span + 1), "clock")));
        assert_eq!(q.slots[SLOTS + 1].len(), 5, "the migration filled one slot");
        q.schedule_reserved(&mut block, at(t), "reserved");
        assert_eq!(
            order(&mut q),
            ["earlier", "sooner", "soon", "before", "reserved", "after"]
        );
    }

    #[test]
    fn a_reserved_seq_sorts_into_due() {
        let mut q = EventQueue::new();
        q.schedule(at(100), "clock");
        q.schedule(at(100), "before");
        let mut block = q.reserve(1);
        q.schedule(at(100), "after");
        assert_eq!(q.pop_due(SimTime::MAX), Some((at(100), "clock")));
        q.schedule_reserved(&mut block, at(100), "reserved");
        assert_eq!(order(&mut q), ["before", "reserved", "after"]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Hundreds of streams, each holding one event under a reserved
        /// block and scheduling its next a period ahead when it fires,
        /// their phases shuffled against their reservation order, packed
        /// into one level-3 slot and colliding on the same microsecond,
        /// among plain events scheduled as they fire: the pop order is
        /// `(time, seq)`.
        #[test]
        fn interleaved_reserved_streams_pop_in_time_seq_order(
            streams in 500usize..700,
            sends in 2u64..5,
            spread in 1u64..24_000,
            mult in 1u64..1_000,
            noise in proptest::collection::vec(0u64..1_000_000, 1..64),
        ) {
            let period = 500_000;
            let mut q = EventQueue::new();
            // Per tag: its `(t, seq)` (the queue's seq counter, mirrored)
            // and the stream it belongs to, if any.
            let mut next_seq = 0;
            let mut keys: Vec<(u64, u64)> = Vec::new();
            let mut owner: Vec<Option<usize>> = Vec::new();
            let mut blocks = Vec::new();
            for s in 0..streams {
                if s % 97 == 0 {
                    // A plain event between the reservations.
                    let t = period + s as u64;
                    q.schedule(at(t), keys.len());
                    keys.push((t, next_seq));
                    owner.push(None);
                    next_seq += 1;
                }
                let mut block = q.reserve(sends);
                let t = period + (s as u64 * mult % streams as u64) * spread / streams as u64;
                q.schedule_reserved(&mut block, at(t), keys.len());
                keys.push((t, next_seq));
                owner.push(Some(s));
                blocks.push((block, next_seq + 1));
                next_seq += sends;
            }
            let mut popped = Vec::new();
            while let Some((now, tag)) = q.pop_due(SimTime::MAX) {
                let (t, _) = keys[tag];
                prop_assert_eq!(now.as_micros(), t);
                if let Some(s) = owner[tag] {
                    let (block, seq) = &mut blocks[s];
                    if block.remaining() > 0 {
                        q.schedule_reserved(block, at(t + period), keys.len());
                        keys.push((t + period, *seq));
                        owner.push(Some(s));
                        *seq += 1;
                    }
                }
                if popped.len() % 3 == 0 {
                    let t = t + noise[popped.len() % noise.len()];
                    q.schedule(at(t), keys.len());
                    keys.push((t, next_seq));
                    owner.push(None);
                    next_seq += 1;
                }
                popped.push(tag);
            }
            let mut expect: Vec<usize> = (0..keys.len()).collect();
            expect.sort_by_key(|&tag| keys[tag]);
            prop_assert_eq!(popped, expect);
        }
    }

    /// Every pending event with its deadline, handle and payload.
    fn listed(q: &EventQueue<usize>) -> Vec<(u64, EventHandle, usize)> {
        q.pending()
            .into_iter()
            .map(|(t, handle, &e)| (t.as_micros(), handle, e))
            .collect()
    }

    #[test]
    fn a_clone_lists_and_pops_what_its_original_does() {
        let mut q = EventQueue::new();
        let span = 1u64 << SPAN_BITS;
        q.schedule(at(1_000), 0);
        assert!(q.pop_due(SimTime::MAX).is_some());
        let mut handles = Vec::new();
        let mut next = 1;
        // Three events due now, one popped so `due` keeps a consumed head;
        // entries on every wheel level, a reserved one, and two beyond the
        // wheel in the overflow heap.
        for _ in 0..3 {
            handles.push(q.schedule(at(1_000), next));
            next += 1;
        }
        assert_eq!(q.pop_due(SimTime::MAX), Some((at(1_000), 1)));
        let mut block = q.reserve(2);
        for k in 0..LEVELS as u32 {
            for j in 0..3 {
                let t = 1_000 + (1u64 << (SLOT_BITS * k)) * (1 + j);
                handles.push(q.schedule(at(t), next));
                next += 1;
            }
        }
        q.schedule_reserved(&mut block, at(1_005), next);
        next += 1;
        for t in [span + 7, 3 * span] {
            handles.push(q.schedule(at(t), next));
            next += 1;
        }
        // Tombstones in `due`, on the wheel and in the overflow heap.
        for i in [1, 5, 12, handles.len() - 1] {
            assert!(q.cancel(handles[i]).is_some());
        }
        assert!(!q.due[q.due_head..].is_empty() && q.due_head > 0);
        assert!(q.occupied.iter().all(|&bits| bits != 0));
        assert!(!q.overflow.is_empty());

        let mut copy = q.clone();
        assert_eq!(copy.len(), q.len());
        assert_eq!(copy.capacity(), q.capacity());
        // The same seqs and free list: the next schedule gets the same handle.
        assert_eq!(copy.schedule(at(2_000), next), q.schedule(at(2_000), next));
        let mut again = copy.clone();
        let pending = listed(&q);
        assert_eq!(pending.len(), 20);
        let popped = drain(&mut q);
        for clone in [&mut copy, &mut again] {
            assert_eq!(listed(clone), pending);
            assert_eq!(drain(clone), popped);
        }
    }

    #[test]
    fn pending_lists_events_in_pop_order() {
        let mut q = EventQueue::new();
        let span = 1u64 << SPAN_BITS;
        // 100 and 70 share a level-1 slot, out of order.
        let times = [100, 3, span + 1, 64 * 64 + 9, 3, 0, 70, span + 1, 70];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(at(t), i);
        }
        let listed: Vec<(u64, usize)> = q
            .pending()
            .into_iter()
            .map(|(t, _, e)| (t.as_micros(), *e))
            .collect();
        assert_eq!(listed, drain(&mut q));
    }
}
