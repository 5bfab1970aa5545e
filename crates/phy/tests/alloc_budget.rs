//! The channel engine's allocation budget, as a test: a saturated channel
//! calls `enqueue` and `complete` a few hundred thousand times a run, and
//! once the engine's buffers have grown to the size of the fleet the only
//! heap traffic left must be the `Vec<Resched>` a call hands back. The test
//! fails when one of the numbers below goes up.

#[path = "support/deadlines.rs"]
mod deadlines;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use deadlines::Deadlines;
use phy::{Channel, Enqueue, Phy, PhyModel};
use simkern::SimTime;

/// Heap allocations an `enqueue` on a busy transmitter (the frame waits, or
/// is tail-dropped) may cost.
const QUEUED_ENQUEUE_BUDGET: u64 = 0;
/// ... and a `complete` followed by an `enqueue` that starts the next frame:
/// the two returned `Vec<Resched>`s.
const COMPLETE_ENQUEUE_BUDGET: u64 = 2;

/// Counts this thread's allocations (growth counts; frees do not), so tests
/// running in parallel on other threads cannot disturb a reading.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System` unchanged; the only addition is
// a bump of a const-initialised, destructor-free thread-local, which neither
// allocates nor can be observed after its thread's teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

const NODES: usize = 32;
const DOMAINS: u32 = 4;
const QUEUE: usize = 4;

/// Node `n` sends to the next cell every third frame, otherwise within its own.
fn domains(node: usize, frame: u64) -> (u32, u32) {
    let own = node as u32 % DOMAINS;
    if frame.is_multiple_of(3) {
        (own, (own + 1) % DOMAINS)
    } else {
        (own, own)
    }
}

struct Loop {
    phy: Phy<u64>,
    deadlines: Deadlines,
    /// Frames offered so far; the next one's payload.
    frames: u64,
}

impl Loop {
    /// Offers `node` its next frame; returns the outcome and what the
    /// engine's `enqueue` allocated.
    fn offer(&mut self, at: SimTime, node: usize) -> (Enqueue<u64>, u64) {
        let (d, payload) = (domains(node, self.frames), self.frames);
        self.frames += 1;
        let (allocated, (outcome, moved)) =
            allocations_during(|| self.phy.enqueue(at, node, d, 128, payload));
        self.deadlines.schedule(&moved);
        (outcome, allocated)
    }

    /// Pops deadlines until one is fresh; returns its time, its node and
    /// what the engine's `complete` allocated.
    fn complete_next(&mut self) -> (SimTime, usize, u64) {
        loop {
            let due = self.deadlines.pop_due(u64::MAX);
            let (at, tx, seq) = due.expect("the air is never empty");
            let (allocated, outcome) = allocations_during(|| self.phy.complete(at, tx, seq));
            if let Some((done, moved)) = outcome {
                self.deadlines.schedule(&moved);
                return (at, done.node, allocated);
            }
            assert_eq!(allocated, 0, "a stale deadline costs nothing");
        }
    }
}

#[test]
fn steady_state_allocates_only_the_returned_batches() {
    let channel = Channel {
        bits_per_sec: 128_000,
        queue_frames: QUEUE,
    };
    let phy = Phy::new(&PhyModel::SharedAirtime(channel), NODES).expect("non-ideal model");
    let mut l = Loop {
        phy,
        deadlines: Deadlines::default(),
        frames: 0,
    };
    // Warm-up: every transmitter on the air with a full queue behind it,
    // then enough turnover for every buffer to reach its working size.
    for node in 0..NODES {
        for _ in 0..=QUEUE {
            l.offer(SimTime::ZERO, node);
        }
    }
    for _ in 0..20 * NODES {
        let (at, node, _) = l.complete_next();
        l.offer(at, node);
    }

    for _ in 0..4 * NODES {
        // A finish whose node has a frame waiting starts it in the same
        // call: one batch. The enqueue behind it waits: nothing.
        let (at, node, completed) = l.complete_next();
        assert!(completed <= 1, "complete allocated {completed} times");
        let (outcome, queued) = l.offer(at, node);
        assert!(matches!(outcome, Enqueue::Queued { depth: QUEUE }));
        assert_eq!(queued, QUEUED_ENQUEUE_BUDGET, "a queued enqueue allocated");
        // Tail drop: nothing either.
        let (outcome, dropped) = l.offer(at, node);
        assert!(matches!(outcome, Enqueue::Dropped(_)));
        assert_eq!(dropped, QUEUED_ENQUEUE_BUDGET, "a tail drop allocated");
    }

    // Drain the queues so that a finish leaves its transmitter idle.
    while (0..NODES).any(|n| l.phy.queue_depth(n) > 0) {
        l.complete_next();
    }
    for _ in 0..4 * NODES {
        let (at, node, completed) = l.complete_next();
        let (outcome, started) = l.offer(at, node);
        assert!(matches!(outcome, Enqueue::Started(_)));
        assert!(
            completed + started <= COMPLETE_ENQUEUE_BUDGET,
            "a complete + enqueue cycle allocated {completed} + {started} times"
        );
    }
}
