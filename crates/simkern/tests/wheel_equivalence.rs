//! Property tests pinning the timing-wheel [`EventQueue`] to the reference
//! [`HeapQueue`] over arbitrary interleavings of schedule / pop / advance /
//! cancel.
//!
//! Both queues promise the same contract — events pop in `(time, seq)`
//! order, the clock never runs backwards, horizons are respected, a
//! cancelled event never fires and the rest keep their order — so any
//! program driven against both must observe identical `(time, event)`
//! sequences and identical cancellation results. The heap cancels by lazy
//! deletion (dslab's `canceled_events`), the wheel by leaving a tombstone
//! in place. The generated programs deliberately cover the wheel's edge
//! geometry: zero delays, deadlines exactly on slot and level boundaries,
//! and deadlines beyond the wheel span that land in the overflow heap.
//!
//! Programs also reserve blocks of seqs and schedule under them later, at
//! fresh deadlines or at the deadline of an earlier event, so reserved
//! events tie with events scheduled before and after their reservation in
//! every container — the contract that a reserved seq sorts where it was
//! reserved.

use std::collections::BTreeMap;

use proptest::prelude::*;
use simkern::{EventQueue, HeapQueue, SeqBlock, SimTime};

/// When a scheduled event is due.
#[derive(Debug, Clone, Copy)]
enum When {
    /// `now + delay` µs.
    After(u64),
    /// The deadline of the `pick`-th event ever scheduled (modulo their
    /// number), clamped to now: a tie with it, or with whatever is due.
    Tie(usize),
}

/// One step of a queue-driving program.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event, under the next seq or — with `block: Some(pick)`
    /// — under the next seq of the `pick`-th reserved block that has one
    /// left (skipped when none has).
    Schedule { when: When, block: Option<usize> },
    /// Reserve a block of `n` seqs.
    Reserve { n: u64 },
    /// Pop up to `count` events with deadlines within `horizon` µs of now.
    Pop { count: usize, horizon: u64 },
    /// Advance the clock `ahead` µs past the last popped deadline.
    Advance { ahead: u64 },
    /// Cancel the `pick`-th event ever scheduled (modulo their number):
    /// pending, already popped or already cancelled.
    Cancel { pick: usize },
}

/// What a program observed: a pop, or a cancellation and what it returned.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Popped(u64, u32),
    Cancelled(Option<u32>),
}

/// Delays spanning every wheel regime: the current instant, the level-0
/// window, each higher level, the exact span boundary, and overflow.
fn delay_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => Just(0u64),
        5 => 1u64..64,
        5 => 64u64..4096,
        4 => 4096u64..262_144,
        2 => 262_144u64..(1 << 24),
        1 => (1u64 << 30)..(1 << 37),
        1 => (1u64 << 36) - 2..(1u64 << 36) + 2,
    ]
}

fn when_strategy() -> impl Strategy<Value = When> {
    prop_oneof![
        3 => delay_strategy().prop_map(When::After),
        1 => any::<usize>().prop_map(When::Tie),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => when_strategy().prop_map(|when| Op::Schedule { when, block: None }),
        3 => (when_strategy(), any::<usize>())
            .prop_map(|(when, pick)| Op::Schedule { when, block: Some(pick) }),
        1 => (1u64..4).prop_map(|n| Op::Reserve { n }),
        3 => (1usize..8, 0u64..100_000).prop_map(|(count, horizon)| Op::Pop { count, horizon }),
        1 => (0u64..50_000).prop_map(|ahead| Op::Advance { ahead }),
        2 => any::<usize>().prop_map(|pick| Op::Cancel { pick }),
    ]
}

/// Runs `ops` against a queue via the shared API, logging every pop and
/// every cancellation; `$check` runs on the queue after every op.
///
/// Pops use `now + horizon` as the limit and `Advance` moves to the popped
/// frontier plus `ahead` — both queues see the exact same call sequence, so
/// their logs must match entry for entry.
macro_rules! run_program {
    ($queue:expr, $ops:expr) => {
        run_program!($queue, $ops, |_| {})
    };
    ($queue:expr, $ops:expr, $check:expr) => {{
        let mut q = $queue;
        let mut log: Vec<Seen> = Vec::new();
        let mut handles = Vec::new();
        let mut deadlines: Vec<u64> = Vec::new();
        let mut blocks: Vec<SeqBlock> = Vec::new();
        for op in $ops {
            match *op {
                Op::Schedule { when, block } => {
                    let t = deadline(q.now().as_micros(), when, &deadlines);
                    let tag = handles.len() as u32;
                    let at = SimTime::from_micros(t);
                    let handle = match block {
                        None => Some(q.schedule(at, tag)),
                        Some(pick) => open_block(&mut blocks, pick)
                            .map(|block| q.schedule_reserved(block, at, tag)),
                    };
                    if let Some(handle) = handle {
                        handles.push(handle);
                        deadlines.push(t);
                    }
                }
                Op::Reserve { n } => blocks.push(q.reserve(n)),
                Op::Pop { count, horizon } => {
                    let limit = SimTime::from_micros(q.now().as_micros().saturating_add(horizon));
                    for _ in 0..count {
                        match q.pop_due(limit) {
                            Some((t, e)) => log.push(Seen::Popped(t.as_micros(), e)),
                            None => break,
                        }
                    }
                }
                Op::Cancel { pick } => {
                    if !handles.is_empty() {
                        log.push(Seen::Cancelled(q.cancel(handles[pick % handles.len()])));
                    }
                }
                Op::Advance { ahead } => {
                    // Drain everything due first so neither queue is asked
                    // to jump over pending events (a documented usage error
                    // for `advance_to`).
                    let target = SimTime::from_micros(q.now().as_micros().saturating_add(ahead));
                    while let Some((t, e)) = q.pop_due(target) {
                        log.push(Seen::Popped(t.as_micros(), e));
                    }
                    q.advance_to(target);
                }
            }
            $check(&q);
        }
        // Flush: every still-pending event must come out, in order.
        while let Some((t, e)) = q.pop_due(SimTime::MAX) {
            log.push(Seen::Popped(t.as_micros(), e));
        }
        assert!(q.is_empty());
        log
    }};
}

/// The deadline `when` names, seen from a clock at `now`.
fn deadline(now: u64, when: When, deadlines: &[u64]) -> u64 {
    match when {
        When::After(delay) => now.saturating_add(delay),
        When::Tie(_) if deadlines.is_empty() => now,
        When::Tie(pick) => deadlines[pick % deadlines.len()].max(now),
    }
}

/// The `pick`-th (modulo their number) of the blocks with a seq left.
fn open_block(blocks: &mut [SeqBlock], pick: usize) -> Option<&mut SeqBlock> {
    let open = blocks.iter().filter(|b| b.remaining() > 0).count();
    if open == 0 {
        return None;
    }
    blocks
        .iter_mut()
        .filter(|b| b.remaining() > 0)
        .nth(pick % open)
}

/// `pending()` lists exactly what popping everything would fire, in order.
fn pending_is_pop_order(q: &EventQueue<u32>) {
    let listed: Vec<(u64, u32)> = q
        .pending()
        .into_iter()
        .map(|(t, _, e)| (t.as_micros(), *e))
        .collect();
    let mut copy = q.clone();
    let popped: Vec<(u64, u32)> = std::iter::from_fn(|| copy.pop_due(SimTime::MAX))
        .map(|(t, e)| (t.as_micros(), e))
        .collect();
    assert_eq!(listed, popped);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The wheel and the heap observe identical pop sequences and
    /// cancellation results for any program of schedules (reserved or
    /// not), reservations, bounded pops, clock advances and cancellations;
    /// and the wheel's `pending()` always lists its pop order.
    #[test]
    fn wheel_is_order_equivalent_to_heap(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let wheel_log = run_program!(EventQueue::<u32>::new(), &ops, pending_is_pop_order);
        let heap_log = run_program!(HeapQueue::<u32>::new(), &ops);
        prop_assert_eq!(wheel_log, heap_log);
    }

    /// Same-deadline events pop in schedule order even when they arrive via
    /// different routes (due list, wheel cascade, overflow migration).
    #[test]
    fn equal_deadline_bursts_preserve_seq_order(
        base in delay_strategy(),
        burst in 2usize..32,
        pre_pop in any::<bool>(),
    ) {
        let mut q = EventQueue::<usize>::new();
        // An earlier sentinel lets the clock advance before the burst pops,
        // exercising the cascade path rather than the direct due path.
        if pre_pop && base > 0 {
            q.schedule(SimTime::from_micros(base / 2), usize::MAX);
        }
        for i in 0..burst {
            q.schedule(SimTime::from_micros(base), i);
        }
        let mut popped = Vec::new();
        while let Some((t, e)) = q.pop_due(SimTime::MAX) {
            if e != usize::MAX {
                prop_assert_eq!(t.as_micros(), base);
                popped.push(e);
            }
        }
        prop_assert_eq!(popped, (0..burst).collect::<Vec<_>>());
    }

    /// `pop_due` never advances the clock past the horizon, `next_deadline`
    /// always reports the exact next pop time and never a cancelled event,
    /// and `len` counts exactly the events still pending.
    #[test]
    fn horizon_and_deadline_reporting(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut q = EventQueue::<u32>::new();
        let mut handles = Vec::new();
        let mut deadlines: Vec<u64> = Vec::new();
        let mut blocks: Vec<SeqBlock> = Vec::new();
        // The events that can still fire: tag → deadline.
        let mut live: BTreeMap<u32, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Schedule { when, block } => {
                    let t = deadline(q.now().as_micros(), when, &deadlines);
                    let tag = handles.len() as u32;
                    let at = SimTime::from_micros(t);
                    let handle = match block {
                        None => Some(q.schedule(at, tag)),
                        Some(pick) => open_block(&mut blocks, pick)
                            .map(|block| q.schedule_reserved(block, at, tag)),
                    };
                    if let Some(handle) = handle {
                        handles.push(handle);
                        deadlines.push(t);
                        live.insert(tag, t);
                    }
                }
                Op::Reserve { n } => blocks.push(q.reserve(n)),
                Op::Pop { count, horizon } => {
                    let limit = SimTime::from_micros(q.now().as_micros().saturating_add(horizon));
                    for _ in 0..count {
                        let expected = q.next_deadline();
                        match q.pop_due(limit) {
                            Some((t, e)) => {
                                prop_assert_eq!(Some(t), expected);
                                prop_assert_eq!(live.remove(&e), Some(t.as_micros()));
                            }
                            None => {
                                if let Some(d) = expected {
                                    prop_assert!(d > limit);
                                }
                                break;
                            }
                        }
                        prop_assert!(q.now() <= limit);
                    }
                }
                Op::Advance { ahead } => {
                    let target = SimTime::from_micros(q.now().as_micros().saturating_add(ahead));
                    while let Some((_, e)) = q.pop_due(target) {
                        live.remove(&e);
                    }
                    q.advance_to(target);
                    prop_assert_eq!(q.now(), target);
                }
                Op::Cancel { pick } => {
                    if handles.is_empty() {
                        continue;
                    }
                    let tag = (pick % handles.len()) as u32;
                    let cancelled = q.cancel(handles[tag as usize]);
                    prop_assert_eq!(cancelled.is_some(), live.remove(&tag).is_some());
                    prop_assert!(cancelled.is_none_or(|e| e == tag));
                }
            }
            prop_assert_eq!(q.len(), live.len());
            let earliest = live.values().min().map(|&t| SimTime::from_micros(t));
            prop_assert_eq!(q.next_deadline(), earliest);
        }
    }
}
