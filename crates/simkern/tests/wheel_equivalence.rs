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

use std::collections::BTreeMap;

use proptest::prelude::*;
use simkern::{EventQueue, HeapQueue, SimTime};

/// One step of a queue-driving program.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event at `now + delay` µs.
    Schedule { delay: u64 },
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

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => delay_strategy().prop_map(|delay| Op::Schedule { delay }),
        3 => (1usize..8, 0u64..100_000).prop_map(|(count, horizon)| Op::Pop { count, horizon }),
        1 => (0u64..50_000).prop_map(|ahead| Op::Advance { ahead }),
        2 => any::<usize>().prop_map(|pick| Op::Cancel { pick }),
    ]
}

/// Runs `ops` against a queue via the shared API, logging every pop and
/// every cancellation.
///
/// Pops use `now + horizon` as the limit and `Advance` moves to the popped
/// frontier plus `ahead` — both queues see the exact same call sequence, so
/// their logs must match entry for entry.
macro_rules! run_program {
    ($queue:expr, $ops:expr) => {{
        let mut q = $queue;
        let mut log: Vec<Seen> = Vec::new();
        let mut handles = Vec::new();
        for op in $ops {
            match *op {
                Op::Schedule { delay } => {
                    let at = SimTime::from_micros(q.now().as_micros().saturating_add(delay));
                    let tag = handles.len() as u32;
                    handles.push(q.schedule(at, tag));
                }
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
        }
        // Flush: every still-pending event must come out, in order.
        while let Some((t, e)) = q.pop_due(SimTime::MAX) {
            log.push(Seen::Popped(t.as_micros(), e));
        }
        assert!(q.is_empty());
        log
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The wheel and the heap observe identical pop sequences and
    /// cancellation results for any program of schedules, bounded pops,
    /// clock advances and cancellations.
    #[test]
    fn wheel_is_order_equivalent_to_heap(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let wheel_log = run_program!(EventQueue::<u32>::new(), &ops);
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
        // The events that can still fire: tag → deadline.
        let mut live: BTreeMap<u32, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Schedule { delay } => {
                    let t = q.now().as_micros().saturating_add(delay);
                    let tag = handles.len() as u32;
                    handles.push(q.schedule(SimTime::from_micros(t), tag));
                    live.insert(tag, t);
                }
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
