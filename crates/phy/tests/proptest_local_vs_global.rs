//! Differential test of local reallocation against the global engine.
//!
//! [`phy::Phy`] refills only the contention components a start, finish or
//! abort touches, and settles and re-derives only what the refill rerated.
//! [`support::GlobalPhy`] — kept in test code only — refills everything,
//! every time, and visits every transmission to find the ones whose rate
//! changed. The claim is that the two are indistinguishable, bit for bit:
//! random call sequences driven through both must give the same [`Enqueue`]
//! outcomes, the same [`Resched`] batches in the same order after every
//! call, the same [`Completion`] fields and the same per-domain rate sums by
//! `f64::to_bits`.
//!
//! The workload is shaped so that locality has something to get wrong:
//! twelve nodes over eight domains, three frames in four confined to one
//! domain so that several components coexist, the fourth bridging two so
//! that components merge when it starts and split when it finishes;
//! same-instant arrivals; crashes of idle, queued-only and on-air nodes.
//!
//! Six mutations were seeded into `engine.rs` when deadlines became local
//! (each alone; the proptest runner here is deterministic, 256 cases per
//! model). Five fail `shared_airtime_local_equals_global`; the sixth cannot
//! change anything observable:
//!
//! | mutation | outcome |
//! |---|---|
//! | bottleneck ties go to the highest domain id | caught: 124 of 256 cases (batches or allocated rates differ) |
//! | every transmission the refill freezes is settled and reissued, rate changed or not | caught: 185 (the 1 µs wobble comes back) |
//! | a rate change replaces the rate without settling the residual at the old one | caught: 249 |
//! | a domain that drops out of the bottleneck scan leaves the domain moved into its place with a stale position | caught: 244 (most panic on an index) |
//! | only the first touched domain's component refilled | caught: 245 (a finish that splits a component, or frees one domain and starts the next frame in another) |
//! | a bottleneck's members frozen in descending `TxId` | equivalent: every addition a round makes to a domain's frozen sum is the same share, so their order cannot show; the order of the member lists does show in [`Phy::domain_allocations`] |
//!
//! `constant_bandwidth_local_equals_global` fails none of them: it never
//! refills.

#[path = "support/deadlines.rs"]
mod deadlines;
mod support;

use deadlines::Deadlines;
use phy::{Channel, Completion, Enqueue, Phy, PhyModel, Resched, TxId};
use proptest::collection::vec;
use proptest::prelude::*;
use simkern::SimTime;
use support::GlobalPhy;

const NODES: usize = 12;
const DOMAINS: u32 = 8;

#[derive(Debug, Clone)]
enum Op {
    /// Offer a frame to `node`'s transmitter.
    Send {
        node: usize,
        domains: (u32, u32),
        wire_bytes: usize,
    },
    /// `node` crashes: whatever it has queued or on the air is flushed.
    Crash { node: usize },
}

/// An operation and the time that passes before it (0 = same instant).
type Step = (u64, Op);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let domains = prop_oneof![
        3 => (0..DOMAINS).prop_map(|d| (d, d)),
        1 => (0..DOMAINS, 0..DOMAINS),
    ];
    let send =
        (0..NODES, domains, 1usize..=2048).prop_map(|(node, domains, wire_bytes)| Op::Send {
            node,
            domains,
            wire_bytes,
        });
    let crash = (0..NODES).prop_map(|node| Op::Crash { node });
    let gap = prop_oneof![1 => Just(0u64), 2 => 0u64..4_000];
    vec((gap, prop_oneof![9 => send, 1 => crash]), 1..96)
}

/// Comparable image of an [`Enqueue`].
fn outcome(e: Enqueue<u64>) -> (u8, u64) {
    match e {
        Enqueue::Dropped(payload) => (0, payload),
        Enqueue::Queued { depth } => (1, depth as u64),
        Enqueue::Started(tx) => (2, tx),
    }
}

/// Comparable image of a [`Completion`].
fn fields(c: Completion<u64>) -> (usize, u64, usize, u64, u64, Option<TxId>) {
    (
        c.node,
        c.payload,
        c.wire_bytes,
        c.queued.as_micros(),
        c.airtime.as_micros(),
        c.started,
    )
}

fn bits(allocations: Vec<(u32, f64)>) -> Vec<(u32, u64)> {
    allocations
        .into_iter()
        .map(|(d, sum)| (d, sum.to_bits()))
        .collect()
}

/// Both engines behind one event queue. Deadlines are scheduled from the
/// local engine's batches, which every call asserts equal to the oracle's.
struct Pair {
    local: Phy<u64>,
    global: GlobalPhy<u64>,
    deadlines: Deadlines,
}

impl Pair {
    fn new(model: PhyModel) -> Pair {
        // Fewer radios than nodes: both engines must grow on demand alike.
        let pair = Pair {
            local: Phy::new(&model, NODES / 2).expect("non-ideal model"),
            global: GlobalPhy::new(&model, NODES / 2).expect("non-ideal model"),
            deadlines: Deadlines::default(),
        };
        assert_eq!(pair.local.capacity_bps(), pair.global.capacity_bps());
        pair
    }

    /// Schedules a batch both engines agreed on and compares their state.
    fn agree(&mut self, local: Vec<Resched>, global: Vec<Resched>) {
        assert_eq!(local, global, "reschedule batches differ");
        self.deadlines.schedule(&local);
        assert_eq!(
            bits(self.local.domain_allocations()),
            bits(self.global.domain_allocations()),
            "allocated rates differ"
        );
        assert_eq!(self.local.active_count(), self.global.active_count());
    }

    /// Fires every pending deadline due at or before `horizon`, stale ones
    /// included: both engines must call the same ones stale.
    fn run_until(&mut self, horizon: u64) {
        while let Some((now, tx, seq)) = self.deadlines.pop_due(horizon) {
            match (
                self.local.complete(now, tx, seq),
                self.global.complete(now, tx, seq),
            ) {
                (None, None) => {}
                (Some((l, lr)), Some((g, gr))) => {
                    assert_eq!(fields(l), fields(g), "completions differ");
                    self.agree(lr, gr);
                }
                (l, g) => panic!(
                    "staleness differs for tx {tx} seq {seq}: local fresh {}, global fresh {}",
                    l.is_some(),
                    g.is_some()
                ),
            }
        }
    }

    fn apply(&mut self, now: u64, payload: u64, op: &Op) {
        let at = SimTime::from_micros(now);
        match *op {
            Op::Send {
                node,
                domains,
                wire_bytes,
            } => {
                let (l, lr) = self.local.enqueue(at, node, domains, wire_bytes, payload);
                let (g, gr) = self.global.enqueue(at, node, domains, wire_bytes, payload);
                if let Enqueue::Started(tx) = l {
                    assert_eq!(self.local.payload(tx), self.global.payload(tx));
                }
                assert_eq!(outcome(l), outcome(g), "enqueue outcomes differ");
                self.agree(lr, gr);
                assert_eq!(self.local.queue_depth(node), self.global.queue_depth(node));
            }
            Op::Crash { node } => {
                let (lw, la, lr) = self.local.flush_node(at, node);
                let (gw, ga, gr) = self.global.flush_node(at, node);
                assert_eq!((lw, la), (gw, ga), "flushed payloads differ");
                self.agree(lr, gr);
            }
        }
    }
}

fn drive(model: PhyModel, steps: &[Step]) {
    let mut pair = Pair::new(model);
    let mut now = 0u64;
    for (i, (gap, op)) in steps.iter().enumerate() {
        now += gap;
        pair.run_until(now);
        pair.apply(now, i as u64, op);
    }
    pair.run_until(u64::MAX);
    assert_eq!(pair.local.active_count(), 0);
}

fn channel() -> Channel {
    Channel {
        bits_per_sec: 500_000,
        queue_frames: 3,
    }
}

proptest! {
    /// Shared airtime: refilling the touched components only is
    /// indistinguishable from refilling everything.
    #[test]
    fn shared_airtime_local_equals_global(steps in arb_steps()) {
        drive(PhyModel::SharedAirtime(channel()), &steps);
    }

    /// Constant bandwidth allocates nothing, but shares the state, the
    /// deadline pass and the crash path.
    #[test]
    fn constant_bandwidth_local_equals_global(steps in arb_steps()) {
        drive(PhyModel::ConstantBandwidth(channel()), &steps);
    }
}
