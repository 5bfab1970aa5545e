//! Property tests of the channel engine's three load-bearing invariants:
//!
//! 1. **Airtime conservation** — at every reallocation point (after every
//!    `enqueue`/`complete`/`flush_node` the engine processes) the sum of
//!    allocated rates within any contention domain never exceeds the channel
//!    capacity.
//! 2. **FIFO ordering** — frames accepted by a node's transmit queue complete
//!    in enqueue order, per node and therefore per link, no matter how
//!    contention stretches and reshuffles their completion deadlines, and no
//!    matter which of them a crash removes.
//! 3. **Frame conservation** — every accepted frame leaves the engine exactly
//!    once: completed, flushed while waiting, or aborted on the air by a
//!    crash; the aborted transmission's outstanding deadline is stale.
//!
//! The driver below replays a generated workload through a [`Phy`]:
//! reschedule directives become ordered events, superseded sequence numbers
//! are ignored (the netsim world cancels those events instead, to the same
//! effect), and time only moves forward.

#[path = "support/deadlines.rs"]
mod deadlines;

use std::collections::{BTreeMap, BTreeSet};

use deadlines::Deadlines;
use phy::{Channel, Enqueue, Phy, PhyModel, Resched, TxId};
use proptest::collection::vec;
use proptest::prelude::*;
use simkern::SimTime;

/// One offered frame: transmitter, destination (used only as a label for the
/// per-link ordering check), contention cells, size and inter-arrival gap;
/// and the node, if any, that crashes at the same instant, just before it.
#[derive(Debug, Clone)]
struct Job {
    crash: Option<usize>,
    node: usize,
    dest: usize,
    domains: (u32, u32),
    wire_bytes: usize,
    gap_us: u64,
}

fn arb_jobs() -> impl Strategy<Value = Vec<Job>> {
    vec(
        (
            prop_oneof![7 => Just(None), 1 => (0usize..6).prop_map(Some)],
            0usize..6,
            0usize..6,
            (0u32..4, 0u32..4),
            1usize..2048,
            0u64..5_000,
        ),
        1..48,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(crash, node, dest, domains, wire_bytes, gap_us)| Job {
                crash,
                node,
                dest,
                domains,
                wire_bytes,
                gap_us,
            })
            .collect()
    })
}

/// A `(dest, job index)` payload: the label a frame carries through the engine.
type Payload = (usize, u64);

/// A completion-tape entry: transmitter plus its payload.
type Completion = (usize, Payload);

/// Event-loop driver mirroring the world's scheduling contract.
struct Sim {
    phy: Phy<Payload>,
    deadlines: Deadlines,
    /// Completions in delivery order: (node, payload).
    completed: Vec<Completion>,
    /// What each transmission that reached the air carries.
    on_air: BTreeMap<TxId, Payload>,
    /// Frames a crash removed from a queue, and from the air.
    flushed: Vec<Payload>,
    aborted: Vec<Payload>,
    /// Transmissions a crash aborted; their deadlines are still scheduled.
    aborted_tx: BTreeSet<TxId>,
    capacity: f64,
    /// Conservation is an invariant of the shared model only; constant
    /// bandwidth intentionally gives every transmitter the full rate.
    shared: bool,
}

impl Sim {
    fn new(model: PhyModel) -> Sim {
        let shared = matches!(model, PhyModel::SharedAirtime(_));
        let phy = Phy::new(&model, 6).expect("non-ideal model");
        let capacity = phy.capacity_bps();
        Sim {
            phy,
            deadlines: Deadlines::default(),
            completed: Vec::new(),
            on_air: BTreeMap::new(),
            flushed: Vec::new(),
            aborted: Vec::new(),
            aborted_tx: BTreeSet::new(),
            capacity,
            shared,
        }
    }

    fn schedule(&mut self, rescheds: Vec<Resched>) {
        // No rate ever changes on a constant channel: an operation issues
        // at most the deadline of the frame it starts.
        assert!(self.shared || rescheds.len() <= 1, "{rescheds:?}");
        self.deadlines.schedule(&rescheds);
    }

    fn assert_conservation(&self) {
        if !self.shared {
            return;
        }
        for (domain, sum) in self.phy.domain_allocations() {
            assert!(
                sum <= self.capacity * (1.0 + 1e-6),
                "domain {domain} oversubscribed: {sum} > {}",
                self.capacity
            );
        }
    }

    /// Fires every pending completion due at or before `horizon`.
    fn run_until(&mut self, horizon: u64) {
        while let Some((at, tx, seq)) = self.deadlines.pop_due(horizon) {
            let outcome = self.phy.complete(at, tx, seq);
            if self.aborted_tx.contains(&tx) {
                assert!(outcome.is_none(), "deadline of aborted tx {tx} not stale");
            }
            if let Some((done, rescheds)) = outcome {
                assert_eq!(self.on_air.get(&tx), Some(&done.payload));
                self.completed.push((done.node, done.payload));
                if let Some(next) = done.started {
                    self.started(next);
                }
                self.schedule(rescheds);
                self.assert_conservation();
            }
        }
    }

    /// Records what a transmission that just reached the air carries.
    fn started(&mut self, tx: TxId) {
        let payload = *self.phy.payload(tx).expect("a started tx is active");
        assert!(self.on_air.insert(tx, payload).is_none(), "tx id reused");
    }

    /// `node` crashes at `now`: its queue and its transmission are flushed.
    fn crash(&mut self, now: u64, node: usize) {
        let (waiting, aborted, rescheds) = self.phy.flush_node(SimTime::from_micros(now), node);
        assert_eq!(self.phy.queue_depth(node), 0);
        // No flush without an abort moves a deadline.
        assert!(aborted.is_some() || rescheds.is_empty());
        self.flushed.extend(waiting);
        if let Some(payload) = aborted {
            let tx = self.on_air.iter().find(|(_, p)| **p == payload);
            let (&tx, _) = tx.expect("the aborted frame was on the air");
            assert!(self.phy.payload(tx).is_none(), "aborted tx still active");
            self.aborted_tx.insert(tx);
            self.aborted.push(payload);
        }
        self.schedule(rescheds);
        self.assert_conservation();
    }
}

fn drive(model: PhyModel, jobs: &[Job]) -> (Sim, Vec<Completion>) {
    let mut sim = Sim::new(model);
    let mut accepted: Vec<Completion> = Vec::new();
    let mut now = 0u64;
    for (i, job) in jobs.iter().enumerate() {
        now += job.gap_us;
        sim.run_until(now);
        if let Some(node) = job.crash {
            sim.crash(now, node);
        }
        let payload = (job.dest, i as u64);
        let (outcome, rescheds) = sim.phy.enqueue(
            SimTime::from_micros(now),
            job.node,
            job.domains,
            job.wire_bytes,
            payload,
        );
        sim.schedule(rescheds);
        sim.assert_conservation();
        if let Enqueue::Started(tx) = outcome {
            sim.started(tx);
        }
        if !matches!(outcome, Enqueue::Dropped(_)) {
            accepted.push((job.node, payload));
        }
    }
    sim.run_until(u64::MAX);
    (sim, accepted)
}

fn check_fifo_and_drain(model: PhyModel, jobs: &[Job]) {
    let (sim, accepted) = drive(model, jobs);
    // Everything accepted left the engine, each frame exactly once:
    // completed, flushed from a queue, or aborted on the air.
    prop_assert_eq!(sim.phy.active_count(), 0);
    let mut left: Vec<Payload> = sim.completed.iter().map(|(_, p)| *p).collect();
    left.extend(&sim.flushed);
    left.extend(&sim.aborted);
    left.sort_unstable();
    let mut took: Vec<Payload> = accepted.iter().map(|(_, p)| *p).collect();
    took.sort_unstable();
    prop_assert_eq!(left, took);
    // Per-node FIFO: each node's completions replay its accept order, less
    // what its crashes removed.
    let survived = |(_, p): &&Completion| !sim.flushed.contains(p) && !sim.aborted.contains(p);
    let accepted: Vec<Completion> = accepted.iter().filter(survived).copied().collect();
    for node in 0..6 {
        let sent: Vec<_> = accepted.iter().filter(|(n, _)| *n == node).collect();
        let got: Vec<_> = sim.completed.iter().filter(|(n, _)| *n == node).collect();
        prop_assert_eq!(sent, got, "node {} completions out of order", node);
    }
    // Per-link FIFO: the (node, dest) subsequences are ordered too.
    for node in 0..6 {
        for dest in 0..6 {
            let link = |(n, (d, _)): &&Completion| *n == node && *d == dest;
            let sent: Vec<_> = accepted.iter().filter(link).collect();
            let got: Vec<_> = sim.completed.iter().filter(link).collect();
            prop_assert_eq!(sent, got, "link {}->{} out of order", node, dest);
        }
    }
}

fn channel(bps: u64) -> Channel {
    Channel {
        bits_per_sec: bps,
        queue_frames: 4,
    }
}

proptest! {
    /// Shared airtime: conservation holds at every reallocation point and
    /// contention never reorders a queue.
    #[test]
    fn shared_airtime_conserves_and_keeps_fifo(jobs in arb_jobs()) {
        check_fifo_and_drain(PhyModel::SharedAirtime(channel(500_000)), &jobs);
    }

    /// Constant bandwidth is the degenerate single-transmitter case: the same
    /// invariants hold. Rates never change, so a deadline is issued once,
    /// when its frame starts, and never moves (see [`Resched`]).
    #[test]
    fn constant_bandwidth_conserves_and_keeps_fifo(jobs in arb_jobs()) {
        check_fifo_and_drain(PhyModel::ConstantBandwidth(channel(500_000)), &jobs);
    }

    /// Double-drive determinism: the engine is a pure function of its call
    /// sequence — identical workloads produce identical completion tapes.
    #[test]
    fn replay_is_deterministic(jobs in arb_jobs()) {
        let (a, _) = drive(PhyModel::SharedAirtime(channel(250_000)), &jobs);
        let (b, _) = drive(PhyModel::SharedAirtime(channel(250_000)), &jobs);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!((a.flushed, a.aborted), (b.flushed, b.aborted));
    }
}
