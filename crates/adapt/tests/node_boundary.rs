//! Goldens for the node boundary, the layer between a `ManetNode` and the
//! world: what a `NodeHandle` reader sees after every step, and the `bus.*`
//! counters the deployments keep. They run through failed plain ops, a
//! committed two-phase switch, a prepare cut short by a crash and a reboot,
//! a revert, and a cold boot into a new deployment over the same OS. Each
//! was pinned before the boundary was reworked, and a rework of how status
//! is published or counters are kept must not move them.

mod support;

use std::collections::BTreeMap;

use adapt::Stack;
use manetkit::neighbour::hello_registration;
use manetkit::protocol::{proto_start_event, EventHandler, ProtoCtx, StateSlot};
use manetkit::{
    Event, EventTuple, EventType, ManetProtocolCf, NodeHandle, ReconfigOp, SystemConfig, TxnCtl,
    TxnPhase,
};
use netsim::fault::FaultPlan;
use netsim::{NodeId, SimDuration, SimTime, Topology, World};
use support::{cbr, install, ms, secs};

const NODES: usize = 3;

fn at(millis: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(millis)
}

fn prepare(id: u64, ops: Vec<ReconfigOp>) -> TxnCtl {
    TxnCtl::Prepare {
        id,
        ops,
        requested: None,
        deadline: None,
    }
}

fn phase(handle: &NodeHandle, id: u64) -> Option<TxnPhase> {
    handle.status().txn.filter(|t| t.id == id).map(|t| t.phase)
}

/// FNV-1a, so the pinned digest depends on no standard-library hasher.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A world stepped one event at a time, with every node's status read
/// after each step.
struct Observed {
    world: World,
    handles: Vec<NodeHandle>,
    last: Vec<String>,
    steps: u64,
    changes: u64,
    digest: u64,
}

impl Observed {
    /// Everything a handle reader sees, except the counters.
    fn seen(handle: &NodeHandle) -> String {
        let s = handle.status();
        format!(
            "{} {:?} {:?} {:?} {:?}",
            s.alive, s.protocols, s.txn, s.last_error, s.composition_hash
        )
    }

    fn until(&mut self, t: SimTime) {
        while self.world.now() < t {
            self.world.step().expect("traffic keeps the world busy");
            self.steps += 1;
            let now: Vec<String> = self.handles.iter().map(Self::seen).collect();
            if now != self.last {
                self.changes += 1;
            }
            for (i, s) in now.iter().enumerate() {
                self.digest = fnv1a(self.digest, &(i as u64).to_le_bytes());
                self.digest = fnv1a(self.digest, s.as_bytes());
            }
            self.last = now;
        }
    }

    fn all(&self, verb: impl Fn() -> TxnCtl) {
        for h in &self.handles {
            h.txn_ctl(verb());
        }
    }

    fn phases(&self, id: u64) -> Vec<Option<TxnPhase>> {
        self.handles.iter().map(|h| phase(h, id)).collect()
    }
}

#[test]
fn handle_status_after_every_step_is_pinned() {
    // Node 2 crashes at 6.5 s and is back at 7.5 s.
    let plan = FaultPlan::builder(0)
        .crash_for(at(6_500), NodeId(2), SimDuration::from_secs(1))
        .build();
    let mut world = World::builder()
        .topology(Topology::line(NODES))
        .seed(11)
        .fault_plan(plan)
        .build();
    let mut handles = Vec::new();
    for i in 0..NODES {
        let (mut node, handle) = Stack::Dymo.node();
        // Node 1 leaves the composition hash unpublished.
        node.set_publish_composition(i != 1);
        handles.push(handle);
        world.install_agent(NodeId(i), Box::new(node));
    }
    cbr(&mut world, NodeId(0), NodeId(2), secs(1), secs(12), ms(250));
    let mut run = Observed {
        world,
        handles,
        last: Vec::new(),
        steps: 0,
        changes: 0,
        digest: 0xcbf2_9ce4_8422_2325,
    };
    run.until(secs(2));

    // Plain ops: one that fails, one that applies.
    run.handles[0].apply(ReconfigOp::RemoveProtocol {
        name: "no-such".into(),
    });
    run.handles[1].apply(ReconfigOp::LoadSystem(SystemConfig {
        registrations: vec![hello_registration()],
        ..SystemConfig::default()
    }));
    run.until(secs(3));
    assert!(run.handles[0].status().last_error.is_some());

    // A committed two-phase DYMO → AODV switch.
    run.all(|| prepare(1, Stack::Dymo.recipe_to(Stack::Aodv)));
    run.until(secs(4));
    assert_eq!(run.phases(1), vec![Some(TxnPhase::Prepared); NODES]);
    run.all(|| TxnCtl::Commit { id: 1 });
    run.until(secs(5));
    assert_eq!(run.phases(1), vec![Some(TxnPhase::Committed); NODES]);

    // AODV → DYMO prepares, node 2 crashes holding it, the others abort,
    // and node 2's reboot rolls its doomed prepare back.
    run.all(|| prepare(2, Stack::Aodv.recipe_to(Stack::Dymo)));
    run.until(at(6_400));
    assert_eq!(run.phases(2), vec![Some(TxnPhase::Prepared); NODES]);
    run.until(at(6_600));
    assert!(!run.handles[2].is_alive());
    for h in &run.handles[..2] {
        h.txn_ctl(TxnCtl::Abort {
            id: 2,
            reason: "peer_abort",
        });
    }
    run.until(secs(9));
    assert_eq!(run.phases(2), vec![Some(TxnPhase::RolledBack); NODES]);
    assert!(run.handles[2].is_alive());

    // A committed switch that a tripped health gate reverts.
    run.all(|| prepare(3, Stack::Aodv.recipe_to(Stack::Dymo)));
    run.until(at(9_500));
    run.all(|| TxnCtl::Commit { id: 3 });
    run.until(secs(10));
    run.all(|| TxnCtl::Revert { id: 3 });
    run.until(secs(11));
    assert_eq!(run.phases(3), vec![Some(TxnPhase::Reverted); NODES]);

    let last = run.last.join("\n");
    assert_eq!(
        (run.steps, run.changes, run.digest),
        (344, 26, 0x30e1_1ce0_19dd_aee3),
        "what a handle reader saw moved:\n{last}"
    );
}

/// A protocol whose start emits one event nobody subscribes to, so its unit
/// moves an event (out) without receiving one.
struct Announce;

impl EventHandler for Announce {
    fn name(&self) -> &str {
        "announce"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![proto_start_event()]
    }
    fn handle(&mut self, _event: &Event, _state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        ctx.emit(Event::signal(EventType::named("PROBE_UP")));
    }
}

fn probe() -> ManetProtocolCf {
    ManetProtocolCf::builder("probe")
        .tuple(EventTuple::new().provides(EventType::named("PROBE_UP")))
        .state(StateSlot::new(()))
        .handler(Box::new(Announce))
        .build()
}

/// The fleet-wide `bus.*` counters, zeros included, in name order.
fn bus_counters(world: &World) -> Vec<(String, u64)> {
    let counters: BTreeMap<String, u64> = world
        .stats()
        .agent_counters
        .into_iter()
        .filter(|(name, _)| name.starts_with("bus."))
        .collect();
    counters.into_iter().collect()
}

fn assert_bus(world: &World, stage: &str, want: &[(&str, u64)]) {
    let got = bus_counters(world);
    let want: Vec<(String, u64)> = want.iter().map(|&(n, v)| (n.to_string(), v)).collect();
    assert_eq!(got, want, "{stage}");
}

#[test]
fn bus_counters_through_a_failed_prepare_a_switch_and_a_revert_are_pinned() {
    let mut world = World::builder()
        .topology(Topology::line(NODES))
        .seed(12)
        .build();
    let fleet = install(&mut world, Stack::Dymo);
    let handles: Vec<NodeHandle> = (0..NODES)
        .map(|i| {
            let handle = fleet.coordinator.handle_of(NodeId(i));
            handle.expect("fleet member").clone()
        })
        .collect();
    cbr(&mut world, NodeId(0), NodeId(2), secs(1), secs(8), ms(250));
    world.run_until(secs(3));

    // Node 0 tears DYMO down, brings OLSR and the probe up, then fails on
    // the last op and unwinds all of it in the same callback.
    let mut ops = Stack::Dymo.recipe_to(Stack::Olsr);
    ops.push(ReconfigOp::AddProtocol(probe()));
    ops.push(ReconfigOp::RemoveProtocol {
        name: "no-such".into(),
    });
    handles[0].txn_ctl(prepare(1, ops));
    world.run_for(ms(500));
    assert_eq!(phase(&handles[0], 1), Some(TxnPhase::Aborted));
    assert_bus(
        &world,
        "failed prepare",
        &[
            ("bus.dispatch_rounds", 168),
            ("bus.dymo.events_in", 31),
            ("bus.dymo.events_out", 5),
            ("bus.neighbour-detection.events_in", 12),
            ("bus.neighbour-detection.events_out", 13),
            ("bus.probe.events_in", 0),
            ("bus.probe.events_out", 1),
            ("bus.queue_depth_hwm", 3),
            ("bus.system.events_in", 14),
            ("bus.system.events_out", 39),
        ],
    );

    for h in &handles {
        h.txn_ctl(prepare(2, Stack::Dymo.recipe_to(Stack::Aodv)));
    }
    world.run_for(ms(500));
    for h in &handles {
        h.txn_ctl(TxnCtl::Commit { id: 2 });
    }
    world.run_for(ms(500));
    assert!(handles
        .iter()
        .all(|h| phase(h, 2) == Some(TxnPhase::Committed)));
    assert_bus(
        &world,
        "committed switch",
        &[
            ("bus.aodv.events_in", 8),
            ("bus.aodv.events_out", 0),
            ("bus.dispatch_rounds", 210),
            ("bus.dymo.events_in", 31),
            ("bus.dymo.events_out", 5),
            ("bus.neighbour-detection.events_in", 16),
            ("bus.neighbour-detection.events_out", 16),
            ("bus.probe.events_in", 0),
            ("bus.probe.events_out", 1),
            ("bus.queue_depth_hwm", 3),
            ("bus.system.events_in", 17),
            ("bus.system.events_out", 51),
        ],
    );

    for h in &handles {
        h.txn_ctl(TxnCtl::Revert { id: 2 });
    }
    world.run_for(ms(500));
    assert!(handles
        .iter()
        .all(|h| phase(h, 2) == Some(TxnPhase::Reverted)));
    assert_bus(
        &world,
        "revert",
        &[
            ("bus.aodv.events_in", 8),
            ("bus.aodv.events_out", 0),
            ("bus.dispatch_rounds", 232),
            ("bus.dymo.events_in", 35),
            ("bus.dymo.events_out", 5),
            ("bus.neighbour-detection.events_in", 16),
            ("bus.neighbour-detection.events_out", 18),
            ("bus.probe.events_in", 0),
            ("bus.probe.events_out", 1),
            ("bus.queue_depth_hwm", 3),
            ("bus.system.events_in", 19),
            ("bus.system.events_out", 55),
        ],
    );
}

/// `bus.queue_depth_hwm` as one node's own counters hold it.
fn node_hwm(world: &World, node: NodeId) -> u64 {
    world.os(node).counter("bus.queue_depth_hwm")
}

#[test]
fn bus_counters_after_a_cold_boot_are_pinned() {
    // Node 2 crashes at 3 s and cold-boots at 4 s into a fresh AODV
    // deployment over the same OS, whose counters survive the crash.
    let plan = FaultPlan::builder(0)
        .crash_for(at(3_000), NodeId(2), SimDuration::from_secs(1))
        .build();
    let mut world = World::builder()
        .topology(Topology::line(NODES))
        .seed(13)
        .fault_plan(plan)
        .build();
    let _fleet = install(&mut world, Stack::Dymo);
    world.set_reboot_factory(NodeId(2), || Box::new(Stack::Aodv.node().0));
    cbr(&mut world, NodeId(0), NodeId(2), secs(1), secs(6), ms(250));
    world.run_until(at(2_900));
    let before = node_hwm(&world, NodeId(2));
    world.run_until(secs(6));
    // The new deployment's high-water mark lands on top of the old one's,
    // and the retired DYMO's names stay.
    let os = world.os(NodeId(2));
    assert_eq!(
        (
            before,
            node_hwm(&world, NodeId(2)),
            os.counter("bus.dymo.events_in")
        ),
        (1, 2, 2)
    );
    assert_bus(
        &world,
        "cold boot",
        &[
            ("bus.aodv.events_in", 1),
            ("bus.aodv.events_out", 0),
            ("bus.dispatch_rounds", 255),
            ("bus.dymo.events_in", 47),
            ("bus.dymo.events_out", 12),
            ("bus.neighbour-detection.events_in", 17),
            ("bus.neighbour-detection.events_out", 21),
            ("bus.queue_depth_hwm", 4),
            ("bus.system.events_in", 28),
            ("bus.system.events_out", 60),
        ],
    );
}
