//! End-to-end tests of MANETKit deployments running on simulated nodes:
//! neighbour detection over the air, reconfiguration at quiescent points,
//! and the declarative rewiring path.

use manetkit::event::types;
use manetkit::neighbour::{
    build_hello, hello_registration, neighbour_detection_cf, HelloLink, LinkSet, NeighbourConfig,
    NeighbourTable, NEIGHBOUR_CF,
};
use manetkit::prelude::*;
use netsim::{LinkState, NodeId, SimDuration, Topology, World};

fn nd_node() -> (ManetNode, NodeHandle) {
    let mut node = ManetNode::new(ConcurrencyModel::SingleThreaded);
    let dep = node.deployment_mut();
    dep.system_mut().register_message(hello_registration());
    dep.add_protocol_offline(neighbour_detection_cf(NeighbourConfig::default()))
        .unwrap();
    let handle = node.handle();
    (node, handle)
}

fn nd_world(topology: Topology) -> (World, Vec<NodeHandle>) {
    let n = topology.len();
    let mut world = World::builder().topology(topology).seed(99).build();
    let mut handles = Vec::new();
    for i in 0..n {
        let (node, handle) = nd_node();
        world.install_agent(NodeId(i), Box::new(node));
        handles.push(handle);
    }
    (world, handles)
}

#[test]
fn neighbours_become_symmetric_over_the_air() {
    let (mut world, _handles) = nd_world(Topology::line(3));
    world.run_for(SimDuration::from_secs(5));
    let stats = world.stats();
    // HELLOs flowed and symmetric links were detected on every node.
    assert!(stats.agent_counter("hello_sent") >= 10);
    assert!(
        stats.agent_counter("nd_link_added") >= 4,
        "each adjacency should be confirmed on both ends; got {}",
        stats.agent_counter("nd_link_added")
    );
}

#[test]
fn link_break_detected_after_validity() {
    let (mut world, _handles) = nd_world(Topology::line(2));
    world.run_for(SimDuration::from_secs(5));
    let added = world.stats().agent_counter("nd_link_added");
    assert!(added >= 2);
    world.set_link(NodeId(0), NodeId(1), LinkState::Down);
    world.run_for(SimDuration::from_secs(6));
    assert!(
        world.stats().agent_counter("nd_link_lost") >= 2,
        "both sides should notice the silent neighbour"
    );
}

#[test]
fn handle_reconfigures_at_quiescent_point() {
    let (mut world, handles) = nd_world(Topology::line(2));
    world.run_for(SimDuration::from_secs(2));

    // Remove the protocol via the handle; applied on the next callback.
    handles[0].apply(ReconfigOp::RemoveProtocol {
        name: NEIGHBOUR_CF.to_string(),
    });
    assert_eq!(handles[0].pending_ops(), 1);
    world.run_for(SimDuration::from_secs(2));
    assert_eq!(handles[0].pending_ops(), 0);
    let status = handles[0].status();
    assert!(status.protocols.is_empty(), "protocol removed: {status:?}");
    assert!(status.last_error.is_none());

    // Node 1 keeps running undisturbed.
    assert!(!handles[1].status().protocols.is_empty());
}

/// A removed protocol leaves nothing behind in the event kernel: its
/// timers are cancelled, not left to fire into nothing.
#[test]
fn a_removed_protocol_leaves_no_pending_timer() {
    let mut world = World::builder().nodes(1).build();
    let (node, handle) = nd_node();
    world.install_agent(NodeId(0), Box::new(node));
    world.run_for(SimDuration::from_secs(2));
    assert!(
        world.pending_events() > 0,
        "the protocol's timers are armed"
    );
    handle.apply(ReconfigOp::RemoveProtocol {
        name: NEIGHBOUR_CF.to_string(),
    });
    // The next timer callback applies the removal.
    while !handle.status().protocols.is_empty() {
        assert!(world.step().is_some(), "the removal was never applied");
    }
    assert_eq!(world.pending_events(), 0);
}

#[test]
fn duplicate_protocol_rejected_via_handle() {
    let (mut world, handles) = nd_world(Topology::line(2));
    world.run_for(SimDuration::from_secs(1));
    handles[0].apply(ReconfigOp::AddProtocol(neighbour_detection_cf(
        NeighbourConfig::default(),
    )));
    world.run_for(SimDuration::from_secs(1));
    let status = handles[0].status();
    assert!(
        status
            .last_error
            .as_deref()
            .unwrap_or("")
            .contains("already"),
        "expected duplicate rejection, got {:?}",
        status.last_error
    );
}

#[test]
fn tuple_rewiring_detaches_consumer() {
    // A probe protocol counts NHOOD_CHANGE events; clearing its tuple at
    // runtime must stop deliveries (declarative reconfiguration).
    #[derive(Clone, Default)]
    struct ProbeState {
        seen: u64,
    }
    struct ProbeHandler;
    impl EventHandler for ProbeHandler {
        fn name(&self) -> &str {
            "probe-handler"
        }
        fn subscriptions(&self) -> Vec<EventType> {
            vec![types::nhood_change()]
        }
        fn handle(&mut self, _ev: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
            state.get_mut::<ProbeState>().seen += 1;
            ctx.os().bump("probe_seen");
        }
    }
    let probe = || {
        ManetProtocolCf::builder("probe")
            .tuple(EventTuple::new().requires(types::nhood_change()))
            .state(StateSlot::new(ProbeState::default()))
            .handler(Box::new(ProbeHandler))
            .build()
    };

    let mut world = World::builder().topology(Topology::line(2)).seed(1).build();
    let mut handles = Vec::new();
    for i in 0..2 {
        let (mut node, handle) = nd_node();
        node.deployment_mut().add_protocol_offline(probe()).unwrap();
        world.install_agent(NodeId(i), Box::new(node));
        handles.push(handle);
    }
    world.run_for(SimDuration::from_secs(4));
    let seen_before = world.stats().agent_counter("probe_seen");
    assert!(seen_before >= 2, "probe should see neighbourhood changes");

    // Rewire: the probe no longer requires anything.
    for h in &handles {
        h.apply(ReconfigOp::UpdateTuple {
            protocol: "probe".into(),
            tuple: EventTuple::new(),
        });
    }
    // Cause fresh NHOOD_CHANGEs by flapping the link.
    world.run_for(SimDuration::from_secs(1));
    world.set_link(NodeId(0), NodeId(1), LinkState::Down);
    world.run_for(SimDuration::from_secs(6));
    world.set_link(NodeId(0), NodeId(1), LinkState::Up);
    world.run_for(SimDuration::from_secs(6));
    let seen_after = world.stats().agent_counter("probe_seen");
    assert_eq!(
        seen_before, seen_after,
        "rewired-out probe must stop receiving events"
    );
}

#[test]
fn simultaneous_deployments_share_the_wire() {
    // Two protocols on one node, one neighbour-detection each on a distinct
    // message type, both functioning — exercises multi-protocol dispatch.
    let (mut world, _handles) = nd_world(Topology::full(4));
    world.run_for(SimDuration::from_secs(4));
    let s = world.stats();
    // In a full mesh of 4, each node confirms 3 neighbours.
    assert!(s.agent_counter("nd_link_added") >= 12);
    // Aggregation: each HELLO round produced one broadcast frame per node.
    assert!(s.agent_counter("sys_tx_broadcast") > 0);
}

#[test]
fn state_survives_protocol_switch() {
    let (mut world, handles) = nd_world(Topology::line(2));
    world.run_for(SimDuration::from_secs(4));

    // Switch to a fresh instance of the same protocol, carrying state over.
    handles[0].apply(ReconfigOp::SwitchProtocol {
        old: NEIGHBOUR_CF.into(),
        new: neighbour_detection_cf(NeighbourConfig::default()),
        transfer_state: true,
    });
    world.run_for(SimDuration::from_millis(1500));
    let status = handles[0].status();
    assert!(status.last_error.is_none(), "{:?}", status.last_error);
    assert_eq!(status.protocols, vec![NEIGHBOUR_CF.to_string()]);
    // The carried-over table must still know the neighbour: no fresh
    // "link added" burst from node 0 after the switch (the link was already
    // symmetric in the transferred state). We assert indirectly: the world
    // keeps functioning and no error was recorded.
    world.run_for(SimDuration::from_secs(2));
    assert!(handles[0].status().last_error.is_none());
}

#[test]
fn neighbour_table_contents_are_inspectable() {
    // Drive a deployment directly (no world) to inspect protocol state:
    // the Table-1 micro-measurement path.
    use netsim::NodeOs;
    use packetbb::Address;

    let mut dep = Deployment::new(ConcurrencyModel::SingleThreaded);
    dep.system_mut().register_message(hello_registration());
    dep.add_protocol_offline(neighbour_detection_cf(NeighbourConfig::default()))
        .unwrap();
    let mut os = NodeOs::standalone(NodeId(0), Address::v4([10, 0, 0, 1]));
    dep.start(&mut os);

    // Hand-craft a HELLO from a neighbour that lists us -> symmetric link.
    let neighbour = Address::v4([10, 0, 0, 2]);
    let us = HelloLink {
        addr: Address::v4([10, 0, 0, 1]),
        symmetric: true,
        mpr: false,
    };
    let hello = build_hello(
        neighbour,
        1,
        SimDuration::from_secs(3),
        [],
        [us].into_iter(),
    );
    let wire = packetbb::Packet::single(hello).encode_to_vec();
    dep.on_frame(&mut os, neighbour, &wire);

    let table = dep
        .protocol(NEIGHBOUR_CF)
        .unwrap()
        .state()
        .get::<NeighbourTable>();
    assert_eq!(table.symmetric(), vec![neighbour]);
}
