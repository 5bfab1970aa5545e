//! End-to-end AODV tests: discovery, intermediate replies,
//! precursor-directed route errors and protocol switching against DYMO.

use manetkit::prelude::*;
use manetkit_aodv::AodvDeployment;
use netsim::{LinkState, NodeId, SimDuration, Topology, World};

fn aodv_world(topology: Topology, seed: u64) -> (World, Vec<NodeHandle>) {
    let n = topology.len();
    let mut world = World::builder().topology(topology).seed(seed).build();
    let mut handles = Vec::new();
    for i in 0..n {
        let (node, handle) = manetkit_aodv::node(AodvDeployment::default());
        world.install_agent(NodeId(i), Box::new(node));
        handles.push(handle);
    }
    (world, handles)
}

#[test]
fn five_node_line_discovery_and_reverse_route() {
    let (mut world, _h) = aodv_world(Topology::line(5), 1);
    world.run_for(SimDuration::from_secs(3));
    let far = world.addr(NodeId(4));
    world.send_datagram(NodeId(0), far, b"fwd".to_vec());
    world.run_for(SimDuration::from_secs(3));
    let s = world.stats();
    assert_eq!(s.data_delivered, 1, "{s:?}");
    assert!(s.agent_counter("rrep_received") >= 1);
    // Reverse route exists without a new discovery (learned from the RREQ).
    let back = world.addr(NodeId(0));
    world.send_datagram(NodeId(4), back, b"rev".to_vec());
    world.run_for(SimDuration::from_secs(2));
    let s2 = world.stats();
    assert_eq!(s2.data_delivered, 2);
    assert_eq!(
        s2.agent_counter("route_discovery"),
        s.agent_counter("route_discovery")
    );
}

#[test]
fn intermediate_node_answers_with_fresh_route() {
    // After 0 discovers 4, node 1 holds a fresh route to 4. A discovery
    // from a new branch node attached to 1 should be answered by node 1
    // without the RREQ reaching node 4.
    let mut topo = Topology::line(5);
    // Node 5 hangs off node 1.
    let mut topo6 = Topology::empty(6);
    for a in 0..5 {
        for b in 0..5 {
            if topo.link_up(NodeId(a), NodeId(b)) {
                topo6.set_link(NodeId(a), NodeId(b), LinkState::Up);
            }
        }
    }
    topo6.set_link(NodeId(5), NodeId(1), LinkState::Up);
    topo = topo6;

    let (mut world, _h) = aodv_world(topo, 2);
    world.run_for(SimDuration::from_secs(2));
    let far = world.addr(NodeId(4));
    world.send_datagram(NodeId(0), far, b"seed".to_vec());
    world.run_for(SimDuration::from_secs(1));
    assert_eq!(world.stats().data_delivered, 1);

    // Quickly (within the route lifetime), node 5 asks for node 4.
    world.send_datagram(NodeId(5), far, b"branch".to_vec());
    world.run_for(SimDuration::from_secs(2));
    let s = world.stats();
    assert_eq!(s.data_delivered, 2, "{s:?}");
    assert!(
        s.agent_counter("intermediate_rrep") >= 1,
        "an intermediate node must have answered: {s:?}"
    );
}

#[test]
fn rerr_goes_to_precursors_and_triggers_rediscovery() {
    let (mut world, _h) = aodv_world(Topology::line(4), 3);
    world.run_for(SimDuration::from_secs(2));
    let far = world.addr(NodeId(3));
    world.send_datagram(NodeId(0), far, b"a".to_vec());
    world.run_for(SimDuration::from_secs(1));
    assert_eq!(world.stats().data_delivered, 1);

    world.set_link(NodeId(1), NodeId(2), LinkState::Down);
    world.set_link(NodeId(2), NodeId(0), LinkState::Up); // repair path 0-2-3
    world.send_datagram(NodeId(0), far, b"b".to_vec());
    world.run_for(SimDuration::from_secs(6));
    let s = world.stats();
    assert!(s.agent_counter("rerr_sent") >= 1, "{s:?}");
    // Rediscovery over the repaired topology delivers subsequent traffic.
    world.send_datagram(NodeId(0), far, b"c".to_vec());
    world.run_for(SimDuration::from_secs(6));
    assert!(world.stats().data_delivered >= 2, "{:?}", world.stats());
}

#[test]
fn unreachable_destination_backs_off_and_gives_up() {
    let (mut world, _h) = aodv_world(Topology::line(2), 4);
    world.run_for(SimDuration::from_secs(1));
    let ghost = packetbb::Address::v4([10, 9, 9, 9]);
    world.send_datagram(NodeId(0), ghost, b"x".to_vec());
    world.run_for(SimDuration::from_secs(20));
    let s = world.stats();
    assert_eq!(s.agent_counter("route_discovery_failed"), 1);
    assert!(s.agent_counter("rreq_retry") >= 2);
    assert_eq!(s.data_delivered, 0);
}

#[test]
fn switch_aodv_to_dymo_at_runtime() {
    let (mut world, handles) = aodv_world(Topology::line(3), 5);
    world.run_for(SimDuration::from_secs(2));
    // Retire AODV, deploy DYMO in its place (both reactive: remove first).
    for h in &handles {
        h.apply(ReconfigOp::RemoveProtocol {
            name: manetkit_aodv::AODV_CF.into(),
        });
        h.apply(ReconfigOp::LoadSystem(manetkit_dymo::system_config()));
        h.apply(ReconfigOp::AddProtocol(manetkit_dymo::dymo_cf(
            Default::default(),
        )));
    }
    world.run_for(SimDuration::from_secs(2));
    for h in &handles {
        let st = h.status();
        assert!(st.last_error.is_none(), "{:?}", st.last_error);
        assert!(st.protocols.contains(&"dymo".to_string()));
        assert!(!st.protocols.contains(&"aodv".to_string()));
    }
    let far = world.addr(NodeId(2));
    world.send_datagram(NodeId(0), far, b"post-switch".to_vec());
    world.run_for(SimDuration::from_secs(3));
    assert_eq!(world.stats().data_delivered, 1);
}

#[test]
fn aodv_dymo_mixed_network_does_not_interoperate_but_does_not_crash() {
    // AODV and DYMO use different message types; a mixed network must not
    // panic, and discoveries simply fail (messages of unknown types are
    // counted and dropped by the System CF).
    let mut world = World::builder().topology(Topology::line(3)).seed(6).build();
    let (n0, _h0) = manetkit_aodv::node(AodvDeployment::default());
    let (n1, _h1) = manetkit_dymo::node(Default::default());
    let (n2, _h2) = manetkit_aodv::node(AodvDeployment::default());
    world.install_agent(NodeId(0), Box::new(n0));
    world.install_agent(NodeId(1), Box::new(n1));
    world.install_agent(NodeId(2), Box::new(n2));
    world.run_for(SimDuration::from_secs(2));
    let far = world.addr(NodeId(2));
    world.send_datagram(NodeId(0), far, b"x".to_vec());
    world.run_for(SimDuration::from_secs(10));
    assert_eq!(world.stats().data_delivered, 0, "protocols must not mix");
}
