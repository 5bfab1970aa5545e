//! End-to-end DYMO tests: on-demand discovery on the paper's 5-node line,
//! packet buffering and re-injection, route errors, lifetimes, and both
//! §5.2 variants.

use manetkit::prelude::*;
use manetkit_dymo::variants::{flooding, multipath};
use manetkit_dymo::{DymoDeployment, DymoParams, DYMO_CF};
use netsim::{LinkState, NodeId, SimDuration, Topology, World};

fn dymo_world(topology: Topology, seed: u64) -> (World, Vec<NodeHandle>) {
    let n = topology.len();
    let mut world = World::builder().topology(topology).seed(seed).build();
    let mut handles = Vec::new();
    for i in 0..n {
        let (node, handle) = manetkit_dymo::node(DymoDeployment::default());
        world.install_agent(NodeId(i), Box::new(node));
        handles.push(handle);
    }
    (world, handles)
}

#[test]
fn five_node_line_discovery_and_delivery() {
    let (mut world, _handles) = dymo_world(Topology::line(5), 1);
    world.run_for(SimDuration::from_secs(3));
    let far = world.addr(NodeId(4));
    world.send_datagram(NodeId(0), far, b"end-to-end".to_vec());
    world.run_for(SimDuration::from_secs(3));
    let s = world.stats();
    assert_eq!(s.data_delivered, 1, "{s:?}");
    assert!(s.agent_counter("route_discovery") >= 1);
    assert!(s.agent_counter("rrep_received") >= 1);
    // The reverse route was learned from path accumulation: node 4 can
    // reach node 0 without a fresh discovery.
    let back = world.addr(NodeId(0));
    world.send_datagram(NodeId(4), back, b"reply".to_vec());
    world.run_for(SimDuration::from_secs(2));
    let s2 = world.stats();
    assert_eq!(s2.data_delivered, 2);
    assert_eq!(
        s2.agent_counter("route_discovery"),
        s.agent_counter("route_discovery"),
        "no second discovery needed"
    );
}

#[test]
fn packets_buffer_during_discovery_then_flush() {
    let (mut world, _handles) = dymo_world(Topology::line(3), 2);
    world.run_for(SimDuration::from_secs(2));
    let far = world.addr(NodeId(2));
    // Burst of 5 packets before any route exists.
    for i in 0..5u8 {
        world.send_datagram(NodeId(0), far, vec![i]);
    }
    world.run_for(SimDuration::from_secs(3));
    let s = world.stats();
    assert_eq!(
        s.data_delivered, 5,
        "all buffered packets re-injected: {s:?}"
    );
    assert_eq!(
        s.agent_counter("route_discovery"),
        1,
        "a single discovery serves the burst"
    );
}

#[test]
fn discovery_to_unreachable_destination_gives_up() {
    let (mut world, _handles) = dymo_world(Topology::line(2), 3);
    world.run_for(SimDuration::from_secs(1));
    let ghost = packetbb::Address::v4([10, 9, 9, 9]);
    world.send_datagram(NodeId(0), ghost, b"void".to_vec());
    world.run_for(SimDuration::from_secs(20));
    let s = world.stats();
    assert_eq!(s.data_delivered, 0);
    assert_eq!(s.agent_counter("route_discovery_failed"), 1);
    assert!(
        s.agent_counter("rreq_retry") >= 2,
        "binary exponential retries happened: {s:?}"
    );
    assert_eq!(
        s.data_dropped_buffer, 1,
        "the buffered packet was discarded on give-up"
    );
}

#[test]
fn link_break_triggers_rerr_and_rediscovery() {
    let (mut world, _handles) = dymo_world(Topology::line(4), 4);
    world.run_for(SimDuration::from_secs(2));
    let far = world.addr(NodeId(3));
    world.send_datagram(NodeId(0), far, b"a".to_vec());
    world.run_for(SimDuration::from_secs(2));
    assert_eq!(world.stats().data_delivered, 1);

    // Break the middle link; keep traffic flowing so the break is noticed.
    world.set_link(NodeId(1), NodeId(2), LinkState::Down);
    world.send_datagram(NodeId(0), far, b"b".to_vec());
    world.run_for(SimDuration::from_secs(10));
    let s = world.stats();
    assert!(
        s.agent_counter("rerr_sent") >= 1,
        "a route error must be reported: {s:?}"
    );
    // The network is partitioned, so packet b is never delivered.
    assert_eq!(s.data_delivered, 1);
}

#[test]
fn routes_expire_without_traffic() {
    let (mut world, _handles) = dymo_world(Topology::line(3), 5);
    world.run_for(SimDuration::from_secs(1));
    let far = world.addr(NodeId(2));
    world.send_datagram(NodeId(0), far, b"x".to_vec());
    world.run_for(SimDuration::from_secs(2));
    assert!(world.os(NodeId(0)).route_table().lookup(far).is_some());
    // Route lifetime is 5 s; stay idle past it.
    world.run_for(SimDuration::from_secs(12));
    assert!(
        world.os(NodeId(0)).route_table().lookup(far).is_none(),
        "idle route must expire from the kernel table"
    );
    assert!(world.stats().agent_counter("route_expired") >= 1);
}

#[test]
fn traffic_keeps_routes_alive() {
    let (mut world, _handles) = dymo_world(Topology::line(3), 6);
    world.run_for(SimDuration::from_secs(1));
    let far = world.addr(NodeId(2));
    // Steady traffic for 15 s (lifetime is 5 s).
    for k in 0..15 {
        world.send_datagram(NodeId(0), far, vec![k]);
        world.run_for(SimDuration::from_secs(1));
    }
    let s = world.stats();
    assert_eq!(s.data_delivered, 15);
    assert_eq!(
        s.agent_counter("route_discovery"),
        1,
        "refreshed route never re-discovered: {s:?}"
    );
    assert!(s.agent_counter("route_refreshed") > 0);
}

/// The diamond 0 - {1,2} - 3 (two link-disjoint paths 0 -> 3) with
/// multipath DYMO enabled on every node.
fn multipath_diamond(seed: u64) -> World {
    let mut topo = Topology::empty(4);
    for relay in [1, 2] {
        topo.set_link(NodeId(0), NodeId(relay), LinkState::Up);
        topo.set_link(NodeId(relay), NodeId(3), LinkState::Up);
    }
    let (mut world, handles) = dymo_world(topo, seed);
    world.run_for(SimDuration::from_secs(2));
    for h in &handles {
        for op in multipath::enable_ops() {
            h.apply(op);
        }
    }
    world.run_for(SimDuration::from_secs(1));
    for h in &handles {
        assert!(
            h.status().last_error.is_none(),
            "{:?}",
            h.status().last_error
        );
    }
    world
}

/// Sends one datagram 0 -> 3 and lets it travel for half a second.
fn send_to_far_end(world: &mut World, payload: &[u8]) {
    let far = world.addr(NodeId(3));
    world.send_datagram(NodeId(0), far, payload.to_vec());
    world.run_for(SimDuration::from_millis(500));
}

/// Takes node 0's first link toward node 3 down and sends two datagrams
/// across the break. The first is lost: its failed transmission is what
/// reveals the break. Returns the relay cut off.
fn break_primary(world: &mut World) -> NodeId {
    let far = world.addr(NodeId(3));
    let hop = world
        .os(NodeId(0))
        .route_table()
        .lookup(far)
        .unwrap()
        .next_hop;
    let relay = world.node_of(hop).unwrap();
    world.set_link(NodeId(0), relay, LinkState::Down);
    send_to_far_end(world, b"after-break");
    send_to_far_end(world, b"after-repair");
    relay
}

#[test]
fn multipath_variant_fails_over_without_rediscovery() {
    let mut world = multipath_diamond(7);
    send_to_far_end(&mut world, b"probe");
    let s = world.stats();
    assert_eq!(s.data_delivered, 1);
    assert!(
        s.agent_counter("multipath_alt_learned") >= 1,
        "duplicate RREQs mined for alternatives: {s:?}"
    );

    // Break the primary's first link while routes are fresh (well inside
    // the 5 s lifetime): failover repairs the route without a new RREQ
    // flood, so the second packet flows.
    break_primary(&mut world);
    let s2 = world.stats();
    assert!(
        s2.agent_counter("multipath_failover") >= 1,
        "failover must use the stored alternative: {s2:?}"
    );
    assert_eq!(
        s2.agent_counter("route_discovery"),
        s.agent_counter("route_discovery"),
        "no re-flood needed after failover: {s2:?}"
    );
    assert_eq!(s2.data_delivered, 2, "traffic keeps flowing: {s2:?}");
}

#[test]
fn multipath_relearns_alternatives_on_every_discovery() {
    // The seeds cover both orders in which the second discovery's two RREQ
    // copies reach node 3. In seeds 3, 6 and 8 the duplicate comes through
    // the relay node 3 already holds an older alternative for, which must
    // be refreshed and answered rather than ignored.
    for seed in 1..=8 {
        let mut world = multipath_diamond(seed);
        send_to_far_end(&mut world, b"first discovery");
        // The first failover spends the only alternative.
        let relay = break_primary(&mut world);
        world.set_link(NodeId(0), relay, LinkState::Up);
        // Idle past every route lifetime: the next datagram starts a
        // second discovery with both paths up.
        world.run_for(SimDuration::from_secs(8));
        send_to_far_end(&mut world, b"second discovery");
        let s = world.stats();
        assert_eq!(s.agent_counter("route_discovery"), 2, "seed {seed}: {s:?}");
        assert_eq!(
            s.agent_counter("multipath_extra_rrep"),
            2,
            "seed {seed}: node 3 answers the second discovery's duplicate too: {s:?}"
        );

        break_primary(&mut world);
        let s2 = world.stats();
        assert_eq!(
            s2.agent_counter("multipath_failover"),
            2,
            "seed {seed}: {s2:?}"
        );
        assert_eq!(
            s2.agent_counter("route_discovery"),
            2,
            "seed {seed}: the refreshed alternative repairs the break without a flood: {s2:?}"
        );
        assert_eq!(s2.data_delivered, 4, "seed {seed}: {s2:?}");
    }
}

#[test]
fn multipath_never_fails_over_to_a_lapsed_alternative() {
    let mut world = multipath_diamond(7);
    send_to_far_end(&mut world, b"probe");
    // Traffic keeps the primary path's routes alive for longer than a
    // route lifetime; the alternative's relay forgets its unused route to
    // node 3 meanwhile.
    for _ in 0..14 {
        send_to_far_end(&mut world, b"steady");
    }
    let s = world.stats();
    assert_eq!(s.data_delivered, 15, "{s:?}");

    break_primary(&mut world);
    let s2 = world.stats();
    assert_eq!(
        s2.agent_counter("multipath_failover"),
        s.agent_counter("multipath_failover"),
        "a lapsed alternative is no failover target: {s2:?}"
    );
    assert_eq!(
        s2.agent_counter("route_discovery"),
        s.agent_counter("route_discovery") + 1,
        "{s2:?}"
    );
    assert_eq!(
        s2.data_delivered,
        s.data_delivered + 1,
        "the datagram after the break waits for the discovery instead of \
         dying at a relay without a route: {s2:?}"
    );
}

#[test]
fn optimised_flooding_cuts_rreq_relays_in_dense_networks() {
    use manetkit_olsr::{mpr_cf, MprConfig};

    let topo = Topology::random_geometric(25, 0.42, 13);
    assert!(topo.is_connected());
    let run = |optimised: bool| {
        let n = topo.len();
        let mut world = World::builder().topology(topo.clone()).seed(13).build();
        let mut handles = Vec::new();
        for i in 0..n {
            let (node, handle) = manetkit_dymo::node(DymoDeployment::default());
            world.install_agent(NodeId(i), Box::new(node));
            handles.push(handle);
        }
        if optimised {
            for h in &handles {
                for op in flooding::enable_ops(Some(mpr_cf(MprConfig::default()))) {
                    h.apply(op);
                }
            }
        }
        // Let neighbourhood/MPR state settle.
        world.run_for(SimDuration::from_secs(10));
        for h in &handles {
            assert!(
                h.status().last_error.is_none(),
                "{:?}",
                h.status().last_error
            );
        }
        world.reset_stats();
        // Several discoveries from scattered sources.
        for (src, dst) in [(0usize, 24usize), (5, 20), (10, 3), (17, 8)] {
            let dst_addr = world.addr(NodeId(dst));
            world.send_datagram(NodeId(src), dst_addr, b"d".to_vec());
            world.run_for(SimDuration::from_secs(5));
        }
        let s = world.stats();
        (s.agent_counter("rreq_relayed"), s.data_delivered)
    };
    let (blind_relays, blind_delivered) = run(false);
    let (mpr_relays, mpr_delivered) = run(true);
    assert!(blind_delivered >= 3, "blind flooding delivers");
    assert!(mpr_delivered >= 3, "optimised flooding still delivers");
    assert!(
        mpr_relays < blind_relays,
        "MPR gating must reduce RREQ relays: {mpr_relays} vs {blind_relays}"
    );
}

#[test]
fn dymo_and_olsr_coexist_sharing_mpr() {
    // The leaner co-deployment of §5.2: OLSR (MPR + OLSR CFs) together with
    // DYMO gated on the *same* MPR instance — no Neighbour Detection CF.
    let mut world = World::builder()
        .topology(Topology::line(4))
        .seed(17)
        .build();
    let mut handles = Vec::new();
    for i in 0..4 {
        let mut node = ManetNode::new(ConcurrencyModel::SingleThreaded);
        let dep = node.deployment_mut();
        manetkit_olsr::deploy(dep, Default::default()).unwrap();
        manetkit_dymo::deploy_core(dep, DymoParams::default()).unwrap();
        let handle = node.handle();
        // Gate DYMO's flooding on the shared MPR CF (no replacement CF).
        for op in flooding::enable_ops(None) {
            handle.apply(op);
        }
        world.install_agent(NodeId(i), Box::new(node));
        handles.push(handle);
    }
    world.run_for(SimDuration::from_secs(30));
    for h in &handles {
        let st = h.status();
        assert!(st.last_error.is_none(), "{:?}", st.last_error);
        assert!(st.protocols.contains(&"mpr".to_string()));
        assert!(st.protocols.contains(&"olsr".to_string()));
        assert!(st.protocols.contains(&DYMO_CF.to_string()));
    }
    // OLSR proactively installed routes; data flows without discovery.
    let far = world.addr(NodeId(3));
    world.send_datagram(NodeId(0), far, b"shared".to_vec());
    world.run_for(SimDuration::from_secs(2));
    let s = world.stats();
    assert_eq!(s.data_delivered, 1);
    assert_eq!(
        s.agent_counter("route_discovery"),
        0,
        "proactive routes pre-empt reactive discovery"
    );
}
