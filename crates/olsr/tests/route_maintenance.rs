//! Regression tests for the blind spots of change-driven route maintenance:
//! OLSR rebuilds its routes only when an input of the computation changed,
//! so every way of losing kernel routes *without* such a change must still
//! bring them back, and a converged static network must stop rebuilding.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use manetkit::prelude::*;
use manetkit_olsr::olsr::OlsrState;
use manetkit_olsr::{OlsrDeployment, OLSR_CF};
use netsim::{
    ContextSample, DataPacket, FilterEvent, NodeId, NodeOs, RoutingAgent, SimDuration, Topology,
    World,
};
use packetbb::Address;

/// An OLSR node that publishes its state's `route_builds` after every
/// callback, so a test can read it while the world owns the agent.
struct Probed {
    node: ManetNode,
    route_builds: Arc<AtomicU64>,
}

impl Probed {
    fn publish(&self) {
        let olsr = self.node.deployment().protocol(OLSR_CF).expect("OLSR runs");
        let builds = olsr.state().get::<OlsrState>().route_builds;
        self.route_builds.store(builds, Ordering::Relaxed);
    }
}

impl RoutingAgent for Probed {
    fn name(&self) -> &str {
        self.node.name()
    }
    fn start(&mut self, os: &mut NodeOs) {
        self.node.start(os);
        self.publish();
    }
    fn on_frame(&mut self, os: &mut NodeOs, from: Address, bytes: &[u8]) {
        self.node.on_frame(os, from, bytes);
        self.publish();
    }
    fn on_timer(&mut self, os: &mut NodeOs, token: u64) {
        self.node.on_timer(os, token);
        self.publish();
    }
    fn on_filter_event(&mut self, os: &mut NodeOs, event: FilterEvent) {
        self.node.on_filter_event(os, event);
        self.publish();
    }
    fn on_context(&mut self, os: &mut NodeOs, sample: ContextSample) {
        self.node.on_context(os, sample);
    }
    fn inspect_packet(&mut self, os: &mut NodeOs, packet: &DataPacket) -> bool {
        self.node.inspect_packet(os, packet)
    }
    fn stop(&mut self, os: &mut NodeOs) {
        self.node.stop(os);
    }
    fn on_crash(&mut self, os: &mut NodeOs) {
        self.node.on_crash(os);
    }
}

/// A world of probed OLSR nodes plus each node's `route_builds` reading.
fn probed_world(topology: Topology, seed: u64) -> (World, Vec<Arc<AtomicU64>>) {
    let n = topology.len();
    let mut world = World::builder().topology(topology).seed(seed).build();
    let mut probes = Vec::new();
    for i in 0..n {
        let (node, _handle) = manetkit_olsr::node(OlsrDeployment::default());
        let route_builds = Arc::new(AtomicU64::new(0));
        probes.push(Arc::clone(&route_builds));
        world.install_agent(NodeId(i), Box::new(Probed { node, route_builds }));
    }
    (world, probes)
}

/// How many other nodes `node` holds a kernel route to.
fn routes_held(world: &World, node: NodeId) -> usize {
    (0..world.node_count())
        .filter(|other| *other != node.0)
        .filter(|other| {
            let dst = world.addr(NodeId(*other));
            world.os(node).route_table().lookup(dst).is_some()
        })
        .count()
}

fn total(probes: &[Arc<AtomicU64>]) -> u64 {
    probes.iter().map(|p| p.load(Ordering::Relaxed)).sum()
}

#[test]
fn converged_static_grid_stops_rebuilding_routes() {
    let (mut world, probes) = probed_world(Topology::grid(4, 4), 11);
    world.run_for(SimDuration::from_secs(60));
    for node in 0..16 {
        assert_eq!(
            routes_held(&world, NodeId(node)),
            15,
            "node {node} converged"
        );
    }
    let converged = total(&probes);
    assert!(converged >= 16, "every node built its routes at least once");
    // Two full TC intervals (and two expiry sweeps): every node hears every
    // TC again, several copies of each, and none of them moves a route.
    let tc_before = world.stats().agent_counter("tc_processed");
    world.run_for(SimDuration::from_secs(10));
    let refreshed = world.stats().agent_counter("tc_processed") - tc_before;
    assert!(refreshed > 100, "TCs kept arriving: {refreshed}");
    assert_eq!(total(&probes), converged, "no rebuild without a change");
}

#[test]
fn stop_and_restart_reinstalls_every_route() {
    let (mut world, probes) = probed_world(Topology::grid(3, 3), 5);
    world.run_for(SimDuration::from_secs(60));
    let node = NodeId(4);
    assert_eq!(routes_held(&world, node), 8);

    // A clean stop withdraws the node's routes; the same agent, topology
    // set and all, starts again at once.
    let agent = world.remove_agent(node).expect("agent installed");
    assert_eq!(
        routes_held(&world, node),
        0,
        "PROTO_STOP withdrew the routes"
    );
    let builds_before = probes[node.0].load(Ordering::Relaxed);
    world.install_agent(node, agent);

    // No topology input changes from here on, yet the next TC (one interval
    // at most) must find the routes dirty.
    world.run_for(SimDuration::from_secs(6));
    assert_eq!(routes_held(&world, node), 8, "routes are back");
    assert!(probes[node.0].load(Ordering::Relaxed) > builds_before);
}

#[test]
fn reboot_of_the_same_agent_refills_the_flushed_kernel_table() {
    let (mut world, _probes) = probed_world(Topology::grid(3, 3), 6);
    world.run_for(SimDuration::from_secs(60));
    let node = NodeId(4);
    assert_eq!(routes_held(&world, node), 8);

    // A crash shorter than any validity: the kernel table is flushed, the
    // agent's state survives, and nobody's view of the topology changes.
    world.force_crash(node);
    world.run_for(SimDuration::from_millis(500));
    world.force_reboot(node);
    assert_eq!(routes_held(&world, node), 0, "the crash flushed the table");
    world.run_for(SimDuration::from_secs(6));
    assert_eq!(routes_held(&world, node), 8, "routes are back");
}

#[test]
fn cold_reboot_through_a_factory_converges_back_to_full_routes() {
    let (mut world, _probes) = probed_world(Topology::grid(3, 3), 7);
    let node = NodeId(4);
    world.set_reboot_factory(node, || {
        Box::new(manetkit_olsr::node(OlsrDeployment::default()).0)
    });
    world.run_for(SimDuration::from_secs(60));
    assert_eq!(routes_held(&world, node), 8);

    world.force_crash(node);
    world.run_for(SimDuration::from_secs(20));
    world.force_reboot(node);
    assert_eq!(routes_held(&world, node), 0, "a cold boot starts empty");
    world.run_for(SimDuration::from_secs(60));
    for other in 0..9 {
        assert_eq!(routes_held(&world, NodeId(other)), 8, "node {other}");
    }
}
