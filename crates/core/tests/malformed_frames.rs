//! Robustness of the reception path against frames no protocol would send:
//! a broadcast's receivers share one decoded view (or one decode error), and
//! each of them must still account for the frame on its own and carry on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use manetkit::neighbour::{
    build_hello, hello_registration, neighbour_detection_cf, HelloLink, LinkSet, NeighbourConfig,
    NeighbourTable, NEIGHBOUR_CF,
};
use manetkit::prelude::*;
use manetkit_baseline::{Dymoum, Olsrd, OlsrdConfig};
use netsim::{
    ContextSample, DataPacket, FilterEvent, NodeId, NodeOs, RoutingAgent, SimDuration, Topology,
    World,
};
use packetbb::{Address, MessageBuilder, Packet};

const NODES: usize = 4;

/// What a probed node last published about itself.
#[derive(Default)]
struct Probe {
    frames: AtomicU64,
    decode_errors: AtomicU64,
    unknown_messages: AtomicU64,
    symmetric: AtomicU64,
}

/// A MANETKit node running only neighbour detection, publishing its System
/// CF's error counters and its neighbour table after every frame so the
/// test can read them while the world owns the agent.
struct Probed {
    node: ManetNode,
    probe: Arc<Probe>,
}

impl RoutingAgent for Probed {
    fn name(&self) -> &str {
        self.node.name()
    }
    fn start(&mut self, os: &mut NodeOs) {
        self.node.start(os);
    }
    fn on_frame(&mut self, os: &mut NodeOs, from: Address, bytes: &[u8]) {
        self.node.on_frame(os, from, bytes);
        let deployment = self.node.deployment();
        let system = deployment.system();
        let table = deployment.protocol(NEIGHBOUR_CF).expect("ND runs").state();
        let symmetric = table.get::<NeighbourTable>().symmetric().len() as u64;
        self.probe.frames.fetch_add(1, Ordering::Relaxed);
        self.probe
            .decode_errors
            .store(system.decode_errors(), Ordering::Relaxed);
        self.probe
            .unknown_messages
            .store(system.unknown_messages(), Ordering::Relaxed);
        self.probe.symmetric.store(symmetric, Ordering::Relaxed);
    }
    fn on_timer(&mut self, os: &mut NodeOs, token: u64) {
        self.node.on_timer(os, token);
    }
    fn on_filter_event(&mut self, os: &mut NodeOs, event: FilterEvent) {
        self.node.on_filter_event(os, event);
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

fn clique(seed: u64) -> World {
    World::builder()
        .topology(Topology::full(NODES))
        .seed(seed)
        .build()
}

/// (a) bytes that are no packet at all, (b) a HELLO cut off inside its
/// address block, (c) a well-formed packet whose only message is of a type
/// nobody registered.
fn hostile_frames(sender: Address, peers: &[Address]) -> [Vec<u8>; 3] {
    let garbage = vec![0xFF, 0x00, 0x13, 0x37, 0xAB];

    let validity = SimDuration::from_secs(3);
    let advertised = peers.iter().map(|a| HelloLink {
        addr: *a,
        symmetric: true,
        mpr: false,
    });
    let full = Packet::single(build_hello(sender, 7, validity, [], advertised)).encode_to_vec();
    // A HELLO advertising nobody has no address block, so its length is
    // where the block of the full one starts.
    let before_block = Packet::single(build_hello(sender, 7, validity, [], [].into_iter()))
        .encode_to_vec()
        .len();
    let truncated = full[..before_block + 5].to_vec();
    assert!(truncated.len() < full.len());
    assert!(Packet::decode(&full).is_ok());
    assert!(Packet::decode(&truncated).is_err());

    let unregistered = Packet::single(MessageBuilder::new(77).originator(sender).build());
    [garbage, truncated, unregistered.encode_to_vec()]
}

#[test]
fn every_receiver_counts_a_malformed_broadcast_once_and_carries_on() {
    let mut world = clique(19);
    let probes: Vec<Arc<Probe>> = (0..NODES).map(|_| Arc::new(Probe::default())).collect();
    for (i, probe) in probes.iter().enumerate() {
        let mut node = ManetNode::new(ConcurrencyModel::SingleThreaded);
        let deployment = node.deployment_mut();
        deployment
            .system_mut()
            .register_message(hello_registration());
        deployment
            .add_protocol_offline(neighbour_detection_cf(NeighbourConfig::default()))
            .unwrap();
        let probe = Arc::clone(probe);
        world.install_agent(NodeId(i), Box::new(Probed { node, probe }));
    }
    world.run_for(SimDuration::from_secs(4));
    for probe in &probes {
        assert_eq!(probe.symmetric.load(Ordering::Relaxed), 3, "converged");
        assert_eq!(probe.decode_errors.load(Ordering::Relaxed), 0);
        assert_eq!(probe.unknown_messages.load(Ordering::Relaxed), 0);
    }

    let peers: Vec<Address> = (1..NODES).map(|i| world.addr(NodeId(i))).collect();
    let [garbage, truncated, unregistered] = hostile_frames(world.addr(NodeId(0)), &peers);
    let expected = [(garbage, 1, 0), (truncated, 2, 0), (unregistered, 2, 1)];
    for (frame, decode_errors, unknown_messages) in expected {
        let received = world.stats().control_received;
        let seen: u64 = probes
            .iter()
            .map(|p| p.frames.load(Ordering::Relaxed))
            .sum();
        world.os_mut(NodeId(0)).broadcast_control(frame);
        world.run_for(SimDuration::from_millis(20));

        // The world counts a malformed arrival like any other, and every
        // counted arrival reached an agent.
        let received = world.stats().control_received - received;
        let seen = probes
            .iter()
            .map(|p| p.frames.load(Ordering::Relaxed))
            .sum::<u64>()
            - seen;
        assert!(received >= 3, "all three neighbours heard it");
        assert_eq!(received, seen);
        for probe in &probes[1..] {
            assert_eq!(probe.decode_errors.load(Ordering::Relaxed), decode_errors);
            assert_eq!(
                probe.unknown_messages.load(Ordering::Relaxed),
                unknown_messages
            );
        }
        // The sender does not hear itself.
        assert_eq!(probes[0].decode_errors.load(Ordering::Relaxed), 0);
        assert_eq!(probes[0].unknown_messages.load(Ordering::Relaxed), 0);
    }

    // Valid HELLOs keep being processed: neighbour detection sees every
    // later HELLO, nobody ages out, and no further error is counted.
    let hellos_before: Vec<u64> = (0..NODES)
        .map(|i| {
            world
                .os(NodeId(i))
                .counter("bus.neighbour-detection.events_in")
        })
        .collect();
    world.run_for(SimDuration::from_secs(5));
    for (i, probe) in probes.iter().enumerate() {
        let hellos = world
            .os(NodeId(i))
            .counter("bus.neighbour-detection.events_in");
        assert!(
            hellos >= hellos_before[i] + 12,
            "node {i} kept hearing HELLOs"
        );
        assert_eq!(probe.symmetric.load(Ordering::Relaxed), 3);
    }
    for probe in &probes[1..] {
        assert_eq!(probe.decode_errors.load(Ordering::Relaxed), 2);
        assert_eq!(probe.unknown_messages.load(Ordering::Relaxed), 1);
    }
    assert_eq!(world.stats().agent_counter("nd_link_lost"), 0);
}

#[test]
fn monoliths_shrug_off_the_same_frames() {
    type Factory = fn() -> Box<dyn RoutingAgent>;
    let factories: [Factory; 2] = [
        || Box::new(Dymoum::new()),
        || Box::new(Olsrd::new(OlsrdConfig::default())),
    ];
    for factory in factories {
        let mut world = clique(23);
        for i in 0..NODES {
            world.install_agent(NodeId(i), factory());
        }
        world.run_for(SimDuration::from_secs(4));
        let peers: Vec<Address> = (1..NODES).map(|i| world.addr(NodeId(i))).collect();
        for frame in hostile_frames(world.addr(NodeId(0)), &peers) {
            let received = world.stats().control_received;
            world.os_mut(NodeId(0)).broadcast_control(frame);
            world.run_for(SimDuration::from_millis(20));
            assert!(world.stats().control_received - received >= 3);
        }
        // Still alive and still forwarding: a datagram crosses the clique.
        let delivered = world.stats().data_delivered;
        world.send_datagram(NodeId(1), world.addr(NodeId(2)), vec![1, 2, 3]);
        world.run_for(SimDuration::from_secs(3));
        assert_eq!(world.stats().data_delivered, delivered + 1);
    }
}
