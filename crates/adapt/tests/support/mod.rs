//! Shared fixtures of the switch tests: a fleet whose nodes the test can
//! still look inside, kernel- and protocol-table snapshots, CBR traffic
//! and a forwarding-loop check.
#![allow(dead_code)] // each test binary uses its own subset

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use adapt::Stack;
use manetkit::{FleetCoordinator, ManetNode};
use netsim::{
    ContextSample, FilterEvent, NodeId, NodeOs, RoutingAgent, SimDuration, SimTime, World,
};
use packetbb::Address;

pub fn secs(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(n)
}

pub fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// A `ManetNode` the world drives and the test can still lock and read:
/// the world owns its agents as opaque boxes, so this is the only way to
/// see a live protocol table without perturbing the run.
pub struct Shared(pub Arc<Mutex<ManetNode>>);

impl Shared {
    fn node(&self) -> std::sync::MutexGuard<'_, ManetNode> {
        self.0.lock().expect("no test thread panicked holding it")
    }
}

impl RoutingAgent for Shared {
    fn name(&self) -> &str {
        "manetkit"
    }
    fn start(&mut self, os: &mut NodeOs) {
        self.node().start(os);
    }
    fn on_frame(&mut self, os: &mut NodeOs, from: Address, bytes: &[u8]) {
        self.node().on_frame(os, from, bytes);
    }
    fn on_timer(&mut self, os: &mut NodeOs, token: u64) {
        self.node().on_timer(os, token);
    }
    fn on_filter_event(&mut self, os: &mut NodeOs, event: FilterEvent) {
        self.node().on_filter_event(os, event);
    }
    fn on_context(&mut self, os: &mut NodeOs, sample: ContextSample) {
        self.node().on_context(os, sample);
    }
    fn stop(&mut self, os: &mut NodeOs) {
        self.node().stop(os);
    }
    fn on_crash(&mut self, os: &mut NodeOs) {
        self.node().on_crash(os);
    }
}

/// A fleet running `stack` on every node, plus the nodes themselves.
pub struct Fleet {
    pub coordinator: FleetCoordinator,
    pub nodes: Vec<Arc<Mutex<ManetNode>>>,
}

pub fn install(world: &mut World, stack: Stack) -> Fleet {
    let mut coordinator = FleetCoordinator::default();
    let mut nodes = Vec::new();
    let ids: Vec<NodeId> = world.node_ids().collect();
    for id in ids {
        let (node, handle) = stack.node();
        coordinator.add_node(id, handle);
        let node = Arc::new(Mutex::new(node));
        world.install_agent(id, Box::new(Shared(Arc::clone(&node))));
        nodes.push(node);
    }
    Fleet { coordinator, nodes }
}

/// One node's routing-CF table with the lifetimes left out: own sequence
/// number and `(dst, next hop, hops, seq, broken)` rows in `dst` order.
pub type ProtocolTable = (u16, Vec<(Address, Address, u8, Option<u16>, bool)>);

impl Fleet {
    /// Every node's protocol table under `stack` (DYMO or AODV).
    pub fn protocol_tables(&self, stack: Stack) -> Vec<ProtocolTable> {
        self.nodes
            .iter()
            .map(|node| {
                let node = node.lock().expect("not poisoned");
                let state = node
                    .deployment()
                    .protocol(stack.name())
                    .unwrap_or_else(|| panic!("node runs {stack}"))
                    .state();
                match stack {
                    Stack::Dymo => {
                        let s = state.get::<manetkit_dymo::DymoState>();
                        let rows = s.routes.iter();
                        let rows =
                            rows.map(|(d, r)| (*d, r.next_hop, r.hop_count, Some(r.seq), r.broken));
                        (s.own_seq, rows.collect())
                    }
                    Stack::Aodv => {
                        let s = state.get::<manetkit_aodv::AodvState>();
                        let rows = s.routes.iter();
                        let rows =
                            rows.map(|(d, r)| (*d, r.next_hop, r.hop_count, r.seq, r.broken));
                        (s.own_seq, rows.collect())
                    }
                    Stack::Olsr => panic!("OLSR keeps no reactive table"),
                }
            })
            .collect()
    }

    pub fn runs(&self, stack: Stack) -> bool {
        let names = stack.protocols();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        self.coordinator.all_run(&names)
    }
}

/// Every node's kernel table as sorted `(dst, next hop, metric)` rows.
pub fn kernel_tables(world: &World) -> Vec<Vec<(Address, Address, u32)>> {
    world
        .node_ids()
        .map(|id| {
            let mut rows: Vec<_> = world
                .os(id)
                .route_table()
                .iter()
                .map(|e| (e.dst, e.next_hop, e.metric))
                .collect();
            rows.sort();
            rows
        })
        .collect()
}

/// Schedules one datagram `src → dst` every `interval` over `[from, to)`.
pub fn cbr(
    world: &mut World,
    src: NodeId,
    dst: NodeId,
    from: SimTime,
    to: SimTime,
    interval: SimDuration,
) {
    let dst = world.addr(dst);
    let mut t = from;
    while t < to {
        world.send_datagram_at(t, src, dst, vec![0u8; 64]);
        t += interval;
    }
}

/// Follows kernel next hops toward each flow's destination from every
/// node: a chain never revisits a node, and the one starting at the
/// flow's source ends at the destination.
pub fn assert_loop_free(world: &World, flows: &[(NodeId, NodeId)]) {
    for &(src, dst) in flows {
        let target = world.addr(dst);
        for start in world.node_ids() {
            let mut seen = BTreeSet::new();
            let mut at = start;
            while at != dst {
                assert!(
                    seen.insert(at),
                    "forwarding loop toward {dst:?} from {start:?} at {at:?}"
                );
                match world.os(at).route_table().lookup(target) {
                    Some(route) => {
                        at = world
                            .node_of(route.next_hop)
                            .expect("next hops are node addresses");
                    }
                    None => {
                        assert!(
                            start != src,
                            "flow {src:?}->{dst:?}: chain from its source stops at {at:?}"
                        );
                        break;
                    }
                }
            }
        }
    }
}
