//! The reception path's allocation budget, as a test: what a dense mesh
//! does 470 thousand times a run — hear a HELLO that changes nothing, hear an
//! RREQ it has already relayed — must stay (almost) free of heap traffic
//! without anyone holding a stopwatch. The numbers below are what the path
//! costs today; the test fails when one of them goes up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use manetkit::event::{types, Event};
use manetkit::neighbour::{
    build_hello, neighbour_detection_cf, HelloLink, LinkSet, NeighbourConfig, NeighbourTable,
    NEIGHBOUR_CF,
};
use manetkit::prelude::*;
use manetkit_aodv::{aodv_cf, AodvParams, AODV_CF};
use manetkit_dymo::{dymo_cf, DymoDeployment, DymoParams, PathHop, RouteElement, DYMO_CF};
use manetkit_olsr::mpr::{mpr_cf, MprConfig, MprState};
use netsim::{ControlFrame, NodeId, NodeOs, RoutingAgent, SimDuration};
use packetbb::{Address, Message, Packet};

/// Heap allocations a HELLO from a known neighbour, advertising what it
/// advertised last time, may cost the Neighbour Detection CF.
const HELLO_ND_BUDGET: u64 = 0;
/// ... and the MPR CF, which reads it through the same core: only relay
/// selection's working sets, rebuilt on every HELLO (its candidate `Vec`
/// and neighbour `BTreeSet`).
const HELLO_MPR_BUDGET: u64 = 8;
/// ... and the whole node, `on_frame` in to status published out: the
/// `Arc<Event>` the bus shares between subscribers.
const HELLO_NODE_BUDGET: u64 = 1;
/// Heap allocations an RREQ the node has already seen may cost the whole
/// node: the `Arc<Event>` again and the parsed element's path.
const DUPLICATE_RREQ_NODE_BUDGET: u64 = 2;

/// Counts this thread's allocations (growth counts; frees do not), so tests
/// running in parallel on other threads cannot disturb a reading.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System` unchanged; the only addition is
// a bump of a const-initialised, destructor-free thread-local, which neither
// allocates nor can be observed after its thread's teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const NEIGHBOURS: u8 = 22;
const LOCAL: Address = Address::v4([10, 0, 0, 1]);

fn neighbour(i: u8) -> Address {
    Address::v4([10, 0, 1, i])
}

/// The HELLO neighbour `i` sends once the clique has converged: the local
/// node and the 21 other neighbours, all symmetric.
fn hello_from(i: u8, seq: u16) -> Message {
    let advertised = std::iter::once(LOCAL)
        .chain((0..NEIGHBOURS).filter(|j| *j != i).map(neighbour))
        .map(|addr| HelloLink {
            addr,
            symmetric: true,
            mpr: false,
        });
    assert_eq!(advertised.clone().count(), usize::from(NEIGHBOURS));
    build_hello(neighbour(i), seq, SimDuration::from_secs(3), [], advertised)
}

/// A frame as its second and later receivers meet it: decoded already.
fn heard_before(msg: Message) -> ControlFrame {
    let frame = ControlFrame::new(Packet::single(msg).encode_to_vec());
    assert!(frame.messages().is_ok());
    frame
}

/// A started DYMO node that has heard every neighbour's HELLO twice.
fn warmed_node() -> (ManetNode, NodeOs) {
    let (mut node, _handle) = manetkit_dymo::node(DymoDeployment::default());
    let mut os = NodeOs::standalone(NodeId(0), LOCAL);
    node.start(&mut os);
    for seq in 0..2 {
        for i in 0..NEIGHBOURS {
            let frame = heard_before(hello_from(i, seq));
            os.deliver_control(&mut node, neighbour(i), &frame);
        }
    }
    let table = node.deployment().protocol(NEIGHBOUR_CF).unwrap().state();
    let table = table.get::<NeighbourTable>();
    assert_eq!(table.symmetric().len(), usize::from(NEIGHBOURS));
    assert!(table.neighbours.values().all(|n| n.two_hop.len() == 21));
    (node, os)
}

/// The allocations `cf` spends on a round of unchanged HELLOs, one from
/// each neighbour, after two rounds made them old news.
fn unchanged_round(cf: &mut ManetProtocolCf) -> u64 {
    let mut os = NodeOs::standalone(NodeId(0), LOCAL);
    let hellos: Vec<Event> = (0..NEIGHBOURS)
        .map(|i| Event::message_in(types::hello_in(), Arc::new(hello_from(i, 1)), neighbour(i)))
        .collect();
    let deliver_all = |cf: &mut ManetProtocolCf, os: &mut NodeOs| {
        for hello in &hellos {
            let mut ctx = ProtoCtx::new(os, cf.name());
            cf.deliver(hello, &mut ctx);
        }
    };
    deliver_all(cf, &mut os);
    deliver_all(cf, &mut os);
    allocations_during(|| deliver_all(cf, &mut os))
}

#[test]
fn an_unchanged_hello_allocates_nothing_in_neighbour_detection() {
    let spent = unchanged_round(&mut neighbour_detection_cf(NeighbourConfig::default()));
    assert!(
        spent <= HELLO_ND_BUDGET * u64::from(NEIGHBOURS),
        "{spent} allocations for {NEIGHBOURS} unchanged HELLOs"
    );
}

#[test]
fn an_unchanged_hello_costs_the_mpr_cf_only_its_relay_selection() {
    let mut cf = mpr_cf(MprConfig::default());
    let spent = unchanged_round(&mut cf);
    let links = cf.state().get::<MprState>();
    assert_eq!(links.symmetric().len(), usize::from(NEIGHBOURS));
    assert!(
        spent <= HELLO_MPR_BUDGET * u64::from(NEIGHBOURS),
        "{spent} allocations for {NEIGHBOURS} unchanged HELLOs"
    );
}

#[test]
fn an_unchanged_hello_costs_the_node_one_shared_event() {
    let (mut node, mut os) = warmed_node();
    let frame = heard_before(hello_from(3, 2));
    let spent = allocations_during(|| os.deliver_control(&mut node, neighbour(3), &frame));
    assert!(
        spent <= HELLO_NODE_BUDGET,
        "{spent} allocations for one unchanged HELLO"
    );
}

#[test]
fn a_duplicate_rreq_costs_the_node_its_event_and_its_path() {
    let (mut node, mut os) = warmed_node();
    // A request from a node two hops away, relayed by neighbour 5, for a
    // destination that is not us.
    let origin = PathHop {
        addr: Address::v4([10, 0, 2, 1]),
        seq: 40,
    };
    let relayed = RouteElement::rreq(origin, Address::v4([10, 0, 2, 9]), None, 10)
        .extended(PathHop {
            addr: neighbour(5),
            seq: 7,
        })
        .expect("hop budget left");
    let frame = heard_before(relayed.to_message());
    os.deliver_control(&mut node, neighbour(5), &frame);
    assert_eq!(os.counter("rreq_relayed"), 1, "fresh: relayed once");

    let spent = allocations_during(|| os.deliver_control(&mut node, neighbour(5), &frame));
    assert_eq!(os.counter("rreq_duplicate"), 1, "seen: squashed");
    assert_eq!(os.counter("rreq_relayed"), 1);
    assert!(
        spent <= DUPLICATE_RREQ_NODE_BUDGET,
        "{spent} allocations for one duplicate RREQ"
    );
}

/// `Deployment::fork` copies what a node runs, not its history: a node
/// that has switched DYMO ⇄ AODV any number of times and runs DYMO again
/// forks with exactly the allocations of one that never switched.
#[test]
fn a_fork_costs_the_same_after_any_number_of_switches() {
    let fork_cost = |switches: usize| {
        let (mut node, _handle) = manetkit_dymo::node(DymoDeployment::default());
        let mut os = NodeOs::standalone(NodeId(0), LOCAL);
        node.start(&mut os);
        let dep = node.deployment_mut();
        for i in 0..switches {
            let (old, new) = if i % 2 == 0 {
                (DYMO_CF, aodv_cf(AodvParams::default()))
            } else {
                (AODV_CF, dymo_cf(DymoParams::default()))
            };
            let switch = ReconfigOp::SwitchProtocol {
                old: old.into(),
                new,
                transfer_state: true,
            };
            dep.apply(switch, &mut os).expect("the switch applies");
        }
        assert_eq!(dep.protocol_names(), [NEIGHBOUR_CF, DYMO_CF]);
        drop(dep.fork());
        allocations_during(|| drop(dep.fork()))
    };
    let never = fork_cost(0);
    for switches in [2, 4, 8] {
        assert_eq!(
            fork_cost(switches),
            never,
            "a fork after {switches} switches against one after none"
        );
    }
}
