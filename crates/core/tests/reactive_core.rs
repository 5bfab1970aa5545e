//! The reactive core's behaviour, pinned once for both protocols that run
//! it. A discovery toward an unreachable destination floods RREQs spaced
//! `rreq_wait × 2^k` apart, gives up after `rreq_tries` of them and drops
//! the datagrams it buffered. Starting a routing CF mirrors its S
//! element's live routes into the kernel table, and stopping it withdraws
//! them while S stays as it was.
//!
//! Route breakage is pinned the same way, for DYMO, AODV and multipath
//! DYMO: a link loss, a failed unicast, a forwarding failure and an
//! incoming RERR each leave exact RERR bytes and destinations, route
//! invalidations, kernel-table effects and counters. The expected RERRs
//! are built here from PacketBB directly, so the protocols' own codec is
//! under test too.

use std::sync::Arc;

use manetkit::carry::{CarriedRoute, RouteCarry};
use manetkit::event::{types, EventMeta, NeighbourhoodChange, RouteCtl};
use manetkit::prelude::*;
use manetkit::protocol::message_to_wire;
use manetkit::reactive::{ReactiveParams, ReactiveState, ReactiveTable};
use manetkit_aodv::{AodvDeployment, AodvParams, AodvState};
use manetkit_dymo::variants::multipath::{self, AltPath, MultipathState};
use manetkit_dymo::{DymoDeployment, DymoState};
use netsim::{KernelRouteTable, NodeId, NodeOs, SimDuration, SimTime, Topology, World};
use packetbb::registry::{msg_type, tlv_type};
use packetbb::{Address, AddressBlock, AddressTlv, Message, MessageBuilder, Tlv};

/// Non-default timings, so the test shows that the core reads each
/// protocol's own parameters.
fn reactive() -> ReactiveParams {
    ReactiveParams {
        rreq_wait: SimDuration::from_millis(500),
        rreq_tries: 4,
        ..ReactiveParams::default()
    }
}

/// One node on its own, running DYMO or AODV with [`reactive`] timings.
fn lone_node(protocol: &str) -> (World, NodeHandle) {
    let (node, handle) = match protocol {
        "dymo" => manetkit_dymo::node(DymoDeployment {
            params: reactive(),
            ..DymoDeployment::default()
        }),
        _ => manetkit_aodv::node(AodvDeployment {
            params: AodvParams {
                reactive: reactive(),
                ..AodvParams::default()
            },
            ..AodvDeployment::default()
        }),
    };
    let mut world = World::builder()
        .topology(Topology::empty(1))
        .seed(1)
        .build();
    world.install_agent(NodeId(0), Box::new(node));
    (world, handle)
}

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Runs `world` until `end` in 1 ms steps and returns the times at which
/// node 0's `counter` grew.
fn times_of(world: &mut World, counter: &str, end: SimTime) -> Vec<SimTime> {
    let mut seen = world.os(NodeId(0)).counter(counter);
    let mut times = Vec::new();
    while world.now() < end {
        world.run_until(world.now() + SimDuration::from_millis(1));
        let now = world.os(NodeId(0)).counter(counter);
        if now > seen {
            times.push(world.now());
            seen = now;
        }
    }
    times
}

#[test]
fn an_unreachable_destination_backs_off_exactly_and_gives_up() {
    let ghost = Address::v4([10, 9, 9, 9]);
    let params = reactive();
    for protocol in ["dymo", "aodv"] {
        let (mut world, _handle) = lone_node(protocol);
        // One second in: a sweep tick, so every retry deadline lands on one.
        world.run_until(at(1_000));
        for _ in 0..2 {
            world.send_datagram(NodeId(0), ghost, b"x".to_vec());
        }
        world.run_until(at(1_000));
        assert_eq!(world.os(NodeId(0)).counter("rreq_sent"), 1, "{protocol}");
        // The first RREQ at once, then a retry per deadline, each wait
        // twice the last: 1.5, 2.5 and 4.5 s. The give-up follows the last
        // wait, at 8.5 s.
        let wait = params.rreq_wait.as_millis();
        let mut expected = Vec::new();
        let mut t = 1_000;
        for k in 0..params.rreq_tries {
            t += wait << k;
            expected.push(at(t));
        }
        let give_up = expected.pop().expect("rreq_tries > 0");
        let retried = times_of(&mut world, "rreq_sent", at(t - 1));
        assert_eq!(retried, expected, "{protocol}: retry times");
        assert_eq!(world.stats().data_dropped_buffer, 0, "{protocol}");
        let failed = times_of(&mut world, "route_discovery_failed", at(20_000));
        assert_eq!(failed, vec![give_up], "{protocol}: give-up time");

        let os = world.os(NodeId(0));
        assert_eq!(os.counter("route_discovery"), 1, "{protocol}");
        let retries = u64::from(params.rreq_tries - 1);
        assert_eq!(os.counter("rreq_retry"), retries, "{protocol}");
        assert_eq!(os.counter("rreq_sent"), retries + 1, "{protocol}");
        let stats = world.stats();
        assert_eq!(stats.data_dropped_buffer, 2, "{protocol}: buffer dropped");
        assert_eq!(stats.data_delivered, 0, "{protocol}");
    }
}

#[test]
fn stopping_mid_discovery_drops_the_buffered_datagrams() {
    let ghost = Address::v4([10, 9, 9, 9]);
    for protocol in ["dymo", "aodv"] {
        let (mut world, handle) = lone_node(protocol);
        world.run_until(at(1_000));
        world.send_datagram(NodeId(0), ghost, b"x".to_vec());
        world.run_until(at(1_100));
        assert_eq!(world.stats().data_dropped_buffer, 0, "{protocol}");
        let name = protocol.into();
        handle.apply(ReconfigOp::RemoveProtocol { name });
        // The node applies the op at its next callback, the 1.25 s sweep.
        world.run_until(at(1_250));
        assert_eq!(world.stats().data_dropped_buffer, 1, "{protocol}");
        assert!(handle.status().last_error.is_none(), "{protocol}");
    }
}

fn addr(n: u8) -> Address {
    Address::v4([10, 0, 0, n])
}

/// Gives `cf`'s S element (a `T`) three routes, live until 4 s, and breaks
/// the one to 10.0.0.7; starts the CF, checks that the kernel holds exactly
/// the two live routes, stops it and checks that the kernel holds none
/// while S is byte-identical to what it was before the start.
fn start_and_stop_mirror<T: ReactiveTable>(mut cf: ManetProtocolCf, break_route: fn(&mut T)) {
    let route = |dst, next_hop, hop_count| CarriedRoute {
        dst: addr(dst),
        next_hop: addr(next_hop),
        hop_count,
        seq: Some(5),
        expiry: at(4_000),
    };
    let carry = RouteCarry {
        own_seq: 7,
        routes: vec![route(7, 2, 1), route(8, 3, 2), route(9, 2, 3)],
    };
    let state = cf.state_mut().get_mut::<T>();
    state.adopt_carry(&carry, SimTime::ZERO);
    break_route(state);
    let before = cf.export_state().expect("a reactive CF has a codec");

    let mut os = NodeOs::standalone(NodeId(0), addr(1));
    let name = cf.name();
    cf.start(&mut ProtoCtx::new(&mut os, name));
    let mut live = KernelRouteTable::new();
    live.add_host_route(addr(8), addr(3), 2);
    live.add_host_route(addr(9), addr(2), 3);
    assert_eq!(os.route_table(), &live, "{name}: start mirrors S");

    cf.stop(&mut ProtoCtx::new(&mut os, name));
    assert_eq!(os.route_table(), &KernelRouteTable::new(), "{name}");
    assert_eq!(cf.export_state(), Some(before), "{name}: S intact");
}

#[test]
fn start_mirrors_live_routes_and_stop_withdraws_them_keeping_s() {
    start_and_stop_mirror::<DymoState>(manetkit_dymo::dymo_cf(Default::default()), |s| {
        s.routes.get_mut(&addr(7)).expect("adopted").broken = true;
    });
    start_and_stop_mirror::<AodvState>(manetkit_aodv::aodv_cf(Default::default()), |s| {
        s.routes.get_mut(&addr(7)).expect("adopted").broken = true;
    });
}

// ---- Route breakage ------------------------------------------------------------------------

/// The routes every breakage case starts from, all live until 4 s: 7 and 9
/// via neighbour 2, 8 via neighbour 3. Route 9's sequence number is the
/// largest, so AODV's increment wraps. Our own sequence number is 7, so the
/// first RERR we send carries 8.
fn breakage_carry() -> RouteCarry {
    let route = |dst, next_hop, hop_count, seq| CarriedRoute {
        dst: addr(dst),
        next_hop: addr(next_hop),
        hop_count,
        seq: Some(seq),
        expiry: at(4_000),
    };
    RouteCarry {
        own_seq: 7,
        routes: vec![
            route(7, 2, 1, 5),
            route(8, 3, 2, 11),
            route(9, 2, 3, u16::MAX),
        ],
    }
}

/// A RERR as PacketBB writes it: one address block with a sequence-number
/// TLV per address, and DYMO's `UNREACHABLE` flag after each when `flag`.
fn rerr_message(
    ty: u8,
    flag: bool,
    reporter: u8,
    seq: u16,
    hop_limit: u8,
    unreachable: &[(u8, u16)],
) -> Message {
    let addrs = unreachable.iter().map(|&(a, _)| addr(a)).collect();
    let mut block = AddressBlock::new(addrs).expect("non-empty");
    for (i, &(_, s)) in unreachable.iter().enumerate() {
        let seq_tlv = Tlv::with_value(tlv_type::ADDR_SEQ_NUM, s.to_be_bytes());
        block.add_tlv(AddressTlv::single(seq_tlv, i as u8));
        if flag {
            block.add_tlv(AddressTlv::single(
                Tlv::flag(tlv_type::UNREACHABLE),
                i as u8,
            ));
        }
    }
    MessageBuilder::new(ty)
        .originator(addr(reporter))
        .hop_limit(hop_limit)
        .seq_num(seq)
        .push_address_block(block)
        .build()
}

/// The wire bytes of a DYMO RERR we (10.0.0.1) send.
fn dymo_rerr(seq: u16, hop_limit: u8, unreachable: &[(u8, u16)]) -> Vec<u8> {
    message_to_wire(&rerr_message(
        msg_type::RERR,
        true,
        1,
        seq,
        hop_limit,
        unreachable,
    ))
}

/// The wire bytes of an AODV RERR we send: no flag, hop limit 1.
fn aodv_rerr(seq: u16, unreachable: &[(u8, u16)]) -> Vec<u8> {
    message_to_wire(&rerr_message(
        msg_type::AODV_RERR,
        false,
        1,
        seq,
        1,
        unreachable,
    ))
}

fn link_loss(lost: &[u8]) -> Event {
    let change = NeighbourhoodChange {
        lost: lost.iter().map(|&n| addr(n)).collect(),
        ..NeighbourhoodChange::default()
    };
    Event {
        ty: types::nhood_change(),
        payload: Payload::Neighbourhood(Arc::new(change)),
        meta: EventMeta::default(),
    }
}

fn tx_failed(neighbour: u8) -> Event {
    let neighbour = addr(neighbour);
    Event {
        ty: types::tx_failed(),
        payload: Payload::RouteCtl(RouteCtl::TxFailed { neighbour }),
        meta: EventMeta::default(),
    }
}

/// A transit datagram from 10.0.0.20 to `dst` could not be forwarded.
fn forward_failure(dst: u8) -> Event {
    let (dst, src, next_hop) = (addr(dst), addr(20), addr(2));
    Event {
        ty: types::send_route_err(),
        payload: Payload::RouteCtl(RouteCtl::ForwardFailure { dst, src, next_hop }),
        meta: EventMeta::default(),
    }
}

/// A RERR of type `ty` arriving from neighbour `from`, which reported it
/// under sequence number 30.
fn rerr_in(ty: u8, from: u8, hop_limit: u8, listed: &[(u8, u16)]) -> Event {
    let flag = ty == msg_type::RERR;
    let msg = rerr_message(ty, flag, from, 30, hop_limit, listed);
    Event::message_in(types::rerr_in(), Arc::new(msg), addr(from))
}

/// What one stimulus did to a routing CF.
#[derive(Debug, PartialEq)]
struct Breakage {
    /// The RERRs emitted: wire bytes and unicast destination (`None` is a
    /// broadcast).
    rerrs: Vec<(Vec<u8>, Option<Address>)>,
    /// The kernel table afterwards.
    kernel: KernelRouteTable,
    /// `rerr_sent`, `rerr_processed` and `multipath_failover`.
    counters: [u64; 3],
}

/// Gives `cf`'s S element (an `S`) the [`breakage_carry`] routes, lets
/// `prepare` adjust it, starts the CF (which mirrors the live routes into
/// the kernel), delivers `stimulus` and reports what it did. Returns the CF
/// too, for its S element.
fn breakage<S: ReactiveState>(
    mut cf: ManetProtocolCf,
    prepare: impl FnOnce(&mut S),
    stimulus: &Event,
) -> (Breakage, ManetProtocolCf) {
    let s = cf.state_mut().get_mut::<S>();
    s.table_mut().adopt_carry(&breakage_carry(), SimTime::ZERO);
    prepare(s);
    let mut os = NodeOs::standalone(NodeId(0), addr(1));
    let name = cf.name();
    cf.start(&mut ProtoCtx::new(&mut os, name));
    let mut ctx = ProtoCtx::new(&mut os, name);
    cf.deliver(stimulus, &mut ctx);
    let out = ctx.take_outputs();
    assert!(out.sends.is_empty(), "{name}: no direct sends");
    let rerrs = out.emitted.iter().map(|e| {
        assert_eq!(e.ty, types::rerr_out(), "{name}: only RERRs go out");
        (message_to_wire(e.message().expect("a message")), e.meta.dst)
    });
    let rerrs = rerrs.collect();
    let counters = ["rerr_sent", "rerr_processed", "multipath_failover"].map(|c| os.counter(c));
    let kernel = os.route_table().clone();
    let done = Breakage {
        rerrs,
        kernel,
        counters,
    };
    (done, cf)
}

/// A kernel table holding `(dst, next hop, hops)` host routes.
fn kernel(routes: &[(u8, u8, u32)]) -> KernelRouteTable {
    let mut table = KernelRouteTable::new();
    for &(dst, next_hop, hops) in routes {
        table.add_host_route(addr(dst), addr(next_hop), hops);
    }
    table
}

/// The kernel table right after the start: the three live routes.
fn all_live() -> KernelRouteTable {
    kernel(&[(7, 2, 1), (8, 3, 2), (9, 2, 3)])
}

/// DYMO's routes as `(destination, broken, seq)`.
fn dymo_routes(s: &DymoState) -> Vec<(u8, bool, u16)> {
    let last = |a: &Address| a.octets()[3];
    s.routes
        .iter()
        .map(|(d, r)| (last(d), r.broken, r.seq))
        .collect()
}

fn aodv_routes(s: &AodvState) -> Vec<(u8, bool, Option<u16>)> {
    let last = |a: &Address| a.octets()[3];
    s.routes
        .iter()
        .map(|(d, r)| (last(d), r.broken, r.seq))
        .collect()
}

const MAX: u16 = u16::MAX;

fn dymo(stimulus: &Event) -> (Breakage, Vec<(u8, bool, u16)>) {
    let cf = manetkit_dymo::dymo_cf(Default::default());
    let (done, cf) = breakage::<DymoState>(cf, |_| {}, stimulus);
    (done, dymo_routes(cf.state().get::<DymoState>()))
}

#[test]
fn dymo_floods_each_break_with_the_routes_sequence_numbers() {
    // A link loss: one RERR per lost neighbour, each a fresh sequence
    // number, hop limit 2, broadcast; the routes keep their numbers.
    let (done, routes) = dymo(&link_loss(&[2, 3]));
    let rerrs = vec![
        (dymo_rerr(8, 2, &[(7, 5), (9, MAX)]), None),
        (dymo_rerr(9, 2, &[(8, 11)]), None),
    ];
    let expected = Breakage {
        rerrs,
        kernel: kernel(&[]),
        counters: [2, 0, 0],
    };
    assert_eq!(done, expected, "link loss");
    assert_eq!(routes, [(7, true, 5), (8, true, 11), (9, true, MAX)]);

    // A failed unicast to neighbour 2.
    let (done, routes) = dymo(&tx_failed(2));
    let expected = Breakage {
        rerrs: vec![(dymo_rerr(8, 2, &[(7, 5), (9, MAX)]), None)],
        kernel: kernel(&[(8, 3, 2)]),
        counters: [1, 0, 0],
    };
    assert_eq!(done, expected, "tx failed");
    assert_eq!(routes, [(7, true, 5), (8, false, 11), (9, true, MAX)]);

    // A forwarding failure reports the route's sequence number, and 0 for
    // a destination without a route.
    let (done, routes) = dymo(&forward_failure(9));
    let expected = Breakage {
        rerrs: vec![(dymo_rerr(8, 2, &[(9, MAX)]), None)],
        kernel: kernel(&[(7, 2, 1), (8, 3, 2)]),
        counters: [1, 0, 0],
    };
    assert_eq!(done, expected, "forwarding failure");
    assert_eq!(routes, [(7, false, 5), (8, false, 11), (9, true, MAX)]);
    let (done, routes) = dymo(&forward_failure(5));
    let expected = Breakage {
        rerrs: vec![(dymo_rerr(8, 2, &[(5, 0)]), None)],
        kernel: all_live(),
        counters: [1, 0, 0],
    };
    assert_eq!(done, expected, "forwarding failure, no route");
    assert_eq!(routes, [(7, false, 5), (8, false, 11), (9, false, MAX)]);

    // An incoming RERR breaks only the listed routes through its sender and
    // is relayed with one hop less, quoting the listed numbers.
    let listed = [(9, 40), (8, 41), (5, 42)];
    let (done, routes) = dymo(&rerr_in(msg_type::RERR, 2, 3, &listed));
    let expected = Breakage {
        rerrs: vec![(dymo_rerr(8, 2, &[(9, 40)]), None)],
        kernel: kernel(&[(7, 2, 1), (8, 3, 2)]),
        counters: [1, 1, 0],
    };
    assert_eq!(done, expected, "RERR through the sender");
    assert_eq!(routes, [(7, false, 5), (8, false, 11), (9, true, MAX)]);
    // With its budget spent it breaks the route but goes no further.
    let (done, _) = dymo(&rerr_in(msg_type::RERR, 2, 1, &listed));
    let expected = Breakage {
        rerrs: vec![],
        kernel: kernel(&[(7, 2, 1), (8, 3, 2)]),
        counters: [0, 1, 0],
    };
    assert_eq!(done, expected, "RERR at hop limit 1");
    let (done, routes) = dymo(&rerr_in(msg_type::RERR, 3, 3, &[(9, 40)]));
    let expected = Breakage {
        rerrs: vec![],
        kernel: all_live(),
        counters: [0, 1, 0],
    };
    assert_eq!(done, expected, "RERR not through the sender");
    assert_eq!(routes, [(7, false, 5), (8, false, 11), (9, false, MAX)]);
    // Another protocol's RERR is not DYMO's.
    let (done, _) = dymo(&rerr_in(msg_type::AODV_RERR, 2, 3, &listed));
    assert_eq!(done.counters, [0, 0, 0], "AODV's RERR");
}

/// The precursors the AODV cases give routes 7, 8 and 9; `None` leaves
/// them unknown, as an adopted route's are.
type Precursors = [Option<&'static [u8]>; 3];

fn aodv(precursors: Precursors, stimulus: &Event) -> (Breakage, Vec<(u8, bool, Option<u16>)>) {
    let cf = manetkit_aodv::aodv_cf(Default::default());
    let prepare = |s: &mut AodvState| {
        for (dst, known) in [7, 8, 9].into_iter().zip(precursors) {
            let route = s.routes.get_mut(&addr(dst)).expect("adopted");
            if let Some(known) = known {
                route.precursors_unknown = false;
                route.precursors = known.iter().map(|&p| addr(p)).collect();
            }
        }
    };
    let (done, cf) = breakage::<AodvState>(cf, prepare, stimulus);
    (done, aodv_routes(cf.state().get::<AodvState>()))
}

#[test]
fn aodv_tells_its_precursors_with_incremented_sequence_numbers() {
    let none: Precursors = [Some(&[]), Some(&[]), Some(&[])];
    let one: Precursors = [Some(&[4]), Some(&[6]), Some(&[4])];
    let several: Precursors = [Some(&[4]), Some(&[6]), Some(&[5])];
    let unknown: Precursors = [None, None, Some(&[4])];
    let broken_via_2 = [(7, true, Some(6)), (8, false, Some(11)), (9, true, Some(0))];

    // A failed unicast to neighbour 2 breaks 7 and 9 under seq + 1
    // (wrapping) and tells nobody, the one precursor, or everyone.
    let cases = [
        (none, vec![]),
        (one, vec![(aodv_rerr(8, &[(7, 6), (9, 0)]), Some(addr(4)))]),
        (several, vec![(aodv_rerr(8, &[(7, 6), (9, 0)]), None)]),
        (unknown, vec![(aodv_rerr(8, &[(7, 6), (9, 0)]), None)]),
    ];
    for (precursors, rerrs) in cases {
        let (done, routes) = aodv(precursors, &tx_failed(2));
        let sent = rerrs.len() as u64;
        let expected = Breakage {
            rerrs,
            kernel: kernel(&[(8, 3, 2)]),
            counters: [sent, 0, 0],
        };
        assert_eq!(done, expected, "tx failed, precursors {precursors:?}");
        assert_eq!(routes, broken_via_2, "{precursors:?}");
    }

    // A link loss: one RERR per lost neighbour.
    let (done, routes) = aodv(one, &link_loss(&[2, 3]));
    let rerrs = vec![
        (aodv_rerr(8, &[(7, 6), (9, 0)]), Some(addr(4))),
        (aodv_rerr(9, &[(8, 12)]), Some(addr(6))),
    ];
    let expected = Breakage {
        rerrs,
        kernel: kernel(&[]),
        counters: [2, 0, 0],
    };
    assert_eq!(done, expected, "link loss");
    assert_eq!(
        routes,
        [(7, true, Some(6)), (8, true, Some(12)), (9, true, Some(0))]
    );

    // A forwarding failure breaks a live route under seq + 1; without a
    // route there is nothing to report.
    let (done, routes) = aodv(one, &forward_failure(7));
    let expected = Breakage {
        rerrs: vec![(aodv_rerr(8, &[(7, 6)]), Some(addr(4)))],
        kernel: kernel(&[(8, 3, 2), (9, 2, 3)]),
        counters: [1, 0, 0],
    };
    assert_eq!(done, expected, "forwarding failure");
    assert_eq!(
        routes,
        [
            (7, true, Some(6)),
            (8, false, Some(11)),
            (9, false, Some(MAX))
        ]
    );
    let (done, _) = aodv(unknown, &forward_failure(5));
    let expected = Breakage {
        rerrs: vec![],
        kernel: all_live(),
        counters: [0, 0, 0],
    };
    assert_eq!(done, expected, "forwarding failure, no route");

    // An incoming RERR breaks the listed routes through its sender under
    // the listed numbers and goes on to their precursors, whatever its
    // hop limit.
    let listed = [(9, 40), (8, 41), (5, 42)];
    let (done, routes) = aodv(several, &rerr_in(msg_type::AODV_RERR, 2, 1, &listed));
    let expected = Breakage {
        rerrs: vec![(aodv_rerr(8, &[(9, 40)]), Some(addr(5)))],
        kernel: kernel(&[(7, 2, 1), (8, 3, 2)]),
        counters: [1, 1, 0],
    };
    assert_eq!(done, expected, "RERR through the sender");
    assert_eq!(
        routes,
        [
            (7, false, Some(5)),
            (8, false, Some(11)),
            (9, true, Some(40))
        ]
    );
    let (done, routes) = aodv(several, &rerr_in(msg_type::AODV_RERR, 3, 1, &[(9, 40)]));
    let expected = Breakage {
        rerrs: vec![],
        kernel: all_live(),
        counters: [0, 1, 0],
    };
    assert_eq!(done, expected, "RERR not through the sender");
    assert_eq!(
        routes,
        [
            (7, false, Some(5)),
            (8, false, Some(11)),
            (9, false, Some(MAX))
        ]
    );
    let (done, _) = aodv(several, &rerr_in(msg_type::RERR, 2, 1, &listed));
    assert_eq!(done.counters, [0, 0, 0], "DYMO's RERR");
}

/// The standard DYMO CF turned multipath by the variant's own recipe, as a
/// standalone CF.
fn multipath_cf() -> ManetProtocolCf {
    let mut dep = Deployment::new(ConcurrencyModel::SingleThreaded);
    manetkit_dymo::deploy_core(&mut dep, Default::default()).expect("fresh deployment");
    let mut os = NodeOs::standalone(NodeId(0), addr(1));
    for op in multipath::enable_ops() {
        dep.apply(op, &mut os).expect("the recipe applies");
    }
    let cf = dep.remove_protocol(manetkit_dymo::DYMO_CF, &mut os);
    cf.expect("deployed")
}

/// Runs `stimulus` on a multipath CF; with `Some(seq)`, route 9 has an
/// alternative path via neighbour 3 (2 hops, learned under `seq`, live
/// until 5 s).
fn multipath(alternative: Option<u16>, stimulus: &Event) -> (Breakage, Vec<(u8, bool, u16)>, u8) {
    let prepare = |s: &mut MultipathState| {
        if let Some(seq) = alternative {
            let alt = AltPath {
                next_hop: addr(3),
                hop_count: 2,
                seq,
                expiry: at(5_000),
            };
            assert!(s.offer_alternative(addr(9), alt));
        }
    };
    let (done, cf) = breakage::<MultipathState>(multipath_cf(), prepare, stimulus);
    let s = cf.state().get::<MultipathState>();
    let next_hop_9 = s.base.routes[&addr(9)].next_hop.octets()[3];
    (done, dymo_routes(&s.base), next_hop_9)
}

#[test]
fn multipath_fails_over_before_it_reports() {
    let names = multipath_cf().plugin_names();
    assert!(
        names.contains(&"multipath-rerr-handler".to_string()),
        "{names:?}"
    );
    assert!(!names.contains(&"rerr-handler".to_string()), "{names:?}");

    // A link loss: route 9 fails over to its alternative, route 7 has none
    // and is reported as DYMO reports it.
    let (done, routes, via) = multipath(Some(6), &link_loss(&[2]));
    let expected = Breakage {
        rerrs: vec![(dymo_rerr(8, 2, &[(7, 5)]), None)],
        kernel: kernel(&[(8, 3, 2), (9, 3, 2)]),
        counters: [1, 0, 1],
    };
    assert_eq!(done, expected, "link loss");
    // The alternative's seq 6 follows the broken route's 65,535 in the
    // wraparound order, so the failed-over route carries 6.
    assert_eq!(routes, [(7, true, 5), (8, false, 11), (9, false, 6)]);
    assert_eq!(via, 3, "route 9 now runs via the alternative");

    // Without an alternative, exactly DYMO.
    let (done, routes, _) = multipath(None, &tx_failed(2));
    let expected = Breakage {
        rerrs: vec![(dymo_rerr(8, 2, &[(7, 5), (9, MAX)]), None)],
        kernel: kernel(&[(8, 3, 2)]),
        counters: [1, 0, 0],
    };
    assert_eq!(done, expected, "tx failed, no alternative");
    assert_eq!(routes, [(7, true, 5), (8, false, 11), (9, true, MAX)]);

    // A forwarding failure, with and without an alternative.
    let (done, routes, via) = multipath(Some(6), &forward_failure(9));
    let expected = Breakage {
        rerrs: vec![],
        kernel: kernel(&[(7, 2, 1), (8, 3, 2), (9, 3, 2)]),
        counters: [0, 0, 1],
    };
    assert_eq!(done, expected, "forwarding failure, alternative");
    assert_eq!((routes[2], via), ((9, false, 6), 3));
    let (done, routes, _) = multipath(None, &forward_failure(9));
    let expected = Breakage {
        rerrs: vec![(dymo_rerr(8, 2, &[(9, MAX)]), None)],
        kernel: kernel(&[(7, 2, 1), (8, 3, 2)]),
        counters: [1, 0, 0],
    };
    assert_eq!(done, expected, "forwarding failure, no alternative");
    assert_eq!(routes[2], (9, true, MAX));
}

#[test]
fn multipath_failover_keeps_the_newer_seq_in_wraparound_order() {
    // Route 9 breaks under 65,535. An alternative learned under 6 is newer
    // (RFC 3561 §6.1: 6 follows 65,535 across the wrap); one learned under
    // 40,000 is older, and the route keeps 65,535.
    for (alt_seq, kept) in [(6, 6), (40_000, MAX), (MAX, MAX)] {
        let (_, routes, via) = multipath(Some(alt_seq), &link_loss(&[2]));
        assert_eq!(
            (routes[2], via),
            ((9, false, kept), 3),
            "alternative {alt_seq}"
        );
    }
}

#[test]
fn multipath_relays_a_rerr_with_one_hop_less_and_counts_it() {
    let listed = [(9, 40), (8, 41)];
    let (done, routes, _) = multipath(None, &rerr_in(msg_type::RERR, 2, 2, &listed));
    let expected = Breakage {
        rerrs: vec![(dymo_rerr(8, 1, &[(9, 40)]), None)],
        kernel: kernel(&[(7, 2, 1), (8, 3, 2)]),
        counters: [1, 1, 0],
    };
    assert_eq!(done, expected, "RERR through the sender, no alternative");
    assert_eq!(routes, [(7, false, 5), (8, false, 11), (9, true, MAX)]);

    let (done, routes, via) = multipath(Some(6), &rerr_in(msg_type::RERR, 2, 2, &listed));
    let expected = Breakage {
        rerrs: vec![],
        kernel: kernel(&[(7, 2, 1), (8, 3, 2), (9, 3, 2)]),
        counters: [0, 1, 1],
    };
    assert_eq!(done, expected, "RERR through the sender, alternative");
    assert_eq!(
        (routes[2], via),
        ((9, false, 40), 3),
        "the listed seq is newer"
    );

    let (done, _, _) = multipath(Some(6), &rerr_in(msg_type::RERR, 3, 2, &[(9, 40)]));
    let expected = Breakage {
        rerrs: vec![],
        kernel: all_live(),
        counters: [0, 1, 0],
    };
    assert_eq!(done, expected, "RERR not through the sender");
}
