//! The reactive core's behaviour, pinned once for both protocols that run
//! it. A discovery toward an unreachable destination floods RREQs spaced
//! `rreq_wait × 2^k` apart, gives up after `rreq_tries` of them and drops
//! the datagrams it buffered. Starting a routing CF mirrors its S
//! element's live routes into the kernel table, and stopping it withdraws
//! them while S stays as it was.

use manetkit::carry::{CarriedRoute, RouteCarry};
use manetkit::prelude::*;
use manetkit::reactive::{ReactiveParams, ReactiveTable};
use manetkit_aodv::{AodvDeployment, AodvParams, AodvState};
use manetkit_dymo::{DymoDeployment, DymoState};
use netsim::{KernelRouteTable, NodeId, NodeOs, SimDuration, SimTime, Topology, World};
use packetbb::Address;

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
