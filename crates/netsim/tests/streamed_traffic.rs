//! Streamed CBR flows against the bulk schedule they replace.
//!
//! [`install_cbr`] keeps one event per flow in the kernel and takes a seq
//! and a packet id per datagram at install. The oracle, `bulk`, is the
//! loop it replaced: one [`World::send_datagram_at`] per datagram, all at
//! install. The two must be the same run: the same statistics, the same
//! flight-recorder trace (packet ids included), the same datagrams seen by
//! the sources' agents, and the same `pending_events` throughout.
//!
//! The flows are laid out so that order matters. Several start on the same
//! microsecond; flows with different intervals meet on common instants,
//! where the one installed first must go first although the other
//! scheduled its datagram later; one flow is installed mid-run with sends
//! already in the past; one payload is shorter than its four-byte stamp.
//! In the city, the flows are installed before the walk and send on the
//! whole seconds it steps on, so each send must precede the step there.

use netsim::mobility::{random_waypoint_field, RandomWaypoint, Walk};
use netsim::traffic::{install_cbr, CbrFlow};
use netsim::{
    DataPacket, FilterEvent, LinkModel, NodeId, NodeOs, PendingClass, RoutingAgent, SimDuration,
    SimTime, Topology, World,
};
use packetbb::Address;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

/// The loop `install_cbr` replaced: every datagram scheduled now.
fn bulk(world: &mut World, flow: &CbrFlow) {
    let mut at = flow.start;
    for i in 0..flow.count {
        let mut payload = vec![0u8; flow.payload];
        payload[..4.min(flow.payload)].copy_from_slice(&i.to_be_bytes()[..4.min(flow.payload)]);
        world.send_datagram_at(at, flow.src, flow.dst, payload);
        at += flow.interval;
    }
}

/// Logs every datagram its node originates: when, its id and payload.
#[derive(Clone, Default)]
struct Sources(Vec<(SimTime, u64, Vec<u8>)>);

impl RoutingAgent for Sources {
    fn name(&self) -> &str {
        "sources"
    }
    fn start(&mut self, _: &mut NodeOs) {}
    fn on_frame(&mut self, _: &mut NodeOs, _: Address, _: &[u8]) {}
    fn on_timer(&mut self, _: &mut NodeOs, _: u64) {}
    fn on_filter_event(&mut self, _: &mut NodeOs, _: FilterEvent) {}
    fn inspect_packet(&mut self, os: &mut NodeOs, packet: &DataPacket) -> bool {
        self.0.push((os.now(), packet.id, packet.payload.clone()));
        true
    }
    fn fork(&self) -> Option<Box<dyn RoutingAgent>> {
        Some(Box::new(self.clone()))
    }
}

/// A run to compare: its world and how to install its traffic.
struct Scenario {
    /// A fresh world with the agents and (for the city) the walk.
    world: fn(bool) -> World,
    /// Flows installed at build time, in order.
    flows: Vec<CbrFlow>,
    /// A flow installed when the clock reads `late.0`.
    late: (SimTime, CbrFlow),
    /// Instants at which the two worlds' pending counts are compared; the
    /// fork is taken at the second.
    checks: [SimTime; 3],
    end: SimTime,
}

fn flow(world: &World, src: usize, dst: usize, start: SimTime, interval_ms: u64) -> CbrFlow {
    CbrFlow {
        src: NodeId(src),
        dst: world.addr(NodeId(dst)),
        start,
        interval: SimDuration::from_millis(interval_ms),
        count: 40,
        payload: 24,
    }
}

fn lossy(builder: netsim::WorldBuilder) -> netsim::WorldBuilder {
    let builder = builder.seed(11).geo_routing(true).link_model(LinkModel {
        loss: 0.05,
        ..LinkModel::default()
    });
    #[cfg(feature = "trace")]
    let builder = builder.trace(1 << 14);
    builder
}

fn with_agents(mut world: World) -> World {
    for node in world.node_ids().collect::<Vec<_>>() {
        world.install_agent(node, Box::<Sources>::default());
    }
    world
}

/// A 7×7 static grid, four neighbours each.
fn grid_world(controlled: bool) -> World {
    let positions = (0..49)
        .map(|i| (0.1 + 0.1 * (i % 7) as f64, 0.1 + 0.1 * (i / 7) as f64))
        .collect();
    let builder = lossy(World::builder().topology(Topology::spatial(positions, 0.12)));
    let builder = if controlled {
        builder.controlled()
    } else {
        builder
    };
    with_agents(builder.build())
}

fn grid() -> Scenario {
    let w = grid_world(false);
    let mut short = flow(&w, 48, 0, ms(5), 30);
    short.payload = 3;
    Scenario {
        // Flows 0 and 1 start on the same microsecond; 2 (every 20 ms)
        // meets 3 (every 100 ms) every 100 ms, and 3 schedules its
        // datagram there long before 2 does.
        flows: vec![
            flow(&w, 0, 48, ms(10), 50),
            flow(&w, 6, 42, ms(10), 50),
            flow(&w, 3, 45, ms(0), 20),
            flow(&w, 45, 3, ms(0), 100),
            short,
        ],
        late: (ms(1_200), flow(&w, 21, 27, ms(1_000), 20)),
        checks: [ms(600), ms(1_500), ms(2_500)],
        end: ms(6_000),
        world: grid_world,
    }
}

fn walk() -> RandomWaypoint {
    RandomWaypoint {
        nodes: 60,
        radius: 0.25,
        speed: 0.05,
        step: SimDuration::from_secs(1),
        duration: SimDuration::from_secs(8),
        pause: SimDuration::from_secs(1),
        seed: 9,
    }
}

/// A small random-waypoint city, its walk streamed.
fn city_world(controlled: bool) -> World {
    let builder = lossy(World::builder().topology(random_waypoint_field(walk()).initial));
    let builder = if controlled {
        builder.controlled()
    } else {
        builder
    };
    with_agents(builder.build())
}

fn city() -> Scenario {
    let w = city_world(false);
    // Every flow sends on the whole seconds; three share each phase.
    let flows = (0..9)
        .map(|f| flow(&w, f * 6, 59 - f * 5, ms(500 * (f as u64 % 3)), 250))
        .collect();
    Scenario {
        flows,
        late: (ms(3_300), flow(&w, 7, 51, ms(3_000), 125)),
        checks: [ms(1_000), ms(2_000), ms(4_000)],
        end: ms(12_000),
        world: city_world,
    }
}

/// Builds the scenario's world with its flows installed by `install`, and
/// the walk after them in the city.
fn build(s: &Scenario, install: fn(&mut World, &CbrFlow), walks: bool) -> World {
    let mut w = (s.world)(false);
    for flow in &s.flows {
        install(&mut w, flow);
    }
    if walks {
        w.install_walk(Walk::new(walk()));
    }
    w
}

/// Runs `w` from where it is to `t`, installing the late flow on the way.
fn run_to(w: &mut World, s: &Scenario, install: fn(&mut World, &CbrFlow), t: SimTime) {
    let (late_at, late) = &s.late;
    if w.now() < *late_at && *late_at <= t {
        w.run_until(*late_at);
        install(w, late);
    }
    w.run_until(t);
}

/// What the sources saw, node by node.
fn sources(w: &World) -> Vec<Vec<(SimTime, u64, Vec<u8>)>> {
    w.node_ids()
        .map(|n| w.agent::<Sources>(n).expect("every node logs").0.clone())
        .collect()
}

/// The two worlds are the same run so far.
fn assert_same(a: &World, b: &World) {
    assert_eq!(a.stats().first_difference(&b.stats()), None);
    assert_eq!(sources(a), sources(b));
    #[cfg(feature = "trace")]
    {
        assert_eq!(a.trace_dropped(), 0, "the rings held the whole run");
        assert_eq!(a.trace_jsonl(), b.trace_jsonl());
    }
}

fn streamed_is_bulk(s: &Scenario, walks: bool) {
    let mut streamed = build(s, install_cbr, walks);
    let mut scheduled = build(s, bulk, walks);
    assert_eq!(streamed.pending_events(), scheduled.pending_events());
    let mut fork = None;
    for (i, &t) in s.checks.iter().enumerate() {
        run_to(&mut streamed, s, install_cbr, t);
        run_to(&mut scheduled, s, bulk, t);
        assert_eq!(streamed.pending_events(), scheduled.pending_events(), "{t}");
        assert!(streamed.pending_events() > 0, "mid-stream at {t}");
        assert_same(&streamed, &scheduled);
        if i == 1 {
            fork = Some(streamed.fork().expect("the sources fork"));
        }
    }
    let mut fork = fork.expect("forked");
    run_to(&mut streamed, s, install_cbr, s.end);
    run_to(&mut scheduled, s, bulk, s.end);
    run_to(&mut fork, s, install_cbr, s.end);
    for w in [&streamed, &scheduled, &fork] {
        assert_eq!(w.pending_events(), 0);
    }
    let stats = streamed.stats();
    assert!(
        stats.data_delivered > 0 && stats.data_dropped_link > 0,
        "{stats:?}"
    );
    let sent = 40 * (s.flows.len() + 1) as u64;
    assert_eq!(stats.data_sent, sent);
    assert_same(&streamed, &scheduled);
    assert_same(&fork, &streamed);
}

#[test]
fn streamed_flows_on_a_static_grid_are_their_bulk_schedule() {
    streamed_is_bulk(&grid(), false);
}

#[test]
fn streamed_flows_in_a_walking_city_are_their_bulk_schedule() {
    streamed_is_bulk(&city(), true);
}

#[test]
fn a_controlled_world_lists_each_streams_event_once() {
    let s = grid();
    let mut streamed = (s.world)(true);
    let mut scheduled = (s.world)(true);
    for flow in &s.flows {
        install_cbr(&mut streamed, flow);
        bulk(&mut scheduled, flow);
    }
    // Deliver the agents' starts; the datagrams are what is left.
    let infra = |w: &World, node: NodeId| {
        w.pending_controlled()
            .iter()
            .filter(|e| e.class == PendingClass::Infra && e.node == node)
            .map(|e| e.at)
            .collect::<Vec<_>>()
    };
    for flow in &s.flows {
        let started = infra(&streamed, flow.src);
        assert_eq!(started.len(), 2, "the agent's start and the stream's");
        assert_eq!(started[1], flow.start);
        assert_eq!(infra(&scheduled, flow.src).len(), 1 + flow.count as usize);
    }
    // Infrastructure runs in one order: every datagram enters the network,
    // one at a time for the streams.
    let fired = streamed.run_controlled_infra();
    assert_eq!(fired, scheduled.run_controlled_infra());
    assert_eq!(fired, 49 + 40 * s.flows.len());
    // The same events wait, under other handles.
    let waiting = |w: &World| {
        w.pending_controlled()
            .iter()
            .map(|e| (e.at, e.class, e.node, e.from, e.detail, e.live))
            .collect::<Vec<_>>()
    };
    assert_eq!(waiting(&streamed), waiting(&scheduled));
    assert_eq!(streamed.pending_events(), scheduled.pending_events());
    assert_same(&streamed, &scheduled);
}
