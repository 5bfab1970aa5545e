//! The streamed random-waypoint walk against its precomputed oracle.
//!
//! [`World::install_walk`] keeps one event in the kernel: each step moves
//! the nodes and schedules the next under a seq reserved at install.
//! `pending_events` counts the steps left, reserved or scheduled.
//! `random_waypoint_field(..).schedule_into` schedules every move of the
//! same walk up front. The two must be the same run. The traffic here
//! injects on whole seconds, the instants the walk steps, so every step
//! ties with injections scheduled after the walk was installed. The step
//! must fire first, as its moves would have, or the first hop of those
//! datagrams sees other positions and the run changes.
//!
//! The world remembers each greedy next hop only until the topology
//! changes; the last test moves a node between two datagrams of one flow
//! and checks that the second takes the new next hop.

use std::sync::{Arc, Mutex};

use netsim::mobility::{random_waypoint_field, RandomWaypoint, Walk};
use netsim::{FilterEvent, NodeId, NodeOs, RoutingAgent, SimDuration, SimTime, Topology, World};
use packetbb::Address;

const SECS: u64 = 12;

/// A small paused city: fast enough that greedy next hops change from
/// second to second, with rests so the walk's holds are exercised.
fn city() -> RandomWaypoint {
    RandomWaypoint {
        nodes: 80,
        radius: 0.2,
        speed: 0.04,
        step: SimDuration::from_secs(1),
        duration: SimDuration::from_secs(SECS),
        pause: SimDuration::from_secs(2),
        seed: 5,
    }
}

fn world(params: RandomWaypoint) -> World {
    let builder = World::builder()
        .topology(random_waypoint_field(params).initial)
        .seed(3)
        .geo_routing(true);
    #[cfg(feature = "trace")]
    let builder = builder.trace(1 << 12);
    builder.build()
}

/// Twelve flows, each sending on every whole second of the walk.
fn install_traffic(world: &mut World) {
    for f in 0..12 {
        let (src, dst) = (NodeId(f * 6), NodeId(79 - f * 5));
        let dst = world.addr(dst);
        for s in 1..=SECS {
            world.send_datagram_at(
                SimTime::ZERO + SimDuration::from_secs(s),
                src,
                dst,
                vec![0; 32],
            );
        }
    }
}

#[test]
fn a_streamed_walk_is_its_precomputed_schedule() {
    let params = city();
    let mut streamed = world(params);
    streamed.install_walk(Walk::new(params));
    assert_eq!(streamed.pending_events() as u64, SECS, "steps left");

    let mut scheduled = world(params);
    let moves = random_waypoint_field(params);
    moves.schedule_into(&mut scheduled);
    assert_eq!(scheduled.pending_events(), moves.len());

    let end = SimTime::ZERO + SimDuration::from_secs(SECS + 1);
    for w in [&mut streamed, &mut scheduled] {
        install_traffic(w);
        w.run_until(end);
        assert_eq!(w.pending_events(), 0);
    }
    let (a, b) = (streamed.stats(), scheduled.stats());
    assert!(a.data_delivered > 0 && a.data_dropped_link > 0, "{a:?}");
    assert_eq!(a.first_difference(&b), None);
    for node in streamed.node_ids() {
        assert_eq!(
            streamed.topology().position(node),
            scheduled.topology().position(node)
        );
    }
    #[cfg(feature = "trace")]
    {
        assert_eq!(streamed.trace_dropped(), 0, "the rings held the whole run");
        assert_eq!(streamed.trace_jsonl(), scheduled.trace_jsonl());
    }
}

#[test]
fn a_walk_counts_its_steps_left_until_its_last_step() {
    let params = city();
    let mut w = world(params);
    w.install_walk(Walk::new(params));
    w.run_until(SimTime::ZERO + SimDuration::from_millis(4_500));
    assert_eq!(w.pending_events() as u64, SECS - 4, "steps left");
    w.run_until(SimTime::ZERO + SimDuration::from_secs(SECS));
    assert_eq!(w.pending_events(), 0, "the last step schedules nothing");
}

/// Records the next hop of every datagram its node forwards.
struct HopLog(Arc<Mutex<Vec<Address>>>);

impl RoutingAgent for HopLog {
    fn name(&self) -> &str {
        "hop-log"
    }
    fn start(&mut self, _: &mut NodeOs) {}
    fn on_frame(&mut self, _: &mut NodeOs, _: Address, _: &[u8]) {}
    fn on_timer(&mut self, _: &mut NodeOs, _: u64) {}
    fn on_filter_event(&mut self, _: &mut NodeOs, event: FilterEvent) {
        if let FilterEvent::RouteUsed { next_hop, .. } = event {
            self.0.lock().unwrap().push(next_hop);
        }
    }
}

#[test]
fn a_move_between_two_datagrams_reroutes_the_second() {
    // The source `s` reaches `a` and `b` but not the destination `d`; `a`
    // is nearer `d`. Then `a` steps aside, still in range of `s` but no
    // longer nearer `d` than `s` is.
    let (s, a, b, d) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    let topo = Topology::spatial(vec![(0.1, 0.5), (0.35, 0.5), (0.3, 0.6), (0.9, 0.5)], 0.3);
    let builder = World::builder().topology(topo).seed(3).geo_routing(true);
    #[cfg(feature = "trace")]
    let builder = builder.trace(1 << 8);
    let mut w = builder.build();
    let hops = Arc::new(Mutex::new(Vec::new()));
    w.install_agent(s, Box::new(HopLog(Arc::clone(&hops))));

    let at = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
    let dst = w.addr(d);
    w.send_datagram_at(at(1), s, dst, vec![0; 32]);
    w.schedule_node_move(at(2), a, 0.1, 0.25);
    w.send_datagram_at(at(3), s, dst, vec![0; 32]);

    w.run_until(at(1));
    assert_eq!(w.topology().geo_next_hop(s, d), Some(a));
    w.run_until(at(4));
    assert_eq!(
        w.topology().geo_next_hop(s, d),
        Some(b),
        "the move changes the greedy next hop"
    );
    assert!(
        w.topology().link_up(s, a),
        "the old next hop is still a neighbour"
    );
    assert_eq!(*hops.lock().unwrap(), [w.addr(a), w.addr(b)]);
    #[cfg(feature = "trace")]
    {
        let first_hops: Vec<u64> = w
            .trace()
            .records()
            .iter()
            .filter(|r| r.node == s.0 as u32 && r.kind == netsim::trace::TraceKind::DataHop)
            .map(|r| r.a)
            .collect();
        assert_eq!(first_hops, [a.0 as u64, b.0 as u64]);
    }
}
