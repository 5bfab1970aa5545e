//! The streamed random-waypoint walk against its precomputed oracle.
//!
//! [`World::install_walk`] keeps one event pending: each step moves the
//! nodes and schedules the next under a seq reserved at install.
//! `random_waypoint_field(..).schedule_into` schedules every move of the
//! same walk up front. The two must be the same run. The traffic here
//! injects on whole seconds, the instants the walk steps, so every step
//! ties with injections scheduled after the walk was installed. The step
//! must fire first, as its moves would have, or the first hop of those
//! datagrams sees other positions and the run changes.

use netsim::mobility::{random_waypoint_field, RandomWaypoint, Walk};
use netsim::{NodeId, SimDuration, SimTime, World};

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
    assert_eq!(
        streamed.pending_events(),
        1,
        "a streamed walk holds one event"
    );

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
fn a_walk_keeps_one_event_pending_until_its_last_step() {
    let params = city();
    let mut w = world(params);
    w.install_walk(Walk::new(params));
    w.run_until(SimTime::ZERO + SimDuration::from_millis(4_500));
    assert_eq!(w.pending_events(), 1);
    w.run_until(SimTime::ZERO + SimDuration::from_secs(SECS));
    assert_eq!(w.pending_events(), 0, "the last step schedules nothing");
}
