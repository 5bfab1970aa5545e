//! Reusable evaluation scenarios: the paper's 5-node linear testbed and the
//! route-establishment measurements of Table 1.

use netsim::{LinkState, NodeId, SimDuration, SimTime, Topology, World};

pub use campaign::AgentFactory;

/// Result of a route-establishment measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteEstablishment {
    /// Simulated time from trigger to established route.
    pub delay: netsim::SimDuration,
    /// Whether the route actually appeared within the deadline.
    pub established: bool,
}

fn step_until(world: &mut World, deadline: SimTime, mut done: impl FnMut(&World) -> bool) -> bool {
    while world.now() < deadline {
        if done(world) {
            return true;
        }
        world.run_for(SimDuration::from_millis(5));
    }
    done(world)
}

/// OLSR route establishment on the paper's 5-node line: nodes 0–3 run and
/// converge; node 4 then comes into range of node 3, and we measure the
/// simulated time until node 4 holds a fully-populated routing table
/// (routes to all four peers).
#[must_use]
pub fn olsr_route_establishment(make: &AgentFactory, seed: u64) -> RouteEstablishment {
    let mut topo = Topology::line(5);
    topo.set_link(NodeId(3), NodeId(4), LinkState::Down);
    let mut world = World::builder().topology(topo).seed(seed).build();
    for i in 0..5 {
        world.install_agent(NodeId(i), make());
    }
    // Converge the existing 4-node network.
    world.run_for(SimDuration::from_secs(60));
    // Node 4 arrives.
    world.set_link(NodeId(3), NodeId(4), LinkState::Up);
    let t0 = world.now();
    let peer_addrs: Vec<_> = (0..4).map(|i| world.addr(NodeId(i))).collect();
    let deadline = t0 + SimDuration::from_secs(60);
    let established = step_until(&mut world, deadline, |w| {
        peer_addrs
            .iter()
            .all(|a| w.os(NodeId(4)).route_table().lookup(*a).is_some())
    });
    RouteEstablishment {
        delay: world.now() - t0,
        established,
    }
}

/// DYMO route establishment on the 5-node line: after neighbourhood
/// warm-up, node 0 sends to node 4 and we measure the simulated time until
/// node 0 holds a route to node 4 (the route discovery round trip).
#[must_use]
pub fn dymo_route_establishment(make: &AgentFactory, seed: u64) -> RouteEstablishment {
    let mut world = World::builder()
        .topology(Topology::line(5))
        .seed(seed)
        .build();
    for i in 0..5 {
        world.install_agent(NodeId(i), make());
    }
    world.run_for(SimDuration::from_secs(5));
    let far = world.addr(NodeId(4));
    let t0 = world.now();
    world.send_datagram(NodeId(0), far, b"probe".to_vec());
    let deadline = t0 + SimDuration::from_secs(30);
    let established = step_until(&mut world, deadline, |w| {
        w.os(NodeId(0)).route_table().lookup(far).is_some()
    });
    RouteEstablishment {
        delay: world.now() - t0,
        established,
    }
}

/// Mean of several seeded runs of a measurement.
#[must_use]
pub fn mean_delay(
    runs: u64,
    measure: impl Fn(u64) -> RouteEstablishment,
) -> (netsim::SimDuration, bool) {
    let mut total = 0u64;
    let mut all_ok = true;
    for seed in 0..runs {
        let r = measure(seed + 1);
        total += r.delay.as_micros();
        all_ok &= r.established;
    }
    (
        netsim::SimDuration::from_micros(total / runs.max(1)),
        all_ok,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use campaign::Protocol;

    #[test]
    fn olsr_establishment_measures_both_implementations() {
        let mkit = olsr_route_establishment(&Protocol::MkitOlsr.factory(), 1);
        assert!(mkit.established, "MKit-OLSR must converge: {mkit:?}");
        let mono = olsr_route_establishment(&Protocol::Olsrd.factory(), 1);
        assert!(mono.established, "olsrd must converge: {mono:?}");
        // Both are interval-dominated: hundreds of milliseconds to seconds.
        for r in [mkit, mono] {
            assert!(r.delay >= SimDuration::from_millis(100), "{r:?}");
            assert!(r.delay <= SimDuration::from_secs(30), "{r:?}");
        }
    }

    #[test]
    fn dymo_establishment_is_rtt_dominated() {
        let mkit = dymo_route_establishment(&Protocol::MkitDymo.factory(), 1);
        assert!(mkit.established, "{mkit:?}");
        let mono = dymo_route_establishment(&Protocol::Dymoum.factory(), 1);
        assert!(mono.established, "{mono:?}");
        // Discovery is a flood round trip: tens of ms, far below OLSR's
        // interval-bound convergence.
        for r in [mkit, mono] {
            assert!(r.delay <= SimDuration::from_millis(500), "{r:?}");
        }
    }
}
