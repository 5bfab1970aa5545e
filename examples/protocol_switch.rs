//! The paper's motivating scenario: switch the routing protocol at runtime
//! as operating conditions change.
//!
//! A small network starts under proactive OLSR (best for small, chatty
//! networks). The network then grows; reactive DYMO suits the larger
//! topology better, so every node's deployment is switched DYMO-ward *while
//! running*, through [`NodeHandle`]s, at each node's quiescent point — no
//! restart, traffic keeps flowing.
//!
//! ```text
//! cargo run --example protocol_switch
//! ```

use manetkit_repro::manetkit::{ReconfigOp, SystemConfig};
use manetkit_repro::prelude::*;

fn main() {
    // Start with 4 nodes in a line running OLSR.
    const SMALL: usize = 4;
    const FULL: usize = 10;
    let mut topo = Topology::empty(FULL);
    for i in 1..SMALL {
        topo.set_link(NodeId(i - 1), NodeId(i), LinkState::Up);
    }
    let mut world = World::builder().topology(topo).seed(3).build();

    let mut handles = Vec::new();
    for i in 0..FULL {
        let (node, handle) = manetkit_repro::manetkit_olsr::node(Default::default());
        world.install_agent(NodeId(i), Box::new(node));
        handles.push(handle);
    }
    world.run_for(SimDuration::from_secs(30));

    let far_small = world.addr(NodeId(SMALL - 1));
    world.send_datagram(NodeId(0), far_small, b"proactive".to_vec());
    world.run_for(SimDuration::from_secs(1));
    println!(
        "phase 1 (OLSR, {SMALL} nodes): delivered {} — protocols: {:?}",
        world.stats().data_delivered,
        handles[0].status().protocols
    );

    // The network grows: six more nodes extend the line.
    for i in SMALL..FULL {
        world.set_link(NodeId(i - 1), NodeId(i), LinkState::Up);
    }
    println!("\nnetwork grew to {FULL} nodes — switching every node to DYMO at runtime");

    // Runtime switch: retire OLSR + MPR, deploy the DYMO composition. The
    // handles enact the operations at each node's next quiescent point.
    for h in &handles {
        h.apply(ReconfigOp::RemoveProtocol {
            name: "olsr".into(),
        });
        h.apply(ReconfigOp::RemoveProtocol { name: "mpr".into() });
        h.apply(ReconfigOp::LoadSystem(SystemConfig {
            registrations: vec![manetkit_repro::manetkit::neighbour::hello_registration()],
            ..SystemConfig::default()
        }));
        h.apply(ReconfigOp::AddProtocol(
            manetkit_repro::manetkit::neighbour::neighbour_detection_cf(Default::default()),
        ));
        h.apply(ReconfigOp::AddProtocol(
            manetkit_repro::manetkit_dymo::dymo_cf(Default::default()),
        ));
    }
    // DYMO needs its message registrations and the NetLink plug-in, which
    // `dymo_cf` assumes; load them into the System CF at runtime too.
    for h in &handles {
        h.apply(ReconfigOp::LoadSystem(
            manetkit_repro::manetkit_dymo::system_config(),
        ));
    }
    world.run_for(SimDuration::from_secs(5));

    for (i, h) in handles.iter().enumerate() {
        let st = h.status();
        assert!(st.last_error.is_none(), "node {i}: {:?}", st.last_error);
    }
    println!(
        "protocols after switch: {:?}",
        handles[0].status().protocols
    );

    // Reactive routing across the grown network.
    let far = world.addr(NodeId(FULL - 1));
    world.send_datagram(NodeId(0), far, b"reactive".to_vec());
    world.run_for(SimDuration::from_secs(5));
    let stats = world.stats();
    println!(
        "phase 2 (DYMO, {FULL} nodes): delivered {} / {} — discoveries: {}",
        stats.data_delivered,
        stats.data_sent,
        stats.agent_counter("route_discovery")
    );
    assert_eq!(stats.data_delivered, 2, "both phases delivered");
    assert!(stats.agent_counter("route_discovery") >= 1);
    println!("\nprotocol switch OK");
}
