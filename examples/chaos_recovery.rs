//! Chaos engineering meets runtime reconfiguration: an OLSR fleet is hit
//! by a scheduled partition *and* a node crash, the operator hot-switches
//! the whole fleet to reactive DYMO mid-outage through the
//! [`FleetCoordinator`], and delivery recovers once the network heals.
//!
//! The crashed node cannot apply the switch while down — the best-effort
//! strategy reports it *deferred*, and the queued operations apply
//! automatically at its first post-reboot quiescent point.
//!
//! ```text
//! cargo run --example chaos_recovery
//! ```

use manetkit_repro::adapt::{install_fleet, Stack};
use manetkit_repro::manetkit::{ReconfigRequest, Strategy};
use manetkit_repro::netsim::fault::FaultPlan;
use manetkit_repro::prelude::*;

const NODES: usize = 6;

fn secs(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(n)
}

fn main() {
    // The fault script: the line splits 012|345 at 40 s (healing at 70 s),
    // and the far node crashes at 45 s, rebooting cold at 75 s.
    let plan = FaultPlan::builder(1)
        .partition(
            secs(40),
            secs(70),
            "ridge",
            vec![
                (0..NODES / 2).map(NodeId).collect(),
                (NODES / 2..NODES).map(NodeId).collect(),
            ],
        )
        .crash_for(secs(45), NodeId(NODES - 1), SimDuration::from_secs(30))
        .build();

    let mut world = World::builder()
        .topology(Topology::line(NODES))
        .seed(3)
        .fault_plan(plan)
        .build();
    let fleet = install_fleet(&mut world, Stack::Olsr);

    // CBR traffic node 0 → node 5 for the whole exercise.
    let dst = world.addr(NodeId(NODES - 1));
    let mut t = secs(30) + SimDuration::from_millis(250);
    while t < secs(110) {
        world.send_datagram_at(t, NodeId(0), dst, b"cbr".to_vec());
        t += SimDuration::from_millis(500);
    }

    // Healthy OLSR baseline.
    world.run_until(secs(30));
    let mut window = world.stats_window();
    world.run_until(secs(40));
    let pre = window.advance(&world);
    println!(
        "phase 1 (OLSR, healthy):   delivery {:5.1}%",
        100.0 * pre.delivery_ratio()
    );

    // The partition lands at 40 s, the crash at 45 s. At 50 s the operator
    // reacts: switch the whole fleet to reactive DYMO, mid-outage.
    world.run_until(secs(50));
    assert_eq!(world.active_partitions(), vec!["ridge"]);
    assert!(!world.node_up(NodeId(NODES - 1)));
    let deferred = fleet
        .execute(
            &mut world,
            ReconfigRequest::new()
                .recipe(|| Stack::Olsr.recipe_to(Stack::Dymo))
                .strategy(Strategy::BestEffort),
        )
        .deferred;
    println!(
        "phase 2 (partition + crash): switching fleet to DYMO — deferred on {deferred:?}, \
         status: {}",
        fleet.status()
    );
    assert_eq!(
        deferred,
        vec![NodeId(NODES - 1)],
        "only the crashed node defers"
    );

    world.run_until(secs(70));
    let during = window.advance(&world);
    println!(
        "phase 2 (outage window):   delivery {:5.1}%",
        100.0 * during.delivery_ratio()
    );

    // Heal at 70 s, reboot at 75 s; the rebooted node drains the deferred
    // switch at its first quiescent point. Give DYMO a moment to discover.
    world.run_until(secs(80));
    let status = fleet.status();
    assert!(status.converged(), "fleet not converged: {status}");
    for (i, stack) in fleet.stacks().iter().enumerate() {
        assert!(
            stack.iter().any(|p| p == "dymo") && stack.iter().all(|p| p != "olsr"),
            "node {i} still runs {stack:?}"
        );
    }
    println!("phase 3 (healed + rebooted): fleet status: {status}, all nodes on DYMO");

    window.skip(&world);
    world.run_until(secs(111));
    let post = window.advance(&world);
    println!(
        "phase 3 (DYMO, recovered): delivery {:5.1}%",
        100.0 * post.delivery_ratio()
    );

    let stats = world.stats();
    assert_eq!(stats.partitions_started, 1);
    assert_eq!(stats.partitions_healed, 1);
    assert_eq!(stats.node_crashes, 1);
    assert_eq!(stats.node_reboots, 1);
    assert!(pre.delivery_ratio() > 0.9, "OLSR baseline must be healthy");
    assert!(
        during.delivery_ratio() < 0.5,
        "the outage must actually bite"
    );
    assert!(
        post.delivery_ratio() >= 0.9 * pre.delivery_ratio(),
        "post-heal delivery must recover to >= 0.9x the baseline"
    );
    println!("\nchaos recovery OK");
}
