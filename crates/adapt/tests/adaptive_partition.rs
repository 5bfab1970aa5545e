//! End-to-end closed loop: a mid-run partition trips the
//! `partition-fallback` rule, the engine drives exactly one OLSR → DYMO
//! fleet transaction, the health gate does *not* revert it (the baseline
//! is measured under the same partition, so the provisional window shows
//! no regression), and after the heal the reactive stack re-discovers the
//! route on demand.

use adapt::{install_fleet, AdaptConfig, AdaptiveEngine, Stack};
use manetkit::TxnVerdict;
use netsim::fault::FaultPlan;
use netsim::{NodeId, SimDuration, SimTime, Topology, World};

fn secs(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(n)
}

fn run_world(
    seed: u64,
) -> (
    netsim::WorldStats,
    Vec<adapt::SwitchEvent>,
    Vec<Vec<String>>,
) {
    // 5-node line; the partition cuts {0,1,2} | {3,4} over virtual
    // 62 s → 92 s, wrecking the 0 → 4 flow while it lasts.
    let plan = FaultPlan::builder(0)
        .partition(
            secs(62),
            secs(92),
            "cut",
            vec![
                vec![NodeId(0), NodeId(1), NodeId(2)],
                vec![NodeId(3), NodeId(4)],
            ],
        )
        .build();
    let mut world = World::builder()
        .topology(Topology::line(5))
        .seed(seed)
        .fault_plan(plan)
        .build();
    let fleet = install_fleet(&mut world, Stack::Olsr);

    // Let OLSR converge end to end, then start the loop and the traffic.
    world.run_until(secs(40));
    let mut engine = AdaptiveEngine::new(&world, fleet, AdaptConfig::default());

    let far = world.addr(NodeId(4));
    let mut t = secs(40) + SimDuration::from_millis(125);
    while t < secs(200) {
        world.send_datagram_at(t, NodeId(0), far, vec![0u8; 64]);
        t += SimDuration::from_millis(250);
    }

    engine.run_until(&mut world, secs(200));
    let stacks = engine.fleet().stacks();
    (world.stats(), engine.log().to_vec(), stacks)
}

#[test]
fn partition_triggers_exactly_one_unreverted_olsr_to_dymo_switch() {
    let (stats, log, stacks) = run_world(77);

    assert_eq!(log.len(), 1, "exactly one switch: {log:?}");
    let ev = &log[0];
    assert_eq!(ev.rule, "partition-fallback");
    assert_eq!(ev.from, Stack::Olsr);
    assert_eq!(ev.to, Stack::Dymo);
    assert_eq!(ev.verdict, TxnVerdict::Committed, "{ev:?}");
    assert!(
        ev.at >= secs(62) && ev.at <= secs(70),
        "fired on the first window containing the partition: {:?}",
        ev.at
    );

    // The health gate measured its baseline under the same partition, so
    // the provisional window showed no regression and nothing reverted.
    assert_eq!(stats.agent_counter("adapt.reverts"), 0);
    assert_eq!(stats.agent_counter("adapt.switches"), 1);
    assert_eq!(stats.agent_counter("adapt.committed"), 1);
    assert_eq!(stats.agent_counter("txn.reverted"), 0);
    assert_eq!(stats.agent_counter("txn.prepared"), 5);
    assert_eq!(stats.agent_counter("txn.committed"), 5);

    // What the switch cost the network in its provisional window is in the
    // log and, through the `adapt.disruption.*` counters, in the stats.
    let seen = ev.disruption.expect("the gate ran its window");
    assert!(seen.control_frames > 0 && seen.data_sent > 0, "{seen}");
    let counter = |name: &str| stats.agent_counter(&format!("adapt.disruption.{name}"));
    assert_eq!(counter("control_frames"), seen.control_frames);
    assert_eq!(counter("control_received"), seen.control_received);
    assert_eq!(counter("data_sent"), seen.data_sent);
    assert_eq!(counter("data_delivered"), seen.data_delivered);
    assert_eq!(counter("route_discoveries"), seen.route_discoveries);

    // Every node ended on the DYMO composition.
    for stack in &stacks {
        assert_eq!(
            *stack,
            vec!["neighbour-detection".to_string(), "dymo".to_string()]
        );
    }

    // The overall run still delivered: OLSR before the cut, DYMO's
    // on-demand discovery after the heal.
    assert!(
        stats.delivery_ratio() > 0.6,
        "delivery across the whole run: {:.3}",
        stats.delivery_ratio()
    );
}

#[test]
fn closed_loop_run_is_deterministic() {
    let a = run_world(77);
    let b = run_world(77);
    assert_eq!(a.1, b.1, "same switch log");
    assert_eq!(a.2, b.2, "same final stacks");
    assert!(
        a.0.first_difference(&b.0).is_none(),
        "stats diverge at {:?}",
        a.0.first_difference(&b.0)
    );
}
