//! OLSR → DYMO → OLSR through the switch recipes of `adapt::stacks`: the
//! OLSR CF that comes back is a fresh deployment on nodes whose kernel
//! tables the first switch emptied, and it must install every route again
//! although, once reconverged, the topology it learns is the one it had.
//! And every ordered pair of the three stacks, OLSR ⇄ AODV included, as a
//! two-phase fleet switch under traffic.

mod support;

use adapt::{install_fleet, Stack};
use manetkit::{assert_fleet_conservation, ReconfigRequest, Strategy, TxnOptions, TxnVerdict};
use netsim::{NodeId, SimDuration, Topology, World};
use support::{cbr, ms, secs};

fn fully_routed(world: &World) -> bool {
    world.node_ids().all(|a| {
        world.node_ids().filter(|b| *b != a).all(|b| {
            let dst = world.addr(b);
            world.os(a).route_table().lookup(dst).is_some()
        })
    })
}

fn route_count(world: &World) -> usize {
    world
        .node_ids()
        .map(|id| world.os(id).route_table().len())
        .sum()
}

#[test]
fn olsr_reinstalls_every_route_after_a_round_trip_through_dymo() {
    let mut world = World::builder()
        .topology(Topology::grid(3, 3))
        .seed(21)
        .build();
    let fleet = install_fleet(&mut world, Stack::Olsr);
    world.run_for(SimDuration::from_secs(60));
    assert!(fully_routed(&world), "OLSR converged");
    let converged = route_count(&world);

    let switch = |world: &mut World, from: Stack, to: Stack| {
        let _ = fleet.execute(world, ReconfigRequest::new().recipe(|| from.recipe_to(to)));
        world.run_for(SimDuration::from_secs(1));
        let stack = to.protocols();
        let stack: Vec<&str> = stack.iter().map(String::as_str).collect();
        assert!(fleet.all_run(&stack), "fleet runs {to}");
    };

    switch(&mut world, Stack::Olsr, Stack::Dymo);
    assert_eq!(
        route_count(&world),
        0,
        "OLSR withdrew its routes, DYMO is idle"
    );
    world.run_for(SimDuration::from_secs(20));

    switch(&mut world, Stack::Dymo, Stack::Olsr);
    world.run_for(SimDuration::from_secs(60));
    assert!(fully_routed(&world), "OLSR converged again");
    assert_eq!(route_count(&world), converged);
}

/// Each ordered pair of stacks as a two-phase switch of a 3×3 grid carrying
/// a corner-to-corner flow: the switch commits, every node runs the target
/// stack, the per-node transaction ledger balances, and once the target
/// has re-converged the flow loses nothing.
#[test]
fn every_ordered_pair_switches_two_phase_and_delivers_after_reconvergence() {
    for from in Stack::ALL {
        for to in Stack::ALL.into_iter().filter(|&to| to != from) {
            let mut world = World::builder()
                .topology(Topology::grid(3, 3))
                .seed(22)
                .build();
            let fleet = install_fleet(&mut world, from);
            cbr(
                &mut world,
                NodeId(0),
                NodeId(8),
                secs(20) + ms(125),
                secs(90),
                ms(250),
            );
            world.run_until(secs(40));

            let report = fleet.execute(
                &mut world,
                ReconfigRequest::new()
                    .recipe(|| from.recipe_to(to))
                    .strategy(Strategy::TwoPhase(TxnOptions::default())),
            );
            assert_eq!(
                report.verdict,
                TxnVerdict::Committed,
                "{from}->{to}: {report}"
            );
            assert_eq!(fleet.stacks(), vec![to.protocols(); 9], "{from}->{to}");
            let stats = world.stats();
            assert_eq!(stats.agent_counter("txn.prepared"), 9, "{from}->{to}");
            assert_fleet_conservation(&stats, 0);

            // Re-converged by 75 s; nothing is in flight on a whole second,
            // so the window's sends and deliveries are the same datagrams.
            world.run_until(secs(75));
            let mut window = world.stats_window();
            world.run_until(secs(91));
            let w = window.advance(&world);
            assert_eq!(w.data_sent, 60, "{from}->{to}");
            assert_eq!(w.data_delivered, w.data_sent, "{from}->{to}: {w:?}");
        }
    }
}
