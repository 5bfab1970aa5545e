//! OLSR → DYMO → OLSR through the switch recipes of `adapt::stacks`: the
//! OLSR CF that comes back is a fresh deployment on nodes whose kernel
//! tables the first switch emptied, and it must install every route again
//! although, once reconverged, the topology it learns is the one it had.

use adapt::{install_fleet, Stack};
use manetkit::ReconfigRequest;
use netsim::{SimDuration, Topology, World};

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
