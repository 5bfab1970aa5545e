//! `ManetNode::fork` mid-transaction: a node forked while it holds a
//! prepared transaction open commits, and rolls back, exactly as the node
//! it was forked from does — same published status, same composition
//! (`structural_hash`), same kernel table and counters, a clean unwind —
//! and the original's `NodeHandle` does not reach the fork.

use manetkit::prelude::*;
use manetkit::{structural_hash, NodeStatus, TxnCtl, TxnPhase};
use manetkit_aodv::{aodv_cf, AodvParams};
use manetkit_dymo::{DymoDeployment, DYMO_CF};
use manetkit_olsr::OlsrDeployment;
use netsim::{NodeId, SimDuration, SimTime, Topology, World};

const TXN: u64 = 1;

/// A three-node line running `node()` on every node, warmed up for six
/// seconds so the routing state is not empty.
fn warm_world(node: impl Fn() -> (ManetNode, NodeHandle)) -> (World, NodeHandle) {
    let mut world = World::builder()
        .topology(Topology::line(3))
        .seed(11)
        .build();
    let mut handles = Vec::new();
    for i in 0..3 {
        let (mut agent, handle) = node();
        agent.set_publish_composition(true);
        world.install_agent(NodeId(i), Box::new(agent));
        handles.push(handle);
    }
    world.run_for(SimDuration::from_secs(6));
    (world, handles.swap_remove(1))
}

fn middle(world: &World) -> &ManetNode {
    world.agent(NodeId(1)).expect("a ManetNode")
}

fn verb(world: &mut World, ctl: TxnCtl) {
    world
        .agent_mut::<ManetNode>(NodeId(1))
        .expect("a ManetNode")
        .txn_ctl(ctl);
}

/// Everything the middle node shows: its status, composition, kernel
/// table and counters.
fn shown(world: &World) -> String {
    let node = middle(world);
    let status: NodeStatus = node.status();
    let os = world.os(NodeId(1));
    format!(
        "{status:?}\n{:#x}\n{:?}\n{:?}",
        structural_hash(node.deployment()),
        os.route_table(),
        world.stats()
    )
}

fn phase(world: &World) -> Option<TxnPhase> {
    middle(world).status().txn.map(|r| r.phase)
}

/// Prepares `ops` on the middle node, forks the world while the
/// transaction is open, then resolves it with `resolve` in both and checks
/// they stay identical.
fn check(
    node: impl Fn() -> (ManetNode, NodeHandle),
    ops: impl Fn() -> Vec<ReconfigOp>,
    resolve: fn(u64) -> TxnCtl,
    resolved: TxnPhase,
) {
    let (mut world, handle) = warm_world(node);
    let before = structural_hash(middle(&world).deployment());
    verb(
        &mut world,
        TxnCtl::Prepare {
            id: TXN,
            ops: ops(),
            requested: None,
            deadline: None,
        },
    );
    world.run_for(SimDuration::from_secs(1));
    assert_eq!(phase(&world), Some(TxnPhase::Prepared));
    assert_ne!(structural_hash(middle(&world).deployment()), before);

    let mut twin = world.fork().expect("every plug-in forks");
    assert_eq!(shown(&twin), shown(&world), "forked while prepared");
    // The original's handle reaches the original only.
    handle.apply(ReconfigOp::RemoveProtocol {
        name: "ghost".into(),
    });
    assert_eq!(middle(&world).pending_ops(), 1);
    assert_eq!(middle(&twin).pending_ops(), 0);
    handle.clear_pending();

    for w in [&mut world, &mut twin] {
        verb(w, resolve(TXN));
        w.run_until(SimTime::from_micros(12_000_000));
    }
    assert_eq!(phase(&world), Some(resolved));
    assert_eq!(shown(&twin), shown(&world), "resolved as {resolved}");
    let os = world.os(NodeId(1));
    assert_eq!(os.counter("txn.rollback_mismatch"), 0, "a clean unwind");
    let after = structural_hash(middle(&world).deployment());
    assert_eq!(after == before, resolved == TxnPhase::RolledBack);
}

/// OLSR → DYMO by removal and addition: the undo log keeps the removed
/// CFs.
fn olsr_to_dymo() -> Vec<ReconfigOp> {
    let (node, _) = manetkit_olsr::node(OlsrDeployment::default());
    let mut ops: Vec<ReconfigOp> = node
        .deployment()
        .protocol_names()
        .into_iter()
        .rev()
        .map(|name| ReconfigOp::RemoveProtocol { name })
        .collect();
    ops.push(ReconfigOp::LoadSystem(manetkit_dymo::system_config()));
    let (dymo, _) = manetkit_dymo::node(DymoDeployment::default());
    for name in dymo.deployment().protocol_names() {
        let cf = dymo.deployment().protocol(&name).expect("deployed");
        ops.push(ReconfigOp::AddProtocol(cf.fork().expect("forks")));
    }
    ops
}

/// DYMO → AODV in place, carrying the routes: the undo log keeps the
/// retired CF.
fn dymo_to_aodv() -> Vec<ReconfigOp> {
    vec![
        ReconfigOp::LoadSystem(manetkit_aodv::system_config()),
        ReconfigOp::SwitchProtocol {
            old: DYMO_CF.into(),
            new: aodv_cf(AodvParams::default()),
            transfer_state: true,
        },
    ]
}

#[test]
fn a_node_forked_while_prepared_commits_like_its_original() {
    let olsr = || manetkit_olsr::node(OlsrDeployment::default());
    let dymo = || manetkit_dymo::node(DymoDeployment::default());
    let commit: fn(u64) -> TxnCtl = |id| TxnCtl::Commit { id };
    check(olsr, olsr_to_dymo, commit, TxnPhase::Committed);
    check(dymo, dymo_to_aodv, commit, TxnPhase::Committed);
}

#[test]
fn a_node_forked_while_prepared_rolls_back_like_its_original() {
    let olsr = || manetkit_olsr::node(OlsrDeployment::default());
    let dymo = || manetkit_dymo::node(DymoDeployment::default());
    let abort: fn(u64) -> TxnCtl = |id| TxnCtl::Abort {
        id,
        reason: "test_abort",
    };
    check(olsr, olsr_to_dymo, abort, TxnPhase::RolledBack);
    check(dymo, dymo_to_aodv, abort, TxnPhase::RolledBack);
}

/// A handle taken before a fork, or taken after it through `agent_mut`,
/// reaches only the world it was taken in, and none of that world's later
/// forks.
#[test]
fn a_handle_reaches_only_the_world_it_was_taken_in() {
    let (world, handle) = warm_world(|| manetkit_olsr::node(OlsrDeployment::default()));
    let ghost = || ReconfigOp::RemoveProtocol {
        name: "ghost".into(),
    };
    let mut twin = world.fork().expect("every plug-in forks");
    let later = world.fork().expect("every plug-in forks");
    let twin_of_twin = twin.fork().expect("every plug-in forks");
    handle.apply(ghost());
    let pending = |worlds: [&World; 4]| worlds.map(|w| middle(w).pending_ops());
    assert_eq!(
        pending([&world, &twin, &later, &twin_of_twin]),
        [1, 0, 0, 0]
    );
    handle.clear_pending();

    // The twin's middle node is shared with its own fork until the handle
    // is taken.
    let twin_handle = twin
        .agent_mut::<ManetNode>(NodeId(1))
        .expect("a ManetNode")
        .handle();
    let twin_later = twin.fork().expect("every plug-in forks");
    twin_handle.apply(ghost());
    assert_eq!(
        pending([&twin, &twin_of_twin, &twin_later, &world]),
        [1, 0, 0, 0]
    );
    assert_eq!(middle(&later).pending_ops(), 0);
}
