//! A DYMO↔AODV switch that is undone — aborted after prepare, or reverted
//! after commit — must leave every node as it was: same kernel table, same
//! protocol route table, and no flow has to rediscover its route. Before
//! route carry-over, `PROTO_STOP` destroyed the table, the undo log put an
//! empty protocol back, and the engine reported a clean rollback because no
//! routing CF had a state codec to compare.

mod support;

use adapt::Stack;
use manetkit::{NodeHandle, TxnCtl, TxnPhase};
use netsim::{NodeId, Topology, World};
use support::{cbr, install, kernel_tables, ms, secs, Fleet};

const NODES: usize = 5;
const TXN: u64 = 7;

/// A 5-node line under `stack` with a 4 pkt/s flow end to end, run to 10 s:
/// the forward routes are established and kept alive by the traffic, the
/// unused reverse routes of the discovery have lapsed.
fn line_under_cbr(stack: Stack) -> (World, Fleet) {
    let mut world = World::builder()
        .topology(Topology::line(NODES))
        .seed(5)
        .build();
    let fleet = install(&mut world, stack);
    cbr(
        &mut world,
        NodeId(0),
        NodeId(NODES - 1),
        secs(3),
        secs(30),
        ms(250),
    );
    world.run_until(secs(10));
    (world, fleet)
}

fn handles(fleet: &Fleet) -> Vec<NodeHandle> {
    (0..NODES)
        .map(|i| {
            fleet
                .coordinator
                .handle_of(NodeId(i))
                .expect("fleet member")
                .clone()
        })
        .collect()
}

fn phases(handles: &[NodeHandle]) -> Vec<Option<TxnPhase>> {
    handles
        .iter()
        .map(|h| h.status().txn.filter(|t| t.id == TXN).map(|t| t.phase))
        .collect()
}

/// Prepares `from → to` on every node, undoes it — by abort, or by revert
/// after a 2 s committed spell — and checks that nothing but virtual time
/// moved.
fn undone_switch_restores_everything(from: Stack, to: Stack, commit_first: bool) {
    let (mut world, fleet) = line_under_cbr(from);
    let handles = handles(&fleet);
    let kernel_before = kernel_tables(&world);
    let protocol_before = fleet.protocol_tables(from);
    let discoveries_before = world.stats().agent_counter("route_discovery");
    assert!(
        kernel_before[..NODES - 1].iter().all(|t| !t.is_empty()),
        "every node upstream of the destination holds a route: {kernel_before:?}"
    );

    for handle in &handles {
        handle.txn_ctl(TxnCtl::Prepare {
            id: TXN,
            ops: from.recipe_to(to),
            requested: Some(world.now()),
            deadline: None,
        });
    }
    world.run_for(ms(300));
    assert_eq!(phases(&handles), vec![Some(TxnPhase::Prepared); NODES]);
    assert!(fleet.runs(to), "the prepared composition is live");
    // DYMO cannot compare a route without a sequence number, so AODV's
    // seq-less one-hop neighbour routes stay behind; everything else is
    // carried and installed.
    let carried: Vec<Vec<_>> = protocol_before
        .iter()
        .map(|(_, rows)| {
            let rows = rows.iter().filter(|r| to != Stack::Dymo || r.3.is_some());
            rows.map(|r| (r.0, r.1, u32::from(r.2))).collect()
        })
        .collect();
    assert_eq!(
        kernel_tables(&world),
        carried,
        "the arriving protocol installed the routes it adopted"
    );

    let undone = if commit_first {
        for handle in &handles {
            handle.txn_ctl(TxnCtl::Commit { id: TXN });
        }
        world.run_for(ms(2_000));
        for handle in &handles {
            handle.txn_ctl(TxnCtl::Revert { id: TXN });
        }
        TxnPhase::Reverted
    } else {
        for handle in &handles {
            handle.txn_ctl(TxnCtl::Abort {
                id: TXN,
                reason: "peer_abort",
            });
        }
        TxnPhase::RolledBack
    };
    world.run_for(ms(300));
    assert_eq!(phases(&handles), vec![Some(undone); NODES]);
    assert!(fleet.runs(from), "back on the old stack");

    assert_eq!(kernel_tables(&world), kernel_before, "kernel tables");
    assert_eq!(
        fleet.protocol_tables(from),
        protocol_before,
        "protocol route tables (lifetimes aside: traffic keeps refreshing them)"
    );

    world.run_until(secs(31));
    let stats = world.stats();
    assert_eq!(
        stats.agent_counter("txn.rollback_mismatch"),
        0,
        "the engine's own byte-exact comparison, lifetimes included, agrees"
    );
    assert_eq!(
        stats.agent_counter("route_discovery"),
        discoveries_before,
        "no flow had to rediscover"
    );
    assert_eq!(stats.data_delivered, stats.data_sent, "no datagram lost");
}

#[test]
fn prepare_then_abort_dymo_to_aodv() {
    undone_switch_restores_everything(Stack::Dymo, Stack::Aodv, false);
}

#[test]
fn prepare_then_abort_aodv_to_dymo() {
    undone_switch_restores_everything(Stack::Aodv, Stack::Dymo, false);
}

#[test]
fn commit_then_revert_dymo_to_aodv() {
    undone_switch_restores_everything(Stack::Dymo, Stack::Aodv, true);
}

#[test]
fn commit_then_revert_aodv_to_dymo() {
    undone_switch_restores_everything(Stack::Aodv, Stack::Dymo, true);
}
