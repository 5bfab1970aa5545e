//! End-to-end health-gated transactional reconfiguration: a fleet-wide
//! OLSR → DYMO switch commits two-phase, runs provisionally while a
//! partition wrecks the delivery ratio, auto-reverts to the checkpointed
//! OLSR compositions, and the fleet's delivery ratio recovers to within
//! 5% of the pre-switch baseline. With the flight recorder on, the full
//! prepare → commit → revert timeline is asserted from the trace JSONL.

use manetkit_repro::adapt::{install_fleet, Stack};
use manetkit_repro::manetkit::{HealthGate, ReconfigRequest, Strategy, TxnOptions, TxnVerdict};
use manetkit_repro::netsim::fault::FaultPlan;
use manetkit_repro::prelude::*;

fn secs(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(n)
}

#[test]
fn health_gated_switch_auto_reverts_and_recovers() {
    // 5-node line; a partition cuts {0,1,2} | {3,4} over the provisional
    // window (virtual 51 s → 100 s), so the freshly committed DYMO
    // composition cannot deliver the 0 → 4 flow and the gate must trip.
    let plan = FaultPlan::builder(0)
        .partition(
            secs(51),
            secs(100),
            "cut",
            vec![
                vec![NodeId(0), NodeId(1), NodeId(2)],
                vec![NodeId(3), NodeId(4)],
            ],
        )
        .build();
    let builder = World::builder()
        .topology(Topology::line(5))
        .seed(77)
        .fault_plan(plan);
    #[cfg(feature = "trace")]
    let builder = builder.trace(1 << 16);
    let mut world = builder.build();
    let fleet = install_fleet(&mut world, Stack::Olsr);
    // Let OLSR converge end to end before traffic starts.
    world.run_until(secs(40));
    let stacks_before = fleet.stacks();

    // CBR 0 → 4 at 4 packets/s for the whole experiment.
    let far = world.addr(NodeId(4));
    let mut t = secs(40);
    while t < secs(150) {
        world.send_datagram_at(t, NodeId(0), far, vec![0u8; 64]);
        t += SimDuration::from_millis(250);
    }

    // Health-gated 2PC: 10 s measured baseline, 10 s provisional window,
    // revert on a delivery-ratio drop of more than 0.25.
    let report = fleet.execute(
        &mut world,
        ReconfigRequest::new()
            .recipe(|| Stack::Olsr.recipe_to(Stack::Dymo))
            .strategy(Strategy::TwoPhase(TxnOptions::default()))
            .health_gate(HealthGate::over_window(SimDuration::from_secs(10)).max_drop(0.25)),
    );
    assert_eq!(report.verdict, TxnVerdict::Reverted, "{report}");
    assert!(report.unresolved.is_empty(), "{report}");
    let pre = report.pre_ratio.expect("gate measured a baseline");
    let window = report.window_ratio.expect("gate measured the window");
    assert!(pre >= 0.8, "healthy OLSR baseline, got {pre:.3}");
    assert!(
        pre - window > 0.25,
        "partition wrecked the provisional window: pre {pre:.3} window {window:.3}"
    );

    // Every node is back on its checkpointed OLSR composition.
    assert_eq!(fleet.stacks(), stacks_before, "revert restored the stacks");
    let stats = world.stats();
    assert_eq!(stats.agent_counter("txn.prepared"), 5);
    assert_eq!(stats.agent_counter("txn.committed"), 5);
    assert_eq!(stats.agent_counter("txn.reverted"), 5);
    assert_eq!(stats.agent_counter("txn.aborted"), 0);
    // The same conservation law `mcheck` audits at every explored state:
    // everything prepared was accounted for, nothing is still open.
    manetkit_repro::manetkit::assert_fleet_conservation(&stats, 0);

    // The partition heals at 100 s; give the restored OLSR fleet time to
    // re-converge, then demand the delivery ratio recover to within 5% of
    // the pre-switch baseline.
    world.run_until(secs(135));
    let mut post_window = world.stats_window();
    post_window.skip(&world);
    world.run_until(secs(150));
    let post = post_window.advance(&world).delivery_ratio();
    assert!(
        pre - post <= 0.05,
        "delivery ratio recovered after revert: pre {pre:.3} post {post:.3}"
    );

    // Flight-recorder timeline: every node logged prepare → commit →
    // revert for this transaction, in that order.
    #[cfg(feature = "trace")]
    {
        let jsonl = world.trace_jsonl();
        let id = format!("\"a\":{}", report.txn);
        let phase_lines = |kind: &str| -> Vec<usize> {
            let key = format!("\"kind\":\"{kind}\"");
            jsonl
                .lines()
                .enumerate()
                .filter(|(_, l)| l.contains(&key) && l.contains(&id))
                .map(|(i, _)| i)
                .collect()
        };
        let prepares = phase_lines("txn_prepare");
        let commits = phase_lines("txn_commit");
        let reverts = phase_lines("txn_revert");
        assert_eq!(prepares.len(), 5, "one prepare record per node");
        assert_eq!(commits.len(), 5, "one commit record per node");
        assert_eq!(reverts.len(), 5, "one revert record per node");
        // The merged trace is time-ordered, so phase boundaries must nest:
        // all prepares before all commits before all reverts.
        assert!(prepares.iter().max() < commits.iter().min());
        assert!(commits.iter().max() < reverts.iter().min());
        assert!(
            jsonl.lines().any(|l| l.contains("\"kind\":\"fault\"")),
            "the partition fault is on the same timeline"
        );
    }
}
