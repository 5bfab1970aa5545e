//! A fast cross-crate smoke so the root `cargo test` touches netsim, phy,
//! core and campaign: campaign determinism, transaction conservation across
//! a live protocol switch, and the ideal-channel identity.

use manetkit_repro::adapt::Stack;
use manetkit_repro::campaign::{
    engine, CampaignSpec, Protocol, RunConfig, ScenarioSpec, TopologySpec, TrafficSpec,
};
use manetkit_repro::manetkit::{FleetCoordinator, ReconfigRequest, Strategy, TxnOptions};
use manetkit_repro::netsim::{LinkModel, PhyModel};
use manetkit_repro::prelude::*;

#[test]
fn a_two_cell_campaign_repeats_byte_for_byte() {
    let scenario = ScenarioSpec::builder()
        .topology(TopologySpec::Line(3))
        .traffic(TrafficSpec::cbr(
            NodeId(0),
            NodeId(2),
            SimDuration::from_millis(500),
        ))
        .warmup(SimDuration::from_secs(5))
        .duration(SimDuration::from_secs(10))
        .build();
    let spec = CampaignSpec::new("smoke")
        .scenario("line3", scenario)
        .protocols([Protocol::MkitDymo, Protocol::Dymoum])
        .seeds([1]);
    assert_eq!(spec.cells().len(), 2);
    let config = RunConfig {
        threads: 2,
        check_determinism: false,
    };
    let first = engine::run(&spec, &config);
    let second = engine::run(&spec, &config);
    assert!(first.merged.data_delivered > 0, "the cells carry traffic");
    assert_eq!(first.deterministic_json(), second.deterministic_json());
}

#[test]
fn a_two_phase_switch_conserves_transactions_and_keeps_delivering() {
    let mut world = World::builder().topology(Topology::line(4)).seed(9).build();
    let mut fleet = FleetCoordinator::default();
    for i in 0..4 {
        let (node, handle) = Stack::Dymo.node();
        fleet.add(handle);
        world.install_agent(NodeId(i), Box::new(node));
    }
    let far = world.addr(NodeId(3));
    for k in 0..40 {
        let at = SimTime::ZERO + SimDuration::from_millis(2_000 + 250 * k);
        world.send_datagram_at(at, NodeId(0), far, vec![0u8; 32]);
    }
    world.run_for(SimDuration::from_secs(5));
    let report = fleet.execute(
        &mut world,
        ReconfigRequest::new()
            .recipe(|| Stack::Dymo.recipe_to(Stack::Aodv))
            .strategy(Strategy::TwoPhase(TxnOptions::default())),
    );
    assert!(fleet.all_run(&["neighbour-detection", "aodv"]), "{report}");
    let mut after = world.stats_window();
    world.run_for(SimDuration::from_secs(8));
    let stats = world.stats();
    assert_eq!(stats.agent_counter("txn.prepared"), 4);
    assert_eq!(
        stats.agent_counter("txn.prepared"),
        stats.agent_counter("txn.committed") + stats.agent_counter("txn.rolled_back")
    );
    let after = after.advance(&world);
    assert!(after.data_sent > 0, "traffic spans the switch");
    assert_eq!(after.data_delivered, after.data_sent, "{after:?}");
}

#[test]
fn the_ideal_phy_model_is_the_default_world() {
    let run = |explicit: bool| {
        let mut builder = World::builder()
            .topology(Topology::line(3))
            .link_model(LinkModel {
                loss: 0.2,
                ..LinkModel::default()
            })
            .seed(4);
        if explicit {
            builder = builder.phy(PhyModel::Ideal);
        }
        let mut world = builder.build();
        for i in 0..3 {
            let (node, _handle) = Stack::Dymo.node();
            world.install_agent(NodeId(i), Box::new(node));
        }
        let far = world.addr(NodeId(2));
        for k in 0..20 {
            let at = SimTime::ZERO + SimDuration::from_millis(1_000 + 200 * k);
            world.send_datagram_at(at, NodeId(0), far, vec![0u8; 32]);
        }
        world.run_for(SimDuration::from_secs(6));
        world.stats().canonical()
    };
    let (default, ideal) = (run(false), run(true));
    assert!(default.data_delivered > 0 && default.control_lost > 0);
    assert_eq!(default.first_difference(&ideal), None);
    assert_eq!(default.phy_frames_tx, 0, "the ideal channel has no engine");
}
