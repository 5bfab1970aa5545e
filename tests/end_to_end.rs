//! Workspace-level end-to-end scenarios: runtime protocol switching under
//! traffic, reconfiguration robustness, and large-network behaviour.

use manetkit_repro::adapt::Stack;
use manetkit_repro::prelude::*;

#[test]
fn switch_olsr_to_dymo_under_traffic() {
    let mut world = World::builder()
        .topology(Topology::line(4))
        .seed(60)
        .build();
    let mut handles = Vec::new();
    for i in 0..4 {
        let (node, h) = Stack::Olsr.node();
        world.install_agent(NodeId(i), Box::new(node));
        handles.push(h);
    }
    world.run_for(SimDuration::from_secs(30));
    let far = world.addr(NodeId(3));
    world.send_datagram(NodeId(0), far, b"before".to_vec());
    world.run_for(SimDuration::from_secs(1));
    assert_eq!(world.stats().data_delivered, 1);

    // Live switch on every node, one best-effort op at a time.
    for h in &handles {
        for op in Stack::Olsr.recipe_to(Stack::Dymo) {
            h.apply(op);
        }
    }
    world.run_for(SimDuration::from_secs(5));
    for h in &handles {
        let st = h.status();
        assert!(st.last_error.is_none(), "{:?}", st.last_error);
        assert_eq!(st.protocols, Stack::Dymo.protocols());
    }
    world.send_datagram(NodeId(0), far, b"after".to_vec());
    world.run_for(SimDuration::from_secs(5));
    let s = world.stats();
    assert_eq!(s.data_delivered, 2, "{s:?}");
    assert!(
        s.agent_counter("route_discovery") >= 1,
        "reactive path used"
    );
}

#[test]
fn twenty_five_node_grid_converges_under_olsr() {
    let mut world = World::builder()
        .topology(Topology::grid(5, 5))
        .seed(61)
        .build();
    for i in 0..25 {
        let (node, _h) = manetkit_repro::manetkit_olsr::node(Default::default());
        world.install_agent(NodeId(i), Box::new(node));
    }
    world.run_for(SimDuration::from_secs(60));
    // Corner to corner: 8 hops across the grid.
    let far = world.addr(NodeId(24));
    let entry = world
        .os(NodeId(0))
        .route_table()
        .lookup(far)
        .expect("corner-to-corner route");
    assert_eq!(entry.metric, 8);
    world.send_datagram(NodeId(0), far, vec![1; 128]);
    world.run_for(SimDuration::from_secs(2));
    assert_eq!(world.stats().data_delivered, 1);
}

#[test]
fn dymo_scales_to_a_sparse_random_network() {
    let topo = Topology::random_geometric(30, 0.3, 19);
    if !topo.is_connected() {
        // Deterministic for the fixed seed; guard anyway.
        return;
    }
    let n = topo.len();
    let mut world = World::builder().topology(topo).seed(19).build();
    for i in 0..n {
        let (node, _h) = manetkit_repro::manetkit_dymo::node(Default::default());
        world.install_agent(NodeId(i), Box::new(node));
    }
    world.run_for(SimDuration::from_secs(3));
    let mut delivered_targets = 0;
    for (src, dst) in [(0usize, 29usize), (7, 23), (15, 2)] {
        let dst_addr = world.addr(NodeId(dst));
        world.send_datagram(NodeId(src), dst_addr, b"far".to_vec());
        world.run_for(SimDuration::from_secs(8));
        delivered_targets += 1;
        assert_eq!(
            world.stats().data_delivered,
            delivered_targets,
            "pair {src}->{dst} failed"
        );
    }
}

#[test]
fn concurrency_model_is_selectable_per_deployment() {
    use manetkit_repro::manetkit::prelude::*;
    // Same DYMO scenario under each queue discipline; behaviour identical.
    let run = |model: ConcurrencyModel| {
        let mut world = World::builder()
            .topology(Topology::line(3))
            .seed(62)
            .build();
        for i in 0..3 {
            let mut node = ManetNode::new(model);
            manetkit_repro::manetkit_dymo::deploy(node.deployment_mut(), Default::default())
                .unwrap();
            world.install_agent(NodeId(i), Box::new(node));
        }
        world.run_for(SimDuration::from_secs(2));
        let far = world.addr(NodeId(2));
        world.send_datagram(NodeId(0), far, b"m".to_vec());
        world.run_for(SimDuration::from_secs(3));
        let s = world.stats();
        (s.data_delivered, s.agent_counter("route_discovery"))
    };
    let single = run(ConcurrencyModel::SingleThreaded);
    let per_msg = run(ConcurrencyModel::ThreadPerMessage { pool: 4 });
    let per_proto = run(ConcurrencyModel::ThreadPerProtocol);
    assert_eq!(single, (1, 1));
    assert_eq!(per_msg, single, "models must not change protocol behaviour");
    assert_eq!(
        per_proto, single,
        "models must not change protocol behaviour"
    );
}
