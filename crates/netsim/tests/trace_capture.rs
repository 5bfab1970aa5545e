//! Flight-recorder capture tests (only built with the `trace` feature —
//! `cargo test -p netsim --features trace`; the workspace-level test run
//! enables it through the campaign crate's default features).
#![cfg(feature = "trace")]

use netsim::trace::{first_divergence, TraceKind};
use netsim::{NodeId, SimDuration, Topology, World, WorldBuilder};

/// Two nodes with static routes; node 0 sends one datagram to node 1.
fn two_node_world(seed: u64) -> World {
    let mut world = World::builder()
        .topology(Topology::full(2))
        .seed(seed)
        .trace(1024)
        .build();
    let dst = world.addr(NodeId(1));
    let src = world.addr(NodeId(0));
    world
        .os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(dst, dst, 1);
    world
        .os_mut(NodeId(1))
        .route_table_mut()
        .add_host_route(src, src, 1);
    world.send_datagram(NodeId(0), dst, b"ping".to_vec());
    world.run_for(SimDuration::from_millis(100));
    world
}

#[test]
fn data_path_produces_send_hop_deliver() {
    let world = two_node_world(7);
    let trace = world.trace();
    let kinds: Vec<TraceKind> = trace.records().iter().map(|r| r.kind).collect();
    assert!(kinds.contains(&TraceKind::DataSend), "{kinds:?}");
    assert!(kinds.contains(&TraceKind::DataHop), "{kinds:?}");
    assert!(kinds.contains(&TraceKind::DataDeliver), "{kinds:?}");
    // The delivery happened on node 1 and carries the end-to-end latency.
    let deliver = trace
        .records()
        .iter()
        .find(|r| r.kind == TraceKind::DataDeliver)
        .unwrap();
    assert_eq!(deliver.node, 1);
    assert!(deliver.b > 0, "latency recorded: {deliver:?}");
    assert_eq!(world.trace_dropped(), 0);
}

#[test]
fn same_seed_same_trace_bytes() {
    let a = two_node_world(42).trace_jsonl();
    let b = two_node_world(42).trace_jsonl();
    assert!(!a.is_empty());
    assert_eq!(a, b, "seeded runs must serialize byte-identically");
}

#[test]
fn different_seed_reports_first_divergence() {
    let a = two_node_world(1).trace();
    let b = two_node_world(2).trace();
    // Different link-delay samples shift virtual timestamps, so the traces
    // diverge; the diff names the earliest differing record.
    match first_divergence(&a, &b) {
        Some(d) => {
            let msg = d.to_string();
            assert!(msg.contains("first divergence at record #"), "{msg}");
        }
        None => panic!("expected traces with different seeds to diverge"),
    }
}

#[test]
fn pcap_export_contains_packet_records() {
    let world = two_node_world(3);
    let cap = world.trace_pcap();
    assert!(cap.len() > 24, "capture has at least one packet record");
    assert_eq!(&cap[0..4], &0xa1b2_c3d4u32.to_le_bytes());
}

#[test]
fn ring_overwrites_oldest_and_counts_drops() {
    let mut world = World::builder()
        .topology(Topology::full(2))
        .trace(2)
        .build();
    let dst = world.addr(NodeId(1));
    world
        .os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(dst, dst, 1);
    for _ in 0..8 {
        world.send_datagram(NodeId(0), dst, b"x".to_vec());
    }
    world.run_for(SimDuration::from_millis(100));
    assert!(world.trace_dropped() > 0, "tiny ring must overwrite");
    // Each surviving node-0 record still parses and interleaves cleanly.
    let trace = world.trace();
    assert!(trace.records().iter().filter(|r| r.node == 0).count() <= 2);
}

#[test]
fn untraced_world_yields_empty_trace() {
    let world = WorldBuilder::default().nodes(1).build();
    assert!(world.trace().is_empty());
    assert_eq!(world.trace_jsonl(), "");
    assert_eq!(world.trace_dropped(), 0);
}

#[test]
fn a_ttl_drop_records_the_budget_the_packet_arrived_with() {
    // 0 → 1 → 2 under TTL 2: the sender spends one, the relay finds one
    // left and drops the packet — the record carries that 1, not a
    // decremented 0, and the relay transmits nothing.
    let mut world = World::builder()
        .topology(Topology::line(3))
        .seed(2)
        .default_ttl(2)
        .trace(64)
        .build();
    let (relay, dst) = (world.addr(NodeId(1)), world.addr(NodeId(2)));
    world
        .os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(dst, relay, 2);
    world
        .os_mut(NodeId(1))
        .route_table_mut()
        .add_host_route(dst, dst, 1);
    let id = world.send_datagram(NodeId(0), dst, b"budget".to_vec());
    world.run_for(SimDuration::from_millis(100));

    let trace = world.trace();
    let data: Vec<_> = trace
        .records()
        .iter()
        .map(|r| (r.node, r.kind, r.tag, r.a, r.b))
        .collect();
    assert_eq!(
        data,
        vec![
            (0, TraceKind::DataSend, "data", 2, 6),
            (0, TraceKind::DataHop, "data", 1, 1),
            (1, TraceKind::DataDrop, "ttl", id, 1),
        ]
    );
    assert_eq!(world.stats().data_dropped_ttl, 1);
    assert_eq!(world.outstanding_sends(), 0);
}
