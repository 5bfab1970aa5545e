//! Integration tests for the phy channel model: serialization latency,
//! tail drop, FIFO ordering, shared-airtime contention, the
//! fault-composition contract (loss/chaos sampled at transmit time, never
//! at enqueue) and crash flushing.

use netsim::fault::FaultPlan;
use netsim::{
    Channel, FrameChaos, GilbertElliott, LinkModel, NodeId, PhyModel, SimDuration, SimTime,
    Topology, World, WorldBuilder,
};

/// 144 wire bytes (24 MAC + 20 IP + 100 payload) at this rate serialize
/// in exactly 1000 µs.
const BPS_1MS_PER_FRAME: u64 = 1_152_000;
const PAYLOAD: usize = 100;

fn quiet_link() -> LinkModel {
    LinkModel {
        delay: SimDuration::from_micros(800),
        jitter: SimDuration::ZERO,
        loss: 0.0,
        burst: None,
    }
}

/// Two nodes in range, a host route from 0 to 1, deterministic link.
fn two_node_world(phy: PhyModel) -> World {
    let mut world = World::builder()
        .nodes(2)
        .topology(Topology::full(2))
        .link_model(quiet_link())
        .seed(7)
        .phy(phy)
        .build();
    let dst = world.addr(NodeId(1));
    world
        .os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(dst, dst, 1);
    world
}

fn send_n(world: &mut World, n: usize) {
    let dst = world.addr(NodeId(1));
    for _ in 0..n {
        world.send_datagram_at(SimTime::ZERO, NodeId(0), dst, vec![0u8; PAYLOAD]);
    }
}

#[test]
fn ideal_model_is_bit_identical_to_the_default() {
    let build = |explicit_ideal: bool| {
        let mut builder: WorldBuilder = World::builder()
            .nodes(3)
            .topology(Topology::line(3))
            .link_model(LinkModel {
                loss: 0.3, // exercise the RNG stream
                ..LinkModel::default()
            })
            .seed(11);
        if explicit_ideal {
            builder = builder.phy(PhyModel::Ideal);
        }
        let mut world = builder.build();
        let a1 = world.addr(NodeId(1));
        let a2 = world.addr(NodeId(2));
        world
            .os_mut(NodeId(0))
            .route_table_mut()
            .add_host_route(a2, a1, 2);
        world
            .os_mut(NodeId(1))
            .route_table_mut()
            .add_host_route(a2, a2, 1);
        for k in 0..20u64 {
            world.send_datagram_at(
                SimTime::ZERO + SimDuration::from_millis(k * 10),
                NodeId(0),
                a2,
                vec![0u8; 64],
            );
        }
        world.run_for(SimDuration::from_secs(2));
        world.stats().canonical()
    };
    let default = build(false);
    let ideal = build(true);
    assert_eq!(
        default.first_difference(&ideal),
        None,
        "PhyModel::Ideal must take the exact legacy code paths"
    );
    assert_eq!(default.phy_frames_tx, 0, "ideal channel reports no phy");
    assert!(default.data_delivered > 0, "some packets get through");
}

#[test]
fn constant_bandwidth_adds_exact_serialization_delay() {
    let mut world = two_node_world(PhyModel::ConstantBandwidth(Channel {
        bits_per_sec: BPS_1MS_PER_FRAME,
        queue_frames: 64,
    }));
    send_n(&mut world, 1);
    world.run_for(SimDuration::from_secs(1));
    let s = world.stats();
    assert_eq!(s.data_delivered, 1);
    // 1000 µs serialization + 800 µs fixed propagation, zero jitter.
    assert_eq!(s.delivery_latencies_us, vec![1800]);
    assert_eq!(s.phy_frames_tx, 1);
    assert_eq!(s.phy_airtime_us, 1000);
    assert_eq!(s.phy_queue_wait_us, vec![0]);
    assert_eq!(s.phy_queue_drops, 0);
    assert_eq!(world.outstanding_sends(), 0);
}

#[test]
fn transmit_queue_is_fifo_with_cumulative_serialization() {
    let mut world = two_node_world(PhyModel::ConstantBandwidth(Channel {
        bits_per_sec: BPS_1MS_PER_FRAME,
        queue_frames: 64,
    }));
    send_n(&mut world, 4);
    world.run_for(SimDuration::from_secs(1));
    let s = world.stats();
    // Frame k waits k serializations, then its own 1000 µs + 800 µs
    // propagation: arrival order equals send order (per-link FIFO).
    assert_eq!(s.delivery_latencies_us, vec![1800, 2800, 3800, 4800]);
    assert_eq!(s.phy_queue_wait_us, vec![0, 1000, 2000, 3000]);
    assert_eq!(s.phy_airtime_us, 4000);
    assert_eq!(world.outstanding_sends(), 0);
}

#[test]
fn full_transmit_queue_tail_drops_with_exact_accounting() {
    let mut world = two_node_world(PhyModel::ConstantBandwidth(Channel {
        bits_per_sec: BPS_1MS_PER_FRAME,
        queue_frames: 3,
    }));
    send_n(&mut world, 10);
    world.run_for(SimDuration::from_secs(1));
    let s = world.stats();
    // One active + three queued are accepted; the other six tail-drop.
    assert_eq!(s.data_delivered, 4);
    assert_eq!(s.phy_queue_drops, 6);
    assert_eq!(s.data_dropped_buffer, 6);
    assert_eq!(s.phy_frames_tx, 4);
    assert_eq!(
        world.outstanding_sends(),
        0,
        "every tail-dropped packet must settle its send record"
    );
}

#[test]
fn shared_airtime_halves_concurrent_transmitters() {
    let run = |phy: PhyModel| {
        let mut world = World::builder()
            .nodes(3)
            .topology(Topology::full(3))
            .link_model(quiet_link())
            .seed(7)
            .phy(phy)
            .build();
        let dst = world.addr(NodeId(2));
        for src in [NodeId(0), NodeId(1)] {
            let d = dst;
            world.os_mut(src).route_table_mut().add_host_route(d, d, 1);
            world.send_datagram_at(SimTime::ZERO, src, d, vec![0u8; PAYLOAD]);
        }
        world.run_for(SimDuration::from_secs(1));
        world.stats()
    };
    let channel = Channel {
        bits_per_sec: BPS_1MS_PER_FRAME,
        queue_frames: 64,
    };
    let flat = run(PhyModel::ConstantBandwidth(channel));
    let shared = run(PhyModel::SharedAirtime(channel));
    // Constant bandwidth: each transmitter gets the full rate.
    assert_eq!(flat.delivery_latencies_us, vec![1800, 1800]);
    assert_eq!(flat.phy_airtime_us, 2000);
    // Shared airtime: both split the single dense-topology domain, so
    // each serialization takes twice as long.
    assert_eq!(shared.delivery_latencies_us, vec![2800, 2800]);
    assert_eq!(shared.phy_airtime_us, 4000);
}

/// The composition-order regression (the fix this suite pins down): frame
/// chaos is sampled at *transmit completion*, never at enqueue, so frames
/// that tail-drop at a full queue consume no chaos randomness and are not
/// counted as corrupted.
#[test]
fn chaos_applies_to_transmitted_frames_only() {
    let chaos = FrameChaos {
        corrupt: 1.0,
        ..FrameChaos::default()
    };
    let mut world = World::builder()
        .nodes(2)
        .topology(Topology::full(2))
        .link_model(quiet_link())
        .seed(7)
        .phy(PhyModel::ConstantBandwidth(Channel {
            bits_per_sec: BPS_1MS_PER_FRAME,
            queue_frames: 3,
        }))
        .fault_plan(FaultPlan::builder(5).chaos(chaos).build())
        .build();
    let dst = world.addr(NodeId(1));
    world
        .os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(dst, dst, 1);
    send_n(&mut world, 10);
    world.run_for(SimDuration::from_secs(1));
    let s = world.stats();
    // Only the four frames that actually reached the air were corrupted;
    // the six tail-dropped frames never touched the chaos RNG.
    assert_eq!(s.data_corrupted, 4);
    assert_eq!(s.phy_queue_drops, 6);
    assert_eq!(s.data_delivered, 0);
    assert_eq!(world.outstanding_sends(), 0);
}

/// A seeded fault plan (bursty Gilbert–Elliott loss plus chaos) must
/// replay byte-identically under shared-airtime contention: the channel
/// model stretches queues but draws from neither the world RNG at enqueue
/// nor the plan RNG outside transmit completions.
#[test]
fn seeded_fault_plan_replays_identically_under_contention() {
    let run = || {
        let chaos = FrameChaos {
            corrupt: 0.1,
            duplicate: 0.1,
            reorder: 0.2,
            reorder_spread: SimDuration::from_millis(5),
        };
        let mut world = World::builder()
            .nodes(3)
            .topology(Topology::full(3))
            .link_model(LinkModel {
                burst: Some(GilbertElliott::flappy(0.05, 0.4)),
                ..quiet_link()
            })
            .seed(13)
            .phy(PhyModel::SharedAirtime(Channel {
                bits_per_sec: BPS_1MS_PER_FRAME,
                queue_frames: 8,
            }))
            .fault_plan(FaultPlan::builder(21).chaos(chaos).build())
            .build();
        let dst = world.addr(NodeId(2));
        for src in [NodeId(0), NodeId(1)] {
            world
                .os_mut(src)
                .route_table_mut()
                .add_host_route(dst, dst, 1);
            for k in 0..30u64 {
                world.send_datagram_at(
                    SimTime::ZERO + SimDuration::from_millis(k * 2),
                    src,
                    dst,
                    vec![0u8; PAYLOAD],
                );
            }
        }
        world.run_for(SimDuration::from_secs(2));
        world.stats().canonical()
    };
    let first = run();
    let second = run();
    assert_eq!(
        first.first_difference(&second),
        None,
        "same seeds must replay byte-identically under contention"
    );
    assert!(first.phy_frames_tx > 0, "the channel saw traffic");
}

#[test]
fn crash_flushes_the_transmit_queue_without_leaking_sends() {
    // 144-byte frames at 115 200 bit/s serialize in exactly 10 ms. Five
    // packets are sent at t=0; the crash at 15 ms lands after one frame
    // delivered, with one on the air and three queued.
    let mut world = World::builder()
        .nodes(2)
        .topology(Topology::full(2))
        .link_model(quiet_link())
        .seed(7)
        .phy(PhyModel::ConstantBandwidth(Channel {
            bits_per_sec: 115_200,
            queue_frames: 8,
        }))
        .fault_plan(
            FaultPlan::builder(1)
                .crash(SimTime::ZERO + SimDuration::from_millis(15), NodeId(0))
                .build(),
        )
        .build();
    let dst = world.addr(NodeId(1));
    world
        .os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(dst, dst, 1);
    send_n(&mut world, 5);
    world.run_for(SimDuration::from_secs(2));
    let s = world.stats();
    assert_eq!(s.data_delivered, 1, "only the pre-crash frame arrives");
    assert_eq!(
        s.data_dropped_crash, 4,
        "the aborted transmission and the three queued frames flush"
    );
    assert_eq!(
        world.outstanding_sends(),
        0,
        "flushed frames must settle their send records"
    );
    assert_eq!(s.phy_frames_tx, 1, "the aborted frame never completed");
}

/// A crash aborts a frame mid-air on a contended shared channel. The
/// aborted frame's completion deadline is cancelled with it, and the
/// survivor's deadline, moved by the freed airtime, replaces its own: the
/// kernel holds exactly one deadline afterwards. Under the debug profile
/// `World::phy_complete` also asserts that every deadline it pops is
/// current, so a deadline left behind fails the run itself.
#[test]
fn a_crash_mid_air_cancels_the_aborted_deadline() {
    // 144-byte frames at 115 200 bit/s take 10 ms alone, 20 ms shared.
    let mut world = World::builder()
        .nodes(3)
        .topology(Topology::full(3))
        .link_model(quiet_link())
        .seed(7)
        .phy(PhyModel::SharedAirtime(Channel {
            bits_per_sec: 115_200,
            queue_frames: 8,
        }))
        .fault_plan(
            FaultPlan::builder(1)
                .crash(SimTime::ZERO + SimDuration::from_millis(25), NodeId(0))
                .build(),
        )
        .build();
    let dst = world.addr(NodeId(2));
    for src in [NodeId(0), NodeId(1)] {
        world
            .os_mut(src)
            .route_table_mut()
            .add_host_route(dst, dst, 1);
        for _ in 0..4 {
            world.send_datagram_at(SimTime::ZERO, src, dst, vec![0u8; PAYLOAD]);
        }
    }
    // Both first frames finish together at 20 ms and both second frames
    // start; node 0's is aborted 5 ms in, with two more queued behind it.
    world.run_until(SimTime::ZERO + SimDuration::from_millis(25));
    assert_eq!(world.pending_events(), 1, "only node 1's deadline is left");
    world.run_for(SimDuration::from_secs(1));
    let s = world.stats();
    assert_eq!(s.data_dropped_crash, 3, "the aborted frame and two queued");
    assert_eq!((s.data_delivered, s.phy_frames_tx), (5, 5));
    // Node 1's second frame drained a quarter of its bits at half rate,
    // the rest at full rate: it leaves at 32.5 ms, the next two 10 ms apart.
    assert_eq!(
        s.delivery_latencies_us,
        vec![20_800, 20_800, 33_300, 43_300, 53_300]
    );
    assert_eq!(world.pending_events(), 0);
    assert_eq!(world.outstanding_sends(), 0);
}
