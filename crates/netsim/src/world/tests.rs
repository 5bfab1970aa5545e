use super::*;

use std::sync::{Arc, Mutex};

use phy::PhyModel;

use crate::agent::FilterEvent;
use crate::fault::{FaultPlan, FrameChaos};
use crate::packet::ControlFrame;

/// What an [`Echo`] agent observed, shared with the test body.
#[derive(Default)]
struct Observed {
    frames: Vec<Vec<u8>>,
    timers: Vec<u64>,
    filter_events: Vec<FilterEvent>,
    contexts: u32,
}

/// Minimal agent recording everything it sees — exercises plumbing.
struct Echo {
    observed: Arc<Mutex<Observed>>,
}

impl Echo {
    fn new() -> Self {
        Echo {
            observed: Arc::new(Mutex::new(Observed::default())),
        }
    }

    fn observed(&self) -> Arc<Mutex<Observed>> {
        self.observed.clone()
    }
}

impl RoutingAgent for Echo {
    fn name(&self) -> &str {
        "echo"
    }
    fn start(&mut self, os: &mut NodeOs) {
        os.set_timer(SimDuration::from_millis(10), 1);
    }
    fn on_frame(&mut self, _os: &mut NodeOs, _from: Address, bytes: &[u8]) {
        self.observed.lock().unwrap().frames.push(bytes.to_vec());
    }
    fn on_timer(&mut self, _os: &mut NodeOs, token: u64) {
        self.observed.lock().unwrap().timers.push(token);
    }
    fn on_filter_event(&mut self, _os: &mut NodeOs, event: FilterEvent) {
        self.observed.lock().unwrap().filter_events.push(event);
    }
    fn on_context(&mut self, _os: &mut NodeOs, _sample: ContextSample) {
        self.observed.lock().unwrap().contexts += 1;
    }
}

fn two_node_world() -> World {
    World::builder().topology(Topology::full(2)).seed(1).build()
}

#[test]
fn unique_addresses() {
    let w = World::builder().nodes(300).build();
    let mut seen = std::collections::HashSet::new();
    for i in 0..300 {
        assert!(seen.insert(w.addr(NodeId(i))), "address collision at {i}");
    }
}

#[test]
fn broadcast_reaches_neighbours_only() {
    let mut w = World::builder().topology(Topology::line(3)).seed(3).build();
    for i in 0..3 {
        w.install_agent(NodeId(i), Box::new(Echo::new()));
    }
    w.os_mut(NodeId(0)).broadcast_control(vec![42]);
    w.run_for(SimDuration::from_millis(50));
    let stats = w.stats();
    // Node 0 has one neighbour (node 1); node 2 is out of range.
    assert_eq!(stats.control_frames, 1);
    assert_eq!(stats.control_received, 1);
}

/// Records the decoded message every reception was answered with.
struct Decoder {
    heard: Arc<Mutex<Vec<Arc<packetbb::Message>>>>,
}

impl RoutingAgent for Decoder {
    fn name(&self) -> &str {
        "decoder"
    }
    fn start(&mut self, _os: &mut NodeOs) {}
    fn on_frame(&mut self, os: &mut NodeOs, _from: Address, bytes: &[u8]) {
        let frame = os.decode_control(bytes);
        let messages = frame.get().expect("a valid packet was sent");
        self.heard.lock().unwrap().extend_from_slice(messages);
    }
    fn on_timer(&mut self, _os: &mut NodeOs, _token: u64) {}
    fn on_filter_event(&mut self, _os: &mut NodeOs, _event: FilterEvent) {}
}

#[test]
fn every_receiver_of_a_broadcast_reads_one_decode() {
    let channel = phy::Channel {
        bits_per_sec: 1_000_000,
        queue_frames: 8,
    };
    for model in [PhyModel::Ideal, PhyModel::SharedAirtime(channel)] {
        let mut w = World::builder()
            .topology(Topology::full(4))
            .phy(model)
            .seed(6)
            .build();
        let heard = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4 {
            let heard = Arc::clone(&heard);
            w.install_agent(NodeId(i), Box::new(Decoder { heard }));
        }
        let msg = packetbb::MessageBuilder::new(1).seq_num(5).build();
        let bytes = packetbb::Packet::single(msg).encode_to_vec();
        w.os_mut(NodeId(0)).broadcast_control(bytes);
        w.run_for(SimDuration::from_millis(50));
        let heard = heard.lock().unwrap();
        assert_eq!(heard.len(), 3, "three neighbours, one message each");
        assert!(heard.iter().all(|m| Arc::ptr_eq(m, &heard[0])));
    }
}

/// Without an engine `transmit` *is* the ideal channel: the frame goes out
/// at once and the transmitter pays for it, exactly as a frame sent
/// through the OS does.
#[test]
fn transmit_without_an_engine_sends_at_once() {
    let msg = packetbb::MessageBuilder::new(1).seq_num(5).build();
    let bytes = packetbb::Packet::single(msg).encode_to_vec();
    let run = |send: &dyn Fn(&mut World)| {
        let mut w = World::builder().topology(Topology::full(4)).seed(6).build();
        let heard = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4 {
            let heard = Arc::clone(&heard);
            w.install_agent(NodeId(i), Box::new(Decoder { heard }));
        }
        send(&mut w);
        w.run_for(SimDuration::from_millis(50));
        assert_eq!(heard.lock().unwrap().len(), 3);
        (w.stats(), w.os(NodeId(0)).battery_level())
    };
    let (mut direct, direct_battery) = run(&|w| {
        let frame = ControlFrame::new(bytes.clone());
        w.transmit(NodeId(0), PhyJob::Broadcast { frame });
    });
    let (via_os, os_battery) = run(&|w| w.os_mut(NodeId(0)).broadcast_control(bytes.clone()));
    assert_eq!(direct.phy_frames_tx, 0);
    assert!(direct_battery < 1.0, "the transmitter is charged");
    assert_eq!(direct_battery.to_bits(), os_battery.to_bits());
    // `transmit` sits below `send_control`'s count of frames handed over.
    assert_eq!((direct.control_frames, direct.control_bytes), (0, 0));
    direct.control_frames = via_os.control_frames;
    direct.control_bytes = via_os.control_bytes;
    assert_eq!(direct.first_difference(&via_os), None);
}

#[test]
fn timers_fire_and_cancel() {
    let mut w = two_node_world();
    let echo = Echo::new();
    let observed = echo.observed();
    w.install_agent(NodeId(0), Box::new(echo));
    w.os_mut(NodeId(0))
        .set_timer(SimDuration::from_millis(5), 7);
    w.os_mut(NodeId(0))
        .set_timer(SimDuration::from_millis(6), 8);
    w.os_mut(NodeId(0)).cancel_timer(8);
    w.run_for(SimDuration::from_millis(20));
    let obs = observed.lock().unwrap();
    assert!(obs.timers.contains(&1), "start timer fired");
    assert!(obs.timers.contains(&7));
    assert!(!obs.timers.contains(&8), "cancelled timer must not fire");
}

/// Runs `requests` against an [`Echo`] on a one-node world (after its
/// start timer, token 1, has fired) and returns the tokens that fired.
fn timer_requests(requests: impl FnOnce(&mut NodeOs)) -> Vec<u64> {
    let mut w = World::builder().nodes(1).build();
    let echo = Echo::new();
    let observed = echo.observed();
    w.install_agent(NodeId(0), Box::new(echo));
    w.run_for(SimDuration::from_millis(20));
    requests(w.os_mut(NodeId(0)));
    w.run_for(SimDuration::from_millis(50));
    let timers = observed.lock().unwrap().timers.clone();
    timers[1..].to_vec()
}

#[test]
fn set_cancel_set_fires_once() {
    let fired = timer_requests(|os| {
        os.set_timer(SimDuration::from_millis(5), 7);
        os.cancel_timer(7);
        os.set_timer(SimDuration::from_millis(6), 7);
    });
    assert_eq!(fired, vec![7]);
}

#[test]
fn rearming_a_pending_timer_replaces_it() {
    let fired = timer_requests(|os| {
        os.set_timer(SimDuration::from_millis(5), 7);
        os.set_timer(SimDuration::from_millis(6), 7);
    });
    assert_eq!(fired, vec![7]);
}

#[test]
fn set_set_cancel_never_fires() {
    let fired = timer_requests(|os| {
        os.set_timer(SimDuration::from_millis(5), 7);
        os.set_timer(SimDuration::from_millis(6), 7);
        os.cancel_timer(7);
    });
    assert!(fired.is_empty(), "{fired:?}");
}

/// Arms its own token on start.
struct Armer {
    token: u64,
    fired: Arc<Mutex<Vec<u64>>>,
}

impl RoutingAgent for Armer {
    fn name(&self) -> &str {
        "armer"
    }
    fn start(&mut self, os: &mut NodeOs) {
        os.set_timer(SimDuration::from_millis(10), self.token);
    }
    fn on_frame(&mut self, _os: &mut NodeOs, _from: Address, _bytes: &[u8]) {}
    fn on_timer(&mut self, _os: &mut NodeOs, token: u64) {
        self.fired.lock().unwrap().push(token);
    }
    fn on_filter_event(&mut self, _os: &mut NodeOs, _event: FilterEvent) {}
}

#[test]
fn a_removed_agents_timers_never_reach_its_successor() {
    let mut w = World::builder().nodes(1).build();
    let fired = Arc::new(Mutex::new(Vec::new()));
    let armer = |token| {
        Box::new(Armer {
            token,
            fired: fired.clone(),
        })
    };
    w.install_agent(NodeId(0), armer(5));
    w.run_for(SimDuration::from_millis(2));
    assert!(w.remove_agent(NodeId(0)).is_some());
    w.install_agent(NodeId(0), armer(9));
    w.run_for(SimDuration::from_millis(30));
    assert_eq!(*fired.lock().unwrap(), vec![9]);
}

/// Broadcasts and re-arms token 1 every tick, and arms then cancels
/// token 2, so each tick leaves a cancelled timer behind.
struct Ticker;

impl RoutingAgent for Ticker {
    fn name(&self) -> &str {
        "ticker"
    }
    fn start(&mut self, os: &mut NodeOs) {
        os.set_timer(SimDuration::from_millis(10), 1);
    }
    fn on_frame(&mut self, _os: &mut NodeOs, _from: Address, _bytes: &[u8]) {}
    fn on_timer(&mut self, os: &mut NodeOs, _token: u64) {
        os.broadcast_control(b"tick".to_vec());
        os.set_timer(SimDuration::from_millis(10), 1);
        os.set_timer(SimDuration::from_millis(5), 2);
        os.cancel_timer(2);
    }
    fn on_filter_event(&mut self, _os: &mut NodeOs, _event: FilterEvent) {}
}

#[test]
fn controlled_deliveries_keep_the_kernel_bounded() {
    let mut w = World::builder()
        .topology(Topology::full(2))
        .controlled()
        .build();
    for i in 0..2 {
        w.install_agent(NodeId(i), Box::new(Ticker));
    }
    for step in 0..1_000 {
        w.run_controlled_infra();
        let next = w.pending_controlled()[0];
        // Every third arrival is lost instead of delivered.
        if next.class == PendingClass::Control && step % 3 == 0 {
            assert!(w.drop_controlled(&next));
        } else {
            assert!(w.deliver_controlled(&next));
        }
    }
    assert!(w.stats().control_lost > 100 && w.stats().control_received > 100);
    assert!(w.kern.len() <= 4, "{} pending", w.kern.len());
    assert!(w.kern.capacity() <= 8, "slab grew to {}", w.kern.capacity());
}

#[test]
fn no_route_buffers_and_reinjects() {
    let mut w = World::builder().topology(Topology::full(2)).seed(2).build();
    w.install_agent(NodeId(0), Box::new(Echo::new()));
    let dst = w.addr(NodeId(1));
    w.send_datagram(NodeId(0), dst, b"x".to_vec());
    w.run_for(SimDuration::from_millis(10));
    assert_eq!(w.stats().data_delivered, 0);
    assert_eq!(w.os(NodeId(0)).buffered_count(dst), 1);
    // Install a route and reinject, as a protocol would on ROUTE_FOUND.
    w.os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(dst, dst, 1);
    w.os_mut(NodeId(0)).reinject(dst);
    w.run_for(SimDuration::from_millis(10));
    assert_eq!(w.stats().data_delivered, 1);
    assert_eq!(w.os(NodeId(0)).buffered_count(dst), 0);
}

#[test]
fn multi_hop_forwarding_with_static_routes() {
    let mut w = World::builder().topology(Topology::line(3)).seed(4).build();
    let a2 = w.addr(NodeId(2));
    let a1 = w.addr(NodeId(1));
    w.os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(a2, a1, 2);
    w.os_mut(NodeId(1))
        .route_table_mut()
        .add_host_route(a2, a2, 1);
    w.send_datagram(NodeId(0), a2, b"hop".to_vec());
    w.run_for(SimDuration::from_millis(50));
    let s = w.stats();
    assert_eq!(s.data_delivered, 1);
    assert_eq!(s.data_hops, 2);
    assert!(s.mean_delivery_latency() > SimDuration::ZERO);
}

#[test]
fn ttl_limits_forwarding_loops() {
    let mut w = World::builder()
        .topology(Topology::full(2))
        .seed(5)
        .default_ttl(4)
        .build();
    let a0 = w.addr(NodeId(0));
    let a1 = w.addr(NodeId(1));
    let ghost = Address::v4([10, 9, 9, 9]);
    // Routing loop: each node points at the other for `ghost`.
    w.os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(ghost, a1, 1);
    w.os_mut(NodeId(1))
        .route_table_mut()
        .add_host_route(ghost, a0, 1);
    w.send_datagram(NodeId(0), ghost, b"loop".to_vec());
    w.run_for(SimDuration::from_secs(1));
    let s = w.stats();
    assert_eq!(s.data_delivered, 0);
    assert_eq!(s.data_dropped_ttl, 1);
    assert!(s.data_hops <= 4);
}

#[test]
fn link_change_breaks_connectivity() {
    let mut w = two_node_world();
    let dst = w.addr(NodeId(1));
    w.os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(dst, dst, 1);
    w.schedule_link_change(
        SimTime::from_micros(1),
        NodeId(0),
        NodeId(1),
        LinkState::Down,
    );
    w.run_for(SimDuration::from_millis(1));
    w.send_datagram(NodeId(0), dst, b"x".to_vec());
    w.run_for(SimDuration::from_millis(10));
    assert_eq!(w.stats().data_delivered, 0);
    assert_eq!(w.stats().data_dropped_link, 1);
}

#[test]
fn context_ticks_reach_agent() {
    let mut w = World::builder()
        .nodes(1)
        .context_interval(SimDuration::from_millis(100))
        .build();
    let echo = Echo::new();
    let observed = echo.observed();
    w.install_agent(NodeId(0), Box::new(echo));
    w.run_for(SimDuration::from_millis(450));
    // Ticks at 100/200/300/400 ms.
    assert_eq!(observed.lock().unwrap().contexts, 4);
}

#[test]
fn forward_failure_event_on_transit_without_route() {
    // 0 -> 1 -> 2, but node 1 has no route to node 2's address.
    let mut w = World::builder().topology(Topology::line(3)).seed(6).build();
    let echo = Echo::new();
    let observed = echo.observed();
    w.install_agent(NodeId(1), Box::new(echo));
    let a1 = w.addr(NodeId(1));
    let a2 = w.addr(NodeId(2));
    w.os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(a2, a1, 2);
    w.send_datagram(NodeId(0), a2, b"x".to_vec());
    w.run_for(SimDuration::from_millis(50));
    let obs = observed.lock().unwrap();
    assert!(
        obs.filter_events
            .iter()
            .any(|e| matches!(e, FilterEvent::ForwardFailure { dst, .. } if *dst == a2)),
        "transit node must raise ForwardFailure, got {:?}",
        obs.filter_events
    );
}

#[test]
fn deterministic_given_seed() {
    let run = |seed: u64| {
        let mut w = World::builder()
            .topology(Topology::random_geometric(10, 0.5, 9))
            .seed(seed)
            .link_model(LinkModel {
                loss: 0.3,
                ..LinkModel::default()
            })
            .build();
        for i in 0..10 {
            w.install_agent(NodeId(i), Box::new(Echo::new()));
        }
        for _ in 0..20 {
            w.os_mut(NodeId(0)).broadcast_control(vec![1, 2, 3]);
            w.run_for(SimDuration::from_millis(10));
        }
        let s = w.stats();
        (s.control_received, s.control_lost)
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11), run(12));
}

// ---- fault injection ---------------------------------------------------

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

#[test]
fn crash_suspends_node_and_reboot_restarts_it() {
    let plan = FaultPlan::builder(0)
        .crash_for(ms(5), NodeId(1), SimDuration::from_millis(10))
        .build();
    let mut w = World::builder()
        .topology(Topology::full(2))
        .seed(1)
        .fault_plan(plan)
        .build();
    let echo = Echo::new();
    let observed = echo.observed();
    w.install_agent(NodeId(1), Box::new(echo));
    let dst = w.addr(NodeId(1));
    let back = w.addr(NodeId(0));
    w.os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(dst, dst, 1);
    w.os_mut(NodeId(1))
        .route_table_mut()
        .add_host_route(back, back, 1);
    w.run_for(SimDuration::from_millis(4));
    assert!(w.node_up(NodeId(1)));
    w.run_for(SimDuration::from_millis(3)); // crash fires at 5 ms
    assert!(!w.node_up(NodeId(1)));
    assert!(
        w.os(NodeId(1)).route_table().is_empty(),
        "crash must flush the kernel route table"
    );
    w.send_datagram(NodeId(0), dst, b"x".to_vec());
    w.run_for(SimDuration::from_millis(3));
    assert_eq!(w.stats().data_delivered, 0, "crashed node receives nothing");
    w.run_for(SimDuration::from_millis(10)); // reboot fired at 15 ms
    assert!(w.node_up(NodeId(1)));
    w.send_datagram(NodeId(0), dst, b"y".to_vec());
    w.run_for(SimDuration::from_millis(10));
    let s = w.stats();
    assert_eq!(s.data_delivered, 1);
    assert_eq!(s.node_crashes, 1);
    assert_eq!(s.node_reboots, 1);
    let obs = observed.lock().unwrap();
    // The crash cancelled the pre-crash start timer (armed at 0, due at
    // 10 ms); only the post-reboot start's timer (due 25 ms) fires.
    assert_eq!(obs.timers, vec![1]);
}

#[test]
fn crash_drops_buffered_packets() {
    let plan = FaultPlan::builder(0).crash(ms(5), NodeId(0)).build();
    let mut w = World::builder()
        .topology(Topology::full(2))
        .seed(2)
        .fault_plan(plan)
        .build();
    w.install_agent(NodeId(0), Box::new(Echo::new()));
    let dst = w.addr(NodeId(1));
    // No route: the packet parks in the netfilter buffer, then the
    // crash flushes it.
    w.send_datagram(NodeId(0), dst, b"x".to_vec());
    w.run_for(SimDuration::from_millis(10));
    let s = w.stats();
    assert_eq!(s.data_dropped_crash, 1);
    assert_eq!(s.node_crashes, 1);
    assert_eq!(s.faults_injected, 1);
}

#[test]
fn partition_cuts_and_heals() {
    let plan = FaultPlan::builder(0)
        .partition(
            ms(5),
            ms(20),
            "split",
            vec![vec![NodeId(0)], vec![NodeId(1)]],
        )
        .build();
    let mut w = World::builder()
        .topology(Topology::full(2))
        .seed(3)
        .fault_plan(plan)
        .build();
    let dst = w.addr(NodeId(1));
    w.os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(dst, dst, 1);
    w.run_for(SimDuration::from_millis(6));
    assert_eq!(w.active_partitions(), vec!["split"]);
    w.send_datagram(NodeId(0), dst, b"cut".to_vec());
    w.run_for(SimDuration::from_millis(5));
    assert_eq!(w.stats().data_delivered, 0);
    assert_eq!(w.stats().data_dropped_link, 1);
    w.run_for(SimDuration::from_millis(10)); // heal fires at 20 ms
    assert!(w.active_partitions().is_empty());
    w.send_datagram(NodeId(0), dst, b"ok".to_vec());
    w.run_for(SimDuration::from_millis(10));
    let s = w.stats();
    assert_eq!(s.data_delivered, 1);
    assert_eq!(s.partitions_started, 1);
    assert_eq!(s.partitions_healed, 1);
}

#[test]
fn battery_exhaustion_downs_node_until_reboot() {
    let plan = FaultPlan::builder(0)
        .battery_exhaust(ms(5), NodeId(0))
        .reboot(ms(10), NodeId(0))
        .build();
    let mut w = World::builder().nodes(1).seed(4).fault_plan(plan).build();
    w.run_for(SimDuration::from_millis(7));
    assert!(!w.node_up(NodeId(0)));
    assert_eq!(w.os(NodeId(0)).battery_level(), 0.0);
    w.run_for(SimDuration::from_millis(7));
    assert!(w.node_up(NodeId(0)));
    assert!(
        w.os(NodeId(0)).battery_level() > 0.99,
        "reboot restores a fresh battery"
    );
    let s = w.stats();
    assert_eq!(s.battery_exhaustions, 1);
    assert_eq!(s.node_reboots, 1);
    assert_eq!(s.node_crashes, 0, "exhaustion is counted separately");
}

#[test]
fn chaos_corruption_drops_every_frame() {
    let plan = FaultPlan::builder(7)
        .chaos(FrameChaos {
            corrupt: 1.0,
            ..FrameChaos::default()
        })
        .build();
    let mut w = World::builder()
        .topology(Topology::full(2))
        .seed(5)
        .fault_plan(plan)
        .build();
    let dst = w.addr(NodeId(1));
    w.os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(dst, dst, 1);
    for _ in 0..5 {
        w.send_datagram(NodeId(0), dst, b"x".to_vec());
    }
    w.run_for(SimDuration::from_millis(20));
    let s = w.stats();
    assert_eq!(s.data_delivered, 0);
    assert_eq!(s.data_corrupted, 5);
}

#[test]
fn chaos_duplication_does_not_inflate_delivery() {
    let plan = FaultPlan::builder(7)
        .chaos(FrameChaos {
            duplicate: 1.0,
            ..FrameChaos::default()
        })
        .build();
    let mut w = World::builder()
        .topology(Topology::full(2))
        .seed(6)
        .fault_plan(plan)
        .build();
    let dst = w.addr(NodeId(1));
    w.os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(dst, dst, 1);
    for _ in 0..5 {
        w.send_datagram(NodeId(0), dst, b"x".to_vec());
    }
    w.run_for(SimDuration::from_millis(20));
    let s = w.stats();
    assert_eq!(s.data_delivered, 5, "duplicates must not inflate delivery");
    assert_eq!(s.data_duplicated, 5);
    assert_eq!(s.data_dup_delivered, 5);
    assert_eq!(s.delivery_latencies_us.len(), 5);
}

#[test]
fn reboot_factory_replaces_agent_cold() {
    let plan = FaultPlan::builder(0)
        .crash_for(ms(5), NodeId(0), SimDuration::from_millis(1))
        .build();
    let mut w = World::builder().nodes(1).seed(7).fault_plan(plan).build();
    let old = Echo::new();
    let old_obs = old.observed();
    w.install_agent(NodeId(0), Box::new(old));
    let replacements: Arc<Mutex<Vec<Arc<Mutex<Observed>>>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = replacements.clone();
    w.set_reboot_factory(NodeId(0), move || {
        let e = Echo::new();
        sink.lock().unwrap().push(e.observed());
        Box::new(e)
    });
    w.run_for(SimDuration::from_millis(30));
    assert!(
        old_obs.lock().unwrap().timers.is_empty(),
        "the replaced agent's timer must never fire"
    );
    let spawned = replacements.lock().unwrap();
    assert_eq!(spawned.len(), 1, "one reboot builds one fresh agent");
    assert_eq!(spawned[0].lock().unwrap().timers, vec![1]);
}

#[test]
fn stats_window_isolates_traffic_phases() {
    let mut w = two_node_world();
    let dst = w.addr(NodeId(1));
    w.os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(dst, dst, 1);
    let mut window = w.stats_window();
    w.send_datagram(NodeId(0), dst, b"a".to_vec());
    w.run_for(SimDuration::from_millis(10));
    let w1 = window.advance(&w);
    assert_eq!(w1.data_sent, 1);
    assert_eq!(w1.data_delivered, 1);
    w.send_datagram(NodeId(0), dst, b"b".to_vec());
    w.send_datagram(NodeId(0), dst, b"c".to_vec());
    w.run_for(SimDuration::from_millis(10));
    let w2 = window.advance(&w);
    assert_eq!(w2.data_sent, 2);
    assert_eq!(w2.data_delivered, 2);
    assert_eq!(w2.delivery_latencies_us.len(), 2);
}

#[test]
fn fault_plan_runs_are_deterministic() {
    let run = || {
        let plan = FaultPlan::builder(21)
            .churn(
                vec![NodeId(0), NodeId(1), NodeId(2)],
                SimDuration::from_millis(40),
                SimDuration::from_millis(15),
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_millis(400),
            )
            .chaos(FrameChaos {
                corrupt: 0.1,
                duplicate: 0.1,
                reorder: 0.2,
                ..FrameChaos::default()
            })
            .build();
        let mut w = World::builder()
            .topology(Topology::full(4))
            .seed(9)
            .link_model(LinkModel {
                loss: 0.1,
                ..LinkModel::default()
            })
            .fault_plan(plan)
            .build();
        let dst = w.addr(NodeId(3));
        for i in 0..3 {
            w.os_mut(NodeId(i))
                .route_table_mut()
                .add_host_route(dst, dst, 1);
        }
        for k in 0..40u64 {
            w.send_datagram(NodeId((k % 3) as usize), dst, vec![k as u8]);
            w.run_for(SimDuration::from_millis(10));
        }
        w.stats()
    };
    assert_eq!(run(), run(), "same seeds, byte-identical statistics");
}

// ---- send-record settlement (leak regression) --------------------------

#[test]
fn ttl_drops_settle_send_records() {
    let mut w = World::builder()
        .topology(Topology::full(2))
        .seed(5)
        .default_ttl(4)
        .build();
    let a0 = w.addr(NodeId(0));
    let a1 = w.addr(NodeId(1));
    let ghost = Address::v4([10, 9, 9, 9]);
    w.os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(ghost, a1, 1);
    w.os_mut(NodeId(1))
        .route_table_mut()
        .add_host_route(ghost, a0, 1);
    for _ in 0..5 {
        w.send_datagram(NodeId(0), ghost, b"loop".to_vec());
    }
    w.run_for(SimDuration::from_secs(1));
    assert_eq!(w.stats().data_dropped_ttl, 5);
    assert_eq!(
        w.outstanding_sends(),
        0,
        "every looped packet must settle its send record"
    );
}

#[test]
fn geo_dead_end_drops_settle_send_records() {
    let positions = vec![(0.05, 0.5), (0.30, 0.5), (0.95, 0.5)];
    let mut w = World::builder()
        .topology(Topology::spatial(positions, 0.3))
        .seed(1)
        .geo_routing(true)
        .build();
    let dst = w.addr(NodeId(2));
    for _ in 0..4 {
        w.send_datagram(NodeId(0), dst, b"x".to_vec());
    }
    w.run_for(SimDuration::from_millis(100));
    assert_eq!(w.stats().data_delivered, 0);
    assert_eq!(w.outstanding_sends(), 0, "dead-end drops must settle");
}

#[test]
fn crash_flush_settles_buffered_send_records() {
    let plan = FaultPlan::builder(0).crash(ms(5), NodeId(0)).build();
    let mut w = World::builder()
        .topology(Topology::full(2))
        .seed(2)
        .fault_plan(plan)
        .build();
    w.install_agent(NodeId(0), Box::new(Echo::new()));
    let dst = w.addr(NodeId(1));
    // No route: the packet parks in the netfilter buffer.
    w.send_datagram(NodeId(0), dst, b"x".to_vec());
    w.run_for(SimDuration::from_millis(2));
    assert_eq!(w.outstanding_sends(), 1, "buffered packet is in flight");
    w.run_for(SimDuration::from_millis(10));
    assert_eq!(w.stats().data_dropped_crash, 1);
    assert_eq!(w.outstanding_sends(), 0, "crash flush must settle");
}

#[test]
fn duplicated_copies_settle_to_empty_map() {
    let plan = FaultPlan::builder(7)
        .chaos(FrameChaos {
            duplicate: 1.0,
            ..FrameChaos::default()
        })
        .build();
    let mut w = World::builder()
        .topology(Topology::line(3))
        .seed(6)
        .fault_plan(plan)
        .build();
    let a2 = w.addr(NodeId(2));
    let a1 = w.addr(NodeId(1));
    w.os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(a2, a1, 2);
    w.os_mut(NodeId(1))
        .route_table_mut()
        .add_host_route(a2, a2, 1);
    for _ in 0..6 {
        w.send_datagram(NodeId(0), a2, b"x".to_vec());
    }
    w.run_for(SimDuration::from_millis(100));
    let s = w.stats();
    assert_eq!(s.data_delivered, 6);
    assert!(s.data_dup_delivered > 0, "duplication must be exercised");
    assert_eq!(
        w.outstanding_sends(),
        0,
        "every duplicated copy must settle the shared record"
    );
}

// ---- geographic forwarding --------------------------------------------

#[test]
fn geo_routing_delivers_multi_hop_without_agents() {
    let positions = vec![(0.05, 0.5), (0.30, 0.5), (0.55, 0.5), (0.80, 0.5)];
    let mut w = World::builder()
        .topology(Topology::spatial(positions, 0.3))
        .seed(1)
        .geo_routing(true)
        .build();
    let dst = w.addr(NodeId(3));
    w.send_datagram(NodeId(0), dst, b"geo".to_vec());
    w.run_for(SimDuration::from_millis(100));
    let s = w.stats();
    assert_eq!(s.data_delivered, 1);
    assert_eq!(s.data_hops, 3, "greedy forwarding walks the line");
    assert_eq!(s.control_frames, 0, "no agents, no control traffic");
}

#[test]
fn geo_routing_drops_at_dead_end() {
    // Node 1 is the closest to the destination among node 0's
    // neighbours, but the destination is out of node 1's range and no
    // neighbour of node 1 is strictly closer: a greedy local minimum.
    let positions = vec![(0.05, 0.5), (0.30, 0.5), (0.95, 0.5)];
    let mut w = World::builder()
        .topology(Topology::spatial(positions, 0.3))
        .seed(1)
        .geo_routing(true)
        .build();
    let dst = w.addr(NodeId(2));
    w.send_datagram(NodeId(0), dst, b"x".to_vec());
    w.run_for(SimDuration::from_millis(100));
    let s = w.stats();
    assert_eq!(s.data_delivered, 0);
    assert!(s.data_dropped_link >= 1, "dead end counts as a link drop");
}

#[test]
fn scheduled_moves_change_geo_reachability() {
    // The destination starts out of radio range; a scheduled move
    // brings it adjacent, flipping geo reachability mid-run.
    let positions = vec![(0.1, 0.5), (0.9, 0.5)];
    let mut w = World::builder()
        .topology(Topology::spatial(positions, 0.3))
        .seed(1)
        .geo_routing(true)
        .build();
    let dst = w.addr(NodeId(1));
    // Early send: endpoints are 0.8 apart, unreachable.
    w.send_datagram(NodeId(0), dst, b"early".to_vec());
    w.run_for(SimDuration::from_millis(5));
    assert_eq!(w.stats().data_delivered, 0);
    // Move node 1 adjacent to node 0, then send again.
    w.schedule_node_move(
        SimTime::ZERO + SimDuration::from_millis(10),
        NodeId(1),
        0.3,
        0.5,
    );
    w.send_datagram_at(
        SimTime::ZERO + SimDuration::from_millis(20),
        NodeId(0),
        dst,
        b"late".to_vec(),
    );
    w.run_for(SimDuration::from_millis(100));
    assert_eq!(w.stats().data_delivered, 1, "post-move send is deliverable");
    assert_eq!(w.topology().position(NodeId(1)), Some((0.3, 0.5)));
}

// ---- addressing ---------------------------------------------------------

#[test]
fn node_addresses_round_trip_over_the_whole_plan() {
    let mut previous = None;
    for i in 0..builder::MAX_NODES {
        let addr = builder::node_address(i);
        assert_eq!(builder::address_node(addr), Some(i), "{addr}");
        assert!(previous < Some(addr), "addresses ascend with the index");
        previous = Some(addr);
    }
    assert_eq!(builder::MAX_NODES, 64_000);
    assert_eq!(
        builder::node_address(63_999),
        Address::v4([10, 0, 255, 250])
    );
}

#[test]
fn node_of_rejects_addresses_the_plan_never_assigns() {
    let w = World::builder().nodes(300).build();
    assert_eq!(w.node_of(Address::v4([10, 0, 1, 50])), Some(NodeId(299)));
    for stranger in [
        Address::v4([10, 0, 0, 0]), // host numbers start at 1
        Address::v4([10, 0, 1, 0]),
        Address::v4([10, 0, 0, 251]), // and stop at 250
        Address::v4([10, 0, 1, 255]),
        Address::v4([10, 1, 0, 1]),
        Address::v4([11, 0, 0, 1]),
        Address::v6([0; 16]),
        Address::v6([10, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
        Address::v4([10, 0, 1, 51]), // node 300 of a 300-node world
        Address::v4([10, 0, 200, 7]),
    ] {
        assert_eq!(w.node_of(stranger), None, "{stranger}");
    }
    for id in w.node_ids() {
        assert_eq!(w.node_of(w.addr(id)), Some(id));
    }
}

#[test]
#[should_panic(expected = "at most 64000 nodes")]
fn worlds_beyond_the_address_plan_are_rejected() {
    // 64,001 nodes would alias 10.0.0.1; refused before anything is built.
    let _ = World::builder().nodes(builder::MAX_NODES + 1).build();
}

// ---- hop budget ---------------------------------------------------------

/// A relay line 0 → 1 → 2 with host routes; one datagram from node 0 under
/// `ttl`, run to quiescence.
fn relay_line(ttl: u8) -> World {
    let mut w = World::builder()
        .topology(Topology::line(3))
        .seed(2)
        .default_ttl(ttl)
        .build();
    let (a1, a2) = (w.addr(NodeId(1)), w.addr(NodeId(2)));
    w.os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(a2, a1, 2);
    w.os_mut(NodeId(1))
        .route_table_mut()
        .add_host_route(a2, a2, 1);
    w.send_datagram(NodeId(0), a2, b"budget".to_vec());
    w.run_for(SimDuration::from_millis(100));
    assert_eq!(w.outstanding_sends(), 0);
    w
}

#[test]
fn a_packet_on_its_last_hop_budget_is_dropped_for_ttl() {
    // TTL 1 (and 0) cannot leave the sender; TTL 2 reaches the relay with
    // one left and dies there; TTL 3 arrives.
    for (ttl, hops) in [(0, 0), (1, 0), (2, 1)] {
        let s = relay_line(ttl).stats();
        assert_eq!(
            (s.data_dropped_ttl, s.data_hops, s.data_delivered),
            (1, hops, 0),
            "ttl {ttl}"
        );
        assert_eq!(s.data_dropped_link, 0);
    }
    let s = relay_line(3).stats();
    assert_eq!(
        (s.data_dropped_ttl, s.data_hops, s.data_delivered),
        (0, 2, 1)
    );
}

// ---- send window --------------------------------------------------------

#[test]
fn send_records_settle_in_any_order() {
    // Scheduled datagrams are minted in one order and enter the network in
    // another: ids 1..=6, injected 5, 2, 6, 1, 4, 3.
    let mut w = World::builder().topology(Topology::full(2)).seed(9).build();
    let dst = w.addr(NodeId(1));
    w.os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(dst, dst, 1);
    for at_ms in [40, 20, 60, 10, 50, 30] {
        w.send_datagram_at(ms(at_ms), NodeId(0), dst, vec![at_ms as u8]);
    }
    let mut seen = Vec::new();
    while w.step().is_some() {
        seen.push(w.outstanding_sends());
    }
    assert_eq!(w.stats().data_delivered, 6);
    assert_eq!(seen.iter().max(), Some(&1), "one in flight at a time");
    assert_eq!(w.outstanding_sends(), 0);
    assert_eq!(w.stats().delivery_latencies_us.len(), 6);
}

#[test]
fn reset_stats_forgets_packets_in_flight() {
    let mut w = World::builder().topology(Topology::full(2)).seed(9).build();
    let dst = w.addr(NodeId(1));
    w.os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(dst, dst, 1);
    w.send_datagram(NodeId(0), dst, b"before".to_vec());
    w.send_datagram_at(ms(50), NodeId(0), dst, b"after".to_vec());
    w.step(); // the first datagram is on the air
    assert_eq!(w.outstanding_sends(), 1);
    w.reset_stats();
    assert_eq!(w.outstanding_sends(), 0);
    w.run_for(SimDuration::from_millis(100));
    // The copy in flight at the reset arrives unrecorded; the later one is
    // accounted in full.
    let s = w.stats();
    assert_eq!((s.data_sent, s.data_delivered), (1, 2));
    assert_eq!(s.delivery_latencies_us.len(), 1);
    assert_eq!(w.outstanding_sends(), 0);
}

#[test]
fn stats_sum_agent_counters_across_nodes() {
    let mut w = World::builder().nodes(3).build();
    w.os_mut(NodeId(0)).bump_by("rreq", 2);
    w.os_mut(NodeId(2)).bump_by("rreq", 5);
    w.os_mut(NodeId(1)).bump("hello");
    let s = w.stats();
    assert_eq!(s.agent_counters.len(), 2);
    assert_eq!((s.agent_counter("rreq"), s.agent_counter("hello")), (7, 1));
}

#[test]
fn a_stream_holds_one_kernel_entry_and_counts_what_it_reserved() {
    use crate::mobility::{RandomWaypoint, Walk};
    use crate::traffic::{install_cbr, CbrFlow};

    let params = RandomWaypoint {
        nodes: 20,
        duration: SimDuration::from_secs(10),
        seed: 2,
        ..RandomWaypoint::default()
    };
    let mut w = World::builder()
        .topology(crate::mobility::random_waypoint_field(params).initial)
        .geo_routing(true)
        .build();
    w.install_walk(Walk::new(params));
    let dst = w.addr(NodeId(19));
    install_cbr(&mut w, &CbrFlow::small(NodeId(0), dst, ms(100), 20));
    assert_eq!((w.kern.len(), w.pending_events()), (2, 10 + 20));
    w.run_until(ms(2_050));
    // The steps at 1 s and 2 s and the sends at 0.1 s, 0.35 s, …, 1.85 s
    // have fired.
    assert_eq!((w.kern.len(), w.pending_events()), (2, 8 + 12));
    w.run_until(ms(20_000));
    assert_eq!((w.kern.len(), w.pending_events()), (0, 0));
    assert_eq!(w.stats().data_sent, 20);
}
