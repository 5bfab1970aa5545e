//! `World::fork`: a fork is the world's exact twin, and the two are
//! independent. Fed the same scheduling choices, a controlled world and its
//! fork list the same pending events under the same handles, count the
//! same statistics and (with the flight recorder) write the same trace;
//! whatever one of them delivers, drops or crashes, the other never sees.
//! Forks share their agents copy-on-write: a fork copies an agent only to
//! learn that it forks, and every write path copies only the node it
//! writes, only while another world still shares it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use netsim::fault::FaultPlan;
use netsim::{
    Channel, DataPacket, FilterEvent, NodeId, NodeOs, PendingClass, PendingEvent, PhyModel,
    RoutingAgent, SimDuration, SimTime, Topology, World,
};
use packetbb::Address;

/// Broadcasts on start and on every timer, and counts what it hears.
#[derive(Clone)]
struct Chatty {
    heard: u32,
}

impl RoutingAgent for Chatty {
    fn name(&self) -> &str {
        "chatty"
    }
    fn start(&mut self, os: &mut NodeOs) {
        os.broadcast_control(b"hello".to_vec());
        os.set_timer(SimDuration::from_millis(700), 1);
    }
    fn on_timer(&mut self, os: &mut NodeOs, _token: u64) {
        os.bump("chatty.timer");
        os.broadcast_control(vec![b'h'; 5 + self.heard as usize % 7]);
        os.set_timer(SimDuration::from_millis(700), 1);
    }
    fn on_frame(&mut self, os: &mut NodeOs, _from: Address, _bytes: &[u8]) {
        self.heard += 1;
        os.bump("chatty.rx");
    }
    fn on_filter_event(&mut self, _os: &mut NodeOs, _event: netsim::FilterEvent) {}
    fn fork(&self) -> Option<Box<dyn RoutingAgent>> {
        Some(Box::new(self.clone()))
    }
}

/// Hears nothing and cannot fork.
struct Opaque;

impl RoutingAgent for Opaque {
    fn name(&self) -> &str {
        "opaque"
    }
    fn start(&mut self, _os: &mut NodeOs) {}
    fn on_timer(&mut self, _os: &mut NodeOs, _token: u64) {}
    fn on_frame(&mut self, _os: &mut NodeOs, _from: Address, _bytes: &[u8]) {}
    fn on_filter_event(&mut self, _os: &mut NodeOs, _event: netsim::FilterEvent) {}
}

fn controlled_trio() -> World {
    let builder = World::builder()
        .topology(Topology::full(3))
        .seed(5)
        .controlled();
    #[cfg(feature = "trace")]
    let builder = builder.trace(1 << 10);
    let mut world = builder.build();
    for i in 0..3 {
        world.install_agent(NodeId(i), Box::new(Chatty { heard: 0 }));
    }
    world.run_controlled_infra();
    world
}

/// One scheduling choice, picked from the pending list by step number:
/// mostly deliveries, sometimes a drop.
fn choose(world: &mut World, step: usize) {
    let pending = world.pending_controlled();
    let choosable: Vec<PendingEvent> = pending
        .into_iter()
        .filter(|e| e.class != PendingClass::Infra)
        .collect();
    let event = choosable[step * 7 % choosable.len()];
    if step % 5 == 4 && event.class == PendingClass::Control {
        assert!(world.drop_controlled(&event));
    } else {
        assert!(world.deliver_controlled(&event));
    }
    world.run_controlled_infra();
}

/// Everything a scheduler or an observer can read of a world.
fn snapshot(world: &World) -> String {
    let mut out = format!("{:?}\n{:?}\n", world.pending_controlled(), world.stats());
    #[cfg(feature = "trace")]
    out.push_str(&world.trace_jsonl());
    for i in 0..3 {
        let heard = world.agent::<Chatty>(NodeId(i)).map(|a| a.heard);
        out.push_str(&format!(
            "{i}: up {} heard {heard:?}\n",
            world.node_up(NodeId(i))
        ));
    }
    out
}

#[test]
fn a_fork_fed_the_same_choices_stays_identical() {
    let mut world = controlled_trio();
    for step in 0..12 {
        choose(&mut world, step);
    }
    let mut fork = world.fork().expect("every agent forks");
    assert_eq!(snapshot(&fork), snapshot(&world), "forked state");
    for step in 12..60 {
        choose(&mut world, step);
        choose(&mut fork, step);
        assert_eq!(snapshot(&fork), snapshot(&world), "step {step}");
    }
    assert!(world.stats().control_received > 20 && world.stats().control_lost > 0);
    // A fork of a fork is a twin too.
    let mut again = fork.fork().expect("every agent forks");
    choose(&mut again, 60);
    choose(&mut world, 60);
    assert_eq!(snapshot(&again), snapshot(&world));
}

#[test]
fn what_a_fork_does_leaves_its_parent_untouched() {
    let mut world = controlled_trio();
    for step in 0..9 {
        choose(&mut world, step);
    }
    let before = snapshot(&world);
    let frame = |w: &World| {
        w.pending_controlled()
            .into_iter()
            .find(|e| e.class == PendingClass::Control)
            .expect("a frame in flight")
    };

    // A delivery: the fork's receiver hears one more frame.
    let mut fork = world.fork().expect("every agent forks");
    let event = frame(&fork);
    assert!(fork.deliver_controlled(&event));
    let heard = |w: &World| w.agent::<Chatty>(event.node).map(|a| a.heard);
    assert_eq!(heard(&fork), heard(&world).map(|h| h + 1));
    assert_eq!(snapshot(&world), before, "a delivery in the fork");
    // The parent still holds the same event under the same handle.
    assert!(world.pending_controlled().contains(&event));

    // A drop.
    let mut fork = world.fork().expect("every agent forks");
    assert!(fork.drop_controlled(&frame(&fork)));
    assert_eq!(snapshot(&world), before, "a drop in the fork");

    // A crash, and then a reboot.
    let mut fork = world.fork().expect("every agent forks");
    fork.force_crash(NodeId(1));
    assert!(!fork.node_up(NodeId(1)));
    assert_eq!(snapshot(&world), before, "a crash in the fork");
    fork.force_reboot(NodeId(1));
    assert_eq!(snapshot(&world), before, "a reboot in the fork");

    // And the other way round: the parent moves, the fork stays.
    let fork = world.fork().expect("every agent forks");
    let forked = snapshot(&fork);
    world.force_crash(NodeId(2));
    choose(&mut world, 9);
    assert_eq!(snapshot(&fork), forked, "the parent moved on");
}

/// Four agentless senders share one airtime domain at 115.2 kb/s (a
/// 144-byte frame takes 10 ms alone); node 1 crashes at 75 ms with a frame
/// on the air and more queued.
fn contended_air() -> World {
    let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
    let builder = World::builder()
        .topology(Topology::full(5))
        .seed(3)
        .phy(PhyModel::SharedAirtime(Channel {
            bits_per_sec: 115_200,
            queue_frames: 4,
        }))
        .fault_plan(FaultPlan::builder(9).crash(ms(75), NodeId(1)).build());
    #[cfg(feature = "trace")]
    let builder = builder.trace(1 << 10);
    let mut world = builder.build();
    let dst = world.addr(NodeId(4));
    for src in 0..4 {
        let os = world.os_mut(NodeId(src));
        os.route_table_mut().add_host_route(dst, dst, 1);
        for k in 0..6 {
            let at = ms(k * 7 + src as u64 * 2);
            world.send_datagram_at(at, NodeId(src), dst, vec![0; 100]);
        }
    }
    world
}

#[test]
fn a_fork_mid_contention_on_shared_airtime_runs_on_identically() {
    let mut world = contended_air();
    world.run_until(SimTime::ZERO + SimDuration::from_millis(52));
    assert!(world.stats().phy_frames_tx > 0, "frames have left the air");
    // The fork holds the handles of the original's pending deadlines, so
    // each deadline it reissues cancels its own copy of the old event (a
    // superseded deadline that fired would trip `World::phy_complete`'s
    // debug assertion).
    let mut fork = world.fork().expect("agentless worlds fork");
    assert_eq!(fork.pending_events(), world.pending_events());
    for w in [&mut world, &mut fork] {
        w.run_for(SimDuration::from_secs(2));
    }
    let (ours, theirs) = (world.stats().canonical(), fork.stats().canonical());
    assert_eq!(ours.first_difference(&theirs), None);
    assert!(ours.data_dropped_crash > 0, "{ours:?}");
    #[cfg(feature = "trace")]
    assert_eq!(fork.trace_jsonl(), world.trace_jsonl());
}

#[test]
fn the_typed_accessor_finds_only_its_type_and_a_copyless_agent_blocks_the_fork() {
    let mut world = World::builder().nodes(2).controlled().build();
    world.install_agent(NodeId(0), Box::new(Chatty { heard: 3 }));
    world.install_agent(NodeId(1), Box::new(Opaque));
    assert_eq!(world.agent::<Chatty>(NodeId(0)).map(|a| a.heard), Some(3));
    assert!(world.agent::<Chatty>(NodeId(1)).is_none());
    assert!(world.agent::<Opaque>(NodeId(1)).is_some());
    world
        .agent_mut::<Chatty>(NodeId(0))
        .expect("a chatty agent")
        .heard = 4;
    assert_eq!(world.agent::<Chatty>(NodeId(0)).map(|a| a.heard), Some(4));
    assert!(world.fork().is_none(), "Opaque keeps the default fork");
    world.remove_agent(NodeId(1));
    assert!(world.fork().is_some());
}

/// Logs every callback it gets, and counts its copies in a counter all its
/// copies share.
#[derive(Clone)]
struct Logged {
    log: Vec<&'static str>,
    copies: Arc<AtomicUsize>,
}

impl RoutingAgent for Logged {
    fn name(&self) -> &str {
        "logged"
    }
    fn start(&mut self, os: &mut NodeOs) {
        self.log.push("start");
        os.broadcast_control(b"hello".to_vec());
        os.set_timer(SimDuration::from_millis(700), 1);
    }
    fn on_frame(&mut self, _os: &mut NodeOs, _from: Address, _bytes: &[u8]) {
        self.log.push("frame");
    }
    fn on_timer(&mut self, _os: &mut NodeOs, _token: u64) {
        self.log.push("timer");
    }
    fn on_filter_event(&mut self, _os: &mut NodeOs, _event: FilterEvent) {
        self.log.push("filter");
    }
    fn inspect_packet(&mut self, _os: &mut NodeOs, _packet: &DataPacket) -> bool {
        self.log.push("inspect");
        true
    }
    fn stop(&mut self, _os: &mut NodeOs) {
        self.log.push("stop");
    }
    fn on_crash(&mut self, _os: &mut NodeOs) {
        self.log.push("crash");
    }
    fn fork(&self) -> Option<Box<dyn RoutingAgent>> {
        self.copies.fetch_add(1, Ordering::Relaxed);
        Some(Box::new(self.clone()))
    }
}

fn logged(copies: &Arc<AtomicUsize>) -> Box<dyn RoutingAgent> {
    Box::new(Logged {
        log: Vec::new(),
        copies: Arc::clone(copies),
    })
}

/// A controlled, started three-node world of `Logged` agents, and each
/// node's copy counter.
fn logged_trio() -> (World, [Arc<AtomicUsize>; 3]) {
    let mut world = World::builder()
        .topology(Topology::full(3))
        .seed(9)
        .controlled()
        .build();
    let copies: [Arc<AtomicUsize>; 3] = Default::default();
    for (i, copies) in copies.iter().enumerate() {
        world.install_agent(NodeId(i), logged(copies));
    }
    world.run_controlled_infra();
    (world, copies)
}

type Log = Option<Vec<&'static str>>;

/// `log` with `entries` appended (`None` while the node has no agent).
fn then(log: Log, entries: &[&'static str]) -> Log {
    let mut log = log?;
    log.extend(entries);
    Some(log)
}

/// Every node's log (`None` without a `Logged` agent).
fn logs(world: &World) -> Vec<Log> {
    world
        .node_ids()
        .map(|n| world.agent::<Logged>(n).map(|a| a.log.clone()))
        .collect()
}

fn poke(world: &mut World, node: usize) {
    world
        .agent_mut::<Logged>(NodeId(node))
        .expect("a logged agent")
        .log
        .push("poke");
}

#[test]
fn forks_share_the_agents_and_a_write_copies_only_its_node() {
    let (mut world, copies) = logged_trio();
    let copied = || copies.each_ref().map(|c| c.load(Ordering::Relaxed));
    // The first fork since the agents were written copies each of them
    // once, to learn that it forks, and keeps the copy as a spare.
    let mut a = world.fork().expect("every agent forks");
    assert_eq!(copied(), [1, 1, 1]);
    // Later forks, forks of forks and reads copy nothing.
    let mut b = world.fork().expect("every agent forks");
    let mut c = a.fork().expect("every agent forks");
    let base = logs(&world);
    for w in [&a, &b, &c] {
        assert_eq!(logs(w), base);
    }
    assert_eq!(copied(), [1, 1, 1]);
    // The first world to write node 1 takes the spare; every other world
    // writing it while it is shared copies that node alone, once.
    poke(&mut a, 1);
    assert_eq!(copied(), [1, 1, 1]);
    poke(&mut a, 1);
    poke(&mut b, 1);
    assert_eq!(copied(), [1, 2, 1]);
    poke(&mut world, 1);
    assert_eq!(copied(), [1, 3, 1]);
    // `c` is the last world holding the original: it writes in place.
    poke(&mut c, 1);
    assert_eq!(copied(), [1, 3, 1]);
    let node_1 = |w: &World| logs(w).swap_remove(1);
    let once = then(base[1].clone(), &["poke"]);
    assert_eq!(node_1(&a), then(once.clone(), &["poke"]));
    for w in [&world, &b, &c] {
        assert_eq!(node_1(w), once);
    }
    // Once every fork is gone, the parent writes in place.
    drop((a, b, c));
    poke(&mut world, 0);
    poke(&mut world, 2);
    assert_eq!(copied(), [1, 3, 1]);
    // And a write made since the last fork makes the next one check again.
    let _d = world.fork().expect("every agent forks");
    assert_eq!(copied(), [2, 4, 2]);
}

/// Delivers the first live pending event of `class`.
fn deliver_first(world: &mut World, class: PendingClass) {
    let event = world
        .pending_controlled()
        .into_iter()
        .find(|e| e.class == class && e.live)
        .expect("a live event of the class");
    assert!(world.deliver_controlled(&event));
    world.run_controlled_infra();
}

/// One way to write an agent: its name, the node it writes, what it makes
/// of that node's log, and the write itself.
type WritePath = (&'static str, usize, fn(Log) -> Log, fn(&mut World));

const WRITE_PATHS: [WritePath; 9] = [
    (
        "frame",
        1,
        |log| then(log, &["frame"]),
        |w| {
            deliver_first(w, PendingClass::Control);
        },
    ),
    (
        "timer",
        1,
        |log| then(log, &["timer"]),
        |w| {
            deliver_first(w, PendingClass::Timer);
        },
    ),
    // The datagram node 0 forwarded to node 1 for node 2: node 1 has no
    // route on, so its arrival raises a forwarding failure, with no
    // inspection first.
    (
        "filter",
        1,
        |log| then(log, &["filter"]),
        |w| {
            deliver_first(w, PendingClass::Data);
        },
    ),
    // A datagram node 1 sends has no route either: a filter event follows.
    (
        "inspect",
        1,
        |log| then(log, &["inspect", "filter"]),
        |w| {
            w.send_datagram(NodeId(1), w.addr(NodeId(0)), b"x".to_vec());
            w.run_controlled_infra();
        },
    ),
    (
        "crash",
        1,
        |log| then(log, &["crash"]),
        |w| {
            w.force_crash(NodeId(1));
        },
    ),
    // Node 2 is down, and its agent restarts.
    (
        "reboot",
        2,
        |log| then(log, &["start"]),
        |w| {
            w.force_reboot(NodeId(2));
            w.run_controlled_infra();
        },
    ),
    // Node 0 is down, and its factory gives it a fresh agent.
    (
        "reboot with a factory",
        0,
        |_| Some(vec!["start"]),
        |w| {
            w.force_reboot(NodeId(0));
            w.run_controlled_infra();
        },
    ),
    ("agent_mut", 1, |log| then(log, &["poke"]), |w| poke(w, 1)),
    (
        "remove_agent",
        1,
        |_| None,
        |w| drop(w.remove_agent(NodeId(1))),
    ),
];

#[test]
fn no_write_path_reaches_another_world() {
    let (mut world, copies) = logged_trio();
    // A datagram in flight from node 0 to node 1, addressed to node 2.
    let (dst, via) = (world.addr(NodeId(2)), world.addr(NodeId(1)));
    world
        .os_mut(NodeId(0))
        .route_table_mut()
        .add_host_route(dst, via, 1);
    world.send_datagram(NodeId(0), dst, b"via 1".to_vec());
    world.run_controlled_infra();
    world.force_crash(NodeId(2));
    world.force_crash(NodeId(0));
    let fresh = Arc::clone(&copies[0]);
    world.set_reboot_factory(NodeId(0), move || logged(&fresh));
    let original = logs(&world);

    for (name, node, written, write) in WRITE_PATHS {
        // A fork, a fork of it and a fork of that: each writes in turn,
        // and the other two stay as they were.
        for writer in 0..3 {
            let parent = world.fork().expect("every agent forks");
            let fork = parent.fork().expect("every agent forks");
            let again = fork.fork().expect("every agent forks");
            let mut worlds = [parent, fork, again];
            write(&mut worlds[writer]);
            for (i, w) in worlds.iter().enumerate() {
                let mut expected = original.clone();
                if i == writer {
                    expected[node] = written(expected[node].take());
                }
                assert_eq!(logs(w), expected, "{name} in world {writer}, seen from {i}");
            }
        }
    }
    assert_eq!(logs(&world), original);
}
