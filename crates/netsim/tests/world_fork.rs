//! `World::fork`: a fork is the world's exact twin, and the two are
//! independent. Fed the same scheduling choices, a controlled world and its
//! fork list the same pending events under the same handles, count the
//! same statistics and (with the flight recorder) write the same trace;
//! whatever one of them delivers, drops or crashes, the other never sees.

use netsim::{
    NodeId, NodeOs, PendingClass, PendingEvent, RoutingAgent, SimDuration, Topology, World,
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
