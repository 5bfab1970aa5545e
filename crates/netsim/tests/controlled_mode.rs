//! Controlled-delivery mode: the seam the `mcheck` bounded model checker
//! drives. The world stops firing events for itself; every pending kernel
//! event is visible and individually deliverable or droppable.

use netsim::{NodeId, NodeOs, PendingClass, RoutingAgent, SimDuration, Topology, World};
use packetbb::Address;

/// Minimal agent: broadcasts one hello on start, re-arms a periodic timer,
/// counts received frames.
struct Chatty {
    period: SimDuration,
}

impl RoutingAgent for Chatty {
    fn name(&self) -> &str {
        "chatty"
    }
    fn start(&mut self, os: &mut NodeOs) {
        os.broadcast_control(b"hello".to_vec());
        os.set_timer(self.period, 1);
    }
    fn on_timer(&mut self, os: &mut NodeOs, _token: u64) {
        os.bump("chatty.timer");
        os.broadcast_control(b"hello".to_vec());
        os.set_timer(self.period, 1);
    }
    fn on_frame(&mut self, os: &mut NodeOs, _from: Address, bytes: &[u8]) {
        os.bump("chatty.rx");
        if bytes == b"quiet" {
            os.cancel_timer(1);
        }
    }
    fn on_filter_event(&mut self, _os: &mut NodeOs, _event: netsim::FilterEvent) {}
}

fn controlled_pair() -> World {
    let mut world = World::builder()
        .topology(Topology::full(2))
        .seed(1)
        .controlled()
        .build();
    for i in 0..2 {
        world.install_agent(
            NodeId(i),
            Box::new(Chatty {
                period: SimDuration::from_secs(1),
            }),
        );
    }
    world
}

#[test]
fn schedule_diverts_into_pending_set() {
    let mut world = controlled_pair();
    // Two StartAgent events are parked, nothing has run.
    let pending = world.pending_controlled();
    assert_eq!(pending.len(), 2);
    assert!(pending.iter().all(|e| e.class == PendingClass::Infra));
    assert_eq!(world.stats().control_frames, 0);
    // The world never fires an event by itself: running only moves the
    // clock, and there is no step to take.
    world.run_for(SimDuration::from_secs(1));
    assert!(world.step().is_none());
    assert_eq!(world.pending_controlled().len(), 2);

    // Draining infra starts both agents; their hellos and timers become
    // pending choices.
    let fired = world.run_controlled_infra();
    assert_eq!(fired, 2);
    let pending = world.pending_controlled();
    let frames = pending
        .iter()
        .filter(|e| e.class == PendingClass::Control)
        .count();
    let timers = pending
        .iter()
        .filter(|e| e.class == PendingClass::Timer)
        .count();
    assert_eq!(frames, 2, "one hello in flight each way");
    assert_eq!(timers, 2, "one armed timer per node");
    assert!(pending.iter().all(|e| e.live));
}

#[test]
fn deliver_and_drop_account_like_the_radio() {
    let mut world = controlled_pair();
    world.run_controlled_infra();
    let frames: Vec<_> = world
        .pending_controlled()
        .into_iter()
        .filter(|e| e.class == PendingClass::Control)
        .collect();
    assert!(world.deliver_controlled(&frames[0]));
    assert!(world.drop_controlled(&frames[1]));
    assert!(!world.deliver_controlled(&frames[1]), "id consumed");
    let stats = world.stats();
    assert_eq!(stats.control_received, 1);
    assert_eq!(stats.control_lost, 1);
    assert_eq!(stats.agent_counter("chatty.rx"), 1);
    // Timers are not droppable.
    let timer = world
        .pending_controlled()
        .into_iter()
        .find(|e| e.class == PendingClass::Timer)
        .expect("timers pending");
    assert!(!world.drop_controlled(&timer));
    assert!(world.pending_controlled().iter().any(|e| e.id == timer.id));
    assert!(world.deliver_controlled(&timer));
    assert_eq!(world.now(), timer.at, "clock clamped to the timer deadline");
}

#[test]
fn same_choice_sequence_allocates_same_ids() {
    let run = |choices: usize| -> (Vec<netsim::EventHandle>, u64) {
        let mut world = controlled_pair();
        world.run_controlled_infra();
        let mut ids = Vec::new();
        for _ in 0..choices {
            let next = world.pending_controlled().first().copied().unwrap();
            ids.push(next.id);
            world.deliver_controlled(&next);
            world.run_controlled_infra();
        }
        (ids, world.stats().control_received)
    };
    assert_eq!(run(8), run(8), "replay is id-for-id deterministic");
}

#[test]
fn a_cancelled_timer_leaves_the_pending_set() {
    let mut world = controlled_pair();
    world.run_controlled_infra();
    let timer_of = |world: &World, node| {
        world
            .pending_controlled()
            .into_iter()
            .find(|e| e.class == PendingClass::Timer && e.node == node)
    };
    let armed = timer_of(&world, NodeId(1)).expect("node 1 armed its timer");
    world.os_mut(NodeId(0)).broadcast_control(b"quiet".to_vec());
    world.run_controlled_infra();
    // Node 1 hears the start hello and the quiet frame; the latter
    // cancels its timer.
    let to_node_1: Vec<_> = world
        .pending_controlled()
        .into_iter()
        .filter(|e| e.class == PendingClass::Control && e.node == NodeId(1))
        .collect();
    assert_eq!(to_node_1.len(), 2);
    for frame in &to_node_1 {
        assert!(world.deliver_controlled(frame));
    }
    assert!(
        timer_of(&world, NodeId(1)).is_none(),
        "cancelled, not parked"
    );
    assert!(!world.deliver_controlled(&armed), "nothing left to fire");
    assert_eq!(world.stats().agent_counter("chatty.timer"), 0);
}

#[test]
fn crash_cancels_timers_and_marks_arrivals_dead() {
    let mut world = controlled_pair();
    world.run_controlled_infra();
    world.force_crash(NodeId(1));
    assert!(!world.node_up(NodeId(1)));
    let at_node_1: Vec<_> = world
        .pending_controlled()
        .into_iter()
        .filter(|e| e.node == NodeId(1))
        .collect();
    assert!(
        at_node_1.iter().all(|e| e.class == PendingClass::Control),
        "the crash cancelled node 1's timer: {at_node_1:?}"
    );
    assert!(!at_node_1.is_empty() && at_node_1.iter().all(|e| !e.live));
    assert!(world
        .pending_controlled()
        .iter()
        .filter(|e| e.node != NodeId(1))
        .all(|e| e.live));
    // Delivering a dead arrival accounts it as lost at the crashed node.
    let lost_before = world.stats().control_lost;
    world.deliver_controlled(&at_node_1[0]);
    assert_eq!(world.stats().control_lost, lost_before + 1);

    world.force_reboot(NodeId(1));
    assert!(world.node_up(NodeId(1)));
    // The reboot parks a StartAgent; draining it restarts the agent, which
    // broadcasts again and re-arms its timer.
    world.run_controlled_infra();
    let pending = world.pending_controlled();
    assert!(pending
        .iter()
        .any(|e| e.class == PendingClass::Control && e.node == NodeId(0)));
    assert!(pending
        .iter()
        .any(|e| e.class == PendingClass::Timer && e.node == NodeId(1)));
}
