//! `ManetProtocolCf::fork` is copy-on-write: copies share a protocol's body
//! until one of them writes it, and no write to one copy shows in another
//! — whichever side writes, through whichever writer. A plug-in that
//! cannot fork makes its CF, its node and its world unforkable, also when
//! a `Recompose` plugs it into a CF whose body is already shared.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use manetkit::prelude::*;
use manetkit::{txn, Plugin};
use netsim::{NodeId, NodeOs, SimDuration, Topology, World};
use packetbb::Address;

const PROTO: &str = "counting";

#[derive(Clone, Default)]
struct Count {
    seen: u32,
}

fn codec(slot: &StateSlot) -> Vec<u8> {
    slot.get::<Count>().seen.to_be_bytes().to_vec()
}

fn count_slot(seen: u32) -> StateSlot {
    StateSlot::new(Count { seen }).with_codec(codec)
}

/// Counts HELLOs into the S element and announces each, arming a timer
/// that also tells how many start and stop signals the plug-in has seen;
/// counts its own forks in a counter its copies share.
#[derive(Clone)]
struct Counter {
    name: &'static str,
    step: u32,
    signals: u64,
    forks: Arc<AtomicUsize>,
}

impl EventHandler for Counter {
    fn name(&self) -> &str {
        self.name
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![
            event_types::hello_in(),
            EventType::named("__PROTO_START"),
            EventType::named("__PROTO_STOP"),
        ]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        if event.ty != event_types::hello_in() {
            self.signals += 1;
            return;
        }
        let count = state.get_mut::<Count>();
        count.seen += self.step;
        ctx.emit(Event::signal(event_types::nhood_change()));
        let delay = u64::from(count.seen) + 1000 * self.signals;
        ctx.set_timer(SimDuration::from_secs(delay), event.ty);
    }
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        self.forks.fetch_add(1, Ordering::Relaxed);
        Some(Box::new(self.clone()))
    }
}

/// A handler that keeps the default `fork`: it cannot be copied.
struct Unforkable;

impl EventHandler for Unforkable {
    fn name(&self) -> &str {
        "unforkable"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![event_types::hello_in()]
    }
    fn handle(&mut self, _: &Event, _: &mut StateSlot, _: &mut ProtoCtx<'_>) {}
}

struct Tick;

impl EventSource for Tick {
    fn name(&self) -> &str {
        "tick"
    }
    fn period(&self) -> SimDuration {
        SimDuration::from_secs(2)
    }
    fn fire(&mut self, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        state.get_mut::<Count>().seen += 1000;
        ctx.emit(Event::signal(event_types::hello_out()));
    }
    fn fork(&self) -> Option<Box<dyn EventSource>> {
        Some(Box::new(Tick))
    }
}

fn counter(forks: &Arc<AtomicUsize>) -> Counter {
    Counter {
        name: "counter",
        step: 1,
        signals: 0,
        forks: Arc::clone(forks),
    }
}

fn cf(forks: &Arc<AtomicUsize>) -> ManetProtocolCf {
    ManetProtocolCf::builder(PROTO)
        .tuple(EventTuple::new().requires(event_types::hello_in()))
        .state(count_slot(7))
        .handler(Box::new(counter(forks)))
        .source(Box::new(Tick))
        .build()
}

fn os() -> NodeOs {
    NodeOs::standalone(NodeId(0), Address::v4([10, 0, 0, 1]))
}

/// Everything a CF shows: its exported state, tuple and plug-in names, and
/// what a copy of it does with a HELLO (outputs and the state after).
fn shown(cf: &ManetProtocolCf) -> String {
    let mut probe = cf.fork().expect("the CF forks");
    let mut os = os();
    let mut ctx = ProtoCtx::new(&mut os, PROTO);
    // A CF whose state was taken out has nothing for a HELLO to count.
    if cf.state().try_get::<Count>().is_some() {
        probe.deliver(&Event::signal(event_types::hello_in()), &mut ctx);
    }
    format!(
        "{:?} {:?} {:?} {:?} {:?}",
        cf.export_state(),
        cf.tuple(),
        cf.plugin_names(),
        ctx.take_outputs(),
        probe.export_state()
    )
}

/// Runs `write` on `cf` with a fresh context.
fn with_ctx(cf: &mut ManetProtocolCf, write: impl FnOnce(&mut ManetProtocolCf, &mut ProtoCtx<'_>)) {
    let mut os = os();
    let mut ctx = ProtoCtx::new(&mut os, PROTO);
    write(cf, &mut ctx);
}

type Writer = (&'static str, fn(&mut ManetProtocolCf));

/// Every public way of writing a CF.
fn writers() -> Vec<Writer> {
    vec![
        ("deliver", |cf| {
            with_ctx(cf, |cf, ctx| {
                cf.deliver(&Event::signal(event_types::hello_in()), ctx);
            });
        }),
        ("on_timer", |cf| {
            with_ctx(cf, |cf, ctx| {
                cf.on_timer(&EventType::named("__src:tick"), ctx)
            });
        }),
        ("start", |cf| with_ctx(cf, |cf, ctx| cf.start(ctx))),
        ("stop", |cf| with_ctx(cf, |cf, ctx| cf.stop(ctx))),
        ("set_tuple", |cf| {
            cf.set_tuple(EventTuple::new().provides(event_types::hello_out()));
        }),
        ("replace_state", |cf| drop(cf.replace_state(count_slot(99)))),
        ("take_state", |cf| drop(cf.take_state())),
        ("state_mut", |cf| {
            cf.state_mut().get_mut::<Count>().seen = 42
        }),
    ]
}

/// An original and a copy that shares its body: the first fork copies the
/// plug-ins, the second none.
fn shared_pair() -> (ManetProtocolCf, ManetProtocolCf) {
    let forks = Arc::new(AtomicUsize::new(0));
    let original = cf(&forks);
    drop(original.fork().expect("the CF forks"));
    assert_eq!(forks.load(Ordering::Relaxed), 1, "the first fork copies");
    let copy = original.fork().expect("the CF forks");
    assert_eq!(forks.load(Ordering::Relaxed), 1, "a later fork shares");
    (original, copy)
}

#[test]
fn a_written_copy_leaves_its_original_as_it_was() {
    for (name, write) in writers() {
        let (original, mut copy) = shared_pair();
        let before = shown(&original);
        write(&mut copy);
        assert_ne!(shown(&copy), before, "{name} writes the copy");
        assert_eq!(shown(&original), before, "{name} on the copy");
    }
}

#[test]
fn a_written_original_leaves_its_copy_as_it_was() {
    for (name, write) in writers() {
        let (mut original, copy) = shared_pair();
        let before = shown(&copy);
        write(&mut original);
        assert_ne!(shown(&original), before, "{name} writes the original");
        assert_eq!(shown(&copy), before, "{name} on the original");
    }
}

/// A started deployment running the counting CF, with a second copy of it
/// that shares the CF's body.
fn shared_deployments(os: &mut NodeOs) -> (Deployment, Deployment) {
    let forks = Arc::new(AtomicUsize::new(0));
    let mut dep = Deployment::new(ConcurrencyModel::SingleThreaded);
    dep.add_protocol_offline(cf(&forks)).expect("deploys");
    dep.start(os);
    drop(dep.fork().expect("the deployment forks"));
    let copy = dep.fork().expect("the deployment forks");
    assert_eq!(forks.load(Ordering::Relaxed), 1, "the copy shares the CF");
    (dep, copy)
}

fn protocol(dep: &Deployment) -> String {
    shown(dep.protocol(PROTO).expect("deployed"))
}

fn recompose(plug: Plugin) -> ReconfigOp {
    ReconfigOp::Recompose {
        protocol: PROTO.to_string(),
        plug: vec![plug],
        unplug: vec!["tick".to_string()],
        state: Some(|slot| count_slot(slot.get::<Count>().seen * 2)),
    }
}

fn doubler() -> Plugin {
    Plugin::Handler(Box::new(Counter {
        name: "counter",
        step: 2,
        signals: 0,
        forks: Arc::default(),
    }))
}

type DeploymentWriter = (&'static str, fn(&mut Deployment, &mut NodeOs));

/// The writers a deployment reaches inside the CF: `recompose`, the
/// `restore` that rolls it back, and the `hand_over_state` of a switch.
fn deployment_writers() -> Vec<DeploymentWriter> {
    vec![
        ("recompose", |dep, os| {
            dep.apply(recompose(doubler()), os).expect("recomposes");
        }),
        ("restore", |dep, os| {
            let prepared = txn::prepare(dep, 1, vec![recompose(doubler())], os).expect("prepares");
            // Share the recomposed body, so the rollback restores a shared CF.
            drop(dep.fork());
            let held = dep.fork().expect("the deployment forks");
            let recomposed = protocol(&held);
            assert!(txn::rollback(dep, prepared, os), "a clean rollback");
            assert_eq!(protocol(&held), recomposed, "restore on a shared CF");
        }),
        ("hand_over_state", |dep, os| {
            let next = ManetProtocolCf::builder("successor")
                .state(count_slot(0))
                .handler(Box::new(counter(&Arc::default())))
                .build();
            let switch = ReconfigOp::SwitchProtocol {
                old: PROTO.to_string(),
                new: next,
                transfer_state: true,
            };
            let prepared = txn::prepare(dep, 1, vec![switch], os).expect("prepares");
            assert!(txn::rollback(dep, prepared, os), "a clean rollback");
        }),
    ]
}

#[test]
fn a_deployment_writing_a_shared_cf_leaves_its_other_copy_as_it_was() {
    for (name, write) in deployment_writers() {
        let mut os = os();
        let (original, mut copy) = shared_deployments(&mut os);
        let before = protocol(&original);
        write(&mut copy, &mut os);
        assert_eq!(protocol(&original), before, "{name} on the copy");

        let (mut original, copy) = shared_deployments(&mut os);
        let before = protocol(&copy);
        write(&mut original, &mut os);
        assert_eq!(protocol(&copy), before, "{name} on the original");
    }
}

#[test]
fn a_plugin_that_cannot_fork_makes_its_cf_node_and_world_unforkable() {
    let unforkable = || {
        ManetProtocolCf::builder(PROTO)
            .state(count_slot(0))
            .handler(Box::new(Unforkable))
            .build()
    };
    assert!(unforkable().fork().is_none(), "ManetProtocolCf::fork");

    let mut node = ManetNode::new(ConcurrencyModel::SingleThreaded);
    node.deployment_mut()
        .add_protocol_offline(unforkable())
        .expect("deploys");
    assert!(node.fork().is_none(), "ManetNode::fork");

    let mut world = World::builder().topology(Topology::line(1)).build();
    world.install_agent(NodeId(0), Box::new(node));
    world.run_for(SimDuration::from_secs(1));
    assert!(world.fork().is_none(), "World::fork");
}

#[test]
fn plugging_an_unforkable_plugin_into_a_shared_cf_makes_the_next_fork_fail() {
    let mut os = os();
    let (mut dep, copy) = shared_deployments(&mut os);
    dep.apply(recompose(Plugin::Handler(Box::new(Unforkable))), &mut os)
        .expect("recomposes");
    let cf = dep.protocol(PROTO).expect("deployed");
    assert!(cf.fork().is_none(), "the recomposed CF no longer forks");
    assert!(dep.fork().is_none(), "nor does its deployment");

    // The copy kept the plug-ins it shared, which still fork.
    assert_eq!(
        copy.protocol(PROTO).expect("deployed").plugin_names(),
        ["counter", "tick"]
    );
    assert!(copy.fork().is_some());

    // Unplugging it makes the CF fork again.
    let unplug = ReconfigOp::Recompose {
        protocol: PROTO.to_string(),
        plug: Vec::new(),
        unplug: vec!["unforkable".to_string()],
        state: None,
    };
    dep.apply(unplug, &mut os).expect("recomposes");
    assert!(dep.fork().is_some(), "every plug-in left forks");
}
