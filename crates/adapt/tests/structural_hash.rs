//! `structural_hash` reads a deployment in place: protocol, interface,
//! event-type and plug-in names straight from the protocol CFs. The
//! oracle here renders the same composition to strings and `Debug` text
//! first, and both must separate exactly the same compositions:
//! `hash(a) == hash(b) ⇔ rendered(a) == rendered(b)` over every
//! composition the six stack switches pass through (prepare, commit,
//! abort, rollback, revert), the remaining op kinds and the paper's
//! protocol variants.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use adapt::Stack;
use manetkit::reactive::RouteDiscoveryHandler;
use manetkit::system::MessageRegistration;
use manetkit::{
    structural_hash, txn, Deployment, EventTuple, EventType, ManetProtocolCf, Plugin, ReconfigOp,
    SystemConfig,
};
use manetkit_dymo::variants::{flooding, gossip, multipath};
use manetkit_dymo::DymoState;
use manetkit_olsr::variants::power;
use netsim::{NodeId, NodeOs};
use packetbb::Address;

/// The structural hash over rendered strings: each protocol as a
/// `(name, provided interfaces, required interfaces)` component, sorted,
/// then the protocols in stack order and the System CF's `Debug` text.
fn rendered_hash(dep: &Deployment) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let protocols: Vec<&ManetProtocolCf> = dep
        .protocol_names()
        .iter()
        .map(|name| dep.protocol(name).expect("a deployed protocol"))
        .collect();
    let interfaces = |types: &[EventType]| -> Vec<String> {
        types.iter().map(|t| format!("event:{t}")).collect()
    };
    let mut components: Vec<(String, Vec<String>, Vec<String>)> = protocols
        .iter()
        .map(|cf| {
            let mut provided = interfaces(&cf.tuple().provided);
            if cf.is_reactive() {
                provided.push("IReactiveRouting".into());
            }
            provided.sort();
            let mut required = interfaces(&cf.tuple().required);
            required.sort();
            (cf.name().to_string(), provided, required)
        })
        .collect();
    components.sort();
    components.hash(&mut h);
    for cf in protocols {
        cf.name().hash(&mut h);
        format!("{:?}", cf.tuple()).hash(&mut h);
        cf.plugin_names().hash(&mut h);
        cf.is_reactive().hash(&mut h);
    }
    format!("{:?}", dep.system().config()).hash(&mut h);
    h.finish()
}

/// Every composition seen, as `(rendered, new)` hash pairs.
#[derive(Default)]
struct Compositions(Vec<(u64, u64)>);

impl Compositions {
    fn record(&mut self, dep: &Deployment) -> u64 {
        let new = structural_hash(dep);
        self.0.push((rendered_hash(dep), new));
        new
    }

    /// Asserts that the two hashes partition the recorded compositions
    /// alike, and returns the number of classes.
    fn assert_same_partition(&self) -> usize {
        let mut by_rendered: HashMap<u64, u64> = HashMap::new();
        let mut by_new: HashMap<u64, u64> = HashMap::new();
        for (i, &(rendered, new)) in self.0.iter().enumerate() {
            assert_eq!(
                *by_rendered.entry(rendered).or_insert(new),
                new,
                "composition {i}: the new hash separates compositions the rendered one equates"
            );
            assert_eq!(
                *by_new.entry(new).or_insert(rendered),
                rendered,
                "composition {i}: the new hash equates compositions the rendered one separates"
            );
        }
        by_new.len()
    }
}

fn os() -> NodeOs {
    NodeOs::standalone(NodeId(0), Address::v4([10, 0, 0, 1]))
}

/// A started node running `stack`, its deployment and OS.
fn started(stack: Stack) -> (manetkit::ManetNode, NodeOs) {
    let (mut node, _handle) = stack.node();
    let mut os = os();
    node.deployment_mut().start(&mut os);
    (node, os)
}

fn prepare(
    dep: &mut Deployment,
    id: u64,
    ops: Vec<ReconfigOp>,
    os: &mut NodeOs,
) -> txn::PreparedTxn {
    txn::prepare(dep, id, ops, os).expect("the recipe prepares")
}

#[test]
fn every_switch_composition_is_separated_alike() {
    let mut seen = Compositions::default();
    for from in Stack::ALL {
        for to in Stack::ALL {
            if from == to {
                continue;
            }
            let third = Stack::ALL
                .into_iter()
                .find(|s| *s != from && *s != to)
                .expect("three stacks");
            let (mut node, mut os) = started(from);
            let dep = node.deployment_mut();
            let before = seen.record(dep);

            // Prepare, then abort: the rollback restores the checkpoint.
            let t = prepare(dep, 1, from.recipe_to(to), &mut os);
            let switched = seen.record(dep);
            assert_ne!(switched, before, "{from}->{to} changed the composition");
            assert!(txn::rollback(dep, t, &mut os), "{from}->{to} rolls back");
            assert_eq!(seen.record(dep), before, "{from}->{to} rollback");

            // Prepare, commit, revert.
            let t = prepare(dep, 2, from.recipe_to(to), &mut os);
            txn::commit(dep, &t, &mut os);
            assert_eq!(seen.record(dep), switched, "{from}->{to} commit");
            assert!(txn::revert(dep, t, &mut os), "{from}->{to} reverts");
            assert_eq!(seen.record(dep), before, "{from}->{to} revert");

            // Commit, then switch on to the third stack and abort that.
            let t = prepare(dep, 3, from.recipe_to(to), &mut os);
            txn::commit(dep, &t, &mut os);
            seen.record(dep);
            let onward = prepare(dep, 4, to.recipe_to(third), &mut os);
            seen.record(dep);
            assert!(txn::rollback(dep, onward, &mut os));
            assert_eq!(seen.record(dep), switched, "{to}->{third} rollback");
        }
    }
    // OLSR, DYMO and AODV each alone, and mid-switch compositions.
    assert!(seen.assert_same_partition() >= 9);
}

#[test]
fn tuple_system_and_plugin_changes_are_separated_alike() {
    let mut seen = Compositions::default();
    let (mut node, mut os) = started(Stack::Dymo);
    let dep = node.deployment_mut();
    let initial = seen.record(dep);
    let tuple = dep.protocol("dymo").expect("dymo").tuple().clone();
    let commit = |dep: &mut Deployment, id, op, os: &mut NodeOs| {
        let t = prepare(dep, id, vec![op], os);
        txn::commit(dep, &t, os);
    };

    // Tuples: an exclusive type, then the required types reordered.
    let exclusive = tuple.clone().requires_exclusive(tuple.required[0]);
    let update = |tuple: EventTuple| ReconfigOp::UpdateTuple {
        protocol: "dymo".into(),
        tuple,
    };
    commit(dep, 10, update(exclusive), &mut os);
    seen.record(dep);
    let mut reordered = tuple.clone();
    reordered.required.reverse();
    commit(dep, 11, update(reordered), &mut os);
    seen.record(dep);
    commit(dep, 12, update(tuple), &mut os);
    assert_eq!(seen.record(dep), initial, "the original tuple is back");

    // System registrations and plug-in flags.
    let load = |registrations, power_status| {
        ReconfigOp::LoadSystem(SystemConfig {
            registrations,
            netlink: false,
            power_status,
        })
    };
    let register = |msg_type, out_event| {
        let registration = MessageRegistration {
            msg_type,
            in_event: EventType::named("HASH_TEST_IN"),
            out_event,
        };
        load(vec![registration], false)
    };
    commit(dep, 13, register(200, None), &mut os);
    seen.record(dep);
    commit(
        dep,
        14,
        register(200, Some(EventType::named("HASH_TEST_OUT"))),
        &mut os,
    );
    seen.record(dep);
    commit(dep, 15, register(201, None), &mut os);
    seen.record(dep);
    commit(dep, 16, load(Vec::new(), true), &mut os);
    seen.record(dep);

    // Plug-ins: unplugging the first handler and plugging it again moves
    // it to the back of the list.
    let first = dep.protocol("dymo").expect("dymo").plugin_names()[0].clone();
    let rotate = ReconfigOp::Recompose {
        protocol: "dymo".into(),
        plug: vec![Plugin::Handler(Box::new(
            RouteDiscoveryHandler::<DymoState>::default(),
        ))],
        unplug: vec![first],
        state: None,
    };
    let before = seen.record(dep);
    commit(dep, 17, rotate, &mut os);
    assert_ne!(seen.record(dep), before, "plug-in order is structure");

    assert_eq!(seen.assert_same_partition(), 8);
}

/// A variant's recipes: its name, the stack it varies, how to enable it and
/// (for all but flooding) how to disable it again.
type Variant = (
    &'static str,
    Stack,
    fn() -> Vec<ReconfigOp>,
    Option<fn() -> Vec<ReconfigOp>>,
);

#[test]
fn each_variant_is_separated_and_disabling_restores_the_base() {
    let variants: [Variant; 5] = [
        (
            "power",
            Stack::Olsr,
            || power::enable_ops(Default::default()),
            Some(|| power::disable_ops(Default::default())),
        ),
        (
            "gossip",
            Stack::Dymo,
            || gossip::enable_ops(0.6),
            Some(gossip::disable_ops),
        ),
        (
            "multipath",
            Stack::Dymo,
            multipath::enable_ops,
            Some(multipath::disable_ops),
        ),
        (
            "flooding through a new MPR CF",
            Stack::Dymo,
            || flooding::enable_ops(Some(manetkit_olsr::mpr_cf(Default::default()))),
            None,
        ),
        (
            "flooding through a shared MPR CF",
            Stack::Dymo,
            || flooding::enable_ops(None),
            None,
        ),
    ];
    let mut seen = Compositions::default();
    let mut enabled: Vec<u64> = Vec::new();
    for (name, stack, enable, disable) in variants {
        let (mut node, mut os) = started(stack);
        let dep = node.deployment_mut();
        let base = seen.record(dep);
        let t = prepare(dep, 1, enable(), &mut os);
        txn::commit(dep, &t, &mut os);
        let on = seen.record(dep);
        assert_ne!(on, base, "{name} differs from its base");
        assert!(
            !enabled.contains(&on),
            "{name} differs from the other variants"
        );
        enabled.push(on);
        let Some(disable) = disable else { continue };
        let t = prepare(dep, 2, disable(), &mut os);
        txn::commit(dep, &t, &mut os);
        let off = seen.record(dep);
        if name == "power" {
            // Loading never unloads: the residual-power registration stays,
            // and with it the base is back.
            let (mut base_node, mut base_os) = started(stack);
            let registered = base_node.deployment_mut();
            let residual = ReconfigOp::LoadSystem(SystemConfig {
                registrations: vec![power::residual_power_registration()],
                ..SystemConfig::default()
            });
            let t = prepare(registered, 3, vec![residual], &mut base_os);
            txn::commit(registered, &t, &mut base_os);
            assert_eq!(off, seen.record(registered), "{name} disabled");
        } else {
            assert_eq!(off, base, "{name} disabled");
        }
    }
    assert!(seen.assert_same_partition() >= 7);
}

#[test]
fn a_fresh_olsr_node_hashes_to_its_pinned_value() {
    // The hash is fed names, never intern ids: interning unrelated names
    // first shifts the ids of any type this process has not met yet, and
    // must not move the value.
    for i in 0..5 {
        let _ = EventType::named(&format!("__HASH_GOLDEN_SHIFT_{i}"));
    }
    let (node, _handle) = Stack::Olsr.node();
    assert_eq!(structural_hash(node.deployment()), 0x9aaa_669c_cf8c_cee1);
}
