//! `structural_hash` reads a deployment in place: protocol, interface,
//! event-type and plug-in names straight from the protocol CFs. The
//! oracle here renders the same composition to strings and `Debug` text
//! first, and both must separate exactly the same compositions:
//! `hash(a) == hash(b) ⇔ rendered(a) == rendered(b)` over every
//! composition the six stack switches pass through (prepare, commit,
//! abort, rollback, revert) and the remaining op kinds.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use adapt::Stack;
use manetkit::system::MessageRegistration;
use manetkit::{
    structural_hash, txn, Deployment, EventTuple, EventType, ManetProtocolCf, ReconfigOp,
};
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
    let register = |msg_type, out_event| {
        ReconfigOp::RegisterMessage(MessageRegistration {
            msg_type,
            in_event: EventType::named("HASH_TEST_IN"),
            out_event,
        })
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
    let power = ReconfigOp::MutateSystem {
        op: Box::new(|sys| sys.enable_power_status()),
    };
    commit(dep, 16, power, &mut os);
    seen.record(dep);

    // Plug-ins: a `Mutate` cannot run inside a transaction, and applied
    // outside one it moves the first handler to the back of the list.
    let first = dep.protocol("dymo").expect("dymo").plugin_names()[0].clone();
    let rotate = |first: String| ReconfigOp::Mutate {
        protocol: "dymo".into(),
        op: Box::new(move |cf| {
            let handler = cf.remove_handler(&first).expect("handler");
            cf.add_handler(handler).expect("re-added");
        }),
    };
    let before = seen.record(dep);
    assert!(txn::prepare(dep, 17, vec![rotate(first.clone())], &mut os).is_err());
    assert_eq!(seen.record(dep), before, "a refused Mutate changes nothing");
    dep.apply(rotate(first), &mut os).expect("mutate applies");
    assert_ne!(seen.record(dep), before, "plug-in order is structure");

    assert_eq!(seen.assert_same_partition(), 8);
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
