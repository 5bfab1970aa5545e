//! Differential test of a node's counters, kept in a `Vec` indexed by
//! process-wide dense ids, against the map keyed by name they replaced.
//! Every case names fresh counters and lets another thread assign ids to
//! some of them first, so ids interleave across threads and never follow
//! the order this thread meets the names.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

use netsim::{CounterId, NodeId, NodeOs};
use packetbb::Address;
use proptest::prelude::*;

const NAMES: usize = 6;

#[derive(Debug, Clone)]
enum Op {
    Bump {
        node: usize,
        name: usize,
    },
    BumpBy {
        node: usize,
        name: usize,
        delta: u64,
    },
    Read {
        node: usize,
        name: usize,
    },
}

fn op() -> impl Strategy<Value = Op> {
    let node = 0usize..2;
    let name = 0..NAMES;
    prop_oneof![
        3 => (node.clone(), name.clone()).prop_map(|(node, name)| Op::Bump { node, name }),
        // Zero deltas are common: they must still make the name appear.
        2 => (node.clone(), name.clone(), prop_oneof![Just(0u64), 1u64..1_000])
            .prop_map(|(node, name, delta)| Op::BumpBy { node, name, delta }),
        2 => (node, name).prop_map(|(node, name)| Op::Read { node, name }),
    ]
}

/// Names no other case uses, leaked as counter names must be.
fn fresh_names() -> Vec<&'static str> {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    (0..NAMES)
        .map(|i| &*Box::leak(format!("oracle.{case}.{i}").into_boxed_str()))
        .collect()
}

fn sorted<'a>(it: impl IntoIterator<Item = (&'a str, u64)>) -> BTreeMap<&'a str, u64> {
    it.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn counters_match_a_map_keyed_by_name(
        elsewhere in proptest::collection::vec(0..NAMES, 0..NAMES),
        ops in proptest::collection::vec(op(), 1..48),
    ) {
        let names = fresh_names();
        // Another thread meets these names first, in its own order.
        let first: Vec<&'static str> = elsewhere.iter().map(|&i| names[i]).collect();
        std::thread::spawn(move || {
            for name in first {
                let _ = CounterId::named(name);
            }
        })
        .join()
        .expect("interning thread");

        let mut nodes: Vec<NodeOs> = (0..2)
            .map(|i| NodeOs::standalone(NodeId(i), Address::v4([10, 0, 0, 1 + i as u8])))
            .collect();
        let mut model: Vec<HashMap<&str, u64>> = vec![HashMap::new(); 2];
        for op in ops {
            match op {
                Op::Bump { node, name } => {
                    nodes[node].bump(names[name]);
                    *model[node].entry(names[name]).or_insert(0) += 1;
                }
                Op::BumpBy { node, name, delta } => {
                    nodes[node].bump_by(names[name], delta);
                    *model[node].entry(names[name]).or_insert(0) += delta;
                }
                Op::Read { node, name } => {
                    let want = model[node].get(names[name]).copied().unwrap_or(0);
                    prop_assert_eq!(nodes[node].counter(names[name]), want);
                }
            }
            for (os, model) in nodes.iter().zip(&model) {
                let got = sorted(os.counters());
                prop_assert_eq!(got, sorted(model.iter().map(|(n, v)| (*n, *v))));
            }
        }
        prop_assert_eq!(nodes[0].counter("oracle.never_named"), 0);
    }
}
