//! Differential test of OLSR route maintenance.
//!
//! `Reference` is the S element as it was when every accepted TC reran
//! Dijkstra over freshly built `BTreeMap`s and rewrote the whole kernel
//! table: a topology map keyed by `(destination, last hop)` and the old
//! route calculator, kept here as the oracle. Random interleavings of TCs
//! (fresh, repeated, stale, same ANSN with another set, wrapped and
//! ambiguous ANSNs), expiry sweeps, neighbourhood, energy and metric
//! updates drive it and [`OlsrState`] side by side. After every step the two
//! agree on the topology set, on the full `dest → (next_hop, hops)` map, and
//! on the kernel table — which `sync_kernel_routes` maintains by difference
//! and only when its dirty flag says so — and a step that left every input
//! of the computation as it was triggers no rebuild.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use manetkit::protocol::ProtoCtx;
use manetkit::seq_newer;
use manetkit_olsr::olsr::{sync_kernel_routes, OlsrState, RouteMetric};
use manetkit_olsr::OLSR_CF;
use netsim::{KernelRouteTable, NodeId, NodeOs, SimDuration, SimTime};
use packetbb::Address;
use proptest::prelude::*;

const VALIDITY: SimDuration = SimDuration::from_secs(15);
/// Few nodes, so equal-cost paths and re-advertised edges are the rule.
const NODES: u8 = 9;

fn addr(n: u8) -> Address {
    Address::v4([10, 0, 0, n])
}

#[derive(Debug, Clone, Default)]
struct Reference {
    topology: BTreeMap<(Address, Address), (u16, SimTime)>,
    latest_ansn: BTreeMap<Address, u16>,
    sym_neighbours: Vec<Address>,
    two_hop: Vec<(Address, Address)>,
    metric: RouteMetric,
    energy: BTreeMap<Address, f64>,
}

impl Reference {
    fn apply_tc(
        &mut self,
        originator: Address,
        ansn: u16,
        advertised: &[Address],
        now: SimTime,
    ) -> bool {
        if let Some(latest) = self.latest_ansn.get(&originator) {
            if seq_newer(*latest, ansn) {
                return false;
            }
        }
        self.latest_ansn.insert(originator, ansn);
        self.topology
            .retain(|(_, last_hop), (seen, _)| *last_hop != originator || !seq_newer(ansn, *seen));
        for dest in advertised {
            self.topology
                .insert((*dest, originator), (ansn, now + VALIDITY));
        }
        true
    }

    fn expire(&mut self, now: SimTime) -> bool {
        let before = self.topology.len();
        self.topology.retain(|_, (_, expiry)| *expiry > now);
        self.topology.len() != before
    }

    fn node_cost(&self, node: Address) -> f64 {
        match self.metric {
            RouteMetric::HopCount => 1.0,
            RouteMetric::EnergyAware => 2.0 - self.energy.get(&node).copied().unwrap_or(1.0),
        }
    }

    fn compute_routes(&self, local: Address) -> BTreeMap<Address, (Address, u32)> {
        let mut edges: BTreeMap<Address, BTreeSet<Address>> = BTreeMap::new();
        for nb in &self.sym_neighbours {
            edges.entry(local).or_default().insert(*nb);
        }
        for (nb, th) in &self.two_hop {
            edges.entry(*nb).or_default().insert(*th);
        }
        for (dest, last_hop) in self.topology.keys() {
            edges.entry(*last_hop).or_default().insert(*dest);
        }

        #[derive(PartialEq)]
        struct Item {
            cost: f64,
            hops: u32,
            node: Address,
            first_hop: Option<Address>,
        }
        impl Eq for Item {}
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> Ordering {
                other
                    .cost
                    .partial_cmp(&self.cost)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| other.hops.cmp(&self.hops))
                    .then_with(|| other.node.cmp(&self.node))
            }
        }
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut best: BTreeMap<Address, (Address, u32)> = BTreeMap::new();
        let mut done: BTreeSet<Address> = BTreeSet::new();
        let mut heap = BinaryHeap::new();
        heap.push(Item {
            cost: 0.0,
            hops: 0,
            node: local,
            first_hop: None,
        });
        while let Some(item) = heap.pop() {
            if !done.insert(item.node) {
                continue;
            }
            if let Some(fh) = item.first_hop {
                best.insert(item.node, (fh, item.hops));
            }
            if let Some(nexts) = edges.get(&item.node) {
                for next in nexts {
                    if done.contains(next) {
                        continue;
                    }
                    heap.push(Item {
                        cost: item.cost + self.node_cost(*next),
                        hops: item.hops + 1,
                        node: *next,
                        first_hop: item.first_hop.or(Some(*next)),
                    });
                }
            }
        }
        best
    }

    /// Everything the route computation reads.
    fn inputs(&self) -> impl PartialEq {
        (
            self.topology.keys().copied().collect::<Vec<_>>(),
            self.sym_neighbours.clone(),
            self.two_hop.clone(),
            self.metric,
            (self.metric == RouteMetric::EnergyAware).then(|| self.energy.clone()),
        )
    }

    /// The kernel table a from-scratch install of the routes leaves.
    fn kernel_table(&self, local: Address) -> KernelRouteTable {
        let mut table = KernelRouteTable::new();
        for (dest, (next_hop, hops)) in self.compute_routes(local) {
            table.add_host_route(dest, next_hop, hops);
        }
        table
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// A TC from `originator` whose ANSN is the latest seen from it plus
    /// `ansn_step` (wrapping).
    Tc {
        originator: u8,
        ansn_step: u16,
        advertised: Vec<u8>,
    },
    /// The last TC again, as a second MPR relays it.
    RepeatTc,
    /// Time passes, then the expiry sweep runs.
    Sweep {
        secs: u64,
    },
    Neighbourhood {
        sym: Vec<u8>,
        two_hop: Vec<(u8, u8)>,
    },
    Energy {
        node: u8,
        raw: u8,
    },
    Metric {
        energy_aware: bool,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    let node = || 1u8..NODES;
    prop_oneof![
        6 => (
            node(),
            // fresh, same ANSN, stale, far ahead, ambiguous (neither newer).
            prop_oneof![
                4 => Just(1u16),
                2 => Just(0u16),
                1 => Just(u16::MAX),
                1 => Just(0x7FFFu16),
                1 => Just(0x8000u16),
            ],
            proptest::collection::vec(node(), 0..5),
        )
            .prop_map(|(originator, ansn_step, advertised)| Step::Tc {
                originator,
                ansn_step,
                advertised,
            }),
        3 => Just(Step::RepeatTc),
        2 => (0u64..12).prop_map(|secs| Step::Sweep { secs }),
        2 => (
            proptest::collection::vec(node(), 0..4),
            proptest::collection::vec((node(), node()), 0..5),
        )
            .prop_map(|(sym, two_hop)| Step::Neighbourhood { sym, two_hop }),
        2 => (node(), any::<u8>()).prop_map(|(node, raw)| Step::Energy { node, raw }),
        1 => any::<bool>().prop_map(|energy_aware| Step::Metric { energy_aware }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn routes_and_kernel_table_match_the_reference(
        steps in proptest::collection::vec(arb_step(), 1..60),
    ) {
        let local = addr(1);
        let mut os = NodeOs::standalone(NodeId(0), local);
        let mut state = OlsrState::default();
        let mut reference = Reference::default();
        let mut now = SimTime::ZERO;
        let mut last_tc: Option<(Address, u16, Vec<Address>)> = None;

        for step in steps {
            let inputs_before = reference.inputs();
            let builds_before = state.route_builds;
            match step {
                Step::Tc { originator, ansn_step, advertised } => {
                    let originator = addr(originator);
                    // Unseen originators start just below the wrap.
                    let latest = reference.latest_ansn.get(&originator).copied().unwrap_or(0xFFFD);
                    let ansn = latest.wrapping_add(ansn_step);
                    let advertised: Vec<Address> = advertised.into_iter().map(addr).collect();
                    let accepted = reference.apply_tc(originator, ansn, &advertised, now);
                    prop_assert_eq!(
                        state.apply_tc(originator, ansn, &advertised, now, VALIDITY),
                        accepted
                    );
                    if accepted {
                        last_tc = Some((originator, ansn, advertised));
                    }
                }
                Step::RepeatTc => {
                    if let Some((originator, ansn, advertised)) = &last_tc {
                        let accepted = reference.apply_tc(*originator, *ansn, advertised, now);
                        prop_assert_eq!(
                            state.apply_tc(*originator, *ansn, advertised, now, VALIDITY),
                            accepted
                        );
                    }
                }
                Step::Sweep { secs } => {
                    now += SimDuration::from_secs(secs);
                    prop_assert_eq!(state.expire(now), reference.expire(now));
                }
                Step::Neighbourhood { sym, two_hop } => {
                    reference.sym_neighbours = sym.into_iter().map(addr).collect();
                    reference.two_hop =
                        two_hop.into_iter().map(|(nb, th)| (addr(nb), addr(th))).collect();
                    state.set_neighbourhood(&reference.sym_neighbours, &reference.two_hop);
                }
                Step::Energy { node, raw } => {
                    let level = f64::from(raw) / 255.0;
                    reference.energy.insert(addr(node), level);
                    state.set_energy(addr(node), level);
                }
                Step::Metric { energy_aware } => {
                    reference.metric = if energy_aware {
                        RouteMetric::EnergyAware
                    } else {
                        RouteMetric::HopCount
                    };
                    state.set_metric(reference.metric);
                }
            }

            // The re-keyed topology set is the old one, edge for edge.
            let mut edges: Vec<_> = state
                .edges()
                .map(|(last_hop, e)| ((e.dest, last_hop), (e.ansn, e.expiry)))
                .collect();
            edges.sort_by_key(|(key, _)| *key);
            prop_assert_eq!(edges, reference.topology.clone().into_iter().collect::<Vec<_>>());

            prop_assert_eq!(state.compute_routes(local), reference.compute_routes(local));

            // The handlers sync after whatever they did; so does the test,
            // including where the dirty flag makes it a no-op.
            sync_kernel_routes(&mut state, local, &mut ProtoCtx::new(&mut os, OLSR_CF));
            prop_assert_eq!(os.route_table(), &reference.kernel_table(local));
            if reference.inputs() == inputs_before && builds_before > 0 {
                prop_assert_eq!(state.route_builds, builds_before, "nothing changed: {:?}", now);
            }
        }
    }
}
