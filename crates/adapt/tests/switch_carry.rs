//! Route carry-over across a DYMO↔AODV switch: the table conversions as
//! properties, then whole fleets switching under traffic without losing a
//! datagram, rediscovering a route or forming a forwarding loop, and the
//! two ways an adopted table could go wrong afterwards — a restarted
//! sequence number and a silent black hole.

mod support;

use std::collections::{BTreeMap, BTreeSet};

use adapt::Stack;
use manetkit::neighbour::{hello_registration, neighbour_detection_cf};
use manetkit::prelude::{ConcurrencyModel, ManetNode, ReconfigRequest};
use manetkit::reactive::ReactiveTable;
use manetkit::{txn, CarriedRoute, RouteCarry, TxnVerdict};
use manetkit_aodv::{AodvParams, AodvRoute, AodvState};
use manetkit_dymo::variants::flooding;
use manetkit_dymo::{DymoParams, DymoRoute, DymoState};
use netsim::{LinkState, NodeId, NodeOs, SimDuration, SimTime, Topology, World};
use packetbb::Address;
use proptest::prelude::*;
use support::{assert_loop_free, cbr, install, ms, secs, Fleet};

fn addr(n: u8) -> Address {
    Address::v4([10, 0, 0, n])
}

fn at_ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

/// `(dst, next hop, seq, hops, expiry ms, broken)`; one entry per `dst`.
type Entry = (u8, u8, Option<u16>, u8, u64, bool);

fn arb_table() -> impl Strategy<Value = Vec<Entry>> {
    let entry = (
        1u8..40,
        1u8..40,
        proptest::option::of(any::<u16>()),
        1u8..12,
        0u64..14_000,
        any::<bool>(),
    );
    proptest::collection::vec(entry, 0..30).prop_map(|mut entries| {
        entries.sort_by_key(|e| e.0);
        entries.dedup_by_key(|e| e.0);
        entries
    })
}

fn dymo_table(entries: &[Entry], own_seq: u16) -> DymoState {
    let routes = entries
        .iter()
        .map(|&(dst, via, seq, hops, expiry, broken)| {
            let route = DymoRoute {
                next_hop: addr(via),
                seq: seq.unwrap_or(0),
                hop_count: hops,
                expiry: at_ms(expiry),
                broken,
            };
            (addr(dst), route)
        });
    DymoState {
        routes: routes.collect(),
        own_seq,
        ..DymoState::default()
    }
}

fn aodv_table(entries: &[Entry], own_seq: u16) -> AodvState {
    let routes = entries
        .iter()
        .map(|&(dst, via, seq, hops, expiry, broken)| {
            let route = AodvRoute {
                next_hop: addr(via),
                seq,
                hop_count: hops,
                expiry: at_ms(expiry),
                broken,
                precursors: BTreeSet::from([addr(200)]),
                precursors_unknown: false,
            };
            (addr(dst), route)
        });
    AodvState {
        routes: routes.collect(),
        own_seq,
        ..AodvState::default()
    }
}

/// The entries a carry must hold: live and unbroken at `now`, in `dst`
/// order, nothing else.
fn live(entries: &[Entry], now: u64, seqless_too: bool) -> Vec<CarriedRoute> {
    entries
        .iter()
        .filter(|e| !e.5 && e.4 > now && (seqless_too || e.2.is_some()))
        .map(|&(dst, via, seq, hops, expiry, _)| CarriedRoute {
            dst: addr(dst),
            next_hop: addr(via),
            hop_count: hops,
            seq,
            expiry: at_ms(expiry),
        })
        .collect()
}

/// What an adopter with a 5 s lifetime keeps of a carry at `now`.
fn clamped(mut routes: Vec<CarriedRoute>, now: u64) -> Vec<CarriedRoute> {
    for r in &mut routes {
        r.expiry = r.expiry.min(at_ms(now + 5_000));
    }
    routes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// DYMO → AODV → DYMO keeps `(dst, next hop, hops, seq, expiry)` of
    /// every live entry, carries `own_seq` verbatim, drops broken and
    /// lapsed entries and invents none; no expiry outlives the adopter's
    /// own lifetime.
    #[test]
    fn dymo_aodv_dymo_round_trip(
        entries in arb_table(),
        own_seq in any::<u16>(),
        now in 0u64..8_000,
    ) {
        // DYMO always knows a sequence number.
        let entries: Vec<Entry> =
            entries.into_iter().map(|e| (e.0, e.1, Some(e.2.unwrap_or(7)), e.3, e.4, e.5)).collect();
        let dymo = dymo_table(&entries, own_seq);
        let first = dymo.export_carry(at_ms(now));
        prop_assert_eq!(&first, &RouteCarry { own_seq, routes: live(&entries, now, true) });

        let mut aodv = AodvState::default();
        aodv.adopt_carry(&first, at_ms(now));
        prop_assert!(aodv.routes.values().all(|r| r.precursors_unknown && r.precursors.is_empty()));
        let second = aodv.export_carry(at_ms(now));
        let kept = clamped(first.routes.clone(), now);
        prop_assert_eq!(&second, &RouteCarry { own_seq, routes: kept.clone() });

        let mut back = DymoState::default();
        back.adopt_carry(&second, at_ms(now));
        prop_assert_eq!(back.export_carry(at_ms(now)), RouteCarry { own_seq, routes: kept });
        prop_assert_eq!(back.routes.len(), second.routes.len(), "nothing invented");
    }

    /// AODV → DYMO additionally drops the entries without a sequence
    /// number (DYMO cannot compare them).
    #[test]
    fn aodv_to_dymo_drops_seqless_entries(
        entries in arb_table(),
        own_seq in any::<u16>(),
        now in 0u64..8_000,
    ) {
        let aodv = aodv_table(&entries, own_seq);
        let carry = aodv.export_carry(at_ms(now));
        prop_assert_eq!(&carry, &RouteCarry { own_seq, routes: live(&entries, now, true) });

        let mut dymo = DymoState::default();
        dymo.adopt_carry(&carry, at_ms(now));
        let adopted = dymo.export_carry(at_ms(now));
        prop_assert_eq!(adopted, RouteCarry { own_seq, routes: clamped(live(&entries, now, false), now) });
        prop_assert!(dymo.routes.values().all(|r| !r.broken));
    }
}

/// Runs one fleet-wide two-phase `from → to` and checks it changed nothing
/// a flow could notice.
fn switch_quietly(
    world: &mut World,
    fleet: &Fleet,
    from: Stack,
    to: Stack,
    flows: &[(NodeId, NodeId)],
) {
    let discoveries = world.stats().agent_counter("route_discovery");
    let report = fleet.coordinator.execute(
        world,
        ReconfigRequest::new()
            .recipe(|| from.recipe_to(to))
            .strategy(manetkit::Strategy::TwoPhase(Default::default())),
    );
    assert_eq!(report.verdict, TxnVerdict::Committed, "{report}");
    assert!(fleet.runs(to), "fleet runs {to}");
    assert_loop_free(world, flows);
    world.run_for(ms(3_000));
    assert_loop_free(world, flows);
    assert_eq!(
        world.stats().agent_counter("route_discovery"),
        discoveries,
        "{from} -> {to}: no flow rediscovered its route"
    );
}

/// DYMO → AODV → DYMO under `flows` (4 pkt/s each from 10 s on).
fn fleet_switches_without_disruption(topology: Topology, seed: u64, flows: &[(NodeId, NodeId)]) {
    let mut world = World::builder().topology(topology).seed(seed).build();
    let fleet = install(&mut world, Stack::Dymo);
    for &(src, dst) in flows {
        cbr(&mut world, src, dst, secs(10), secs(24), ms(250));
    }
    world.run_until(secs(14));
    assert!(world.stats().agent_counter("route_discovery") >= flows.len() as u64);

    switch_quietly(&mut world, &fleet, Stack::Dymo, Stack::Aodv, flows);
    switch_quietly(&mut world, &fleet, Stack::Aodv, Stack::Dymo, flows);

    world.run_until(secs(26));
    let stats = world.stats();
    assert_eq!(stats.data_delivered, stats.data_sent, "zero datagrams lost");
    assert_eq!(stats.agent_counter("txn.rollback_mismatch"), 0);
}

#[test]
fn five_node_line_switches_without_disruption() {
    fleet_switches_without_disruption(Topology::line(5), 3, &[(NodeId(0), NodeId(4))]);
}

/// The benchmark's smoke mesh: 64 nodes, about 22 neighbours each.
#[test]
fn smoke_mesh_switches_without_disruption() {
    let flows: Vec<(NodeId, NodeId)> = (0..8)
        .map(|i| (NodeId(i * 7 % 64), NodeId((i * 7 + 31) % 64)))
        .collect();
    fleet_switches_without_disruption(Topology::random_geometric(64, 0.36, 42), 1, &flows);
}

/// A DYMO node (over Neighbour Detection) whose S element is `state`.
fn dymo_node_holding(state: DymoState) -> ManetNode {
    let mut node = ManetNode::new(ConcurrencyModel::SingleThreaded);
    let dep = node.deployment_mut();
    dep.system_mut().load(&manetkit_dymo::system_config());
    dep.system_mut().register_message(hello_registration());
    dep.add_protocol_offline(neighbour_detection_cf(Default::default()))
        .expect("fresh deployment");
    let mut dymo = manetkit_dymo::dymo_cf(DymoParams::default());
    *dymo.state_mut().get_mut::<DymoState>() = state;
    dep.add_protocol_offline(dymo).expect("fresh deployment");
    node
}

/// A DYMO node whose sequence number already stands at `own_seq`.
fn seasoned_dymo_node(own_seq: u16) -> ManetNode {
    dymo_node_holding(DymoState {
        own_seq,
        ..DymoState::default()
    })
}

/// The optimised-flooding variant retypes DYMO's S element. Its codec and
/// carrier come with the new type, so a flooding node still checkpoints
/// its route table and hands it to AODV on a switch, and the switch still
/// rolls back exactly.
#[test]
fn a_flooding_dymo_node_carries_its_routes_to_aodv_and_rolls_back_clean() {
    let entries: [Entry; 3] = [
        (2, 2, Some(5), 1, 60_000, false),
        (3, 2, Some(9), 2, 60_000, false),
        (4, 2, Some(1), 3, 60_000, true),
    ];
    let mut node = dymo_node_holding(dymo_table(&entries, 40));
    let mut os = NodeOs::standalone(NodeId(0), addr(1));
    let dep = node.deployment_mut();
    dep.start(&mut os);
    for op in flooding::enable_ops(None) {
        dep.apply(op, &mut os).expect("flooding applies");
    }
    let before = txn::fingerprint(dep);
    let dymo = before.protocols.iter().find(|p| p.name == "dymo");
    let bytes = dymo.and_then(|p| p.state.as_ref()).map_or(0, Vec::len);
    assert!(bytes > 0, "a flooding node checkpoints its routes");

    let switch = Stack::Dymo.recipe_to(Stack::Aodv);
    let prepared = txn::prepare(dep, 1, switch, &mut os).expect("the switch prepares");
    let aodv = dep.protocol("aodv").expect("aodv runs");
    let carried = aodv.state().get::<AodvState>().export_carry(SimTime::ZERO);
    assert_eq!(carried.own_seq, 40);
    assert_eq!(carried.routes, clamped(live(&entries, 0, true), 0));

    assert!(
        txn::rollback(dep, prepared, &mut os),
        "the rollback is clean"
    );
    assert_eq!(txn::fingerprint(dep), before);
    assert_eq!(os.counter("txn.rollback_mismatch"), 0);
}

/// `own_seq` crosses the switch verbatim. Node 2 answers a discovery under
/// DYMO with sequence number 101, so its peers hold routes to it under
/// 101; after the fleet switched to AODV it floods an RREQ of its own.
/// Carried over, that RREQ says 102 and the peers take it; restarted at
/// zero it would say 1 and every peer would ignore it as stale.
#[test]
fn post_switch_rreq_is_fresher_than_the_pre_switch_routes() {
    let mut world = World::builder().topology(Topology::line(3)).seed(8).build();
    let mut fleet = manetkit::FleetCoordinator::default();
    let mut nodes = Vec::new();
    for i in 0..3 {
        let mut node = seasoned_dymo_node(if i == 2 { 100 } else { 0 });
        fleet.add(node.handle());
        let node = std::sync::Arc::new(std::sync::Mutex::new(node));
        world.install_agent(NodeId(i), Box::new(support::Shared(node.clone())));
        nodes.push(node);
    }
    let fleet = Fleet {
        coordinator: fleet,
        nodes,
    };
    cbr(&mut world, NodeId(0), NodeId(2), secs(3), secs(14), ms(250));
    world.run_until(secs(6));
    let held = |fleet: &Fleet, stack: Stack| -> Vec<Option<u16>> {
        let tables = fleet.protocol_tables(stack);
        let to_node_2 =
            |t: &support::ProtocolTable| t.1.iter().find(|r| r.0 == addr(3)).and_then(|r| r.3);
        vec![to_node_2(&tables[0]), to_node_2(&tables[1])]
    };
    assert_eq!(held(&fleet, Stack::Dymo), vec![Some(101), Some(101)]);

    let report = fleet.coordinator.execute(
        &mut world,
        ReconfigRequest::new()
            .recipe(|| Stack::Dymo.recipe_to(Stack::Aodv))
            .strategy(manetkit::Strategy::TwoPhase(Default::default())),
    );
    assert_eq!(report.verdict, TxnVerdict::Committed, "{report}");
    assert_eq!(
        held(&fleet, Stack::Aodv),
        vec![Some(101), Some(101)],
        "adopted as held"
    );

    // Node 2's reverse route to node 0 (discovery at 3 s, never used)
    // lapses at 8 s; its datagram at 10 s needs a discovery of its own.
    let discoveries = world.stats().agent_counter("route_discovery");
    world.run_until(secs(10));
    let origin = world.addr(NodeId(0));
    world.send_datagram(NodeId(2), origin, b"reverse".to_vec());
    world.run_until(secs(12));
    assert_eq!(
        world.stats().agent_counter("route_discovery"),
        discoveries + 1
    );
    assert_eq!(
        held(&fleet, Stack::Aodv),
        vec![Some(102), Some(102)],
        "the post-switch RREQ was accepted as fresher"
    );
    world.run_until(secs(15));
    let stats = world.stats();
    assert_eq!(stats.data_delivered, stats.data_sent);
}

/// An adopted AODV route has no precursors, and AODV used to report a
/// break only to precursors: cut a link under traffic after a switch and
/// the node at the break would fall silent while its upstream neighbours,
/// their routes kept alive by the very traffic they forward, fed it
/// datagrams for ever. The break is now broadcast while the precursors
/// are unknown, so the source hears of it, tries a rediscovery and stops.
#[test]
fn adopted_routes_do_not_black_hole_after_a_link_cut() {
    let mut world = World::builder().topology(Topology::line(5)).seed(4).build();
    let fleet = install(&mut world, Stack::Dymo);
    cbr(&mut world, NodeId(0), NodeId(4), secs(3), secs(40), ms(250));
    world.run_until(secs(8));
    let report = fleet.coordinator.execute(
        &mut world,
        ReconfigRequest::new()
            .recipe(|| Stack::Dymo.recipe_to(Stack::Aodv))
            .strategy(manetkit::Strategy::TwoPhase(Default::default())),
    );
    assert_eq!(report.verdict, TxnVerdict::Committed, "{report}");
    world.run_until(secs(10));
    let before = world.stats();
    assert_eq!(before.agent_counter("rerr_sent"), 0);
    assert_eq!(before.data_dropped_link, 0);

    world.set_link(NodeId(2), NodeId(3), LinkState::Down);
    // One RERR hop-by-hop to the source plus its first RREQ wait.
    let params = AodvParams::default();
    world.run_for(params.reactive.rreq_wait + ms(1_000));
    let after = world.stats();
    assert!(
        after.agent_counter("rerr_sent") >= 1,
        "the break was reported"
    );
    assert!(
        after.agent_counter("route_discovery") > before.agent_counter("route_discovery"),
        "the source heard of it and tried to rediscover"
    );
    let source_routes: BTreeMap<_, _> = world
        .os(NodeId(0))
        .route_table()
        .iter()
        .map(|e| (e.dst, e.next_hop))
        .collect();
    assert!(
        !source_routes.contains_key(&world.addr(NodeId(4))),
        "the source withdrew the dead route: {source_routes:?}"
    );

    world.run_until(secs(41));
    let end = world.stats();
    assert_eq!(
        end.data_dropped_link, after.data_dropped_link,
        "nobody keeps forwarding into the break"
    );
    assert!(
        end.agent_counter("route_discovery_failed") >= 1,
        "and the failure is reported"
    );
}
