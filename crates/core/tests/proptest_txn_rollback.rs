//! Property-based tests of transactional reconfiguration: a transaction
//! that aborts at ANY failure point must leave the composition — the
//! protocol stack, every protocol's tuple/plug-ins, the exported protocol
//! state bytes and the System CF configuration — exactly as the
//! checkpoint recorded it. The same holds for an explicit rollback of a
//! successfully prepared transaction, and for a transaction doomed by a
//! node crash between prepare and commit.
//!
//! The routing CFs export their route tables through state codecs, so for
//! them "exactly" covers every route, lifetime and pending discovery — and
//! the kernel table a reinstated CF mirrors its live routes into. The
//! paper's protocol variants are recipes like any other: each one, followed
//! by a drawn tail of ops, unwinds exactly too.

use manetkit::event::{Event, EventType};
use manetkit::neighbour::{hello_registration, neighbour_detection_cf};
use manetkit::prelude::*;
use manetkit::protocol::{proto_stop_event, Plugin, ProtoCtx, StateSlot};
use manetkit::reactive::PendingDiscovery;
use manetkit::system::MessageRegistration;
use manetkit::txn;
use manetkit::{SystemConfig, TxnPhase};
use manetkit_dymo::variants::{flooding, gossip, multipath};
use manetkit_dymo::{DymoRoute, DymoState, DYMO_CF};
use manetkit_olsr::variants::power;
use netsim::fault::FaultPlan;
use netsim::{KernelRouteTable, NodeId, NodeOs, SimDuration, SimTime, Topology, World};
use packetbb::Address;
use proptest::prelude::*;
// The framework prelude exports the coordinator's `Strategy` enum too.
use proptest::strategy::Strategy;

/// A protocol CF with a state codec, so rollback exactness is checked down
/// to the exported state bytes.
fn stateful_cf(name: String, state: u64) -> ManetProtocolCf {
    ManetProtocolCf::builder(name)
        .tuple(
            EventTuple::new()
                .requires(EventType::named("TXN_A"))
                .provides(EventType::named("TXN_B")),
        )
        .state(StateSlot::new(state).with_codec(|slot| {
            slot.try_get::<u64>()
                .map(|v| v.to_le_bytes().to_vec())
                .unwrap_or_default()
        }))
        .build()
}

/// A handler that does nothing, under the given plug-in name.
struct Inert(String);

impl EventHandler for Inert {
    fn name(&self) -> &str {
        &self.0
    }
    fn subscriptions(&self) -> Vec<EventType> {
        Vec::new()
    }
    fn handle(&mut self, _: &Event, _: &mut StateSlot, _: &mut ProtoCtx<'_>) {}
}

/// Loads one registration into the System CF.
fn load(registration: MessageRegistration) -> ReconfigOp {
    ReconfigOp::LoadSystem(SystemConfig {
        registrations: vec![registration],
        ..SystemConfig::default()
    })
}

fn registration(msg_type: u8) -> MessageRegistration {
    MessageRegistration {
        msg_type,
        in_event: EventType::named("TXN_MSG_IN"),
        out_event: None,
    }
}

/// The fixed starting composition: two stateful protocols and one message
/// registration.
fn base_deployment(os: &mut NodeOs) -> Deployment {
    let mut dep = Deployment::new(ConcurrencyModel::SingleThreaded);
    dep.system_mut().register_message(registration(42));
    dep.add_protocol_offline(stateful_cf("alpha".into(), 7))
        .unwrap();
    dep.add_protocol_offline(stateful_cf("gamma".into(), 9))
        .unwrap();
    dep.start(os);
    dep
}

/// Builds op `i` of a batch from a generated code. Codes deliberately mix
/// ops that succeed and ops that must fail (unknown/duplicate protocols) —
/// every mix exercises a different abort point.
fn build_op(code: u8, i: usize) -> ReconfigOp {
    match code {
        0 => ReconfigOp::AddProtocol(stateful_cf(format!("p{i}"), i as u64)),
        1 => ReconfigOp::AddProtocol(stateful_cf("alpha".into(), 1)),
        2 => ReconfigOp::RemoveProtocol {
            name: "alpha".into(),
        },
        3 => ReconfigOp::RemoveProtocol {
            name: "ghost".into(),
        },
        4 => ReconfigOp::UpdateTuple {
            protocol: "gamma".into(),
            tuple: EventTuple::new()
                .requires(EventType::named("TXN_B"))
                .provides(EventType::named("TXN_C")),
        },
        5 => ReconfigOp::Recompose {
            protocol: "gamma".into(),
            plug: vec![Plugin::Handler(Box::new(Inert(format!("h{}", i % 3))))],
            unplug: Vec::new(),
            state: Some(|slot| {
                StateSlot::new(slot.get::<u64>() + 1)
                    .with_codec(|slot| slot.get::<u64>().to_le_bytes().to_vec())
            }),
        },
        6 => load(registration(50 + (i as u8 % 100))),
        7 => ReconfigOp::SwitchProtocol {
            old: "alpha".into(),
            new: stateful_cf(format!("s{i}"), 100 + i as u64),
            transfer_state: true,
        },
        _ => ReconfigOp::LoadSystem(SystemConfig {
            netlink: true,
            ..SystemConfig::default()
        }),
    }
}

fn addr(n: u8) -> Address {
    Address::v4([10, 0, 0, n])
}

/// `(dst, next hop, seq, hops, lifetime in s, broken)`; a zero lifetime is
/// a lapsed entry. One entry per `dst`.
type RouteSpec = (u8, u8, u16, u8, u64, bool);

fn arb_routes() -> impl Strategy<Value = Vec<RouteSpec>> {
    let lifetime = prop_oneof![1 => Just(0u64), 4 => 60u64..600];
    let route = (
        2u8..40,
        2u8..40,
        any::<u16>(),
        1u8..10,
        lifetime,
        any::<bool>(),
    );
    proptest::collection::vec(route, 0..24).prop_map(|mut routes| {
        routes.sort_by_key(|r| r.0);
        routes.dedup_by_key(|r| r.0);
        routes
    })
}

/// A DYMO CF whose S element already holds `routes`, a pending discovery
/// per address in `pending`, and a well-used sequence number.
fn dymo_with(routes: &[RouteSpec], pending: &[u8]) -> ManetProtocolCf {
    let mut cf = manetkit_dymo::dymo_cf(Default::default());
    let state = cf.state_mut().get_mut::<DymoState>();
    state.own_seq = 4_711;
    for &(dst, via, seq, hops, lifetime, broken) in routes {
        let route = DymoRoute {
            next_hop: addr(via),
            seq,
            hop_count: hops,
            expiry: SimTime::ZERO + SimDuration::from_secs(lifetime),
            broken,
        };
        state.routes.insert(addr(dst), route);
    }
    for &dst in pending {
        let discovery = PendingDiscovery {
            attempts: 1,
            next_retry: SimTime::ZERO + SimDuration::from_secs(90),
        };
        state.pending.insert(addr(100 + dst), discovery);
    }
    cf
}

/// The kernel table a started DYMO CF holding `routes` maintains.
fn mirrored(routes: &[RouteSpec]) -> KernelRouteTable {
    let mut table = KernelRouteTable::new();
    for &(dst, via, _, hops, lifetime, broken) in routes {
        if lifetime > 0 && !broken {
            table.add_host_route(addr(dst), addr(via), u32::from(hops));
        }
    }
    table
}

/// One of the three ways a transaction retires a routing CF: plain removal,
/// a same-type switch (the state slot moves) and a switch to AODV (the live
/// routes are copied through the route carriers).
fn retire_dymo(code: u8) -> Vec<ReconfigOp> {
    match code {
        0 => vec![ReconfigOp::RemoveProtocol {
            name: DYMO_CF.into(),
        }],
        1 => vec![ReconfigOp::SwitchProtocol {
            old: DYMO_CF.into(),
            new: manetkit_dymo::dymo_cf(Default::default()),
            transfer_state: true,
        }],
        _ => vec![
            ReconfigOp::LoadSystem(manetkit_aodv::system_config()),
            ReconfigOp::SwitchProtocol {
                old: DYMO_CF.into(),
                new: manetkit_aodv::aodv_cf(Default::default()),
                transfer_state: true,
            },
        ],
    }
}

/// A started deployment running the given DYMO CF.
fn dymo_deployment(cf: ManetProtocolCf, os: &mut NodeOs) -> Deployment {
    let mut dep = Deployment::new(ConcurrencyModel::SingleThreaded);
    dep.system_mut().load(&manetkit_dymo::system_config());
    dep.add_protocol_offline(cf).unwrap();
    dep.start(os);
    dep
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever mix of valid and failing ops a transaction carries, an abort at any injected failure point — or an explicit
    /// rollback of a fully prepared batch — restores the composition
    /// fingerprint byte-identically to the checkpoint.
    #[test]
    fn abort_at_any_failure_point_restores_the_checkpoint(
        codes in proptest::collection::vec(0u8..9, 1..10),
    ) {
        let mut os = NodeOs::standalone(NodeId(0), Address::v4([10, 0, 0, 1]));
        let mut dep = base_deployment(&mut os);
        let before = txn::fingerprint(&dep);
        let ops: Vec<ReconfigOp> = codes
            .iter()
            .enumerate()
            .map(|(i, c)| build_op(*c, i))
            .collect();
        match txn::prepare(&mut dep, 1, ops, &mut os) {
            Ok(prepared) => {
                // The batch applied cleanly; roll it back anyway (the
                // coordinator-abort path) and demand exactness.
                let clean = txn::rollback(&mut dep, prepared, &mut os);
                prop_assert!(clean, "rollback fingerprint mismatch");
                prop_assert_eq!(txn::fingerprint(&dep), before);
            }
            Err(aborted) => {
                prop_assert!(
                    aborted.rollback_clean,
                    "abort ({}) left a dirty rollback: {}",
                    aborted.reason,
                    aborted.detail
                );
                prop_assert_eq!(txn::fingerprint(&dep), before);
            }
        }
    }

    /// A committed-then-reverted transaction (the health-gate back-out)
    /// also lands exactly on the checkpoint.
    #[test]
    fn revert_after_commit_restores_the_checkpoint(
        codes in proptest::collection::vec(prop_oneof![
            Just(0u8), Just(4u8), Just(5u8), Just(6u8), Just(7u8), Just(8u8)
        ], 1..6),
    ) {
        let mut os = NodeOs::standalone(NodeId(0), Address::v4([10, 0, 0, 1]));
        let mut dep = base_deployment(&mut os);
        let before = txn::fingerprint(&dep);
        // Code 7 switches "alpha" away, so only its first occurrence can
        // succeed; downgrade repeats to plain adds to keep the batch
        // infallible.
        let mut switched = false;
        let ops: Vec<ReconfigOp> = codes
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let c = if *c == 7 && std::mem::replace(&mut switched, true) {
                    0
                } else {
                    *c
                };
                build_op(c, i)
            })
            .collect();
        // These op codes never fail on the base composition, so prepare
        // must succeed.
        let prepared = match txn::prepare(&mut dep, 2, ops, &mut os) {
            Ok(p) => p,
            Err(e) => panic!("unexpected abort: {e}"),
        };
        txn::commit(&mut dep, &prepared, &mut os);
        prop_assert_ne!(txn::fingerprint(&dep), before.clone(),
            "every generated batch changes the composition");
        let clean = txn::revert(&mut dep, prepared, &mut os);
        prop_assert!(clean, "revert fingerprint mismatch");
        prop_assert_eq!(txn::fingerprint(&dep), before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever the route table holds — live, lapsed and broken entries,
    /// pending discoveries — retiring the routing CF inside a transaction
    /// and undoing it (rollback, or revert after commit) restores the
    /// protocol table byte for byte and the kernel table entry for entry.
    #[test]
    fn undone_routing_switch_restores_protocol_and_kernel_tables(
        routes in arb_routes(),
        pending in proptest::collection::vec(0u8..20, 0..3),
        how in 0u8..3,
        commit_first in any::<bool>(),
    ) {
        let mut os = NodeOs::standalone(NodeId(0), addr(1));
        let mut dep = dymo_deployment(dymo_with(&routes, &pending), &mut os);
        prop_assert_eq!(os.route_table(), &mirrored(&routes), "start mirrors the live routes");
        let before = txn::fingerprint(&dep);
        prop_assert!(before.protocols[0].state.is_some(), "DYMO exports its state");

        let prepared = match txn::prepare(&mut dep, 5, retire_dymo(how), &mut os) {
            Ok(p) => p,
            Err(e) => panic!("unexpected abort: {e}"),
        };
        if how == 0 {
            prop_assert!(os.route_table().is_empty(), "a removed CF withdraws its routes");
        } else {
            prop_assert_eq!(os.route_table(), &mirrored(&routes), "the successor installs what it took over");
        }
        let clean = if commit_first {
            txn::commit(&mut dep, &prepared, &mut os);
            txn::revert(&mut dep, prepared, &mut os)
        } else {
            txn::rollback(&mut dep, prepared, &mut os)
        };
        prop_assert!(clean, "fingerprint mismatch after the unwind");
        prop_assert_eq!(txn::fingerprint(&dep), before);
        prop_assert_eq!(os.route_table(), &mirrored(&routes));
        prop_assert_eq!(os.counter("txn.rollback_mismatch"), 0);
    }
}

/// The routing protocol each variant recipe recomposes.
const OLSR_CF: &str = "olsr";

/// Variant recipe `code` over its base stack, with whatever must already
/// be committed for it to apply (the variant a disable recipe removes):
/// `(runs over OLSR, committed first, the recipe)`.
fn variant_recipe(code: u8) -> (bool, Vec<ReconfigOp>, Vec<ReconfigOp>) {
    let power_on = || power::enable_ops(Default::default());
    match code {
        0 => (true, Vec::new(), power_on()),
        1 => (true, power_on(), power::disable_ops(Default::default())),
        2 => (false, Vec::new(), gossip::enable_ops(0.5)),
        3 => (false, gossip::enable_ops(0.5), gossip::disable_ops()),
        4 => (false, Vec::new(), multipath::enable_ops()),
        5 => (false, multipath::enable_ops(), multipath::disable_ops()),
        6 => {
            let mpr = manetkit_olsr::mpr_cf(Default::default());
            (false, Vec::new(), flooding::enable_ops(Some(mpr)))
        }
        _ => (false, Vec::new(), flooding::enable_ops(None)),
    }
}

/// Tail op `i` after a variant recipe on `routing` (the OLSR or DYMO CF):
/// even codes succeed, odd codes fail.
fn tail_op(code: u8, i: usize, routing: &str) -> ReconfigOp {
    match code {
        0 => ReconfigOp::AddProtocol(stateful_cf(format!("t{i}"), i as u64)),
        1 => ReconfigOp::RemoveProtocol {
            name: "ghost".into(),
        },
        2 => load(registration(150 + i as u8)),
        3 => ReconfigOp::Recompose {
            protocol: "ghost".into(),
            plug: Vec::new(),
            unplug: vec!["ghost".into()],
            state: None,
        },
        4 => ReconfigOp::UpdateTuple {
            protocol: routing.into(),
            tuple: EventTuple::new().requires(EventType::named("TXN_TAIL")),
        },
        _ => ReconfigOp::UpdateTuple {
            protocol: "ghost".into(),
            tuple: EventTuple::new(),
        },
    }
}

/// A started OLSR deployment, or a DYMO one (with Neighbour Detection)
/// whose S element holds `routes`.
fn variant_base(olsr: bool, routes: &[RouteSpec], os: &mut NodeOs) -> Deployment {
    let mut dep = Deployment::new(ConcurrencyModel::SingleThreaded);
    if olsr {
        manetkit_olsr::deploy(&mut dep, Default::default()).unwrap();
    } else {
        dep.system_mut().load(&manetkit_dymo::system_config());
        dep.system_mut().register_message(hello_registration());
        dep.add_protocol_offline(neighbour_detection_cf(Default::default()))
            .unwrap();
        dep.add_protocol_offline(dymo_with(routes, &[])).unwrap();
    }
    dep.start(os);
    dep
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every variant recipe of §5 — power-aware OLSR on and off; gossip
    /// and multipath DYMO on and off; optimised flooding through a new or
    /// a shared MPR CF — followed by a drawn tail of succeeding and failing
    /// ops, unwinds exactly: an abort, a rollback of the prepared batch and
    /// a revert of the committed one all land on the checkpoint, DYMO's
    /// state bytes included.
    #[test]
    fn every_variant_recipe_unwinds_exactly(
        variant in 0u8..8,
        tail in proptest::collection::vec(0u8..6, 0..5),
        routes in arb_routes(),
        commit_first in any::<bool>(),
    ) {
        let mut os = NodeOs::standalone(NodeId(0), addr(1));
        let (olsr, committed, recipe) = variant_recipe(variant);
        let mut dep = variant_base(olsr, &routes, &mut os);
        if !committed.is_empty() {
            let on = match txn::prepare(&mut dep, 1, committed, &mut os) {
                Ok(p) => p,
                Err(e) => panic!("the variant does not apply: {e}"),
            };
            txn::commit(&mut dep, &on, &mut os);
        }
        let before = txn::fingerprint(&dep);
        if !olsr {
            let dymo = before.protocols.iter().find(|p| p.name == DYMO_CF).expect("dymo");
            prop_assert!(dymo.state.as_ref().is_some_and(|s| !s.is_empty()), "DYMO exports its state");
        }
        let routing = if olsr { OLSR_CF } else { DYMO_CF };
        let mut ops = recipe;
        ops.extend(tail.iter().enumerate().map(|(i, c)| tail_op(*c, i, routing)));
        match txn::prepare(&mut dep, 2, ops, &mut os) {
            Ok(prepared) => {
                prop_assert_ne!(txn::fingerprint(&dep), before.clone(), "the recipe changed something");
                let clean = if commit_first {
                    txn::commit(&mut dep, &prepared, &mut os);
                    txn::revert(&mut dep, prepared, &mut os)
                } else {
                    txn::rollback(&mut dep, prepared, &mut os)
                };
                prop_assert!(clean, "fingerprint mismatch after the unwind");
            }
            Err(aborted) => {
                prop_assert!(tail.iter().any(|c| c % 2 == 1), "only the tail fails: {}", aborted);
                prop_assert!(aborted.rollback_clean, "dirty abort: {}", aborted);
            }
        }
        prop_assert_eq!(txn::fingerprint(&dep), before);
        prop_assert_eq!(os.counter("txn.rollback_mismatch"), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The doomed path: a node crashes between prepare and commit (its
    /// kernel table is flushed with it), reboots, and its first quiescent
    /// point unwinds the transaction. The reinstated CF holds the
    /// checkpointed table — the engine's byte comparison says so — and has
    /// mirrored its live routes into the fresh kernel table.
    #[test]
    fn crash_between_prepare_and_commit_restores_random_route_tables(
        routes in arb_routes(),
        how in 0u8..3,
    ) {
        let ms = |n: u64| SimTime::ZERO + SimDuration::from_millis(n);
        let plan = FaultPlan::builder(7)
            .crash_for(ms(2_500), NodeId(1), SimDuration::from_millis(2_500))
            .build();
        let mut world = World::builder()
            .topology(Topology::full(2))
            .seed(11)
            .fault_plan(plan)
            .build();
        let mut handles = Vec::new();
        for i in 0..2 {
            let mut node = ManetNode::new(ConcurrencyModel::SingleThreaded);
            let dep = node.deployment_mut();
            dep.system_mut().load(&manetkit_dymo::system_config());
            dep.system_mut().register_message(hello_registration());
            dep.add_protocol_offline(neighbour_detection_cf(Default::default())).unwrap();
            dep.add_protocol_offline(dymo_with(&routes, &[])).unwrap();
            handles.push(node.handle());
            world.install_agent(NodeId(i), Box::new(node));
        }
        world.run_until(ms(1_000));
        // The first sweep dropped the lapsed entries; what is live stays.
        prop_assert_eq!(world.os(NodeId(1)).route_table(), &mirrored(&routes));

        handles[1].txn_ctl(manetkit::TxnCtl::Prepare {
            id: 9,
            ops: retire_dymo(how),
            requested: Some(world.now()),
            deadline: None,
        });
        world.run_until(ms(2_400));
        let report = handles[1].status().txn.expect("node reached prepare");
        prop_assert_eq!(report.phase, TxnPhase::Prepared);

        world.run_until(ms(7_000));
        let status = handles[1].status();
        let report = status.txn.expect("rollback reported");
        prop_assert_eq!(report.phase, TxnPhase::RolledBack);
        prop_assert_eq!(report.detail, "crashed while prepared", "no rollback mismatch");
        prop_assert_eq!(&status.protocols, &handles[0].status().protocols);
        prop_assert_eq!(world.os(NodeId(1)).route_table(), &mirrored(&routes));
        let stats = world.stats();
        prop_assert_eq!(stats.agent_counter("txn.rollback_mismatch"), 0);
        manetkit::assert_fleet_conservation(&stats, 0);
    }
}

/// The comparison has teeth: a routing CF whose stop hook destroys its
/// table (what both reactive protocols did before stop meant "withdraw")
/// cannot be reinstated exactly, and the unwind says so.
#[test]
fn a_lossy_stop_is_reported_as_a_rollback_mismatch() {
    struct LossyStop;
    impl EventHandler for LossyStop {
        fn name(&self) -> &str {
            "sweep-handler"
        }
        fn subscriptions(&self) -> Vec<EventType> {
            vec![proto_stop_event()]
        }
        fn handle(&mut self, _: &Event, state: &mut StateSlot, _: &mut ProtoCtx<'_>) {
            state.get_mut::<DymoState>().routes.clear();
        }
    }
    let mut os = NodeOs::standalone(NodeId(0), addr(1));
    let cf = dymo_with(&[(9, 2, 17, 3, 60, false)], &[]);
    let mut dep = dymo_deployment(cf, &mut os);
    let lossy = ReconfigOp::Recompose {
        protocol: DYMO_CF.into(),
        plug: vec![Plugin::Handler(Box::new(LossyStop))],
        unplug: Vec::new(),
        state: None,
    };
    dep.apply(lossy, &mut os)
        .expect("the lossy handler plugs in");

    let ops = vec![ReconfigOp::RemoveProtocol {
        name: DYMO_CF.into(),
    }];
    let prepared = txn::prepare(&mut dep, 6, ops, &mut os).expect("removal prepares");
    assert!(!txn::rollback(&mut dep, prepared, &mut os));
    assert_eq!(os.counter("txn.rollback_mismatch"), 1);
}

/// Crash between prepare and commit: the node reboots with the transaction
/// doomed, and its first post-reboot quiescent point rolls back to the
/// checkpoint — the composition is never left half-wired.
#[test]
fn crash_between_prepare_and_commit_rolls_back_on_reboot() {
    let ms = |n: u64| SimTime::ZERO + SimDuration::from_millis(n);
    let plan = FaultPlan::builder(7)
        .crash_for(ms(2_500), NodeId(1), SimDuration::from_millis(2_500))
        .build();
    let mut world = World::builder()
        .topology(Topology::full(2))
        .seed(11)
        .fault_plan(plan)
        .build();
    let mut handles = Vec::new();
    for i in 0..2 {
        let mut node = ManetNode::new(ConcurrencyModel::SingleThreaded);
        node.deployment_mut()
            .system_mut()
            .register_message(hello_registration());
        node.deployment_mut()
            .add_protocol_offline(neighbour_detection_cf(Default::default()))
            .unwrap();
        handles.push(node.handle());
        world.install_agent(NodeId(i), Box::new(node));
    }
    world.run_until(ms(1_000));
    let stack_before = handles[1].status().protocols.clone();

    // Prepare a transaction on node 1 and never commit it: the crash at
    // 2.5 s arrives first.
    handles[1].txn_ctl(manetkit::TxnCtl::Prepare {
        id: 9,
        ops: vec![ReconfigOp::AddProtocol(stateful_cf("extra".into(), 1))],
        requested: Some(world.now()),
        deadline: None,
    });
    world.run_until(ms(2_400));
    let report = handles[1].status().txn.expect("node reached prepare");
    assert_eq!(report.phase, TxnPhase::Prepared);
    assert_eq!(
        handles[1].status().protocols.len(),
        stack_before.len() + 1,
        "prepared composition is live while the txn is open"
    );

    // Crash at 2.5 s, reboot at 5 s; the doomed transaction must roll back
    // at the first post-reboot quiescent point.
    world.run_until(ms(7_000));
    let status = handles[1].status();
    assert!(status.alive);
    let report = status.txn.expect("rollback reported");
    assert_eq!(report.phase, TxnPhase::RolledBack);
    assert_eq!(status.protocols, stack_before, "checkpoint composition");
    let stats = world.stats();
    assert_eq!(stats.agent_counter("txn.rolled_back"), 1);
    assert_eq!(stats.agent_counter("txn.committed"), 0);
    // The ledger the model checker audits at every state holds at the
    // end of the fault run too: no transaction is open any more.
    manetkit::assert_fleet_conservation(&stats, 0);
}

/// A protocol's tuple can change after it was inserted: through a committed
/// `UpdateTuple`, or through one applied outside any transaction. A
/// later transaction that removes the protocol and is rolled back must
/// still land exactly on its checkpoint, and the structural hash must read
/// the tuple the protocol holds now.
fn tuple_change_then_rolled_back_removal(change: impl FnOnce(&mut Deployment, &mut NodeOs)) {
    let mut os = NodeOs::standalone(NodeId(0), addr(1));
    let mut dep = dymo_deployment(manetkit_dymo::dymo_cf(Default::default()), &mut os);
    let initial = manetkit::structural_hash(&dep);
    change(&mut dep, &mut os);
    let hash = manetkit::structural_hash(&dep);
    assert_ne!(hash, initial, "the tuple is part of the structure");
    let before = txn::fingerprint(&dep);

    let ops = vec![ReconfigOp::RemoveProtocol {
        name: DYMO_CF.into(),
    }];
    let prepared = txn::prepare(&mut dep, 21, ops, &mut os).expect("removal prepares");
    assert!(
        txn::rollback(&mut dep, prepared, &mut os),
        "rollback is clean"
    );
    assert_eq!(os.counter("txn.rollback_mismatch"), 0);
    assert_eq!(manetkit::structural_hash(&dep), hash);
    assert_eq!(txn::fingerprint(&dep), before);
}

/// `tuple` with one more required type.
fn with_extra_requirement(tuple: &EventTuple) -> EventTuple {
    tuple.clone().requires(EventType::named("TXN_EXTRA"))
}

#[test]
fn a_committed_tuple_update_survives_a_rolled_back_removal() {
    tuple_change_then_rolled_back_removal(|dep, os| {
        let tuple = with_extra_requirement(dep.protocol(DYMO_CF).expect("dymo").tuple());
        let ops = vec![ReconfigOp::UpdateTuple {
            protocol: DYMO_CF.into(),
            tuple,
        }];
        let prepared = txn::prepare(dep, 20, ops, os).expect("the update prepares");
        txn::commit(dep, &prepared, os);
    });
}

#[test]
fn a_tuple_applied_outside_a_transaction_survives_a_rolled_back_removal() {
    tuple_change_then_rolled_back_removal(|dep, os| {
        let tuple = with_extra_requirement(dep.protocol(DYMO_CF).expect("dymo").tuple());
        let op = ReconfigOp::UpdateTuple {
            protocol: DYMO_CF.into(),
            tuple,
        };
        dep.apply(op, os).expect("the update applies");
    });
}
