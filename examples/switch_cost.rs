//! E23 — what a switch costs the network: the benchmark's `reconfig_churn`
//! workload (a dense mesh under CBR flows, fleet-wide two-phase
//! DYMO ⇄ AODV switches every four seconds behind a one-second health
//! gate), reported round by round.
//!
//! The switch is a state-carrying `SwitchProtocol`: the arriving routing
//! CF adopts the retiring one's live routes and sequence number inside the
//! transaction. So only round 0 — where the traffic starts — discovers
//! routes; every later round costs the HELLOs that would have been sent
//! anyway, starts no discovery and loses no datagram. The example asserts
//! exactly that, probes a prepare-then-abort on a small line (every kernel
//! table must come back), runs everything twice to prove the report is
//! deterministic, and writes it as JSON.
//!
//! ```text
//! cargo run --release --example switch_cost -- [--smoke] [--seed N] [--out F.json]
//! ```

use std::fmt::Write as _;

use manetkit_repro::adapt::{install_fleet, Stack};
use manetkit_repro::campaign::{ScenarioSpec, TopologySpec, TrafficSpec};
use manetkit_repro::manetkit::{
    HealthGate, ReconfigRequest, Strategy, TxnCtl, TxnOptions, TxnPhase, TxnVerdict,
};
use manetkit_repro::prelude::*;

const PERIOD_S: u64 = 4;
const WARMUP_S: u64 = 10;

struct Args {
    smoke: bool,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        seed: 1,
        out: "BENCH_switch_cost.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--seed" => {
                let value = it.next().expect("--seed takes a number");
                args.seed = value.parse().expect("--seed takes a number");
            }
            "--out" => args.out = it.next().expect("--out takes a path"),
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

/// One four-second round: the switch and its aftermath.
struct Round {
    from: Stack,
    to: Stack,
    verdict: TxnVerdict,
    control_frames: u64,
    control_received: u64,
    route_discoveries: u64,
    data_sent: u64,
    data_delivered: u64,
    /// The gate window's share of the above, as the coordinator reports it.
    gate: String,
}

/// The churn on the benchmark's mesh (`--smoke`: its 64-node smoke mesh).
fn churn(smoke: bool, seed: u64) -> Vec<Round> {
    let (nodes, radius, flows, rounds) = if smoke {
        (64, 0.36, 8, 3)
    } else {
        (256, 0.18, 16, 6)
    };
    let scenario = ScenarioSpec::builder()
        .topology(TopologySpec::RandomGeometric {
            n: nodes,
            radius,
            seed: 42,
        })
        .traffic(TrafficSpec::random_flows(
            flows,
            SimDuration::from_millis(250),
            64,
            7,
        ))
        .warmup(SimDuration::from_secs(WARMUP_S))
        .duration(SimDuration::from_secs(PERIOD_S * rounds))
        .build();
    let mut world = scenario.world_builder().seed(seed).build();
    let fleet = install_fleet(&mut world, Stack::Dymo);
    scenario.install_traffic(&mut world);
    let options = TxnOptions {
        health: Some(HealthGate::over_window(SimDuration::from_secs(1)).max_drop(0.9)),
    };

    let mut window = world.stats_window();
    let mut round_end = SimTime::ZERO + scenario.warmup();
    world.run_until(round_end);
    window.skip(&world);
    let between = [Stack::Dymo, Stack::Aodv];
    let mut out = Vec::new();
    for round in 0..rounds as usize {
        let (from, to) = (between[round % 2], between[(round + 1) % 2]);
        round_end += SimDuration::from_secs(PERIOD_S);
        let report = fleet.execute(
            &mut world,
            ReconfigRequest::new()
                .recipe(|| from.recipe_to(to))
                .strategy(Strategy::TwoPhase(options.clone())),
        );
        let stack = to.protocols();
        let stack: Vec<&str> = stack.iter().map(String::as_str).collect();
        assert!(fleet.all_run(&stack), "round {round}: fleet runs {to}");
        world.run_until(round_end);
        let seen = window.advance(&world);
        out.push(Round {
            from,
            to,
            verdict: report.verdict,
            control_frames: seen.control_frames,
            control_received: seen.control_received,
            route_discoveries: seen.agent_counter("route_discovery"),
            data_sent: seen.data_sent,
            data_delivered: seen.data_delivered,
            gate: report
                .disruption
                .map_or_else(|| "-".to_string(), |d| d.to_string()),
        });
    }
    // Let the last datagrams land before judging delivery.
    world.run_for(SimDuration::from_secs(1));
    let stats = world.stats();
    assert_eq!(
        stats.data_delivered, stats.data_sent,
        "no datagram lost across {rounds} switches"
    );
    assert_eq!(stats.agent_counter("txn.rollback_mismatch"), 0);
    out
}

/// Kernel routes per node of a 4-node DYMO line before a prepared switch
/// to AODV, while it is prepared, and after it was aborted.
fn prepare_abort_probe() -> [Vec<usize>; 3] {
    let mut world = World::builder().topology(Topology::line(4)).seed(2).build();
    let fleet = install_fleet(&mut world, Stack::Dymo);
    let far = world.addr(NodeId(3));
    let mut t = SimTime::ZERO + SimDuration::from_secs(3);
    while t < SimTime::ZERO + SimDuration::from_secs(12) {
        world.send_datagram_at(t, NodeId(0), far, vec![0u8; 64]);
        t += SimDuration::from_millis(250);
    }
    world.run_until(SimTime::ZERO + SimDuration::from_secs(9));
    let routes = |world: &World| -> Vec<usize> {
        world
            .node_ids()
            .map(|id| world.os(id).route_table().len())
            .collect()
    };
    let discoveries = world.stats().agent_counter("route_discovery");
    let before = routes(&world);

    let handles: Vec<_> = world
        .node_ids()
        .map(|id| fleet.handle_of(id).expect("fleet member").clone())
        .collect();
    for handle in &handles {
        handle.txn_ctl(TxnCtl::Prepare {
            id: 1,
            ops: Stack::Dymo.recipe_to(Stack::Aodv),
            requested: Some(world.now()),
            deadline: None,
        });
    }
    world.run_for(SimDuration::from_millis(300));
    let prepared = routes(&world);
    for handle in &handles {
        handle.txn_ctl(TxnCtl::Abort {
            id: 1,
            reason: "peer_abort",
        });
    }
    world.run_for(SimDuration::from_millis(300));
    for handle in &handles {
        let txn = handle.status().txn.expect("took part");
        assert_eq!(txn.phase, TxnPhase::RolledBack);
        assert_eq!(txn.detail, "peer_abort", "no rollback mismatch");
    }
    let after = routes(&world);
    world.run_until(SimTime::ZERO + SimDuration::from_secs(13));
    let stats = world.stats();
    assert_eq!(
        stats.agent_counter("route_discovery"),
        discoveries,
        "the aborted switch cost no rediscovery"
    );
    assert_eq!(stats.data_delivered, stats.data_sent);
    [before, prepared, after]
}

fn report(args: &Args) -> String {
    let rounds = churn(args.smoke, args.seed);
    let probe = prepare_abort_probe();

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"experiment\":\"E23\",\"smoke\":{},\"seed\":{},\"rounds\":[",
        args.smoke, args.seed
    );
    for (i, r) in rounds.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"round\":{i},\"from\":\"{}\",\"to\":\"{}\",\"verdict\":\"{}\",\
             \"control_frames\":{},\"control_received\":{},\"route_discoveries\":{},\
             \"data_sent\":{},\"data_delivered\":{},\"gate_window\":\"{}\"}}",
            r.from,
            r.to,
            r.verdict,
            r.control_frames,
            r.control_received,
            r.route_discoveries,
            r.data_sent,
            r.data_delivered,
            r.gate
        );
    }
    let total = |f: fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>();
    let _ = write!(
        json,
        "],\"total\":{{\"control_frames\":{},\"control_received\":{},\"route_discoveries\":{}}},\
         \"prepare_abort_probe\":{{\"routes_before\":{:?},\"routes_prepared\":{:?},\"routes_after\":{:?}}}}}",
        total(|r| r.control_frames),
        total(|r| r.control_received),
        total(|r| r.route_discoveries),
        probe[0],
        probe[1],
        probe[2]
    );

    println!("round  switch        verdict    ctl frames  receptions  discoveries  delivered");
    for (i, r) in rounds.iter().enumerate() {
        println!(
            "{i:>5}  {:<4} -> {:<4}  {:<9}  {:>10}  {:>10}  {:>11}  {:>5}/{}",
            r.from,
            r.to,
            r.verdict.to_string(),
            r.control_frames,
            r.control_received,
            r.route_discoveries,
            r.data_delivered,
            r.data_sent
        );
        println!("       gate window: {}", r.gate);
    }
    println!(
        "prepare-then-abort probe, kernel routes per node: before {:?}, prepared {:?}, after {:?}",
        probe[0], probe[1], probe[2]
    );

    for (i, r) in rounds.iter().enumerate() {
        assert_eq!(r.verdict, TxnVerdict::Committed, "round {i}");
        if i > 0 {
            assert_eq!(
                r.route_discoveries, 0,
                "round {i}: the routes crossed the switch"
            );
        }
    }
    assert!(
        rounds[0].route_discoveries > 0,
        "traffic starts with round 0: its flows discover their routes once"
    );
    assert_eq!(probe[0], probe[2], "the abort restored every kernel table");
    assert_eq!(
        probe[0], probe[1],
        "and the prepared AODV had adopted them all"
    );
    json
}

fn main() {
    let args = parse_args();
    let first = report(&args);
    println!("\n-- determinism double-run --");
    let second = report(&args);
    assert_eq!(first, second, "same seed, same report");
    std::fs::write(&args.out, &first).expect("write the report");
    println!(
        "\nreport written to {} — byte-identical on the second run — switch cost OK",
        args.out
    );
}
