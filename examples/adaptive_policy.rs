//! E18 — adaptive vs static: the closed-loop `Protocol::Adaptive`
//! treatment arm against the three static MANETKit stacks, across a
//! traffic × fault × seed grid on the paper's 5-node line.
//!
//! Per grid point (traffic, fault, seed) the adaptive cell's delivery
//! ratio is compared against the *best* static stack's: a point is a
//! **win** when adaptive matches or beats it within a 2-percentage-point
//! tolerance (ties count — on healthy cells the loop must hold OLSR and
//! tie it exactly). Acceptance: adaptive wins at least half of the grid
//! points, no adaptive switch is ever health-gate reverted, and the whole
//! campaign re-runs byte-identically (`--check-determinism` on by
//! default).
//!
//! Writes `BENCH_adaptive.json`: the comparison table plus the full
//! campaign report (deterministic section + timing).
//!
//! ```text
//! cargo run --release --example adaptive_policy -- [--smoke] [--threads N]
//!     [--no-check-determinism] [--out BENCH_adaptive.json]
//! ```
//!
//! `--smoke` shrinks the grid (one traffic shape, two faults, one seed)
//! for CI.

use manetkit_repro::campaign::{
    self, CampaignSpec, CellResult, FaultSpec, Protocol, RunConfig, ScenarioSpec, TopologySpec,
    TrafficSpec,
};
use manetkit_repro::netsim::{NodeId, SimDuration, SimTime};

const WARMUP_S: u64 = 30;
const MEASURED_S: u64 = 120;

fn secs(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(n)
}

/// The shared scenario: the paper's 5-node line, traffic supplied by the
/// campaign's traffic axis so it multiplies the grid.
fn line5_scenario() -> ScenarioSpec {
    ScenarioSpec::builder()
        .topology(TopologySpec::Line(5))
        .warmup(SimDuration::from_secs(WARMUP_S))
        .duration(SimDuration::from_secs(MEASURED_S))
        .build()
}

/// Mid-span partition {0,1,2} | {3,4}: cuts the 0 → 4 flow for 40 s and
/// trips the adaptive `partition-fallback` rule.
fn partition_fault() -> FaultSpec {
    FaultSpec::Partition {
        at: secs(WARMUP_S + 20),
        heal: secs(WARMUP_S + 60),
        groups: vec![
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![NodeId(3), NodeId(4)],
        ],
    }
}

/// Mid-line relay crash (the only 0 ↔ 4 articulation point), rebooting
/// cold after 30 s.
fn crash_fault() -> FaultSpec {
    FaultSpec::CrashFor {
        node: NodeId(2),
        at: secs(WARMUP_S + 20),
        downtime: SimDuration::from_secs(30),
    }
}

fn spec(smoke: bool) -> CampaignSpec {
    let mut spec = CampaignSpec::new(if smoke {
        "e18-adaptive-smoke"
    } else {
        "e18-adaptive"
    })
    .scenario("line5", line5_scenario())
    .traffic(
        "cbr4",
        TrafficSpec::cbr(NodeId(0), NodeId(4), SimDuration::from_millis(250)),
    );
    if !smoke {
        spec = spec.traffic(
            "flows6",
            TrafficSpec::random_flows(6, SimDuration::from_millis(250), 64, 17),
        );
    }
    spec = spec
        .protocols([
            Protocol::MkitOlsr,
            Protocol::MkitDymo,
            Protocol::MkitAodv,
            Protocol::Adaptive,
        ])
        .fault(FaultSpec::None)
        .fault(partition_fault());
    if !smoke {
        spec = spec.fault(crash_fault());
    }
    spec.seeds(if smoke { vec![1] } else { vec![1, 2] })
}

/// One grid point's comparison: the adaptive cell vs the best static cell
/// at the same (scenario, traffic, fault, seed) coordinate.
struct Point {
    scenario: String,
    traffic: String,
    fault: String,
    seed: u64,
    adaptive: f64,
    best_static: f64,
    best_protocol: String,
    win: bool,
}

/// Ties within two percentage points count as wins: on healthy points the
/// loop's job is to *hold* the incumbent and match it exactly.
const TOLERANCE: f64 = 0.02;

fn compare(cells: &[CellResult]) -> Vec<Point> {
    let mut points = Vec::new();
    for cell in cells.iter().filter(|c| c.protocol == "adaptive") {
        let at_same_point = |other: &&CellResult| {
            other.scenario == cell.scenario
                && other.traffic == cell.traffic
                && other.fault == cell.fault
                && other.seed == cell.seed
                && other.protocol != "adaptive"
        };
        let best = cells
            .iter()
            .filter(at_same_point)
            .max_by(|a, b| {
                a.stats
                    .delivery_ratio()
                    .total_cmp(&b.stats.delivery_ratio())
            })
            .expect("every adaptive cell has static baselines");
        let adaptive = cell.stats.delivery_ratio();
        let best_static = best.stats.delivery_ratio();
        points.push(Point {
            scenario: cell.scenario.clone(),
            traffic: cell.traffic.clone(),
            fault: cell.fault.clone(),
            seed: cell.seed,
            adaptive,
            best_static,
            best_protocol: best.protocol.to_string(),
            win: adaptive + TOLERANCE >= best_static,
        });
    }
    points
}

fn main() {
    let mut threads = campaign::available_threads();
    let mut check_determinism = true;
    let mut smoke = false;
    let mut out = String::from("BENCH_adaptive.json");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a positive integer");
            }
            "--smoke" => smoke = true,
            "--no-check-determinism" => check_determinism = false,
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!("unknown argument {other:?} (see the module docs)"),
        }
    }

    let spec = spec(smoke);
    let cells = spec.cells().len();
    println!(
        "campaign {:?}: {cells} cells on {threads} thread(s), determinism check {}",
        spec.name,
        if check_determinism { "on" } else { "off" },
    );

    let report = campaign::engine::run(
        &spec,
        &RunConfig {
            threads,
            check_determinism,
        },
    );

    for cell in &report.cells {
        let s = &cell.stats;
        println!(
            "  [{:2}] {:9} {:7} fault={:14} seed={}  delivery {:5.1}%  sent {:4}  \
             switches {} reverts {}",
            cell.index,
            cell.protocol,
            cell.traffic,
            cell.fault,
            cell.seed,
            100.0 * s.delivery_ratio(),
            s.data_sent,
            s.agent_counter("adapt.switches"),
            s.agent_counter("adapt.reverts"),
        );
    }

    let points = compare(&report.cells);
    let wins = points.iter().filter(|p| p.win).count();
    println!("adaptive vs best-static, per grid point (tolerance {TOLERANCE}):");
    for p in &points {
        println!(
            "  {}/{}/{}/s{}: adaptive {:5.1}% vs {:5.1}% ({}) — {}",
            p.scenario,
            p.traffic,
            p.fault,
            p.seed,
            100.0 * p.adaptive,
            100.0 * p.best_static,
            p.best_protocol,
            if p.win { "WIN" } else { "loss" },
        );
    }
    println!(
        "adaptive wins {wins}/{} grid points | merged switches {} | merged reverts {}",
        points.len(),
        report.merged.agent_counter("adapt.switches"),
        report.merged.agent_counter("adapt.reverts"),
    );

    // Acceptance.
    if let Some(check) = &report.determinism {
        assert!(
            check.passed(),
            "determinism check FAILED for cells: {:?}",
            check.mismatched
        );
        println!("determinism check: every cell re-ran byte-identical");
    }
    assert!(!points.is_empty(), "the grid must contain adaptive cells");
    assert!(
        2 * wins >= points.len(),
        "adaptive must match or beat the best static stack on at least \
         half of the grid points: {wins}/{}",
        points.len()
    );
    assert_eq!(
        report.merged.agent_counter("adapt.reverts"),
        0,
        "no adaptive switch may be health-gate reverted"
    );
    let faulted_switches: u64 = report
        .cells
        .iter()
        .filter(|c| c.protocol == "adaptive" && c.fault != "none")
        .map(|c| c.stats.agent_counter("adapt.switches"))
        .sum();
    assert!(
        faulted_switches > 0,
        "at least one faulted adaptive cell must actually switch"
    );
    let healthy_switches: u64 = report
        .cells
        .iter()
        .filter(|c| c.protocol == "adaptive" && c.fault == "none")
        .map(|c| c.stats.agent_counter("adapt.switches"))
        .sum();
    assert_eq!(
        healthy_switches, 0,
        "healthy adaptive cells must hold the incumbent stack"
    );

    // BENCH_adaptive.json: the comparison table + the campaign report.
    let point_objs: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"scenario\":\"{}\",\"traffic\":\"{}\",\"fault\":\"{}\",\"seed\":{},\
                 \"adaptive\":{:.6},\"best_static\":{:.6},\"best_protocol\":\"{}\",\"win\":{}}}",
                p.scenario,
                p.traffic,
                p.fault,
                p.seed,
                p.adaptive,
                p.best_static,
                p.best_protocol,
                p.win,
            )
        })
        .collect();
    // What the enacted switches cost the network in their health gates'
    // provisional windows, summed over the grid.
    let disruption = [
        "control_frames",
        "control_received",
        "data_sent",
        "data_delivered",
        "route_discoveries",
    ]
    .map(|field| {
        let total = report
            .merged
            .agent_counter(&format!("adapt.disruption.{field}"));
        format!("\"{field}\":{total}")
    })
    .join(",");
    let json = format!(
        "{{\"adaptive\":{{\"tolerance\":{TOLERANCE},\"wins\":{wins},\"points\":{},\
         \"switches\":{},\"reverts\":{},\"disruption\":{{{disruption}}},\
         \"comparison\":[{}]}},\"report\":{}}}",
        points.len(),
        report.merged.agent_counter("adapt.switches"),
        report.merged.agent_counter("adapt.reverts"),
        point_objs.join(","),
        report.to_json(),
    );
    std::fs::write(&out, json).expect("write report");
    println!("report written to {out}");
}
