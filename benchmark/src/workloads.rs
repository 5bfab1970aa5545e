//! The six workloads: closed, fixed-size simulations made from the seed.
//!
//! The seed is every world's seed (link delays, jitter, loss draws), and it
//! picks the flow endpoints (`seed + 6`) and the city's placements and walk
//! (`seed + 41`, so seed 1 is experiment E16's city) wherever the result
//! averages over enough of them to stay comparable from seed to seed. Three
//! things are held fixed because one draw of them moves a whole run by tens
//! of percent, which the benchmark's bounds could not tell from a
//! regression: the placement of the 256-node mesh (DYMO's 10-hop limit
//! makes each flow all or nothing, so the mesh must be one where every pair
//! is in reach), the walk and flows of `phy_air` (the cost of the
//! shared-airtime engine follows how many transmissions overlap, which is a
//! property of the geometry), and the flows of `reconfig_churn` (every
//! switch makes every flow find its route again, so the floods of a run are
//! rounds x flows that need one, and 16 flows do not average).

use std::hint::black_box;
use std::time::Instant;

use adapt::Stack;
use campaign::{ScenarioSpec, TopologySpec, TrafficSpec};
use mcheck::{default_suite, ExploreReport, Explorer, ScenarioConfig, Strategy, TwoPhaseSwitch};
use netsim::mobility::RandomWaypoint;
use netsim::{Channel, PhyModel, SimDuration};

use crate::checks::Checks;
use crate::sim::{fnv1a, Agents, Churn, SimSpec};
use crate::spans::Tracer;

pub const NAMES: [&str; 6] = [
    "city_geo",
    "grid_olsr",
    "mesh_dymo",
    "phy_air",
    "reconfig_churn",
    "mcheck_2pc",
];

// A process builds exactly one of these: the size gap costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Workload {
    Sim(SimSpec),
    Mcheck(McheckSpec),
}

/// Placement seed of the mesh and walk seed of `phy_air` (E16's and E19's).
const FIXED_MAP_SEED: u64 = 42;
/// Flow seed of `phy_air` and `reconfig_churn` (E19's).
const FIXED_FLOW_SEED: u64 = 7;

/// The workload called `name`, at full or smoke (under two seconds) size.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
    let secs = SimDuration::from_secs;
    let flows = |n: usize, interval_ms: u64, payload: usize, seed: u64| {
        TrafficSpec::random_flows(n, SimDuration::from_millis(interval_ms), payload, seed)
    };
    let sim = |scenario: ScenarioSpec, agents: Agents, delivery_floor: f64| SimSpec {
        events_horizon: scenario.warmup() + scenario.duration() + secs(1),
        scenario,
        seed,
        phy: PhyModel::Ideal,
        agents,
        churn: None,
        recorder: None,
        delivery_floor,
    };
    let fixed = |topology: TopologySpec, traffic: TrafficSpec, warmup: u64, span: u64| {
        ScenarioSpec::builder()
            .topology(topology)
            .traffic(traffic)
            .warmup(secs(warmup))
            .duration(secs(span))
            .build()
    };
    // A random-waypoint city on the unit square, walking at 0.005 a second.
    let city = |nodes, radius, pause, walk_seed, traffic: TrafficSpec, span: u64| {
        ScenarioSpec::builder()
            .mobility(RandomWaypoint {
                nodes,
                radius,
                speed: 0.005,
                step: secs(1),
                duration: secs(2 + span),
                pause: secs(pause),
                seed: walk_seed,
            })
            .traffic(traffic)
            .warmup(secs(2))
            .duration(secs(span))
            .build()
    };
    // 256 nodes with about 22 neighbours each, every pair within DYMO's
    // and AODV's 10 hops. The smoke mesh keeps the degree.
    let mesh = || TopologySpec::RandomGeometric {
        n: if smoke { 64 } else { 256 },
        radius: if smoke { 0.36 } else { 0.18 },
        seed: FIXED_MAP_SEED,
    };

    Some(match name {
        // The smoke cities keep the expected degree (n·π·r²) of the full ones.
        "city_geo" => {
            let scenario = if smoke {
                city(500, 0.11, 0, seed + 41, flows(60, 500, 32, seed + 6), 10)
            } else {
                city(
                    10_000,
                    0.025,
                    0,
                    seed + 41,
                    flows(1_200, 500, 32, seed + 6),
                    60,
                )
            };
            Workload::Sim(SimSpec {
                events_horizon: secs(4),
                ..sim(scenario, Agents::Geo, 0.7)
            })
        }
        "grid_olsr" => {
            let scenario = if smoke {
                fixed(TopologySpec::Grid(5, 5), flows(6, 250, 64, seed + 6), 15, 5)
            } else {
                fixed(
                    TopologySpec::Grid(8, 8),
                    flows(16, 250, 64, seed + 6),
                    15,
                    12,
                )
            };
            Workload::Sim(sim(scenario, Agents::Framework(Stack::Olsr), 0.95))
        }
        "mesh_dymo" => {
            let scenario = if smoke {
                fixed(mesh(), flows(16, 250, 64, seed + 6), 10, 15)
            } else {
                fixed(mesh(), flows(64, 250, 64, seed + 6), 20, 30)
            };
            Workload::Sim(sim(scenario, Agents::Framework(Stack::Dymo), 0.95))
        }
        "phy_air" => {
            let scenario = if smoke {
                city(
                    100,
                    0.2262,
                    2,
                    FIXED_MAP_SEED,
                    flows(45, 250, 84, FIXED_FLOW_SEED),
                    4,
                )
            } else {
                city(
                    400,
                    0.1131,
                    2,
                    FIXED_MAP_SEED,
                    flows(180, 250, 84, FIXED_FLOW_SEED),
                    5,
                )
            };
            Workload::Sim(SimSpec {
                phy: PhyModel::SharedAirtime(AIR),
                ..sim(scenario, Agents::Geo, 0.3)
            })
        }
        "reconfig_churn" => {
            let (n_flows, rounds) = if smoke { (8, 3) } else { (16, 6) };
            let churn = Churn {
                rounds,
                period: secs(4),
                gate: secs(1),
                between: [Stack::Dymo, Stack::Aodv],
            };
            let scenario = fixed(
                mesh(),
                flows(n_flows, 250, 64, FIXED_FLOW_SEED),
                10,
                4 * u64::from(rounds),
            );
            Workload::Sim(SimSpec {
                churn: Some(churn),
                events_horizon: secs(10),
                ..sim(scenario, Agents::Framework(Stack::Dymo), 0.8)
            })
        }
        "mcheck_2pc" => Workload::Mcheck(McheckSpec {
            config: ScenarioConfig {
                seed,
                ..ScenarioConfig::default()
            },
            depth: 12,
            cap: if smoke { 3_000 } else { 20_000 },
        }),
        _ => return None,
    })
}

/// `phy_air`'s channel: 128-byte frames take 8 ms, so a saturated
/// neighbourhood clears about 125 frames a second (E19's channel).
const AIR: Channel = Channel {
    bits_per_sec: 128_000,
    queue_frames: 16,
};

/// A bounded exploration of the 3-node OLSR→DYMO two-phase switch.
#[derive(Debug, Clone)]
pub struct McheckSpec {
    pub config: ScenarioConfig,
    pub depth: usize,
    /// States to visit; the graph is larger, so the run stops exactly here.
    pub cap: u64,
}

pub struct McheckRun {
    pub setup_s: f64,
    pub wall_s: f64,
    pub report: ExploreReport,
}

impl McheckSpec {
    /// One set-up: the initial model state (a 3-node world with its fleet,
    /// agents started, prepares queued).
    pub fn set_up(&self) {
        black_box(TwoPhaseSwitch::new(self.config.clone()));
    }

    /// Runs one exploration and its checks: it visited exactly its cap,
    /// found no violation, and (with a `reference`, the first pass)
    /// counted the same states.
    pub fn checked_pass(
        &self,
        tracer: &mut Tracer,
        reference: Option<&ExploreReport>,
        checks: &mut Checks,
    ) -> Option<McheckRun> {
        checks.pass(2 + u64::from(reference.is_some()), |checks| {
            let started = Instant::now();
            self.set_up();
            let setup_s = started.elapsed().as_secs_f64();

            let config = self.config.clone();
            let explorer = Explorer::new(move || TwoPhaseSwitch::new(config.clone()))
                .invariants(default_suite())
                .strategy(Strategy::Bfs)
                .depth_bound(self.depth)
                .max_states(self.cap);
            let span = tracer.enter("mcheck.explore");
            let started = Instant::now();
            let report = explorer.run();
            let wall_s = started.elapsed().as_secs_f64();
            tracer.exit(span);

            checks.check(
                "the exploration stops at its cap",
                report.truncated && report.states_explored == self.cap,
                || format!("explored {} of {}", report.states_explored, self.cap),
            );
            checks.check(
                "no invariant is violated",
                report.violations.is_empty(),
                || format!("{:?}", report.violations),
            );
            if let Some(reference) = reference {
                checks.check(
                    "the pass repeats the first",
                    counts(&report) == counts(reference),
                    || format!("{:?} vs {:?}", counts(&report), counts(reference)),
                );
            }
            McheckRun {
                setup_s,
                wall_s,
                report,
            }
        })
    }
}

fn counts(r: &ExploreReport) -> [u64; 8] {
    [
        r.states_explored,
        r.states_unique,
        r.dedup_hits,
        r.terminal_states,
        r.bound_hits,
        r.pruned,
        r.max_depth as u64,
        r.violations.len() as u64,
    ]
}

/// A printable fingerprint of an exploration's counts.
pub fn mcheck_fingerprint(report: &ExploreReport) -> String {
    format!("{:016x}", fnv1a(format!("{:?}", counts(report)).as_bytes()))
}

/// Share of the invariant-checked states on which every invariant held —
/// what `delivery_ratio` reads on the one workload that moves no data.
pub fn invariants_held_ratio(report: &ExploreReport) -> f64 {
    let unique = report.states_unique.max(1) as f64;
    1.0 - report.violations.len() as f64 / unique
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_at_both_sizes_and_unknown_names_do_not() {
        for name in NAMES {
            for smoke in [false, true] {
                assert!(build(name, 1, smoke).is_some(), "{name}");
            }
        }
        assert!(build("city", 1, false).is_none());
    }

    #[test]
    fn inputs_follow_the_seed() {
        let (Some(Workload::Sim(a)), Some(Workload::Sim(b)), Some(Workload::Sim(c))) = (
            build("city_geo", 1, true),
            build("city_geo", 1, true),
            build("city_geo", 2, true),
        ) else {
            panic!("city_geo is a simulation");
        };
        assert_eq!(a, b, "the same seed gives the same inputs");
        assert_ne!(a.scenario, c.scenario, "another seed moves nodes and flows");
        assert_ne!(a.seed, c.seed);
    }

    #[test]
    fn a_small_exploration_passes_its_checks_and_repeats() {
        let spec = McheckSpec {
            config: ScenarioConfig::default(),
            depth: 12,
            cap: 200,
        };
        let mut checks = Checks::default();
        let first = spec
            .checked_pass(&mut Tracer::off(), None, &mut checks)
            .expect("the pass returns");
        let second = spec
            .checked_pass(&mut Tracer::off(), Some(&first.report), &mut checks)
            .expect("the pass returns");
        assert_eq!(
            (checks.attempted, checks.failed),
            (5, 0),
            "{:?}",
            checks.failures
        );
        assert_eq!(
            mcheck_fingerprint(&first.report),
            mcheck_fingerprint(&second.report)
        );
        assert_eq!(invariants_held_ratio(&first.report), 1.0);
    }
}
