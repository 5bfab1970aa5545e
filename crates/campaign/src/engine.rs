//! The parallel campaign executor.
//!
//! Every cell of a [`CampaignSpec`] is a self-contained deterministic
//! discrete-event simulation — a built [`netsim::World`] is `Send` — so a
//! campaign is embarrassingly parallel. The engine puts the deterministic
//! cell list behind an atomic cursor and lets `threads` scoped OS workers
//! *steal* the next unclaimed cell as they finish their last one
//! (self-scheduling: no static partitioning, so one slow cell never idles
//! the other workers). Results land in per-cell slots, so the report is in
//! deterministic cell order no matter which worker finished first — a
//! 1-thread and a 16-thread run of the same grid produce byte-identical
//! deterministic report sections.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use netsim::SimDuration;

use crate::report::{CampaignReport, CellResult, DeterminismCheck};
use crate::spec::{CampaignSpec, Cell, Protocol};

/// How a campaign is executed.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker OS threads (clamped to at least 1).
    pub threads: usize,
    /// Run every cell twice — scheduled independently, so the two
    /// executions usually land on different threads — and byte-compare
    /// the deterministic fingerprints. Wall-clock (`dispatch_micros`) is
    /// excluded from the comparison by construction.
    pub check_determinism: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: available_threads(),
            check_determinism: false,
        }
    }
}

/// The host's available parallelism (1 when unknown).
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Per-node flight-recorder ring capacity used when the engine replays a
/// mismatched cell under tracing (ample for the smoke-scale cells the
/// determinism checker re-runs).
#[cfg(feature = "trace")]
pub const TRACE_RING_CAPACITY: usize = 4096;

/// Executes one cell: build the world, deploy the protocol fleet-wide,
/// install traffic, run warm-up (discarded) plus the measured span, and
/// return the measured window in canonical (merge-ready) form.
#[must_use]
pub fn run_cell(spec: &CampaignSpec, cell: &Cell) -> CellResult {
    execute_cell(spec, cell, None).0
}

/// [`run_cell`] with the flight recorder attached: every node records into
/// a ring of `capacity` records, and the run's merged trace is returned
/// alongside the result. Attaching the recorder does not perturb the
/// simulation's random streams, so a traced replay of a seeded cell is the
/// same run.
#[cfg(feature = "trace")]
#[must_use]
pub fn run_cell_traced(
    spec: &CampaignSpec,
    cell: &Cell,
    capacity: usize,
) -> (CellResult, netsim::trace::Trace) {
    let (result, world) = execute_cell(spec, cell, Some(capacity));
    (result, world.trace())
}

fn execute_cell(
    spec: &CampaignSpec,
    cell: &Cell,
    trace_capacity: Option<usize>,
) -> (CellResult, netsim::World) {
    let started = Instant::now();
    let (scenario_label, scenario) = &spec.scenarios[cell.scenario];
    let fault = spec.fault_spec(cell);
    let phy = spec.phy_spec(cell);
    let mut builder = scenario.world_builder().seed(cell.seed).phy(phy.model);
    if cell.protocol.is_agentless() {
        builder = builder.geo_routing(true);
    }
    if let Some(plan) = fault.plan(cell.seed) {
        builder = builder.fault_plan(plan);
    }
    #[cfg(feature = "trace")]
    if let Some(capacity) = trace_capacity {
        builder = builder.trace(capacity);
    }
    #[cfg(not(feature = "trace"))]
    let _ = trace_capacity;
    let mut world = builder.build();
    let adaptive = cell.protocol == Protocol::Adaptive;
    let mut fleet = None;
    if adaptive {
        fleet = Some(adapt::install_fleet(&mut world, adapt::Stack::Olsr));
    } else if !cell.protocol.is_agentless() {
        let factory = cell.protocol.factory();
        let nodes: Vec<_> = world.node_ids().collect();
        for node in nodes {
            world.install_agent(node, factory());
        }
    }
    scenario.install_mobility(&mut world);
    scenario.install_traffic(&mut world);
    if let Some(traffic) = spec.traffic_spec(cell) {
        traffic.install(&mut world, scenario.warmup(), scenario.end());
    }

    let mut window = world.stats_window();
    world.run_for(scenario.warmup());
    window.skip(&world); // warm-up is not measured
    let end = scenario.end() + SimDuration::from_secs(1);
    if let Some(fleet) = fleet {
        // The closed loop starts after warm-up, so its telemetry windows
        // never see the convergence transient as a fault signal.
        let mut engine = adapt::AdaptiveEngine::new(&world, fleet, adapt::AdaptConfig::default());
        engine.run_until(&mut world, end);
    } else {
        world.run_until(end);
    }
    let stats = window.advance(&world).canonical();

    let result = CellResult {
        index: cell.index,
        protocol: cell.protocol.name(),
        scenario: scenario_label.clone(),
        traffic: spec.traffic_label(cell),
        phy: phy.label(),
        fault: fault.label(),
        seed: cell.seed,
        stats,
        dispatch_micros: started.elapsed().as_micros() as u64,
    };
    (result, world)
}

/// Runs the whole grid under `config` and assembles the report.
///
/// # Panics
///
/// Panics when the grid is empty or a worker thread panics.
#[must_use]
pub fn run(spec: &CampaignSpec, config: &RunConfig) -> CampaignReport {
    let cells = spec.cells();
    assert!(!cells.is_empty(), "campaign grid has no cells");
    let threads = config.threads.max(1);
    let started = Instant::now();

    // Work items: each cell once, or twice for the determinism check. The
    // second pass is appended *reversed* so the re-run of a given cell is
    // claimed by whichever worker frees up then — almost always a
    // different thread from the first execution.
    let mut work: Vec<(usize, &Cell)> = cells.iter().map(|c| (0, c)).collect();
    if config.check_determinism {
        work.extend(cells.iter().rev().map(|c| (1, c)));
    }

    let cursor = AtomicUsize::new(0);
    let results: Vec<Mutex<[Option<CellResult>; 2]>> =
        cells.iter().map(|_| Mutex::new([None, None])).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads.min(work.len()) {
            scope.spawn(|| loop {
                let next = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(pass, cell)) = work.get(next) else {
                    return;
                };
                let result = run_cell(spec, cell);
                results[cell.index].lock().expect("result slot poisoned")[pass] = Some(result);
            });
        }
    });
    let wall_micros = started.elapsed().as_micros() as u64;

    let mut firsts = Vec::with_capacity(cells.len());
    let mut mismatched = Vec::new();
    let mut details = Vec::new();
    let mut serial_micros = 0u64;
    for (slot, _cell) in results.into_iter().zip(cells.iter()) {
        let [first, second] = slot.into_inner().expect("result slot poisoned");
        let first = first.expect("every cell was executed");
        serial_micros += first.dispatch_micros;
        if config.check_determinism {
            let second = second.expect("determinism pass executed every cell");
            serial_micros += second.dispatch_micros;
            if first.fingerprint() != second.fingerprint() {
                // Name *what* diverged (the earliest differing stat field)…
                let detail = match first.stats.first_difference(&second.stats) {
                    Some((field, a, b)) => format!(
                        "{}: first differing stat `{field}` ({a} vs {b})",
                        first.label()
                    ),
                    None => format!(
                        "{}: fingerprints differ outside the stats fields",
                        first.label()
                    ),
                };
                // …then replay the cell twice under the flight recorder to
                // show *where*: the first diverging record with node,
                // virtual time and record kind.
                #[cfg(feature = "trace")]
                let detail = {
                    let (_, left) = run_cell_traced(spec, _cell, TRACE_RING_CAPACITY);
                    let (_, right) = run_cell_traced(spec, _cell, TRACE_RING_CAPACITY);
                    match netsim::trace::first_divergence(&left, &right) {
                        Some(d) => format!("{detail}; traced replay: {d}"),
                        None => format!("{detail}; traced replay did not reproduce the divergence"),
                    }
                };
                mismatched.push(first.label());
                details.push(detail);
            }
        }
        firsts.push(first);
    }

    let merged = firsts
        .iter()
        .fold(netsim::WorldStats::default(), |acc, c| acc.merged(&c.stats));

    CampaignReport {
        name: spec.name.clone(),
        cells: firsts,
        merged,
        threads,
        wall_micros,
        serial_micros,
        determinism: config.check_determinism.then_some(DeterminismCheck {
            mismatched,
            details,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FaultSpec, Protocol, ScenarioSpec, TopologySpec, TrafficSpec};
    use netsim::{NodeId, SimDuration};

    fn tiny_spec(name: &str) -> CampaignSpec {
        let scenario = ScenarioSpec::builder()
            .topology(TopologySpec::Line(3))
            .traffic(TrafficSpec::cbr(
                NodeId(0),
                NodeId(2),
                SimDuration::from_millis(500),
            ))
            .warmup(SimDuration::from_secs(5))
            .duration(SimDuration::from_secs(10))
            .build();
        CampaignSpec::new(name)
            .scenario("line3", scenario)
            .protocols([Protocol::MkitOlsr, Protocol::MkitDymo])
            .fault(FaultSpec::None)
            .seeds([1, 2])
    }

    #[test]
    fn parallel_run_matches_serial_run_byte_for_byte() {
        let spec = tiny_spec("engine-test");
        let serial = run(
            &spec,
            &RunConfig {
                threads: 1,
                check_determinism: false,
            },
        );
        let parallel = run(
            &spec,
            &RunConfig {
                threads: 4,
                check_determinism: false,
            },
        );
        assert_eq!(
            serial.deterministic_json(),
            parallel.deterministic_json(),
            "thread count must not leak into the deterministic report"
        );
        assert_eq!(serial.cells.len(), 4);
        assert!(serial.merged.data_sent > 0, "campaign must move traffic");
    }

    #[test]
    fn determinism_check_passes_on_a_deterministic_grid() {
        let spec = tiny_spec("det-test");
        let report = run(
            &spec,
            &RunConfig {
                threads: 4,
                check_determinism: true,
            },
        );
        let check = report.determinism.expect("check ran");
        assert!(check.passed(), "mismatches: {:?}", check.mismatched);
    }

    #[test]
    fn geo_cells_run_agentless_over_mobile_spatial_worlds() {
        use netsim::mobility::RandomWaypoint;
        let scenario = ScenarioSpec::builder()
            .mobility(RandomWaypoint {
                nodes: 40,
                radius: 0.3,
                speed: 0.05,
                step: SimDuration::from_secs(1),
                duration: SimDuration::from_secs(15),
                pause: SimDuration::ZERO,
                seed: 3,
            })
            .traffic(TrafficSpec::random_flows(
                8,
                SimDuration::from_millis(500),
                32,
                17,
            ))
            .warmup(SimDuration::from_secs(5))
            .duration(SimDuration::from_secs(10))
            .build();
        let spec = CampaignSpec::new("geo-test")
            .scenario("rw40", scenario)
            .protocols([Protocol::Geo])
            .seeds([1, 2]);
        let report = run(
            &spec,
            &RunConfig {
                threads: 2,
                check_determinism: true,
            },
        );
        let check = report.determinism.expect("check ran");
        assert!(check.passed(), "mismatches: {:?}", check.mismatched);
        assert!(report.merged.data_sent > 0, "flows must inject traffic");
        assert!(
            report.merged.data_delivered > 0,
            "geo forwarding must deliver some packets on a dense walk"
        );
        assert_eq!(report.merged.control_frames, 0, "agentless: no control");
    }

    #[test]
    fn adaptive_cells_run_the_closed_loop_and_traffic_axis_multiplies_the_grid() {
        let scenario = ScenarioSpec::builder()
            .topology(TopologySpec::Line(3))
            .warmup(SimDuration::from_secs(10))
            .duration(SimDuration::from_secs(20))
            .build();
        let spec = CampaignSpec::new("adaptive-test")
            .scenario("line3", scenario)
            .traffic(
                "cbr-2hop",
                TrafficSpec::cbr(NodeId(0), NodeId(2), SimDuration::from_millis(500)),
            )
            .traffic(
                "cbr-1hop",
                TrafficSpec::cbr(NodeId(0), NodeId(1), SimDuration::from_millis(500)),
            )
            .protocols([Protocol::MkitOlsr, Protocol::Adaptive])
            .seeds([1]);
        assert_eq!(
            spec.cells().len(),
            4,
            "1 scenario x 2 traffics x 2 protocols"
        );
        let report = run(
            &spec,
            &RunConfig {
                threads: 2,
                check_determinism: true,
            },
        );
        let check = report.determinism.expect("check ran");
        assert!(check.passed(), "mismatches: {:?}", check.mismatched);
        for cell in &report.cells {
            assert!(
                cell.stats.delivery_ratio() > 0.9,
                "{}: healthy line must deliver ({:.3})",
                cell.label(),
                cell.stats.delivery_ratio()
            );
            if cell.protocol == "adaptive" {
                assert!(cell.stats.agent_counter("adapt.ticks") > 0);
                assert_eq!(
                    cell.stats.agent_counter("adapt.switches"),
                    0,
                    "{}: a healthy world never switches",
                    cell.label()
                );
            }
        }
        let labels: Vec<_> = report.cells.iter().map(|c| c.traffic.clone()).collect();
        assert_eq!(labels, ["cbr-2hop", "cbr-2hop", "cbr-1hop", "cbr-1hop"]);
    }

    #[test]
    fn merged_stats_equal_fold_of_cells() {
        let spec = tiny_spec("merge-test");
        let report = run(
            &spec,
            &RunConfig {
                threads: 2,
                check_determinism: false,
            },
        );
        let refold = report
            .cells
            .iter()
            .rev() // any order: merge is order-insensitive
            .fold(netsim::WorldStats::default(), |acc, c| acc.merged(&c.stats));
        assert_eq!(report.merged, refold);
    }
}
