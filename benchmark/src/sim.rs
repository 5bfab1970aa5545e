//! One simulated run: a `netsim::World` built from a campaign scenario,
//! populated with a routing stack, driven through warm-up and a measured
//! window, and checked. Five of the six workloads, and every twin, are a
//! [`SimSpec`].

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use adapt::Stack;
use campaign::{CellResult, ScenarioSpec};
use manetkit::{FleetCoordinator, HealthGate, ReconfigRequest, Strategy, TxnOptions, TxnVerdict};
use manetkit_baseline::Dymoum;
use netsim::{NodeId, PhyModel, RoutingAgent, SimDuration, SimTime, World, WorldStats};

use crate::alloc;
use crate::checks::Checks;
use crate::metrics::{ratio, Ledger};
use crate::spans::{AgentMeter, Open, SpanAgent, Tracer, CROSSING_SPANS};

/// What runs on every node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Agents {
    /// Nothing: the world's data plane forwards geographically.
    Geo,
    /// A MANETKit framework stack.
    Framework(Stack),
    /// The monolithic DYMO daemon (the framework's twin).
    Dymoum,
}

/// Fleet-wide protocol switches during the measured window: round `k`
/// starts `k` periods after warm-up, switches every node between the two
/// stacks as one health-gated two-phase transaction, then watches a
/// statistics window every simulated second until the next round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Churn {
    pub rounds: u32,
    pub period: SimDuration,
    pub gate: SimDuration,
    pub between: [Stack; 2],
}

#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// Topology or mobility, traffic, warm-up and measured span.
    pub scenario: ScenarioSpec,
    /// World seed.
    pub seed: u64,
    pub phy: PhyModel,
    pub agents: Agents,
    pub churn: Option<Churn>,
    /// Per-node flight-recorder capacity, when the recorder is attached.
    pub recorder: Option<usize>,
    /// Lowest delivery ratio of the measured window that counts as correct.
    pub delivery_floor: f64,
    /// How much of the run, from its start, the event count covers. The
    /// count comes from a `World::step` replay that scans every node once
    /// per event, so a 10,000-node world can afford only a prefix; a run
    /// with churn cannot be replayed past its warm-up at all.
    pub events_horizon: SimDuration,
}

impl SimSpec {
    fn warmup_end(&self) -> SimTime {
        SimTime::ZERO + self.scenario.warmup()
    }

    /// Traffic stops at the scenario's end; one more second lets packets
    /// in flight settle.
    fn run_end(&self) -> SimTime {
        self.scenario.end() + SimDuration::from_secs(1)
    }

    fn horizon(&self) -> SimTime {
        let horizon = (SimTime::ZERO + self.events_horizon).min(self.run_end());
        assert!(
            horizon >= self.warmup_end() && (self.churn.is_none() || horizon == self.warmup_end()),
            "the events horizon covers the warm-up, and nothing more under churn"
        );
        horizon
    }

    /// Checks one pass runs (see [`run_pass`]).
    fn checks_per_pass(&self, has_reference: bool) -> u64 {
        3 + u64::from(has_reference) + self.churn.map_or(0, |c| 2 * u64::from(c.rounds) + 1)
    }
}

/// A world ready to run.
pub struct Sim {
    pub world: World,
    fleet: FleetCoordinator,
    /// Datagrams the traffic installer scheduled.
    scheduled_sends: u64,
}

/// One set-up: build the world, install the agents, the mobility schedule
/// and the traffic.
pub fn set_up(spec: &SimSpec, tracer: &mut Tracer, meter: Option<&Arc<AgentMeter>>) -> Sim {
    let span = tracer.enter("netsim.build");
    let mut builder = spec.scenario.world_builder().seed(spec.seed).phy(spec.phy);
    if spec.agents == Agents::Geo {
        builder = builder.geo_routing(true);
    }
    if let Some(capacity) = spec.recorder {
        builder = builder.trace(capacity);
    }
    let mut world = builder.build();
    tracer.exit(span);

    let span = tracer.enter("netsim.install");
    let mut fleet = FleetCoordinator::default();
    let ids: Vec<NodeId> = world.node_ids().collect();
    for id in ids {
        match spec.agents {
            Agents::Geo => {}
            Agents::Framework(stack) => {
                let (node, handle) = stack.node();
                fleet.add_node(id, handle);
                install(&mut world, id, node, meter);
            }
            Agents::Dymoum => install(&mut world, id, Dymoum::new(), meter),
        }
    }
    spec.scenario.install_mobility(&mut world);
    let before = world.pending_events();
    spec.scenario.install_traffic(&mut world);
    let scheduled_sends = (world.pending_events() - before) as u64;
    tracer.exit(span);
    Sim {
        world,
        fleet,
        scheduled_sends,
    }
}

fn install<A: RoutingAgent + 'static>(
    world: &mut World,
    id: NodeId,
    agent: A,
    meter: Option<&Arc<AgentMeter>>,
) {
    match meter {
        Some(meter) => world.install_agent(id, Box::new(SpanAgent::new(agent, meter.clone()))),
        None => world.install_agent(id, Box::new(agent)),
    }
}

/// What one pass measured.
pub struct SimRun {
    pub setup_s: f64,
    /// Warm-up plus measured window: every call that advances the world.
    pub wall_s: f64,
    /// The measured window, in canonical form.
    pub window: WorldStats,
    /// The whole run.
    pub totals: WorldStats,
    /// Host seconds inside `run_until` from the start to the events horizon.
    pub horizon_run_s: f64,
    /// Allocations and bytes over the same stretch (traced passes only).
    pub horizon_allocs: (u64, u64),
    pub world: World,
}

/// Calls into the world, wrapped in spans.
struct Driver<'a> {
    tracer: &'a mut Tracer,
    meter: Option<&'a Arc<AgentMeter>>,
    run_s: f64,
}

impl Driver<'_> {
    fn run_until(&mut self, world: &mut World, t: SimTime) {
        let span = self.tracer.enter("netsim.run");
        let started = Instant::now();
        world.run_until(t);
        self.run_s += started.elapsed().as_secs_f64();
        self.close(span);
    }

    /// Closes a span around a call that ran agents.
    fn close(&mut self, span: Open) {
        if let Some(meter) = self.meter {
            self.tracer.drain(meter);
        }
        self.tracer.exit(span);
    }

    fn stats<R>(&mut self, call: impl FnOnce() -> R) -> R {
        let span = self.tracer.enter("netsim.stats");
        let result = call();
        self.tracer.exit(span);
        result
    }
}

/// [`run_pass`] with its checks declared: `None` when the pass panicked.
pub fn checked_pass(
    spec: &SimSpec,
    tracer: &mut Tracer,
    meter: Option<&Arc<AgentMeter>>,
    reference: Option<&WorldStats>,
    checks: &mut Checks,
) -> Option<SimRun> {
    checks.pass(spec.checks_per_pass(reference.is_some()), |checks| {
        run_pass(spec, tracer, meter, reference, checks)
    })
}

/// Runs one pass of `spec` and its checks:
///
/// 1. every scheduled datagram was sent in the measured window;
/// 2. the delivery ratio reaches the workload's floor;
/// 3. an agentless world sent no control frame, any other sent some;
/// 4. with a `reference` (the first pass), the window shows no difference;
/// 5. under churn, every round committed and left every node on the
///    expected stack, and transactions are conserved.
fn run_pass(
    spec: &SimSpec,
    tracer: &mut Tracer,
    meter: Option<&Arc<AgentMeter>>,
    reference: Option<&WorldStats>,
    checks: &mut Checks,
) -> SimRun {
    let started = Instant::now();
    let Sim {
        mut world,
        fleet,
        scheduled_sends,
    } = set_up(spec, tracer, meter);
    let setup_s = started.elapsed().as_secs_f64();

    let horizon = spec.horizon();
    let mut d = Driver {
        tracer,
        meter,
        run_s: 0.0,
    };
    let allocs_before = alloc::counted();
    alloc::set_counting(d.tracer.is_on());
    let started = Instant::now();
    let mut window = d.stats(|| world.stats_window());
    d.run_until(&mut world, spec.warmup_end());
    d.stats(|| window.skip(&world)); // warm-up is not measured
    d.run_until(&mut world, horizon);
    alloc::set_counting(false);
    let horizon_run_s = d.run_s;
    let allocs_after = alloc::counted();
    if let Some(churn) = spec.churn {
        run_churn(spec, churn, &mut d, &mut world, &fleet, checks);
    }
    d.run_until(&mut world, spec.run_end());
    let wall_s = started.elapsed().as_secs_f64();

    let totals = world.stats();
    let window = window.advance(&world).canonical();
    checks.check(
        "data_sent matches the schedule",
        window.data_sent == scheduled_sends,
        || format!("sent {} of {scheduled_sends} scheduled", window.data_sent),
    );
    checks.check(
        "delivery ratio reaches the floor",
        window.delivery_ratio() >= spec.delivery_floor,
        || format!("{} < {}", window.delivery_ratio(), spec.delivery_floor),
    );
    checks.check(
        "control traffic matches the stack",
        (spec.agents == Agents::Geo) == (window.control_frames == 0),
        || {
            format!(
                "{:?} sent {} control frames",
                spec.agents, window.control_frames
            )
        },
    );
    if let Some(reference) = reference {
        let difference = window.first_difference(reference);
        checks.check("the pass repeats the first", difference.is_none(), || {
            format!("first difference {difference:?}")
        });
    }
    if spec.churn.is_some() {
        let [prepared, committed, rolled_back] =
            ["txn.prepared", "txn.committed", "txn.rolled_back"].map(|c| totals.agent_counter(c));
        checks.check(
            "transactions are conserved",
            prepared == committed + rolled_back,
            || format!("{prepared} prepared, {committed} committed, {rolled_back} rolled back"),
        );
    }

    SimRun {
        setup_s,
        wall_s,
        window,
        totals,
        horizon_run_s,
        horizon_allocs: (
            allocs_after.0 - allocs_before.0,
            allocs_after.1 - allocs_before.1,
        ),
        world,
    }
}

fn run_churn(
    spec: &SimSpec,
    churn: Churn,
    d: &mut Driver<'_>,
    world: &mut World,
    fleet: &FleetCoordinator,
    checks: &mut Checks,
) {
    let options = TxnOptions {
        health: Some(HealthGate::over_window(churn.gate).max_drop(0.9)),
        ..TxnOptions::default()
    };
    let second = SimDuration::from_secs(1);
    let mut monitor = d.stats(|| world.stats_window());
    let mut round_end = spec.warmup_end();
    for round in 0..churn.rounds as usize {
        let (from, to) = (churn.between[round % 2], churn.between[(round + 1) % 2]);
        round_end += churn.period;

        let span = d.tracer.enter("core.reconfig.execute");
        let report = fleet.execute(
            world,
            ReconfigRequest::new()
                .recipe(|| from.recipe_to(to))
                .strategy(Strategy::TwoPhase(options.clone())),
        );
        d.close(span);
        checks.check(
            "the switch committed",
            report.verdict == TxnVerdict::Committed,
            || format!("round {round}: {report}"),
        );
        let expected = to.protocols();
        let expected: Vec<&str> = expected.iter().map(String::as_str).collect();
        checks.check(
            "every node runs the new stack",
            fleet.all_run(&expected),
            || {
                format!(
                    "round {round}: expected {expected:?}, got {:?}",
                    fleet.stacks()
                )
            },
        );

        while world.now() < round_end {
            d.run_until(world, (world.now() + second).min(round_end));
            black_box(d.stats(|| monitor.advance(world)));
        }
    }
}

/// Events the world dispatches from the start of the run to the events
/// horizon, counted by replaying the same set-up one `World::step` at a
/// time (the world keeps no count of its own).
pub fn count_events(spec: &SimSpec) -> u64 {
    let mut world = set_up(spec, &mut Tracer::off(), None).world;
    let horizon = spec.horizon();
    let mut events = 0;
    while world.step().is_some_and(|at| at <= horizon) {
        events += 1;
    }
    events
}

/// A printable fingerprint of a measured window: every field of the
/// canonical statistics, hashed (FNV-1a, 64 bits). Two commits that print
/// the same fingerprint simulated the same thing.
pub fn fingerprint(window: &WorldStats) -> String {
    let cell = CellResult {
        index: 0,
        protocol: "",
        scenario: String::new(),
        traffic: String::new(),
        phy: String::new(),
        fault: String::new(),
        seed: 0,
        stats: window.clone(),
        dispatch_micros: 0,
    };
    format!("{:016x}", fnv1a(cell.fingerprint().as_bytes()))
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fills the ledger with what the traced pass `run` and its spans show.
pub fn fill_ledger(ledger: &mut Ledger, tracer: &Tracer, run: &SimRun, events: u64) {
    let events = events as f64;
    let t = &run.totals;
    let counter = |name: &str| t.agent_counter(name) as f64;
    let events_in: u64 = t
        .agent_counters
        .iter()
        .filter(|(name, _)| name.starts_with("bus.") && name.ends_with(".events_in"))
        .map(|(_, v)| v)
        .sum();
    ledger.set_all([
        ("netsim.events", events),
        (
            "netsim.us_per_event",
            ratio(run.horizon_run_s * 1e6, events),
        ),
        (
            "netsim.allocs_per_event",
            ratio(run.horizon_allocs.0 as f64, events),
        ),
        (
            "netsim.alloc_bytes_per_event",
            ratio(run.horizon_allocs.1 as f64, events),
        ),
        ("netsim.run_s", tracer.total_s("netsim.run")),
        ("netsim.self_s", tracer.self_s("netsim.run")),
        ("netsim.build_s", tracer.total_s("netsim.build")),
        ("netsim.install_s", tracer.total_s("netsim.install")),
        ("netsim.stats_calls", tracer.count("netsim.stats") as f64),
        ("netsim.stats_s", tracer.total_s("netsim.stats")),
        ("netsim.data_hops", t.data_hops as f64),
        ("netsim.control_frames", t.control_frames as f64),
        ("netsim.control_received", t.control_received as f64),
        ("netsim.control_lost", t.control_lost as f64),
        ("phy.frames_tx", t.phy_frames_tx as f64),
        ("phy.queue_drops", t.phy_queue_drops as f64),
        ("phy.airtime_us", t.phy_airtime_us as f64),
        (
            "phy.queue_wait_p95_us",
            t.p95_phy_queue_wait().as_micros() as f64,
        ),
        ("core.bus.dispatch_rounds", counter("bus.dispatch_rounds")),
        ("core.bus.queue_depth_hwm", counter("bus.queue_depth_hwm")),
        ("core.bus.events_in", events_in as f64),
        (
            "core.reconfig.execute_calls",
            tracer.count("core.reconfig.execute") as f64,
        ),
        (
            "core.reconfig.execute_s",
            tracer.total_s("core.reconfig.execute"),
        ),
        ("core.reconfig.txn_prepared", counter("txn.prepared")),
        ("core.reconfig.txn_committed", counter("txn.committed")),
        ("core.reconfig.txn_rolled_back", counter("txn.rolled_back")),
    ]);
    const CROSSING_METRICS: [(&str, &str); 3] = [
        ("core.agent.on_frame_calls", "core.agent.on_frame_s"),
        ("core.agent.on_timer_calls", "core.agent.on_timer_s"),
        ("core.agent.on_filter_calls", "core.agent.on_filter_s"),
    ];
    for (span, (calls, seconds)) in CROSSING_SPANS.iter().zip(CROSSING_METRICS) {
        ledger.set_all([
            (calls, tracer.count(span) as f64),
            (seconds, tracer.total_s(span)),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campaign::{TopologySpec, TrafficSpec};

    fn tiny(agents: Agents) -> SimSpec {
        let scenario = ScenarioSpec::builder()
            .topology(TopologySpec::Grid(3, 3))
            .traffic(TrafficSpec::random_flows(
                4,
                SimDuration::from_millis(250),
                64,
                3,
            ))
            .warmup(SimDuration::from_secs(10))
            .duration(SimDuration::from_secs(10))
            .build();
        SimSpec {
            scenario,
            seed: 5,
            phy: PhyModel::Ideal,
            agents,
            churn: None,
            recorder: None,
            delivery_floor: 0.5,
            events_horizon: SimDuration::from_secs(21),
        }
    }

    #[test]
    fn span_agents_do_not_change_what_is_simulated() {
        let spec = tiny(Agents::Framework(Stack::Dymo));
        let mut checks = Checks::default();
        let plain = checked_pass(&spec, &mut Tracer::off(), None, None, &mut checks)
            .expect("the pass returns");

        let meter = Arc::new(AgentMeter::default());
        let mut tracer = Tracer::on();
        let traced = checked_pass(
            &spec,
            &mut tracer,
            Some(&meter),
            Some(&plain.window),
            &mut checks,
        )
        .expect("the pass returns");

        assert_eq!(checks.failed, 0, "{:?}", checks.failures);
        assert_eq!(checks.attempted, 7);
        assert_eq!(fingerprint(&plain.window), fingerprint(&traced.window));
        // Every control frame a node received crossed a SpanAgent.
        assert_eq!(
            tracer.count("core.agent.on_frame"),
            traced.totals.control_received
        );
        assert!(tracer.self_s("netsim.run") < tracer.total_s("netsim.run"));
        assert!(!meter.take_frames().is_empty());
        assert!(
            traced.horizon_allocs.0 > 0,
            "the traced pass counts allocations"
        );
        assert_eq!(plain.horizon_allocs, (0, 0), "an untraced pass does not");
    }

    #[test]
    fn the_step_replay_counts_the_same_run() {
        let spec = tiny(Agents::Dymoum);
        let events = count_events(&spec);
        assert_eq!(events, count_events(&spec), "the count repeats");
        // At least one event per scheduled datagram and per control frame
        // received.
        let mut checks = Checks::default();
        let run = checked_pass(&spec, &mut Tracer::off(), None, None, &mut checks)
            .expect("the pass returns");
        assert_eq!(checks.failed, 0, "{:?}", checks.failures);
        assert!(events > run.totals.data_sent + run.totals.control_received);
    }

    #[test]
    fn churn_switches_the_fleet_and_is_checked_every_round() {
        let mut spec = tiny(Agents::Framework(Stack::Dymo));
        spec.churn = Some(Churn {
            rounds: 2,
            period: SimDuration::from_secs(5),
            gate: SimDuration::from_secs(1),
            between: [Stack::Dymo, Stack::Aodv],
        });
        spec.events_horizon = SimDuration::from_secs(10);
        let mut checks = Checks::default();
        let mut tracer = Tracer::on();
        let run =
            checked_pass(&spec, &mut tracer, None, None, &mut checks).expect("the pass returns");
        assert_eq!(checks.failed, 0, "{:?}", checks.failures);
        assert_eq!(checks.attempted, 3 + 2 * 2 + 1);
        assert_eq!(tracer.count("core.reconfig.execute"), 2);
        assert_eq!(run.totals.agent_counter("txn.committed"), 2 * 9);
    }

    #[test]
    fn a_wrong_outcome_fails_its_check_and_a_panic_fails_them_all() {
        let mut spec = tiny(Agents::Dymoum);
        spec.delivery_floor = 1.5; // out of any run's reach
        let mut checks = Checks::default();
        checked_pass(&spec, &mut Tracer::off(), None, None, &mut checks).expect("the pass returns");
        assert_eq!(
            (checks.attempted, checks.failed),
            (3, 1),
            "{:?}",
            checks.failures
        );

        // Geographic forwarding needs positions, which a grid has not: the
        // world builder panics (its message is expected in the test output).
        let spec = tiny(Agents::Geo);
        let mut checks = Checks::default();
        assert!(checked_pass(&spec, &mut Tracer::off(), None, None, &mut checks).is_none());
        assert_eq!((checks.attempted, checks.failed), (3, 3));
    }

    #[test]
    fn fnv1a_matches_its_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
