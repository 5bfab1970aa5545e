//! The monitor→act halves of the adaptive loop: advance the world in
//! fixed epochs, sample a windowed [`netsim::WorldStats`] delta through a
//! [`StatsWindow`] cursor, ask the [`Policy`] for a decision, and enact
//! switches as health-gated fleet transactions through the unified
//! [`FleetCoordinator::execute`] entry point.
//!
//! Every tick and switch attempt is also recorded as `adapt.*` node
//! counters (on the fleet's first node), so adaptive campaign cells carry
//! the loop's behaviour inside their deterministic stats fingerprints —
//! including what each switch cost the network in its provisional window
//! (`adapt.disruption.*`, summed over the switches).

use manetkit::{
    Disruption, FleetCoordinator, HealthGate, ReconfigRequest, Strategy, TxnOptions, TxnVerdict,
};
use netsim::{NodeId, SimDuration, SimTime, StatsWindow, World};

use crate::policy::{Decision, Policy};
use crate::stacks::Stack;

/// Tuning for the adaptive loop.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptConfig {
    /// Stack the fleet boots with.
    pub start: Stack,
    /// Telemetry window / decision tick length.
    pub epoch: SimDuration,
    /// Minimum virtual time between switch attempts.
    pub cooldown: SimDuration,
    /// Decision ticks a reverted target spends in the penalty box.
    pub penalty_ticks: u32,
    /// Transaction options for enacted switches; the default carries a
    /// [`HealthGate`] so a bad switch reverts itself.
    pub txn: TxnOptions,
}

impl Default for AdaptConfig {
    /// 5-second epochs, 20-second cooldown, 6-tick penalty box, and a
    /// health gate watching a 5-second provisional window for a 0.3
    /// delivery drop.
    fn default() -> Self {
        AdaptConfig {
            start: Stack::Olsr,
            epoch: SimDuration::from_secs(5),
            cooldown: SimDuration::from_secs(20),
            penalty_ticks: 6,
            txn: TxnOptions {
                health: Some(HealthGate::over_window(SimDuration::from_secs(5)).max_drop(0.3)),
            },
        }
    }
}

/// One enacted (attempted) switch, for the engine's audit log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchEvent {
    /// Virtual time the decision was made.
    pub at: SimTime,
    /// Rule that fired.
    pub rule: &'static str,
    /// Stack before the attempt.
    pub from: Stack,
    /// Target stack.
    pub to: Stack,
    /// How the fleet transaction ended.
    pub verdict: TxnVerdict,
    /// What the network did in the health gate's provisional window
    /// (`None` when the transaction never got that far).
    pub disruption: Option<Disruption>,
}

/// The closed-loop engine: owns the fleet coordinator, the policy state
/// and the telemetry cursor.
pub struct AdaptiveEngine {
    fleet: FleetCoordinator,
    policy: Policy,
    config: AdaptConfig,
    window: StatsWindow,
    counter_node: NodeId,
    log: Vec<SwitchEvent>,
}

/// Installs a fresh `start`-stack node on every node of the world and
/// returns the fleet coordinator over their handles — the standard way to
/// populate a world the adaptive engine will manage.
pub fn install_fleet(world: &mut World, start: Stack) -> FleetCoordinator {
    let ids: Vec<NodeId> = world.node_ids().collect();
    let mut fleet = FleetCoordinator::default();
    for id in ids {
        let (node, handle) = start.node();
        fleet.add_node(id, handle);
        world.install_agent(id, Box::new(node));
    }
    fleet
}

impl AdaptiveEngine {
    /// An engine over an already-populated world and its fleet, using the
    /// shipped default rules.
    #[must_use]
    pub fn new(world: &World, fleet: FleetCoordinator, config: AdaptConfig) -> Self {
        let policy = Policy::new(
            config.start,
            Policy::default_rules(),
            config.cooldown,
            config.penalty_ticks,
        );
        Self::with_policy(world, fleet, config, policy)
    }

    /// An engine with a custom policy (rules, thresholds, start stack).
    #[must_use]
    pub fn with_policy(
        world: &World,
        fleet: FleetCoordinator,
        config: AdaptConfig,
        policy: Policy,
    ) -> Self {
        let counter_node = world.node_ids().next().unwrap_or(NodeId(0));
        AdaptiveEngine {
            fleet,
            policy,
            config,
            window: world.stats_window(),
            counter_node,
            log: Vec::new(),
        }
    }

    /// The switches attempted so far, in order.
    #[must_use]
    pub fn log(&self) -> &[SwitchEvent] {
        &self.log
    }

    /// The stack the policy believes the fleet runs.
    #[must_use]
    pub fn current(&self) -> Stack {
        self.policy.current()
    }

    /// The coordinator, for post-run stack verification.
    #[must_use]
    pub fn fleet(&self) -> &FleetCoordinator {
        &self.fleet
    }

    fn bump(&self, world: &mut World, name: &'static str) {
        world.os_mut(self.counter_node).bump(name);
    }

    /// One decision tick over the telemetry accumulated since the last
    /// one. Enacting a switch advances virtual time (two-phase prepare
    /// polling plus the health gate's pre- and provisional windows).
    pub fn tick(&mut self, world: &mut World) {
        let stats = self.window.advance(world);
        self.bump(world, "adapt.ticks");
        match self.policy.decide(world.now(), &stats) {
            Decision::Hold(_) => {}
            Decision::Switch { rule, from, to } => {
                let at = world.now();
                let opts = self.config.txn.clone();
                let report = self.fleet.execute(
                    world,
                    ReconfigRequest::new()
                        .recipe(|| from.recipe_to(to))
                        .strategy(Strategy::TwoPhase(opts)),
                );
                self.bump(world, "adapt.switches");
                self.bump(
                    world,
                    match report.verdict {
                        TxnVerdict::Committed => "adapt.committed",
                        TxnVerdict::Aborted => "adapt.aborts",
                        TxnVerdict::Reverted => "adapt.reverts",
                        _ => "adapt.other",
                    },
                );
                if report.verdict == TxnVerdict::Committed {
                    // Nodes that missed the committed switch (down at the
                    // start, or crashed mid-transaction) are reconciled
                    // best-effort: the recipe enqueues on their handles and
                    // applies at their first post-reboot quiescent point —
                    // after their own doomed-transaction rollback.
                    for node in report.skipped.iter().chain(&report.unresolved) {
                        if let Some(handle) = self.fleet.handle_of(*node) {
                            for op in from.recipe_to(to) {
                                handle.apply(op);
                            }
                            self.bump(world, "adapt.repairs");
                        }
                    }
                }
                if let Some(d) = report.disruption {
                    let os = world.os_mut(self.counter_node);
                    os.bump_by("adapt.disruption.control_frames", d.control_frames);
                    os.bump_by("adapt.disruption.control_received", d.control_received);
                    os.bump_by("adapt.disruption.data_sent", d.data_sent);
                    os.bump_by("adapt.disruption.data_delivered", d.data_delivered);
                    os.bump_by("adapt.disruption.route_discoveries", d.route_discoveries);
                }
                self.policy.on_verdict(world.now(), to, report.verdict);
                self.log.push(SwitchEvent {
                    at,
                    rule,
                    from,
                    to,
                    verdict: report.verdict,
                    disruption: report.disruption,
                });
                // The transaction consumed telemetry (health windows ran
                // under it); restart the cursor so the next decision sees
                // only post-switch behaviour.
                self.window.skip(world);
            }
        }
    }

    /// Runs the closed loop until (at least) `until`: repeatedly advance
    /// one epoch and tick. A switch enacted near the end may overshoot
    /// `until` by its transaction windows; the overshoot is deterministic.
    pub fn run_until(&mut self, world: &mut World, until: SimTime) {
        while world.now() < until {
            let next = (world.now() + self.config.epoch).min(until);
            world.run_until(next);
            self.tick(world);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Topology;

    fn secs(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(n)
    }

    #[test]
    fn healthy_world_never_switches() {
        let mut world = World::builder().topology(Topology::line(3)).seed(5).build();
        let fleet = install_fleet(&mut world, Stack::Olsr);
        let mut engine = AdaptiveEngine::new(&world, fleet, AdaptConfig::default());

        let dst = world.addr(NodeId(2));
        let mut t = secs(10);
        while t < secs(60) {
            world.send_datagram_at(t, NodeId(0), dst, vec![0u8; 64]);
            t += SimDuration::from_millis(500);
        }
        world.run_until(secs(10));
        engine.run_until(&mut world, secs(60));

        assert!(engine.log().is_empty(), "no switch: {:?}", engine.log());
        assert_eq!(engine.current(), Stack::Olsr);
        assert!(engine.fleet().all_run(&["mpr", "olsr"]));
        let stats = world.stats();
        assert!(stats.agent_counter("adapt.ticks") >= 10);
        assert_eq!(stats.agent_counter("adapt.switches"), 0);
    }

    #[test]
    fn engine_run_is_deterministic() {
        let run = || {
            let mut world = World::builder().topology(Topology::line(4)).seed(9).build();
            let fleet = install_fleet(&mut world, Stack::Olsr);
            let mut engine = AdaptiveEngine::new(&world, fleet, AdaptConfig::default());
            let dst = world.addr(NodeId(3));
            let mut t = secs(10);
            while t < secs(90) {
                world.send_datagram_at(t, NodeId(0), dst, vec![0u8; 64]);
                t += SimDuration::from_millis(250);
            }
            world.run_until(secs(10));
            engine.run_until(&mut world, secs(90));
            (world.stats().canonical(), engine.log().to_vec())
        };
        let (a_stats, a_log) = run();
        let (b_stats, b_log) = run();
        assert_eq!(a_log, b_log);
        assert!(
            a_stats.first_difference(&b_stats).is_none(),
            "stats diverge: {:?}",
            a_stats.first_difference(&b_stats)
        );
    }
}
