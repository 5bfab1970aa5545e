//! The checked scenario: a fleet-wide OLSR → DYMO switch (the
//! [`Stack::recipe_to`] recipe every other experiment commits) committed
//! two-phase while the scheduler is free to reorder deliveries, drop
//! messages, and crash/reboot nodes.
//!
//! # The coordinator
//!
//! The coordinator is the real one: the [`TwoPhaseMachine`] that
//! [`FleetCoordinator::execute`](manetkit::FleetCoordinator::execute)
//! steps at its 100 ms polls. Here the checker owns the clock, so the
//! scenario steps the machine after every scheduled choice, with every
//! node's published status. Two things the real driver gets from time
//! become choices:
//!
//! * **Verdict transport.** The `Prepare` verbs go straight to the nodes,
//!   but every later verb waits in a per-node outbox until the scheduler
//!   plays [`Choice::Verdict`] for that node. That window — some nodes
//!   told to commit while others still sit prepared — is exactly where
//!   split-brain compositions would appear, so it must be schedulable.
//!   Verbs ride the in-process control channel (reliable), so they can be
//!   delayed and reordered against everything else but not dropped.
//! * **Deadline expiry.** The fingerprint leaves absolute time out, so the
//!   machine is stepped at the deadline it waits on, never past it, until
//!   the scheduler plays [`Choice::Expire`]: then it is stepped just past
//!   it, and gives up on the participants that have not answered — an
//!   abort with `unprepared` laggards in the prepare phase, `unresolved`
//!   ones after a verdict. The nodes keep the world's clock, so one that
//!   reaches its quiescent point after the prepare deadline still refuses
//!   the prepare.
//!
//! # The dedup abstraction
//!
//! [`TwoPhaseSwitch::fingerprint`] hashes the transaction-relevant
//! projection of the state: per-node liveness, transaction phase,
//! published composition hash, `txn.*` ledgers, queued verbs, the pending
//! message multiset (class/owner/sender, **not** absolute arrival times),
//! the coordinator's phase, the outbox and the spent budgets. Routing soft
//! state (neighbour tables, sequence numbers) is deliberately outside the
//! abstraction — it churns with every frame and cannot influence the
//! checked invariants, so folding it in would explode the state count
//! without adding discriminating power.
//!
//! Leaving time out has one cost. Whether the world clock has passed the
//! prepare deadline decides how a node answers a `Prepare` it has not
//! processed yet, so a state may merge with a twin whose clock is earlier
//! and the refusal only the later clock allows goes unexplored. The
//! fingerprint also carries a stalled expiry (see
//! [`ExpiryProgress`](crate::ExpiryProgress)).

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::mem;
use std::sync::{Arc, OnceLock};

use adapt::Stack;
use manetkit::{
    structural_hash, CoordinatorPhase, ManetNode, NodeStatus, Recipe, TwoPhaseMachine, TxnCounters,
    TxnCtl, TxnPhase,
};
use netsim::{CounterId, NodeId, PendingClass, PendingEvent, SimDuration, Topology, World};

use crate::explorer::Model;
use crate::invariant::{NodeObs, Observation};
use crate::schedule::Choice;

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Fleet size (full-mesh topology).
    pub nodes: usize,
    /// Crash budget: total crashes the scheduler may inject.
    pub max_crashes: u32,
    /// Drop budget: total message drops the scheduler may inject.
    pub max_drops: u32,
    /// World seed (link delays etc.; exploration is exhaustive per seed).
    pub seed: u64,
    /// Build the world with the flight recorder, so
    /// [`Model::timeline`] can export a counterexample timeline. Only
    /// effective with the `trace` feature.
    pub trace: bool,
    /// Arm the seeded mutation: nodes *claim* the doomed-transaction
    /// rollback after a crash but skip the unwind (see
    /// [`manetkit::ManetNode::set_skip_doomed_rollback`]). The checker
    /// must catch this.
    pub skip_doomed_rollback: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            nodes: 3,
            max_crashes: 2,
            max_drops: 3,
            seed: 7,
            trace: false,
            skip_doomed_rollback: false,
        }
    }
}

/// The transaction id the scenario's single 2PC round uses.
const TXN_ID: u64 = 1;

/// The `txn.*` counters a state shows, in the order its fingerprint
/// hashes them: prepared, committed, rolled back, aborted, reverted and
/// rollback mismatches. Looked up once.
fn txn_counters() -> &'static [CounterId; 6] {
    static IDS: OnceLock<[CounterId; 6]> = OnceLock::new();
    IDS.get_or_init(|| {
        [
            "txn.prepared",
            "txn.committed",
            "txn.rolled_back",
            "txn.aborted",
            "txn.reverted",
            "txn.rollback_mismatch",
        ]
        .map(CounterId::named)
    })
}

/// What a state shows of a node's published status: its phase in the
/// checked transaction and its composition hash.
fn txn_view(status: &NodeStatus) -> (Option<TxnPhase>, Option<u64>) {
    let phase = status.txn.as_ref().filter(|r| r.id == TXN_ID);
    (phase.map(|r| r.phase), status.composition_hash)
}

/// A fleet mid-switch under a controlled scheduler. Implements
/// [`Model`]; build fresh instances via a closure over a
/// [`ScenarioConfig`] and hand them to an
/// [`Explorer`](crate::explorer::Explorer).
///
/// The scenario reaches its nodes only through the world
/// ([`World::agent`]), so [`Model::fork`] is a [`World::fork`] plus plain
/// copies: nothing in a fork points into its parent.
pub struct TwoPhaseSwitch {
    world: World,
    cfg: ScenarioConfig,
    name: String,
    /// Structural hash every node starts from (the rollback target).
    baseline: u64,
    coordinator: TwoPhaseMachine<'static>,
    /// Verbs the coordinator sent and the scheduler has not delivered —
    /// one queue per node, emptied by [`Choice::Verdict`].
    outbox: Vec<VecDeque<TxnCtl>>,
    crashes_used: u32,
    drops_used: u32,
    /// The last choice was an [`Choice::Expire`] that left the
    /// coordinator's phase where it was.
    stalled_expiry: bool,
}

impl TwoPhaseSwitch {
    /// Builds the initial state: a full-mesh OLSR fleet in controlled
    /// mode, agents started, and the coordinator started, with its
    /// `Prepare` verbs already queued at every node (processing them is
    /// the scheduler's business).
    #[must_use]
    pub fn new(cfg: ScenarioConfig) -> Self {
        let builder = World::builder()
            .topology(Topology::full(cfg.nodes))
            .seed(cfg.seed)
            .controlled();
        #[cfg(feature = "trace")]
        let builder = if cfg.trace {
            builder.trace(1 << 14)
        } else {
            builder
        };
        let mut world = builder.build();
        let mut baseline = None;
        for i in 0..cfg.nodes {
            let (mut node, _) = Stack::Olsr.node();
            node.set_publish_composition(true);
            if cfg.skip_doomed_rollback {
                node.set_skip_doomed_rollback(true);
            }
            // Every node starts from the same stack: hash the first.
            baseline.get_or_insert_with(|| structural_hash(node.deployment()));
            world.install_agent(NodeId(i), Box::new(node));
        }
        // Start the agents (parked StartAgent infra events) so every node
        // has published a composition before the first choice.
        settle(&mut world);
        let nodes: Vec<(NodeId, bool)> = (0..cfg.nodes).map(|i| (NodeId(i), true)).collect();
        let recipe: Recipe<'static> = Arc::new(|_| Stack::Olsr.recipe_to(Stack::Dymo));
        let (coordinator, prepare) =
            TwoPhaseMachine::start(TXN_ID, &nodes, recipe, None, world.now());
        let mut switch = TwoPhaseSwitch {
            world,
            name: format!("olsr_to_dymo_{}", cfg.nodes),
            outbox: (0..cfg.nodes).map(|_| VecDeque::new()).collect(),
            cfg,
            baseline: baseline.unwrap_or_default(),
            coordinator,
            crashes_used: 0,
            drops_used: 0,
            stalled_expiry: false,
        };
        for (i, verb) in prepare.map(|wait| wait.verbs).unwrap_or_default() {
            switch.node_mut(i).txn_ctl(verb);
        }
        switch
    }

    /// The world the fleet runs in, to read.
    #[must_use]
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Node `i`'s agent.
    fn node(&self, i: usize) -> &ManetNode {
        self.world
            .agent(NodeId(i))
            .expect("every node runs a ManetNode")
    }

    fn node_mut(&mut self, i: usize) -> &mut ManetNode {
        self.world
            .agent_mut(NodeId(i))
            .expect("every node runs a ManetNode")
    }

    /// Steps the coordinator with every node's published status, at the
    /// deadline it waits on — the latest time that has not expired it — or,
    /// for an expiry, 1 µs past it. The verbs it sends wait in the outbox.
    fn poll(&mut self, expire: bool) {
        let Some(deadline) = self.coordinator.deadline() else {
            return;
        };
        let now = deadline + SimDuration::from_micros(u64::from(expire));
        let statuses: Vec<NodeStatus> =
            (0..self.cfg.nodes).map(|i| self.node(i).status()).collect();
        if let Some(wait) = self.coordinator.step(now, &statuses, None) {
            for (i, verb) in wait.verbs {
                self.outbox[i].push_back(verb);
            }
        }
    }
}

/// Drains everything that is not a scheduling choice: infrastructure
/// events (agent starts after install/reboot) and behaviourally inert
/// arrivals (frames addressed to crashed nodes) — the world accounts them
/// exactly as a free run would, and leaving them pending would only
/// pollute the choice set and the fingerprint. (A crashed node's timers are
/// cancelled by the crash itself.)
fn settle(world: &mut World) {
    loop {
        let infra = world.run_controlled_infra();
        let dead: Vec<PendingEvent> = world
            .pending_controlled()
            .into_iter()
            .filter(|e| !e.live)
            .collect();
        for event in &dead {
            world.deliver_controlled(event);
        }
        if infra == 0 && dead.is_empty() {
            break;
        }
    }
}

/// Earliest live pending message on the `from → node` channel. `pending` is
/// in kernel pop order, so "earliest" is the frame the radio would deliver
/// first on that channel — per-channel FIFO.
fn earliest_message(pending: &[PendingEvent], node: usize, from: usize) -> Option<&PendingEvent> {
    pending.iter().find(|e| {
        e.live
            && e.node == NodeId(node)
            && e.from == Some(NodeId(from))
            && matches!(e.class, PendingClass::Control | PendingClass::Data)
    })
}

/// Earliest armed timer on `node`.
fn earliest_timer(pending: &[PendingEvent], node: usize) -> Option<&PendingEvent> {
    pending
        .iter()
        .find(|e| e.node == NodeId(node) && e.class == PendingClass::Timer)
}

impl Model for TwoPhaseSwitch {
    fn name(&self) -> &str {
        &self.name
    }

    fn fork(&self) -> Self {
        let verbs = |queue: &VecDeque<TxnCtl>| {
            queue
                .iter()
                .map(|verb| verb.fork().expect("a verb forks"))
                .collect()
        };
        TwoPhaseSwitch {
            world: self.world.fork().expect("every agent forks"),
            cfg: self.cfg.clone(),
            name: self.name.clone(),
            baseline: self.baseline,
            coordinator: self.coordinator.clone(),
            outbox: self.outbox.iter().map(verbs).collect(),
            crashes_used: self.crashes_used,
            drops_used: self.drops_used,
            stalled_expiry: self.stalled_expiry,
        }
    }

    fn enabled(&self) -> Vec<Choice> {
        let pending = self.world.pending_controlled();
        let mut out = Vec::new();
        for node in 0..self.cfg.nodes {
            for from in 0..self.cfg.nodes {
                if from != node && earliest_message(&pending, node, from).is_some() {
                    out.push(Choice::Deliver { node, from });
                    if self.drops_used < self.cfg.max_drops {
                        out.push(Choice::Drop { node, from });
                    }
                }
            }
        }
        for node in 0..self.cfg.nodes {
            if earliest_timer(&pending, node).is_some() {
                out.push(Choice::Timer { node });
            }
        }
        for node in 0..self.cfg.nodes {
            if !self.outbox[node].is_empty() {
                out.push(Choice::Verdict { node });
            }
        }
        if self.coordinator.deadline().is_some() {
            out.push(Choice::Expire);
        }
        for node in 0..self.cfg.nodes {
            if self.world.node_up(NodeId(node)) {
                if self.crashes_used < self.cfg.max_crashes {
                    out.push(Choice::Crash { node });
                }
            } else {
                out.push(Choice::Reboot { node });
            }
        }
        out
    }

    fn apply(&mut self, choice: Choice) -> bool {
        let pending = self.world.pending_controlled();
        let ok = match choice {
            Choice::Deliver { node, from } => earliest_message(&pending, node, from)
                .is_some_and(|e| self.world.deliver_controlled(e)),
            Choice::Drop { node, from } => {
                self.drops_used < self.cfg.max_drops
                    && earliest_message(&pending, node, from).is_some_and(|e| {
                        self.drops_used += 1;
                        self.world.drop_controlled(e)
                    })
            }
            Choice::Timer { node } => {
                earliest_timer(&pending, node).is_some_and(|e| self.world.deliver_controlled(e))
            }
            Choice::Verdict { node } => self.outbox[node]
                .pop_front()
                .map(|verb| self.node_mut(node).txn_ctl(verb))
                .is_some(),
            Choice::Expire => self.coordinator.deadline().is_some(),
            Choice::Crash { node } => {
                let up = self.world.node_up(NodeId(node));
                if up && self.crashes_used < self.cfg.max_crashes {
                    self.crashes_used += 1;
                    self.world.force_crash(NodeId(node));
                    true
                } else {
                    false
                }
            }
            Choice::Reboot { node } => {
                if self.world.node_up(NodeId(node)) {
                    false
                } else {
                    self.world.force_reboot(NodeId(node));
                    true
                }
            }
        };
        if ok {
            settle(&mut self.world);
            let before = self.coordinator.phase();
            self.poll(choice == Choice::Expire);
            self.stalled_expiry = choice == Choice::Expire && self.coordinator.phase() == before;
        }
        ok
    }

    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for i in 0..self.cfg.nodes {
            let node = self.node(i);
            let (phase, composition_hash) = node.read_status(txn_view);
            self.world.node_up(NodeId(i)).hash(&mut h);
            phase.hash(&mut h);
            composition_hash.unwrap_or(0).hash(&mut h);
            let os = self.world.os(NodeId(i));
            for &c in txn_counters() {
                os.counter_by_id(c).hash(&mut h);
            }
            node.pending_txn_ctl().hash(&mut h);
            node.pending_ops().hash(&mut h);
        }
        // Pending multiset under the no-absolute-time abstraction. The
        // descriptor list is in (time, seq) order, which is itself a
        // time-derived order — re-sort on time-free keys so two states
        // differing only in arrival timestamps collide.
        let mut pending: Vec<(u8, usize, usize, u64)> = self
            .world
            .pending_controlled()
            .iter()
            .map(|e| {
                let class = match e.class {
                    PendingClass::Control => 0u8,
                    PendingClass::Data => 1,
                    PendingClass::Timer => 2,
                    PendingClass::Infra => 3,
                };
                (
                    class,
                    e.node.0,
                    e.from.map_or(usize::MAX, |n| n.0),
                    e.detail,
                )
            })
            .collect();
        pending.sort_unstable();
        pending.hash(&mut h);
        self.coordinator.phase().hash(&mut h);
        for verbs in &self.outbox {
            verbs.len().hash(&mut h);
            verbs
                .iter()
                .for_each(|verb| mem::discriminant(verb).hash(&mut h));
        }
        self.crashes_used.hash(&mut h);
        self.drops_used.hash(&mut h);
        // Only a stalled expiry hashes: it must not collide with the state
        // it failed to move, or the check that flags it would never run.
        if self.stalled_expiry {
            self.stalled_expiry.hash(&mut h);
        }
        h.finish()
    }

    fn observe(&self) -> Observation {
        let nodes: Vec<NodeObs> = (0..self.cfg.nodes)
            .map(|i| {
                let node = self.node(i);
                let (phase, composition_hash) = node.read_status(txn_view);
                let os = self.world.os(NodeId(i));
                let [prepared, committed, rolled_back, _, _, mismatch] =
                    txn_counters().map(|c| os.counter_by_id(c));
                NodeObs {
                    node: i,
                    alive: self.world.node_up(NodeId(i)),
                    phase,
                    composition_hash,
                    counters: TxnCounters {
                        prepared,
                        committed,
                        rolled_back,
                    },
                    rollback_mismatch: mismatch,
                    pending_ctl: node.pending_txn_ctl(),
                    verdict_in_flight: !self.outbox[i].is_empty(),
                }
            })
            .collect();
        let done = self.coordinator.phase() == CoordinatorPhase::Done;
        let terminal = done
            && self.outbox.iter().all(VecDeque::is_empty)
            && nodes.iter().all(|n| {
                n.pending_ctl == 0 && matches!(n.phase, Some(p) if p != TxnPhase::Prepared)
            });
        Observation {
            txn: TXN_ID,
            baseline_hash: self.baseline,
            coordinator: self.coordinator.phase(),
            report: done.then(|| self.coordinator.report().clone()),
            terminal,
            stalled_expiry: self.stalled_expiry,
            nodes,
        }
    }

    #[cfg(feature = "trace")]
    fn timeline(&self) -> Option<String> {
        if !self.cfg.trace {
            return None;
        }
        // The counterexample timeline keeps the reconfiguration and
        // fault records — the story of the transaction — and drops the
        // per-frame chatter.
        use netsim::trace::TraceKind;
        let cut = self.world.trace().filter(|r| {
            r.kind.is_reconfig()
                || matches!(
                    r.kind,
                    TraceKind::Fault | TraceKind::NodeCrash | TraceKind::NodeReboot
                )
        });
        Some(cut.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manetkit::{TxnPhase, TxnVerdict};

    /// Drives every node's earliest timer once, in node order (`skip`
    /// excepted).
    fn tick_all_but(s: &mut TwoPhaseSwitch, skip: Option<usize>) {
        for node in (0..s.cfg.nodes).filter(|&n| Some(n) != skip) {
            if earliest_timer(&s.world.pending_controlled(), node).is_some() {
                assert!(s.apply(Choice::Timer { node }));
            }
        }
    }

    fn tick_all(s: &mut TwoPhaseSwitch) {
        tick_all_but(s, None);
    }

    /// Delivers every sent-but-undelivered verdict, in node order.
    fn deliver_verdicts(s: &mut TwoPhaseSwitch) {
        for node in 0..s.cfg.nodes {
            while !s.outbox[node].is_empty() {
                assert!(s.apply(Choice::Verdict { node }));
            }
        }
    }

    fn assert_invariants_hold(obs: &Observation) {
        for inv in crate::invariant::default_suite() {
            assert!(inv.check(obs).is_ok(), "{}", inv.name());
        }
    }

    #[test]
    fn undisturbed_run_commits_everywhere() {
        let mut s = TwoPhaseSwitch::new(ScenarioConfig::default());
        assert_eq!(s.coordinator.phase(), CoordinatorPhase::Preparing);
        // First timer tick per node processes the Prepare verb.
        tick_all(&mut s);
        assert_eq!(s.coordinator.phase(), CoordinatorPhase::Committing);
        // The commit verdicts reach every participant, and the next tick
        // processes them.
        deliver_verdicts(&mut s);
        tick_all(&mut s);
        let obs = s.observe();
        assert!(obs.terminal, "{obs:?}");
        let report = obs.report.as_ref().expect("the coordinator reported");
        assert_eq!(report.verdict, TxnVerdict::Committed, "{report}");
        assert!(report.unresolved.is_empty(), "{report}");
        for n in &obs.nodes {
            assert_eq!(n.phase, Some(TxnPhase::Committed));
            let hash = n.composition_hash.expect("published");
            assert_ne!(hash, obs.baseline_hash, "the switch changed the stack");
        }
        assert_invariants_hold(&obs);
    }

    #[test]
    fn crash_before_prepare_expires_into_an_abort_and_rolls_back() {
        let mut s = TwoPhaseSwitch::new(ScenarioConfig::default());
        // Node 0 dies before processing its Prepare; the others prepare,
        // and the coordinator waits for node 0 until its deadline expires.
        assert!(s.apply(Choice::Crash { node: 0 }));
        tick_all_but(&mut s, Some(0));
        assert_eq!(s.coordinator.phase(), CoordinatorPhase::Preparing);
        assert!(s.enabled().contains(&Choice::Expire));
        assert!(s.apply(Choice::Expire));
        assert_eq!(s.coordinator.phase(), CoordinatorPhase::Aborting);
        // The abort verdicts go out (the dead node's verb queues behind its
        // Prepare) and the survivors roll back.
        deliver_verdicts(&mut s);
        tick_all_but(&mut s, Some(0));
        assert_eq!(s.coordinator.phase(), CoordinatorPhase::Aborting);
        // The dead node reboots: it prepares, then rolls straight back.
        assert!(s.apply(Choice::Reboot { node: 0 }));
        let obs = s.observe();
        let report = obs.report.as_ref().expect("every participant rolled back");
        assert_eq!(report.verdict, TxnVerdict::Aborted, "{report}");
        assert_eq!(report.unprepared, vec![NodeId(0)], "{report}");
        assert!(report.unresolved.is_empty(), "{report}");
        for n in &obs.nodes {
            assert_eq!(n.phase, Some(TxnPhase::RolledBack), "node {}", n.node);
            assert_eq!(n.composition_hash, Some(obs.baseline_hash));
        }
        assert!(obs.terminal, "{obs:?}");
        assert_invariants_hold(&obs);
    }

    #[test]
    fn crash_after_prepare_commits_and_rolls_back_on_reboot() {
        let mut s = TwoPhaseSwitch::new(ScenarioConfig::default());
        // Node 0 prepares, then dies. Its published phase still reads
        // `Prepared`, so once the others prepare the fleet commits.
        assert!(s.apply(Choice::Timer { node: 0 }));
        assert!(s.apply(Choice::Crash { node: 0 }));
        tick_all_but(&mut s, Some(0));
        assert_eq!(s.coordinator.phase(), CoordinatorPhase::Committing);
        deliver_verdicts(&mut s);
        tick_all_but(&mut s, Some(0));
        // The dead node never acknowledges: the resolve budget runs out.
        assert_eq!(s.coordinator.phase(), CoordinatorPhase::Committing);
        assert!(s.apply(Choice::Expire));
        let report = s.observe().report.expect("the coordinator gave up");
        assert_eq!(report.verdict, TxnVerdict::Committed, "{report}");
        assert_eq!(report.unresolved, vec![NodeId(0)], "{report}");
        // On reboot the node rolls its doomed prepare back (and ignores
        // the commit queued behind it).
        assert!(s.apply(Choice::Reboot { node: 0 }));
        let obs = s.observe();
        assert_eq!(obs.nodes[0].phase, Some(TxnPhase::RolledBack));
        assert_eq!(
            obs.nodes[0].composition_hash,
            Some(obs.baseline_hash),
            "rollback restored the checkpoint"
        );
        for n in &obs.nodes[1..] {
            assert_eq!(n.phase, Some(TxnPhase::Committed), "node {}", n.node);
        }
        assert_invariants_hold(&obs);
    }

    #[test]
    fn replaying_the_same_choices_reproduces_the_fingerprint() {
        // Self-pacing script: at each step apply the last enabled choice
        // (crashes/reboots come last in the canonical order, so this
        // exercises the fault paths too), recording choice + fingerprint.
        let run = || {
            let mut s = TwoPhaseSwitch::new(ScenarioConfig::default());
            let mut log = vec![(None, s.fingerprint())];
            for _ in 0..8 {
                let c = *s.enabled().last().expect("some choice enabled");
                assert!(s.apply(c), "{c}");
                log.push((Some(c), s.fingerprint()));
            }
            log
        };
        assert_eq!(run(), run(), "choices and fingerprints replay identically");
    }

    #[test]
    fn idle_timer_cycles_collapse_under_the_abstraction() {
        let mut s = TwoPhaseSwitch::new(ScenarioConfig::default());
        tick_all(&mut s);
        deliver_verdicts(&mut s);
        tick_all(&mut s);
        assert_eq!(s.coordinator.phase(), CoordinatorPhase::Done);
        // Deliver all in-flight hellos, then let the fleet idle: fire
        // every timer and deliver every hello for a few rounds. Committed
        // quiescent states must revisit a previously seen fingerprint —
        // otherwise exploration of the post-transaction orbit would never
        // close.
        let mut seen = std::collections::HashSet::new();
        let mut collided = false;
        for _ in 0..6 {
            tick_all(&mut s);
            for node in 0..3 {
                for from in 0..3 {
                    while let Some(&e) = earliest_message(&s.world.pending_controlled(), node, from)
                    {
                        s.world.deliver_controlled(&e);
                    }
                }
            }
            settle(&mut s.world);
            if !seen.insert(s.fingerprint()) {
                collided = true;
                break;
            }
        }
        assert!(collided, "the idle orbit never revisited a state");
    }
}
