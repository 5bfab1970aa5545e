//! The checked scenario: a fleet-wide OLSR → DYMO switch (the
//! [`Stack::recipe_to`] recipe every other experiment commits) committed
//! two-phase while the scheduler is free to reorder deliveries, drop
//! messages, and crash/reboot nodes.
//!
//! # The coordinator abstraction
//!
//! The real two-phase strategy ([`FleetCoordinator::execute`]
//! (manetkit::FleetCoordinator::execute) with `Strategy::TwoPhase`)
//! advances the world
//! itself (`run_for` + polling), which the controlled world forbids — the
//! checker owns the clock. The scenario therefore models the coordinator
//! as a *reaction function* with the same phase structure: after every
//! scheduled choice it re-reads the participants' statuses and decides
//! the same verdict the real coordinator would (commit when everyone
//! prepared, abort when anyone failed or died). The *decision* is
//! instantly reactive — the coordinator's polling latency is not a choice
//! point — but the **verdict transport is**: deciding fills a per-node
//! outbox, and each participant only learns the outcome when the
//! scheduler plays [`Choice::Verdict`] for it. That window — some nodes
//! told to commit while others still sit prepared — is exactly where
//! split-brain compositions would appear, so it must be schedulable.
//! Verdicts ride the in-process control channel (reliable), so they can
//! be delayed and reordered against everything else but not dropped.
//!
//! # The dedup abstraction
//!
//! [`TwoPhaseSwitch::fingerprint`] hashes the transaction-relevant
//! projection of the state: per-node liveness, transaction phase,
//! published composition hash, `txn.*` ledgers, queued verbs, the pending
//! message multiset (class/owner/sender, **not** absolute arrival times),
//! the coordinator phase and the spent budgets. Routing soft state
//! (neighbour tables, sequence numbers) is deliberately outside the
//! abstraction — it churns with every frame and cannot influence the
//! checked invariants, so folding it in would explode the state count
//! without adding discriminating power.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use adapt::Stack;
use manetkit::{structural_hash, NodeHandle, TxnCounters, TxnCtl};
use netsim::{NodeId, PendingClass, PendingEvent, Topology, World};

use crate::explorer::Model;
use crate::invariant::{CoordPhase, NodeObs, Observation};
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

/// A decided-but-undelivered coordinator verdict sitting in the outbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VerdictKind {
    Commit,
    Abort,
}

/// A fleet mid-switch under a controlled scheduler. Implements
/// [`Model`]; build fresh instances via a closure over a
/// [`ScenarioConfig`] and hand them to an
/// [`Explorer`](crate::explorer::Explorer).
pub struct TwoPhaseSwitch {
    world: World,
    handles: Vec<NodeHandle>,
    cfg: ScenarioConfig,
    name: String,
    /// Structural hash every node starts from (the rollback target).
    baseline: u64,
    coord: CoordPhase,
    /// Decided verdicts not yet delivered — one slot per node, filled
    /// when the coordinator decides, emptied by [`Choice::Verdict`].
    outbox: Vec<Option<VerdictKind>>,
    crashes_used: u32,
    drops_used: u32,
}

impl TwoPhaseSwitch {
    /// Builds the initial state: a full-mesh OLSR fleet in controlled
    /// mode, agents started, `Prepare` verbs already queued at every
    /// node (processing them is the scheduler's business).
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
        let mut handles = Vec::new();
        let mut baseline = None;
        for i in 0..cfg.nodes {
            let (mut node, handle) = Stack::Olsr.node();
            node.set_publish_composition(true);
            if cfg.skip_doomed_rollback {
                node.set_skip_doomed_rollback(true);
            }
            // Every node starts from the same stack: hash the first.
            baseline.get_or_insert_with(|| structural_hash(node.deployment()));
            handles.push(handle);
            world.install_agent(NodeId(i), Box::new(node));
        }
        let name = format!("olsr_to_dymo_{}", cfg.nodes);
        let outbox = vec![None; cfg.nodes];
        let mut s = TwoPhaseSwitch {
            world,
            handles,
            cfg,
            name,
            baseline: baseline.unwrap_or_default(),
            coord: CoordPhase::Preparing,
            outbox,
            crashes_used: 0,
            drops_used: 0,
        };
        // Start the agents (parked StartAgent infra events) so every node
        // has published a composition before the first choice.
        s.settle();
        // Phase 1: prepare everywhere.
        for h in &s.handles {
            h.txn_ctl(TxnCtl::Prepare {
                id: TXN_ID,
                ops: Stack::Olsr.recipe_to(Stack::Dymo),
                requested: None,
                deadline: None,
            });
        }
        s
    }

    /// Drains everything that is not a scheduling choice: infrastructure
    /// events (agent starts after install/reboot) and behaviourally inert
    /// arrivals (frames addressed to crashed nodes) — the world accounts
    /// them exactly as a free run would, and leaving them pending would
    /// only pollute the choice set and the fingerprint. (A crashed node's
    /// timers are cancelled by the crash itself.)
    fn settle(&mut self) {
        loop {
            let infra = self.world.run_controlled_infra();
            let dead: Vec<PendingEvent> = self
                .world
                .pending_controlled()
                .into_iter()
                .filter(|e| !e.live)
                .collect();
            for event in &dead {
                self.world.deliver_controlled(event);
            }
            if infra == 0 && dead.is_empty() {
                break;
            }
        }
    }

    /// One reaction step of the modelled coordinator, iterated to a fixed
    /// point (each step can advance at most one phase).
    fn react(&mut self) {
        loop {
            let before = self.coord;
            self.coord_step();
            if self.coord == before {
                break;
            }
        }
    }

    fn coord_step(&mut self) {
        match self.coord {
            CoordPhase::Preparing => {
                let mut all_prepared = true;
                let mut any_failed = false;
                for h in &self.handles {
                    let st = h.status();
                    if !st.alive {
                        // The real coordinator times the dead node out of
                        // its prepare window; the model reacts immediately.
                        any_failed = true;
                        continue;
                    }
                    match st.txn {
                        Some(r) if r.id == TXN_ID => match r.phase {
                            manetkit::TxnPhase::Prepared | manetkit::TxnPhase::Committed => {}
                            _ => any_failed = true,
                        },
                        _ => all_prepared = false,
                    }
                }
                if any_failed {
                    self.outbox = vec![Some(VerdictKind::Abort); self.cfg.nodes];
                    self.coord = CoordPhase::Aborting;
                } else if all_prepared {
                    self.outbox = vec![Some(VerdictKind::Commit); self.cfg.nodes];
                    self.coord = CoordPhase::Committing;
                }
            }
            CoordPhase::Committing => {
                if self.verdict_settled() {
                    self.coord = CoordPhase::Committed;
                }
            }
            CoordPhase::Aborting => {
                if self.verdict_settled() {
                    self.coord = CoordPhase::Aborted;
                }
            }
            CoordPhase::Committed | CoordPhase::Aborted => {}
        }
    }

    /// The coordinator's resolve-drain condition: every participant has
    /// either left `Prepared` or crashed (a dead participant counts as
    /// unresolved-but-drained, exactly like
    /// `FleetTxnReport::unresolved` — its own doomed rollback squares it
    /// with the fleet if it ever reboots).
    fn verdict_settled(&self) -> bool {
        self.handles.iter().all(|h| {
            let st = h.status();
            !st.alive
                || matches!(st.txn, Some(ref r) if r.id == TXN_ID
                    && r.phase != manetkit::TxnPhase::Prepared)
        })
    }

    /// Delivers the outbox verdict for `node`: the participant's control
    /// queue receives the same verb the real coordinator would send. The
    /// verb is processed at the node's next quiescent point — delivery
    /// and processing stay separately schedulable.
    fn deliver_verdict(&mut self, node: usize) -> bool {
        let Some(kind) = self.outbox[node].take() else {
            return false;
        };
        self.handles[node].txn_ctl(match kind {
            VerdictKind::Commit => TxnCtl::Commit { id: TXN_ID },
            VerdictKind::Abort => TxnCtl::Abort {
                id: TXN_ID,
                reason: "peer_abort",
            },
        });
        true
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
            if self.outbox[node].is_some() {
                out.push(Choice::Verdict { node });
            }
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
            Choice::Verdict { node } => self.deliver_verdict(node),
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
            self.settle();
            self.react();
        }
        ok
    }

    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for (i, handle) in self.handles.iter().enumerate() {
            let st = handle.status();
            self.world.node_up(NodeId(i)).hash(&mut h);
            match st.txn.as_ref().filter(|r| r.id == TXN_ID) {
                Some(r) => phase_code(r.phase).hash(&mut h),
                None => u8::MAX.hash(&mut h),
            }
            st.composition_hash.unwrap_or(0).hash(&mut h);
            let os = self.world.os(NodeId(i));
            for c in [
                "txn.prepared",
                "txn.committed",
                "txn.rolled_back",
                "txn.aborted",
                "txn.reverted",
                "txn.rollback_mismatch",
            ] {
                os.counter(c).hash(&mut h);
            }
            handle.pending_txn_ctl().hash(&mut h);
            handle.pending_ops().hash(&mut h);
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
        coord_code(self.coord).hash(&mut h);
        for v in &self.outbox {
            match v {
                None => 0u8,
                Some(VerdictKind::Commit) => 1,
                Some(VerdictKind::Abort) => 2,
            }
            .hash(&mut h);
        }
        self.crashes_used.hash(&mut h);
        self.drops_used.hash(&mut h);
        h.finish()
    }

    fn observe(&self) -> Observation {
        let nodes: Vec<NodeObs> = (0..self.cfg.nodes)
            .map(|i| {
                let st = self.handles[i].status();
                let os = self.world.os(NodeId(i));
                NodeObs {
                    node: i,
                    alive: self.world.node_up(NodeId(i)),
                    phase: st.txn.as_ref().filter(|r| r.id == TXN_ID).map(|r| r.phase),
                    composition_hash: st.composition_hash,
                    counters: TxnCounters::from_lookup(|c| os.counter(c)),
                    rollback_mismatch: os.counter("txn.rollback_mismatch"),
                    pending_ctl: self.handles[i].pending_txn_ctl(),
                    verdict_in_flight: self.outbox[i].is_some(),
                }
            })
            .collect();
        let terminal = self.coord.is_done()
            && self.outbox.iter().all(Option::is_none)
            && nodes.iter().all(|n| {
                n.pending_ctl == 0
                    && matches!(n.phase, Some(p) if p != manetkit::TxnPhase::Prepared)
            });
        Observation {
            txn: TXN_ID,
            baseline_hash: self.baseline,
            coordinator: self.coord,
            terminal,
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

/// Stable per-phase codes for the fingerprint (not `#[derive(Hash)]` on
/// the upstream enum, so reordering variants there cannot silently change
/// persisted fingerprints).
fn phase_code(p: manetkit::TxnPhase) -> u8 {
    match p {
        manetkit::TxnPhase::Prepared => 0,
        manetkit::TxnPhase::Committed => 1,
        manetkit::TxnPhase::Aborted => 2,
        manetkit::TxnPhase::RolledBack => 3,
        manetkit::TxnPhase::Reverted => 4,
    }
}

fn coord_code(c: CoordPhase) -> u8 {
    match c {
        CoordPhase::Preparing => 0,
        CoordPhase::Committing => 1,
        CoordPhase::Aborting => 2,
        CoordPhase::Committed => 3,
        CoordPhase::Aborted => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manetkit::TxnPhase;

    /// Drives every node's earliest timer once, in node order.
    fn tick_all(s: &mut TwoPhaseSwitch) {
        for node in 0..s.cfg.nodes {
            if earliest_timer(&s.world.pending_controlled(), node).is_some() {
                assert!(s.apply(Choice::Timer { node }));
            }
        }
    }

    /// Delivers every decided-but-undelivered verdict, in node order.
    fn deliver_verdicts(s: &mut TwoPhaseSwitch) {
        for node in 0..s.cfg.nodes {
            if s.outbox[node].is_some() {
                assert!(s.apply(Choice::Verdict { node }));
            }
        }
    }

    #[test]
    fn undisturbed_run_commits_everywhere() {
        let mut s = TwoPhaseSwitch::new(ScenarioConfig::default());
        assert_eq!(s.coord, CoordPhase::Preparing);
        // First timer tick per node processes the Prepare verb.
        tick_all(&mut s);
        assert_eq!(s.coord, CoordPhase::Committing);
        // The commit verdicts reach every participant, and the next tick
        // processes them.
        deliver_verdicts(&mut s);
        tick_all(&mut s);
        assert_eq!(s.coord, CoordPhase::Committed);
        let obs = s.observe();
        assert!(obs.terminal, "{obs:?}");
        for n in &obs.nodes {
            assert_eq!(n.phase, Some(TxnPhase::Committed));
            let hash = n.composition_hash.expect("published");
            assert_ne!(hash, obs.baseline_hash, "the switch changed the stack");
        }
        for inv in crate::invariant::default_suite() {
            assert!(inv.check(&obs).is_ok(), "{}", inv.name());
        }
    }

    #[test]
    fn crash_during_prepare_aborts_and_rolls_back() {
        let mut s = TwoPhaseSwitch::new(ScenarioConfig::default());
        // Node 0 prepares, then dies; the coordinator reacts by aborting.
        assert!(s.apply(Choice::Timer { node: 0 }));
        assert!(s.apply(Choice::Crash { node: 0 }));
        assert_eq!(s.coord, CoordPhase::Aborting);
        // The abort verdicts go out (the dead node's verb queues up for
        // its next boot) and the survivors process Prepare then Abort.
        deliver_verdicts(&mut s);
        for _ in 0..2 {
            for node in 1..3 {
                assert!(s.apply(Choice::Timer { node }));
            }
        }
        assert_eq!(s.coord, CoordPhase::Aborted);
        // The dead node reboots: its doomed rollback runs at start-up.
        assert!(s.apply(Choice::Reboot { node: 0 }));
        let obs = s.observe();
        assert_eq!(obs.nodes[0].phase, Some(TxnPhase::RolledBack));
        assert_eq!(
            obs.nodes[0].composition_hash,
            Some(obs.baseline_hash),
            "rollback restored the checkpoint"
        );
        for inv in crate::invariant::default_suite() {
            assert!(inv.check(&obs).is_ok(), "{}", inv.name());
        }
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
        assert_eq!(s.coord, CoordPhase::Committed);
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
            s.settle();
            if !seen.insert(s.fingerprint()) {
                collided = true;
                break;
            }
        }
        assert!(collided, "the idle orbit never revisited a state");
    }
}
