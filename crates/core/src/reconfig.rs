//! Coordinated distributed reconfiguration (the paper's §7 roadmap):
//! apply the same reconfiguration across a fleet of nodes and verify
//! convergence.
//!
//! Per-node reconfiguration is enacted at each node's own quiescent point
//! (see [`NodeHandle`]); the [`FleetCoordinator`] broadcasts an operation
//! *recipe* to every handle and reports when all nodes have applied it
//! (or which ones failed) — the per-node half of a closed control loop
//! whose decision making lives in the `manetkit-adapt` policy engine.
//!
//! All coordination disciplines are driven through **one** entry point:
//! build a [`ReconfigRequest`] (what to apply, under which [`Strategy`],
//! with an optional [`HealthGate`]) and hand it to
//! [`FleetCoordinator::execute`], which always returns a
//! [`FleetTxnReport`]:
//!
//! * [`Strategy::BestEffort`]: ops enqueue everywhere and apply
//!   independently at each node's quiescent point; crashed nodes pick
//!   theirs up after reboot, or are given up on with
//!   [`FleetCoordinator::give_up_deferred`].
//! * [`Strategy::TwoPhase`]: a two-phase commit over the per-node
//!   transaction engine ([`crate::txn`]) — every alive node *prepares*
//!   the batch (checkpoint + apply + hold the undo log open), and the
//!   coordinator commits only when **all** of them prepared in time;
//!   otherwise the prepared subset rolls back and no node is left running
//!   the new composition. An optional [`HealthGate`] then watches the
//!   committed composition for a provisional window and *reverts* the
//!   whole fleet if the delivery ratio regresses.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netsim::{NodeId, SimDuration, World};

use crate::node::{NodeHandle, ReconfigOp, TxnCtl, TxnPhase};

/// Coordinates reconfiguration over many node handles.
#[derive(Clone, Default)]
pub struct FleetCoordinator {
    handles: Vec<NodeHandle>,
    ids: Vec<NodeId>,
    /// Transaction id allocator.
    next_txn: Arc<AtomicU64>,
}

/// Result of a fleet convergence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetStatus {
    /// Operations still awaiting a quiescent point, summed over nodes.
    pub pending: usize,
    /// `(node, error)` for nodes whose last operation failed.
    pub failures: Vec<(NodeId, String)>,
    /// Nodes that are currently down (crashed or battery-dead) with
    /// operations waiting for them. Deferred is not failure: the pending
    /// operations apply automatically at the node's first post-reboot
    /// quiescent point.
    pub deferred: Vec<NodeId>,
}

impl FleetStatus {
    /// Whether every node applied everything without error.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.pending == 0 && self.failures.is_empty()
    }
}

impl fmt::Display for FleetStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.converged() {
            return write!(f, "converged");
        }
        write!(f, "pending {}", self.pending)?;
        if !self.deferred.is_empty() {
            write!(f, " (deferred on down nodes [")?;
            for (i, node) in self.deferred.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", node.0)?;
            }
            write!(f, "])")?;
        }
        for (node, err) in &self.failures {
            write!(f, "; node {} failed: {err}", node.0)?;
        }
        Ok(())
    }
}

/// How a fleet reconfiguration ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TxnVerdict {
    /// Every participant prepared and committed; the health window (if
    /// any) passed.
    Committed,
    /// Prepare failed somewhere (or timed out); every prepared node rolled
    /// back to its checkpoint.
    Aborted,
    /// The fleet committed but the health gate tripped; every participant
    /// reverted to its checkpoint.
    Reverted,
    /// Non-transactional execution ([`Strategy::BestEffort`]): the batches
    /// were enqueued and apply independently at each node's quiescent
    /// point — watch [`FleetCoordinator::status`] for convergence.
    Enqueued,
}

impl fmt::Display for TxnVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TxnVerdict::Committed => "committed",
            TxnVerdict::Aborted => "aborted",
            TxnVerdict::Reverted => "reverted",
            TxnVerdict::Enqueued => "enqueued",
        })
    }
}

/// Health gate for a transactional commit: after commit, the new
/// composition runs provisionally for `window`; if the fleet delivery
/// ratio drops more than `max_drop` below the baseline, the coordinator
/// reverts the whole transaction.
///
/// Built with named constructors — no bare positional floats:
///
/// ```
/// use manetkit::HealthGate;
/// use netsim::SimDuration;
///
/// let gate = HealthGate::over_window(SimDuration::from_secs(5)).max_drop(0.3);
/// assert_eq!(gate.window, SimDuration::from_secs(5));
/// assert!(gate.baseline.is_none(), "baseline is measured by default");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HealthGate {
    /// Length of the provisional observation window.
    pub window: SimDuration,
    /// Maximum tolerated drop in delivery ratio (absolute, in `[0, 1]`).
    pub max_drop: f64,
    /// Baseline delivery ratio to compare against; `None` makes the
    /// coordinator measure a pre-window of the same length before
    /// preparing.
    pub baseline: Option<f64>,
}

impl Default for HealthGate {
    /// A 10-second provisional window tolerating a 0.2 delivery-ratio
    /// drop against a measured baseline.
    fn default() -> Self {
        HealthGate {
            window: SimDuration::from_secs(10),
            max_drop: 0.2,
            baseline: None,
        }
    }
}

impl HealthGate {
    /// A gate observing the given provisional window (defaults otherwise:
    /// 0.2 tolerated drop, measured baseline).
    #[must_use]
    pub fn over_window(window: SimDuration) -> Self {
        HealthGate {
            window,
            ..HealthGate::default()
        }
    }

    /// Sets the maximum tolerated delivery-ratio drop (absolute).
    #[must_use]
    pub fn max_drop(mut self, max_drop: f64) -> Self {
        self.max_drop = max_drop;
        self
    }

    /// Compares against a known baseline instead of measuring a
    /// pre-window of the gate's length.
    #[must_use]
    pub fn against_baseline(mut self, ratio: f64) -> Self {
        self.baseline = Some(ratio);
        self
    }
}

/// Knobs for [`Strategy::TwoPhase`] executions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TxnOptions {
    /// Optional health-gated commit.
    pub health: Option<HealthGate>,
}

/// Virtual-time budget for every participant to reach a quiescent point
/// and prepare. Nodes reaching their quiescent point later refuse the
/// prepare themselves (see [`TxnCtl::Prepare`]).
const PREPARE_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// Simulation slice between coordinator status polls.
const POLL: SimDuration = SimDuration::from_millis(100);

/// Virtual-time budget for commit/abort/revert acknowledgements.
const RESOLVE_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// What the network did while a committed composition ran its health
/// gate's provisional window — the rest of the statistics window whose
/// delivery ratio the gate judges. Exact and deterministic: the window is
/// read once, no extra simulation runs for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disruption {
    /// Control frames transmitted (once per sender).
    pub control_frames: u64,
    /// Control frames received (once per receiver).
    pub control_received: u64,
    /// Datagrams handed to the data plane.
    pub data_sent: u64,
    /// Datagrams delivered.
    pub data_delivered: u64,
    /// Route discoveries started (the `route_discovery` agent counter): a
    /// switch that carried its routes over starts none for an active flow.
    pub route_discoveries: u64,
}

impl Disruption {
    fn of(window: &netsim::WorldStats) -> Self {
        Disruption {
            control_frames: window.control_frames,
            control_received: window.control_received,
            data_sent: window.data_sent,
            data_delivered: window.data_delivered,
            route_discoveries: window.agent_counter("route_discovery"),
        }
    }
}

impl fmt::Display for Disruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} control frames ({} receptions), {}/{} datagrams delivered, {} route discoveries",
            self.control_frames,
            self.control_received,
            self.data_delivered,
            self.data_sent,
            self.route_discoveries
        )
    }
}

/// Outcome of one [`FleetCoordinator::execute`] run.
#[must_use = "the report says whether the fleet actually changed — check the verdict"]
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTxnReport {
    /// Transaction id (matches the per-node trace records); `0` for
    /// non-transactional ([`TxnVerdict::Enqueued`]) executions.
    pub txn: u64,
    /// How it ended.
    pub verdict: TxnVerdict,
    /// Nodes that took part.
    pub participants: Vec<NodeId>,
    /// Nodes excluded from the run: down at the start of a transaction.
    pub skipped: Vec<NodeId>,
    /// Nodes that were down at enqueue time of a best-effort execution;
    /// their batches apply at the first post-reboot quiescent point. Always
    /// empty for transactional runs (a transaction skips dead nodes
    /// instead).
    pub deferred: Vec<NodeId>,
    /// Why the transaction aborted or reverted (`None` on commit).
    pub reason: Option<String>,
    /// Baseline delivery ratio the health gate compared against.
    pub pre_ratio: Option<f64>,
    /// Delivery ratio observed in the provisional window.
    pub window_ratio: Option<f64>,
    /// What else happened in the provisional window (`None` without a
    /// health gate, or when the transaction never reached it).
    pub disruption: Option<Disruption>,
    /// Participants that never acknowledged the final verdict within the
    /// resolve budget (typically nodes that crashed mid-transaction; their
    /// own doomed-transaction rollback squares them with the fleet when
    /// they reboot).
    pub unresolved: Vec<NodeId>,
    /// Participants that had not reached `Prepared` when the prepare
    /// deadline passed (empty unless the transaction aborted on the
    /// deadline). Names the laggards so an operator — or a model-checker
    /// counterexample — can see *which* nodes stalled, not just how many.
    pub unprepared: Vec<NodeId>,
}

/// Renders `[3, 7]`-style id lists for report reasons and `Display`.
fn id_list(ids: &[NodeId]) -> String {
    let inner: Vec<String> = ids.iter().map(|n| n.0.to_string()).collect();
    format!("[{}]", inner.join(", "))
}

impl fmt::Display for FleetTxnReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn {} {}", self.txn, self.verdict)?;
        if let Some(reason) = &self.reason {
            write!(f, " ({reason})")?;
        }
        write!(f, ": {} participants", self.participants.len())?;
        if !self.skipped.is_empty() {
            write!(f, ", skipped {}", id_list(&self.skipped))?;
        }
        if !self.deferred.is_empty() {
            write!(f, ", deferred {}", id_list(&self.deferred))?;
        }
        if !self.unresolved.is_empty() {
            write!(f, ", unresolved {}", id_list(&self.unresolved))?;
        }
        if !self.unprepared.is_empty() {
            write!(f, ", unprepared {}", id_list(&self.unprepared))?;
        }
        if let Some(disruption) = &self.disruption {
            write!(f, "; provisional window: {disruption}")?;
        }
        Ok(())
    }
}

/// The operation batches a [`ReconfigRequest`] applies: one recipe invoked
/// per node (ops own protocol state, so `ReconfigOp` is not `Clone`), or a
/// node-indexed recipe for staged rollouts.
enum Recipe<'a> {
    /// The same batch everywhere (`recipe()` invoked once per node).
    Uniform(Box<dyn Fn() -> Vec<ReconfigOp> + 'a>),
    /// Node-specific batches: `recipe(i)` for handle index `i`.
    PerNode(Box<dyn Fn(usize) -> Vec<ReconfigOp> + 'a>),
}

impl Recipe<'_> {
    fn for_node(&self, i: usize) -> Vec<ReconfigOp> {
        match self {
            Recipe::Uniform(f) => f(),
            Recipe::PerNode(f) => f(i),
        }
    }
}

/// The coordination discipline a [`ReconfigRequest`] executes under.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Strategy {
    /// Enqueue on every handle unconditionally; each node applies at its
    /// own quiescent point (down nodes at their first post-reboot one, or
    /// never, after [`FleetCoordinator::give_up_deferred`]).
    BestEffort,
    /// Fleet-wide two-phase commit: all-or-nothing, with optional
    /// health-gated provisional commit via [`TxnOptions::health`].
    TwoPhase(TxnOptions),
}

/// A fleet reconfiguration, declaratively: *what* to apply (the recipe),
/// *how* to coordinate it (the [`Strategy`]) and — for transactional
/// strategies — the [`HealthGate`] safety net. Executed by
/// [`FleetCoordinator::execute`].
///
/// ```no_run
/// use manetkit::{FleetCoordinator, HealthGate, ReconfigRequest, Strategy};
/// # let fleet = FleetCoordinator::default();
/// # let mut world = netsim::World::builder().nodes(1).seed(1).build();
/// let report = fleet.execute(
///     &mut world,
///     ReconfigRequest::new()
///         .recipe(Vec::new) // a real recipe returns the op batch
///         .strategy(Strategy::TwoPhase(Default::default()))
///         .health_gate(HealthGate::default()),
/// );
/// assert!(report.participants.is_empty());
/// ```
#[must_use = "a request does nothing until FleetCoordinator::execute runs it"]
#[derive(Default)]
pub struct ReconfigRequest<'a> {
    recipe: Option<Recipe<'a>>,
    strategy: Option<Strategy>,
}

impl<'a> ReconfigRequest<'a> {
    /// An empty request: no ops, [`Strategy::BestEffort`].
    pub fn new() -> Self {
        ReconfigRequest::default()
    }

    /// Sets the fleet-wide recipe; it is invoked once per node because
    /// [`ReconfigOp`]s own protocol state and cannot be cloned.
    pub fn recipe(mut self, recipe: impl Fn() -> Vec<ReconfigOp> + 'a) -> Self {
        self.recipe = Some(Recipe::Uniform(Box::new(recipe)));
        self
    }

    /// Sets a node-indexed recipe (`recipe(i)` for handle index `i`) for
    /// staged or heterogeneous rollouts.
    pub fn recipe_per_node(mut self, recipe: impl Fn(usize) -> Vec<ReconfigOp> + 'a) -> Self {
        self.recipe = Some(Recipe::PerNode(Box::new(recipe)));
        self
    }

    /// Sets the coordination strategy (default: [`Strategy::BestEffort`]).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Attaches a health gate, replacing any earlier one. A
    /// non-transactional (or unset) strategy is upgraded to
    /// [`Strategy::TwoPhase`], since only a transaction can revert. Call
    /// after [`strategy`](Self::strategy) when combining.
    pub fn health_gate(mut self, gate: HealthGate) -> Self {
        let health = Some(gate);
        self.strategy = Some(Strategy::TwoPhase(TxnOptions { health }));
        self
    }
}

impl fmt::Debug for ReconfigRequest<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReconfigRequest")
            .field("has_recipe", &self.recipe.is_some())
            .field("strategy", &self.strategy)
            .finish()
    }
}

impl FleetCoordinator {
    /// A coordinator over the given handles; node ids are assigned by
    /// position (`NodeId(0)`, `NodeId(1)`, …), matching the usual
    /// install-in-order worlds.
    #[must_use]
    pub fn new(handles: Vec<NodeHandle>) -> Self {
        let ids = (0..handles.len()).map(NodeId).collect();
        FleetCoordinator {
            handles,
            ids,
            next_txn: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds a node to the fleet with the next positional id.
    pub fn add(&mut self, handle: NodeHandle) {
        let id = NodeId(self.handles.len());
        self.add_node(id, handle);
    }

    /// Adds a node with an explicit id (fleets over sparse or re-ordered
    /// world populations).
    pub fn add_node(&mut self, id: NodeId, handle: NodeHandle) {
        self.handles.push(handle);
        self.ids.push(id);
    }

    /// Number of coordinated nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether the fleet is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// The handle registered under the given node id, if any — the
    /// per-node escape hatch for targeted follow-ups (e.g. best-effort
    /// reconciliation of a node that missed a committed transaction).
    #[must_use]
    pub fn handle_of(&self, id: NodeId) -> Option<&NodeHandle> {
        self.ids
            .iter()
            .position(|&n| n == id)
            .map(|i| &self.handles[i])
    }

    /// Executes a [`ReconfigRequest`] across the fleet — the single entry
    /// point for every coordination discipline.
    ///
    /// The best-effort strategy enqueues and returns immediately
    /// (verdict [`TxnVerdict::Enqueued`], with down nodes named in
    /// [`FleetTxnReport::deferred`]); the transactional strategy advances
    /// the world (`run_for`) while the coordinator polls for prepare and
    /// resolve acknowledgements, so call it where simulation time is
    /// allowed to progress.
    pub fn execute(&self, world: &mut World, req: ReconfigRequest<'_>) -> FleetTxnReport {
        let recipe = req
            .recipe
            .unwrap_or_else(|| Recipe::Uniform(Box::new(Vec::new)));
        match req.strategy.unwrap_or(Strategy::BestEffort) {
            Strategy::BestEffort => self.enqueue(&recipe),
            Strategy::TwoPhase(opts) => self.two_phase(world, &recipe, &opts),
        }
    }

    /// Drops the pending operations of every node that is currently down,
    /// returning `(node, operations dropped)` per affected node — the
    /// give-up path when a deferred reconfiguration should no longer
    /// apply on reboot.
    pub fn give_up_deferred(&self) -> Vec<(NodeId, usize)> {
        let mut abandoned = Vec::new();
        for (i, handle) in self.handles.iter().enumerate() {
            if !handle.is_alive() && handle.pending_ops() > 0 {
                abandoned.push((self.ids[i], handle.clear_pending()));
            }
        }
        abandoned
    }

    /// Snapshots fleet convergence.
    #[must_use]
    pub fn status(&self) -> FleetStatus {
        let mut pending = 0;
        let mut failures = Vec::new();
        let mut deferred = Vec::new();
        for (i, handle) in self.handles.iter().enumerate() {
            let node_pending = handle.pending_ops();
            pending += node_pending;
            if let Some(err) = handle.status().last_error {
                failures.push((self.ids[i], err));
            }
            if node_pending > 0 && !handle.is_alive() {
                deferred.push(self.ids[i]);
            }
        }
        FleetStatus {
            pending,
            failures,
            deferred,
        }
    }

    /// Protocol stacks per node, for post-reconfiguration verification.
    #[must_use]
    pub fn stacks(&self) -> Vec<Vec<String>> {
        self.handles.iter().map(|h| h.status().protocols).collect()
    }

    /// Whether every node runs exactly the given protocol stack.
    #[must_use]
    pub fn all_run(&self, stack: &[&str]) -> bool {
        self.stacks()
            .iter()
            .all(|s| s.iter().map(String::as_str).eq(stack.iter().copied()))
    }

    // ---- strategy internals ------------------------------------------------

    /// Best-effort enqueue behind [`execute`](Self::execute).
    fn enqueue(&self, recipe: &Recipe<'_>) -> FleetTxnReport {
        let mut deferred = Vec::new();
        for (i, handle) in self.handles.iter().enumerate() {
            if !handle.is_alive() {
                deferred.push(self.ids[i]);
            }
            for op in recipe.for_node(i) {
                handle.apply(op);
            }
        }
        FleetTxnReport {
            txn: 0,
            verdict: TxnVerdict::Enqueued,
            participants: self.ids.clone(),
            skipped: Vec::new(),
            deferred,
            reason: None,
            pre_ratio: None,
            window_ratio: None,
            disruption: None,
            unresolved: Vec::new(),
            unprepared: Vec::new(),
        }
    }

    /// The two-phase commit engine behind [`Strategy::TwoPhase`].
    ///
    /// Phase 1 (*prepare*): every alive node gets its batch with a virtual
    /// prepare deadline; each checkpoints, applies, and holds its undo log
    /// open at its own quiescent point. Phase 2: if — and only if — every
    /// participant reported `Prepared` before the deadline, the coordinator
    /// broadcasts *commit*; otherwise it broadcasts *abort* and the
    /// prepared subset rolls back to its checkpoints, so no mix of old and
    /// new compositions survives.
    ///
    /// With a [`HealthGate`] configured, a committed composition runs
    /// provisionally for the gate's window; if the fleet delivery ratio
    /// drops more than `max_drop` below the baseline the coordinator
    /// broadcasts *revert* and the fleet returns to the checkpoint
    /// compositions ([`TxnVerdict::Reverted`]).
    ///
    /// The world is advanced (`run_for`) while the coordinator waits. A
    /// participant that crashes mid-transaction dooms its own prepared
    /// transaction (rolled back at its first post-reboot quiescent point)
    /// and shows up in [`FleetTxnReport::unresolved`].
    fn two_phase(
        &self,
        world: &mut World,
        recipe: &Recipe<'_>,
        opts: &TxnOptions,
    ) -> FleetTxnReport {
        let txn = self.next_txn.fetch_add(1, Ordering::Relaxed) + 1;
        let mut participants = Vec::new();
        let mut skipped = Vec::new();
        for (i, handle) in self.handles.iter().enumerate() {
            if handle.is_alive() {
                participants.push(i);
            } else {
                skipped.push(self.ids[i]);
            }
        }
        let participant_ids: Vec<NodeId> = participants.iter().map(|&i| self.ids[i]).collect();
        let mut report = FleetTxnReport {
            txn,
            verdict: TxnVerdict::Aborted,
            participants: participant_ids,
            skipped,
            deferred: Vec::new(),
            reason: None,
            pre_ratio: None,
            window_ratio: None,
            disruption: None,
            unresolved: Vec::new(),
            unprepared: Vec::new(),
        };
        if participants.is_empty() {
            report.reason = Some("no alive participants".to_string());
            return report;
        }

        // Health baseline: measure a pre-window unless one was supplied.
        let mut window = world.stats_window();
        if let Some(gate) = &opts.health {
            let baseline = match gate.baseline {
                Some(b) => b,
                None => {
                    window.skip(world);
                    world.run_for(gate.window);
                    window.advance(world).delivery_ratio()
                }
            };
            report.pre_ratio = Some(baseline);
        }

        // Phase 1: prepare everywhere, with a virtual deadline.
        let started = world.now();
        let deadline = started + PREPARE_TIMEOUT;
        for &i in &participants {
            self.handles[i].txn_ctl(TxnCtl::Prepare {
                id: txn,
                ops: recipe.for_node(i),
                requested: Some(started),
                deadline: Some(deadline),
            });
        }
        let mut abort_reason: Option<String> = None;
        loop {
            world.run_for(POLL);
            let mut all_prepared = true;
            for &i in &participants {
                match self.handles[i].status().txn {
                    Some(r) if r.id == txn => match r.phase {
                        TxnPhase::Prepared | TxnPhase::Committed => {}
                        TxnPhase::Aborted | TxnPhase::RolledBack | TxnPhase::Reverted => {
                            abort_reason =
                                Some(format!("node {} {}: {}", self.ids[i].0, r.phase, r.detail));
                            all_prepared = false;
                        }
                    },
                    _ => all_prepared = false,
                }
            }
            if abort_reason.is_some() {
                break;
            }
            if all_prepared {
                break;
            }
            if world.now() > deadline {
                let laggards: Vec<NodeId> = participants
                    .iter()
                    .filter(|&&i| {
                        !matches!(
                            self.handles[i].status().txn,
                            Some(ref r) if r.id == txn && r.phase == TxnPhase::Prepared
                        )
                    })
                    .map(|&i| self.ids[i])
                    .collect();
                abort_reason = Some(format!(
                    "prepare deadline passed with node(s) {} unprepared",
                    id_list(&laggards)
                ));
                report.unprepared = laggards;
                break;
            }
        }

        if let Some(reason) = abort_reason {
            // Phase 2a: abort. The per-node ctl queue is FIFO, so a node
            // that has not processed its Prepare yet will prepare and then
            // immediately roll back — or refuse the stale prepare at its
            // deadline — either way converging on the checkpoint.
            for &i in &participants {
                self.handles[i].txn_ctl(TxnCtl::Abort {
                    id: txn,
                    reason: "peer_abort",
                });
            }
            report.unresolved = self.drain(world, &participants, txn, |phase| {
                matches!(
                    phase,
                    TxnPhase::Aborted | TxnPhase::RolledBack | TxnPhase::Reverted
                )
            });
            report.verdict = TxnVerdict::Aborted;
            report.reason = Some(reason);
            return report;
        }

        // Phase 2b: commit.
        for &i in &participants {
            self.handles[i].txn_ctl(TxnCtl::Commit { id: txn });
        }
        report.unresolved = self.drain(world, &participants, txn, |phase| {
            phase == TxnPhase::Committed
        });
        report.verdict = TxnVerdict::Committed;

        // Health-gated provisional window.
        if let Some(gate) = &opts.health {
            let baseline = report.pre_ratio.unwrap_or(1.0);
            window.skip(world);
            world.run_for(gate.window);
            let provisional = window.advance(world);
            let ratio = provisional.delivery_ratio();
            report.window_ratio = Some(ratio);
            report.disruption = Some(Disruption::of(&provisional));
            if baseline - ratio > gate.max_drop {
                for &i in &participants {
                    self.handles[i].txn_ctl(TxnCtl::Revert { id: txn });
                }
                report.unresolved = self.drain(world, &participants, txn, |phase| {
                    phase == TxnPhase::Reverted
                });
                report.verdict = TxnVerdict::Reverted;
                report.reason = Some(format!(
                    "delivery ratio {ratio:.3} fell more than {:.3} below baseline {baseline:.3}",
                    gate.max_drop
                ));
            }
        }
        report
    }

    /// Runs the world in poll slices until every participant's status
    /// reports the wanted phase for `txn`, or the resolve budget runs out.
    /// Returns the nodes that never got there.
    fn drain(
        &self,
        world: &mut World,
        participants: &[usize],
        txn: u64,
        done: impl Fn(TxnPhase) -> bool,
    ) -> Vec<NodeId> {
        let deadline = world.now() + RESOLVE_TIMEOUT;
        loop {
            world.run_for(POLL);
            let laggards: Vec<NodeId> = participants
                .iter()
                .filter(|&&i| {
                    !matches!(
                        self.handles[i].status().txn,
                        Some(ref r) if r.id == txn && done(r.phase)
                    )
                })
                .map(|&i| self.ids[i])
                .collect();
            if laggards.is_empty() || world.now() > deadline {
                return laggards;
            }
        }
    }
}

impl fmt::Debug for FleetCoordinator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetCoordinator")
            .field("nodes", &self.ids)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use netsim::fault::FaultPlan;
    use netsim::{NodeId, SimDuration, SimTime, Topology, World};

    use crate::concurrency::ConcurrencyModel;
    use crate::neighbour::{hello_registration, neighbour_detection_cf};
    use crate::node::ManetNode;

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    /// Builds a two-node world of neighbour-detection deployments and
    /// returns it with the fleet handles.
    fn fleet_world(plan: FaultPlan) -> (World, FleetCoordinator) {
        let mut world = World::builder()
            .topology(Topology::full(2))
            .seed(42)
            .fault_plan(plan)
            .build();
        let mut fleet = FleetCoordinator::default();
        for i in 0..2 {
            let mut node = ManetNode::new(ConcurrencyModel::SingleThreaded);
            node.deployment_mut()
                .system_mut()
                .register_message(hello_registration());
            node.deployment_mut()
                .add_protocol_offline(neighbour_detection_cf(Default::default()))
                .expect("fresh deployment accepts the protocol");
            fleet.add(node.handle());
            world.install_agent(NodeId(i), Box::new(node));
        }
        (world, fleet)
    }

    fn register_hello() -> Vec<ReconfigOp> {
        vec![ReconfigOp::RegisterMessage(hello_registration())]
    }

    #[test]
    fn best_effort_defers_on_crashed_node_and_applies_on_reboot() {
        let plan = FaultPlan::builder(0)
            .crash_for(ms(500), NodeId(1), SimDuration::from_millis(1_500))
            .build();
        let (mut world, fleet) = fleet_world(plan);
        world.run_until(ms(1_000));
        assert!(!world.node_up(NodeId(1)));

        let report = fleet.execute(&mut world, ReconfigRequest::new().recipe(register_hello));
        assert_eq!(report.verdict, TxnVerdict::Enqueued);
        assert_eq!(report.txn, 0, "no transaction id for an enqueue");
        assert_eq!(
            report.deferred,
            vec![NodeId(1)],
            "the crashed node is reported deferred"
        );
        assert_eq!(report.participants, vec![NodeId(0), NodeId(1)]);
        assert!(
            report.to_string().contains("deferred [1]"),
            "Display names the deferral: {report}"
        );

        let status = fleet.status();
        assert!(!status.converged());
        assert!(status.pending >= 1);
        assert_eq!(status.deferred, vec![NodeId(1)]);
        assert!(
            status.to_string().contains("deferred on down nodes [1]"),
            "Display names the deferral: {status}"
        );

        // The reboot at 2 s restarts the agent; its first quiescent point
        // drains the deferred op. Node 0 drains at its next HELLO tick.
        world.run_until(ms(4_000));
        let status = fleet.status();
        assert!(status.converged(), "not converged: {status}");
        assert!(status.deferred.is_empty());
        assert_eq!(status.to_string(), "converged");
        assert_eq!(
            world.stats().agent_counter("reconfig.ops_applied"),
            2,
            "both nodes applied the recipe exactly once"
        );
    }

    #[test]
    fn best_effort_enqueues_everywhere_even_on_dead_nodes() {
        let plan = FaultPlan::builder(0).crash(ms(500), NodeId(1)).build();
        let (mut world, fleet) = fleet_world(plan);
        world.run_until(ms(1_000));

        let report = fleet.execute(&mut world, ReconfigRequest::new().recipe(register_hello));
        assert_eq!(report.verdict, TxnVerdict::Enqueued);
        assert_eq!(report.deferred, vec![NodeId(1)]);
        assert!(report.skipped.is_empty(), "best-effort never abandons");
        // The dead node holds its batch for a reboot that never comes.
        assert_eq!(fleet.handle_of(NodeId(1)).unwrap().pending_ops(), 1);
    }

    #[test]
    fn per_node_recipes_stage_different_batches() {
        let (mut world, fleet) = fleet_world(FaultPlan::builder(0).build());
        world.run_until(ms(500));
        let report = fleet.execute(
            &mut world,
            ReconfigRequest::new().recipe_per_node(|i| {
                if i == 0 {
                    vec![ReconfigOp::RegisterMessage(hello_registration())]
                } else {
                    Vec::new()
                }
            }),
        );
        assert_eq!(report.verdict, TxnVerdict::Enqueued);
        assert_eq!(fleet.handle_of(NodeId(0)).unwrap().pending_ops(), 1);
        assert_eq!(fleet.handle_of(NodeId(1)).unwrap().pending_ops(), 0);
    }

    #[test]
    fn give_up_deferred_drops_pending_ops_of_dead_nodes() {
        // Crash with no reboot scheduled: the node never comes back.
        let plan = FaultPlan::builder(0).crash(ms(500), NodeId(1)).build();
        let (mut world, fleet) = fleet_world(plan);
        world.run_until(ms(1_000));

        let report = fleet.execute(&mut world, ReconfigRequest::new().recipe(register_hello));
        assert_eq!(report.deferred, vec![NodeId(1)]);

        // Node 0 applies at its next quiescent point; node 1 never will.
        world.run_until(ms(2_500));
        let abandoned = fleet.give_up_deferred();
        assert_eq!(abandoned, vec![(NodeId(1), 1)]);
        let status = fleet.status();
        assert!(status.converged(), "give-up clears the deferral: {status}");
    }

    #[test]
    fn two_phase_commit_converges_the_fleet() {
        let (mut world, fleet) = fleet_world(FaultPlan::builder(0).build());
        world.run_until(ms(1_000));

        let report = fleet.execute(
            &mut world,
            ReconfigRequest::new()
                .recipe(register_hello)
                .strategy(Strategy::TwoPhase(TxnOptions::default())),
        );
        assert_eq!(report.verdict, TxnVerdict::Committed, "{report}");
        assert!(report.unresolved.is_empty(), "{report}");
        assert!(report.deferred.is_empty(), "transactions never defer");
        assert!(
            report.disruption.is_none(),
            "no gate, no provisional window"
        );
        assert_eq!(report.participants, vec![NodeId(0), NodeId(1)]);
        let stats = world.stats();
        assert_eq!(stats.agent_counter("txn.prepared"), 2);
        assert_eq!(stats.agent_counter("txn.committed"), 2);
        assert_eq!(stats.agent_counter("txn.aborted"), 0);
        assert_eq!(
            stats.agent_counter("reconfig.ops_applied"),
            2,
            "committed ops count as applied reconfigurations"
        );
    }

    #[test]
    fn health_gate_reports_what_the_provisional_window_saw() {
        let (mut world, fleet) = fleet_world(FaultPlan::builder(0).build());
        world.run_until(ms(1_000));

        let gate = HealthGate::over_window(SimDuration::from_secs(4)).against_baseline(1.0);
        let report = fleet.execute(
            &mut world,
            ReconfigRequest::new()
                .recipe(register_hello)
                .health_gate(gate),
        );
        assert_eq!(report.verdict, TxnVerdict::Committed, "{report}");
        let seen = report.disruption.expect("the gate ran its window");
        // Two nodes exchanging HELLOs and nothing else: the window holds
        // control traffic, every frame heard once, and no data.
        assert!(seen.control_frames > 0, "{report}");
        assert_eq!(seen.control_received, seen.control_frames);
        assert_eq!((seen.data_sent, seen.data_delivered), (0, 0));
        assert_eq!(seen.route_discoveries, 0);
        assert!(
            report.to_string().contains("provisional window: "),
            "Display carries it: {report}"
        );
    }

    #[test]
    fn two_phase_commit_aborts_everywhere_when_one_node_cannot_apply() {
        let (mut world, fleet) = fleet_world(FaultPlan::builder(0).build());
        world.run_until(ms(1_000));

        // Node 1's batch contains an op that must fail (removing a protocol
        // that does not exist); node 0's batch is fine. 2PC must roll node
        // 0's prepared batch back, leaving both compositions untouched.
        let stacks_before = fleet.stacks();
        let report = fleet.execute(
            &mut world,
            ReconfigRequest::new()
                .recipe_per_node(|i| {
                    if i == 0 {
                        vec![ReconfigOp::RemoveProtocol {
                            name: "neighbour-detection".into(),
                        }]
                    } else {
                        vec![ReconfigOp::RemoveProtocol {
                            name: "no-such-protocol".into(),
                        }]
                    }
                })
                .strategy(Strategy::TwoPhase(TxnOptions::default())),
        );
        assert_eq!(report.verdict, TxnVerdict::Aborted, "{report}");
        assert!(report.reason.is_some());
        assert!(report.unresolved.is_empty(), "{report}");
        assert_eq!(fleet.stacks(), stacks_before, "no node kept the change");
        let stats = world.stats();
        assert!(stats.agent_counter("txn.aborted") >= 1);
        assert!(stats.agent_counter("txn.rolled_back") >= 1);
    }

    #[test]
    fn health_gate_builder_and_request_upgrade() {
        let gate = HealthGate::over_window(SimDuration::from_secs(3))
            .max_drop(0.4)
            .against_baseline(0.9);
        assert_eq!(gate.window, SimDuration::from_secs(3));
        assert!((gate.max_drop - 0.4).abs() < f64::EPSILON);
        assert_eq!(gate.baseline, Some(0.9));
        assert_eq!(
            HealthGate::default(),
            HealthGate {
                window: SimDuration::from_secs(10),
                max_drop: 0.2,
                baseline: None,
            }
        );

        // A health gate on a non-transactional request upgrades it to
        // two-phase — only a transaction can revert.
        let req = ReconfigRequest::new().health_gate(gate.clone());
        match req.strategy {
            Some(Strategy::TwoPhase(opts)) => assert_eq!(opts.health, Some(gate.clone())),
            other => panic!("expected TwoPhase upgrade, got {other:?}"),
        }

        // On an existing two-phase strategy the gate replaces its own.
        let earlier = TxnOptions {
            health: Some(HealthGate::default()),
        };
        let req = ReconfigRequest::new()
            .strategy(Strategy::TwoPhase(earlier))
            .health_gate(gate.clone());
        match req.strategy {
            Some(Strategy::TwoPhase(opts)) => assert_eq!(opts.health, Some(gate)),
            other => panic!("expected TwoPhase, got {other:?}"),
        }
    }
}
