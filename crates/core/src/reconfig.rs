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
//!   whole fleet if the delivery ratio regresses. The commit is a
//!   [`TwoPhaseMachine`] that holds no world: `execute` steps it at its
//!   100 ms polls, and the model checker steps it after every scheduled
//!   event.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netsim::{NodeId, SimDuration, SimTime, World, WorldStats};

use crate::node::{NodeHandle, NodeStatus, ReconfigOp, TxnCtl, TxnPhase, TxnReport};

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

/// The operation batches a reconfiguration applies: `recipe(i)` is the
/// batch for handle index `i`. It is invoked once per node, because
/// [`ReconfigOp`]s own protocol state: each node gets a batch of its own.
/// Every op is undoable, so any recipe, a §5 variant as much as a protocol
/// switch, can run two-phase. It is shared (`Arc`), so a cloned
/// [`TwoPhaseMachine`] runs the same recipe, and a machine may move to
/// another thread.
pub type Recipe<'a> = Arc<dyn Fn(usize) -> Vec<ReconfigOp> + Send + Sync + 'a>;

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
    /// [`ReconfigOp`]s own protocol state: each node gets a batch of its
    /// own.
    pub fn recipe(self, recipe: impl Fn() -> Vec<ReconfigOp> + Send + Sync + 'a) -> Self {
        self.recipe_per_node(move |_| recipe())
    }

    /// Sets a node-indexed recipe (`recipe(i)` for handle index `i`) for
    /// staged or heterogeneous rollouts.
    pub fn recipe_per_node(
        mut self,
        recipe: impl Fn(usize) -> Vec<ReconfigOp> + Send + Sync + 'a,
    ) -> Self {
        self.recipe = Some(Arc::new(recipe));
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
        let recipe = req.recipe.unwrap_or_else(|| Arc::new(|_| Vec::new()));
        match req.strategy.unwrap_or(Strategy::BestEffort) {
            Strategy::BestEffort => self.enqueue(&recipe),
            Strategy::TwoPhase(opts) => self.two_phase(world, recipe, opts.health),
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
            for op in recipe(i) {
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

    /// Drives a [`TwoPhaseMachine`] behind [`Strategy::TwoPhase`]: hands
    /// its verbs to the nodes, runs the world to the time it asks to be
    /// woken at (a poll, or a health-gate window, whose statistics it is
    /// fed) and feeds it every node's status, until it reports.
    fn two_phase(
        &self,
        world: &mut World,
        recipe: Recipe<'_>,
        gate: Option<HealthGate>,
    ) -> FleetTxnReport {
        let txn = self.next_txn.fetch_add(1, Ordering::Relaxed) + 1;
        let nodes: Vec<(NodeId, bool)> = self
            .ids
            .iter()
            .zip(&self.handles)
            .map(|(&id, handle)| (id, handle.is_alive()))
            .collect();
        let (mut machine, mut next) =
            TwoPhaseMachine::start(txn, &nodes, recipe, gate, world.now());
        let mut window = world.stats_window();
        while let Some(wait) = next {
            for (i, verb) in wait.verbs {
                self.handles[i].txn_ctl(verb);
            }
            if wait.measure {
                window.skip(world);
            }
            world.run_until(wait.until);
            let stats = wait.measure.then(|| window.advance(world));
            let statuses: Vec<NodeStatus> = self.handles.iter().map(NodeHandle::status).collect();
            next = machine.step(world.now(), &statuses, stats.as_ref());
        }
        machine.report
    }
}

/// Where a [`TwoPhaseMachine`] stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoordinatorPhase {
    /// Measuring the health gate's baseline over a pre-window.
    Baseline,
    /// Waiting, until the prepare deadline, for every `Prepared`.
    Preparing,
    /// Waiting, within the resolve budget, for every `Committed`.
    Committing,
    /// Waiting, within the resolve budget, for every rollback.
    Aborting,
    /// Committed; running the health gate's provisional window.
    Provisional,
    /// Waiting, within the resolve budget, for every `Reverted`.
    Reverting,
    /// The report is final.
    Done,
}

/// What a [`TwoPhaseMachine`] asks of whoever owns the clock: deliver the
/// verbs, then step it again at `until`.
#[derive(Debug)]
pub struct Wait {
    /// `(handle index, verb)` pairs, in delivery order.
    pub verbs: Vec<(usize, TxnCtl)>,
    /// When the machine next needs stepping.
    pub until: SimTime,
    /// Whether the wait is a health-gate window: the next step wants the
    /// statistics the world gathers until `until`.
    pub measure: bool,
}

/// The fleet two-phase commit as a state machine that holds no [`World`]:
/// [`FleetCoordinator::execute`] steps it at its polls, and a model
/// checker can step it after every scheduled event. Each step answers with
/// a [`Wait`], or with `None` once [`report`](Self::report) is final.
///
/// Phase 1 (*prepare*): every alive participant gets its batch with a
/// virtual prepare deadline; each checkpoints, applies, and holds its undo
/// log open at its own quiescent point. Phase 2: if — and only if — every
/// participant's *published* phase is `Prepared` (so a node that prepared
/// and then crashed still counts) before a poll finds the deadline passed,
/// the machine sends *commit*; on the first failed phase, or at the
/// deadline, it sends *abort*, and the prepared subset rolls back. Then it
/// waits, within a resolve budget, for acknowledgements, and names the
/// participants that gave none in [`FleetTxnReport::unresolved`] (one that
/// crashed prepared rolls itself back when it reboots).
///
/// With a [`HealthGate`], a committed composition runs provisionally for
/// the gate's window; if the fleet delivery ratio drops more than
/// `max_drop` below the baseline the machine sends *revert*. A clone is
/// an independent machine in exactly the same state.
#[derive(Clone)]
pub struct TwoPhaseMachine<'a> {
    recipe: Recipe<'a>,
    gate: Option<HealthGate>,
    /// Handle indices of the participants, in `report.participants` order.
    participants: Vec<usize>,
    report: FleetTxnReport,
    phase: CoordinatorPhase,
    /// The prepare deadline or the end of the resolve budget.
    deadline: Option<SimTime>,
}

impl<'a> TwoPhaseMachine<'a> {
    /// Starts transaction `txn` at `now` over `nodes[i]`, the id of handle
    /// `i` and whether it is up. Those up get their `Prepare` verbs — after
    /// a pre-window of the gate's length when it must measure a baseline.
    pub fn start(
        txn: u64,
        nodes: &[(NodeId, bool)],
        recipe: Recipe<'a>,
        gate: Option<HealthGate>,
        now: SimTime,
    ) -> (Self, Option<Wait>) {
        let participants: Vec<usize> = (0..nodes.len()).filter(|&i| nodes[i].1).collect();
        let mut machine = TwoPhaseMachine {
            recipe,
            gate,
            report: FleetTxnReport {
                txn,
                verdict: TxnVerdict::Aborted,
                participants: participants.iter().map(|&i| nodes[i].0).collect(),
                skipped: nodes.iter().filter(|n| !n.1).map(|n| n.0).collect(),
                deferred: Vec::new(),
                reason: None,
                pre_ratio: None,
                window_ratio: None,
                disruption: None,
                unresolved: Vec::new(),
                unprepared: Vec::new(),
            },
            participants,
            phase: CoordinatorPhase::Baseline,
            deadline: None,
        };
        let next = match &machine.gate {
            _ if machine.participants.is_empty() => {
                machine.report.reason = Some("no alive participants".to_string());
                machine.finish()
            }
            Some(gate) if gate.baseline.is_none() => wait(Vec::new(), now + gate.window, true),
            gate => {
                machine.report.pre_ratio = gate.as_ref().and_then(|g| g.baseline);
                machine.prepare(now)
            }
        };
        (machine, next)
    }

    /// Where the machine stands.
    #[must_use]
    pub fn phase(&self) -> CoordinatorPhase {
        self.phase
    }

    /// The deadline it waits on: stepped past it, it gives up on laggards.
    #[must_use]
    pub fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }

    /// The report so far, final once the phase is `Done`.
    pub fn report(&self) -> &FleetTxnReport {
        &self.report
    }

    /// One poll at `now`: `statuses[i]` is the status of handle `i`, and
    /// `window` the statistics a measuring [`Wait`] asked for.
    ///
    /// # Panics
    ///
    /// If a measured window is missing.
    pub fn step(
        &mut self,
        now: SimTime,
        statuses: &[NodeStatus],
        window: Option<&WorldStats>,
    ) -> Option<Wait> {
        let txn = self.report.txn;
        let phases: Vec<Option<&TxnReport>> = self
            .participants
            .iter()
            .map(|&i| statuses[i].txn.as_ref().filter(|r| r.id == txn))
            .collect();
        let expired = self.deadline.is_some_and(|deadline| now > deadline);
        match self.phase {
            CoordinatorPhase::Baseline => {
                let window = window.expect("the health gate's pre-window");
                self.report.pre_ratio = Some(window.delivery_ratio());
                self.prepare(now)
            }
            CoordinatorPhase::Preparing => {
                let mut failed = None;
                for (r, id) in phases.iter().zip(&self.report.participants) {
                    if let Some(r) = r.filter(|r| rolled_back(r.phase)) {
                        failed = Some(format!("node {} {}: {}", id.0, r.phase, r.detail));
                    }
                }
                if failed.is_some() {
                    self.resolve(now, TxnVerdict::Aborted, failed)
                } else if phases.iter().all(Option::is_some) {
                    self.resolve(now, TxnVerdict::Committed, None)
                } else if expired {
                    self.report.unprepared = self.laggards(&phases, |p| p == TxnPhase::Prepared);
                    let laggards = id_list(&self.report.unprepared);
                    let reason =
                        format!("prepare deadline passed with node(s) {laggards} unprepared");
                    self.resolve(now, TxnVerdict::Aborted, Some(reason))
                } else {
                    wait(Vec::new(), now + POLL, false)
                }
            }
            CoordinatorPhase::Committing
            | CoordinatorPhase::Aborting
            | CoordinatorPhase::Reverting => {
                let wanted = self.phase;
                let laggards = self.laggards(&phases, |p| match wanted {
                    CoordinatorPhase::Committing => p == TxnPhase::Committed,
                    CoordinatorPhase::Reverting => p == TxnPhase::Reverted,
                    _ => rolled_back(p),
                });
                if !laggards.is_empty() && !expired {
                    return wait(Vec::new(), now + POLL, false);
                }
                self.report.unresolved = laggards;
                match &self.gate {
                    Some(gate) if wanted == CoordinatorPhase::Committing => {
                        (self.phase, self.deadline) = (CoordinatorPhase::Provisional, None);
                        wait(Vec::new(), now + gate.window, true)
                    }
                    _ => self.finish(),
                }
            }
            CoordinatorPhase::Provisional => {
                let window = window.expect("the health gate's provisional window");
                let max_drop = self.gate.as_ref().map_or(0.0, |g| g.max_drop);
                let baseline = self.report.pre_ratio.unwrap_or(1.0);
                let ratio = window.delivery_ratio();
                self.report.window_ratio = Some(ratio);
                self.report.disruption = Some(Disruption::of(window));
                if baseline - ratio > max_drop {
                    let reason = format!(
                        "delivery ratio {ratio:.3} fell more than {max_drop:.3} below baseline {baseline:.3}"
                    );
                    self.resolve(now, TxnVerdict::Reverted, Some(reason))
                } else {
                    self.finish()
                }
            }
            CoordinatorPhase::Done => None,
        }
    }

    /// Sends every participant its `Prepare` verb with the deadline.
    fn prepare(&mut self, now: SimTime) -> Option<Wait> {
        let (id, deadline) = (self.report.txn, now + PREPARE_TIMEOUT);
        let prepare = |ops| TxnCtl::Prepare {
            id,
            ops,
            requested: Some(now),
            deadline: Some(deadline),
        };
        let verbs = self
            .participants
            .iter()
            .map(|&i| (i, prepare((self.recipe)(i))))
            .collect();
        (self.phase, self.deadline) = (CoordinatorPhase::Preparing, Some(deadline));
        wait(verbs, now + POLL, false)
    }

    /// Records the verdict, sends every participant its verb, and waits,
    /// within the resolve budget, for their acknowledgements. The per-node
    /// verb queue is FIFO, so a node told to abort before it processed its
    /// `Prepare` prepares and rolls straight back — or refuses the stale
    /// prepare at its deadline — either way converging on the checkpoint.
    fn resolve(
        &mut self,
        now: SimTime,
        verdict: TxnVerdict,
        reason: Option<String>,
    ) -> Option<Wait> {
        let (phase, verb): (_, fn(u64) -> TxnCtl) = match verdict {
            TxnVerdict::Committed => (CoordinatorPhase::Committing, |id| TxnCtl::Commit { id }),
            TxnVerdict::Reverted => (CoordinatorPhase::Reverting, |id| TxnCtl::Revert { id }),
            _ => (CoordinatorPhase::Aborting, |id| TxnCtl::Abort {
                id,
                reason: "peer_abort",
            }),
        };
        (self.report.verdict, self.report.reason) = (verdict, reason);
        let verbs = self
            .participants
            .iter()
            .map(|&i| (i, verb(self.report.txn)))
            .collect();
        (self.phase, self.deadline) = (phase, Some(now + RESOLVE_TIMEOUT));
        wait(verbs, now + POLL, false)
    }

    fn finish(&mut self) -> Option<Wait> {
        (self.phase, self.deadline) = (CoordinatorPhase::Done, None);
        None
    }

    /// Participants whose report for the transaction is not in a phase
    /// `done` accepts.
    fn laggards(
        &self,
        phases: &[Option<&TxnReport>],
        done: impl Fn(TxnPhase) -> bool,
    ) -> Vec<NodeId> {
        phases
            .iter()
            .zip(&self.report.participants)
            .filter(|(r, _)| !r.is_some_and(|r| done(r.phase)))
            .map(|(_, &id)| id)
            .collect()
    }
}

fn wait(verbs: Vec<(usize, TxnCtl)>, until: SimTime, measure: bool) -> Option<Wait> {
    Some(Wait {
        verbs,
        until,
        measure,
    })
}

/// Whether a participant's phase is one an abort ends in (or a failed
/// prepare reports).
fn rolled_back(phase: TxnPhase) -> bool {
    matches!(
        phase,
        TxnPhase::Aborted | TxnPhase::RolledBack | TxnPhase::Reverted
    )
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
        vec![load_hello()]
    }

    fn load_hello() -> ReconfigOp {
        ReconfigOp::LoadSystem(crate::SystemConfig {
            registrations: vec![hello_registration()],
            ..Default::default()
        })
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
                    vec![load_hello()]
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

    // ---- the two-phase machine, stepped without a world ------------------

    /// A published status whose last report for txn 1 is in `phase`.
    fn reporting(phase: Option<TxnPhase>) -> NodeStatus {
        NodeStatus {
            txn: phase.map(|phase| TxnReport {
                id: 1,
                phase,
                detail: format!("{phase} here"),
            }),
            ..NodeStatus::default()
        }
    }

    fn statuses(phases: &[Option<TxnPhase>]) -> Vec<NodeStatus> {
        phases.iter().map(|&p| reporting(p)).collect()
    }

    /// Starts txn 1 at 1 s over `n` alive nodes.
    fn start(n: usize, gate: Option<HealthGate>) -> (TwoPhaseMachine<'static>, Option<Wait>) {
        let nodes: Vec<(NodeId, bool)> = (0..n).map(|i| (NodeId(i), true)).collect();
        TwoPhaseMachine::start(1, &nodes, Arc::new(|_| register_hello()), gate, ms(1_000))
    }

    /// The verbs a step sends, as `(handle index, verb)` in debug form,
    /// and the time it asks to be woken at.
    fn sent(step: &Option<Wait>) -> (Vec<(usize, String)>, SimTime) {
        let wait = step.as_ref().expect("the machine finished early");
        let verbs = wait.verbs.iter().map(|(i, v)| (*i, format!("{v:?}")));
        (verbs.collect(), wait.until)
    }

    /// Steps until the machine reports, with the same statuses at every
    /// poll; returns the time of the last step.
    fn run_out(m: &mut TwoPhaseMachine<'_>, mut now: SimTime, st: &[NodeStatus]) -> SimTime {
        while let Some(wait) = m.step(now, st, None) {
            now = wait.until;
        }
        now
    }

    fn every(n: usize, verb: &str) -> Vec<(usize, String)> {
        (0..n).map(|i| (i, verb.to_string())).collect()
    }

    const PREPARED: Option<TxnPhase> = Some(TxnPhase::Prepared);

    #[test]
    fn machine_commits_only_once_every_participant_reports_prepared() {
        let (mut m, first) = start(3, None);
        let (verbs, until) = sent(&first);
        assert_eq!(verbs, every(3, "Prepare(#1, 1 ops)"));
        assert_eq!(until, ms(1_100), "the first poll");
        let waiting = m.step(ms(1_100), &statuses(&[PREPARED, None, PREPARED]), None);
        assert_eq!(sent(&waiting), (Vec::new(), ms(1_200)));
        assert_eq!(m.phase(), CoordinatorPhase::Preparing);
        let commit = m.step(ms(1_200), &statuses(&[PREPARED; 3]), None);
        assert_eq!(sent(&commit).0, every(3, "Commit(#1)"));
        assert_eq!(m.phase(), CoordinatorPhase::Committing);
        let committed = Some(TxnPhase::Committed);
        assert!(m
            .step(ms(1_300), &statuses(&[committed; 3]), None)
            .is_none());
        let done = m.report();
        assert_eq!(done.verdict, TxnVerdict::Committed, "{done}");
        assert!(
            done.reason.is_none() && done.unresolved.is_empty(),
            "{done}"
        );
        assert_eq!(m.phase(), CoordinatorPhase::Done);
    }

    #[test]
    fn machine_aborts_on_one_failed_prepare_before_the_deadline() {
        let (mut m, _) = start(3, None);
        let failed = m.step(
            ms(1_100),
            &statuses(&[PREPARED, Some(TxnPhase::Aborted), None]),
            None,
        );
        assert_eq!(sent(&failed).0, every(3, "Abort(#1, peer_abort)"));
        assert_eq!(m.phase(), CoordinatorPhase::Aborting);
        let rolled_back = Some(TxnPhase::RolledBack);
        let aborted = Some(TxnPhase::Aborted);
        let acks = statuses(&[rolled_back, aborted, rolled_back]);
        assert!(m.step(ms(1_200), &acks, None).is_none());
        let done = m.report();
        assert_eq!(done.verdict, TxnVerdict::Aborted);
        assert_eq!(done.reason.as_deref(), Some("node 1 aborted: aborted here"));
        assert!(
            done.unprepared.is_empty() && done.unresolved.is_empty(),
            "{done}"
        );
    }

    #[test]
    fn machine_aborts_at_the_first_poll_past_the_deadline_naming_the_laggards() {
        let (mut m, first) = start(3, None);
        let (_, mut now) = sent(&first);
        let laggard = statuses(&[PREPARED, None, None]);
        // Polls up to and including start + 5 s find the deadline not passed.
        while now <= ms(6_000) {
            let (verbs, until) = sent(&m.step(now, &laggard, None));
            assert!(verbs.is_empty(), "aborted at {now}");
            now = until;
        }
        assert_eq!(now, ms(6_100), "the first poll past the deadline");
        let abort = m.step(now, &laggard, None);
        assert_eq!(sent(&abort).0, every(3, "Abort(#1, peer_abort)"));
        let rolled_back = statuses(&[Some(TxnPhase::RolledBack); 3]);
        assert!(m.step(ms(6_200), &rolled_back, None).is_none());
        let done = m.report();
        assert_eq!(done.unprepared, vec![NodeId(1), NodeId(2)], "{done}");
        assert_eq!(
            done.reason.as_deref(),
            Some("prepare deadline passed with node(s) [1, 2] unprepared")
        );
    }

    #[test]
    fn machine_names_participants_unresolved_when_the_budget_runs_out() {
        let (mut m, _) = start(2, None);
        let (_, mut now) = sent(&m.step(ms(1_100), &statuses(&[PREPARED; 2]), None));
        let stalled = statuses(&[Some(TxnPhase::Committed), PREPARED]);
        now = run_out(&mut m, now, &stalled);
        assert_eq!(now, ms(6_200), "the first poll past the resolve budget");
        let done = m.report();
        assert_eq!(done.verdict, TxnVerdict::Committed);
        assert_eq!(done.unresolved, vec![NodeId(1)], "{done}");
    }

    #[test]
    fn machine_reverts_when_the_gate_window_falls_below_baseline() {
        let gate = HealthGate::over_window(SimDuration::from_secs(4)).max_drop(0.2);
        let (mut m, pre) = start(2, Some(gate));
        let pre = pre.expect("a pre-window");
        assert!(pre.verbs.is_empty() && pre.measure && pre.until == ms(5_000));
        let window = |sent, delivered| WorldStats {
            data_sent: sent,
            data_delivered: delivered,
            ..WorldStats::default()
        };
        let prepare = m.step(ms(5_000), &statuses(&[None; 2]), Some(&window(10, 9)));
        assert_eq!(
            sent(&prepare).0.len(),
            2,
            "the prepares follow the pre-window"
        );
        m.step(ms(5_100), &statuses(&[PREPARED; 2]), None);
        let committed = statuses(&[Some(TxnPhase::Committed); 2]);
        let provisional = m.step(ms(5_200), &committed, None).expect("a window");
        assert!(provisional.measure && provisional.until == ms(9_200));
        assert_eq!(m.phase(), CoordinatorPhase::Provisional);
        let revert = m.step(ms(9_200), &committed, Some(&window(10, 5)));
        assert_eq!(sent(&revert).0, every(2, "Revert(#1)"));
        let reverted = statuses(&[Some(TxnPhase::Reverted); 2]);
        assert!(m.step(ms(9_300), &reverted, None).is_none());
        let done = m.report();
        assert_eq!(done.verdict, TxnVerdict::Reverted);
        assert_eq!((done.pre_ratio, done.window_ratio), (Some(0.9), Some(0.5)));
        assert_eq!(
            done.reason.as_deref(),
            Some("delivery ratio 0.500 fell more than 0.200 below baseline 0.900")
        );
    }

    #[test]
    fn machine_counts_a_prepared_participant_that_went_down() {
        let (mut m, _) = start(2, None);
        let mut down = statuses(&[PREPARED; 2]);
        down[1].alive = false;
        // The coordinator reads only the published phase: the crashed
        // node's is still `Prepared`, so the fleet commits.
        let commit = m.step(ms(1_100), &down, None);
        assert_eq!(sent(&commit).0, every(2, "Commit(#1)"));
        down[0] = reporting(Some(TxnPhase::Committed));
        run_out(&mut m, ms(1_200), &down);
        let done = m.report();
        assert_eq!(done.verdict, TxnVerdict::Committed);
        assert_eq!(done.unresolved, vec![NodeId(1)], "{done}");
    }

    #[test]
    fn machine_with_no_alive_participant_reports_at_once() {
        let recipe: Recipe<'static> = Arc::new(|_| Vec::new());
        let (m, step) = TwoPhaseMachine::start(7, &[(NodeId(4), false)], recipe, None, ms(0));
        assert!(step.is_none());
        let done = m.report();
        assert_eq!((done.txn, done.verdict), (7, TxnVerdict::Aborted));
        assert_eq!(done.skipped, vec![NodeId(4)]);
        assert_eq!(done.reason.as_deref(), Some("no alive participants"));
        assert_eq!((m.phase(), m.deadline()), (CoordinatorPhase::Done, None));
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
