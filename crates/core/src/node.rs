//! Per-node MANETKit deployments: the MANETKit CF itself.
//!
//! A [`Deployment`] composes the [`SystemCf`], any number of
//! [`ManetProtocolCf`]s and the [`FrameworkManager`] into one node-resident
//! framework instance, and drives event dispatch under the configured
//! [`ConcurrencyModel`]. [`ManetNode`] adapts a deployment to
//! [`netsim::RoutingAgent`] so it can live on a simulated node, and exposes
//! a [`NodeHandle`] through which external software enacts runtime
//! reconfiguration at quiescent points (§4.5).

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use netsim::{ContextSample, FilterEvent, NodeOs, TimerToken};
use packetbb::Address;

use crate::concurrency::{ConcurrencyModel, DispatchQueue};
use crate::event::{ContextValue, Event, EventType, Payload};
use crate::manager::{FrameworkManager, UnitId};
use crate::protocol::{
    fork_all, CtxOutputs, Displaced, Handover, ManetProtocolCf, Plugin, ProtoCtx, StateSlot,
};
use crate::registry::EventTuple;
use crate::system::{SystemCf, SystemConfig};
use crate::telemetry::{BusCounters, UnitCounters};

/// The System CF's unit id: the first, so it is wired before every
/// protocol.
const SYSTEM_UNIT: UnitId = 0;

/// The System CF's unit name, in its counters and its events' origin.
const SYSTEM_NAME: &str = "system";

/// Errors from deployment operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum DeployError {
    /// An integrity rule vetoed the change.
    Integrity(IntegrityViolation),
    /// No protocol with the given name is deployed.
    NoSuchProtocol(String),
    /// A protocol with the given name is already deployed.
    DuplicateProtocol(String),
    /// A switch failed (`cause`) and putting the retired protocol back
    /// failed too (`reinstate`): the deployment lost that protocol.
    SwitchUnrecovered {
        /// Why the replacement was refused.
        cause: Box<DeployError>,
        /// Why the retired protocol could not be reinstated.
        reinstate: Box<DeployError>,
    },
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Integrity(e) => write!(f, "integrity veto: {e}"),
            DeployError::NoSuchProtocol(n) => write!(f, "no protocol named {n:?}"),
            DeployError::DuplicateProtocol(n) => {
                write!(f, "protocol {n:?} already deployed")
            }
            DeployError::SwitchUnrecovered { cause, reinstate } => {
                write!(
                    f,
                    "{cause} (and reinstating the old protocol failed: {reinstate})"
                )
            }
        }
    }
}

impl std::error::Error for DeployError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeployError::Integrity(e) => Some(e),
            DeployError::SwitchUnrecovered { cause, .. } => Some(cause.as_ref()),
            _ => None,
        }
    }
}

/// An integrity rule's veto of a structural change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityViolation {
    /// The rule that fired.
    pub rule: &'static str,
    /// The rule's explanation.
    pub reason: &'static str,
}

impl fmt::Display for IntegrityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "integrity rule {:?} vetoed the change: {}",
            self.rule, self.reason
        )
    }
}

impl std::error::Error for IntegrityViolation {}

/// A runtime reconfiguration request, enacted at the next quiescent point.
///
/// Every op is data, and every op is undoable: the transaction engine
/// applies each one and keeps what it displaced as its undo entry (see
/// [`txn`](crate::txn)).
pub enum ReconfigOp {
    /// Deploy an additional protocol (started immediately).
    AddProtocol(ManetProtocolCf),
    /// Undeploy a protocol (stopped, timers cancelled).
    RemoveProtocol {
        /// Name of the protocol to remove.
        name: String,
    },
    /// Replace one protocol with another, optionally carrying the S element
    /// over.
    SwitchProtocol {
        /// Protocol to retire.
        old: String,
        /// Replacement protocol.
        new: ManetProtocolCf,
        /// Whether the replacement takes over the old protocol's S element:
        /// the state slot itself when both hold the same type, else the
        /// live routes through the protocols'
        /// [`RouteCarrier`](crate::carry::RouteCarrier)s (a copy — the
        /// retired CF keeps its state for the undo log).
        transfer_state: bool,
    },
    /// Replace a protocol's event tuple (declarative rewiring).
    UpdateTuple {
        /// Target protocol.
        protocol: String,
        /// New tuple.
        tuple: EventTuple,
    },
    /// Recompose a protocol's C and S elements in place — how the paper's
    /// variants are derived on a running node. The `unplug` plug-ins are
    /// removed first; then each `plug` plug-in replaces the same-named one
    /// of its kind in place, or is appended; then `state` derives the new S
    /// element from the current one (its codec and carrier come with it).
    /// The protocol restarts once afterwards, re-arming its source timers.
    Recompose {
        /// Target protocol.
        protocol: String,
        /// Plug-ins to plug, in order.
        plug: Vec<Plugin>,
        /// Names of handlers or sources to remove.
        unplug: Vec<String>,
        /// Derives the replacement S element from the current one.
        state: Option<fn(&StateSlot) -> StateSlot>,
    },
    /// Load a System CF configuration (see [`SystemCf::load`]): upsert its
    /// message registrations in order and load the plug-ins it enables.
    LoadSystem(SystemConfig),
}

impl ReconfigOp {
    /// An independent copy, or `None` when a protocol or plug-in it
    /// carries cannot fork.
    #[must_use]
    pub fn fork(&self) -> Option<ReconfigOp> {
        Some(match self {
            ReconfigOp::AddProtocol(cf) => ReconfigOp::AddProtocol(cf.fork()?),
            ReconfigOp::RemoveProtocol { name } => {
                ReconfigOp::RemoveProtocol { name: name.clone() }
            }
            ReconfigOp::SwitchProtocol {
                old,
                new,
                transfer_state,
            } => ReconfigOp::SwitchProtocol {
                old: old.clone(),
                new: new.fork()?,
                transfer_state: *transfer_state,
            },
            ReconfigOp::UpdateTuple { protocol, tuple } => ReconfigOp::UpdateTuple {
                protocol: protocol.clone(),
                tuple: tuple.clone(),
            },
            ReconfigOp::Recompose {
                protocol,
                plug,
                unplug,
                state,
            } => ReconfigOp::Recompose {
                protocol: protocol.clone(),
                plug: fork_all(plug, Plugin::fork)?,
                unplug: unplug.clone(),
                state: *state,
            },
            ReconfigOp::LoadSystem(config) => ReconfigOp::LoadSystem(config.clone()),
        })
    }
}

impl fmt::Debug for ReconfigOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigOp::AddProtocol(cf) => write!(f, "AddProtocol({})", cf.name()),
            ReconfigOp::RemoveProtocol { name } => write!(f, "RemoveProtocol({name})"),
            ReconfigOp::SwitchProtocol { old, new, .. } => {
                write!(f, "SwitchProtocol({old} -> {})", new.name())
            }
            ReconfigOp::UpdateTuple { protocol, .. } => write!(f, "UpdateTuple({protocol})"),
            ReconfigOp::Recompose { protocol, .. } => write!(f, "Recompose({protocol})"),
            ReconfigOp::LoadSystem(_) => write!(f, "LoadSystem"),
        }
    }
}

/// Where a node stands in its most recent reconfiguration transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnPhase {
    /// Ops applied, undo log live, awaiting commit or abort.
    Prepared,
    /// Committed; the undo log is retained for a possible health revert.
    Committed,
    /// Prepare failed (rollback, if any was needed, already ran).
    Aborted,
    /// A prepared transaction was rolled back on coordinator orders (or
    /// because the node crashed while it was open).
    RolledBack,
    /// A committed transaction was backed out by the health gate.
    Reverted,
}

impl fmt::Display for TxnPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TxnPhase::Prepared => "prepared",
            TxnPhase::Committed => "committed",
            TxnPhase::Aborted => "aborted",
            TxnPhase::RolledBack => "rolled_back",
            TxnPhase::Reverted => "reverted",
        })
    }
}

/// Outcome of the node's most recent transaction, surfaced through
/// [`NodeStatus::txn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnReport {
    /// Transaction id (coordinator-assigned).
    pub id: u64,
    /// Current phase.
    pub phase: TxnPhase,
    /// Reason/detail for aborts and rollbacks; empty otherwise.
    pub detail: String,
}

/// A status snapshot shared with [`NodeHandle`]s. The node writes it at
/// the end of every callback that changed what it reports: its start and
/// stop, a quiescent point that processed a transaction verb, a
/// reconfiguration op or a doomed rollback, and the first callback after a
/// crash.
#[derive(Debug, Clone)]
pub struct NodeStatus {
    /// Deployed protocol names, in stack order.
    pub protocols: Vec<String>,
    /// Most recent reconfiguration failure, if any.
    pub last_error: Option<String>,
    /// Whether the node is running. Set to `false` when the simulated node
    /// crashes (fault injection); back to `true` once the rebooted node
    /// publishes its first status. Operations enqueued while dead stay
    /// pending and are applied at the first post-reboot quiescent point.
    pub alive: bool,
    /// The most recent transaction's outcome (`None` until the node first
    /// participates in one).
    pub txn: Option<TxnReport>,
    /// [`structural_hash`](crate::txn::structural_hash) of the live
    /// composition, published only when
    /// [`ManetNode::set_publish_composition`] is on (the hash walk is not
    /// free, and only the model checker compares compositions per step).
    pub composition_hash: Option<u64>,
}

impl Default for NodeStatus {
    fn default() -> Self {
        NodeStatus {
            protocols: Vec::new(),
            last_error: None,
            alive: true,
            txn: None,
            composition_hash: None,
        }
    }
}

/// One deployed protocol: the one record of it the deployment keeps.
struct Slot {
    cf: ManetProtocolCf,
    /// Its unit id, given when it was deployed and never reused.
    unit: UnitId,
    /// Event types with a pending timer, whose tokens are
    /// [`timer_token`]`(unit, type)`: what removing the protocol cancels.
    timers: Vec<EventType>,
    /// Its `bus.<name>.events_{in,out}` counter ids.
    bus: UnitCounters,
}

/// The OS timer token of `unit`'s timer for event type `ty`. A unit holds
/// at most one pending timer per type, and the OS keeps at most one per
/// token, so re-arming a type needs no lookup: the OS replaces the old one.
/// Unit ids are never reused, so a removed protocol's token cannot reach
/// its successor.
fn timer_token(unit: UnitId, ty: EventType) -> TimerToken {
    (unit as u64) << 32 | u64::from(ty.id())
}

/// What a successful [`Deployment::switch_protocol`] leaves for an undo
/// log.
pub(crate) struct Switched {
    /// The retired CF, stopped, with whatever state it still owns.
    pub old: ManetProtocolCf,
    /// Its former stack position.
    pub index: usize,
    /// Whether its state slot moved into the successor (and must move back
    /// when the switch is undone).
    pub moved: bool,
}

/// A per-node MANETKit framework instance.
pub struct Deployment {
    system: SystemCf,
    /// The System CF's tuple as of the last
    /// [`refresh_system_tuple`](Self::refresh_system_tuple): the System
    /// unit's declaration, as a slot's CF holds a protocol's.
    system_tuple: EventTuple,
    /// The System CF's `bus.system.events_{in,out}` counter ids.
    system_bus: UnitCounters,
    /// The wiring derived from the System CF's and the slots' tuples.
    manager: FrameworkManager,
    /// The deployed protocols in stack order: the composition.
    slots: Vec<Slot>,
    /// The unit id the next deployed protocol gets.
    next_unit: UnitId,
    concurrency: ConcurrencyModel,
    /// The dispatch-queue high-water mark, in the OS counters.
    bus: BusCounters,
    /// Reconfiguration ops applied, by [`apply`](Self::apply) or a
    /// committed transaction: the generation of the flight recorder's
    /// `resume` records.
    pub(crate) ops_applied: u64,
    /// The dispatch queue, empty between rounds and reused across them so a
    /// round only allocates when it outgrows every round before it.
    queue: DispatchQueue,
    /// Reused buffer for the `*_IN` events of one received frame.
    rx_events: Vec<Event>,
    started: bool,
}

impl Deployment {
    /// An empty deployment under the given concurrency model.
    #[must_use]
    pub fn new(concurrency: ConcurrencyModel) -> Self {
        Deployment {
            system: SystemCf::new(),
            system_tuple: EventTuple::new(),
            system_bus: UnitCounters::default(),
            manager: FrameworkManager::new(),
            slots: Vec::new(),
            next_unit: SYSTEM_UNIT + 1,
            concurrency,
            bus: BusCounters::default(),
            ops_applied: 0,
            queue: DispatchQueue::for_model(concurrency),
            rx_events: Vec::new(),
            started: false,
        }
    }

    /// The System CF (register messages, enable plug-ins) — changes take
    /// effect at the next [`refresh_system_tuple`](Self::refresh_system_tuple).
    #[must_use]
    pub fn system_mut(&mut self) -> &mut SystemCf {
        &mut self.system
    }

    /// Read access to the System CF.
    #[must_use]
    pub fn system(&self) -> &SystemCf {
        &self.system
    }

    /// Re-derives the System CF's tuple after plug-in changes.
    pub fn refresh_system_tuple(&mut self) {
        self.system_tuple = self.system.tuple();
        self.rewire();
    }

    /// Hands the live units' tuples to the manager, the System CF's first:
    /// after every change to the slots or a tuple.
    fn rewire(&mut self) {
        let system = std::iter::once((SYSTEM_UNIT, &self.system_tuple));
        let protocols = self.slots.iter().map(|s| (s.unit, s.cf.tuple()));
        self.manager.rewire(system.chain(protocols));
    }

    /// The framework manager (wiring inspection, context concentrator).
    #[must_use]
    pub fn manager(&self) -> &FrameworkManager {
        &self.manager
    }

    /// An independent copy in exactly this deployment's state, between
    /// callbacks: every protocol through [`ManetProtocolCf::fork`], the
    /// System CF, wiring and bus counter ids cloned. `None` when a plug-in
    /// cannot fork.
    #[must_use]
    pub fn fork(&self) -> Option<Deployment> {
        debug_assert!(
            self.queue.is_empty() && self.rx_events.is_empty(),
            "a deployment forks between dispatch rounds"
        );
        let slots = fork_all(&self.slots, |s| {
            Some(Slot {
                cf: s.cf.fork()?,
                unit: s.unit,
                timers: s.timers.clone(),
                bus: s.bus,
            })
        })?;
        Some(Deployment {
            system: self.system.clone(),
            system_tuple: self.system_tuple.clone(),
            system_bus: self.system_bus,
            manager: self.manager.clone(),
            slots,
            next_unit: self.next_unit,
            concurrency: self.concurrency,
            bus: self.bus.clone(),
            ops_applied: self.ops_applied,
            queue: DispatchQueue::for_model(self.concurrency),
            rx_events: Vec::new(),
            started: self.started,
        })
    }

    /// The configured concurrency model.
    #[must_use]
    pub fn concurrency(&self) -> ConcurrencyModel {
        self.concurrency
    }

    /// Selects a different concurrency model (takes effect on the next
    /// dispatch round).
    pub fn set_concurrency(&mut self, model: ConcurrencyModel) {
        self.concurrency = model;
        self.queue = DispatchQueue::for_model(model);
    }

    /// Names of deployed protocols in stack order.
    #[must_use]
    pub fn protocol_names(&self) -> Vec<String> {
        self.slots.iter().map(|s| s.cf.name().to_string()).collect()
    }

    /// The deployed protocol CFs in stack order.
    pub(crate) fn protocols(&self) -> impl Iterator<Item = &ManetProtocolCf> {
        self.slots.iter().map(|s| &s.cf)
    }

    /// Read access to a deployed protocol CF.
    #[must_use]
    pub fn protocol(&self, name: &str) -> Option<&ManetProtocolCf> {
        self.slots
            .iter()
            .find(|s| s.cf.name() == name)
            .map(|s| &s.cf)
    }

    /// Deploys a protocol before the node has access to an OS (pre-install
    /// assembly). The protocol starts when the deployment starts.
    ///
    /// # Errors
    ///
    /// Fails on a duplicate name or a second reactive protocol.
    pub fn add_protocol_offline(&mut self, cf: ManetProtocolCf) -> Result<(), DeployError> {
        self.try_insert_protocol_offline(self.slots.len(), cf)
            .map_err(|(_, e)| e)
    }

    /// Inserts a protocol at stack position `at` (used by transactional
    /// rollback to reinstate a removed protocol in its original position),
    /// returning the CF on failure. Its two checks are the deployment's
    /// integrity rules: protocol names are unique, and at most one
    /// protocol is reactive.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_insert_protocol_offline(
        &mut self,
        at: usize,
        cf: ManetProtocolCf,
    ) -> Result<(), (ManetProtocolCf, DeployError)> {
        if self.slots.iter().any(|s| s.cf.name() == cf.name()) {
            let err = DeployError::DuplicateProtocol(cf.name().to_string());
            return Err((cf, err));
        }
        if cf.is_reactive() && self.slots.iter().any(|s| s.cf.is_reactive()) {
            let err = DeployError::Integrity(IntegrityViolation {
                rule: "one-reactive-protocol",
                reason: "a reactive routing protocol is already deployed",
            });
            return Err((cf, err));
        }
        let unit = self.next_unit;
        self.next_unit += 1;
        let at = at.min(self.slots.len());
        self.slots.insert(
            at,
            Slot {
                cf,
                unit,
                timers: Vec::new(),
                bus: UnitCounters::default(),
            },
        );
        self.rewire();
        Ok(())
    }

    /// Online variant of [`try_insert_protocol_offline`]: the protocol
    /// starts immediately when the deployment is running.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_insert_protocol(
        &mut self,
        at: usize,
        cf: ManetProtocolCf,
        os: &mut NodeOs,
    ) -> Result<(), (ManetProtocolCf, DeployError)> {
        let at = at.min(self.slots.len());
        self.try_insert_protocol_offline(at, cf)?;
        if self.started {
            self.start_protocol(at, os);
            self.drain(os);
        }
        Ok(())
    }

    /// Stack position of the named protocol.
    pub(crate) fn protocol_position(&self, name: &str) -> Option<usize> {
        self.slots.iter().position(|s| s.cf.name() == name)
    }

    /// Replaces a protocol's tuple, returning the previous one (the undo
    /// artefact for transactional rollback).
    pub(crate) fn swap_protocol_tuple(
        &mut self,
        protocol: &str,
        tuple: EventTuple,
    ) -> Result<EventTuple, DeployError> {
        let slot = self
            .slots
            .iter_mut()
            .find(|s| s.cf.name() == protocol)
            .ok_or_else(|| DeployError::NoSuchProtocol(protocol.to_string()))?;
        let old = slot.cf.set_tuple(tuple);
        self.rewire();
        Ok(old)
    }

    /// Undeploys a protocol, cancelling its timers.
    ///
    /// # Errors
    ///
    /// Fails when the protocol is unknown.
    pub fn remove_protocol(
        &mut self,
        name: &str,
        os: &mut NodeOs,
    ) -> Result<ManetProtocolCf, DeployError> {
        let idx = self
            .slots
            .iter()
            .position(|s| s.cf.name() == name)
            .ok_or_else(|| DeployError::NoSuchProtocol(name.to_string()))?;
        // Give the protocol its shutdown hook (kernel-route cleanup etc.).
        {
            let mut ctx = ProtoCtx::new(os, self.slots[idx].cf.name());
            self.slots[idx].cf.stop(&mut ctx);
            let out = ctx.take_outputs();
            drop(ctx);
            // Emitted events are dropped (the protocol is leaving); direct
            // sends still flush so goodbye messages could go out.
            for (dst, msg) in out.sends {
                self.system.send_direct(msg, dst);
            }
            self.system.flush(os);
        }
        let slot = self.slots.remove(idx);
        for &ty in &slot.timers {
            os.cancel_timer(timer_token(slot.unit, ty));
        }
        self.rewire();
        Ok(slot.cf)
    }

    /// Retires `old` and starts `new` at the top of the stack in the same
    /// quiescent point — the one implementation of `SwitchProtocol`. With
    /// `transfer_state` the retiring CF hands its S element over (see
    /// [`ReconfigOp::SwitchProtocol`]) between its stop, which withdraws
    /// its kernel routes, and the successor's start, which installs the
    /// routes it was handed: no datagram sees a gap. A refused successor
    /// gives the state back and the retired CF is reinstated, so a failed
    /// switch nets out to a no-op.
    pub(crate) fn switch_protocol(
        &mut self,
        old: &str,
        mut new: ManetProtocolCf,
        transfer_state: bool,
        os: &mut NodeOs,
    ) -> Result<Switched, DeployError> {
        let index = self
            .protocol_position(old)
            .ok_or_else(|| DeployError::NoSuchProtocol(old.to_string()))?;
        let mut old_cf = self.remove_protocol(old, os)?;
        let handover = if transfer_state {
            old_cf.hand_over_state(&mut new, os.now())
        } else {
            Handover::Nothing
        };
        os.trace_state_transfer("switch_protocol", handover != Handover::Nothing);
        let moved = handover == Handover::Moved;
        let at = self.slots.len();
        match self.try_insert_protocol(at, new, os) {
            Ok(()) => {
                os.trace_rebind("switch_protocol");
                Ok(Switched {
                    old: old_cf,
                    index,
                    moved,
                })
            }
            Err((mut rejected, cause)) => {
                if moved {
                    old_cf.replace_state(rejected.take_state());
                }
                match self.try_insert_protocol(index, old_cf, os) {
                    Ok(()) => Err(cause),
                    Err((_, reinstate)) => Err(DeployError::SwitchUnrecovered {
                        cause: Box::new(cause),
                        reinstate: Box::new(reinstate),
                    }),
                }
            }
        }
    }

    /// Recomposes the named protocol (see [`ReconfigOp::Recompose`]) and
    /// restarts it once, returning what it displaced.
    pub(crate) fn recompose(
        &mut self,
        protocol: &str,
        plug: Vec<Plugin>,
        unplug: &[String],
        state: Option<fn(&StateSlot) -> StateSlot>,
        os: &mut NodeOs,
    ) -> Result<Displaced, DeployError> {
        let idx = self
            .protocol_position(protocol)
            .ok_or_else(|| DeployError::NoSuchProtocol(protocol.to_string()))?;
        let displaced = self.slots[idx].cf.recompose(plug, unplug, state);
        if self.started {
            self.start_protocol(idx, os);
        }
        Ok(displaced)
    }

    /// Undoes a recompose of the named protocol: stops it, which withdraws
    /// what its current composition installed, puts back what the
    /// recompose displaced and starts it again.
    pub(crate) fn restore(&mut self, protocol: &str, displaced: Displaced, os: &mut NodeOs) {
        let Some(idx) = self.protocol_position(protocol) else {
            return;
        };
        if self.started {
            self.stop_protocol(idx, os);
        }
        self.slots[idx].cf.restore(displaced);
        if self.started {
            self.start_protocol(idx, os);
        }
    }

    /// Applies one reconfiguration operation (at a quiescent point — no
    /// event is in flight when this is called): the transaction engine's
    /// implementation of the op, with its undo entry dropped.
    ///
    /// # Errors
    ///
    /// Propagates failures of the underlying operation; the deployment is
    /// left unchanged on error.
    pub fn apply(&mut self, op: ReconfigOp, os: &mut NodeOs) -> Result<(), DeployError> {
        crate::txn::apply_one(self, op, os)?;
        self.ops_applied += 1;
        Ok(())
    }

    // ---- lifecycle & stimuli ----------------------------------------------

    /// Starts the deployment: derives the System tuple and starts every
    /// protocol.
    pub fn start(&mut self, os: &mut NodeOs) {
        // Every (re)start — install, reboot, reinstall — finds the node's
        // timers cancelled, so no slot has one pending.
        self.slots.iter_mut().for_each(|s| s.timers.clear());
        self.refresh_system_tuple();
        self.started = true;
        for idx in 0..self.slots.len() {
            self.start_protocol(idx, os);
        }
        self.drain(os);
    }

    /// Stops every protocol (cancels timers).
    pub fn stop(&mut self, os: &mut NodeOs) {
        for idx in 0..self.slots.len() {
            self.stop_protocol(idx, os);
        }
        self.started = false;
    }

    fn stop_protocol(&mut self, idx: usize, os: &mut NodeOs) {
        let mut ctx = ProtoCtx::new(os, self.slots[idx].cf.name());
        self.slots[idx].cf.stop(&mut ctx);
        let out = ctx.take_outputs();
        drop(ctx);
        self.apply_outputs(idx, out, os);
    }

    fn start_protocol(&mut self, idx: usize, os: &mut NodeOs) {
        let mut ctx = ProtoCtx::new(os, self.slots[idx].cf.name());
        self.slots[idx].cf.start(&mut ctx);
        let out = ctx.take_outputs();
        drop(ctx);
        self.apply_outputs(idx, out, os);
    }

    /// A control frame arrived.
    pub fn on_frame(&mut self, os: &mut NodeOs, from: Address, bytes: &[u8]) {
        let mut events = std::mem::take(&mut self.rx_events);
        self.system.rx(from, &os.decode_control(bytes), &mut events);
        self.dispatch_drain(os, &mut events, Some(SYSTEM_UNIT));
        self.rx_events = events;
    }

    /// A timer token fired.
    pub fn on_timer(&mut self, os: &mut NodeOs, token: TimerToken) {
        let unit = (token >> 32) as UnitId;
        // A protocol removed at this callback's quiescent point leaves its
        // timer nobody to deliver to.
        let Some(idx) = self.slots.iter().position(|s| s.unit == unit) else {
            return;
        };
        let slot = &mut self.slots[idx];
        let Some(i) = slot
            .timers
            .iter()
            .position(|&ty| timer_token(unit, ty) == token)
        else {
            return;
        };
        let ty = slot.timers.swap_remove(i);
        let mut ctx = ProtoCtx::new(os, slot.cf.name());
        slot.cf.on_timer(&ty, &mut ctx);
        let out = ctx.take_outputs();
        drop(ctx);
        self.apply_outputs(idx, out, os);
        self.drain(os);
    }

    /// A netfilter / link-layer event arrived.
    pub fn on_filter_event(&mut self, os: &mut NodeOs, event: &FilterEvent) {
        let events = self.system.filter_event(event);
        self.dispatch(os, events, Some(SYSTEM_UNIT));
    }

    /// A context sample arrived.
    pub fn on_context(&mut self, os: &mut NodeOs, sample: &ContextSample) {
        let events = self.system.context_event(sample);
        self.dispatch(os, events, Some(SYSTEM_UNIT));
    }

    // ---- dispatch core -----------------------------------------------------

    /// Routes `events` (emitted by `origin`) and processes the resulting
    /// queue to quiescence, then flushes aggregated transmissions.
    pub fn dispatch(&mut self, os: &mut NodeOs, mut events: Vec<Event>, origin: Option<UnitId>) {
        self.dispatch_drain(os, &mut events, origin);
    }

    /// [`dispatch`](Self::dispatch) over a caller-owned buffer, left empty.
    fn dispatch_drain(&mut self, os: &mut NodeOs, events: &mut Vec<Event>, origin: Option<UnitId>) {
        let mut queue = self.take_queue();
        for ev in events.drain(..) {
            self.route_event(&mut queue, ev, origin, os);
        }
        self.run_queue(queue, os);
        self.system.flush(os);
        BusCounters::record_round(os);
    }

    fn drain(&mut self, os: &mut NodeOs) {
        self.dispatch_drain(os, &mut Vec::new(), None);
    }

    /// Borrows the (empty) dispatch queue for one round; rounds never nest,
    /// so [`run_queue`](Self::run_queue) always finds the slot free to
    /// return it to.
    fn take_queue(&mut self) -> DispatchQueue {
        std::mem::replace(&mut self.queue, DispatchQueue::for_model(self.concurrency))
    }

    /// Delivers until `queue` is empty, then puts it back for the next
    /// round in its just-built state.
    fn run_queue(&mut self, mut queue: DispatchQueue, os: &mut NodeOs) {
        while let Some((unit, event)) = queue.pop() {
            self.deliver_one(&mut queue, unit, &event, os);
        }
        queue.reset();
        self.queue = queue;
    }

    /// The name and counter ids of a live unit (the System CF or a
    /// deployed protocol).
    fn unit_mut(&mut self, unit: UnitId) -> Option<(&'static str, &mut UnitCounters)> {
        if unit == SYSTEM_UNIT {
            return Some((SYSTEM_NAME, &mut self.system_bus));
        }
        let slot = self.slots.iter_mut().find(|s| s.unit == unit)?;
        Some((slot.cf.name(), &mut slot.bus))
    }

    fn route_event(
        &mut self,
        queue: &mut DispatchQueue,
        mut event: Event,
        origin: Option<UnitId>,
        os: &mut NodeOs,
    ) {
        // Feed the context concentrator.
        if let Payload::Context(value) = &event.payload {
            let key = match value {
                ContextValue::Battery(_) => "battery",
                ContextValue::LinkQuality(..) => "link_quality",
                ContextValue::PacketLoss(_) => "packet_loss",
                ContextValue::Custom(name, _) => name,
            };
            self.manager.record_context(key, value.clone());
        }
        if let Some((name, bus)) = origin.and_then(|o| self.unit_mut(o)) {
            event.meta.origin.get_or_insert(name);
            bus.record_out(name, os);
        }
        // Wrap once; every subscriber shares this allocation. Routing walks
        // the precomputed table without allocating a recipient list.
        let shared = Arc::new(event);
        self.manager.route_for_each(shared.ty, origin, |target| {
            queue.push(target, Arc::clone(&shared));
        });
        self.bus.observe_queue_depth(queue.len(), os);
    }

    fn deliver_one(
        &mut self,
        queue: &mut DispatchQueue,
        unit: UnitId,
        event: &Event,
        os: &mut NodeOs,
    ) {
        os.trace_bus_deliver(event.ty.as_str(), unit as u64, queue.len() as u64);
        if unit == SYSTEM_UNIT {
            self.system_bus.record_in(SYSTEM_NAME, os);
            self.system.consume(event, os);
            return;
        }
        let Some(idx) = self.slots.iter().position(|s| s.unit == unit) else {
            return; // unit removed while event in flight
        };
        let slot = &mut self.slots[idx];
        slot.bus.record_in(slot.cf.name(), os);
        let mut ctx = ProtoCtx::new(os, slot.cf.name());
        slot.cf.deliver(event, &mut ctx);
        let out = ctx.take_outputs();
        drop(ctx);
        for ev in out.emitted {
            self.route_event(queue, ev, Some(unit), os);
        }
        self.apply_side_effects(idx, out.sends, out.timer_sets, out.timer_cancels, os);
    }

    /// Applies non-event outputs and routes emitted events through a fresh
    /// dispatch (used outside an active queue, e.g. timer handling).
    fn apply_outputs(&mut self, idx: usize, out: CtxOutputs, os: &mut NodeOs) {
        let origin_unit = self.slots[idx].unit;
        let mut queue = self.take_queue();
        for ev in out.emitted {
            self.route_event(&mut queue, ev, Some(origin_unit), os);
        }
        self.run_queue(queue, os);
        self.apply_side_effects(idx, out.sends, out.timer_sets, out.timer_cancels, os);
        self.system.flush(os);
        BusCounters::record_round(os);
    }

    fn apply_side_effects(
        &mut self,
        idx: usize,
        sends: Vec<(Option<Address>, packetbb::Message)>,
        timer_sets: Vec<(netsim::SimDuration, EventType)>,
        timer_cancels: Vec<EventType>,
        os: &mut NodeOs,
    ) {
        for (dst, msg) in sends {
            self.system.send_direct(msg, dst);
        }
        let slot = &mut self.slots[idx];
        for ty in timer_cancels {
            if let Some(i) = slot.timers.iter().position(|&t| t == ty) {
                slot.timers.swap_remove(i);
                os.cancel_timer(timer_token(slot.unit, ty));
            }
        }
        for (delay, ty) in timer_sets {
            if !slot.timers.contains(&ty) {
                slot.timers.push(ty);
            }
            os.set_timer(delay, timer_token(slot.unit, ty));
        }
    }
}

impl fmt::Debug for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deployment")
            .field("protocols", &self.protocol_names())
            .field("concurrency", &self.concurrency)
            .finish()
    }
}

// ---- ManetNode: the netsim adapter -----------------------------------------

/// What a [`ManetNode`] shares with its [`NodeHandle`]s, behind one lock:
/// the requests waiting for the next quiescent point and the status last
/// published.
#[derive(Default)]
struct Inbox {
    /// Pending reconfiguration ops, each optionally stamped with the
    /// virtual time it was requested at (feeds the flight recorder's
    /// quiesce-wait).
    ops: Vec<(ReconfigOp, Option<netsim::SimTime>)>,
    /// Pending transaction control verbs, in arrival order.
    verbs: Vec<TxnCtl>,
    /// The status the node last published.
    status: NodeStatus,
}

/// Locks a node's inbox. A handle's holder that panicked mid-push leaves
/// the inbox as consistent as any push does, so a poisoned lock is taken
/// as it is.
fn lock(inbox: &Mutex<Inbox>) -> MutexGuard<'_, Inbox> {
    inbox.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Inbox {
    /// A deep copy: no verb, op or status is shared with `self`.
    fn fork(&self) -> Option<Inbox> {
        Some(Inbox {
            ops: fork_all(&self.ops, |(op, at)| Some((op.fork()?, *at)))?,
            verbs: fork_all(&self.verbs, TxnCtl::fork)?,
            status: self.status.clone(),
        })
    }
}

/// A transaction control verb delivered through a [`NodeHandle`], processed
/// FIFO at the node's next quiescent point. The fleet coordinator drives
/// two-phase commit with these.
pub enum TxnCtl {
    /// Checkpoint and apply `ops`; hold the undo log open.
    Prepare {
        /// Transaction id.
        id: u64,
        /// The batch to apply atomically.
        ops: Vec<ReconfigOp>,
        /// Virtual time of the request (feeds quiesce-wait tracing).
        requested: Option<netsim::SimTime>,
        /// Virtual-time deadline: a node that reaches its quiescent point
        /// later than this refuses the prepare (`quiesce_timeout`) instead
        /// of preparing into a transaction the coordinator gave up on.
        deadline: Option<netsim::SimTime>,
    },
    /// Make a prepared transaction permanent (undo log retained for a
    /// possible health revert).
    Commit {
        /// Transaction id.
        id: u64,
    },
    /// Roll a prepared transaction back to its checkpoint.
    Abort {
        /// Transaction id.
        id: u64,
        /// Why the coordinator aborted (trace tag).
        reason: &'static str,
    },
    /// Back out a *committed* transaction (health gate tripped).
    Revert {
        /// Transaction id.
        id: u64,
    },
}

impl TxnCtl {
    /// An independent copy, or `None` when a `Prepare`'s ops cannot fork.
    #[must_use]
    pub fn fork(&self) -> Option<TxnCtl> {
        Some(match self {
            TxnCtl::Prepare {
                id,
                ops,
                requested,
                deadline,
            } => TxnCtl::Prepare {
                id: *id,
                ops: fork_all(ops, ReconfigOp::fork)?,
                requested: *requested,
                deadline: *deadline,
            },
            TxnCtl::Commit { id } => TxnCtl::Commit { id: *id },
            TxnCtl::Abort { id, reason } => TxnCtl::Abort { id: *id, reason },
            TxnCtl::Revert { id } => TxnCtl::Revert { id: *id },
        })
    }
}

impl fmt::Debug for TxnCtl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnCtl::Prepare { id, ops, .. } => write!(f, "Prepare(#{id}, {} ops)", ops.len()),
            TxnCtl::Commit { id } => write!(f, "Commit(#{id})"),
            TxnCtl::Abort { id, reason } => write!(f, "Abort(#{id}, {reason})"),
            TxnCtl::Revert { id } => write!(f, "Revert(#{id})"),
        }
    }
}

/// External control handle over a running [`ManetNode`].
///
/// Reconfiguration requests enqueue here and are enacted at the node's next
/// quiescent point (the start of its next callback) — the paper's safe
/// reconfiguration discipline.
#[derive(Clone)]
pub struct NodeHandle {
    inbox: Arc<Mutex<Inbox>>,
}

impl NodeHandle {
    /// Enqueues a reconfiguration operation.
    pub fn apply(&self, op: ReconfigOp) {
        lock(&self.inbox).ops.push((op, None));
    }

    /// Enqueues a reconfiguration operation stamped with the virtual time
    /// of the request. The stamp feeds the flight recorder: the node's
    /// quiesce-begin record reports how long the oldest stamped op waited
    /// for the quiescent point.
    pub fn apply_at(&self, op: ReconfigOp, now: netsim::SimTime) {
        lock(&self.inbox).ops.push((op, Some(now)));
    }

    /// The most recent status snapshot.
    #[must_use]
    pub fn status(&self) -> NodeStatus {
        lock(&self.inbox).status.clone()
    }

    /// Number of operations still waiting for a quiescent point.
    #[must_use]
    pub fn pending_ops(&self) -> usize {
        lock(&self.inbox).ops.len()
    }

    /// Discards every operation still waiting for a quiescent point and
    /// returns how many were dropped (give-up path for nodes that will not
    /// come back).
    pub fn clear_pending(&self) -> usize {
        let mut inbox = lock(&self.inbox);
        let dropped = inbox.ops.len();
        inbox.ops.clear();
        dropped
    }

    /// Whether the node last reported itself running (see
    /// [`NodeStatus::alive`]).
    #[must_use]
    pub fn is_alive(&self) -> bool {
        lock(&self.inbox).status.alive
    }

    /// Enqueues a transaction control verb (see [`TxnCtl`]). Verbs are
    /// processed FIFO at the next quiescent point, so a `Prepare`
    /// immediately followed by an `Abort` resolves deterministically even
    /// when the node only wakes after both were enqueued.
    pub fn txn_ctl(&self, ctl: TxnCtl) {
        lock(&self.inbox).verbs.push(ctl);
    }

    /// Number of transaction control verbs still waiting for a quiescent
    /// point.
    #[must_use]
    pub fn pending_txn_ctl(&self) -> usize {
        lock(&self.inbox).verbs.len()
    }
}

impl fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeHandle")
            .field("pending_ops", &self.pending_ops())
            .finish()
    }
}

/// A MANETKit deployment living on a netsim node.
pub struct ManetNode {
    deployment: Deployment,
    inbox: Arc<Mutex<Inbox>>,
    /// A prepared transaction awaiting commit or abort. While one is open,
    /// plain pending ops stay queued (they would contaminate the undo log's
    /// checkpoint).
    prepared: Option<crate::txn::PreparedTxn>,
    /// A committed transaction whose undo log is retained for a possible
    /// health-gated revert. Finalised (dropped) when the next transaction
    /// prepares.
    committed: Option<crate::txn::PreparedTxn>,
    /// Set when the node crashed while a transaction was prepared: the
    /// first post-reboot quiescent point rolls it back before anything
    /// else, so a reboot can never resurrect a half-committed composition.
    txn_doomed: bool,
    /// The most recent transaction's outcome and reconfiguration failure,
    /// as the next published status reports them.
    txn: Option<TxnReport>,
    last_error: Option<String>,
    /// The published status no longer reports the node: this callback's
    /// quiescent point changed something, or a crash marked it not alive.
    stale: bool,
    /// Publish [`structural_hash`](crate::txn::structural_hash) into
    /// [`NodeStatus::composition_hash`] with every status. Off by default:
    /// only the model checker needs a per-step composition digest.
    publish_composition: bool,
    /// **Fault-injection hook for the model checker** — when set, the
    /// doomed-transaction path after a crash reports the transaction rolled
    /// back but skips the actual unwind, deliberately breaking both the
    /// counter-conservation and rollback-exactness invariants. Exists so
    /// `mcheck` can prove it would catch the bug; never set in production.
    skip_doomed_rollback: bool,
}

/// Forks of a world share a node until one of them writes it, possibly
/// from other threads, so the node and everything it holds is `Sync`.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<ManetNode>();
};

impl ManetNode {
    /// A node with an empty deployment.
    #[must_use]
    pub fn new(concurrency: ConcurrencyModel) -> Self {
        ManetNode {
            deployment: Deployment::new(concurrency),
            inbox: Arc::new(Mutex::new(Inbox::default())),
            prepared: None,
            committed: None,
            txn_doomed: false,
            txn: None,
            last_error: None,
            stale: false,
            publish_composition: false,
            skip_doomed_rollback: false,
        }
    }

    /// Publish the composition's structural hash with every status (see
    /// [`NodeStatus::composition_hash`]). Set it before installing the
    /// node: a status is published only when it changes.
    pub fn set_publish_composition(&mut self, on: bool) {
        self.publish_composition = on;
    }

    /// Arms the seeded doomed-rollback mutation (see the field doc on
    /// `skip_doomed_rollback`). Test/model-checker use only.
    pub fn set_skip_doomed_rollback(&mut self, on: bool) {
        self.skip_doomed_rollback = on;
    }

    /// The deployment (pre-installation configuration).
    #[must_use]
    pub fn deployment_mut(&mut self) -> &mut Deployment {
        &mut self.deployment
    }

    /// Read access to the deployment.
    #[must_use]
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// A control handle that stays valid after the node is installed into a
    /// world. It takes the node mutably, so it never comes from a node that
    /// forks of a world share: [`World::agent_mut`](netsim::World::agent_mut)
    /// copies such a node for its world first, and the handle reaches that
    /// world only. While a handle lives, every fork of the world copies the
    /// node rather than sharing it
    /// ([`has_outside_writer`](netsim::RoutingAgent::has_outside_writer)).
    #[must_use]
    pub fn handle(&mut self) -> NodeHandle {
        NodeHandle {
            inbox: Arc::clone(&self.inbox),
        }
    }

    /// The status last published (what [`NodeHandle::status`] reads).
    #[must_use]
    pub fn status(&self) -> NodeStatus {
        lock(&self.inbox).status.clone()
    }

    /// Reads the status last published in place, without copying it.
    pub fn read_status<R>(&self, read: impl FnOnce(&NodeStatus) -> R) -> R {
        read(&lock(&self.inbox).status)
    }

    /// Enqueues a transaction control verb, as [`NodeHandle::txn_ctl`]
    /// does.
    pub fn txn_ctl(&mut self, ctl: TxnCtl) {
        lock(&self.inbox).verbs.push(ctl);
    }

    /// Transaction control verbs waiting for a quiescent point.
    #[must_use]
    pub fn pending_txn_ctl(&self) -> usize {
        lock(&self.inbox).verbs.len()
    }

    /// Reconfiguration ops waiting for a quiescent point.
    #[must_use]
    pub fn pending_ops(&self) -> usize {
        lock(&self.inbox).ops.len()
    }

    /// An independent copy in exactly this node's state, between
    /// callbacks: the deployment and any open or retained transaction
    /// forked, and a fresh inbox holding a deep copy of this one's, so no
    /// [`NodeHandle`] of the original reaches the copy. `None` when a
    /// plug-in cannot fork.
    #[must_use]
    pub fn fork(&self) -> Option<ManetNode> {
        let fork_txn = |txn: &Option<crate::txn::PreparedTxn>| match txn {
            Some(txn) => txn.fork().map(Some),
            None => Some(None),
        };
        Some(ManetNode {
            deployment: self.deployment.fork()?,
            inbox: Arc::new(Mutex::new(lock(&self.inbox).fork()?)),
            prepared: fork_txn(&self.prepared)?,
            committed: fork_txn(&self.committed)?,
            txn_doomed: self.txn_doomed,
            txn: self.txn.clone(),
            last_error: self.last_error.clone(),
            stale: self.stale,
            publish_composition: self.publish_composition,
            skip_doomed_rollback: self.skip_doomed_rollback,
        })
    }

    fn report(&mut self, id: u64, phase: TxnPhase, detail: String) {
        self.txn = Some(TxnReport { id, phase, detail });
    }

    /// The quiescent point at the start of every callback: a doomed
    /// transaction rolls back, queued verbs run FIFO so 2PC outcomes
    /// resolve first, then queued plain ops — unless a transaction is left
    /// open. With nothing queued it takes one lock.
    fn quiescent_point(&mut self, os: &mut NodeOs) {
        if std::mem::take(&mut self.txn_doomed) {
            self.roll_back_doomed(os);
        }
        let (verbs, mut ops) = {
            let mut inbox = lock(&self.inbox);
            let verbs = std::mem::take(&mut inbox.verbs);
            // Plain ops wait until an open transaction resolves: applying
            // them now would change the composition underneath the undo
            // log's checkpoint.
            let ops = if verbs.is_empty() && self.prepared.is_none() {
                std::mem::take(&mut inbox.ops)
            } else {
                Vec::new()
            };
            (verbs, ops)
        };
        if !verbs.is_empty() {
            self.stale = true;
            for verb in verbs {
                self.run_verb(verb, os);
            }
            if self.prepared.is_some() {
                return;
            }
            ops = std::mem::take(&mut lock(&self.inbox).ops);
        }
        if ops.is_empty() {
            return;
        }
        self.stale = true;
        let now = os.now();
        let waited = ops
            .iter()
            .filter_map(|(_, at)| at.map(|t| now.since(t).as_micros()))
            .max()
            .unwrap_or(0);
        os.trace_quiesce_begin(ops.len() as u64, waited);
        let mut applied = 0u64;
        for (op, _) in ops {
            match self.deployment.apply(op, os) {
                Ok(()) => {
                    applied += 1;
                    os.bump("reconfig.ops_applied");
                }
                Err(e) => {
                    os.bump("reconfig.ops_failed");
                    self.last_error = Some(e.to_string());
                }
            }
        }
        os.trace_resume(applied, self.deployment.ops_applied);
    }

    /// A crash while a transaction was prepared dooms it: it rolls back
    /// before anything else runs. The node cannot know the verdict. The
    /// coordinator may have committed, because it reads a crashed node's
    /// last published phase, `Prepared`; the node presumes abort, and the
    /// coordinator lists it in `FleetTxnReport::unresolved`.
    fn roll_back_doomed(&mut self, os: &mut NodeOs) {
        let Some(txn) = self.prepared.take() else {
            return;
        };
        let id = txn.id;
        os.trace_txn_abort(id, "crashed");
        os.bump("txn.aborted");
        let detail = if self.skip_doomed_rollback {
            // Seeded mutation: claim the rollback happened without
            // unwinding (and without bumping `txn.rolled_back`). The
            // half-applied prepare survives the reboot — the exact bug the
            // invariants exist to catch.
            drop(txn);
            "crashed while prepared"
        } else if crate::txn::rollback(&mut self.deployment, txn, os) {
            "crashed while prepared"
        } else {
            "crashed while prepared; rollback mismatch"
        };
        self.report(id, TxnPhase::RolledBack, detail.to_string());
        self.stale = true;
    }

    /// Runs one transaction control verb.
    fn run_verb(&mut self, verb: TxnCtl, os: &mut NodeOs) {
        match verb {
            TxnCtl::Prepare {
                id,
                ops,
                requested,
                deadline,
            } => {
                // A new transaction finalises any undo log retained from
                // the previous committed one.
                self.committed = None;
                if self.prepared.is_some() {
                    os.bump("txn.aborted");
                    os.trace_txn_abort(id, "busy");
                    let detail = "a transaction is already prepared".to_string();
                    self.report(id, TxnPhase::Aborted, detail);
                    return;
                }
                let now = os.now();
                if let Some(dl) = deadline.filter(|&dl| now > dl) {
                    // The coordinator's prepare window has passed: it has
                    // already counted us out. Refusing here keeps a
                    // late-waking node from preparing into a transaction
                    // that was resolved without it.
                    os.bump("txn.prepare_expired");
                    os.bump("txn.aborted");
                    os.trace_txn_abort(id, "quiesce_timeout");
                    let detail = format!(
                        "quiescent point reached at {}us, after the prepare deadline {}us",
                        now.as_micros(),
                        dl.as_micros()
                    );
                    self.report(id, TxnPhase::Aborted, detail);
                    return;
                }
                let waited = requested.map_or(0, |t| now.since(t).as_micros());
                os.trace_quiesce_begin(ops.len() as u64, waited);
                match crate::txn::prepare(&mut self.deployment, id, ops, os) {
                    Ok(txn) => {
                        self.report(id, TxnPhase::Prepared, String::new());
                        self.prepared = Some(txn);
                    }
                    Err(aborted) => {
                        self.last_error = Some(aborted.to_string());
                        let detail = format!("{}: {}", aborted.reason, aborted.detail);
                        self.report(id, TxnPhase::Aborted, detail);
                    }
                }
            }
            TxnCtl::Commit { id } => {
                if let Some(txn) = self.prepared.take_if(|t| t.id == id) {
                    crate::txn::commit(&mut self.deployment, &txn, os);
                    self.committed = Some(txn);
                    self.report(id, TxnPhase::Committed, String::new());
                }
            }
            TxnCtl::Abort { id, reason } => {
                if let Some(txn) = self.prepared.take_if(|t| t.id == id) {
                    os.trace_txn_abort(id, reason);
                    os.bump("txn.aborted");
                    let detail = if crate::txn::rollback(&mut self.deployment, txn, os) {
                        reason.to_string()
                    } else {
                        format!("{reason}; rollback mismatch")
                    };
                    self.report(id, TxnPhase::RolledBack, detail);
                }
            }
            TxnCtl::Revert { id } => {
                if let Some(txn) = self.committed.take_if(|t| t.id == id) {
                    let detail = if crate::txn::revert(&mut self.deployment, txn, os) {
                        String::new()
                    } else {
                        "rollback mismatch".to_string()
                    };
                    self.report(id, TxnPhase::Reverted, detail);
                }
            }
        }
    }

    /// Ends a callback: shows the bus round and high-water-mark counters
    /// and, if the callback changed what the node reports, publishes its
    /// status.
    fn finish(&mut self, os: &mut NodeOs) {
        BusCounters::show(os);
        if self.stale {
            self.stale = false;
            let status = NodeStatus {
                protocols: self.deployment.protocol_names(),
                last_error: self.last_error.clone(),
                alive: true,
                txn: self.txn.clone(),
                composition_hash: self
                    .publish_composition
                    .then(|| crate::txn::structural_hash(&self.deployment)),
            };
            lock(&self.inbox).status = status;
        }
    }
}

impl fmt::Debug for ManetNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ManetNode")
            .field("deployment", &self.deployment)
            .finish()
    }
}

impl netsim::RoutingAgent for ManetNode {
    fn name(&self) -> &str {
        "manetkit"
    }

    fn fork(&self) -> Option<Box<dyn netsim::RoutingAgent>> {
        Some(Box::new(ManetNode::fork(self)?))
    }

    fn has_outside_writer(&self) -> bool {
        Arc::strong_count(&self.inbox) > 1
    }

    fn start(&mut self, os: &mut NodeOs) {
        self.quiescent_point(os);
        self.deployment.start(os);
        self.stale = true;
        self.finish(os);
    }

    fn on_frame(&mut self, os: &mut NodeOs, from: Address, bytes: &[u8]) {
        self.quiescent_point(os);
        self.deployment.on_frame(os, from, bytes);
        self.finish(os);
    }

    fn on_timer(&mut self, os: &mut NodeOs, token: u64) {
        self.quiescent_point(os);
        self.deployment.on_timer(os, token);
        self.finish(os);
    }

    fn on_filter_event(&mut self, os: &mut NodeOs, event: FilterEvent) {
        self.quiescent_point(os);
        self.deployment.on_filter_event(os, &event);
        self.finish(os);
    }

    fn on_context(&mut self, os: &mut NodeOs, sample: ContextSample) {
        self.quiescent_point(os);
        self.deployment.on_context(os, &sample);
        self.finish(os);
    }

    fn stop(&mut self, os: &mut NodeOs) {
        self.deployment.stop(os);
        self.stale = true;
        self.finish(os);
    }

    fn on_crash(&mut self, _os: &mut NodeOs) {
        // The node goes dark without a clean shutdown. Pending handle ops
        // deliberately survive: they drain at the first post-reboot
        // quiescent point, which is how the fleet coordinator's deferred
        // reconfigurations eventually apply. A transaction that was open
        // when the lights went out is doomed — the first post-reboot
        // quiescent point rolls it back to the checkpoint.
        if self.prepared.is_some() {
            self.txn_doomed = true;
        }
        lock(&self.inbox).status.alive = false;
        self.stale = true;
    }
}
