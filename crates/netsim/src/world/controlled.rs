//! Controlled-delivery mode: the world stops scheduling for itself and an
//! external scheduler (the `mcheck` model checker) decides what fires next.

use super::{DataDrop, EventKind, World};
use crate::fault::FaultKind;
use crate::packet::{Frame, NodeId};
use crate::time::SimTime;

/// How a controlled-mode pending event is classified for scheduling
/// decisions (see [`World::set_controlled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingClass {
    /// A control frame in flight (droppable, reorderable).
    Control,
    /// A data frame in flight (droppable, reorderable).
    Data,
    /// An armed timer (reorderable against frames and other nodes'
    /// timers; intra-node timers keep their deadline order).
    Timer,
    /// Simulator infrastructure (agent start, data-plane hops, mobility,
    /// scheduled faults): delivered deterministically by
    /// [`World::run_controlled_infra`], never a scheduling choice.
    Infra,
}

/// Descriptor of one event held back by controlled-delivery mode.
#[derive(Debug, Clone, Copy)]
pub struct PendingEvent {
    /// Stable handle for [`World::deliver_controlled`] /
    /// [`World::drop_controlled`]; allocation order is deterministic, so
    /// the same choice sequence on the same seeded world yields the same
    /// ids — which is what makes recorded schedules replayable.
    pub id: u64,
    /// The virtual time the event was scheduled for. Delivery clamps the
    /// world clock forward to this (time never runs backwards).
    pub at: SimTime,
    /// Scheduling class.
    pub class: PendingClass,
    /// Owning node: destination for arrivals, the armed node for timers.
    pub node: NodeId,
    /// Sender, for frame arrivals.
    pub from: Option<NodeId>,
    /// Class-specific detail: wire length for frames, zero otherwise.
    pub detail: u64,
    /// Whether delivering this event can still reach an agent: `false`
    /// for arrivals at a crashed node and for stale or cancelled timers.
    /// Dead events deliver (and account) like any other, but they offer a
    /// model checker no behavioural branch.
    pub live: bool,
}

/// Event store for controlled-delivery mode: everything `schedule` would
/// hand the kernel is parked here instead, visible and individually
/// deliverable.
#[derive(Debug, Default)]
pub(super) struct ControlledQueue {
    pending: Vec<(u64, SimTime, EventKind)>,
    next_id: u64,
}

impl ControlledQueue {
    /// Parks an event under the next id.
    pub(super) fn park(&mut self, at: SimTime, kind: EventKind) {
        self.next_id += 1;
        self.pending.push((self.next_id, at, kind));
    }
}

impl World {
    /// Switches controlled-delivery mode on or off.
    ///
    /// In controlled mode the world stops scheduling for itself: every
    /// event that would enter the kernel — frame arrivals, timer fires,
    /// agent starts, data-plane hops — is parked in a visible pending set
    /// instead, and an external scheduler decides what fires next via
    /// [`deliver_controlled`](Self::deliver_controlled),
    /// [`drop_controlled`](Self::drop_controlled) and
    /// [`run_controlled_infra`](Self::run_controlled_infra). This is the
    /// seam the `mcheck` bounded model checker owns: it enumerates the
    /// schedulable choices, and because event ids are allocated in
    /// deterministic order the same choice sequence replays the same run.
    ///
    /// Turning the mode on drains any kernel-scheduled events into the
    /// pending set; turning it off re-injects the pending set into the
    /// kernel (clamped to the current clock) and normal `run_until`
    /// operation resumes.
    pub fn set_controlled(&mut self, on: bool) {
        if on && self.controlled.is_none() {
            let mut ctl = ControlledQueue::default();
            while let Some((at, kind)) = self.kern.pop_due(SimTime::MAX) {
                ctl.park(at, kind);
            }
            self.controlled = Some(ctl);
        } else if !on {
            if let Some(mut ctl) = self.controlled.take() {
                ctl.pending.sort_by_key(|(id, at, _)| (*at, *id));
                let floor = self.now.max(self.kern.now());
                for (_, at, kind) in ctl.pending {
                    self.kern.schedule(at.max(floor), kind);
                }
            }
        }
    }

    /// Whether controlled-delivery mode is on.
    #[must_use]
    pub fn is_controlled(&self) -> bool {
        self.controlled.is_some()
    }

    /// Descriptors of every parked event, sorted by `(time, id)` — the
    /// order the uncontrolled kernel would fire them in.
    #[must_use]
    pub fn pending_controlled(&self) -> Vec<PendingEvent> {
        let Some(ctl) = self.controlled.as_ref() else {
            return Vec::new();
        };
        let mut out: Vec<PendingEvent> = ctl
            .pending
            .iter()
            .map(|(id, at, kind)| self.describe_pending(*id, *at, kind))
            .collect();
        out.sort_by_key(|e| (e.at, e.id));
        out
    }

    fn describe_pending(&self, id: u64, at: SimTime, kind: &EventKind) -> PendingEvent {
        let (class, node, from, detail, live) = match kind {
            EventKind::Arrival { node, from, frame } => {
                let class = match frame {
                    Frame::Control(_) => PendingClass::Control,
                    Frame::Data(_) => PendingClass::Data,
                };
                let len = frame.wire_len() as u64;
                (class, *node, Some(*from), len, !self.nodes[node.0].crashed)
            }
            EventKind::TimerFire { node, token, epoch } => {
                let slot = &self.nodes[node.0];
                let live = !slot.crashed
                    && *epoch == slot.boot_epoch
                    && !slot.os.cancelled_timers.contains(token);
                (PendingClass::Timer, *node, None, 0, live)
            }
            EventKind::StartAgent { node }
            | EventKind::DataPlane { node, .. }
            | EventKind::DataInject { node, .. }
            | EventKind::NodeMove { node, .. }
            | EventKind::ContextTick { node } => (PendingClass::Infra, *node, None, 0, true),
            EventKind::LinkChange { a, .. } => (PendingClass::Infra, *a, None, 0, true),
            // Serialization deadlines are simulator infrastructure: dropping
            // or reordering them would desynchronize the engine's clock.
            EventKind::PhyComplete { tx, .. } => (PendingClass::Infra, NodeId(0), None, *tx, true),
            EventKind::Fault(kind) => {
                let node = match kind {
                    FaultKind::Crash(n) | FaultKind::BatteryExhaust(n) | FaultKind::Reboot(n) => *n,
                    _ => NodeId(0),
                };
                (PendingClass::Infra, node, None, 0, true)
            }
        };
        PendingEvent {
            id,
            at,
            class,
            node,
            from,
            detail,
            live,
        }
    }

    /// Takes out of the pending set the event with the smallest `key`
    /// among those `key` accepts; `None` when there is none or the mode is
    /// off.
    fn take_pending<K: Ord>(
        &mut self,
        key: impl Fn(u64, SimTime, &EventKind) -> Option<K>,
    ) -> Option<(SimTime, EventKind)> {
        let pending = &mut self.controlled.as_mut()?.pending;
        let (_, pos) = pending
            .iter()
            .enumerate()
            .filter_map(|(pos, (id, at, kind))| Some((key(*id, *at, kind)?, pos)))
            .min()?;
        let (_, at, kind) = pending.swap_remove(pos);
        Some((at, kind))
    }

    /// Fires one parked event now, clamping the clock forward to its
    /// scheduled time. Returns `false` when the id is unknown (already
    /// delivered or dropped) or the mode is off.
    pub fn deliver_controlled(&mut self, id: u64) -> bool {
        self.flush_all();
        let Some((at, kind)) = self.take_pending(|pid, _, _| (pid == id).then_some(())) else {
            return false;
        };
        self.now = self.now.max(at);
        self.dispatch(kind);
        true
    }

    /// Discards one parked frame arrival — the model checker's message-loss
    /// choice — with the same accounting as a radio loss: `control_lost`
    /// for control frames, `data_dropped_link` (and send settlement) for
    /// data frames. Returns `false` for unknown ids, non-frame events, or
    /// when the mode is off.
    pub fn drop_controlled(&mut self, id: u64) -> bool {
        let arrival = |pid, _, kind: &EventKind| {
            (pid == id && matches!(kind, EventKind::Arrival { .. })).then_some(())
        };
        // The bindings feed the flight recorder; without the `trace`
        // feature the macro expands to nothing, hence the underscores.
        let Some((
            _,
            EventKind::Arrival {
                node,
                from: _from,
                frame,
            },
        )) = self.take_pending(arrival)
        else {
            return false;
        };
        match frame {
            Frame::Control(_frame) => {
                self.stats.control_lost += 1;
                tr!(
                    self,
                    node,
                    FrameDrop,
                    "mcheck_drop",
                    _from.0,
                    _frame.bytes().len()
                );
            }
            Frame::Data(packet) => self.drop_data(node, &packet, DataDrop::MCHECK),
        }
        true
    }

    /// Delivers every parked [`PendingClass::Infra`] event in `(time, id)`
    /// order, including any new infrastructure events those deliveries
    /// schedule, and returns how many fired. Infrastructure carries no
    /// scheduling freedom — agent starts and data-plane hops happen in
    /// exactly one order — so the model checker drains it between choices
    /// to keep the branching factor on genuine choices only.
    pub fn run_controlled_infra(&mut self) -> usize {
        let infra = |id, at, kind: &EventKind| {
            let choice = matches!(
                kind,
                EventKind::Arrival { .. } | EventKind::TimerFire { .. }
            );
            (!choice).then_some((at, id))
        };
        let mut fired = 0;
        loop {
            self.flush_all();
            let Some((at, kind)) = self.take_pending(infra) else {
                return fired;
            };
            self.now = self.now.max(at);
            self.dispatch(kind);
            fired += 1;
        }
    }

    /// Crashes a node immediately (the model checker's crash choice; also
    /// useful for directed tests). Same semantics as a fault-plan crash:
    /// last-gasp `on_crash`, OS flush, boot-epoch bump. Idempotent.
    pub fn force_crash(&mut self, node: NodeId) {
        self.flush_all();
        self.crash_node(node, false);
    }

    /// Reboots a crashed node immediately (see
    /// [`force_crash`](Self::force_crash)); a no-op on a running node.
    pub fn force_reboot(&mut self, node: NodeId) {
        self.flush_all();
        self.reboot_node(node);
    }
}
