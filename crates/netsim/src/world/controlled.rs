//! Controlled-delivery mode: the world stops firing events for itself and
//! an external scheduler (the `mcheck` model checker) decides what fires
//! next. It is a view of the one event kernel: the pending set is the
//! kernel's, listed in its pop order, and a delivery or drop takes its
//! event out with a kernel cancel.

use simkern::EventHandle;

use super::{DataDrop, EventKind, World};
use crate::fault::FaultKind;
use crate::packet::{Frame, NodeId};
use crate::time::SimTime;

/// How a controlled-mode pending event is classified for scheduling
/// decisions (see [`WorldBuilder::controlled`](crate::WorldBuilder::controlled)).
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

/// Descriptor of one pending event in controlled-delivery mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingEvent {
    /// The event's kernel handle, for [`World::deliver_controlled`] /
    /// [`World::drop_controlled`]. Handles are allocated deterministically,
    /// so the same choice sequence on the same seeded world yields the same
    /// ids — which is what makes recorded schedules replayable.
    pub id: EventHandle,
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
    /// only for a frame arriving at a crashed node (a crash cancels the
    /// node's timers outright). Dead arrivals deliver, and are accounted
    /// as lost, like any other, but they offer a model checker no
    /// behavioural branch.
    pub live: bool,
}

impl World {
    /// Descriptors of every pending event in the order the kernel would
    /// fire them, `(time, seq)`; empty outside controlled mode.
    #[must_use]
    pub fn pending_controlled(&self) -> Vec<PendingEvent> {
        if !self.controlled {
            return Vec::new();
        }
        self.kern
            .pending()
            .into_iter()
            .map(|(at, id, kind)| self.describe_pending(id, at, kind))
            .collect()
    }

    fn describe_pending(&self, id: EventHandle, at: SimTime, kind: &EventKind) -> PendingEvent {
        let (class, node, from, detail, live) = match kind {
            EventKind::Arrival { node, from, frame } => {
                let class = match frame {
                    Frame::Control(_) => PendingClass::Control,
                    Frame::Data(_) => PendingClass::Data,
                };
                let len = frame.wire_len() as u64;
                (class, *node, Some(*from), len, !self.nodes[node.0].crashed)
            }
            EventKind::TimerFire { node, .. } => (PendingClass::Timer, *node, None, 0, true),
            EventKind::StartAgent { node }
            | EventKind::DataPlane { node, .. }
            | EventKind::DataInject { node, .. }
            | EventKind::NodeMove { node, .. }
            | EventKind::ContextTick { node } => (PendingClass::Infra, *node, None, 0, true),
            EventKind::LinkChange { a, .. } => (PendingClass::Infra, *a, None, 0, true),
            EventKind::Stream(i) => (PendingClass::Infra, self.stream_node(*i), None, 0, true),
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

    /// Fires one pending event now, clamping the clock forward to its
    /// scheduled time. Returns `false` when it already fired or was
    /// dropped, or outside controlled mode.
    pub fn deliver_controlled(&mut self, event: &PendingEvent) -> bool {
        self.flush_all();
        if !self.controlled {
            return false;
        }
        let Some(kind) = self.kern.cancel(event.id) else {
            return false;
        };
        self.now = self.now.max(event.at);
        self.dispatch(kind);
        // Nothing pops in controlled mode, so nothing else frees the
        // tombstones that deliveries, drops and timer cancels leave; doing
        // it once per delivery keeps the kernel's slab to what is pending.
        self.kern.discard_cancelled();
        true
    }

    /// Discards one pending frame arrival — the model checker's
    /// message-loss choice — with the same accounting as a radio loss:
    /// `control_lost` for control frames, `data_dropped_link` (and send
    /// settlement) for data frames. Returns `false` for events that are
    /// not arrivals or no longer pending, or outside controlled mode.
    pub fn drop_controlled(&mut self, event: &PendingEvent) -> bool {
        let arrival = matches!(event.class, PendingClass::Control | PendingClass::Data);
        if !self.controlled || !arrival {
            return false;
        }
        // The bindings feed the flight recorder; without the `trace`
        // feature the macro expands to nothing, hence the underscores.
        let Some(EventKind::Arrival {
            node,
            from: _from,
            frame,
        }) = self.kern.cancel(event.id)
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

    /// Delivers every pending [`PendingClass::Infra`] event in kernel
    /// order, including any new infrastructure events those deliveries
    /// schedule, and returns how many fired. Infrastructure carries no
    /// scheduling freedom — agent starts and data-plane hops happen in
    /// exactly one order — so the model checker drains it between choices
    /// to keep the branching factor on genuine choices only.
    pub fn run_controlled_infra(&mut self) -> usize {
        let mut fired = 0;
        loop {
            self.flush_all();
            let pending = self.pending_controlled();
            let Some(event) = pending.iter().find(|e| e.class == PendingClass::Infra) else {
                return fired;
            };
            self.deliver_controlled(event);
            fired += 1;
        }
    }

    /// Crashes a node immediately (the model checker's crash choice; also
    /// useful for directed tests). Same semantics as a fault-plan crash:
    /// last-gasp `on_crash`, OS flush, pending timers cancelled. Idempotent.
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
