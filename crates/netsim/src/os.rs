//! The per-node simulated operating system handle.

use std::collections::{HashMap, VecDeque};

use packetbb::Address;

use crate::agent::RoutingAgent;
use crate::counter::{CounterId, Counters};
use crate::packet::{ControlFrame, ControlMessages, DataPacket, NodeId};
use crate::route::KernelRouteTable;
use crate::time::{SimDuration, SimTime};

/// Token identifying a pending timer; chosen by the agent when arming.
pub type TimerToken = u64;

/// Battery drain model for a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryModel {
    /// Total capacity in abstract energy units.
    pub capacity: f64,
    /// Idle drain per simulated second.
    pub idle_per_sec: f64,
    /// Cost per transmitted byte.
    pub tx_per_byte: f64,
    /// Cost per received byte.
    pub rx_per_byte: f64,
}

impl Default for BatteryModel {
    fn default() -> Self {
        // Generous defaults: nodes survive typical experiments, but heavy
        // relaying visibly drains.
        BatteryModel {
            capacity: 10_000.0,
            idle_per_sec: 0.05,
            tx_per_byte: 0.002,
            rx_per_byte: 0.001,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Battery {
    model: BatteryModel,
    used: f64,
    last_idle_update: SimTime,
}

impl Battery {
    pub(crate) fn new(model: BatteryModel) -> Self {
        Battery {
            model,
            used: 0.0,
            last_idle_update: SimTime::ZERO,
        }
    }

    pub(crate) fn advance_to(&mut self, now: SimTime) {
        let dt = now.since(self.last_idle_update).as_secs_f64();
        self.used += dt * self.model.idle_per_sec;
        self.last_idle_update = now;
    }

    pub(crate) fn drain_tx(&mut self, bytes: usize) {
        self.used += bytes as f64 * self.model.tx_per_byte;
    }

    pub(crate) fn drain_rx(&mut self, bytes: usize) {
        self.used += bytes as f64 * self.model.rx_per_byte;
    }

    pub(crate) fn level(&self) -> f64 {
        (1.0 - self.used / self.model.capacity).clamp(0.0, 1.0)
    }

    /// Forces the battery empty (fault injection: battery exhaustion).
    pub(crate) fn exhaust(&mut self) {
        self.used = self.model.capacity;
    }

    /// Restores a full charge as of `now` (fault injection: reboot with a
    /// fresh battery).
    pub(crate) fn recharge(&mut self, now: SimTime) {
        self.used = 0.0;
        self.last_idle_update = now;
    }
}

/// Deferred effects an agent callback produced, applied by the world after
/// the callback returns (keeping callbacks re-entrancy free).
#[derive(Debug, Clone)]
pub(crate) enum Action {
    /// Transmit a control frame: broadcast (`None`) or unicast to a
    /// neighbour address.
    SendControl {
        dst: Option<Address>,
        bytes: Vec<u8>,
    },
    /// Arm a timer to fire at an absolute time, replacing any pending
    /// timer with the same token.
    SetTimer { at: SimTime, token: TimerToken },
    /// Cancel the pending timer with this token, if any.
    CancelTimer { token: TimerToken },
    /// Re-run the data plane for packets buffered toward `dst`.
    Reinject { dst: Address },
    /// Drop packets buffered toward `dst` (route discovery failed).
    DropBuffered { dst: Address },
    /// Originate a data packet from this node (used by traffic helpers
    /// running inside agents).
    SendData { dst: Address, payload: Vec<u8> },
}

/// A node's simulated OS: identity, clock, kernel route table, netfilter
/// buffer, timers, counters and the battery sensor.
///
/// Agents receive `&mut NodeOs` in every callback; all interaction with the
/// world goes through it. A clone is an independent copy (what
/// [`World::fork`](crate::World::fork) gives each node).
#[derive(Debug, Clone)]
pub struct NodeOs {
    id: NodeId,
    addr: Address,
    now: SimTime,
    route_table: KernelRouteTable,
    pub(crate) nf_buffer: HashMap<Address, VecDeque<DataPacket>>,
    pub(crate) nf_buffer_cap: usize,
    pub(crate) actions: Vec<Action>,
    pub(crate) battery: Battery,
    pub(crate) counters: Counters,
    /// Monotonic source for protocol sequence numbers.
    seq: u16,
    /// The control frame under delivery, parked around the agent's
    /// `on_frame` so the agent can reach the decoded view all receivers of
    /// that transmission share.
    rx_frame: Option<ControlFrame>,
    /// Flight-recorder ring, installed by [`WorldBuilder::trace`]
    /// (crate::WorldBuilder::trace). Boxed so the common untraced `NodeOs`
    /// stays one pointer wider, not one ring wider.
    #[cfg(feature = "trace")]
    pub(crate) trace: Option<Box<mktrace::NodeRing>>,
}

impl NodeOs {
    /// A standalone OS handle not attached to any world.
    ///
    /// Useful for protocol unit tests and micro-benchmarks that drive a
    /// deployment directly: queued actions are simply never applied unless
    /// the handle is inspected by the caller.
    #[must_use]
    pub fn standalone(id: NodeId, addr: Address) -> Self {
        Self::new(id, addr, BatteryModel::default())
    }

    pub(crate) fn new(id: NodeId, addr: Address, battery: BatteryModel) -> Self {
        NodeOs {
            id,
            addr,
            now: SimTime::ZERO,
            route_table: KernelRouteTable::new(),
            nf_buffer: HashMap::new(),
            nf_buffer_cap: 64,
            actions: Vec::new(),
            battery: Battery::new(battery),
            counters: Counters::default(),
            seq: 0,
            rx_frame: None,
            #[cfg(feature = "trace")]
            trace: None,
        }
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's network address.
    #[must_use]
    pub fn addr(&self) -> Address {
        self.addr
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    pub(crate) fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Read access to the kernel route table.
    #[must_use]
    pub fn route_table(&self) -> &KernelRouteTable {
        &self.route_table
    }

    /// Write access to the kernel route table.
    #[must_use]
    pub fn route_table_mut(&mut self) -> &mut KernelRouteTable {
        &mut self.route_table
    }

    /// Hands `frame` to `agent.on_frame` as received from `from`. While the
    /// callback runs, [`decode_control`](Self::decode_control) on the bytes
    /// it was given answers from the frame's shared decoded view. This is
    /// how the world delivers every control arrival.
    pub fn deliver_control(
        &mut self,
        agent: &mut dyn RoutingAgent,
        from: Address,
        frame: &ControlFrame,
    ) {
        self.rx_frame = Some(frame.clone());
        agent.on_frame(self, from, frame.bytes());
        self.rx_frame = None;
    }

    /// The PacketBB messages of a control frame handed to `on_frame`. When
    /// `bytes` is the frame under delivery (same memory, not merely equal
    /// content) the result is the view every receiver of that transmission
    /// shares, decoded once; any other slice is decoded for this caller.
    #[must_use]
    pub fn decode_control(&self, bytes: &[u8]) -> ControlMessages {
        match &self.rx_frame {
            Some(frame) if std::ptr::eq(frame.bytes(), bytes) => {
                ControlMessages::shared(frame.clone())
            }
            _ => ControlMessages::decode(bytes),
        }
    }

    /// Broadcasts a control frame to all current neighbours.
    pub fn broadcast_control(&mut self, bytes: Vec<u8>) {
        self.actions.push(Action::SendControl { dst: None, bytes });
    }

    /// Unicasts a control frame to a neighbour's address.
    pub fn unicast_control(&mut self, dst: Address, bytes: Vec<u8>) {
        self.actions.push(Action::SendControl {
            dst: Some(dst),
            bytes,
        });
    }

    /// Arms a timer to fire after `delay` with the given token. A node has
    /// at most one pending timer per token: arming a pending token replaces
    /// its timer. Queued, like every OS request, and applied in call order.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        self.actions.push(Action::SetTimer {
            at: self.now + delay,
            token,
        });
    }

    /// Cancels the pending timer carrying `token`, if there is one; it
    /// never fires. Queued in order with [`set_timer`](Self::set_timer), so
    /// a cancel followed by a re-arm leaves exactly the new timer pending.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.actions.push(Action::CancelTimer { token });
    }

    /// Originates a data packet from this node through the data plane.
    pub fn send_data(&mut self, dst: Address, payload: Vec<u8>) {
        self.actions.push(Action::SendData { dst, payload });
    }

    /// Number of packets parked in the netfilter buffer toward `dst`.
    #[must_use]
    pub fn buffered_count(&self, dst: Address) -> usize {
        self.nf_buffer.get(&dst).map_or(0, VecDeque::len)
    }

    /// Re-injects packets buffered toward `dst` into the data plane
    /// (call after installing a route — the `ROUTE_FOUND` path).
    pub fn reinject(&mut self, dst: Address) {
        self.actions.push(Action::Reinject { dst });
    }

    /// Drops packets buffered toward `dst` (route discovery failed).
    pub fn drop_buffered(&mut self, dst: Address) {
        self.actions.push(Action::DropBuffered { dst });
    }

    /// Remaining battery as a fraction in `[0, 1]`.
    #[must_use]
    pub fn battery_level(&self) -> f64 {
        self.battery.level()
    }

    /// Increments a named statistic counter (reported in
    /// [`WorldStats`](crate::WorldStats)).
    pub fn bump(&mut self, counter: &'static str) {
        self.bump_by(counter, 1);
    }

    /// Adds `delta` to a named statistic counter. A zero delta still
    /// materialises the counter so it appears (as 0) in reports.
    pub fn bump_by(&mut self, counter: &'static str, delta: u64) {
        self.bump_id(CounterId::named(counter), delta);
    }

    /// [`bump_by`](Self::bump_by) through an id the caller looked up once:
    /// an index into this node's table, with no hashing.
    #[inline]
    pub fn bump_id(&mut self, counter: CounterId, delta: u64) {
        self.counters.bump(counter, delta);
    }

    /// Reads a counter through an id the caller looked up once (see
    /// [`bump_id`](Self::bump_id)); 0 when this node never bumped it.
    #[inline]
    #[must_use]
    pub fn counter_by_id(&self, counter: CounterId) -> u64 {
        self.counters.get(counter).unwrap_or(0)
    }

    /// Reads a named counter.
    #[must_use]
    pub fn counter(&self, counter: &str) -> u64 {
        CounterId::find(counter)
            .and_then(|id| self.counters.get(id))
            .unwrap_or(0)
    }

    /// All named counters, in no particular order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.present().map(|(id, v)| (id.name(), v))
    }

    /// The next protocol sequence number (monotonic, wrapping).
    #[must_use]
    pub fn next_seq(&mut self) -> u16 {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    /// Crash semantics at the OS level: flush the kernel route table, drop
    /// the netfilter buffer and discard any queued actions (the world
    /// cancels the node's pending timers). Returns the ids of the buffered
    /// packets dropped, so the world can settle their in-flight send
    /// records.
    /// Counters survive (they are cumulative run statistics, not state).
    pub(crate) fn crash_flush(&mut self) -> Vec<u64> {
        let dropped = self
            .nf_buffer
            .values()
            .flat_map(|q| q.iter().map(|p| p.id))
            .collect();
        self.nf_buffer.clear();
        self.route_table.clear();
        self.actions.clear();
        dropped
    }

    /// Installs a flight-recorder ring of the given capacity on this node.
    #[cfg(feature = "trace")]
    pub(crate) fn install_trace(&mut self, capacity: usize) {
        self.trace = Some(Box::new(mktrace::NodeRing::new(capacity)));
    }

    /// The node's flight-recorder ring, if tracing was enabled at build
    /// time via [`WorldBuilder::trace`](crate::WorldBuilder::trace).
    #[cfg(feature = "trace")]
    #[must_use]
    pub fn trace_ring(&self) -> Option<&mktrace::NodeRing> {
        self.trace.as_deref()
    }

    /// Appends a record stamped with an explicit virtual time. One branch
    /// and one ring write when a recorder is attached; one branch when not.
    #[cfg(feature = "trace")]
    #[inline]
    pub(crate) fn trace_emit_at(
        &mut self,
        t_us: u64,
        kind: mktrace::TraceKind,
        tag: &'static str,
        a: u64,
        b: u64,
    ) {
        if let Some(ring) = &mut self.trace {
            ring.push(mktrace::TraceRecord {
                t_us,
                node: self.id.0 as u32,
                kind,
                tag,
                a,
                b,
            });
        }
    }

    #[cfg(feature = "trace")]
    #[inline]
    fn trace_emit(&mut self, kind: mktrace::TraceKind, tag: &'static str, a: u64, b: u64) {
        let t = self.now.as_micros();
        self.trace_emit_at(t, kind, tag, a, b);
    }

    // --- Semantic trace hooks -------------------------------------------
    //
    // Always present so higher layers (manetkit core) can call them without
    // any feature gating; each compiles to an empty body when the `trace`
    // feature is off.

    /// Records a bus dispatch: `event_type` delivered to one subscriber
    /// (`unit`), with `queue_depth` events still pending behind it.
    #[inline]
    pub fn trace_bus_deliver(&mut self, event_type: &'static str, unit: u64, queue_depth: u64) {
        #[cfg(feature = "trace")]
        self.trace_emit(
            mktrace::TraceKind::BusDeliver,
            event_type,
            unit,
            queue_depth,
        );
        #[cfg(not(feature = "trace"))]
        let _ = (event_type, unit, queue_depth);
    }

    /// Records the start of a quiescent reconfiguration batch: `pending`
    /// queued ops, the oldest of which waited `waited_us` virtual time.
    #[inline]
    pub fn trace_quiesce_begin(&mut self, pending: u64, waited_us: u64) {
        #[cfg(feature = "trace")]
        self.trace_emit(
            mktrace::TraceKind::QuiesceBegin,
            "reconfig",
            pending,
            waited_us,
        );
        #[cfg(not(feature = "trace"))]
        let _ = (pending, waited_us);
    }

    /// Records a state transfer between protocol generations during `op`;
    /// `carried` is whether live state crossed the swap.
    #[inline]
    pub fn trace_state_transfer(&mut self, op: &'static str, carried: bool) {
        #[cfg(feature = "trace")]
        self.trace_emit(mktrace::TraceKind::StateTransfer, op, u64::from(carried), 0);
        #[cfg(not(feature = "trace"))]
        let _ = (op, carried);
    }

    /// Records a connector/tuple rebind performed by `op`.
    #[inline]
    pub fn trace_rebind(&mut self, op: &'static str) {
        #[cfg(feature = "trace")]
        self.trace_emit(mktrace::TraceKind::Rebind, op, 0, 0);
        #[cfg(not(feature = "trace"))]
        let _ = op;
    }

    /// Records the end of a reconfiguration batch: `applied` ops succeeded,
    /// the framework is now at reconfiguration `generation`.
    #[inline]
    pub fn trace_resume(&mut self, applied: u64, generation: u64) {
        #[cfg(feature = "trace")]
        self.trace_emit(mktrace::TraceKind::Resume, "reconfig", applied, generation);
        #[cfg(not(feature = "trace"))]
        let _ = (applied, generation);
    }

    /// Records one applied reconfiguration operation (`op` names the
    /// variant, e.g. `add_protocol`).
    #[inline]
    pub fn trace_reconfig_apply(&mut self, op: &'static str) {
        #[cfg(feature = "trace")]
        self.trace_emit(mktrace::TraceKind::ReconfigApply, op, 0, 0);
        #[cfg(not(feature = "trace"))]
        let _ = op;
    }

    // --- Transactional reconfiguration hooks ----------------------------

    /// Records a transaction reaching the *prepared* state: checkpoint
    /// taken, `ops` operations applied, undo log held pending the commit
    /// decision.
    #[inline]
    pub fn trace_txn_prepare(&mut self, txn: u64, ops: u64) {
        #[cfg(feature = "trace")]
        self.trace_emit(mktrace::TraceKind::TxnPrepare, "txn", txn, ops);
        #[cfg(not(feature = "trace"))]
        let _ = (txn, ops);
    }

    /// Records a transaction committing: the undo log is discarded and the
    /// `ops` applied operations become permanent.
    #[inline]
    pub fn trace_txn_commit(&mut self, txn: u64, ops: u64) {
        #[cfg(feature = "trace")]
        self.trace_emit(mktrace::TraceKind::TxnCommit, "txn", txn, ops);
        #[cfg(not(feature = "trace"))]
        let _ = (txn, ops);
    }

    /// Records a transaction aborting for `reason` (an interned label such
    /// as `op_failed` or `quiesce_timeout`).
    #[inline]
    pub fn trace_txn_abort(&mut self, txn: u64, reason: &'static str) {
        #[cfg(feature = "trace")]
        self.trace_emit(mktrace::TraceKind::TxnAbort, reason, txn, 0);
        #[cfg(not(feature = "trace"))]
        let _ = (txn, reason);
    }

    /// Records a transaction's undo log unwinding (`undone` entries
    /// replayed) back to its checkpoint.
    #[inline]
    pub fn trace_txn_rollback(&mut self, txn: u64, undone: u64) {
        #[cfg(feature = "trace")]
        self.trace_emit(mktrace::TraceKind::TxnRollback, "txn", txn, undone);
        #[cfg(not(feature = "trace"))]
        let _ = (txn, undone);
    }

    /// Records the health gate reverting a provisionally-committed
    /// composition (`undone` undo entries replayed).
    #[inline]
    pub fn trace_txn_revert(&mut self, txn: u64, undone: u64) {
        #[cfg(feature = "trace")]
        self.trace_emit(mktrace::TraceKind::TxnRevert, "health", txn, undone);
        #[cfg(not(feature = "trace"))]
        let _ = (txn, undone);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn os() -> NodeOs {
        NodeOs::new(
            NodeId(0),
            Address::v4([10, 0, 0, 1]),
            BatteryModel::default(),
        )
    }

    #[test]
    fn actions_accumulate() {
        let mut os = os();
        os.broadcast_control(vec![1]);
        os.unicast_control(Address::v4([10, 0, 0, 2]), vec![2]);
        os.set_timer(SimDuration::from_secs(1), 7);
        assert_eq!(os.actions.len(), 3);
    }

    #[test]
    fn seq_numbers_monotonic_and_wrapping() {
        let mut os = os();
        assert_eq!(os.next_seq(), 1);
        assert_eq!(os.next_seq(), 2);
        os.seq = u16::MAX;
        assert_eq!(os.next_seq(), 0);
    }

    #[test]
    fn counters() {
        let mut os = os();
        os.bump("rreq");
        os.bump("rreq");
        assert_eq!(os.counter("rreq"), 2);
        assert_eq!(os.counter("other"), 0);
    }

    #[test]
    fn battery_drains() {
        let mut b = Battery::new(BatteryModel {
            capacity: 100.0,
            idle_per_sec: 1.0,
            tx_per_byte: 0.5,
            rx_per_byte: 0.25,
        });
        assert_eq!(b.level(), 1.0);
        b.advance_to(SimTime::from_micros(10_000_000)); // 10 s idle
        assert!((b.level() - 0.9).abs() < 1e-9);
        b.drain_tx(100); // 50 units
        assert!((b.level() - 0.4).abs() < 1e-9);
        b.drain_rx(200); // 50 units -> empty
        assert_eq!(b.level(), 0.0);
        b.drain_tx(1); // stays clamped
        assert_eq!(b.level(), 0.0);
    }

    #[test]
    fn crash_flush_clears_os_state_but_keeps_counters() {
        let mut os = os();
        os.bump("rreq");
        os.route_table_mut().add_host_route(
            Address::v4([10, 0, 0, 9]),
            Address::v4([10, 0, 0, 2]),
            1,
        );
        os.nf_buffer.entry(Address::v4([10, 0, 0, 9])).or_default();
        os.broadcast_control(vec![1]);
        os.cancel_timer(3);
        let dropped = os.crash_flush();
        assert!(dropped.is_empty(), "empty queue drops nothing");
        assert!(os.route_table().is_empty());
        assert!(os.nf_buffer.is_empty());
        assert!(os.actions.is_empty());
        assert_eq!(os.counter("rreq"), 1, "counters are run statistics");
    }

    #[test]
    fn battery_exhaust_and_recharge() {
        let mut b = Battery::new(BatteryModel::default());
        b.exhaust();
        assert_eq!(b.level(), 0.0);
        b.recharge(SimTime::from_micros(5));
        assert_eq!(b.level(), 1.0);
        assert_eq!(b.last_idle_update, SimTime::from_micros(5));
    }

    #[test]
    fn timer_requests_queue_in_order() {
        let mut os = os();
        os.cancel_timer(5);
        os.set_timer(SimDuration::from_secs(1), 5);
        assert!(matches!(
            os.actions[..],
            [
                Action::CancelTimer { token: 5 },
                Action::SetTimer { token: 5, .. }
            ]
        ));
    }
}
