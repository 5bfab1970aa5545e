//! The radio: one path from "this node sends a frame" to "that node's
//! receiver is handed it". `send_control` and `forward` enter it; `transmit`
//! puts the frame on the air — at once on the ideal channel, which is the
//! zero-airtime case, or through the channel engine's queue → start →
//! complete; and each radio decision is one function (`charge_tx`,
//! `radio_control`, `link_fails`, `launch_data`) that both orders call.
//!
//! The two entry orders differ in three places, kept bit for bit because
//! seeded runs (and the goldens in `tests/radio_paths.rs`) depend on them;
//! removing one is a behaviour change:
//!
//! * **(a)** The ideal channel draws a data hop's link *before* the TTL
//!   check and charges battery and `data_hops` only if the link held. A
//!   channel model checks TTL and raises `RouteUsed` at enqueue, charges at
//!   transmit start and draws the link at completion (drop-at-dequeue, so
//!   fault plans replay identically however contention stretches the
//!   queue). Filter-event callbacks can flush control frames that draw from
//!   the world's RNG, so where each one sits relative to the loss, chaos
//!   and delay draws is part of a run's fingerprint.
//! * **(b)** The ideal channel charges a data hop `DataPacket::wire_len()`
//!   (no MAC header), the engine `Frame::data_wire_len`; battery level
//!   reaches power-aware variants through `ContextSample::Battery`.
//! * **(c)** A unicast control frame to an address outside the world
//!   drains the sender's battery on the ideal channel only.

use packetbb::Address;
use phy::{Enqueue as PhyEnqueue, Phy, PhyModel, Resched as PhyResched, TxId};
use rand::Rng;
use simkern::EventHandle;

use super::builder::node_address;
use super::{DataDrop, EventKind, World};
use crate::agent::FilterEvent;
use crate::packet::{ControlFrame, DataPacket, Frame, NodeId};
use crate::time::SimDuration;
use crate::topology::{LinkPhase, Topology};

/// A frame on its way through the transmitter, and what it will deliver
/// once it has left.
#[derive(Debug, Clone)]
pub(super) enum PhyJob {
    /// A broadcast control frame: one serialization occupies the sender's
    /// airtime once; per-neighbour fates are decided as it leaves.
    Broadcast { frame: ControlFrame },
    /// A unicast control frame to a resolved neighbour.
    Unicast { nb: NodeId, frame: ControlFrame },
    /// A data packet being forwarded one hop (TTL already decremented at
    /// route time).
    Data { nb: NodeId, packet: DataPacket },
}

impl PhyJob {
    fn wire_len(&self) -> usize {
        match self {
            PhyJob::Broadcast { frame } | PhyJob::Unicast { frame, .. } => frame.wire_len(),
            PhyJob::Data { packet, .. } => Frame::data_wire_len(packet),
        }
    }

    /// The receiver whose neighbourhood the transmission also occupies
    /// (`None` for broadcasts, which contend in the sender's cell only).
    fn peer(&self) -> Option<NodeId> {
        match self {
            PhyJob::Broadcast { .. } => None,
            PhyJob::Unicast { nb, .. } | PhyJob::Data { nb, .. } => Some(*nb),
        }
    }
}

/// The channel engine of a non-ideal phy model, with the kernel event of
/// each node's pending completion deadline: a node has at most one frame on
/// the air, so at most one deadline. A deadline the engine reissues cancels
/// the event it supersedes, and so does a crash that aborts the frame, so
/// the kernel never holds a stale `PhyComplete`.
#[derive(Clone)]
pub(super) struct PhyChannel {
    engine: Phy<PhyJob>,
    deadlines: Vec<Option<EventHandle>>,
}

impl PhyChannel {
    /// The channel for `model` over `nodes` nodes; `None` for the ideal one.
    pub(super) fn new(model: &PhyModel, nodes: usize) -> Option<Self> {
        Some(PhyChannel {
            engine: Phy::new(model, nodes)?,
            deadlines: vec![None; nodes],
        })
    }
}

/// Contention domains for a transmission from `a` (optionally towards
/// `peer`): the spatial-grid cells occupied by sender and receiver, or one
/// world-wide domain on dense topologies. Broadcasts contend in the
/// sender's cell only.
fn contention_domains(topo: &Topology, a: NodeId, peer: Option<NodeId>) -> (u32, u32) {
    let da = topo.contention_cell(a).unwrap_or(0);
    let db = peer.and_then(|b| topo.contention_cell(b)).unwrap_or(da);
    (da, db)
}

impl World {
    /// An agent sends a control frame: broadcast, or unicast to `dst`.
    pub(super) fn send_control(&mut self, node: NodeId, dst: Option<Address>, bytes: Vec<u8>) {
        let frame_len = Frame::control_wire_len(bytes.len());
        // One frame for the whole transmission: every receiver shares its
        // bytes and its decoded view.
        let frame = ControlFrame::new(bytes);
        self.stats.control_frames += 1;
        self.stats.control_bytes += frame_len as u64;
        let job = match dst {
            None => PhyJob::Broadcast { frame },
            Some(addr) => match self.node_of(addr) {
                Some(nb) => PhyJob::Unicast { nb, frame },
                None => {
                    self.stats.control_lost += 1;
                    tr!(self, node, FrameDrop, "no_such_addr", u64::MAX, frame_len);
                    // Difference (c): the ideal channel radiates the frame
                    // to nobody; a channel model never queues it.
                    if self.phy.is_none() {
                        self.charge_tx(node, frame_len, None);
                    }
                    return;
                }
            },
        };
        let _to = job.peer().map_or(u64::MAX, |nb| nb.0 as u64);
        tr!(self, node, FrameTx, "frame.control", frame_len, _to);
        self.transmit(node, job);
    }

    /// The data plane forwards `packet` one hop to the neighbour `nb`: both
    /// entry orders side by side (module docs, differences (a) and (b)).
    pub(super) fn forward(&mut self, node: NodeId, mut packet: DataPacket, nb: NodeId) {
        let ideal = self.phy.is_none();
        if ideal && self.link_fails(node, nb, &packet) {
            return;
        }
        // The hop budget is spent here, on the packet the caller handed over.
        if packet.ttl <= 1 {
            return self.drop_data(node, &packet, DataDrop::TTL);
        }
        packet.ttl -= 1;
        if ideal {
            self.charge_tx(node, packet.wire_len(), Some((nb, packet.ttl)));
        }
        let (dst, next_hop) = (packet.dst, node_address(nb.0));
        self.filter_event(node, FilterEvent::RouteUsed { dst, next_hop });
        self.transmit(node, PhyJob::Data { nb, packet });
    }

    /// Hands a frame to `node`'s transmitter. Without an engine
    /// serialization takes no time: the transmitter is charged and the
    /// frame meets its radio fate at once (a data hop arrives from `forward`
    /// with link drawn and charge made — difference (a) — so only its launch
    /// is left). With an engine the frame joins the sender's queue; tail
    /// drop is a pure queue-depth check that consumes no randomness, so
    /// enabling contention never perturbs the fault plan's RNG stream.
    pub(super) fn transmit(&mut self, node: NodeId, job: PhyJob) {
        let wire = job.wire_len();
        let Some(phy) = self.phy.as_mut() else {
            return match job {
                PhyJob::Data { nb, packet } => self.launch_data(node, nb, packet),
                PhyJob::Broadcast { .. } | PhyJob::Unicast { .. } => {
                    self.charge_tx(node, wire, None);
                    self.radio(node, job);
                }
            };
        };
        let domains = contention_domains(&self.topo, node, job.peer());
        let (outcome, rescheds) = phy.engine.enqueue(self.now, node.0, domains, wire, job);
        self.schedule_phy(rescheds);
        match outcome {
            PhyEnqueue::Dropped(job) => {
                self.stats.phy_queue_drops += 1;
                match job {
                    PhyJob::Data { packet, .. } => {
                        self.stats.data_dropped_buffer += 1;
                        tr!(self, node, PhyDrop, "phy_queue", packet.id, wire);
                        self.sent_at.settle(packet.id);
                    }
                    PhyJob::Broadcast { .. } | PhyJob::Unicast { .. } => {
                        self.stats.control_lost += 1;
                        tr!(self, node, PhyDrop, "phy_queue", u64::MAX, wire);
                    }
                }
            }
            PhyEnqueue::Queued { depth: _depth } => {
                tr!(self, node, PhyQueue, "phy", _depth, wire);
            }
            PhyEnqueue::Started(tx) => self.phy_tx_start(node, tx),
        }
    }

    /// Schedules completion deadlines issued by the phy engine. A deadline
    /// the engine reissues (the transmission's rate changed and its finish
    /// moved) supersedes the node's pending one, which is cancelled here,
    /// so no superseded deadline is ever popped. The engine's `(tx, seq)`
    /// check stays what `Phy::complete` answers by, for callers that drive
    /// it without cancelling (the benchmark's phy micro-drive).
    pub(super) fn schedule_phy(&mut self, rescheds: Vec<PhyResched>) {
        let Some(phy) = self.phy.as_mut() else {
            return;
        };
        for PhyResched { tx, node, seq, at } in rescheds {
            if let Some(superseded) = phy.deadlines[node].take() {
                let pending = self.kern.cancel(superseded);
                debug_assert!(pending.is_some(), "node {node}'s deadline already fired");
            }
            let event = EventKind::PhyComplete { tx, seq };
            phy.deadlines[node] = Some(self.kern.schedule(at.max(self.now), event));
        }
    }

    /// The radio dies with `node`: its transmit queue is flushed and the
    /// frame on the air aborted, its completion deadline cancelled.
    /// Returns the waiting frames and the aborted one; transmitters that
    /// shared the air may speed up, hence the rescheduled deadlines.
    pub(super) fn flush_radio(&mut self, node: NodeId) -> (Vec<PhyJob>, Option<PhyJob>) {
        let Some(phy) = self.phy.as_mut() else {
            return (Vec::new(), None);
        };
        let (waiting, aborted, rescheds) = phy.engine.flush_node(self.now, node.0);
        if let Some(deadline) = phy.deadlines[node.0].take() {
            self.kern.cancel(deadline);
        }
        self.schedule_phy(rescheds);
        (waiting, aborted)
    }

    /// A transmission starts occupying the air and is charged now (a
    /// queued frame that never transmits costs nothing).
    fn phy_tx_start(&mut self, node: NodeId, tx: TxId) {
        let Some(job) = self.phy.as_ref().and_then(|p| p.engine.payload(tx)) else {
            return;
        };
        let wire = job.wire_len();
        let hop = match job {
            PhyJob::Data { nb, packet } => Some((*nb, packet.ttl)),
            PhyJob::Broadcast { .. } | PhyJob::Unicast { .. } => None,
        };
        self.charge_tx(node, wire, hop);
        tr!(self, node, PhyTx, "phy", tx, wire);
    }

    /// A serialization deadline fires: the frame leaves the sender's radio
    /// and its radio fate — reachability, Gilbert–Elliott loss, frame chaos,
    /// propagation delay — is decided now. Superseded deadlines were
    /// cancelled, so the one that fires is always current.
    pub(super) fn phy_complete(&mut self, tx: TxId, seq: u64) {
        let Some(phy) = self.phy.as_mut() else {
            return;
        };
        let completed = phy.engine.complete(self.now, tx, seq);
        debug_assert!(
            completed.is_some(),
            "a superseded deadline fired: {tx}/{seq}"
        );
        let Some((done, rescheds)) = completed else {
            return;
        };
        phy.deadlines[done.node] = None;
        self.schedule_phy(rescheds);
        self.stats.phy_frames_tx += 1;
        self.stats.phy_airtime_us += done.airtime.as_micros();
        self.stats.phy_queue_wait_us.push(done.queued.as_micros());
        let node = NodeId(done.node);
        if let Some(next) = done.started {
            self.phy_tx_start(node, next);
        }
        self.radio(node, done.payload);
    }

    /// Transmit-time accounting: the battery pays for `wire` bytes, and a
    /// data hop (`(next hop, TTL)`) is counted.
    fn charge_tx(&mut self, node: NodeId, wire: usize, data_hop: Option<(NodeId, u8)>) {
        self.nodes[node.0].os.battery.drain_tx(wire);
        if let Some((_nb, _ttl)) = data_hop {
            self.stats.data_hops += 1;
            tr!(self, node, DataHop, "data", _nb.0, _ttl);
        }
    }

    /// Radio fate of a frame that has left `node`'s transmitter.
    fn radio(&mut self, node: NodeId, job: PhyJob) {
        match job {
            PhyJob::Broadcast { frame } => {
                // One serialization occupied the air; each in-range
                // neighbour gets its own reachability, loss and delay draws.
                let mut receivers = std::mem::take(&mut self.receivers);
                self.topo.neighbours_into(node, &mut receivers);
                for &nb in &receivers {
                    self.radio_control(node, nb, &frame);
                }
                self.receivers = receivers;
            }
            PhyJob::Unicast { nb, frame } => {
                if !self.radio_control(node, nb, &frame) {
                    self.tx_failed(node, nb);
                }
            }
            PhyJob::Data { nb, packet } => {
                if !self.link_fails(node, nb, &packet) {
                    self.launch_data(node, nb, packet);
                }
            }
        }
    }

    /// Fate of a control frame on the `node → nb` link: unreachable, lost,
    /// or on its way (the shared frame is cloned only then). Returns
    /// `false` when the link itself is down — what link feedback reports.
    fn radio_control(&mut self, node: NodeId, nb: NodeId, frame: &ControlFrame) -> bool {
        let _frame_len = frame.wire_len();
        if !self.reachable(node, nb) {
            self.stats.control_lost += 1;
            tr!(self, node, FrameDrop, "unreachable", nb.0, _frame_len);
            return false;
        }
        if self.sample_link_loss(node, nb) {
            self.stats.control_lost += 1;
            tr!(self, node, FrameDrop, "loss", nb.0, _frame_len);
            return true;
        }
        let delay = self.link_model.sample_delay(&mut self.rng);
        self.propagate(node, nb, delay, Frame::Control(frame.clone()));
        true
    }

    /// `frame` reaches `node`'s receiver after its propagation `delay`.
    fn propagate(&mut self, from: NodeId, node: NodeId, delay: SimDuration, frame: Frame) {
        self.schedule(self.now + delay, EventKind::Arrival { node, from, frame });
    }

    /// Link-layer feedback: a unicast transmission to `nb` went
    /// unacknowledged (raised only when the world enables link feedback).
    fn tx_failed(&mut self, node: NodeId, nb: NodeId) {
        if self.link_feedback {
            let neighbour = self.nodes[nb.0].os.addr();
            self.filter_event(node, FilterEvent::TxFailed { neighbour });
        }
    }

    /// Draws the `node → nb` link for a data hop. When it fails the packet
    /// is dropped, the link layer reports `TxFailed` and — for a transit
    /// packet — the route-error trigger is raised; returns whether it
    /// failed.
    fn link_fails(&mut self, node: NodeId, nb: NodeId, packet: &DataPacket) -> bool {
        if self.reachable(node, nb) && !self.sample_link_loss(node, nb) {
            return false;
        }
        self.drop_data(node, packet, DataDrop::LINK);
        let (dst, src) = (packet.dst, packet.src);
        self.tx_failed(node, nb);
        if src != self.nodes[node.0].os.addr() {
            let next_hop = node_address(nb.0);
            self.filter_event(node, FilterEvent::ForwardFailure { dst, src, next_hop });
        }
        true
    }

    /// A data hop whose link held goes on the air: frame chaos (all draws
    /// from the plan's RNG, so the base simulation stream is unchanged by
    /// enabling a fault plan), then propagation delay and arrival.
    fn launch_data(&mut self, node: NodeId, nb: NodeId, packet: DataPacket) {
        let chaos = self.fault.chaos;
        if chaos.corrupt > 0.0 && self.fault.rng.gen_bool(chaos.corrupt) {
            return self.drop_data(node, &packet, DataDrop::CORRUPT);
        }
        let mut copies = 1;
        if chaos.duplicate > 0.0 && self.fault.rng.gen_bool(chaos.duplicate) {
            self.stats.data_duplicated += 1;
            // The clone is a second in-flight copy of the same id; the
            // send record must outlive both.
            if let Some(rec) = self.sent_at.live_mut(packet.id) {
                rec.copies += 1;
            }
            copies = 2;
        }
        for packet in std::iter::repeat_n(packet, copies) {
            let mut delay = self.link_model.sample_delay(&mut self.rng);
            if chaos.reorder > 0.0 && self.fault.rng.gen_bool(chaos.reorder) {
                self.stats.data_reordered += 1;
                let extra = self
                    .fault
                    .rng
                    .gen_range(0..=chaos.reorder_spread.as_micros());
                delay = delay + SimDuration::from_micros(extra);
            }
            self.propagate(node, nb, delay, Frame::Data(packet));
        }
    }

    /// Whether a frame can physically travel from `a` to `b` right now:
    /// radio link up, both nodes alive, no active partition cutting the pair.
    fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        self.topo.link_up(a, b)
            && !self.nodes[a.0].crashed
            && !self.nodes[b.0].crashed
            && !self.fault.severed(a, b)
    }

    /// Samples loss on the `(a, b)` link: the per-link Gilbert–Elliott
    /// chain when burst loss is configured, the i.i.d. model otherwise.
    fn sample_link_loss(&mut self, a: NodeId, b: NodeId) -> bool {
        match self.link_model.burst {
            Some(ge) => {
                let key = (a.0.min(b.0), a.0.max(b.0));
                let phase = self.ge_phases.entry(key).or_default();
                let before = *phase;
                let lost = ge.sample(phase, &mut self.rng);
                if before == LinkPhase::Good && *phase == LinkPhase::Bad {
                    self.stats.link_flaps += 1;
                }
                lost
            }
            None => self.link_model.sample_loss(&mut self.rng),
        }
    }
}
