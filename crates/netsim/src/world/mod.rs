//! The discrete-event simulation world.
//!
//! The event loop itself — virtual clock, timing-wheel scheduler, arena
//! event store — lives in the reusable [`simkern`] crate; this module owns
//! everything MANET-specific that runs *on* that kernel: nodes, radio
//! topology, the data plane and fault injection.
//!
//! This file holds [`World`] itself — accessors, run loop, statistics,
//! flight recorder, agent callbacks, event dispatch; `builder` the
//! [`WorldBuilder`]; `radio` the one radio path from a send to an arrival;
//! `data_plane` routing steps and datagram accounting; `fault` crash,
//! reboot and partition enactment; `controlled` the model checker's seam.

use std::collections::HashMap;

use simkern::{EventHandle, EventQueue, SeqBlock};

use packetbb::Address;
use phy::{Phy, TxId};
use rand::rngs::StdRng;

use crate::agent::{ContextSample, FilterEvent, RoutingAgent};
use crate::fault::{FaultInjector, FaultKind};
use crate::mobility::Walk;
use crate::os::{Action, NodeOs, TimerToken};
use crate::packet::{DataPacket, Frame, NodeId};
use crate::stats::{StatsWindow, WorldStats};
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkModel, LinkPhase, LinkState, Topology};

/// Appends a flight-recorder record for `$node` at the world's current
/// virtual time. Expands to nothing without the `trace` feature, keeping
/// call sites single-line with zero disabled cost; operand expressions are
/// only evaluated when the feature is on.
macro_rules! tr {
    ($w:expr, $node:expr, $kind:ident, $tag:expr, $a:expr, $b:expr) => {
        #[cfg(feature = "trace")]
        {
            let t = $w.now.as_micros();
            let (a, b) = (($a) as u64, ($b) as u64);
            $w.nodes[$node.0]
                .os
                .trace_emit_at(t, mktrace::TraceKind::$kind, $tag, a, b);
        }
    };
}

mod builder;
mod controlled;
mod data_plane;
mod fault;
mod radio;
#[cfg(test)]
mod tests;

pub use builder::WorldBuilder;
pub use controlled::{PendingClass, PendingEvent};

use data_plane::{DataDrop, SendWindow};
use radio::PhyJob;

#[derive(Debug)]
enum EventKind {
    StartAgent {
        node: NodeId,
    },
    Arrival {
        node: NodeId,
        from: NodeId,
        frame: Frame,
    },
    TimerFire {
        node: NodeId,
        token: TimerToken,
    },
    DataPlane {
        node: NodeId,
        packet: DataPacket,
    },
    /// Application datagram entering the network at its scheduled send
    /// time: accounted as sent when the event fires, so windowed stats
    /// attribute pre-scheduled traffic to the phase in which it flows.
    DataInject {
        node: NodeId,
        packet: DataPacket,
    },
    LinkChange {
        a: NodeId,
        b: NodeId,
        state: LinkState,
    },
    /// Spatial-topology mobility: the node relocates and the grid index
    /// updates incrementally (the scalable analogue of `LinkChange`).
    NodeMove {
        node: NodeId,
        x: f64,
        y: f64,
    },
    /// One step of the streamed walk: its moves, in node order, then the
    /// next step under the walk's next reserved seq.
    WalkStep,
    ContextTick {
        node: NodeId,
    },
    /// A phy-layer transmission finishes serializing onto the air. Stale
    /// when `seq` no longer matches the engine's (the completion deadline
    /// moved after a fair-share rate reallocation, or a crash flushed the
    /// transmitter): stale events are ignored on arrival (see
    /// `World::schedule_phy` for why they are not cancelled).
    PhyComplete {
        tx: TxId,
        seq: u64,
    },
    Fault(FaultKind),
}

/// A walk the world streams, and the seqs reserved for its remaining
/// steps.
#[derive(Debug)]
struct StreamedWalk {
    walk: Walk,
    seqs: SeqBlock,
}

/// Builds a fresh agent for a rebooting node (true cold boot).
pub type RebootFactory = Box<dyn Fn() -> Box<dyn RoutingAgent> + Send>;

struct NodeSlot {
    os: NodeOs,
    agent: Option<Box<dyn RoutingAgent>>,
    /// Whether the node is currently crashed (or battery-dead): its agent
    /// is suspended and no frame enters or leaves.
    crashed: bool,
    /// The node's pending timers, at most one per token. Only lookups by
    /// token and cancel-them-all touch it, so its order is never observed.
    timers: Vec<(TimerToken, EventHandle)>,
    /// Optional factory replacing the agent on reboot; without one the
    /// suspended instance is restarted over the flushed OS.
    factory: Option<RebootFactory>,
}

/// Deterministic discrete-event MANET simulation: nodes with simulated OSes,
/// a shaped radio topology, a hop-by-hop data plane and pluggable routing
/// agents.
pub struct World {
    now: SimTime,
    kern: EventQueue<EventKind>,
    topo: Topology,
    link_model: LinkModel,
    nodes: Vec<NodeSlot>,
    stats: WorldStats,
    rng: StdRng,
    next_packet_id: u64,
    sent_at: SendWindow,
    link_feedback: bool,
    context_interval: Option<SimDuration>,
    default_ttl: u8,
    geo_routing: bool,
    fault: FaultInjector,
    /// Suppress double-counting of duplicated deliveries (set when the
    /// fault plan enables frame duplication).
    dedupe_delivery: bool,
    /// Per-link Gilbert–Elliott chain phase, keyed by the undirected pair.
    ge_phases: HashMap<(usize, usize), LinkPhase>,
    /// Controlled-delivery mode ([`WorldBuilder::controlled`]): the world
    /// never fires an event by itself; an external scheduler (the `mcheck`
    /// model checker) picks from the kernel's pending events.
    controlled: bool,
    /// The channel engine for non-ideal phy models; `None` under
    /// [`PhyModel::Ideal`](phy::PhyModel::Ideal), the zero-airtime case of
    /// the one radio path.
    phy: Option<Phy<PhyJob>>,
    /// The walk installed by [`World::install_walk`], if any.
    walk: Option<StreamedWalk>,
    /// Scratch for a broadcast's receivers, reused frame to frame.
    receivers: Vec<NodeId>,
}

/// A built `World` (agents installed or not) is `Send`: campaign engines
/// move whole worlds onto worker threads. Everything inside is owned plain
/// data, `RoutingAgent` and `RebootFactory` are `Send` by bound, and the
/// RNGs are plain structs — this assertion keeps it that way.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<World>();
    assert_send::<WorldBuilder>();
};

impl World {
    /// Starts configuring a world.
    #[must_use]
    pub fn builder() -> WorldBuilder {
        WorldBuilder::default()
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// The network address of a node.
    ///
    /// `NodeId` is the single node-addressing currency of the `World` API:
    /// every sibling accessor (`os`, `node_up`, `install_agent`,
    /// `send_datagram`, …) takes one, and so does this.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    #[must_use]
    pub fn addr(&self, node: NodeId) -> Address {
        self.nodes[node.0].os.addr()
    }

    /// Resolves an address to its node: addresses are assigned by index,
    /// so this is arithmetic, not a lookup.
    #[must_use]
    pub fn node_of(&self, addr: Address) -> Option<NodeId> {
        builder::address_node(addr)
            .filter(|&i| i < self.nodes.len())
            .map(NodeId)
    }

    /// Read access to a node's simulated OS.
    #[must_use]
    pub fn os(&self, node: NodeId) -> &NodeOs {
        &self.nodes[node.0].os
    }

    /// Write access to a node's simulated OS (tests and manual setup).
    ///
    /// Actions queued through the handle are applied on the next run step.
    #[must_use]
    pub fn os_mut(&mut self, node: NodeId) -> &mut NodeOs {
        self.nodes[node.0].os.set_now(self.now);
        &mut self.nodes[node.0].os
    }

    /// Direct access to the topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Whether the node is currently up (not crashed, not battery-dead).
    #[must_use]
    pub fn node_up(&self, node: NodeId) -> bool {
        !self.nodes[node.0].crashed
    }

    /// Names of the fault plan's currently active partitions.
    #[must_use]
    pub fn active_partitions(&self) -> Vec<&str> {
        self.fault.active_partitions()
    }

    /// Registers a factory used to build a brand-new agent when this node
    /// reboots after a crash (a true cold boot, discarding all protocol
    /// soft state). Without a factory the suspended agent instance is
    /// restarted via its `start` callback over the flushed OS.
    pub fn set_reboot_factory(
        &mut self,
        node: NodeId,
        make: impl Fn() -> Box<dyn RoutingAgent> + Send + 'static,
    ) {
        self.nodes[node.0].factory = Some(Box::new(make));
    }

    /// Installs a routing agent on a node; its `start` callback runs at the
    /// current simulation time (before any later event).
    pub fn install_agent(&mut self, node: NodeId, agent: Box<dyn RoutingAgent>) {
        assert!(
            self.nodes[node.0].agent.is_none(),
            "node {node} already has an agent; remove it first"
        );
        self.nodes[node.0].agent = Some(agent);
        self.schedule(self.now, EventKind::StartAgent { node });
    }

    /// Removes and returns a node's agent, after calling its `stop`. The
    /// node's pending timers are cancelled, so none reaches a later agent.
    pub fn remove_agent(&mut self, node: NodeId) -> Option<Box<dyn RoutingAgent>> {
        let slot = &mut self.nodes[node.0];
        let mut agent = slot.agent.take()?;
        slot.os.set_now(self.now);
        agent.stop(&mut slot.os);
        self.flush_actions(node);
        self.cancel_timers(node);
        Some(agent)
    }

    /// Changes a link immediately.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, state: LinkState) {
        self.topo.set_link(a, b, state);
    }

    /// Schedules a future link change (mobility).
    pub fn schedule_link_change(&mut self, at: SimTime, a: NodeId, b: NodeId, state: LinkState) {
        self.schedule(at, EventKind::LinkChange { a, b, state });
    }

    /// Schedules a node relocation on a spatial topology (mobility). The
    /// grid index updates incrementally when the event fires.
    pub fn schedule_node_move(&mut self, at: SimTime, node: NodeId, x: f64, y: f64) {
        self.schedule(at, EventKind::NodeMove { node, x, y });
    }

    /// Streams a random-waypoint walk: one event per step applies that
    /// step's moves in node order (each with its `NodeMove` trace record)
    /// and schedules the next step. One seq per step is reserved now, so a
    /// step sorts against every other event exactly where its moves would
    /// had they all been scheduled now with
    /// [`MoveSchedule::schedule_into`](crate::mobility::MoveSchedule::schedule_into):
    /// the same run, holding one pending event instead of every move. The
    /// walk's starting positions must be the topology's.
    ///
    /// # Panics
    ///
    /// Panics when a walk is already installed.
    pub fn install_walk(&mut self, walk: Walk) {
        assert!(self.walk.is_none(), "the world already streams a walk");
        let mut seqs = self.kern.reserve(walk.steps_left());
        if let Some(at) = walk.next_at() {
            self.kern
                .schedule_reserved(&mut seqs, at.max(self.now), EventKind::WalkStep);
        }
        self.walk = Some(StreamedWalk { walk, seqs });
    }

    /// Runs until simulated time `t` (inclusive of events at `t`). In
    /// controlled mode only the clock moves: events wait for the scheduler.
    pub fn run_until(&mut self, t: SimTime) {
        self.flush_all();
        if !self.controlled {
            while let Some((at, kind)) = self.kern.pop_due(t) {
                self.now = at;
                self.dispatch(kind);
            }
            self.kern.advance_to(t);
        }
        self.now = t;
    }

    /// Runs for a span of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    /// Processes a single event; returns its time, or `None` when idle (or
    /// in controlled mode, where the scheduler picks events).
    pub fn step(&mut self) -> Option<SimTime> {
        self.flush_all();
        if self.controlled {
            return None;
        }
        let (at, kind) = self.kern.pop_due(SimTime::MAX)?;
        self.now = at;
        self.dispatch(kind);
        Some(at)
    }

    /// Number of events pending in the scheduler.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.kern.len()
    }

    /// Statistics with per-node agent counters merged in and the snapshot
    /// stamped with the current simulated time (the denominator for
    /// windowed rates such as [`WorldStats::phy_utilization`]).
    #[must_use]
    pub fn stats(&self) -> WorldStats {
        let mut s = self.stats.clone();
        s.sim_elapsed_us = self.now.as_micros();
        // Sum by the counters' static names first, so each `String` key is
        // built once per name rather than once per node.
        let mut totals: HashMap<&'static str, u64> = HashMap::new();
        for slot in &self.nodes {
            for (name, v) in slot.os.counters() {
                *totals.entry(name).or_insert(0) += v;
            }
        }
        for (name, v) in totals {
            *s.agent_counters.entry(name.to_string()).or_insert(0) += v;
        }
        s
    }

    /// Opens an independent statistics cursor positioned at the world's
    /// current totals. This is the windowing primitive: each
    /// [`StatsWindow::advance`] returns the activity since the cursor's
    /// last position. Cursors are independent of one another.
    #[must_use]
    pub fn stats_window(&self) -> StatsWindow {
        StatsWindow::new(self.stats())
    }

    /// Resets the statistic counters (topology, agents and time persist).
    pub fn reset_stats(&mut self) {
        self.stats = WorldStats::default();
        self.sent_at.clear();
    }

    // ---- flight recorder --------------------------------------------------

    /// The merged flight-recorder trace: every node's ring, interleaved by
    /// `(virtual time, node)`. Empty when tracing was not enabled via
    /// [`WorldBuilder::trace`].
    #[cfg(feature = "trace")]
    #[must_use]
    pub fn trace(&self) -> mktrace::Trace {
        mktrace::Trace::from_nodes(
            self.nodes
                .iter()
                .map(|slot| {
                    slot.os
                        .trace_ring()
                        .map(mktrace::NodeRing::to_vec)
                        .unwrap_or_default()
                })
                .collect(),
        )
    }

    /// Byte-stable JSONL serialization of [`trace`](Self::trace): the same
    /// seeded run always produces the identical string.
    #[cfg(feature = "trace")]
    #[must_use]
    pub fn trace_jsonl(&self) -> String {
        self.trace().to_jsonl()
    }

    /// Pcap capture of the packet-level trace records (virtual
    /// timestamps), viewable in standard tooling via `LINKTYPE_USER0`.
    #[cfg(feature = "trace")]
    #[must_use]
    pub fn trace_pcap(&self) -> Vec<u8> {
        mktrace::pcap::export(&self.trace())
    }

    /// Total records overwritten across all node rings; zero means the
    /// configured capacity held the whole run.
    #[cfg(feature = "trace")]
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.nodes
            .iter()
            .filter_map(|slot| slot.os.trace_ring())
            .map(mktrace::NodeRing::dropped)
            .sum()
    }

    // ---- internals --------------------------------------------------------

    fn schedule(&mut self, at: SimTime, kind: EventKind) -> EventHandle {
        self.kern.schedule(at.max(self.now), kind)
    }

    /// Cancels every pending timer of `node` (on a crash or agent removal).
    fn cancel_timers(&mut self, node: NodeId) {
        for (_, handle) in std::mem::take(&mut self.nodes[node.0].timers) {
            self.kern.cancel(handle);
        }
    }

    /// Cancels `node`'s pending timer carrying `token`, if there is one.
    fn cancel_timer(&mut self, node: NodeId, token: TimerToken) {
        let timers = &mut self.nodes[node.0].timers;
        if let Some(i) = timers.iter().position(|&(t, _)| t == token) {
            let (_, handle) = timers.swap_remove(i);
            self.kern.cancel(handle);
        }
    }

    /// Relocates `node` on the spatial topology.
    fn move_node(&mut self, node: NodeId, x: f64, y: f64) {
        self.topo.move_node(node, x, y);
        tr!(
            self,
            node,
            NodeMove,
            "mobility",
            (x * 1e6) as u64,
            (y * 1e6) as u64
        );
    }

    fn with_agent(&mut self, node: NodeId, f: impl FnOnce(&mut dyn RoutingAgent, &mut NodeOs)) {
        let now = self.now;
        let slot = &mut self.nodes[node.0];
        if slot.crashed {
            // Suspended agents get no callbacks, and anything queued from
            // outside (via `os_mut`) is lost exactly like in-flight work.
            slot.os.actions.clear();
            return;
        }
        if let Some(mut agent) = slot.agent.take() {
            slot.os.set_now(now);
            slot.os.battery.advance_to(now);
            f(agent.as_mut(), &mut slot.os);
            slot.agent = Some(agent);
        }
        self.flush_actions(node);
    }

    /// Raises a netfilter or link-layer event at `node`'s agent.
    fn filter_event(&mut self, node: NodeId, event: FilterEvent) {
        self.with_agent(node, |agent, os| agent.on_filter_event(os, event));
    }

    /// Flushes actions queued outside agent callbacks (via [`Self::os_mut`]).
    fn flush_all(&mut self) {
        for i in 0..self.nodes.len() {
            if !self.nodes[i].os.actions.is_empty() {
                self.flush_actions(NodeId(i));
            }
        }
    }

    fn flush_actions(&mut self, node: NodeId) {
        if self.nodes[node.0].crashed {
            self.nodes[node.0].os.actions.clear();
            return;
        }
        loop {
            let actions = std::mem::take(&mut self.nodes[node.0].os.actions);
            if actions.is_empty() {
                return;
            }
            for action in actions {
                self.apply_action(node, action);
            }
        }
    }

    fn apply_action(&mut self, node: NodeId, action: Action) {
        match action {
            Action::SendControl { dst, bytes } => self.send_control(node, dst, bytes),
            Action::SetTimer { at, token } => {
                // A re-arm is a fresh schedule (a new seq) in place of the
                // old timer, exactly as if the old one had never existed.
                self.cancel_timer(node, token);
                let handle = self.schedule(at, EventKind::TimerFire { node, token });
                self.nodes[node.0].timers.push((token, handle));
            }
            Action::CancelTimer { token } => self.cancel_timer(node, token),
            Action::Reinject { dst } => {
                let queued: Vec<DataPacket> = self.nodes[node.0]
                    .os
                    .nf_buffer
                    .remove(&dst)
                    .map(Vec::from)
                    .unwrap_or_default();
                for packet in queued {
                    self.schedule(self.now, EventKind::DataPlane { node, packet });
                }
            }
            Action::DropBuffered { dst } => {
                if let Some(q) = self.nodes[node.0].os.nf_buffer.remove(&dst) {
                    self.stats.data_dropped_buffer += q.len() as u64;
                    for p in q {
                        self.sent_at.settle(p.id);
                    }
                }
            }
            Action::SendData { dst, payload } => {
                let packet = self.mint_datagram(node, dst, payload);
                self.account_send(node, &packet);
                self.schedule(self.now, EventKind::DataPlane { node, packet });
            }
        }
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::StartAgent { node } => {
                if self.nodes[node.0].crashed {
                    return;
                }
                self.with_agent(node, |agent, os| agent.start(os));
            }
            EventKind::Arrival { node, from, frame } => match frame {
                Frame::Control(frame) => {
                    let len = frame.bytes().len();
                    if self.nodes[node.0].crashed {
                        self.stats.control_lost += 1;
                        tr!(self, node, FrameDrop, "crashed", from.0, len);
                        return;
                    }
                    self.stats.control_received += 1;
                    tr!(self, node, FrameRx, "frame.control", from.0, len);
                    let from_addr = self.nodes[from.0].os.addr();
                    self.nodes[node.0].os.battery.drain_rx(len);
                    self.with_agent(node, |agent, os| {
                        os.deliver_control(agent, from_addr, &frame);
                    });
                }
                Frame::Data(packet) => {
                    if self.nodes[node.0].crashed {
                        return self.drop_data(node, &packet, DataDrop::CRASH);
                    }
                    self.nodes[node.0].os.battery.drain_rx(packet.wire_len());
                    self.data_plane(node, packet);
                }
            },
            EventKind::TimerFire { node, token } => {
                // No longer pending (and the node is up: crashes cancel).
                self.nodes[node.0].timers.retain(|&(t, _)| t != token);
                self.with_agent(node, |agent, os| agent.on_timer(os, token));
            }
            EventKind::DataInject { node, packet } => {
                self.account_send(node, &packet);
                self.dispatch(EventKind::DataPlane { node, packet });
            }
            EventKind::DataPlane { node, packet } => {
                if self.nodes[node.0].crashed {
                    return self.drop_data(node, &packet, DataDrop::CRASH);
                }
                // Give the agent's packet-inspection hook first refusal.
                let mut pass = true;
                let slot = &mut self.nodes[node.0];
                if let Some(mut agent) = slot.agent.take() {
                    slot.os.set_now(self.now);
                    pass = agent.inspect_packet(&mut slot.os, &packet);
                    slot.agent = Some(agent);
                }
                self.flush_actions(node);
                if pass {
                    self.data_plane(node, packet);
                } else {
                    self.drop_data(node, &packet, DataDrop::FILTER);
                }
            }
            EventKind::LinkChange { a, b, state } => {
                self.topo.set_link(a, b, state);
                tr!(
                    self,
                    NodeId(a.0.min(b.0)),
                    LinkChange,
                    "mobility",
                    a.0.max(b.0),
                    matches!(state, LinkState::Up)
                );
            }
            EventKind::NodeMove { node, x, y } => self.move_node(node, x, y),
            EventKind::WalkStep => {
                let Some(mut stream) = self.walk.take() else {
                    return;
                };
                stream.walk.step(|node, (x, y)| self.move_node(node, x, y));
                if let Some(at) = stream.walk.next_at() {
                    self.kern
                        .schedule_reserved(&mut stream.seqs, at, EventKind::WalkStep);
                }
                self.walk = Some(stream);
            }
            EventKind::ContextTick { node } => {
                if !self.nodes[node.0].crashed {
                    self.nodes[node.0].os.battery.advance_to(self.now);
                    let level = self.nodes[node.0].os.battery_level();
                    self.with_agent(node, |agent, os| {
                        agent.on_context(os, ContextSample::Battery(level));
                    });
                }
                if let Some(interval) = self.context_interval {
                    self.schedule(self.now + interval, EventKind::ContextTick { node });
                }
            }
            EventKind::PhyComplete { tx, seq } => self.phy_complete(tx, seq),
            EventKind::Fault(kind) => self.apply_fault(kind),
        }
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.kern.len())
            .finish()
    }
}
