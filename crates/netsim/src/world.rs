//! The discrete-event simulation world.
//!
//! The event loop itself — virtual clock, timing-wheel scheduler, arena
//! event store — lives in the reusable [`simkern`] crate; this module owns
//! everything MANET-specific that runs *on* that kernel: nodes, radio
//! topology, the data plane and fault injection.

use std::collections::HashMap;

use simkern::EventQueue;

use packetbb::Address;
use phy::{Enqueue as PhyEnqueue, Phy, PhyModel, Resched as PhyResched, TxId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::agent::{ContextSample, FilterEvent, RoutingAgent};
use crate::fault::{FaultInjector, FaultKind, FaultPlan};
use crate::os::{Action, BatteryModel, NodeOs};
use crate::packet::{ControlFrame, DataPacket, Frame, NodeId};
use crate::stats::{StatsWindow, WorldStats};
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkModel, LinkPhase, LinkState, Topology};

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
        token: u64,
        /// Boot epoch at arming time: timers armed before a crash never
        /// fire into the rebooted incarnation.
        epoch: u32,
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
    ContextTick {
        node: NodeId,
    },
    /// A phy-layer transmission finishes serializing onto the air. Stale
    /// when `seq` no longer matches the engine's (the completion deadline
    /// moved after a fair-share rate reallocation, or a crash flushed the
    /// transmitter): stale events are ignored on arrival.
    PhyComplete {
        tx: TxId,
        seq: u64,
    },
    Fault(FaultKind),
}

/// What a phy-layer transmission will deliver when it finishes serializing.
/// Radio conditions (reachability, Gilbert–Elliott loss, frame chaos) are
/// sampled at completion time — drop-at-dequeue, never at enqueue — so
/// fault plans replay identically however contention stretches the queue.
#[derive(Debug)]
enum PhyJob {
    /// A broadcast control frame: one serialization occupies the sender's
    /// airtime once; per-neighbour fates are decided at completion.
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

/// Builds a fresh agent for a rebooting node (true cold boot).
pub type RebootFactory = Box<dyn Fn() -> Box<dyn RoutingAgent> + Send>;

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
struct ControlledQueue {
    pending: Vec<(u64, SimTime, EventKind)>,
    next_id: u64,
}

struct NodeSlot {
    os: NodeOs,
    agent: Option<Box<dyn RoutingAgent>>,
    /// Whether the node is currently crashed (or battery-dead): its agent
    /// is suspended and no frame enters or leaves.
    crashed: bool,
    /// Bumped on every crash; timers carry the epoch they were armed in.
    boot_epoch: u32,
    /// Optional factory replacing the agent on reboot; without one the
    /// suspended instance is restarted over the flushed OS.
    factory: Option<RebootFactory>,
}

/// Configures and constructs a [`World`].
#[derive(Debug, Clone)]
pub struct WorldBuilder {
    nodes: usize,
    topology: Option<Topology>,
    seed: u64,
    link_model: LinkModel,
    battery: BatteryModel,
    context_interval: Option<SimDuration>,
    link_feedback: bool,
    default_ttl: u8,
    nf_capacity: usize,
    geo_routing: bool,
    fault_plan: Option<FaultPlan>,
    phy: PhyModel,
    #[cfg(feature = "trace")]
    trace_capacity: Option<usize>,
}

impl Default for WorldBuilder {
    fn default() -> Self {
        WorldBuilder {
            nodes: 0,
            topology: None,
            seed: 0,
            link_model: LinkModel::default(),
            battery: BatteryModel::default(),
            context_interval: None,
            link_feedback: true,
            default_ttl: 32,
            nf_capacity: 64,
            geo_routing: false,
            fault_plan: None,
            phy: PhyModel::Ideal,
            #[cfg(feature = "trace")]
            trace_capacity: None,
        }
    }
}

impl WorldBuilder {
    /// Sets the node count (overridden by [`topology`](Self::topology)).
    #[must_use]
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// Sets the initial connectivity matrix (also fixes the node count).
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.nodes = topology.len();
        self.topology = Some(topology);
        self
    }

    /// Seeds the world's RNG (loss/jitter sampling). Same seed, same run.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets per-link delay/jitter/loss.
    #[must_use]
    pub fn link_model(mut self, model: LinkModel) -> Self {
        self.link_model = model;
        self
    }

    /// Sets the battery model applied to every node.
    #[must_use]
    pub fn battery(mut self, model: BatteryModel) -> Self {
        self.battery = model;
        self
    }

    /// Enables periodic battery context samples to agents.
    #[must_use]
    pub fn context_interval(mut self, interval: SimDuration) -> Self {
        self.context_interval = Some(interval);
        self
    }

    /// Enables/disables link-layer TX failure feedback (default on).
    #[must_use]
    pub fn link_feedback(mut self, enabled: bool) -> Self {
        self.link_feedback = enabled;
        self
    }

    /// Sets the TTL stamped on application datagrams (default 32).
    #[must_use]
    pub fn default_ttl(mut self, ttl: u8) -> Self {
        self.default_ttl = ttl;
        self
    }

    /// Sets the per-destination netfilter buffer capacity (default 64).
    #[must_use]
    pub fn nf_capacity(mut self, cap: usize) -> Self {
        self.nf_capacity = cap;
        self
    }

    /// Enables greedy geographic forwarding as the data plane's fallback
    /// when a node's route table has no entry for a destination. Requires
    /// a spatial topology (node positions). An explicit route entry always
    /// wins, so routing agents can override geo decisions per prefix.
    #[must_use]
    pub fn geo_routing(mut self, enabled: bool) -> Self {
        self.geo_routing = enabled;
        self
    }

    /// Installs a fault-injection plan: its scheduled entries are enacted
    /// by the event loop and its stochastic processes (frame chaos) run
    /// from the plan's own seeded RNG — the base simulation's random
    /// stream is untouched, and the same plan replays byte-identically.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Selects the physical-layer channel model (default
    /// [`PhyModel::Ideal`], which preserves the historical flat-delay
    /// delivery path bit for bit). Under `ConstantBandwidth` and
    /// `SharedAirtime` every transmission pays a size-proportional
    /// serialization delay, waits in a bounded per-node FIFO transmit
    /// queue, and — for shared airtime — splits channel capacity max-min
    /// fairly with concurrent transmitters in its contention domain.
    /// Chance loss and frame chaos are sampled when a transmission
    /// completes (drop-at-dequeue), so fault plans stay replayable under
    /// contention.
    #[must_use]
    pub fn phy(mut self, model: PhyModel) -> Self {
        self.phy = model;
        self
    }

    /// Attaches the flight recorder: every node gets a fixed-capacity ring
    /// of [`trace::TraceRecord`](mktrace::TraceRecord)s fed from the frame
    /// plane, the data plane and the reconfiguration hooks. When the ring
    /// fills, the oldest records are overwritten (see
    /// [`World::trace_dropped`]). Virtual timestamps make the trace of a
    /// seeded run byte-stable across repeats.
    #[cfg(feature = "trace")]
    #[must_use]
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Builds the world.
    ///
    /// # Panics
    ///
    /// Panics when no node count or topology was given.
    #[must_use]
    pub fn build(self) -> World {
        assert!(self.nodes > 0, "world needs at least one node");
        let topo = self.topology.unwrap_or_else(|| Topology::empty(self.nodes));
        assert!(
            !self.geo_routing || topo.is_spatial(),
            "geo_routing needs a spatial topology (node positions)"
        );
        let mut nodes = Vec::with_capacity(self.nodes);
        let mut addr_to_node = HashMap::new();
        for i in 0..self.nodes {
            let addr = node_address(i);
            addr_to_node.insert(addr, NodeId(i));
            let mut os = NodeOs::new(NodeId(i), addr, self.battery);
            os.nf_buffer_cap = self.nf_capacity;
            #[cfg(feature = "trace")]
            if let Some(cap) = self.trace_capacity {
                os.install_trace(cap);
            }
            nodes.push(NodeSlot {
                os,
                agent: None,
                crashed: false,
                boot_epoch: 0,
                factory: None,
            });
        }
        let (fault, dedupe_delivery) = match &self.fault_plan {
            Some(plan) => (FaultInjector::new(plan), plan.chaos().duplicate > 0.0),
            None => (FaultInjector::inert(), false),
        };
        let mut world = World {
            now: SimTime::ZERO,
            kern: EventQueue::new(),
            topo,
            link_model: self.link_model,
            nodes,
            addr_to_node,
            stats: WorldStats::default(),
            rng: StdRng::seed_from_u64(self.seed),
            next_packet_id: 0,
            sent_at: HashMap::new(),
            link_feedback: self.link_feedback,
            context_interval: self.context_interval,
            default_ttl: self.default_ttl,
            geo_routing: self.geo_routing,
            fault,
            dedupe_delivery,
            ge_phases: HashMap::new(),
            window: StatsWindow::default(),
            controlled: None,
            phy: Phy::new(&self.phy, self.nodes),
        };
        if let Some(plan) = self.fault_plan {
            for entry in plan.entries() {
                world.schedule(entry.at, EventKind::Fault(entry.kind.clone()));
            }
        }
        if let Some(interval) = world.context_interval {
            for i in 0..world.nodes.len() {
                world.schedule(
                    SimTime::ZERO + interval,
                    EventKind::ContextTick { node: NodeId(i) },
                );
            }
        }
        world
    }
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
    addr_to_node: HashMap<Address, NodeId>,
    stats: WorldStats,
    rng: StdRng,
    next_packet_id: u64,
    sent_at: HashMap<u64, SentRecord>,
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
    /// Cursor behind the legacy [`take_window`](Self::take_window) wrapper.
    window: StatsWindow,
    /// Controlled-delivery mode: when set, scheduled events divert here and
    /// an external scheduler (the `mcheck` model checker) picks the order.
    controlled: Option<ControlledQueue>,
    /// The channel engine for non-ideal phy models; `None` under
    /// [`PhyModel::Ideal`], whose delivery path is untouched.
    phy: Option<Phy<PhyJob>>,
}

/// In-flight bookkeeping for one application datagram: when it left, how
/// many copies the network still carries, and whether any copy has been
/// delivered (frame duplication can clone packets mid-path). The record is
/// removed when the last copy is accounted for — delivered or dropped — so
/// the map's size is exactly the number of packets still in flight and a
/// long campaign cannot accrete dead entries.
#[derive(Debug, Clone, Copy)]
struct SentRecord {
    at: SimTime,
    copies: u32,
    delivered: bool,
}

impl SentRecord {
    fn new(at: SimTime) -> Self {
        SentRecord {
            at,
            copies: 1,
            delivered: false,
        }
    }
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

/// Address assigned to node `i`: `10.0.x.y`, unique for i < 62_500.
fn node_address(i: usize) -> Address {
    Address::v4([10, 0, (i / 250) as u8, (i % 250 + 1) as u8])
}

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

    /// Resolves an address to its node.
    #[must_use]
    pub fn node_of(&self, addr: Address) -> Option<NodeId> {
        self.addr_to_node.get(&addr).copied()
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

    /// Removes and returns a node's agent, after calling its `stop`.
    pub fn remove_agent(&mut self, node: NodeId) -> Option<Box<dyn RoutingAgent>> {
        let slot = &mut self.nodes[node.0];
        let mut agent = slot.agent.take()?;
        slot.os.set_now(self.now);
        agent.stop(&mut slot.os);
        self.flush_actions(node);
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

    /// Sends an application datagram now; returns the packet id.
    pub fn send_datagram(&mut self, src: NodeId, dst: Address, payload: Vec<u8>) -> u64 {
        self.send_datagram_at(self.now, src, dst, payload)
    }

    /// Schedules an application datagram for a future time.
    pub fn send_datagram_at(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: Address,
        payload: Vec<u8>,
    ) -> u64 {
        self.next_packet_id += 1;
        let id = self.next_packet_id;
        let packet = DataPacket {
            id,
            src: self.nodes[src.0].os.addr(),
            dst,
            ttl: self.default_ttl,
            payload,
        };
        self.schedule(at, EventKind::DataInject { node: src, packet });
        id
    }

    /// Runs until simulated time `t` (inclusive of events at `t`).
    pub fn run_until(&mut self, t: SimTime) {
        self.flush_all();
        while let Some((at, kind)) = self.kern.pop_due(t) {
            self.now = at;
            self.dispatch(kind);
        }
        self.now = t;
        self.kern.advance_to(t);
    }

    /// Runs for a span of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    /// Processes a single event; returns its time, or `None` when idle.
    pub fn step(&mut self) -> Option<SimTime> {
        self.flush_all();
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

    /// Application datagrams sent but not yet settled (delivered or
    /// dropped on every path). Packets parked in netfilter buffers count;
    /// a quiescent world with empty buffers reports zero.
    #[must_use]
    pub fn outstanding_sends(&self) -> usize {
        self.sent_at.len()
    }

    /// Statistics with per-node agent counters merged in and the snapshot
    /// stamped with the current simulated time (the denominator for
    /// windowed rates such as [`WorldStats::phy_utilization`]).
    #[must_use]
    pub fn stats(&self) -> WorldStats {
        let mut s = self.stats.clone();
        s.sim_elapsed_us = self.now.as_micros();
        for slot in &self.nodes {
            for (name, v) in slot.os.counters() {
                *s.agent_counters.entry((*name).to_string()).or_insert(0) += v;
            }
        }
        s
    }

    /// Opens an independent statistics cursor positioned at the world's
    /// current totals. This is the windowing primitive: each
    /// [`StatsWindow::advance`] returns the activity since the cursor's
    /// last position. Cursors are independent of one another and of the
    /// legacy [`take_window`](Self::take_window) wrapper.
    #[must_use]
    pub fn stats_window(&self) -> StatsWindow {
        StatsWindow::new(self.stats())
    }

    /// Resets the statistic counters (topology, agents and time persist).
    pub fn reset_stats(&mut self) {
        self.stats = WorldStats::default();
        self.sent_at.clear();
        self.window.rebase(WorldStats::default());
    }

    /// Returns the statistics accumulated since the previous
    /// `take_window` call (or the start of the run) and opens a new
    /// window. This is the measurement primitive for recovery analysis:
    /// compare the pre-fault window's delivery ratio against the
    /// post-heal window's.
    ///
    /// Thin wrapper over the world's internal [`StatsWindow`] cursor;
    /// prefer [`stats_window`](Self::stats_window), which supports several
    /// concurrent cursors.
    pub fn take_window(&mut self) -> WorldStats {
        let mut cursor = std::mem::take(&mut self.window);
        let window = cursor.advance(self);
        self.window = cursor;
        window
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

    // ---- controlled-delivery mode -----------------------------------------

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
            self.controlled = Some(ControlledQueue::default());
            while let Some((at, kind)) = self.kern.pop_due(SimTime::MAX) {
                let ctl = self.controlled.as_mut().expect("just installed");
                ctl.next_id += 1;
                ctl.pending.push((ctl.next_id, at, kind));
            }
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

    /// Fires one parked event now, clamping the clock forward to its
    /// scheduled time. Returns `false` when the id is unknown (already
    /// delivered or dropped) or the mode is off.
    pub fn deliver_controlled(&mut self, id: u64) -> bool {
        self.flush_all();
        let Some(ctl) = self.controlled.as_mut() else {
            return false;
        };
        let Some(pos) = ctl.pending.iter().position(|(pid, ..)| *pid == id) else {
            return false;
        };
        let (_, at, kind) = ctl.pending.swap_remove(pos);
        if at > self.now {
            self.now = at;
        }
        self.dispatch(kind);
        true
    }

    /// Discards one parked frame arrival — the model checker's message-loss
    /// choice — with the same accounting as a radio loss: `control_lost`
    /// for control frames, `data_dropped_link` (and send settlement) for
    /// data frames. Returns `false` for unknown ids, non-frame events, or
    /// when the mode is off.
    pub fn drop_controlled(&mut self, id: u64) -> bool {
        let Some(ctl) = self.controlled.as_mut() else {
            return false;
        };
        let Some(pos) = ctl
            .pending
            .iter()
            .position(|(pid, _, kind)| *pid == id && matches!(kind, EventKind::Arrival { .. }))
        else {
            return false;
        };
        let (_, _, kind) = ctl.pending.swap_remove(pos);
        // The bindings feed the flight recorder; without the `trace`
        // feature the macro expands to nothing, hence the underscores.
        let EventKind::Arrival {
            node: _node,
            from: _from,
            frame,
        } = kind
        else {
            unreachable!("position() matched an Arrival");
        };
        match frame {
            Frame::Control(_frame) => {
                self.stats.control_lost += 1;
                tr!(
                    self,
                    _node,
                    FrameDrop,
                    "mcheck_drop",
                    _from.0,
                    _frame.bytes().len()
                );
            }
            Frame::Data(packet) => {
                self.stats.data_dropped_link += 1;
                tr!(self, _node, DataDrop, "mcheck_drop", packet.id, packet.ttl);
                self.settle_send(packet.id);
            }
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
        let mut fired = 0;
        loop {
            self.flush_all();
            let Some(ctl) = self.controlled.as_mut() else {
                return fired;
            };
            let Some(pos) = ctl
                .pending
                .iter()
                .enumerate()
                .filter(|(_, (_, _, kind))| {
                    !matches!(
                        kind,
                        EventKind::Arrival { .. } | EventKind::TimerFire { .. }
                    )
                })
                .min_by_key(|(_, (id, at, _))| (*at, *id))
                .map(|(i, _)| i)
            else {
                return fired;
            };
            let (_, at, kind) = ctl.pending.swap_remove(pos);
            if at > self.now {
                self.now = at;
            }
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

    // ---- internals --------------------------------------------------------

    fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let at = at.max(self.now);
        match self.controlled.as_mut() {
            Some(ctl) => {
                ctl.next_id += 1;
                ctl.pending.push((ctl.next_id, at, kind));
            }
            None => self.kern.schedule(at, kind),
        }
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
                let epoch = self.nodes[node.0].boot_epoch;
                self.schedule(at, EventKind::TimerFire { node, token, epoch });
            }
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
                        self.settle_send(p.id);
                    }
                }
            }
            Action::SendData { dst, payload } => {
                self.next_packet_id += 1;
                let id = self.next_packet_id;
                let packet = DataPacket {
                    id,
                    src: self.nodes[node.0].os.addr(),
                    dst,
                    ttl: self.default_ttl,
                    payload,
                };
                self.stats.data_sent += 1;
                self.sent_at.insert(id, SentRecord::new(self.now));
                tr!(
                    self,
                    node,
                    DataSend,
                    "data",
                    self.node_of(packet.dst).map_or(u64::MAX, |n| n.0 as u64),
                    packet.payload.len()
                );
                self.schedule(self.now, EventKind::DataPlane { node, packet });
            }
        }
    }

    fn send_control(&mut self, node: NodeId, dst: Option<Address>, bytes: Vec<u8>) {
        let frame_len = Frame::control_wire_len(bytes.len());
        // One frame for the whole transmission: every receiver shares its
        // bytes and its decoded view.
        let frame = ControlFrame::new(bytes);
        self.stats.control_frames += 1;
        self.stats.control_bytes += frame_len as u64;
        if self.phy.is_some() {
            // Channel-model path: the frame queues at the sender's radio;
            // battery drain and per-neighbour radio outcomes happen at
            // transmit time, not here.
            match dst {
                None => {
                    tr!(self, node, FrameTx, "frame.control", frame_len, u64::MAX);
                    self.phy_enqueue(node, PhyJob::Broadcast { frame });
                }
                Some(addr) => {
                    let Some(nb) = self.node_of(addr) else {
                        self.stats.control_lost += 1;
                        tr!(self, node, FrameDrop, "no_such_addr", u64::MAX, frame_len);
                        return;
                    };
                    tr!(self, node, FrameTx, "frame.control", frame_len, nb.0);
                    self.phy_enqueue(node, PhyJob::Unicast { nb, frame });
                }
            }
            return;
        }
        self.nodes[node.0].os.battery.drain_tx(frame_len);
        match dst {
            None => {
                tr!(self, node, FrameTx, "frame.control", frame_len, u64::MAX);
                for nb in self.topo.neighbours(node) {
                    if !self.reachable(node, nb) {
                        self.stats.control_lost += 1;
                        tr!(self, node, FrameDrop, "unreachable", nb.0, frame_len);
                        continue;
                    }
                    if self.sample_link_loss(node, nb) {
                        self.stats.control_lost += 1;
                        tr!(self, node, FrameDrop, "loss", nb.0, frame_len);
                        continue;
                    }
                    let delay = self.link_model.sample_delay(&mut self.rng);
                    self.schedule(
                        self.now + delay,
                        EventKind::Arrival {
                            node: nb,
                            from: node,
                            frame: Frame::Control(frame.clone()),
                        },
                    );
                }
            }
            Some(addr) => {
                let Some(nb) = self.node_of(addr) else {
                    self.stats.control_lost += 1;
                    tr!(self, node, FrameDrop, "no_such_addr", u64::MAX, frame_len);
                    return;
                };
                tr!(self, node, FrameTx, "frame.control", frame_len, nb.0);
                if !self.reachable(node, nb) {
                    self.stats.control_lost += 1;
                    tr!(self, node, FrameDrop, "unreachable", nb.0, frame_len);
                    if self.link_feedback {
                        self.with_agent(node, |agent, os| {
                            agent.on_filter_event(os, FilterEvent::TxFailed { neighbour: addr });
                        });
                    }
                    return;
                }
                if self.sample_link_loss(node, nb) {
                    self.stats.control_lost += 1;
                    tr!(self, node, FrameDrop, "loss", nb.0, frame_len);
                    return;
                }
                let delay = self.link_model.sample_delay(&mut self.rng);
                self.schedule(
                    self.now + delay,
                    EventKind::Arrival {
                        node: nb,
                        from: node,
                        frame: Frame::Control(frame),
                    },
                );
            }
        }
    }

    // ---- phy channel model -------------------------------------------------

    /// Schedules completion deadlines issued by the phy engine. Every rate
    /// reallocation bumps the affected transmission's sequence number and
    /// reissues its deadline; superseded deadlines arrive stale and are
    /// ignored (simkern has no event cancellation).
    fn schedule_phy(&mut self, rescheds: Vec<PhyResched>) {
        for r in rescheds {
            self.schedule(
                r.at,
                EventKind::PhyComplete {
                    tx: r.tx,
                    seq: r.seq,
                },
            );
        }
    }

    /// Contention domains for a transmission from `a` (optionally towards
    /// `peer`): the spatial-grid cells occupied by sender and receiver, or
    /// one world-wide domain on dense topologies. Broadcasts contend in the
    /// sender's cell only.
    fn contention_domains(&self, a: NodeId, peer: Option<NodeId>) -> (u32, u32) {
        let da = self.topo.contention_cell(a).unwrap_or(0);
        let db = peer
            .and_then(|b| self.topo.contention_cell(b))
            .unwrap_or(da);
        (da, db)
    }

    /// Hands a frame to the channel model. Tail drop is decided here by a
    /// pure queue-depth check that consumes no randomness, so enabling
    /// contention never perturbs the fault plan's RNG stream.
    ///
    /// `send_control` and `forward` come here only when the world has an
    /// engine. Should a caller not have looked, nothing panics and nothing
    /// is lost: without an engine serialization takes no time, so the frame
    /// meets its radio fate at once.
    fn phy_enqueue(&mut self, node: NodeId, job: PhyJob) {
        let wire = job.wire_len();
        let domains = self.contention_domains(node, job.peer());
        let Some(phy) = self.phy.as_mut() else {
            return self.radio(node, job);
        };
        let (outcome, rescheds) = phy.enqueue(self.now, node.0, domains, wire, job);
        self.schedule_phy(rescheds);
        match outcome {
            PhyEnqueue::Dropped(job) => {
                self.stats.phy_queue_drops += 1;
                match job {
                    PhyJob::Data { packet, .. } => {
                        self.stats.data_dropped_buffer += 1;
                        tr!(self, node, PhyDrop, "phy_queue", packet.id, wire);
                        self.settle_send(packet.id);
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

    /// A transmission starts occupying the air: battery drain and per-hop
    /// data accounting happen now, mirroring the ideal path's at-send
    /// semantics (a queued frame that never transmits costs nothing).
    fn phy_tx_start(&mut self, node: NodeId, tx: TxId) {
        let Some(job) = self.phy.as_ref().and_then(|p| p.payload(tx)) else {
            return;
        };
        let wire = job.wire_len();
        let data_hop = match job {
            PhyJob::Data { nb, packet } => Some((*nb, packet.ttl)),
            PhyJob::Broadcast { .. } | PhyJob::Unicast { .. } => None,
        };
        self.nodes[node.0].os.battery.drain_tx(wire);
        if let Some((_nb, _ttl)) = data_hop {
            self.stats.data_hops += 1;
            tr!(self, node, DataHop, "data", _nb.0, _ttl);
        }
        tr!(self, node, PhyTx, "phy", tx, wire);
    }

    /// A serialization deadline fires. If it is current (the sequence
    /// matches), the frame leaves the sender's radio and its radio fate —
    /// reachability, Gilbert–Elliott loss, frame chaos, propagation delay —
    /// is decided now, with exactly the draws the ideal path would make.
    fn phy_complete(&mut self, tx: TxId, seq: u64) {
        let Some((done, rescheds)) = self
            .phy
            .as_mut()
            .and_then(|p| p.complete(self.now, tx, seq))
        else {
            return; // stale deadline superseded by a reallocation or crash
        };
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

    /// Radio fate of a frame that has left `node`'s transmitter.
    fn radio(&mut self, node: NodeId, job: PhyJob) {
        match job {
            PhyJob::Broadcast { frame } => self.radio_broadcast(node, frame),
            PhyJob::Unicast { nb, frame } => self.radio_unicast(node, nb, frame),
            PhyJob::Data { nb, packet } => self.radio_data(node, nb, packet),
        }
    }

    /// Radio fate of a completed broadcast: one serialization occupied the
    /// air; each in-range neighbour now gets its own reachability, loss and
    /// propagation draws, exactly as the ideal path orders them.
    fn radio_broadcast(&mut self, node: NodeId, frame: ControlFrame) {
        let _frame_len = frame.wire_len();
        for nb in self.topo.neighbours(node) {
            if !self.reachable(node, nb) {
                self.stats.control_lost += 1;
                tr!(self, node, FrameDrop, "unreachable", nb.0, _frame_len);
                continue;
            }
            if self.sample_link_loss(node, nb) {
                self.stats.control_lost += 1;
                tr!(self, node, FrameDrop, "loss", nb.0, _frame_len);
                continue;
            }
            let delay = self.link_model.sample_delay(&mut self.rng);
            self.schedule(
                self.now + delay,
                EventKind::Arrival {
                    node: nb,
                    from: node,
                    frame: Frame::Control(frame.clone()),
                },
            );
        }
    }

    /// Radio fate of a completed unicast control frame.
    fn radio_unicast(&mut self, node: NodeId, nb: NodeId, frame: ControlFrame) {
        let _frame_len = frame.wire_len();
        if !self.reachable(node, nb) {
            self.stats.control_lost += 1;
            tr!(self, node, FrameDrop, "unreachable", nb.0, _frame_len);
            if self.link_feedback {
                let neighbour = self.nodes[nb.0].os.addr();
                self.with_agent(node, |agent, os| {
                    agent.on_filter_event(os, FilterEvent::TxFailed { neighbour });
                });
            }
            return;
        }
        if self.sample_link_loss(node, nb) {
            self.stats.control_lost += 1;
            tr!(self, node, FrameDrop, "loss", nb.0, _frame_len);
            return;
        }
        let delay = self.link_model.sample_delay(&mut self.rng);
        self.schedule(
            self.now + delay,
            EventKind::Arrival {
                node: nb,
                from: node,
                frame: Frame::Control(frame),
            },
        );
    }

    /// Radio fate of a completed data transmission: the tail of the ideal
    /// [`World::forward`] path (link check, chaos, propagation), minus the
    /// enqueue-time decisions (TTL, battery, hop count, RouteUsed) already
    /// taken.
    fn radio_data(&mut self, node: NodeId, nb: NodeId, packet: DataPacket) {
        let next_hop = self.nodes[nb.0].os.addr();
        let local_addr = self.nodes[node.0].os.addr();
        let link_ok = self.reachable(node, nb) && !self.sample_link_loss(node, nb);
        if !link_ok {
            self.stats.data_dropped_link += 1;
            tr!(self, node, DataDrop, "link", packet.id, packet.ttl);
            self.settle_send(packet.id);
            let dst = packet.dst;
            let src = packet.src;
            if self.link_feedback {
                self.with_agent(node, |agent, os| {
                    agent.on_filter_event(
                        os,
                        FilterEvent::TxFailed {
                            neighbour: next_hop,
                        },
                    );
                });
            }
            if src != local_addr {
                self.with_agent(node, |agent, os| {
                    agent.on_filter_event(os, FilterEvent::ForwardFailure { dst, src, next_hop });
                });
            }
            return;
        }
        let chaos = self.fault.chaos;
        if chaos.is_active() {
            if chaos.corrupt > 0.0 && self.fault.rng.gen_bool(chaos.corrupt) {
                self.stats.data_corrupted += 1;
                tr!(self, node, DataDrop, "corrupt", packet.id, packet.ttl);
                self.settle_send(packet.id);
                return;
            }
            let copies = if chaos.duplicate > 0.0 && self.fault.rng.gen_bool(chaos.duplicate) {
                self.stats.data_duplicated += 1;
                if let Some(rec) = self.sent_at.get_mut(&packet.id) {
                    rec.copies += 1;
                }
                2
            } else {
                1
            };
            for _ in 0..copies {
                let mut delay = self.link_model.sample_delay(&mut self.rng);
                if chaos.reorder > 0.0 && self.fault.rng.gen_bool(chaos.reorder) {
                    self.stats.data_reordered += 1;
                    let extra = self
                        .fault
                        .rng
                        .gen_range(0..=chaos.reorder_spread.as_micros());
                    delay = delay + SimDuration::from_micros(extra);
                }
                self.schedule(
                    self.now + delay,
                    EventKind::Arrival {
                        node: nb,
                        from: node,
                        frame: Frame::Data(packet.clone()),
                    },
                );
            }
            return;
        }
        let delay = self.link_model.sample_delay(&mut self.rng);
        self.schedule(
            self.now + delay,
            EventKind::Arrival {
                node: nb,
                from: node,
                frame: Frame::Data(packet),
            },
        );
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
                        self.stats.data_dropped_crash += 1;
                        tr!(self, node, DataDrop, "crash", packet.id, packet.ttl);
                        self.settle_send(packet.id);
                        return;
                    }
                    self.nodes[node.0].os.battery.drain_rx(packet.wire_len());
                    self.data_plane(node, packet);
                }
            },
            EventKind::TimerFire { node, token, epoch } => {
                // Timers armed before a crash never fire into the rebooted
                // incarnation: their epoch is stale.
                if self.nodes[node.0].crashed || epoch != self.nodes[node.0].boot_epoch {
                    return;
                }
                if self.nodes[node.0].os.cancelled_timers.remove(&token) {
                    return;
                }
                self.with_agent(node, |agent, os| agent.on_timer(os, token));
            }
            EventKind::DataInject { node, packet } => {
                self.stats.data_sent += 1;
                self.sent_at.insert(packet.id, SentRecord::new(self.now));
                tr!(
                    self,
                    node,
                    DataSend,
                    "data",
                    self.node_of(packet.dst).map_or(u64::MAX, |n| n.0 as u64),
                    packet.payload.len()
                );
                self.dispatch(EventKind::DataPlane { node, packet });
            }
            EventKind::DataPlane { node, packet } => {
                if self.nodes[node.0].crashed {
                    self.stats.data_dropped_crash += 1;
                    tr!(self, node, DataDrop, "crash", packet.id, packet.ttl);
                    self.settle_send(packet.id);
                    return;
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
                    self.stats.data_dropped_buffer += 1;
                    tr!(self, node, DataDrop, "filter", packet.id, packet.ttl);
                    self.settle_send(packet.id);
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
            EventKind::NodeMove { node, x, y } => {
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

    // ---- fault injection ---------------------------------------------------

    fn apply_fault(&mut self, kind: FaultKind) {
        self.stats.faults_injected += 1;
        match kind {
            FaultKind::Crash(node) => self.crash_node(node, false),
            FaultKind::BatteryExhaust(node) => self.crash_node(node, true),
            FaultKind::Reboot(node) => self.reboot_node(node),
            FaultKind::PartitionStart { name, groups } => {
                if self.fault.start_partition(&name, &groups) {
                    self.stats.partitions_started += 1;
                    tr!(self, NodeId(0), Fault, "partition.start", groups.len(), 0);
                }
            }
            FaultKind::PartitionHeal { name } => {
                if self.fault.heal_partition(&name) {
                    self.stats.partitions_healed += 1;
                    tr!(self, NodeId(0), Fault, "partition.heal", 0, 0);
                }
            }
        }
    }

    /// Suspends a node: last-gasp `on_crash` callback (queued actions are
    /// discarded), OS flushed, boot epoch bumped. Idempotent.
    fn crash_node(&mut self, node: NodeId, exhausted: bool) {
        let now = self.now;
        let slot = &mut self.nodes[node.0];
        if slot.crashed {
            return;
        }
        slot.crashed = true;
        slot.boot_epoch += 1;
        slot.os.set_now(now);
        if exhausted {
            slot.os.battery.advance_to(now);
            slot.os.battery.exhaust();
            self.stats.battery_exhaustions += 1;
        } else {
            self.stats.node_crashes += 1;
        }
        if let Some(agent) = slot.agent.as_mut() {
            agent.on_crash(&mut slot.os);
        }
        let dropped = slot.os.crash_flush();
        self.stats.data_dropped_crash += dropped.len() as u64;
        tr!(
            self,
            node,
            NodeCrash,
            if exhausted { "battery" } else { "crash" },
            dropped.len(),
            0
        );
        for id in dropped {
            self.settle_send(id);
        }
        // The radio dies with the node: flush its transmit queue and abort
        // any in-flight serialization (surviving transmitters may speed up,
        // hence the rescheduled deadlines). The aborted transmission's old
        // completion event arrives stale and is ignored.
        if let Some(phy) = self.phy.as_mut() {
            let (waiting, aborted, rescheds) = phy.flush_node(now, node.0);
            self.schedule_phy(rescheds);
            for job in waiting.into_iter().chain(aborted) {
                match job {
                    PhyJob::Data { packet, .. } => {
                        self.stats.data_dropped_crash += 1;
                        tr!(self, node, DataDrop, "crash", packet.id, packet.ttl);
                        self.settle_send(packet.id);
                    }
                    PhyJob::Broadcast { .. } | PhyJob::Unicast { .. } => {
                        self.stats.control_lost += 1;
                    }
                }
            }
        }
    }

    /// Revives a crashed node: fresh battery, flushed OS, agent restarted
    /// cold (replaced when a reboot factory is registered). A no-op on a
    /// running node.
    fn reboot_node(&mut self, node: NodeId) {
        let now = self.now;
        let slot = &mut self.nodes[node.0];
        if !slot.crashed {
            return;
        }
        slot.crashed = false;
        slot.os.set_now(now);
        slot.os.battery.recharge(now);
        let flushed = slot.os.crash_flush();
        if let Some(make) = slot.factory.as_ref() {
            slot.agent = Some(make());
        }
        self.stats.node_reboots += 1;
        // The buffer was flushed at crash time, so this is normally empty —
        // settled anyway so a future code path can't reintroduce the leak.
        for id in flushed {
            self.settle_send(id);
        }
        tr!(self, node, NodeReboot, "reboot", 0, 0);
        if self.nodes[node.0].agent.is_some() {
            self.schedule(now, EventKind::StartAgent { node });
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

    /// Accounts for one terminal event — delivery or drop — of one copy of
    /// a sent datagram, removing the record when no copies remain.
    fn settle_send(&mut self, id: u64) {
        if let Some(rec) = self.sent_at.get_mut(&id) {
            rec.copies -= 1;
            if rec.copies == 0 {
                self.sent_at.remove(&id);
            }
        }
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

    /// One data-plane step at `node`: deliver locally, forward via the
    /// kernel route table, or trap to the netfilter hook.
    fn data_plane(&mut self, node: NodeId, packet: DataPacket) {
        let local_addr = self.nodes[node.0].os.addr();
        if packet.dst == local_addr {
            // First delivery claims the send record's latency; with
            // duplication active, later copies are counted separately.
            let first = self
                .sent_at
                .get(&packet.id)
                .filter(|rec| !rec.delivered)
                .map(|rec| rec.at);
            if self.dedupe_delivery && first.is_none() {
                self.stats.data_dup_delivered += 1;
                tr!(self, node, DataDrop, "duplicate", packet.id, packet.ttl);
                self.settle_send(packet.id);
                return;
            }
            self.stats.data_delivered += 1;
            if let Some(sent) = first {
                let latency = self.now.since(sent);
                self.stats.delivery_latency_total = self.stats.delivery_latency_total + latency;
                self.stats.delivery_latencies_us.push(latency.as_micros());
            }
            tr!(
                self,
                node,
                DataDeliver,
                "data",
                packet.id,
                first.map_or(0, |sent| self.now.since(sent).as_micros())
            );
            if let Some(rec) = self.sent_at.get_mut(&packet.id) {
                rec.delivered = true;
            }
            self.settle_send(packet.id);
            return;
        }
        let route = self.nodes[node.0]
            .os
            .route_table()
            .lookup(packet.dst)
            .cloned();
        match route {
            Some(entry) => self.forward(node, packet, entry.next_hop),
            None if self.geo_routing => {
                // Agentless greedy geographic forwarding: relay via the
                // neighbour strictly closest to the destination, or drop at
                // a local minimum. An explicit route entry (above) always
                // wins, so agents can override geo decisions per prefix.
                let hop = self
                    .node_of(packet.dst)
                    .and_then(|dst_node| self.topo.geo_next_hop(node, dst_node));
                match hop {
                    Some(nb) => {
                        let next_hop = self.nodes[nb.0].os.addr();
                        self.forward(node, packet, next_hop);
                    }
                    None => {
                        self.stats.data_dropped_link += 1;
                        tr!(self, node, DataDrop, "geo_dead_end", packet.id, packet.ttl);
                        self.settle_send(packet.id);
                    }
                }
            }
            None => {
                if packet.src == local_addr {
                    // Locally originated: buffer and raise NO_ROUTE.
                    let dst = packet.dst;
                    let os = &mut self.nodes[node.0].os;
                    let q = os.nf_buffer.entry(dst).or_default();
                    q.push_back(packet);
                    let overflow = if q.len() > os.nf_buffer_cap {
                        q.pop_front()
                    } else {
                        None
                    };
                    if let Some(old) = overflow {
                        self.stats.data_dropped_buffer += 1;
                        tr!(self, node, DataDrop, "buffer", old.id, old.ttl);
                        self.settle_send(old.id);
                    }
                    self.with_agent(node, |agent, os| {
                        agent.on_filter_event(os, FilterEvent::NoRoute { dst });
                    });
                } else {
                    // Transit packet with no route: drop and raise the
                    // route-error trigger.
                    self.stats.data_dropped_link += 1;
                    tr!(self, node, DataDrop, "no_route", packet.id, packet.ttl);
                    self.settle_send(packet.id);
                    let (src, dst) = (packet.src, packet.dst);
                    self.with_agent(node, |agent, os| {
                        agent.on_filter_event(
                            os,
                            FilterEvent::ForwardFailure {
                                dst,
                                src,
                                next_hop: dst,
                            },
                        );
                    });
                }
            }
        }
    }

    fn forward(&mut self, node: NodeId, packet: DataPacket, next_hop: Address) {
        let Some(nb) = self.node_of(next_hop) else {
            self.stats.data_dropped_link += 1;
            tr!(self, node, DataDrop, "bad_next_hop", packet.id, packet.ttl);
            self.settle_send(packet.id);
            return;
        };
        if self.phy.is_some() {
            // Channel-model path: routing decisions (TTL, RouteUsed
            // feedback) happen at enqueue; link loss and chaos are sampled
            // only when the frame actually transmits (drop-at-dequeue), so
            // fault plans replay identically however the queue stretches.
            let Some(next_packet) = packet.next_hop_copy() else {
                self.stats.data_dropped_ttl += 1;
                tr!(self, node, DataDrop, "ttl", packet.id, packet.ttl);
                self.settle_send(packet.id);
                return;
            };
            let dst = next_packet.dst;
            self.with_agent(node, |agent, os| {
                agent.on_filter_event(os, FilterEvent::RouteUsed { dst, next_hop });
            });
            self.phy_enqueue(
                node,
                PhyJob::Data {
                    nb,
                    packet: next_packet,
                },
            );
            return;
        }
        let local_addr = self.nodes[node.0].os.addr();
        let link_ok = self.reachable(node, nb) && !self.sample_link_loss(node, nb);
        if !link_ok {
            self.stats.data_dropped_link += 1;
            tr!(self, node, DataDrop, "link", packet.id, packet.ttl);
            self.settle_send(packet.id);
            let dst = packet.dst;
            let src = packet.src;
            if self.link_feedback {
                self.with_agent(node, |agent, os| {
                    agent.on_filter_event(
                        os,
                        FilterEvent::TxFailed {
                            neighbour: next_hop,
                        },
                    );
                });
            }
            if src != local_addr {
                self.with_agent(node, |agent, os| {
                    agent.on_filter_event(os, FilterEvent::ForwardFailure { dst, src, next_hop });
                });
            }
            return;
        }
        let Some(next_packet) = packet.next_hop_copy() else {
            self.stats.data_dropped_ttl += 1;
            tr!(self, node, DataDrop, "ttl", packet.id, packet.ttl);
            self.settle_send(packet.id);
            return;
        };
        let wire = next_packet.wire_len();
        self.nodes[node.0].os.battery.drain_tx(wire);
        self.stats.data_hops += 1;
        tr!(self, node, DataHop, "data", nb.0, next_packet.ttl);
        let dst = next_packet.dst;
        self.with_agent(node, |agent, os| {
            agent.on_filter_event(os, FilterEvent::RouteUsed { dst, next_hop });
        });
        let chaos = self.fault.chaos;
        if chaos.is_active() {
            // All chaos draws come from the plan's RNG so the base
            // simulation stream is unchanged by enabling a fault plan.
            if chaos.corrupt > 0.0 && self.fault.rng.gen_bool(chaos.corrupt) {
                self.stats.data_corrupted += 1;
                tr!(
                    self,
                    node,
                    DataDrop,
                    "corrupt",
                    next_packet.id,
                    next_packet.ttl
                );
                self.settle_send(next_packet.id);
                return;
            }
            let copies = if chaos.duplicate > 0.0 && self.fault.rng.gen_bool(chaos.duplicate) {
                self.stats.data_duplicated += 1;
                // The clone is a second in-flight copy of the same id; the
                // send record must outlive both.
                if let Some(rec) = self.sent_at.get_mut(&next_packet.id) {
                    rec.copies += 1;
                }
                2
            } else {
                1
            };
            for _ in 0..copies {
                let mut delay = self.link_model.sample_delay(&mut self.rng);
                if chaos.reorder > 0.0 && self.fault.rng.gen_bool(chaos.reorder) {
                    self.stats.data_reordered += 1;
                    let extra = self
                        .fault
                        .rng
                        .gen_range(0..=chaos.reorder_spread.as_micros());
                    delay = delay + SimDuration::from_micros(extra);
                }
                self.schedule(
                    self.now + delay,
                    EventKind::Arrival {
                        node: nb,
                        from: node,
                        frame: Frame::Data(next_packet.clone()),
                    },
                );
            }
            return;
        }
        let delay = self.link_model.sample_delay(&mut self.rng);
        self.schedule(
            self.now + delay,
            EventKind::Arrival {
                node: nb,
                from: node,
                frame: Frame::Data(next_packet),
            },
        );
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

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::{Arc, Mutex};

    /// What an [`Echo`] agent observed, shared with the test body.
    #[derive(Default)]
    struct Observed {
        frames: Vec<Vec<u8>>,
        timers: Vec<u64>,
        filter_events: Vec<FilterEvent>,
        contexts: u32,
    }

    /// Minimal agent recording everything it sees — exercises plumbing.
    struct Echo {
        observed: Arc<Mutex<Observed>>,
    }

    impl Echo {
        fn new() -> Self {
            Echo {
                observed: Arc::new(Mutex::new(Observed::default())),
            }
        }

        fn observed(&self) -> Arc<Mutex<Observed>> {
            self.observed.clone()
        }
    }

    impl RoutingAgent for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn start(&mut self, os: &mut NodeOs) {
            os.set_timer(SimDuration::from_millis(10), 1);
        }
        fn on_frame(&mut self, _os: &mut NodeOs, _from: Address, bytes: &[u8]) {
            self.observed.lock().unwrap().frames.push(bytes.to_vec());
        }
        fn on_timer(&mut self, _os: &mut NodeOs, token: u64) {
            self.observed.lock().unwrap().timers.push(token);
        }
        fn on_filter_event(&mut self, _os: &mut NodeOs, event: FilterEvent) {
            self.observed.lock().unwrap().filter_events.push(event);
        }
        fn on_context(&mut self, _os: &mut NodeOs, _sample: ContextSample) {
            self.observed.lock().unwrap().contexts += 1;
        }
    }

    fn two_node_world() -> World {
        World::builder().topology(Topology::full(2)).seed(1).build()
    }

    #[test]
    fn unique_addresses() {
        let w = World::builder().nodes(300).build();
        let mut seen = std::collections::HashSet::new();
        for i in 0..300 {
            assert!(seen.insert(w.addr(NodeId(i))), "address collision at {i}");
        }
    }

    #[test]
    fn broadcast_reaches_neighbours_only() {
        let mut w = World::builder().topology(Topology::line(3)).seed(3).build();
        for i in 0..3 {
            w.install_agent(NodeId(i), Box::new(Echo::new()));
        }
        w.os_mut(NodeId(0)).broadcast_control(vec![42]);
        w.run_for(SimDuration::from_millis(50));
        let stats = w.stats();
        // Node 0 has one neighbour (node 1); node 2 is out of range.
        assert_eq!(stats.control_frames, 1);
        assert_eq!(stats.control_received, 1);
    }

    /// Records the decoded message every reception was answered with.
    struct Decoder {
        heard: Arc<Mutex<Vec<Arc<packetbb::Message>>>>,
    }

    impl RoutingAgent for Decoder {
        fn name(&self) -> &str {
            "decoder"
        }
        fn start(&mut self, _os: &mut NodeOs) {}
        fn on_frame(&mut self, os: &mut NodeOs, _from: Address, bytes: &[u8]) {
            let frame = os.decode_control(bytes);
            let messages = frame.get().expect("a valid packet was sent");
            self.heard.lock().unwrap().extend_from_slice(messages);
        }
        fn on_timer(&mut self, _os: &mut NodeOs, _token: u64) {}
        fn on_filter_event(&mut self, _os: &mut NodeOs, _event: FilterEvent) {}
    }

    #[test]
    fn every_receiver_of_a_broadcast_reads_one_decode() {
        let channel = phy::Channel {
            bits_per_sec: 1_000_000,
            queue_frames: 8,
        };
        for model in [PhyModel::Ideal, PhyModel::SharedAirtime(channel)] {
            let mut w = World::builder()
                .topology(Topology::full(4))
                .phy(model)
                .seed(6)
                .build();
            let heard = Arc::new(Mutex::new(Vec::new()));
            for i in 0..4 {
                let heard = Arc::clone(&heard);
                w.install_agent(NodeId(i), Box::new(Decoder { heard }));
            }
            let msg = packetbb::MessageBuilder::new(1).seq_num(5).build();
            let bytes = packetbb::Packet::single(msg).encode_to_vec();
            w.os_mut(NodeId(0)).broadcast_control(bytes);
            w.run_for(SimDuration::from_millis(50));
            let heard = heard.lock().unwrap();
            assert_eq!(heard.len(), 3, "three neighbours, one message each");
            assert!(heard.iter().all(|m| Arc::ptr_eq(m, &heard[0])));
        }
    }

    #[test]
    fn phy_enqueue_without_an_engine_sends_at_once() {
        let mut w = World::builder().topology(Topology::full(4)).seed(6).build();
        let heard = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4 {
            let heard = Arc::clone(&heard);
            w.install_agent(NodeId(i), Box::new(Decoder { heard }));
        }
        let msg = packetbb::MessageBuilder::new(1).seq_num(5).build();
        let frame = ControlFrame::new(packetbb::Packet::single(msg).encode_to_vec());
        w.phy_enqueue(NodeId(0), PhyJob::Broadcast { frame });
        w.run_for(SimDuration::from_millis(50));
        assert_eq!(heard.lock().unwrap().len(), 3);
        assert_eq!(w.stats().phy_frames_tx, 0);
    }

    #[test]
    fn timers_fire_and_cancel() {
        let mut w = two_node_world();
        let echo = Echo::new();
        let observed = echo.observed();
        w.install_agent(NodeId(0), Box::new(echo));
        w.os_mut(NodeId(0))
            .set_timer(SimDuration::from_millis(5), 7);
        w.os_mut(NodeId(0))
            .set_timer(SimDuration::from_millis(6), 8);
        w.os_mut(NodeId(0)).cancel_timer(8);
        w.run_for(SimDuration::from_millis(20));
        let obs = observed.lock().unwrap();
        assert!(obs.timers.contains(&1), "start timer fired");
        assert!(obs.timers.contains(&7));
        assert!(!obs.timers.contains(&8), "cancelled timer must not fire");
    }

    #[test]
    fn no_route_buffers_and_reinjects() {
        let mut w = World::builder().topology(Topology::full(2)).seed(2).build();
        w.install_agent(NodeId(0), Box::new(Echo::new()));
        let dst = w.addr(NodeId(1));
        w.send_datagram(NodeId(0), dst, b"x".to_vec());
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.stats().data_delivered, 0);
        assert_eq!(w.os(NodeId(0)).buffered_count(dst), 1);
        // Install a route and reinject, as a protocol would on ROUTE_FOUND.
        w.os_mut(NodeId(0))
            .route_table_mut()
            .add_host_route(dst, dst, 1);
        w.os_mut(NodeId(0)).reinject(dst);
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.stats().data_delivered, 1);
        assert_eq!(w.os(NodeId(0)).buffered_count(dst), 0);
    }

    #[test]
    fn multi_hop_forwarding_with_static_routes() {
        let mut w = World::builder().topology(Topology::line(3)).seed(4).build();
        let a2 = w.addr(NodeId(2));
        let a1 = w.addr(NodeId(1));
        w.os_mut(NodeId(0))
            .route_table_mut()
            .add_host_route(a2, a1, 2);
        w.os_mut(NodeId(1))
            .route_table_mut()
            .add_host_route(a2, a2, 1);
        w.send_datagram(NodeId(0), a2, b"hop".to_vec());
        w.run_for(SimDuration::from_millis(50));
        let s = w.stats();
        assert_eq!(s.data_delivered, 1);
        assert_eq!(s.data_hops, 2);
        assert!(s.mean_delivery_latency() > SimDuration::ZERO);
    }

    #[test]
    fn ttl_limits_forwarding_loops() {
        let mut w = World::builder()
            .topology(Topology::full(2))
            .seed(5)
            .default_ttl(4)
            .build();
        let a0 = w.addr(NodeId(0));
        let a1 = w.addr(NodeId(1));
        let ghost = Address::v4([10, 9, 9, 9]);
        // Routing loop: each node points at the other for `ghost`.
        w.os_mut(NodeId(0))
            .route_table_mut()
            .add_host_route(ghost, a1, 1);
        w.os_mut(NodeId(1))
            .route_table_mut()
            .add_host_route(ghost, a0, 1);
        w.send_datagram(NodeId(0), ghost, b"loop".to_vec());
        w.run_for(SimDuration::from_secs(1));
        let s = w.stats();
        assert_eq!(s.data_delivered, 0);
        assert_eq!(s.data_dropped_ttl, 1);
        assert!(s.data_hops <= 4);
    }

    #[test]
    fn link_change_breaks_connectivity() {
        let mut w = two_node_world();
        let dst = w.addr(NodeId(1));
        w.os_mut(NodeId(0))
            .route_table_mut()
            .add_host_route(dst, dst, 1);
        w.schedule_link_change(
            SimTime::from_micros(1),
            NodeId(0),
            NodeId(1),
            LinkState::Down,
        );
        w.run_for(SimDuration::from_millis(1));
        w.send_datagram(NodeId(0), dst, b"x".to_vec());
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.stats().data_delivered, 0);
        assert_eq!(w.stats().data_dropped_link, 1);
    }

    #[test]
    fn context_ticks_reach_agent() {
        let mut w = World::builder()
            .nodes(1)
            .context_interval(SimDuration::from_millis(100))
            .build();
        let echo = Echo::new();
        let observed = echo.observed();
        w.install_agent(NodeId(0), Box::new(echo));
        w.run_for(SimDuration::from_millis(450));
        // Ticks at 100/200/300/400 ms.
        assert_eq!(observed.lock().unwrap().contexts, 4);
    }

    #[test]
    fn forward_failure_event_on_transit_without_route() {
        // 0 -> 1 -> 2, but node 1 has no route to node 2's address.
        let mut w = World::builder().topology(Topology::line(3)).seed(6).build();
        let echo = Echo::new();
        let observed = echo.observed();
        w.install_agent(NodeId(1), Box::new(echo));
        let a1 = w.addr(NodeId(1));
        let a2 = w.addr(NodeId(2));
        w.os_mut(NodeId(0))
            .route_table_mut()
            .add_host_route(a2, a1, 2);
        w.send_datagram(NodeId(0), a2, b"x".to_vec());
        w.run_for(SimDuration::from_millis(50));
        let obs = observed.lock().unwrap();
        assert!(
            obs.filter_events
                .iter()
                .any(|e| matches!(e, FilterEvent::ForwardFailure { dst, .. } if *dst == a2)),
            "transit node must raise ForwardFailure, got {:?}",
            obs.filter_events
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut w = World::builder()
                .topology(Topology::random_geometric(10, 0.5, 9))
                .seed(seed)
                .link_model(LinkModel {
                    loss: 0.3,
                    ..LinkModel::default()
                })
                .build();
            for i in 0..10 {
                w.install_agent(NodeId(i), Box::new(Echo::new()));
            }
            for _ in 0..20 {
                w.os_mut(NodeId(0)).broadcast_control(vec![1, 2, 3]);
                w.run_for(SimDuration::from_millis(10));
            }
            let s = w.stats();
            (s.control_received, s.control_lost)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    // ---- fault injection ---------------------------------------------------

    use crate::fault::{FaultPlan, FrameChaos};

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    #[test]
    fn crash_suspends_node_and_reboot_restarts_it() {
        let plan = FaultPlan::builder(0)
            .crash_for(ms(5), NodeId(1), SimDuration::from_millis(10))
            .build();
        let mut w = World::builder()
            .topology(Topology::full(2))
            .seed(1)
            .fault_plan(plan)
            .build();
        let echo = Echo::new();
        let observed = echo.observed();
        w.install_agent(NodeId(1), Box::new(echo));
        let dst = w.addr(NodeId(1));
        let back = w.addr(NodeId(0));
        w.os_mut(NodeId(0))
            .route_table_mut()
            .add_host_route(dst, dst, 1);
        w.os_mut(NodeId(1))
            .route_table_mut()
            .add_host_route(back, back, 1);
        w.run_for(SimDuration::from_millis(4));
        assert!(w.node_up(NodeId(1)));
        w.run_for(SimDuration::from_millis(3)); // crash fires at 5 ms
        assert!(!w.node_up(NodeId(1)));
        assert!(
            w.os(NodeId(1)).route_table().is_empty(),
            "crash must flush the kernel route table"
        );
        w.send_datagram(NodeId(0), dst, b"x".to_vec());
        w.run_for(SimDuration::from_millis(3));
        assert_eq!(w.stats().data_delivered, 0, "crashed node receives nothing");
        w.run_for(SimDuration::from_millis(10)); // reboot fired at 15 ms
        assert!(w.node_up(NodeId(1)));
        w.send_datagram(NodeId(0), dst, b"y".to_vec());
        w.run_for(SimDuration::from_millis(10));
        let s = w.stats();
        assert_eq!(s.data_delivered, 1);
        assert_eq!(s.node_crashes, 1);
        assert_eq!(s.node_reboots, 1);
        let obs = observed.lock().unwrap();
        // The pre-crash start timer (armed at 0, due at 10 ms) is stale by
        // epoch; only the post-reboot start's timer (due 25 ms) fires.
        assert_eq!(obs.timers, vec![1]);
    }

    #[test]
    fn crash_drops_buffered_packets() {
        let plan = FaultPlan::builder(0).crash(ms(5), NodeId(0)).build();
        let mut w = World::builder()
            .topology(Topology::full(2))
            .seed(2)
            .fault_plan(plan)
            .build();
        w.install_agent(NodeId(0), Box::new(Echo::new()));
        let dst = w.addr(NodeId(1));
        // No route: the packet parks in the netfilter buffer, then the
        // crash flushes it.
        w.send_datagram(NodeId(0), dst, b"x".to_vec());
        w.run_for(SimDuration::from_millis(10));
        let s = w.stats();
        assert_eq!(s.data_dropped_crash, 1);
        assert_eq!(s.node_crashes, 1);
        assert_eq!(s.faults_injected, 1);
    }

    #[test]
    fn partition_cuts_and_heals() {
        let plan = FaultPlan::builder(0)
            .partition(
                ms(5),
                ms(20),
                "split",
                vec![vec![NodeId(0)], vec![NodeId(1)]],
            )
            .build();
        let mut w = World::builder()
            .topology(Topology::full(2))
            .seed(3)
            .fault_plan(plan)
            .build();
        let dst = w.addr(NodeId(1));
        w.os_mut(NodeId(0))
            .route_table_mut()
            .add_host_route(dst, dst, 1);
        w.run_for(SimDuration::from_millis(6));
        assert_eq!(w.active_partitions(), vec!["split"]);
        w.send_datagram(NodeId(0), dst, b"cut".to_vec());
        w.run_for(SimDuration::from_millis(5));
        assert_eq!(w.stats().data_delivered, 0);
        assert_eq!(w.stats().data_dropped_link, 1);
        w.run_for(SimDuration::from_millis(10)); // heal fires at 20 ms
        assert!(w.active_partitions().is_empty());
        w.send_datagram(NodeId(0), dst, b"ok".to_vec());
        w.run_for(SimDuration::from_millis(10));
        let s = w.stats();
        assert_eq!(s.data_delivered, 1);
        assert_eq!(s.partitions_started, 1);
        assert_eq!(s.partitions_healed, 1);
    }

    #[test]
    fn battery_exhaustion_downs_node_until_reboot() {
        let plan = FaultPlan::builder(0)
            .battery_exhaust(ms(5), NodeId(0))
            .reboot(ms(10), NodeId(0))
            .build();
        let mut w = World::builder().nodes(1).seed(4).fault_plan(plan).build();
        w.run_for(SimDuration::from_millis(7));
        assert!(!w.node_up(NodeId(0)));
        assert_eq!(w.os(NodeId(0)).battery_level(), 0.0);
        w.run_for(SimDuration::from_millis(7));
        assert!(w.node_up(NodeId(0)));
        assert!(
            w.os(NodeId(0)).battery_level() > 0.99,
            "reboot restores a fresh battery"
        );
        let s = w.stats();
        assert_eq!(s.battery_exhaustions, 1);
        assert_eq!(s.node_reboots, 1);
        assert_eq!(s.node_crashes, 0, "exhaustion is counted separately");
    }

    #[test]
    fn chaos_corruption_drops_every_frame() {
        let plan = FaultPlan::builder(7)
            .chaos(FrameChaos {
                corrupt: 1.0,
                ..FrameChaos::default()
            })
            .build();
        let mut w = World::builder()
            .topology(Topology::full(2))
            .seed(5)
            .fault_plan(plan)
            .build();
        let dst = w.addr(NodeId(1));
        w.os_mut(NodeId(0))
            .route_table_mut()
            .add_host_route(dst, dst, 1);
        for _ in 0..5 {
            w.send_datagram(NodeId(0), dst, b"x".to_vec());
        }
        w.run_for(SimDuration::from_millis(20));
        let s = w.stats();
        assert_eq!(s.data_delivered, 0);
        assert_eq!(s.data_corrupted, 5);
    }

    #[test]
    fn chaos_duplication_does_not_inflate_delivery() {
        let plan = FaultPlan::builder(7)
            .chaos(FrameChaos {
                duplicate: 1.0,
                ..FrameChaos::default()
            })
            .build();
        let mut w = World::builder()
            .topology(Topology::full(2))
            .seed(6)
            .fault_plan(plan)
            .build();
        let dst = w.addr(NodeId(1));
        w.os_mut(NodeId(0))
            .route_table_mut()
            .add_host_route(dst, dst, 1);
        for _ in 0..5 {
            w.send_datagram(NodeId(0), dst, b"x".to_vec());
        }
        w.run_for(SimDuration::from_millis(20));
        let s = w.stats();
        assert_eq!(s.data_delivered, 5, "duplicates must not inflate delivery");
        assert_eq!(s.data_duplicated, 5);
        assert_eq!(s.data_dup_delivered, 5);
        assert_eq!(s.delivery_latencies_us.len(), 5);
    }

    #[test]
    fn reboot_factory_replaces_agent_cold() {
        let plan = FaultPlan::builder(0)
            .crash_for(ms(5), NodeId(0), SimDuration::from_millis(1))
            .build();
        let mut w = World::builder().nodes(1).seed(7).fault_plan(plan).build();
        let old = Echo::new();
        let old_obs = old.observed();
        w.install_agent(NodeId(0), Box::new(old));
        let replacements: Arc<Mutex<Vec<Arc<Mutex<Observed>>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = replacements.clone();
        w.set_reboot_factory(NodeId(0), move || {
            let e = Echo::new();
            sink.lock().unwrap().push(e.observed());
            Box::new(e)
        });
        w.run_for(SimDuration::from_millis(30));
        assert!(
            old_obs.lock().unwrap().timers.is_empty(),
            "the replaced agent's timer must never fire"
        );
        let spawned = replacements.lock().unwrap();
        assert_eq!(spawned.len(), 1, "one reboot builds one fresh agent");
        assert_eq!(spawned[0].lock().unwrap().timers, vec![1]);
    }

    #[test]
    fn take_window_isolates_traffic_phases() {
        let mut w = two_node_world();
        let dst = w.addr(NodeId(1));
        w.os_mut(NodeId(0))
            .route_table_mut()
            .add_host_route(dst, dst, 1);
        w.send_datagram(NodeId(0), dst, b"a".to_vec());
        w.run_for(SimDuration::from_millis(10));
        let w1 = w.take_window();
        assert_eq!(w1.data_sent, 1);
        assert_eq!(w1.data_delivered, 1);
        w.send_datagram(NodeId(0), dst, b"b".to_vec());
        w.send_datagram(NodeId(0), dst, b"c".to_vec());
        w.run_for(SimDuration::from_millis(10));
        let w2 = w.take_window();
        assert_eq!(w2.data_sent, 2);
        assert_eq!(w2.data_delivered, 2);
        assert_eq!(w2.delivery_latencies_us.len(), 2);
    }

    #[test]
    fn fault_plan_runs_are_deterministic() {
        let run = || {
            let plan = FaultPlan::builder(21)
                .churn(
                    vec![NodeId(0), NodeId(1), NodeId(2)],
                    SimDuration::from_millis(40),
                    SimDuration::from_millis(15),
                    SimTime::ZERO,
                    SimTime::ZERO + SimDuration::from_millis(400),
                )
                .chaos(FrameChaos {
                    corrupt: 0.1,
                    duplicate: 0.1,
                    reorder: 0.2,
                    ..FrameChaos::default()
                })
                .build();
            let mut w = World::builder()
                .topology(Topology::full(4))
                .seed(9)
                .link_model(LinkModel {
                    loss: 0.1,
                    ..LinkModel::default()
                })
                .fault_plan(plan)
                .build();
            let dst = w.addr(NodeId(3));
            for i in 0..3 {
                w.os_mut(NodeId(i))
                    .route_table_mut()
                    .add_host_route(dst, dst, 1);
            }
            for k in 0..40u64 {
                w.send_datagram(NodeId((k % 3) as usize), dst, vec![k as u8]);
                w.run_for(SimDuration::from_millis(10));
            }
            w.stats()
        };
        assert_eq!(run(), run(), "same seeds, byte-identical statistics");
    }

    // ---- send-record settlement (leak regression) --------------------------

    #[test]
    fn ttl_drops_settle_send_records() {
        let mut w = World::builder()
            .topology(Topology::full(2))
            .seed(5)
            .default_ttl(4)
            .build();
        let a0 = w.addr(NodeId(0));
        let a1 = w.addr(NodeId(1));
        let ghost = Address::v4([10, 9, 9, 9]);
        w.os_mut(NodeId(0))
            .route_table_mut()
            .add_host_route(ghost, a1, 1);
        w.os_mut(NodeId(1))
            .route_table_mut()
            .add_host_route(ghost, a0, 1);
        for _ in 0..5 {
            w.send_datagram(NodeId(0), ghost, b"loop".to_vec());
        }
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.stats().data_dropped_ttl, 5);
        assert_eq!(
            w.outstanding_sends(),
            0,
            "every looped packet must settle its send record"
        );
    }

    #[test]
    fn geo_dead_end_drops_settle_send_records() {
        let positions = vec![(0.05, 0.5), (0.30, 0.5), (0.95, 0.5)];
        let mut w = World::builder()
            .topology(Topology::spatial(positions, 0.3))
            .seed(1)
            .geo_routing(true)
            .build();
        let dst = w.addr(NodeId(2));
        for _ in 0..4 {
            w.send_datagram(NodeId(0), dst, b"x".to_vec());
        }
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(w.stats().data_delivered, 0);
        assert_eq!(w.outstanding_sends(), 0, "dead-end drops must settle");
    }

    #[test]
    fn crash_flush_settles_buffered_send_records() {
        let plan = FaultPlan::builder(0).crash(ms(5), NodeId(0)).build();
        let mut w = World::builder()
            .topology(Topology::full(2))
            .seed(2)
            .fault_plan(plan)
            .build();
        w.install_agent(NodeId(0), Box::new(Echo::new()));
        let dst = w.addr(NodeId(1));
        // No route: the packet parks in the netfilter buffer.
        w.send_datagram(NodeId(0), dst, b"x".to_vec());
        w.run_for(SimDuration::from_millis(2));
        assert_eq!(w.outstanding_sends(), 1, "buffered packet is in flight");
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.stats().data_dropped_crash, 1);
        assert_eq!(w.outstanding_sends(), 0, "crash flush must settle");
    }

    #[test]
    fn duplicated_copies_settle_to_empty_map() {
        let plan = FaultPlan::builder(7)
            .chaos(FrameChaos {
                duplicate: 1.0,
                ..FrameChaos::default()
            })
            .build();
        let mut w = World::builder()
            .topology(Topology::line(3))
            .seed(6)
            .fault_plan(plan)
            .build();
        let a2 = w.addr(NodeId(2));
        let a1 = w.addr(NodeId(1));
        w.os_mut(NodeId(0))
            .route_table_mut()
            .add_host_route(a2, a1, 2);
        w.os_mut(NodeId(1))
            .route_table_mut()
            .add_host_route(a2, a2, 1);
        for _ in 0..6 {
            w.send_datagram(NodeId(0), a2, b"x".to_vec());
        }
        w.run_for(SimDuration::from_millis(100));
        let s = w.stats();
        assert_eq!(s.data_delivered, 6);
        assert!(s.data_dup_delivered > 0, "duplication must be exercised");
        assert_eq!(
            w.outstanding_sends(),
            0,
            "every duplicated copy must settle the shared record"
        );
    }

    // ---- geographic forwarding --------------------------------------------

    #[test]
    fn geo_routing_delivers_multi_hop_without_agents() {
        let positions = vec![(0.05, 0.5), (0.30, 0.5), (0.55, 0.5), (0.80, 0.5)];
        let mut w = World::builder()
            .topology(Topology::spatial(positions, 0.3))
            .seed(1)
            .geo_routing(true)
            .build();
        let dst = w.addr(NodeId(3));
        w.send_datagram(NodeId(0), dst, b"geo".to_vec());
        w.run_for(SimDuration::from_millis(100));
        let s = w.stats();
        assert_eq!(s.data_delivered, 1);
        assert_eq!(s.data_hops, 3, "greedy forwarding walks the line");
        assert_eq!(s.control_frames, 0, "no agents, no control traffic");
    }

    #[test]
    fn geo_routing_drops_at_dead_end() {
        // Node 1 is the closest to the destination among node 0's
        // neighbours, but the destination is out of node 1's range and no
        // neighbour of node 1 is strictly closer: a greedy local minimum.
        let positions = vec![(0.05, 0.5), (0.30, 0.5), (0.95, 0.5)];
        let mut w = World::builder()
            .topology(Topology::spatial(positions, 0.3))
            .seed(1)
            .geo_routing(true)
            .build();
        let dst = w.addr(NodeId(2));
        w.send_datagram(NodeId(0), dst, b"x".to_vec());
        w.run_for(SimDuration::from_millis(100));
        let s = w.stats();
        assert_eq!(s.data_delivered, 0);
        assert!(s.data_dropped_link >= 1, "dead end counts as a link drop");
    }

    #[test]
    fn scheduled_moves_change_geo_reachability() {
        // The destination starts out of radio range; a scheduled move
        // brings it adjacent, flipping geo reachability mid-run.
        let positions = vec![(0.1, 0.5), (0.9, 0.5)];
        let mut w = World::builder()
            .topology(Topology::spatial(positions, 0.3))
            .seed(1)
            .geo_routing(true)
            .build();
        let dst = w.addr(NodeId(1));
        // Early send: endpoints are 0.8 apart, unreachable.
        w.send_datagram(NodeId(0), dst, b"early".to_vec());
        w.run_for(SimDuration::from_millis(5));
        assert_eq!(w.stats().data_delivered, 0);
        // Move node 1 adjacent to node 0, then send again.
        w.schedule_node_move(
            SimTime::ZERO + SimDuration::from_millis(10),
            NodeId(1),
            0.3,
            0.5,
        );
        w.send_datagram_at(
            SimTime::ZERO + SimDuration::from_millis(20),
            NodeId(0),
            dst,
            b"late".to_vec(),
        );
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(w.stats().data_delivered, 1, "post-move send is deliverable");
        assert_eq!(w.topology().position(NodeId(1)), Some((0.3, 0.5)));
    }
}
