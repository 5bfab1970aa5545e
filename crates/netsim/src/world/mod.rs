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
//! `data_plane` routing steps and datagram accounting; `stream` the inputs
//! generated as time advances (the walk, CBR flows); `fault` crash,
//! reboot and partition enactment; `controlled` the model checker's seam.

use std::any::Any;
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use simkern::{EventHandle, EventQueue};

use packetbb::Address;
use phy::TxId;
use rand::rngs::StdRng;

use crate::agent::{ContextSample, FilterEvent, RoutingAgent};
use crate::counter::Counters;
use crate::fault::{FaultInjector, FaultKind};
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
mod stream;
#[cfg(test)]
mod tests;

pub use builder::WorldBuilder;
pub use controlled::{PendingClass, PendingEvent};

use data_plane::{DataDrop, SendWindow};
use radio::{PhyChannel, PhyJob};
use stream::Stream;

#[derive(Debug, Clone)]
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
    /// time ([`World::send_datagram_at`]): accounted as sent when the event
    /// fires, so windowed stats attribute pre-scheduled traffic to the
    /// phase in which it flows.
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
    /// The pending event of stream `i` (a walk step or a CBR datagram),
    /// which schedules the stream's next under its next reserved seq.
    Stream(u32),
    ContextTick {
        node: NodeId,
    },
    /// A phy-layer transmission finishes serializing onto the air. Always
    /// current: when a fair-share rate reallocation moves the deadline, or
    /// a crash aborts the frame, the event is cancelled (see
    /// `World::schedule_phy`).
    PhyComplete {
        tx: TxId,
        seq: u64,
    },
    Fault(FaultKind),
}

/// Builds a fresh agent for a rebooting node (true cold boot). Shared, so
/// a [`World::fork`] reboots with the same factory.
pub type RebootFactory = Arc<dyn Fn() -> Box<dyn RoutingAgent> + Send + Sync>;

/// A node's agent, shared copy-on-write by the forks of a world.
///
/// [`World::fork`] shares the agent once its current state is known to
/// fork and nothing outside the world can change it. Until then a fork
/// copies it, which learns whether it forks (failing the whole fork when
/// not), and keeps the copy as the shared agent's spare. Every write goes
/// through [`write`](Self::write): a world writing an agent another world
/// shares first takes the spare, or else forks its own copy.
#[derive(Default)]
struct AgentSlot {
    agent: Option<Arc<SharedAgent>>,
    /// Set by a fork that copied the agent and found no outside writer:
    /// later forks share it. Cleared by every write, since a changed state
    /// may no longer fork.
    shareable: Cell<bool>,
}

/// An agent behind an `Arc`, with the copy that checked it forks.
struct SharedAgent {
    agent: Box<dyn RoutingAgent>,
    /// The copy the last check made, which the first world to write the
    /// agent while it is shared takes rather than forking another. It goes
    /// stale only when the agent is written in place, unshared; the check
    /// that lets forks share it again replaces it first.
    spare: Mutex<Option<Box<dyn RoutingAgent>>>,
}

impl SharedAgent {
    fn new(agent: Box<dyn RoutingAgent>) -> Self {
        SharedAgent {
            agent,
            spare: Mutex::new(None),
        }
    }

    fn spare(&self) -> MutexGuard<'_, Option<Box<dyn RoutingAgent>>> {
        self.spare.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for SharedAgent {
    /// The spare, or a fork, which succeeded on this very state before any
    /// world shared it.
    fn clone(&self) -> Self {
        let spare = self.spare().take();
        SharedAgent::new(spare.unwrap_or_else(|| {
            self.agent
                .fork()
                .expect("a shared agent forked when it was first shared")
        }))
    }
}

impl AgentSlot {
    fn new(agent: Box<dyn RoutingAgent>) -> Self {
        AgentSlot {
            agent: Some(Arc::new(SharedAgent::new(agent))),
            shareable: Cell::new(false),
        }
    }

    fn get(&self) -> Option<&dyn RoutingAgent> {
        self.agent.as_deref().map(|shared| shared.agent.as_ref())
    }

    /// The one way to write the agent: copies it first when another world
    /// shares it.
    fn write(&mut self) -> Option<&mut dyn RoutingAgent> {
        let shared = self.agent.as_mut()?;
        *self.shareable.get_mut() = false;
        Some(Arc::make_mut(shared).agent.as_mut())
    }

    /// Takes the agent out, copying it when another world shares it.
    fn take(&mut self) -> Option<Box<dyn RoutingAgent>> {
        self.write()?;
        let shared = self.agent.take()?;
        Some(Arc::into_inner(shared).expect("written, so unshared").agent)
    }

    /// The slot of a fork: this one's agent shared, or a copy of it while
    /// it has an outside writer. `None` when the agent does not fork.
    fn fork(&self) -> Option<AgentSlot> {
        let Some(shared) = &self.agent else {
            return Some(AgentSlot::default());
        };
        if !self.shareable.get() {
            let copy = shared.agent.fork()?;
            if shared.agent.has_outside_writer() {
                return Some(AgentSlot::new(copy));
            }
            *shared.spare() = Some(copy);
            self.shareable.set(true);
        }
        Some(AgentSlot {
            agent: Some(Arc::clone(shared)),
            shareable: Cell::new(true),
        })
    }
}

struct NodeSlot {
    os: NodeOs,
    agent: AgentSlot,
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
    /// The channel engine for non-ideal phy models, with its deadlines'
    /// events; `None` under [`PhyModel::Ideal`](phy::PhyModel::Ideal), the
    /// zero-airtime case of the one radio path.
    phy: Option<PhyChannel>,
    /// The inputs generated as time advances, indexed by
    /// [`EventKind::Stream`]: the walk and the CBR flows.
    streams: Vec<Stream>,
    /// Scratch for a broadcast's receivers, reused frame to frame.
    receivers: Vec<NodeId>,
    /// Greedy next hops answered since the topology last changed, keyed by
    /// `(from, dst)`: a flow's datagrams follow one greedy path until
    /// something moves, so most agentless hops are a lookup here rather
    /// than a scan of the spatial index ([`World::geo_next_hop`]). Ids are
    /// held as `u32` (a world has at most `MAX_NODES`), which halves the
    /// table a 10,000-node city refills every walk step.
    geo_hops: HashMap<(u32, u32), Option<u32>>,
}

/// A built `World` (agents installed or not) is `Send`: campaign engines
/// move whole worlds onto worker threads. Everything inside is owned plain
/// data or an agent its forks share, `RoutingAgent` and `RebootFactory` are
/// `Send + Sync` by bound, and the RNGs are plain structs — this assertion
/// keeps it that way.
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
        make: impl Fn() -> Box<dyn RoutingAgent> + Send + Sync + 'static,
    ) {
        self.nodes[node.0].factory = Some(Arc::new(make));
    }

    /// A node's agent as its concrete type: `None` when the node has no
    /// agent, or one of another type.
    #[must_use]
    pub fn agent<T: RoutingAgent>(&self, node: NodeId) -> Option<&T> {
        let agent: &dyn Any = self.nodes[node.0].agent.get()?;
        agent.downcast_ref()
    }

    /// Mutable [`agent`](Self::agent). What the caller changes is seen by
    /// the agent's next callback, which runs no earlier than the next
    /// event the world fires. An agent a fork still shares is copied
    /// first, so the change stays in this world.
    #[must_use]
    pub fn agent_mut<T: RoutingAgent>(&mut self, node: NodeId) -> Option<&mut T> {
        // Copies nothing for an agent of another type.
        self.agent::<T>(node)?;
        let agent: &mut dyn Any = self.nodes[node.0].agent.write()?;
        agent.downcast_mut()
    }

    /// An independent copy of the world in exactly its current state:
    /// the same pending events under the same handles and seqs (the
    /// kernel's free list and tombstones included), topology, RNGs,
    /// statistics, phy (with the handles of its deadlines), streams, faults
    /// and node OSes, and each agent. Fed the same inputs, the world and
    /// its fork then run identically, and neither sees what the other does.
    /// Frames in flight are immutable, so the two share them; reboot
    /// factories are shared too.
    ///
    /// Agents are copy-on-write: the two worlds share an agent until one of
    /// them writes it, and that one then copies it through
    /// [`RoutingAgent::fork`]. The first fork after an agent was written
    /// copies it at once, which learns whether it forks, and the first
    /// world to write the shared agent takes that copy. An agent with an
    /// outside writer ([`RoutingAgent::has_outside_writer`]) is never
    /// shared: every fork copies it.
    ///
    /// `None` when an installed agent cannot fork.
    #[must_use]
    pub fn fork(&self) -> Option<World> {
        // Spelled out field by field, so a new field must say how it forks.
        let World {
            now,
            kern,
            topo,
            link_model,
            nodes,
            stats,
            rng,
            next_packet_id,
            sent_at,
            link_feedback,
            context_interval,
            default_ttl,
            geo_routing,
            fault,
            dedupe_delivery,
            ge_phases,
            controlled,
            phy,
            streams,
            receivers: _,
            geo_hops,
        } = self;
        let nodes = nodes
            .iter()
            .map(|slot| {
                Some(NodeSlot {
                    os: slot.os.clone(),
                    agent: slot.agent.fork()?,
                    crashed: slot.crashed,
                    timers: slot.timers.clone(),
                    factory: slot.factory.clone(),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(World {
            now: *now,
            kern: kern.clone(),
            topo: topo.clone(),
            link_model: *link_model,
            nodes,
            stats: stats.clone(),
            rng: rng.clone(),
            next_packet_id: *next_packet_id,
            sent_at: sent_at.clone(),
            link_feedback: *link_feedback,
            context_interval: *context_interval,
            default_ttl: *default_ttl,
            geo_routing: *geo_routing,
            fault: fault.clone(),
            dedupe_delivery: *dedupe_delivery,
            ge_phases: ge_phases.clone(),
            controlled: *controlled,
            phy: phy.clone(),
            streams: streams.clone(),
            receivers: Vec::new(),
            geo_hops: geo_hops.clone(),
        })
    }

    /// Installs a routing agent on a node; its `start` callback runs at the
    /// current simulation time (before any later event).
    pub fn install_agent(&mut self, node: NodeId, agent: Box<dyn RoutingAgent>) {
        assert!(
            self.nodes[node.0].agent.get().is_none(),
            "node {node} already has an agent; remove it first"
        );
        self.nodes[node.0].agent = AgentSlot::new(agent);
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
        self.change_topology(|topo| topo.set_link(a, b, state));
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

    /// Number of events pending: those in the scheduler plus those the
    /// streams have reserved and not yet scheduled (a CBR flow counts its
    /// sends left, a walk its steps left).
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.kern.len() + self.streamed_ahead()
    }

    /// Statistics with per-node agent counters merged in and the snapshot
    /// stamped with the current simulated time (the denominator for
    /// windowed rates such as [`WorldStats::phy_utilization`]).
    #[must_use]
    pub fn stats(&self) -> WorldStats {
        let mut s = self.stats.clone();
        s.sim_elapsed_us = self.now.as_micros();
        // Sum by id first, so each name is looked up and each `String` key
        // built once per counter rather than once per node.
        let mut totals = Counters::default();
        for slot in &self.nodes {
            for (id, v) in slot.os.counters.present() {
                totals.bump(id, v);
            }
        }
        for (id, v) in totals.present() {
            *s.agent_counters.entry(id.name().to_string()).or_insert(0) += v;
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

    /// The one way to change the topology: every change forgets the
    /// remembered greedy next hops.
    fn change_topology(&mut self, change: impl FnOnce(&mut Topology)) {
        change(&mut self.topo);
        // `clear` sweeps the whole table even when it is empty, and a walk
        // step moves every node.
        if !self.geo_hops.is_empty() {
            self.geo_hops.clear();
        }
    }

    /// The greedy next hop from `from` towards `dst`: the topology's answer,
    /// asked once per pair between two topology changes.
    fn geo_next_hop(&mut self, from: NodeId, dst: NodeId) -> Option<NodeId> {
        let topo = &self.topo;
        let ask = || topo.geo_next_hop(from, dst).map(|nb| nb.0 as u32);
        let hop = match self.geo_hops.entry((from.0 as u32, dst.0 as u32)) {
            Entry::Occupied(hit) => {
                let hop = *hit.get();
                debug_assert_eq!(hop, ask(), "stale greedy next hop {from} -> {dst}");
                hop
            }
            Entry::Vacant(miss) => *miss.insert(ask()),
        };
        hop.map(|nb| NodeId(nb as usize))
    }

    /// Relocates `node` on the spatial topology.
    fn move_node(&mut self, node: NodeId, x: f64, y: f64) {
        self.change_topology(|topo| topo.move_node(node, x, y));
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
        if let Some(agent) = slot.agent.write() {
            slot.os.set_now(now);
            slot.os.battery.advance_to(now);
            f(agent, &mut slot.os);
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
                if let Some(agent) = slot.agent.write() {
                    slot.os.set_now(self.now);
                    pass = agent.inspect_packet(&mut slot.os, &packet);
                }
                self.flush_actions(node);
                if pass {
                    self.data_plane(node, packet);
                } else {
                    self.drop_data(node, &packet, DataDrop::FILTER);
                }
            }
            EventKind::LinkChange { a, b, state } => {
                self.change_topology(|topo| topo.set_link(a, b, state));
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
            EventKind::Stream(i) => self.fire_stream(i),
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
            .field("pending_events", &self.pending_events())
            .finish()
    }
}
