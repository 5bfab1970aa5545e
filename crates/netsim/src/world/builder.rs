//! [`WorldBuilder`]: configuration of a [`World`] and its construction.

use std::collections::HashMap;

use packetbb::Address;
use phy::PhyModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simkern::EventQueue;

use super::data_plane::SendWindow;
use super::radio::PhyChannel;
use super::{AgentSlot, EventKind, NodeSlot, World};
use crate::fault::{FaultInjector, FaultPlan};
use crate::os::{BatteryModel, NodeOs};
use crate::packet::NodeId;
use crate::stats::WorldStats;
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkModel, Topology};

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
    controlled: bool,
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
            controlled: false,
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

    /// Builds the world in controlled-delivery mode. It never fires an
    /// event by itself (`run_until` moves only the clock): frame arrivals,
    /// timer fires, agent starts and data-plane hops wait in the event
    /// kernel, listed by [`World::pending_controlled`], and an external
    /// scheduler decides what fires next via
    /// [`World::deliver_controlled`], [`World::drop_controlled`] and
    /// [`World::run_controlled_infra`]. This is the seam the `mcheck`
    /// bounded model checker owns: because kernel handles are allocated in
    /// deterministic order, the same choice sequence replays the same run.
    #[must_use]
    pub fn controlled(mut self) -> Self {
        self.controlled = true;
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
    /// Panics when no node count or topology was given, or when there are
    /// more than 64,000 nodes: the `10.0.x.y` address plan holds no more.
    #[must_use]
    pub fn build(self) -> World {
        assert!(self.nodes > 0, "world needs at least one node");
        assert!(
            self.nodes <= MAX_NODES,
            "a world holds at most {MAX_NODES} nodes (one 10.0.x.y address each), not {}",
            self.nodes
        );
        let topo = self.topology.unwrap_or_else(|| Topology::empty(self.nodes));
        assert!(
            !self.geo_routing || topo.is_spatial(),
            "geo_routing needs a spatial topology (node positions)"
        );
        let mut nodes = Vec::with_capacity(self.nodes);
        for i in 0..self.nodes {
            let addr = node_address(i);
            let mut os = NodeOs::new(NodeId(i), addr, self.battery);
            os.nf_buffer_cap = self.nf_capacity;
            #[cfg(feature = "trace")]
            if let Some(cap) = self.trace_capacity {
                os.install_trace(cap);
            }
            nodes.push(NodeSlot {
                os,
                agent: AgentSlot::default(),
                crashed: false,
                timers: Vec::new(),
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
            stats: WorldStats::default(),
            rng: StdRng::seed_from_u64(self.seed),
            next_packet_id: 0,
            sent_at: SendWindow::default(),
            link_feedback: self.link_feedback,
            context_interval: self.context_interval,
            default_ttl: self.default_ttl,
            geo_routing: self.geo_routing,
            fault,
            dedupe_delivery,
            ge_phases: HashMap::new(),
            controlled: self.controlled,
            phy: PhyChannel::new(&self.phy, self.nodes),
            streams: Vec::new(),
            receivers: Vec::new(),
            geo_hops: HashMap::new(),
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

/// Host numbers per `10.0.x.*` block: the last octet runs `1..=250`.
const HOSTS_PER_BLOCK: usize = 250;

/// The most nodes the address plan can tell apart: 256 blocks of 250 hosts.
pub(super) const MAX_NODES: usize = 256 * HOSTS_PER_BLOCK;

/// Address assigned to node `i`: `10.0.(i / 250).(i % 250 + 1)`, unique for
/// `i < MAX_NODES`.
pub(super) fn node_address(i: usize) -> Address {
    debug_assert!(i < MAX_NODES);
    let (block, host) = (i / HOSTS_PER_BLOCK, i % HOSTS_PER_BLOCK + 1);
    Address::v4([10, 0, block as u8, host as u8])
}

/// The inverse of [`node_address`]: the index whose address is `addr`, or
/// `None` for an address the plan never hands out. The caller bounds the
/// index by its world's node count.
pub(super) fn address_node(addr: Address) -> Option<usize> {
    match addr {
        Address::V4([10, 0, block, host]) if (1..=HOSTS_PER_BLOCK).contains(&(host as usize)) => {
            Some(block as usize * HOSTS_PER_BLOCK + host as usize - 1)
        }
        _ => None,
    }
}
