//! The declarative campaign vocabulary: protocols, topologies, traffic,
//! scenarios, fault axes and the grid that multiplies them into cells.

use adapt::Stack;
use manetkit_baseline::{Dymoum, Olsrd, OlsrdConfig};
use netsim::fault::{FaultPlan, FrameChaos};
use netsim::mobility::{RandomWaypoint, Walk};
use netsim::{
    Channel, LinkModel, NodeId, NodeOs, PhyModel, RoutingAgent, SimDuration, SimTime, Topology,
    World, WorldBuilder,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a routing agent for one node.
///
/// `Send + Sync` so a single factory can be shared by (or rebuilt on) any
/// campaign worker thread — the bound every parallel engine needs and the
/// reason this type lives here rather than in `bench`.
pub type AgentFactory = Box<dyn Fn() -> Box<dyn RoutingAgent> + Send + Sync>;

/// A routing-protocol stack a campaign cell can deploy fleet-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Protocol {
    /// MANETKit componentised OLSR.
    MkitOlsr,
    /// MANETKit componentised DYMO.
    MkitDymo,
    /// MANETKit componentised AODV.
    MkitAodv,
    /// Monolithic Unik-olsrd analogue (baseline).
    Olsrd,
    /// Monolithic DYMOUM analogue (baseline).
    Dymoum,
    /// Agentless greedy geographic forwarding over a spatial topology:
    /// the world's data plane relays via positions (no per-node agent,
    /// no control traffic). The scale-testing stack — not part of
    /// [`ALL`](Self::ALL) because it is not a routing protocol under
    /// comparison.
    Geo,
    /// The closed-loop adaptive stack: nodes boot MANETKit OLSR and the
    /// `adapt` policy engine drives transactional OLSR↔DYMO↔AODV
    /// switches off windowed telemetry during the measured span. Not in
    /// [`ALL`](Self::ALL)/[`MANETKIT`](Self::MANETKIT) — it is the
    /// *treatment* arm pitted against those static baselines. Cells of
    /// this protocol are driven by the engine directly (the
    /// [`factory`](Self::factory) contract cannot carry the fleet
    /// handles the coordinator needs), so [`factory`](Self::factory)
    /// panics for it.
    Adaptive,
}

impl Protocol {
    /// Every protocol stack the campaign engine knows.
    pub const ALL: [Protocol; 5] = [
        Protocol::MkitOlsr,
        Protocol::MkitDymo,
        Protocol::MkitAodv,
        Protocol::Olsrd,
        Protocol::Dymoum,
    ];

    /// The MANETKit stacks only (the paper's framework side).
    pub const MANETKIT: [Protocol; 3] =
        [Protocol::MkitOlsr, Protocol::MkitDymo, Protocol::MkitAodv];

    /// Stable display name (also the JSON report key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Protocol::MkitOlsr => "mkit-olsr",
            Protocol::MkitDymo => "mkit-dymo",
            Protocol::MkitAodv => "mkit-aodv",
            Protocol::Olsrd => "olsrd",
            Protocol::Dymoum => "dymoum",
            Protocol::Geo => "geo",
            Protocol::Adaptive => "adaptive",
        }
    }

    /// Whether this stack runs without per-node agents (the world's own
    /// data plane does the forwarding). The engine skips agent
    /// installation and enables the matching world mode instead.
    #[must_use]
    pub fn is_agentless(self) -> bool {
        matches!(self, Protocol::Geo)
    }

    /// A thread-safe factory building one node's agent for this stack.
    ///
    /// # Panics
    ///
    /// Panics for [`Protocol::Adaptive`]: adaptive cells are installed by
    /// the engine through `adapt::install_fleet` (the coordinator needs
    /// every node's control handle, which a bare agent factory cannot
    /// return).
    #[must_use]
    pub fn factory(self) -> AgentFactory {
        let stack = match self {
            Protocol::MkitOlsr => Stack::Olsr,
            Protocol::MkitDymo => Stack::Dymo,
            Protocol::MkitAodv => Stack::Aodv,
            Protocol::Olsrd => return Box::new(|| Box::new(Olsrd::new(OlsrdConfig::default()))),
            Protocol::Dymoum => return Box::new(|| Box::new(Dymoum::new())),
            Protocol::Geo => return Box::new(|| Box::new(NullAgent)),
            Protocol::Adaptive => {
                panic!("adaptive cells are installed by the campaign engine, not a factory")
            }
        };
        Box::new(move || Box::new(stack.node().0))
    }
}

/// The do-nothing agent behind agentless stacks: satisfies the factory
/// contract but the engine never installs it (forwarding happens in the
/// world's data plane).
struct NullAgent;

impl RoutingAgent for NullAgent {
    fn name(&self) -> &str {
        "geo"
    }
    fn start(&mut self, _os: &mut NodeOs) {}
    fn on_frame(&mut self, _os: &mut NodeOs, _from: packetbb::Address, _bytes: &[u8]) {}
    fn on_timer(&mut self, _os: &mut NodeOs, _token: u64) {}
    fn on_filter_event(&mut self, _os: &mut NodeOs, _event: netsim::FilterEvent) {}
}

/// Declarative topology — builds a concrete [`Topology`] per cell.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TopologySpec {
    /// A chain of `n` nodes (the paper's testbed shape).
    Line(usize),
    /// All-to-all connectivity over `n` nodes.
    Full(usize),
    /// A `rows` x `cols` lattice.
    Grid(usize, usize),
    /// `n` nodes scattered uniformly on a unit square, linked within
    /// `radius`; `seed` fixes the placement (not the world's RNG).
    RandomGeometric {
        /// Node count.
        n: usize,
        /// Connectivity radius on the unit square.
        radius: f64,
        /// Placement seed.
        seed: u64,
    },
    /// Like [`RandomGeometric`](Self::RandomGeometric) (same seeded
    /// placements) but backed by the grid-bucket spatial index: O(nearby)
    /// neighbour queries instead of an O(n²) matrix, the form that scales
    /// to 10k-node worlds and supports per-node moves and geo forwarding.
    Spatial {
        /// Node count.
        n: usize,
        /// Radio radius on the unit square.
        radius: f64,
        /// Placement seed.
        seed: u64,
    },
}

impl TopologySpec {
    /// Builds the concrete connectivity matrix.
    #[must_use]
    pub fn build(&self) -> Topology {
        match *self {
            TopologySpec::Line(n) => Topology::line(n),
            TopologySpec::Full(n) => Topology::full(n),
            TopologySpec::Grid(rows, cols) => Topology::grid(rows, cols),
            TopologySpec::RandomGeometric { n, radius, seed } => {
                Topology::random_geometric(n, radius, seed)
            }
            TopologySpec::Spatial { n, radius, seed } => Topology::random_spatial(n, radius, seed),
        }
    }

    /// Number of nodes the built topology will have.
    #[must_use]
    pub fn node_count(&self) -> usize {
        match *self {
            TopologySpec::Line(n) | TopologySpec::Full(n) => n,
            TopologySpec::Grid(rows, cols) => rows * cols,
            TopologySpec::RandomGeometric { n, .. } | TopologySpec::Spatial { n, .. } => n,
        }
    }

    /// Stable label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            TopologySpec::Line(n) => format!("line{n}"),
            TopologySpec::Full(n) => format!("full{n}"),
            TopologySpec::Grid(rows, cols) => format!("grid{rows}x{cols}"),
            TopologySpec::RandomGeometric { n, radius, seed } => {
                format!("geo{n}-r{radius}-s{seed}")
            }
            TopologySpec::Spatial { n, radius, seed } => {
                format!("spatial{n}-r{radius}-s{seed}")
            }
        }
    }
}

/// One application traffic pattern of a scenario.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TrafficSpec {
    /// Constant-bit-rate datagrams `src` → `dst` every `interval` for the
    /// scenario's whole measured span. The first packet is offset half an
    /// interval past warm-up so every send falls unambiguously inside one
    /// measurement window.
    Cbr {
        /// Originating node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Inter-packet gap.
        interval: SimDuration,
        /// Payload size in bytes.
        payload: usize,
    },
    /// `flows` CBR flows between seeded random distinct node pairs —
    /// the way to load a 10k-node world with a thousand flows without
    /// enumerating them. Pair selection is fixed by `seed`, not by the
    /// world seed, so the same scenario means the same flows across the
    /// whole seed axis.
    RandomFlows {
        /// Number of concurrent flows.
        flows: usize,
        /// Inter-packet gap per flow.
        interval: SimDuration,
        /// Payload size in bytes.
        payload: usize,
        /// Pair-selection seed.
        seed: u64,
    },
}

impl TrafficSpec {
    /// A CBR flow with the default 64-byte payload.
    #[must_use]
    pub fn cbr(src: NodeId, dst: NodeId, interval: SimDuration) -> Self {
        TrafficSpec::Cbr {
            src,
            dst,
            interval,
            payload: 64,
        }
    }

    /// `flows` seeded random-pair CBR flows with the given payload.
    #[must_use]
    pub fn random_flows(flows: usize, interval: SimDuration, payload: usize, seed: u64) -> Self {
        TrafficSpec::RandomFlows {
            flows,
            interval,
            payload,
            seed,
        }
    }

    /// Stable label for reports (also the traffic-axis cell coordinate).
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            TrafficSpec::Cbr {
                src, dst, interval, ..
            } => {
                format!("cbr{}-{}-{}ms", src.0, dst.0, interval.as_micros() / 1_000)
            }
            TrafficSpec::RandomFlows {
                flows,
                interval,
                seed,
                ..
            } => format!("flows{flows}-{}ms-s{seed}", interval.as_micros() / 1_000),
        }
    }

    /// Schedules this traffic pattern into a freshly built world, for a
    /// measured span of `[warmup, end)`: every flow's first send is
    /// offset half an interval past warm-up (plus a per-flow phase
    /// stagger for random flows) so each send falls unambiguously inside
    /// one measurement window.
    pub fn install(&self, world: &mut World, warmup: SimDuration, end: SimTime) {
        match *self {
            TrafficSpec::Cbr {
                src,
                dst,
                interval,
                payload,
            } => {
                schedule_cbr(
                    world,
                    src,
                    dst,
                    interval,
                    payload,
                    warmup,
                    SimDuration::ZERO,
                    end,
                );
            }
            TrafficSpec::RandomFlows {
                flows,
                interval,
                payload,
                seed,
            } => {
                let n = world.node_count();
                assert!(n >= 2, "random flows need at least two nodes");
                let mut rng = StdRng::seed_from_u64(seed);
                for f in 0..flows {
                    let src = NodeId(rng.gen_range(0..n));
                    let dst = loop {
                        let d = NodeId(rng.gen_range(0..n));
                        if d != src {
                            break d;
                        }
                    };
                    // Stagger flow phases across one interval so a
                    // thousand flows don't all fire on the same tick.
                    let phase = SimDuration::from_micros(
                        interval.as_micros() * (f as u64) / (flows as u64).max(1),
                    );
                    schedule_cbr(world, src, dst, interval, payload, warmup, phase, end);
                }
            }
        }
    }
}

/// Schedules one CBR flow: first send half an interval past warm-up (plus
/// `phase`), then every `interval` until `end`.
#[allow(clippy::too_many_arguments)]
fn schedule_cbr(
    world: &mut World,
    src: NodeId,
    dst: NodeId,
    interval: SimDuration,
    payload: usize,
    warmup: SimDuration,
    phase: SimDuration,
    end: SimTime,
) {
    let dst_addr = world.addr(dst);
    let mut at =
        SimTime::ZERO + warmup + SimDuration::from_micros(interval.as_micros() / 2) + phase;
    let mut k = 0u32;
    while at < end {
        let mut bytes = vec![0u8; payload.max(4)];
        bytes[..4].copy_from_slice(&k.to_be_bytes());
        world.send_datagram_at(at, src, dst_addr, bytes);
        at += interval;
        k += 1;
    }
}

/// A fault axis of the grid: how (and whether) a cell's run is disturbed.
///
/// Declarative so the same axis can be stamped with each cell's seed —
/// stochastic plan expansion (churn, chaos draws) stays per-seed
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultSpec {
    /// Undisturbed run.
    None,
    /// `node` crashes at `at` and reboots cold after `downtime`.
    CrashFor {
        /// The crashing node.
        node: NodeId,
        /// Crash instant.
        at: SimTime,
        /// Time until the cold reboot.
        downtime: SimDuration,
    },
    /// A named partition separates `groups` between `at` and `heal`.
    Partition {
        /// Partition start.
        at: SimTime,
        /// Heal instant.
        heal: SimTime,
        /// The mutually-unreachable node groups.
        groups: Vec<Vec<NodeId>>,
    },
    /// Stochastic frame chaos (corruption/duplication/reordering) for the
    /// whole run, drawn from the plan seed.
    Chaos(FrameChaos),
}

impl FaultSpec {
    /// Stable label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            FaultSpec::None => "none".into(),
            FaultSpec::CrashFor { node, .. } => format!("crash-{node}"),
            FaultSpec::Partition { groups, .. } => format!("partition-{}way", groups.len()),
            FaultSpec::Chaos(_) => "chaos".into(),
        }
    }

    /// Materialises the fault plan for one cell, seeded by the cell seed.
    #[must_use]
    pub fn plan(&self, seed: u64) -> Option<FaultPlan> {
        match self {
            FaultSpec::None => None,
            FaultSpec::CrashFor { node, at, downtime } => Some(
                FaultPlan::builder(seed)
                    .crash_for(*at, *node, *downtime)
                    .build(),
            ),
            FaultSpec::Partition { at, heal, groups } => Some(
                FaultPlan::builder(seed)
                    .partition(*at, *heal, "campaign-cut", groups.clone())
                    .build(),
            ),
            FaultSpec::Chaos(chaos) => Some(FaultPlan::builder(seed).chaos(*chaos).build()),
        }
    }
}

/// The channel-model axis of the grid: which [`PhyModel`] every node's
/// radio uses in a cell. An empty axis behaves as a single ideal channel,
/// so campaigns predating the axis (and their committed artifacts) are
/// untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhySpec {
    /// The channel model the cell's world installs.
    pub model: PhyModel,
}

impl PhySpec {
    /// The ideal channel: zero serialization delay, infinite capacity
    /// (the historical behaviour).
    #[must_use]
    pub fn ideal() -> Self {
        PhySpec {
            model: PhyModel::Ideal,
        }
    }

    /// A per-link constant-bandwidth channel (serialization delay and
    /// bounded transmit queues, no airtime sharing).
    #[must_use]
    pub fn constant_bandwidth(bits_per_sec: u64, queue_frames: usize) -> Self {
        PhySpec {
            model: PhyModel::ConstantBandwidth(Channel {
                bits_per_sec,
                queue_frames,
            }),
        }
    }

    /// A shared-airtime channel: concurrent transmitters in a spatial
    /// neighbourhood split the capacity max-min fairly.
    #[must_use]
    pub fn shared_airtime(bits_per_sec: u64, queue_frames: usize) -> Self {
        PhySpec {
            model: PhyModel::SharedAirtime(Channel {
                bits_per_sec,
                queue_frames,
            }),
        }
    }

    /// Stable label for reports (`"ideal"`, `"cbr256k"`, `"air256k"` …).
    #[must_use]
    pub fn label(&self) -> String {
        self.model.label()
    }
}

impl Default for PhySpec {
    fn default() -> Self {
        PhySpec::ideal()
    }
}

/// A complete experiment scenario: topology, link model, traffic and the
/// warm-up/measurement timeline. Built with [`ScenarioSpec::builder`] — the
/// one scenario vocabulary shared by campaign cells and the E-series
/// benches (no positional-argument constructors).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    topology: TopologySpec,
    link: LinkModel,
    traffic: Vec<TrafficSpec>,
    mobility: Option<RandomWaypoint>,
    warmup: SimDuration,
    duration: SimDuration,
}

impl ScenarioSpec {
    /// Starts building a scenario (default: 5-node line, default link
    /// model, no traffic, 30 s warm-up, 60 s measured span).
    #[must_use]
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder {
            spec: ScenarioSpec {
                topology: TopologySpec::Line(5),
                link: LinkModel::default(),
                traffic: Vec::new(),
                mobility: None,
                warmup: SimDuration::from_secs(30),
                duration: SimDuration::from_secs(60),
            },
        }
    }

    /// The scenario's topology.
    #[must_use]
    pub fn topology(&self) -> &TopologySpec {
        &self.topology
    }

    /// Number of nodes in the scenario.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.topology.node_count()
    }

    /// Warm-up span (excluded from measurement).
    #[must_use]
    pub fn warmup(&self) -> SimDuration {
        self.warmup
    }

    /// Measured span following warm-up.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// End of the run (warm-up plus measured span).
    #[must_use]
    pub fn end(&self) -> SimTime {
        SimTime::ZERO + self.warmup + self.duration
    }

    /// A [`WorldBuilder`] preconfigured with this scenario's topology and
    /// link model; callers add the seed and an optional fault plan.
    #[must_use]
    pub fn world_builder(&self) -> WorldBuilder {
        World::builder()
            .topology(self.topology.build())
            .link_model(self.link)
    }

    /// The scenario's random-waypoint mobility parameters, when set.
    #[must_use]
    pub fn mobility(&self) -> Option<&RandomWaypoint> {
        self.mobility.as_ref()
    }

    /// Installs the scenario's mobility into a freshly built world: the
    /// walk streams, one pending event at a time, moving nodes over the
    /// spatial grid ([`World::install_walk`]). A no-op for static
    /// scenarios.
    pub fn install_mobility(&self, world: &mut World) {
        if let Some(params) = self.mobility {
            world.install_walk(Walk::new(params));
        }
    }

    /// The scenario's built-in traffic patterns.
    #[must_use]
    pub fn traffic(&self) -> &[TrafficSpec] {
        &self.traffic
    }

    /// Schedules the scenario's built-in traffic into a freshly built
    /// world (axis traffic from a [`CampaignSpec`] grid installs on top).
    pub fn install_traffic(&self, world: &mut World) {
        for t in &self.traffic {
            t.install(world, self.warmup, self.end());
        }
    }
}

/// Builder for [`ScenarioSpec`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl ScenarioBuilder {
    /// Sets the topology.
    #[must_use]
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.spec.topology = topology;
        self
    }

    /// Sets the link delay/jitter/loss model.
    #[must_use]
    pub fn link_model(mut self, link: LinkModel) -> Self {
        self.spec.link = link;
        self
    }

    /// Adds a traffic pattern — the one entry point for all traffic
    /// shapes (build the value with [`TrafficSpec::cbr`],
    /// [`TrafficSpec::random_flows`] or the enum literals).
    #[must_use]
    pub fn traffic(mut self, traffic: TrafficSpec) -> Self {
        self.spec.traffic.push(traffic);
        self
    }

    /// Attaches random-waypoint mobility and sets the topology to the
    /// walk's spatial starting placements: `params` fully determines both
    /// (same seed, same physical movement), so topology and movement
    /// cannot drift apart.
    #[must_use]
    pub fn mobility(mut self, params: RandomWaypoint) -> Self {
        self.spec.topology = TopologySpec::Spatial {
            n: params.nodes,
            radius: params.radius,
            seed: params.seed,
        };
        self.spec.mobility = Some(params);
        self
    }

    /// Sets the warm-up span (excluded from measurement).
    #[must_use]
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.spec.warmup = warmup;
        self
    }

    /// Sets the measured span following warm-up.
    #[must_use]
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.spec.duration = duration;
        self
    }

    /// Finishes the scenario.
    #[must_use]
    pub fn build(self) -> ScenarioSpec {
        self.spec
    }
}

/// One cell of a campaign grid: the cross product coordinates plus the
/// cell's deterministic position in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Position in the deterministic cell ordering (also the report index).
    pub index: usize,
    /// Protocol stack deployed on every node.
    pub protocol: Protocol,
    /// Index into [`CampaignSpec::scenarios`].
    pub scenario: usize,
    /// Index into [`CampaignSpec::traffics`] (0 when the traffic axis is
    /// empty: the cell runs the scenario's built-in traffic only).
    pub traffic: usize,
    /// Index into [`CampaignSpec::phys`] (0 when the phy axis is empty:
    /// the cell runs on the ideal channel).
    pub phy: usize,
    /// Index into [`CampaignSpec::faults`].
    pub fault: usize,
    /// World seed (also stamps the fault plan).
    pub seed: u64,
}

/// A declarative grid of experiment cells:
/// scenarios × traffics × phys × protocols × faults × seeds, in that
/// nesting order. An empty traffic axis means every cell runs its
/// scenario's built-in traffic; a populated one installs each labelled
/// [`TrafficSpec`] *on top* of the scenario's built-in traffic, making
/// traffic shape a first-class grid coordinate. An empty phy axis means
/// every cell runs on the ideal channel.
///
/// The grid is *data*; execution lives in [`crate::engine`]. Cell order is
/// deterministic and independent of how many threads later execute it.
#[derive(Debug)]
pub struct CampaignSpec {
    /// Campaign name (report header).
    pub name: String,
    /// Labelled scenarios (outermost axis).
    pub scenarios: Vec<(String, ScenarioSpec)>,
    /// Labelled traffic patterns (empty: scenario traffic only).
    pub traffics: Vec<(String, TrafficSpec)>,
    /// Channel models (empty: ideal channel only).
    pub phys: Vec<PhySpec>,
    /// Protocol stacks.
    pub protocols: Vec<Protocol>,
    /// Fault axes.
    pub faults: Vec<FaultSpec>,
    /// World seeds (innermost axis).
    pub seeds: Vec<u64>,
}

impl CampaignSpec {
    /// Starts a campaign grid with the given name and no axes.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        CampaignSpec {
            name: name.into(),
            scenarios: Vec::new(),
            traffics: Vec::new(),
            phys: Vec::new(),
            protocols: Vec::new(),
            faults: Vec::new(),
            seeds: Vec::new(),
        }
    }

    /// Adds a labelled scenario.
    #[must_use]
    pub fn scenario(mut self, label: impl Into<String>, spec: ScenarioSpec) -> Self {
        self.scenarios.push((label.into(), spec));
        self
    }

    /// Adds a labelled traffic pattern to the traffic axis.
    #[must_use]
    pub fn traffic(mut self, label: impl Into<String>, spec: TrafficSpec) -> Self {
        self.traffics.push((label.into(), spec));
        self
    }

    /// Adds a channel model to the phy axis.
    #[must_use]
    pub fn phy(mut self, phy: PhySpec) -> Self {
        self.phys.push(phy);
        self
    }

    /// Adds protocol stacks to the grid.
    #[must_use]
    pub fn protocols(mut self, protocols: impl IntoIterator<Item = Protocol>) -> Self {
        self.protocols.extend(protocols);
        self
    }

    /// Adds a fault axis.
    #[must_use]
    pub fn fault(mut self, fault: FaultSpec) -> Self {
        self.faults.push(fault);
        self
    }

    /// Adds world seeds.
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Enumerates the grid in its deterministic order:
    /// scenario → traffic → phy → protocol → fault → seed. An empty fault
    /// axis behaves as a single [`FaultSpec::None`]; an empty traffic axis
    /// as a single scenario-traffic-only coordinate; an empty phy axis as
    /// a single ideal channel.
    #[must_use]
    pub fn cells(&self) -> Vec<Cell> {
        let traffic_count = self.traffics.len().max(1);
        let phy_count = self.phys.len().max(1);
        let fault_count = self.faults.len().max(1);
        let mut cells = Vec::new();
        for scenario in 0..self.scenarios.len() {
            for traffic in 0..traffic_count {
                for phy in 0..phy_count {
                    for &protocol in &self.protocols {
                        for fault in 0..fault_count {
                            for &seed in &self.seeds {
                                cells.push(Cell {
                                    index: cells.len(),
                                    protocol,
                                    scenario,
                                    traffic,
                                    phy,
                                    fault,
                                    seed,
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// The fault spec for a cell (the implicit `None` when no axis is set).
    #[must_use]
    pub fn fault_spec(&self, cell: &Cell) -> FaultSpec {
        self.faults
            .get(cell.fault)
            .cloned()
            .unwrap_or(FaultSpec::None)
    }

    /// The axis traffic a cell installs on top of its scenario's built-in
    /// traffic; `None` when the traffic axis is empty.
    #[must_use]
    pub fn traffic_spec(&self, cell: &Cell) -> Option<&TrafficSpec> {
        self.traffics.get(cell.traffic).map(|(_, t)| t)
    }

    /// The cell's traffic-axis label (`"scenario"` when the axis is empty
    /// — the cell carries only its scenario's built-in traffic).
    #[must_use]
    pub fn traffic_label(&self, cell: &Cell) -> String {
        self.traffics
            .get(cell.traffic)
            .map_or_else(|| "scenario".to_string(), |(label, _)| label.clone())
    }

    /// The channel model for a cell (the implicit ideal channel when no
    /// phy axis is set).
    #[must_use]
    pub fn phy_spec(&self, cell: &Cell) -> PhySpec {
        self.phys.get(cell.phy).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_enumeration_is_deterministic_and_ordered() {
        let spec = CampaignSpec::new("t")
            .scenario("a", ScenarioSpec::builder().build())
            .scenario("b", ScenarioSpec::builder().build())
            .protocols([Protocol::MkitOlsr, Protocol::Dymoum])
            .fault(FaultSpec::None)
            .seeds([1, 2]);
        let cells = spec.cells();
        assert_eq!(cells.len(), 8);
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
        // Scenario is the outermost axis, seed the innermost.
        assert_eq!(cells[0].scenario, 0);
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[1].seed, 2);
        assert_eq!(cells[4].scenario, 1);
        assert_eq!(spec.cells(), cells, "re-enumeration is stable");
    }

    #[test]
    fn empty_fault_axis_means_one_undisturbed_cell_per_point() {
        let spec = CampaignSpec::new("t")
            .scenario("a", ScenarioSpec::builder().build())
            .protocols([Protocol::MkitAodv])
            .seeds([9]);
        let cells = spec.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(spec.fault_spec(&cells[0]), FaultSpec::None);
    }

    #[test]
    fn traffic_axis_multiplies_the_grid_between_scenario_and_protocol() {
        let spec = CampaignSpec::new("t")
            .scenario("a", ScenarioSpec::builder().build())
            .traffic(
                "slow",
                TrafficSpec::cbr(NodeId(0), NodeId(4), SimDuration::from_secs(1)),
            )
            .traffic(
                "fast",
                TrafficSpec::cbr(NodeId(0), NodeId(4), SimDuration::from_millis(100)),
            )
            .protocols([Protocol::MkitOlsr, Protocol::Adaptive])
            .seeds([1]);
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].traffic, 0);
        assert_eq!(cells[1].traffic, 0);
        assert_eq!(cells[2].traffic, 1);
        assert_eq!(spec.traffic_label(&cells[0]), "slow");
        assert_eq!(spec.traffic_label(&cells[2]), "fast");
        assert!(spec.traffic_spec(&cells[3]).is_some());
    }

    #[test]
    fn phy_axis_multiplies_the_grid_between_traffic_and_protocol() {
        let spec = CampaignSpec::new("t")
            .scenario("a", ScenarioSpec::builder().build())
            .phy(PhySpec::ideal())
            .phy(PhySpec::shared_airtime(256_000, 16))
            .protocols([Protocol::MkitOlsr])
            .seeds([1, 2]);
        let cells = spec.cells();
        assert_eq!(cells.len(), 4, "1 scenario x 2 phys x 1 protocol x 2 seeds");
        assert_eq!(cells[0].phy, 0);
        assert_eq!(cells[1].phy, 0);
        assert_eq!(cells[2].phy, 1);
        assert_eq!(spec.phy_spec(&cells[0]).label(), "ideal");
        assert_eq!(spec.phy_spec(&cells[2]).label(), "air256k");
    }

    #[test]
    fn empty_phy_axis_means_ideal_channel() {
        let spec = CampaignSpec::new("t")
            .scenario("a", ScenarioSpec::builder().build())
            .protocols([Protocol::MkitOlsr])
            .seeds([1]);
        let cells = spec.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(spec.phy_spec(&cells[0]), PhySpec::ideal());
        assert!(spec.phy_spec(&cells[0]).model.is_ideal());
    }

    #[test]
    fn empty_traffic_axis_is_one_scenario_labelled_pass() {
        let spec = CampaignSpec::new("t")
            .scenario("a", ScenarioSpec::builder().build())
            .protocols([Protocol::MkitOlsr])
            .seeds([1]);
        let cells = spec.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(spec.traffic_label(&cells[0]), "scenario");
        assert!(spec.traffic_spec(&cells[0]).is_none());
    }

    #[test]
    fn factories_are_shareable_across_threads() {
        fn assert_sync<T: Sync + Send>(_: &T) {}
        for p in Protocol::ALL {
            let f = p.factory();
            assert_sync(&f);
            let agent = f();
            assert!(!agent.name().is_empty());
        }
    }

    #[test]
    fn mobility_streams_one_pending_event() {
        let spec = ScenarioSpec::builder()
            .mobility(RandomWaypoint {
                nodes: 50,
                radius: 0.2,
                duration: SimDuration::from_secs(30),
                seed: 4,
                ..RandomWaypoint::default()
            })
            .build();
        let mut world = spec.world_builder().seed(1).build();
        spec.install_mobility(&mut world);
        assert_eq!(world.pending_events(), 1);
        world.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        assert_eq!(world.pending_events(), 0);
        let moved = (0..50).any(|i| {
            let node = NodeId(i);
            world.topology().position(node) != spec.topology().build().position(node)
        });
        assert!(moved, "the walk moved the nodes");
    }

    #[test]
    fn scenario_traffic_lands_inside_the_measured_span() {
        let spec = ScenarioSpec::builder()
            .topology(TopologySpec::Full(2))
            .traffic(TrafficSpec::cbr(
                NodeId(0),
                NodeId(1),
                SimDuration::from_millis(250),
            ))
            .warmup(SimDuration::from_secs(1))
            .duration(SimDuration::from_secs(2))
            .build();
        let mut world = spec.world_builder().seed(1).build();
        let dst = world.addr(NodeId(1));
        world
            .os_mut(NodeId(0))
            .route_table_mut()
            .add_host_route(dst, dst, 1);
        spec.install_traffic(&mut world);
        let mut win = world.stats_window();
        world.run_until(SimTime::ZERO + spec.warmup());
        win.skip(&world);
        world.run_until(spec.end() + SimDuration::from_secs(1));
        let measured = win.advance(&world);
        // 2 s at 4 pkt/s, all within the window.
        assert_eq!(measured.data_sent, 8);
        assert_eq!(measured.data_delivered, 8);
    }
}
