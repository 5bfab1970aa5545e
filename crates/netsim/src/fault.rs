//! Deterministic fault injection: the adversarial half of the emulator.
//!
//! The paper's premise is that operators reconfigure routing protocols
//! *because* conditions degrade, yet a quiet lab never degrades. This
//! module produces the degradation on schedule: a [`FaultPlan`] holds
//! scheduled fault entries (crash, reboot, partition, battery exhaustion)
//! plus seeded stochastic processes (node churn, frame-level chaos), and a
//! `FaultInjector` inside the [`World`](crate::World) event loop enacts
//! them. Everything is derived from the plan seed, so a campaign replays
//! byte-identically: same plan, same seed, same
//! [`WorldStats`](crate::WorldStats) — the determinism contract that makes
//! chaos runs
//! debuggable.
//!
//! Semantics at a glance:
//!
//! * **Crash** — the node's agent is suspended (no callbacks), the kernel
//!   route table is flushed, the netfilter buffer is dropped, and every
//!   pending timer is cancelled in the event kernel, so none fires into the
//!   rebooted incarnation. Frames to or from the node are dropped.
//! * **Reboot** — the OS restarts with a fresh battery and the agent is
//!   reinstalled cold: a per-node reboot factory (if registered) builds a
//!   brand-new agent, otherwise the suspended instance has `start` called
//!   again over the flushed OS.
//! * **Partition** — a named cut: nodes listed in different groups cannot
//!   exchange frames while the partition is active; a scheduled heal
//!   removes the cut. Unlisted nodes are unaffected.
//! * **Battery exhaustion** — the battery is forced empty and the node
//!   suspends exactly like a crash; a reboot revives it with full charge.
//! * **Frame chaos** — corruption (CRC drop), duplication and reordering
//!   applied stochastically to data frames in flight.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::packet::NodeId;
use crate::time::{SimDuration, SimTime};

/// Stochastic frame-level chaos applied to data frames on each hop.
///
/// Each probability is sampled independently per transmission from the
/// plan's own RNG (never the world's), so enabling chaos does not perturb
/// the base simulation's random stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameChaos {
    /// Probability a transmitted data frame arrives corrupted. Corrupted
    /// frames fail their CRC and are dropped at the receiver (counted in
    /// `WorldStats::data_corrupted`).
    pub corrupt: f64,
    /// Probability a transmitted data frame is duplicated: two copies are
    /// delivered, each with its own sampled delay. Duplicate deliveries at
    /// the destination are counted separately and do not inflate
    /// `data_delivered`.
    pub duplicate: f64,
    /// Probability a transmitted data frame is held back by an extra
    /// uniform delay in `[0, reorder_spread]`, letting later frames
    /// overtake it.
    pub reorder: f64,
    /// Maximum extra delay applied to reordered frames.
    pub reorder_spread: SimDuration,
}

impl Default for FrameChaos {
    fn default() -> Self {
        FrameChaos {
            corrupt: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_spread: SimDuration::from_millis(4),
        }
    }
}

impl FrameChaos {
    /// Whether any chaos process is enabled.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.corrupt > 0.0 || self.duplicate > 0.0 || self.reorder > 0.0
    }
}

/// One kind of injectable fault.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultKind {
    /// Suspend a node: agent silenced, route table flushed, netfilter
    /// buffer dropped, pending timers invalidated.
    Crash(NodeId),
    /// Revive a crashed (or battery-exhausted) node: fresh battery, OS
    /// flushed, agent reinstalled cold. A no-op on a running node.
    Reboot(NodeId),
    /// Force the node's battery empty; the node suspends like a crash
    /// until rebooted.
    BatteryExhaust(NodeId),
    /// Activate a named partition: nodes in different `groups` cannot
    /// exchange frames until the partition heals. Nodes absent from every
    /// group are unaffected.
    PartitionStart {
        /// Partition name (used by the matching heal).
        name: String,
        /// Disjoint node groups that are cut from each other.
        groups: Vec<Vec<NodeId>>,
    },
    /// Deactivate the named partition.
    PartitionHeal {
        /// Name given at [`FaultKind::PartitionStart`].
        name: String,
    },
}

/// A fault scheduled for a specific simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEntry {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded node-churn process: nodes crash at random times and reboot
/// after a fixed downtime. Expanded into concrete [`FaultEntry`]s at
/// [`FaultPlanBuilder::build`] time from the plan seed, so the same plan
/// always produces the same churn.
#[derive(Debug, Clone, PartialEq)]
struct ChurnProcess {
    /// Candidate nodes.
    nodes: Vec<NodeId>,
    /// Mean gap between consecutive crash events (uniform in
    /// `[mean/2, 3*mean/2]`).
    mean_gap: SimDuration,
    /// How long each crashed node stays down.
    downtime: SimDuration,
    /// First possible crash time.
    start: SimTime,
    /// No crashes at or after this time.
    until: SimTime,
}

/// A replayable fault campaign: scheduled entries plus stochastic
/// processes, all derived from one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    entries: Vec<FaultEntry>,
    chaos: FrameChaos,
}

impl FaultPlan {
    /// Starts building a plan with the given seed (drives churn expansion
    /// and frame chaos sampling; independent of the world seed).
    #[must_use]
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed,
            entries: Vec::new(),
            chaos: FrameChaos::default(),
            churn: Vec::new(),
        }
    }

    /// The plan seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Scheduled entries in time order.
    #[must_use]
    pub fn entries(&self) -> &[FaultEntry] {
        &self.entries
    }

    /// The frame-chaos configuration.
    #[must_use]
    pub fn chaos(&self) -> FrameChaos {
        self.chaos
    }
}

/// Builder for [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    seed: u64,
    entries: Vec<FaultEntry>,
    chaos: FrameChaos,
    churn: Vec<ChurnProcess>,
}

impl FaultPlanBuilder {
    /// Schedules an arbitrary fault entry.
    #[must_use]
    pub fn entry(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.entries.push(FaultEntry { at, kind });
        self
    }

    /// Schedules a node crash.
    #[must_use]
    pub fn crash(self, at: SimTime, node: NodeId) -> Self {
        self.entry(at, FaultKind::Crash(node))
    }

    /// Schedules a node reboot.
    #[must_use]
    pub fn reboot(self, at: SimTime, node: NodeId) -> Self {
        self.entry(at, FaultKind::Reboot(node))
    }

    /// Schedules a crash at `at` and the matching reboot `downtime` later.
    #[must_use]
    pub fn crash_for(self, at: SimTime, node: NodeId, downtime: SimDuration) -> Self {
        self.crash(at, node).reboot(at + downtime, node)
    }

    /// Schedules a battery exhaustion event.
    #[must_use]
    pub fn battery_exhaust(self, at: SimTime, node: NodeId) -> Self {
        self.entry(at, FaultKind::BatteryExhaust(node))
    }

    /// Schedules a named partition active over `[at, heal_at)`.
    #[must_use]
    pub fn partition(
        self,
        at: SimTime,
        heal_at: SimTime,
        name: &str,
        groups: Vec<Vec<NodeId>>,
    ) -> Self {
        self.entry(
            at,
            FaultKind::PartitionStart {
                name: name.to_string(),
                groups,
            },
        )
        .entry(
            heal_at,
            FaultKind::PartitionHeal {
                name: name.to_string(),
            },
        )
    }

    /// Enables stochastic frame chaos (corruption / duplication /
    /// reordering of data frames).
    #[must_use]
    pub fn chaos(mut self, chaos: FrameChaos) -> Self {
        self.chaos = chaos;
        self
    }

    /// Adds a seeded churn process: over `[start, until)` one of `nodes`
    /// crashes roughly every `mean_gap` and reboots `downtime` later.
    #[must_use]
    pub fn churn(
        mut self,
        nodes: Vec<NodeId>,
        mean_gap: SimDuration,
        downtime: SimDuration,
        start: SimTime,
        until: SimTime,
    ) -> Self {
        self.churn.push(ChurnProcess {
            nodes,
            mean_gap,
            downtime,
            start,
            until,
        });
        self
    }

    /// Expands stochastic processes and produces the plan. Entries are
    /// sorted by time (stable: ties keep insertion order).
    #[must_use]
    pub fn build(self) -> FaultPlan {
        let mut entries = self.entries;
        let mut rng = StdRng::seed_from_u64(self.seed);
        for process in &self.churn {
            if process.nodes.is_empty() || process.mean_gap == SimDuration::ZERO {
                continue;
            }
            let mean = process.mean_gap.as_micros();
            let mut t = process.start;
            loop {
                // Uniform gap in [mean/2, 3*mean/2]: bursty enough for
                // churn, bounded enough to stay predictable.
                let gap = rng.gen_range(mean / 2..=mean + mean / 2);
                t += SimDuration::from_micros(gap.max(1));
                if t >= process.until {
                    break;
                }
                let node = process.nodes[rng.gen_range(0..process.nodes.len())];
                entries.push(FaultEntry {
                    at: t,
                    kind: FaultKind::Crash(node),
                });
                entries.push(FaultEntry {
                    at: t + process.downtime,
                    kind: FaultKind::Reboot(node),
                });
            }
        }
        entries.sort_by_key(|e| e.at);
        FaultPlan {
            seed: self.seed,
            entries,
            chaos: self.chaos,
        }
    }
}

/// An active named partition: node index → group id for listed nodes.
#[derive(Debug, Clone)]
struct ActivePartition {
    name: String,
    group_of: HashMap<usize, usize>,
}

/// Runtime fault state inside the world: the plan's RNG, frame chaos and
/// the set of active partitions. Crash flags live on the world's node
/// slots.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    pub(crate) rng: StdRng,
    pub(crate) chaos: FrameChaos,
    partitions: Vec<ActivePartition>,
}

impl FaultInjector {
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        FaultInjector {
            rng: StdRng::seed_from_u64(plan.seed),
            chaos: plan.chaos,
            partitions: Vec::new(),
        }
    }

    /// An injector with nothing to inject (no plan configured).
    pub(crate) fn inert() -> Self {
        FaultInjector {
            rng: StdRng::seed_from_u64(0),
            chaos: FrameChaos::default(),
            partitions: Vec::new(),
        }
    }

    /// Activates a partition; returns `false` when a partition of the same
    /// name is already active (the duplicate is ignored).
    pub(crate) fn start_partition(&mut self, name: &str, groups: &[Vec<NodeId>]) -> bool {
        if self.partitions.iter().any(|p| p.name == name) {
            return false;
        }
        let mut group_of = HashMap::new();
        for (g, members) in groups.iter().enumerate() {
            for n in members {
                group_of.insert(n.0, g);
            }
        }
        self.partitions.push(ActivePartition {
            name: name.to_string(),
            group_of,
        });
        true
    }

    /// Heals the named partition; returns whether it was active.
    pub(crate) fn heal_partition(&mut self, name: &str) -> bool {
        let before = self.partitions.len();
        self.partitions.retain(|p| p.name != name);
        self.partitions.len() != before
    }

    /// Whether any partition currently cuts the pair `(a, b)`. Only pairs
    /// listed in *different* groups of the same partition are cut.
    pub(crate) fn severed(&self, a: NodeId, b: NodeId) -> bool {
        self.partitions.iter().any(|p| {
            matches!(
                (p.group_of.get(&a.0), p.group_of.get(&b.0)),
                (Some(ga), Some(gb)) if ga != gb
            )
        })
    }

    /// Names of active partitions (diagnostics).
    pub(crate) fn active_partitions(&self) -> Vec<&str> {
        self.partitions.iter().map(|p| p.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sorts_entries_by_time() {
        let plan = FaultPlan::builder(1)
            .reboot(SimTime::from_micros(500), NodeId(0))
            .crash(SimTime::from_micros(100), NodeId(0))
            .partition(
                SimTime::from_micros(200),
                SimTime::from_micros(400),
                "cut",
                vec![vec![NodeId(0)], vec![NodeId(1)]],
            )
            .build();
        let times: Vec<u64> = plan.entries().iter().map(|e| e.at.as_micros()).collect();
        assert_eq!(times, vec![100, 200, 400, 500]);
    }

    #[test]
    fn churn_is_deterministic_and_paired() {
        let make = || {
            FaultPlan::builder(9)
                .churn(
                    vec![NodeId(0), NodeId(1), NodeId(2)],
                    SimDuration::from_secs(10),
                    SimDuration::from_secs(3),
                    SimTime::ZERO,
                    SimTime::ZERO + SimDuration::from_secs(120),
                )
                .build()
        };
        let a = make();
        let b = make();
        assert_eq!(a, b, "same seed, same churn schedule");
        let crashes = a
            .entries()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Crash(_)))
            .count();
        let reboots = a
            .entries()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Reboot(_)))
            .count();
        assert!(crashes > 0, "120 s at ~10 s mean gap must produce events");
        assert_eq!(crashes, reboots, "every churn crash has a reboot");
        let different = FaultPlan::builder(10)
            .churn(
                vec![NodeId(0), NodeId(1), NodeId(2)],
                SimDuration::from_secs(10),
                SimDuration::from_secs(3),
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_secs(120),
            )
            .build();
        assert_ne!(a, different, "different seed, different schedule");
    }

    #[test]
    fn partitions_cut_only_listed_cross_group_pairs() {
        let plan = FaultPlan::builder(0).build();
        let mut inj = FaultInjector::new(&plan);
        assert!(inj.start_partition(
            "cut",
            &[vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]]
        ));
        assert!(inj.severed(NodeId(0), NodeId(2)));
        assert!(inj.severed(NodeId(3), NodeId(1)));
        assert!(!inj.severed(NodeId(0), NodeId(1)), "same group flows");
        assert!(!inj.severed(NodeId(0), NodeId(4)), "unlisted unaffected");
        assert!(!inj.start_partition("cut", &[]), "duplicate name ignored");
        assert_eq!(inj.active_partitions(), vec!["cut"]);
        assert!(inj.heal_partition("cut"));
        assert!(!inj.severed(NodeId(0), NodeId(2)));
        assert!(!inj.heal_partition("cut"), "already healed");
    }

    #[test]
    fn chaos_activity_flag() {
        assert!(!FrameChaos::default().is_active());
        assert!(FrameChaos {
            duplicate: 0.1,
            ..FrameChaos::default()
        }
        .is_active());
    }
}
