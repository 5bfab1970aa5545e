//! World-level statistics collected by the data and control planes.

use std::collections::HashMap;

use crate::time::SimDuration;

/// Counters accumulated over a simulation run.
///
/// Control-plane load is what the paper's ablations compare (flooding
/// overhead, TC dissemination cost); the data-plane numbers support
/// delivery-ratio and latency claims; the fault counters record what the
/// chaos engine did to the run so recovery can be attributed.
///
/// `WorldStats` is plain data: subtracting one snapshot from an earlier
/// one with [`delta_since`](Self::delta_since) yields a *windowed*
/// snapshot, which is how time-to-reconverge is measured (delivery ratio
/// in the post-heal window recovering toward the pre-fault window).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorldStats {
    /// Data packets handed to the data plane by applications.
    pub data_sent: u64,
    /// Data packets delivered at their destination (first copy only).
    pub data_delivered: u64,
    /// Data packets dropped: TTL exhausted.
    pub data_dropped_ttl: u64,
    /// Data packets dropped: next hop unreachable / lossy.
    pub data_dropped_link: u64,
    /// Data packets dropped from a full netfilter buffer or explicit drop.
    pub data_dropped_buffer: u64,
    /// Data frames dropped at or through a crashed (or battery-dead) node,
    /// including netfilter buffers flushed by the crash itself.
    pub data_dropped_crash: u64,
    /// Data frames that arrived corrupted and failed their CRC.
    pub data_corrupted: u64,
    /// Data frames duplicated in flight by the chaos engine.
    pub data_duplicated: u64,
    /// Duplicate copies that reached the destination (not counted in
    /// [`data_delivered`](Self::data_delivered)).
    pub data_dup_delivered: u64,
    /// Data frames held back by the reordering process.
    pub data_reordered: u64,
    /// Data-plane hop transmissions (each forwarding counts once).
    pub data_hops: u64,
    /// Sum of end-to-end delivery latencies (for mean computation).
    pub delivery_latency_total: SimDuration,
    /// Every end-to-end delivery latency, in microseconds, in delivery
    /// order. Feeds the exact p50/p95 quantiles; memory is O(delivered).
    pub delivery_latencies_us: Vec<u64>,
    /// Control frames transmitted (each broadcast counts once per sender).
    pub control_frames: u64,
    /// Control bytes transmitted (wire size, once per sender).
    pub control_bytes: u64,
    /// Control frames received by agents (per receiver).
    pub control_received: u64,
    /// Control frames lost to the loss model, dead links or dead nodes.
    pub control_lost: u64,
    /// Faults injected by the fault plan (all kinds).
    pub faults_injected: u64,
    /// Node crash events enacted.
    pub node_crashes: u64,
    /// Node reboot events enacted.
    pub node_reboots: u64,
    /// Battery exhaustion events enacted.
    pub battery_exhaustions: u64,
    /// Named partitions activated.
    pub partitions_started: u64,
    /// Named partitions healed.
    pub partitions_healed: u64,
    /// Gilbert–Elliott links flipping into their bursty `Bad` phase.
    pub link_flaps: u64,
    /// Frames tail-dropped by a full phy transmit queue (non-ideal phy
    /// models only; the drop is decided at enqueue, before any loss-model
    /// randomness is consumed).
    pub phy_queue_drops: u64,
    /// Frames fully serialized onto the air by the phy layer.
    pub phy_frames_tx: u64,
    /// Microseconds of channel airtime occupied by completed transmissions
    /// (the utilization numerator; see [`phy_utilization`](Self::phy_utilization)).
    pub phy_airtime_us: u64,
    /// Every phy queueing delay (enqueue to transmit start) in
    /// microseconds, in transmit-completion order. Feeds the exact p50/p95
    /// quantiles, like [`delivery_latencies_us`](Self::delivery_latencies_us).
    pub phy_queue_wait_us: Vec<u64>,
    /// Simulated microseconds elapsed when the snapshot was taken (stamped
    /// by [`World::stats`](crate::World::stats)). Deltas window it to the
    /// span of the window; merges sum the spans of the merged shards.
    pub sim_elapsed_us: u64,
    /// Per-node named counters bumped by agents, merged at read time.
    pub agent_counters: HashMap<String, u64>,
}

impl WorldStats {
    /// Delivery ratio in `[0, 1]` (1 when nothing was sent).
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.data_sent == 0 {
            return 1.0;
        }
        self.data_delivered as f64 / self.data_sent as f64
    }

    /// Mean end-to-end latency of delivered packets, rounded to the
    /// nearest microsecond.
    #[must_use]
    pub fn mean_delivery_latency(&self) -> SimDuration {
        if self.data_delivered == 0 {
            return SimDuration::ZERO;
        }
        let total = self.delivery_latency_total.as_micros();
        let n = self.data_delivered;
        SimDuration::from_micros((total + n / 2) / n)
    }

    /// Exact delivery-latency quantile (nearest-rank) for `q` in `[0, 1]`.
    /// Returns zero when nothing was delivered.
    ///
    /// # Panics
    ///
    /// Panics when `q` is not a probability.
    #[must_use]
    pub fn delivery_latency_quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.delivery_latencies_us.is_empty() {
            return SimDuration::ZERO;
        }
        let mut sorted = self.delivery_latencies_us.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        SimDuration::from_micros(sorted[idx])
    }

    /// Median end-to-end delivery latency.
    #[must_use]
    pub fn p50_delivery_latency(&self) -> SimDuration {
        self.delivery_latency_quantile(0.50)
    }

    /// 95th-percentile end-to-end delivery latency.
    #[must_use]
    pub fn p95_delivery_latency(&self) -> SimDuration {
        self.delivery_latency_quantile(0.95)
    }

    /// Exact phy queueing-delay quantile (nearest-rank) for `q` in `[0, 1]`.
    /// Returns zero when no frame crossed a phy queue (e.g. ideal phy).
    ///
    /// # Panics
    ///
    /// Panics when `q` is not a probability.
    #[must_use]
    pub fn phy_queue_wait_quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.phy_queue_wait_us.is_empty() {
            return SimDuration::ZERO;
        }
        let mut sorted = self.phy_queue_wait_us.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        SimDuration::from_micros(sorted[idx])
    }

    /// Median phy queueing delay.
    #[must_use]
    pub fn p50_phy_queue_wait(&self) -> SimDuration {
        self.phy_queue_wait_quantile(0.50)
    }

    /// 95th-percentile phy queueing delay.
    #[must_use]
    pub fn p95_phy_queue_wait(&self) -> SimDuration {
        self.phy_queue_wait_quantile(0.95)
    }

    /// Mean concurrent airtime occupancy over the snapshot's span:
    /// `phy_airtime_us / sim_elapsed_us`. On a single contention domain
    /// this is channel utilization in `[0, 1]`; across many spatial domains
    /// it is the average number of simultaneously busy transmitters. Zero
    /// when no time elapsed or the phy layer is ideal.
    #[must_use]
    pub fn phy_utilization(&self) -> f64 {
        if self.sim_elapsed_us == 0 {
            return 0.0;
        }
        self.phy_airtime_us as f64 / self.sim_elapsed_us as f64
    }

    /// The window of activity between an earlier snapshot and this one:
    /// every counter becomes the delta, and the latency series keeps only
    /// the deliveries that happened after `base` was taken.
    ///
    /// All counters are monotonic, so with `base` taken from the same run
    /// the subtraction is exact; a foreign `base` saturates at zero.
    #[must_use]
    pub fn delta_since(&self, base: &WorldStats) -> WorldStats {
        let mut agent_counters = HashMap::new();
        for (name, v) in &self.agent_counters {
            let before = base.agent_counters.get(name).copied().unwrap_or(0);
            agent_counters.insert(name.clone(), v.saturating_sub(before));
        }
        let latency_from = base
            .delivery_latencies_us
            .len()
            .min(self.delivery_latencies_us.len());
        let wait_from = base
            .phy_queue_wait_us
            .len()
            .min(self.phy_queue_wait_us.len());
        WorldStats {
            data_sent: self.data_sent.saturating_sub(base.data_sent),
            data_delivered: self.data_delivered.saturating_sub(base.data_delivered),
            data_dropped_ttl: self.data_dropped_ttl.saturating_sub(base.data_dropped_ttl),
            data_dropped_link: self
                .data_dropped_link
                .saturating_sub(base.data_dropped_link),
            data_dropped_buffer: self
                .data_dropped_buffer
                .saturating_sub(base.data_dropped_buffer),
            data_dropped_crash: self
                .data_dropped_crash
                .saturating_sub(base.data_dropped_crash),
            data_corrupted: self.data_corrupted.saturating_sub(base.data_corrupted),
            data_duplicated: self.data_duplicated.saturating_sub(base.data_duplicated),
            data_dup_delivered: self
                .data_dup_delivered
                .saturating_sub(base.data_dup_delivered),
            data_reordered: self.data_reordered.saturating_sub(base.data_reordered),
            data_hops: self.data_hops.saturating_sub(base.data_hops),
            delivery_latency_total: self.delivery_latency_total - base.delivery_latency_total,
            delivery_latencies_us: self.delivery_latencies_us[latency_from..].to_vec(),
            control_frames: self.control_frames.saturating_sub(base.control_frames),
            control_bytes: self.control_bytes.saturating_sub(base.control_bytes),
            control_received: self.control_received.saturating_sub(base.control_received),
            control_lost: self.control_lost.saturating_sub(base.control_lost),
            faults_injected: self.faults_injected.saturating_sub(base.faults_injected),
            node_crashes: self.node_crashes.saturating_sub(base.node_crashes),
            node_reboots: self.node_reboots.saturating_sub(base.node_reboots),
            battery_exhaustions: self
                .battery_exhaustions
                .saturating_sub(base.battery_exhaustions),
            partitions_started: self
                .partitions_started
                .saturating_sub(base.partitions_started),
            partitions_healed: self
                .partitions_healed
                .saturating_sub(base.partitions_healed),
            link_flaps: self.link_flaps.saturating_sub(base.link_flaps),
            phy_queue_drops: self.phy_queue_drops.saturating_sub(base.phy_queue_drops),
            phy_frames_tx: self.phy_frames_tx.saturating_sub(base.phy_frames_tx),
            phy_airtime_us: self.phy_airtime_us.saturating_sub(base.phy_airtime_us),
            phy_queue_wait_us: self.phy_queue_wait_us[wait_from..].to_vec(),
            sim_elapsed_us: self.sim_elapsed_us.saturating_sub(base.sim_elapsed_us),
            agent_counters,
        }
    }

    /// Merges another snapshot into this one: counters add, agent counters
    /// add per name, and the per-delivery latency series are merged into
    /// **sorted** order — the merged snapshot carries the exact multiset of
    /// latencies, so [`delivery_latency_quantile`](Self::delivery_latency_quantile)
    /// over a merge equals the quantile over the concatenated raw series
    /// (no lossy p50/p95 averaging).
    ///
    /// Because the merged series is kept in canonical sorted order, `merge`
    /// is associative and order-insensitive: folding any permutation of any
    /// sharding of a run yields byte-identical statistics. This is what
    /// lets a parallel campaign sum per-cell stats in deterministic cell
    /// order yet stay independent of which thread finished first.
    pub fn merge(&mut self, other: &WorldStats) {
        self.data_sent += other.data_sent;
        self.data_delivered += other.data_delivered;
        self.data_dropped_ttl += other.data_dropped_ttl;
        self.data_dropped_link += other.data_dropped_link;
        self.data_dropped_buffer += other.data_dropped_buffer;
        self.data_dropped_crash += other.data_dropped_crash;
        self.data_corrupted += other.data_corrupted;
        self.data_duplicated += other.data_duplicated;
        self.data_dup_delivered += other.data_dup_delivered;
        self.data_reordered += other.data_reordered;
        self.data_hops += other.data_hops;
        self.delivery_latency_total = self.delivery_latency_total + other.delivery_latency_total;
        self.delivery_latencies_us
            .extend_from_slice(&other.delivery_latencies_us);
        self.delivery_latencies_us.sort_unstable();
        self.control_frames += other.control_frames;
        self.control_bytes += other.control_bytes;
        self.control_received += other.control_received;
        self.control_lost += other.control_lost;
        self.faults_injected += other.faults_injected;
        self.node_crashes += other.node_crashes;
        self.node_reboots += other.node_reboots;
        self.battery_exhaustions += other.battery_exhaustions;
        self.partitions_started += other.partitions_started;
        self.partitions_healed += other.partitions_healed;
        self.link_flaps += other.link_flaps;
        self.phy_queue_drops += other.phy_queue_drops;
        self.phy_frames_tx += other.phy_frames_tx;
        self.phy_airtime_us += other.phy_airtime_us;
        self.phy_queue_wait_us
            .extend_from_slice(&other.phy_queue_wait_us);
        self.phy_queue_wait_us.sort_unstable();
        self.sim_elapsed_us += other.sim_elapsed_us;
        for (name, v) in &other.agent_counters {
            *self.agent_counters.entry(name.clone()).or_insert(0) += v;
        }
    }

    /// [`merge`](Self::merge) as a consuming fold step.
    #[must_use]
    pub fn merged(mut self, other: &WorldStats) -> WorldStats {
        self.merge(other);
        self
    }

    /// The canonical form used for merge comparisons: the per-event series
    /// sorted (deliveries and phy queue waits carry no order information
    /// across shards).
    #[must_use]
    pub fn canonical(mut self) -> WorldStats {
        self.delivery_latencies_us.sort_unstable();
        self.phy_queue_wait_us.sort_unstable();
        self
    }

    /// Reads a merged agent counter by name.
    #[must_use]
    pub fn agent_counter(&self, name: &str) -> u64 {
        self.agent_counters.get(name).copied().unwrap_or(0)
    }

    /// Number of delivered packets (convenience used by examples).
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.data_delivered
    }

    /// The first field (in declaration order) on which two snapshots
    /// disagree, as `(field name, self value, other value)`; `None` when
    /// they are equal. This is the campaign determinism checker's first
    /// diagnostic: it names *what* diverged before the trace replay shows
    /// *where*.
    #[must_use]
    pub fn first_difference(&self, other: &WorldStats) -> Option<(&'static str, String, String)> {
        macro_rules! cmp {
            ($field:ident) => {
                if self.$field != other.$field {
                    return Some((
                        stringify!($field),
                        format!("{:?}", self.$field),
                        format!("{:?}", other.$field),
                    ));
                }
            };
        }
        cmp!(data_sent);
        cmp!(data_delivered);
        cmp!(data_dropped_ttl);
        cmp!(data_dropped_link);
        cmp!(data_dropped_buffer);
        cmp!(data_dropped_crash);
        cmp!(data_corrupted);
        cmp!(data_duplicated);
        cmp!(data_dup_delivered);
        cmp!(data_reordered);
        cmp!(data_hops);
        cmp!(delivery_latency_total);
        if self.delivery_latencies_us != other.delivery_latencies_us {
            let idx = self
                .delivery_latencies_us
                .iter()
                .zip(&other.delivery_latencies_us)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| {
                    self.delivery_latencies_us
                        .len()
                        .min(other.delivery_latencies_us.len())
                });
            let show = |v: &Vec<u64>| match v.get(idx) {
                Some(us) => format!("[{idx}]={us}us"),
                None => format!("len={}", v.len()),
            };
            return Some((
                "delivery_latencies_us",
                show(&self.delivery_latencies_us),
                show(&other.delivery_latencies_us),
            ));
        }
        cmp!(control_frames);
        cmp!(control_bytes);
        cmp!(control_received);
        cmp!(control_lost);
        cmp!(faults_injected);
        cmp!(node_crashes);
        cmp!(node_reboots);
        cmp!(battery_exhaustions);
        cmp!(partitions_started);
        cmp!(partitions_healed);
        cmp!(link_flaps);
        cmp!(phy_queue_drops);
        cmp!(phy_frames_tx);
        cmp!(phy_airtime_us);
        cmp!(phy_queue_wait_us);
        cmp!(sim_elapsed_us);
        if self.agent_counters != other.agent_counters {
            let mut names: Vec<&String> = self
                .agent_counters
                .keys()
                .chain(other.agent_counters.keys())
                .collect();
            names.sort();
            names.dedup();
            for name in names {
                let a = self.agent_counters.get(name).copied().unwrap_or(0);
                let b = other.agent_counters.get(name).copied().unwrap_or(0);
                if a != b {
                    return Some((
                        "agent_counters",
                        format!("{name}={a}"),
                        format!("{name}={b}"),
                    ));
                }
            }
        }
        None
    }
}

/// A cursor over a [`World`](crate::World)'s statistics stream.
///
/// This is the single windowing primitive: open a cursor with
/// [`World::stats_window`](crate::World::stats_window), then each
/// [`advance`](Self::advance) returns the activity since the cursor's last
/// position and moves the cursor to *now*. Multiple cursors over the same
/// world are independent — the chaos campaigns and the parallel campaign
/// engine both slice one run without coordinating.
#[derive(Debug, Clone, Default)]
pub struct StatsWindow {
    base: WorldStats,
}

impl StatsWindow {
    pub(crate) fn new(base: WorldStats) -> Self {
        StatsWindow { base }
    }

    /// Statistics accumulated since the cursor's position, without moving
    /// the cursor.
    #[must_use]
    pub fn peek(&self, world: &crate::World) -> WorldStats {
        world.stats().delta_since(&self.base)
    }

    /// Returns the statistics accumulated since the cursor's position and
    /// advances the cursor to the world's current totals.
    pub fn advance(&mut self, world: &crate::World) -> WorldStats {
        let snapshot = world.stats();
        let window = snapshot.delta_since(&self.base);
        self.base = snapshot;
        window
    }

    /// Moves the cursor to the world's current totals, discarding the
    /// elapsed window (e.g. a warm-up or re-convergence gap).
    pub fn skip(&mut self, world: &crate::World) {
        self.base = world.stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_and_means() {
        let mut s = WorldStats::default();
        assert_eq!(s.delivery_ratio(), 1.0);
        assert_eq!(s.mean_delivery_latency(), SimDuration::ZERO);
        s.data_sent = 4;
        s.data_delivered = 3;
        s.delivery_latency_total = SimDuration::from_millis(30);
        assert!((s.delivery_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(s.mean_delivery_latency(), SimDuration::from_millis(10));
    }

    #[test]
    fn mean_rounds_to_nearest_microsecond() {
        let mut s = WorldStats {
            data_delivered: 3,
            ..WorldStats::default()
        };
        // 10 µs over 3 deliveries: 3.33 µs → rounds to 3 µs.
        s.delivery_latency_total = SimDuration::from_micros(10);
        assert_eq!(s.mean_delivery_latency(), SimDuration::from_micros(3));
        // 11 µs over 3: 3.67 µs → rounds up to 4 µs (the seed truncated to 3).
        s.delivery_latency_total = SimDuration::from_micros(11);
        assert_eq!(s.mean_delivery_latency(), SimDuration::from_micros(4));
    }

    #[test]
    fn quantiles_are_exact() {
        let mut s = WorldStats::default();
        assert_eq!(s.p50_delivery_latency(), SimDuration::ZERO);
        assert_eq!(s.p95_delivery_latency(), SimDuration::ZERO);
        // Deliveries arrive out of order; quantiles sort internally.
        s.delivery_latencies_us = vec![50, 10, 40, 20, 30];
        assert_eq!(s.p50_delivery_latency(), SimDuration::from_micros(30));
        assert_eq!(s.p95_delivery_latency(), SimDuration::from_micros(50));
        assert_eq!(
            s.delivery_latency_quantile(0.0),
            SimDuration::from_micros(10)
        );
        let tail: Vec<u64> = (1..=100).collect();
        s.delivery_latencies_us = tail;
        assert_eq!(s.p95_delivery_latency(), SimDuration::from_micros(95));
    }

    #[test]
    fn delta_since_windows_counters_and_latencies() {
        let mut base = WorldStats {
            data_sent: 10,
            data_delivered: 8,
            delivery_latencies_us: vec![5, 5],
            delivery_latency_total: SimDuration::from_micros(10),
            ..WorldStats::default()
        };
        base.agent_counters.insert("hello".into(), 4);

        let mut later = base.clone();
        later.data_sent = 25;
        later.data_delivered = 20;
        later.node_crashes = 1;
        later.delivery_latencies_us = vec![5, 5, 9, 11];
        later.delivery_latency_total = SimDuration::from_micros(30);
        later.agent_counters.insert("hello".into(), 7);

        let w = later.delta_since(&base);
        assert_eq!(w.data_sent, 15);
        assert_eq!(w.data_delivered, 12);
        assert_eq!(w.node_crashes, 1);
        assert_eq!(w.delivery_latencies_us, vec![9, 11]);
        assert_eq!(w.delivery_latency_total, SimDuration::from_micros(20));
        assert_eq!(w.agent_counter("hello"), 3);
        // Windowing an identical snapshot yields the zero window.
        let zero = later.delta_since(&later);
        assert_eq!(zero.data_sent, 0);
        assert!(zero.delivery_latencies_us.is_empty());
    }

    #[test]
    fn merge_sums_counters_and_merges_latency_multisets() {
        let mut a = WorldStats {
            data_sent: 3,
            data_delivered: 2,
            delivery_latencies_us: vec![30, 10],
            delivery_latency_total: SimDuration::from_micros(40),
            ..WorldStats::default()
        };
        a.agent_counters.insert("rreq".into(), 2);
        let mut b = WorldStats {
            data_sent: 5,
            data_delivered: 3,
            delivery_latencies_us: vec![20, 50, 40],
            delivery_latency_total: SimDuration::from_micros(110),
            ..WorldStats::default()
        };
        b.agent_counters.insert("rreq".into(), 1);
        b.agent_counters.insert("tc".into(), 7);

        let m = a.clone().merged(&b);
        assert_eq!(m.data_sent, 8);
        assert_eq!(m.data_delivered, 5);
        assert_eq!(m.delivery_latencies_us, vec![10, 20, 30, 40, 50]);
        assert_eq!(m.delivery_latency_total, SimDuration::from_micros(150));
        assert_eq!(m.agent_counter("rreq"), 3);
        assert_eq!(m.agent_counter("tc"), 7);
        // Exact percentile over the merged multiset, not an average of the
        // shard percentiles.
        assert_eq!(m.p50_delivery_latency(), SimDuration::from_micros(30));
        // Order-insensitive: b ⊎ a is byte-identical to a ⊎ b.
        assert_eq!(m, b.clone().merged(&a));
        // Associative over a third shard.
        let c = WorldStats {
            data_delivered: 1,
            delivery_latencies_us: vec![25],
            ..WorldStats::default()
        };
        assert_eq!(
            a.clone().merged(&b).merged(&c),
            a.clone().merged(&c.clone().merged(&b))
        );
        // Identity: merging the zero snapshot changes nothing.
        assert_eq!(a.clone().merged(&WorldStats::default()), a.canonical());
    }

    #[test]
    fn first_difference_names_the_earliest_divergent_field() {
        let a = WorldStats {
            data_sent: 5,
            control_frames: 9,
            ..WorldStats::default()
        };
        assert_eq!(a.first_difference(&a), None);

        let mut b = a.clone();
        b.control_frames = 11;
        b.data_hops = 2;
        // data_hops precedes control_frames in declaration order.
        let (field, left, right) = a.first_difference(&b).unwrap();
        assert_eq!(field, "data_hops");
        assert_eq!((left.as_str(), right.as_str()), ("0", "2"));

        let mut c = a.clone();
        c.delivery_latencies_us = vec![10, 30];
        let mut d = a.clone();
        d.delivery_latencies_us = vec![10, 40];
        let (field, left, right) = c.first_difference(&d).unwrap();
        assert_eq!(field, "delivery_latencies_us");
        assert_eq!((left.as_str(), right.as_str()), ("[1]=30us", "[1]=40us"));

        let mut e = a.clone();
        e.agent_counters.insert("olsr.tc".into(), 3);
        let (field, left, right) = a.first_difference(&e).unwrap();
        assert_eq!(field, "agent_counters");
        assert_eq!((left.as_str(), right.as_str()), ("olsr.tc=0", "olsr.tc=3"));
    }

    #[test]
    fn agent_counters_default_zero() {
        let mut s = WorldStats::default();
        assert_eq!(s.agent_counter("x"), 0);
        s.agent_counters.insert("x".into(), 2);
        assert_eq!(s.agent_counter("x"), 2);
    }
}
