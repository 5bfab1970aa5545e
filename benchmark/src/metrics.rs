//! The metric names the benchmark emits, with their units. `BENCHMARK.json`
//! lists the same names (a test holds the two together); bounds and
//! directions live only there.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("delivery_ratio", "ratio"),
];

/// Per-layer metrics, reported by every traced run. A metric reads 0 on a
/// workload that does not exercise its layer.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("simkern.hold_events_per_s", "1/s"),
    ("netsim.events", "count"),
    ("netsim.us_per_event", "us"),
    ("netsim.run_s", "s"),
    ("netsim.self_s", "s"),
    ("netsim.build_s", "s"),
    ("netsim.install_s", "s"),
    ("netsim.data_hops", "count"),
    ("netsim.control_frames", "count"),
    ("netsim.control_received", "count"),
    ("netsim.control_lost", "count"),
    ("netsim.allocs_per_event", "1/event"),
    ("netsim.alloc_bytes_per_event", "B/event"),
    ("netsim.topology.neighbours_per_s", "1/s"),
    ("netsim.topology.geo_next_hop_per_s", "1/s"),
    ("netsim.topology.move_node_per_s", "1/s"),
    ("netsim.topology.matrix_neighbours_per_s", "1/s"),
    ("netsim.stats_us_per_call", "us"),
    ("netsim.stats_calls", "count"),
    ("netsim.stats_s", "s"),
    ("netsim.build3_us", "us"),
    ("phy.frames_tx", "count"),
    ("phy.queue_drops", "count"),
    ("phy.airtime_us", "us"),
    ("phy.queue_wait_p95_us", "us"),
    ("phy.twin_ideal_wall_s", "s"),
    ("phy.twin_constant_wall_s", "s"),
    ("phy.layer_share", "ratio"),
    ("phy.ops_per_s.shared_k8", "1/s"),
    ("phy.ops_per_s.shared_k64", "1/s"),
    ("phy.ops_per_s.constant_k64", "1/s"),
    ("core.agent.on_frame_calls", "count"),
    ("core.agent.on_frame_s", "s"),
    ("core.agent.on_timer_calls", "count"),
    ("core.agent.on_timer_s", "s"),
    ("core.agent.on_filter_calls", "count"),
    ("core.agent.on_filter_s", "s"),
    ("core.bus.dispatch_rounds", "count"),
    ("core.bus.events_in", "count"),
    ("core.bus.queue_depth_hwm", "count"),
    ("core.bus.dispatch_events_per_s", "1/s"),
    ("core.reconfig.execute_calls", "count"),
    ("core.reconfig.execute_s", "s"),
    ("core.reconfig.txn_prepared", "count"),
    ("core.reconfig.txn_committed", "count"),
    ("core.reconfig.txn_rolled_back", "count"),
    ("core.reconfig.switch_us", "us"),
    ("baseline.dymoum_wall_s", "s"),
    ("core.framework_overhead_ratio", "ratio"),
    ("olsr.compute_routes_us", "us"),
    ("olsr.us_per_control_rx", "us"),
    ("packetbb.decode_mb_per_s", "MB/s"),
    ("packetbb.decode_frames_per_s", "1/s"),
    ("packetbb.encode_mb_per_s", "MB/s"),
    ("trace.attached_overhead_ratio", "ratio"),
    ("campaign.cells_per_s.t1", "1/s"),
    ("campaign.cells_per_s.tN", "1/s"),
    ("campaign.speedup", "ratio"),
    ("campaign.host_threads", "count"),
    ("mcheck.explored", "count"),
    ("mcheck.unique", "count"),
    ("mcheck.dedup_ratio", "ratio"),
    ("mcheck.states_per_s", "1/s"),
    ("harness.trace_overhead_ratio", "ratio"),
];

/// The per-layer ledger of one traced run: every name of [`PER_LAYER`],
/// 0 until the run sets it.
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    pub fn new() -> Ledger {
        Ledger(PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect())
    }

    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }

    /// Sets several metrics at once.
    pub fn set_all(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in values {
            self.set(name, value);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// `part / whole`, or 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
