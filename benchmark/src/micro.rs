//! Micro-drives: direct loops over one layer's public functions, on inputs
//! shaped like the workloads'. Each returns a rate or a time per call; the
//! work per drive is fixed (a tenth of it under `--smoke`).

use std::hint::black_box;
use std::time::Instant;

use adapt::Stack;
use campaign::{
    CampaignSpec, FaultSpec, Protocol, RunConfig, ScenarioSpec, TopologySpec, TrafficSpec,
};
use manetkit::event::ContextValue;
use manetkit::prelude::*;
use manetkit_olsr::olsr::OlsrState;
use netsim::phy::{Enqueue, Phy, Resched, TxId};
use netsim::{Channel, NodeId, NodeOs, PhyModel, SimDuration, SimTime, Topology, World};
use packetbb::{Address, Packet};
use simkern::EventQueue;

/// How much work each drive does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    fn ops(self, full: usize) -> usize {
        if self.smoke {
            full / 10
        } else {
            full
        }
    }
}

fn per_second(ops: usize, started: Instant) -> f64 {
    ops as f64 / started.elapsed().as_secs_f64()
}

fn micros_per_call(calls: usize, started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// A deterministic stream of pseudo-random numbers (the LCG of
/// `dispatch_hot_path`'s kernel audit).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 31) as f64
    }
}

fn address(node: usize) -> Address {
    Address::v4([10, 0, (node >> 8) as u8, node as u8])
}

/// `simkern`: the hold model of `dispatch_hot_path`'s kernel audit —
/// 131,072 pending timers held steady while the earliest is popped and a
/// fresh one scheduled. Mostly link-delay-scale delays, one in 64 at
/// protocol-timer scale, with a payload the size of `netsim`'s event.
pub fn simkern_hold_events_per_s(scale: Scale) -> f64 {
    const HELD: usize = 1 << 17;
    type Payload = [u64; 11];
    fn delay(lcg: &mut Lcg) -> SimDuration {
        let r = lcg.next();
        let span = if r.is_multiple_of(64) {
            1 << 24
        } else {
            1 << 14
        };
        SimDuration::from_micros(1 + (r >> 6) % span)
    }

    let mut lcg = Lcg(0x5eed_cafe);
    let mut queue: EventQueue<Payload> = EventQueue::new();
    for i in 0..HELD {
        queue.schedule(SimTime::ZERO + delay(&mut lcg), [i as u64; 11]);
    }
    let mut hold = |ops: usize| {
        for _ in 0..ops {
            let (_, event) = queue
                .pop_due(SimTime::MAX)
                .expect("the held population never drains");
            let at = queue.now() + delay(&mut lcg);
            queue.schedule(at, black_box(event));
        }
    };
    hold(1 << 16); // reach the steady state before timing
    let ops = scale.ops(1 << 21);
    let started = Instant::now();
    hold(ops);
    per_second(ops, started)
}

/// `netsim` topology: neighbour queries, greedy geographic next hops and
/// incremental moves on `city_geo`'s 10,000-node spatial index. Returns
/// `[neighbours, geo_next_hop, move_node]` per second.
pub fn spatial_index_per_s(scale: Scale, nodes: usize, radius: f64, seed: u64) -> [f64; 3] {
    let mut topology = Topology::random_spatial(nodes, radius, seed);
    let ops = scale.ops(200_000);

    let started = Instant::now();
    for i in 0..ops {
        black_box(topology.neighbours(NodeId(i % nodes)));
    }
    let neighbours = per_second(ops, started);

    let started = Instant::now();
    for i in 0..ops {
        let (from, to) = (i % nodes, (i * 7919 + 13) % nodes);
        black_box(topology.geo_next_hop(NodeId(from), NodeId(to)));
    }
    let next_hop = per_second(ops, started);

    // A random-waypoint step: each node shifts by about a fifth of the
    // radio radius, so some moves cross a grid bucket and most do not.
    let mut lcg = Lcg(seed);
    let started = Instant::now();
    for i in 0..ops {
        let node = NodeId(i % nodes);
        let (x, y) = topology
            .position(node)
            .expect("a spatial topology has positions");
        let step = |at: f64, r: f64| (at + (r - 0.5) * 0.4 * radius).clamp(0.0, 1.0);
        topology.move_node(node, step(x, lcg.unit()), step(y, lcg.unit()));
    }
    let moves = per_second(ops, started);
    [neighbours, next_hop, moves]
}

/// `netsim` topology: neighbour queries on a link matrix (`mesh_dymo`'s).
pub fn matrix_neighbours_per_s(scale: Scale, topology: &Topology) -> f64 {
    let ops = scale.ops(200_000);
    let started = Instant::now();
    for i in 0..ops {
        black_box(topology.neighbours(NodeId(i % topology.len())));
    }
    per_second(ops, started)
}

/// `netsim` statistics: one `World::stats()` snapshot of a world that has
/// finished a run and holds its delivery latencies.
pub fn stats_us_per_call(scale: Scale, world: &World) -> f64 {
    let calls = scale.ops(50).max(3);
    let started = Instant::now();
    for _ in 0..calls {
        black_box(world.stats());
    }
    micros_per_call(calls, started)
}

/// `netsim` build: a 3-node full-mesh world with an OLSR fleet installed —
/// what the model checker rebuilds for every state it visits.
pub fn build3_us(scale: Scale, seed: u64) -> f64 {
    let builds = scale.ops(2_000);
    let started = Instant::now();
    for _ in 0..builds {
        let mut world = World::builder()
            .topology(Topology::full(3))
            .seed(seed)
            .build();
        black_box(adapt::install_fleet(&mut world, Stack::Olsr));
        black_box(world);
    }
    micros_per_call(builds, started)
}

/// `phy`: frames per second through `Phy::enqueue` / `Phy::complete` with
/// `k` transmitters always on the air, spread over 16 contention domains
/// (128-byte frames on `phy_air`'s 128 kb/s channel). Every start and
/// finish moves the deadlines of the transmissions it shares a domain
/// with; stale deadlines are popped and ignored, as in the world.
pub fn phy_frames_per_s(scale: Scale, shared: bool, k: usize) -> f64 {
    const DOMAINS: u32 = 16;
    const WIRE_BYTES: usize = 128;
    let channel = Channel {
        bits_per_sec: 128_000,
        queue_frames: 16,
    };
    let model = if shared {
        PhyModel::SharedAirtime(channel)
    } else {
        PhyModel::ConstantBandwidth(channel)
    };
    let mut phy: Phy<usize> = Phy::new(&model, k).expect("the model is not ideal");
    let mut deadlines: EventQueue<(TxId, u64)> = EventQueue::new();
    let push = |deadlines: &mut EventQueue<(TxId, u64)>, moved: Vec<Resched>| {
        for r in moved {
            deadlines.schedule(r.at, (r.tx, r.seq));
        }
    };
    let domain = |node: usize| (node as u32 % DOMAINS, node as u32 % DOMAINS);
    for node in 0..k {
        let (outcome, moved) = phy.enqueue(SimTime::ZERO, node, domain(node), WIRE_BYTES, node);
        assert!(
            matches!(outcome, Enqueue::Started(_)),
            "an idle transmitter starts"
        );
        push(&mut deadlines, moved);
    }

    let frames = scale.ops(if shared { 40_000 } else { 400_000 });
    let mut done = 0;
    let started = Instant::now();
    while done < frames {
        let (at, (tx, seq)) = deadlines
            .pop_due(SimTime::MAX)
            .expect("every transmission on the air has a deadline");
        let Some((finished, moved)) = phy.complete(at, tx, seq) else {
            continue; // a deadline that moved since it was scheduled
        };
        push(&mut deadlines, moved);
        let node = finished.node;
        let (_, moved) = phy.enqueue(
            at,
            node,
            domain(node),
            WIRE_BYTES,
            black_box(finished.payload),
        );
        push(&mut deadlines, moved);
        done += 1;
    }
    per_second(frames, started)
}

/// `core` bus: handler deliveries per second through `Deployment::dispatch`
/// on a deployment of four protocols that all subscribe to one event type
/// and do nothing with it (the fan-out 4 case of `dispatch_hot_path`).
pub fn bus_deliveries_per_s(scale: Scale) -> f64 {
    const FANOUT: usize = 4;
    const BATCH: usize = 1024;
    struct Sink(EventType);
    impl EventHandler for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn subscriptions(&self) -> Vec<EventType> {
            vec![self.0]
        }
        fn handle(&mut self, event: &Event, _state: &mut StateSlot, _ctx: &mut ProtoCtx<'_>) {
            black_box(event.ty.id());
        }
    }

    let ty = EventType::named("BENCHMARK_EVT");
    let mut deployment = Deployment::new(ConcurrencyModel::SingleThreaded);
    for i in 0..FANOUT {
        let cf = ManetProtocolCf::builder(format!("sink{i}"))
            .tuple(EventTuple::new().requires(ty))
            .state(StateSlot::new(()))
            .handler(Box::new(Sink(ty)))
            .build();
        deployment
            .add_protocol_offline(cf)
            .expect("sink protocols deploy");
    }
    let mut os = NodeOs::standalone(NodeId(0), address(1));
    deployment.start(&mut os);
    let batch = || -> Vec<Event> {
        (0..BATCH)
            .map(|i| Event {
                ty,
                payload: Payload::Context(ContextValue::Custom("seq", i as f64)),
                meta: Default::default(),
            })
            .collect()
    };
    deployment.dispatch(&mut os, batch(), None); // warm

    let rounds = scale.ops(400);
    let batches: Vec<Vec<Event>> = (0..rounds).map(|_| batch()).collect();
    let started = Instant::now();
    for events in batches {
        deployment.dispatch(&mut os, events, None);
    }
    per_second(rounds * BATCH * FANOUT, started)
}

/// `core` reconfiguration: one `Deployment::apply(SwitchProtocol)` on a
/// started DYMO deployment, replacing DYMO by a fresh DYMO that takes over
/// its state. The replacement protocols are built before timing starts.
pub fn switch_us(scale: Scale) -> f64 {
    let mut deployment = Deployment::new(ConcurrencyModel::SingleThreaded);
    manetkit_dymo::deploy(&mut deployment, Default::default()).expect("DYMO deploys");
    let mut os = NodeOs::standalone(NodeId(0), address(1));
    deployment.start(&mut os);
    let switches = scale.ops(2_000);
    let replacements: Vec<ManetProtocolCf> = (0..switches)
        .map(|_| manetkit_dymo::dymo_cf(Default::default()))
        .collect();
    let started = Instant::now();
    for new in replacements {
        deployment
            .apply(
                ReconfigOp::SwitchProtocol {
                    old: manetkit_dymo::DYMO_CF.into(),
                    new,
                    transfer_state: true,
                },
                &mut os,
            )
            .expect("DYMO switches to DYMO");
    }
    micros_per_call(switches, started)
}

/// `olsr`: one `OlsrState::compute_routes` at the corner node of a
/// `rows` x `cols` grid whose whole link state was learned through
/// `apply_tc` (every node advertising all its neighbours).
pub fn compute_routes_us(scale: Scale, rows: usize, cols: usize) -> f64 {
    let topology = Topology::grid(rows, cols);
    let neighbours = |node: usize| -> Vec<Address> {
        topology
            .neighbours(NodeId(node))
            .into_iter()
            .map(|n| address(n.0))
            .collect()
    };
    let mut state = OlsrState {
        sym_neighbours: neighbours(0),
        ..OlsrState::default()
    };
    for node in 1..rows * cols {
        let fresh = state.apply_tc(
            address(node),
            1,
            &neighbours(node),
            SimTime::ZERO,
            SimDuration::from_secs(15),
        );
        assert!(fresh, "a first TC is never stale");
    }
    let routes = state.compute_routes(address(0));
    assert_eq!(routes.len(), rows * cols - 1, "every other node is routed");

    let calls = scale.ops(500);
    let started = Instant::now();
    for _ in 0..calls {
        black_box(state.compute_routes(address(0)));
    }
    micros_per_call(calls, started)
}

/// `packetbb`: decode and re-encode throughput over control frames
/// captured from a run. Returns `[decode MB/s, decode frames/s, encode
/// MB/s]`, or zeros when there is nothing to decode.
pub fn codec_rates(scale: Scale, frames: &[Vec<u8>]) -> [f64; 3] {
    let packets: Vec<Packet> = frames
        .iter()
        .filter_map(|bytes| Packet::decode(bytes).ok())
        .collect();
    if packets.is_empty() {
        return [0.0; 3];
    }
    let rounds = scale.ops(100).max(1);

    let mut decoded_bytes = 0;
    let mut decoded = 0;
    let started = Instant::now();
    for _ in 0..rounds {
        for bytes in frames {
            if black_box(Packet::decode(bytes)).is_ok() {
                decoded_bytes += bytes.len();
                decoded += 1;
            }
        }
    }
    let decode_s = started.elapsed().as_secs_f64();

    let mut encoded_bytes = 0;
    let mut out = Vec::new();
    let started = Instant::now();
    for _ in 0..rounds {
        for packet in &packets {
            out.clear();
            packet.encode(&mut out);
            encoded_bytes += black_box(&out).len();
        }
    }
    let encode_s = started.elapsed().as_secs_f64();
    [
        decoded_bytes as f64 / 1e6 / decode_s,
        decoded as f64 / decode_s,
        encoded_bytes as f64 / 1e6 / encode_s,
    ]
}

/// `campaign`: cells per second of the E13 full grid (2 scenarios x 5
/// protocols x 2 faults) over 12 seeds, on one thread and on every thread
/// the host offers. Returns `[t1, tN, host threads]`; smoke runs 2 seeds.
pub fn campaign_cells_per_s(scale: Scale, seed: u64) -> [f64; 3] {
    let scenario = |topology, dst| {
        ScenarioSpec::builder()
            .topology(topology)
            .traffic(TrafficSpec::cbr(
                NodeId(0),
                NodeId(dst),
                SimDuration::from_millis(250),
            ))
            .warmup(SimDuration::from_secs(30))
            .duration(SimDuration::from_secs(60))
            .build()
    };
    let seeds = if scale.smoke { 2 } else { 12 };
    let spec = CampaignSpec::new("e13-full")
        .scenario("line5", scenario(TopologySpec::Line(5), 4))
        .scenario("grid3x3", scenario(TopologySpec::Grid(3, 3), 8))
        .protocols(Protocol::ALL)
        .fault(FaultSpec::None)
        .fault(FaultSpec::CrashFor {
            node: NodeId(2),
            at: SimTime::ZERO + SimDuration::from_secs(45),
            downtime: SimDuration::from_secs(20),
        })
        .seeds((0..seeds).map(|i| seed + i));
    let cells = spec.cells().len();
    let rate = |threads: usize| {
        let report = campaign::engine::run(
            &spec,
            &RunConfig {
                threads,
                check_determinism: false,
            },
        );
        assert_eq!(report.cells.len(), cells, "every cell is reported");
        cells as f64 / (report.wall_micros as f64 / 1e6)
    };
    let host = campaign::available_threads();
    [rate(1), rate(host), host as f64]
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Scale = Scale { smoke: true };

    #[test]
    fn every_drive_reports_a_positive_finite_number() {
        let mut values = vec![
            simkern_hold_events_per_s(SMOKE),
            matrix_neighbours_per_s(SMOKE, &Topology::grid(5, 5)),
            build3_us(SMOKE, 1),
            phy_frames_per_s(SMOKE, true, 8),
            phy_frames_per_s(SMOKE, false, 64),
            bus_deliveries_per_s(SMOKE),
            switch_us(SMOKE),
            compute_routes_us(SMOKE, 4, 4),
        ];
        values.extend(spatial_index_per_s(SMOKE, 500, 0.11, 1));
        for v in values {
            assert!(v.is_finite() && v > 0.0, "{v}");
        }
    }

    #[test]
    fn codec_drive_skips_frames_that_do_not_decode() {
        assert_eq!(codec_rates(SMOKE, &[]), [0.0; 3]);
        assert_eq!(codec_rates(SMOKE, &[vec![0xff; 3]]), [0.0; 3]);
    }
}
