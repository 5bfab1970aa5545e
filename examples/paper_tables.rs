//! The paper's evaluation (§6) and the §5 variant ablations, regenerated and
//! checked in one run: Table 1 rows 1–2, Table 2 parts 1–2, Table 3 and
//! Fig. 7, E5–E10 and E12. Every row is printed beside the paper's figure
//! and written to one JSON report; the run exits non-zero when a shape the
//! paper claims does not hold.
//!
//! The report's `tables` section (everything before `,"timing"`) holds the
//! deterministic rows — simulated time, counters, the source census and
//! the live heap — and is byte-identical from run to run; the example's own
//! tests (`cargo test --example paper_tables`) pin those rows exactly. The
//! `timing` section holds the wall-clock rows (Table 1 row 1, E9's
//! throughput, E10), which are printed and never gated. Bus dispatch, a
//! protocol switch, the codec, the flight recorder's overhead and the
//! timing wheel are timed by the benchmark (`benchmark/`) instead.
//!
//! ```text
//! cargo run --release --example paper_tables -- [--out BENCH_paper_tables.json]
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Display;
use std::path::Path;
use std::time::Instant;

use manetkit_repro::campaign::{Protocol, ScenarioSpec, TopologySpec, TrafficSpec};
use manetkit_repro::manetkit::prelude::*;
use manetkit_repro::manetkit::{LabReport, Plugin, ThroughputLab};
use manetkit_repro::manetkit_baseline::{Dymoum, Olsrd};
use manetkit_repro::manetkit_dymo::variants::{flooding, multipath};
use manetkit_repro::manetkit_olsr::variants::{fisheye, power};
use manetkit_repro::netsim::fault::FaultPlan;
use manetkit_repro::netsim::traffic::{install_cbr, CbrFlow};
use manetkit_repro::netsim::{
    BatteryModel, GilbertElliott, LinkModel, LinkState, NodeId, NodeOs, RoutingAgent, SimDuration,
    SimTime, Topology, World, WorldStats,
};
use manetkit_repro::packetbb::{Address, Packet};
use manetkit_repro::{manetkit_dymo as dymo, manetkit_olsr as olsr};

/// Counts the heap bytes each thread holds (Table 2 part 2). Per thread, so
/// the census ignores whatever else runs beside it.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // The slot is gone while its thread is torn down; nothing to count then.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping beside it touches only
// a const-initialised thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The shapes checked so far, in order, each named after the context it
/// was checked in; a failure is printed when found.
#[derive(Default)]
struct Shapes {
    checked: Vec<(String, bool)>,
    context: String,
}

impl Shapes {
    /// Names the shapes checked from now on (a table, a row, a seed).
    fn at(&mut self, context: impl Display) {
        self.context = context.to_string();
    }

    fn check(&mut self, holds: bool, what: &str) {
        let name = format!("{}: {what}", self.context);
        if !holds {
            println!("  SHAPE FAILED: {name}");
        }
        self.checked.push((name, holds));
    }

    fn failed(&self) -> Vec<String> {
        (self.checked.iter().filter(|(_, holds)| !holds))
            .map(|(name, _)| format!("\"{name}\""))
            .collect()
    }
}

/// `[a,b,c]` of already-formatted JSON values.
fn list<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
    format!("[{}]", items.join(","))
}

fn secs(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(n)
}

fn ms(d: SimDuration) -> f64 {
    d.as_micros() as f64 / 1000.0
}

fn kib(bytes: f64) -> f64 {
    bytes / 1024.0
}

fn addr(n: u8) -> Address {
    Address::v4([10, 0, 0, n])
}

/// Seeds of every row that averages over seeds.
const SEEDS: [u64; 5] = [1, 2, 3, 4, 5];

fn seeded(topology: Topology, seed: u64) -> World {
    World::builder().topology(topology).seed(seed).build()
}

/// `topology` with one agent from `make` on every node.
fn world_of(topology: Topology, seed: u64, make: impl Fn() -> Box<dyn RoutingAgent>) -> World {
    let mut world = seeded(topology, seed);
    (0..world.node_count()).for_each(|i| world.install_agent(NodeId(i), make()));
    world
}

/// A world and the handles of its framework nodes.
type Fleet = (World, Vec<NodeHandle>);

/// `world` with a framework node from `node` on every node.
fn framework<C: Default>(mut world: World, node: fn(C) -> (ManetNode, NodeHandle)) -> Fleet {
    let handles = (0..world.node_count())
        .map(|i| {
            let (agent, handle) = node(C::default());
            world.install_agent(NodeId(i), Box::new(agent));
            handle
        })
        .collect();
    (world, handles)
}

fn apply_everywhere(handles: &[NodeHandle], ops: impl Fn() -> Vec<ReconfigOp>) {
    for handle in handles {
        ops().into_iter().for_each(|op| handle.apply(op));
    }
}

/// Node `src` sends `count` datagrams of `payload` bytes to `dst` from now
/// on.
fn cbr(world: &mut World, [src, dst]: [usize; 2], interval_ms: u64, count: u32, payload: usize) {
    let (src, dst, start) = (NodeId(src), world.addr(NodeId(dst)), world.now());
    let interval = SimDuration::from_millis(interval_ms);
    install_cbr(
        world,
        &CbrFlow {
            src,
            dst,
            start,
            interval,
            count,
            payload,
        },
    );
}

// ---- Table 1 row 2: route establishment delay -----------------------------------------

/// Runs in 5 ms steps for at most `limit` until `done` holds; returns how
/// long that took.
fn time_until(world: &mut World, limit: u64, done: impl Fn(&World) -> bool) -> Option<SimDuration> {
    let t0 = world.now();
    while !done(world) {
        if world.now() >= t0 + SimDuration::from_secs(limit) {
            return None;
        }
        world.run_for(SimDuration::from_millis(5));
    }
    Some(world.now() - t0)
}

/// OLSR: nodes 0–3 of the 5-node line converge for 60 s; node 4 then comes
/// into range of node 3, and the delay runs until node 4 routes to all four
/// peers.
fn olsr_establishment(protocol: Protocol, seed: u64) -> Option<SimDuration> {
    let mut topology = Topology::line(5);
    topology.set_link(NodeId(3), NodeId(4), LinkState::Down);
    let mut world = world_of(topology, seed, protocol.factory());
    world.run_for(SimDuration::from_secs(60));
    world.set_link(NodeId(3), NodeId(4), LinkState::Up);
    let peers: Vec<Address> = (0..4).map(|i| world.addr(NodeId(i))).collect();
    time_until(&mut world, 60, |w| {
        let table = w.os(NodeId(4)).route_table();
        peers.iter().all(|a| table.lookup(*a).is_some())
    })
}

/// DYMO: after 5 s of neighbourhood warm-up node 0 sends to node 4, and the
/// delay runs until node 0 holds a route to it (one discovery round trip).
fn dymo_establishment(protocol: Protocol, seed: u64) -> Option<SimDuration> {
    let mut world = world_of(Topology::line(5), seed, protocol.factory());
    world.run_for(SimDuration::from_secs(5));
    let far = world.addr(NodeId(4));
    world.send_datagram(NodeId(0), far, b"probe".to_vec());
    time_until(&mut world, 30, |w| {
        w.os(NodeId(0)).route_table().lookup(far).is_some()
    })
}

/// Table 1's implementations with the paper's rows 1 and 2 (ms).
const TABLE1: [(&str, Protocol, f64, f64); 4] = [
    ("Unik-olsrd (monolithic)", Protocol::Olsrd, 0.045, 995.0),
    ("MKit-OLSR", Protocol::MkitOlsr, 0.096, 1026.0),
    ("DYMOUM (monolithic)", Protocol::Dymoum, 0.135, 37.0),
    ("MKit-DYMO", Protocol::MkitDymo, 0.122, 27.3),
];

/// Table 1 row 2: each [`TABLE1`] implementation's delay per seed (`None`:
/// the route never appeared).
struct Establishment([Vec<Option<SimDuration>>; 4]);

impl Establishment {
    fn measure() -> Self {
        Establishment(TABLE1.map(|(_, protocol, ..)| {
            let measure = match protocol {
                Protocol::Olsrd | Protocol::MkitOlsr => olsr_establishment,
                _ => dymo_establishment,
            };
            SEEDS.iter().map(|&seed| measure(protocol, seed)).collect()
        }))
    }

    /// Mean delay per implementation in whole µs (a failed run counts 0).
    fn mean_us(&self) -> [u64; 4] {
        let mean = |runs: &Vec<Option<SimDuration>>| {
            runs.iter().flatten().map(|d| d.as_micros()).sum::<u64>() / runs.len() as u64
        };
        self.0.each_ref().map(mean)
    }

    fn report(&self, shapes: &mut Shapes) -> String {
        println!(
            "\n=== Table 1 row 2: route establishment delay (5-node line, simulated ms) ===\n"
        );
        let fmt = |d: &Option<SimDuration>| d.map_or("null".into(), |d| format!("{:.3}", ms(d)));
        let mut rows = Vec::new();
        for (i, ((name, .., paper), runs)) in TABLE1.iter().zip(&self.0).enumerate() {
            let (mean, per_seed) = (
                self.mean_us()[i] as f64 / 1000.0,
                list(runs.iter().map(fmt)),
            );
            println!("{name:<26} paper {paper:>7.1}  measured {mean:>9.3}  per seed {per_seed}");
            rows.push(format!(
                "{{\"implementation\":\"{name}\",\"paper_ms\":{paper},\"mean_ms\":{mean:.3},\"per_seed_ms\":{per_seed}}}"
            ));
            // OLSR is bound by its HELLO and TC intervals, DYMO by a round trip.
            let (bound, what) = match i {
                0 | 1 => (100_000..=30_000_000, "every run establishes in 0.1–30 s"),
                _ => (0..=500_000, "every run establishes in ≤ 500 ms"),
            };
            shapes.at(format!("table 1 row 2, {name}"));
            let within =
                |d: &Option<SimDuration>| d.is_some_and(|d| bound.contains(&d.as_micros()));
            shapes.check(runs.iter().all(within), what);
        }
        let [olsrd, mkit_olsr, dymoum, mkit_dymo] = self.mean_us().map(|us| us.max(1) as f64);
        let gap = list((self.0[1].iter().zip(&self.0[0])).map(|pair| match pair {
            (Some(mkit), Some(olsrd)) => format!("{:.3}", ms(*mkit) - ms(*olsrd)),
            _ => "null".into(),
        }));
        println!(
            "MKit-OLSR / olsrd {:.2} (paper 1.03); MKit-DYMO / DYMOUM {:.2} (paper 0.74); \
             OLSR / DYMO {:.0}x; MKit-OLSR minus olsrd per seed {gap} ms",
            mkit_olsr / olsrd,
            mkit_dymo / dymoum,
            mkit_olsr / mkit_dymo,
        );
        shapes.at("table 1 row 2");
        let within_2x = |ratio: f64| (0.5..2.0).contains(&ratio);
        let (olsr_ratio, dymo_ratio) = (mkit_olsr / olsrd, mkit_dymo / dymoum);
        shapes.check(within_2x(olsr_ratio), "MKit-OLSR within 2x of olsrd");
        shapes.check(within_2x(dymo_ratio), "MKit-DYMO within 2x of DYMOUM");
        let olsr_over_dymo = mkit_olsr / mkit_dymo;
        shapes.check(olsr_over_dymo >= 100.0, "OLSR takes ≥ 100x DYMO's time");
        let (seeds, rows) = (list(SEEDS), list(rows));
        format!("{{\"seeds\":{seeds},\"rows\":{rows},\"mkit_olsr_minus_olsrd_ms\":{gap}}}")
    }
}

// ---- Table 1 row 1: time to process a message (timed) --------------------------------

/// Median wall-clock µs per message over nine passes, each feeding every
/// packet once to a freshly started agent.
fn per_message_us(protocol: Protocol, packets: &[Vec<u8>]) -> f64 {
    let make = protocol.factory();
    let mut passes: Vec<f64> = (0..9)
        .map(|_| {
            let (mut agent, mut os) = (make(), NodeOs::standalone(NodeId(0), addr(1)));
            agent.start(&mut os);
            let started = Instant::now();
            for packet in packets {
                agent.on_frame(&mut os, addr(2), packet);
            }
            started.elapsed().as_secs_f64() * 1e6 / packets.len() as f64
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[passes.len() / 2]
}

/// Table 1 row 1: a TC (OLSR) or an RREQ (DYMO) processed from receipt to
/// completion, each with its own sequence number so duplicate suppression
/// never short-circuits the work. µs per [`TABLE1`] implementation.
fn time_to_process() -> [f64; 4] {
    let validity = SimDuration::from_secs(15);
    let tc = |i| olsr::olsr::build_tc(addr(2), i, i, validity, &[addr(3), addr(4), addr(5)], 255);
    let rreq =
        |seq| dymo::RouteElement::rreq(dymo::PathHop { addr: addr(2), seq }, addr(9), None, 10);
    let tcs: Vec<_> = (0..4096)
        .map(|i| Packet::single(tc(i)).encode_to_vec())
        .collect();
    let rreqs: Vec<_> = (0..4096)
        .map(|i| Packet::single(rreq(i).to_message()).encode_to_vec())
        .collect();
    TABLE1.map(|(_, protocol, ..)| {
        let olsr = matches!(protocol, Protocol::Olsrd | Protocol::MkitOlsr);
        per_message_us(protocol, if olsr { &tcs } else { &rreqs })
    })
}

fn report_time_to_process(us: [f64; 4]) -> String {
    println!("\n=== Table 1 row 1: time to process one message (wall clock, not gated) ===\n");
    let mut rows = Vec::new();
    for ((name, _, paper, _), us) in TABLE1.iter().zip(us) {
        println!("{name:<26} paper {paper:>6} ms  measured {us:>7.3} µs");
        rows.push(format!(
            "{{\"implementation\":\"{name}\",\"paper_ms\":{paper},\"measured_us\":{us:.3}}}"
        ));
    }
    let (olsr, dymo) = (us[1] / us[0], us[3] / us[2]);
    println!(
        "MKit-OLSR / olsrd {olsr:.1}x (paper 2.1x); MKit-DYMO / DYMOUM {dymo:.1}x (paper 0.9x)"
    );
    list(rows)
}

// ---- Table 2: footprint -----------------------------------------------------------------

/// Bytes of Rust source under `path` (a file, or a directory recursively).
fn source_bytes(path: &Path) -> u64 {
    match std::fs::read_dir(path) {
        Ok(entries) => entries.flatten().map(|e| source_bytes(&e.path())).sum(),
        Err(_) if path.extension().is_some_and(|e| e == "rs") => {
            std::fs::metadata(path).map_or(0, |m| m.len())
        }
        Err(_) => 0,
    }
}

/// Source bytes under the space-separated paths, relative to `crates/`.
fn census(paths: &str) -> u64 {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    paths
        .split(' ')
        .map(|p| source_bytes(&crates.join(p)))
        .sum()
}

/// The deployments Table 2 compares, with the paper's process image (KB).
const DEPLOYMENTS: [(&str, f64); 5] = [
    ("Unik-olsrd analogue (monolithic)", 136.3),
    ("DYMOUM analogue (monolithic)", 120.4),
    ("MKit-OLSR", 179.0),
    ("MKit-DYMO", 178.1),
    ("MKit OLSR+DYMO (one shared deployment)", 236.6),
];

/// Table 2 part 1: the source bytes each [`DEPLOYMENTS`] binary links,
/// shared files counted once per deployment (a `.text` proxy: the paper
/// measured code-dominated C images). A deployment links the framework
/// modules its stacks use: the reactive core only under DYMO, the
/// link-sensing core under both.
fn code_census() -> [u64; 5] {
    let packetbb = census("packetbb/src");
    let reactive = census("core/src/reactive.rs");
    let framework = census("core/src") - reactive + packetbb;
    let olsr = census("olsr/src/mpr olsr/src/olsr olsr/src/lib.rs");
    let dymo =
        census("dymo/src/handlers.rs dymo/src/messages.rs dymo/src/state.rs dymo/src/lib.rs");
    [
        census("baseline/src/olsrd.rs") + packetbb,
        census("baseline/src/dymoum.rs") + packetbb,
        framework + olsr,
        framework + reactive + dymo,
        framework + reactive + olsr + dymo,
    ]
}

/// Live heap bytes on this thread after building the 5-node line with the
/// agents `make` returns and running 40 s with three CBR flows.
fn live_heap(make: &dyn Fn() -> Option<Box<dyn RoutingAgent>>) -> isize {
    let before = LIVE.with(Cell::get);
    let mut world = seeded(Topology::line(5), 77);
    let agents: Vec<_> = (0..5).filter_map(|_| make()).collect();
    let any = !agents.is_empty();
    for (i, agent) in agents.into_iter().enumerate() {
        world.install_agent(NodeId(i), agent);
    }
    world.run_for(SimDuration::from_secs(10));
    for flow in [[0, 4], [4, 0], [1, 3]].into_iter().filter(|_| any) {
        cbr(&mut world, flow, 500, 40, 64);
    }
    world.run_for(SimDuration::from_secs(30));
    LIVE.with(Cell::get) - before
}

/// Table 2 part 2: live heap bytes per node of each [`DEPLOYMENTS`] entry,
/// with the emulator's own heap (a world without agents) subtracted.
fn heap_census() -> [isize; 5] {
    fn boxed(agent: impl RoutingAgent + 'static) -> Option<Box<dyn RoutingAgent>> {
        Some(Box::new(agent))
    }
    let empty = live_heap(&|| None);
    [
        live_heap(&|| boxed(Olsrd::new(Default::default()))),
        live_heap(&|| boxed(Dymoum::new())),
        live_heap(&|| boxed(olsr::node(Default::default()).0)),
        live_heap(&|| boxed(dymo::node(Default::default()).0)),
        live_heap(&|| {
            // One framework instance hosting OLSR and DYMO, DYMO flooding
            // through the shared MPR CF (the paper's leaner co-deployment).
            let mut node = ManetNode::new(ConcurrencyModel::SingleThreaded);
            olsr::deploy(node.deployment_mut(), Default::default()).ok()?;
            dymo::deploy_core(node.deployment_mut(), Default::default()).ok()?;
            apply_everywhere(&[node.handle()], || flooding::enable_ops(None));
            boxed(node)
        }),
    ]
    .map(|bytes| (bytes - empty) / 5)
}

fn report_footprint(code: [u64; 5], heap: [isize; 5], shapes: &mut Shapes) -> String {
    let (code_kib, heap_kib) = (code.map(|b| kib(b as f64)), heap.map(|b| kib(b as f64)));
    println!("\n=== Table 2: footprint (source KiB a deployment links; live heap KiB/node) ===\n");
    let mut rows = Vec::new();
    for (i, (name, paper)) in DEPLOYMENTS.iter().enumerate() {
        let (code_kib, heap_kib) = (code_kib[i], heap_kib[i]);
        println!("{name:<40} paper {paper:>5.1} KB  code {code_kib:>5.1}  heap {heap_kib:>4.1}");
        rows.push(format!(
            "{{\"deployment\":\"{name}\",\"paper_kb\":{paper},\"code_bytes\":{},\"heap_bytes_per_node\":{}}}",
            code[i], heap[i]
        ));
    }
    let marginal = code[4] - code[2];
    println!(
        "two MKit deployments: {:.1} KiB code, {:.1} KiB heap; adding DYMO to OLSR: {:.1} KiB code",
        code_kib[2] + code_kib[3],
        heap_kib[2] + heap_kib[3],
        kib(marginal as f64),
    );
    for (part, [olsrd, dymoum, mkit_olsr, mkit_dymo, both]) in
        [("code", code_kib), ("heap", heap_kib)]
    {
        shapes.at(format!("table 2, {part}"));
        shapes.check(mkit_olsr > olsrd, "MKit-OLSR costs more than olsrd");
        shapes.check(mkit_dymo > dymoum, "MKit-DYMO costs more than DYMOUM");
        let shared = both < mkit_olsr + mkit_dymo;
        shapes.check(shared, "one shared deployment costs less than two");
    }
    shapes.check(code.iter().all(|&b| b > 0), "the census finds every source");
    let cheap = 4 * marginal < code[3];
    shapes.check(cheap, "the second protocol costs under ¼ of the first");
    list(rows)
}

// ---- Table 3 and Figure 7: code reuse ----------------------------------------------------

/// This reproduction's component inventory, mirroring Table 3's rows:
/// name | generic or specific | the stacks using it | its files under
/// `crates/`. The MPR CF counts for the reactive stacks too: DYMO's
/// optimised-flooding variant floods through it. The Neighbour Detection CF
/// counts for OLSR: its module is the link-sensing core the MPR CF reads,
/// writes and reports HELLOs through.
const COMPONENTS: &str = "\
System CF (driver/netlink/power)|generic|OLSR DYMO AODV|core/src/system.rs
Framework Manager + event wiring|generic|OLSR DYMO AODV|core/src/manager.rs core/src/registry.rs
Event ontology|generic|OLSR DYMO AODV|core/src/event.rs
ManetControl CF (CFS pattern)|generic|OLSR DYMO AODV|core/src/protocol.rs
Deployment / reconfiguration|generic|OLSR DYMO AODV|core/src/node.rs
Concurrency models|generic|OLSR DYMO AODV|core/src/concurrency.rs
Neighbour Detection CF|generic|OLSR DYMO AODV|core/src/neighbour.rs
Reactive routing core|generic|DYMO AODV|core/src/reactive.rs
PacketGenerator/PacketParser (PacketBB)|generic|OLSR DYMO AODV|packetbb/src/packet.rs \
packetbb/src/message.rs packetbb/src/addrblock.rs packetbb/src/tlv.rs packetbb/src/wire.rs \
packetbb/src/address.rs packetbb/src/time.rs packetbb/src/registry.rs
Kernel RouteTable|generic|OLSR DYMO AODV|netsim/src/route.rs
MPR CF (shared flooding service)|generic|OLSR DYMO AODV|olsr/src/mpr/state.rs \
olsr/src/mpr/components.rs olsr/src/mpr/mod.rs
OLSR: topology set + route calc|specific|OLSR|olsr/src/olsr/state.rs
OLSR: TC generation/handling|specific|OLSR|olsr/src/olsr/components.rs olsr/src/olsr/mod.rs
OLSR: fisheye variant|specific|OLSR|olsr/src/variants/fisheye.rs
OLSR: power-aware variant|specific|OLSR|olsr/src/variants/power.rs
DYMO: route table|specific|DYMO|dymo/src/state.rs
DYMO: RE handler|specific|DYMO|dymo/src/handlers.rs
DYMO: message formats|specific|DYMO|dymo/src/messages.rs
DYMO: multipath variant|specific|DYMO|dymo/src/variants/multipath.rs
DYMO: optimised-flooding variant|specific|DYMO|dymo/src/variants/flooding.rs
DYMO: gossip-flooding variant|specific|DYMO|dymo/src/variants/gossip.rs
AODV: route table + precursors|specific|AODV|aodv/src/state.rs
AODV: RREQ/RREP handlers|specific|AODV|aodv/src/handlers.rs
AODV: message formats|specific|AODV|aodv/src/messages.rs";

/// Fig. 7's stacks with the paper's generic : specific component counts
/// and reused share in percent (AODV is this reproduction's addition).
const REUSE_PAPER: [(&str, &str); 3] = [
    ("OLSR", "[12,4,57]"),
    ("DYMO", "[12,5,66]"),
    ("AODV", "null"),
];

/// One measured component: name, generic, its users' row, its non-empty
/// lines (test modules included, as the paper counted whole files; `None`
/// when a file is missing).
type Component = (&'static str, bool, &'static str, Option<usize>);

fn components() -> Vec<Component> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let loc = |f: &str| std::fs::read_to_string(crates.join(f)).ok();
    let loc = |f| Some(loc(f)?.lines().filter(|l| !l.trim().is_empty()).count());
    let component = |line: &'static str| {
        let c: Vec<&'static str> = line.split('|').collect();
        let (name, kind, users, lines) = (c[0], c[1], c[2], c[3].split(' ').map(loc).sum());
        (name, kind == "generic", users, lines)
    };
    COMPONENTS.lines().map(component).collect()
}

/// Fig. 7's series for `stack`: generic and specific component counts and
/// their lines.
fn reuse_summary(components: &[Component], stack: &str) -> [usize; 4] {
    let mut s = [0; 4];
    for (_, generic, _, loc) in components.iter().filter(|c| c.2.contains(stack)) {
        let k = usize::from(!generic);
        s[k] += 1;
        s[k + 2] += loc.unwrap_or(0);
    }
    s
}

fn report_reuse(components: &[Component], shapes: &mut Shapes) -> String {
    println!("\n=== Table 3: components, their lines and their users ===\n");
    let mut rows = Vec::new();
    for &(name, generic, users, loc) in components {
        let loc = loc.map_or("null".into(), |l| l.to_string());
        println!(
            "{name:<40}{:>9}{loc:>6}  {users}",
            if generic { "generic" } else { "specific" }
        );
        rows.push(format!("{{\"component\":\"{name}\",\"generic\":{generic},\"loc\":{loc},\"users\":\"{users}\"}}"));
        shapes.at(format!("table 3, {name}"));
        let counted = !["null", "0"].contains(&loc.as_str());
        shapes.check(counted, "its files are counted");
    }
    println!("\n=== Figure 7: proportion of reused code ===\n");
    let mut summaries = Vec::new();
    for (stack, paper) in REUSE_PAPER {
        let [generic, specific, reused, own] = reuse_summary(components, stack);
        let pct = 100.0 * reused as f64 / (reused + own).max(1) as f64;
        println!(
            "{stack}: {generic}:{specific} components, {reused} reused and {own} own lines, \
             {pct:.1} % reused (paper [generic,specific,%]: {paper})"
        );
        summaries.push(format!(
            "{{\"stack\":\"{stack}\",\"generic\":{generic},\"specific\":{specific},\"reused_loc\":{reused},\
             \"own_loc\":{own},\"reused_pct\":{pct:.1},\"paper_generic_specific_pct\":{paper}}}"
        ));
        shapes.at(format!("table 3 and fig. 7, {stack}"));
        shapes.check(pct > 50.0, "most of its code is reused");
        let outnumber = 2 * generic >= 3 * specific;
        shapes.check(outnumber, "generic components ≥ 1.5x specific ones");
    }
    let (rows, summaries) = (list(rows), list(summaries));
    format!("{{\"components\":{rows},\"summary\":{summaries}}}")
}

// ---- E5–E8: variant ablations --------------------------------------------------------------

/// E5: TC relay transmissions over 90 s on lines of 6, 10 and 14 nodes:
/// `(nodes, standard, fisheye)`.
fn e5_fisheye() -> [(usize, u64, u64); 3] {
    let relays = |n, fisheye_on: bool| {
        let (mut world, handles) = framework(seeded(Topology::line(n), 5), olsr::node);
        if fisheye_on {
            let cf = || fisheye::fisheye_cf(Default::default());
            apply_everywhere(&handles, || vec![ReconfigOp::AddProtocol(cf())]);
        }
        world.run_for(SimDuration::from_secs(90));
        world.stats().agent_counter("flood_relayed")
    };
    [6, 10, 14].map(|n| (n, relays(n, false), relays(n, true)))
}

/// E6: the diamond 0 – {1, 2} – 3, node 0 sending to node 3 for 120 s on
/// small batteries: `(worst relay battery, delivery)` under standard and
/// power-aware OLSR.
fn e6_power() -> [(f64, f64); 2] {
    [false, true].map(|power_aware| {
        let mut topology = Topology::empty(4);
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            topology.set_link(NodeId(a), NodeId(b), LinkState::Up);
        }
        let battery = BatteryModel {
            capacity: 3_000.0,
            idle_per_sec: 0.0,
            tx_per_byte: 0.02,
            rx_per_byte: 0.01,
        };
        let world = World::builder().topology(topology).seed(6).battery(battery);
        let world = world.context_interval(SimDuration::from_secs(2)).build();
        let (mut world, handles) = framework(world, olsr::node);
        if power_aware {
            apply_everywhere(&handles, || power::enable_ops(Default::default()));
        }
        world.run_for(SimDuration::from_secs(25));
        cbr(&mut world, [0, 3], 250, 480, 256);
        world.run_for(SimDuration::from_secs(130));
        let level = |i| world.os(NodeId(i)).battery_level();
        (level(1).min(level(2)), world.stats().delivery_ratio())
    })
}

/// One E7 density: `(radius, connected, degree, [(RREQ relays, delivered)
/// blind, then flooding through the MPR CF])`.
type FloodingRow = (f64, bool, f64, [(u64, u64); 2]);

/// E7: RREQ relays for four discoveries on a 25-node random geometric
/// graph after 10 s of warm-up.
fn e7_flooding() -> [FloodingRow; 3] {
    let row = |radius| {
        let topology = Topology::random_geometric(25, radius, 13);
        let run = |optimised: bool| {
            let (mut world, handles) = framework(seeded(topology.clone(), 13), dymo::node);
            if optimised {
                let mpr = || olsr::mpr_cf(Default::default());
                apply_everywhere(&handles, || flooding::enable_ops(Some(mpr())));
            }
            world.run_for(SimDuration::from_secs(10));
            world.reset_stats();
            for (src, dst) in [(0, 24), (5, 20), (10, 3), (17, 8)] {
                let dst = world.addr(NodeId(dst));
                world.send_datagram(NodeId(src), dst, b"d".to_vec());
                world.run_for(SimDuration::from_secs(5));
            }
            let s = world.stats();
            (s.agent_counter("rreq_relayed"), s.data_delivered)
        };
        let (connected, degree) = (topology.is_connected(), topology.average_degree());
        (radius, connected, degree, [run(false), run(true)])
    };
    [0.32, 0.42, 0.55].map(row)
}

/// One E8 run: route discoveries, multipath failovers and delivery.
type ChurnRun = (u64, u64, f64);

/// E8: three link-disjoint paths 0 – {1, 2, 4} – 3, node 0 sending to node
/// 3 every 200 ms; every 3.5 s one of node 0's three links drops for 1 s,
/// in turn. Per seed, standard then multipath DYMO.
fn e8_multipath() -> [[ChurnRun; 2]; 5] {
    let run = |seed, multi| {
        let mut topology = Topology::empty(5);
        for relay in [1, 2, 4] {
            topology.set_link(NodeId(0), NodeId(relay), LinkState::Up);
            topology.set_link(NodeId(relay), NodeId(3), LinkState::Up);
        }
        let (mut world, handles) = framework(seeded(topology, seed), dymo::node);
        if multi {
            apply_everywhere(&handles, multipath::enable_ops);
        }
        world.run_for(SimDuration::from_secs(3));
        cbr(&mut world, [0, 3], 200, 280, 64);
        for victim in [1, 2, 4].repeat(3) {
            world.run_for(SimDuration::from_millis(2500));
            world.set_link(NodeId(0), NodeId(victim), LinkState::Down);
            world.run_for(SimDuration::from_secs(1));
            world.set_link(NodeId(0), NodeId(victim), LinkState::Up);
        }
        world.run_for(SimDuration::from_secs(5));
        let s = world.stats();
        let discoveries = s.agent_counter("route_discovery");
        let failovers = s.agent_counter("multipath_failover");
        (discoveries, failovers, s.delivery_ratio())
    };
    SEEDS.map(|seed| [run(seed, false), run(seed, true)])
}

/// The §5 ablations, measured.
struct Ablations {
    fisheye: [(usize, u64, u64); 3],
    power: [(f64, f64); 2],
    flooding: [FloodingRow; 3],
    multipath: [[ChurnRun; 2]; 5],
}

impl Ablations {
    fn measure() -> Self {
        Ablations {
            fisheye: e5_fisheye(),
            power: e6_power(),
            flooding: e7_flooding(),
            multipath: e8_multipath(),
        }
    }

    fn report(&self, shapes: &mut Shapes) -> String {
        println!("\n=== E5: fisheye OLSR, TC relays in 90 s (claim: fewer, more so on longer lines) ===\n");
        let (mut savings, mut e5) = (Vec::new(), Vec::new());
        for &(n, standard, fisheye) in &self.fisheye {
            let saving = 100.0 * (1.0 - fisheye as f64 / standard.max(1) as f64);
            println!("{n:>2}-node line: standard {standard:>4}, fisheye {fisheye:>4}, saving {saving:.0} %");
            shapes.at(format!("E5, {n}-node line"));
            shapes.check(fisheye < standard, "fisheye relays fewer TCs");
            savings.push(saving);
            e5.push(format!(
                "{{\"nodes\":{n},\"standard\":{standard},\"fisheye\":{fisheye}}}"
            ));
        }
        shapes.at("E5");
        let grows = savings.is_sorted_by(|a, b| a < b);
        shapes.check(grows, "the saving grows with the line");

        let [(std_battery, std_delivery), (pa_battery, pa_delivery)] = self.power;
        println!("\n=== E6: power-aware OLSR (claim: spares the weakest relay) ===\n");
        println!("standard:    worst relay battery {std_battery:.2}, delivery {std_delivery:.2}");
        println!("power-aware: worst relay battery {pa_battery:.2}, delivery {pa_delivery:.2}");
        shapes.at("E6, power-aware OLSR");
        shapes.check(pa_battery >= std_battery, "spares the worst relay");
        shapes.check(pa_delivery > 0.9, "delivers over 90 %");
        let e6 = |battery: f64, delivery: f64| {
            format!("{{\"worst_relay_battery\":{battery:.4},\"delivery\":{delivery:.4}}}")
        };
        let e6 = format!(
            "{{\"standard\":{},\"power_aware\":{}}}",
            e6(std_battery, std_delivery),
            e6(pa_battery, pa_delivery)
        );

        println!("\n=== E7: DYMO flooding through the MPR CF, RREQ relays (claim: fewer) ===\n");
        let mut e7 = Vec::new();
        for &(radius, connected, degree, [(blind, blind_ok), (mpr, mpr_ok)]) in &self.flooding {
            let saving = 100.0 * (1.0 - mpr as f64 / blind.max(1) as f64);
            println!("radius {radius}, degree {degree:4.1}: blind {blind}, MPR {mpr:>2}, saving {saving:.0} %");
            shapes.at(format!("E7, radius {radius}"));
            shapes.check(connected, "the graph is connected");
            shapes.check(blind_ok >= 3 && mpr_ok >= 3, "both floods deliver");
            shapes.check(mpr < blind, "MPR flooding relays fewer RREQs");
            e7.push(format!(
                "{{\"radius\":{radius},\"degree\":{degree:.1},\"blind\":{blind},\"mpr\":{mpr},\
                 \"delivered\":[{blind_ok},{mpr_ok}]}}"
            ));
        }

        println!(
            "\n=== E8: multipath DYMO under link churn (claim: fewer route discoveries) ===\n"
        );
        let mut e8 = Vec::new();
        for (seed, [(std_disc, _, std_dr), (mp_disc, failovers, mp_dr)]) in
            SEEDS.iter().zip(&self.multipath)
        {
            println!(
                "seed {seed}: standard {std_disc} discoveries, delivery {std_dr:.3}; \
                 multipath {mp_disc} discoveries, {failovers} failovers, delivery {mp_dr:.3}"
            );
            shapes.at(format!("E8, seed {seed}"));
            shapes.check(mp_disc <= std_disc, "multipath floods no more often");
            e8.push(format!(
                "{{\"seed\":{seed},\"standard\":{{\"discoveries\":{std_disc},\"delivery\":{std_dr:.4}}},\
                 \"multipath\":{{\"discoveries\":{mp_disc},\"failovers\":{failovers},\"delivery\":{mp_dr:.4}}}}}"
            ));
        }
        let sum = |f: fn(&[ChurnRun; 2]) -> f64| self.multipath.iter().map(f).sum::<f64>();
        let (std_total, mp_total) = (sum(|r| r[0].0 as f64), sum(|r| r[1].0 as f64));
        let (failovers, seeds) = (sum(|r| r[1].1 as f64), SEEDS.len() as f64);
        let (std_dr, mp_dr) = (sum(|r| r[0].2) / seeds, sum(|r| r[1].2) / seeds);
        println!(
            "total: standard {std_total} discoveries, multipath {mp_total} with {failovers} \
             failovers; mean delivery {std_dr:.3} vs {mp_dr:.3}"
        );
        shapes.at("E8");
        shapes.check(mp_total < std_total, "multipath discovers less in total");
        shapes.check(failovers > 0.0, "multipath fails over");
        let equal = (std_dr - mp_dr).abs() < 0.01;
        shapes.check(equal, "mean delivery within a point");
        format!(
            "\"e5_fisheye\":{},\n\"e6_power\":{e6},\n\"e7_flooding\":{},\n\"e8_multipath\":{}",
            list(e5),
            list(e7),
            list(e8)
        )
    }
}

// ---- E9 and E10: concurrency models and reconfiguration (timed) -------------------------------

/// E9: a 3-stage pipeline of 3,000 messages with ≈50 µs of work per stage
/// under each concurrency model, best of three.
fn e9_concurrency() -> [LabReport; 3] {
    let lab = ThroughputLab {
        stages: 3,
        messages: 3_000,
        work_per_message: 20_000,
    };
    let best = |model| {
        let runs = (0..3).map(|_| lab.run(model));
        runs.max_by(|a, b| a.throughput.total_cmp(&b.throughput))
            .expect("three runs")
    };
    let per_message = ConcurrencyModel::ThreadPerMessage { pool: 4 };
    let (single, per_protocol) = (
        ConcurrencyModel::SingleThreaded,
        ConcurrencyModel::ThreadPerProtocol,
    );
    [single, per_protocol, per_message].map(best)
}

/// E9's structural half (threads, FIFO order) is deterministic and gated;
/// its throughput is timing. Returns both JSON fragments.
fn report_concurrency(reports: &[LabReport], shapes: &mut Shapes) -> [String; 2] {
    println!("\n=== E9: concurrency models (throughput not gated) ===\n");
    let (mut structure, mut throughput) = (Vec::new(), Vec::new());
    for r in reports {
        let (model, rate) = (format!("{:?}", r.model), r.throughput);
        let (threads, fifo) = (r.threads_used, r.order_preserved);
        println!("{model:<30}{rate:>8.0} msgs/s, {threads} threads, FIFO {fifo}");
        shapes.at(format!("E9, {model}"));
        shapes.check(fifo, "keeps FIFO order");
        structure.push(format!(
            "{{\"model\":\"{model}\",\"threads\":{threads},\"fifo\":{fifo}}}"
        ));
        throughput.push(format!(
            "{{\"model\":\"{model}\",\"msgs_per_s\":{rate:.0}}}"
        ));
    }
    let threads: Vec<usize> = reports.iter().map(|r| r.threads_used).collect();
    let ordered = threads[0] < threads[1] && threads[1] <= threads[2];
    shapes.at("E9");
    shapes.check(ordered, "threads: single < per-protocol ≤ per-message");
    // The throughput ranking needs hardware parallelism to show.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host cores: {cores}");
    let throughput = list(throughput);
    [
        list(structure),
        format!("{{\"host_cores\":{cores},\"models\":{throughput}}}"),
    ]
}

fn rewire(dep: &mut Deployment, os: &mut NodeOs) {
    let tuple = dep.protocol("olsr").expect("olsr").tuple().clone();
    let protocol = "olsr".into();
    dep.apply(ReconfigOp::UpdateTuple { protocol, tuple }, os)
        .expect("rewires");
}

fn interpose(dep: &mut Deployment, os: &mut NodeOs) {
    let cf = fisheye::fisheye_cf(Default::default());
    dep.apply(ReconfigOp::AddProtocol(cf), os).expect("inserts");
    let name = fisheye::FISHEYE_CF.into();
    dep.apply(ReconfigOp::RemoveProtocol { name }, os)
        .expect("removes");
}

fn replace_handler(dep: &mut Deployment, os: &mut NodeOs) {
    let handler = olsr::mpr::MprHelloHandler::new(SimDuration::from_secs(6), false);
    let op = ReconfigOp::Recompose {
        protocol: "mpr".into(),
        plug: vec![Plugin::Handler(Box::new(handler))],
        unplug: Vec::new(),
        state: None,
    };
    dep.apply(op, os).expect("recomposes");
}

/// E10: µs per reconfiguration at the quiescent point of a started OLSR
/// deployment, 2,000 of each.
fn e10_reconfiguration() -> [(&'static str, f64); 3] {
    let time = |op: fn(&mut Deployment, &mut NodeOs)| {
        let mut dep = Deployment::new(ConcurrencyModel::SingleThreaded);
        olsr::deploy(&mut dep, Default::default()).expect("OLSR deploys");
        let mut os = NodeOs::standalone(NodeId(0), addr(1));
        dep.start(&mut os);
        let started = Instant::now();
        (0..2_000).for_each(|_| op(&mut dep, &mut os));
        started.elapsed().as_secs_f64() * 1e6 / 2_000.0
    };
    [
        ("tuple rewire", time(rewire)),
        ("fisheye interposer insert + remove", time(interpose)),
        ("handler replacement", time(replace_handler)),
    ]
}

fn report_reconfiguration(rows: [(&str, f64); 3]) -> String {
    println!("\n=== E10: reconfiguration at a quiescent point (wall clock, not gated) ===\n");
    for (name, us) in rows {
        println!("{name:<36}{us:>8.2} µs");
    }
    println!("(a protocol switch with state carry-over: the benchmark's core.reconfig.switch_us)");
    list(rows.map(|(name, us)| format!("{{\"op\":\"{name}\",\"us\":{us:.2}}}")))
}

// ---- E12: fault injection and recovery ----------------------------------------------------

/// E12's faults on the 5-node line, each over 60–90 s.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// The line cut between nodes 2 and 3, then healed.
    Partition,
    /// The mid-line relay crashes and reboots cold.
    Crash,
    /// Gilbert–Elliott bursty loss on every link for the whole run.
    Flap,
}

/// Windowed statistics around one fault: pre 30–60 s, during 60–90 s, post
/// 120–150 s (90–120 s is the re-convergence gap), and the whole run.
#[derive(Debug, PartialEq)]
struct Recovery([WorldStats; 4]);

impl Recovery {
    /// Pre, during and post delivery in percent, to one decimal.
    fn percent(&self) -> [f64; 3] {
        let pct = |w: &WorldStats| (1000.0 * w.delivery_ratio()).round() / 10.0;
        [pct(&self.0[0]), pct(&self.0[1]), pct(&self.0[2])]
    }

    /// Traffic flowed in both healthy windows and post-heal delivery is at
    /// least 0.9x the pre-fault window's.
    fn recovered(&self) -> bool {
        let [pre, _, post, _] = &self.0;
        let flowed = pre.data_sent > 0 && post.data_sent > 0;
        flowed && post.delivery_ratio() >= 0.9 * pre.delivery_ratio()
    }
}

/// Runs one E12 cell: node 0 sends to node 4 at 4 pkt/s from 30 s on.
fn chaos(protocol: Protocol, fault: Fault, seed: u64) -> Recovery {
    let (plan, mut link) = (FaultPlan::builder(seed), LinkModel::default());
    let plan = match fault {
        Fault::Partition => {
            let side = |nodes: &[usize]| nodes.iter().map(|&n| NodeId(n)).collect();
            plan.partition(
                secs(60),
                secs(90),
                "chaos-cut",
                vec![side(&[0, 1, 2]), side(&[3, 4])],
            )
        }
        Fault::Crash => plan.crash_for(secs(60), NodeId(2), SimDuration::from_secs(30)),
        Fault::Flap => {
            link.burst = Some(GilbertElliott {
                p_bad: 0.02,
                p_good: 0.5,
                loss_good: 0.0,
                loss_bad: 0.9,
            });
            plan
        }
    };
    let traffic = TrafficSpec::cbr(NodeId(0), NodeId(4), SimDuration::from_millis(250));
    let scenario = ScenarioSpec::builder()
        .topology(TopologySpec::Line(5))
        .link_model(link);
    let scenario = (scenario.traffic(traffic).warmup(SimDuration::from_secs(30)))
        .duration(SimDuration::from_secs(120))
        .build();
    let world = scenario.world_builder().seed(seed).fault_plan(plan.build());
    let mut world = world.build();
    let make = protocol.factory();
    (0..5).for_each(|i| world.install_agent(NodeId(i), make()));
    scenario.install_traffic(&mut world);
    let mut window = world.stats_window();
    let mut advance = |until: u64| {
        world.run_until(secs(until));
        window.advance(&world)
    };
    let [_, pre, during, _, post] = [30, 60, 90, 120, 151].map(&mut advance);
    Recovery([pre, during, post, world.stats()])
}

/// E12 at seed 7: every fault against every MANETKit stack, fault-major.
fn e12_chaos() -> Vec<(Fault, Protocol, Recovery)> {
    ([Fault::Partition, Fault::Crash, Fault::Flap].into_iter())
        .flat_map(|fault| Protocol::MANETKIT.map(|p| (fault, p, chaos(p, fault, 7))))
        .collect()
}

fn report_chaos(rows: &[(Fault, Protocol, Recovery)], shapes: &mut Shapes) -> String {
    println!("\n=== E12: fault injection and recovery (5-node line, seed 7; delivery %) ===\n");
    let mut json = Vec::new();
    for (fault, protocol, r) in rows {
        let ([pre, during, post], name) = (r.percent(), protocol.name());
        let p95 = ms(r.0[2].p95_delivery_latency());
        println!(
            "{:<10}{name:<10} pre {pre:>5.1}  during {during:>5.1}  post {post:>5.1}  post p95 {p95:.3} ms",
            format!("{fault:?}")
        );
        let t = &r.0[3];
        let bit = match fault {
            Fault::Partition => {
                t.partitions_started == 1 && t.partitions_healed == 1 && during < 50.0
            }
            Fault::Crash => t.node_crashes == 1 && t.node_reboots == 1 && during < 50.0,
            Fault::Flap => t.link_flaps > 0,
        };
        shapes.at(format!("E12, {name} under {fault:?}"));
        shapes.check(bit, "the fault fired and bit");
        shapes.check(r.recovered(), "recovers");
        json.push(format!(
            "{{\"fault\":\"{fault:?}\",\"stack\":\"{name}\",\"pre_pct\":{pre:.1},\
             \"during_pct\":{during:.1},\"post_pct\":{post:.1},\"post_p95_ms\":{p95:.3}}}"
        ));
    }
    list(json)
}

// ---- the run ------------------------------------------------------------------------------

fn main() {
    let mut out = String::from("BENCH_paper_tables.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!("unknown argument {other:?} (see the module docs)"),
        }
    }
    let started = Instant::now();
    let shapes = &mut Shapes::default();
    let table1 = Establishment::measure().report(shapes);
    let table2 = report_footprint(code_census(), heap_census(), shapes);
    let table3 = report_reuse(&components(), shapes);
    let ablations = Ablations::measure().report(shapes);
    let e12 = report_chaos(&e12_chaos(), shapes);
    let [e9, e9_timing] = report_concurrency(&e9_concurrency(), shapes);
    let row1 = report_time_to_process(time_to_process());
    let e10 = report_reconfiguration(e10_reconfiguration());

    let (failed, checked) = (shapes.failed(), shapes.checked.len());
    let json = format!(
        "{{\"tables\":{{\n\"table1_route_establishment\":{table1},\n\"table2_footprint\":{table2},\n\
         \"table3_reuse\":{table3},\n{ablations},\n\"e9_concurrency\":{e9},\n\"e12_chaos\":{e12},\n\
         \"shapes\":{{\"checked\":{checked},\"failed\":{}}}}},\"timing\":{{\n\
         \"table1_time_to_process\":{row1},\n\"e9_throughput\":{e9_timing},\n\
         \"e10_reconfiguration\":{e10},\n\"wall_s\":{:.2}}}}}\n",
        list(&failed),
        started.elapsed().as_secs_f64()
    );
    std::fs::write(&out, json).expect("write report");
    println!("\nreport written to {out}");
    if !failed.is_empty() {
        println!("{} of {checked} shapes FAILED", failed.len());
        std::process::exit(1);
    }
    println!("all {checked} shapes hold — paper_tables OK");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes_hold(report: impl FnOnce(&mut Shapes) -> String) {
        let shapes = &mut Shapes::default();
        report(shapes);
        assert!(
            shapes.failed().is_empty(),
            "shapes failed: {:?}",
            shapes.failed()
        );
    }

    #[test]
    fn table1_route_establishment_is_pinned() {
        let t = Establishment::measure();
        // Every seed alike: MKit-OLSR waits exactly one HELLO interval (2 s)
        // longer than olsrd.
        for (runs, ms) in t.0.iter().zip([8_005, 10_005, 10, 10]) {
            assert_eq!(runs, &[Some(SimDuration::from_millis(ms)); 5]);
        }
        shapes_hold(|s| t.report(s));
    }

    #[test]
    fn table2_shapes_hold() {
        // Bytes and heap follow the source tree and the allocator: only the
        // shapes are pinned.
        shapes_hold(|s| report_footprint(code_census(), heap_census(), s));
    }

    #[test]
    fn table3_component_counts_are_pinned() {
        let components = components();
        let counts = ["OLSR", "DYMO", "AODV"].map(|stack| {
            let [generic, specific, ..] = reuse_summary(&components, stack);
            (generic, specific)
        });
        assert_eq!(counts, [(10, 4), (11, 6), (11, 3)]);
        shapes_hold(|s| report_reuse(&components, s));
    }

    #[test]
    fn ablations_are_pinned() {
        let a = Ablations::measure();
        assert_eq!(a.fisheye, [(6, 216, 132), (10, 1008, 420), (14, 2376, 836)]);
        let percent = |x: f64| (100.0 * x).round();
        let power = a
            .power
            .map(|(battery, delivery)| (percent(battery), percent(delivery)));
        assert_eq!(power, [(10.0, 100.0), (20.0, 100.0)]);
        let flooding: Vec<_> = (a.flooding.iter())
            .map(|(_, _, degree, [(blind, _), (mpr, _)])| ((10.0 * degree).round(), *blind, *mpr))
            .collect();
        assert_eq!(flooding, [(62.0, 69, 23), (98.0, 69, 15), (141.0, 69, 8)]);
        let churn: Vec<_> = (a.multipath.iter())
            .map(|[(std_disc, ..), (mp_disc, failovers, _)]| (*std_disc, *mp_disc, *failovers))
            .collect();
        let expected = [(6, 5, 2), (7, 5, 3), (5, 5, 3), (7, 5, 0), (8, 5, 2)];
        assert_eq!(churn, expected);
        shapes_hold(|s| a.report(s));
    }

    #[test]
    fn e12_windows_are_pinned() {
        let rows = e12_chaos();
        let percent: Vec<_> = rows.iter().map(|(.., r)| r.percent()).collect();
        // Partition then crash for OLSR, DYMO and AODV; then flapping.
        let mut expected = vec![[100.0, 0.0, 100.0]; 6];
        expected.extend([[88.3, 85.8, 86.7], [81.7, 92.5, 76.7], [79.2, 95.0, 88.3]]);
        assert_eq!(percent, expected);
        shapes_hold(|s| report_chaos(&rows, s));
    }

    #[test]
    fn e12_replays_identically_per_seed() {
        let a = chaos(Protocol::MkitOlsr, Fault::Partition, 11);
        assert_eq!(a, chaos(Protocol::MkitOlsr, Fault::Partition, 11));
    }
}
