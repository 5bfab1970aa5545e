//! The greedy-geographic hop on its own: 2 M seeded `(from, dst)` pairs on
//! `city_geo`'s 10,000-node field (radius 0.025), timed, and checked
//! against a plain scan of `Topology::neighbours` — exits non-zero unless
//! the two agree on every pair.
//!
//! ```text
//! cargo run --release -p netsim --example geo_hop
//! ```

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use netsim::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 10_000;
const RADIUS: f64 = 0.025;
const PAIRS: usize = 2_000_000;
const SEED: u64 = 42;

/// The next hop by definition: among `from`'s neighbours strictly closer to
/// `dst` than `from` is, the closest, lowest id on ties.
fn plain_next_hop(topology: &Topology, from: NodeId, dst: NodeId) -> Option<NodeId> {
    let position = |n| topology.position(n).expect("a spatial topology");
    let (tx, ty) = position(dst);
    let dist2 = |(x, y): (f64, f64)| {
        let (ex, ey) = (x - tx, y - ty);
        ex * ex + ey * ey
    };
    let own = dist2(position(from));
    topology
        .neighbours(from)
        .into_iter()
        .map(|nb| (dist2(position(nb)), nb))
        .filter(|&(d, _)| d < own)
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .map(|(_, nb)| nb)
}

/// FNV-1a over the chosen hops, `None` folded in as an id of its own.
fn checksum(hops: impl Iterator<Item = Option<NodeId>>) -> u64 {
    hops.fold(0xcbf2_9ce4_8422_2325, |h, hop| {
        (h ^ hop.map_or(u64::MAX, |n| n.0 as u64)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn main() -> ExitCode {
    let topology = Topology::random_spatial(NODES, RADIUS, SEED);
    let mut rng = StdRng::seed_from_u64(SEED + 1);
    let pairs: Vec<(NodeId, NodeId)> = (0..PAIRS)
        .map(|_| {
            (
                NodeId(rng.gen_range(0..NODES)),
                NodeId(rng.gen_range(0..NODES)),
            )
        })
        .collect();

    let started = Instant::now();
    let fast = checksum(
        pairs
            .iter()
            .map(|&(from, dst)| black_box(topology.geo_next_hop(from, dst))),
    );
    let ns_per_call = started.elapsed().as_nanos() as f64 / PAIRS as f64;
    println!(
        "geo_next_hop: {ns_per_call:.1} ns/call over {PAIRS} pairs on {NODES} nodes \
         (radius {RADIUS}), checksum {fast:016x}"
    );

    let plain = checksum(
        pairs
            .iter()
            .map(|&(from, dst)| plain_next_hop(&topology, from, dst)),
    );
    if fast != plain {
        eprintln!("geo_next_hop disagrees with the plain neighbour scan: {plain:016x}");
        return ExitCode::FAILURE;
    }
    println!("plain scan over Topology::neighbours agrees: geo_hop OK");
    ExitCode::SUCCESS
}
