//! The OLSR CF's S element: topology set and route computation.
//!
//! Route maintenance follows topology *change*, not packet count: every
//! mutator that can alter [`OlsrState::compute_routes`]' inputs marks the
//! routes dirty, and [`OlsrState::sync_routes`] is free while they are
//! clean. A rebuild runs Dijkstra over dense node indices in buffers the
//! state owns, then writes the kernel table by difference.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::{Mutex, MutexGuard, PoisonError};

use manetkit::seq_newer;
use netsim::{KernelRouteTable, SimDuration, SimTime};
use packetbb::Address;

/// Route metric plugged into the route calculator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouteMetric {
    /// Plain hop count (standard OLSR).
    #[default]
    HopCount,
    /// Energy-aware: hops through drained nodes cost more, so selected
    /// routes maximise residual lifetime (power-aware variant).
    EnergyAware,
}

/// One learned topology edge: the tuple's last hop advertises reachability
/// of `dest`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyEntry {
    /// The advertised destination.
    pub dest: Address,
    /// The ANSN this edge was learned under.
    pub ansn: u16,
    /// When this edge expires.
    pub expiry: SimTime,
}

/// The OLSR CF state.
///
/// Everything [`compute_routes`](Self::compute_routes) reads is changed
/// through a method, so the state knows when the installed routes can have
/// gone stale. `sym_neighbours` is public for construction only.
#[derive(Debug, Clone, Default)]
pub struct OlsrState {
    /// Current symmetric neighbours (from `NHOOD_CHANGE`). Update through
    /// [`set_neighbourhood`](Self::set_neighbourhood).
    pub sym_neighbours: Vec<Address>,
    /// Our advertised set: the MPR selectors (from `MPR_CHANGE`).
    pub advertised: Vec<Address>,
    /// Our advertised-neighbour sequence number.
    pub ansn: u16,
    /// How many times the routes were rebuilt (Dijkstra + kernel diff).
    pub route_builds: u64,
    /// What route maintenance learns and keeps; opaque, so that every
    /// change goes through a method that knows whether routes can move.
    pub routing: RoutingBase,
}

/// Forks of a world share a node's state until one of them writes it, so
/// the state is `Sync` (the route computation's buffers included).
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<OlsrState>();
};

/// The part of [`OlsrState`] only its methods may change: the other inputs
/// of the route computation, the kernel routes owned, and the rebuild
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct RoutingBase {
    /// Topology set, one tuple per last hop: its edges sorted by
    /// destination.
    topology: BTreeMap<Address, Vec<TopologyEntry>>,
    /// Latest ANSN seen per originator (never expires).
    latest_ansn: BTreeMap<Address, u16>,
    /// `(neighbour, two_hop)` pairs (from `NHOOD_CHANGE`).
    two_hop: Vec<(Address, Address)>,
    /// Destinations with kernel routes installed by this protocol, sorted.
    installed: Vec<Address>,
    /// The plugged-in route metric.
    metric: RouteMetric,
    /// Residual energy per node, fed by `POWER_MSG_IN` (power-aware
    /// variant).
    energy: BTreeMap<Address, f64>,
    /// Whether an input of the route computation, or the set of kernel
    /// routes we own, changed since the last rebuild.
    dirty: bool,
    /// Buffers of the route computation, reused from one run to the next.
    spf: SpfBuffers,
}

/// The route computation's buffers, behind a `Mutex` only so that
/// [`OlsrState::compute_routes`] can reuse them through `&self` while the
/// state stays `Sync`; [`OlsrState::sync_routes`] reaches them through
/// `get_mut`, without a lock. A clone copies them.
#[derive(Debug, Default)]
struct SpfBuffers(Mutex<Spf>);

impl SpfBuffers {
    fn lock(&self) -> MutexGuard<'_, Spf> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get_mut(&mut self) -> &mut Spf {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for SpfBuffers {
    fn clone(&self) -> Self {
        SpfBuffers(Mutex::new(self.lock().clone()))
    }
}

impl Default for RoutingBase {
    /// Empty, and dirty: a state assembled around it (struct-update syntax
    /// with `sym_neighbours` filled in) still gets its first rebuild.
    fn default() -> Self {
        RoutingBase {
            topology: BTreeMap::new(),
            latest_ansn: BTreeMap::new(),
            two_hop: Vec::new(),
            installed: Vec::new(),
            metric: RouteMetric::default(),
            energy: BTreeMap::new(),
            dirty: true,
            spf: SpfBuffers::default(),
        }
    }
}

impl OlsrState {
    /// Records the edges a TC from `originator` advertises. Returns `false`
    /// when the TC is stale (older ANSN) and was ignored.
    ///
    /// Edges of an older ANSN are replaced; a TC repeating the stored ANSN
    /// unions into the stored set. Costs O(degree of `originator`), and
    /// marks the routes dirty only when the originator's edge set changed.
    pub fn apply_tc<I>(
        &mut self,
        originator: Address,
        ansn: u16,
        advertised: I,
        now: SimTime,
        validity: SimDuration,
    ) -> bool
    where
        I: IntoIterator,
        I::Item: Borrow<Address>,
    {
        let latest = self.routing.latest_ansn.entry(originator).or_insert(ansn);
        if seq_newer(*latest, ansn) {
            return false;
        }
        *latest = ansn;
        let expiry = now + validity;
        let edges = self.routing.topology.entry(originator).or_default();
        let mut changed = false;
        for dest in advertised {
            let dest = *dest.borrow();
            match edges.binary_search_by(|e| e.dest.cmp(&dest)) {
                Ok(at) => {
                    edges[at].ansn = ansn;
                    edges[at].expiry = expiry;
                }
                Err(at) => {
                    edges.insert(at, TopologyEntry { dest, ansn, expiry });
                    changed = true;
                }
            }
        }
        // Drop what this originator advertised under an older ANSN and did
        // not repeat (repeated edges carry `ansn` by now).
        let before = edges.len();
        edges.retain(|e| !seq_newer(ansn, e.ansn));
        changed |= edges.len() != before;
        if edges.is_empty() {
            self.routing.topology.remove(&originator);
        }
        self.routing.dirty |= changed;
        true
    }

    /// Drops expired topology edges; returns whether anything changed.
    pub fn expire(&mut self, now: SimTime) -> bool {
        let mut changed = false;
        self.routing.topology.retain(|_, edges| {
            let before = edges.len();
            edges.retain(|e| e.expiry > now);
            changed |= edges.len() != before;
            !edges.is_empty()
        });
        self.routing.dirty |= changed;
        changed
    }

    /// Every learned edge as `(last_hop, entry)`, by last hop then
    /// destination.
    pub fn edges(&self) -> impl Iterator<Item = (Address, &TopologyEntry)> {
        self.routing
            .topology
            .iter()
            .flat_map(|(last_hop, edges)| edges.iter().map(move |e| (*last_hop, e)))
    }

    /// Replaces the neighbourhood view; a view equal to the stored one
    /// leaves the routes clean and copies nothing.
    pub fn set_neighbourhood(
        &mut self,
        sym_neighbours: &[Address],
        two_hop: &[(Address, Address)],
    ) {
        if self.sym_neighbours != sym_neighbours {
            self.sym_neighbours.clear();
            self.sym_neighbours.extend_from_slice(sym_neighbours);
            self.routing.dirty = true;
        }
        if self.routing.two_hop != two_hop {
            self.routing.two_hop.clear();
            self.routing.two_hop.extend_from_slice(two_hop);
            self.routing.dirty = true;
        }
    }

    /// The plugged-in route metric.
    #[must_use]
    pub fn metric(&self) -> RouteMetric {
        self.routing.metric
    }

    /// Plugs in a route metric.
    pub fn set_metric(&mut self, metric: RouteMetric) {
        self.routing.dirty |= self.routing.metric != metric;
        self.routing.metric = metric;
    }

    /// Records `node`'s residual energy in `[0, 1]`.
    pub fn set_energy(&mut self, node: Address, level: f64) {
        let changed = self.routing.energy.insert(node, level) != Some(level);
        self.routing.dirty |= changed && self.routing.metric == RouteMetric::EnergyAware;
    }

    /// Forgets every residual-energy reading.
    pub fn clear_energy(&mut self) {
        self.routing.dirty |=
            !self.routing.energy.is_empty() && self.routing.metric == RouteMetric::EnergyAware;
        self.routing.energy.clear();
    }

    /// Withdraws every kernel route this protocol owns (undeploy). The
    /// state may be started again, so the routes are dirty afterwards.
    pub fn withdraw_routes(&mut self, table: &mut KernelRouteTable) {
        for dest in self.routing.installed.drain(..) {
            table.remove_host_route(dest);
        }
        self.routing.dirty = true;
    }

    /// Computes routes with Dijkstra over the learned graph: direct links,
    /// 2-hop advertisements and TC-learned edges.
    ///
    /// Returns `dest → (next_hop, hop_count)`.
    #[must_use]
    pub fn compute_routes(&self, local: Address) -> BTreeMap<Address, (Address, u32)> {
        let mut spf = self.routing.spf.lock();
        self.run_spf(local, &mut spf);
        spf.routes().collect()
    }

    /// Brings the kernel table in line with the current topology. Returns
    /// `(installed, removed)` destination counts; `(0, 0)` straight away
    /// when no input changed since the last call.
    ///
    /// A table holding fewer routes than we own has lost some — a crash
    /// flushed the kernel under a state that survived it — and is rebuilt
    /// like a dirty one. A rebuild writes only entries whose next hop or
    /// metric differ from what the table holds, so a route another protocol
    /// overwrote is repaired by the next rebuild.
    pub fn sync_routes(&mut self, local: Address, table: &mut KernelRouteTable) -> (usize, usize) {
        if !self.routing.dirty && table.len() >= self.routing.installed.len() {
            return (0, 0);
        }
        self.routing.dirty = false;
        self.route_builds += 1;
        let mut spf = std::mem::take(self.routing.spf.get_mut());
        self.run_spf(local, &mut spf);

        // Both lists are sorted by destination: walk them together.
        let (mut installed, mut removed) = (0, 0);
        let mut owned = self.routing.installed.iter().copied().peekable();
        for (dest, (next_hop, hops)) in spf.routes() {
            while let Some(gone) = owned.next_if(|d| *d < dest) {
                table.remove_host_route(gone);
                removed += 1;
            }
            if owned.next_if_eq(&dest).is_none() {
                installed += 1;
            }
            let current = table.host_route(dest);
            if !current.is_some_and(|e| e.next_hop == next_hop && e.metric == hops) {
                table.add_host_route(dest, next_hop, hops);
            }
        }
        for gone in owned {
            table.remove_host_route(gone);
            removed += 1;
        }
        self.routing.installed.clear();
        self.routing
            .installed
            .extend(spf.routes().map(|(dest, _)| dest));
        *self.routing.spf.get_mut() = spf;
        (installed, removed)
    }

    /// Dijkstra from `local`, leaving the result in `spf`.
    fn run_spf(&self, local: Address, spf: &mut Spf) {
        // `spf.nodes` survives from the previous run; it only has to be a
        // sorted superset of the graph's addresses, so rebuild it on a miss.
        if self.index_edges(local, spf).is_none() {
            spf.nodes.clear();
            spf.nodes.push(node_key(&local));
            spf.nodes.extend(self.sym_neighbours.iter().map(node_key));
            spf.nodes.extend(
                self.routing
                    .two_hop
                    .iter()
                    .flat_map(|(nb, th)| [node_key(nb), node_key(th)]),
            );
            for (last_hop, edges) in &self.routing.topology {
                spf.nodes.push(node_key(last_hop));
                spf.nodes.extend(edges.iter().map(|e| node_key(&e.dest)));
            }
            spf.nodes.sort_unstable();
            spf.nodes.dedup();
            let indexed = self.index_edges(local, spf);
            debug_assert!(indexed.is_some(), "every address was just collected");
        }
        let n = spf.nodes.len();

        // Row offsets of the (source-sorted) edge list.
        spf.row_start.clear();
        spf.row_start.resize(n + 1, 0);
        for (src, _) in &spf.edges {
            spf.row_start[*src as usize + 1] += 1;
        }
        for i in 0..n {
            spf.row_start[i + 1] += spf.row_start[i];
        }

        spf.node_cost.clear();
        match self.routing.metric {
            RouteMetric::HopCount => spf.node_cost.resize(n, 1.0),
            // Fresh nodes cost ~1, drained nodes up to 2.
            RouteMetric::EnergyAware => spf.node_cost.extend(spf.nodes.iter().map(|node| {
                2.0 - self
                    .routing
                    .energy
                    .get(&node_address(*node))
                    .copied()
                    .unwrap_or(1.0)
            })),
        }

        spf.reached.clear();
        spf.reached.resize(n, None);
        spf.done.clear();
        spf.done.resize(n, false);
        spf.heap.clear();
        spf.heap.push(Item {
            cost: 0.0,
            hops: 0,
            node: spf.local,
            first_hop: NO_HOP,
        });
        while let Some(item) = spf.heap.pop() {
            let node = item.node as usize;
            if std::mem::replace(&mut spf.done[node], true) {
                continue;
            }
            if item.first_hop != NO_HOP {
                spf.reached[node] = Some((item.first_hop, item.hops));
            }
            let row = spf.row_start[node] as usize..spf.row_start[node + 1] as usize;
            for &(_, next) in &spf.edges[row] {
                if spf.done[next as usize] {
                    continue;
                }
                spf.heap.push(Item {
                    cost: item.cost + spf.node_cost[next as usize],
                    hops: item.hops + 1,
                    node: next,
                    first_hop: if item.first_hop == NO_HOP {
                        next
                    } else {
                        item.first_hop
                    },
                });
            }
        }
    }

    /// Translates the graph into `spf.edges` over the indices of
    /// `spf.nodes`: sorted by `(source, target)` and free of duplicates, so
    /// every node's out-edges are visited in address order exactly once.
    /// Returns `None` when an address is missing from `spf.nodes`.
    fn index_edges(&self, local: Address, spf: &mut Spf) -> Option<()> {
        let Spf {
            nodes,
            guesses,
            edges,
            local: source,
            ..
        } = spf;
        if nodes.is_empty() {
            return None;
        }
        // A node's index is looked up once per edge end. `guesses` remembers,
        // per hash bucket, where the last key that fell there was found, and
        // a guess is checked against `nodes` before use: most lookups cost
        // one comparison, a collision or a stale guess costs a binary search.
        let buckets = (4 * nodes.len()).next_power_of_two();
        guesses.resize(buckets, 0);
        let shift = u64::BITS - buckets.trailing_zeros();
        let mut index = |a: &Address| -> Option<u32> {
            let key = node_key(a);
            let folded = (key.1 >> 64) as u64 ^ key.1 as u64;
            let bucket = (folded.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
            if nodes.get(guesses[bucket] as usize) != Some(&key) {
                guesses[bucket] = nodes.binary_search(&key).ok()? as u32;
            }
            Some(guesses[bucket])
        };

        edges.clear();
        // The topology set is in (last hop, destination) order already; the
        // few neighbourhood edges after it are what the sort has to place.
        for (last_hop, tuple) in &self.routing.topology {
            let src = index(last_hop)?;
            for e in tuple {
                edges.push((src, index(&e.dest)?));
            }
        }
        let local = index(&local)?;
        *source = local;
        for nb in &self.sym_neighbours {
            edges.push((local, index(nb)?));
        }
        for (nb, th) in &self.routing.two_hop {
            edges.push((index(nb)?, index(th)?));
        }
        edges.sort();
        edges.dedup();
        Some(())
    }
}

/// An address as an integer that sorts like it: the route computation
/// looks every edge's endpoints up, and integer comparisons are several
/// times cheaper than [`Address`]'s.
type NodeKey = (bool, u128);

fn node_key(a: &Address) -> NodeKey {
    match a {
        Address::V4(o) => (false, u128::from(u32::from_be_bytes(*o))),
        Address::V6(o) => (true, u128::from_be_bytes(*o)),
    }
}

fn node_address((v6, bits): NodeKey) -> Address {
    if v6 {
        Address::v6(bits.to_be_bytes())
    } else {
        Address::v4((bits as u32).to_be_bytes())
    }
}

/// "No first hop yet": the item is the source itself.
const NO_HOP: u32 = u32::MAX;

/// A Dijkstra frontier entry over node indices. Index order is address
/// order, so the `(cost, hops, node)` tie-break matches one over addresses.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Item {
    cost: f64,
    hops: u32,
    node: u32,
    first_hop: u32,
}

impl Eq for Item {}

impl Ord for Item {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by cost (then hops) via reversed comparison.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.hops.cmp(&self.hops))
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Buffers of the route computation, kept between rebuilds.
#[derive(Debug, Clone, Default)]
struct Spf {
    /// Sorted addresses; a node's position is its index.
    nodes: Vec<NodeKey>,
    /// Per hash bucket of a key, the index it was last found at.
    guesses: Vec<u32>,
    /// Index of the computing node.
    local: u32,
    /// `(source, target)` edges, sorted and deduplicated.
    edges: Vec<(u32, u32)>,
    /// Where each source's edges start in `edges`.
    row_start: Vec<u32>,
    /// Cost of stepping onto each node under the current metric.
    node_cost: Vec<f64>,
    done: Vec<bool>,
    /// `(first hop, hop count)` of every settled node but the source.
    reached: Vec<Option<(u32, u32)>>,
    heap: BinaryHeap<Item>,
}

impl Spf {
    /// The computed `(dest, (next_hop, hops))`, by destination.
    fn routes(&self) -> impl Iterator<Item = (Address, (Address, u32))> + '_ {
        self.reached.iter().enumerate().filter_map(|(node, r)| {
            r.map(|(first_hop, hops)| {
                let next_hop = node_address(self.nodes[first_hop as usize]);
                (node_address(self.nodes[node]), (next_hop, hops))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALIDITY: SimDuration = SimDuration::from_secs(15);

    fn addr(n: u8) -> Address {
        Address::v4([10, 0, 0, n])
    }

    fn has_edge(s: &OlsrState, dest: Address, last_hop: Address) -> bool {
        s.edges()
            .any(|(from, e)| from == last_hop && e.dest == dest)
    }

    fn line_state() -> OlsrState {
        // local=1; 1-2 direct; 2 advertises 3; 3 advertises 4.
        let mut s = OlsrState {
            sym_neighbours: vec![addr(2)],
            ..OlsrState::default()
        };
        s.apply_tc(addr(2), 1, [addr(1), addr(3)], SimTime::ZERO, VALIDITY);
        s.apply_tc(addr(3), 1, [addr(2), addr(4)], SimTime::ZERO, VALIDITY);
        s
    }

    #[test]
    fn dijkstra_over_line() {
        let s = line_state();
        let routes = s.compute_routes(addr(1));
        assert_eq!(routes.get(&addr(2)), Some(&(addr(2), 1)));
        assert_eq!(routes.get(&addr(3)), Some(&(addr(2), 2)));
        assert_eq!(routes.get(&addr(4)), Some(&(addr(2), 3)));
        assert!(!routes.contains_key(&addr(1)), "no route to self");
    }

    #[test]
    fn two_hop_info_contributes_routes() {
        let mut s = OlsrState::default();
        s.set_neighbourhood(&[addr(2)], &[(addr(2), addr(3))]);
        let routes = s.compute_routes(addr(1));
        assert_eq!(routes.get(&addr(3)), Some(&(addr(2), 2)));
    }

    #[test]
    fn stale_ansn_rejected_and_refresh_replaces() {
        let mut s = OlsrState::default();
        assert!(s.apply_tc(addr(2), 5, [addr(3)], SimTime::ZERO, VALIDITY));
        assert!(!s.apply_tc(addr(2), 4, [addr(9)], SimTime::ZERO, VALIDITY));
        assert!(has_edge(&s, addr(3), addr(2)));
        assert!(!has_edge(&s, addr(9), addr(2)));
        // Newer ANSN replaces the advertised set.
        assert!(s.apply_tc(addr(2), 6, [addr(4)], SimTime::ZERO, VALIDITY));
        assert!(!has_edge(&s, addr(3), addr(2)));
        assert!(has_edge(&s, addr(4), addr(2)));
    }

    #[test]
    fn same_ansn_unions_and_keeps_each_edge_expiry() {
        let mut s = OlsrState::default();
        let later = SimTime::ZERO + SimDuration::from_secs(10);
        assert!(s.apply_tc(addr(2), 5, [addr(3)], SimTime::ZERO, VALIDITY));
        assert!(s.apply_tc(addr(2), 5, [addr(4)], later, VALIDITY));
        assert!(has_edge(&s, addr(3), addr(2)) && has_edge(&s, addr(4), addr(2)));
        // The edge the second TC did not repeat still expires on its own.
        assert!(s.expire(SimTime::ZERO + SimDuration::from_secs(16)));
        assert!(!has_edge(&s, addr(3), addr(2)));
        assert!(has_edge(&s, addr(4), addr(2)));
    }

    #[test]
    fn expiry_drops_edges() {
        let mut s = OlsrState::default();
        s.apply_tc(addr(2), 1, [addr(3)], SimTime::ZERO, VALIDITY);
        assert!(!s.expire(SimTime::ZERO + SimDuration::from_secs(10)));
        assert!(s.expire(SimTime::ZERO + SimDuration::from_secs(16)));
        assert_eq!(s.edges().count(), 0);
    }

    #[test]
    fn energy_metric_avoids_drained_relays() {
        // Two disjoint 2-hop paths to 5: via 2 (drained) or via 3 (fresh).
        let mut s = OlsrState {
            sym_neighbours: vec![addr(2), addr(3)],
            ..OlsrState::default()
        };
        s.set_metric(RouteMetric::EnergyAware);
        s.apply_tc(addr(2), 1, [addr(5)], SimTime::ZERO, VALIDITY);
        s.apply_tc(addr(3), 1, [addr(5)], SimTime::ZERO, VALIDITY);
        s.set_energy(addr(2), 0.1);
        s.set_energy(addr(3), 0.9);
        let routes = s.compute_routes(addr(1));
        assert_eq!(
            routes.get(&addr(5)).unwrap().0,
            addr(3),
            "fresh relay preferred"
        );

        // Hop-count metric would pick the lower address instead.
        let mut hs = s.clone();
        hs.set_metric(RouteMetric::HopCount);
        let routes = hs.compute_routes(addr(1));
        assert_eq!(routes.get(&addr(5)).unwrap().0, addr(2));
    }

    #[test]
    fn only_real_changes_trigger_a_rebuild() {
        let mut s = line_state();
        let mut table = KernelRouteTable::new();
        assert_eq!(s.sync_routes(addr(1), &mut table), (3, 0));
        assert_eq!(s.route_builds, 1);

        // A refresh, a duplicate, a stale TC, an unchanged neighbourhood,
        // energy under the hop-count metric: nothing to rebuild.
        let later = SimTime::ZERO + SimDuration::from_secs(5);
        assert!(s.apply_tc(addr(2), 2, [addr(1), addr(3)], later, VALIDITY));
        assert!(s.apply_tc(addr(2), 2, [addr(3)], later, VALIDITY));
        assert!(!s.apply_tc(addr(2), 1, [addr(9)], later, VALIDITY));
        s.set_neighbourhood(&[addr(2)], &[]);
        s.set_energy(addr(2), 0.5);
        assert!(!s.expire(later));
        assert_eq!(s.sync_routes(addr(1), &mut table), (0, 0));
        assert_eq!(s.route_builds, 1);

        // A newer ANSN that drops an edge is a change.
        assert!(s.apply_tc(addr(3), 2, [addr(2)], later, VALIDITY));
        assert_eq!(s.sync_routes(addr(1), &mut table), (0, 1));
        assert_eq!(s.route_builds, 2);
        assert_eq!(s.routing.installed, [addr(2), addr(3)]);
        assert!(table.host_route(addr(4)).is_none());
    }

    #[test]
    fn rebuild_repairs_overwritten_routes_and_writes_by_difference() {
        let mut s = line_state();
        let mut table = KernelRouteTable::new();
        s.sync_routes(addr(1), &mut table);
        // Another protocol rewrites one of our routes and drops another.
        table.add_host_route(addr(3), addr(9), 7);
        table.remove_host_route(addr(4));
        s.set_neighbourhood(&[addr(2)], &[(addr(2), addr(3))]);
        assert_eq!(s.sync_routes(addr(1), &mut table), (0, 0));
        assert_eq!(table.host_route(addr(3)).unwrap().next_hop, addr(2));
        assert_eq!(table.host_route(addr(4)).unwrap().metric, 3);
    }

    #[test]
    fn flushed_kernel_table_is_refilled_on_the_next_sync() {
        let mut s = line_state();
        let mut table = KernelRouteTable::new();
        s.sync_routes(addr(1), &mut table);
        table.clear(); // crash: the OS is flushed, the agent's state is not
        s.sync_routes(addr(1), &mut table);
        assert_eq!(table.len(), 3);
        assert_eq!(s.route_builds, 2);
    }

    #[test]
    fn withdrawn_routes_come_back_on_the_next_sync() {
        let mut s = line_state();
        let mut table = KernelRouteTable::new();
        s.sync_routes(addr(1), &mut table);
        s.withdraw_routes(&mut table);
        assert!(table.is_empty() && s.routing.installed.is_empty());
        assert_eq!(s.sync_routes(addr(1), &mut table), (3, 0));
        assert_eq!(table.len(), 3);
    }
}
