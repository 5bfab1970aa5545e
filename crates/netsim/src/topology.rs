//! Connectivity, link models and topology generators.
//!
//! The paper's testbed shaped multi-hop connectivity with MAC-level
//! filtering plus the MobiEmu emulator. [`Topology`] is that mechanism in
//! simulation, with two backends behind one API:
//!
//! * **Dense** — an `n × n` symmetric boolean matrix saying who hears whom,
//!   adjusted over time by explicit link changes. Right for small worlds
//!   and hand-shaped testbed scenarios.
//! * **Spatial** — node positions in the unit square with a radio
//!   `radius`; a link exists exactly when two nodes are within range. A
//!   grid-bucket index (cell width ≥ radius) makes neighbour queries visit
//!   only the 3 × 3 surrounding cells instead of all pairs, and node moves
//!   update the index incrementally — the representation that scales to
//!   10k-node mobile worlds.

use std::ops::RangeInclusive;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::packet::NodeId;
use crate::time::SimDuration;

/// Whether a link currently exists between a pair of nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// Frames flow (subject to the loss model).
    Up,
    /// No connectivity.
    Down,
}

/// Which phase of the Gilbert–Elliott two-state chain a link is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkPhase {
    /// Low-loss phase.
    #[default]
    Good,
    /// Bursty high-loss phase.
    Bad,
}

/// A Gilbert–Elliott bursty loss model: a per-link two-state Markov chain
/// stepped once per transmission. In the `Good` phase frames are lost with
/// probability [`loss_good`](Self::loss_good); in the `Bad` phase with
/// [`loss_bad`](Self::loss_bad). This upgrades the i.i.d.
/// [`LinkModel::loss`] with temporally correlated loss bursts — link
/// flapping as a protocol under test experiences it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-transmission probability of entering the `Bad` phase from `Good`.
    pub p_bad: f64,
    /// Per-transmission probability of recovering `Good` from `Bad`.
    pub p_good: f64,
    /// Loss probability while `Good` (usually near zero).
    pub loss_good: f64,
    /// Loss probability while `Bad` (usually near one).
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A classic flapping profile: mostly clean, occasionally dropping
    /// into a near-total-loss burst. `p_bad` controls burst frequency,
    /// `p_good` burst length (expected burst ≈ `1/p_good` transmissions).
    #[must_use]
    pub fn flappy(p_bad: f64, p_good: f64) -> Self {
        GilbertElliott {
            p_bad,
            p_good,
            loss_good: 0.0,
            loss_bad: 0.95,
        }
    }

    /// Advances the chain one transmission and samples loss in the
    /// resulting phase. The caller owns the per-link phase.
    #[must_use]
    pub fn sample(&self, phase: &mut LinkPhase, rng: &mut StdRng) -> bool {
        *phase = match *phase {
            LinkPhase::Good if rng.gen::<f64>() < self.p_bad => LinkPhase::Bad,
            LinkPhase::Bad if rng.gen::<f64>() < self.p_good => LinkPhase::Good,
            unchanged => unchanged,
        };
        let loss = match *phase {
            LinkPhase::Good => self.loss_good,
            LinkPhase::Bad => self.loss_bad,
        };
        loss > 0.0 && rng.gen::<f64>() < loss
    }

    /// The stationary (long-run) loss probability of the chain.
    #[must_use]
    pub fn stationary_loss(&self) -> f64 {
        let denom = self.p_bad + self.p_good;
        if denom == 0.0 {
            return self.loss_good;
        }
        let frac_bad = self.p_bad / denom;
        (1.0 - frac_bad) * self.loss_good + frac_bad * self.loss_bad
    }
}

/// Propagation characteristics applied to every delivered frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Fixed per-hop latency.
    pub delay: SimDuration,
    /// Uniform random extra latency in `[0, jitter]`.
    pub jitter: SimDuration,
    /// Probability in `[0, 1]` that a frame is lost on a hop (i.i.d.;
    /// ignored when [`burst`](Self::burst) is set).
    pub loss: f64,
    /// Optional Gilbert–Elliott bursty loss replacing the i.i.d. `loss`.
    /// Each link keeps its own chain phase inside the world.
    pub burst: Option<GilbertElliott>,
}

impl Default for LinkModel {
    fn default() -> Self {
        // ~1 ms one-hop latency, light jitter, lossless: a quiet 802.11b lab.
        LinkModel {
            delay: SimDuration::from_micros(800),
            jitter: SimDuration::from_micros(400),
            loss: 0.0,
            burst: None,
        }
    }
}

impl LinkModel {
    /// Samples the latency for one transmission.
    #[must_use]
    pub fn sample_delay(&self, rng: &mut StdRng) -> SimDuration {
        if self.jitter == SimDuration::ZERO {
            return self.delay;
        }
        self.delay + SimDuration::from_micros(rng.gen_range(0..=self.jitter.as_micros()))
    }

    /// Samples whether a transmission is lost.
    #[must_use]
    pub fn sample_loss(&self, rng: &mut StdRng) -> bool {
        self.loss > 0.0 && rng.gen::<f64>() < self.loss
    }
}

/// Symmetric connectivity over `n` nodes (see the module docs for the two
/// backends).
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    n: usize,
    backend: Backend,
}

#[derive(Debug, Clone, PartialEq)]
enum Backend {
    /// Explicit matrix, row-major; stored full for simplicity.
    Dense { up: Vec<bool> },
    /// Positions + radio radius with a grid-bucket index.
    Spatial(SpatialField),
}

/// Grid-bucket spatial index over node positions in the unit square.
///
/// The square is cut into `cols × rows` cells of width ≥ `radius`, so every
/// node within radio range of a point lies in the 3 × 3 cell block around
/// it. A bucket holds its nodes' ids *and* coordinates, so a scan reads one
/// contiguous slice per cell; `positions` is the same data by id, and
/// `node_cell`/`node_slot` say where in the buckets each node sits, so
/// [`move_node`](Topology::move_node) rebuckets only the moved node without
/// searching for it. Bucket order is insertion order — queries that expose
/// neighbour sets sort or reduce deterministically, so bucket internals
/// never leak into simulation outcomes.
#[derive(Debug, Clone, PartialEq)]
struct SpatialField {
    radius: f64,
    cols: usize,
    rows: usize,
    positions: Vec<(f64, f64)>,
    buckets: Vec<Vec<Placed>>,
    node_cell: Vec<u32>,
    node_slot: Vec<u32>,
}

/// A node as its bucket holds it: the id and a copy of its position.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Placed {
    id: u32,
    x: f64,
    y: f64,
}

/// Slack taken off a cell-distance bound before squaring. A cell edge
/// (`gx / cols`) and `cell_of`'s product (`x * cols`) each round by at most
/// a few 1e-16 in the unit square, so a node's real per-axis distance can
/// undercut the gap to its cell's nominal edge by that much and no more.
const CELL_BOUND_SLACK: f64 = 1e-12;

/// A lower bound on `(x - t)²` over every coordinate `x` that `cell_of`
/// puts in column (or row) `g` of `n`: the gap from `t` to the cell's span,
/// less the slack, squared. Summed over both axes it bounds the squared
/// distance from a point to every node of a cell from below.
fn axis_gap2(t: f64, g: usize, n: usize) -> f64 {
    let width = 1.0 / n as f64;
    let (lo, hi) = (g as f64 * width, (g + 1) as f64 * width);
    let gap = ((lo - t).max(t - hi) - CELL_BOUND_SLACK).max(0.0);
    gap * gap
}

impl SpatialField {
    fn new(positions: Vec<(f64, f64)>, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "spatial radius must be positive"
        );
        for &(x, y) in &positions {
            assert!(
                (0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y),
                "positions must lie in the unit square"
            );
        }
        // Cell width = 1/cols ≥ radius keeps range queries within 3 × 3.
        let cols = ((1.0 / radius).floor() as usize).clamp(1, 4096);
        let mut field = SpatialField {
            radius,
            cols,
            rows: cols,
            positions: Vec::new(),
            buckets: vec![Vec::new(); cols * cols],
            node_cell: Vec::new(),
            node_slot: Vec::new(),
        };
        for (i, &(x, y)) in positions.iter().enumerate() {
            let cell = field.cell_of(x, y);
            let bucket = &mut field.buckets[cell as usize];
            field.node_cell.push(cell);
            field.node_slot.push(bucket.len() as u32);
            bucket.push(Placed { id: i as u32, x, y });
        }
        field.positions = positions;
        field
    }

    fn cell_of(&self, x: f64, y: f64) -> u32 {
        let cx = ((x * self.cols as f64) as usize).min(self.cols - 1);
        let cy = ((y * self.rows as f64) as usize).min(self.rows - 1);
        (cy * self.cols + cx) as u32
    }

    fn in_range(&self, a: usize, b: usize) -> bool {
        let (ax, ay) = self.positions[a];
        let (bx, by) = self.positions[b];
        let (dx, dy) = (ax - bx, ay - by);
        dx * dx + dy * dy <= self.radius * self.radius
    }

    /// The `(column, row)` ranges of the 3 × 3 cell block around `node`.
    fn block_around(&self, node: usize) -> (RangeInclusive<usize>, RangeInclusive<usize>) {
        let cell = self.node_cell[node] as usize;
        let (cx, cy) = (cell % self.cols, cell / self.cols);
        (
            cx.saturating_sub(1)..=(cx + 1).min(self.cols - 1),
            cy.saturating_sub(1)..=(cy + 1).min(self.rows - 1),
        )
    }

    /// Appends the nodes within radio range of `a` to `out`, in bucket
    /// order.
    fn in_range_of(&self, a: usize, out: &mut Vec<NodeId>) {
        let (ax, ay) = self.positions[a];
        let r2 = self.radius * self.radius;
        let (gxs, gys) = self.block_around(a);
        for gy in gys {
            for gx in gxs.clone() {
                for p in &self.buckets[gy * self.cols + gx] {
                    let (dx, dy) = (ax - p.x, ay - p.y);
                    if p.id as usize != a && dx * dx + dy * dy <= r2 {
                        out.push(NodeId(p.id as usize));
                    }
                }
            }
        }
    }

    fn move_node(&mut self, node: usize, x: f64, y: f64) {
        assert!(
            (0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y),
            "positions must lie in the unit square"
        );
        self.positions[node] = (x, y);
        let placed = Placed {
            id: node as u32,
            x,
            y,
        };
        let new_cell = self.cell_of(x, y);
        let old_cell = self.node_cell[node];
        let slot = self.node_slot[node] as usize;
        debug_assert_eq!(self.buckets[old_cell as usize][slot].id, placed.id);
        if new_cell == old_cell {
            self.buckets[old_cell as usize][slot] = placed;
            return;
        }
        let bucket = &mut self.buckets[old_cell as usize];
        bucket.swap_remove(slot);
        if let Some(filler) = bucket.get(slot) {
            self.node_slot[filler.id as usize] = slot as u32;
        }
        let bucket = &mut self.buckets[new_cell as usize];
        self.node_cell[node] = new_cell;
        self.node_slot[node] = bucket.len() as u32;
        bucket.push(placed);
    }

    /// Greedy next hop from `from` towards `dst` (see
    /// [`Topology::geo_next_hop`]), visiting only the cells of the 3 × 3
    /// block that can still hold a better candidate.
    fn geo_next_hop(&self, from: usize, dst: usize) -> Option<usize> {
        let (fx, fy) = self.positions[from];
        let (tx, ty) = self.positions[dst];
        let dist2 = |x: f64, y: f64| {
            let (ex, ey) = (x - tx, y - ty);
            ex * ex + ey * ey
        };
        let own = dist2(fx, fy);
        let r2 = self.radius * self.radius;

        // A cell whose bound reaches `own` holds nobody closer than the
        // sender; the rest are worth a visit, nearest bound first.
        let mut cells = [(0.0f64, 0usize); 9];
        let mut live = 0;
        let (gxs, gys) = self.block_around(from);
        for gy in gys {
            let row_gap2 = axis_gap2(ty, gy, self.rows);
            for gx in gxs.clone() {
                let bound = row_gap2 + axis_gap2(tx, gx, self.cols);
                cells[live] = (bound, gy * self.cols + gx);
                live += usize::from(bound < own);
            }
        }
        let cells = &mut cells[..live];
        cells.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));

        // The `(distance, id)` minimum over in-range nodes closer than the
        // sender, selected without data-dependent branches: which of the
        // three tests a candidate fails is a coin flip. The sender itself
        // (and any node on top of it) fails `d < own`.
        let (mut best_d, mut best_id) = (f64::INFINITY, u32::MAX);
        for &(bound, cell) in cells.iter() {
            if bound > best_d {
                break;
            }
            for p in &self.buckets[cell] {
                let (rx, ry) = (fx - p.x, fy - p.y);
                let d = dist2(p.x, p.y);
                let eligible = (rx * rx + ry * ry <= r2) & (d < own);
                let better = eligible & ((d < best_d) | ((d == best_d) & (p.id < best_id)));
                best_d = if better { d } else { best_d };
                best_id = if better { p.id } else { best_id };
            }
        }
        (best_id != u32::MAX).then_some(best_id as usize)
    }

    /// The next hop by the plainest scan — every node of the 3 × 3 block,
    /// by-id positions, early exits — kept as the oracle for the pruned one.
    #[cfg(test)]
    fn geo_next_hop_reference(&self, from: usize, dst: usize) -> Option<usize> {
        let (fx, fy) = self.positions[from];
        let (dx, dy) = self.positions[dst];
        let dist2 = |x: f64, y: f64| {
            let (ex, ey) = (x - dx, y - dy);
            ex * ex + ey * ey
        };
        let own = dist2(fx, fy);
        let mut best: Option<(f64, usize)> = None;
        let cx = ((fx * self.cols as f64) as usize).min(self.cols - 1);
        let cy = ((fy * self.rows as f64) as usize).min(self.rows - 1);
        for gy in cy.saturating_sub(1)..=(cy + 1).min(self.rows - 1) {
            for gx in cx.saturating_sub(1)..=(cx + 1).min(self.cols - 1) {
                for b in self.buckets[gy * self.cols + gx]
                    .iter()
                    .map(|p| p.id as usize)
                {
                    if b == from || !self.in_range(from, b) {
                        continue;
                    }
                    let (bx, by) = self.positions[b];
                    let d = dist2(bx, by);
                    if d >= own {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some((bd, bid)) => d < bd || (d == bd && b < bid),
                    };
                    if better {
                        best = Some((d, b));
                    }
                }
            }
        }
        best.map(|(_, b)| b)
    }

    /// Panics unless the buckets, the slot index and `positions` agree.
    #[cfg(test)]
    fn assert_consistent(&self) {
        let held: usize = self.buckets.iter().map(Vec::len).sum();
        assert_eq!(held, self.positions.len(), "every node in one bucket");
        for (id, &(x, y)) in self.positions.iter().enumerate() {
            let cell = self.node_cell[id];
            assert_eq!(cell, self.cell_of(x, y), "node {id} in the wrong cell");
            let placed = self.buckets[cell as usize][self.node_slot[id] as usize];
            let expected = Placed {
                id: id as u32,
                x,
                y,
            };
            assert_eq!(placed, expected, "node {id} slot out of date");
        }
    }
}

impl Topology {
    /// A topology with `n` nodes and no links.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        Topology {
            n,
            backend: Backend::Dense {
                up: vec![false; n * n],
            },
        }
    }

    /// Every node hears every other (single broadcast domain).
    #[must_use]
    pub fn full(n: usize) -> Self {
        let mut up = vec![true; n * n];
        for a in 0..n {
            up[a * n + a] = false;
        }
        Topology {
            n,
            backend: Backend::Dense { up },
        }
    }

    /// A spatial topology: nodes at `positions` in the unit square, linked
    /// exactly when within `radius` of each other. Connectivity follows the
    /// positions — use [`move_node`](Self::move_node) (or the world's
    /// scheduled moves) instead of [`set_link`](Self::set_link).
    ///
    /// # Panics
    ///
    /// Panics when `radius` is not positive and finite, or a position lies
    /// outside the unit square.
    #[must_use]
    pub fn spatial(positions: Vec<(f64, f64)>, radius: f64) -> Self {
        let n = positions.len();
        Topology {
            n,
            backend: Backend::Spatial(SpatialField::new(positions, radius)),
        }
    }

    /// A spatial topology with `n` nodes placed uniformly at random in the
    /// unit square (deterministic per seed): the scalable counterpart of
    /// [`random_geometric`](Self::random_geometric).
    #[must_use]
    pub fn random_spatial(n: usize, radius: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let positions = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
        Topology::spatial(positions, radius)
    }

    /// A linear chain `0 – 1 – … – n-1` (the paper's 5-node testbed shape).
    #[must_use]
    pub fn line(n: usize) -> Self {
        let mut t = Topology::empty(n);
        for i in 1..n {
            t.set_link(NodeId(i - 1), NodeId(i), LinkState::Up);
        }
        t
    }

    /// A `rows × cols` grid with 4-neighbour connectivity.
    #[must_use]
    pub fn grid(rows: usize, cols: usize) -> Self {
        let n = rows * cols;
        let mut t = Topology::empty(n);
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                if c + 1 < cols {
                    t.set_link(NodeId(i), NodeId(i + 1), LinkState::Up);
                }
                if r + 1 < rows {
                    t.set_link(NodeId(i), NodeId(i + cols), LinkState::Up);
                }
            }
        }
        t
    }

    /// A random geometric graph: `n` nodes placed uniformly in the unit
    /// square, linked when within `radius`. Deterministic for a given seed.
    /// Density grows with `radius` — useful for flooding experiments.
    #[must_use]
    pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
        let mut t = Topology::empty(n);
        for a in 0..n {
            for b in (a + 1)..n {
                let dx = pts[a].0 - pts[b].0;
                let dy = pts[a].1 - pts[b].1;
                if (dx * dx + dy * dy).sqrt() <= radius {
                    t.set_link(NodeId(a), NodeId(b), LinkState::Up);
                }
            }
        }
        t
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the topology has zero nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sets the (symmetric) link state between two nodes.
    ///
    /// # Panics
    ///
    /// Panics when either id is out of range, `a == b`, or the topology is
    /// spatial — there connectivity is a function of node positions, so
    /// move the nodes instead.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, state: LinkState) {
        assert!(a.0 < self.n && b.0 < self.n, "node id out of range");
        assert_ne!(a, b, "no self links");
        match &mut self.backend {
            Backend::Dense { up } => {
                let v = state == LinkState::Up;
                up[a.0 * self.n + b.0] = v;
                up[b.0 * self.n + a.0] = v;
            }
            Backend::Spatial(_) => {
                panic!("spatial topologies derive links from positions; use move_node")
            }
        }
    }

    /// Whether a frame from `a` reaches `b`.
    #[must_use]
    pub fn link_up(&self, a: NodeId, b: NodeId) -> bool {
        if a == b || a.0 >= self.n || b.0 >= self.n {
            return false;
        }
        match &self.backend {
            Backend::Dense { up } => up[a.0 * self.n + b.0],
            Backend::Spatial(field) => field.in_range(a.0, b.0),
        }
    }

    /// Writes the current neighbours of `a` into `out`, replacing what it
    /// held, in ascending id order: the form for callers that query in a
    /// loop and keep one buffer.
    pub fn neighbours_into(&self, a: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        match &self.backend {
            Backend::Dense { up } => out.extend(
                (0..self.n)
                    .filter(|b| a.0 != *b && up[a.0 * self.n + b])
                    .map(NodeId),
            ),
            Backend::Spatial(field) => {
                field.in_range_of(a.0, out);
                // Bucket order is arbitrary; callers iterate neighbour sets
                // into scheduling decisions, so pin ascending-id order to
                // match the dense backend exactly.
                out.sort_unstable();
            }
        }
    }

    /// Current neighbours of `a`, in ascending id order, in a new `Vec`
    /// (see [`neighbours_into`](Self::neighbours_into)).
    #[must_use]
    pub fn neighbours(&self, a: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.neighbours_into(a, &mut out);
        out
    }

    /// Whether this topology derives links from node positions.
    #[must_use]
    pub fn is_spatial(&self) -> bool {
        matches!(self.backend, Backend::Spatial(_))
    }

    /// The radio radius of a spatial topology.
    #[must_use]
    pub fn radius(&self) -> Option<f64> {
        match &self.backend {
            Backend::Dense { .. } => None,
            Backend::Spatial(field) => Some(field.radius),
        }
    }

    /// A node's position in the unit square (spatial topologies only).
    #[must_use]
    pub fn position(&self, a: NodeId) -> Option<(f64, f64)> {
        match &self.backend {
            Backend::Dense { .. } => None,
            Backend::Spatial(field) => field.positions.get(a.0).copied(),
        }
    }

    /// The spatial grid cell a node currently occupies — the phy layer's
    /// contention domain (cell width ≈ the radio radius, so transmitters
    /// sharing a cell are in mutual radio range). `None` on dense
    /// topologies, which form a single contention domain.
    #[must_use]
    pub fn contention_cell(&self, a: NodeId) -> Option<u32> {
        match &self.backend {
            Backend::Dense { .. } => None,
            Backend::Spatial(field) => {
                let (x, y) = *field.positions.get(a.0)?;
                Some(field.cell_of(x, y))
            }
        }
    }

    /// Moves a node of a spatial topology, updating the index
    /// incrementally (O(1), not an all-pairs re-evaluation).
    ///
    /// # Panics
    ///
    /// Panics on a dense topology, an out-of-range id, or a position
    /// outside the unit square.
    pub fn move_node(&mut self, a: NodeId, x: f64, y: f64) {
        assert!(a.0 < self.n, "node id out of range");
        match &mut self.backend {
            Backend::Dense { .. } => panic!("dense topologies have no positions; use set_link"),
            Backend::Spatial(field) => field.move_node(a.0, x, y),
        }
    }

    /// Greedy geographic next hop: the neighbour of `from` strictly closest
    /// to `dst`'s position, `None` at a local minimum (no neighbour closer
    /// than `from` itself) or on a dense topology. Ties break towards the
    /// lowest node id, keeping routing deterministic regardless of bucket
    /// order.
    #[must_use]
    pub fn geo_next_hop(&self, from: NodeId, dst: NodeId) -> Option<NodeId> {
        let Backend::Spatial(field) = &self.backend else {
            return None;
        };
        if from == dst || from.0 >= self.n || dst.0 >= self.n {
            return None;
        }
        field.geo_next_hop(from.0, dst.0).map(NodeId)
    }

    /// Node degree.
    #[must_use]
    pub fn degree(&self, a: NodeId) -> usize {
        self.neighbours(a).len()
    }

    /// Average degree over all nodes.
    #[must_use]
    pub fn average_degree(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let total: usize = (0..self.n).map(|i| self.degree(NodeId(i))).sum();
        total as f64 / self.n as f64
    }

    /// Whether the graph is connected (single component).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![0usize];
        let mut nbs = Vec::new();
        seen[0] = true;
        while let Some(cur) = stack.pop() {
            self.neighbours_into(NodeId(cur), &mut nbs);
            for &nb in &nbs {
                if !seen[nb.0] {
                    seen[nb.0] = true;
                    stack.push(nb.0);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// BFS hop distance between two nodes, if connected.
    #[must_use]
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> Option<usize> {
        if a == b {
            return Some(0);
        }
        let mut dist = vec![usize::MAX; self.n];
        let mut queue = std::collections::VecDeque::new();
        let mut nbs = Vec::new();
        dist[a.0] = 0;
        queue.push_back(a.0);
        while let Some(cur) = queue.pop_front() {
            self.neighbours_into(NodeId(cur), &mut nbs);
            for &nb in &nbs {
                if dist[nb.0] == usize::MAX {
                    dist[nb.0] = dist[cur] + 1;
                    if nb == b {
                        return Some(dist[nb.0]);
                    }
                    queue.push_back(nb.0);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_topology_shape() {
        let t = Topology::line(5);
        assert!(t.link_up(NodeId(0), NodeId(1)));
        assert!(t.link_up(NodeId(1), NodeId(0)), "symmetric");
        assert!(!t.link_up(NodeId(0), NodeId(2)));
        assert_eq!(t.degree(NodeId(0)), 1);
        assert_eq!(t.degree(NodeId(2)), 2);
        assert_eq!(t.hop_distance(NodeId(0), NodeId(4)), Some(4));
        assert!(t.is_connected());
    }

    #[test]
    fn grid_topology_shape() {
        let t = Topology::grid(3, 3);
        assert_eq!(t.len(), 9);
        assert_eq!(t.degree(NodeId(4)), 4, "centre has 4 neighbours");
        assert_eq!(t.degree(NodeId(0)), 2, "corner has 2");
        assert_eq!(t.hop_distance(NodeId(0), NodeId(8)), Some(4));
    }

    #[test]
    fn full_and_empty() {
        let t = Topology::full(4);
        assert_eq!(t.average_degree(), 3.0);
        let e = Topology::empty(4);
        assert_eq!(e.average_degree(), 0.0);
        assert!(!e.is_connected());
        assert!(e.hop_distance(NodeId(0), NodeId(1)).is_none());
        assert_eq!(e.hop_distance(NodeId(2), NodeId(2)), Some(0));
    }

    #[test]
    fn link_changes() {
        let mut t = Topology::line(3);
        t.set_link(NodeId(0), NodeId(1), LinkState::Down);
        assert!(!t.link_up(NodeId(0), NodeId(1)));
        assert!(!t.is_connected());
        t.set_link(NodeId(0), NodeId(2), LinkState::Up);
        assert!(t.is_connected());
    }

    #[test]
    fn random_geometric_is_deterministic() {
        let a = Topology::random_geometric(25, 0.35, 7);
        let b = Topology::random_geometric(25, 0.35, 7);
        assert_eq!(a, b);
        let c = Topology::random_geometric(25, 0.35, 8);
        assert_ne!(a, c, "different seed, different graph (overwhelmingly)");
        // Larger radius, denser graph.
        let dense = Topology::random_geometric(25, 0.6, 7);
        assert!(dense.average_degree() > a.average_degree());
    }

    #[test]
    fn no_self_links() {
        let t = Topology::full(3);
        assert!(!t.link_up(NodeId(1), NodeId(1)));
    }

    #[test]
    fn spatial_matches_dense_geometric() {
        // Same seed and radius: the spatial index must agree with the
        // all-pairs matrix on every link and every neighbour list.
        let (n, radius, seed) = (60, 0.2, 11);
        let dense = Topology::random_geometric(n, radius, seed);
        let spatial = Topology::random_spatial(n, radius, seed);
        for a in 0..n {
            assert_eq!(
                dense.neighbours(NodeId(a)),
                spatial.neighbours(NodeId(a)),
                "neighbour divergence at node {a}"
            );
            for b in 0..n {
                assert_eq!(
                    dense.link_up(NodeId(a), NodeId(b)),
                    spatial.link_up(NodeId(a), NodeId(b)),
                );
            }
        }
        assert!(spatial.is_spatial() && !dense.is_spatial());
        assert_eq!(spatial.radius(), Some(radius));
    }

    #[test]
    fn moves_update_links_incrementally() {
        let positions = vec![(0.1, 0.1), (0.15, 0.1), (0.9, 0.9)];
        let mut t = Topology::spatial(positions, 0.1);
        assert!(t.link_up(NodeId(0), NodeId(1)));
        assert!(!t.link_up(NodeId(0), NodeId(2)));
        // Walk node 2 across many cell boundaries into range of node 0.
        let mut x: f64 = 0.9;
        while x > 0.1 {
            x -= 0.04;
            t.move_node(NodeId(2), x.max(0.0), 0.1);
        }
        assert!(t.link_up(NodeId(0), NodeId(2)));
        assert_eq!(t.position(NodeId(2)).unwrap().1, 0.1);
        // And out again.
        t.move_node(NodeId(2), 0.9, 0.9);
        assert!(!t.link_up(NodeId(0), NodeId(2)));
        assert_eq!(t.neighbours(NodeId(0)), vec![NodeId(1)]);
    }

    #[test]
    fn geo_next_hop_progresses_and_detects_dead_ends() {
        // A chain of relays from left to right, each within range of the
        // next; greedy forwarding must walk it without skipping backwards.
        let positions = vec![
            (0.05, 0.5),
            (0.2, 0.5),
            (0.35, 0.5),
            (0.5, 0.5),
            (0.95, 0.5), // destination, reachable only from node 3? no — gap
        ];
        let t = Topology::spatial(positions, 0.16);
        assert_eq!(t.geo_next_hop(NodeId(0), NodeId(4)), Some(NodeId(1)));
        assert_eq!(t.geo_next_hop(NodeId(1), NodeId(4)), Some(NodeId(2)));
        assert_eq!(t.geo_next_hop(NodeId(2), NodeId(4)), Some(NodeId(3)));
        // Node 3 is 0.45 from the destination with no closer neighbour:
        // a geographic local minimum.
        assert_eq!(t.geo_next_hop(NodeId(3), NodeId(4)), None);
        // Dense topologies have no geometry.
        assert_eq!(Topology::full(3).geo_next_hop(NodeId(0), NodeId(2)), None);
    }

    /// A coordinate that likes trouble: a cell border of a `cols`-wide
    /// grid, an edge of the square, or anywhere.
    fn awkward_coordinate(rng: &mut StdRng, cols: usize) -> f64 {
        match rng.gen_range(0..8) {
            0 => rng.gen_range(0..=cols) as f64 / cols as f64,
            1 => 1.0,
            2 => 0.0,
            _ => rng.gen(),
        }
    }

    /// Somewhere for node `i` of `positions` to be: on top of another node
    /// one time in six (so equal distances exercise the id tie-break),
    /// otherwise two awkward coordinates.
    fn awkward_position(rng: &mut StdRng, positions: &[(f64, f64)], cols: usize) -> (f64, f64) {
        if !positions.is_empty() && rng.gen_range(0..6) == 0 {
            return positions[rng.gen_range(0..positions.len())];
        }
        (awkward_coordinate(rng, cols), awkward_coordinate(rng, cols))
    }

    /// Every `(from, dst)` pair against the full-block reference scan, and
    /// every neighbour list against an all-pairs dense matrix.
    fn assert_matches_oracles(t: &Topology, positions: &[(f64, f64)], case: &str) {
        let Backend::Spatial(field) = &t.backend else {
            panic!("spatial topology expected");
        };
        field.assert_consistent();
        assert_eq!(field.positions, positions, "{case}");
        let n = positions.len();
        let r2 = field.radius * field.radius;
        let mut dense = Topology::empty(n);
        for a in 0..n {
            for b in (a + 1)..n {
                let (dx, dy) = (
                    positions[a].0 - positions[b].0,
                    positions[a].1 - positions[b].1,
                );
                if dx * dx + dy * dy <= r2 {
                    dense.set_link(NodeId(a), NodeId(b), LinkState::Up);
                }
            }
        }
        for from in 0..n {
            assert_eq!(
                t.neighbours(NodeId(from)),
                dense.neighbours(NodeId(from)),
                "{case}: neighbours of {from}"
            );
            for dst in 0..n {
                assert_eq!(
                    t.geo_next_hop(NodeId(from), NodeId(dst)),
                    field.geo_next_hop_reference(from, dst).map(NodeId),
                    "{case}: next hop {from} -> {dst}"
                );
            }
        }
    }

    #[test]
    fn pruned_geo_next_hop_matches_the_full_block_scan() {
        // Radii from 49 columns down to one (radius > 0.5); the node counts
        // put anything from nobody to a few dozen nodes in a cell.
        let radii = [0.03, 0.05, 0.11, 0.2, 0.25, 1.0 / 3.0, 0.5, 0.7];
        let sizes = [2, 3, 9, 40, 120, 400];
        let mut case_no = 0u64;
        for &radius in &radii {
            for &n in &sizes {
                if n > 120 && radius > 0.3 {
                    continue; // a handful of cells: every scan is all of them
                }
                case_no += 1;
                let case = format!("case {case_no} (n {n}, radius {radius})");
                let mut rng = StdRng::seed_from_u64(0x9e0_0000 + case_no);
                let cols = ((1.0 / radius) as usize).max(1);
                let mut positions: Vec<(f64, f64)> = Vec::with_capacity(n);
                for _ in 0..n {
                    let at = awkward_position(&mut rng, &positions, cols);
                    positions.push(at);
                }
                let mut t = Topology::spatial(positions.clone(), radius);
                // All pairs are quadratic: the biggest fields are checked
                // once, after every move.
                if n <= 120 {
                    assert_matches_oracles(&t, &positions, &case);
                }
                // Moves in four bursts with a bucket/slot check after each:
                // jumps to awkward places and short random-waypoint steps.
                for burst in 0..4 {
                    for _ in 0..60 {
                        let node = rng.gen_range(0..n);
                        let to = if rng.gen() {
                            awkward_position(&mut rng, &positions, cols)
                        } else {
                            let (x, y) = positions[node];
                            let step = |at: f64, r: f64| (at + (r - 0.5) * radius).clamp(0.0, 1.0);
                            (step(x, rng.gen()), step(y, rng.gen()))
                        };
                        positions[node] = to;
                        t.move_node(NodeId(node), to.0, to.1);
                    }
                    let Backend::Spatial(field) = &t.backend else {
                        unreachable!()
                    };
                    field.assert_consistent();
                    if n <= 40 || burst == 3 {
                        assert_matches_oracles(&t, &positions, &format!("{case}, burst {burst}"));
                    }
                }
            }
        }
    }

    #[test]
    fn cell_bound_never_exceeds_a_real_distance() {
        // The pruning rests on this: for any node and any destination, the
        // bound of the node's cell is at most the node's own distance.
        let mut rng = StdRng::seed_from_u64(77);
        for &radius in &[0.025, 0.03, 0.07, 0.13, 0.3, 0.5] {
            let cols = ((1.0 / radius) as usize).max(1);
            let positions: Vec<(f64, f64)> = (0..300)
                .map(|_| {
                    (
                        awkward_coordinate(&mut rng, cols),
                        awkward_coordinate(&mut rng, cols),
                    )
                })
                .collect();
            let field = SpatialField::new(positions.clone(), radius);
            for &(x, y) in &positions {
                let cell = field.cell_of(x, y) as usize;
                for &(tx, ty) in &positions {
                    let (ex, ey) = (x - tx, y - ty);
                    let bound = axis_gap2(tx, cell % cols, cols) + axis_gap2(ty, cell / cols, cols);
                    assert!(
                        bound <= ex * ex + ey * ey,
                        "cell {cell} bound {bound} above ({x}, {y}) -> ({tx}, {ty})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "use move_node")]
    fn set_link_rejected_on_spatial() {
        let mut t = Topology::random_spatial(4, 0.3, 1);
        t.set_link(NodeId(0), NodeId(1), LinkState::Down);
    }

    #[test]
    fn link_model_sampling_is_bounded() {
        let model = LinkModel {
            delay: SimDuration::from_millis(1),
            jitter: SimDuration::from_millis(2),
            loss: 0.0,
            burst: None,
        };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let d = model.sample_delay(&mut rng);
            assert!(d >= SimDuration::from_millis(1) && d <= SimDuration::from_millis(3));
            assert!(!model.sample_loss(&mut rng));
        }
        let lossy = LinkModel { loss: 1.0, ..model };
        assert!(lossy.sample_loss(&mut rng));
    }

    #[test]
    fn gilbert_elliott_bursts_and_recovers() {
        let ge = GilbertElliott::flappy(0.05, 0.2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut phase = LinkPhase::Good;
        let mut losses = 0u32;
        let mut bad_transmissions = 0u32;
        const N: u32 = 20_000;
        for _ in 0..N {
            let lost = ge.sample(&mut phase, &mut rng);
            losses += u32::from(lost);
            bad_transmissions += u32::from(phase == LinkPhase::Bad);
            // Good phase never loses in the flappy profile.
            assert!(!(lost && phase == LinkPhase::Good));
        }
        // Stationary bad fraction is p_bad/(p_bad+p_good) = 0.2; the loss
        // rate tracks 0.95 of that. Allow generous sampling slack.
        let bad_frac = f64::from(bad_transmissions) / f64::from(N);
        assert!((bad_frac - 0.2).abs() < 0.05, "bad fraction {bad_frac}");
        let loss_rate = f64::from(losses) / f64::from(N);
        assert!(
            (loss_rate - ge.stationary_loss()).abs() < 0.05,
            "loss rate {loss_rate} vs stationary {}",
            ge.stationary_loss()
        );
    }

    #[test]
    fn gilbert_elliott_stationary_loss_edges() {
        let never = GilbertElliott {
            p_bad: 0.0,
            p_good: 0.0,
            loss_good: 0.25,
            loss_bad: 1.0,
        };
        assert_eq!(never.stationary_loss(), 0.25, "chain never leaves Good");
    }
}
