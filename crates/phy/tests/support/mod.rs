//! The global engine, kept as the oracle of `proptest_local_vs_global.rs`:
//! every `enqueue`, `complete` and aborting `flush_node` recomputes every
//! rate from scratch over ordered maps, then visits every transmission. One
//! whose rate changed bitwise (or that just started) is settled at its old
//! rate and has its deadline derived anew; every other keeps its residual
//! work and its deadline. Same API as [`phy::Phy`], built from the crate's
//! public types, so a driver can run both side by side.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use phy::{Channel, Completion, Enqueue, PhyModel, Resched, TxId};
use simkern::{SimDuration, SimTime};

struct Waiting<T> {
    payload: T,
    wire_bytes: usize,
    domains: (u32, u32),
    enqueued_at: SimTime,
}

struct Active<T> {
    node: usize,
    payload: T,
    wire_bytes: usize,
    domains: (u32, u32),
    enqueued_at: SimTime,
    started_at: SimTime,
    /// When `remaining_bits` was last settled: the last rate change.
    updated_at: SimTime,
    remaining_bits: f64,
    rate_bps: f64,
    seq: u64,
    deadline: SimTime,
}

/// The global engine: every operation refills every transmission.
pub struct GlobalPhy<T> {
    shared: bool,
    capacity_bps: f64,
    queue_cap: usize,
    queues: Vec<VecDeque<Waiting<T>>>,
    head: Vec<Option<TxId>>,
    active: BTreeMap<TxId, Active<T>>,
    next_tx: TxId,
}

impl<T> GlobalPhy<T> {
    /// Builds an engine for `model`, or `None` for [`PhyModel::Ideal`].
    #[must_use]
    pub fn new(model: &PhyModel, nodes: usize) -> Option<Self> {
        match model {
            PhyModel::Ideal => None,
            PhyModel::ConstantBandwidth(c) => Some(Self::with_channel(false, *c, nodes)),
            PhyModel::SharedAirtime(c) => Some(Self::with_channel(true, *c, nodes)),
        }
    }

    fn with_channel(shared: bool, channel: Channel, nodes: usize) -> Self {
        GlobalPhy {
            shared,
            capacity_bps: (channel.bits_per_sec.max(1)) as f64,
            queue_cap: channel.queue_frames,
            queues: (0..nodes).map(|_| VecDeque::new()).collect(),
            head: vec![None; nodes],
            active: BTreeMap::new(),
            next_tx: 0,
        }
    }

    fn ensure_node(&mut self, node: usize) {
        if node >= self.queues.len() {
            self.queues.resize_with(node + 1, VecDeque::new);
            self.head.resize(node + 1, None);
        }
    }

    /// Channel capacity in bits per second.
    #[must_use]
    pub fn capacity_bps(&self) -> f64 {
        self.capacity_bps
    }

    /// Frames waiting in `node`'s transmit queue (in-flight excluded).
    #[must_use]
    pub fn queue_depth(&self, node: usize) -> usize {
        self.queues.get(node).map_or(0, VecDeque::len)
    }

    /// Number of transmissions currently on the air.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The payload of an in-flight transmission, if it is still active.
    #[must_use]
    pub fn payload(&self, tx: TxId) -> Option<&T> {
        self.active.get(&tx).map(|a| &a.payload)
    }

    /// Per-domain sums of currently allocated rates, ascending by domain id.
    ///
    /// Exposed for the airtime-conservation property tests: for every domain
    /// the sum must never exceed [`GlobalPhy::capacity_bps`].
    #[must_use]
    pub fn domain_allocations(&self) -> Vec<(u32, f64)> {
        let mut sums: BTreeMap<u32, f64> = BTreeMap::new();
        for a in self.active.values() {
            for d in domain_list(a.domains) {
                *sums.entry(d).or_insert(0.0) += a.rate_bps;
            }
        }
        sums.into_iter().collect()
    }

    /// Offers a frame to `node`'s transmitter at time `now`.
    ///
    /// `domains` are the contention cells the transmission occupies (sender
    /// and receiver neighbourhood; pass the same value twice for broadcasts
    /// or single-domain channels). Returns the enqueue outcome plus any
    /// deadlines that moved because rates were reallocated.
    pub fn enqueue(
        &mut self,
        now: SimTime,
        node: usize,
        domains: (u32, u32),
        wire_bytes: usize,
        payload: T,
    ) -> (Enqueue<T>, Vec<Resched>) {
        self.ensure_node(node);
        if self.head[node].is_some() {
            if self.queues[node].len() >= self.queue_cap {
                return (Enqueue::Dropped(payload), Vec::new());
            }
            self.queues[node].push_back(Waiting {
                payload,
                wire_bytes,
                domains,
                enqueued_at: now,
            });
            return (
                Enqueue::Queued {
                    depth: self.queues[node].len(),
                },
                Vec::new(),
            );
        }
        let tx = self.start(now, node, domains, wire_bytes, payload, now);
        let rescheds = self.reallocate(now);
        (Enqueue::Started(tx), rescheds)
    }

    /// Handles a completion event for `(tx, seq)` at time `now`.
    ///
    /// Returns `None` when the event is stale (the deadline moved after it
    /// was scheduled, or the transmission was flushed by a crash).
    pub fn complete(
        &mut self,
        now: SimTime,
        tx: TxId,
        seq: u64,
    ) -> Option<(Completion<T>, Vec<Resched>)> {
        match self.active.get(&tx) {
            Some(a) if a.seq == seq => {}
            _ => return None,
        }
        let done = self.active.remove(&tx).expect("checked above");
        self.head[done.node] = None;
        let started = self.queues[done.node].pop_front().map(|w| {
            self.start(
                now,
                done.node,
                w.domains,
                w.wire_bytes,
                w.payload,
                w.enqueued_at,
            )
        });
        let rescheds = self.reallocate(now);
        Some((
            Completion {
                node: done.node,
                payload: done.payload,
                wire_bytes: done.wire_bytes,
                queued: done.started_at.since(done.enqueued_at),
                airtime: now.since(done.started_at),
                started,
            },
            rescheds,
        ))
    }

    /// Drops everything a crashed node had queued or on the air.
    ///
    /// Returns the waiting payloads, the aborted in-flight payload (if any),
    /// and deadlines that moved because the abort freed airtime.
    pub fn flush_node(&mut self, now: SimTime, node: usize) -> (Vec<T>, Option<T>, Vec<Resched>) {
        self.ensure_node(node);
        let waiting: Vec<T> = self.queues[node].drain(..).map(|w| w.payload).collect();
        let aborted = match self.head[node].take() {
            Some(tx) => self.active.remove(&tx).map(|a| a.payload),
            None => None,
        };
        let rescheds = if aborted.is_some() {
            self.reallocate(now)
        } else {
            Vec::new()
        };
        (waiting, aborted, rescheds)
    }

    fn start(
        &mut self,
        now: SimTime,
        node: usize,
        domains: (u32, u32),
        wire_bytes: usize,
        payload: T,
        enqueued_at: SimTime,
    ) -> TxId {
        let tx = self.next_tx;
        self.next_tx += 1;
        self.head[node] = Some(tx);
        self.active.insert(
            tx,
            Active {
                node,
                payload,
                wire_bytes,
                domains,
                enqueued_at,
                started_at: now,
                updated_at: now,
                remaining_bits: (wire_bytes.max(1) * 8) as f64,
                rate_bps: 0.0,
                seq: 0,
                // reallocate() issues the real deadline.
                deadline: SimTime::MAX,
            },
        );
        tx
    }

    /// Recomputes fair-share rates; settles each transmission whose rate
    /// changed and reissues its deadline if it moved.
    fn reallocate(&mut self, now: SimTime) -> Vec<Resched> {
        let rates = if self.shared {
            self.maxmin_rates()
        } else {
            self.active
                .keys()
                .map(|&tx| (tx, self.capacity_bps))
                .collect()
        };
        let mut out = Vec::new();
        for (tx, a) in &mut self.active {
            let rate = rates.get(tx).copied().unwrap_or(self.capacity_bps).max(1.0);
            if rate.to_bits() == a.rate_bps.to_bits() {
                continue;
            }
            let dt = now.since(a.updated_at).as_secs_f64();
            a.remaining_bits = (a.remaining_bits - a.rate_bps * dt).max(0.0);
            a.updated_at = now;
            a.rate_bps = rate;
            let finish_us = (a.remaining_bits / rate * 1e6).ceil() as u64;
            let at = now + SimDuration::from_micros(finish_us);
            if at != a.deadline {
                a.seq += 1;
                a.deadline = at;
                out.push(Resched {
                    tx: *tx,
                    node: a.node,
                    seq: a.seq,
                    at,
                });
            }
        }
        out
    }

    /// Max-min fair shares by progressive filling over contention domains.
    fn maxmin_rates(&self) -> BTreeMap<TxId, f64> {
        let mut members: BTreeMap<u32, Vec<TxId>> = BTreeMap::new();
        for (&tx, a) in &self.active {
            for d in domain_list(a.domains) {
                members.entry(d).or_default().push(tx);
            }
        }
        let mut rates: BTreeMap<TxId, f64> = BTreeMap::new();
        let mut frozen_sum: BTreeMap<u32, f64> = members.keys().map(|&d| (d, 0.0)).collect();
        let mut unfrozen: BTreeSet<TxId> = self.active.keys().copied().collect();
        while !unfrozen.is_empty() {
            // Bottleneck domain: smallest headroom per unfrozen transmitter,
            // ties broken towards the lowest domain id (ascending iteration).
            let mut best: Option<(f64, u32)> = None;
            for (&d, m) in &members {
                let k = m.iter().filter(|t| unfrozen.contains(t)).count();
                if k == 0 {
                    continue;
                }
                let head = (self.capacity_bps - frozen_sum[&d]).max(0.0) / k as f64;
                if best.is_none_or(|(h, _)| head < h) {
                    best = Some((head, d));
                }
            }
            let Some((share, d)) = best else { break };
            let frozen: Vec<TxId> = members[&d]
                .iter()
                .copied()
                .filter(|t| unfrozen.remove(t))
                .collect();
            for tx in frozen {
                rates.insert(tx, share);
                for dom in domain_list(self.active[&tx].domains) {
                    *frozen_sum.get_mut(&dom).expect("domain registered") += share;
                }
            }
        }
        rates
    }
}

/// The distinct domains of a transmission (one or two).
fn domain_list(domains: (u32, u32)) -> impl Iterator<Item = u32> {
    let (a, b) = domains;
    std::iter::once(a).chain((b != a).then_some(b))
}
