//! The shared-rate transmission engine.
//!
//! A [`Phy`] tracks, per node, one in-flight transmission plus a bounded FIFO
//! of waiting frames, and across nodes the set of active transmissions grouped
//! into contention domains. It is a pure state machine over
//! [`SimTime`]/[`SimDuration`]: the caller owns the event loop and feeds
//! `enqueue`/`complete` calls in timestamp order; the engine answers with
//! completion deadlines ([`Enqueue::Started`] + [`Resched`]) for the caller to
//! schedule.
//!
//! Rate allocation is max-min fair via progressive filling: repeatedly find
//! the bottleneck domain (smallest per-transmitter headroom), freeze its
//! transmitters at that share, and continue until every transmission has a
//! rate. A transmission that spans two domains (sender and receiver cell)
//! counts against both, so the invariant *sum of allocated rates within any
//! domain never exceeds the domain capacity* holds at every reallocation
//! point — the airtime-conservation property the proptests pin down.
//!
//! # Locality
//!
//! Domains and transmissions form a bipartite graph (a transmission bridges
//! at most two domains). Progressive filling never moves rate between
//! connected components of that graph, and run on one component alone it
//! performs exactly the arithmetic the global run performs for it — same
//! bottleneck order, same sums in the same order — so the shares agree bit
//! for bit. A start, finish or abort therefore refills only the component(s)
//! of the one or two domains it touched (a finish may split a component:
//! both halves hang off the finished transmission's domains, so both are
//! refilled) and every other transmission keeps the rate it has.
//!
//! Deadlines are local too. Each transmission keeps its residual work as of
//! its own last settle, and is settled — at the rate it held — only when its
//! rate changes. So an operation re-derives the deadline of exactly two
//! kinds of transmission: the one it started, and each one whose rate the
//! refill changed bitwise. Every other deadline stands to the microsecond,
//! and under [`PhyModel::ConstantBandwidth`] an operation issues at most the
//! starting frame's deadline; see [`Resched`].
//!
//! # State
//!
//! Everything is dense and kept incrementally: one plain-data [`Air`] record
//! per node (a node has at most one frame on the air), an id-ordered index of
//! the nodes that are transmitting, and per-domain member lists in ascending
//! [`TxId`] order. Domain ids are mapped to dense slots the first time they
//! are seen and each transmission remembers its slots, so the filling loop
//! does no lookup. Determinism rests on two orders only: transmissions are
//! frozen and reported by ascending [`TxId`], and the bottleneck is the
//! domain with the least headroom, ties going to the lowest domain id.

use std::collections::{BTreeMap, VecDeque};

use simkern::{SimDuration, SimTime};

use crate::{Channel, PhyModel};

/// Identifier of an in-flight transmission, unique per [`Phy`] lifetime.
pub type TxId = u64;

/// A deadline (re)issued for an in-flight transmission.
///
/// The caller schedules a completion event at `at` carrying `(tx, seq)`; an
/// event whose `seq` no longer matches the engine's is superseded, and
/// [`Phy::complete`] ignores it (the rate changed and a newer deadline
/// exists). A caller that keeps one event per transmitting `node` can
/// instead cancel the superseded one when the new deadline arrives, so that
/// nothing stale is ever popped.
///
/// A deadline is issued when a transmission starts, and reissued only when
/// a start, finish or abort changes the transmission's rate (bitwise) and
/// so moves its finish: the residual work is settled at the old rate up to
/// that instant and the deadline derived from it at the new one. A
/// transmission whose rate did not change keeps its deadline exactly —
/// under [`PhyModel::ConstantBandwidth`] that is every one but the frame
/// that starts. A batch lists its entries in ascending [`TxId`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resched {
    /// Transmission the deadline belongs to.
    pub tx: TxId,
    /// The node transmitting it: a node has at most one deadline pending.
    pub node: usize,
    /// Sequence number that must match at completion time.
    pub seq: u64,
    /// When the transmission now finishes.
    pub at: SimTime,
}

/// Outcome of offering a frame to a node's transmitter.
#[derive(Debug)]
pub enum Enqueue<T> {
    /// The transmit queue was full; the frame never reached the air. The
    /// payload is handed back so the caller can account for the drop.
    Dropped(T),
    /// The transmitter was busy; the frame waits in FIFO order.
    Queued {
        /// Queue depth after insertion (frames waiting, in-flight excluded).
        depth: usize,
    },
    /// The transmitter was idle; the frame is on the air. Its completion
    /// deadline is in the accompanying [`Resched`] batch.
    Started(TxId),
}

/// A finished transmission, handed back to the caller for delivery.
#[derive(Debug)]
pub struct Completion<T> {
    /// The transmitting node.
    pub node: usize,
    /// The frame that just left the air.
    pub payload: T,
    /// On-air size in bytes.
    pub wire_bytes: usize,
    /// Time the frame spent waiting in the transmit queue.
    pub queued: SimDuration,
    /// Time the frame spent being serialized on the air.
    pub airtime: SimDuration,
    /// The next queued frame, now on the air (its deadline is in the
    /// accompanying [`Resched`] batch). Inspect it with [`Phy::payload`].
    pub started: Option<TxId>,
}

#[derive(Clone)]
struct Waiting<T> {
    payload: T,
    wire_bytes: usize,
    domains: (u32, u32),
    enqueued_at: SimTime,
}

/// The frame a node has on the air; what [`Completion`] is built from.
#[derive(Clone)]
struct OnAir<T> {
    tx: TxId,
    payload: T,
    wire_bytes: usize,
    enqueued_at: SimTime,
    started_at: SimTime,
}

/// A node's transmitter: the frame on the air and the frames behind it.
#[derive(Clone)]
struct Radio<T> {
    on_air: Option<OnAir<T>>,
    queue: VecDeque<Waiting<T>>,
}

/// Rate and residual work of the transmission a node has on the air. Plain
/// data, one per node, meaningful only while the node is in `Phy::order`.
#[derive(Clone, Copy)]
struct Air {
    tx: TxId,
    /// Dense slots of the transmission's domains; equal for a single domain.
    slots: (u32, u32),
    /// Residual work as of `settled_at`, the last time the rate changed.
    remaining_bits: f64,
    settled_at: SimTime,
    /// The rate held since `settled_at`; zero under shared airtime until
    /// the first refill gives it a share.
    rate_bps: f64,
    seq: u64,
    deadline: SimTime,
    /// Still waiting for its share in the refill that is running.
    unfrozen: bool,
}

impl Air {
    const IDLE: Air = Air {
        tx: 0,
        slots: (0, 0),
        remaining_bits: 0.0,
        settled_at: SimTime::ZERO,
        rate_bps: 0.0,
        seq: 0,
        deadline: SimTime::MAX,
        unfrozen: false,
    };

    /// Gives the transmission `rate`. A different rate (bitwise) first
    /// settles the residual work at the old one, up to `now`; returns
    /// whether the rate changed, and so the deadline must be derived anew.
    fn rerate(&mut self, now: SimTime, rate: f64) -> bool {
        if rate.to_bits() == self.rate_bps.to_bits() {
            return false;
        }
        let dt = now.since(self.settled_at).as_secs_f64();
        self.remaining_bits = (self.remaining_bits - self.rate_bps * dt).max(0.0);
        self.settled_at = now;
        self.rate_bps = rate;
        true
    }
}

/// A contention domain: its members and the progressive-filling scratch.
#[derive(Clone)]
struct Domain {
    id: u32,
    /// Nodes transmitting in this domain, in ascending [`TxId`] order.
    members: Vec<u32>,
    /// [`Phy::epoch`] of the refill that last gathered this domain.
    epoch: u64,
    frozen_sum: f64,
    unfrozen: u32,
    /// Index in `Phy::component` during a refill.
    pos: u32,
}

impl Domain {
    /// The domain's bottleneck key: its headroom per unfrozen transmitter,
    /// `(capacity − frozen_sum).max(0) / unfrozen`, then its id, as one
    /// integer — a headroom is never negative, so its bits order as it
    /// does.
    fn key(&self, capacity_bps: f64) -> u128 {
        let headroom = (capacity_bps - self.frozen_sum).max(0.0) / f64::from(self.unfrozen);
        (u128::from(headroom.to_bits()) << 32) | u128::from(self.id)
    }
}

/// Deterministic shared-rate transmission engine. See the crate docs.
/// Cloning copies every transmission on the air and in the queues.
#[derive(Clone)]
pub struct Phy<T> {
    shared: bool,
    capacity_bps: f64,
    queue_cap: usize,
    radios: Vec<Radio<T>>,
    air: Vec<Air>,
    /// `(tx, node)` of every transmission on the air, ascending by `tx`.
    order: Vec<(TxId, u32)>,
    domains: Vec<Domain>,
    /// Domain id → index into `domains`, assigned on first sight.
    slot_of: BTreeMap<u32, u32>,
    next_tx: TxId,
    epoch: u64,
    /// Slots whose membership changed since the last refill.
    touched: Vec<u32>,
    /// Scratch: gather stack, then the component's slots and beside them
    /// their bottleneck keys.
    stack: Vec<u32>,
    component: Vec<u32>,
    keys: Vec<u128>,
    /// `(tx, node)` of the transmissions whose deadline the running
    /// operation must derive anew: the one it started and those whose rate
    /// changed.
    rerated: Vec<(TxId, u32)>,
}

impl<T> Phy<T> {
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
        let mut phy = Phy {
            shared,
            capacity_bps: (channel.bits_per_sec.max(1)) as f64,
            queue_cap: channel.queue_frames,
            radios: Vec::new(),
            air: Vec::new(),
            order: Vec::new(),
            domains: Vec::new(),
            slot_of: BTreeMap::new(),
            next_tx: 0,
            epoch: 0,
            touched: Vec::new(),
            stack: Vec::new(),
            component: Vec::new(),
            keys: Vec::new(),
            rerated: Vec::new(),
        };
        phy.ensure_nodes(nodes);
        phy
    }

    fn ensure_nodes(&mut self, nodes: usize) {
        if nodes > self.radios.len() {
            self.radios.resize_with(nodes, || Radio {
                on_air: None,
                queue: VecDeque::new(),
            });
            self.air.resize(nodes, Air::IDLE);
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
        self.radios.get(node).map_or(0, |r| r.queue.len())
    }

    /// Number of transmissions currently on the air.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.order.len()
    }

    /// Position in `order` and node of an in-flight transmission.
    fn locate(&self, tx: TxId) -> Option<(usize, usize)> {
        let pos = self.order.binary_search_by_key(&tx, |&(t, _)| t).ok()?;
        Some((pos, self.order[pos].1 as usize))
    }

    /// The payload of an in-flight transmission, if it is still active.
    #[must_use]
    pub fn payload(&self, tx: TxId) -> Option<&T> {
        let (_, node) = self.locate(tx)?;
        self.radios[node].on_air.as_ref().map(|f| &f.payload)
    }

    /// Per-domain sums of currently allocated rates, ascending by domain id.
    ///
    /// Exposed for the airtime-conservation property tests: for every domain
    /// the sum must never exceed [`Phy::capacity_bps`].
    #[must_use]
    pub fn domain_allocations(&self) -> Vec<(u32, f64)> {
        self.slot_of
            .iter()
            .map(|(&id, &slot)| (id, &self.domains[slot as usize].members))
            .filter(|(_, members)| !members.is_empty())
            .map(|(id, members)| {
                let rates = members.iter().map(|&n| self.air[n as usize].rate_bps);
                (id, rates.fold(0.0, |sum, rate| sum + rate))
            })
            .collect()
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
        self.ensure_nodes(node + 1);
        let frame = Waiting {
            payload,
            wire_bytes,
            domains,
            enqueued_at: now,
        };
        let radio = &mut self.radios[node];
        if radio.on_air.is_some() {
            if radio.queue.len() >= self.queue_cap {
                return (Enqueue::Dropped(frame.payload), Vec::new());
            }
            radio.queue.push_back(frame);
            let depth = radio.queue.len();
            return (Enqueue::Queued { depth }, Vec::new());
        }
        let tx = self.start(now, node, frame);
        (Enqueue::Started(tx), self.reallocate(now))
    }

    /// Handles a completion event for `(tx, seq)` at time `now`.
    ///
    /// Returns `None` when the event is superseded (the deadline moved after
    /// it was scheduled, or the transmission was flushed by a crash).
    pub fn complete(
        &mut self,
        now: SimTime,
        tx: TxId,
        seq: u64,
    ) -> Option<(Completion<T>, Vec<Resched>)> {
        let (pos, node) = self.locate(tx)?;
        if self.air[node].seq != seq {
            return None;
        }
        let done = self.finish(pos, node)?;
        let next = self.radios[node].queue.pop_front();
        let started = next.map(|w| self.start(now, node, w));
        let rescheds = self.reallocate(now);
        Some((
            Completion {
                node,
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
        self.ensure_nodes(node + 1);
        let radio = &mut self.radios[node];
        let waiting: Vec<T> = radio.queue.drain(..).map(|w| w.payload).collect();
        let on_air = radio.on_air.as_ref().map(|f| f.tx);
        let Some((pos, _)) = on_air.and_then(|tx| self.locate(tx)) else {
            return (waiting, None, Vec::new());
        };
        let aborted = self.finish(pos, node).map(|f| f.payload);
        (waiting, aborted, self.reallocate(now))
    }

    /// The dense slot of domain `id`, created on first sight.
    fn slot(&mut self, id: u32) -> u32 {
        *self.slot_of.entry(id).or_insert_with(|| {
            self.domains.push(Domain {
                id,
                members: Vec::new(),
                epoch: 0,
                frozen_sum: 0.0,
                unfrozen: 0,
                pos: 0,
            });
            (self.domains.len() - 1) as u32
        })
    }

    /// Puts a frame on `node`'s idle transmitter. Ids are issued in
    /// ascending order, so appending keeps `order` and the member lists
    /// sorted. Under shared airtime the refill gives it its rate and queues
    /// it in `rerated`; `reallocate` then issues its deadline.
    fn start(&mut self, now: SimTime, node: usize, frame: Waiting<T>) -> TxId {
        let tx = self.next_tx;
        self.next_tx += 1;
        let (a, b) = frame.domains;
        let first = self.slot(a);
        let slots = (first, if b == a { first } else { self.slot(b) });
        each_domain(slots, |slot| {
            self.domains[slot as usize].members.push(node as u32);
            self.touched.push(slot);
        });
        self.order.push((tx, node as u32));
        self.air[node] = Air {
            tx,
            slots,
            remaining_bits: (frame.wire_bytes.max(1) * 8) as f64,
            settled_at: now,
            rate_bps: if self.shared {
                0.0
            } else {
                self.capacity_bps.max(1.0)
            },
            ..Air::IDLE
        };
        if !self.shared {
            self.rerated.push((tx, node as u32));
        }
        self.radios[node].on_air = Some(OnAir {
            tx,
            payload: frame.payload,
            wire_bytes: frame.wire_bytes,
            enqueued_at: frame.enqueued_at,
            started_at: now,
        });
        tx
    }

    /// Takes the transmission at `order[pos]` (on `node`) off the air.
    fn finish(&mut self, pos: usize, node: usize) -> Option<OnAir<T>> {
        let done = self.radios[node].on_air.take()?;
        self.order.remove(pos);
        each_domain(self.air[node].slots, |slot| {
            let members = &mut self.domains[slot as usize].members;
            members.retain(|&n| n as usize != node);
            self.touched.push(slot);
        });
        Some(done)
    }

    /// Refills the touched components, then derives the deadline of every
    /// transmission the operation started or rerated and reissues those
    /// that moved, in ascending [`TxId`] order.
    fn reallocate(&mut self, now: SimTime) -> Vec<Resched> {
        if self.shared {
            self.gather();
            self.fill(now);
        }
        self.touched.clear();
        self.rerated.sort_unstable_by_key(|&(tx, _)| tx);
        let mut out = Vec::with_capacity(self.rerated.len());
        for (tx, node) in self.rerated.drain(..) {
            let a = &mut self.air[node as usize];
            let finish_us = (a.remaining_bits / a.rate_bps * 1e6).ceil() as u64;
            let at = now + SimDuration::from_micros(finish_us);
            if at != a.deadline {
                a.seq += 1;
                a.deadline = at;
                out.push(Resched {
                    tx,
                    node: node as usize,
                    seq: a.seq,
                    at,
                });
            }
        }
        out
    }

    /// Collects into `component` every domain connected to a touched one,
    /// with its filling scratch reset and its key in `keys`, and marks the
    /// transmissions in them unfrozen.
    fn gather(&mut self) {
        self.epoch += 1;
        self.component.clear();
        self.keys.clear();
        for &slot in &self.touched {
            let d = &mut self.domains[slot as usize];
            if d.epoch != self.epoch {
                d.epoch = self.epoch;
                self.stack.push(slot);
            }
        }
        let Phy {
            air,
            domains,
            epoch,
            stack,
            component,
            keys,
            capacity_bps,
            ..
        } = self;
        while let Some(slot) = stack.pop() {
            let members = std::mem::take(&mut domains[slot as usize].members);
            for &n in &members {
                let a = &mut air[n as usize];
                a.unfrozen = true;
                each_domain(a.slots, |other| {
                    let d = &mut domains[other as usize];
                    if d.epoch != *epoch {
                        d.epoch = *epoch;
                        stack.push(other);
                    }
                });
            }
            let d = &mut domains[slot as usize];
            d.members = members;
            if !d.members.is_empty() {
                d.frozen_sum = 0.0;
                d.unfrozen = d.members.len() as u32;
                d.pos = component.len() as u32;
                component.push(slot);
                keys.push(d.key(*capacity_bps));
            }
        }
    }

    /// Max-min fair shares by progressive filling over `component`; every
    /// transmission whose rate changes is settled and queued in `rerated`.
    /// A domain leaves `component` and `keys` once every transmitter in it
    /// has its share.
    fn fill(&mut self, now: SimTime) {
        while !self.keys.is_empty() {
            // Bottleneck domain: smallest headroom per unfrozen transmitter,
            // ties broken towards the lowest domain id — the least key.
            let (mut at, mut least) = (0, self.keys[0]);
            for (i, &key) in self.keys.iter().enumerate().skip(1) {
                if key < least {
                    (at, least) = (i, key);
                }
            }
            let share = f64::from_bits((least >> 32) as u64);
            let slot = self.component[at] as usize;
            let members = std::mem::take(&mut self.domains[slot].members);
            let Phy {
                air,
                domains,
                component,
                keys,
                rerated,
                capacity_bps,
                ..
            } = self;
            for &n in &members {
                let a = &mut air[n as usize];
                if !a.unfrozen {
                    continue;
                }
                a.unfrozen = false;
                if a.rerate(now, share.max(1.0)) {
                    rerated.push((a.tx, n));
                }
                each_domain(a.slots, |other| {
                    let d = &mut domains[other as usize];
                    d.frozen_sum += share;
                    d.unfrozen -= 1;
                    let pos = d.pos as usize;
                    if d.unfrozen > 0 {
                        keys[pos] = d.key(*capacity_bps);
                        return;
                    }
                    keys.swap_remove(pos);
                    component.swap_remove(pos);
                    if let Some(&moved) = component.get(pos) {
                        domains[moved as usize].pos = pos as u32;
                    }
                });
            }
            self.domains[slot].members = members;
        }
    }
}

/// Calls `f` on the distinct domains of a transmission (one or two),
/// sender's first.
fn each_domain(pair: (u32, u32), mut f: impl FnMut(u32)) {
    f(pair.0);
    if pair.1 != pair.0 {
        f(pair.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn phy(shared: bool, bps: u64, queue: usize) -> Phy<u32> {
        let channel = Channel {
            bits_per_sec: bps,
            queue_frames: queue,
        };
        let model = if shared {
            PhyModel::SharedAirtime(channel)
        } else {
            PhyModel::ConstantBandwidth(channel)
        };
        Phy::new(&model, 4).expect("non-ideal")
    }

    fn started(e: &Enqueue<u32>) -> TxId {
        match e {
            Enqueue::Started(tx) => *tx,
            other => panic!("expected Started, got {other:?}"),
        }
    }

    #[test]
    fn ideal_has_no_engine() {
        assert!(Phy::<u32>::new(&PhyModel::Ideal, 4).is_none());
    }

    #[test]
    fn serialization_delay_is_size_proportional() {
        // 1 Mb/s: a 125-byte frame (1000 bits) takes exactly 1 ms.
        let mut p = phy(false, 1_000_000, 8);
        let t0 = SimTime::ZERO;
        let (e, r) = p.enqueue(t0, 0, (0, 0), 125, 7);
        let tx = started(&e);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].tx, tx);
        assert_eq!(r[0].at, SimTime::from_micros(1000));
        let (done, _) = p.complete(r[0].at, tx, r[0].seq).expect("fresh");
        assert_eq!(done.payload, 7);
        assert_eq!(done.airtime, SimDuration::from_micros(1000));
        assert_eq!(done.queued, SimDuration::ZERO);
    }

    #[test]
    fn fifo_queue_and_tail_drop() {
        let mut p = phy(false, 1_000_000, 2);
        let t0 = SimTime::ZERO;
        let (e0, r0) = p.enqueue(t0, 0, (0, 0), 125, 0);
        let tx0 = started(&e0);
        assert!(matches!(
            p.enqueue(t0, 0, (0, 0), 125, 1).0,
            Enqueue::Queued { depth: 1 }
        ));
        assert!(matches!(
            p.enqueue(t0, 0, (0, 0), 125, 2).0,
            Enqueue::Queued { depth: 2 }
        ));
        // Queue full: the newest frame is the one dropped.
        match p.enqueue(t0, 0, (0, 0), 125, 3).0 {
            Enqueue::Dropped(payload) => assert_eq!(payload, 3),
            other => panic!("expected Dropped, got {other:?}"),
        }
        // Drain: completions come back in enqueue order.
        let (done0, r1) = p.complete(r0[0].at, tx0, r0[0].seq).expect("fresh");
        assert_eq!(done0.payload, 0);
        let tx1 = done0.started.expect("next frame starts");
        assert_eq!(*p.payload(tx1).expect("active"), 1);
        assert_eq!(done0.started.map(|_| r1.len()), Some(1));
        let (done1, r2) = p.complete(r1[0].at, tx1, r1[0].seq).expect("fresh");
        assert_eq!(done1.payload, 1);
        assert_eq!(done1.queued, SimDuration::from_micros(1000));
        let tx2 = done1.started.expect("last frame starts");
        let (done2, _) = p.complete(r2[0].at, tx2, r2[0].seq).expect("fresh");
        assert_eq!(done2.payload, 2);
        assert_eq!(done2.started, None);
        assert_eq!(p.active_count(), 0);
    }

    #[test]
    fn shared_airtime_splits_rate_in_domain() {
        // Two 1000-bit frames start together in one domain at 1 Mb/s: each
        // gets 500 kb/s and finishes at 2 ms instead of 1 ms.
        let mut p = phy(true, 1_000_000, 8);
        let t0 = SimTime::ZERO;
        let (e0, _) = p.enqueue(t0, 0, (5, 5), 125, 0);
        let tx0 = started(&e0);
        let (e1, r1) = p.enqueue(t0, 1, (5, 5), 125, 1);
        let tx1 = started(&e1);
        // Both deadlines move to the 2 ms mark.
        let at: Vec<SimTime> = r1.iter().map(|r| r.at).collect();
        assert_eq!(at, vec![SimTime::from_micros(2000); 2]);
        let seq0 = r1.iter().find(|r| r.tx == tx0).expect("tx0 moved").seq;
        let seq1 = r1.iter().find(|r| r.tx == tx1).expect("tx1 moved").seq;
        // The original 1 ms deadline for tx0 is stale now.
        assert!(p
            .complete(SimTime::from_micros(1000), tx0, seq0 - 1)
            .is_none());
        let (d0, r2) = p
            .complete(SimTime::from_micros(2000), tx0, seq0)
            .expect("fresh");
        assert_eq!(d0.airtime, SimDuration::from_micros(2000));
        // tx1 is alone again, but its residual work finishes at the same
        // instant — the deadline does not move, so no reschedule is issued.
        assert!(r2.is_empty());
        let (d1, _) = p
            .complete(SimTime::from_micros(2000), tx1, seq1)
            .expect("fresh");
        assert_eq!(d1.airtime, SimDuration::from_micros(2000));
    }

    #[test]
    fn independent_domains_do_not_contend() {
        let mut p = phy(true, 1_000_000, 8);
        let t0 = SimTime::ZERO;
        let (e0, r0) = p.enqueue(t0, 0, (1, 1), 125, 0);
        let (_, r1) = p.enqueue(t0, 1, (2, 2), 125, 1);
        // Starting in a different domain does not move tx0's deadline.
        assert!(r1.iter().all(|r| r.tx != started(&e0)));
        assert_eq!(r0[0].at, SimTime::from_micros(1000));
        assert_eq!(r1[0].at, SimTime::from_micros(1000));
    }

    #[test]
    fn two_domain_transmission_counts_in_both() {
        // tx A spans domains (1,2); tx B is in (1,1); tx C in (2,2).
        // A shares with both: the bottleneck share is C/2 everywhere.
        let mut p = phy(true, 1_000_000, 8);
        let t0 = SimTime::ZERO;
        p.enqueue(t0, 0, (1, 2), 125, 0);
        p.enqueue(t0, 1, (1, 1), 125, 1);
        p.enqueue(t0, 2, (2, 2), 125, 2);
        for (_, sum) in p.domain_allocations() {
            assert!(
                sum <= p.capacity_bps() * (1.0 + 1e-9),
                "domain oversubscribed"
            );
        }
    }

    fn rate(p: &Phy<u32>, tx: TxId) -> f64 {
        let (_, node) = p.locate(tx).expect("on the air");
        p.air[node].rate_bps
    }

    #[test]
    fn components_merge_through_a_bridge_and_split_when_it_finishes() {
        let mut p = phy(true, 900_000, 8);
        let t0 = SimTime::ZERO;
        // Two frames in cell 1, one in cell 2: two components.
        let a = started(&p.enqueue(t0, 0, (1, 1), 1500, 0).0);
        let b = started(&p.enqueue(t0, 1, (1, 1), 1500, 1).0);
        let c = started(&p.enqueue(t0, 2, (2, 2), 1500, 2).0);
        assert_eq!(
            [rate(&p, a), rate(&p, b), rate(&p, c)],
            [450_000.0, 450_000.0, 900_000.0]
        );
        // A frame from cell 1 to cell 2 joins them: cell 1 is the bottleneck
        // at a third each, and c takes what the bridge leaves of cell 2.
        let (e, moved) = p.enqueue(SimTime::from_micros(100), 3, (1, 2), 200, 3);
        let bridge = started(&e);
        assert_eq!(
            [rate(&p, a), rate(&p, b), rate(&p, bridge), rate(&p, c)],
            [300_000.0, 300_000.0, 300_000.0, 600_000.0]
        );
        assert_eq!(moved.len(), 4, "every deadline moved: {moved:?}");
        // The bridge finishes and the component splits; both halves refill.
        let r = moved.iter().find(|r| r.tx == bridge).expect("issued");
        let (done, moved) = p.complete(r.at, bridge, r.seq).expect("fresh");
        assert_eq!(done.payload, 3);
        assert_eq!(
            [rate(&p, a), rate(&p, b), rate(&p, c)],
            [450_000.0, 450_000.0, 900_000.0]
        );
        let moved: Vec<TxId> = moved.iter().map(|r| r.tx).collect();
        assert_eq!(moved, vec![a, b, c]);
    }

    #[test]
    fn an_unrelated_operation_reissues_no_deadline_to_the_watched_transmissions() {
        // Three frames share cell 1 at a third of 1 Mb/s each, a rate with
        // no exact f64; cell 9 then sees frames come and go at odd instants.
        let mut p = phy(true, 1_000_000, 8);
        let t0 = SimTime::ZERO;
        let mut issued = BTreeMap::new();
        let mut watched = Vec::new();
        for node in 0..3 {
            let (e, moved) = p.enqueue(t0, node, (1, 1), 2_000 + node, 0);
            watched.push(started(&e));
            issued.extend(moved.iter().map(|r| (r.tx, *r)));
        }
        let rates: Vec<u64> = watched.iter().map(|&tx| rate(&p, tx).to_bits()).collect();
        let mut now = t0;
        for i in 0..400u64 {
            now += SimDuration::from_micros(7 + i % 13);
            let (e, moved) = p.enqueue(now, 3, (9, 9), 1, 0);
            let tx = started(&e);
            assert_eq!(moved.len(), 1, "only the new frame's deadline: {moved:?}");
            assert_eq!((moved[0].tx, moved[0].node), (tx, 3));
            now = moved[0].at;
            let (_, moved) = p.complete(now, tx, moved[0].seq).expect("fresh");
            assert!(moved.is_empty(), "a finish in cell 9 moved {moved:?}");
            let now_rates: Vec<u64> = watched.iter().map(|&tx| rate(&p, tx).to_bits()).collect();
            assert_eq!(now_rates, rates);
        }
        // The deadlines issued at the start still stand: the first watched
        // frame finishes on its original `(tx, seq)`.
        let first = issued
            .values()
            .min_by_key(|r| (r.at, r.tx))
            .expect("issued");
        assert!(now < first.at, "cell 9 ran past the watched frames");
        let (done, _) = p.complete(first.at, first.tx, first.seq).expect("fresh");
        assert_eq!(done.airtime, first.at.since(t0));
    }

    #[test]
    fn flush_node_aborts_and_frees_airtime() {
        let mut p = phy(true, 1_000_000, 8);
        let t0 = SimTime::ZERO;
        let (e0, _) = p.enqueue(t0, 0, (5, 5), 125, 0);
        let tx0 = started(&e0);
        let (e1, _r1) = p.enqueue(t0, 1, (5, 5), 125, 1);
        let tx1 = started(&e1);
        p.enqueue(t0, 0, (5, 5), 125, 2);
        let mid = SimTime::from_micros(1000);
        let (waiting, aborted, rescheds) = p.flush_node(mid, 0);
        assert_eq!(waiting, vec![2]);
        assert_eq!(aborted, Some(0));
        assert!(p.complete(SimTime::MAX, tx0, 99).is_none(), "tx0 gone");
        // tx1 sped back up to full rate; its deadline moved earlier.
        let r = rescheds.iter().find(|r| r.tx == tx1).expect("tx1 moved");
        // Half the bits drained at half rate by 1 ms; the rest at full rate.
        assert_eq!(r.at, SimTime::from_micros(1500));
    }
}
