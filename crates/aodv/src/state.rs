//! The AODV CF's S element: route table with precursor lists, pending
//! discoveries and RREQ-id duplicate suppression.

use std::collections::{BTreeMap, BTreeSet};

use manetkit::carry::{CarriedRoute, RouteCarry};
use netsim::{SimDuration, SimTime};
use packetbb::Address;

/// Wraparound-aware sequence comparison: is `a` newer than `b`?
#[must_use]
pub fn seq_newer(a: u16, b: u16) -> bool {
    a != b && a.wrapping_sub(b) < 0x8000
}

/// One AODV routing table entry (RFC 3561 §2: with precursor list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AodvRoute {
    /// Next hop toward the destination.
    pub next_hop: Address,
    /// Destination sequence number (`None` = never learned: invalid for
    /// comparisons until an authoritative value arrives).
    pub seq: Option<u16>,
    /// Hop count.
    pub hop_count: u8,
    /// Expiry unless refreshed.
    pub expiry: SimTime,
    /// Whether a link break invalidated this route.
    pub broken: bool,
    /// Upstream neighbours that route *through us* to this destination —
    /// the nodes a RERR must reach when the route breaks.
    pub precursors: BTreeSet<Address>,
    /// Set on a route adopted from another protocol, which kept no
    /// precursor lists: upstream nodes may well route through us, we just
    /// never saw them ask. Until a precursor is learned, a break of this
    /// route is reported to everyone in range rather than to nobody.
    pub precursors_unknown: bool,
}

impl AodvRoute {
    /// Marks the route broken under `seq` and says whom to tell.
    pub fn mark_broken(&mut self, dst: Address, seq: u16) -> BrokenRoute {
        self.broken = true;
        self.seq = Some(seq);
        BrokenRoute {
            dst,
            seq,
            precursors: (!self.precursors_unknown).then(|| self.precursors.clone()),
        }
    }
}

/// One route a break took down, as a RERR reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrokenRoute {
    /// The unreachable destination.
    pub dst: Address,
    /// Its (incremented) sequence number.
    pub seq: u16,
    /// The upstream neighbours to tell; `None` when they are unknown and
    /// the RERR must be broadcast (RFC 3561 §6.11).
    pub precursors: Option<BTreeSet<Address>>,
}

/// A discovery in progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingDiscovery {
    /// RREQ attempts so far.
    pub attempts: u8,
    /// When to retry or give up.
    pub next_retry: SimTime,
}

/// Tunable AODV parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AodvParams {
    /// Active route lifetime.
    pub active_route_timeout: SimDuration,
    /// First RREQ retry delay (doubles per attempt).
    pub rreq_wait: SimDuration,
    /// Maximum RREQ attempts.
    pub rreq_tries: u8,
    /// Flood budget for RREQs.
    pub hop_limit: u8,
    /// Housekeeping sweep period.
    pub sweep: SimDuration,
    /// Whether intermediate nodes with fresh routes may answer RREQs.
    pub intermediate_reply: bool,
}

impl Default for AodvParams {
    fn default() -> Self {
        AodvParams {
            active_route_timeout: SimDuration::from_secs(5),
            rreq_wait: SimDuration::from_millis(1_000),
            rreq_tries: 3,
            hop_limit: 10,
            sweep: SimDuration::from_millis(250),
            intermediate_reply: true,
        }
    }
}

/// The AODV CF state.
#[derive(Debug, Clone, Default)]
pub struct AodvState {
    /// The routing table.
    pub routes: BTreeMap<Address, AodvRoute>,
    /// Our own sequence number.
    pub own_seq: u16,
    /// Our RREQ flood id counter.
    pub rreq_id: u16,
    /// Discoveries in flight.
    pub pending: BTreeMap<Address, PendingDiscovery>,
    /// Seen `(originator, rreq_id)` floods → expiry.
    pub seen_rreqs: BTreeMap<(Address, u16), SimTime>,
    /// Parameters.
    pub params: AodvParams,
}

/// Forks of a world share a node's state until one of them writes it, so
/// the state is `Sync`.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<AodvState>();
};

impl AodvState {
    /// Bumps and returns our sequence number.
    pub fn next_seq(&mut self) -> u16 {
        self.own_seq = self.own_seq.wrapping_add(1);
        self.own_seq
    }

    /// Bumps and returns our RREQ flood id.
    pub fn next_rreq_id(&mut self) -> u16 {
        self.rreq_id = self.rreq_id.wrapping_add(1);
        self.rreq_id
    }

    /// RFC 3561 §6.2 update rule: accept when the offer is strictly newer,
    /// equal-but-shorter, or the existing entry is broken/seqless. Returns
    /// whether the table changed (caller then syncs the kernel).
    pub fn offer_route(
        &mut self,
        dst: Address,
        next_hop: Address,
        seq: Option<u16>,
        hop_count: u8,
        now: SimTime,
    ) -> bool {
        let expiry = now + self.params.active_route_timeout;
        match self.routes.get_mut(&dst) {
            None => {
                self.routes.insert(
                    dst,
                    AodvRoute {
                        next_hop,
                        seq,
                        hop_count,
                        expiry,
                        broken: false,
                        precursors: BTreeSet::new(),
                        precursors_unknown: false,
                    },
                );
                true
            }
            Some(existing) => {
                let accept = existing.broken
                    || match (seq, existing.seq) {
                        (Some(new), Some(old)) => {
                            seq_newer(new, old) || (new == old && hop_count < existing.hop_count)
                        }
                        (Some(_), None) => true,
                        (None, _) => hop_count < existing.hop_count,
                    };
                if accept {
                    existing.next_hop = next_hop;
                    if seq.is_some() {
                        existing.seq = seq;
                    }
                    existing.hop_count = hop_count;
                    existing.expiry = expiry;
                    existing.broken = false;
                    true
                } else {
                    // A same-next-hop duplicate still refreshes lifetime.
                    if existing.next_hop == next_hop && !existing.broken {
                        existing.expiry = existing.expiry.max(expiry);
                    }
                    false
                }
            }
        }
    }

    /// Adds a precursor to the route toward `dst`.
    pub fn add_precursor(&mut self, dst: Address, precursor: Address) {
        if let Some(r) = self.routes.get_mut(&dst) {
            r.precursors.insert(precursor);
            r.precursors_unknown = false;
        }
    }

    /// The live route to `dst`.
    #[must_use]
    pub fn live_route(&self, dst: Address, now: SimTime) -> Option<&AodvRoute> {
        self.routes
            .get(&dst)
            .filter(|r| !r.broken && r.expiry > now)
    }

    /// Extends the lifetime of the route to `dst`.
    pub fn refresh_route(&mut self, dst: Address, now: SimTime) {
        let lifetime = self.params.active_route_timeout;
        if let Some(r) = self.routes.get_mut(&dst) {
            if !r.broken {
                r.expiry = now + lifetime;
            }
        }
    }

    /// Breaks every route via `via`; returns one [`BrokenRoute`] each,
    /// with the destination sequence number incremented as RFC 3561 §6.11
    /// requires.
    pub fn break_routes_via(&mut self, via: Address) -> Vec<BrokenRoute> {
        let mut out = Vec::new();
        for (dst, r) in self.routes.iter_mut() {
            if r.next_hop == via && !r.broken {
                let seq = r.seq.map_or(0, |s| s.wrapping_add(1));
                out.push(r.mark_broken(*dst, seq));
            }
        }
        out
    }

    /// The live routes and our sequence number in protocol-neutral form
    /// (what a successor protocol takes over on a switch).
    #[must_use]
    pub fn export_carry(&self, now: SimTime) -> RouteCarry {
        let routes = self
            .routes
            .iter()
            .filter(|(_, r)| !r.broken && r.expiry > now)
            .map(|(dst, r)| CarriedRoute {
                dst: *dst,
                next_hop: r.next_hop,
                hop_count: r.hop_count,
                seq: r.seq,
                expiry: r.expiry,
            })
            .collect();
        RouteCarry {
            own_seq: self.own_seq,
            routes,
        }
    }

    /// Takes over a predecessor's routes and sequence number. Lapsed
    /// entries are skipped and no expiry outlives our own active-route
    /// timeout; the adopted routes have unknown precursors.
    pub fn adopt_carry(&mut self, carry: &RouteCarry, now: SimTime) {
        self.own_seq = carry.own_seq;
        let horizon = now + self.params.active_route_timeout;
        for r in &carry.routes {
            if r.expiry <= now {
                continue;
            }
            self.routes.insert(
                r.dst,
                AodvRoute {
                    next_hop: r.next_hop,
                    seq: r.seq,
                    hop_count: r.hop_count,
                    expiry: r.expiry.min(horizon),
                    broken: false,
                    precursors: BTreeSet::new(),
                    precursors_unknown: true,
                },
            );
        }
    }

    /// Deterministic bytes of what a reconfiguration must preserve: the
    /// sequence number, every route (expiry, broken flag and precursors
    /// included) and the pending discoveries. Compared, never decoded.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 28 * self.routes.len());
        out.extend_from_slice(&self.own_seq.to_le_bytes());
        out.extend_from_slice(&(self.routes.len() as u32).to_le_bytes());
        for (dst, r) in &self.routes {
            out.extend_from_slice(dst.octets());
            out.extend_from_slice(r.next_hop.octets());
            out.push(u8::from(r.seq.is_some()));
            out.extend_from_slice(&r.seq.unwrap_or(0).to_le_bytes());
            out.push(r.hop_count);
            out.push(u8::from(r.broken));
            out.push(u8::from(r.precursors_unknown));
            out.extend_from_slice(&r.expiry.as_micros().to_le_bytes());
            out.extend_from_slice(&(r.precursors.len() as u32).to_le_bytes());
            for p in &r.precursors {
                out.extend_from_slice(p.octets());
            }
        }
        out.extend_from_slice(&(self.pending.len() as u32).to_le_bytes());
        for (dst, p) in &self.pending {
            out.extend_from_slice(dst.octets());
            out.push(p.attempts);
            out.extend_from_slice(&p.next_retry.as_micros().to_le_bytes());
        }
        out
    }

    /// Records an RREQ flood; returns `true` when already seen.
    pub fn check_seen(&mut self, orig: Address, rreq_id: u16, now: SimTime) -> bool {
        let expiry = now + SimDuration::from_secs(10);
        self.seen_rreqs.insert((orig, rreq_id), expiry).is_some()
    }

    /// Housekeeping; returns destinations whose routes lapsed.
    pub fn expire(&mut self, now: SimTime) -> Vec<Address> {
        let hold = self.params.active_route_timeout;
        let mut lapsed = Vec::new();
        self.routes.retain(|dst, r| {
            let keep = r.expiry > now || (r.broken && r.expiry + hold > now);
            if !keep {
                lapsed.push(*dst);
            }
            keep
        });
        self.seen_rreqs.retain(|_, exp| *exp > now);
        lapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> Address {
        Address::v4([10, 0, 0, n])
    }

    #[test]
    fn update_rule_follows_rfc() {
        let mut s = AodvState::default();
        let now = SimTime::ZERO;
        assert!(s.offer_route(addr(9), addr(2), Some(5), 3, now));
        // Older seq rejected.
        assert!(!s.offer_route(addr(9), addr(3), Some(4), 1, now));
        // Equal seq, longer hops rejected.
        assert!(!s.offer_route(addr(9), addr(3), Some(5), 4, now));
        // Equal seq, shorter wins.
        assert!(s.offer_route(addr(9), addr(3), Some(5), 2, now));
        // Newer seq always wins.
        assert!(s.offer_route(addr(9), addr(4), Some(6), 9, now));
        // Seqless offer only on shorter hops.
        assert!(!s.offer_route(addr(9), addr(5), None, 9, now));
        assert!(s.offer_route(addr(9), addr(5), None, 1, now));
        // Seq survives a seqless accept.
        assert_eq!(s.routes[&addr(9)].seq, Some(6));
    }

    #[test]
    fn seqless_existing_accepts_any_seq() {
        let mut s = AodvState::default();
        let now = SimTime::ZERO;
        assert!(s.offer_route(addr(9), addr(2), None, 3, now));
        assert!(s.offer_route(addr(9), addr(3), Some(1), 9, now));
        assert_eq!(s.routes[&addr(9)].seq, Some(1));
    }

    #[test]
    fn breaking_increments_seq_and_reports_precursors() {
        let mut s = AodvState::default();
        let now = SimTime::ZERO;
        s.offer_route(addr(9), addr(2), Some(5), 3, now);
        s.add_precursor(addr(9), addr(7));
        s.add_precursor(addr(9), addr(8));
        let broken = s.break_routes_via(addr(2));
        assert_eq!(broken.len(), 1);
        assert_eq!(broken[0].dst, addr(9));
        assert_eq!(broken[0].seq, 6, "seq incremented on break");
        assert_eq!(broken[0].precursors.as_ref().map(BTreeSet::len), Some(2));
        assert!(s.live_route(addr(9), now).is_none());
    }

    #[test]
    fn rreq_id_duplicates() {
        let mut s = AodvState::default();
        assert!(!s.check_seen(addr(1), 1, SimTime::ZERO));
        assert!(s.check_seen(addr(1), 1, SimTime::ZERO));
        assert!(!s.check_seen(addr(1), 2, SimTime::ZERO));
        s.expire(SimTime::ZERO + SimDuration::from_secs(11));
        assert!(!s.check_seen(addr(1), 1, SimTime::ZERO + SimDuration::from_secs(11)));
    }

    #[test]
    fn refresh_and_expiry() {
        let mut s = AodvState::default();
        let now = SimTime::ZERO;
        s.offer_route(addr(9), addr(2), Some(1), 1, now);
        s.refresh_route(addr(9), now + SimDuration::from_secs(4));
        assert!(s
            .live_route(addr(9), now + SimDuration::from_secs(8))
            .is_some());
        let lapsed = s.expire(now + SimDuration::from_secs(10));
        assert_eq!(lapsed, vec![addr(9)]);
    }
}
