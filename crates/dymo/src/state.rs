//! The DYMO CF's S element: route table, pending discoveries, duplicates.

use std::collections::BTreeMap;

use manetkit::carry::{CarriedRoute, RouteCarry};
use netsim::{SimDuration, SimTime};
use packetbb::Address;

/// Wraparound-aware sequence comparison: is `a` newer than `b`?
#[must_use]
pub fn seq_newer(a: u16, b: u16) -> bool {
    a != b && a.wrapping_sub(b) < 0x8000
}

/// A learned route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DymoRoute {
    /// Next hop toward the destination.
    pub next_hop: Address,
    /// The destination's sequence number this route was learned under.
    pub seq: u16,
    /// Hop count.
    pub hop_count: u8,
    /// When the route expires unless refreshed by traffic.
    pub expiry: SimTime,
    /// Set when a link break invalidated the route (kept briefly so RERRs
    /// can quote the sequence number).
    pub broken: bool,
}

/// An in-progress route discovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingDiscovery {
    /// RREQ attempts so far.
    pub attempts: u8,
    /// When to retry (or give up).
    pub next_retry: SimTime,
    /// When the discovery began (latency accounting).
    pub started: SimTime,
}

/// Tunable DYMO parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DymoParams {
    /// Route lifetime granted on learning/refresh.
    pub route_lifetime: SimDuration,
    /// First RREQ retry delay (doubles per attempt).
    pub rreq_wait: SimDuration,
    /// Maximum RREQ attempts before giving up.
    pub rreq_tries: u8,
    /// Hop budget on RREQs/RREPs.
    pub hop_limit: u8,
    /// Housekeeping sweep period.
    pub sweep: SimDuration,
}

impl Default for DymoParams {
    fn default() -> Self {
        DymoParams {
            route_lifetime: SimDuration::from_secs(5),
            rreq_wait: SimDuration::from_millis(1_000),
            rreq_tries: 3,
            hop_limit: 10,
            sweep: SimDuration::from_millis(250),
        }
    }
}

/// The DYMO CF state.
#[derive(Debug, Clone, Default)]
pub struct DymoState {
    /// Protocol route table (mirrored into the kernel table).
    pub routes: BTreeMap<Address, DymoRoute>,
    /// Our own DYMO sequence number.
    pub own_seq: u16,
    /// Discoveries awaiting a reply.
    pub pending: BTreeMap<Address, PendingDiscovery>,
    /// RREQ duplicate suppression: `(originator, seq)` → expiry.
    pub duplicates: BTreeMap<(Address, u16), SimTime>,
    /// Parameters.
    pub params: DymoParams,
}

/// Forks of a world share a node's state until one of them writes it, so
/// the state is `Sync`.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<DymoState>();
};

/// Outcome of offering a learned path segment to the route table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteUpdate {
    /// A new route was installed.
    Installed,
    /// An existing route was improved/refreshed.
    Updated,
    /// The offer was stale and ignored.
    Ignored,
}

impl DymoState {
    /// Bumps and returns our sequence number.
    pub fn next_seq(&mut self) -> u16 {
        self.own_seq = self.own_seq.wrapping_add(1);
        self.own_seq
    }

    /// Offers a learned route; newer sequence numbers always win, equal
    /// sequence numbers win on shorter hop count, broken routes are always
    /// replaceable.
    pub fn offer_route(
        &mut self,
        dst: Address,
        next_hop: Address,
        seq: u16,
        hop_count: u8,
        now: SimTime,
    ) -> RouteUpdate {
        let expiry = now + self.params.route_lifetime;
        match self.routes.get_mut(&dst) {
            None => {
                self.routes.insert(
                    dst,
                    DymoRoute {
                        next_hop,
                        seq,
                        hop_count,
                        expiry,
                        broken: false,
                    },
                );
                RouteUpdate::Installed
            }
            Some(existing) => {
                let better = existing.broken
                    || seq_newer(seq, existing.seq)
                    || (seq == existing.seq && hop_count < existing.hop_count);
                let refresh = seq == existing.seq && next_hop == existing.next_hop;
                if better {
                    let was_broken = existing.broken;
                    *existing = DymoRoute {
                        next_hop,
                        seq,
                        hop_count,
                        expiry,
                        broken: false,
                    };
                    if was_broken {
                        RouteUpdate::Installed
                    } else {
                        RouteUpdate::Updated
                    }
                } else if refresh {
                    existing.expiry = expiry.max(existing.expiry);
                    RouteUpdate::Updated
                } else {
                    RouteUpdate::Ignored
                }
            }
        }
    }

    /// Extends the lifetime of the route to `dst` (traffic refresh).
    pub fn refresh_route(&mut self, dst: Address, now: SimTime) {
        let lifetime = self.params.route_lifetime;
        if let Some(r) = self.routes.get_mut(&dst) {
            if !r.broken {
                r.expiry = now + lifetime;
            }
        }
    }

    /// Marks every route through `via` broken; returns the affected
    /// `(destination, seq)` pairs for RERR generation.
    pub fn break_routes_via(&mut self, via: Address) -> Vec<(Address, u16)> {
        let mut broken = Vec::new();
        for (dst, r) in self.routes.iter_mut() {
            if r.next_hop == via && !r.broken {
                r.broken = true;
                broken.push((*dst, r.seq));
            }
        }
        broken
    }

    /// The live (unbroken, unexpired) route to `dst`.
    #[must_use]
    pub fn live_route(&self, dst: Address, now: SimTime) -> Option<&DymoRoute> {
        self.routes
            .get(&dst)
            .filter(|r| !r.broken && r.expiry > now)
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
                seq: Some(r.seq),
                expiry: r.expiry,
            })
            .collect();
        RouteCarry {
            own_seq: self.own_seq,
            routes,
        }
    }

    /// Takes over a predecessor's routes and sequence number. Entries
    /// without a sequence number are skipped (DYMO cannot compare them),
    /// lapsed ones too; no expiry outlives our own route lifetime.
    pub fn adopt_carry(&mut self, carry: &RouteCarry, now: SimTime) {
        self.own_seq = carry.own_seq;
        let horizon = now + self.params.route_lifetime;
        for r in &carry.routes {
            let Some(seq) = r.seq else { continue };
            if r.expiry <= now {
                continue;
            }
            self.routes.insert(
                r.dst,
                DymoRoute {
                    next_hop: r.next_hop,
                    seq,
                    hop_count: r.hop_count,
                    expiry: r.expiry.min(horizon),
                    broken: false,
                },
            );
        }
    }

    /// Deterministic bytes of what a reconfiguration must preserve: the
    /// sequence number, every route (expiry and broken flag included) and
    /// the pending discoveries. Compared, never decoded.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 24 * self.routes.len());
        out.extend_from_slice(&self.own_seq.to_le_bytes());
        out.extend_from_slice(&(self.routes.len() as u32).to_le_bytes());
        for (dst, r) in &self.routes {
            out.extend_from_slice(dst.octets());
            out.extend_from_slice(r.next_hop.octets());
            out.extend_from_slice(&r.seq.to_le_bytes());
            out.push(r.hop_count);
            out.push(u8::from(r.broken));
            out.extend_from_slice(&r.expiry.as_micros().to_le_bytes());
        }
        out.extend_from_slice(&(self.pending.len() as u32).to_le_bytes());
        for (dst, p) in &self.pending {
            out.extend_from_slice(dst.octets());
            out.push(p.attempts);
            out.extend_from_slice(&p.next_retry.as_micros().to_le_bytes());
            out.extend_from_slice(&p.started.as_micros().to_le_bytes());
        }
        out
    }

    /// Records an RREQ duplicate; returns `true` when already seen.
    pub fn check_duplicate(&mut self, originator: Address, seq: u16, now: SimTime) -> bool {
        let expiry = now + SimDuration::from_secs(10);
        self.duplicates.insert((originator, seq), expiry).is_some()
    }

    /// Housekeeping: expire routes and duplicates; returns destinations
    /// whose routes lapsed (to clean the kernel table).
    pub fn expire(&mut self, now: SimTime) -> Vec<Address> {
        let mut lapsed = Vec::new();
        self.routes.retain(|dst, r| {
            // Broken routes linger one lifetime for RERR sequencing, then go.
            let keep = r.expiry > now || (r.broken && r.expiry + self.params.route_lifetime > now);
            if !keep {
                lapsed.push(*dst);
            }
            keep
        });
        self.duplicates.retain(|_, exp| *exp > now);
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
    fn offer_route_prefers_newer_seq_then_fewer_hops() {
        let mut s = DymoState::default();
        let now = SimTime::ZERO;
        assert_eq!(
            s.offer_route(addr(9), addr(2), 5, 3, now),
            RouteUpdate::Installed
        );
        // Older seq ignored.
        assert_eq!(
            s.offer_route(addr(9), addr(3), 4, 1, now),
            RouteUpdate::Ignored
        );
        // Same seq, more hops ignored.
        assert_eq!(
            s.offer_route(addr(9), addr(3), 5, 4, now),
            RouteUpdate::Ignored
        );
        // Same seq, fewer hops wins.
        assert_eq!(
            s.offer_route(addr(9), addr(3), 5, 2, now),
            RouteUpdate::Updated
        );
        assert_eq!(s.routes[&addr(9)].next_hop, addr(3));
        // Newer seq wins regardless of hops.
        assert_eq!(
            s.offer_route(addr(9), addr(4), 6, 9, now),
            RouteUpdate::Updated
        );
        assert_eq!(s.routes[&addr(9)].hop_count, 9);
    }

    #[test]
    fn broken_routes_are_replaceable_and_reported() {
        let mut s = DymoState::default();
        let now = SimTime::ZERO;
        s.offer_route(addr(9), addr(2), 5, 3, now);
        s.offer_route(addr(8), addr(2), 1, 2, now);
        s.offer_route(addr(7), addr(3), 1, 2, now);
        let broken = s.break_routes_via(addr(2));
        assert_eq!(broken, vec![(addr(8), 1), (addr(9), 5)]);
        assert!(s.live_route(addr(9), now).is_none());
        assert!(s.live_route(addr(7), now).is_some());
        // Re-learning a broken route works even with the same seq.
        assert_eq!(
            s.offer_route(addr(9), addr(3), 5, 4, now),
            RouteUpdate::Installed
        );
        assert!(s.live_route(addr(9), now).is_some());
    }

    #[test]
    fn expiry_and_refresh() {
        let mut s = DymoState::default();
        let now = SimTime::ZERO;
        s.offer_route(addr(9), addr(2), 1, 1, now);
        let later = now + SimDuration::from_secs(4);
        s.refresh_route(addr(9), later);
        // Without the refresh the route would lapse at 5 s.
        let lapsed = s.expire(now + SimDuration::from_secs(6));
        assert!(lapsed.is_empty());
        assert!(s
            .live_route(addr(9), now + SimDuration::from_secs(6))
            .is_some());
        let lapsed = s.expire(now + SimDuration::from_secs(10));
        assert_eq!(lapsed, vec![addr(9)]);
    }

    #[test]
    fn duplicates() {
        let mut s = DymoState::default();
        assert!(!s.check_duplicate(addr(1), 1, SimTime::ZERO));
        assert!(s.check_duplicate(addr(1), 1, SimTime::ZERO));
        s.expire(SimTime::ZERO + SimDuration::from_secs(11));
        assert!(!s.check_duplicate(addr(1), 1, SimTime::ZERO + SimDuration::from_secs(11)));
    }

    #[test]
    fn seq_numbers_wrap() {
        let mut s = DymoState {
            own_seq: u16::MAX,
            ..DymoState::default()
        };
        assert_eq!(s.next_seq(), 0);
        assert!(seq_newer(0, u16::MAX));
    }
}
