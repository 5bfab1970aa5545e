//! The AODV CF's S element: route table with precursor lists, pending
//! discoveries and RREQ-id duplicate suppression.

use std::collections::{BTreeMap, BTreeSet};

use manetkit::carry::RouteCarry;
use manetkit::event::{types, Event, EventType};
use manetkit::protocol::ProtoCtx;
use manetkit::reactive::{
    seq_newer, PendingDiscovery, ReactiveParams, ReactiveRoute, ReactiveTable, RerrFormat,
    SeenRreqs,
};
use netsim::SimTime;
use packetbb::registry::msg_type;
use packetbb::Address;

use crate::handlers::aodv_sweep_timer;
use crate::messages::Rreq;

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

/// Tunable AODV parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AodvParams {
    /// The reactive core's: the route lifetime is AODV's active route
    /// timeout, the hop limit its RREQ flood budget.
    pub reactive: ReactiveParams,
    /// Whether intermediate nodes with fresh routes may answer RREQs.
    pub intermediate_reply: bool,
}

impl Default for AodvParams {
    fn default() -> Self {
        AodvParams {
            reactive: ReactiveParams::default(),
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
    /// Seen floods by `(originator, rreq_id)`.
    pub seen_rreqs: SeenRreqs,
    /// Parameters.
    pub params: AodvParams,
}

impl AodvState {
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
        let expiry = now + self.params.reactive.route_lifetime;
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
}

impl ReactiveRoute for AodvRoute {
    fn next_hop(&self) -> Address {
        self.next_hop
    }
    fn hop_count(&self) -> u8 {
        self.hop_count
    }
    fn seq(&self) -> Option<u16> {
        self.seq
    }
    fn expiry(&self) -> SimTime {
        self.expiry
    }
    fn set_expiry(&mut self, expiry: SimTime) {
        self.expiry = expiry;
    }
    fn is_broken(&self) -> bool {
        self.broken
    }
    /// A break found here reports the destination's sequence number plus
    /// one (RFC 3561 §6.11); the route keeps what it reports.
    fn mark_broken(&mut self, listed: Option<u16>) -> u16 {
        let seq = listed.unwrap_or_else(|| self.seq.map_or(0, |s| s.wrapping_add(1)));
        self.broken = true;
        self.seq = Some(seq);
        seq
    }
}

impl ReactiveTable for AodvState {
    type Route = AodvRoute;

    fn routes(&self) -> &BTreeMap<Address, AodvRoute> {
        &self.routes
    }
    fn routes_mut(&mut self) -> &mut BTreeMap<Address, AodvRoute> {
        &mut self.routes
    }
    fn pending_mut(&mut self) -> &mut BTreeMap<Address, PendingDiscovery> {
        &mut self.pending
    }
    fn seen_mut(&mut self) -> &mut SeenRreqs {
        &mut self.seen_rreqs
    }
    fn own_seq(&self) -> u16 {
        self.own_seq
    }
    fn own_seq_mut(&mut self) -> &mut u16 {
        &mut self.own_seq
    }
    fn reactive_params(&self) -> ReactiveParams {
        self.params.reactive
    }
    fn sweep_timer() -> EventType {
        aodv_sweep_timer()
    }

    /// Floods an RREQ under a fresh flood id and our bumped sequence
    /// number, quoting the target's last known one.
    fn send_rreq(&mut self, dst: Address, ctx: &mut ProtoCtx<'_>) {
        let orig_seq = self.next_seq();
        let rreq_id = self.next_rreq_id();
        let target_seq = self.routes.get(&dst).and_then(|r| r.seq);
        let rreq = Rreq {
            orig: ctx.local_addr(),
            orig_seq,
            rreq_id,
            target: dst,
            target_seq,
            hop_count: 0,
            hop_limit: self.params.reactive.hop_limit,
        };
        self.seen_rreqs.check(rreq.orig, rreq_id, ctx.now());
        ctx.os().bump("rreq_sent");
        ctx.emit(Event::message_out(types::re_out(), rreq.to_message()));
    }

    /// Takes over a predecessor's routes and sequence number. Lapsed
    /// entries are skipped and no expiry outlives our own active-route
    /// timeout; the adopted routes have unknown precursors.
    fn adopt_carry(&mut self, carry: &RouteCarry, now: SimTime) {
        self.own_seq = carry.own_seq;
        let horizon = now + self.params.reactive.route_lifetime;
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
    fn encode(&self) -> Vec<u8> {
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

    const RERR_FORMAT: RerrFormat = RerrFormat {
        msg_type: msg_type::AODV_RERR,
        unreachable_flag: false,
    };

    /// Only a route that was still unbroken is reported.
    fn forward_failed(&mut self, dst: Address) -> Option<(Address, u16)> {
        let route = self.routes.get_mut(&dst).filter(|r| !r.broken)?;
        Some((dst, route.mark_broken(None)))
    }

    /// Precursor-directed reporting (RFC 3561 §6.11), hop limit 1: nobody
    /// when no one routes through us, unicast to a single precursor,
    /// broadcast to several — and broadcast whenever a broken route's
    /// precursors are unknown, because silence would leave upstream nodes
    /// forwarding into the break for as long as traffic keeps their routes
    /// alive.
    fn report(&mut self, unreachable: Vec<(Address, u16)>, _: u8, ctx: &mut ProtoCtx<'_>) {
        let mut unknown = false;
        let mut known = BTreeSet::new();
        let broken = unreachable
            .iter()
            .filter_map(|(dst, _)| self.routes.get(dst));
        for r in broken {
            unknown |= r.precursors_unknown;
            known.extend(r.precursors.iter().copied());
        }
        let dst = match known.first() {
            _ if unknown => None,
            None => return,
            Some(only) if known.len() == 1 => Some(*only),
            Some(_) => None,
        };
        self.send_rerr(unreachable, 1, dst, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimDuration;

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
        assert_eq!(broken, vec![(addr(9), 6)], "seq incremented on break");
        assert_eq!(s.routes[&addr(9)].seq, Some(6));
        assert_eq!(s.routes[&addr(9)].precursors.len(), 2);
        assert!(s.live_route(addr(9), now).is_none());
    }

    #[test]
    fn rreq_id_duplicates() {
        let mut s = AodvState::default();
        assert!(!s.seen_rreqs.check(addr(1), 1, SimTime::ZERO));
        assert!(s.seen_rreqs.check(addr(1), 1, SimTime::ZERO));
        assert!(!s.seen_rreqs.check(addr(1), 2, SimTime::ZERO));
        s.expire(SimTime::ZERO + SimDuration::from_secs(11));
        assert!(!s
            .seen_rreqs
            .check(addr(1), 1, SimTime::ZERO + SimDuration::from_secs(11)));
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
