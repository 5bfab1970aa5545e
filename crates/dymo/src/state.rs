//! The DYMO CF's S element: route table, pending discoveries, duplicates.

use std::collections::BTreeMap;

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

use crate::handlers::dymo_sweep_timer;
use crate::messages::{PathHop, RouteElement};

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

/// Tunable DYMO parameters: exactly the reactive core's.
pub type DymoParams = ReactiveParams;

/// The DYMO CF state.
#[derive(Debug, Clone, Default)]
pub struct DymoState {
    /// Protocol route table (mirrored into the kernel table).
    pub routes: BTreeMap<Address, DymoRoute>,
    /// Our own DYMO sequence number.
    pub own_seq: u16,
    /// Discoveries awaiting a reply.
    pub pending: BTreeMap<Address, PendingDiscovery>,
    /// RREQ duplicate suppression by `(originator, seq)`.
    pub duplicates: SeenRreqs,
    /// Parameters.
    pub params: DymoParams,
}

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
}

impl ReactiveRoute for DymoRoute {
    fn next_hop(&self) -> Address {
        self.next_hop
    }
    fn hop_count(&self) -> u8 {
        self.hop_count
    }
    fn seq(&self) -> Option<u16> {
        Some(self.seq)
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
    /// A break found here reports the route's own sequence number; the
    /// route keeps it either way.
    fn mark_broken(&mut self, listed: Option<u16>) -> u16 {
        self.broken = true;
        listed.unwrap_or(self.seq)
    }
}

impl ReactiveTable for DymoState {
    type Route = DymoRoute;

    fn routes(&self) -> &BTreeMap<Address, DymoRoute> {
        &self.routes
    }
    fn routes_mut(&mut self) -> &mut BTreeMap<Address, DymoRoute> {
        &mut self.routes
    }
    fn pending_mut(&mut self) -> &mut BTreeMap<Address, PendingDiscovery> {
        &mut self.pending
    }
    fn seen_mut(&mut self) -> &mut SeenRreqs {
        &mut self.duplicates
    }
    fn own_seq(&self) -> u16 {
        self.own_seq
    }
    fn own_seq_mut(&mut self) -> &mut u16 {
        &mut self.own_seq
    }
    fn reactive_params(&self) -> ReactiveParams {
        self.params
    }
    fn sweep_timer() -> EventType {
        dymo_sweep_timer()
    }

    /// Floods an RREQ carrying a freshly bumped sequence number and the
    /// target's last known one.
    fn send_rreq(&mut self, dst: Address, ctx: &mut ProtoCtx<'_>) {
        let seq = self.next_seq();
        let known_target_seq = self.routes.get(&dst).map(|r| r.seq);
        let re = RouteElement::rreq(
            PathHop {
                addr: ctx.local_addr(),
                seq,
            },
            dst,
            known_target_seq,
            self.params.hop_limit,
        );
        self.duplicates.check(ctx.local_addr(), seq, ctx.now());
        ctx.os().bump("rreq_sent");
        ctx.emit(Event::message_out(types::re_out(), re.to_message()));
    }

    /// Takes over a predecessor's routes and sequence number. Entries
    /// without a sequence number are skipped (DYMO cannot compare them),
    /// lapsed ones too; no expiry outlives our own route lifetime.
    fn adopt_carry(&mut self, carry: &RouteCarry, now: SimTime) {
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
    fn encode(&self) -> Vec<u8> {
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
        }
        out
    }

    const RERR_FORMAT: RerrFormat = RerrFormat {
        msg_type: msg_type::RERR,
        unreachable_flag: true,
    };

    /// Every failure is reported, under the route's sequence number or 0
    /// without a route, as DYMOUM does.
    fn forward_failed(&mut self, dst: Address) -> Option<(Address, u16)> {
        let seq = self.routes.get_mut(&dst).map_or(0, |r| r.mark_broken(None));
        Some((dst, seq))
    }

    /// Floods the route error, unless its hop budget is spent.
    fn report(&mut self, unreachable: Vec<(Address, u16)>, hop_limit: u8, ctx: &mut ProtoCtx<'_>) {
        if !unreachable.is_empty() && hop_limit > 0 {
            self.send_rerr(unreachable, hop_limit, None, ctx);
        }
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
        assert!(!s.duplicates.check(addr(1), 1, SimTime::ZERO));
        assert!(s.duplicates.check(addr(1), 1, SimTime::ZERO));
        s.expire(SimTime::ZERO + SimDuration::from_secs(11));
        assert!(!s
            .duplicates
            .check(addr(1), 1, SimTime::ZERO + SimDuration::from_secs(11)));
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
