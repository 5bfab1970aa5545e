//! Multipath DYMO (§5.2, after Gálvez & Ruiz): compute several
//! link-disjoint paths in a single route discovery, trading a little
//! discovery latency for far fewer re-floods under link churn.
//!
//! Enacted exactly as the paper describes, by replacing three components of
//! the running DYMO CF:
//!
//! 1. the **S** component — [`MultipathState`] embeds the standard
//!    [`DymoState`] and adds a path list per destination (the state
//!    transfer keeps all learned routes);
//! 2. the **RE handler** — duplicate RREQs are no longer discarded but
//!    mined for link-disjoint alternative paths (atomic handler execution
//!    makes this safe, as the paper notes);
//! 3. the **RERR handler** — on breakage it fails over to an alternative
//!    path when one exists and only sends a route error otherwise: the
//!    reactive core's [`RouteErrorHandler`] over [`MultipathState`], whose
//!    hooks drop the paths through a lost neighbour and fail over.

use std::collections::BTreeMap;

use manetkit::event::{types, Event, EventType};
use manetkit::node::ReconfigOp;
use manetkit::protocol::{EventHandler, Plugin, ProtoCtx, StateSlot};
use netsim::SimTime;
use packetbb::Address;

use manetkit::reactive::{
    install_kernel, seq_newer, state_slot, ReactiveState, ReactiveTable, RouteDiscoveryHandler,
    RouteErrorHandler, RouteLifetimeHandler, SweepHandler,
};

use crate::handlers::ReHandler;
use crate::messages::{PathHop, ReKind, RouteElement};
use crate::state::DymoState;
use crate::DYMO_CF;

/// One alternative path to a destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AltPath {
    /// First hop of the alternative (distinct next hops ⇒ link-disjoint
    /// first links).
    pub next_hop: Address,
    /// Hop count along this path.
    pub hop_count: u8,
    /// Sequence number the path was learned under.
    pub seq: u16,
    /// When the path lapses: one route lifetime after it was learned, when
    /// the relay it starts with forgets its own unused route.
    pub expiry: SimTime,
}

/// The multipath S component: the standard state plus per-destination
/// alternative paths.
#[derive(Debug, Clone, Default)]
pub struct MultipathState {
    /// The embedded standard DYMO state (primary routes live here).
    pub base: DymoState,
    /// Alternative paths per destination, distinct from the primary's next
    /// hop.
    pub alternatives: BTreeMap<Address, Vec<AltPath>>,
}

impl ReactiveState for MultipathState {
    type Table = DymoState;
    const RERR_HANDLER: &'static str = MULTIPATH_RERR_HANDLER;
    fn table(&self) -> &DymoState {
        &self.base
    }
    fn table_mut(&mut self) -> &mut DymoState {
        &mut self.base
    }

    /// Breaks the routes through `via` and forgets the alternatives that
    /// start with it.
    fn break_via(&mut self, via: Address) -> Vec<(Address, u16)> {
        let broken = self.base.break_routes_via(via);
        self.purge_via(via);
        broken
    }

    /// Fails the route over to its best live alternative, if any.
    fn repair(&mut self, (dst, seq): (Address, u16), ctx: &mut ProtoCtx<'_>) -> bool {
        let now = ctx.now();
        let Some(alt) = self.take_alternative(dst, now) else {
            return false;
        };
        let seq = if seq_newer(alt.seq, seq) {
            alt.seq
        } else {
            seq
        };
        self.base
            .offer_route(dst, alt.next_hop, seq, alt.hop_count, now);
        install_kernel(ctx, dst, alt.next_hop, alt.hop_count);
        ctx.os().bump("multipath_failover");
        true
    }
}

impl MultipathState {
    /// Converts carried-over standard state (the paper's S-component
    /// replacement keeps the route table).
    #[must_use]
    pub fn from_standard(base: DymoState) -> Self {
        MultipathState {
            base,
            alternatives: BTreeMap::new(),
        }
    }

    /// Offers an alternative path; kept when its first hop differs from the
    /// primary route's, and either no known alternative starts with that hop
    /// or the offer carries a newer sequence number than the one that does
    /// (a later discovery refreshes it).
    pub fn offer_alternative(&mut self, dst: Address, alt: AltPath) -> bool {
        let primary_hop = self.base.routes.get(&dst).map(|r| r.next_hop);
        if primary_hop == Some(alt.next_hop) {
            return false;
        }
        let alts = self.alternatives.entry(dst).or_default();
        if let Some(known) = alts.iter_mut().find(|a| a.next_hop == alt.next_hop) {
            if !seq_newer(alt.seq, known.seq) {
                return false;
            }
            *known = alt;
        } else {
            alts.push(alt);
        }
        alts.sort_by_key(|a| a.hop_count);
        true
    }

    /// Takes the best live alternative path to `dst`, if any; lapsed ones
    /// are dropped.
    pub fn take_alternative(&mut self, dst: Address, now: SimTime) -> Option<AltPath> {
        let alts = self.alternatives.get_mut(&dst)?;
        alts.retain(|a| a.expiry > now);
        if alts.is_empty() {
            return None;
        }
        Some(alts.remove(0))
    }

    /// Drops alternatives whose first hop is `via` (link break cleanup).
    pub fn purge_via(&mut self, via: Address) {
        for alts in self.alternatives.values_mut() {
            alts.retain(|a| a.next_hop != via);
        }
    }
}

/// Multipath RE handler: processes duplicate RREQs for link-disjoint
/// paths instead of discarding them.
#[derive(Clone)]
pub struct MultipathReHandler;

/// Plug-in name of the multipath RE handler.
pub const MULTIPATH_RE_HANDLER: &str = "multipath-re-handler";

/// Plug-in name of the multipath RERR handler.
pub const MULTIPATH_RERR_HANDLER: &str = "multipath-rerr-handler";

impl EventHandler for MultipathReHandler {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        MULTIPATH_RE_HANDLER
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![types::re_in()]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let Some(msg) = event.message() else { return };
        let Some(from) = event.meta.from else { return };
        let Some(re) = RouteElement::from_message(msg) else {
            return;
        };
        let local = ctx.local_addr();
        let orig = re.originator();
        if orig.addr == local {
            return;
        }
        let s = state.get_mut::<MultipathState>();
        let expiry = ctx.now() + s.base.params.route_lifetime;

        if re.kind == ReKind::Rreq && s.base.duplicates.contains(orig.addr, orig.seq) {
            // Duplicate RREQ: mine it for link-disjoint paths rather than
            // discarding (the defining multipath behaviour).
            let hops = re.path.len() as u8;
            let disjoint = s.offer_alternative(
                orig.addr,
                AltPath {
                    next_hop: from,
                    hop_count: hops,
                    seq: orig.seq,
                    expiry,
                },
            );
            if disjoint {
                ctx.os().bump("multipath_alt_learned");
                if re.target == local {
                    // As the sought destination, answer each disjoint copy
                    // with an extra RREP so the originator learns the
                    // alternative path too (Gálvez & Ruiz's link-disjoint
                    // reply strategy). Reuse the sequence number of the
                    // primary reply so the paths rank as equals.
                    let rrep = RouteElement::rrep(
                        PathHop {
                            addr: local,
                            seq: s.base.own_seq,
                        },
                        orig.addr,
                        s.base.params.hop_limit,
                    );
                    ctx.os().bump("multipath_extra_rrep");
                    ctx.emit(Event::message_out(types::re_out(), rrep.to_message()).to(from));
                }
            }
            return;
        }

        // Fresh element: delegate to the standard logic (learning, reply,
        // relay) via an inner standard handler over the embedded state.
        StandardDelegate.handle(event, state, ctx);

        // Mine the path tail for alternatives to every on-path node as
        // well: any hop reachable via `from` with a different first hop
        // than the primary is an alternative.
        let s = state.get_mut::<MultipathState>();
        for (i, hop) in re.path.iter().enumerate() {
            if hop.addr == local {
                continue;
            }
            let hop_count = (re.path.len() - i) as u8;
            if s.base.routes.get(&hop.addr).map(|r| r.next_hop) != Some(from) {
                let _ = s.offer_alternative(
                    hop.addr,
                    AltPath {
                        next_hop: from,
                        hop_count,
                        seq: hop.seq,
                        expiry,
                    },
                );
            }
        }
    }
}

/// Zero-size adapter running the standard RE logic over [`MultipathState`].
struct StandardDelegate;

impl StandardDelegate {
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let mut inner: ReHandler<MultipathState> = ReHandler::default();
        EventHandler::handle(&mut inner, event, state, ctx);
    }
}

/// Reconfiguration operations enacting multipath DYMO on a running
/// deployment: S-component replacement (with state transfer) plus RE/RERR
/// handler swaps — exactly the three replacements of §5.2 — with the
/// generic handlers re-plugged to read through [`MultipathState`].
#[must_use]
pub fn enable_ops() -> Vec<ReconfigOp> {
    vec![ReconfigOp::Recompose {
        protocol: DYMO_CF.to_string(),
        plug: vec![
            Plugin::Handler(Box::new(RouteDiscoveryHandler::<MultipathState>::default())),
            Plugin::Handler(Box::new(RouteLifetimeHandler::<MultipathState>::default())),
            Plugin::Handler(Box::new(SweepHandler::<MultipathState>::default())),
            Plugin::Handler(Box::new(MultipathReHandler)),
            Plugin::Handler(Box::new(RouteErrorHandler::<MultipathState>::default())),
        ],
        unplug: vec!["re-handler".into(), "rerr-handler".into()],
        state: Some(to_multipath),
    }]
}

/// The multipath S element, holding a copy of the standard one's routes.
fn to_multipath(slot: &StateSlot) -> StateSlot {
    let base = slot.get::<DymoState>().clone();
    state_slot(MultipathState::from_standard(base))
}

/// Reverts to standard single-path DYMO (alternatives are dropped, the
/// primary route table is carried back).
#[must_use]
pub fn disable_ops() -> Vec<ReconfigOp> {
    let handlers = [MULTIPATH_RE_HANDLER, MULTIPATH_RERR_HANDLER];
    vec![crate::standard_recompose(&handlers, Some(to_standard))]
}

/// The standard S element, holding a copy of the multipath one's primary
/// routes.
fn to_standard(slot: &StateSlot) -> StateSlot {
    state_slot(slot.get::<MultipathState>().base.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{SimDuration, SimTime};

    fn addr(n: u8) -> Address {
        Address::v4([10, 0, 0, n])
    }

    /// An alternative via `10.0.0.<hop>` that lapses at 5 s.
    fn alt(hop: u8, hop_count: u8, seq: u16) -> AltPath {
        AltPath {
            next_hop: addr(hop),
            hop_count,
            seq,
            expiry: SimTime::ZERO + SimDuration::from_secs(5),
        }
    }

    #[test]
    fn alternatives_must_be_link_disjoint() {
        let mut s = MultipathState::default();
        s.base.offer_route(addr(9), addr(2), 1, 3, SimTime::ZERO);
        // Same next hop as primary: rejected.
        assert!(!s.offer_alternative(addr(9), alt(2, 4, 1)));
        // Different next hop: accepted once.
        assert!(s.offer_alternative(addr(9), alt(3, 4, 1)));
        assert!(!s.offer_alternative(addr(9), alt(3, 4, 1)), "no duplicates");
    }

    #[test]
    fn a_newer_discovery_refreshes_a_known_alternative() {
        let mut s = MultipathState::default();
        s.base.offer_route(addr(9), addr(2), 1, 3, SimTime::ZERO);
        assert!(s.offer_alternative(addr(9), alt(3, 4, 1)));
        let fresh = AltPath {
            expiry: SimTime::ZERO + SimDuration::from_secs(12),
            ..alt(3, 2, 2)
        };
        assert!(s.offer_alternative(addr(9), fresh), "newer seq, same hop");
        assert!(!s.offer_alternative(addr(9), alt(3, 1, 1)), "older seq");
        assert_eq!(s.alternatives[&addr(9)], vec![fresh]);
    }

    #[test]
    fn take_alternative_prefers_shorter() {
        let mut s = MultipathState::default();
        s.base.offer_route(addr(9), addr(2), 1, 3, SimTime::ZERO);
        s.offer_alternative(addr(9), alt(4, 6, 1));
        s.offer_alternative(addr(9), alt(3, 4, 1));
        let now = SimTime::ZERO;
        assert_eq!(s.take_alternative(addr(9), now).unwrap().next_hop, addr(3));
        assert_eq!(s.take_alternative(addr(9), now).unwrap().next_hop, addr(4));
        assert!(s.take_alternative(addr(9), now).is_none());
    }

    #[test]
    fn lapsed_alternatives_are_never_taken() {
        let mut s = MultipathState::default();
        s.offer_alternative(addr(9), alt(3, 4, 1));
        let lapse = SimTime::ZERO + SimDuration::from_secs(5);
        assert!(s.take_alternative(addr(9), lapse).is_none());
        assert!(s.alternatives[&addr(9)].is_empty(), "dropped, not kept");
    }

    #[test]
    fn purge_drops_paths_via_broken_neighbour() {
        let mut s = MultipathState::default();
        s.offer_alternative(addr(9), alt(3, 4, 1));
        s.purge_via(addr(3));
        assert!(s.take_alternative(addr(9), SimTime::ZERO).is_none());
    }

    #[test]
    fn state_transfer_round_trip() {
        let mut base = DymoState::default();
        base.offer_route(addr(9), addr(2), 7, 3, SimTime::ZERO);
        let multi = MultipathState::from_standard(base);
        assert!(multi.base.routes.contains_key(&addr(9)));
        assert_eq!(multi.table().routes[&addr(9)].seq, 7);
    }
}
