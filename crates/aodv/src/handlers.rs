//! Plug-in components of the AODV CF.

use std::collections::BTreeSet;

use manetkit::carry::RouteCarrier;
use manetkit::event::{types, Event, EventType, Payload, RouteCtl};
use manetkit::protocol::{proto_start_event, proto_stop_event, EventHandler, ProtoCtx, StateSlot};
use packetbb::Address;

use crate::messages::{Rerr, Rrep, Rreq};
use crate::state::{seq_newer, AodvState, BrokenRoute};

/// The AODV CF's route carrier: live routes and sequence number of its
/// [`AodvState`].
#[must_use]
pub fn route_carrier() -> RouteCarrier {
    RouteCarrier {
        export: |slot, now| slot.get::<AodvState>().export_carry(now),
        adopt: |slot, carry, now| slot.get_mut::<AodvState>().adopt_carry(carry, now),
    }
}

/// The AODV CF's state codec (see [`AodvState::encode`]).
#[must_use]
pub fn state_codec(slot: &StateSlot) -> Vec<u8> {
    slot.try_get::<AodvState>()
        .map(AodvState::encode)
        .unwrap_or_default()
}

/// Timer name of the AODV housekeeping sweep.
pub const AODV_SWEEP_TIMER: &str = "aodv:sweep";

manetkit::cached_event_type! {
    /// The interned [`AODV_SWEEP_TIMER`] type (cached, no per-call lookup).
    pub fn aodv_sweep_timer => AODV_SWEEP_TIMER;
}

fn install_kernel(ctx: &mut ProtoCtx<'_>, dst: Address, next_hop: Address, hops: u8) {
    ctx.os()
        .route_table_mut()
        .add_host_route(dst, next_hop, u32::from(hops));
}

fn remove_kernel(ctx: &mut ProtoCtx<'_>, dst: Address) {
    ctx.os().route_table_mut().remove_host_route(dst);
}

fn send_rreq(s: &mut AodvState, dst: Address, ctx: &mut ProtoCtx<'_>) {
    let orig_seq = s.next_seq();
    let rreq_id = s.next_rreq_id();
    let target_seq = s.routes.get(&dst).and_then(|r| r.seq);
    let rreq = Rreq {
        orig: ctx.local_addr(),
        orig_seq,
        rreq_id,
        target: dst,
        target_seq,
        hop_count: 0,
        hop_limit: s.params.hop_limit,
    };
    s.check_seen(rreq.orig, rreq_id, ctx.now());
    ctx.os().bump("rreq_sent");
    ctx.emit(Event::message_out(types::re_out(), rreq.to_message()));
}

/// Starts route discovery on `NO_ROUTE` traps.
#[derive(Clone)]
pub struct AodvDiscoveryHandler;

impl EventHandler for AodvDiscoveryHandler {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "route-discovery-handler"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![types::no_route()]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let Some(RouteCtl::NoRoute { dst }) = event.route_ctl() else {
            return;
        };
        let dst = *dst;
        let now = ctx.now();
        let s = state.get_mut::<AodvState>();
        if let Some(route) = s.live_route(dst, now).cloned() {
            install_kernel(ctx, dst, route.next_hop, route.hop_count);
            ctx.emit(Event {
                ty: types::route_found(),
                payload: Payload::RouteCtl(RouteCtl::RouteFound { dst }),
                meta: Default::default(),
            });
            return;
        }
        if s.pending.contains_key(&dst) {
            return;
        }
        s.pending.insert(
            dst,
            crate::state::PendingDiscovery {
                attempts: 1,
                next_retry: now + s.params.rreq_wait,
            },
        );
        ctx.os().bump("route_discovery");
        send_rreq(s, dst, ctx);
    }
}

/// Handles RREQs: learns the reverse route to the originator, answers as
/// destination (or as an intermediate with a fresh-enough route), or
/// re-floods.
#[derive(Clone)]
pub struct RreqHandler;

impl RreqHandler {
    fn reply(s: &mut AodvState, rreq: &Rreq, from: Address, rrep: Rrep, ctx: &mut ProtoCtx<'_>) {
        // The reverse route to the originator carries the reply; the
        // neighbour we received the RREQ from becomes a precursor of the
        // forward route (it will route traffic through us).
        let next_hop = s
            .live_route(rreq.orig, ctx.now())
            .map_or(from, |r| r.next_hop);
        s.add_precursor(rrep.dst, next_hop);
        ctx.os().bump("rrep_sent");
        ctx.emit(Event::message_out(types::re_out(), rrep.to_message()).to(next_hop));
    }
}

impl EventHandler for RreqHandler {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "rreq-handler"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![types::re_in()]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let Some(msg) = event.message() else { return };
        let Some(from) = event.meta.from else { return };
        let Some(rreq) = Rreq::from_message(msg) else {
            return;
        };
        let local = ctx.local_addr();
        if rreq.orig == local {
            return;
        }
        let now = ctx.now();
        let s = state.get_mut::<AodvState>();

        // Reverse route to the transmitting neighbour and the originator.
        if s.offer_route(from, from, None, 1, now) {
            install_kernel(ctx, from, from, 1);
        }
        if s.offer_route(
            rreq.orig,
            from,
            Some(rreq.orig_seq),
            rreq.hop_count + 1,
            now,
        ) {
            install_kernel(ctx, rreq.orig, from, rreq.hop_count + 1);
        }

        if s.check_seen(rreq.orig, rreq.rreq_id, now) {
            ctx.os().bump("rreq_duplicate");
            return;
        }

        if rreq.target == local {
            // RFC 3561 §6.6.1: the destination bumps its seq to at least
            // the requested one.
            if let Some(req) = rreq.target_seq {
                if seq_newer(req, s.own_seq) {
                    s.own_seq = req;
                }
            }
            let dst_seq = s.next_seq();
            let rrep = Rrep {
                dst: local,
                dst_seq,
                orig: rreq.orig,
                hop_count: 0,
                lifetime_ms: s.params.active_route_timeout.as_millis(),
            };
            Self::reply(s, &rreq, from, rrep, ctx);
            return;
        }

        // Intermediate reply when we hold a fresh-enough forward route.
        if s.params.intermediate_reply {
            if let Some(route) = s.live_route(rreq.target, now).cloned() {
                if let Some(known) = route.seq {
                    let fresh = rreq
                        .target_seq
                        .is_none_or(|req| known == req || seq_newer(known, req));
                    if fresh {
                        let rrep = Rrep {
                            dst: rreq.target,
                            dst_seq: known,
                            orig: rreq.orig,
                            hop_count: route.hop_count,
                            lifetime_ms: s.params.active_route_timeout.as_millis(),
                        };
                        ctx.os().bump("intermediate_rrep");
                        // The next hop toward the target learns traffic may
                        // come from the reverse direction.
                        let reverse_hop = s.live_route(rreq.orig, now).map_or(from, |r| r.next_hop);
                        s.add_precursor(rreq.target, reverse_hop);
                        Self::reply(s, &rreq, from, rrep, ctx);
                        return;
                    }
                }
            }
        }

        // Re-flood.
        if let Some(fwd) = rreq.forwarded() {
            ctx.os().bump("rreq_relayed");
            ctx.emit(Event::message_out(types::re_out(), fwd.to_message()));
        }
    }
}

/// Handles RREPs: installs the forward route, maintains precursors, relays
/// toward the originator.
#[derive(Clone)]
pub struct RrepHandler;

impl EventHandler for RrepHandler {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "rrep-handler"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![types::re_in()]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let Some(msg) = event.message() else { return };
        let Some(from) = event.meta.from else { return };
        let Some(rrep) = Rrep::from_message(msg) else {
            return;
        };
        let local = ctx.local_addr();
        let now = ctx.now();
        let s = state.get_mut::<AodvState>();

        // Forward route to the destination via the transmitting neighbour.
        if s.offer_route(from, from, None, 1, now) {
            install_kernel(ctx, from, from, 1);
        }
        if s.offer_route(rrep.dst, from, Some(rrep.dst_seq), rrep.hop_count + 1, now) {
            install_kernel(ctx, rrep.dst, from, rrep.hop_count + 1);
        }

        if rrep.orig == local {
            // Our discovery concluded.
            if s.pending.remove(&rrep.dst).is_some() {
                ctx.os().bump("rrep_received");
            }
            ctx.emit(Event {
                ty: types::route_found(),
                payload: Payload::RouteCtl(RouteCtl::RouteFound { dst: rrep.dst }),
                meta: Default::default(),
            });
            return;
        }
        // Relay along the reverse route; precursor bookkeeping per §6.7.
        let Some(reverse) = s.live_route(rrep.orig, now).cloned() else {
            ctx.os().bump("rrep_relay_failed");
            return;
        };
        s.add_precursor(rrep.dst, reverse.next_hop);
        s.add_precursor(rrep.orig, from);
        ctx.os().bump("rrep_relayed");
        ctx.emit(
            Event::message_out(types::re_out(), rrep.forwarded().to_message()).to(reverse.next_hop),
        );
    }
}

fn report_breaks(s: &mut AodvState, broken: Vec<BrokenRoute>, ctx: &mut ProtoCtx<'_>) {
    if broken.is_empty() {
        return;
    }
    for b in &broken {
        remove_kernel(ctx, b.dst);
    }
    // Precursor-directed reporting (RFC 3561 §6.11): nobody when no one
    // routes through us, unicast to a single precursor, broadcast to
    // several — and broadcast whenever a broken route's precursors are
    // unknown, because silence would leave upstream nodes forwarding into
    // the break for as long as traffic keeps their routes alive.
    let unknown = broken.iter().any(|b| b.precursors.is_none());
    let known: BTreeSet<Address> = broken
        .iter()
        .flat_map(|b| b.precursors.iter().flatten().copied())
        .collect();
    if !unknown && known.is_empty() {
        return;
    }
    let unreachable: Vec<(Address, u16)> = broken.iter().map(|b| (b.dst, b.seq)).collect();
    let seq = s.next_seq();
    let rerr = Rerr {
        reporter: ctx.local_addr(),
        unreachable,
    };
    ctx.os().bump("rerr_sent");
    let msg = rerr.to_message(seq);
    match known.first() {
        Some(only) if !unknown && known.len() == 1 => {
            ctx.emit(Event::message_out(types::rerr_out(), msg).to(*only));
        }
        _ => ctx.emit(Event::message_out(types::rerr_out(), msg)),
    }
}

/// Handles breakage: link feedback, forwarding failures, neighbourhood
/// losses and incoming RERRs (propagated to precursors).
#[derive(Clone)]
pub struct AodvRerrHandler;

impl EventHandler for AodvRerrHandler {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "rerr-handler"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![
            types::rerr_in(),
            types::send_route_err(),
            types::tx_failed(),
            types::nhood_change(),
        ]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let s = state.get_mut::<AodvState>();
        if event.ty == types::rerr_in() {
            let Some(msg) = event.message() else { return };
            let Some(from) = event.meta.from else { return };
            let Some(rerr) = Rerr::from_message(msg) else {
                return;
            };
            let mut broken = Vec::new();
            for (dst, seq) in &rerr.unreachable {
                let via_sender = s
                    .routes
                    .get(dst)
                    .is_some_and(|r| r.next_hop == from && !r.broken);
                if via_sender {
                    if let Some(r) = s.routes.get_mut(dst) {
                        broken.push(r.mark_broken(*dst, *seq));
                    }
                }
            }
            ctx.os().bump("rerr_processed");
            report_breaks(s, broken, ctx);
            return;
        }
        match event.route_ctl() {
            Some(RouteCtl::ForwardFailure { dst, .. }) => {
                let broken = match s.routes.get_mut(dst) {
                    Some(r) if !r.broken => {
                        let seq = r.seq.map_or(0, |q| q.wrapping_add(1));
                        vec![r.mark_broken(*dst, seq)]
                    }
                    _ => vec![],
                };
                report_breaks(s, broken, ctx);
            }
            Some(RouteCtl::TxFailed { neighbour }) => {
                let broken = s.break_routes_via(*neighbour);
                report_breaks(s, broken, ctx);
            }
            _ => {
                if let Payload::Neighbourhood(nh) = &event.payload {
                    for lost in nh.lost.clone() {
                        let broken = s.break_routes_via(lost);
                        report_breaks(s, broken, ctx);
                    }
                }
            }
        }
    }
}

/// Refreshes lifetimes on `ROUTE_UPDATE` (active-route timeout reset).
#[derive(Clone)]
pub struct AodvLifetimeHandler;

impl EventHandler for AodvLifetimeHandler {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "route-lifetime-handler"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![types::route_update()]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let Some(RouteCtl::RouteUsed { dst, next_hop }) = event.route_ctl() else {
            return;
        };
        let now = ctx.now();
        let s = state.get_mut::<AodvState>();
        s.refresh_route(*dst, now);
        s.refresh_route(*next_hop, now);
        ctx.os().bump("route_refreshed");
    }
}

/// Housekeeping sweep: RREQ retries (expanding backoff), route expiry,
/// kernel cleanup; also the start and stop hooks, which mirror the S
/// element's live routes into the kernel table and withdraw them again
/// without touching S.
#[derive(Clone)]
pub struct AodvSweepHandler;

impl EventHandler for AodvSweepHandler {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "sweep-handler"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![aodv_sweep_timer(), proto_start_event(), proto_stop_event()]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let now = ctx.now();
        let s = state.get_mut::<AodvState>();
        if event.ty == proto_start_event() {
            // What we would hand a successor is what the kernel must hold.
            for r in s.export_carry(now).routes {
                install_kernel(ctx, r.dst, r.next_hop, r.hop_count);
            }
            return;
        }
        if event.ty == proto_stop_event() {
            // Withdraw what we put into the OS; S stays as it is. The
            // datagrams buffered behind a pending discovery are dropped:
            // nobody is left to release them, and whoever runs next starts
            // its own discovery for the next datagram.
            for dst in s.routes.keys() {
                remove_kernel(ctx, *dst);
            }
            for dst in s.pending.keys() {
                ctx.os().drop_buffered(*dst);
            }
            return;
        }
        let due: Vec<Address> = s
            .pending
            .iter()
            .filter(|(_, p)| p.next_retry <= now)
            .map(|(d, _)| *d)
            .collect();
        for dst in due {
            let (attempts, give_up) = {
                let p = s.pending.get(&dst).expect("just listed");
                (p.attempts, p.attempts >= s.params.rreq_tries)
            };
            if give_up {
                s.pending.remove(&dst);
                ctx.os().bump("route_discovery_failed");
                ctx.os().drop_buffered(dst);
            } else {
                let backoff = s.params.rreq_wait.mul_f64(f64::from(1 << attempts));
                if let Some(p) = s.pending.get_mut(&dst) {
                    p.attempts += 1;
                    p.next_retry = now + backoff;
                }
                ctx.os().bump("rreq_retry");
                send_rreq(s, dst, ctx);
            }
        }
        for dst in s.expire(now) {
            remove_kernel(ctx, dst);
            ctx.os().bump("route_expired");
        }
        let sweep = s.params.sweep;
        ctx.set_timer(sweep, aodv_sweep_timer());
    }
}
