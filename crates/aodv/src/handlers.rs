//! Plug-in components of the AODV CF: the RREQ and RREP handlers. Route
//! breakage is the reactive core's
//! [`RouteErrorHandler`](manetkit::reactive::RouteErrorHandler).

use manetkit::event::{types, Event, EventType};
use manetkit::protocol::{EventHandler, ProtoCtx, StateSlot};
use manetkit::reactive::{emit_route_found, install_kernel, seq_newer, ReactiveTable};
use packetbb::Address;

use crate::messages::{Rrep, Rreq};
use crate::state::AodvState;

/// Timer name of the AODV housekeeping sweep.
pub const AODV_SWEEP_TIMER: &str = "aodv:sweep";

manetkit::cached_event_type! {
    /// The interned [`AODV_SWEEP_TIMER`] type (cached, no per-call lookup).
    pub fn aodv_sweep_timer => AODV_SWEEP_TIMER;
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

        if s.seen_rreqs.check(rreq.orig, rreq.rreq_id, now) {
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
                lifetime_ms: s.params.reactive.route_lifetime.as_millis(),
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
                            lifetime_ms: s.params.reactive.route_lifetime.as_millis(),
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
            emit_route_found(ctx, rrep.dst);
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
