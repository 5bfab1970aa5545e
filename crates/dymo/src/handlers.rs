//! Plug-in components of the DYMO CF: the RE handler. Route breakage is
//! the reactive core's [`RouteErrorHandler`](manetkit::reactive::RouteErrorHandler).

use manetkit::event::{types, Event, EventType};
use manetkit::protocol::{EventHandler, ProtoCtx, StateSlot};
use manetkit::reactive::{emit_route_found, install_kernel, ReactiveState, ReactiveTable};
use packetbb::Address;

use crate::messages::{PathHop, ReKind, RouteElement};
use crate::state::{DymoState, RouteUpdate};

/// Timer name of the DYMO housekeeping sweep.
pub const DYMO_SWEEP_TIMER: &str = "dymo:sweep";

manetkit::cached_event_type! {
    /// The interned [`DYMO_SWEEP_TIMER`] type (cached, no per-call lookup).
    pub fn dymo_sweep_timer => DYMO_SWEEP_TIMER;
}

/// Learns every route segment a routing element's accumulated path offers.
pub fn learn_from_path(
    state: &mut DymoState,
    re: &RouteElement,
    from: Address,
    local: Address,
    ctx: &mut ProtoCtx<'_>,
) {
    let now = ctx.now();
    let len = re.path.len();
    for (i, hop) in re.path.iter().enumerate() {
        if hop.addr == local {
            continue;
        }
        let hop_count = (len - i) as u8;
        match state.offer_route(hop.addr, from, hop.seq, hop_count, now) {
            RouteUpdate::Installed | RouteUpdate::Updated => {
                install_kernel(ctx, hop.addr, from, hop_count);
            }
            RouteUpdate::Ignored => {}
        }
    }
}

/// The RE (routing element) handler: RREQ flooding with path accumulation
/// and RREP unicast relaying — the core of DYMO (§5.2).
///
/// `relay_gate` makes the flooding strategy pluggable: the standard
/// implementation relays every fresh RREQ (blind flooding); the
/// optimised-flooding variant replaces this handler with one gated on MPR
/// selector state.
/// Decides whether a fresh RREQ received from `Address` is re-broadcast.
pub type RelayGate<S> = fn(&S, Address) -> bool;

/// The RE handler (see module docs): RREQ flooding with path accumulation
/// and RREP relaying, with a pluggable relay gate. Like every DYMO handler
/// it reads any S element embedding a [`DymoState`], the standard one or a
/// variant's, so a variant replaces only the components it changes.
#[derive(Clone)]
pub struct ReHandler<S: ReactiveState<Table = DymoState> = DymoState> {
    relay_gate: RelayGate<S>,
}

impl<S: ReactiveState<Table = DymoState>> Default for ReHandler<S> {
    fn default() -> Self {
        ReHandler {
            relay_gate: |_, _| true,
        }
    }
}

impl<S: ReactiveState<Table = DymoState>> ReHandler<S> {
    /// A handler whose RREQ relaying is gated by `gate(state, sender)`.
    #[must_use]
    pub fn with_relay_gate(gate: RelayGate<S>) -> Self {
        ReHandler { relay_gate: gate }
    }
}

impl<S: ReactiveState<Table = DymoState>> EventHandler for ReHandler<S> {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "re-handler"
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
        let now = ctx.now();
        let gate_open = (self.relay_gate)(state.get::<S>(), from);
        let s = state.get_mut::<S>().table_mut();
        learn_from_path(s, &re, from, local, ctx);

        match re.kind {
            ReKind::Rreq => {
                if s.duplicates.check(orig.addr, orig.seq, now) {
                    ctx.os().bump("rreq_duplicate");
                    return;
                }
                if re.target == local {
                    // We are the sought destination: answer.
                    let seq = s.next_seq();
                    let rrep = RouteElement::rrep(
                        PathHop { addr: local, seq },
                        orig.addr,
                        s.params.hop_limit,
                    );
                    let next_hop = s.live_route(orig.addr, now).map_or(from, |r| r.next_hop);
                    ctx.os().bump("rrep_sent");
                    ctx.emit(Event::message_out(types::re_out(), rrep.to_message()).to(next_hop));
                } else if gate_open {
                    // Intermediate node: accumulate and re-flood.
                    let hop = PathHop {
                        addr: local,
                        seq: s.own_seq,
                    };
                    if let Some(extended) = re.extended(hop) {
                        ctx.os().bump("rreq_relayed");
                        ctx.emit(Event::message_out(types::re_out(), extended.to_message()));
                    }
                }
            }
            ReKind::Rrep => {
                if re.target == local {
                    // Our discovery concluded.
                    let dst = orig.addr;
                    if s.pending.remove(&dst).is_some() {
                        ctx.os().bump("rrep_received");
                    }
                    emit_route_found(ctx, dst);
                } else {
                    // Relay toward the reply's target along reverse routes.
                    let hop = PathHop {
                        addr: local,
                        seq: s.own_seq,
                    };
                    match (s.live_route(re.target, now).copied(), re.extended(hop)) {
                        (Some(route), Some(extended)) => {
                            ctx.os().bump("rrep_relayed");
                            ctx.emit(
                                Event::message_out(types::re_out(), extended.to_message())
                                    .to(route.next_hop),
                            );
                        }
                        _ => ctx.os().bump("rrep_relay_failed"),
                    }
                }
            }
        }
    }
}
