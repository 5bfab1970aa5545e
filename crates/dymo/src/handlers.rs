//! Plug-in components of the DYMO CF.

use std::any::Any;
use std::marker::PhantomData;

use manetkit::carry::RouteCarrier;
use manetkit::event::{types, Event, EventType, Payload, RouteCtl};
use manetkit::protocol::{proto_start_event, proto_stop_event, EventHandler, ProtoCtx, StateSlot};
use packetbb::Address;

use crate::messages::{PathHop, ReKind, RouteElement, RouteError};
use crate::state::{DymoState, RouteUpdate};

/// Access to the standard DYMO state embedded in an S component.
///
/// The standard S element *is* a [`DymoState`]; replacement S elements
/// (e.g. the multipath variant's) embed one and implement this trait, which
/// lets the generic handlers below be reused unchanged over either — the
/// code-reuse story of §6.3 at the type level.
pub trait DymoStateAccess: Any + Send + Sync + Clone {
    /// The embedded standard state, mutably.
    fn dymo_mut(&mut self) -> &mut DymoState;
    /// The embedded standard state.
    fn dymo(&self) -> &DymoState;
}

impl DymoStateAccess for DymoState {
    fn dymo_mut(&mut self) -> &mut DymoState {
        self
    }
    fn dymo(&self) -> &DymoState {
        self
    }
}

/// A DYMO S element holding `state`, with the codec and route carrier that
/// read an `S`: every DYMO S element, standard or a variant's, is built
/// here, so its codec and carrier always match its type.
#[must_use]
pub fn state_slot<S: DymoStateAccess>(state: S) -> StateSlot {
    StateSlot::new(state)
        .with_codec(state_codec::<S>)
        .with_carrier(route_carrier::<S>())
}

/// The route carrier of a DYMO CF whose S element is an `S`: live routes
/// and sequence number of the embedded [`DymoState`], whatever wraps it.
fn route_carrier<S: DymoStateAccess>() -> RouteCarrier {
    RouteCarrier {
        export: |slot, now| slot.get::<S>().dymo().export_carry(now),
        adopt: |slot, carry, now| slot.get_mut::<S>().dymo_mut().adopt_carry(carry, now),
    }
}

/// The state codec of a DYMO CF whose S element is an `S` (see
/// [`DymoState::encode`]).
fn state_codec<S: DymoStateAccess>(slot: &StateSlot) -> Vec<u8> {
    slot.try_get::<S>()
        .map(|s| s.dymo().encode())
        .unwrap_or_default()
}

/// Timer name of the DYMO housekeeping sweep.
pub const DYMO_SWEEP_TIMER: &str = "dymo:sweep";

manetkit::cached_event_type! {
    /// The interned [`DYMO_SWEEP_TIMER`] type (cached, no per-call lookup).
    pub fn dymo_sweep_timer => DYMO_SWEEP_TIMER;
}

fn install_kernel(ctx: &mut ProtoCtx<'_>, dst: Address, next_hop: Address, hops: u8) {
    ctx.os()
        .route_table_mut()
        .add_host_route(dst, next_hop, u32::from(hops));
}

fn remove_kernel(ctx: &mut ProtoCtx<'_>, dst: Address) {
    ctx.os().route_table_mut().remove_host_route(dst);
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

fn send_rreq(state: &mut DymoState, dst: Address, ctx: &mut ProtoCtx<'_>) {
    let seq = state.next_seq();
    let known_target_seq = state.routes.get(&dst).map(|r| r.seq);
    let re = RouteElement::rreq(
        PathHop {
            addr: ctx.local_addr(),
            seq,
        },
        dst,
        known_target_seq,
        state.params.hop_limit,
    );
    // Remember our own flood so echoes are squashed.
    state.check_duplicate(ctx.local_addr(), seq, ctx.now());
    ctx.os().bump("rreq_sent");
    ctx.emit(Event::message_out(types::re_out(), re.to_message()));
}

/// Starts route discovery on `NO_ROUTE` netfilter traps.
pub struct RouteDiscoveryHandler<S: DymoStateAccess = DymoState>(PhantomData<fn(S)>);

impl<S: DymoStateAccess> Default for RouteDiscoveryHandler<S> {
    fn default() -> Self {
        RouteDiscoveryHandler(PhantomData)
    }
}

impl<S: DymoStateAccess> EventHandler for RouteDiscoveryHandler<S> {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(Self(PhantomData)))
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
        let s = state.get_mut::<S>().dymo_mut();
        if let Some(route) = s.live_route(dst, now).copied() {
            // Lost race: the route exists; re-install and release buffers.
            install_kernel(ctx, dst, route.next_hop, route.hop_count);
            ctx.emit(Event {
                ty: types::route_found(),
                payload: Payload::RouteCtl(RouteCtl::RouteFound { dst }),
                meta: Default::default(),
            });
            return;
        }
        if s.pending.contains_key(&dst) {
            return; // discovery already under way; the packet sits buffered
        }
        s.pending.insert(
            dst,
            crate::state::PendingDiscovery {
                attempts: 1,
                next_retry: now + s.params.rreq_wait,
                started: now,
            },
        );
        ctx.os().bump("route_discovery");
        send_rreq(s, dst, ctx);
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
/// and RREP relaying, with a pluggable relay gate.
#[derive(Clone)]
pub struct ReHandler<S: DymoStateAccess = DymoState> {
    relay_gate: RelayGate<S>,
}

impl<S: DymoStateAccess> Default for ReHandler<S> {
    fn default() -> Self {
        ReHandler {
            relay_gate: |_, _| true,
        }
    }
}

impl<S: DymoStateAccess> ReHandler<S> {
    /// A handler whose RREQ relaying is gated by `gate(state, sender)`.
    #[must_use]
    pub fn with_relay_gate(gate: RelayGate<S>) -> Self {
        ReHandler { relay_gate: gate }
    }
}

impl<S: DymoStateAccess> EventHandler for ReHandler<S> {
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
        let s = state.get_mut::<S>().dymo_mut();
        learn_from_path(s, &re, from, local, ctx);

        match re.kind {
            ReKind::Rreq => {
                if s.check_duplicate(orig.addr, orig.seq, now) {
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
                    ctx.emit(Event {
                        ty: types::route_found(),
                        payload: Payload::RouteCtl(RouteCtl::RouteFound { dst }),
                        meta: Default::default(),
                    });
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

fn emit_rerr(
    state: &mut DymoState,
    unreachable: Vec<(Address, u16)>,
    ctx: &mut ProtoCtx<'_>,
    hop_limit: u8,
) {
    if unreachable.is_empty() {
        return;
    }
    let rerr = RouteError {
        reporter: ctx.local_addr(),
        unreachable,
        hop_limit,
    };
    let seq = state.next_seq();
    ctx.os().bump("rerr_sent");
    ctx.emit(Event::message_out(types::rerr_out(), rerr.to_message(seq)));
}

fn invalidate_via(state: &mut DymoState, via: Address, ctx: &mut ProtoCtx<'_>) {
    let broken = state.break_routes_via(via);
    for (dst, _) in &broken {
        remove_kernel(ctx, *dst);
    }
    emit_rerr(state, broken, ctx, 2);
}

/// Handles route breakage: local forwarding failures, link-layer feedback,
/// neighbourhood losses and incoming RERRs — the UERR/RERR machinery.
pub struct RerrHandler<S: DymoStateAccess = DymoState>(PhantomData<fn(S)>);

impl<S: DymoStateAccess> Default for RerrHandler<S> {
    fn default() -> Self {
        RerrHandler(PhantomData)
    }
}

impl<S: DymoStateAccess> EventHandler for RerrHandler<S> {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(Self(PhantomData)))
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
        let local = ctx.local_addr();
        let s = state.get_mut::<S>().dymo_mut();
        if event.ty == types::rerr_in() {
            let Some(msg) = event.message() else { return };
            let Some(from) = event.meta.from else { return };
            let Some(rerr) = RouteError::from_message(msg) else {
                return;
            };
            // Invalidate listed routes that actually go through the sender.
            let mut affected = Vec::new();
            for (dst, seq) in &rerr.unreachable {
                if let Some(r) = s.routes.get_mut(dst) {
                    if r.next_hop == from && !r.broken {
                        r.broken = true;
                        affected.push((*dst, *seq));
                    }
                }
            }
            for (dst, _) in &affected {
                remove_kernel(ctx, *dst);
            }
            ctx.os().bump("rerr_processed");
            if !affected.is_empty() && rerr.hop_limit > 1 {
                emit_rerr(s, affected, ctx, rerr.hop_limit - 1);
            }
            return;
        }
        match event.route_ctl() {
            Some(RouteCtl::ForwardFailure { dst, src, .. }) => {
                // We could not forward a transit packet: tell the source.
                let seq = s.routes.get(dst).map_or(0, |r| r.seq);
                if let Some(r) = s.routes.get_mut(dst) {
                    r.broken = true;
                }
                remove_kernel(ctx, *dst);
                let _ = src;
                emit_rerr(s, vec![(*dst, seq)], ctx, 2);
            }
            Some(RouteCtl::TxFailed { neighbour }) => {
                invalidate_via(s, *neighbour, ctx);
            }
            _ => {
                if let Payload::Neighbourhood(nh) = &event.payload {
                    for lost in &nh.lost {
                        invalidate_via(s, *lost, ctx);
                    }
                    let _ = local;
                }
            }
        }
    }
}

/// Extends route lifetimes when traffic uses them (`ROUTE_UPDATE`).
pub struct RouteLifetimeHandler<S: DymoStateAccess = DymoState>(PhantomData<fn(S)>);

impl<S: DymoStateAccess> Default for RouteLifetimeHandler<S> {
    fn default() -> Self {
        RouteLifetimeHandler(PhantomData)
    }
}

impl<S: DymoStateAccess> EventHandler for RouteLifetimeHandler<S> {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(Self(PhantomData)))
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
        let s = state.get_mut::<S>().dymo_mut();
        s.refresh_route(*dst, now);
        s.refresh_route(*next_hop, now);
        ctx.os().bump("route_refreshed");
    }
}

/// Housekeeping sweep: RREQ retries with binary exponential backoff, route
/// expiry and kernel-table cleanup; also the start and stop hooks, which
/// mirror the S element's live routes into the kernel table and withdraw
/// them again without touching S.
pub struct SweepHandler<S: DymoStateAccess = DymoState>(PhantomData<fn(S)>);

impl<S: DymoStateAccess> Default for SweepHandler<S> {
    fn default() -> Self {
        SweepHandler(PhantomData)
    }
}

impl<S: DymoStateAccess> EventHandler for SweepHandler<S> {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(Self(PhantomData)))
    }

    fn name(&self) -> &str {
        "sweep-handler"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![dymo_sweep_timer(), proto_start_event(), proto_stop_event()]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let now = ctx.now();
        let s = state.get_mut::<S>().dymo_mut();
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

        // RREQ retries / give-ups.
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

        // Route expiry.
        for dst in s.expire(now) {
            remove_kernel(ctx, dst);
            ctx.os().bump("route_expired");
        }
        let sweep = s.params.sweep;
        ctx.set_timer(sweep, dymo_sweep_timer());
    }
}
