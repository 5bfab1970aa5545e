//! The reactive-routing core: what DYMO and AODV share.
//!
//! An on-demand protocol buffers a datagram that has no route, floods an
//! RREQ and retries with binary exponential backoff until a reply installs
//! the route or the tries run out. Traffic keeps a route alive; a
//! housekeeping sweep retries, gives up and expires. Starting the protocol
//! mirrors its live routes into the kernel table, and stopping it withdraws
//! them again. None of this depends on the protocol's messages, so one
//! implementation serves both protocols and DYMO's variants, the reuse §6.3
//! claims for further protocols:
//!
//! * [`RouteDiscoveryHandler`] starts a discovery on `NO_ROUTE`;
//! * [`RouteLifetimeHandler`] extends a route's lifetime on `ROUTE_UPDATE`;
//! * [`SweepHandler`] runs the sweep and the start and stop hooks;
//! * [`RouteErrorHandler`] handles route breakage: link losses, failed
//!   unicasts, forwarding failures and incoming route errors, written and
//!   read by one codec, [`RouteError`].
//!
//! A protocol plugs in through three traits. Its route entries implement
//! [`ReactiveRoute`]. Its route table implements [`ReactiveTable`]: the
//! table itself, the pending discoveries, the parameters, the sweep timer,
//! and the protocol's own RREQ, route adoption, state codec, RERR format,
//! forwarding-failure rule and RERR reporting. Its S element implements
//! [`ReactiveState`] by naming the table it embeds: every table is its own
//! S element, and a variant's replacement S element embeds one and may
//! repair a broken route before it is reported. The protocol crate keeps
//! its RREQ and RREP messages and the handlers that parse them.

use std::any::Any;
use std::collections::BTreeMap;
use std::marker::PhantomData;

use netsim::{SimDuration, SimTime};
use packetbb::registry::tlv_type;
use packetbb::{Address, AddressBlock, AddressTlv, Message, MessageBuilder, Tlv};

use crate::carry::{CarriedRoute, RouteCarrier, RouteCarry};
use crate::event::{types, Event, EventType, Payload, RouteCtl};
use crate::neighbour::{hello_registration, neighbour_detection_cf, NeighbourConfig, SeenFloods};
use crate::node::{DeployError, Deployment};
use crate::protocol::{
    proto_start_event, proto_stop_event, EventHandler, ManetProtocolCf, ProtoCtx, StateSlot,
};
use crate::registry::EventTuple;
use crate::system::SystemConfig;

/// Wraparound-aware sequence comparison (RFC 3626 §19, RFC 3561 §6.1): is
/// `a` newer than `b`? DYMO, AODV and OLSR all compare with it.
#[inline]
#[must_use]
pub fn seq_newer(a: u16, b: u16) -> bool {
    a != b && a.wrapping_sub(b) < 0x8000
}

/// An in-progress route discovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingDiscovery {
    /// RREQ attempts so far.
    pub attempts: u8,
    /// When to retry (or give up).
    pub next_retry: SimTime,
}

/// The parameters of a protocol on the reactive core: DYMO's whole set,
/// and all of AODV's but one. Both use the same defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReactiveParams {
    /// The lifetime a route gets when learned or used. A broken route
    /// lingers as long again, so route errors can quote its sequence
    /// number.
    pub route_lifetime: SimDuration,
    /// First RREQ retry delay (doubles per attempt).
    pub rreq_wait: SimDuration,
    /// Maximum RREQ attempts before giving up.
    pub rreq_tries: u8,
    /// Hop budget on the protocol's floods and replies.
    pub hop_limit: u8,
    /// Housekeeping sweep period.
    pub sweep: SimDuration,
}

impl Default for ReactiveParams {
    fn default() -> Self {
        ReactiveParams {
            route_lifetime: SimDuration::from_secs(5),
            rreq_wait: SimDuration::from_millis(1_000),
            rreq_tries: 3,
            hop_limit: 10,
            sweep: SimDuration::from_millis(250),
        }
    }
}

/// Seen RREQ floods, for duplicate suppression, each held 10 s.
pub type SeenRreqs = SeenFloods<10>;

/// A route table entry as the shared handlers read it.
pub trait ReactiveRoute {
    /// Next hop toward the destination.
    fn next_hop(&self) -> Address;
    /// Hop count.
    fn hop_count(&self) -> u8;
    /// The destination's sequence number, when known.
    fn seq(&self) -> Option<u16>;
    /// When the route lapses unless refreshed.
    fn expiry(&self) -> SimTime;
    /// Moves the expiry.
    fn set_expiry(&mut self, expiry: SimTime);
    /// Whether a link break invalidated the route.
    fn is_broken(&self) -> bool;
    /// Marks the route broken and returns the sequence number its route
    /// error reports: `listed` when an incoming RERR named it, else the
    /// protocol's own rule for a break found here.
    fn mark_broken(&mut self, listed: Option<u16>) -> u16;
}

/// A reactive protocol's route table: what the shared handlers need of it,
/// and the route-table upkeep both protocols share (the provided methods).
/// It is `Sync` because forks of a world share a node's state until one of
/// them writes it.
pub trait ReactiveTable: Any + Send + Sync + Clone {
    /// The protocol's route entry.
    type Route: ReactiveRoute;

    /// The routes, by destination (mirrored into the kernel table).
    fn routes(&self) -> &BTreeMap<Address, Self::Route>;
    /// The routes, mutably.
    fn routes_mut(&mut self) -> &mut BTreeMap<Address, Self::Route>;
    /// Discoveries awaiting a reply, by destination.
    fn pending_mut(&mut self) -> &mut BTreeMap<Address, PendingDiscovery>;
    /// The seen-RREQ cache.
    fn seen_mut(&mut self) -> &mut SeenRreqs;
    /// Our own sequence number.
    fn own_seq(&self) -> u16;
    /// Our own sequence number, mutably.
    fn own_seq_mut(&mut self) -> &mut u16;
    /// The protocol's parameters.
    fn reactive_params(&self) -> ReactiveParams;
    /// The protocol's sweep timer.
    fn sweep_timer() -> EventType;
    /// Floods one RREQ for `dst` (a first try or a retry) and remembers it
    /// as seen, so its echoes are squashed.
    fn send_rreq(&mut self, dst: Address, ctx: &mut ProtoCtx<'_>);
    /// Takes over a predecessor's routes and sequence number.
    fn adopt_carry(&mut self, carry: &RouteCarry, now: SimTime);
    /// Deterministic bytes of what a reconfiguration must preserve: the
    /// sequence number, every route and the pending discoveries. Compared,
    /// never decoded.
    fn encode(&self) -> Vec<u8>;
    /// How the protocol's route errors look on the wire.
    const RERR_FORMAT: RerrFormat;
    /// A transit datagram to `dst` could not be forwarded: breaks the route
    /// and returns what to report, if anything.
    fn forward_failed(&mut self, dst: Address) -> Option<(Address, u16)>;
    /// Tells whoever must know that `unreachable` (destination, seq) broke
    /// here, with `hop_limit` when the protocol floods its route errors;
    /// nothing when the list is empty.
    fn report(&mut self, unreachable: Vec<(Address, u16)>, hop_limit: u8, ctx: &mut ProtoCtx<'_>);

    /// Bumps and returns our sequence number.
    fn next_seq(&mut self) -> u16 {
        let seq = self.own_seq_mut();
        *seq = seq.wrapping_add(1);
        *seq
    }

    /// The live (unbroken, unexpired) route to `dst`.
    fn live_route(&self, dst: Address, now: SimTime) -> Option<&Self::Route> {
        self.routes()
            .get(&dst)
            .filter(|r| !r.is_broken() && r.expiry() > now)
    }

    /// Extends the lifetime of the route to `dst` (traffic refresh).
    fn refresh_route(&mut self, dst: Address, now: SimTime) {
        let lifetime = self.reactive_params().route_lifetime;
        if let Some(r) = self.routes_mut().get_mut(&dst) {
            if !r.is_broken() {
                r.set_expiry(now + lifetime);
            }
        }
    }

    /// Housekeeping: expires routes and seen floods; returns the
    /// destinations whose routes lapsed (to clean the kernel table).
    fn expire(&mut self, now: SimTime) -> Vec<Address> {
        let hold = self.reactive_params().route_lifetime;
        let mut lapsed = Vec::new();
        self.routes_mut().retain(|dst, r| {
            let keep = r.expiry() > now || (r.is_broken() && r.expiry() + hold > now);
            if !keep {
                lapsed.push(*dst);
            }
            keep
        });
        self.seen_mut().expire(now);
        lapsed
    }

    /// Breaks every unbroken route through `via`; returns each broken
    /// destination with the sequence number its route error reports.
    fn break_routes_via(&mut self, via: Address) -> Vec<(Address, u16)> {
        let routes = self.routes_mut().iter_mut();
        let through = routes.filter(|(_, r)| r.next_hop() == via && !r.is_broken());
        let broken = through.map(|(dst, r)| (*dst, r.mark_broken(None)));
        broken.collect()
    }

    /// Breaks the routes of an incoming RERR's `listed` destinations that
    /// go through its sender `from`; returns them with the listed sequence
    /// numbers.
    fn break_listed(&mut self, from: Address, listed: &[(Address, u16)]) -> Vec<(Address, u16)> {
        let routes = self.routes_mut();
        let mut broken = Vec::new();
        for &(dst, seq) in listed {
            if let Some(r) = routes.get_mut(&dst) {
                if r.next_hop() == from && !r.is_broken() {
                    broken.push((dst, r.mark_broken(Some(seq))));
                }
            }
        }
        broken
    }

    /// Sends a RERR for `unreachable` under a fresh sequence number of
    /// ours: unicast to `dst`, or to every neighbour when `None`.
    fn send_rerr(
        &mut self,
        unreachable: Vec<(Address, u16)>,
        hop_limit: u8,
        dst: Option<Address>,
        ctx: &mut ProtoCtx<'_>,
    ) {
        let seq = self.next_seq();
        let rerr = RouteError {
            reporter: ctx.local_addr(),
            unreachable,
            hop_limit,
        };
        ctx.os().bump("rerr_sent");
        let msg = rerr.to_message(Self::RERR_FORMAT, seq);
        let mut event = Event::message_out(types::rerr_out(), msg);
        event.meta.dst = dst;
        ctx.emit(event);
    }

    /// The live routes and our sequence number in protocol-neutral form
    /// (what a successor protocol takes over on a switch).
    fn export_carry(&self, now: SimTime) -> RouteCarry {
        let routes = self
            .routes()
            .iter()
            .filter(|(_, r)| !r.is_broken() && r.expiry() > now)
            .map(|(dst, r)| CarriedRoute {
                dst: *dst,
                next_hop: r.next_hop(),
                hop_count: r.hop_count(),
                seq: r.seq(),
                expiry: r.expiry(),
            })
            .collect();
        RouteCarry {
            own_seq: self.own_seq(),
            routes,
        }
    }
}

/// A reactive protocol's S element: the route table it embeds, and how a
/// variant's S element changes what a link break does.
pub trait ReactiveState: Any + Send + Sync + Clone {
    /// The embedded table.
    type Table: ReactiveTable;
    /// The plug-in name of the [`RouteErrorHandler`] reading this S element.
    const RERR_HANDLER: &'static str = "rerr-handler";
    /// The embedded table.
    fn table(&self) -> &Self::Table;
    /// The embedded table, mutably.
    fn table_mut(&mut self) -> &mut Self::Table;

    /// The link to neighbour `via` broke: breaks the routes through it and
    /// returns them as [`ReactiveTable::break_routes_via`] does.
    fn break_via(&mut self, via: Address) -> Vec<(Address, u16)> {
        self.table_mut().break_routes_via(via)
    }

    /// Repairs the `broken` route (destination, seq), whose kernel route
    /// is already withdrawn, so that it need not be reported. Nothing is
    /// repaired by default.
    fn repair(&mut self, _broken: (Address, u16), _ctx: &mut ProtoCtx<'_>) -> bool {
        false
    }
}

impl<T: ReactiveTable> ReactiveState for T {
    type Table = T;
    fn table(&self) -> &T {
        self
    }
    fn table_mut(&mut self) -> &mut T {
        self
    }
}

/// An S element holding `state`, with the codec and route carrier that
/// read an `S`: every reactive S element, standard or a variant's, is
/// built here, so its codec and carrier always match its type.
#[must_use]
pub fn state_slot<S: ReactiveState>(state: S) -> StateSlot {
    StateSlot::new(state)
        .with_codec(|slot| {
            slot.try_get::<S>()
                .map(|s| s.table().encode())
                .unwrap_or_default()
        })
        .with_carrier(RouteCarrier {
            export: |slot, now| slot.get::<S>().table().export_carry(now),
            adopt: |slot, carry, now| slot.get_mut::<S>().table_mut().adopt_carry(carry, now),
        })
}

/// The event tuple of a reactive routing CF: route and error messages in
/// and out, the packet-filter events, link breaks, and `ROUTE_FOUND`.
#[must_use]
pub fn reactive_tuple() -> EventTuple {
    EventTuple::new()
        .requires(types::re_in())
        .requires(types::rerr_in())
        .requires(types::no_route())
        .requires(types::route_update())
        .requires(types::send_route_err())
        .requires(types::tx_failed())
        .requires(types::nhood_change())
        .provides(types::re_out())
        .provides(types::rerr_out())
        .provides(types::route_found())
}

/// The System CF configuration of a reactive stack: its routing protocol's
/// `protocol` configuration, plus the HELLO registration of the Neighbour
/// Detection CF the stack senses links with.
#[must_use]
pub fn stack_system_config(mut protocol: SystemConfig) -> SystemConfig {
    protocol.registrations.push(hello_registration());
    protocol
}

/// Installs a reactive stack into a deployment (offline): the System
/// configuration of [`stack_system_config`], the Neighbour Detection CF
/// and the routing CF `cf` builds, in that order. Each CF is built just
/// before it is added, so a process interns event types in deployment
/// order.
///
/// # Errors
///
/// Propagates integrity violations (e.g. another reactive protocol is
/// already deployed).
pub fn deploy_stack(
    dep: &mut Deployment,
    protocol: SystemConfig,
    neighbour: NeighbourConfig,
    cf: impl FnOnce() -> ManetProtocolCf,
) -> Result<(), DeployError> {
    dep.system_mut().load(&stack_system_config(protocol));
    dep.add_protocol_offline(neighbour_detection_cf(neighbour))?;
    dep.add_protocol_offline(cf())
}

/// Installs (or refreshes) a host route in the kernel table.
#[inline]
pub fn install_kernel(ctx: &mut ProtoCtx<'_>, dst: Address, next_hop: Address, hops: u8) {
    ctx.os()
        .route_table_mut()
        .add_host_route(dst, next_hop, u32::from(hops));
}

/// Removes a host route from the kernel table.
#[inline]
pub fn remove_kernel(ctx: &mut ProtoCtx<'_>, dst: Address) {
    ctx.os().route_table_mut().remove_host_route(dst);
}

/// Emits `ROUTE_FOUND` for `dst`: the System CF re-injects the datagrams
/// buffered toward it.
#[inline]
pub fn emit_route_found(ctx: &mut ProtoCtx<'_>, dst: Address) {
    ctx.emit(Event {
        ty: types::route_found(),
        payload: Payload::RouteCtl(RouteCtl::RouteFound { dst }),
        meta: Default::default(),
    });
}

/// How a protocol's route errors differ on the wire: DYMO's carry an
/// `UNREACHABLE` flag per address, AODV's do not, and each has its own
/// message type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RerrFormat {
    /// The PacketBB message type.
    pub msg_type: u8,
    /// Whether each address carries the `UNREACHABLE` flag TLV.
    pub unreachable_flag: bool,
}

/// A route error: the destinations a break made unreachable, each with the
/// sequence number the error reports for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteError {
    /// The node reporting the breakage.
    pub reporter: Address,
    /// `(destination, seq)` pairs now unreachable via the reporter.
    pub unreachable: Vec<(Address, u16)>,
    /// Remaining hop budget.
    pub hop_limit: u8,
}

impl RouteError {
    /// Serializes into a PacketBB message in `format`, under our sequence
    /// number `seq`.
    ///
    /// # Panics
    ///
    /// Panics when `unreachable` is empty (an empty RERR is meaningless).
    #[must_use]
    pub fn to_message(&self, format: RerrFormat, seq: u16) -> Message {
        assert!(!self.unreachable.is_empty(), "RERR needs destinations");
        let addrs: Vec<Address> = self.unreachable.iter().map(|(a, _)| *a).collect();
        let mut block = AddressBlock::new(addrs).expect("non-empty");
        for (i, (_, s)) in self.unreachable.iter().enumerate() {
            let seq_tlv = Tlv::with_value(tlv_type::ADDR_SEQ_NUM, s.to_be_bytes());
            block.add_tlv(AddressTlv::single(seq_tlv, i as u8));
            if format.unreachable_flag {
                let flag = Tlv::flag(tlv_type::UNREACHABLE);
                block.add_tlv(AddressTlv::single(flag, i as u8));
            }
        }
        MessageBuilder::new(format.msg_type)
            .originator(self.reporter)
            .hop_limit(self.hop_limit)
            .seq_num(seq)
            .push_address_block(block)
            .build()
    }

    /// Parses a route error of type `msg_type`, or `None` for any other
    /// message.
    #[must_use]
    pub fn from_message(msg: &Message, msg_type: u8) -> Option<RouteError> {
        if msg.msg_type() != msg_type {
            return None;
        }
        let reporter = msg.originator()?;
        let mut unreachable = Vec::new();
        for block in msg.address_blocks() {
            for (i, addr) in block.addresses().iter().enumerate() {
                unreachable.push((*addr, addr_seq(block.tlvs_at(i))));
            }
        }
        (!unreachable.is_empty()).then_some(RouteError {
            reporter,
            unreachable,
            hop_limit: msg.hop_limit().unwrap_or(1),
        })
    }
}

/// The sequence number among one address's `tlvs`, 0 when it has none.
#[must_use]
pub fn addr_seq<'a>(tlvs: impl IntoIterator<Item = &'a AddressTlv>) -> u16 {
    tlvs.into_iter()
        .find(|t| t.tlv().tlv_type() == tlv_type::ADDR_SEQ_NUM)
        .and_then(|t| t.tlv().value_u16())
        .unwrap_or(0)
}

/// The hop limit of a route error a node raises itself; one it relays
/// spends one hop of the budget it arrived with.
const RERR_HOP_LIMIT: u8 = 2;

/// Declares a stateless handler generic over the S element it reads.
macro_rules! generic_handler {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        pub struct $name<S: ReactiveState>(PhantomData<fn(S)>);

        impl<S: ReactiveState> Default for $name<S> {
            fn default() -> Self {
                $name(PhantomData)
            }
        }
    };
}

generic_handler! {
    /// Starts route discovery on `NO_ROUTE` netfilter traps.
    RouteDiscoveryHandler
}

impl<S: ReactiveState> EventHandler for RouteDiscoveryHandler<S> {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(Self::default()))
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
        let s = state.get_mut::<S>().table_mut();
        if let Some(route) = s.live_route(dst, now) {
            // Lost race: the route exists; re-install and release buffers.
            let (next_hop, hops) = (route.next_hop(), route.hop_count());
            install_kernel(ctx, dst, next_hop, hops);
            emit_route_found(ctx, dst);
            return;
        }
        let rreq_wait = s.reactive_params().rreq_wait;
        let pending = s.pending_mut();
        if pending.contains_key(&dst) {
            return; // discovery already under way; the packet sits buffered
        }
        let discovery = PendingDiscovery {
            attempts: 1,
            next_retry: now + rreq_wait,
        };
        pending.insert(dst, discovery);
        ctx.os().bump("route_discovery");
        s.send_rreq(dst, ctx);
    }
}

generic_handler! {
    /// Extends route lifetimes when traffic uses them (`ROUTE_UPDATE`).
    RouteLifetimeHandler
}

impl<S: ReactiveState> EventHandler for RouteLifetimeHandler<S> {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(Self::default()))
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
        let s = state.get_mut::<S>().table_mut();
        s.refresh_route(*dst, now);
        s.refresh_route(*next_hop, now);
        ctx.os().bump("route_refreshed");
    }
}

generic_handler! {
    /// Housekeeping sweep: RREQ retries with binary exponential backoff,
    /// give-ups, route expiry and kernel-table cleanup; also the start and
    /// stop hooks, which mirror the S element's live routes into the kernel
    /// table and withdraw them again without touching S.
    SweepHandler
}

impl<S: ReactiveState> EventHandler for SweepHandler<S> {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(Self::default()))
    }

    fn name(&self) -> &str {
        "sweep-handler"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![
            S::Table::sweep_timer(),
            proto_start_event(),
            proto_stop_event(),
        ]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let now = ctx.now();
        let s = state.get_mut::<S>().table_mut();
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
            for dst in s.routes().keys() {
                remove_kernel(ctx, *dst);
            }
            for dst in s.pending_mut().keys() {
                ctx.os().drop_buffered(*dst);
            }
            return;
        }

        // RREQ retries / give-ups.
        let params = s.reactive_params();
        let due: Vec<Address> = s
            .pending_mut()
            .iter()
            .filter(|(_, p)| p.next_retry <= now)
            .map(|(d, _)| *d)
            .collect();
        for dst in due {
            let pending = s.pending_mut();
            let p = pending.get_mut(&dst).expect("just listed");
            if p.attempts >= params.rreq_tries {
                pending.remove(&dst);
                ctx.os().bump("route_discovery_failed");
                ctx.os().drop_buffered(dst);
            } else {
                let backoff = params.rreq_wait.mul_f64(f64::from(1 << p.attempts));
                p.attempts += 1;
                p.next_retry = now + backoff;
                ctx.os().bump("rreq_retry");
                s.send_rreq(dst, ctx);
            }
        }

        // Route expiry.
        for dst in s.expire(now) {
            remove_kernel(ctx, dst);
            ctx.os().bump("route_expired");
        }
        ctx.set_timer(params.sweep, S::Table::sweep_timer());
    }
}

generic_handler! {
    /// Handles route breakage: a lost neighbour (`NHOOD_CHANGE`), a failed
    /// unicast (`TX_FAILED`), a failed forward (`SEND_ROUTE_ERR`) and an
    /// incoming RERR (`RERR_IN`). Each breaks routes through the S
    /// element's hooks, withdraws them from the kernel table, lets the S
    /// element repair what it can and reports the rest.
    RouteErrorHandler
}

impl<S: ReactiveState> EventHandler for RouteErrorHandler<S> {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(Self::default()))
    }

    fn name(&self) -> &str {
        S::RERR_HANDLER
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
        let s = state.get_mut::<S>();
        if event.ty == types::rerr_in() {
            let (Some(msg), Some(from)) = (event.message(), event.meta.from) else {
                return;
            };
            let Some(rerr) = RouteError::from_message(msg, S::Table::RERR_FORMAT.msg_type) else {
                return;
            };
            let broken = s.table_mut().break_listed(from, &rerr.unreachable);
            ctx.os().bump("rerr_processed");
            recover(s, broken, rerr.hop_limit.saturating_sub(1), ctx);
            return;
        }
        match &event.payload {
            Payload::RouteCtl(RouteCtl::ForwardFailure { dst, .. }) => {
                let broken = s.table_mut().forward_failed(*dst).into_iter().collect();
                recover(s, broken, RERR_HOP_LIMIT, ctx);
            }
            Payload::RouteCtl(RouteCtl::TxFailed { neighbour }) => {
                let broken = s.break_via(*neighbour);
                recover(s, broken, RERR_HOP_LIMIT, ctx);
            }
            Payload::Neighbourhood(nh) => {
                for lost in &nh.lost {
                    let broken = s.break_via(*lost);
                    recover(s, broken, RERR_HOP_LIMIT, ctx);
                }
            }
            _ => {}
        }
    }
}

/// Withdraws the `broken` routes from the kernel table, lets `s` repair
/// what it can and reports the rest with `hop_limit`.
fn recover<S: ReactiveState>(
    s: &mut S,
    mut broken: Vec<(Address, u16)>,
    hop_limit: u8,
    ctx: &mut ProtoCtx<'_>,
) {
    for (dst, _) in &broken {
        remove_kernel(ctx, *dst);
    }
    broken.retain(|&b| !s.repair(b, ctx));
    s.table_mut().report(broken, hop_limit, ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use packetbb::registry::msg_type;

    fn addr(n: u8) -> Address {
        Address::v4([10, 0, 0, n])
    }

    #[test]
    fn rerr_round_trips_in_either_format() {
        for (msg_type, unreachable_flag) in [(msg_type::RERR, true), (msg_type::AODV_RERR, false)] {
            let format = RerrFormat {
                msg_type,
                unreachable_flag,
            };
            let rerr = RouteError {
                reporter: addr(3),
                unreachable: vec![(addr(9), 4), (addr(8), 0)],
                hop_limit: 2,
            };
            let wire = packetbb::Packet::single(rerr.to_message(format, 77)).encode_to_vec();
            let back = packetbb::Packet::decode(&wire).unwrap();
            let msg = &back.messages()[0];
            assert_eq!(msg.seq_num(), Some(77));
            assert_eq!(RouteError::from_message(msg, msg_type), Some(rerr));
            let flags = msg.address_blocks()[0].tlvs().iter();
            let flags = flags.filter(|t| t.tlv().tlv_type() == tlv_type::UNREACHABLE);
            assert_eq!(flags.count(), if unreachable_flag { 2 } else { 0 });
        }
    }

    #[test]
    fn rerr_rejects_other_message_types() {
        let hello = MessageBuilder::new(msg_type::HELLO).build();
        assert!(RouteError::from_message(&hello, msg_type::RERR).is_none());
        let format = RerrFormat {
            msg_type: msg_type::RERR,
            unreachable_flag: true,
        };
        let rerr = RouteError {
            reporter: addr(3),
            unreachable: vec![(addr(9), 4)],
            hop_limit: 1,
        };
        let dymo = rerr.to_message(format, 1);
        assert!(RouteError::from_message(&dymo, msg_type::AODV_RERR).is_none());
    }

    #[test]
    fn seq_comparison_wraps() {
        assert!(seq_newer(2, 1));
        assert!(!seq_newer(1, 2));
        assert!(!seq_newer(5, 5));
        assert!(seq_newer(0, u16::MAX));
        assert!(!seq_newer(u16::MAX, 0));
        assert!(seq_newer(10, 0xFFF0));
    }
}
