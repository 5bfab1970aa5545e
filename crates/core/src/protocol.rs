//! ManetProtocol CFs: the Control–Forward–State pattern.
//!
//! A protocol is a composition of fine-grained plug-ins (§4.2, fine-grained
//! level):
//!
//! * **C** — [`EventHandler`]s (process events, may emit more) and
//!   [`EventSource`]s (emit events periodically, timer-driven), the demux
//!   and the event registry;
//! * **F** — an optional [`Forwarder`] encapsulating the forwarding
//!   strategy (e.g. MPR flooding);
//! * **S** — a [`StateSlot`] holding the protocol state as a replaceable,
//!   transferable unit.
//!
//! C and S can be recomposed at runtime — handlers and sources plugged in
//! or out, the S element derived into a new representation — by a
//! [`Recompose`](crate::node::ReconfigOp::Recompose) op: that is how the
//! paper derives power-aware OLSR and gossip, optimised-flooding and
//! multipath DYMO from the base protocols. Handlers run atomically: the
//! deployment never re-enters a protocol CF.

use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use netsim::{NodeOs, SimDuration, SimTime};
use packetbb::{Address, Message, Packet};

use crate::carry::RouteCarrier;
use crate::event::{Event, EventType};
use crate::registry::EventTuple;
use crate::telemetry::intern_name;

/// The S element: protocol state as a reified, transferable unit, with the
/// codec and route carrier that read its concrete type.
///
/// Handlers downcast to their concrete state type with [`StateSlot::get`].
/// When a protocol (or one of its elements) is replaced, the slot can be
/// carried over wholesale or derived into a new representation (a
/// [`Recompose`](crate::node::ReconfigOp::Recompose) with a `state`
/// derivation) — the paper's state-transfer story. A derived slot brings
/// its own codec and carrier, so they always match the state they read.
/// A clone copies the state (a forked node's S element).
pub struct StateSlot {
    state: Box<dyn Any + Send + Sync>,
    codec: Option<StateCodec>,
    carrier: Option<RouteCarrier>,
    /// Clones `state`, whose concrete type only [`StateSlot::new`] knew.
    clone_state: fn(&(dyn Any + Send + Sync)) -> Box<dyn Any + Send + Sync>,
}

impl StateSlot {
    /// Wraps a concrete state value (no codec, no carrier).
    #[must_use]
    pub fn new<T: Any + Send + Sync + Clone>(state: T) -> Self {
        StateSlot {
            state: Box::new(state),
            codec: None,
            carrier: None,
            clone_state: |state| {
                let state: &T = (state as &dyn Any)
                    .downcast_ref()
                    .expect("a slot keeps the type it was built with");
                Box::new(state.clone())
            },
        }
    }

    /// An empty slot (unit state).
    #[must_use]
    pub fn empty() -> Self {
        StateSlot::new(())
    }

    /// Attaches a state codec: deterministic bytes of the state, so
    /// transactional checkpoints can prove rollback exactness (see
    /// [`ManetProtocolCf::export_state`]).
    #[must_use]
    pub fn with_codec(mut self, codec: StateCodec) -> Self {
        self.codec = Some(codec);
        self
    }

    /// Attaches a route carrier: how the state converts to and from the
    /// neutral [`RouteCarry`](crate::carry::RouteCarry), so a
    /// `SwitchProtocol` to or from a protocol with a different state type
    /// carries the live routes across.
    #[must_use]
    pub fn with_carrier(mut self, carrier: RouteCarrier) -> Self {
        self.carrier = Some(carrier);
        self
    }

    /// Borrows the state as `T`.
    ///
    /// # Panics
    ///
    /// Panics when the slot holds a different type — that is a wiring bug
    /// (a handler composed with the wrong S element), not a runtime
    /// condition.
    #[must_use]
    pub fn get<T: Any>(&self) -> &T {
        self.state
            .downcast_ref::<T>()
            .expect("protocol state slot holds a different type")
    }

    /// Mutably borrows the state as `T`.
    ///
    /// # Panics
    ///
    /// Panics when the slot holds a different type.
    #[must_use]
    pub fn get_mut<T: Any>(&mut self) -> &mut T {
        self.state
            .downcast_mut::<T>()
            .expect("protocol state slot holds a different type")
    }

    /// Attempts to borrow the state as `T`.
    #[must_use]
    pub fn try_get<T: Any>(&self) -> Option<&T> {
        self.state.downcast_ref::<T>()
    }
}

impl Clone for StateSlot {
    fn clone(&self) -> Self {
        StateSlot {
            state: (self.clone_state)(&*self.state),
            ..*self
        }
    }
}

impl fmt::Debug for StateSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateSlot").finish_non_exhaustive()
    }
}

/// Per-delivery context handed to protocol plug-ins.
///
/// Gives access to the node's simulated OS (route table, clock, counters)
/// and collects the plug-in's outputs: emitted events, direct sends and
/// timer requests, applied by the deployment after the plug-in returns.
pub struct ProtoCtx<'a> {
    os: &'a mut NodeOs,
    protocol: &'a str,
    pub(crate) emitted: Vec<Event>,
    pub(crate) sends: Vec<(Option<Address>, Message)>,
    pub(crate) timer_sets: Vec<(SimDuration, EventType)>,
    pub(crate) timer_cancels: Vec<EventType>,
}

impl<'a> ProtoCtx<'a> {
    /// Creates a context for one delivery. Normally only the deployment
    /// calls this; exposed for protocol unit tests.
    #[must_use]
    pub fn new(os: &'a mut NodeOs, protocol: &'a str) -> Self {
        ProtoCtx {
            os,
            protocol,
            emitted: Vec::new(),
            sends: Vec::new(),
            timer_sets: Vec::new(),
            timer_cancels: Vec::new(),
        }
    }

    /// The node's simulated OS.
    #[must_use]
    pub fn os(&mut self) -> &mut NodeOs {
        self.os
    }

    /// This node's address.
    #[must_use]
    pub fn local_addr(&self) -> Address {
        self.os.addr()
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> netsim::SimTime {
        self.os.now()
    }

    /// The name of the protocol this context belongs to.
    #[must_use]
    pub fn protocol(&self) -> &str {
        self.protocol
    }

    /// Emits an event into the framework (routed by the Framework Manager
    /// after this plug-in returns; the origin is stamped automatically).
    pub fn emit(&mut self, event: Event) {
        self.emitted.push(event);
    }

    /// Sends a message directly on the wire (the System CF's `IForward`
    /// direct-call path): broadcast when `dst` is `None`.
    pub fn send_message(&mut self, msg: Message, dst: Option<Address>) {
        self.sends.push((dst, msg));
    }

    /// Arms (or re-arms) this protocol's named timer; when it fires the
    /// protocol receives `Event::signal(ty)` locally (not routed to other
    /// protocols).
    pub fn set_timer(&mut self, delay: SimDuration, ty: EventType) {
        self.timer_sets.push((delay, ty));
    }

    /// Cancels this protocol's named timer.
    pub fn cancel_timer(&mut self, ty: EventType) {
        self.timer_cancels.push(ty);
    }

    /// Drains the collected outputs (deployment internals and tests).
    #[must_use]
    pub fn take_outputs(&mut self) -> CtxOutputs {
        CtxOutputs {
            emitted: std::mem::take(&mut self.emitted),
            sends: std::mem::take(&mut self.sends),
            timer_sets: std::mem::take(&mut self.timer_sets),
            timer_cancels: std::mem::take(&mut self.timer_cancels),
        }
    }
}

/// Outputs collected by a [`ProtoCtx`] during one delivery.
#[derive(Debug, Default)]
pub struct CtxOutputs {
    /// Events to route.
    pub emitted: Vec<Event>,
    /// Direct wire sends `(dst, message)`.
    pub sends: Vec<(Option<Address>, Message)>,
    /// Timer arm requests `(delay, type)`.
    pub timer_sets: Vec<(SimDuration, EventType)>,
    /// Timer cancellations.
    pub timer_cancels: Vec<EventType>,
}

/// A C-element plug-in: processes events, may emit further events.
pub trait EventHandler: Send + Sync {
    /// Plug-in name (unique within its protocol; used for replacement).
    fn name(&self) -> &str;

    /// Event types this handler wants delivered.
    fn subscriptions(&self) -> Vec<EventType>;

    /// Processes one event. Runs atomically per protocol.
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>);

    /// An independent copy in exactly this plug-in's state (a forked
    /// node's), or `None` (the default) when it cannot be copied.
    ///
    /// The answer must be the same for the plug-in's whole life, and a
    /// copy must answer as its original: a CF checks once that its
    /// plug-ins fork and from then on shares them between its copies,
    /// copying them only when one copy writes.
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        None
    }
}

/// A C-element plug-in that emits events periodically (timer-driven).
pub trait EventSource: Send + Sync {
    /// Plug-in name (unique within its protocol).
    fn name(&self) -> &str;

    /// Firing period.
    fn period(&self) -> SimDuration;

    /// Produces this round's events.
    fn fire(&mut self, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>);

    /// An independent copy (see [`EventHandler::fork`], whose answer is
    /// fixed for the plug-in's life); `None` by default.
    fn fork(&self) -> Option<Box<dyn EventSource>> {
        None
    }
}

/// The F element: a forwarding strategy over the protocol's topology.
pub trait Forwarder: Send + Sync {
    /// Plug-in name.
    fn name(&self) -> &str;

    /// Event types whose messages this forwarder transmits/relays.
    fn subscriptions(&self) -> Vec<EventType>;

    /// Transmits or relays the event's message.
    fn forward(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>);

    /// An independent copy (see [`EventHandler::fork`], whose answer is
    /// fixed for the plug-in's life); `None` by default.
    fn fork(&self) -> Option<Box<dyn Forwarder>> {
        None
    }
}

struct SourceSlot {
    source: Box<dyn EventSource>,
    timer: EventType,
}

impl SourceSlot {
    fn new(source: Box<dyn EventSource>) -> Self {
        let timer = EventType::named(&format!("__src:{}", source.name()));
        SourceSlot { source, timer }
    }

    fn fork(&self) -> Option<Self> {
        Some(SourceSlot {
            source: self.source.fork()?,
            timer: self.timer,
        })
    }
}

/// A handler plus its subscription set, sampled when the handler is
/// installed so the delivery hot path never re-asks (each
/// [`EventHandler::subscriptions`] call allocates a fresh `Vec`).
struct HandlerSlot {
    handler: Box<dyn EventHandler>,
    subs: Vec<EventType>,
}

impl HandlerSlot {
    fn new(handler: Box<dyn EventHandler>) -> Self {
        let subs = handler.subscriptions();
        HandlerSlot { handler, subs }
    }

    fn fork(&self) -> Option<Self> {
        Some(HandlerSlot {
            handler: self.handler.fork()?,
            subs: self.subs.clone(),
        })
    }
}

/// A C-element plug-in, as a
/// [`Recompose`](crate::node::ReconfigOp::Recompose) plugs it.
pub enum Plugin {
    /// An event handler.
    Handler(Box<dyn EventHandler>),
    /// A periodic event source (its timer arms when the protocol restarts).
    Source(Box<dyn EventSource>),
}

impl Plugin {
    /// An independent copy, or `None` when the plug-in cannot fork.
    #[must_use]
    pub fn fork(&self) -> Option<Plugin> {
        Some(match self {
            Plugin::Handler(h) => Plugin::Handler(h.fork()?),
            Plugin::Source(s) => Plugin::Source(s.fork()?),
        })
    }
}

/// One change a recompose made to a plug-in list.
enum Edit<T> {
    /// A plug-in was appended.
    Appended,
    /// The plug-in at this index was replaced; this is what it held.
    Replaced(usize, T),
    /// The plug-in at this index was removed.
    Removed(usize, T),
}

/// What a [`ManetProtocolCf::recompose`] displaced: its plug-in edits in
/// order, with what they replaced or removed, and the S element it
/// replaced. Putting these back is the recompose's exact undo.
pub(crate) struct Displaced {
    handlers: Vec<Edit<HandlerSlot>>,
    sources: Vec<Edit<SourceSlot>>,
    state: Option<StateSlot>,
}

impl<T> Edit<T> {
    fn fork(&self, fork: impl Fn(&T) -> Option<T>) -> Option<Self> {
        Some(match self {
            Edit::Appended => Edit::Appended,
            Edit::Replaced(i, old) => Edit::Replaced(*i, fork(old)?),
            Edit::Removed(i, old) => Edit::Removed(*i, fork(old)?),
        })
    }
}

impl Displaced {
    /// An independent copy, or `None` when a displaced plug-in cannot fork.
    pub(crate) fn fork(&self) -> Option<Displaced> {
        Some(Displaced {
            handlers: fork_all(&self.handlers, |e| e.fork(HandlerSlot::fork))?,
            sources: fork_all(&self.sources, |e| e.fork(SourceSlot::fork))?,
            state: self.state.clone(),
        })
    }
}

/// Forks every item, or gives `None` when one cannot fork.
pub(crate) fn fork_all<T, U>(items: &[T], fork: impl Fn(&T) -> Option<U>) -> Option<Vec<U>> {
    items.iter().map(fork).collect()
}

/// Reads the plug-in name of a handler or source slot.
type Key<T> = fn(&T) -> &str;

/// Removes the plug-in named `name` from `list`, if there is one.
fn unplug_from<T>(list: &mut Vec<T>, name: &str, key: Key<T>, edits: &mut Vec<Edit<T>>) {
    if let Some(i) = list.iter().position(|s| key(s) == name) {
        edits.push(Edit::Removed(i, list.remove(i)));
    }
}

/// Puts `slot` in place of the same-named one in `list`, or appends it.
fn plug_into<T>(list: &mut Vec<T>, slot: T, key: Key<T>, edits: &mut Vec<Edit<T>>) {
    match list.iter().position(|s| key(s) == key(&slot)) {
        Some(i) => edits.push(Edit::Replaced(i, std::mem::replace(&mut list[i], slot))),
        None => {
            list.push(slot);
            edits.push(Edit::Appended);
        }
    }
}

/// Undoes `edits` on `list`, latest first.
fn undo_edits<T>(list: &mut Vec<T>, edits: Vec<Edit<T>>) {
    for edit in edits.into_iter().rev() {
        match edit {
            Edit::Appended => {
                list.pop();
            }
            Edit::Replaced(i, old) => list[i] = old,
            Edit::Removed(i, old) => list.insert(i, old),
        }
    }
}

/// A ManetProtocol CF: a named, tuple-declared composition of handlers,
/// sources, an optional forwarder and a state slot.
///
/// Built with [`ManetProtocolCf::builder`]; hosted by a
/// [`Deployment`](crate::node::Deployment).
///
/// A CF is a value shared copy-on-write: its name plus an `Arc`'d body.
/// [`fork`](Self::fork) shares the body once the body is known to fork,
/// and every write copies the body first while another CF shares it. So
/// a forked node, a queued `Prepare` and an undo log share every protocol
/// none of them writes.
pub struct ManetProtocolCf {
    /// Interned once when built, so a copy, a log line or a delivery
    /// context shares it.
    name: &'static str,
    body: Arc<CfBody>,
}

/// Everything of a CF but its name, behind the CF's `Arc`.
struct CfBody {
    tuple: EventTuple,
    handlers: Vec<HandlerSlot>,
    sources: Vec<SourceSlot>,
    forwarder: Option<Box<dyn Forwarder>>,
    /// Cached `forwarder.subscriptions()` (same rationale as
    /// [`HandlerSlot::subs`]).
    forwarder_subs: Vec<EventType>,
    state: StateSlot,
    /// Named timers armed when the protocol starts (e.g. expiry sweeps).
    startup_timers: Vec<(SimDuration, EventType)>,
    /// Message kinds this protocol treats as *reactive* route discovery —
    /// used by deployment-level integrity rules ("at most one reactive
    /// protocol").
    reactive: bool,
    /// Whether these plug-ins are known to fork: set by the first fork
    /// (which copies them to find out) and on every copy, cleared when the
    /// plug-in set changes. Only a body known to fork is ever shared.
    forks: AtomicBool,
}

impl CfBody {
    /// A deep copy — every plug-in through its `fork`, the S element
    /// cloned — known to fork, since its plug-ins answer as the ones they
    /// were forked from. `None` when a plug-in cannot fork.
    fn fork(&self) -> Option<CfBody> {
        Some(CfBody {
            tuple: self.tuple.clone(),
            handlers: fork_all(&self.handlers, HandlerSlot::fork)?,
            sources: fork_all(&self.sources, SourceSlot::fork)?,
            forwarder: match &self.forwarder {
                Some(f) => Some(f.fork()?),
                None => None,
            },
            forwarder_subs: self.forwarder_subs.clone(),
            state: self.state.clone(),
            startup_timers: self.startup_timers.clone(),
            reactive: self.reactive,
            forks: AtomicBool::new(true),
        })
    }

    /// Marks a change to the plug-in set: the next fork copies the body
    /// again to learn whether it still forks.
    fn plugins_changed(&mut self) {
        *self.forks.get_mut() = false;
    }

    /// Delivers an event to the matching handlers and the forwarder.
    fn deliver(&mut self, event: &Event, ctx: &mut ProtoCtx<'_>) {
        for h in &mut self.handlers {
            if h.subs.contains(&event.ty) {
                h.handler.handle(event, &mut self.state, ctx);
            }
        }
        if let Some(f) = &mut self.forwarder {
            if self.forwarder_subs.contains(&event.ty) {
                f.forward(event, &mut self.state, ctx);
            }
        }
    }
}

impl Clone for CfBody {
    /// The copy a write makes of a shared body, which forked when it was
    /// first shared.
    fn clone(&self) -> Self {
        self.fork()
            .expect("a shared CF body forked when it was shared")
    }
}

impl ManetProtocolCf {
    /// Starts building a protocol CF.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> ManetProtocolBuilder {
        ManetProtocolBuilder {
            cf: ManetProtocolCf {
                name: intern_name(&name.into()),
                body: Arc::new(CfBody {
                    tuple: EventTuple::new(),
                    handlers: Vec::new(),
                    sources: Vec::new(),
                    forwarder: None,
                    forwarder_subs: Vec::new(),
                    state: StateSlot::empty(),
                    startup_timers: Vec::new(),
                    reactive: false,
                    forks: AtomicBool::new(false),
                }),
            },
        }
    }

    /// The one way to write the body: copies it first when another CF
    /// shares it.
    fn body_mut(&mut self) -> &mut CfBody {
        Arc::make_mut(&mut self.body)
    }

    /// The protocol's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The protocol's current event tuple.
    #[must_use]
    pub fn tuple(&self) -> &EventTuple {
        &self.body.tuple
    }

    /// Replaces the event tuple and returns the old one. A deployed CF is
    /// re-declared through [`ReconfigOp::UpdateTuple`](crate::node::ReconfigOp),
    /// which rewires its deployment.
    pub fn set_tuple(&mut self, tuple: EventTuple) -> EventTuple {
        std::mem::replace(&mut self.body_mut().tuple, tuple)
    }

    /// Whether this protocol is reactive (route discovery on demand).
    #[must_use]
    pub fn is_reactive(&self) -> bool {
        self.body.reactive
    }

    /// Names of all plug-ins (handlers, sources, forwarder).
    #[must_use]
    pub fn plugin_names(&self) -> Vec<String> {
        self.plugins().map(str::to_string).collect()
    }

    /// An independent copy in exactly this CF's state, or `None` when a
    /// plug-in cannot fork. The first fork of a body copies every plug-in
    /// through its `fork` and clones the S element, which shows that the
    /// body forks; later forks share the body until one of them writes
    /// it. A fork that returned `Some` never fails a later write.
    #[must_use]
    pub fn fork(&self) -> Option<ManetProtocolCf> {
        let body = if self.body.forks.load(Ordering::Relaxed) {
            Arc::clone(&self.body)
        } else {
            let copy = Arc::new(self.body.fork()?);
            self.body.forks.store(true, Ordering::Relaxed);
            copy
        };
        Some(ManetProtocolCf {
            name: self.name,
            body,
        })
    }

    /// The plug-in names of [`plugin_names`](Self::plugin_names), borrowed.
    pub(crate) fn plugins(&self) -> impl Iterator<Item = &str> {
        let body = &*self.body;
        let handlers = body.handlers.iter().map(|h| h.handler.name());
        let sources = body.sources.iter().map(|s| s.source.name());
        handlers
            .chain(sources)
            .chain(body.forwarder.as_ref().map(|f| f.name()))
    }

    // ---- lifecycle & delivery (called by the deployment) ------------------

    /// Starts the protocol: arms the source and startup timers and delivers
    /// the [`PROTO_START_EVENT`] signal to the handlers, so a CF that
    /// starts with live routes in its S element — adopted on a switch, or
    /// reinstated by a rollback — mirrors them into the kernel table in the
    /// same quiescent point.
    pub fn start(&mut self, ctx: &mut ProtoCtx<'_>) {
        let body = self.body_mut();
        for slot in &body.sources {
            ctx.set_timer(slot.source.period(), slot.timer);
        }
        for (delay, ty) in &body.startup_timers {
            ctx.set_timer(*delay, *ty);
        }
        body.deliver(&Event::signal(proto_start_event()), ctx);
    }

    /// Stops the protocol: delivers the [`PROTO_STOP_EVENT`] signal to the
    /// handlers and cancels the source timers. The contract for handlers
    /// is *withdraw, do not destroy*: remove the OS state the CF installed
    /// (kernel routes) and leave the S element intact, so the CF can be
    /// reinstated exactly or hand its routes to a successor.
    pub fn stop(&mut self, ctx: &mut ProtoCtx<'_>) {
        let body = self.body_mut();
        body.deliver(&Event::signal(proto_stop_event()), ctx);
        for slot in &body.sources {
            ctx.cancel_timer(slot.timer);
        }
        for (_, ty) in &body.startup_timers {
            ctx.cancel_timer(*ty);
        }
    }

    /// Delivers an event to the matching handlers and the forwarder.
    pub fn deliver(&mut self, event: &Event, ctx: &mut ProtoCtx<'_>) {
        self.body_mut().deliver(event, ctx);
    }

    /// Handles one of this protocol's named timers firing.
    ///
    /// Source timers fire their source and re-arm; any other name is
    /// redelivered to the handlers as a local signal event.
    pub fn on_timer(&mut self, ty: &EventType, ctx: &mut ProtoCtx<'_>) {
        let body = self.body_mut();
        if let Some(slot) = body.sources.iter_mut().find(|s| &s.timer == ty) {
            slot.source.fire(&mut body.state, ctx);
            ctx.set_timer(slot.source.period(), slot.timer);
            return;
        }
        body.deliver(&Event::signal(*ty), ctx);
    }

    // ---- fine-grained reconfiguration -------------------------------------

    /// Recomposes the C and S elements (see
    /// [`ReconfigOp::Recompose`](crate::node::ReconfigOp::Recompose)):
    /// removes the `unplug` plug-ins (an absent name is already unplugged),
    /// plugs `plug` — each replaces the same-named plug-in of its kind in
    /// place, or is appended — and replaces the S element by `state`'s
    /// derivation from it. Returns everything displaced, which
    /// [`restore`](Self::restore) puts back exactly.
    pub(crate) fn recompose(
        &mut self,
        plug: Vec<Plugin>,
        unplug: &[String],
        state: Option<fn(&StateSlot) -> StateSlot>,
    ) -> Displaced {
        let body = self.body_mut();
        body.plugins_changed();
        let (mut handlers, mut sources) = (Vec::new(), Vec::new());
        let handler: Key<HandlerSlot> = |h| h.handler.name();
        let source: Key<SourceSlot> = |s| s.source.name();
        for name in unplug {
            unplug_from(&mut body.handlers, name, handler, &mut handlers);
            unplug_from(&mut body.sources, name, source, &mut sources);
        }
        for plugin in plug {
            match plugin {
                Plugin::Handler(h) => plug_into(
                    &mut body.handlers,
                    HandlerSlot::new(h),
                    handler,
                    &mut handlers,
                ),
                Plugin::Source(s) => {
                    plug_into(&mut body.sources, SourceSlot::new(s), source, &mut sources)
                }
            }
        }
        let state = state.map(|derive| {
            let derived = derive(&body.state);
            std::mem::replace(&mut body.state, derived)
        });
        Displaced {
            handlers,
            sources,
            state,
        }
    }

    /// Undoes a [`recompose`](Self::recompose): its edits in reverse, then
    /// the S element it replaced.
    pub(crate) fn restore(&mut self, displaced: Displaced) {
        let body = self.body_mut();
        body.plugins_changed();
        undo_edits(&mut body.handlers, displaced.handlers);
        undo_edits(&mut body.sources, displaced.sources);
        if let Some(state) = displaced.state {
            body.state = state;
        }
    }

    /// Replaces the S element wholesale, returning the old state.
    pub fn replace_state(&mut self, new: StateSlot) -> StateSlot {
        std::mem::replace(self.state_mut(), new)
    }

    /// Takes the S element out (for carry-over into a replacement
    /// protocol), leaving unit state.
    pub fn take_state(&mut self) -> StateSlot {
        self.replace_state(StateSlot::empty())
    }

    /// Hands this (stopped) protocol's S element to `successor`: the slot
    /// itself when both hold the same state type, else a copy of the live
    /// routes when this CF can export and the successor adopt a
    /// [`RouteCarry`](crate::carry::RouteCarry) — this CF's state is then
    /// left untouched. Returns what happened.
    pub(crate) fn hand_over_state(
        &mut self,
        successor: &mut ManetProtocolCf,
        now: SimTime,
    ) -> Handover {
        let (state, next) = (&self.body.state, &successor.body.state);
        if (*state.state).type_id() == (*next.state).type_id() {
            *successor.state_mut() = self.take_state();
            return Handover::Moved;
        }
        match (state.carrier, next.carrier) {
            (Some(from), Some(to)) => {
                let carry = (from.export)(state, now);
                (to.adopt)(successor.state_mut(), &carry, now);
                Handover::Copied
            }
            _ => Handover::Nothing,
        }
    }

    /// Exports the S element as deterministic bytes through its state
    /// codec, or `None` when it has none. Two exports are
    /// byte-identical exactly when the codec considers the states equal —
    /// the fingerprint the transactional reconfiguration engine compares
    /// across checkpoint/rollback.
    #[must_use]
    pub fn export_state(&self) -> Option<Vec<u8>> {
        let state = &self.body.state;
        state.codec.map(|codec| codec(state))
    }

    /// Read access to the state slot.
    #[must_use]
    pub fn state(&self) -> &StateSlot {
        &self.body.state
    }

    /// Write access to the state slot.
    #[must_use]
    pub fn state_mut(&mut self) -> &mut StateSlot {
        &mut self.body_mut().state
    }
}

impl fmt::Debug for ManetProtocolCf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ManetProtocolCf")
            .field("name", &self.name)
            .field("handlers", &self.body.handlers.len())
            .field("sources", &self.body.sources.len())
            .field("has_forwarder", &self.body.forwarder.is_some())
            .finish()
    }
}

/// What [`ManetProtocolCf::hand_over_state`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Handover {
    /// The state types differ and no carrier pair exists: nothing moved.
    Nothing,
    /// The slot itself moved; undoing the switch must move it back.
    Moved,
    /// Live routes were copied; the retiring CF still owns its state.
    Copied,
}

/// Exports a protocol's S element as deterministic bytes (any stable
/// encoding works — `Debug` text of an ordered structure is fine; the bytes
/// are compared, never decoded).
pub type StateCodec = fn(&StateSlot) -> Vec<u8>;

/// Builder for [`ManetProtocolCf`].
pub struct ManetProtocolBuilder {
    cf: ManetProtocolCf,
}

impl ManetProtocolBuilder {
    /// Declares the protocol's event tuple.
    #[must_use]
    pub fn tuple(mut self, tuple: EventTuple) -> Self {
        self.cf.set_tuple(tuple);
        self
    }

    /// Marks the protocol reactive (route discovery on demand).
    #[must_use]
    pub fn reactive(mut self) -> Self {
        self.cf.body_mut().reactive = true;
        self
    }

    /// Adds a handler.
    ///
    /// # Panics
    ///
    /// Panics on duplicate plug-in names (a composition bug).
    #[must_use]
    pub fn handler(mut self, handler: Box<dyn EventHandler>) -> Self {
        assert!(
            self.cf.plugins().all(|n| n != handler.name()),
            "duplicate plug-in name"
        );
        self.cf.body_mut().handlers.push(HandlerSlot::new(handler));
        self
    }

    /// Adds a periodic source.
    #[must_use]
    pub fn source(mut self, source: Box<dyn EventSource>) -> Self {
        self.cf.body_mut().sources.push(SourceSlot::new(source));
        self
    }

    /// Sets the F element.
    #[must_use]
    pub fn forwarder(mut self, forwarder: Box<dyn Forwarder>) -> Self {
        let body = self.cf.body_mut();
        body.forwarder_subs = forwarder.subscriptions();
        body.forwarder = Some(forwarder);
        self
    }

    /// Sets the S element (with the codec and carrier it brings, see
    /// [`StateSlot::with_codec`] and [`StateSlot::with_carrier`]).
    #[must_use]
    pub fn state(mut self, state: StateSlot) -> Self {
        self.cf.replace_state(state);
        self
    }

    /// Arms a named timer when the protocol starts; on firing, the
    /// protocol's handlers receive `Event::signal(ty)` locally.
    #[must_use]
    pub fn startup_timer(mut self, delay: SimDuration, ty: EventType) -> Self {
        self.cf.body_mut().startup_timers.push((delay, ty));
        self
    }

    /// Finalizes the protocol CF.
    #[must_use]
    pub fn build(self) -> ManetProtocolCf {
        self.cf
    }
}

/// Name of the signal event delivered to a protocol's handlers when the
/// protocol stops (undeploy/switch): handlers that installed kernel routes
/// or other OS state withdraw it on receipt and leave the S element as it
/// is.
pub const PROTO_STOP_EVENT: &str = "__PROTO_STOP";

/// Name of the signal event delivered to a protocol's handlers when the
/// protocol starts (boot, deploy, switch, rollback): handlers mirror the
/// live routes already in the S element into the kernel table.
pub const PROTO_START_EVENT: &str = "__PROTO_START";

crate::cached_event_type! {
    /// The interned [`PROTO_START_EVENT`] type.
    pub fn proto_start_event => PROTO_START_EVENT;
}

crate::cached_event_type! {
    /// The interned [`PROTO_STOP_EVENT`] type.
    pub fn proto_stop_event => PROTO_STOP_EVENT;
}

/// Serializes a message into a single-message PacketBB packet — the
/// encoding every protocol in this workspace sends on the wire.
#[must_use]
pub fn message_to_wire(msg: &Message) -> Vec<u8> {
    Packet::single(msg.clone()).encode_to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::types;
    use netsim::NodeId;

    fn test_os() -> NodeOs {
        NodeOs::standalone(NodeId(0), Address::v4([10, 0, 0, 1]))
    }

    #[derive(Clone, Default)]
    struct CounterState {
        seen: u32,
    }

    struct CountingHandler;
    impl EventHandler for CountingHandler {
        fn name(&self) -> &str {
            "counter"
        }
        fn subscriptions(&self) -> Vec<EventType> {
            vec![types::hello_in()]
        }
        fn handle(&mut self, _ev: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
            state.get_mut::<CounterState>().seen += 1;
            ctx.emit(Event::signal(types::nhood_change()));
        }
    }

    struct TickSource;
    impl EventSource for TickSource {
        fn name(&self) -> &str {
            "tick"
        }
        fn period(&self) -> SimDuration {
            SimDuration::from_secs(2)
        }
        fn fire(&mut self, _state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
            ctx.emit(Event::signal(types::hello_out()));
        }
    }

    fn sample_cf() -> ManetProtocolCf {
        ManetProtocolCf::builder("test")
            .tuple(
                EventTuple::new()
                    .requires(types::hello_in())
                    .provides(types::nhood_change()),
            )
            .state(StateSlot::new(CounterState::default()))
            .handler(Box::new(CountingHandler))
            .source(Box::new(TickSource))
            .build()
    }

    #[test]
    fn state_slot_typed_access() {
        let mut s = StateSlot::new(5u32);
        assert_eq!(*s.get::<u32>(), 5);
        *s.get_mut::<u32>() += 1;
        assert_eq!(s.try_get::<u32>(), Some(&6));
        assert!(s.try_get::<u64>().is_none());
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn state_slot_wrong_type_panics() {
        let s = StateSlot::new(5u32);
        let _ = s.get::<String>();
    }

    #[test]
    fn delivery_routes_to_subscribed_handlers() {
        let mut cf = sample_cf();
        let mut os = test_os();
        let mut ctx = ProtoCtx::new(&mut os, "test");
        let ev = Event::signal(types::hello_in());
        cf.deliver(&ev, &mut ctx);
        assert_eq!(cf.state().get::<CounterState>().seen, 1);
        let out = ctx.take_outputs();
        assert_eq!(out.emitted.len(), 1);
        assert_eq!(out.emitted[0].ty, types::nhood_change());

        // Unsubscribed events do nothing.
        let mut ctx = ProtoCtx::new(&mut os, "test");
        cf.deliver(&Event::signal(types::tc_in()), &mut ctx);
        assert_eq!(cf.state().get::<CounterState>().seen, 1);
        assert!(ctx.take_outputs().emitted.is_empty());
    }

    #[test]
    fn start_arms_source_timers_and_fire_rearms() {
        let mut cf = sample_cf();
        let mut os = test_os();
        let mut ctx = ProtoCtx::new(&mut os, "test");
        cf.start(&mut ctx);
        let out = ctx.take_outputs();
        assert_eq!(out.timer_sets.len(), 1);
        let (delay, ty) = &out.timer_sets[0];
        assert_eq!(*delay, SimDuration::from_secs(2));

        // Fire the source timer: emits HELLO_OUT and re-arms.
        let mut ctx = ProtoCtx::new(&mut os, "test");
        cf.on_timer(ty, &mut ctx);
        let out = ctx.take_outputs();
        assert_eq!(out.emitted[0].ty, types::hello_out());
        assert_eq!(out.timer_sets.len(), 1);
    }

    #[test]
    fn non_source_timer_becomes_local_signal() {
        let mut cf = sample_cf();
        let mut os = test_os();
        let mut ctx = ProtoCtx::new(&mut os, "test");
        // "hello_in" doubles as a timer name here; the signal reaches the
        // subscribed handler.
        cf.on_timer(&types::hello_in(), &mut ctx);
        assert_eq!(cf.state().get::<CounterState>().seen, 1);
    }

    struct Negator;
    impl EventHandler for Negator {
        fn name(&self) -> &str {
            "counter"
        }
        fn subscriptions(&self) -> Vec<EventType> {
            vec![types::hello_in()]
        }
        fn handle(&mut self, _ev: &Event, state: &mut StateSlot, _ctx: &mut ProtoCtx<'_>) {
            state.get_mut::<CounterState>().seen += 100;
        }
    }

    fn hello_in_count(cf: &mut ManetProtocolCf) -> u32 {
        let mut os = test_os();
        let mut ctx = ProtoCtx::new(&mut os, "test");
        cf.deliver(&Event::signal(types::hello_in()), &mut ctx);
        cf.state().get::<CounterState>().seen
    }

    #[test]
    fn recompose_replaces_in_place_and_restores_exactly() {
        let mut cf = sample_cf();
        let plug = vec![Plugin::Handler(Box::new(Negator))];
        let unplug = ["tick".to_string(), "ghost".to_string()];
        let displaced = cf.recompose(plug, &unplug, None);
        assert_eq!(cf.plugin_names(), ["counter"]);
        assert_eq!(hello_in_count(&mut cf), 100);

        cf.restore(displaced);
        assert_eq!(cf.plugin_names(), ["counter", "tick"]);
        assert_eq!(hello_in_count(&mut cf), 101, "the original handler is back");
    }

    #[test]
    fn state_transfer() {
        let mut cf = sample_cf();
        cf.state_mut().get_mut::<CounterState>().seen = 7;
        let derive: fn(&StateSlot) -> StateSlot =
            |slot| StateSlot::new(u64::from(slot.get::<CounterState>().seen) * 2);
        let displaced = cf.recompose(Vec::new(), &[], Some(derive));
        assert_eq!(*cf.state().get::<u64>(), 14);
        cf.restore(displaced);
        assert_eq!(cf.state().get::<CounterState>().seen, 7);

        let carried = cf.take_state();
        assert_eq!(carried.get::<CounterState>().seen, 7);
    }

    #[test]
    fn plugin_inventory() {
        let cf = sample_cf();
        let names = cf.plugin_names();
        assert!(names.contains(&"counter".to_string()));
        assert!(names.contains(&"tick".to_string()));
    }
}
