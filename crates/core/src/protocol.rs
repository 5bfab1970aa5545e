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
//! Each plug-in can be replaced at runtime ([`ManetProtocolCf::replace_handler`],
//! [`ManetProtocolCf::replace_forwarder`], [`ManetProtocolCf::replace_state`])
//! — that is how the paper derives power-aware OLSR, fisheye OLSR and
//! multipath DYMO from the base protocols. Handlers run atomically: the
//! deployment never re-enters a protocol CF.

use std::any::Any;
use std::fmt;

use netsim::{NodeOs, SimDuration, SimTime};
use packetbb::{Address, Message, Packet};

use crate::carry::RouteCarrier;
use crate::event::{Event, EventType};
use crate::registry::EventTuple;

/// The S element: protocol state as a reified, transferable unit.
///
/// Handlers downcast to their concrete state type with [`StateSlot::get`].
/// When a protocol (or one of its elements) is replaced, the slot can be
/// carried over wholesale or mapped into a new representation
/// ([`ManetProtocolCf::map_state`]) — the paper's state-transfer story.
pub struct StateSlot(Box<dyn Any + Send>);

impl StateSlot {
    /// Wraps a concrete state value.
    #[must_use]
    pub fn new<T: Any + Send>(state: T) -> Self {
        StateSlot(Box::new(state))
    }

    /// An empty slot (unit state).
    #[must_use]
    pub fn empty() -> Self {
        StateSlot(Box::new(()))
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
        self.0
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
        self.0
            .downcast_mut::<T>()
            .expect("protocol state slot holds a different type")
    }

    /// Attempts to borrow the state as `T`.
    #[must_use]
    pub fn try_get<T: Any>(&self) -> Option<&T> {
        self.0.downcast_ref::<T>()
    }

    /// Whether both slots hold the same concrete type (so one can stand
    /// in for the other under the same handlers).
    #[must_use]
    pub fn same_type(&self, other: &StateSlot) -> bool {
        (*self.0).type_id() == (*other.0).type_id()
    }

    /// Consumes the slot, recovering the concrete state.
    ///
    /// # Errors
    ///
    /// Returns the slot unchanged when the type does not match.
    pub fn into_inner<T: Any>(self) -> Result<T, StateSlot> {
        match self.0.downcast::<T>() {
            Ok(b) => Ok(*b),
            Err(b) => Err(StateSlot(b)),
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
pub trait EventHandler: Send {
    /// Plug-in name (unique within its protocol; used for replacement).
    fn name(&self) -> &str;

    /// Event types this handler wants delivered.
    fn subscriptions(&self) -> Vec<EventType>;

    /// Processes one event. Runs atomically per protocol.
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>);
}

/// A C-element plug-in that emits events periodically (timer-driven).
pub trait EventSource: Send {
    /// Plug-in name (unique within its protocol).
    fn name(&self) -> &str;

    /// Firing period.
    fn period(&self) -> SimDuration;

    /// Produces this round's events.
    fn fire(&mut self, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>);
}

/// The F element: a forwarding strategy over the protocol's topology.
pub trait Forwarder: Send {
    /// Plug-in name.
    fn name(&self) -> &str;

    /// Event types whose messages this forwarder transmits/relays.
    fn subscriptions(&self) -> Vec<EventType>;

    /// Transmits or relays the event's message.
    fn forward(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>);
}

/// Errors from protocol CF reconfiguration operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// No plug-in with the given name exists.
    NoSuchPlugin(String),
    /// A plug-in with the given name already exists.
    DuplicatePlugin(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::NoSuchPlugin(n) => write!(f, "no plug-in named {n:?}"),
            ProtocolError::DuplicatePlugin(n) => {
                write!(f, "a plug-in named {n:?} already exists")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

struct SourceSlot {
    source: Box<dyn EventSource>,
    timer: EventType,
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
}

/// A ManetProtocol CF: a named, tuple-declared composition of handlers,
/// sources, an optional forwarder and a state slot.
///
/// Built with [`ManetProtocolCf::builder`]; hosted by a
/// [`Deployment`](crate::node::Deployment).
pub struct ManetProtocolCf {
    name: String,
    tuple: EventTuple,
    handlers: Vec<HandlerSlot>,
    sources: Vec<SourceSlot>,
    forwarder: Option<Box<dyn Forwarder>>,
    /// Cached `forwarder.subscriptions()` (same rationale as
    /// [`HandlerSlot::subs`]).
    forwarder_subs: Vec<EventType>,
    state: StateSlot,
    /// Optional state codec: exports the S element to deterministic bytes
    /// so transactional checkpoints can fingerprint it (see
    /// [`export_state`](Self::export_state)).
    state_codec: Option<StateCodec>,
    /// Optional conversion of the S element to and from the neutral
    /// [`RouteCarry`](crate::carry::RouteCarry), used when a switch hands
    /// routes to a protocol with a different state type.
    route_carrier: Option<RouteCarrier>,
    /// Named timers armed when the protocol starts (e.g. expiry sweeps).
    startup_timers: Vec<(SimDuration, EventType)>,
    /// Message kinds this protocol treats as *reactive* route discovery —
    /// used by deployment-level integrity rules ("at most one reactive
    /// protocol").
    reactive: bool,
}

impl ManetProtocolCf {
    /// Starts building a protocol CF.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> ManetProtocolBuilder {
        ManetProtocolBuilder {
            cf: ManetProtocolCf {
                name: name.into(),
                tuple: EventTuple::new(),
                handlers: Vec::new(),
                sources: Vec::new(),
                forwarder: None,
                forwarder_subs: Vec::new(),
                state: StateSlot::empty(),
                state_codec: None,
                route_carrier: None,
                startup_timers: Vec::new(),
                reactive: false,
            },
        }
    }

    /// The protocol's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The protocol's current event tuple.
    #[must_use]
    pub fn tuple(&self) -> &EventTuple {
        &self.tuple
    }

    /// Replaces the event tuple (the deployment rewires on the next safe
    /// point).
    pub fn set_tuple(&mut self, tuple: EventTuple) {
        self.tuple = tuple;
    }

    /// Whether this protocol is reactive (route discovery on demand).
    #[must_use]
    pub fn is_reactive(&self) -> bool {
        self.reactive
    }

    /// Names of all plug-ins (handlers, sources, forwarder).
    #[must_use]
    pub fn plugin_names(&self) -> Vec<String> {
        self.plugins().map(str::to_string).collect()
    }

    /// The plug-in names of [`plugin_names`](Self::plugin_names), borrowed.
    pub(crate) fn plugins(&self) -> impl Iterator<Item = &str> {
        let handlers = self.handlers.iter().map(|h| h.handler.name());
        let sources = self.sources.iter().map(|s| s.source.name());
        handlers
            .chain(sources)
            .chain(self.forwarder.as_ref().map(|f| f.name()))
    }

    // ---- lifecycle & delivery (called by the deployment) ------------------

    /// Starts the protocol: arms the source and startup timers and delivers
    /// the [`PROTO_START_EVENT`] signal to the handlers, so a CF that
    /// starts with live routes in its S element — adopted on a switch, or
    /// reinstated by a rollback — mirrors them into the kernel table in the
    /// same quiescent point.
    pub fn start(&mut self, ctx: &mut ProtoCtx<'_>) {
        for slot in &self.sources {
            ctx.set_timer(slot.source.period(), slot.timer);
        }
        for (delay, ty) in &self.startup_timers {
            ctx.set_timer(*delay, *ty);
        }
        let start = Event::signal(proto_start_event());
        self.deliver(&start, ctx);
    }

    /// Stops the protocol: delivers the [`PROTO_STOP_EVENT`] signal to the
    /// handlers and cancels the source timers. The contract for handlers
    /// is *withdraw, do not destroy*: remove the OS state the CF installed
    /// (kernel routes) and leave the S element intact, so the CF can be
    /// reinstated exactly or hand its routes to a successor.
    pub fn stop(&mut self, ctx: &mut ProtoCtx<'_>) {
        let stop = Event::signal(proto_stop_event());
        self.deliver(&stop, ctx);
        for slot in &self.sources {
            ctx.cancel_timer(slot.timer);
        }
        for (_, ty) in &self.startup_timers {
            ctx.cancel_timer(*ty);
        }
    }

    /// Delivers an event to the matching handlers and the forwarder.
    pub fn deliver(&mut self, event: &Event, ctx: &mut ProtoCtx<'_>) {
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

    /// Handles one of this protocol's named timers firing.
    ///
    /// Source timers fire their source and re-arm; any other name is
    /// redelivered to the handlers as a local signal event.
    pub fn on_timer(&mut self, ty: &EventType, ctx: &mut ProtoCtx<'_>) {
        if let Some(slot) = self.sources.iter_mut().find(|s| &s.timer == ty) {
            slot.source.fire(&mut self.state, ctx);
            ctx.set_timer(slot.source.period(), slot.timer);
            return;
        }
        let ev = Event::signal(*ty);
        self.deliver(&ev, ctx);
    }

    // ---- fine-grained reconfiguration -------------------------------------

    /// Adds a handler. Its subscription set is sampled now — handlers
    /// declare static interests (the tuples are declarative); to change
    /// them, replace the handler.
    ///
    /// # Errors
    ///
    /// Fails when a plug-in with the same name exists.
    pub fn add_handler(&mut self, handler: Box<dyn EventHandler>) -> Result<(), ProtocolError> {
        if self.plugin_names().iter().any(|n| n == handler.name()) {
            return Err(ProtocolError::DuplicatePlugin(handler.name().to_string()));
        }
        self.handlers.push(HandlerSlot::new(handler));
        Ok(())
    }

    /// Removes the handler named `name`, returning it.
    ///
    /// # Errors
    ///
    /// Fails when no handler has that name.
    pub fn remove_handler(&mut self, name: &str) -> Result<Box<dyn EventHandler>, ProtocolError> {
        let idx = self
            .handlers
            .iter()
            .position(|h| h.handler.name() == name)
            .ok_or_else(|| ProtocolError::NoSuchPlugin(name.to_string()))?;
        Ok(self.handlers.remove(idx).handler)
    }

    /// Replaces the handler named `name` in place (same position), returning
    /// the old one.
    ///
    /// # Errors
    ///
    /// Fails when no handler has that name.
    pub fn replace_handler(
        &mut self,
        name: &str,
        new: Box<dyn EventHandler>,
    ) -> Result<Box<dyn EventHandler>, ProtocolError> {
        let idx = self
            .handlers
            .iter()
            .position(|h| h.handler.name() == name)
            .ok_or_else(|| ProtocolError::NoSuchPlugin(name.to_string()))?;
        let old = std::mem::replace(&mut self.handlers[idx], HandlerSlot::new(new));
        Ok(old.handler)
    }

    /// Adds a periodic source (its timer arms when the protocol is next
    /// (re)started — the deployment re-arms timers after `Mutate` ops).
    ///
    /// # Errors
    ///
    /// Fails when a plug-in with the same name exists.
    pub fn add_source(&mut self, source: Box<dyn EventSource>) -> Result<(), ProtocolError> {
        if self.plugin_names().iter().any(|n| n == source.name()) {
            return Err(ProtocolError::DuplicatePlugin(source.name().to_string()));
        }
        let timer = EventType::named(&format!("__src:{}", source.name()));
        self.sources.push(SourceSlot { source, timer });
        Ok(())
    }

    /// Removes the source named `name`, returning it. The deployment
    /// cancels its timer at the next safe point.
    ///
    /// # Errors
    ///
    /// Fails when no source has that name.
    pub fn remove_source(&mut self, name: &str) -> Result<Box<dyn EventSource>, ProtocolError> {
        let idx = self
            .sources
            .iter()
            .position(|s| s.source.name() == name)
            .ok_or_else(|| ProtocolError::NoSuchPlugin(name.to_string()))?;
        Ok(self.sources.remove(idx).source)
    }

    /// Replaces the source named `name` in place, returning the old one.
    ///
    /// # Errors
    ///
    /// Fails when no source has that name.
    pub fn replace_source(
        &mut self,
        name: &str,
        new: Box<dyn EventSource>,
    ) -> Result<Box<dyn EventSource>, ProtocolError> {
        let slot = self
            .sources
            .iter_mut()
            .find(|s| s.source.name() == name)
            .ok_or_else(|| ProtocolError::NoSuchPlugin(name.to_string()))?;
        Ok(std::mem::replace(&mut slot.source, new))
    }

    /// Replaces the F element, returning the old one.
    pub fn replace_forwarder(&mut self, new: Box<dyn Forwarder>) -> Option<Box<dyn Forwarder>> {
        self.forwarder_subs = new.subscriptions();
        self.forwarder.replace(new)
    }

    /// Replaces the S element wholesale, returning the old state.
    pub fn replace_state(&mut self, new: StateSlot) -> StateSlot {
        std::mem::replace(&mut self.state, new)
    }

    /// Maps the current state into a new representation (state transfer
    /// with conversion — e.g. standard route table → multipath route table).
    pub fn map_state(&mut self, f: impl FnOnce(StateSlot) -> StateSlot) {
        let old = std::mem::replace(&mut self.state, StateSlot::empty());
        self.state = f(old);
    }

    /// Takes the S element out (for carry-over into a replacement
    /// protocol), leaving unit state.
    pub fn take_state(&mut self) -> StateSlot {
        std::mem::replace(&mut self.state, StateSlot::empty())
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
        if self.state.same_type(&successor.state) {
            successor.state = self.take_state();
            return Handover::Moved;
        }
        match (self.route_carrier, successor.route_carrier) {
            (Some(from), Some(to)) => {
                let carry = (from.export)(&self.state, now);
                (to.adopt)(&mut successor.state, &carry, now);
                Handover::Copied
            }
            _ => Handover::Nothing,
        }
    }

    /// Installs (or replaces) the route carrier (see
    /// [`ManetProtocolBuilder::route_carrier`]).
    pub fn set_route_carrier(&mut self, carrier: RouteCarrier) {
        self.route_carrier = Some(carrier);
    }

    /// Installs (or replaces) the state codec used by
    /// [`export_state`](Self::export_state).
    pub fn set_state_codec(&mut self, codec: StateCodec) {
        self.state_codec = Some(codec);
    }

    /// Exports the S element as deterministic bytes through the protocol's
    /// state codec, or `None` when no codec is installed. Two exports are
    /// byte-identical exactly when the codec considers the states equal —
    /// the fingerprint the transactional reconfiguration engine compares
    /// across checkpoint/rollback.
    #[must_use]
    pub fn export_state(&self) -> Option<Vec<u8>> {
        self.state_codec.as_ref().map(|codec| codec(&self.state))
    }

    /// Read access to the state slot.
    #[must_use]
    pub fn state(&self) -> &StateSlot {
        &self.state
    }

    /// Write access to the state slot.
    #[must_use]
    pub fn state_mut(&mut self) -> &mut StateSlot {
        &mut self.state
    }
}

impl fmt::Debug for ManetProtocolCf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ManetProtocolCf")
            .field("name", &self.name)
            .field("handlers", &self.handlers.len())
            .field("sources", &self.sources.len())
            .field("has_forwarder", &self.forwarder.is_some())
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
pub type StateCodec = Box<dyn Fn(&StateSlot) -> Vec<u8> + Send>;

/// Builder for [`ManetProtocolCf`].
pub struct ManetProtocolBuilder {
    cf: ManetProtocolCf,
}

impl ManetProtocolBuilder {
    /// Declares the protocol's event tuple.
    #[must_use]
    pub fn tuple(mut self, tuple: EventTuple) -> Self {
        self.cf.tuple = tuple;
        self
    }

    /// Marks the protocol reactive (route discovery on demand).
    #[must_use]
    pub fn reactive(mut self) -> Self {
        self.cf.reactive = true;
        self
    }

    /// Adds a handler.
    ///
    /// # Panics
    ///
    /// Panics on duplicate plug-in names (a composition bug).
    #[must_use]
    pub fn handler(mut self, handler: Box<dyn EventHandler>) -> Self {
        self.cf
            .add_handler(handler)
            .expect("duplicate plug-in name");
        self
    }

    /// Adds a periodic source.
    #[must_use]
    pub fn source(mut self, source: Box<dyn EventSource>) -> Self {
        let timer = EventType::named(&format!("__src:{}", source.name()));
        self.cf.sources.push(SourceSlot { source, timer });
        self
    }

    /// Sets the F element.
    #[must_use]
    pub fn forwarder(mut self, forwarder: Box<dyn Forwarder>) -> Self {
        self.cf.forwarder_subs = forwarder.subscriptions();
        self.cf.forwarder = Some(forwarder);
        self
    }

    /// Sets the S element.
    #[must_use]
    pub fn state(mut self, state: StateSlot) -> Self {
        self.cf.state = state;
        self
    }

    /// Installs a state codec (deterministic byte export of the S element)
    /// used by transactional checkpoints to prove rollback exactness.
    #[must_use]
    pub fn state_codec(mut self, codec: impl Fn(&StateSlot) -> Vec<u8> + Send + 'static) -> Self {
        self.cf.state_codec = Some(Box::new(codec));
        self
    }

    /// Declares how the S element converts to and from the neutral
    /// [`RouteCarry`](crate::carry::RouteCarry), so a `SwitchProtocol`
    /// to or from a protocol with a different state type carries the live
    /// routes across.
    #[must_use]
    pub fn route_carrier(mut self, carrier: RouteCarrier) -> Self {
        self.cf.route_carrier = Some(carrier);
        self
    }

    /// Arms a named timer when the protocol starts; on firing, the
    /// protocol's handlers receive `Event::signal(ty)` locally.
    #[must_use]
    pub fn startup_timer(mut self, delay: SimDuration, ty: EventType) -> Self {
        self.cf.startup_timers.push((delay, ty));
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

    #[derive(Default)]
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
        assert_eq!(s.into_inner::<u32>().unwrap(), 6);
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

    #[test]
    fn handler_replacement_in_place() {
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
        let mut cf = sample_cf();
        cf.replace_handler("counter", Box::new(Negator)).unwrap();
        let mut os = test_os();
        let mut ctx = ProtoCtx::new(&mut os, "test");
        cf.deliver(&Event::signal(types::hello_in()), &mut ctx);
        assert_eq!(cf.state().get::<CounterState>().seen, 100);

        assert!(matches!(
            cf.replace_handler("ghost", Box::new(Negator)),
            Err(ProtocolError::NoSuchPlugin(_))
        ));
    }

    #[test]
    fn duplicate_plugin_rejected() {
        let mut cf = sample_cf();
        let err = cf.add_handler(Box::new(CountingHandler)).unwrap_err();
        assert!(matches!(err, ProtocolError::DuplicatePlugin(_)));
    }

    #[test]
    fn state_transfer() {
        let mut cf = sample_cf();
        cf.state_mut().get_mut::<CounterState>().seen = 7;
        let carried = cf.take_state();
        assert_eq!(carried.get::<CounterState>().seen, 7);

        // Map-based transfer converts representation.
        let mut cf2 = sample_cf();
        cf2.replace_state(carried);
        cf2.map_state(|slot| {
            let old = slot.into_inner::<CounterState>().unwrap();
            StateSlot::new(old.seen as u64 * 2)
        });
        assert_eq!(*cf2.state().get::<u64>(), 14);
    }

    #[test]
    fn plugin_inventory() {
        let cf = sample_cf();
        let names = cf.plugin_names();
        assert!(names.contains(&"counter".to_string()));
        assert!(names.contains(&"tick".to_string()));
    }
}
