//! The polymorphic event ontology connecting CFS units.
//!
//! All communication between protocol CFs (and the System CF below them)
//! travels as [`Event`]s — packets in flight, context information, topology
//! notifications and route-control signals. The set of event *types* is
//! open-ended: protocols declare the types they require and provide in their
//! [`EventTuple`](crate::registry::EventTuple)s and the Framework Manager
//! wires them together by name.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use netsim::{Interner, NameTable};
use packetbb::{Address, Message};

thread_local! {
    static LOCAL_TYPES: RefCell<NameTable> = RefCell::default();
}
/// Event type names and their dense ids, process-wide. A routing
/// deployment uses a few dozen names, each leaked once.
static TYPES: Interner = Interner::new(&LOCAL_TYPES);

/// An interned event type name, e.g. `"TC_OUT"`.
///
/// The value is a dense `u32` id into a process-wide intern table, so it is
/// `Copy`, equality is a single integer compare and hashing is O(1) —
/// independent of the name length. Two `EventType`s are equal iff their names
/// are equal; [`EventType::named`] returns the *same* id for the same name
/// every time. Ordering ([`Ord`]) compares by name, not id, so sort order is
/// stable regardless of interning order.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventType(u32);

impl EventType {
    /// Interns `name` and returns its event type.
    ///
    /// The first call for a given name allocates an entry in the global
    /// intern table; every subsequent call returns the identical id with
    /// **no further allocation**, from the calling thread's own copy of
    /// the table (no lock unless the table has grown since the thread last
    /// looked). Hot paths should still cache the returned value (it is
    /// `Copy`) rather than re-interning per event.
    #[must_use]
    pub fn named(name: &str) -> Self {
        EventType(TYPES.id(name))
    }

    /// The type name, read from the calling thread's copy of the intern
    /// table.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        TYPES.name(self.0)
    }

    /// The dense intern id. Ids start at 0 and are assigned in interning
    /// order, so they index directly into per-type tables sized by
    /// [`EventType::intern_count`]. Ids are stable for the process lifetime
    /// but **not** across runs — persist names, not ids.
    #[must_use]
    pub fn id(&self) -> u32 {
        self.0
    }

    /// Number of distinct event types interned so far. Any id returned by
    /// [`EventType::id`] is `< intern_count()` at the time of the call.
    #[must_use]
    pub fn intern_count() -> usize {
        TYPES.count()
    }
}

impl PartialOrd for EventType {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventType {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Debug for EventType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EventType({})", self.as_str())
    }
}

impl fmt::Display for EventType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for EventType {
    fn from(s: &str) -> Self {
        EventType::named(s)
    }
}

/// Defines functions returning cached interned [`EventType`]s for fixed
/// names: the first call interns the name, every later call is a single
/// atomic load — no lock, no lookup, no allocation. The `types` module and
/// the protocol crates' timer constants are built from this.
///
/// ```
/// manetkit::cached_event_type! {
///     /// My protocol's sweep timer.
///     pub fn sweep_timer => "myproto:sweep";
/// }
/// assert_eq!(sweep_timer(), manetkit::EventType::named("myproto:sweep"));
/// ```
#[macro_export]
macro_rules! cached_event_type {
    ($($(#[$attr:meta])* $vis:vis fn $name:ident => $ty_name:expr;)+) => {
        $(
            $(#[$attr])*
            #[must_use]
            $vis fn $name() -> $crate::event::EventType {
                static CACHE: ::std::sync::OnceLock<$crate::event::EventType> =
                    ::std::sync::OnceLock::new();
                *CACHE.get_or_init(|| $crate::event::EventType::named($ty_name))
            }
        )+
    };
}

/// Well-known event types used by the protocols in this workspace.
///
/// Deployments are free to define further types; these constants only fix
/// the names the bundled protocols agree on.
pub mod types {
    use super::EventType;
    use std::sync::OnceLock;

    macro_rules! event_types {
        ($($(#[$doc:meta])* $fn_name:ident => $name:literal;)*) => {
            $(
                $(#[$doc])*
                #[must_use]
                pub fn $fn_name() -> EventType {
                    static CACHE: OnceLock<EventType> = OnceLock::new();
                    *CACHE.get_or_init(|| EventType::named($name))
                }
            )*
        };
    }

    event_types! {
        /// Outgoing HELLO message (link sensing).
        hello_out => "HELLO_OUT";
        /// Incoming HELLO message.
        hello_in => "HELLO_IN";
        /// Outgoing OLSR Topology Change message.
        tc_out => "TC_OUT";
        /// Incoming OLSR Topology Change message.
        tc_in => "TC_IN";
        /// Outgoing DYMO routing element (RREQ/RREP).
        re_out => "RE_OUT";
        /// Incoming DYMO routing element.
        re_in => "RE_IN";
        /// Outgoing DYMO route error.
        rerr_out => "RERR_OUT";
        /// Incoming DYMO route error.
        rerr_in => "RERR_IN";
        /// Outgoing residual-power dissemination (power-aware OLSR).
        power_msg_out => "POWER_MSG_OUT";
        /// Incoming residual-power dissemination.
        power_msg_in => "POWER_MSG_IN";
        /// The local neighbourhood changed (neighbours gained/lost).
        nhood_change => "NHOOD_CHANGE";
        /// The multipoint-relay selection changed.
        mpr_change => "MPR_CHANGE";
        /// Battery level context report.
        power_status => "POWER_STATUS";
        /// A locally originated packet has no route (netfilter trap).
        no_route => "NO_ROUTE";
        /// A route carried traffic (lifetime refresh trigger).
        route_update => "ROUTE_UPDATE";
        /// Forwarding failed for a transit packet (RERR trigger).
        send_route_err => "SEND_ROUTE_ERR";
        /// A route discovery concluded; buffered packets may be re-injected.
        route_found => "ROUTE_FOUND";
        /// Link-layer unicast transmission failure.
        tx_failed => "TX_FAILED";
    }
}

/// A context sensor reading carried by context events.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ContextValue {
    /// Remaining battery fraction in `[0, 1]`.
    Battery(f64),
    /// Estimated quality of the link to a neighbour in `[0, 1]`.
    LinkQuality(Address, f64),
    /// Observed packet loss rate in `[0, 1]`.
    PacketLoss(f64),
    /// Protocol-specific scalar (name, value).
    Custom(&'static str, f64),
}

/// Payload of a neighbourhood-change event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NeighbourhoodChange {
    /// Symmetric neighbours at the time of the event.
    pub sym_neighbours: Vec<Address>,
    /// Two-hop reachability: `(neighbour, two_hop_node)` pairs.
    pub two_hop: Vec<(Address, Address)>,
    /// Neighbours newly confirmed symmetric.
    pub added: Vec<Address>,
    /// Neighbours lost since the previous event.
    pub lost: Vec<Address>,
}

/// Payload of an MPR-change event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MprChange {
    /// Neighbours this node selected as relays.
    pub mprs: Vec<Address>,
    /// Neighbours that selected this node as a relay.
    pub selectors: Vec<Address>,
}

/// Payload of route-control events (the netlink surface).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteCtl {
    /// No route for a locally originated packet to `dst`.
    NoRoute {
        /// Unrouted destination.
        dst: Address,
    },
    /// The route to `dst` via `next_hop` carried traffic.
    RouteUsed {
        /// Destination.
        dst: Address,
        /// Next hop used.
        next_hop: Address,
    },
    /// Forwarding a transit packet from `src` to `dst` failed.
    ForwardFailure {
        /// Destination.
        dst: Address,
        /// Original source (where route errors should head).
        src: Address,
        /// Unreachable next hop.
        next_hop: Address,
    },
    /// A route to `dst` is now installed; re-inject buffered packets.
    RouteFound {
        /// Destination that became routable.
        dst: Address,
    },
    /// Unicast to `neighbour` was not acknowledged.
    TxFailed {
        /// The unresponsive neighbour.
        neighbour: Address,
    },
}

/// Event payloads.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Payload {
    /// A protocol message (PacketBB) travelling up or down the stack.
    Message(Arc<Message>),
    /// A context sensor reading.
    Context(ContextValue),
    /// A neighbourhood change notification.
    Neighbourhood(Arc<NeighbourhoodChange>),
    /// An MPR selection change notification.
    Mpr(Arc<MprChange>),
    /// A route-control signal.
    RouteCtl(RouteCtl),
    /// No payload (pure signal / timer events).
    None,
}

/// Delivery metadata attached to an event.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventMeta {
    /// For `*_IN` events: the neighbour the frame came from.
    pub from: Option<Address>,
    /// For `*_OUT` events: unicast target (`None` = link-local broadcast).
    pub dst: Option<Address>,
    /// Name of the unit that emitted the event, stamped when the event is
    /// routed (`None` for events injected from outside any unit). Interned,
    /// so stamping costs no allocation.
    pub origin: Option<&'static str>,
}

/// A unit of communication between CFS units.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The event type (routing key).
    pub ty: EventType,
    /// The payload.
    pub payload: Payload,
    /// Delivery metadata.
    pub meta: EventMeta,
}

impl Event {
    /// A payload-less signal event.
    #[must_use]
    pub fn signal(ty: EventType) -> Self {
        Event {
            ty,
            payload: Payload::None,
            meta: EventMeta::default(),
        }
    }

    /// An outgoing message event (broadcast unless `dst` is set later).
    #[must_use]
    pub fn message_out(ty: EventType, msg: Message) -> Self {
        Event {
            ty,
            payload: Payload::Message(Arc::new(msg)),
            meta: EventMeta::default(),
        }
    }

    /// An incoming message event from `from`.
    #[must_use]
    pub fn message_in(ty: EventType, msg: Arc<Message>, from: Address) -> Self {
        Event {
            ty,
            payload: Payload::Message(msg),
            meta: EventMeta {
                from: Some(from),
                ..EventMeta::default()
            },
        }
    }

    /// Sets the unicast destination, returning `self`.
    #[must_use]
    pub fn to(mut self, dst: Address) -> Self {
        self.meta.dst = Some(dst);
        self
    }

    /// The message payload, if this is a message event.
    #[must_use]
    pub fn message(&self) -> Option<&Arc<Message>> {
        match &self.payload {
            Payload::Message(m) => Some(m),
            _ => None,
        }
    }

    /// The route-control payload, if any.
    #[must_use]
    pub fn route_ctl(&self) -> Option<&RouteCtl> {
        match &self.payload {
            Payload::RouteCtl(r) => Some(r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packetbb::MessageBuilder;

    #[test]
    fn event_type_identity() {
        assert_eq!(types::tc_out(), EventType::named("TC_OUT"));
        assert_ne!(types::tc_out(), types::tc_in());
        assert_eq!(types::tc_out().to_string(), "TC_OUT");
        let from_str: EventType = "X".into();
        assert_eq!(from_str.as_str(), "X");
    }

    #[test]
    fn named_interns_once() {
        let a = EventType::named("TC_OUT");
        let before = EventType::intern_count();
        let b = EventType::named("TC_OUT");
        // Same id — equality is identity, not a string compare.
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b);
        // No new table entry and the backing name is the very same
        // allocation: the second call allocated nothing.
        assert_eq!(EventType::intern_count(), before);
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        // A genuinely new name does grow the table (by exactly one).
        let c = EventType::named("__INTERN_TEST_FRESH");
        assert_eq!(EventType::intern_count(), before + 1);
        assert_ne!(c, a);
        assert!((c.id() as usize) < EventType::intern_count());
    }

    #[test]
    fn threads_agree_on_ids_and_names() {
        let names: Vec<String> = (0..48).map(|i| format!("__THREADED_{i}")).collect();
        let start = std::sync::Barrier::new(4);
        let seen: Vec<Vec<(u32, &'static str)>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let (names, start) = (&names, &start);
                    s.spawn(move || {
                        // All four start together and each interns in its
                        // own order, so ids are handed out while the others
                        // are reading.
                        start.wait();
                        let mut order: Vec<usize> = (0..names.len()).collect();
                        order.rotate_left(t * 12);
                        if t % 2 == 1 {
                            order.reverse();
                        }
                        let mut got = vec![(0, ""); names.len()];
                        for i in order {
                            let ty = EventType::named(&names[i]);
                            got[i] = (ty.id(), ty.as_str());
                        }
                        // Again, now from the thread's own copy.
                        for (i, name) in names.iter().enumerate() {
                            let ty = EventType::named(name);
                            assert_eq!((ty.id(), ty.as_str()), got[i]);
                            assert_eq!(ty.as_str(), name);
                        }
                        got
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker"))
                .collect()
        });
        for got in &seen[1..] {
            assert_eq!(got, &seen[0], "every thread got the same ids and names");
        }
        let ids: std::collections::HashSet<u32> = seen[0].iter().map(|&(id, _)| id).collect();
        assert_eq!(ids.len(), names.len(), "distinct names, distinct ids");
        // A type interned on one thread reads back, and orders, on another.
        let fresh = EventType::named("__THREADED_LATE");
        let (name, before) =
            std::thread::spawn(move || (fresh.as_str(), fresh < EventType::named("__THREADED_0")))
                .join()
                .expect("reader");
        assert_eq!((name, before), ("__THREADED_LATE", false));
    }

    #[test]
    fn ordering_is_by_name() {
        // Intern in reverse lexicographic order; Ord must still follow names.
        let z = EventType::named("__ORD_Z");
        let a = EventType::named("__ORD_A");
        assert!(a < z);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }

    #[test]
    fn constructors_fill_meta() {
        let msg = MessageBuilder::new(1).build();
        let out = Event::message_out(types::tc_out(), msg.clone()).to(Address::v4([10, 0, 0, 2]));
        assert_eq!(out.meta.dst, Some(Address::v4([10, 0, 0, 2])));
        assert!(out.message().is_some());

        let incoming = Event::message_in(types::tc_in(), Arc::new(msg), Address::v4([10, 0, 0, 3]));
        assert_eq!(incoming.meta.from, Some(Address::v4([10, 0, 0, 3])));

        let sig = Event::signal(types::nhood_change());
        assert_eq!(sig.payload, Payload::None);
        assert!(sig.message().is_none());
        assert!(sig.route_ctl().is_none());
    }
}
