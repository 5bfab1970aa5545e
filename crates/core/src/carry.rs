//! The neutral S-element view two routing protocols exchange on a switch.
//!
//! A `SwitchProtocol` between CFs whose state types differ (DYMO ↔ AODV)
//! cannot move the [`StateSlot`]; instead the retiring CF *exports* its
//! live routes as a [`RouteCarry`] and the arriving CF *adopts* them into
//! its own representation. The retiring CF's state is left untouched, so
//! the undo log can reinstate it exactly.

use netsim::SimTime;
use packetbb::Address;

use crate::protocol::StateSlot;

/// One live route, stripped of everything protocol-specific.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarriedRoute {
    /// Destination.
    pub dst: Address,
    /// Next hop toward it.
    pub next_hop: Address,
    /// Hop count.
    pub hop_count: u8,
    /// Destination sequence number, when the exporter knows one.
    pub seq: Option<u16>,
    /// When the route lapses unless refreshed. Adopters may shorten it to
    /// their own lifetime; they never extend it.
    pub expiry: SimTime,
}

/// What a routing protocol hands its successor: its own sequence number
/// (verbatim — restarting it would make every peer discard the successor's
/// replies as stale) and its live, unbroken routes sorted by destination.
/// Duplicate caches, flood ids and pending discoveries stay behind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteCarry {
    /// The exporter's own sequence number.
    pub own_seq: u16,
    /// Live routes, ascending by `dst`.
    pub routes: Vec<CarriedRoute>,
}

/// How a protocol CF converts its S element to and from a [`RouteCarry`].
/// Plain function pointers: the conversions are stateless and generic
/// helpers (`export::<S>`) coerce to them.
#[derive(Clone, Copy)]
pub struct RouteCarrier {
    /// Reads the routes live at the given time out of the state.
    pub export: fn(&StateSlot, SimTime) -> RouteCarry,
    /// Installs carried routes into the state.
    pub adopt: fn(&mut StateSlot, &RouteCarry, SimTime),
}
