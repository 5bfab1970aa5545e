//! The [`RoutingAgent`] trait: how a routing protocol deployment lives on a
//! simulated node.

use std::any::Any;

use packetbb::Address;

use crate::os::NodeOs;
use crate::packet::DataPacket;

/// Events raised by the simulated netfilter hook and link layer toward the
/// routing agent — the analogues of the paper's `NO_ROUTE`, `ROUTE_UPDATE`
/// and `SEND_ROUTE_ERR` NetLink events plus link-layer feedback.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FilterEvent {
    /// A locally originated (or to-be-forwarded) packet found no route; the
    /// packet was parked in the netfilter buffer pending
    /// [`NodeOs::reinject`].
    NoRoute {
        /// The unrouted destination.
        dst: Address,
    },
    /// A data packet was forwarded using the route to `dst` — reactive
    /// protocols refresh route lifetimes on this.
    RouteUsed {
        /// Destination whose route carried traffic.
        dst: Address,
        /// Next hop that was used.
        next_hop: Address,
    },
    /// Forwarding failed at this node (next hop unreachable) for a packet
    /// that did not originate here — reactive protocols answer with a
    /// route-error message toward the source.
    ForwardFailure {
        /// The packet's destination.
        dst: Address,
        /// The packet's original source (where a RERR should head).
        src: Address,
        /// The next hop that could not be reached.
        next_hop: Address,
    },
    /// Link-layer feedback: a unicast transmission to a neighbour was not
    /// acknowledged (only raised when the world enables link feedback).
    TxFailed {
        /// The neighbour that did not acknowledge.
        neighbour: Address,
    },
}

/// A context sensor reading pushed to the agent (the System CF's context
/// event analogue).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ContextSample {
    /// Remaining battery as a fraction in `[0, 1]`.
    Battery(f64),
}

/// A routing protocol deployment attached to one node.
///
/// All callbacks receive the node's simulated OS handle; outgoing actions
/// (frames, timers, route-table changes, packet re-injection) go through it.
/// Callbacks run atomically with respect to one another — the world never
/// re-enters an agent.
///
/// Agents are `'static` ([`Any`]), so the world can hand one back as its
/// concrete type ([`World::agent`](crate::World::agent)), and `Sync`, so
/// forks of a world on different threads can share one until it is first
/// written ([`World::fork`](crate::World::fork)).
pub trait RoutingAgent: Any + Send + Sync {
    /// Short protocol name for statistics and logs.
    fn name(&self) -> &str;

    /// Called once when the agent is installed and the world starts (or
    /// immediately, when installed into a running world).
    fn start(&mut self, os: &mut NodeOs);

    /// A control frame arrived on the protocol's socket.
    fn on_frame(&mut self, os: &mut NodeOs, from: Address, bytes: &[u8]);

    /// A timer set through [`NodeOs::set_timer`] fired.
    fn on_timer(&mut self, os: &mut NodeOs, token: u64);

    /// The netfilter hook or link layer raised an event.
    fn on_filter_event(&mut self, os: &mut NodeOs, event: FilterEvent);

    /// A context sensor produced a sample.
    fn on_context(&mut self, _os: &mut NodeOs, _sample: ContextSample) {}

    /// A data packet is about to leave or transit this node. Returning
    /// `false` drops it. The default passes everything.
    ///
    /// This is the Netfilter `FORWARD`/`OUTPUT` chain analogue; protocols
    /// normally leave it alone and react to [`FilterEvent`]s instead.
    fn inspect_packet(&mut self, _os: &mut NodeOs, _packet: &DataPacket) -> bool {
        true
    }

    /// Called when the agent is removed or the world shuts down.
    fn stop(&mut self, _os: &mut NodeOs) {}

    /// The node crashed (fault injection): the agent is being suspended
    /// without a clean shutdown — no further callbacks run until a reboot
    /// restarts it via [`start`](Self::start) (or replaces it via a
    /// reboot factory). Implementations must not queue actions here; any
    /// queued action is discarded, exactly as a real crash would lose
    /// in-flight work. The default does nothing.
    fn on_crash(&mut self, _os: &mut NodeOs) {}

    /// An independent copy of this agent, in exactly its current state, for
    /// [`World::fork`](crate::World::fork): the copy must share nothing
    /// mutable with the original, so driving one never shows in the other.
    /// `None` (the default) when the agent cannot be copied, which makes the
    /// world unforkable.
    ///
    /// Forks of a world share an agent until one of them first writes it;
    /// that world then calls this on the shared agent for a copy of its own.
    /// A world's first fork after a write calls it too, to learn whether the
    /// agent forks at all, and keeps that copy for the first world to write
    /// the shared agent.
    fn fork(&self) -> Option<Box<dyn RoutingAgent>> {
        None
    }

    /// Whether something outside the world can change this agent between
    /// callbacks, such as a control handle into its inbox. Forks of the
    /// world then never share the agent: each gets its own copy at once, so
    /// the outside writer reaches only the world it was taken from. The
    /// default is `false`.
    fn has_outside_writer(&self) -> bool {
        false
    }
}
