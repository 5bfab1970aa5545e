//! Deterministic discrete-event MANET emulator with a simulated OS.
//!
//! The MANETKit paper evaluated on a 5-node 802.11 testbed shaped by
//! MAC-level filtering and the MobiEmu emulator, with protocols using Linux
//! kernel facilities (routing table, Netfilter hooks, packet capture). This
//! crate reproduces that *environment* in simulation:
//!
//! * [`World`] — a discrete-event simulator over virtual [`SimTime`];
//!   deterministic for a given seed.
//! * [`Topology`] — a per-link connectivity matrix (the MAC-filter/MobiEmu
//!   analogue) or a spatial index over node positions, with link
//!   delay/loss models and mobility ([`mobility`]: scheduled link changes,
//!   or a random-waypoint walk the world steps itself).
//! * [`NodeOs`] — each node's simulated OS: kernel route table
//!   ([`KernelRouteTable`]), a netfilter-style hook with packet buffering
//!   and re-injection, timers, context sensors (battery), and send/receive
//!   of control frames.
//! * [`RoutingAgent`] — the trait a routing protocol deployment implements
//!   to live on a node (MANETKit nodes and the monolithic baselines both
//!   implement it).
//! * [`traffic`] — workload generators (CBR flows).
//! * [`fault`] — deterministic fault injection: scheduled node crashes,
//!   reboots, named partitions, battery exhaustion, seeded churn and
//!   frame-level chaos, replayable per plan seed.
//!
//! # Example
//!
//! ```
//! use netsim::{NodeId, SimDuration, Topology, World};
//!
//! // Two nodes in range of each other; no routing agent needed when the
//! // destination is a direct neighbour... but without a route table entry
//! // the packet parks in the netfilter buffer. Static routes fix that:
//! let mut world = World::builder().nodes(2).topology(Topology::full(2)).build();
//! let dst = world.addr(NodeId(1));
//! let a0 = world.addr(NodeId(0));
//! world.os_mut(0.into()).route_table_mut().add_host_route(dst, dst, 1);
//! world.os_mut(1.into()).route_table_mut().add_host_route(a0, a0, 1);
//! world.send_datagram(0.into(), dst, b"ping".to_vec());
//! world.run_for(SimDuration::from_millis(100));
//! assert_eq!(world.stats().data_delivered, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod agent;
mod os;
mod packet;
mod route;
mod stats;
mod time;
mod topology;
mod world;

pub mod fault;
pub mod mobility;
pub mod traffic;

pub use agent::{ContextSample, FilterEvent, RoutingAgent};
pub use fault::{FaultEntry, FaultKind, FaultPlan, FaultPlanBuilder, FrameChaos};
pub use os::{BatteryModel, NodeOs, TimerToken};
pub use packet::{ControlFrame, ControlMessages, DataPacket, Frame, NodeId};
pub use route::{KernelRouteTable, RouteEntry};
pub use simkern::EventHandle;
pub use stats::{StatsWindow, WorldStats};
pub use time::{SimDuration, SimTime};
pub use topology::{GilbertElliott, LinkModel, LinkPhase, LinkState, Topology};
pub use world::{PendingClass, PendingEvent, RebootFactory, World, WorldBuilder};

/// The physical-layer channel model (re-export of the `manetkit-phy`
/// crate): [`PhyModel`] selects ideal delivery,
/// constant-bandwidth serialization, or shared-airtime contention; install
/// one with [`WorldBuilder::phy`].
pub use phy;
pub use phy::{Channel, PhyModel};

/// The flight-recorder record/diff/timeline types (re-export of the
/// `manetkit-trace` crate), available with the `trace` feature.
#[cfg(feature = "trace")]
pub use mktrace as trace;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::{
        ContextSample, DataPacket, FaultPlan, FilterEvent, FrameChaos, KernelRouteTable, NodeId,
        NodeOs, PhyModel, RoutingAgent, SimDuration, SimTime, Topology, World,
    };
}
