//! MANETKit: a runtime component framework for ad-hoc routing protocols.
//!
//! This crate reproduces the framework proposed in *"MANETKit: Supporting
//! the Dynamic Deployment and Reconfiguration of Ad-Hoc Routing Protocols"*
//! (Middleware 2009): protocols are built from fine-grained components
//! following the **Control–Forward–State** pattern, composed declaratively
//! through `<required-events, provided-events>` tuples, and reconfigured at
//! runtime — switching protocols, deploying several simultaneously, and
//! deriving variants by swapping individual handlers.
//!
//! # Architecture
//!
//! * [`event`] — the polymorphic event ontology (PacketBB message payloads,
//!   context readings, route-control signals).
//! * [`registry`] — [`EventTuple`]: a CFS unit's declarative event
//!   interface.
//! * [`manager`] — the [`FrameworkManager`]: derives event wiring from the
//!   tuples, with exclusive receive, interposition and loop avoidance; also
//!   the context concentrator.
//! * [`protocol`] — [`ManetProtocolCf`]: the CFS pattern with pluggable
//!   [`EventHandler`]s, [`EventSource`]s, a [`Forwarder`] and a
//!   transferable [`StateSlot`].
//! * [`system`] — the [`SystemCf`]: the OS surrogate (network driver,
//!   netlink, power status).
//! * [`carry`] — [`RouteCarry`]: the protocol-neutral route view a switch
//!   between two reactive protocols hands over.
//! * [`neighbour`] — the reusable Neighbour Detection CF.
//! * [`reactive`] — the reactive-routing core DYMO and AODV share: route
//!   discovery, route lifetimes, the sweep and the kernel-table mirror.
//! * [`concurrency`] — pluggable concurrency models.
//! * [`node`] — [`Deployment`] and [`ManetNode`]: one framework instance on
//!   a simulated node, with quiescent-point reconfiguration through
//!   [`NodeHandle`]s.
//!
//! # Example: a deployment with neighbour detection
//!
//! ```
//! use manetkit::prelude::*;
//! use netsim::{NodeId, SimDuration, Topology, World};
//!
//! let mut world = World::builder().topology(Topology::line(2)).seed(7).build();
//! for i in 0..2 {
//!     let mut node = ManetNode::new(ConcurrencyModel::SingleThreaded);
//!     let dep = node.deployment_mut();
//!     dep.system_mut().register_message(manetkit::neighbour::hello_registration());
//!     let cf = manetkit::neighbour::neighbour_detection_cf(Default::default());
//!     dep.add_protocol_offline(cf).unwrap();
//!     world.install_agent(NodeId(i), Box::new(node));
//! }
//! world.run_for(SimDuration::from_secs(5));
//! assert!(world.stats().control_frames > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod carry;
pub mod concurrency;
pub mod event;
pub mod manager;
pub mod neighbour;
pub mod node;
pub mod protocol;
pub mod reactive;
pub mod reconfig;
pub mod registry;
pub mod smallvec;
pub mod system;
pub mod telemetry;
pub mod txn;

pub use carry::{CarriedRoute, RouteCarrier, RouteCarry};
pub use concurrency::{ConcurrencyModel, DispatchQueue, LabReport, ThroughputLab};
pub use event::{Event, EventMeta, EventType, Payload};
pub use manager::FrameworkManager;
pub use node::{
    DeployError, Deployment, IntegrityViolation, ManetNode, NodeHandle, NodeStatus, ReconfigOp,
    TxnCtl, TxnPhase, TxnReport,
};
pub use protocol::{
    EventHandler, EventSource, Forwarder, ManetProtocolCf, Plugin, ProtoCtx, StateCodec, StateSlot,
};
pub use reactive::seq_newer;
pub use reconfig::{
    CoordinatorPhase, Disruption, FleetCoordinator, FleetStatus, FleetTxnReport, HealthGate,
    Recipe, ReconfigRequest, Strategy, TwoPhaseMachine, TxnOptions, TxnVerdict, Wait,
};
pub use registry::EventTuple;
pub use smallvec::SmallVec;
pub use system::{SystemCf, SystemConfig};
pub use txn::invariants::{
    assert_fleet_conservation, check_fleet_conservation, ConservationViolation, TxnCounters,
};
pub use txn::{structural_hash, CompositionFingerprint, ProtocolFingerprint, TxnAborted};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::concurrency::ConcurrencyModel;
    pub use crate::event::{types as event_types, Event, EventType, Payload};
    pub use crate::node::{Deployment, ManetNode, NodeHandle, ReconfigOp};
    pub use crate::protocol::{
        EventHandler, EventSource, Forwarder, ManetProtocolCf, ProtoCtx, StateSlot,
    };
    pub use crate::reconfig::{FleetCoordinator, ReconfigRequest, Strategy};
    pub use crate::registry::EventTuple;
}
