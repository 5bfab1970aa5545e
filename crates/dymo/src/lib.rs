//! DYMO for MANETKit: the paper's second case study (§5.2).
//!
//! The composition matches Fig. 6: one reactive `ManetProtocol` instance
//! atop the System CF, using the reusable Neighbour Detection CF for link
//! breaks and the System CF's *NetLink* plug-in for the packet-filter
//! events that drive the reactive machinery:
//!
//! * `NO_ROUTE` — a locally originated packet had no route: buffer it and
//!   start a route discovery (RREQ flood with path accumulation);
//! * `ROUTE_UPDATE` — traffic used a route: extend its lifetime;
//! * `SEND_ROUTE_ERR` — forwarding failed: emit a route error;
//! * on successful discovery DYMO emits `ROUTE_FOUND` back to the System
//!   CF, which re-injects the buffered packets.
//!
//! The discovery, lifetime, sweep and route-error handlers are the
//! reactive core's ([`manetkit::reactive`]), shared with AODV; this crate
//! holds DYMO's messages, its route table (with how it breaks and reports
//! routes) and the RE handler.
//!
//! Variants (§5.2) are derived by runtime reconfiguration:
//! [`variants::multipath`] (replacement S component and RE/RERR handlers
//! computing link-disjoint paths and failing over to them) and
//! [`variants::flooding`] (the
//! Neighbour Detection CF swapped for the richer MPR CF, with RREQ
//! relaying gated on relay selection).
//!
//! # Example
//!
//! ```
//! use manetkit::prelude::*;
//! use netsim::{NodeId, SimDuration, Topology, World};
//!
//! let mut world = World::builder().topology(Topology::line(3)).seed(2).build();
//! for i in 0..3 {
//!     let (node, _handle) = manetkit_dymo::node(Default::default());
//!     world.install_agent(NodeId(i), Box::new(node));
//! }
//! world.run_for(SimDuration::from_secs(3));
//! // Send to the far end: DYMO discovers the route on demand and the
//! // buffered datagram is delivered.
//! let far = world.addr(NodeId(2));
//! world.send_datagram(NodeId(0), far, b"hello".to_vec());
//! world.run_for(SimDuration::from_secs(2));
//! assert_eq!(world.stats().data_delivered, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod handlers;
pub mod messages;
pub mod state;

/// Runtime-derivable protocol variants.
pub mod variants {
    pub mod flooding;
    pub mod gossip;
    pub mod multipath;
}

use manetkit::event::types;
use manetkit::neighbour::NeighbourConfig;
use manetkit::node::{Deployment, ManetNode, NodeHandle, ReconfigOp};
use manetkit::prelude::ConcurrencyModel;
use manetkit::protocol::{EventHandler, ManetProtocolCf, Plugin, StateSlot};
use manetkit::reactive::{
    deploy_stack, reactive_tuple, state_slot, RouteDiscoveryHandler, RouteErrorHandler,
    RouteLifetimeHandler, SweepHandler,
};
use manetkit::system::{MessageRegistration, SystemConfig};
use packetbb::registry::msg_type;

pub use handlers::{learn_from_path, ReHandler, DYMO_SWEEP_TIMER};
pub use messages::{PathHop, ReKind, RouteElement};
pub use state::{DymoParams, DymoRoute, DymoState};

/// The name under which the DYMO CF registers.
pub const DYMO_CF: &str = "dymo";

/// Joint configuration for a DYMO deployment.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DymoDeployment {
    /// Protocol parameters.
    pub params: DymoParams,
    /// Neighbour detection configuration.
    pub neighbour: NeighbourConfig,
}

/// Builds the DYMO CF (standard: blind RREQ flooding, single-path routes).
#[must_use]
pub fn dymo_cf(params: DymoParams) -> ManetProtocolCf {
    let state = DymoState {
        params,
        ..DymoState::default()
    };
    let cf = ManetProtocolCf::builder(DYMO_CF)
        .reactive()
        .tuple(reactive_tuple())
        .state(state_slot(state))
        .startup_timer(params.sweep, handlers::dymo_sweep_timer());
    standard_handlers()
        .into_iter()
        .fold(cf, |cf, handler| cf.handler(handler))
        .build()
}

/// The standard DYMO handlers, in the order the DYMO CF holds them.
fn standard_handlers() -> [Box<dyn EventHandler>; 5] {
    [
        Box::new(RouteDiscoveryHandler::<DymoState>::default()),
        Box::new(ReHandler::<DymoState>::default()),
        Box::new(RouteErrorHandler::<DymoState>::default()),
        Box::new(RouteLifetimeHandler::<DymoState>::default()),
        Box::new(SweepHandler::<DymoState>::default()),
    ]
}

/// How a DYMO variant is disabled: a `Recompose` of the DYMO CF that
/// unplugs the standard handlers and the variant's own `handlers`, plugs
/// the standard ones back in their order, and derives the S element back
/// with `state`.
fn standard_recompose(handlers: &[&str], state: Option<fn(&StateSlot) -> StateSlot>) -> ReconfigOp {
    let standard = standard_handlers();
    let names = standard
        .iter()
        .map(|h| h.name())
        .chain(handlers.iter().copied());
    ReconfigOp::Recompose {
        protocol: DYMO_CF.into(),
        unplug: names.map(String::from).collect(),
        plug: standard.map(Plugin::Handler).into(),
        state,
    }
}

/// The System CF configuration DYMO loads: its message types, and the
/// NetLink plug-in.
#[must_use]
pub fn system_config() -> SystemConfig {
    SystemConfig {
        registrations: vec![
            MessageRegistration::in_out(msg_type::RREQ, types::re_in(), types::re_out()),
            MessageRegistration::in_out(msg_type::RREP, types::re_in(), types::re_out()),
            MessageRegistration::in_out(msg_type::RERR, types::rerr_in(), types::rerr_out()),
        ],
        netlink: true,
        power_status: false,
    }
}

/// Installs DYMO plus the Neighbour Detection CF into a deployment
/// (offline).
///
/// # Errors
///
/// Propagates integrity violations (e.g. another reactive protocol is
/// already deployed).
pub fn deploy(dep: &mut Deployment, config: DymoDeployment) -> Result<(), manetkit::DeployError> {
    deploy_stack(dep, system_config(), config.neighbour, || {
        dymo_cf(config.params)
    })
}

/// Installs only the DYMO CF (the caller provides neighbourhood sensing —
/// used by the optimised-flooding variant and co-deployments with OLSR).
///
/// # Errors
///
/// Propagates integrity violations.
pub fn deploy_core(dep: &mut Deployment, params: DymoParams) -> Result<(), manetkit::DeployError> {
    dep.system_mut().load(&system_config());
    dep.add_protocol_offline(dymo_cf(params))
}

/// Builds a ready-to-install node running DYMO, plus its control handle.
#[must_use]
pub fn node(config: DymoDeployment) -> (ManetNode, NodeHandle) {
    let mut node = ManetNode::new(ConcurrencyModel::SingleThreaded);
    deploy(node.deployment_mut(), config).expect("fresh deployment accepts DYMO");
    let handle = node.handle();
    (node, handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use manetkit::registry::EventTuple;

    #[test]
    fn cf_composition() {
        let cf = dymo_cf(DymoParams::default());
        assert_eq!(cf.name(), DYMO_CF);
        assert!(cf.is_reactive());
        let t = cf.tuple();
        assert!(t.is_required(&types::no_route()));
        assert!(t.is_provided(&types::route_found()));
        let names = cf.plugin_names();
        for expected in [
            "route-discovery-handler",
            "re-handler",
            "rerr-handler",
            "route-lifetime-handler",
            "sweep-handler",
        ] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
    }

    #[test]
    fn two_reactive_protocols_rejected() {
        let mut dep = Deployment::new(ConcurrencyModel::SingleThreaded);
        dep.add_protocol_offline(dymo_cf(DymoParams::default()))
            .unwrap();
        let mut second = dymo_cf(DymoParams::default());
        second.set_tuple(EventTuple::new());
        // Renaming is not enough: reactivity is the integrity dimension.
        let err = dep.add_protocol_offline(second).unwrap_err();
        assert!(err.to_string().contains("already"), "{err}");
    }
}
