//! AODV for MANETKit — the paper's original proof-of-concept protocol.
//!
//! §5 of the paper: *"In the first instance, as a proof of concept, we used
//! an initial Java-based implementation of MANETKit to build the well-known
//! AODV protocol."* This crate provides that protocol for the Rust
//! reproduction: RFC 3561 semantics — hop-by-hop reverse/forward route
//! learning (no path accumulation), RREQ-id duplicate suppression,
//! intermediate replies from fresh routes, precursor lists and
//! precursor-directed route errors.
//!
//! Composition-wise AODV showcases MANETKit's reuse story a third time: it
//! shares the Neighbour Detection CF, the System CF's NetLink plug-in, the
//! reactive core ([`manetkit::reactive`]: route discovery, route lifetimes,
//! the sweep and route breakage, with the RERR codec) and all framework
//! machinery with DYMO, differing only in its RREQ and RREP handlers and
//! messages and its route table (with how it breaks and reports routes).
//! The paper also notes an AODV implementation "might piggyback routing
//! table entries so that neighbours can learn new routes" via the
//! Neighbour Detection CF's dissemination — our RREQ/RREP
//! exchange plus the `offer_route(from, …)` neighbour learning covers the
//! same route-learning effect.
//!
//! # Example
//!
//! ```
//! use manetkit::prelude::*;
//! use netsim::{NodeId, SimDuration, Topology, World};
//!
//! let mut world = World::builder().topology(Topology::line(4)).seed(3).build();
//! for i in 0..4 {
//!     let (node, _handle) = manetkit_aodv::node(Default::default());
//!     world.install_agent(NodeId(i), Box::new(node));
//! }
//! world.run_for(SimDuration::from_secs(3));
//! let far = world.addr(NodeId(3));
//! world.send_datagram(NodeId(0), far, b"hello".to_vec());
//! world.run_for(SimDuration::from_secs(2));
//! assert_eq!(world.stats().data_delivered, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod handlers;
pub mod messages;
pub mod state;

use manetkit::event::types;
use manetkit::neighbour::NeighbourConfig;
use manetkit::node::{Deployment, ManetNode, NodeHandle};
use manetkit::prelude::ConcurrencyModel;
use manetkit::protocol::ManetProtocolCf;
use manetkit::reactive::{
    deploy_stack, reactive_tuple, state_slot, RouteDiscoveryHandler, RouteErrorHandler,
    RouteLifetimeHandler, SweepHandler,
};
use manetkit::system::{MessageRegistration, SystemConfig};
use packetbb::registry::msg_type;

pub use handlers::{RrepHandler, RreqHandler, AODV_SWEEP_TIMER};
pub use messages::{Rrep, Rreq};
pub use state::{AodvParams, AodvRoute, AodvState};

/// The name under which the AODV CF registers.
pub const AODV_CF: &str = "aodv";

/// Joint configuration for an AODV deployment.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AodvDeployment {
    /// Protocol parameters.
    pub params: AodvParams,
    /// Neighbour detection configuration.
    pub neighbour: NeighbourConfig,
}

/// Builds the AODV CF.
#[must_use]
pub fn aodv_cf(params: AodvParams) -> ManetProtocolCf {
    let state = AodvState {
        params,
        ..AodvState::default()
    };
    ManetProtocolCf::builder(AODV_CF)
        .reactive()
        .tuple(reactive_tuple())
        .state(state_slot(state))
        .startup_timer(params.reactive.sweep, handlers::aodv_sweep_timer())
        .handler(Box::new(RouteDiscoveryHandler::<AodvState>::default()))
        .handler(Box::new(RreqHandler))
        .handler(Box::new(RrepHandler))
        .handler(Box::new(RouteErrorHandler::<AodvState>::default()))
        .handler(Box::new(RouteLifetimeHandler::<AodvState>::default()))
        .handler(Box::new(SweepHandler::<AodvState>::default()))
        .build()
}

/// The System CF configuration AODV loads: its message types, and the
/// NetLink plug-in.
#[must_use]
pub fn system_config() -> SystemConfig {
    SystemConfig {
        registrations: vec![
            MessageRegistration::in_out(msg_type::AODV_RREQ, types::re_in(), types::re_out()),
            MessageRegistration::in_out(msg_type::AODV_RREP, types::re_in(), types::re_out()),
            MessageRegistration::in_out(msg_type::AODV_RERR, types::rerr_in(), types::rerr_out()),
        ],
        netlink: true,
        power_status: false,
    }
}

/// Installs AODV plus the Neighbour Detection CF into a deployment.
///
/// # Errors
///
/// Propagates integrity violations (e.g. another reactive protocol is
/// already deployed).
pub fn deploy(dep: &mut Deployment, config: AodvDeployment) -> Result<(), manetkit::DeployError> {
    deploy_stack(dep, system_config(), config.neighbour, || {
        aodv_cf(config.params)
    })
}

/// Builds a ready-to-install node running AODV, plus its control handle.
#[must_use]
pub fn node(config: AodvDeployment) -> (ManetNode, NodeHandle) {
    let mut node = ManetNode::new(ConcurrencyModel::SingleThreaded);
    deploy(node.deployment_mut(), config).expect("fresh deployment accepts AODV");
    let handle = node.handle();
    (node, handle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cf_composition() {
        let cf = aodv_cf(AodvParams::default());
        assert_eq!(cf.name(), AODV_CF);
        assert!(cf.is_reactive());
        let names = cf.plugin_names();
        for expected in [
            "route-discovery-handler",
            "rreq-handler",
            "rrep-handler",
            "rerr-handler",
            "route-lifetime-handler",
            "sweep-handler",
        ] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
    }

    #[test]
    fn aodv_and_dymo_are_mutually_exclusive() {
        // Both are reactive: the deployment-level integrity rule allows
        // only one at a time.
        let mut dep = Deployment::new(ConcurrencyModel::SingleThreaded);
        dep.add_protocol_offline(aodv_cf(AodvParams::default()))
            .unwrap();
        let second = aodv_cf(AodvParams::default());
        assert!(dep.add_protocol_offline(second).is_err());
    }
}
