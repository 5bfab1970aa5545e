//! OLSR for MANETKit: the paper's first case study (§5.1).
//!
//! The implementation mirrors the paper's composition exactly: **two**
//! ManetProtocol instances — the [`mpr`] CF (link sensing, relay selection
//! and optimised flooding) and the [`olsr`] CF proper (topology
//! dissemination and route computation) stacked on top of it — wired purely
//! through their event tuples:
//!
//! * OLSR provides `TC_OUT`; requires `TC_IN`, `NHOOD_CHANGE`,
//!   `MPR_CHANGE`.
//! * MPR provides `HELLO_OUT`, `NHOOD_CHANGE`, `MPR_CHANGE`; requires
//!   `HELLO_IN`, `POWER_STATUS` and — exclusively — `TC_OUT`, which its F
//!   element floods over the relay set.
//!
//! Two runtime-reconfiguration variants are provided:
//! [`variants::fisheye`] (an interposer on `TC_OUT`) and
//! [`variants::power`] (replacement Hello Handler / MPR Calculator plus a
//! ResidualPower component).
//!
//! # Example
//!
//! ```
//! use manetkit::prelude::*;
//! use netsim::{NodeId, SimDuration, Topology, World};
//!
//! let mut world = World::builder().topology(Topology::line(3)).seed(1).build();
//! for i in 0..3 {
//!     let (node, _handle) = manetkit_olsr::node(Default::default());
//!     world.install_agent(NodeId(i), Box::new(node));
//! }
//! world.run_for(SimDuration::from_secs(30));
//! // Node 0 has learned a multi-hop route to node 2.
//! let far = world.addr(NodeId(2));
//! assert!(world.os(NodeId(0)).route_table().lookup(far).is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod mpr;
pub mod olsr;

/// Runtime-derivable protocol variants.
pub mod variants {
    pub mod fisheye;
    pub mod power;
}

use manetkit::event::types;
use manetkit::neighbour::hello_registration;
use manetkit::node::{Deployment, ManetNode, NodeHandle};
use manetkit::prelude::ConcurrencyModel;
use manetkit::system::{MessageRegistration, SystemConfig};
use packetbb::registry::msg_type;

pub use mpr::{mpr_cf, MprConfig, MPR_CF};
pub use olsr::{olsr_cf, olsr_tuple, OlsrConfig, OLSR_CF};

/// Joint configuration for a standard OLSR deployment.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OlsrDeployment {
    /// MPR CF configuration.
    pub mpr: MprConfig,
    /// OLSR CF configuration.
    pub olsr: OlsrConfig,
}

/// The System CF configuration OLSR loads: HELLO (driver sends and
/// receives), TC (in-only: the MPR CF floods TCs itself) and the
/// PowerStatus plug-in.
#[must_use]
pub fn system_config() -> SystemConfig {
    SystemConfig {
        registrations: vec![
            hello_registration(),
            MessageRegistration::in_only(msg_type::TC, types::tc_in()),
        ],
        netlink: false,
        power_status: true,
    }
}

/// Installs MPR + OLSR into an existing deployment (offline).
///
/// # Errors
///
/// Propagates integrity violations (e.g. an OLSR instance already
/// deployed).
pub fn deploy(dep: &mut Deployment, config: OlsrDeployment) -> Result<(), manetkit::DeployError> {
    dep.system_mut().load(&system_config());
    dep.add_protocol_offline(mpr_cf(config.mpr))?;
    dep.add_protocol_offline(olsr_cf(config.olsr))?;
    Ok(())
}

/// Builds a ready-to-install node running OLSR, plus its control handle.
#[must_use]
pub fn node(config: OlsrDeployment) -> (ManetNode, NodeHandle) {
    let mut node = ManetNode::new(ConcurrencyModel::SingleThreaded);
    deploy(node.deployment_mut(), config).expect("fresh deployment accepts OLSR");
    let handle = node.handle();
    (node, handle)
}
