//! Umbrella crate for the MANETKit reproduction.
//!
//! Re-exports every crate in the workspace under one roof so that the
//! examples and integration tests in this repository can use a single
//! dependency. Downstream users should normally depend on the individual
//! crates ([`manetkit`], [`manetkit_olsr`], [`manetkit_dymo`], …) directly.
//!
//! # Quickstart
//!
//! ```
//! use manetkit_repro::prelude::*;
//!
//! // Build a 3-node line 0 - 1 - 2, deploy DYMO everywhere, ping across.
//! let mut world = World::builder()
//!     .topology(Topology::line(3))
//!     .seed(42)
//!     .build();
//! for i in 0..3 {
//!     let (node, _handle) = manetkit_repro::manetkit_dymo::node(Default::default());
//!     world.install_agent(NodeId(i), Box::new(node));
//! }
//! world.run_for(SimDuration::from_secs(2));
//! let far = world.addr(NodeId(2));
//! world.send_datagram(NodeId(0), far, b"hello".to_vec());
//! world.run_for(SimDuration::from_secs(5));
//! assert!(world.stats().delivered() >= 1);
//! ```

pub use adapt;
pub use campaign;
pub use manetkit;
pub use manetkit_aodv;
pub use manetkit_baseline;
pub use manetkit_dymo;
pub use manetkit_olsr;
pub use mcheck;
pub use netsim;
pub use packetbb;

/// Convenient glob-import surface used by the examples and tests.
pub mod prelude {
    pub use manetkit::prelude::*;
    pub use netsim::prelude::*;
    pub use netsim::{LinkState, SimDuration, SimTime, Topology};
}
