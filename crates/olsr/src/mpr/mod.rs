//! The MPR CF: link sensing, relay selection and optimised flooding.
//!
//! A standalone ManetProtocol instance (§5.1): it senses links with
//! HELLOs, maintains the 1-hop/2-hop neighbourhood, selects multipoint
//! relays and offers a flooding service to protocols stacked on top (OLSR
//! uses it to disseminate TCs; DYMO's optimised-flooding variant shares the
//! very same instance). HELLOs go through the framework's link-sensing core
//! in [`manetkit::neighbour`], as the Neighbour Detection CF's do: one
//! encoder and reader, one set of link-set queries and `NHOOD_CHANGE`, one
//! seen-flood cache. Hysteresis, willingness, residual energy, selectors,
//! relay selection and the flood forwarder are the MPR CF's own.

mod components;
mod state;

pub use components::{
    MprExpiryHandler, MprFloodForwarder, MprHelloHandler, MprHelloSource, PowerStatusHandler,
    MPR_EXPIRY_TIMER,
};
pub use state::{select_mprs, Hysteresis, LinkInfo, MprCalculator, MprState};

use manetkit::event::types;
use manetkit::protocol::{ManetProtocolCf, StateSlot};
use manetkit::registry::EventTuple;
use netsim::SimDuration;

/// The name under which the MPR CF registers.
pub const MPR_CF: &str = "mpr";

/// Configuration of the MPR CF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MprConfig {
    /// HELLO period (paper/testbed default: 2 s).
    pub hello_interval: SimDuration,
    /// Link validity (default 3 × HELLO interval).
    pub link_validity: SimDuration,
    /// Link hysteresis parameters (off by default).
    pub hysteresis: Hysteresis,
}

impl Default for MprConfig {
    fn default() -> Self {
        MprConfig {
            hello_interval: SimDuration::from_secs(2),
            link_validity: SimDuration::from_secs(6),
            hysteresis: Hysteresis::off(),
        }
    }
}

/// Builds the MPR CF with the standard calculator and flooding service.
#[must_use]
pub fn mpr_cf(config: MprConfig) -> ManetProtocolCf {
    let state = MprState {
        hysteresis: config.hysteresis,
        link_validity: config.link_validity,
        ..MprState::default()
    };
    let sweep = SimDuration::from_micros(config.link_validity.as_micros() / 3);
    ManetProtocolCf::builder(MPR_CF)
        .tuple(
            EventTuple::new()
                .requires(types::hello_in())
                .requires(types::power_status())
                .requires_exclusive(types::tc_out())
                .requires(types::tc_in())
                .requires_exclusive(types::power_msg_out())
                .requires(types::power_msg_in())
                .provides(types::hello_out())
                .provides(types::nhood_change())
                .provides(types::mpr_change()),
        )
        .state(StateSlot::new(state))
        .startup_timer(sweep, components::mpr_expiry_timer())
        .source(Box::new(MprHelloSource {
            interval: config.hello_interval,
            validity: config.link_validity,
            advertise_energy: false,
        }))
        .handler(Box::new(MprHelloHandler::new(config.link_validity, false)))
        .handler(Box::new(MprExpiryHandler { sweep }))
        .handler(Box::new(PowerStatusHandler))
        .forwarder(Box::new(MprFloodForwarder::default()))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cf_composition() {
        let cf = mpr_cf(MprConfig::default());
        assert_eq!(cf.name(), MPR_CF);
        let names = cf.plugin_names();
        for expected in [
            "hello-source",
            "hello-handler",
            "expiry-handler",
            "power-status-handler",
            "mpr-flood",
        ] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
        let t = cf.tuple();
        assert!(t.is_exclusive(&types::tc_out()));
        assert!(t.is_provided(&types::mpr_change()));
        assert!(!cf.is_reactive());
    }
}
