//! The OLSR CF proper: topology dissemination and route computation,
//! stacked on the MPR CF's sensing and flooding services.

mod components;
mod state;

pub use components::{
    build_tc, parse_tc, sync_kernel_routes, EnergyMapHandler, NeighbourhoodHandler,
    ResidualPowerSource, TcHandler, TcSource, TopologyExpiryHandler, TOPO_EXPIRY_TIMER,
};
pub use state::{OlsrState, RouteMetric, RoutingBase, TopologyEntry};

use manetkit::event::types;
use manetkit::protocol::{ManetProtocolCf, StateSlot};
use manetkit::registry::EventTuple;
use netsim::SimDuration;

/// The name under which the OLSR CF registers.
pub const OLSR_CF: &str = "olsr";

/// Configuration of the OLSR CF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OlsrConfig {
    /// TC period (paper/testbed default: 5 s).
    pub tc_interval: SimDuration,
    /// Validity of learned topology edges (default 3 × TC interval).
    pub topology_validity: SimDuration,
    /// Hop limit on generated TCs.
    pub tc_hop_limit: u8,
}

impl Default for OlsrConfig {
    fn default() -> Self {
        OlsrConfig {
            tc_interval: SimDuration::from_secs(5),
            topology_validity: SimDuration::from_secs(15),
            tc_hop_limit: 255,
        }
    }
}

/// The OLSR CF's event tuple.
#[must_use]
pub fn olsr_tuple() -> EventTuple {
    EventTuple::new()
        .requires(types::tc_in())
        .requires(types::nhood_change())
        .requires(types::mpr_change())
        .provides(types::tc_out())
}

/// Builds the OLSR CF.
#[must_use]
pub fn olsr_cf(config: OlsrConfig) -> ManetProtocolCf {
    let sweep = SimDuration::from_micros(config.topology_validity.as_micros() / 3);
    ManetProtocolCf::builder(OLSR_CF)
        .tuple(olsr_tuple())
        .state(StateSlot::new(OlsrState::default()))
        .startup_timer(sweep, components::topo_expiry_timer())
        .source(Box::new(TcSource {
            interval: config.tc_interval,
            validity: config.topology_validity,
            hop_limit: config.tc_hop_limit,
        }))
        .handler(Box::new(TcHandler {
            validity: config.topology_validity,
        }))
        .handler(Box::new(NeighbourhoodHandler {
            validity: config.topology_validity,
            hop_limit: config.tc_hop_limit,
        }))
        .handler(Box::new(TopologyExpiryHandler { sweep }))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use manetkit::event::{Event, MprChange, Payload};
    use manetkit::protocol::ProtoCtx;
    use netsim::{NodeId, NodeOs};
    use packetbb::registry::tlv_type;
    use packetbb::Address;
    use std::sync::Arc;

    #[test]
    fn triggered_tc_follows_the_configuration() {
        let config = OlsrConfig {
            topology_validity: SimDuration::from_secs(9),
            tc_hop_limit: 3,
            ..OlsrConfig::default()
        };
        let mut cf = olsr_cf(config);
        let mut os = NodeOs::standalone(NodeId(0), Address::v4([10, 0, 0, 1]));
        let mut ctx = ProtoCtx::new(&mut os, OLSR_CF);
        // A first MPR selector appears: the handler answers with an early TC.
        cf.deliver(
            &Event {
                ty: types::mpr_change(),
                payload: Payload::Mpr(Arc::new(MprChange {
                    mprs: Vec::new(),
                    selectors: vec![Address::v4([10, 0, 0, 2])],
                })),
                meta: Default::default(),
            },
            &mut ctx,
        );
        let out = ctx.take_outputs();
        assert_eq!(out.emitted.len(), 1, "one triggered TC");
        assert_eq!(out.emitted[0].ty, types::tc_out());
        let tc = out.emitted[0].message().expect("TC_OUT carries a message");
        assert_eq!(tc.hop_limit(), Some(3));
        assert_eq!(
            tc.find_tlv(tlv_type::VALIDITY_TIME)
                .and_then(|t| t.value_u8()),
            Some(packetbb::time::encode_time(9_000)),
        );
    }

    #[test]
    fn cf_composition() {
        let cf = olsr_cf(OlsrConfig::default());
        assert_eq!(cf.name(), OLSR_CF);
        let t = cf.tuple();
        assert!(t.is_provided(&types::tc_out()));
        assert!(t.is_required(&types::tc_in()));
        assert!(t.is_required(&types::mpr_change()));
        assert!(!cf.is_reactive());
        let names = cf.plugin_names();
        for expected in [
            "tc-source",
            "tc-handler",
            "nhood-handler",
            "topo-expiry-handler",
        ] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
    }
}
