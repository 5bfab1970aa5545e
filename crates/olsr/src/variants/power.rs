//! Power-aware routing variant (§5.1, after Mahfoudh & Minet): maximise
//! route lifetime between source–sink pairs.
//!
//! Enacted as the paper describes, through fine-grained reconfiguration of
//! the *running* composition:
//!
//! 1. the MPR CF's Hello Handler and MPR Calculator are replaced by
//!    power-aware versions (energy-tracking sensing, energy-biased relay
//!    selection);
//! 2. a `ResidualPower` component is plugged into the OLSR CF, flooding the
//!    node's battery level via the MPR flooding service;
//! 3. the OLSR CF's route metric switches to energy-aware.
//!
//! [`enable_ops`] returns the reconfiguration operations to apply through a
//! [`NodeHandle`](manetkit::NodeHandle); [`disable_ops`] reverts them.

use manetkit::event::types;
use manetkit::node::ReconfigOp;
use manetkit::system::MessageRegistration;
use netsim::SimDuration;
use packetbb::registry::msg_type;

use crate::mpr::{MprCalculator, MprHelloHandler, MprHelloSource, MprState, MPR_CF};
use crate::olsr::{EnergyMapHandler, OlsrState, ResidualPowerSource, RouteMetric, OLSR_CF};

/// Configuration of the power-aware variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerAwareConfig {
    /// HELLO interval of the replaced hello source (keep identical to the
    /// deployed MPR CF's interval).
    pub hello_interval: SimDuration,
    /// Link validity of the replaced plug-ins.
    pub link_validity: SimDuration,
    /// Residual-power dissemination period.
    pub power_interval: SimDuration,
}

impl Default for PowerAwareConfig {
    fn default() -> Self {
        PowerAwareConfig {
            hello_interval: SimDuration::from_secs(2),
            link_validity: SimDuration::from_secs(6),
            power_interval: SimDuration::from_secs(10),
        }
    }
}

/// The registration the residual-power dissemination needs (in-only: the
/// MPR CF floods the messages itself).
#[must_use]
pub fn residual_power_registration() -> MessageRegistration {
    MessageRegistration {
        msg_type: msg_type::RESIDUAL_POWER,
        in_event: types::power_msg_in(),
        out_event: None,
    }
}

/// Reconfiguration operations enabling power-aware routing on a running
/// OLSR deployment.
#[must_use]
pub fn enable_ops(config: PowerAwareConfig) -> Vec<ReconfigOp> {
    vec![
        ReconfigOp::RegisterMessage(residual_power_registration()),
        ReconfigOp::Mutate {
            protocol: MPR_CF.to_string(),
            op: Box::new(move |cf| {
                // Power-aware Hello Handler: tracks neighbour energy.
                cf.replace_handler(
                    "hello-handler",
                    Box::new(MprHelloHandler {
                        validity: config.link_validity,
                        track_energy: true,
                    }),
                )
                .expect("mpr hello handler present");
                // Hello source advertises our own energy.
                cf.replace_source(
                    "hello-source",
                    Box::new(MprHelloSource {
                        interval: config.hello_interval,
                        validity: config.link_validity,
                        advertise_energy: true,
                    }),
                )
                .expect("mpr hello source present");
                // Power-aware MPR Calculator.
                cf.state_mut().get_mut::<MprState>().calculator = MprCalculator::PowerAware;
            }),
        },
        ReconfigOp::Mutate {
            protocol: OLSR_CF.to_string(),
            op: Box::new(move |cf| {
                let _ = cf.remove_handler("energy-map-handler");
                cf.add_handler(Box::new(EnergyMapHandler))
                    .expect("no duplicate energy handler");
                let _ = cf.remove_source("residual-power");
                cf.add_source(Box::new(ResidualPowerSource {
                    interval: config.power_interval,
                }))
                .expect("no duplicate residual power source");
                cf.state_mut()
                    .get_mut::<OlsrState>()
                    .set_metric(RouteMetric::EnergyAware);
                // The OLSR CF now provides the power dissemination and
                // consumes the echoes.
                let tuple = cf
                    .tuple()
                    .clone()
                    .provides(types::power_msg_out())
                    .requires(types::power_msg_in());
                cf.set_tuple(tuple);
            }),
        },
    ]
}

/// Reconfiguration operations reverting to standard OLSR (the paper notes
/// the variant "should be removed" when the QoS requirement goes away: it
/// costs overhead).
#[must_use]
pub fn disable_ops(config: PowerAwareConfig) -> Vec<ReconfigOp> {
    vec![
        ReconfigOp::Mutate {
            protocol: MPR_CF.to_string(),
            op: Box::new(move |cf| {
                cf.replace_handler(
                    "hello-handler",
                    Box::new(MprHelloHandler {
                        validity: config.link_validity,
                        track_energy: false,
                    }),
                )
                .expect("mpr hello handler present");
                cf.replace_source(
                    "hello-source",
                    Box::new(MprHelloSource {
                        interval: config.hello_interval,
                        validity: config.link_validity,
                        advertise_energy: false,
                    }),
                )
                .expect("mpr hello source present");
                cf.state_mut().get_mut::<MprState>().calculator = MprCalculator::Standard;
            }),
        },
        ReconfigOp::Mutate {
            protocol: OLSR_CF.to_string(),
            op: Box::new(|cf| {
                let _ = cf.remove_handler("energy-map-handler");
                let _ = cf.remove_source("residual-power");
                let state = cf.state_mut().get_mut::<OlsrState>();
                state.set_metric(RouteMetric::HopCount);
                state.clear_energy();
                let mut tuple = cf.tuple().clone();
                tuple.provided.retain(|t| *t != types::power_msg_out());
                tuple.required.retain(|t| *t != types::power_msg_in());
                cf.set_tuple(tuple);
            }),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mpr::MprConfig, olsr::OlsrConfig};
    use manetkit::prelude::*;
    use netsim::{NodeId, NodeOs};
    use packetbb::Address;

    #[test]
    fn enable_then_disable_round_trips_composition() {
        let mut dep = Deployment::new(ConcurrencyModel::SingleThreaded);
        crate::register_messages(dep.system_mut());
        dep.add_protocol_offline(crate::mpr::mpr_cf(MprConfig::default()))
            .unwrap();
        dep.add_protocol_offline(crate::olsr::olsr_cf(OlsrConfig::default()))
            .unwrap();
        let mut os = NodeOs::standalone(NodeId(0), Address::v4([10, 0, 0, 1]));
        dep.start(&mut os);

        for op in enable_ops(PowerAwareConfig::default()) {
            dep.apply(op, &mut os).unwrap();
        }
        let olsr = dep.protocol(OLSR_CF).unwrap();
        assert!(olsr.plugin_names().contains(&"residual-power".to_string()));
        assert_eq!(
            olsr.state().get::<OlsrState>().metric(),
            RouteMetric::EnergyAware
        );
        assert_eq!(
            dep.protocol(MPR_CF)
                .unwrap()
                .state()
                .get::<MprState>()
                .calculator,
            MprCalculator::PowerAware
        );
        assert!(olsr.tuple().is_provided(&types::power_msg_out()));

        for op in disable_ops(PowerAwareConfig::default()) {
            dep.apply(op, &mut os).unwrap();
        }
        let olsr = dep.protocol(OLSR_CF).unwrap();
        assert!(!olsr.plugin_names().contains(&"residual-power".to_string()));
        assert_eq!(
            olsr.state().get::<OlsrState>().metric(),
            RouteMetric::HopCount
        );
        assert!(!olsr.tuple().is_provided(&types::power_msg_out()));
    }
}
