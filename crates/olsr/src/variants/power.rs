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
//! [`NodeHandle`](manetkit::NodeHandle) or inside a transaction;
//! [`disable_ops`] reverts them. The residual-power registration stays
//! loaded: loading a System configuration never unloads anything.

use manetkit::event::types;
use manetkit::node::ReconfigOp;
use manetkit::protocol::{Plugin, StateSlot};
use manetkit::system::{MessageRegistration, SystemConfig};
use netsim::SimDuration;
use packetbb::registry::msg_type;

use crate::mpr::{MprCalculator, MprHelloHandler, MprHelloSource, MprState, MPR_CF};
use crate::olsr::{
    olsr_tuple, EnergyMapHandler, OlsrState, ResidualPowerSource, RouteMetric, OLSR_CF,
};

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
    MessageRegistration::in_only(msg_type::RESIDUAL_POWER, types::power_msg_in())
}

/// Reconfiguration operations enabling power-aware routing on a running
/// OLSR deployment.
#[must_use]
pub fn enable_ops(config: PowerAwareConfig) -> Vec<ReconfigOp> {
    vec![
        ReconfigOp::LoadSystem(SystemConfig {
            registrations: vec![residual_power_registration()],
            ..SystemConfig::default()
        }),
        mpr_recompose(config, true),
        // The OLSR CF now provides the power dissemination and consumes
        // the echoes.
        ReconfigOp::UpdateTuple {
            protocol: OLSR_CF.to_string(),
            tuple: olsr_tuple()
                .provides(types::power_msg_out())
                .requires(types::power_msg_in()),
        },
        ReconfigOp::Recompose {
            protocol: OLSR_CF.to_string(),
            plug: vec![
                Plugin::Handler(Box::new(EnergyMapHandler)),
                Plugin::Source(Box::new(ResidualPowerSource {
                    interval: config.power_interval,
                })),
            ],
            unplug: Vec::new(),
            state: Some(route_metric::<true>),
        },
    ]
}

/// Reconfiguration operations reverting to standard OLSR (the paper notes
/// the variant "should be removed" when the QoS requirement goes away: it
/// costs overhead).
#[must_use]
pub fn disable_ops(config: PowerAwareConfig) -> Vec<ReconfigOp> {
    vec![
        mpr_recompose(config, false),
        ReconfigOp::UpdateTuple {
            protocol: OLSR_CF.to_string(),
            tuple: olsr_tuple(),
        },
        ReconfigOp::Recompose {
            protocol: OLSR_CF.to_string(),
            plug: Vec::new(),
            unplug: vec!["energy-map-handler".into(), "residual-power".into()],
            state: Some(route_metric::<false>),
        },
    ]
}

/// The MPR CF with the Hello Handler and Hello Source tracking and
/// advertising energy, and the power-aware MPR Calculator, when
/// `power_aware`; with the standard ones otherwise.
fn mpr_recompose(config: PowerAwareConfig, power_aware: bool) -> ReconfigOp {
    let handler = MprHelloHandler::new(config.link_validity, power_aware);
    let source = MprHelloSource {
        interval: config.hello_interval,
        validity: config.link_validity,
        advertise_energy: power_aware,
    };
    ReconfigOp::Recompose {
        protocol: MPR_CF.to_string(),
        plug: vec![
            Plugin::Handler(Box::new(handler)),
            Plugin::Source(Box::new(source)),
        ],
        unplug: Vec::new(),
        state: Some(if power_aware {
            mpr_calculator::<true>
        } else {
            mpr_calculator::<false>
        }),
    }
}

/// The MPR state under the power-aware MPR Calculator, or the standard one.
fn mpr_calculator<const POWER_AWARE: bool>(slot: &StateSlot) -> StateSlot {
    let mut state = slot.get::<MprState>().clone();
    state.calculator = if POWER_AWARE {
        MprCalculator::PowerAware
    } else {
        MprCalculator::Standard
    };
    StateSlot::new(state)
}

/// The OLSR state under the energy-aware route metric, or under hop count
/// with its energy readings dropped.
fn route_metric<const ENERGY_AWARE: bool>(slot: &StateSlot) -> StateSlot {
    let mut state = slot.get::<OlsrState>().clone();
    if ENERGY_AWARE {
        state.set_metric(RouteMetric::EnergyAware);
    } else {
        state.set_metric(RouteMetric::HopCount);
        state.clear_energy();
    }
    StateSlot::new(state)
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
        dep.system_mut().load(&crate::system_config());
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
