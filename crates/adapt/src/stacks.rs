//! The three MANETKit routing stacks as switch targets, with pairwise
//! atomic switch recipes.
//!
//! A *stack* is the composition a node runs between switches: the paper's
//! OLSR (proactive: MPR selection + link-state flooding), DYMO and AODV
//! (reactive: on-demand route discovery over the shared Neighbour
//! Detection CF). [`Stack::recipe_to`] produces the operation batch that
//! takes a node from one stack to another in a single quiescent-point
//! reconfiguration — the unit the policy engine hands to
//! [`FleetCoordinator::execute`](manetkit::FleetCoordinator::execute) as a
//! fleet-wide transaction.

use std::fmt;

use manetkit::neighbour::neighbour_detection_cf;
use manetkit::reactive::stack_system_config;
use manetkit::{ManetNode, ManetProtocolCf, NodeHandle, ReconfigOp, SystemConfig};

/// A complete routing composition the fleet can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stack {
    /// Proactive: MPR selection + OLSR link-state routing.
    Olsr,
    /// Reactive: DYMO on-demand routing over Neighbour Detection.
    Dymo,
    /// Reactive: AODV on-demand routing over Neighbour Detection.
    Aodv,
}

/// Number of known stacks (sizes the policy's penalty table).
pub const STACKS: usize = 3;

impl Stack {
    /// Every known stack, in penalty-table order.
    pub const ALL: [Stack; STACKS] = [Stack::Olsr, Stack::Dymo, Stack::Aodv];

    /// Stable short name (used in counters, logs and reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stack::Olsr => "olsr",
            Stack::Dymo => "dymo",
            Stack::Aodv => "aodv",
        }
    }

    /// Index into [`Stack::ALL`]-ordered tables.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Stack::Olsr => 0,
            Stack::Dymo => 1,
            Stack::Aodv => 2,
        }
    }

    /// Whether the stack discovers routes on demand (DYMO, AODV) rather
    /// than proactively (OLSR).
    #[must_use]
    pub fn is_reactive(self) -> bool {
        !matches!(self, Stack::Olsr)
    }

    /// The protocol names a node running this stack reports, in
    /// deployment order — for post-switch verification against
    /// [`FleetCoordinator::stacks`](manetkit::FleetCoordinator::stacks).
    #[must_use]
    pub fn protocols(self) -> Vec<String> {
        match self {
            Stack::Olsr => vec!["mpr".to_string(), "olsr".to_string()],
            Stack::Dymo => vec!["neighbour-detection".to_string(), "dymo".to_string()],
            Stack::Aodv => vec!["neighbour-detection".to_string(), "aodv".to_string()],
        }
    }

    /// Builds a ready-to-install node running this stack, plus its control
    /// handle.
    #[must_use]
    pub fn node(self) -> (ManetNode, NodeHandle) {
        match self {
            Stack::Olsr => manetkit_olsr::node(Default::default()),
            Stack::Dymo => manetkit_dymo::node(Default::default()),
            Stack::Aodv => manetkit_aodv::node(Default::default()),
        }
    }

    /// The routing CF of a reactive stack (`None` for OLSR, whose two CFs
    /// have no single counterpart).
    fn reactive_cf(self) -> Option<ManetProtocolCf> {
        match self {
            Stack::Olsr => None,
            Stack::Dymo => Some(manetkit_dymo::dymo_cf(Default::default())),
            Stack::Aodv => Some(manetkit_aodv::aodv_cf(Default::default())),
        }
    }

    /// The System CF configuration this stack loads: its protocol crate's,
    /// which a reactive stack extends with the HELLO registration of
    /// Neighbour Detection (loading upserts registrations, so loading
    /// shared types again is safe).
    fn system_config(self) -> SystemConfig {
        match self {
            Stack::Olsr => manetkit_olsr::system_config(),
            Stack::Dymo => stack_system_config(manetkit_dymo::system_config()),
            Stack::Aodv => stack_system_config(manetkit_aodv::system_config()),
        }
    }

    /// The atomic switch recipe from this stack to `target`.
    ///
    /// Between the two reactive stacks it is a state-carrying
    /// [`ReconfigOp::SwitchProtocol`]: the shared Neighbour Detection CF —
    /// and its neighbour state — stays in place, and the arriving routing
    /// CF adopts the retiring one's live routes and sequence number (through
    /// their [`RouteCarrier`](manetkit::RouteCarrier)s) and installs them
    /// in the kernel table in the same quiescent point, so active flows
    /// neither lose a datagram nor rediscover. The retired CF rides in the
    /// transaction's undo log with its state untouched: an abort or a
    /// health-gate revert reinstates the table *as checkpointed*, not the
    /// one the successor went on to maintain.
    ///
    /// To or from OLSR nothing can be carried: the source-only protocols
    /// are removed, the target's System configuration loaded and the
    /// target-only protocols added.
    ///
    /// Switching a stack to itself yields an empty batch.
    #[must_use]
    pub fn recipe_to(self, target: Stack) -> Vec<ReconfigOp> {
        if self == target {
            return Vec::new();
        }
        let register = ReconfigOp::LoadSystem(target.system_config());
        let bring_up = match (target.reactive_cf(), self.is_reactive()) {
            (Some(new), true) => {
                return vec![
                    register,
                    ReconfigOp::SwitchProtocol {
                        old: self.name().into(),
                        new,
                        transfer_state: true,
                    },
                ];
            }
            (Some(routing), false) => [neighbour_detection_cf(Default::default()), routing],
            (None, _) => [
                manetkit_olsr::mpr_cf(Default::default()),
                manetkit_olsr::olsr_cf(Default::default()),
            ],
        };
        // Tear down (routing protocol first, then its substrate), load the
        // target's System configuration, bring the target up.
        let mut ops: Vec<ReconfigOp> = self
            .protocols()
            .into_iter()
            .rev()
            .map(|name| ReconfigOp::RemoveProtocol { name })
            .collect();
        ops.push(register);
        ops.extend(bring_up.map(ReconfigOp::AddProtocol));
        ops
    }
}

impl fmt::Display for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_switch_is_empty_and_pairs_are_nonempty() {
        for from in Stack::ALL {
            for to in Stack::ALL {
                let ops = from.recipe_to(to);
                if from == to {
                    assert!(ops.is_empty());
                } else if from.is_reactive() && to.is_reactive() {
                    assert!(
                        matches!(
                            ops.as_slice(),
                            [
                                ReconfigOp::LoadSystem(_),
                                ReconfigOp::SwitchProtocol {
                                    transfer_state: true,
                                    ..
                                }
                            ]
                        ),
                        "{from}->{to} is one state-carrying switch: {ops:?}"
                    );
                } else {
                    assert!(ops.len() >= 5, "{from}->{to} has teardown+bringup");
                }
            }
        }
    }

    #[test]
    fn reactive_switch_keeps_neighbour_detection() {
        let ops = Stack::Dymo.recipe_to(Stack::Aodv);
        for op in &ops {
            if let ReconfigOp::RemoveProtocol { name } = op {
                assert_ne!(name, "neighbour-detection");
            }
        }
    }

    #[test]
    fn indices_match_all_order() {
        for (i, s) in Stack::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
