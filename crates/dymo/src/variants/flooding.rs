//! Optimised flooding for DYMO (§5.2): RREQ dissemination over multipoint
//! relays instead of blind flooding.
//!
//! The paper swaps the Neighbour Detection CF for the MPR ManetProtocol
//! instance (shareable with a co-deployed OLSR) and lets relay selection
//! curb RREQ re-broadcasts. The MPR CF lives in the `manetkit-olsr` crate;
//! to keep this crate independent, [`enable_ops`] takes the replacement CF
//! as a parameter — callers pass `manetkit_olsr::mpr_cf(...)`, or nothing
//! when an MPR instance is already deployed (the sharing case).
//!
//! Mechanically, the DYMO RE handler is replaced by one whose relay gate
//! only re-broadcasts a fresh RREQ when the sending neighbour selected this
//! node as a relay. Selector knowledge arrives through the MPR CF's
//! `MPR_CHANGE` events, cached by an extra `selector-tracker` handler in a
//! replacement S component.

use std::collections::BTreeSet;

use manetkit::event::{types, Event, EventType, Payload};
use manetkit::node::ReconfigOp;
use manetkit::protocol::{EventHandler, ManetProtocolCf, Plugin, ProtoCtx, StateSlot};
use packetbb::Address;

use manetkit::reactive::{
    reactive_tuple, state_slot, ReactiveState, RouteDiscoveryHandler, RouteErrorHandler,
    RouteLifetimeHandler, SweepHandler,
};

use crate::handlers::ReHandler;
use crate::state::DymoState;
use crate::DYMO_CF;

/// S component of the optimised-flooding variant: the standard state plus
/// the cached relay-selector set.
#[derive(Debug, Clone, Default)]
pub struct MprGatedState {
    /// The embedded standard DYMO state.
    pub base: DymoState,
    /// Neighbours that currently select this node as their relay.
    pub selectors: BTreeSet<Address>,
}

impl ReactiveState for MprGatedState {
    type Table = DymoState;
    fn table(&self) -> &DymoState {
        &self.base
    }
    fn table_mut(&mut self) -> &mut DymoState {
        &mut self.base
    }
}

/// Caches the MPR CF's selector announcements.
#[derive(Clone)]
pub struct SelectorTracker;

impl EventHandler for SelectorTracker {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "selector-tracker"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![types::mpr_change()]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, _ctx: &mut ProtoCtx<'_>) {
        if let Payload::Mpr(mpr) = &event.payload {
            let s = state.get_mut::<MprGatedState>();
            s.selectors = mpr.selectors.iter().copied().collect();
        }
    }
}

/// The MPR-gated RE handler: a standard [`ReHandler`] whose relay gate
/// consults the selector cache.
#[must_use]
pub fn gated_re_handler() -> ReHandler<MprGatedState> {
    ReHandler::with_relay_gate(|state: &MprGatedState, from| state.selectors.contains(&from))
}

/// Reconfiguration operations enacting optimised flooding.
///
/// `mpr_replacement` is the MPR CF to install in place of the Neighbour
/// Detection CF (pass `None` when an MPR instance is already deployed —
/// e.g. shared with OLSR — in which case only the DYMO-side swap happens).
#[must_use]
pub fn enable_ops(mpr_replacement: Option<ManetProtocolCf>) -> Vec<ReconfigOp> {
    let mut ops = Vec::new();
    if let Some(mpr) = mpr_replacement {
        ops.push(ReconfigOp::RemoveProtocol {
            name: manetkit::neighbour::NEIGHBOUR_CF.to_string(),
        });
        ops.push(ReconfigOp::AddProtocol(mpr));
    }
    // The DYMO CF now also consumes MPR_CHANGE.
    ops.push(ReconfigOp::UpdateTuple {
        protocol: DYMO_CF.to_string(),
        tuple: reactive_tuple().requires(types::mpr_change()),
    });
    let handlers: [Box<dyn EventHandler>; 6] = [
        Box::new(RouteDiscoveryHandler::<MprGatedState>::default()),
        Box::new(gated_re_handler()),
        Box::new(RouteErrorHandler::<MprGatedState>::default()),
        Box::new(RouteLifetimeHandler::<MprGatedState>::default()),
        Box::new(SweepHandler::<MprGatedState>::default()),
        Box::new(SelectorTracker),
    ];
    ops.push(ReconfigOp::Recompose {
        protocol: DYMO_CF.to_string(),
        plug: handlers.map(Plugin::Handler).into(),
        unplug: Vec::new(),
        state: Some(to_mpr_gated),
    });
    ops
}

/// The MPR-gated S element, holding a copy of the standard one's routes
/// and no selectors yet.
fn to_mpr_gated(slot: &StateSlot) -> StateSlot {
    state_slot(MprGatedState {
        base: slot.get::<DymoState>().clone(),
        selectors: BTreeSet::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use manetkit::event::MprChange;
    use netsim::{NodeId, NodeOs};
    use std::sync::Arc;

    fn addr(n: u8) -> Address {
        Address::v4([10, 0, 0, n])
    }

    #[test]
    fn selector_tracker_updates_cache() {
        let mut state = StateSlot::new(MprGatedState::default());
        let mut os = NodeOs::standalone(NodeId(0), addr(1));
        let mut ctx = ProtoCtx::new(&mut os, "dymo");
        let mut tracker = SelectorTracker;
        let ev = Event {
            ty: types::mpr_change(),
            payload: Payload::Mpr(Arc::new(MprChange {
                mprs: vec![addr(2)],
                selectors: vec![addr(3), addr(4)],
            })),
            meta: Default::default(),
        };
        tracker.handle(&ev, &mut state, &mut ctx);
        let s = state.get::<MprGatedState>();
        assert!(s.selectors.contains(&addr(3)));
        assert!(!s.selectors.contains(&addr(2)));
    }

    #[test]
    fn gate_blocks_non_selectors() {
        let mut s = MprGatedState::default();
        s.selectors.insert(addr(3));
        let gate = |state: &MprGatedState, from: Address| state.selectors.contains(&from);
        assert!(gate(&s, addr(3)));
        assert!(!gate(&s, addr(5)));
    }
}
