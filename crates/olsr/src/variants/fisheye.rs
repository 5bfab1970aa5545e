//! Fisheye routing variant (§5.1): scalability at the cost of staleness
//! toward distant nodes.
//!
//! The fisheye component is a *pure interposer*: it requires **and**
//! provides `TC_OUT`, so the Framework Manager automatically splices it into
//! the path of outgoing TCs between the OLSR CF and the MPR CF — no other
//! change to the composition is needed, exactly as in the paper. Each TC
//! passing through gets its hop limit rewritten per a ring schedule, so
//! nearby nodes see every TC while distant nodes only see every k-th one.

use manetkit::event::{types, Event, EventType, Payload};
use manetkit::protocol::{EventHandler, ManetProtocolCf, ProtoCtx, StateSlot};
use manetkit::registry::EventTuple;
use std::sync::Arc;

/// The name under which the fisheye interposer registers.
pub const FISHEYE_CF: &str = "fisheye";

/// Fisheye schedule: the hop-limit applied to successive TCs, cycling.
///
/// The default `[2, 2, 2, 255]` floods three out of four TCs only two hops
/// wide and every fourth one network-wide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FisheyeSchedule {
    /// The repeating hop-limit pattern (must be non-empty).
    pub pattern: Vec<u8>,
}

impl Default for FisheyeSchedule {
    fn default() -> Self {
        FisheyeSchedule {
            pattern: vec![2, 2, 2, 255],
        }
    }
}

/// The interposer's S element: the position in the ring schedule.
#[derive(Debug, Clone, Default)]
pub struct FisheyeState {
    /// TCs processed so far.
    pub counter: u64,
}

#[derive(Clone)]
struct FisheyeHandler {
    schedule: FisheyeSchedule,
}

impl EventHandler for FisheyeHandler {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "fisheye-handler"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![types::tc_out()]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let Some(msg) = event.message() else { return };
        let s = state.get_mut::<FisheyeState>();
        let hop_limit = self.schedule.pattern[s.counter as usize % self.schedule.pattern.len()];
        s.counter += 1;
        let scoped = msg.with_hop_limit(hop_limit);
        ctx.os().bump("fisheye_scoped");
        ctx.emit(Event {
            ty: types::tc_out(),
            payload: Payload::Message(Arc::new(scoped)),
            meta: event.meta.clone(),
        });
    }
}

/// Builds the fisheye interposer CF.
///
/// # Panics
///
/// Panics when the schedule pattern is empty.
#[must_use]
pub fn fisheye_cf(schedule: FisheyeSchedule) -> ManetProtocolCf {
    assert!(
        !schedule.pattern.is_empty(),
        "fisheye pattern must be non-empty"
    );
    ManetProtocolCf::builder(FISHEYE_CF)
        .tuple(
            EventTuple::new()
                .requires(types::tc_out())
                .provides(types::tc_out()),
        )
        .state(StateSlot::new(FisheyeState::default()))
        .handler(Box::new(FisheyeHandler { schedule }))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::NodeId;
    use packetbb::Address;

    #[test]
    fn rewrites_hop_limits_per_schedule() {
        let mut cf = fisheye_cf(FisheyeSchedule {
            pattern: vec![1, 255],
        });
        let mut os = netsim::NodeOs::standalone(NodeId(0), Address::v4([10, 0, 0, 1]));
        let msg = crate::olsr::build_tc(
            Address::v4([10, 0, 0, 1]),
            1,
            1,
            netsim::SimDuration::from_secs(15),
            &[Address::v4([10, 0, 0, 2])],
            255,
        );
        let mut limits = Vec::new();
        for _ in 0..4 {
            let mut ctx = ProtoCtx::new(&mut os, FISHEYE_CF);
            cf.deliver(&Event::message_out(types::tc_out(), msg.clone()), &mut ctx);
            let out = ctx.take_outputs();
            limits.push(out.emitted[0].message().unwrap().hop_limit().unwrap());
        }
        assert_eq!(limits, vec![1, 255, 1, 255]);
    }

    #[test]
    fn tuple_declares_interposition() {
        let cf = fisheye_cf(FisheyeSchedule::default());
        assert!(cf.tuple().is_interposer(&types::tc_out()));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pattern_rejected() {
        let _ = fisheye_cf(FisheyeSchedule { pattern: vec![] });
    }
}
