//! The Framework Manager: declarative event wiring between CFS units.
//!
//! The manager derives the routing graph from the live units'
//! [`EventTuple`]s: for each event type, which units receive it, honouring
//! exclusive receive, interposition chains and loop avoidance (§4.2). It
//! keeps no record of the units themselves — the deployment's slots are
//! the composition, and every change to them (a protocol deployed,
//! removed or re-declared, a System CF reload) hands the live units to
//! [`FrameworkManager::rewire`] again: the paper's "declarative automatic
//! dynamic reconfiguration".
//!
//! The manager also hosts the *context concentrator*: a façade collecting
//! the most recent context readings for higher-level decision-making
//! software (§4.5).

use std::collections::HashMap;

use crate::event::{ContextValue, EventType};
use crate::registry::EventTuple;
use crate::smallvec::SmallVec;

/// A unit's id: the System CF's, or one a deployment gave a protocol when
/// it was deployed. A deployment never reuses an id.
pub type UnitId = usize;

/// Inline capacity of per-type recipient lists: most event types have one or
/// two recipients, so four inline slots keep the whole routing table
/// allocation-free for typical deployments.
const INLINE_UNITS: usize = 4;

#[derive(Debug, Clone, Default)]
struct Wiring {
    /// Units that provide-and-require the type, in unit-id order.
    interposers: SmallVec<UnitId, INLINE_UNITS>,
    /// The exclusive consumer, if any (the lowest unit id wins).
    exclusive: Option<UnitId>,
    /// Plain consumers in unit-id order (excluding interposers).
    consumers: SmallVec<UnitId, INLINE_UNITS>,
}

impl Wiring {
    fn is_empty(&self) -> bool {
        self.interposers.is_empty() && self.exclusive.is_none() && self.consumers.is_empty()
    }
}

/// Derives the event routing graph from unit tuples.
///
/// The routing table is *dense*: `wiring[ty.id()]` holds the precomputed
/// recipient lists for event type `ty`. It is rebuilt only when the
/// deployment's units or their tuples change ([`FrameworkManager::rewire`])
/// — per-dispatch routing is a bounds-checked index, no hashing and no
/// allocation ([`FrameworkManager::route_for_each`]).
#[derive(Debug, Clone, Default)]
pub struct FrameworkManager {
    /// Dense routing table indexed by [`EventType::id`]. Types interned
    /// after the last rewire (or absent from every tuple) simply fall
    /// outside the table / hold an empty entry — both mean "no recipients".
    wiring: Vec<Wiring>,
    rewires: u64,
    context: HashMap<String, ContextValue>,
}

impl FrameworkManager {
    /// An empty manager: no unit receives anything.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// How many times the wiring has been re-derived (observability).
    #[must_use]
    pub fn rewire_count(&self) -> u64 {
        self.rewires
    }

    /// Rebuilds the dense routing table from the live units and their
    /// tuples; a unit left out receives nothing.
    ///
    /// Units are wired in unit-id order, whatever order they come in: an
    /// interposer chain runs from the lowest id up, and the lowest id wins
    /// an exclusive-consumer tie. Ids follow deployment order, so a
    /// protocol reinstated by a rollback — back in its old stack position
    /// under a new, highest id — is wired after every other unit.
    ///
    /// This is the *only* place the table is built; dispatch never touches
    /// it mutably. Cost is O(units × tuple size), paid on deployment and
    /// reconfiguration, not per event.
    pub fn rewire<'a>(&mut self, units: impl IntoIterator<Item = (UnitId, &'a EventTuple)>) {
        self.rewires += 1;
        let mut units: Vec<(UnitId, &EventTuple)> = units.into_iter().collect();
        units.sort_unstable_by_key(|&(id, _)| id);
        // Size the table to the highest required event id; ids are dense so
        // this is at most the process-wide intern count.
        let table_len = units
            .iter()
            .flat_map(|(_, tuple)| tuple.required.iter())
            .map(|ty| ty.id() as usize + 1)
            .max()
            .unwrap_or(0);
        let mut wiring = vec![Wiring::default(); table_len];
        for (id, tuple) in units {
            for ty in &tuple.required {
                let w = &mut wiring[ty.id() as usize];
                if tuple.is_interposer(ty) {
                    w.interposers.push(id);
                } else if tuple.is_exclusive(ty) {
                    if w.exclusive.is_none() {
                        w.exclusive = Some(id);
                    }
                } else {
                    w.consumers.push(id);
                }
            }
        }
        self.wiring = wiring;
    }

    /// Computes the recipients of an event of type `ty` emitted by `origin`
    /// (`None` when the System CF or external code emitted it).
    ///
    /// Routing semantics:
    ///
    /// 1. Interposers for `ty` form a chain in unit-id order. An event
    ///    enters the chain at the start — or, when the origin is itself an
    ///    interposer, just after the origin's position — and is delivered to
    ///    the *next* interposer only.
    /// 2. Past the chain, an exclusive consumer (if any) receives the event
    ///    alone.
    /// 3. Otherwise all plain consumers receive it ("broadcast"
    ///    propagation), excluding the origin (loop avoidance).
    #[must_use]
    pub fn route(&self, ty: &EventType, origin: Option<UnitId>) -> Vec<UnitId> {
        let mut out = Vec::new();
        self.route_for_each(*ty, origin, |id| out.push(id));
        out
    }

    /// Visits the recipients of an event of type `ty` emitted by `origin`
    /// without allocating — the hot-path variant of
    /// [`FrameworkManager::route`]. Recipients are visited in the same order
    /// `route` would return them.
    pub fn route_for_each(
        &self,
        ty: EventType,
        origin: Option<UnitId>,
        mut visit: impl FnMut(UnitId),
    ) {
        let Some(w) = self.wiring.get(ty.id() as usize) else {
            return;
        };
        if w.is_empty() {
            return;
        }
        // Position in the interposer chain to resume after.
        let chain_start = match origin {
            Some(o) => match w.interposers.iter().position(|i| *i == o) {
                Some(pos) => pos + 1,
                None => 0,
            },
            None => 0,
        };
        if let Some(next) = w.interposers.as_slice().get(chain_start) {
            if Some(*next) != origin {
                visit(*next);
                return;
            }
        }
        if let Some(x) = w.exclusive {
            if Some(x) != origin {
                visit(x);
                return;
            }
        }
        for c in &w.consumers {
            if Some(*c) != origin {
                visit(*c);
            }
        }
    }

    /// Number of recipients `route` would return, without allocating.
    #[must_use]
    pub fn route_count(&self, ty: EventType, origin: Option<UnitId>) -> usize {
        let mut n = 0;
        self.route_for_each(ty, origin, |_| n += 1);
        n
    }

    // ---- context concentrator ---------------------------------------------

    /// Records a context reading (called by the deployment as context events
    /// flow).
    pub fn record_context(&mut self, source: &str, value: ContextValue) {
        // Overwrite in place when the source is known: context events flow
        // on the dispatch hot path, and re-inserting would allocate a fresh
        // key `String` per reading.
        if let Some(slot) = self.context.get_mut(source) {
            *slot = value;
        } else {
            self.context.insert(source.to_string(), value);
        }
    }

    /// The most recent context reading from `source`, if any.
    #[must_use]
    pub fn latest_context(&self, source: &str) -> Option<&ContextValue> {
        self.context.get(source)
    }

    /// All current context readings (the façade for decision software).
    #[must_use]
    pub fn context_snapshot(&self) -> &HashMap<String, ContextValue> {
        &self.context
    }
}

#[cfg(test)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::types;

    /// A manager wired from `tuples`, unit `i` holding `tuples[i]`.
    fn manager_with(tuples: &[EventTuple]) -> FrameworkManager {
        let mut m = FrameworkManager::new();
        m.rewire(tuples.iter().enumerate());
        m
    }

    #[test]
    fn provider_to_consumer() {
        let m = manager_with(&[
            EventTuple::new().provides(types::tc_in()),
            EventTuple::new().requires(types::tc_in()),
        ]);
        assert_eq!(m.route(&types::tc_in(), Some(0)), vec![1]);
        assert!(m.route(&types::tc_out(), Some(0)).is_empty());
    }

    #[test]
    fn broadcast_to_multiple_consumers() {
        let m = manager_with(&[
            EventTuple::new().provides(types::hello_in()),
            EventTuple::new().requires(types::hello_in()),
            EventTuple::new().requires(types::hello_in()),
        ]);
        assert_eq!(m.route(&types::hello_in(), Some(0)), vec![1, 2]);
    }

    #[test]
    fn loop_avoidance_excludes_origin() {
        // Unit both provides and requires NHOOD_CHANGE but is not counted an
        // interposer for its own emissions.
        let m = manager_with(&[
            EventTuple::new().provides(types::nhood_change()),
            EventTuple::new().requires(types::nhood_change()),
        ]);
        assert_eq!(m.route(&types::nhood_change(), Some(0)), vec![1]);
        // b emitting (hypothetically) must not deliver to itself.
        assert!(m.route(&types::nhood_change(), Some(1)).is_empty());
    }

    #[test]
    fn exclusive_consumer_wins() {
        let m = manager_with(&[
            EventTuple::new().provides(types::tc_out()),
            EventTuple::new().requires_exclusive(types::tc_out()),
            EventTuple::new().requires(types::tc_out()),
        ]);
        assert_eq!(m.route(&types::tc_out(), Some(0)), vec![1]);
    }

    #[test]
    fn interposer_chain() {
        let olsr = EventTuple::new().provides(types::tc_out());
        let mpr = EventTuple::new().requires_exclusive(types::tc_out());
        let mut m = manager_with(&[olsr.clone(), mpr.clone()]);
        // Without the interposer, TC_OUT flows olsr -> mpr.
        assert_eq!(m.route(&types::tc_out(), Some(0)), vec![1]);
        // Insert fisheye: requires and provides TC_OUT.
        let fisheye = EventTuple::new()
            .requires(types::tc_out())
            .provides(types::tc_out());
        m.rewire([(0, &olsr), (1, &mpr), (2, &fisheye)]);
        // Now olsr -> fisheye -> mpr.
        assert_eq!(m.route(&types::tc_out(), Some(0)), vec![2]);
        assert_eq!(m.route(&types::tc_out(), Some(2)), vec![1]);
    }

    #[test]
    fn two_interposers_chain_in_order() {
        let interposer = EventTuple::new()
            .requires(types::tc_out())
            .provides(types::tc_out());
        let m = manager_with(&[
            EventTuple::new().provides(types::tc_out()),
            interposer.clone(),
            interposer,
            EventTuple::new().requires(types::tc_out()),
        ]);
        assert_eq!(m.route(&types::tc_out(), Some(0)), vec![1]);
        assert_eq!(m.route(&types::tc_out(), Some(1)), vec![2]);
        assert_eq!(m.route(&types::tc_out(), Some(2)), vec![3]);
    }

    #[test]
    fn wiring_follows_unit_ids_not_the_order_units_come_in() {
        let provider = EventTuple::new().provides(types::tc_out());
        let interposer = EventTuple::new()
            .requires(types::tc_out())
            .provides(types::tc_out());
        let exclusive = EventTuple::new().requires_exclusive(types::tc_out());
        let mut m = FrameworkManager::new();
        // Stack order 0, 7, 3, 9, 5: the chain and the tie follow the ids.
        m.rewire([
            (0, &provider),
            (7, &interposer),
            (3, &interposer),
            (9, &exclusive),
            (5, &exclusive),
        ]);
        assert_eq!(m.route(&types::tc_out(), Some(0)), vec![3]);
        assert_eq!(m.route(&types::tc_out(), Some(3)), vec![7]);
        assert_eq!(m.route(&types::tc_out(), Some(7)), vec![5]);
    }

    #[test]
    fn a_rewire_without_a_unit_drops_its_wiring() {
        let provider = EventTuple::new().provides(types::re_out());
        let sink = EventTuple::new().requires(types::re_out());
        let mut m = manager_with(&[provider.clone(), sink.clone()]);
        let before = m.rewire_count();
        m.rewire([(0, &provider)]);
        assert!(m.rewire_count() > before);
        assert!(m.route(&types::re_out(), Some(0)).is_empty());
        m.rewire([(0, &provider), (1, &sink)]);
        assert_eq!(m.route(&types::re_out(), Some(0)), vec![1]);
    }

    #[test]
    fn routing_is_read_only_between_rewires() {
        let m = manager_with(&[
            EventTuple::new().provides(types::hello_in()),
            EventTuple::new().requires(types::hello_in()),
            EventTuple::new().requires(types::hello_in()),
        ]);
        let rewires = m.rewire_count();
        // Routing — including for types the table has never seen — must not
        // rebuild anything.
        for _ in 0..100 {
            let mut seen = Vec::new();
            m.route_for_each(types::hello_in(), Some(0), |id| seen.push(id));
            assert_eq!(seen, vec![1, 2]);
            assert_eq!(m.route_count(types::hello_in(), Some(0)), 2);
            m.route_for_each(EventType::named("__NEVER_WIRED"), None, |_| {
                panic!("no recipients expected")
            });
        }
        assert_eq!(m.rewire_count(), rewires);
    }

    #[test]
    fn context_concentrator() {
        let mut m = FrameworkManager::new();
        assert!(m.latest_context("battery").is_none());
        m.record_context("battery", ContextValue::Battery(0.8));
        m.record_context("battery", ContextValue::Battery(0.7));
        assert_eq!(
            m.latest_context("battery"),
            Some(&ContextValue::Battery(0.7))
        );
        assert_eq!(m.context_snapshot().len(), 1);
    }
}
