//! The Framework Manager: declarative event wiring between CFS units.
//!
//! Units (protocol CFs and the System CF) register their
//! [`EventTuple`]s; the manager derives the routing graph: for each event
//! type, which units receive it, honouring exclusive receive, interposition
//! chains and loop avoidance (§4.2). Changing a tuple at runtime re-derives
//! the wiring — the paper's "declarative automatic dynamic reconfiguration".
//!
//! The manager also hosts the *context concentrator*: a façade collecting
//! the most recent context readings for higher-level decision-making
//! software (§4.5).

use std::collections::HashMap;

use crate::event::{ContextValue, EventType};
use crate::registry::EventTuple;
use crate::smallvec::SmallVec;

/// Index of a registered unit (stable across rewires, not across
/// unregister).
pub type UnitId = usize;

/// Inline capacity of per-type recipient lists: most event types have one or
/// two recipients, so four inline slots keep the whole routing table
/// allocation-free for typical deployments.
const INLINE_UNITS: usize = 4;

#[derive(Debug, Clone)]
struct UnitDecl {
    name: String,
    tuple: EventTuple,
    active: bool,
}

#[derive(Debug, Clone, Default)]
struct Wiring {
    /// Units that provide-and-require the type, in registration order.
    interposers: SmallVec<UnitId, INLINE_UNITS>,
    /// The exclusive consumer, if any (first registered wins).
    exclusive: Option<UnitId>,
    /// Plain consumers in registration order (excluding interposers).
    consumers: SmallVec<UnitId, INLINE_UNITS>,
}

impl Wiring {
    fn is_empty(&self) -> bool {
        self.interposers.is_empty() && self.exclusive.is_none() && self.consumers.is_empty()
    }
}

/// Derives and maintains the event routing graph from unit tuples.
///
/// The routing table is *dense*: `wiring[ty.id()]` holds the precomputed
/// recipient lists for event type `ty`. It is rebuilt only when the unit set
/// or a tuple changes ([`FrameworkManager::rewire`]) — per-dispatch routing
/// is a bounds-checked index, no hashing and no allocation
/// ([`FrameworkManager::route_for_each`]).
#[derive(Debug, Clone, Default)]
pub struct FrameworkManager {
    units: Vec<UnitDecl>,
    /// Dense routing table indexed by [`EventType::id`]. Types interned
    /// after the last rewire (or absent from every tuple) simply fall
    /// outside the table / hold an empty entry — both mean "no recipients".
    wiring: Vec<Wiring>,
    rewires: u64,
    context: HashMap<String, ContextValue>,
}

impl FrameworkManager {
    /// An empty manager.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a unit with its event tuple; returns its id.
    ///
    /// Registration order is stack order: earlier units are "lower" and win
    /// exclusive-consumer ties.
    pub fn register(&mut self, name: impl Into<String>, tuple: EventTuple) -> UnitId {
        let id = self.units.len();
        self.units.push(UnitDecl {
            name: name.into(),
            tuple,
            active: true,
        });
        self.rewire();
        id
    }

    /// Replaces a unit's tuple and rewires (declarative reconfiguration).
    ///
    /// # Panics
    ///
    /// Panics when `id` was never registered.
    pub fn update_tuple(&mut self, id: UnitId, tuple: EventTuple) {
        self.units[id].tuple = tuple;
        self.rewire();
    }

    /// Deactivates a unit (its wiring disappears; the id remains valid).
    ///
    /// # Panics
    ///
    /// Panics when `id` was never registered.
    pub fn deactivate(&mut self, id: UnitId) {
        self.units[id].active = false;
        self.rewire();
    }

    /// Reactivates a previously deactivated unit.
    ///
    /// # Panics
    ///
    /// Panics when `id` was never registered.
    pub fn reactivate(&mut self, id: UnitId) {
        self.units[id].active = true;
        self.rewire();
    }

    /// The unit's registered name.
    #[must_use]
    pub fn unit_name(&self, id: UnitId) -> Option<&str> {
        self.units.get(id).map(|u| u.name.as_str())
    }

    /// Finds a unit id by name.
    #[must_use]
    pub fn unit_named(&self, name: &str) -> Option<UnitId> {
        self.units.iter().position(|u| u.active && u.name == name)
    }

    /// The unit's current tuple.
    #[must_use]
    pub fn tuple(&self, id: UnitId) -> Option<&EventTuple> {
        self.units.get(id).map(|u| &u.tuple)
    }

    /// How many times the wiring has been re-derived (observability).
    #[must_use]
    pub fn rewire_count(&self) -> u64 {
        self.rewires
    }

    /// Recomputes the dense routing table from the current tuples.
    ///
    /// This is the *only* place the table is built; dispatch never touches
    /// it mutably. Cost is O(units × tuple size) and is paid on register /
    /// update / (de)activate — i.e. on deployment and reconfiguration, not
    /// per event.
    pub fn rewire(&mut self) {
        self.rewires += 1;
        // Size the table to the highest required event id; ids are dense so
        // this is at most the process-wide intern count.
        let table_len = self
            .units
            .iter()
            .filter(|u| u.active)
            .flat_map(|u| u.tuple.required.iter())
            .map(|ty| ty.id() as usize + 1)
            .max()
            .unwrap_or(0);
        let mut wiring = vec![Wiring::default(); table_len];
        for (id, unit) in self.units.iter().enumerate() {
            if !unit.active {
                continue;
            }
            for ty in &unit.tuple.required {
                let w = &mut wiring[ty.id() as usize];
                if unit.tuple.is_interposer(ty) {
                    w.interposers.push(id);
                } else if unit.tuple.is_exclusive(ty) {
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
    /// 1. Interposers for `ty` form a chain in registration order. An event
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
mod tests {
    use super::*;
    use crate::event::types;

    fn manager_with(units: Vec<(&str, EventTuple)>) -> FrameworkManager {
        let mut m = FrameworkManager::new();
        for (name, tuple) in units {
            m.register(name, tuple);
        }
        m
    }

    #[test]
    fn provider_to_consumer() {
        let m = manager_with(vec![
            ("system", EventTuple::new().provides(types::tc_in())),
            ("olsr", EventTuple::new().requires(types::tc_in())),
        ]);
        assert_eq!(m.route(&types::tc_in(), Some(0)), vec![1]);
        assert!(m.route(&types::tc_out(), Some(0)).is_empty());
    }

    #[test]
    fn broadcast_to_multiple_consumers() {
        let m = manager_with(vec![
            ("system", EventTuple::new().provides(types::hello_in())),
            ("mpr", EventTuple::new().requires(types::hello_in())),
            ("sniffer", EventTuple::new().requires(types::hello_in())),
        ]);
        assert_eq!(m.route(&types::hello_in(), Some(0)), vec![1, 2]);
    }

    #[test]
    fn loop_avoidance_excludes_origin() {
        // Unit both provides and requires NHOOD_CHANGE but is not counted an
        // interposer for its own emissions.
        let m = manager_with(vec![
            ("a", EventTuple::new().provides(types::nhood_change())),
            ("b", EventTuple::new().requires(types::nhood_change())),
        ]);
        assert_eq!(m.route(&types::nhood_change(), Some(0)), vec![1]);
        // b emitting (hypothetically) must not deliver to itself.
        assert!(m.route(&types::nhood_change(), Some(1)).is_empty());
    }

    #[test]
    fn exclusive_consumer_wins() {
        let m = manager_with(vec![
            ("olsr", EventTuple::new().provides(types::tc_out())),
            ("mpr", EventTuple::new().requires_exclusive(types::tc_out())),
            ("driver", EventTuple::new().requires(types::tc_out())),
        ]);
        assert_eq!(m.route(&types::tc_out(), Some(0)), vec![1]);
    }

    #[test]
    fn interposer_chain() {
        let mut m = manager_with(vec![
            ("olsr", EventTuple::new().provides(types::tc_out())),
            ("mpr", EventTuple::new().requires_exclusive(types::tc_out())),
        ]);
        // Without the interposer, TC_OUT flows olsr -> mpr.
        assert_eq!(m.route(&types::tc_out(), Some(0)), vec![1]);
        // Insert fisheye: requires and provides TC_OUT.
        let fisheye = m.register(
            "fisheye",
            EventTuple::new()
                .requires(types::tc_out())
                .provides(types::tc_out()),
        );
        // Now olsr -> fisheye -> mpr.
        assert_eq!(m.route(&types::tc_out(), Some(0)), vec![fisheye]);
        assert_eq!(m.route(&types::tc_out(), Some(fisheye)), vec![1]);
    }

    #[test]
    fn two_interposers_chain_in_order() {
        let m = manager_with(vec![
            ("p", EventTuple::new().provides(types::tc_out())),
            (
                "i1",
                EventTuple::new()
                    .requires(types::tc_out())
                    .provides(types::tc_out()),
            ),
            (
                "i2",
                EventTuple::new()
                    .requires(types::tc_out())
                    .provides(types::tc_out()),
            ),
            ("sink", EventTuple::new().requires(types::tc_out())),
        ]);
        assert_eq!(m.route(&types::tc_out(), Some(0)), vec![1]);
        assert_eq!(m.route(&types::tc_out(), Some(1)), vec![2]);
        assert_eq!(m.route(&types::tc_out(), Some(2)), vec![3]);
    }

    #[test]
    fn tuple_update_rewires() {
        let mut m = manager_with(vec![
            ("p", EventTuple::new().provides(types::re_out())),
            ("sink", EventTuple::new().requires(types::re_out())),
        ]);
        let before = m.rewire_count();
        m.update_tuple(1, EventTuple::new());
        assert!(m.rewire_count() > before);
        assert!(m.route(&types::re_out(), Some(0)).is_empty());
    }

    #[test]
    fn deactivate_removes_from_wiring() {
        let mut m = manager_with(vec![
            ("p", EventTuple::new().provides(types::re_out())),
            ("sink", EventTuple::new().requires(types::re_out())),
        ]);
        m.deactivate(1);
        assert!(m.route(&types::re_out(), Some(0)).is_empty());
        assert_eq!(m.unit_named("sink"), None);
        m.reactivate(1);
        assert_eq!(m.route(&types::re_out(), Some(0)), vec![1]);
    }

    #[test]
    fn routing_is_read_only_between_rewires() {
        let m = manager_with(vec![
            ("system", EventTuple::new().provides(types::hello_in())),
            ("mpr", EventTuple::new().requires(types::hello_in())),
            ("sniffer", EventTuple::new().requires(types::hello_in())),
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
