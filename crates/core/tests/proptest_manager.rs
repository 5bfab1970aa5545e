//! Property-based tests of the Framework Manager's routing invariants:
//! whatever tuples protocols declare, loop avoidance, exclusivity and
//! interposer-chain termination must hold.

use manetkit::event::EventType;
use manetkit::manager::FrameworkManager;
use manetkit::registry::EventTuple;
use proptest::prelude::*;

const TYPES: [&str; 4] = ["A_OUT", "B_OUT", "C_IN", "D_CHANGE"];

#[derive(Debug, Clone)]
struct UnitSpec {
    required: Vec<usize>,
    provided: Vec<usize>,
    exclusive: Vec<usize>,
}

fn arb_unit() -> impl Strategy<Value = UnitSpec> {
    (
        proptest::collection::vec(0..TYPES.len(), 0..4),
        proptest::collection::vec(0..TYPES.len(), 0..4),
        proptest::collection::vec(0..TYPES.len(), 0..2),
    )
        .prop_map(|(required, provided, exclusive)| UnitSpec {
            required,
            provided,
            exclusive,
        })
}

fn tuples(units: &[UnitSpec]) -> Vec<EventTuple> {
    units
        .iter()
        .map(|u| {
            let mut t = EventTuple::new();
            for r in &u.required {
                t = t.requires(EventType::named(TYPES[*r]));
            }
            for p in &u.provided {
                t = t.provides(EventType::named(TYPES[*p]));
            }
            for x in &u.exclusive {
                t = t.requires_exclusive(EventType::named(TYPES[*x]));
            }
            t
        })
        .collect()
}

/// The manager wired from `tuples`, unit `i` holding `tuples[i]`.
fn build_manager(tuples: &[EventTuple]) -> FrameworkManager {
    let mut m = FrameworkManager::new();
    m.rewire(tuples.iter().enumerate());
    m
}

/// Every routing decision over `units` units: per type and origin.
fn routes(m: &FrameworkManager, units: usize) -> Vec<Vec<usize>> {
    TYPES
        .iter()
        .flat_map(|t| (0..units).map(move |o| m.route(&EventType::named(t), Some(o))))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// An emitter never receives its own event (loop avoidance).
    #[test]
    fn never_routes_back_to_origin(units in proptest::collection::vec(arb_unit(), 1..8)) {
        let t = tuples(&units);
        let m = build_manager(&t);
        for ty in TYPES {
            let ty = EventType::named(ty);
            for origin in 0..units.len() {
                let recipients = m.route(&ty, Some(origin));
                prop_assert!(!recipients.contains(&origin), "{ty} routed back to {origin}");
            }
        }
    }

    /// Recipients always actually require the type.
    #[test]
    fn recipients_require_the_type(units in proptest::collection::vec(arb_unit(), 1..8)) {
        let t = tuples(&units);
        let m = build_manager(&t);
        for ty in TYPES {
            let ty = EventType::named(ty);
            for origin in 0..units.len() {
                for r in m.route(&ty, Some(origin)) {
                    prop_assert!(
                        t[r].is_required(&ty),
                        "unit {r} got {ty} without requiring it"
                    );
                }
            }
        }
    }

    /// Following the routing repeatedly always terminates: an event can
    /// visit each unit at most once along an interposer chain.
    #[test]
    fn interposer_chains_terminate(units in proptest::collection::vec(arb_unit(), 1..8)) {
        let t = tuples(&units);
        let m = build_manager(&t);
        for ty in TYPES {
            let ty = EventType::named(ty);
            for start in 0..units.len() {
                let mut origin = Some(start);
                let mut hops = 0;
                loop {
                    let next = m.route(&ty, origin);
                    // Chain step: single interposer recipient that provides
                    // the type again.
                    match next.as_slice() {
                        [one] if t[*one].is_interposer(&ty) => {
                            origin = Some(*one);
                            hops += 1;
                            prop_assert!(
                                hops <= units.len(),
                                "interposer chain for {ty} did not terminate"
                            );
                        }
                        _ => break,
                    }
                }
            }
        }
    }

    /// With no interposers for a type, an exclusive consumer receives alone.
    #[test]
    fn exclusivity_is_exclusive(units in proptest::collection::vec(arb_unit(), 1..8)) {
        let t = tuples(&units);
        let m = build_manager(&t);
        for ty in TYPES {
            let ty = EventType::named(ty);
            let has_interposer =
                (0..units.len()).any(|i| t[i].is_interposer(&ty));
            if has_interposer {
                continue;
            }
            let exclusives: Vec<usize> = (0..units.len())
                .filter(|i| t[*i].is_exclusive(&ty))
                .collect();
            if exclusives.is_empty() {
                continue;
            }
            for origin in 0..units.len() {
                if exclusives.contains(&origin) {
                    // The exclusive consumer emitting the type itself passes
                    // it onward to the plain consumers (loop avoidance only
                    // excludes the origin).
                    continue;
                }
                let recipients = m.route(&ty, Some(origin));
                if recipients.is_empty() {
                    continue;
                }
                prop_assert_eq!(
                    recipients.len(),
                    1,
                    "exclusive consumer for {} must receive alone",
                    ty
                );
                prop_assert!(exclusives.contains(&recipients[0]));
            }
        }
    }

    /// Rewiring without a unit and then with it again round-trips the
    /// wiring exactly.
    #[test]
    fn dropping_and_restoring_a_unit_round_trips(units in proptest::collection::vec(arb_unit(), 2..8)) {
        let t = tuples(&units);
        let mut m = build_manager(&t);
        let snapshot = routes(&m, units.len());
        m.rewire(t.iter().enumerate().filter(|&(i, _)| i != 1));
        m.rewire(t.iter().enumerate());
        prop_assert_eq!(snapshot, routes(&m, units.len()));
    }

    /// The wiring depends on the unit ids, not on the order the units are
    /// handed over in: a stack whose order differs from its id order (a
    /// protocol reinstated by a rollback) routes as the id order does.
    #[test]
    fn wiring_ignores_the_order_units_come_in(
        units in proptest::collection::vec(arb_unit(), 2..8),
        rotate in 0usize..8,
    ) {
        let t = tuples(&units);
        let by_id = build_manager(&t);
        let mut stack: Vec<(usize, &EventTuple)> = t.iter().enumerate().collect();
        stack.rotate_left(rotate % units.len());
        stack.reverse();
        let mut m = FrameworkManager::new();
        m.rewire(stack);
        prop_assert_eq!(routes(&by_id, units.len()), routes(&m, units.len()));
    }
}
