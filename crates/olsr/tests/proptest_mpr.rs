//! Property-based tests of MPR selection: for arbitrary neighbourhoods the
//! selected relay set must cover every coverable strict 2-hop node, never
//! select ineligible neighbours, and be deterministic.

use std::collections::BTreeSet;

use manetkit::neighbour::LinkSet;
use manetkit_olsr::mpr::{select_mprs, LinkInfo, MprCalculator, MprState};
use netsim::SimTime;
use packetbb::registry::willingness;
use packetbb::Address;
use proptest::prelude::*;

fn addr(n: u8) -> Address {
    Address::v4([10, 0, 0, n])
}

#[derive(Debug, Clone)]
struct Hood {
    /// (id, symmetric, willingness, two-hop ids)
    neighbours: Vec<(u8, bool, u8, Vec<u8>)>,
}

fn arb_hood() -> impl Strategy<Value = Hood> {
    proptest::collection::vec(
        (
            2u8..30,
            any::<bool>(),
            prop_oneof![
                Just(willingness::NEVER),
                Just(willingness::LOW),
                Just(willingness::DEFAULT),
                Just(willingness::HIGH),
                Just(willingness::ALWAYS)
            ],
            proptest::collection::vec(30u8..60, 0..5),
        ),
        0..10,
    )
    .prop_map(|mut neighbours| {
        // Unique neighbour ids.
        neighbours.sort_by_key(|(id, ..)| *id);
        neighbours.dedup_by_key(|(id, ..)| *id);
        Hood { neighbours }
    })
}

fn state_of(hood: &Hood) -> MprState {
    let mut s = MprState::default();
    for (id, sym, will, two_hop) in &hood.neighbours {
        s.links.insert(
            addr(*id),
            LinkInfo {
                last_heard: SimTime::ZERO,
                symmetric: *sym,
                willingness: *will,
                // Sorted and deduplicated, as the HELLO handler keeps it.
                two_hop: two_hop
                    .iter()
                    .map(|n| addr(*n))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect(),
                quality: 1.0,
                hyst_pending: false,
                residual_energy: 0.5,
            },
        );
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every strict 2-hop node that *can* be covered by an eligible
    /// neighbour is covered by the selected MPR set.
    #[test]
    fn coverage_invariant(hood in arb_hood()) {
        let local = addr(1);
        let s = state_of(&hood);
        for calc in [MprCalculator::Standard, MprCalculator::PowerAware] {
            let mprs = select_mprs(&s, local, calc);
            // Eligible neighbours.
            let eligible: BTreeSet<Address> = s
                .links
                .iter()
                .filter(|(_, l)| {
                    l.symmetric && l.willingness != willingness::NEVER
                })
                .map(|(a, _)| *a)
                .collect();
            let sym: BTreeSet<Address> = s.symmetric().into_iter().collect();
            // Strict 2-hop nodes and who can cover them.
            for (nb, l) in &s.links {
                if !eligible.contains(nb) {
                    continue;
                }
                for th in &l.two_hop {
                    if *th == local || sym.contains(th) {
                        continue;
                    }
                    let coverable = s
                        .links
                        .iter()
                        .any(|(c, cl)| eligible.contains(c) && cl.two_hop.contains(th));
                    if coverable {
                        let covered = s.links.iter().any(|(c, cl)| {
                            mprs.contains(c) && cl.two_hop.contains(th)
                        });
                        prop_assert!(covered, "{th} uncovered by {mprs:?} ({calc:?})");
                    }
                }
            }
        }
    }

    /// Selected relays are always symmetric and willing.
    #[test]
    fn only_eligible_neighbours_selected(hood in arb_hood()) {
        let s = state_of(&hood);
        let mprs = select_mprs(&s, addr(1), MprCalculator::Standard);
        for m in &mprs {
            let l = &s.links[m];
            prop_assert!(l.symmetric);
            prop_assert!(l.willingness != willingness::NEVER);
        }
    }

    /// WILL_ALWAYS symmetric neighbours are always in the set.
    #[test]
    fn will_always_always_selected(hood in arb_hood()) {
        let s = state_of(&hood);
        let mprs = select_mprs(&s, addr(1), MprCalculator::Standard);
        for (a, l) in &s.links {
            if l.symmetric && l.willingness == willingness::ALWAYS {
                prop_assert!(mprs.contains(a));
            }
        }
    }

    /// Selection is deterministic.
    #[test]
    fn selection_is_deterministic(hood in arb_hood()) {
        let s = state_of(&hood);
        let a = select_mprs(&s, addr(1), MprCalculator::Standard);
        let b = select_mprs(&s, addr(1), MprCalculator::Standard);
        prop_assert_eq!(a, b);
    }
}
