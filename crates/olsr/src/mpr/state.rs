//! The MPR CF's S element: link set, 2-hop set, MPR selection.

use std::collections::{BTreeMap, BTreeSet};

use manetkit::neighbour::{LinkSet, SeenFloods};
use netsim::{SimDuration, SimTime};
use packetbb::registry::willingness;
use packetbb::Address;

/// Per-neighbour link record.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkInfo {
    /// Last HELLO heard from this neighbour.
    pub last_heard: SimTime,
    /// Whether the link is verified bidirectional (eligible for routing
    /// and MPR selection) rather than only heard.
    pub symmetric: bool,
    /// The neighbour's advertised willingness to relay.
    pub willingness: u8,
    /// The neighbour's symmetric neighbours (our 2-hop set through it),
    /// sorted and deduplicated.
    pub two_hop: Vec<Address>,
    /// Link-hysteresis quality estimate in `[0, 1]`.
    pub quality: f64,
    /// Hysteresis gate: a pending link stays non-symmetric until quality
    /// recovers above the accept threshold.
    pub hyst_pending: bool,
    /// The neighbour's residual energy (power-aware variant), `[0, 1]`.
    pub residual_energy: f64,
}

/// Link-hysteresis parameters (RFC 3626 §14; disabled when
/// `scaling == 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hysteresis {
    /// Exponential smoothing factor per HELLO event.
    pub scaling: f64,
    /// Quality above which a pending link becomes usable.
    pub accept: f64,
    /// Quality below which a link becomes pending.
    pub reject: f64,
}

impl Hysteresis {
    /// Hysteresis disabled: one HELLO makes a link usable.
    #[must_use]
    pub fn off() -> Self {
        Hysteresis {
            scaling: 0.0,
            accept: 0.0,
            reject: 0.0,
        }
    }

    /// The RFC 3626 defaults.
    #[must_use]
    pub fn rfc_default() -> Self {
        Hysteresis {
            scaling: 0.5,
            accept: 0.8,
            reject: 0.3,
        }
    }

    /// Whether hysteresis is active.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.scaling > 0.0
    }
}

/// Which relay-selection calculator is plugged in (the paper's "MPR
/// Calculator" component).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MprCalculator {
    /// Greedy coverage, tie-broken by willingness then degree (RFC 3626).
    #[default]
    Standard,
    /// Power-aware: residual energy dominates tie-breaking, so drained
    /// nodes are relieved of relay duty (Mahfoudh & Minet style).
    PowerAware,
}

/// The MPR CF state.
#[derive(Debug, Clone, PartialEq)]
pub struct MprState {
    /// Link sensing records per neighbour.
    pub links: BTreeMap<Address, LinkInfo>,
    /// Neighbours this node selected as relays.
    pub mpr_set: BTreeSet<Address>,
    /// Neighbours that selected this node, with expiry times.
    pub selectors: BTreeMap<Address, SimTime>,
    /// Flooding duplicate set, each flood held 30 s.
    pub duplicates: SeenFloods<30>,
    /// Own willingness advertised in HELLOs.
    pub willingness: u8,
    /// Hysteresis parameters.
    pub hysteresis: Hysteresis,
    /// The plugged-in relay calculator.
    pub calculator: MprCalculator,
    /// How long a silent link stays valid.
    pub link_validity: SimDuration,
}

impl Default for MprState {
    fn default() -> Self {
        MprState {
            links: BTreeMap::new(),
            mpr_set: BTreeSet::new(),
            selectors: BTreeMap::new(),
            duplicates: SeenFloods::default(),
            willingness: willingness::DEFAULT,
            hysteresis: Hysteresis::off(),
            calculator: MprCalculator::Standard,
            link_validity: SimDuration::from_millis(3_500),
        }
    }
}

impl LinkSet for MprState {
    fn links(&self) -> impl Iterator<Item = (Address, bool, &[Address])> {
        (self.links.iter()).map(|(a, l)| (*a, l.symmetric, &l.two_hop[..]))
    }
}

impl MprState {
    /// Recomputes the MPR set with the plugged-in calculator; returns
    /// `true` when the set changed.
    pub fn recompute_mprs(&mut self, local: Address) -> bool {
        let new_set = select_mprs(self, local, self.calculator);
        if new_set != self.mpr_set {
            self.mpr_set = new_set;
            true
        } else {
            false
        }
    }

    /// Whether `addr` selected this node as a relay (flooding duty check).
    #[must_use]
    pub fn is_selector(&self, addr: Address) -> bool {
        self.selectors.contains_key(&addr)
    }

    /// Drops expired links, selectors and duplicates; returns the lost
    /// symmetric neighbours.
    pub fn expire(&mut self, now: SimTime) -> Vec<Address> {
        let validity = self.link_validity;
        let mut lost = Vec::new();
        self.links.retain(|addr, info| {
            let alive = now.since(info.last_heard) <= validity;
            if !alive && info.symmetric {
                lost.push(*addr);
            }
            alive
        });
        self.selectors.retain(|_, exp| *exp > now);
        self.duplicates.expire(now);
        lost
    }
}

/// Greedy MPR selection over the current 2-hop neighbourhood (RFC 3626
/// §8.3.1, simplified: no degree-based pre-selection of WILL_ALWAYS).
#[must_use]
pub fn select_mprs(
    state: &MprState,
    local: Address,
    calculator: MprCalculator,
) -> BTreeSet<Address> {
    // Candidate relays: symmetric neighbours willing to relay.
    let candidates: Vec<(Address, &LinkInfo)> = state
        .links
        .iter()
        .filter(|(_, l)| l.symmetric && l.willingness != willingness::NEVER)
        .map(|(a, l)| (*a, l))
        .collect();
    let neighbour_set: BTreeSet<Address> = candidates.iter().map(|(a, _)| *a).collect();

    // Strict 2-hop set: reachable only through a neighbour.
    let mut coverage: BTreeMap<Address, BTreeSet<Address>> = BTreeMap::new();
    for (nb, info) in &candidates {
        // The degree tie-break below counts `two_hop` as a set.
        debug_assert!(
            info.two_hop.windows(2).all(|w| w[0] < w[1]),
            "two-hop set of {nb:?} is not sorted and deduplicated"
        );
        for th in &info.two_hop {
            if *th != local && !neighbour_set.contains(th) {
                coverage.entry(*th).or_default().insert(*nb);
            }
        }
    }

    let mut mprs: BTreeSet<Address> = BTreeSet::new();
    // WILL_ALWAYS neighbours are always selected.
    for (a, l) in &candidates {
        if l.willingness == willingness::ALWAYS {
            mprs.insert(*a);
        }
    }
    // Neighbours that are the sole cover of some 2-hop node.
    for covers in coverage.values() {
        if covers.len() == 1 {
            mprs.insert(*covers.iter().next().expect("len 1"));
        }
    }
    let mut uncovered: BTreeSet<Address> = coverage
        .iter()
        .filter(|(_, covers)| covers.is_disjoint(&mprs))
        .map(|(th, _)| *th)
        .collect();

    while !uncovered.is_empty() {
        // Pick the candidate covering the most uncovered 2-hop nodes.
        let best = candidates
            .iter()
            .filter(|(a, _)| !mprs.contains(a))
            .map(|(a, l)| {
                let covers = coverage
                    .iter()
                    .filter(|(th, c)| uncovered.contains(*th) && c.contains(a))
                    .count();
                (covers, *a, l)
            })
            .filter(|(covers, ..)| *covers > 0)
            .max_by(|(c1, a1, l1), (c2, a2, l2)| {
                c1.cmp(c2)
                    .then_with(|| match calculator {
                        MprCalculator::Standard => l1
                            .willingness
                            .cmp(&l2.willingness)
                            .then(l1.two_hop.len().cmp(&l2.two_hop.len())),
                        MprCalculator::PowerAware => l1
                            .residual_energy
                            .partial_cmp(&l2.residual_energy)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(l1.willingness.cmp(&l2.willingness)),
                    })
                    // Deterministic final tie-break: lower address wins, so
                    // invert for max_by.
                    .then_with(|| a2.cmp(a1))
            });
        let Some((_, chosen, _)) = best else {
            break; // remaining 2-hop nodes are uncoverable
        };
        mprs.insert(chosen);
        uncovered.retain(|th| !coverage.get(th).is_some_and(|c| c.contains(&chosen)));
    }
    mprs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> Address {
        Address::v4([10, 0, 0, n])
    }

    fn link(sym: bool, two_hop: &[u8]) -> LinkInfo {
        LinkInfo {
            last_heard: SimTime::ZERO,
            symmetric: sym,
            willingness: willingness::DEFAULT,
            two_hop: two_hop.iter().map(|n| addr(*n)).collect(),
            quality: 1.0,
            hyst_pending: false,
            residual_energy: 1.0,
        }
    }

    #[test]
    fn empty_neighbourhood_selects_nothing() {
        let mut s = MprState::default();
        assert!(!s.recompute_mprs(addr(1)));
        assert!(s.mpr_set.is_empty());
    }

    #[test]
    fn single_cover_is_selected() {
        // local(1) -- 2 -- 4 ; 1 -- 3 (leaf). Only 2 covers 4.
        let mut s = MprState::default();
        s.links.insert(addr(2), link(true, &[1, 4]));
        s.links.insert(addr(3), link(true, &[1]));
        assert!(s.recompute_mprs(addr(1)));
        assert_eq!(s.mpr_set, [addr(2)].into_iter().collect());
    }

    #[test]
    fn greedy_prefers_bigger_coverage() {
        // Neighbour 2 covers {5,6,7}; neighbour 3 covers {5}; 4 covers {6}.
        let mut s = MprState::default();
        s.links.insert(addr(2), link(true, &[5, 6, 7]));
        s.links.insert(addr(3), link(true, &[5]));
        s.links.insert(addr(4), link(true, &[6]));
        s.recompute_mprs(addr(1));
        assert_eq!(s.mpr_set, [addr(2)].into_iter().collect());
    }

    #[test]
    fn asymmetric_and_unwilling_excluded() {
        let mut s = MprState::default();
        s.links.insert(addr(2), link(false, &[5]));
        let mut unwilling = link(true, &[5]);
        unwilling.willingness = willingness::NEVER;
        s.links.insert(addr(3), unwilling);
        s.recompute_mprs(addr(1));
        assert!(s.mpr_set.is_empty(), "no eligible cover for node 5");
    }

    #[test]
    fn will_always_is_selected_even_without_coverage() {
        let mut s = MprState::default();
        let mut always = link(true, &[]);
        always.willingness = willingness::ALWAYS;
        s.links.insert(addr(2), always);
        s.recompute_mprs(addr(1));
        assert!(s.mpr_set.contains(&addr(2)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not sorted and deduplicated")]
    fn an_unsorted_two_hop_set_fails_loudly() {
        let mut s = MprState::default();
        s.links.insert(addr(2), link(true, &[5, 4]));
        s.recompute_mprs(addr(1));
    }

    #[test]
    fn power_aware_prefers_fresh_batteries() {
        // Neighbours 2 and 3 both cover {5}; 3 has more energy.
        let mut s = MprState::default();
        let mut drained = link(true, &[5]);
        drained.residual_energy = 0.2;
        let mut fresh = link(true, &[5]);
        fresh.residual_energy = 0.9;
        s.links.insert(addr(2), drained);
        s.links.insert(addr(3), fresh);

        let std_set = select_mprs(&s, addr(1), MprCalculator::Standard);
        assert_eq!(
            std_set,
            [addr(2)].into_iter().collect(),
            "lower addr wins ties"
        );

        let power_set = select_mprs(&s, addr(1), MprCalculator::PowerAware);
        assert_eq!(power_set, [addr(3)].into_iter().collect(), "energy wins");
    }

    #[test]
    fn duplicate_detection_and_expiry() {
        let mut s = MprState::default();
        let now = SimTime::ZERO;
        assert!(!s.duplicates.check(addr(9), 1, now));
        assert!(s.duplicates.check(addr(9), 1, now));
        assert!(!s.duplicates.check(addr(9), 2, now));
        // After 31 s the duplicate entry expires.
        let later = now + SimDuration::from_secs(31);
        s.expire(later);
        // Links expired too (validity 3.5 s) — re-add a fresh one to check
        // selective retention.
        assert!(!s.duplicates.contains(addr(9), 1));
        assert!(!s.duplicates.contains(addr(9), 2));
    }

    #[test]
    fn expire_reports_lost_symmetric_links() {
        let mut s = MprState::default();
        s.links.insert(addr(2), link(true, &[]));
        s.links.insert(addr(3), link(false, &[]));
        let lost = s.expire(SimTime::ZERO + SimDuration::from_secs(10));
        assert_eq!(lost, vec![addr(2)], "only symmetric losses reported");
        assert!(s.links.is_empty());
    }

    #[test]
    fn two_hop_pairs_exclude_local_and_directs() {
        let mut s = MprState::default();
        s.links.insert(addr(2), link(true, &[1, 3, 7]));
        s.links.insert(addr(3), link(true, &[]));
        let pairs = s.two_hop_pairs(addr(1));
        assert_eq!(pairs, vec![(addr(2), addr(7))]);
    }
}
