//! Property-based tests of the DYMO route table's update discipline: the
//! stored sequence number never regresses, hop counts never worsen at equal
//! seq, and broken routes never serve traffic.

use manetkit::reactive::ReactiveTable;
use manetkit::seq_newer;
use manetkit_dymo::DymoState;
use netsim::{SimDuration, SimTime};
use packetbb::Address;
use proptest::prelude::*;

fn addr(n: u8) -> Address {
    Address::v4([10, 0, 0, n])
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Offer {
        dst: u8,
        via: u8,
        seq: u16,
        hops: u8,
    },
    BreakVia {
        via: u8,
    },
    Refresh {
        dst: u8,
    },
    Advance {
        secs: u8,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (2u8..6, 6u8..10, any::<u16>(), 1u8..16).prop_map(|(dst, via, seq, hops)| Op::Offer {
            dst,
            via,
            seq,
            hops
        }),
        1 => (6u8..10).prop_map(|via| Op::BreakVia { via }),
        1 => (2u8..6).prop_map(|dst| Op::Refresh { dst }),
        1 => (0u8..8).prop_map(|secs| Op::Advance { secs }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sequence_numbers_never_regress(ops in proptest::collection::vec(arb_op(), 1..64)) {
        let mut s = DymoState::default();
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                Op::Offer { dst, via, seq, hops } => {
                    let before = s.routes.get(&addr(dst)).map(|r| (r.seq, r.broken));
                    s.offer_route(addr(dst), addr(via), seq, hops, now);
                    let after = s.routes[&addr(dst)];
                    if let Some((old_seq, broken)) = before {
                        // Unless the old route was broken (replaceable), the
                        // stored seq must never move backwards.
                        if !broken {
                            prop_assert!(
                                !seq_newer(old_seq, after.seq),
                                "seq regressed: {old_seq} -> {}",
                                after.seq
                            );
                        }
                    }
                }
                Op::BreakVia { via } => {
                    s.break_routes_via(addr(via));
                }
                Op::Refresh { dst } => s.refresh_route(addr(dst), now),
                Op::Advance { secs } => {
                    now += SimDuration::from_secs(u64::from(secs));
                    s.expire(now);
                }
            }
            // Global invariants after every step.
            for (dst, r) in &s.routes {
                // A live route is never broken, by definition of live_route.
                if let Some(live) = s.live_route(*dst, now) {
                    prop_assert!(!live.broken);
                    prop_assert!(live.expiry > now);
                    prop_assert_eq!(live.next_hop, r.next_hop);
                }
            }
        }
    }

    #[test]
    fn equal_seq_offers_never_worsen_hops(
        seq in any::<u16>(),
        hops in proptest::collection::vec(1u8..16, 1..12),
    ) {
        let mut s = DymoState::default();
        let now = SimTime::ZERO;
        let mut best = u8::MAX;
        for (i, h) in hops.iter().enumerate() {
            s.offer_route(addr(2), addr((6 + (i % 4)) as u8), seq, *h, now);
            best = best.min(*h);
            prop_assert_eq!(s.routes[&addr(2)].hop_count, best);
        }
    }

    #[test]
    fn broken_routes_never_serve(ops in proptest::collection::vec(arb_op(), 1..48)) {
        let mut s = DymoState::default();
        let now = SimTime::ZERO;
        for op in ops {
            if let Op::Offer { dst, via, seq, hops } = op {
                s.offer_route(addr(dst), addr(via), seq, hops, now);
            }
        }
        // Break everything.
        for via in 6u8..10 {
            s.break_routes_via(addr(via));
        }
        for dst in 2u8..6 {
            prop_assert!(s.live_route(addr(dst), now).is_none());
        }
    }
}
