//! Property-based tests of the kernel route table: longest-prefix-match
//! semantics against a brute-force oracle, and the inline route key against
//! the heap-allocated octet-string key it replaced.

use std::collections::BTreeMap;

use netsim::{KernelRouteTable, RouteEntry};
use packetbb::Address;
use proptest::prelude::*;

/// The table as it was keyed before: `(octet string, prefix_len)` in a
/// `BTreeMap`, with the same longest-prefix scan. Kept as the oracle for
/// iteration order and lookup answers, mixed families included.
#[derive(Default)]
struct OctetStringTable {
    entries: BTreeMap<(Vec<u8>, u8), RouteEntry>,
}

impl OctetStringTable {
    fn add_route(&mut self, dst: Address, prefix_len: u8, next_hop: Address, metric: u32) {
        self.entries.insert(
            (dst.octets().to_vec(), prefix_len),
            RouteEntry {
                dst,
                prefix_len,
                next_hop,
                metric,
            },
        );
    }

    fn remove_route(&mut self, dst: Address, prefix_len: u8) -> Option<RouteEntry> {
        self.entries.remove(&(dst.octets().to_vec(), prefix_len))
    }

    fn remove_routes_via(&mut self, via: Address) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.next_hop != via);
        before - self.entries.len()
    }

    fn lookup(&self, dst: Address) -> Option<&RouteEntry> {
        self.entries
            .values()
            .filter(|e| e.dst.family() == dst.family() && prefix_covers(e, dst))
            .max_by_key(|e| e.prefix_len)
    }

    fn host_route(&self, dst: Address) -> Option<&RouteEntry> {
        self.entries
            .get(&(dst.octets().to_vec(), dst.family().bits()))
    }
}

fn prefix_covers(entry: &RouteEntry, dst: Address) -> bool {
    let bits = usize::from(entry.prefix_len);
    let (a, b) = (entry.dst.octets(), dst.octets());
    (0..bits).all(|bit| (a[bit / 8] ^ b[bit / 8]) & (0x80 >> (bit % 8)) == 0)
}

/// Addresses drawn from a small pool in both families, built so that v4
/// octets are prefixes of v6 octet strings (the case where the two key
/// encodings could disagree), plus unconstrained ones.
fn arb_address() -> impl Strategy<Value = Address> {
    prop_oneof![
        (0u8..4, 0u8..4).prop_map(|(a, b)| Address::v4([10, a, 0, b])),
        (0u8..4, 0u8..4, 0u8..3).prop_map(|(a, b, tail)| {
            let mut o = [0u8; 16];
            o[..4].copy_from_slice(&[10, a, 0, b]);
            o[15] = tail;
            Address::v6(o)
        }),
        any::<[u8; 4]>().prop_map(Address::v4),
        any::<[u8; 16]>().prop_map(Address::v6),
    ]
}

#[derive(Debug, Clone)]
enum TableOp {
    Add {
        dst: Address,
        prefix: u8,
        next_hop: Address,
        metric: u32,
    },
    AddHost {
        dst: Address,
        next_hop: Address,
    },
    Remove {
        dst: Address,
        prefix: u8,
    },
    RemoveHost(Address),
    RemoveVia(Address),
    Clear,
}

fn arb_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        4 => (arb_address(), 0u8..=128, arb_address(), 0u32..5).prop_map(
            |(dst, prefix, next_hop, metric)| TableOp::Add {
                dst,
                prefix: prefix.min(dst.family().bits()),
                next_hop,
                metric,
            }
        ),
        4 => (arb_address(), arb_address())
            .prop_map(|(dst, next_hop)| TableOp::AddHost { dst, next_hop }),
        2 => (arb_address(), 0u8..=128).prop_map(|(dst, prefix)| TableOp::Remove {
            dst,
            prefix: prefix.min(dst.family().bits()),
        }),
        2 => arb_address().prop_map(TableOp::RemoveHost),
        1 => arb_address().prop_map(TableOp::RemoveVia),
        1 => Just(TableOp::Clear),
    ]
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    dst: [u8; 4],
    prefix: u8,
    next_hop: [u8; 4],
}

fn arb_entry() -> impl Strategy<Value = Entry> {
    (any::<[u8; 4]>(), 0u8..=32, any::<[u8; 4]>()).prop_map(|(dst, prefix, next_hop)| Entry {
        dst,
        prefix,
        next_hop,
    })
}

fn matches(entry: &Entry, addr: [u8; 4]) -> bool {
    let bits = u32::from_be_bytes(entry.dst) ^ u32::from_be_bytes(addr);
    if entry.prefix == 0 {
        return true;
    }
    bits >> (32 - entry.prefix) == 0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The table's lookup equals a brute-force longest-prefix scan.
    #[test]
    fn lookup_matches_oracle(
        entries in proptest::collection::vec(arb_entry(), 0..24),
        queries in proptest::collection::vec(any::<[u8; 4]>(), 1..16),
    ) {
        let mut table = KernelRouteTable::new();
        // Later inserts with the same (dst, prefix) replace earlier ones,
        // exactly like the oracle map below.
        let mut oracle: std::collections::HashMap<([u8; 4], u8), Entry> =
            std::collections::HashMap::new();
        for e in &entries {
            table.add_route(Address::v4(e.dst), e.prefix, Address::v4(e.next_hop), 1);
            oracle.insert((e.dst, e.prefix), *e);
        }
        prop_assert_eq!(table.len(), oracle.len());
        for q in queries {
            let expected = oracle
                .values()
                .filter(|e| matches(e, q))
                .max_by_key(|e| e.prefix);
            let got = table.lookup(Address::v4(q));
            match (expected, got) {
                (None, None) => {}
                (Some(e), Some(g)) => {
                    prop_assert_eq!(g.prefix_len, e.prefix, "prefix for {:?}", q);
                    // Ties on prefix length may differ in next hop; assert
                    // the chosen entry is *a* maximal match.
                    let mut got_dst = [0u8; 4];
                    got_dst.copy_from_slice(g.dst.octets());
                    let chosen = Entry {
                        dst: got_dst,
                        prefix: g.prefix_len,
                        next_hop: [0; 4],
                    };
                    let is_match = matches(&chosen, q);
                    prop_assert!(is_match, "chosen entry does not match query");
                }
                (e, g) => prop_assert!(false, "oracle {e:?} vs table {g:?} for {q:?}"),
            }
        }
    }

    /// Same operations ⇒ same `iter()` order and the same `lookup` /
    /// `host_route` answers as the octet-string-keyed table, v4 and v6 mixed.
    #[test]
    fn inline_key_orders_and_answers_like_the_octet_string_key(
        ops in proptest::collection::vec(arb_op(), 0..48),
        queries in proptest::collection::vec(arb_address(), 1..12),
    ) {
        let mut table = KernelRouteTable::new();
        let mut oracle = OctetStringTable::default();
        for op in ops {
            match op {
                TableOp::Add { dst, prefix, next_hop, metric } => {
                    table.add_route(dst, prefix, next_hop, metric);
                    oracle.add_route(dst, prefix, next_hop, metric);
                }
                TableOp::AddHost { dst, next_hop } => {
                    table.add_host_route(dst, next_hop, 1);
                    oracle.add_route(dst, dst.family().bits(), next_hop, 1);
                }
                TableOp::Remove { dst, prefix } => {
                    prop_assert_eq!(table.remove_route(dst, prefix), oracle.remove_route(dst, prefix));
                }
                TableOp::RemoveHost(dst) => {
                    prop_assert_eq!(
                        table.remove_host_route(dst),
                        oracle.remove_route(dst, dst.family().bits())
                    );
                }
                TableOp::RemoveVia(via) => {
                    prop_assert_eq!(table.remove_routes_via(via), oracle.remove_routes_via(via));
                }
                TableOp::Clear => {
                    table.clear();
                    oracle.entries.clear();
                }
            }
            let got: Vec<&RouteEntry> = table.iter().collect();
            let expected: Vec<&RouteEntry> = oracle.entries.values().collect();
            prop_assert_eq!(got, expected, "iteration order");
        }
        for q in queries {
            prop_assert_eq!(table.lookup(q), oracle.lookup(q), "lookup {}", q);
            prop_assert_eq!(table.host_route(q), oracle.host_route(q), "host_route {}", q);
        }
    }

    /// Removing routes via a next hop removes exactly those.
    #[test]
    fn remove_via_is_exact(
        entries in proptest::collection::vec(arb_entry(), 1..24),
        via in any::<[u8; 4]>(),
    ) {
        let mut table = KernelRouteTable::new();
        for e in &entries {
            table.add_route(Address::v4(e.dst), e.prefix, Address::v4(e.next_hop), 1);
        }
        let before = table.len();
        let with_via = table
            .iter()
            .filter(|e| e.next_hop == Address::v4(via))
            .count();
        let removed = table.remove_routes_via(Address::v4(via));
        prop_assert_eq!(removed, with_via);
        prop_assert_eq!(table.len(), before - removed);
        prop_assert!(table.iter().all(|e| e.next_hop != Address::v4(via)));
    }

    /// Host-route add/remove round-trips.
    #[test]
    fn host_route_round_trip(dsts in proptest::collection::vec(any::<[u8; 4]>(), 1..16)) {
        let mut table = KernelRouteTable::new();
        let via = Address::v4([1, 1, 1, 1]);
        for d in &dsts {
            table.add_host_route(Address::v4(*d), via, 1);
        }
        for d in &dsts {
            prop_assert!(table.host_route(Address::v4(*d)).is_some());
            table.remove_host_route(Address::v4(*d));
        }
        prop_assert!(table.is_empty());
    }
}
