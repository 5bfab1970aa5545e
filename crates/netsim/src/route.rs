//! The simulated kernel routing table.
//!
//! Routing protocols install next-hop entries here exactly as the real
//! implementations manipulate the Linux kernel table; the data plane
//! ([`World`](crate::World)) consults it for every forwarding decision via
//! longest-prefix match.

use std::collections::BTreeMap;

use packetbb::Address;

/// One forwarding entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteEntry {
    /// Destination network address.
    pub dst: Address,
    /// Prefix length in bits (host routes use the family bit width).
    pub prefix_len: u8,
    /// Next hop to forward to (a direct neighbour's address).
    pub next_hop: Address,
    /// Path metric (hop count for the protocols in this workspace).
    pub metric: u32,
}

/// A longest-prefix-match forwarding table.
///
/// ```
/// use netsim::KernelRouteTable;
/// use packetbb::Address;
///
/// let mut t = KernelRouteTable::new();
/// let dst = Address::v4([10, 0, 0, 7]);
/// let via = Address::v4([10, 0, 0, 2]);
/// t.add_host_route(dst, via, 2);
/// assert_eq!(t.lookup(dst).unwrap().next_hop, via);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelRouteTable {
    // Keyed by (dst, prefix_len); longest-prefix order is handled at lookup.
    entries: BTreeMap<RouteKey, RouteEntry>,
}

/// `(dst octets, prefix_len)` without a heap-allocated octet string. The
/// derived order is the order of the octet strings themselves (bytewise,
/// a proper prefix first): zero padding cannot reorder two addresses that
/// differ inside the shorter one, and when the shorter is a prefix of the
/// longer, equal padding falls through to `addr_len`, shorter first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RouteKey {
    octets: [u8; 16],
    addr_len: u8,
    prefix_len: u8,
}

impl RouteKey {
    fn new(dst: Address, prefix_len: u8) -> Self {
        let src = dst.octets();
        let mut octets = [0; 16];
        octets[..src.len()].copy_from_slice(src);
        RouteKey {
            octets,
            addr_len: src.len() as u8,
            prefix_len,
        }
    }
}

impl KernelRouteTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) a route to `dst/prefix_len` via `next_hop`.
    pub fn add_route(&mut self, dst: Address, prefix_len: u8, next_hop: Address, metric: u32) {
        self.entries.insert(
            RouteKey::new(dst, prefix_len),
            RouteEntry {
                dst,
                prefix_len,
                next_hop,
                metric,
            },
        );
    }

    /// Installs a host route (full-length prefix).
    pub fn add_host_route(&mut self, dst: Address, next_hop: Address, metric: u32) {
        self.add_route(dst, dst.family().bits(), next_hop, metric);
    }

    /// Removes the exact route to `dst/prefix_len`; returns the removed
    /// entry if it existed.
    pub fn remove_route(&mut self, dst: Address, prefix_len: u8) -> Option<RouteEntry> {
        self.entries.remove(&RouteKey::new(dst, prefix_len))
    }

    /// Removes the host route to `dst`.
    pub fn remove_host_route(&mut self, dst: Address) -> Option<RouteEntry> {
        self.remove_route(dst, dst.family().bits())
    }

    /// Removes every route whose next hop is `via`; returns how many were
    /// dropped (used for link-break invalidation).
    pub fn remove_routes_via(&mut self, via: Address) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.next_hop != via);
        before - self.entries.len()
    }

    /// Clears the table.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Longest-prefix-match lookup.
    #[must_use]
    pub fn lookup(&self, dst: Address) -> Option<&RouteEntry> {
        self.entries
            .values()
            .filter(|e| e.dst.family() == dst.family() && prefix_matches(e, dst))
            .max_by_key(|e| e.prefix_len)
    }

    /// Exact-match fetch of a host route.
    #[must_use]
    pub fn host_route(&self, dst: Address) -> Option<&RouteEntry> {
        self.entries.get(&RouteKey::new(dst, dst.family().bits()))
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = &RouteEntry> {
        self.entries.values()
    }

    /// Number of installed routes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn prefix_matches(entry: &RouteEntry, dst: Address) -> bool {
    let bits = entry.prefix_len as usize;
    let a = entry.dst.octets();
    let b = dst.octets();
    let full_bytes = bits / 8;
    if a[..full_bytes] != b[..full_bytes] {
        return false;
    }
    let rem = bits % 8;
    if rem == 0 {
        return true;
    }
    let mask = 0xFFu8 << (8 - rem);
    (a[full_bytes] & mask) == (b[full_bytes] & mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(o: [u8; 4]) -> Address {
        Address::v4(o)
    }

    #[test]
    fn host_route_round_trip() {
        let mut t = KernelRouteTable::new();
        t.add_host_route(a([10, 0, 0, 5]), a([10, 0, 0, 2]), 3);
        assert_eq!(t.len(), 1);
        let e = t.lookup(a([10, 0, 0, 5])).unwrap();
        assert_eq!(e.next_hop, a([10, 0, 0, 2]));
        assert_eq!(e.metric, 3);
        assert!(t.lookup(a([10, 0, 0, 6])).is_none());
        assert!(t.remove_host_route(a([10, 0, 0, 5])).is_some());
        assert!(t.is_empty());
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = KernelRouteTable::new();
        t.add_route(a([10, 0, 0, 0]), 8, a([10, 0, 0, 1]), 5);
        t.add_route(a([10, 1, 0, 0]), 16, a([10, 0, 0, 2]), 4);
        t.add_host_route(a([10, 1, 2, 3]), a([10, 0, 0, 3]), 1);

        assert_eq!(
            t.lookup(a([10, 9, 9, 9])).unwrap().next_hop,
            a([10, 0, 0, 1])
        );
        assert_eq!(
            t.lookup(a([10, 1, 9, 9])).unwrap().next_hop,
            a([10, 0, 0, 2])
        );
        assert_eq!(
            t.lookup(a([10, 1, 2, 3])).unwrap().next_hop,
            a([10, 0, 0, 3])
        );
        assert!(t.lookup(a([11, 0, 0, 1])).is_none());
    }

    #[test]
    fn non_byte_aligned_prefix() {
        let mut t = KernelRouteTable::new();
        t.add_route(a([10, 0, 0, 128]), 25, a([10, 0, 0, 1]), 1);
        assert!(t.lookup(a([10, 0, 0, 200])).is_some());
        assert!(t.lookup(a([10, 0, 0, 100])).is_none());
    }

    #[test]
    fn replace_updates_entry() {
        let mut t = KernelRouteTable::new();
        t.add_host_route(a([10, 0, 0, 5]), a([10, 0, 0, 2]), 3);
        t.add_host_route(a([10, 0, 0, 5]), a([10, 0, 0, 9]), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.lookup(a([10, 0, 0, 5])).unwrap().next_hop,
            a([10, 0, 0, 9])
        );
    }

    #[test]
    fn remove_routes_via_next_hop() {
        let mut t = KernelRouteTable::new();
        t.add_host_route(a([10, 0, 0, 5]), a([10, 0, 0, 2]), 1);
        t.add_host_route(a([10, 0, 0, 6]), a([10, 0, 0, 2]), 2);
        t.add_host_route(a([10, 0, 0, 7]), a([10, 0, 0, 3]), 2);
        assert_eq!(t.remove_routes_via(a([10, 0, 0, 2])), 2);
        assert_eq!(t.len(), 1);
        assert!(t.host_route(a([10, 0, 0, 7])).is_some());
    }

    #[test]
    fn families_do_not_cross_match() {
        let mut t = KernelRouteTable::new();
        t.add_route(a([0, 0, 0, 0]), 0, a([10, 0, 0, 1]), 1);
        assert!(t.lookup(Address::v6([0; 16])).is_none());
        assert!(
            t.lookup(a([1, 2, 3, 4])).is_some(),
            "default route matches all v4"
        );
    }
}
