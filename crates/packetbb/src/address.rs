//! Network addresses as carried in PacketBB address blocks.

use std::cmp::Ordering;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// The address family of a [`Message`](crate::Message)'s address blocks.
///
/// RFC 5444 encodes the family implicitly through the per-message
/// `addr-length` field; only 4-byte (IPv4) and 16-byte (IPv6) addresses are
/// defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AddressFamily {
    /// 4-byte IPv4 addresses.
    V4,
    /// 16-byte IPv6 addresses.
    V6,
}

impl AddressFamily {
    /// Byte length of an address in this family.
    // A family is not a container; `is_empty` would be meaningless.
    #[allow(clippy::len_without_is_empty)]
    #[must_use]
    pub const fn len(self) -> usize {
        match self {
            AddressFamily::V4 => 4,
            AddressFamily::V6 => 16,
        }
    }

    /// Number of bits in an address of this family.
    #[must_use]
    pub const fn bits(self) -> u8 {
        match self {
            AddressFamily::V4 => 32,
            AddressFamily::V6 => 128,
        }
    }
}

/// A network-layer address (IPv4 or IPv6).
///
/// Stored inline (no allocation); ordering and hashing follow the raw byte
/// representation so addresses can key route tables directly. IPv4 sorts
/// before IPv6, and within a family addresses sort as big-endian integers,
/// which is the octets' lexicographic order compared without `memcmp`.
///
/// ```
/// use packetbb::Address;
/// let a = Address::v4([10, 0, 0, 1]);
/// assert_eq!(a.octets(), &[10, 0, 0, 1]);
/// assert_eq!(a.to_string(), "10.0.0.1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Address {
    /// An IPv4 address.
    V4([u8; 4]),
    /// An IPv6 address.
    V6([u8; 16]),
}

impl Address {
    /// Creates an IPv4 address from its four octets.
    #[must_use]
    pub const fn v4(octets: [u8; 4]) -> Self {
        Address::V4(octets)
    }

    /// Creates an IPv6 address from its sixteen octets.
    #[must_use]
    pub const fn v6(octets: [u8; 16]) -> Self {
        Address::V6(octets)
    }

    /// The family this address belongs to.
    #[must_use]
    pub const fn family(&self) -> AddressFamily {
        match self {
            Address::V4(_) => AddressFamily::V4,
            Address::V6(_) => AddressFamily::V6,
        }
    }

    /// Raw octets of the address, in network byte order.
    #[must_use]
    pub fn octets(&self) -> &[u8] {
        match self {
            Address::V4(o) => o,
            Address::V6(o) => o,
        }
    }

    /// Reconstructs an address from raw octets.
    ///
    /// Returns `None` when `bytes` is not 4 or 16 bytes long.
    #[must_use]
    pub fn from_octets(bytes: &[u8]) -> Option<Self> {
        match bytes.len() {
            4 => {
                let mut o = [0u8; 4];
                o.copy_from_slice(bytes);
                Some(Address::V4(o))
            }
            16 => {
                let mut o = [0u8; 16];
                o.copy_from_slice(bytes);
                Some(Address::V6(o))
            }
            _ => None,
        }
    }
}

impl Ord for Address {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Address::V4(a), Address::V4(b)) => u32::from_be_bytes(*a).cmp(&u32::from_be_bytes(*b)),
            (Address::V6(a), Address::V6(b)) => {
                u128::from_be_bytes(*a).cmp(&u128::from_be_bytes(*b))
            }
            (a, b) => a.family().cmp(&b.family()),
        }
    }
}

impl PartialOrd for Address {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Address::V4(o) => Ipv4Addr::from(*o).fmt(f),
            Address::V6(o) => Ipv6Addr::from(*o).fmt(f),
        }
    }
}

impl From<Ipv4Addr> for Address {
    fn from(a: Ipv4Addr) -> Self {
        Address::V4(a.octets())
    }
}

impl From<Ipv6Addr> for Address {
    fn from(a: Ipv6Addr) -> Self {
        Address::V6(a.octets())
    }
}

impl From<std::net::IpAddr> for Address {
    fn from(a: std::net::IpAddr) -> Self {
        match a {
            std::net::IpAddr::V4(v4) => v4.into(),
            std::net::IpAddr::V6(v6) => v6.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_and_len() {
        assert_eq!(Address::v4([1, 2, 3, 4]).family(), AddressFamily::V4);
        assert_eq!(Address::v6([0; 16]).family(), AddressFamily::V6);
        assert_eq!(AddressFamily::V4.len(), 4);
        assert_eq!(AddressFamily::V6.len(), 16);
        assert_eq!(AddressFamily::V4.bits(), 32);
        assert_eq!(AddressFamily::V6.bits(), 128);
    }

    #[test]
    fn round_trip_octets() {
        let a = Address::v4([192, 168, 1, 42]);
        assert_eq!(Address::from_octets(a.octets()), Some(a));
        let b = Address::v6([7; 16]);
        assert_eq!(Address::from_octets(b.octets()), Some(b));
        assert_eq!(Address::from_octets(&[1, 2, 3]), None);
    }

    #[test]
    fn display_matches_std() {
        assert_eq!(Address::v4([10, 0, 0, 1]).to_string(), "10.0.0.1");
        let v6 = Address::v6([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(v6.to_string(), "::1");
    }

    #[test]
    fn ordering_is_byte_order() {
        let a = Address::v4([10, 0, 0, 1]);
        let b = Address::v4([10, 0, 0, 2]);
        assert!(a < b);
    }

    #[test]
    fn from_std_ip() {
        let std4: std::net::IpAddr = "172.16.0.9".parse().unwrap();
        assert_eq!(Address::from(std4), Address::v4([172, 16, 0, 9]));
    }
}
