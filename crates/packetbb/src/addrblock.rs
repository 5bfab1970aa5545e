//! Address blocks: compressed sets of addresses plus attached TLVs.

use crate::tlv::AddressTlv;
use crate::{Address, AddressFamily};

/// How prefix lengths are associated with the addresses of a block.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PrefixMode {
    /// All addresses are host addresses (full-length prefixes); no prefix
    /// octets are encoded.
    None,
    /// Every address shares one prefix length.
    Single(u8),
    /// Each address carries its own prefix length (same arity as the
    /// address vector).
    PerAddress(Vec<u8>),
}

/// A set of addresses sharing an encoding context, with attached TLVs.
///
/// On the wire the common leading bytes (*head*) and trailing bytes (*tail*)
/// of the addresses are factored out and only the differing middles (*mids*)
/// are carried — the RFC 5444 compression scheme. That compression is purely
/// a codec concern: this model type stores the full addresses.
///
/// # Invariants
///
/// * at least one address,
/// * all addresses in one family,
/// * `PrefixMode::PerAddress` has exactly one entry per address,
/// * prefix lengths do not exceed the family bit-width.
///
/// ```
/// use packetbb::{Address, AddressBlock};
/// let block = AddressBlock::new(vec![
///     Address::v4([10, 0, 0, 1]),
///     Address::v4([10, 0, 0, 2]),
/// ]).unwrap();
/// assert_eq!(block.len(), 2);
/// assert_eq!(block.family(), packetbb::AddressFamily::V4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AddressBlock {
    addresses: Vec<Address>,
    prefixes: PrefixMode,
    tlvs: Vec<AddressTlv>,
}

/// Error building an [`AddressBlock`] with inconsistent contents.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AddressBlockError {
    /// No addresses were supplied.
    Empty,
    /// Addresses from more than one family were supplied.
    MixedFamilies,
    /// `PerAddress` prefix vector arity mismatch.
    PrefixArity {
        /// Number of addresses.
        addrs: usize,
        /// Number of prefix entries supplied.
        prefixes: usize,
    },
    /// A prefix length exceeds the family bit width.
    PrefixTooLong(u8),
}

impl std::fmt::Display for AddressBlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AddressBlockError::Empty => write!(f, "address block requires at least one address"),
            AddressBlockError::MixedFamilies => {
                write!(f, "address block mixes IPv4 and IPv6 addresses")
            }
            AddressBlockError::PrefixArity { addrs, prefixes } => write!(
                f,
                "per-address prefixes: {prefixes} entries for {addrs} addresses"
            ),
            AddressBlockError::PrefixTooLong(p) => {
                write!(f, "prefix length {p} exceeds family bit width")
            }
        }
    }
}

impl std::error::Error for AddressBlockError {}

impl AddressBlock {
    /// Creates a block of host addresses (no prefixes, no TLVs).
    ///
    /// # Errors
    ///
    /// Returns an error when `addresses` is empty or mixes families.
    pub fn new(addresses: Vec<Address>) -> Result<Self, AddressBlockError> {
        Self::with_prefixes(addresses, PrefixMode::None)
    }

    /// Creates a block with an explicit prefix mode.
    ///
    /// # Errors
    ///
    /// Returns an error when the invariants documented on the type are
    /// violated.
    pub fn with_prefixes(
        addresses: Vec<Address>,
        prefixes: PrefixMode,
    ) -> Result<Self, AddressBlockError> {
        let first = addresses.first().ok_or(AddressBlockError::Empty)?;
        let family = first.family();
        if addresses.iter().any(|a| a.family() != family) {
            return Err(AddressBlockError::MixedFamilies);
        }
        match &prefixes {
            PrefixMode::None => {}
            PrefixMode::Single(p) => {
                if *p > family.bits() {
                    return Err(AddressBlockError::PrefixTooLong(*p));
                }
            }
            PrefixMode::PerAddress(v) => {
                if v.len() != addresses.len() {
                    return Err(AddressBlockError::PrefixArity {
                        addrs: addresses.len(),
                        prefixes: v.len(),
                    });
                }
                if let Some(p) = v.iter().find(|p| **p > family.bits()) {
                    return Err(AddressBlockError::PrefixTooLong(*p));
                }
            }
        }
        Ok(AddressBlock {
            addresses,
            prefixes,
            tlvs: Vec::new(),
        })
    }

    /// Attaches an address TLV, returning `self` for chaining.
    #[must_use]
    pub fn push_tlv(mut self, tlv: AddressTlv) -> Self {
        self.tlvs.push(tlv);
        self
    }

    /// Attaches an address TLV in place.
    pub fn add_tlv(&mut self, tlv: AddressTlv) {
        self.tlvs.push(tlv);
    }

    /// The addresses of this block.
    #[must_use]
    pub fn addresses(&self) -> &[Address] {
        &self.addresses
    }

    /// Number of addresses in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.addresses.len()
    }

    /// Always `false`: blocks are non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The shared address family.
    #[must_use]
    pub fn family(&self) -> AddressFamily {
        self.addresses[0].family()
    }

    /// The prefix mode.
    #[must_use]
    pub fn prefixes(&self) -> &PrefixMode {
        &self.prefixes
    }

    /// Effective prefix length of the address at `index`.
    ///
    /// Host addresses report the full family bit width.
    #[must_use]
    pub fn prefix_len(&self, index: usize) -> Option<u8> {
        if index >= self.addresses.len() {
            return None;
        }
        Some(match &self.prefixes {
            PrefixMode::None => self.family().bits(),
            PrefixMode::Single(p) => *p,
            PrefixMode::PerAddress(v) => v[index],
        })
    }

    /// The TLVs attached to this block.
    #[must_use]
    pub fn tlvs(&self) -> &[AddressTlv] {
        &self.tlvs
    }

    /// The TLVs that apply to the address at `index`, in attachment order:
    /// one row of [`iter_with_tlvs`](Self::iter_with_tlvs) without the
    /// `Vec` that row allocates. Empty when `index` is out of range.
    pub fn tlvs_at(&self, index: usize) -> impl Iterator<Item = &AddressTlv> + '_ {
        let len = self.addresses.len();
        self.tlvs.iter().filter(move |t| t.applies_to(index, len))
    }

    /// Iterates over `(address, tlvs-that-apply)` pairs.
    pub fn iter_with_tlvs(&self) -> impl Iterator<Item = (Address, Vec<&AddressTlv>)> + '_ {
        let len = self.addresses.len();
        self.addresses.iter().enumerate().map(move |(i, a)| {
            let applicable = self
                .tlvs
                .iter()
                .filter(|t| t.applies_to(i, len))
                .collect::<Vec<_>>();
            (*a, applicable)
        })
    }

    /// Computes the `(head, tail)` byte counts shared by all addresses —
    /// the RFC 5444 compression parameters used by the codec.
    ///
    /// `head + tail <= addr_len` always holds; for a single-address block the
    /// whole address becomes the head.
    #[must_use]
    pub fn head_tail(&self) -> (usize, usize) {
        let addr_len = self.family().len();
        let first = self.addresses[0].octets();
        let mut head = addr_len;
        let mut tail = addr_len;
        for a in &self.addresses[1..] {
            let o = a.octets();
            head = head.min(common_prefix(first, o));
            tail = tail.min(common_suffix(first, o));
        }
        // Head wins overlapping bytes; tail must fit in the remainder.
        let tail = tail.min(addr_len - head);
        (head, tail)
    }
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    a.iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlv::{AddressTlv, Tlv};

    fn v4(last: u8) -> Address {
        Address::v4([10, 0, 0, last])
    }

    #[test]
    fn rejects_empty_and_mixed() {
        assert_eq!(
            AddressBlock::new(vec![]).unwrap_err(),
            AddressBlockError::Empty
        );
        assert_eq!(
            AddressBlock::new(vec![v4(1), Address::v6([0; 16])]).unwrap_err(),
            AddressBlockError::MixedFamilies
        );
    }

    #[test]
    fn prefix_validation() {
        let err = AddressBlock::with_prefixes(vec![v4(1)], PrefixMode::Single(33)).unwrap_err();
        assert_eq!(err, AddressBlockError::PrefixTooLong(33));
        let err = AddressBlock::with_prefixes(vec![v4(1), v4(2)], PrefixMode::PerAddress(vec![24]))
            .unwrap_err();
        assert!(matches!(err, AddressBlockError::PrefixArity { .. }));
    }

    #[test]
    fn prefix_len_lookup() {
        let b =
            AddressBlock::with_prefixes(vec![v4(1), v4(2)], PrefixMode::PerAddress(vec![24, 16]))
                .unwrap();
        assert_eq!(b.prefix_len(0), Some(24));
        assert_eq!(b.prefix_len(1), Some(16));
        assert_eq!(b.prefix_len(2), None);
        let host = AddressBlock::new(vec![v4(9)]).unwrap();
        assert_eq!(host.prefix_len(0), Some(32));
    }

    #[test]
    fn head_tail_shared_bytes() {
        let b = AddressBlock::new(vec![v4(1), v4(2)]).unwrap();
        assert_eq!(b.head_tail(), (3, 0));

        let b = AddressBlock::new(vec![Address::v4([10, 1, 0, 5]), Address::v4([10, 2, 0, 5])])
            .unwrap();
        assert_eq!(b.head_tail(), (1, 2));
    }

    #[test]
    fn head_tail_single_address() {
        let b = AddressBlock::new(vec![v4(7)]).unwrap();
        let (h, t) = b.head_tail();
        assert_eq!(h + t, 4);
        assert_eq!(h, 4);
    }

    #[test]
    fn head_tail_identical_addresses() {
        let b = AddressBlock::new(vec![v4(7), v4(7)]).unwrap();
        let (h, t) = b.head_tail();
        assert!(h + t <= 4);
        assert_eq!(h, 4);
        assert_eq!(t, 0);
    }

    #[test]
    fn iter_with_tlvs_applies_ranges() {
        let b = AddressBlock::new(vec![v4(1), v4(2), v4(3)])
            .unwrap()
            .push_tlv(AddressTlv::single(Tlv::flag(1), 1))
            .push_tlv(AddressTlv::all(Tlv::flag(2)));
        let rows: Vec<_> = b.iter_with_tlvs().collect();
        assert_eq!(rows[0].1.len(), 1);
        assert_eq!(rows[1].1.len(), 2);
        assert_eq!(rows[2].1.len(), 1);
    }

    #[test]
    fn tlvs_at_matches_iter_with_tlvs_row_by_row() {
        let b = AddressBlock::new(vec![v4(1), v4(2), v4(3), v4(4)])
            .unwrap()
            .push_tlv(AddressTlv::range(Tlv::flag(1), 1, 2))
            .push_tlv(AddressTlv::all(Tlv::flag(2)))
            .push_tlv(AddressTlv::single(Tlv::flag(3), 3));
        for (i, (_, row)) in b.iter_with_tlvs().enumerate() {
            assert_eq!(b.tlvs_at(i).collect::<Vec<_>>(), row);
        }
        assert_eq!(b.tlvs_at(4).count(), 0, "out of range applies to nothing");
    }
}
