//! Type-Length-Value attributes attached to packets, messages and addresses.

use std::fmt;
use std::hash::{Hash, Hasher};

/// A Type-Length-Value attribute.
///
/// TLVs carry protocol attributes at three levels: packet TLVs, message TLVs
/// and address TLVs (the latter wrapped in [`AddressTlv`] to add an index
/// range). A TLV may carry an optional *type extension* octet that
/// sub-divides its type space, and an optional value.
///
/// ```
/// use packetbb::Tlv;
/// let t = Tlv::with_value(7, vec![1, 2, 3]);
/// assert_eq!(t.tlv_type(), 7);
/// assert_eq!(t.value(), Some(&[1u8, 2, 3][..]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tlv {
    tlv_type: u8,
    type_ext: Option<u8>,
    value: Option<Value>,
}

/// The longest value a [`Tlv`] stores without a heap allocation.
const INLINE: usize = 16;

/// A TLV value: up to [`INLINE`] bytes in place, a longer one boxed. Equal
/// and hashed by content, however stored.
#[derive(Clone)]
enum Value {
    Inline(u8, [u8; INLINE]),
    Boxed(Box<[u8]>),
}

impl Value {
    fn new(bytes: &[u8]) -> Self {
        if bytes.len() <= INLINE {
            let mut buf = [0; INLINE];
            buf[..bytes.len()].copy_from_slice(bytes);
            // At most `INLINE`, so the length fits.
            Value::Inline(bytes.len() as u8, buf)
        } else {
            Value::Boxed(bytes.into())
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Value::Inline(len, buf) => &buf[..usize::from(*len)],
            Value::Boxed(bytes) => bytes,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("b\"")?;
        for &b in self.as_slice() {
            write!(f, "{}", std::ascii::escape_default(b))?;
        }
        f.write_str("\"")
    }
}

impl Tlv {
    /// Creates a valueless TLV (a pure flag).
    #[must_use]
    pub fn flag(tlv_type: u8) -> Self {
        Tlv {
            tlv_type,
            type_ext: None,
            value: None,
        }
    }

    /// Creates a TLV carrying a copy of `value`.
    #[must_use]
    pub fn with_value(tlv_type: u8, value: impl AsRef<[u8]>) -> Self {
        Tlv {
            tlv_type,
            type_ext: None,
            value: Some(Value::new(value.as_ref())),
        }
    }

    /// Returns a copy of this TLV with the given type extension.
    #[must_use]
    pub fn type_extended(mut self, ext: u8) -> Self {
        self.type_ext = Some(ext);
        self
    }

    /// The TLV type octet.
    #[must_use]
    pub fn tlv_type(&self) -> u8 {
        self.tlv_type
    }

    /// The optional type extension octet.
    #[must_use]
    pub fn type_ext(&self) -> Option<u8> {
        self.type_ext
    }

    /// The attribute value, if any.
    #[must_use]
    pub fn value(&self) -> Option<&[u8]> {
        self.value.as_ref().map(Value::as_slice)
    }

    /// The value interpreted as a single octet.
    ///
    /// Convenience for the many MANET TLVs whose value is one byte (link
    /// status, willingness, encoded times). Returns `None` when there is no
    /// value or it is not exactly one byte.
    #[must_use]
    pub fn value_u8(&self) -> Option<u8> {
        match self.value() {
            Some([b]) => Some(*b),
            _ => None,
        }
    }

    /// The value interpreted as a big-endian `u16`.
    #[must_use]
    pub fn value_u16(&self) -> Option<u16> {
        match self.value() {
            Some([a, b]) => Some(u16::from_be_bytes([*a, *b])),
            _ => None,
        }
    }

    /// The value interpreted as a big-endian `u32`.
    #[must_use]
    pub fn value_u32(&self) -> Option<u32> {
        match self.value() {
            Some([a, b, c, d]) => Some(u32::from_be_bytes([*a, *b, *c, *d])),
            _ => None,
        }
    }
}

/// A TLV attached to an [`AddressBlock`](crate::AddressBlock), optionally
/// scoped to a contiguous index range of the block's addresses.
///
/// With `indexes == None` the attribute applies to every address in the
/// block; with `Some((start, stop))` it applies to addresses
/// `start..=stop` (inclusive, zero-based).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AddressTlv {
    tlv: Tlv,
    indexes: Option<(u8, u8)>,
}

impl AddressTlv {
    /// An address TLV applying to all addresses of its block.
    #[must_use]
    pub fn all(tlv: Tlv) -> Self {
        AddressTlv { tlv, indexes: None }
    }

    /// An address TLV applying to a single address index.
    #[must_use]
    pub fn single(tlv: Tlv, index: u8) -> Self {
        AddressTlv {
            tlv,
            indexes: Some((index, index)),
        }
    }

    /// An address TLV applying to the inclusive index range `start..=stop`.
    ///
    /// # Panics
    ///
    /// Panics if `start > stop`.
    #[must_use]
    pub fn range(tlv: Tlv, start: u8, stop: u8) -> Self {
        assert!(start <= stop, "inverted address TLV index range");
        AddressTlv {
            tlv,
            indexes: Some((start, stop)),
        }
    }

    /// The wrapped TLV.
    #[must_use]
    pub fn tlv(&self) -> &Tlv {
        &self.tlv
    }

    /// The index range, if scoped.
    #[must_use]
    pub fn indexes(&self) -> Option<(u8, u8)> {
        self.indexes
    }

    /// Whether this TLV applies to the address at `index` in a block of
    /// `block_len` addresses.
    #[must_use]
    pub fn applies_to(&self, index: usize, block_len: usize) -> bool {
        if index >= block_len {
            return false;
        }
        match self.indexes {
            None => true,
            Some((start, stop)) => (start as usize) <= index && index <= (stop as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        let t = Tlv::with_value(1, vec![0xAB]);
        assert_eq!(t.value_u8(), Some(0xAB));
        assert_eq!(t.value_u16(), None);
        let t = Tlv::with_value(1, vec![0x01, 0x02]);
        assert_eq!(t.value_u16(), Some(0x0102));
        let t = Tlv::with_value(1, vec![0, 0, 1, 0]);
        assert_eq!(t.value_u32(), Some(256));
        assert_eq!(Tlv::flag(9).value(), None);
    }

    #[test]
    fn type_extension() {
        let t = Tlv::flag(3).type_extended(2);
        assert_eq!(t.type_ext(), Some(2));
        assert_eq!(t.tlv_type(), 3);
    }

    #[test]
    fn address_tlv_scoping() {
        let all = AddressTlv::all(Tlv::flag(1));
        assert!(all.applies_to(0, 3));
        assert!(all.applies_to(2, 3));
        assert!(!all.applies_to(3, 3));

        let one = AddressTlv::single(Tlv::flag(1), 1);
        assert!(!one.applies_to(0, 3));
        assert!(one.applies_to(1, 3));

        let range = AddressTlv::range(Tlv::flag(1), 1, 2);
        assert!(!range.applies_to(0, 4));
        assert!(range.applies_to(2, 4));
        assert!(!range.applies_to(3, 4));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_range_panics() {
        let _ = AddressTlv::range(Tlv::flag(1), 3, 1);
    }
}
