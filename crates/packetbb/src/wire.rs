//! Binary codec internals shared by [`Packet`](crate::Packet) and
//! [`Message`](crate::Message).
//!
//! The layout follows RFC 5444's structure: nibble-packed header flags,
//! 16-bit big-endian sizes, TLV blocks prefixed with their byte length, and
//! head/mid/tail compression of address blocks.

use crate::addrblock::{AddressBlock, PrefixMode};
use crate::error::DecodeError;
use crate::tlv::{AddressTlv, Tlv};
use crate::{Address, AddressFamily};

// ---- TLV flag bits -------------------------------------------------------
const TLV_HAS_TYPE_EXT: u8 = 0x80;
const TLV_SINGLE_INDEX: u8 = 0x40;
const TLV_MULTI_INDEX: u8 = 0x20;
const TLV_HAS_VALUE: u8 = 0x10;

// ---- Address block flag bits ---------------------------------------------
const AB_HAS_HEAD: u8 = 0x80;
const AB_HAS_TAIL: u8 = 0x40;
const AB_SINGLE_PREFIX: u8 = 0x10;
const AB_MULTI_PREFIX: u8 = 0x08;

/// Cursor over an input buffer with contextual truncation errors.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    pub(crate) fn u8(&mut self, context: &'static str) -> Result<u8, DecodeError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(DecodeError::Truncated { context })?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn u16(&mut self, context: &'static str) -> Result<u16, DecodeError> {
        let hi = self.u8(context)?;
        let lo = self.u8(context)?;
        Ok(u16::from_be_bytes([hi, lo]))
    }

    pub(crate) fn bytes(
        &mut self,
        len: usize,
        context: &'static str,
    ) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < len {
            return Err(DecodeError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Sub-reader over the next `len` bytes, advancing this reader past them.
    pub(crate) fn slice(
        &mut self,
        len: usize,
        context: &'static str,
    ) -> Result<Reader<'a>, DecodeError> {
        Ok(Reader::new(self.bytes(len, context)?))
    }
}

// ---- TLV ------------------------------------------------------------------

fn encode_tlv(out: &mut Vec<u8>, tlv: &Tlv, indexes: Option<(u8, u8)>) {
    out.push(tlv.tlv_type());
    let mut flags = 0u8;
    if tlv.type_ext().is_some() {
        flags |= TLV_HAS_TYPE_EXT;
    }
    match indexes {
        Some((a, b)) if a == b => flags |= TLV_SINGLE_INDEX,
        Some(_) => flags |= TLV_MULTI_INDEX,
        None => {}
    }
    if tlv.value().is_some() {
        flags |= TLV_HAS_VALUE;
    }
    out.push(flags);
    if let Some(ext) = tlv.type_ext() {
        out.push(ext);
    }
    match indexes {
        Some((a, b)) if a == b => out.push(a),
        Some((a, b)) => {
            out.push(a);
            out.push(b);
        }
        None => {}
    }
    if let Some(v) = tlv.value() {
        debug_assert!(v.len() <= u16::MAX as usize, "TLV value too large");
        out.extend_from_slice(&(v.len() as u16).to_be_bytes());
        out.extend_from_slice(v);
    }
}

fn decode_tlv(r: &mut Reader<'_>) -> Result<(Tlv, Option<(u8, u8)>), DecodeError> {
    let ty = r.u8("tlv type")?;
    let flags = r.u8("tlv flags")?;
    let type_ext = if flags & TLV_HAS_TYPE_EXT != 0 {
        Some(r.u8("tlv type-ext")?)
    } else {
        None
    };
    let indexes = if flags & TLV_SINGLE_INDEX != 0 {
        let i = r.u8("tlv index")?;
        Some((i, i))
    } else if flags & TLV_MULTI_INDEX != 0 {
        let a = r.u8("tlv index-start")?;
        let b = r.u8("tlv index-stop")?;
        Some((a, b))
    } else {
        None
    };
    let value = if flags & TLV_HAS_VALUE != 0 {
        let len = r.u16("tlv value length")? as usize;
        Some(r.bytes(len, "tlv value")?)
    } else {
        None
    };
    let mut tlv = match value {
        Some(v) => Tlv::with_value(ty, v),
        None => Tlv::flag(ty),
    };
    if let Some(ext) = type_ext {
        tlv = tlv.type_extended(ext);
    }
    Ok((tlv, indexes))
}

/// Encodes a TLV block (length-prefixed) of plain TLVs.
pub(crate) fn encode_tlv_block(out: &mut Vec<u8>, tlvs: &[Tlv]) {
    encode_block(out, |body| {
        for t in tlvs {
            encode_tlv(body, t, None);
        }
    });
}

/// Encodes a TLV block of address TLVs (with index ranges).
pub(crate) fn encode_addr_tlv_block(out: &mut Vec<u8>, tlvs: &[AddressTlv]) {
    encode_block(out, |body| {
        for t in tlvs {
            encode_tlv(body, t.tlv(), t.indexes());
        }
    });
}

fn encode_block(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    out.extend_from_slice(&[0, 0]);
    let start = out.len();
    fill(out);
    let len = out.len() - start;
    debug_assert!(len <= u16::MAX as usize, "TLV block too large");
    out[len_at..len_at + 2].copy_from_slice(&(len as u16).to_be_bytes());
}

/// Decodes a TLV block of plain TLVs; index fields are rejected here by
/// being ignored (packet/message TLVs carry no indexes in practice).
pub(crate) fn decode_tlv_block(r: &mut Reader<'_>) -> Result<Vec<Tlv>, DecodeError> {
    let len = r.u16("tlv block length")? as usize;
    let mut sub = r.slice(len, "tlv block")?;
    let mut tlvs = Vec::new();
    while sub.remaining() > 0 {
        let (tlv, _indexes) = decode_tlv(&mut sub)?;
        tlvs.push(tlv);
    }
    Ok(tlvs)
}

fn decode_addr_tlv_block(
    r: &mut Reader<'_>,
    num_addrs: usize,
) -> Result<Vec<AddressTlv>, DecodeError> {
    let len = r.u16("address tlv block length")? as usize;
    let mut sub = r.slice(len, "address tlv block")?;
    let mut tlvs = Vec::new();
    while sub.remaining() > 0 {
        let (tlv, indexes) = decode_tlv(&mut sub)?;
        let atlv = match indexes {
            None => AddressTlv::all(tlv),
            Some((start, stop)) => {
                if start > stop || stop as usize >= num_addrs {
                    return Err(DecodeError::BadTlvIndex {
                        start,
                        stop,
                        addrs: num_addrs,
                    });
                }
                AddressTlv::range(tlv, start, stop)
            }
        };
        tlvs.push(atlv);
    }
    Ok(tlvs)
}

// ---- Address block --------------------------------------------------------

pub(crate) fn encode_address_block(out: &mut Vec<u8>, block: &AddressBlock) {
    let addr_len = block.family().len();
    let (head, tail) = block.head_tail();
    let mid = addr_len - head - tail;
    debug_assert!(block.len() <= u8::MAX as usize, "too many addresses");
    out.push(block.len() as u8);

    let mut flags = 0u8;
    if head > 0 {
        flags |= AB_HAS_HEAD;
    }
    if tail > 0 {
        flags |= AB_HAS_TAIL;
    }
    match block.prefixes() {
        PrefixMode::None => {}
        PrefixMode::Single(_) => flags |= AB_SINGLE_PREFIX,
        PrefixMode::PerAddress(_) => flags |= AB_MULTI_PREFIX,
    }
    out.push(flags);

    let first = block.addresses()[0].octets();
    if head > 0 {
        out.push(head as u8);
        out.extend_from_slice(&first[..head]);
    }
    if tail > 0 {
        out.push(tail as u8);
        out.extend_from_slice(&first[addr_len - tail..]);
    }
    for a in block.addresses() {
        out.extend_from_slice(&a.octets()[head..addr_len - tail]);
    }
    debug_assert_eq!(mid, addr_len - head - tail);
    match block.prefixes() {
        PrefixMode::None => {}
        PrefixMode::Single(p) => out.push(*p),
        PrefixMode::PerAddress(v) => out.extend_from_slice(v),
    }
    encode_addr_tlv_block(out, block.tlvs());
}

pub(crate) fn decode_address_block(
    r: &mut Reader<'_>,
    family: AddressFamily,
) -> Result<AddressBlock, DecodeError> {
    let addr_len = family.len();
    let num = r.u8("address block count")? as usize;
    if num == 0 {
        return Err(DecodeError::BadAddressBlock {
            reason: "zero addresses",
        });
    }
    let flags = r.u8("address block flags")?;

    let (head_len, head): (usize, &[u8]) = if flags & AB_HAS_HEAD != 0 {
        let l = r.u8("head length")? as usize;
        (l, r.bytes(l, "head bytes")?)
    } else {
        (0, &[])
    };
    let (tail_len, tail): (usize, &[u8]) = if flags & AB_HAS_TAIL != 0 {
        let l = r.u8("tail length")? as usize;
        (l, r.bytes(l, "tail bytes")?)
    } else {
        (0, &[])
    };
    if head_len + tail_len > addr_len {
        return Err(DecodeError::BadAddressBlock {
            reason: "head + tail exceed address length",
        });
    }
    let mid_len = addr_len - head_len - tail_len;
    let head = head.to_vec();
    let tail = tail.to_vec();

    let mut addresses = Vec::with_capacity(num);
    for _ in 0..num {
        let mid = r.bytes(mid_len, "address mid bytes")?;
        let mut octets = Vec::with_capacity(addr_len);
        octets.extend_from_slice(&head);
        octets.extend_from_slice(mid);
        octets.extend_from_slice(&tail);
        let addr = Address::from_octets(&octets).ok_or(DecodeError::BadAddressBlock {
            reason: "reassembled address has wrong length",
        })?;
        addresses.push(addr);
    }

    let prefixes = if flags & AB_SINGLE_PREFIX != 0 {
        let p = r.u8("single prefix")?;
        if p > family.bits() {
            return Err(DecodeError::BadPrefixLength(p));
        }
        PrefixMode::Single(p)
    } else if flags & AB_MULTI_PREFIX != 0 {
        let raw = r.bytes(num, "per-address prefixes")?.to_vec();
        if let Some(p) = raw.iter().find(|p| **p > family.bits()) {
            return Err(DecodeError::BadPrefixLength(*p));
        }
        PrefixMode::PerAddress(raw)
    } else {
        PrefixMode::None
    };

    let tlvs = decode_addr_tlv_block(r, num)?;
    let mut block = AddressBlock::with_prefixes(addresses, prefixes).map_err(|_| {
        DecodeError::BadAddressBlock {
            reason: "inconsistent reconstructed block",
        }
    })?;
    for t in tlvs {
        block.add_tlv(t);
    }
    Ok(block)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlv_round_trip_all_shapes() {
        let cases = vec![
            (Tlv::flag(1), None),
            (Tlv::flag(2).type_extended(9), None),
            (Tlv::with_value(3, vec![1, 2, 3]), None),
            (Tlv::with_value(4, Vec::<u8>::new()), Some((2, 2))),
            (Tlv::with_value(5, vec![9]).type_extended(1), Some((0, 3))),
        ];
        for (tlv, idx) in cases {
            let mut out = Vec::new();
            encode_tlv(&mut out, &tlv, idx);
            let mut r = Reader::new(&out);
            let (back, back_idx) = decode_tlv(&mut r).unwrap();
            assert_eq!(back, tlv);
            assert_eq!(back_idx, idx);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn tlv_block_round_trip() {
        let tlvs = vec![Tlv::flag(1), Tlv::with_value(2, vec![5, 6])];
        let mut out = Vec::new();
        encode_tlv_block(&mut out, &tlvs);
        let mut r = Reader::new(&out);
        assert_eq!(decode_tlv_block(&mut r).unwrap(), tlvs);
    }

    #[test]
    fn empty_tlv_block() {
        let mut out = Vec::new();
        encode_tlv_block(&mut out, &[]);
        assert_eq!(out, vec![0, 0]);
        let mut r = Reader::new(&out);
        assert!(decode_tlv_block(&mut r).unwrap().is_empty());
    }

    #[test]
    fn address_block_round_trip_compressed() {
        let block = AddressBlock::new(vec![
            Address::v4([10, 0, 1, 1]),
            Address::v4([10, 0, 2, 1]),
            Address::v4([10, 0, 3, 1]),
        ])
        .unwrap();
        let mut out = Vec::new();
        encode_address_block(&mut out, &block);
        // head "10.0", tail ".1" -> one mid byte per address.
        let mut r = Reader::new(&out);
        let back = decode_address_block(&mut r, AddressFamily::V4).unwrap();
        assert_eq!(back, block);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn address_block_rejects_bad_index() {
        let block = AddressBlock::new(vec![Address::v4([1, 1, 1, 1])]).unwrap();
        let mut out = Vec::new();
        encode_address_block(&mut out, &block);
        // Manually craft a TLV block with an out-of-range index.
        let mut bad = out[..out.len() - 2].to_vec();
        let mut tlvs = Vec::new();
        encode_tlv(&mut tlvs, &Tlv::flag(1), Some((0, 5)));
        bad.extend_from_slice(&(tlvs.len() as u16).to_be_bytes());
        bad.extend_from_slice(&tlvs);
        let mut r = Reader::new(&bad);
        let err = decode_address_block(&mut r, AddressFamily::V4).unwrap_err();
        assert!(matches!(err, DecodeError::BadTlvIndex { .. }));
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        let block = AddressBlock::new(vec![Address::v4([10, 0, 1, 1]), Address::v4([10, 0, 2, 1])])
            .unwrap();
        let mut out = Vec::new();
        encode_address_block(&mut out, &block);
        for cut in 0..out.len() {
            let mut r = Reader::new(&out[..cut]);
            let _ = decode_address_block(&mut r, AddressFamily::V4);
        }
    }
}
