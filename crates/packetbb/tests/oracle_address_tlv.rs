//! Oracles for two representations chosen for speed: `Address` orders by
//! comparing integers, and a `Tlv` keeps a short value inline. Each must be
//! indistinguishable from what it replaced: the derived order over
//! `(family, octets)`, and a value that is one heap buffer compared and
//! hashed by content.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use packetbb::{Address, AddressBlock, AddressTlv, MessageBuilder, Packet, Tlv};
use proptest::prelude::*;

/// An octet, often one where a signed or byte-wise compare would go wrong.
fn octet() -> impl Strategy<Value = u8> {
    prop_oneof![
        3 => prop_oneof![Just(0x00u8), Just(0x7f), Just(0x80), Just(0xff)],
        1 => any::<u8>(),
    ]
}

fn address() -> impl Strategy<Value = Address> {
    prop_oneof![
        proptest::collection::vec(octet(), 4..=4)
            .prop_map(|o| Address::from_octets(&o).expect("four octets")),
        proptest::collection::vec(octet(), 16..=16)
            .prop_map(|o| Address::from_octets(&o).expect("sixteen octets")),
    ]
}

/// The order `Address` derived before: variant first (V4 < V6), then the
/// octets lexicographically.
fn derived_order(a: &Address, b: &Address) -> Ordering {
    (a.family(), a.octets()).cmp(&(b.family(), b.octets()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn address_order_is_the_derived_order(a in address(), b in address()) {
        prop_assert_eq!(a.cmp(&b), derived_order(&a, &b));
        prop_assert_eq!(a.partial_cmp(&b), Some(derived_order(&a, &b)));
        prop_assert_eq!(a == b, derived_order(&a, &b) == Ordering::Equal);
    }

    #[test]
    fn sorted_addresses_follow_the_derived_order(
        addrs in proptest::collection::vec(address(), 0..24),
    ) {
        let mut oracle = addrs.clone();
        oracle.sort_by(derived_order);
        let mut sorted = addrs;
        sorted.sort();
        prop_assert_eq!(sorted, oracle);
    }
}

fn hash_of(t: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// A value of `len` bytes whose content depends on `salt`.
fn value(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

#[test]
fn tlv_values_round_trip_across_the_inline_limit() {
    let addr = Address::v4([10, 0, 0, 1]);
    for len in 0..=18 {
        let v = value(len, 7);
        let tlv = Tlv::with_value(9, v.clone());
        assert_eq!(tlv.value(), Some(&v[..]), "len {len}");
        let block = AddressBlock::new(vec![addr])
            .expect("one address")
            .push_tlv(AddressTlv::single(Tlv::with_value(3, &v[..]), 0));
        let msg = MessageBuilder::new(1)
            .originator(addr)
            .push_tlv(tlv.clone())
            .push_address_block(block)
            .build();
        let wire = Packet::single(msg.clone()).encode_to_vec();
        let back = Packet::decode(&wire).expect("decodes");
        let decoded = &back.messages()[0];
        assert_eq!(decoded, &msg, "len {len}");
        assert_eq!(decoded.tlvs()[0], tlv, "len {len}");
        assert_eq!(hash_of(&decoded.tlvs()[0]), hash_of(&tlv), "len {len}");
        let addr_tlv = decoded.address_blocks()[0].tlvs()[0].tlv();
        assert_eq!(addr_tlv.value(), Some(&v[..]), "len {len}");
        // The encoding is the old one, byte for byte: type, flags, length,
        // value.
        let mut expected = vec![9, 0x10];
        expected.extend_from_slice(&(len as u16).to_be_bytes());
        expected.extend_from_slice(&v);
        assert!(
            wire.windows(expected.len()).any(|w| w == expected),
            "len {len}"
        );
    }
}

#[test]
fn tlv_equality_and_hashing_are_by_content() {
    for len in 0..=18 {
        let v = value(len, 1);
        let a = Tlv::with_value(4, v.clone());
        let b = Tlv::with_value(4, &v[..]);
        assert_eq!(a, b, "len {len}");
        assert_eq!(hash_of(&a), hash_of(&b), "len {len}");
        // The fields hash in turn and a value hashes as its bytes, as the
        // derived hash over the old heap buffer did.
        let old = (4u8, None::<u8>, Some(&v[..]));
        assert_eq!(hash_of(&a), hash_of(&old), "len {len}");
        if len > 0 {
            assert_ne!(a, Tlv::with_value(4, value(len, 2)), "len {len}");
        }
        assert_ne!(a, Tlv::with_value(4, value(len + 1, 1)), "len {len}");
        assert_ne!(a, Tlv::flag(4), "len {len}");
    }
}
