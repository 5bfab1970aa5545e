//! Differential test of the Neighbour Detection CF's HELLO handler: the
//! handler that walks each address block once and rewrites a two-hop set
//! only when it changed must be indistinguishable from the one it replaced,
//! which built a `Vec` of advertised pairs (one `Vec` of TLVs per address), a
//! fresh `BTreeSet` per HELLO and looked the sender up twice. That older
//! logic lives on below, as the oracle; its sets become the table's sorted
//! slices only when it fills a `NeighbourInfo`.

use std::collections::BTreeSet;
use std::sync::Arc;

use manetkit::event::{types, Event, NeighbourhoodChange, Payload};
use manetkit::neighbour::{
    neighbour_detection_cf, LinkSet, NeighbourConfig, NeighbourInfo, NeighbourTable,
};
use manetkit::protocol::ProtoCtx;
use netsim::{NodeId, NodeOs};
use packetbb::registry::{link_status, msg_type, tlv_type};
use packetbb::{Address, AddressBlock, AddressTlv, Message, MessageBuilder, Tlv};
use proptest::prelude::*;

const LOCAL: Address = Address::v4([10, 0, 0, 1]);

/// The neighbourhood a HELLO can mention: the local node and seven others.
fn pool(i: u8) -> Address {
    Address::v4([10, 0, 0, 1 + i % 8])
}

// ---- the oracle: the handler as it was -------------------------------------

fn old_parse_hello_neighbours(msg: &Message) -> Vec<(Address, bool)> {
    let mut out = Vec::new();
    for block in msg.address_blocks() {
        for (addr, tlvs) in block.iter_with_tlvs() {
            let sym = tlvs.iter().any(|t| {
                t.tlv().tlv_type() == tlv_type::LINK_STATUS
                    && t.tlv().value_u8() == Some(link_status::SYMMETRIC)
            });
            out.push((addr, sym));
        }
    }
    out
}

/// `NeighbourTable::two_hop_pairs` as it was, over a `BTreeSet` of the
/// symmetric neighbours.
fn old_two_hop_pairs(table: &NeighbourTable) -> Vec<(Address, Address)> {
    let sym: BTreeSet<Address> = table.symmetric().into_iter().collect();
    let mut pairs = Vec::new();
    for (nb, info) in &table.neighbours {
        if !info.symmetric {
            continue;
        }
        for th in &info.two_hop {
            if *th != LOCAL && !sym.contains(th) {
                pairs.push((*nb, *th));
            }
        }
    }
    pairs
}

#[derive(Default)]
struct OldHandler {
    table: NeighbourTable,
    changes: Vec<NeighbourhoodChange>,
    links_added: u64,
}

impl OldHandler {
    fn handle(&mut self, msg: &Message, from: Address) {
        let sender = msg.originator().unwrap_or(from);
        if sender == LOCAL {
            return;
        }
        let advertised = old_parse_hello_neighbours(msg);
        let hears_us = advertised.iter().any(|(a, _)| *a == LOCAL);
        let two_hop: BTreeSet<Address> = advertised
            .iter()
            .filter(|(a, sym)| *sym && *a != LOCAL)
            .map(|(a, _)| *a)
            .collect();
        let was_symmetric = self
            .table
            .neighbours
            .get(&sender)
            .map(|i| i.symmetric)
            .unwrap_or(false);
        let entry = self
            .table
            .neighbours
            .entry(sender)
            .or_insert(NeighbourInfo {
                last_heard: netsim::SimTime::ZERO,
                symmetric: false,
                two_hop: Vec::new(),
            });
        entry.symmetric = hears_us;
        entry.two_hop = two_hop.into_iter().collect();
        if hears_us && !was_symmetric {
            self.links_added += 1;
            self.changes.push(NeighbourhoodChange {
                sym_neighbours: self.table.symmetric(),
                two_hop: old_two_hop_pairs(&self.table),
                added: vec![sender],
                lost: vec![],
            });
        }
    }
}

// ---- random HELLOs ----------------------------------------------------------

#[derive(Debug, Clone)]
enum Scope {
    All,
    Single(u8),
    Range(u8, u8),
}

#[derive(Debug, Clone)]
struct TlvSpec {
    scope: Scope,
    /// 0..=1 `LINK_STATUS` symmetric / asymmetric, 2 an unknown status,
    /// 3 a valueless `LINK_STATUS`, 4 a two-byte one, 5 another TLV type
    /// that happens to carry the symmetric value.
    flavour: u8,
}

impl TlvSpec {
    fn build(&self) -> AddressTlv {
        let tlv = match self.flavour {
            0 => Tlv::with_value(tlv_type::LINK_STATUS, vec![link_status::SYMMETRIC]),
            1 => Tlv::with_value(tlv_type::LINK_STATUS, vec![link_status::ASYMMETRIC]),
            2 => Tlv::with_value(tlv_type::LINK_STATUS, vec![0x7F]),
            3 => Tlv::flag(tlv_type::LINK_STATUS),
            4 => Tlv::with_value(
                tlv_type::LINK_STATUS,
                vec![link_status::SYMMETRIC, link_status::SYMMETRIC],
            ),
            _ => Tlv::with_value(tlv_type::VALIDITY_TIME, vec![link_status::SYMMETRIC]),
        };
        match self.scope {
            Scope::All => AddressTlv::all(tlv),
            Scope::Single(i) => AddressTlv::single(tlv, i),
            Scope::Range(a, b) => AddressTlv::range(tlv, a.min(b), a.max(b)),
        }
    }
}

fn arb_tlv() -> impl Strategy<Value = TlvSpec> {
    // Indexes run a little past the longest block, so some TLVs cover
    // nothing and some ranges hang over the end.
    let scope = prop_oneof![
        1 => Just(Scope::All),
        4 => (0u8..8).prop_map(Scope::Single),
        2 => (0u8..8, 0u8..8).prop_map(|(a, b)| Scope::Range(a, b)),
    ];
    let flavour = prop_oneof![4 => Just(0u8), 3 => Just(1u8), 1 => 2u8..6];
    (scope, flavour).prop_map(|(scope, flavour)| TlvSpec { scope, flavour })
}

#[derive(Debug, Clone)]
struct HelloSpec {
    /// `None`: no originator, the handler falls back to the link sender.
    originator: Option<u8>,
    from: u8,
    blocks: Vec<(Vec<u8>, Vec<TlvSpec>)>,
}

impl HelloSpec {
    fn build(&self) -> (Message, Address) {
        let mut b = MessageBuilder::new(msg_type::HELLO).hop_limit(1);
        if let Some(o) = self.originator {
            b = b.originator(pool(o));
        }
        for (addrs, tlvs) in &self.blocks {
            let mut block = AddressBlock::new(addrs.iter().map(|a| pool(*a)).collect())
                .expect("non-empty, one family");
            for t in tlvs {
                block.add_tlv(t.build());
            }
            b = b.push_address_block(block);
        }
        (b.build(), pool(self.from))
    }
}

fn arb_hello() -> impl Strategy<Value = HelloSpec> {
    // Addresses repeat freely inside and across blocks (pool of 8, up to 6
    // per block), so "listed twice with different status" is common, and
    // the local address is sometimes there and sometimes not.
    let block = (
        proptest::collection::vec(0u8..8, 1..6),
        proptest::collection::vec(arb_tlv(), 0..6),
    );
    (
        proptest::option::of(0u8..5),
        0u8..5,
        proptest::collection::vec(block, 0..4),
    )
        .prop_map(|(originator, from, blocks)| HelloSpec {
            originator,
            from,
            blocks,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Any HELLO stream leaves the same neighbour table, the same
    /// `NHOOD_CHANGE` payloads in the same order and the same
    /// `nd_link_added` count as the old handler.
    #[test]
    fn handler_matches_the_one_it_replaced(
        hellos in proptest::collection::vec(arb_hello(), 1..8),
        // The stream replays the pool of HELLOs in any order, so identical
        // HELLOs repeat, back to back and apart.
        stream in proptest::collection::vec(0usize..8, 1..32),
    ) {
        let mut cf = neighbour_detection_cf(NeighbourConfig::default());
        let mut os = NodeOs::standalone(NodeId(0), LOCAL);
        let mut old = OldHandler::default();
        let mut changes: Vec<NeighbourhoodChange> = Vec::new();
        for pick in stream {
            let (msg, from) = hellos[pick % hellos.len()].build();
            old.handle(&msg, from);

            let event = Event::message_in(types::hello_in(), Arc::new(msg), from);
            let mut ctx = ProtoCtx::new(&mut os, "neighbour-detection");
            cf.deliver(&event, &mut ctx);
            for emitted in ctx.take_outputs().emitted {
                prop_assert_eq!(emitted.ty, types::nhood_change());
                match emitted.payload {
                    Payload::Neighbourhood(change) => changes.push((*change).clone()),
                    other => prop_assert!(false, "NHOOD_CHANGE carrying {other:?}"),
                }
            }

            prop_assert_eq!(cf.state().get::<NeighbourTable>(), &old.table);
            prop_assert_eq!(&changes, &old.changes);
            prop_assert_eq!(os.counter("nd_link_added"), old.links_added);
        }
    }
}

#[test]
fn for_each_hello_link_agrees_with_the_per_address_tlv_rows() {
    // The handler's single walk, pinned on a block that mixes every scope,
    // repeats an address and runs a range past the end of the block.
    let status = |s| Tlv::with_value(tlv_type::LINK_STATUS, vec![s]);
    let block = AddressBlock::new(vec![pool(1), pool(2), pool(1), pool(3), pool(4)])
        .unwrap()
        .push_tlv(AddressTlv::single(status(link_status::ASYMMETRIC), 0))
        .push_tlv(AddressTlv::single(status(link_status::SYMMETRIC), 2))
        .push_tlv(AddressTlv::range(status(link_status::SYMMETRIC), 3, 200))
        .push_tlv(AddressTlv::all(status(link_status::ASYMMETRIC)));
    let msg = MessageBuilder::new(msg_type::HELLO)
        .originator(pool(5))
        .push_address_block(block)
        .build();
    let mut parsed = Vec::new();
    manetkit::neighbour::for_each_hello_link(&msg, |l| parsed.push((l.addr, l.symmetric)));
    assert_eq!(parsed, old_parse_hello_neighbours(&msg));
    assert_eq!(
        parsed,
        vec![
            (pool(1), false),
            (pool(2), false),
            (pool(1), true),
            (pool(3), true),
            (pool(4), true),
        ]
    );
}
