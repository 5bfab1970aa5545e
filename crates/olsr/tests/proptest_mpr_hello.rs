//! Differential test of the MPR CF's HELLO path: the MPR CF writes, reads
//! and reports HELLOs through the link-sensing core it shares with the
//! Neighbour Detection CF, and must be indistinguishable from the HELLO
//! code it carried of its own before. That code lives on below as the
//! oracle: an encoder of its own, a decoder that built one `Vec` per HELLO
//! and one `Vec` of TLVs per address, two-hop sets kept as `BTreeSet`s and
//! its own symmetric and two-hop queries behind `NHOOD_CHANGE`. Its sets
//! become the link set's sorted slices only when it fills a `LinkInfo`.

use std::collections::BTreeSet;
use std::sync::Arc;

use manetkit::event::{types, Event, MprChange, NeighbourhoodChange, Payload};
use manetkit::neighbour::LinkSet;
use manetkit::protocol::{EventHandler, EventSource, ProtoCtx, StateSlot};
use manetkit_olsr::mpr::{Hysteresis, LinkInfo, MprHelloHandler, MprHelloSource, MprState};
use netsim::{NodeId, NodeOs, SimDuration, SimTime};
use packetbb::registry::{link_status, msg_type, tlv_type, willingness};
use packetbb::{Address, AddressBlock, AddressTlv, Message, MessageBuilder, Packet, Tlv};
use proptest::prelude::*;

const LOCAL: Address = Address::v4([10, 0, 0, 1]);
const VALIDITY: SimDuration = SimDuration::from_secs(6);

/// The neighbourhood a HELLO can mention: the local node and seven others.
fn pool(i: u8) -> Address {
    Address::v4([10, 0, 0, 1 + i % 8])
}

// ---- the oracle: the MPR CF's HELLO code as it was ---------------------------

fn old_build_olsr_hello(
    local: Address,
    seq: u16,
    validity: SimDuration,
    state: &MprState,
    residual_energy: Option<f64>,
) -> Message {
    let mut b = MessageBuilder::new(msg_type::HELLO)
        .originator(local)
        .hop_limit(1)
        .seq_num(seq)
        .push_tlv(Tlv::with_value(
            tlv_type::VALIDITY_TIME,
            [packetbb::time::encode_time(validity.as_millis())],
        ))
        .push_tlv(Tlv::with_value(tlv_type::WILLINGNESS, [state.willingness]));
    if let Some(energy) = residual_energy {
        b = b.push_tlv(Tlv::with_value(
            tlv_type::RESIDUAL_ENERGY,
            [(energy.clamp(0.0, 1.0) * 255.0) as u8],
        ));
    }
    let links: Vec<(&Address, &LinkInfo)> = state.links.iter().collect();
    if !links.is_empty() {
        let addrs: Vec<Address> = links.iter().map(|(a, _)| **a).collect();
        let mut block = AddressBlock::new(addrs).expect("non-empty single-family");
        for (i, (addr, info)) in links.iter().enumerate() {
            let status = if info.symmetric {
                link_status::SYMMETRIC
            } else {
                link_status::ASYMMETRIC
            };
            block.add_tlv(AddressTlv::single(
                Tlv::with_value(tlv_type::LINK_STATUS, [status]),
                i as u8,
            ));
            if state.mpr_set.contains(addr) {
                block.add_tlv(AddressTlv::single(Tlv::flag(tlv_type::MPR), i as u8));
            }
        }
        b = b.push_address_block(block);
    }
    b.build()
}

struct OldHelloNeighbour {
    addr: Address,
    symmetric: bool,
    mpr: bool,
}

fn old_parse_olsr_hello(msg: &Message) -> Vec<OldHelloNeighbour> {
    let mut out = Vec::new();
    for block in msg.address_blocks() {
        for (addr, tlvs) in block.iter_with_tlvs() {
            let symmetric = tlvs.iter().any(|t| {
                t.tlv().tlv_type() == tlv_type::LINK_STATUS
                    && t.tlv().value_u8() == Some(link_status::SYMMETRIC)
            });
            let mpr = tlvs.iter().any(|t| t.tlv().tlv_type() == tlv_type::MPR);
            out.push(OldHelloNeighbour {
                addr,
                symmetric,
                mpr,
            });
        }
    }
    out
}

fn old_symmetric_neighbours(s: &MprState) -> Vec<Address> {
    (s.links.iter())
        .filter(|(_, l)| l.symmetric)
        .map(|(a, _)| *a)
        .collect()
}

fn old_two_hop_pairs(s: &MprState, local: Address) -> Vec<(Address, Address)> {
    let sym: BTreeSet<Address> = old_symmetric_neighbours(s).into_iter().collect();
    let mut out = Vec::new();
    for (nb, info) in &s.links {
        if !info.symmetric {
            continue;
        }
        for th in &info.two_hop {
            if *th != local && !sym.contains(th) {
                out.push((*nb, *th));
            }
        }
    }
    out
}

/// What the MPR CF's handlers emit, in order.
#[derive(Debug, Clone, PartialEq)]
enum Emitted {
    Nhood(NeighbourhoodChange),
    Mpr(MprChange),
}

fn old_emit_changes(
    s: &MprState,
    local: Address,
    added: Vec<Address>,
    lost: Vec<Address>,
    mpr_changed: bool,
    out: &mut Vec<Emitted>,
) {
    if !added.is_empty() || !lost.is_empty() {
        out.push(Emitted::Nhood(NeighbourhoodChange {
            sym_neighbours: old_symmetric_neighbours(s),
            two_hop: old_two_hop_pairs(s, local),
            added,
            lost,
        }));
    }
    if mpr_changed {
        out.push(Emitted::Mpr(MprChange {
            mprs: s.mpr_set.iter().copied().collect(),
            selectors: s.selectors.keys().copied().collect(),
        }));
    }
}

struct OldHandler {
    state: MprState,
    track_energy: bool,
    emitted: Vec<Emitted>,
    links_added: u64,
}

impl OldHandler {
    fn handle(&mut self, msg: &Message, from: Address) {
        let Some(sender) = msg.originator().or(Some(from)) else {
            return;
        };
        let local = LOCAL;
        if sender == local {
            return;
        }
        let now = SimTime::ZERO;
        let neighbours = old_parse_olsr_hello(msg);
        let hears_us = neighbours.iter().any(|n| n.addr == local);
        let selects_us = neighbours.iter().any(|n| n.addr == local && n.mpr);
        let their_willingness = msg
            .find_tlv(tlv_type::WILLINGNESS)
            .and_then(Tlv::value_u8)
            .unwrap_or(willingness::DEFAULT);
        let their_energy = msg
            .find_tlv(tlv_type::RESIDUAL_ENERGY)
            .and_then(Tlv::value_u8)
            .map(|v| f64::from(v) / 255.0);
        let two_hop: BTreeSet<Address> = neighbours
            .iter()
            .filter(|n| n.symmetric && n.addr != local)
            .map(|n| n.addr)
            .collect();

        let s = &mut self.state;
        let hyst = s.hysteresis;
        let was_symmetric = s.links.get(&sender).is_some_and(|l| l.symmetric);
        let entry = s.links.entry(sender).or_insert(LinkInfo {
            last_heard: now,
            symmetric: false,
            willingness: their_willingness,
            two_hop: Vec::new(),
            quality: 0.0,
            hyst_pending: true,
            residual_energy: 1.0,
        });
        entry.last_heard = now;
        entry.willingness = their_willingness;
        entry.two_hop = two_hop.into_iter().collect();
        if self.track_energy {
            if let Some(e) = their_energy {
                entry.residual_energy = e;
            }
        }
        if hyst.enabled() {
            entry.quality = (1.0 - hyst.scaling) * entry.quality + hyst.scaling;
            if entry.quality >= hyst.accept {
                entry.hyst_pending = false;
            } else if entry.quality <= hyst.reject {
                entry.hyst_pending = true;
            }
        } else {
            entry.quality = 1.0;
            entry.hyst_pending = false;
        }
        let usable = !entry.hyst_pending;
        entry.symmetric = hears_us && usable;
        let is_symmetric = entry.symmetric;

        if selects_us {
            s.selectors.insert(sender, now + VALIDITY);
        } else {
            s.selectors.remove(&sender);
        }

        let mpr_changed = s.recompute_mprs(local);
        let added = if is_symmetric && !was_symmetric {
            self.links_added += 1;
            vec![sender]
        } else {
            vec![]
        };
        let lost = if !is_symmetric && was_symmetric {
            vec![sender]
        } else {
            vec![]
        };
        let selector_event = selects_us || mpr_changed;
        old_emit_changes(s, local, added, lost, selector_event, &mut self.emitted);
    }
}

fn emitted(event: Event) -> Emitted {
    match event.payload {
        Payload::Neighbourhood(change) if event.ty == types::nhood_change() => {
            Emitted::Nhood((*change).clone())
        }
        Payload::Mpr(change) if event.ty == types::mpr_change() => Emitted::Mpr((*change).clone()),
        other => panic!("unexpected event {:?} carrying {other:?}", event.ty),
    }
}

// ---- random link sets ---------------------------------------------------------

/// `(neighbour, symmetric, selected as MPR, two-hop ids)` per link, the
/// node's willingness and whether it advertises its energy.
type LinkSetSpec = (Vec<(u8, bool, bool, Vec<u8>)>, u8, bool);

fn arb_link_set() -> impl Strategy<Value = LinkSetSpec> {
    let link = (
        1u8..40,
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(0u8..40, 0..5),
    );
    (
        proptest::collection::vec(link, 0..12),
        any::<u8>(),
        any::<bool>(),
    )
}

fn state_of((links, will, _): &LinkSetSpec) -> MprState {
    let addr = |i: u8| Address::v4([10, 0, 0, 1 + i]);
    let mut s = MprState {
        willingness: *will,
        ..MprState::default()
    };
    for (id, sym, mpr, two_hop) in links {
        let two_hop: BTreeSet<Address> = two_hop.iter().map(|t| addr(*t)).collect();
        s.links.insert(
            addr(*id),
            LinkInfo {
                last_heard: SimTime::ZERO,
                symmetric: *sym,
                willingness: willingness::DEFAULT,
                two_hop: two_hop.into_iter().collect(),
                quality: 1.0,
                hyst_pending: false,
                residual_energy: 1.0,
            },
        );
        if *mpr {
            s.mpr_set.insert(addr(*id));
        }
    }
    s
}

// ---- random HELLOs ------------------------------------------------------------

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
    /// 3 an `MPR` flag, 4 an `MPR` TLV with a value, 5 a valueless
    /// `LINK_STATUS`, 6 another TLV type carrying the symmetric value.
    flavour: u8,
}

impl TlvSpec {
    fn build(&self) -> AddressTlv {
        let tlv = match self.flavour {
            0 => Tlv::with_value(tlv_type::LINK_STATUS, vec![link_status::SYMMETRIC]),
            1 => Tlv::with_value(tlv_type::LINK_STATUS, vec![link_status::ASYMMETRIC]),
            2 => Tlv::with_value(tlv_type::LINK_STATUS, vec![0x7F]),
            3 => Tlv::flag(tlv_type::MPR),
            4 => Tlv::with_value(tlv_type::MPR, vec![1]),
            5 => Tlv::flag(tlv_type::LINK_STATUS),
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
    let flavour = prop_oneof![4 => Just(0u8), 2 => Just(1u8), 3 => 3u8..5, 1 => 2u8..7];
    (scope, flavour).prop_map(|(scope, flavour)| TlvSpec { scope, flavour })
}

#[derive(Debug, Clone)]
struct HelloSpec {
    /// `None`: no originator, the handler falls back to the link sender.
    originator: Option<u8>,
    from: u8,
    willingness: Option<u8>,
    energy: Option<u8>,
    blocks: Vec<(Vec<u8>, Vec<TlvSpec>)>,
}

impl HelloSpec {
    fn build(&self) -> (Message, Address) {
        let mut b = MessageBuilder::new(msg_type::HELLO).hop_limit(1);
        if let Some(o) = self.originator {
            b = b.originator(pool(o));
        }
        if let Some(w) = self.willingness {
            b = b.push_tlv(Tlv::with_value(tlv_type::WILLINGNESS, [w]));
        }
        if let Some(e) = self.energy {
            b = b.push_tlv(Tlv::with_value(tlv_type::RESIDUAL_ENERGY, [e]));
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
    // per block), so "listed twice with different marks" is common, and
    // the local address is sometimes there and sometimes not.
    let block = (
        proptest::collection::vec(0u8..8, 1..6),
        proptest::collection::vec(arb_tlv(), 0..6),
    );
    (
        proptest::option::of(0u8..5),
        0u8..5,
        proptest::option::of(any::<u8>()),
        proptest::option::of(any::<u8>()),
        proptest::collection::vec(block, 0..4),
    )
        .prop_map(
            |(originator, from, willingness, energy, blocks)| HelloSpec {
                originator,
                from,
                willingness,
                energy,
                blocks,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Any link set encodes to the bytes the old encoder wrote, and reports
    /// the `NHOOD_CHANGE` the old queries built (what the expiry sweep
    /// emits over it).
    #[test]
    fn link_sets_encode_and_report_as_before(spec in arb_link_set(), lost in any::<bool>()) {
        let state = state_of(&spec);
        let mut source = MprHelloSource {
            interval: SimDuration::from_secs(2),
            validity: VALIDITY,
            advertise_energy: spec.2,
        };
        let mut os = NodeOs::standalone(NodeId(0), LOCAL);
        let energy = spec.2.then(|| os.battery_level());
        let mut slot = StateSlot::new(state.clone());
        let mut ctx = ProtoCtx::new(&mut os, "mpr");
        source.fire(&mut slot, &mut ctx);
        let outputs = ctx.take_outputs().emitted;
        prop_assert_eq!(outputs.len(), 1);
        let msg = outputs[0].message().expect("HELLO_OUT carries the HELLO");
        let seq = msg.seq_num().expect("numbered");
        let old = old_build_olsr_hello(LOCAL, seq, VALIDITY, &state, energy);
        prop_assert_eq!(&**msg, &old);
        prop_assert_eq!(
            Packet::single((**msg).clone()).encode_to_vec(),
            Packet::single(old).encode_to_vec()
        );

        // The sweep reports a neighbourhood only when it lost someone.
        if let Some(&changed) = state.links.keys().next() {
            let (added, lost) = if lost { (vec![], vec![changed]) } else { (vec![changed], vec![]) };
            let mut expected = Vec::new();
            old_emit_changes(&state, LOCAL, added.clone(), lost.clone(), false, &mut expected);
            let event = state.change_event(LOCAL, added, lost);
            prop_assert_eq!(vec![emitted(event)], expected);
        }
    }

    /// Any HELLO stream leaves the same MPR state, the same events in the
    /// same order and the same `mpr_link_added` count as the old handler,
    /// with hysteresis and energy tracking each on and off.
    #[test]
    fn handler_matches_the_one_it_replaced(
        hellos in proptest::collection::vec(arb_hello(), 1..8),
        // The stream replays the pool of HELLOs in any order, so identical
        // HELLOs repeat, back to back and apart.
        stream in proptest::collection::vec(0usize..8, 1..32),
        hysteresis in any::<bool>(),
        track_energy in any::<bool>(),
    ) {
        let state = MprState {
            hysteresis: if hysteresis { Hysteresis::rfc_default() } else { Hysteresis::off() },
            link_validity: VALIDITY,
            ..MprState::default()
        };
        let mut handler = MprHelloHandler::new(VALIDITY, track_energy);
        let mut slot = StateSlot::new(state.clone());
        let mut os = NodeOs::standalone(NodeId(0), LOCAL);
        let mut old = OldHandler { state, track_energy, emitted: Vec::new(), links_added: 0 };
        let mut events: Vec<Emitted> = Vec::new();
        for pick in stream {
            let (msg, from) = hellos[pick % hellos.len()].build();
            old.handle(&msg, from);

            let event = Event::message_in(types::hello_in(), Arc::new(msg), from);
            let mut ctx = ProtoCtx::new(&mut os, "mpr");
            handler.handle(&event, &mut slot, &mut ctx);
            events.extend(ctx.take_outputs().emitted.into_iter().map(emitted));

            prop_assert_eq!(slot.get::<MprState>(), &old.state);
            prop_assert_eq!(&events, &old.emitted);
            prop_assert_eq!(os.counter("mpr_link_added"), old.links_added);
        }
    }
}
