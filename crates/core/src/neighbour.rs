//! The Neighbour Detection CF (§4.3): HELLO-based 1-hop / 2-hop
//! neighbourhood sensing, reusable by any protocol that needs
//! `NHOOD_CHANGE` notifications (DYMO uses it for route invalidation; the
//! optimised-flooding variant replaces it with the richer MPR CF).
//!
//! This module is also the one link-sensing core the MPR CF builds on: the
//! HELLO encoder ([`build_hello`]), the HELLO reader ([`HelloReader`] over
//! [`for_each_hello_link`]), the link-set queries and `NHOOD_CHANGE` event
//! ([`LinkSet`]) and the seen-flood cache ([`SeenFloods`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use netsim::{SimDuration, SimTime};
use packetbb::registry::{link_status, msg_type, tlv_type};
use packetbb::{Address, AddressBlock, AddressTlv, Message, MessageBuilder, Tlv};

use crate::event::{types, Event, EventType, NeighbourhoodChange, Payload};
use crate::protocol::{EventHandler, EventSource, ManetProtocolCf, ProtoCtx, StateSlot};
use crate::registry::EventTuple;
use crate::system::MessageRegistration;

/// Configuration of the Neighbour Detection CF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighbourConfig {
    /// HELLO emission period (default 1 s).
    pub hello_interval: SimDuration,
    /// How long a silent neighbour stays valid (default 3.5 × interval).
    pub validity: SimDuration,
}

impl Default for NeighbourConfig {
    fn default() -> Self {
        NeighbourConfig {
            hello_interval: SimDuration::from_secs(1),
            validity: SimDuration::from_millis(3_500),
        }
    }
}

/// Per-neighbour record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighbourInfo {
    /// Last time a HELLO was heard from this neighbour.
    pub last_heard: SimTime,
    /// Whether bidirectionality has been confirmed.
    pub symmetric: bool,
    /// The neighbour's own symmetric neighbours (our 2-hop set through
    /// it), sorted and deduplicated.
    pub two_hop: Vec<Address>,
}

/// The S element: the neighbour table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NeighbourTable {
    /// All currently known neighbours.
    pub neighbours: BTreeMap<Address, NeighbourInfo>,
}

/// A link set as the neighbourhood queries read it: the Neighbour
/// Detection CF's table and the MPR CF's state both implement it, so both
/// report the same `NHOOD_CHANGE`.
pub trait LinkSet {
    /// Every link in address order: the neighbour, whether the link is
    /// symmetric, and the neighbour's advertised symmetric neighbours,
    /// sorted and deduplicated.
    fn links(&self) -> impl Iterator<Item = (Address, bool, &[Address])>;

    /// Addresses of currently symmetric neighbours.
    fn symmetric(&self) -> Vec<Address> {
        self.links()
            .filter(|(_, sym, _)| *sym)
            .map(|(a, ..)| a)
            .collect()
    }

    /// `(neighbour, two_hop)` pairs reachable through symmetric neighbours,
    /// excluding `local` and the symmetric neighbours themselves.
    fn two_hop_pairs(&self, local: Address) -> Vec<(Address, Address)> {
        // In address order, as the set iterates.
        let sym = self.symmetric();
        let mut pairs = Vec::new();
        for (nb, _, two_hop) in self.links().filter(|(_, sym, _)| *sym) {
            debug_assert!(
                two_hop.windows(2).all(|w| w[0] < w[1]),
                "two-hop set of {nb:?} is not sorted and deduplicated"
            );
            for th in two_hop {
                if *th != local && sym.binary_search(th).is_err() {
                    pairs.push((nb, *th));
                }
            }
        }
        pairs
    }

    /// The `NHOOD_CHANGE` event reporting `added` and `lost` neighbours
    /// over the current neighbourhood.
    fn change_event(&self, local: Address, added: Vec<Address>, lost: Vec<Address>) -> Event {
        Event {
            ty: types::nhood_change(),
            payload: Payload::Neighbourhood(Arc::new(NeighbourhoodChange {
                sym_neighbours: self.symmetric(),
                two_hop: self.two_hop_pairs(local),
                added,
                lost,
            })),
            meta: Default::default(),
        }
    }
}

impl LinkSet for NeighbourTable {
    fn links(&self) -> impl Iterator<Item = (Address, bool, &[Address])> {
        (self.neighbours.iter()).map(|(a, i)| (*a, i.symmetric, i.two_hop.as_slice()))
    }
}

/// Seen floods, for duplicate suppression: `(originator, seq)` → when the
/// entry lapses, `HOLD_S` seconds after it was last seen (RREQs are held
/// 10 s, MPR floods 30 s).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeenFloods<const HOLD_S: u64>(BTreeMap<(Address, u16), SimTime>);

impl<const HOLD_S: u64> SeenFloods<HOLD_S> {
    /// Records a flood; returns `true` when it was already seen.
    #[inline]
    pub fn check(&mut self, originator: Address, seq: u16, now: SimTime) -> bool {
        let lapses = now + SimDuration::from_secs(HOLD_S);
        self.0.insert((originator, seq), lapses).is_some()
    }

    /// Whether a flood is remembered.
    #[inline]
    #[must_use]
    pub fn contains(&self, originator: Address, seq: u16) -> bool {
        self.0.contains_key(&(originator, seq))
    }

    /// Forgets the floods whose hold ran out.
    pub fn expire(&mut self, now: SimTime) {
        self.0.retain(|_, exp| *exp > now);
    }
}

/// One address a HELLO advertises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloLink {
    /// The advertised address.
    pub addr: Address,
    /// Whether the sender's link to it is symmetric.
    pub symmetric: bool,
    /// Whether the sender selected it as a multipoint relay.
    pub mpr: bool,
}

/// Builds a HELLO: the validity, then the message TLVs `tlvs`, and one
/// address block listing `links` with their link status and MPR marks.
/// `links` is walked twice (addresses, then their TLVs).
#[must_use]
pub fn build_hello(
    local: Address,
    seq: u16,
    validity: SimDuration,
    tlvs: impl IntoIterator<Item = Tlv>,
    links: impl Iterator<Item = HelloLink> + Clone,
) -> Message {
    let mut b = MessageBuilder::new(msg_type::HELLO)
        .originator(local)
        .hop_limit(1)
        .seq_num(seq)
        .push_tlv(Tlv::with_value(
            tlv_type::VALIDITY_TIME,
            [packetbb::time::encode_time(validity.as_millis())],
        ));
    for tlv in tlvs {
        b = b.push_tlv(tlv);
    }
    let addrs: Vec<Address> = links.clone().map(|l| l.addr).collect();
    if !addrs.is_empty() {
        let mut block = AddressBlock::new(addrs).expect("non-empty, single family");
        for (i, link) in links.enumerate() {
            let status = if link.symmetric {
                link_status::SYMMETRIC
            } else {
                link_status::ASYMMETRIC
            };
            block.add_tlv(AddressTlv::single(
                Tlv::with_value(tlv_type::LINK_STATUS, [status]),
                i as u8,
            ));
            if link.mpr {
                block.add_tlv(AddressTlv::single(Tlv::flag(tlv_type::MPR), i as u8));
            }
        }
        b = b.push_address_block(block);
    }
    b.build()
}

/// Calls `f` for every address a HELLO advertises, in block order, without
/// allocating. An address is symmetric when any `LINK_STATUS` TLV covering
/// it says so, and an MPR when any `MPR` TLV covers it; each block's TLVs
/// and addresses are walked once (address TLV indexes are octets, so 256
/// bits per mark hold everything an index range can reach).
#[inline]
pub fn for_each_hello_link(msg: &Message, mut f: impl FnMut(HelloLink)) {
    for block in msg.address_blocks() {
        let (mut sym, mut mpr) = ([0u64; 4], [0u64; 4]);
        let (mut all_sym, mut all_mpr) = (false, false);
        for t in block.tlvs() {
            let tlv = t.tlv();
            let (marks, all) = match tlv.tlv_type() {
                tlv_type::LINK_STATUS if tlv.value_u8() == Some(link_status::SYMMETRIC) => {
                    (&mut sym, &mut all_sym)
                }
                tlv_type::MPR => (&mut mpr, &mut all_mpr),
                _ => continue,
            };
            match t.indexes() {
                None => *all = true,
                Some((start, stop)) => {
                    for i in start..=stop {
                        marks[usize::from(i >> 6)] |= 1 << (i & 63);
                    }
                }
            }
        }
        let covered = |marks: &[u64; 4], i: usize| i < 256 && marks[i >> 6] & (1 << (i & 63)) != 0;
        for (i, addr) in block.addresses().iter().enumerate() {
            f(HelloLink {
                addr: *addr,
                symmetric: all_sym || covered(&sym, i),
                mpr: all_mpr || covered(&mpr, i),
            });
        }
    }
}

/// Reads incoming HELLOs for a link-sensing handler, keeping the sender's
/// advertised symmetric neighbours between HELLOs so the steady state
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct HelloReader {
    advertised: Vec<Address>,
}

impl HelloReader {
    /// Reads `msg` as `local` hears it: whether it lists us at all (its
    /// sender heard our HELLO recently) and whether it marks us as the
    /// sender's multipoint relay. The sender's other symmetric neighbours
    /// are kept, sorted and deduplicated, for
    /// [`store_two_hop`](Self::store_two_hop).
    #[inline]
    pub fn read(&mut self, msg: &Message, local: Address) -> (bool, bool) {
        let (mut hears_us, mut selects_us) = (false, false);
        let advertised = &mut self.advertised;
        advertised.clear();
        for_each_hello_link(msg, |link| {
            if link.addr == local {
                hears_us = true;
                selects_us |= link.mpr;
            } else if link.symmetric {
                advertised.push(link.addr);
            }
        });
        advertised.sort_unstable();
        advertised.dedup();
        (hears_us, selects_us)
    }

    /// Stores the last HELLO's symmetric neighbours as its sender's two-hop
    /// set, writing nothing when it is unchanged.
    pub fn store_two_hop(&self, two_hop: &mut Vec<Address>) {
        if *two_hop != self.advertised {
            two_hop.clone_from(&self.advertised);
        }
    }
}

const EXPIRY_TIMER: &str = "nd:expiry";

crate::cached_event_type! {
    /// The interned expiry-sweep timer type (cached, no per-call lookup).
    fn expiry_timer => EXPIRY_TIMER;
}

#[derive(Clone)]
struct HelloSource {
    interval: SimDuration,
    validity: SimDuration,
}

impl EventSource for HelloSource {
    fn name(&self) -> &str {
        "hello-source"
    }
    fn period(&self) -> SimDuration {
        self.interval
    }
    fn fire(&mut self, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let table = state.get::<NeighbourTable>();
        let links = table.neighbours.iter().map(|(a, i)| HelloLink {
            addr: *a,
            symmetric: i.symmetric,
            mpr: false,
        });
        let seq = ctx.os().next_seq();
        let msg = build_hello(ctx.local_addr(), seq, self.validity, [], links);
        ctx.os().bump("hello_sent");
        ctx.emit(Event::message_out(types::hello_out(), msg));
    }

    fn fork(&self) -> Option<Box<dyn EventSource>> {
        Some(Box::new(self.clone()))
    }
}

#[derive(Clone, Default)]
struct HelloHandler {
    reader: HelloReader,
}

impl EventHandler for HelloHandler {
    fn name(&self) -> &str {
        "hello-handler"
    }
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![types::hello_in()]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let Some(msg) = event.message() else { return };
        let Some(sender) = msg.originator().or(event.meta.from) else {
            return;
        };
        let local = ctx.local_addr();
        if sender == local {
            return;
        }
        let now = ctx.now();
        // We are symmetric with the sender iff it lists us at all.
        let (hears_us, _) = self.reader.read(msg, local);

        let table = state.get_mut::<NeighbourTable>();
        let entry = table.neighbours.entry(sender).or_insert(NeighbourInfo {
            last_heard: now,
            symmetric: false,
            two_hop: Vec::new(),
        });
        let was_symmetric = entry.symmetric;
        entry.last_heard = now;
        entry.symmetric = hears_us;
        self.reader.store_two_hop(&mut entry.two_hop);

        if hears_us && !was_symmetric {
            ctx.os().bump("nd_link_added");
            let ev = table.change_event(local, vec![sender], vec![]);
            ctx.emit(ev);
        }
    }
}

#[derive(Clone)]
struct ExpiryHandler {
    validity: SimDuration,
    sweep: SimDuration,
}

impl EventHandler for ExpiryHandler {
    fn name(&self) -> &str {
        "expiry-handler"
    }
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![expiry_timer()]
    }
    fn handle(&mut self, _event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let now = ctx.now();
        let local = ctx.local_addr();
        let table = state.get_mut::<NeighbourTable>();
        let mut lost = Vec::new();
        table.neighbours.retain(|addr, info| {
            let alive = now.since(info.last_heard) <= self.validity;
            if !alive {
                lost.push(*addr);
            }
            alive
        });
        if !lost.is_empty() {
            ctx.os().bump("nd_link_lost");
            let ev = state
                .get::<NeighbourTable>()
                .change_event(local, vec![], lost);
            ctx.emit(ev);
        }
        ctx.set_timer(self.sweep, expiry_timer());
    }
}

/// The name under which the CF registers.
pub const NEIGHBOUR_CF: &str = "neighbour-detection";

/// Builds the Neighbour Detection CF.
#[must_use]
pub fn neighbour_detection_cf(config: NeighbourConfig) -> ManetProtocolCf {
    let sweep = SimDuration::from_micros(config.validity.as_micros() / 2);
    ManetProtocolCf::builder(NEIGHBOUR_CF)
        .tuple(
            EventTuple::new()
                .requires(types::hello_in())
                .provides(types::hello_out())
                .provides(types::nhood_change()),
        )
        .state(StateSlot::new(NeighbourTable::default()))
        .startup_timer(sweep, expiry_timer())
        .source(Box::new(HelloSource {
            interval: config.hello_interval,
            validity: config.validity,
        }))
        .handler(Box::new(HelloHandler::default()))
        .handler(Box::new(ExpiryHandler {
            validity: config.validity,
            sweep,
        }))
        .build()
}

/// The System CF registration HELLO messages need.
#[must_use]
pub fn hello_registration() -> MessageRegistration {
    MessageRegistration::in_out(msg_type::HELLO, types::hello_in(), types::hello_out())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(msg: &Message) -> Vec<(Address, bool)> {
        let mut out = Vec::new();
        for_each_hello_link(msg, |l| out.push((l.addr, l.symmetric)));
        out
    }

    #[test]
    fn hello_round_trip() {
        let local = Address::v4([10, 0, 0, 1]);
        let nb1 = Address::v4([10, 0, 0, 2]);
        let nb2 = Address::v4([10, 0, 0, 3]);
        let links = [(nb1, true), (nb2, false)].map(|(addr, symmetric)| HelloLink {
            addr,
            symmetric,
            mpr: false,
        });
        let msg = build_hello(local, 5, SimDuration::from_secs(3), [], links.into_iter());
        assert_eq!(msg.msg_type(), msg_type::HELLO);
        assert_eq!(msg.originator(), Some(local));
        assert_eq!(parsed(&msg), vec![(nb1, true), (nb2, false)]);

        // Wire round trip preserves the advertisement.
        let wire = packetbb::Packet::single(msg).encode_to_vec();
        let back = packetbb::Packet::decode(&wire).unwrap();
        assert_eq!(parsed(&back.messages()[0]), vec![(nb1, true), (nb2, false)]);
    }

    #[test]
    fn empty_hello_is_valid() {
        let local = Address::v4([10, 0, 0, 1]);
        let msg = build_hello(local, 1, SimDuration::from_secs(3), [], std::iter::empty());
        assert!(parsed(&msg).is_empty());
    }

    #[test]
    fn neighbour_table_queries() {
        let local = Address::v4([10, 0, 0, 1]);
        let nb = Address::v4([10, 0, 0, 2]);
        let far = Address::v4([10, 0, 0, 3]);
        let mut t = NeighbourTable::default();
        t.neighbours.insert(
            nb,
            NeighbourInfo {
                last_heard: SimTime::ZERO,
                symmetric: true,
                two_hop: vec![local, far],
            },
        );
        assert_eq!(t.symmetric(), vec![nb]);
        // `local` must be filtered out of the 2-hop set.
        assert_eq!(t.two_hop_pairs(local), vec![(nb, far)]);
    }

    #[test]
    fn cf_composition_has_expected_plugins() {
        let cf = neighbour_detection_cf(NeighbourConfig::default());
        let names = cf.plugin_names();
        assert!(names.contains(&"hello-source".to_string()));
        assert!(names.contains(&"hello-handler".to_string()));
        assert!(names.contains(&"expiry-handler".to_string()));
        assert!(cf.tuple().is_provided(&types::nhood_change()));
        assert!(cf.tuple().is_required(&types::hello_in()));
        assert!(!cf.is_reactive());
    }
}
