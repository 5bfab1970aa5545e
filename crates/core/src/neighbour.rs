//! The Neighbour Detection CF (§4.3): HELLO-based 1-hop / 2-hop
//! neighbourhood sensing, reusable by any protocol that needs
//! `NHOOD_CHANGE` notifications (DYMO uses it for route invalidation; the
//! optimised-flooding variant replaces it with the richer MPR CF).

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

impl NeighbourTable {
    /// Addresses of currently symmetric neighbours.
    #[must_use]
    pub fn symmetric(&self) -> Vec<Address> {
        self.neighbours
            .iter()
            .filter(|(_, i)| i.symmetric)
            .map(|(a, _)| *a)
            .collect()
    }

    /// `(neighbour, two_hop)` pairs reachable through symmetric neighbours.
    #[must_use]
    pub fn two_hop_pairs(&self, local: Address) -> Vec<(Address, Address)> {
        // In address order, as the table iterates.
        let sym = self.symmetric();
        let mut pairs = Vec::new();
        for (nb, info) in &self.neighbours {
            if !info.symmetric {
                continue;
            }
            for th in &info.two_hop {
                if *th != local && sym.binary_search(th).is_err() {
                    pairs.push((*nb, *th));
                }
            }
        }
        pairs
    }

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

/// Builds a HELLO message advertising `neighbours` with their link status.
#[must_use]
pub fn build_hello(
    local: Address,
    seq: u16,
    validity: SimDuration,
    neighbours: &[(Address, bool)],
) -> Message {
    let mut b = MessageBuilder::new(msg_type::HELLO)
        .originator(local)
        .hop_limit(1)
        .seq_num(seq)
        .push_tlv(Tlv::with_value(
            tlv_type::VALIDITY_TIME,
            [packetbb::time::encode_time(validity.as_millis())],
        ));
    if !neighbours.is_empty() {
        let addrs: Vec<Address> = neighbours.iter().map(|(a, _)| *a).collect();
        let mut block = AddressBlock::new(addrs).expect("non-empty, single family");
        for (i, (_, sym)) in neighbours.iter().enumerate() {
            let status = if *sym {
                link_status::SYMMETRIC
            } else {
                link_status::ASYMMETRIC
            };
            block.add_tlv(AddressTlv::single(
                Tlv::with_value(tlv_type::LINK_STATUS, [status]),
                i as u8,
            ));
        }
        b = b.push_address_block(block);
    }
    b.build()
}

/// Calls `f(address, symmetric?)` for every address a HELLO advertises, in
/// block order, without allocating. An address is symmetric when any
/// `LINK_STATUS` TLV covering it says so; each block's TLVs and addresses
/// are walked once (address TLV indexes are octets, so 256 bits of "covered
/// by a symmetric TLV" hold everything an index range can reach).
fn for_each_hello_neighbour(msg: &Message, mut f: impl FnMut(Address, bool)) {
    for block in msg.address_blocks() {
        let mut sym = [0u64; 4];
        let mut all_sym = false;
        for t in block.tlvs() {
            if t.tlv().tlv_type() != tlv_type::LINK_STATUS
                || t.tlv().value_u8() != Some(link_status::SYMMETRIC)
            {
                continue;
            }
            match t.indexes() {
                None => all_sym = true,
                Some((start, stop)) => {
                    for i in start..=stop {
                        sym[usize::from(i >> 6)] |= 1 << (i & 63);
                    }
                }
            }
        }
        for (i, addr) in block.addresses().iter().enumerate() {
            let covered = i < 256 && sym[i >> 6] & (1 << (i & 63)) != 0;
            f(*addr, all_sym || covered);
        }
    }
}

/// Parses the `(address, symmetric?)` pairs a HELLO advertises.
#[must_use]
pub fn parse_hello_neighbours(msg: &Message) -> Vec<(Address, bool)> {
    let mut out = Vec::new();
    for_each_hello_neighbour(msg, |addr, sym| out.push((addr, sym)));
    out
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
        let neighbours: Vec<(Address, bool)> = table
            .neighbours
            .iter()
            .map(|(a, i)| (*a, i.symmetric))
            .collect();
        let seq = ctx.os().next_seq();
        let msg = build_hello(ctx.local_addr(), seq, self.validity, &neighbours);
        ctx.os().bump("hello_sent");
        ctx.emit(Event::message_out(types::hello_out(), msg));
    }

    fn fork(&self) -> Option<Box<dyn EventSource>> {
        Some(Box::new(self.clone()))
    }
}

#[derive(Clone, Default)]
struct HelloHandler {
    /// The sender's advertised symmetric neighbours, sorted and deduplicated;
    /// kept between HELLOs so the steady state allocates nothing.
    advertised: Vec<Address>,
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
        let sender = match msg.originator().or(event.meta.from) {
            Some(a) => a,
            None => return,
        };
        let local = ctx.local_addr();
        if sender == local {
            return;
        }
        let now = ctx.now();
        // We are symmetric with the sender iff it lists us at all (it heard
        // our HELLO recently).
        let mut hears_us = false;
        let advertised = &mut self.advertised;
        advertised.clear();
        for_each_hello_neighbour(msg, |addr, sym| {
            if addr == local {
                hears_us = true;
            } else if sym {
                advertised.push(addr);
            }
        });
        advertised.sort_unstable();
        advertised.dedup();

        let table = state.get_mut::<NeighbourTable>();
        let entry = table.neighbours.entry(sender).or_insert(NeighbourInfo {
            last_heard: now,
            symmetric: false,
            two_hop: Vec::new(),
        });
        let was_symmetric = entry.symmetric;
        entry.last_heard = now;
        entry.symmetric = hears_us;
        if entry.two_hop != *advertised {
            entry.two_hop.clone_from(advertised);
        }

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

    #[test]
    fn hello_round_trip() {
        let local = Address::v4([10, 0, 0, 1]);
        let nb1 = Address::v4([10, 0, 0, 2]);
        let nb2 = Address::v4([10, 0, 0, 3]);
        let msg = build_hello(
            local,
            5,
            SimDuration::from_secs(3),
            &[(nb1, true), (nb2, false)],
        );
        assert_eq!(msg.msg_type(), msg_type::HELLO);
        assert_eq!(msg.originator(), Some(local));
        let parsed = parse_hello_neighbours(&msg);
        assert_eq!(parsed, vec![(nb1, true), (nb2, false)]);

        // Wire round trip preserves the advertisement.
        let wire = packetbb::Packet::single(msg).encode_to_vec();
        let back = packetbb::Packet::decode(&wire).unwrap();
        assert_eq!(
            parse_hello_neighbours(&back.messages()[0]),
            vec![(nb1, true), (nb2, false)]
        );
    }

    #[test]
    fn empty_hello_is_valid() {
        let local = Address::v4([10, 0, 0, 1]);
        let msg = build_hello(local, 1, SimDuration::from_secs(3), &[]);
        assert!(parse_hello_neighbours(&msg).is_empty());
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
