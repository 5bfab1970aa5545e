//! Plug-in components of the MPR CF: HELLO source/handler, expiry sweep,
//! power-status handler and the MPR flooding forwarder.

use std::collections::BTreeSet;
use std::sync::Arc;

use manetkit::event::{types, Event, EventType, MprChange, NeighbourhoodChange, Payload};
use manetkit::protocol::{EventHandler, EventSource, Forwarder, ProtoCtx, StateSlot};
use netsim::SimDuration;
use packetbb::registry::{link_status, msg_type, tlv_type, willingness};
use packetbb::{Address, AddressBlock, AddressTlv, Message, MessageBuilder, Tlv};

use super::state::{LinkInfo, LinkStatus, MprState};

/// Timer name of the MPR CF's expiry sweep.
pub const MPR_EXPIRY_TIMER: &str = "mpr:expiry";

manetkit::cached_event_type! {
    /// The interned [`MPR_EXPIRY_TIMER`] type (cached, no per-call lookup).
    pub fn mpr_expiry_timer => MPR_EXPIRY_TIMER;
}

/// Builds an OLSR HELLO: link statuses, MPR selection marks, willingness
/// and (optionally) residual energy.
#[must_use]
pub fn build_olsr_hello(
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
            let status = match info.status {
                LinkStatus::Symmetric => link_status::SYMMETRIC,
                LinkStatus::Asymmetric => link_status::ASYMMETRIC,
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

/// One advertised neighbour parsed from an OLSR HELLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HelloNeighbour {
    /// The advertised address.
    pub addr: Address,
    /// Whether the sender considers the link symmetric.
    pub symmetric: bool,
    /// Whether the sender selected this address as an MPR.
    pub mpr: bool,
}

/// Parses the neighbour advertisements of an OLSR HELLO.
#[must_use]
pub fn parse_olsr_hello(msg: &Message) -> Vec<HelloNeighbour> {
    let mut out = Vec::new();
    for block in msg.address_blocks() {
        for (addr, tlvs) in block.iter_with_tlvs() {
            let symmetric = tlvs.iter().any(|t| {
                t.tlv().tlv_type() == tlv_type::LINK_STATUS
                    && t.tlv().value_u8() == Some(link_status::SYMMETRIC)
            });
            let mpr = tlvs.iter().any(|t| t.tlv().tlv_type() == tlv_type::MPR);
            out.push(HelloNeighbour {
                addr,
                symmetric,
                mpr,
            });
        }
    }
    out
}

/// Periodically emits `HELLO_OUT` advertising the current link set.
#[derive(Clone)]
pub struct MprHelloSource {
    /// HELLO period.
    pub interval: SimDuration,
    /// Advertised validity of link-state information.
    pub validity: SimDuration,
    /// Whether to piggyback the node's residual energy (power-aware
    /// variant).
    pub advertise_energy: bool,
}

impl EventSource for MprHelloSource {
    fn fork(&self) -> Option<Box<dyn EventSource>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "hello-source"
    }
    fn period(&self) -> SimDuration {
        self.interval
    }
    fn fire(&mut self, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let energy = self.advertise_energy.then(|| ctx.os().battery_level());
        let seq = ctx.os().next_seq();
        let msg = build_olsr_hello(
            ctx.local_addr(),
            seq,
            self.validity,
            state.get::<MprState>(),
            energy,
        );
        ctx.os().bump("hello_sent");
        ctx.emit(Event::message_out(types::hello_out(), msg));
    }
}

fn emit_changes(
    state: &MprState,
    local: Address,
    added: Vec<Address>,
    lost: Vec<Address>,
    mpr_changed: bool,
    ctx: &mut ProtoCtx<'_>,
) {
    if !added.is_empty() || !lost.is_empty() {
        ctx.emit(Event {
            ty: types::nhood_change(),
            payload: Payload::Neighbourhood(Arc::new(NeighbourhoodChange {
                sym_neighbours: state.symmetric_neighbours(),
                two_hop: state.two_hop_pairs(local),
                added,
                lost,
            })),
            meta: Default::default(),
        });
    }
    if mpr_changed {
        ctx.emit(Event {
            ty: types::mpr_change(),
            payload: Payload::Mpr(Arc::new(MprChange {
                mprs: state.mpr_set.iter().copied().collect(),
                selectors: state.selectors.keys().copied().collect(),
            })),
            meta: Default::default(),
        });
    }
}

/// Processes incoming HELLOs: link sensing (with hysteresis), 2-hop
/// tracking, selector bookkeeping and MPR recomputation.
#[derive(Clone)]
pub struct MprHelloHandler {
    /// How long links stay valid without further HELLOs.
    pub validity: SimDuration,
    /// Whether to read residual-energy TLVs into the link set (power-aware
    /// variant; the standard handler ignores them).
    pub track_energy: bool,
}

impl EventHandler for MprHelloHandler {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "hello-handler"
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
        let neighbours = parse_olsr_hello(msg);
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

        let s = state.get_mut::<MprState>();
        let hyst = s.hysteresis;
        let was_symmetric = s
            .links
            .get(&sender)
            .is_some_and(|l| l.status == LinkStatus::Symmetric);
        let entry = s.links.entry(sender).or_insert(LinkInfo {
            last_heard: now,
            status: LinkStatus::Asymmetric,
            willingness: their_willingness,
            two_hop: BTreeSet::new(),
            quality: 0.0,
            hyst_pending: true,
            residual_energy: 1.0,
        });
        entry.last_heard = now;
        entry.willingness = their_willingness;
        entry.two_hop = two_hop;
        if self.track_energy {
            if let Some(e) = their_energy {
                entry.residual_energy = e;
            }
        }
        // Hysteresis: smooth quality upward on each received HELLO.
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
        entry.status = if hears_us && usable {
            LinkStatus::Symmetric
        } else {
            LinkStatus::Asymmetric
        };
        let is_symmetric = entry.status == LinkStatus::Symmetric;

        if selects_us {
            s.selectors.insert(sender, now + self.validity);
        } else {
            s.selectors.remove(&sender);
        }

        let mpr_changed = s.recompute_mprs(local);
        let added = if is_symmetric && !was_symmetric {
            ctx.os().bump("mpr_link_added");
            vec![sender]
        } else {
            vec![]
        };
        let lost = if !is_symmetric && was_symmetric {
            vec![sender]
        } else {
            vec![]
        };
        // Selector changes matter to TC generation as well; piggyback them
        // on MPR_CHANGE whenever selection state moved.
        let selector_event = selects_us || mpr_changed;
        emit_changes(
            state.get::<MprState>(),
            local,
            added,
            lost,
            selector_event,
            ctx,
        );
    }
}

/// Expiry sweep: drops silent links, stale selectors and old duplicates.
#[derive(Clone)]
pub struct MprExpiryHandler {
    /// Sweep period (re-armed on each firing).
    pub sweep: SimDuration,
}

impl EventHandler for MprExpiryHandler {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "expiry-handler"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![mpr_expiry_timer()]
    }
    fn handle(&mut self, _event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let now = ctx.now();
        let local = ctx.local_addr();
        let s = state.get_mut::<MprState>();
        let lost = s.expire(now);
        let mpr_changed = s.recompute_mprs(local);
        if !lost.is_empty() {
            ctx.os().bump("mpr_link_lost");
        }
        emit_changes(
            state.get::<MprState>(),
            local,
            vec![],
            lost,
            mpr_changed,
            ctx,
        );
        ctx.set_timer(self.sweep, mpr_expiry_timer());
    }
}

/// Adjusts the node's advertised willingness from battery context
/// (`POWER_STATUS` events).
#[derive(Clone)]
pub struct PowerStatusHandler;

impl EventHandler for PowerStatusHandler {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "power-status-handler"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![types::power_status()]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let Payload::Context(manetkit::event::ContextValue::Battery(level)) = &event.payload else {
            return;
        };
        let s = state.get_mut::<MprState>();
        let new = if *level >= 0.8 {
            willingness::HIGH
        } else if *level >= 0.4 {
            willingness::DEFAULT
        } else if *level >= 0.1 {
            willingness::LOW
        } else {
            willingness::NEVER
        };
        if new != s.willingness {
            s.willingness = new;
            ctx.os().bump("willingness_changed");
        }
    }
}

/// The MPR CF's F element: optimised flooding.
///
/// Messages arriving on its `*_OUT` subscriptions (from protocols stacked
/// above) are broadcast; messages on `*_IN` subscriptions are re-broadcast
/// only when the sending neighbour selected this node as a relay — the
/// multipoint-relay optimisation that cuts flooding cost in dense networks.
#[derive(Clone)]
pub struct MprFloodForwarder {
    /// `*_OUT` event types to originate.
    pub out_types: Vec<EventType>,
    /// `*_IN` event types to consider for relaying.
    pub in_types: Vec<EventType>,
}

impl Default for MprFloodForwarder {
    fn default() -> Self {
        MprFloodForwarder {
            out_types: vec![types::tc_out(), types::power_msg_out()],
            in_types: vec![types::tc_in(), types::power_msg_in()],
        }
    }
}

impl Forwarder for MprFloodForwarder {
    fn fork(&self) -> Option<Box<dyn Forwarder>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "mpr-flood"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        let mut subs = self.out_types.clone();
        subs.extend(self.in_types.iter().cloned());
        subs
    }
    fn forward(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let Some(msg) = event.message() else { return };
        let Some(originator) = msg.originator() else {
            return;
        };
        let seq = msg.seq_num().unwrap_or(0);
        let now = ctx.now();
        let s = state.get_mut::<MprState>();

        if self.out_types.contains(&event.ty) {
            // Originating: remember our own flood to squash echoes.
            s.check_duplicate(originator, seq, now);
            ctx.os().bump("flood_originated");
            ctx.send_message((**msg).clone(), None);
            return;
        }
        // Relaying decision for *_IN.
        let Some(from) = event.meta.from else { return };
        if originator == ctx.local_addr() {
            return;
        }
        if s.check_duplicate(originator, seq, now) {
            ctx.os().bump("flood_duplicate");
            return;
        }
        if !s.is_selector(from) {
            return; // the sender did not choose us as its relay
        }
        if let Some(fwd) = msg.forwarded() {
            ctx.os().bump("flood_relayed");
            ctx.send_message(fwd, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> Address {
        Address::v4([10, 0, 0, n])
    }

    #[test]
    fn olsr_hello_round_trip() {
        let mut s = MprState::default();
        s.links.insert(
            addr(2),
            LinkInfo {
                last_heard: netsim::SimTime::ZERO,
                status: LinkStatus::Symmetric,
                willingness: willingness::DEFAULT,
                two_hop: BTreeSet::new(),
                quality: 1.0,
                hyst_pending: false,
                residual_energy: 1.0,
            },
        );
        s.mpr_set.insert(addr(2));
        s.willingness = willingness::HIGH;
        let msg = build_olsr_hello(addr(1), 3, SimDuration::from_secs(6), &s, Some(0.5));

        let wire = packetbb::Packet::single(msg).encode_to_vec();
        let back = packetbb::Packet::decode(&wire).unwrap();
        let m = &back.messages()[0];
        assert_eq!(
            m.find_tlv(tlv_type::WILLINGNESS).unwrap().value_u8(),
            Some(willingness::HIGH)
        );
        assert_eq!(
            m.find_tlv(tlv_type::RESIDUAL_ENERGY).unwrap().value_u8(),
            Some(127)
        );
        let parsed = parse_olsr_hello(m);
        assert_eq!(
            parsed,
            vec![HelloNeighbour {
                addr: addr(2),
                symmetric: true,
                mpr: true
            }]
        );
    }

    #[test]
    fn empty_hello_parses() {
        let s = MprState::default();
        let msg = build_olsr_hello(addr(1), 1, SimDuration::from_secs(6), &s, None);
        assert!(parse_olsr_hello(&msg).is_empty());
        assert!(msg.find_tlv(tlv_type::RESIDUAL_ENERGY).is_none());
    }
}
