//! Plug-in components of the MPR CF: HELLO source/handler, expiry sweep,
//! power-status handler and the MPR flooding forwarder. HELLOs are written,
//! read and reported through the link-sensing core in
//! [`manetkit::neighbour`].

use std::sync::Arc;

use manetkit::event::{types, Event, EventType, MprChange, Payload};
use manetkit::neighbour::{build_hello, HelloLink, HelloReader, LinkSet};
use manetkit::protocol::{EventHandler, EventSource, Forwarder, ProtoCtx, StateSlot};
use netsim::SimDuration;
use packetbb::registry::{tlv_type, willingness};
use packetbb::{Address, Tlv};

use super::state::{LinkInfo, MprState};

/// Timer name of the MPR CF's expiry sweep.
pub const MPR_EXPIRY_TIMER: &str = "mpr:expiry";

manetkit::cached_event_type! {
    /// The interned [`MPR_EXPIRY_TIMER`] type (cached, no per-call lookup).
    pub fn mpr_expiry_timer => MPR_EXPIRY_TIMER;
}

/// Periodically emits `HELLO_OUT` advertising the current link set: link
/// statuses, MPR selection marks, willingness and (optionally) residual
/// energy.
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
        let energy = (self.advertise_energy).then(|| energy_tlv(ctx.os().battery_level()));
        let seq = ctx.os().next_seq();
        let s = state.get::<MprState>();
        let willingness = Tlv::with_value(tlv_type::WILLINGNESS, [s.willingness]);
        let tlvs = std::iter::once(willingness).chain(energy);
        let links = s.links.iter().map(|(addr, l)| HelloLink {
            addr: *addr,
            symmetric: l.symmetric,
            mpr: s.mpr_set.contains(addr),
        });
        let msg = build_hello(ctx.local_addr(), seq, self.validity, tlvs, links);
        ctx.os().bump("hello_sent");
        ctx.emit(Event::message_out(types::hello_out(), msg));
    }
}

/// The `RESIDUAL_ENERGY` TLV for a battery `level` in `[0, 1]`: clamped,
/// scaled to 255 and truncated.
fn energy_tlv(level: f64) -> Tlv {
    let scaled = level.clamp(0.0, 1.0) * 255.0;
    Tlv::with_value(tlv_type::RESIDUAL_ENERGY, [scaled as u8])
}

/// Emits `NHOOD_CHANGE` when `added` or `lost` is non-empty, then
/// `MPR_CHANGE` when `mpr_changed`.
fn emit_changes(
    state: &MprState,
    local: Address,
    added: Vec<Address>,
    lost: Vec<Address>,
    mpr_changed: bool,
    ctx: &mut ProtoCtx<'_>,
) {
    if !added.is_empty() || !lost.is_empty() {
        ctx.emit(state.change_event(local, added, lost));
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
    validity: SimDuration,
    /// Whether to read residual-energy TLVs into the link set (power-aware
    /// variant; the standard handler ignores them).
    track_energy: bool,
    reader: HelloReader,
}

impl MprHelloHandler {
    /// A handler whose selectors stay valid for `validity`, reading
    /// residual-energy TLVs into the link set when `track_energy`.
    #[must_use]
    pub fn new(validity: SimDuration, track_energy: bool) -> Self {
        MprHelloHandler {
            validity,
            track_energy,
            reader: HelloReader::default(),
        }
    }
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
        let (hears_us, selects_us) = self.reader.read(msg, local);
        let their_willingness = msg
            .find_tlv(tlv_type::WILLINGNESS)
            .and_then(Tlv::value_u8)
            .unwrap_or(willingness::DEFAULT);
        let their_energy = msg
            .find_tlv(tlv_type::RESIDUAL_ENERGY)
            .and_then(Tlv::value_u8)
            .map(|v| f64::from(v) / 255.0);

        let s = state.get_mut::<MprState>();
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
        self.reader.store_two_hop(&mut entry.two_hop);
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
        entry.symmetric = hears_us && !entry.hyst_pending;
        let is_symmetric = entry.symmetric;

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
            s.duplicates.check(originator, seq, now);
            ctx.os().bump("flood_originated");
            ctx.send_message((**msg).clone(), None);
            return;
        }
        // Relaying decision for *_IN.
        let Some(from) = event.meta.from else { return };
        if originator == ctx.local_addr() {
            return;
        }
        if s.duplicates.check(originator, seq, now) {
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
    use manetkit::neighbour::for_each_hello_link;
    use netsim::{NodeId, NodeOs, SimTime};

    fn addr(n: u8) -> Address {
        Address::v4([10, 0, 0, n])
    }

    #[test]
    fn energy_is_clamped_scaled_and_truncated() {
        let byte = |level| energy_tlv(level).value_u8();
        assert_eq!(byte(0.5), Some(127));
        assert_eq!(byte(1.0), Some(255));
        assert_eq!(byte(0.0), Some(0));
        assert_eq!(byte(1.7), Some(255));
        assert_eq!(byte(-0.3), Some(0));
    }

    #[test]
    fn hello_round_trip() {
        let mut s = MprState::default();
        s.links.insert(
            addr(2),
            LinkInfo {
                last_heard: SimTime::ZERO,
                symmetric: true,
                willingness: willingness::DEFAULT,
                two_hop: Vec::new(),
                quality: 1.0,
                hyst_pending: false,
                residual_energy: 1.0,
            },
        );
        s.mpr_set.insert(addr(2));
        s.willingness = willingness::HIGH;
        let mut source = MprHelloSource {
            interval: SimDuration::from_secs(2),
            validity: SimDuration::from_secs(6),
            advertise_energy: true,
        };
        let mut os = NodeOs::standalone(NodeId(0), addr(1));
        let mut ctx = ProtoCtx::new(&mut os, "mpr");
        source.fire(&mut StateSlot::new(s), &mut ctx);
        let emitted = ctx.take_outputs().emitted;
        let msg = emitted[0].message().expect("a HELLO");

        let wire = packetbb::Packet::single((**msg).clone()).encode_to_vec();
        let back = packetbb::Packet::decode(&wire).unwrap();
        let m = &back.messages()[0];
        assert_eq!(
            m.find_tlv(tlv_type::WILLINGNESS).unwrap().value_u8(),
            Some(willingness::HIGH)
        );
        // A full battery.
        assert_eq!(
            m.find_tlv(tlv_type::RESIDUAL_ENERGY).unwrap().value_u8(),
            Some(255)
        );
        let mut links = Vec::new();
        for_each_hello_link(m, |l| links.push(l));
        assert_eq!(
            links,
            vec![HelloLink {
                addr: addr(2),
                symmetric: true,
                mpr: true
            }]
        );
    }
}
