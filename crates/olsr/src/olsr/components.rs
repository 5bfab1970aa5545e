//! Plug-in components of the OLSR CF: TC generation/handling,
//! neighbourhood tracking and route installation.

use manetkit::event::{types, Event, EventType, Payload};
use manetkit::protocol::{EventHandler, EventSource, ProtoCtx, StateSlot};
use netsim::SimDuration;
use packetbb::registry::{msg_type, tlv_type};
use packetbb::{Address, AddressBlock, Message, MessageBuilder, Tlv};

use super::state::OlsrState;

/// Timer name of the topology expiry sweep.
pub const TOPO_EXPIRY_TIMER: &str = "olsr:topo-expiry";

manetkit::cached_event_type! {
    /// The interned [`TOPO_EXPIRY_TIMER`] type (cached, no per-call lookup).
    pub fn topo_expiry_timer => TOPO_EXPIRY_TIMER;
}

/// Builds a TC message advertising `advertised` under `ansn`.
#[must_use]
pub fn build_tc(
    local: Address,
    seq: u16,
    ansn: u16,
    validity: SimDuration,
    advertised: &[Address],
    hop_limit: u8,
) -> Message {
    let mut b = MessageBuilder::new(msg_type::TC)
        .originator(local)
        .hop_limit(hop_limit)
        .hop_count(0)
        .seq_num(seq)
        .push_tlv(Tlv::with_value(
            tlv_type::VALIDITY_TIME,
            [packetbb::time::encode_time(validity.as_millis())],
        ))
        .push_tlv(Tlv::with_value(tlv_type::CONT_SEQ_NUM, ansn.to_be_bytes()));
    if !advertised.is_empty() {
        b = b.push_address_block(
            AddressBlock::new(advertised.to_vec()).expect("non-empty single-family"),
        );
    }
    b.build()
}

/// Parses a TC's `(ansn, advertised addresses)`; the addresses are read
/// straight from the message's address blocks.
#[must_use]
pub fn parse_tc(msg: &Message) -> Option<(u16, impl Iterator<Item = Address> + '_)> {
    let ansn = msg.find_tlv(tlv_type::CONT_SEQ_NUM)?.value_u16()?;
    let advertised = msg
        .address_blocks()
        .iter()
        .flat_map(|b| b.addresses().iter().copied());
    Some((ansn, advertised))
}

/// Brings the kernel table in line with the state's topology, if an input
/// of the route computation changed since the last call (see
/// [`OlsrState::sync_routes`]). Returns `(installed, removed)` counts.
pub fn sync_kernel_routes(
    state: &mut OlsrState,
    local: Address,
    ctx: &mut ProtoCtx<'_>,
) -> (usize, usize) {
    state.sync_routes(local, ctx.os().route_table_mut())
}

/// Periodically emits `TC_OUT` advertising the MPR-selector set.
#[derive(Clone)]
pub struct TcSource {
    /// TC period (paper/testbed default: 5 s).
    pub interval: SimDuration,
    /// Advertised validity of topology information.
    pub validity: SimDuration,
    /// Hop limit stamped on generated TCs.
    pub hop_limit: u8,
}

impl EventSource for TcSource {
    fn fork(&self) -> Option<Box<dyn EventSource>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "tc-source"
    }
    fn period(&self) -> SimDuration {
        self.interval
    }
    fn fire(&mut self, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let s = state.get::<OlsrState>();
        if s.advertised.is_empty() {
            return; // nothing to advertise: no one selected us as a relay
        }
        let seq = ctx.os().next_seq();
        let msg = build_tc(
            ctx.local_addr(),
            seq,
            s.ansn,
            self.validity,
            &s.advertised,
            self.hop_limit,
        );
        ctx.os().bump("tc_sent");
        ctx.emit(Event::message_out(types::tc_out(), msg));
    }
}

/// Processes incoming TCs into the topology set and refreshes routes.
#[derive(Clone)]
pub struct TcHandler {
    /// Validity applied to learned edges.
    pub validity: SimDuration,
}

impl EventHandler for TcHandler {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "tc-handler"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![types::tc_in()]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let Some(msg) = event.message() else { return };
        let Some(originator) = msg.originator() else {
            return;
        };
        let local = ctx.local_addr();
        if originator == local {
            return;
        }
        let Some((ansn, advertised)) = parse_tc(msg) else {
            return;
        };
        let now = ctx.now();
        let s = state.get_mut::<OlsrState>();
        if s.apply_tc(originator, ansn, advertised, now, self.validity) {
            ctx.os().bump("tc_processed");
            sync_kernel_routes(s, local, ctx);
        }
    }
}

/// Tracks `NHOOD_CHANGE` / `MPR_CHANGE` from the MPR CF below.
#[derive(Clone)]
pub struct NeighbourhoodHandler {
    /// Validity advertised in triggered TCs.
    pub validity: SimDuration,
    /// Hop limit stamped on triggered TCs.
    pub hop_limit: u8,
}

impl EventHandler for NeighbourhoodHandler {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "nhood-handler"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![
            types::nhood_change(),
            types::mpr_change(),
            manetkit::protocol::proto_stop_event(),
        ]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let local = ctx.local_addr();
        let s = state.get_mut::<OlsrState>();
        if event.ty.as_str() == manetkit::protocol::PROTO_STOP_EVENT {
            // Undeploying: withdraw every kernel route this protocol owns.
            s.withdraw_routes(ctx.os().route_table_mut());
            return;
        }
        match &event.payload {
            Payload::Neighbourhood(nh) => {
                s.set_neighbourhood(&nh.sym_neighbours, &nh.two_hop);
                sync_kernel_routes(s, local, ctx);
            }
            Payload::Mpr(mpr) if s.advertised != mpr.selectors => {
                s.advertised = mpr.selectors.clone();
                s.ansn = s.ansn.wrapping_add(1);
                // Early TC on selection change speeds up convergence
                // (RFC 3626 permits triggered TCs).
                if !s.advertised.is_empty() {
                    let seq = ctx.os().next_seq();
                    let msg = build_tc(
                        local,
                        seq,
                        s.ansn,
                        self.validity,
                        &s.advertised,
                        self.hop_limit,
                    );
                    ctx.os().bump("tc_sent");
                    ctx.emit(Event::message_out(types::tc_out(), msg));
                }
            }
            _ => {}
        }
    }
}

/// Expiry sweep over the topology set.
#[derive(Clone)]
pub struct TopologyExpiryHandler {
    /// Sweep period.
    pub sweep: SimDuration,
}

impl EventHandler for TopologyExpiryHandler {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "topo-expiry-handler"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![topo_expiry_timer()]
    }
    fn handle(&mut self, _event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let local = ctx.local_addr();
        let now = ctx.now();
        let s = state.get_mut::<OlsrState>();
        if s.expire(now) {
            sync_kernel_routes(s, local, ctx);
        }
        ctx.set_timer(self.sweep, topo_expiry_timer());
    }
}

/// Power-aware variant: learns residual energy from `POWER_MSG_IN`
/// dissemination.
#[derive(Clone)]
pub struct EnergyMapHandler;

impl EventHandler for EnergyMapHandler {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "energy-map-handler"
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![types::power_msg_in()]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let Some(msg) = event.message() else { return };
        let Some(originator) = msg.originator() else {
            return;
        };
        let Some(raw) = msg
            .find_tlv(tlv_type::RESIDUAL_ENERGY)
            .and_then(Tlv::value_u8)
        else {
            return;
        };
        let local = ctx.local_addr();
        let s = state.get_mut::<OlsrState>();
        s.set_energy(originator, f64::from(raw) / 255.0);
        sync_kernel_routes(s, local, ctx);
    }
}

/// Power-aware variant: the "ResidualPower" component — periodically
/// disseminates the node's own battery level network-wide via the MPR
/// flooding service.
#[derive(Clone)]
pub struct ResidualPowerSource {
    /// Dissemination period.
    pub interval: SimDuration,
}

impl EventSource for ResidualPowerSource {
    fn fork(&self) -> Option<Box<dyn EventSource>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "residual-power"
    }
    fn period(&self) -> SimDuration {
        self.interval
    }
    fn fire(&mut self, _state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let level = ctx.os().battery_level();
        let seq = ctx.os().next_seq();
        let msg = MessageBuilder::new(msg_type::RESIDUAL_POWER)
            .originator(ctx.local_addr())
            .hop_limit(255)
            .hop_count(0)
            .seq_num(seq)
            .push_tlv(Tlv::with_value(
                tlv_type::RESIDUAL_ENERGY,
                [(level.clamp(0.0, 1.0) * 255.0) as u8],
            ))
            .build();
        ctx.os().bump("power_msg_sent");
        ctx.emit(Event::message_out(types::power_msg_out(), msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> Address {
        Address::v4([10, 0, 0, n])
    }

    #[test]
    fn tc_round_trip() {
        let msg = build_tc(
            addr(1),
            7,
            42,
            SimDuration::from_secs(15),
            &[addr(2), addr(3)],
            255,
        );
        let wire = packetbb::Packet::single(msg).encode_to_vec();
        let back = packetbb::Packet::decode(&wire).unwrap();
        let (ansn, advertised) = parse_tc(&back.messages()[0]).unwrap();
        assert_eq!(ansn, 42);
        assert_eq!(advertised.collect::<Vec<_>>(), [addr(2), addr(3)]);
        assert_eq!(back.messages()[0].hop_limit(), Some(255));
    }

    #[test]
    fn empty_tc_parses() {
        let msg = build_tc(addr(1), 1, 9, SimDuration::from_secs(15), &[], 3);
        let (ansn, advertised) = parse_tc(&msg).unwrap();
        assert_eq!(ansn, 9);
        assert_eq!(advertised.count(), 0);
    }

    #[test]
    fn tc_without_ansn_rejected() {
        let msg = MessageBuilder::new(msg_type::TC)
            .originator(addr(1))
            .build();
        assert!(parse_tc(&msg).is_none());
    }
}
