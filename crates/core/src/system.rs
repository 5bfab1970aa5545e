//! The System CF: the base CFS unit abstracting over the (simulated) OS.
//!
//! Sits below every protocol CF (§4.3). Its **F** element sends and receives
//! protocol messages over the node's network device — including *message
//! registrations* that map PacketBB message types to `*_IN`/`*_OUT` events
//! (the "NetworkDriver" plug-in of the paper). Its **C** element surfaces
//! netfilter route-control events ("NetLink" plug-in) and context sensors
//! ("PowerStatus" plug-in). Its **S** element — the kernel routing table —
//! is reached directly through [`ProtoCtx::os`](crate::ProtoCtx::os).
//!
//! Outgoing messages emitted within one dispatch round toward the same
//! destination are aggregated into a single PacketBB packet
//! (piggybacking).

use std::sync::Arc;

use netsim::{ContextSample, ControlMessages, FilterEvent, NodeOs};
use packetbb::{Address, Message, Packet};

use crate::event::{types, ContextValue, Event, EventType, Payload, RouteCtl};
use crate::registry::EventTuple;

/// Maps one PacketBB message type to the event names it travels under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageRegistration {
    /// The PacketBB message type octet.
    pub msg_type: u8,
    /// Event type emitted when such a message arrives.
    pub in_event: EventType,
    /// Event type whose messages the driver transmits (`None` when a
    /// protocol's own F element transmits this message kind directly).
    pub out_event: Option<EventType>,
}

impl MessageRegistration {
    /// `msg_type` with both an in and an out event.
    #[must_use]
    pub fn in_out(msg_type: u8, in_event: EventType, out_event: EventType) -> Self {
        MessageRegistration {
            msg_type,
            in_event,
            out_event: Some(out_event),
        }
    }

    /// `msg_type` with an in event only (a protocol F element transmits
    /// this kind itself).
    #[must_use]
    pub fn in_only(msg_type: u8, in_event: EventType) -> Self {
        MessageRegistration {
            msg_type,
            in_event,
            out_event: None,
        }
    }
}

/// The System CF's *configuration* — the part of its identity that
/// reconfiguration operations change (message registrations and loaded
/// plug-ins), as a cloneable, comparable value. It is also what a protocol
/// crate asks the System CF to [`load`](SystemCf::load).
///
/// Runtime artefacts (the tx aggregation buffer, sequence numbers,
/// observability counters) are deliberately excluded: a checkpoint/restore
/// pair around an aborted transaction must not rewind history, only undo
/// configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SystemConfig {
    /// NetworkDriver message registrations, in registration order.
    pub registrations: Vec<MessageRegistration>,
    /// Whether the NetLink plug-in is loaded.
    pub netlink: bool,
    /// Whether the PowerStatus plug-in is loaded.
    pub power_status: bool,
}

/// The System CF.
#[derive(Debug, Clone, Default)]
pub struct SystemCf {
    config: SystemConfig,
    /// Outgoing (dst, message) pairs aggregated within a dispatch round.
    /// Routed `*_OUT` events lend their message; by the time the round
    /// flushes the event is gone and the buffer owns it outright.
    tx_buffer: Vec<(Option<Address>, Arc<Message>)>,
    /// Packet sequence number.
    pkt_seq: u16,
    /// Frames that failed to decode (observability).
    decode_errors: u64,
    /// Messages of unregistered types (observability).
    unknown_messages: u64,
}

impl SystemCf {
    /// A System CF with no plug-ins configured.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a NetworkDriver registration for one message type, replacing
    /// any earlier registration of that type (it moves to the end).
    pub fn register_message(&mut self, registration: MessageRegistration) {
        let registrations = &mut self.config.registrations;
        registrations.retain(|r| r.msg_type != registration.msg_type);
        registrations.push(registration);
    }

    /// Loads `config` on top of the current configuration: its
    /// registrations in order (see [`register_message`](Self::register_message)),
    /// and every plug-in it enables. A plug-in it leaves off stays as it
    /// is. Callers re-derive the System tuple afterwards.
    pub fn load(&mut self, config: &SystemConfig) {
        for r in &config.registrations {
            self.register_message(r.clone());
        }
        self.config.netlink |= config.netlink;
        self.config.power_status |= config.power_status;
    }

    /// The reconfigurable configuration (registrations and plug-in flags)
    /// — what a transactional checkpoint snapshots.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Restores a configuration previously captured with
    /// [`config`](Self::config), leaving runtime state (tx buffer, packet
    /// sequence, counters) untouched. Callers re-derive the System tuple
    /// afterwards.
    pub fn restore_config(&mut self, config: SystemConfig) {
        self.config = config;
    }

    /// The System CF's event tuple, derived from its loaded plug-ins.
    #[must_use]
    pub fn tuple(&self) -> EventTuple {
        let mut t = EventTuple::new();
        for r in &self.config.registrations {
            t = t.provides(r.in_event);
            if let Some(out) = &r.out_event {
                t = t.requires(*out);
            }
        }
        if self.config.netlink {
            t = t
                .provides(types::no_route())
                .provides(types::route_update())
                .provides(types::send_route_err())
                .provides(types::tx_failed())
                .requires(types::route_found());
        }
        if self.config.power_status {
            t = t.provides(types::power_status());
        }
        t
    }

    /// Turns an arriving frame's messages into `*_IN` events, appended to
    /// `events`. The messages are shared, not copied: a frame decoded once
    /// for all its receivers (see [`NodeOs::decode_control`]) costs each of
    /// them a reference-count bump per message. A frame that failed to
    /// decode, or a message of an unregistered type, is counted here — per
    /// receiver — and produces nothing.
    pub fn rx(&mut self, from: Address, frame: &ControlMessages, events: &mut Vec<Event>) {
        let Ok(messages) = frame.get() else {
            self.decode_errors += 1;
            return;
        };
        for msg in messages {
            match self
                .config
                .registrations
                .iter()
                .find(|r| r.msg_type == msg.msg_type())
            {
                Some(reg) => events.push(Event::message_in(reg.in_event, Arc::clone(msg), from)),
                None => self.unknown_messages += 1,
            }
        }
    }

    /// Accepts a routed `*_OUT` event for transmission (buffered for
    /// aggregation until [`flush`](Self::flush)).
    pub fn tx(&mut self, event: &Event) {
        if let Payload::Message(msg) = &event.payload {
            self.tx_buffer.push((event.meta.dst, Arc::clone(msg)));
        }
    }

    /// Queues a message for transmission directly (the `IForward`
    /// direct-call path used by protocol F elements).
    pub fn send_direct(&mut self, msg: Message, dst: Option<Address>) {
        self.tx_buffer.push((dst, Arc::new(msg)));
    }

    /// Handles a routed event the System CF requires (`ROUTE_FOUND`).
    pub fn consume(&mut self, event: &Event, os: &mut NodeOs) {
        if event.ty == types::route_found() {
            if let Some(RouteCtl::RouteFound { dst }) = event.route_ctl() {
                os.reinject(*dst);
            }
        } else if event.meta.dst.is_some() || event.message().is_some() {
            self.tx(event);
        }
    }

    /// Flushes buffered messages as packets: all broadcast messages of a
    /// round share one packet (piggybacking); unicasts are grouped per
    /// destination.
    pub fn flush(&mut self, os: &mut NodeOs) {
        if self.tx_buffer.is_empty() {
            return;
        }
        let buffer = std::mem::take(&mut self.tx_buffer);
        let mut broadcast: Vec<Message> = Vec::new();
        let mut unicast: Vec<(Address, Vec<Message>)> = Vec::new();
        for (dst, msg) in buffer {
            let msg = Arc::try_unwrap(msg).unwrap_or_else(|shared| (*shared).clone());
            match dst {
                None => broadcast.push(msg),
                Some(addr) => match unicast.iter_mut().find(|(a, _)| *a == addr) {
                    Some((_, v)) => v.push(msg),
                    None => unicast.push((addr, vec![msg])),
                },
            }
        }
        if !broadcast.is_empty() {
            self.pkt_seq = self.pkt_seq.wrapping_add(1);
            let pkt = Packet::builder()
                .seq_num(self.pkt_seq)
                .messages(broadcast)
                .build();
            os.bump("sys_tx_broadcast");
            os.broadcast_control(pkt.encode_to_vec());
        }
        for (addr, msgs) in unicast {
            self.pkt_seq = self.pkt_seq.wrapping_add(1);
            let pkt = Packet::builder()
                .seq_num(self.pkt_seq)
                .messages(msgs)
                .build();
            os.bump("sys_tx_unicast");
            os.unicast_control(addr, pkt.encode_to_vec());
        }
    }

    /// Converts a netfilter event into routed events (NetLink plug-in).
    #[must_use]
    pub fn filter_event(&mut self, event: &FilterEvent) -> Vec<Event> {
        if !self.config.netlink {
            return Vec::new();
        }
        let (ty, ctl) = match event {
            FilterEvent::NoRoute { dst } => (types::no_route(), RouteCtl::NoRoute { dst: *dst }),
            FilterEvent::RouteUsed { dst, next_hop } => (
                types::route_update(),
                RouteCtl::RouteUsed {
                    dst: *dst,
                    next_hop: *next_hop,
                },
            ),
            FilterEvent::ForwardFailure { dst, src, next_hop } => (
                types::send_route_err(),
                RouteCtl::ForwardFailure {
                    dst: *dst,
                    src: *src,
                    next_hop: *next_hop,
                },
            ),
            FilterEvent::TxFailed { neighbour } => (
                types::tx_failed(),
                RouteCtl::TxFailed {
                    neighbour: *neighbour,
                },
            ),
            _ => return Vec::new(),
        };
        vec![Event {
            ty,
            payload: Payload::RouteCtl(ctl),
            meta: Default::default(),
        }]
    }

    /// Converts a context sample into routed events (PowerStatus plug-in).
    #[must_use]
    pub fn context_event(&mut self, sample: &ContextSample) -> Vec<Event> {
        if !self.config.power_status {
            return Vec::new();
        }
        match sample {
            ContextSample::Battery(level) => vec![Event {
                ty: types::power_status(),
                payload: Payload::Context(ContextValue::Battery(*level)),
                meta: Default::default(),
            }],
            _ => Vec::new(),
        }
    }

    /// Frames that failed to decode since start.
    #[must_use]
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// Messages whose type had no registration.
    #[must_use]
    pub fn unknown_messages(&self) -> u64 {
        self.unknown_messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::NodeId;
    use packetbb::MessageBuilder;

    fn test_os() -> NodeOs {
        NodeOs::standalone(NodeId(0), Address::v4([10, 0, 0, 1]))
    }

    fn hello_system() -> SystemCf {
        let mut sys = SystemCf::new();
        sys.register_message(MessageRegistration::in_out(
            0,
            types::hello_in(),
            types::hello_out(),
        ));
        sys.register_message(MessageRegistration::in_only(1, types::tc_in()));
        sys
    }

    /// Loads the NetLink and PowerStatus plug-ins named by the flags.
    fn enable(sys: &mut SystemCf, netlink: bool, power_status: bool) {
        sys.load(&SystemConfig {
            registrations: Vec::new(),
            netlink,
            power_status,
        });
    }

    #[test]
    fn tuple_derivation() {
        let mut sys = hello_system();
        enable(&mut sys, true, true);
        let t = sys.tuple();
        assert!(t.is_provided(&types::hello_in()));
        assert!(t.is_required(&types::hello_out()));
        assert!(t.is_provided(&types::tc_in()));
        assert!(!t.is_required(&types::tc_out()), "TC is in-only");
        assert!(t.is_provided(&types::no_route()));
        assert!(t.is_required(&types::route_found()));
        assert!(t.is_provided(&types::power_status()));
    }

    #[test]
    fn rx_maps_messages_to_events() {
        let mut sys = hello_system();
        let from = Address::v4([10, 0, 0, 9]);
        let pkt = Packet::builder()
            .push_message(MessageBuilder::new(0).seq_num(1).build())
            .push_message(MessageBuilder::new(1).seq_num(2).build())
            .push_message(MessageBuilder::new(99).build())
            .build();
        let mut events = Vec::new();
        sys.rx(
            from,
            &ControlMessages::decode(&pkt.encode_to_vec()),
            &mut events,
        );
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ty, types::hello_in());
        assert_eq!(events[1].ty, types::tc_in());
        assert_eq!(events[0].meta.from, Some(from));
        assert_eq!(sys.unknown_messages(), 1);
    }

    #[test]
    fn rx_tolerates_garbage() {
        let mut sys = hello_system();
        let mut events = Vec::new();
        sys.rx(
            Address::v4([1, 1, 1, 1]),
            &ControlMessages::decode(&[0xFF, 0x00, 0x13]),
            &mut events,
        );
        assert!(events.is_empty());
        assert_eq!(sys.decode_errors(), 1);
    }

    #[test]
    fn flush_aggregates_broadcasts() {
        let mut sys = hello_system();
        let mut os = test_os();
        sys.send_direct(MessageBuilder::new(0).build(), None);
        sys.send_direct(MessageBuilder::new(1).build(), None);
        sys.send_direct(
            MessageBuilder::new(1).build(),
            Some(Address::v4([10, 0, 0, 2])),
        );
        sys.flush(&mut os);
        // One broadcast packet (2 piggybacked messages) + one unicast.
        assert_eq!(os.counter("sys_tx_broadcast"), 1);
        assert_eq!(os.counter("sys_tx_unicast"), 1);
        // Second flush is a no-op.
        sys.flush(&mut os);
        assert_eq!(os.counter("sys_tx_broadcast"), 1);
    }

    #[test]
    fn netlink_conversion() {
        let mut sys = hello_system();
        let dst = Address::v4([10, 0, 0, 7]);
        // Disabled: nothing.
        assert!(sys.filter_event(&FilterEvent::NoRoute { dst }).is_empty());
        enable(&mut sys, true, false);
        let evs = sys.filter_event(&FilterEvent::NoRoute { dst });
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].ty, types::no_route());
        assert_eq!(evs[0].route_ctl(), Some(&RouteCtl::NoRoute { dst }));
    }

    #[test]
    fn route_found_reinjects() {
        let mut sys = hello_system();
        enable(&mut sys, true, false);
        let mut os = test_os();
        let dst = Address::v4([10, 0, 0, 7]);
        let ev = Event {
            ty: types::route_found(),
            payload: Payload::RouteCtl(RouteCtl::RouteFound { dst }),
            meta: Default::default(),
        };
        sys.consume(&ev, &mut os);
        // The reinject action was queued on the OS.
        // (NodeOs::actions is crate-private to netsim; observe indirectly by
        // asserting nothing panicked and the call is accepted. The
        // integration tests verify end-to-end reinjection.)
    }

    #[test]
    fn power_status_conversion() {
        let mut sys = hello_system();
        assert!(sys.context_event(&ContextSample::Battery(0.5)).is_empty());
        enable(&mut sys, false, true);
        let evs = sys.context_event(&ContextSample::Battery(0.5));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].ty, types::power_status());
    }

    #[test]
    fn reregistration_replaces() {
        let mut sys = hello_system();
        sys.load(&SystemConfig {
            registrations: vec![MessageRegistration::in_only(0, types::hello_in())],
            netlink: false,
            power_status: true,
        });
        let t = sys.tuple();
        assert!(!t.is_required(&types::hello_out()));
        assert_eq!(
            sys.config().registrations[1].msg_type,
            0,
            "moved to the end"
        );
        assert!(sys.config().power_status);
        // Loading never unloads a plug-in.
        enable(&mut sys, false, false);
        assert!(sys.config().power_status);
    }
}
