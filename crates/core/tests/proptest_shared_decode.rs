//! Differential test of the shared decode: N receivers of one transmission,
//! each handed the same [`ControlFrame`] the way the world hands it over,
//! must build exactly the `*_IN` events — and count exactly the decode errors
//! and unknown messages — that N receivers decoding the bytes for themselves
//! build, for valid and for corrupted packets alike.

use std::sync::Arc;

use manetkit::event::{types, Event};
use manetkit::system::{MessageRegistration, SystemCf};
use netsim::{ControlFrame, ControlMessages, FilterEvent, NodeId, NodeOs, RoutingAgent};
use packetbb::registry::{msg_type, tlv_type};
use packetbb::{Address, AddressBlock, AddressTlv, Message, MessageBuilder, Packet, Tlv};
use proptest::prelude::*;

const RECEIVERS: usize = 4;

fn system() -> SystemCf {
    let mut sys = SystemCf::new();
    for registration in [
        MessageRegistration::in_out(msg_type::HELLO, types::hello_in(), types::hello_out()),
        MessageRegistration::in_out(msg_type::RREQ, types::re_in(), types::re_out()),
        MessageRegistration::in_only(msg_type::RERR, types::rerr_in()),
    ] {
        sys.register_message(registration);
    }
    sys
}

/// A receiver that is nothing but a System CF: what `Deployment::on_frame`
/// does with a frame, up to the point where events enter the bus.
struct Receiver {
    sys: SystemCf,
    events: Vec<Event>,
}

impl Receiver {
    fn new() -> Self {
        Receiver {
            sys: system(),
            events: Vec::new(),
        }
    }
}

impl RoutingAgent for Receiver {
    fn name(&self) -> &str {
        "receiver"
    }
    fn start(&mut self, _os: &mut NodeOs) {}
    fn on_frame(&mut self, os: &mut NodeOs, from: Address, bytes: &[u8]) {
        self.sys
            .rx(from, &os.decode_control(bytes), &mut self.events);
    }
    fn on_timer(&mut self, _os: &mut NodeOs, _token: u64) {}
    fn on_filter_event(&mut self, _os: &mut NodeOs, _event: FilterEvent) {}
}

fn addr(n: u8) -> Address {
    Address::v4([10, 0, n / 16, n % 16])
}

fn arb_message() -> impl Strategy<Value = Message> {
    // Registered types and two that are not, so unknown-message accounting
    // is exercised inside otherwise valid packets.
    let ty = prop_oneof![
        Just(msg_type::HELLO),
        Just(msg_type::RREQ),
        Just(msg_type::RERR),
        Just(msg_type::TC),
        Just(77u8),
    ];
    let block = (
        proptest::collection::vec(any::<u8>(), 1..6),
        proptest::collection::vec((0u8..5, any::<u16>()), 0..4),
    );
    (
        ty,
        proptest::option::of(any::<u8>()),
        any::<u16>(),
        proptest::collection::vec(block, 0..3),
    )
        .prop_map(|(ty, originator, seq, blocks)| {
            let mut b = MessageBuilder::new(ty).seq_num(seq).hop_limit(3);
            if let Some(o) = originator {
                b = b.originator(addr(o));
            }
            for (addrs, tlvs) in blocks {
                let len = addrs.len() as u8;
                let mut block = AddressBlock::new(addrs.into_iter().map(addr).collect())
                    .expect("non-empty, one family");
                for (i, value) in tlvs {
                    block.add_tlv(AddressTlv::single(
                        Tlv::with_value(tlv_type::ADDR_SEQ_NUM, value.to_be_bytes()),
                        i % len,
                    ));
                }
                b = b.push_address_block(block);
            }
            b.build()
        })
}

#[derive(Debug, Clone)]
enum Damage {
    None,
    Truncate(usize),
    Flip(usize, u8),
    Append(Vec<u8>),
    Garbage(Vec<u8>),
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        3 => Just(Damage::None),
        2 => any::<usize>().prop_map(Damage::Truncate),
        2 => (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Damage::Flip(at, mask)),
        1 => proptest::collection::vec(any::<u8>(), 1..4).prop_map(Damage::Append),
        1 => proptest::collection::vec(any::<u8>(), 0..24).prop_map(Damage::Garbage),
    ]
}

fn damaged(mut bytes: Vec<u8>, damage: &Damage) -> Vec<u8> {
    match damage {
        Damage::None => {}
        Damage::Truncate(at) => bytes.truncate(at % (bytes.len() + 1)),
        Damage::Flip(at, mask) => {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        Damage::Append(tail) => bytes.extend_from_slice(tail),
        Damage::Garbage(garbage) => bytes = garbage.clone(),
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn shared_view_builds_the_events_independent_decodes_build(
        frames in proptest::collection::vec(
            (proptest::collection::vec(arb_message(), 0..4), arb_damage()),
            1..6,
        ),
    ) {
        let from = addr(200);
        let mut shared: Vec<(Receiver, NodeOs)> = (0..RECEIVERS)
            .map(|i| (Receiver::new(), NodeOs::standalone(NodeId(i), addr(i as u8))))
            .collect();
        let mut independent: Vec<SystemCf> = (0..RECEIVERS).map(|_| system()).collect();

        for (messages, damage) in frames {
            let packet = Packet::builder().seq_num(1).messages(messages).build();
            let bytes = damaged(packet.encode_to_vec(), &damage);
            let frame = ControlFrame::new(bytes.clone());

            let mut independent_events: Vec<Vec<Event>> = Vec::new();
            for sys in &mut independent {
                let mut events = Vec::new();
                sys.rx(from, &ControlMessages::decode(&bytes), &mut events);
                independent_events.push(events);
            }
            for (receiver, os) in &mut shared {
                receiver.events.clear();
                os.deliver_control(receiver, from, &frame);
            }

            for (i, (receiver, _)) in shared.iter().enumerate() {
                prop_assert_eq!(&receiver.events, &independent_events[i]);
                prop_assert_eq!(receiver.sys.decode_errors(), independent[i].decode_errors());
                prop_assert_eq!(
                    receiver.sys.unknown_messages(),
                    independent[i].unknown_messages()
                );
                // Shared means shared: every receiver's event carries the
                // first receiver's message, not an equal copy of it.
                for (mine, first) in receiver.events.iter().zip(&shared[0].0.events) {
                    let (mine, first) = (mine.message().unwrap(), first.message().unwrap());
                    prop_assert!(Arc::ptr_eq(mine, first));
                }
            }
        }
    }
}

#[test]
fn only_the_frame_under_delivery_is_answered_from_the_shared_view() {
    let msg = MessageBuilder::new(msg_type::HELLO).seq_num(9).build();
    let bytes = Packet::single(msg).encode_to_vec();
    let frame = ControlFrame::new(bytes.clone());
    let shared_msg = Arc::clone(&frame.messages().unwrap()[0]);

    /// Decodes the slice it is handed and an equal copy of it.
    struct Both {
        handed: Option<Arc<Message>>,
        copy: Option<Arc<Message>>,
    }
    impl RoutingAgent for Both {
        fn name(&self) -> &str {
            "both"
        }
        fn start(&mut self, _os: &mut NodeOs) {}
        fn on_frame(&mut self, os: &mut NodeOs, _from: Address, bytes: &[u8]) {
            self.handed = Some(Arc::clone(&os.decode_control(bytes).get().unwrap()[0]));
            let copy = bytes.to_vec();
            self.copy = Some(Arc::clone(&os.decode_control(&copy).get().unwrap()[0]));
        }
        fn on_timer(&mut self, _os: &mut NodeOs, _token: u64) {}
        fn on_filter_event(&mut self, _os: &mut NodeOs, _event: FilterEvent) {}
    }

    let mut os = NodeOs::standalone(NodeId(0), addr(1));
    let mut agent = Both {
        handed: None,
        copy: None,
    };
    os.deliver_control(&mut agent, addr(2), &frame);
    let (handed, copy) = (agent.handed.unwrap(), agent.copy.unwrap());
    assert!(Arc::ptr_eq(&handed, &shared_msg), "the frame's own bytes");
    assert!(!Arc::ptr_eq(&copy, &shared_msg), "equal bytes elsewhere");
    assert_eq!(copy, shared_msg);

    // Once delivery is over nothing is parked: the same slice decodes afresh.
    let after = Arc::clone(&os.decode_control(frame.bytes()).get().unwrap()[0]);
    assert!(!Arc::ptr_eq(&after, &shared_msg));
}
