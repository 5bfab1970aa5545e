//! AODV message formats (RFC 3561 semantics over PacketBB).
//!
//! Unlike DYMO, AODV accumulates no path: an RREQ carries only the
//! originator (with sequence number and flood id) and the sought target;
//! reverse routes are learned hop by hop from the transmitting neighbour
//! and the hop count. Route errors are the reactive core's
//! [`RouteError`](manetkit::reactive::RouteError).

use packetbb::registry::{msg_type, tlv_type};
use packetbb::{Address, AddressBlock, AddressTlv, Message, MessageBuilder, Tlv};

/// An AODV route request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rreq {
    /// The requesting node.
    pub orig: Address,
    /// The originator's sequence number.
    pub orig_seq: u16,
    /// Per-originator flood identifier (duplicate suppression key).
    pub rreq_id: u16,
    /// The sought destination.
    pub target: Address,
    /// Last sequence number known for the target (`None` = unknown flag).
    pub target_seq: Option<u16>,
    /// Hops travelled so far.
    pub hop_count: u8,
    /// Remaining flood budget.
    pub hop_limit: u8,
}

impl Rreq {
    /// Serializes into a PacketBB message.
    #[must_use]
    pub fn to_message(&self) -> Message {
        let mut target_block = AddressBlock::new(vec![self.target]).expect("one target");
        match self.target_seq {
            Some(ts) => target_block.add_tlv(AddressTlv::single(
                Tlv::with_value(tlv_type::TARGET_SEQ_NUM, ts.to_be_bytes()),
                0,
            )),
            None => target_block.add_tlv(AddressTlv::single(Tlv::flag(tlv_type::UNKNOWN_SEQ), 0)),
        }
        MessageBuilder::new(msg_type::AODV_RREQ)
            .originator(self.orig)
            .seq_num(self.orig_seq)
            .hop_count(self.hop_count)
            .hop_limit(self.hop_limit)
            .push_tlv(Tlv::with_value(
                tlv_type::RREQ_ID,
                self.rreq_id.to_be_bytes(),
            ))
            .push_address_block(target_block)
            .build()
    }

    /// Parses from a PacketBB message, or `None` for other kinds.
    #[must_use]
    pub fn from_message(msg: &Message) -> Option<Rreq> {
        if msg.msg_type() != msg_type::AODV_RREQ {
            return None;
        }
        let orig = msg.originator()?;
        let orig_seq = msg.seq_num()?;
        let rreq_id = msg.find_tlv(tlv_type::RREQ_ID)?.value_u16()?;
        let block = msg.address_blocks().first()?;
        let target = *block.addresses().first()?;
        let target_seq = block
            .tlvs()
            .iter()
            .find(|t| t.tlv().tlv_type() == tlv_type::TARGET_SEQ_NUM)
            .and_then(|t| t.tlv().value_u16());
        Some(Rreq {
            orig,
            orig_seq,
            rreq_id,
            target,
            target_seq,
            hop_count: msg.hop_count().unwrap_or(0),
            hop_limit: msg.hop_limit().unwrap_or(1),
        })
    }

    /// A copy prepared for re-flooding, or `None` when the budget is spent.
    #[must_use]
    pub fn forwarded(&self) -> Option<Rreq> {
        if self.hop_limit <= 1 {
            return None;
        }
        let mut next = *self;
        next.hop_limit -= 1;
        next.hop_count = next.hop_count.saturating_add(1);
        Some(next)
    }
}

/// An AODV route reply, travelling hop by hop along reverse routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rrep {
    /// The destination the route leads to.
    pub dst: Address,
    /// The destination's sequence number.
    pub dst_seq: u16,
    /// The node the reply must reach (the request's originator).
    pub orig: Address,
    /// Hops from the replying node travelled so far.
    pub hop_count: u8,
    /// Route lifetime granted, in milliseconds.
    pub lifetime_ms: u64,
}

impl Rrep {
    /// Serializes into a PacketBB message.
    #[must_use]
    pub fn to_message(&self) -> Message {
        MessageBuilder::new(msg_type::AODV_RREP)
            .originator(self.dst)
            .seq_num(self.dst_seq)
            .hop_count(self.hop_count)
            .hop_limit(32)
            .push_tlv(Tlv::with_value(
                tlv_type::LIFETIME,
                [packetbb::time::encode_time(self.lifetime_ms)],
            ))
            .push_address_block(AddressBlock::new(vec![self.orig]).expect("one orig"))
            .build()
    }

    /// Parses from a PacketBB message, or `None` for other kinds.
    #[must_use]
    pub fn from_message(msg: &Message) -> Option<Rrep> {
        if msg.msg_type() != msg_type::AODV_RREP {
            return None;
        }
        let dst = msg.originator()?;
        let dst_seq = msg.seq_num()?;
        let orig = *msg.address_blocks().first()?.addresses().first()?;
        let lifetime_ms = msg
            .find_tlv(tlv_type::LIFETIME)
            .and_then(Tlv::value_u8)
            .map_or(5_000, packetbb::time::decode_time);
        Some(Rrep {
            dst,
            dst_seq,
            orig,
            hop_count: msg.hop_count().unwrap_or(0),
            lifetime_ms,
        })
    }

    /// A copy with the hop count incremented (for relaying).
    #[must_use]
    pub fn forwarded(&self) -> Rrep {
        let mut next = *self;
        next.hop_count = next.hop_count.saturating_add(1);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> Address {
        Address::v4([10, 0, 0, n])
    }

    #[test]
    fn rreq_round_trip_with_and_without_target_seq() {
        for target_seq in [Some(7u16), None] {
            let rreq = Rreq {
                orig: addr(1),
                orig_seq: 5,
                rreq_id: 99,
                target: addr(9),
                target_seq,
                hop_count: 2,
                hop_limit: 8,
            };
            let wire = packetbb::Packet::single(rreq.to_message()).encode_to_vec();
            let back = packetbb::Packet::decode(&wire).unwrap();
            assert_eq!(Rreq::from_message(&back.messages()[0]), Some(rreq));
        }
    }

    #[test]
    fn rreq_forwarding_counts_and_stops() {
        let rreq = Rreq {
            orig: addr(1),
            orig_seq: 1,
            rreq_id: 1,
            target: addr(9),
            target_seq: None,
            hop_count: 0,
            hop_limit: 2,
        };
        let f = rreq.forwarded().unwrap();
        assert_eq!((f.hop_count, f.hop_limit), (1, 1));
        assert!(f.forwarded().is_none());
    }

    #[test]
    fn rrep_round_trip() {
        let rrep = Rrep {
            dst: addr(9),
            dst_seq: 12,
            orig: addr(1),
            hop_count: 0,
            lifetime_ms: 5_000,
        };
        let wire = packetbb::Packet::single(rrep.to_message()).encode_to_vec();
        let back = packetbb::Packet::decode(&wire).unwrap();
        let parsed = Rrep::from_message(&back.messages()[0]).unwrap();
        assert_eq!(parsed.dst, rrep.dst);
        assert_eq!(parsed.orig, rrep.orig);
        // The RFC 5497 lifetime codec rounds up slightly.
        assert!(parsed.lifetime_ms >= 5_000 && parsed.lifetime_ms < 6_000);
        assert_eq!(parsed.forwarded().hop_count, 1);
    }

    #[test]
    fn cross_parsing_rejects_other_kinds() {
        let rreq = Rreq {
            orig: addr(1),
            orig_seq: 1,
            rreq_id: 1,
            target: addr(9),
            target_seq: None,
            hop_count: 0,
            hop_limit: 2,
        };
        let msg = rreq.to_message();
        assert!(Rrep::from_message(&msg).is_none());
    }
}
