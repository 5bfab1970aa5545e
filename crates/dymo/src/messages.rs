//! DYMO message formats: routing elements (RREQ/RREP with path
//! accumulation) over PacketBB. Route errors are the reactive core's
//! [`RouteError`](manetkit::reactive::RouteError).

use manetkit::event::{types, EventType};
use manetkit::reactive::addr_seq;
use packetbb::registry::{msg_type, tlv_type};
use packetbb::{Address, AddressBlock, AddressTlv, Message, MessageBuilder, Tlv};

/// Whether a routing element is a request (flooded) or a reply (unicast).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReKind {
    /// Route request.
    Rreq,
    /// Route reply.
    Rrep,
}

/// One hop of an accumulated path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathHop {
    /// The node's address.
    pub addr: Address,
    /// The node's sequence number at accumulation time.
    pub seq: u16,
}

/// A DYMO routing element: the request/reply unit with path accumulation.
///
/// `path[0]` is the originator; each forwarding node appends itself, so
/// `path.last()` is always the node the frame was last transmitted by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteElement {
    /// Request or reply.
    pub kind: ReKind,
    /// The sought (RREQ) or answered (RREP) destination.
    pub target: Address,
    /// The last sequence number known for the target, if any.
    pub target_seq: Option<u16>,
    /// The accumulated path, originator first.
    pub path: Vec<PathHop>,
    /// Remaining hop budget.
    pub hop_limit: u8,
}

impl RouteElement {
    /// The element's originator (first path hop).
    ///
    /// # Panics
    ///
    /// Panics on an empty path — construction always seeds the originator.
    #[must_use]
    pub fn originator(&self) -> PathHop {
        *self.path.first().expect("path contains the originator")
    }

    /// A new request from `orig` looking for `target`.
    #[must_use]
    pub fn rreq(orig: PathHop, target: Address, target_seq: Option<u16>, hop_limit: u8) -> Self {
        RouteElement {
            kind: ReKind::Rreq,
            target,
            target_seq,
            path: vec![orig],
            hop_limit,
        }
    }

    /// A new reply from `orig` answering a request for itself, heading to
    /// `target` (the request's originator).
    #[must_use]
    pub fn rrep(orig: PathHop, target: Address, hop_limit: u8) -> Self {
        RouteElement {
            kind: ReKind::Rrep,
            target,
            target_seq: None,
            path: vec![orig],
            hop_limit,
        }
    }

    /// A copy with `hop` appended and the hop budget decremented, or `None`
    /// when the budget is exhausted or the hop is already on the path
    /// (loop).
    #[must_use]
    pub fn extended(&self, hop: PathHop) -> Option<RouteElement> {
        if self.hop_limit <= 1 || self.path.iter().any(|h| h.addr == hop.addr) {
            return None;
        }
        let mut next = self.clone();
        next.hop_limit -= 1;
        next.path.push(hop);
        Some(next)
    }

    /// Serializes into a PacketBB message.
    #[must_use]
    pub fn to_message(&self) -> Message {
        let orig = self.originator();
        let mtype = match self.kind {
            ReKind::Rreq => msg_type::RREQ,
            ReKind::Rrep => msg_type::RREP,
        };
        let mut target_block = AddressBlock::new(vec![self.target]).expect("single target address");
        if let Some(ts) = self.target_seq {
            target_block.add_tlv(AddressTlv::single(
                Tlv::with_value(tlv_type::TARGET_SEQ_NUM, ts.to_be_bytes()),
                0,
            ));
        }
        let addrs: Vec<Address> = self.path.iter().map(|h| h.addr).collect();
        let mut path_block = AddressBlock::new(addrs).expect("non-empty path");
        for (i, hop) in self.path.iter().enumerate() {
            path_block.add_tlv(AddressTlv::single(
                Tlv::with_value(tlv_type::ADDR_SEQ_NUM, hop.seq.to_be_bytes()),
                i as u8,
            ));
        }
        MessageBuilder::new(mtype)
            .originator(orig.addr)
            .hop_limit(self.hop_limit)
            .hop_count((self.path.len() - 1) as u8)
            .seq_num(orig.seq)
            .push_address_block(target_block)
            .push_address_block(path_block)
            .build()
    }

    /// Parses a routing element from a PacketBB message, or `None` when the
    /// message is not a well-formed RREQ/RREP.
    #[must_use]
    pub fn from_message(msg: &Message) -> Option<RouteElement> {
        let kind = match msg.msg_type() {
            msg_type::RREQ => ReKind::Rreq,
            msg_type::RREP => ReKind::Rrep,
            _ => return None,
        };
        let blocks = msg.address_blocks();
        if blocks.len() < 2 {
            return None;
        }
        let target = *blocks[0].addresses().first()?;
        let target_seq = blocks[0]
            .tlvs()
            .iter()
            .find(|t| t.tlv().tlv_type() == tlv_type::TARGET_SEQ_NUM)
            .and_then(|t| t.tlv().value_u16());
        let mut path = Vec::with_capacity(blocks[1].len());
        for (i, addr) in blocks[1].addresses().iter().enumerate() {
            let seq = addr_seq(blocks[1].tlvs_at(i));
            path.push(PathHop { addr: *addr, seq });
        }
        if path.is_empty() {
            return None;
        }
        Some(RouteElement {
            kind,
            target,
            target_seq,
            path,
            hop_limit: msg.hop_limit().unwrap_or(1),
        })
    }

    /// The event type this element travels under when emitted.
    #[must_use]
    pub fn out_event(&self) -> EventType {
        types::re_out()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> Address {
        Address::v4([10, 0, 0, n])
    }

    #[test]
    fn rreq_round_trip() {
        let re = RouteElement::rreq(
            PathHop {
                addr: addr(1),
                seq: 5,
            },
            addr(9),
            Some(3),
            10,
        );
        let msg = re.to_message();
        let wire = packetbb::Packet::single(msg).encode_to_vec();
        let back = packetbb::Packet::decode(&wire).unwrap();
        let parsed = RouteElement::from_message(&back.messages()[0]).unwrap();
        assert_eq!(parsed, re);
        assert_eq!(parsed.kind, ReKind::Rreq);
        assert_eq!(parsed.target_seq, Some(3));
    }

    #[test]
    fn path_accumulation_and_loop_rejection() {
        let re = RouteElement::rreq(
            PathHop {
                addr: addr(1),
                seq: 1,
            },
            addr(9),
            None,
            3,
        );
        let e1 = re
            .extended(PathHop {
                addr: addr(2),
                seq: 7,
            })
            .unwrap();
        assert_eq!(e1.hop_limit, 2);
        assert_eq!(e1.path.len(), 2);
        // Loop: addr(1) already on the path.
        assert!(e1
            .extended(PathHop {
                addr: addr(1),
                seq: 2
            })
            .is_none());
        // Budget exhaustion.
        let e2 = e1
            .extended(PathHop {
                addr: addr(3),
                seq: 1,
            })
            .unwrap();
        assert_eq!(e2.hop_limit, 1);
        assert!(e2
            .extended(PathHop {
                addr: addr(4),
                seq: 1
            })
            .is_none());
    }

    #[test]
    fn rrep_round_trip_and_hop_count() {
        let mut re = RouteElement::rrep(
            PathHop {
                addr: addr(9),
                seq: 12,
            },
            addr(1),
            10,
        );
        re = re
            .extended(PathHop {
                addr: addr(5),
                seq: 2,
            })
            .unwrap();
        let msg = re.to_message();
        assert_eq!(msg.hop_count(), Some(1));
        let parsed = RouteElement::from_message(&msg).unwrap();
        assert_eq!(parsed.kind, ReKind::Rrep);
        assert_eq!(parsed.originator().addr, addr(9));
        assert_eq!(parsed.path.len(), 2);
    }

    #[test]
    fn wrong_types_rejected() {
        let hello = MessageBuilder::new(msg_type::HELLO).build();
        assert!(RouteElement::from_message(&hello).is_none());
    }
}
