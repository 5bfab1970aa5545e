//! Node identity, frames (link layer) and data packets (network layer).

use std::fmt;
use std::sync::{Arc, OnceLock};

use packetbb::{Address, Message, Packet};

/// Index of a node in a [`World`](crate::World).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a control frame's bytes decode to: its PacketBB messages, each
/// shareable between receivers and event subscribers, or the decode error.
type DecodedControl = Result<Vec<Arc<Message>>, packetbb::Error>;

/// The one place control bytes become messages: behind a shared frame's
/// lazily filled view and behind a receiver's decode of its own.
fn decode_control(bytes: &[u8]) -> DecodedControl {
    Ok(Packet::decode(bytes)?
        .into_messages()
        .into_iter()
        .map(Arc::new)
        .collect())
}

/// One control transmission: the serialized PacketBB bytes and, filled in
/// by the first receiver that asks, what they decode to. Every receiver of
/// a broadcast holds the same frame, so the bytes are stored once and
/// decoded at most once however many neighbours hear them.
///
/// Equality compares the bytes; the decoded view is derived from them.
#[derive(Clone)]
pub struct ControlFrame(Arc<ControlInner>);

struct ControlInner {
    bytes: Vec<u8>,
    decoded: OnceLock<DecodedControl>,
}

impl ControlFrame {
    /// A frame carrying `bytes`, not yet decoded.
    #[must_use]
    pub fn new(bytes: Vec<u8>) -> Self {
        ControlFrame(Arc::new(ControlInner {
            bytes,
            decoded: OnceLock::new(),
        }))
    }

    /// The serialized PacketBB bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.0.bytes
    }

    /// On-air size of this frame (see [`Frame::control_wire_len`]).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        Frame::control_wire_len(self.bytes().len())
    }

    /// The decoded messages, decoding on first use.
    ///
    /// # Errors
    ///
    /// The decode error, when the bytes are not a PacketBB packet.
    pub fn messages(&self) -> Result<&[Arc<Message>], &packetbb::Error> {
        self.0
            .decoded
            .get_or_init(|| decode_control(&self.0.bytes))
            .as_deref()
    }
}

impl PartialEq for ControlFrame {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for ControlFrame {}

impl fmt::Debug for ControlFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ControlFrame").field(&self.bytes()).finish()
    }
}

/// The decoded messages of a control frame an agent was handed: the view
/// every receiver of that transmission shares, or a decode of the agent's
/// own (see [`NodeOs::decode_control`](crate::NodeOs::decode_control)).
#[derive(Debug, Clone)]
pub struct ControlMessages(ControlView);

#[derive(Debug, Clone)]
enum ControlView {
    Shared(ControlFrame),
    Own(DecodedControl),
}

impl ControlMessages {
    /// Decodes `bytes` for this caller alone.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Self {
        ControlMessages(ControlView::Own(decode_control(bytes)))
    }

    pub(crate) fn shared(frame: ControlFrame) -> Self {
        ControlMessages(ControlView::Shared(frame))
    }

    /// The messages, in packet order.
    ///
    /// # Errors
    ///
    /// The decode error, when the frame was not a PacketBB packet.
    pub fn get(&self) -> Result<&[Arc<Message>], &packetbb::Error> {
        match &self.0 {
            ControlView::Shared(frame) => frame.messages(),
            ControlView::Own(decoded) => decoded.as_deref(),
        }
    }
}

/// What travels over a link in one transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A routing-protocol control frame (serialized PacketBB bytes), as
    /// delivered to the routing agent's "socket".
    Control(ControlFrame),
    /// A network-layer data packet being forwarded hop by hop.
    Data(DataPacket),
}

impl Frame {
    /// MAC-layer framing overhead added to every transmission.
    const MAC_HEADER: usize = 24;

    /// Approximate on-air size in bytes (payload plus a small MAC header).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        match self {
            Frame::Control(f) => f.wire_len(),
            Frame::Data(p) => Frame::data_wire_len(p),
        }
    }

    /// On-air size of a control frame carrying `payload_len` PacketBB
    /// bytes, without constructing the frame.
    #[must_use]
    pub fn control_wire_len(payload_len: usize) -> usize {
        Frame::MAC_HEADER + payload_len
    }

    /// On-air size of a data frame carrying `packet`, without constructing
    /// the frame.
    #[must_use]
    pub fn data_wire_len(packet: &DataPacket) -> usize {
        Frame::MAC_HEADER + packet.wire_len()
    }
}

/// A simulated network-layer datagram.
///
/// Payload bytes are carried end to end so tests can assert delivery
/// contents; `ttl` bounds forwarding; `id` is unique per world and lets
/// statistics trace individual packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPacket {
    /// Unique id assigned at send time.
    pub id: u64,
    /// Source address.
    pub src: Address,
    /// Destination address.
    pub dst: Address,
    /// Remaining hop budget.
    pub ttl: u8,
    /// Application payload.
    pub payload: Vec<u8>,
}

impl DataPacket {
    /// Approximate on-wire size (IP header + payload).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        const IP_HEADER: usize = 20;
        IP_HEADER + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(ttl: u8) -> DataPacket {
        DataPacket {
            id: 1,
            src: Address::v4([10, 0, 0, 1]),
            dst: Address::v4([10, 0, 0, 2]),
            ttl,
            payload: vec![0; 100],
        }
    }

    #[test]
    fn wire_lengths() {
        assert_eq!(pkt(3).wire_len(), 120);
        assert_eq!(Frame::Data(pkt(3)).wire_len(), 144);
        assert_eq!(
            Frame::Control(ControlFrame::new(vec![0; 10])).wire_len(),
            34
        );
    }

    #[test]
    fn control_frame_decodes_once_and_compares_by_bytes() {
        let msg = packetbb::MessageBuilder::new(7).seq_num(3).build();
        let bytes = Packet::single(msg.clone()).encode_to_vec();
        let frame = ControlFrame::new(bytes.clone());
        let held_elsewhere = frame.clone();
        let first = frame.messages().unwrap();
        assert_eq!(*first[0], msg);
        // The clone reads the very same decoded message.
        let second = held_elsewhere.messages().unwrap();
        assert!(Arc::ptr_eq(&first[0], &second[0]));
        // A frame built from equal bytes is equal, decoded or not.
        assert_eq!(frame, ControlFrame::new(bytes));
        assert_ne!(frame, ControlFrame::new(vec![0]));
    }

    #[test]
    fn control_frame_keeps_its_decode_error() {
        let frame = ControlFrame::new(vec![0xFF, 0x00, 0x13]);
        let expected = Packet::decode(frame.bytes()).unwrap_err();
        assert_eq!(frame.messages().unwrap_err(), &expected);
        assert_eq!(
            ControlMessages::decode(frame.bytes()).get().unwrap_err(),
            &expected
        );
    }

    #[test]
    fn node_id_conversions() {
        let n: NodeId = 4.into();
        assert_eq!(n.index(), 4);
        assert_eq!(n.to_string(), "n4");
    }
}
