//! Workload generators: scripted application traffic over a [`World`].

use packetbb::Address;

use crate::packet::NodeId;
use crate::time::{SimDuration, SimTime};
use crate::world::World;

/// A constant-bit-rate flow: `count` datagrams of `payload` bytes from
/// `src` to `dst`, one every `interval`, starting at `start`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CbrFlow {
    /// Originating node.
    pub src: NodeId,
    /// Destination address.
    pub dst: Address,
    /// Time of the first packet.
    pub start: SimTime,
    /// Inter-packet gap.
    pub interval: SimDuration,
    /// Number of packets.
    pub count: u32,
    /// Payload size in bytes.
    pub payload: usize,
}

impl CbrFlow {
    /// A typical small-packet CBR flow (64-byte payload, 4 pkt/s).
    #[must_use]
    pub fn small(src: NodeId, dst: Address, start: SimTime, count: u32) -> Self {
        CbrFlow {
            src,
            dst,
            start,
            interval: SimDuration::from_millis(250),
            count,
            payload: 64,
        }
    }

    /// When datagram `k` is sent.
    pub(crate) fn send_at(&self, k: u32) -> SimTime {
        self.start + SimDuration::from_micros(self.interval.as_micros() * u64::from(k))
    }

    /// Datagram `k`'s payload: zeros, its first four bytes (or all of a
    /// shorter payload) stamped with `k` big-endian so payloads differ.
    pub(crate) fn payload(&self, k: u32) -> Vec<u8> {
        let mut payload = vec![0u8; self.payload];
        let n = self.payload.min(4);
        payload[..n].copy_from_slice(&k.to_be_bytes()[..n]);
        payload
    }
}

/// Streams `flow` into the world: datagram `k` leaves `src` at
/// `start + k·interval` under packet id and kernel seq taken now, so the
/// run is the one scheduling every datagram now with
/// [`World::send_datagram_at`] gives, while the world holds one kernel
/// entry for the flow instead of `count`.
pub fn install_cbr(world: &mut World, flow: &CbrFlow) {
    world.install_cbr(flow);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn cbr_schedules_count_packets() {
        let mut w = World::builder().topology(Topology::full(2)).build();
        let dst = w.addr(NodeId(1));
        let src_route = dst;
        w.os_mut(NodeId(0))
            .route_table_mut()
            .add_host_route(dst, src_route, 1);
        install_cbr(&mut w, &CbrFlow::small(NodeId(0), dst, SimTime::ZERO, 10));
        w.run_for(SimDuration::from_secs(5));
        let s = w.stats();
        assert_eq!(s.data_sent, 10);
        assert_eq!(s.data_delivered, 10);
    }
}
