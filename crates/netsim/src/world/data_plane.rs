//! The data plane: datagrams entering the network, one routing step per
//! node, and the accounting that settles every copy exactly once.

use std::collections::VecDeque;

use packetbb::Address;

use super::{EventKind, World};
use crate::agent::FilterEvent;
use crate::packet::{DataPacket, NodeId};
use crate::stats::WorldStats;
use crate::time::SimTime;

/// In-flight bookkeeping for one application datagram: when it left, how
/// many copies the network still carries, and whether any copy has been
/// delivered (frame duplication can clone packets mid-path). The record is
/// dead once its last copy is accounted for — delivered or dropped.
#[derive(Debug, Clone, Copy)]
pub(super) struct SentRecord {
    at: SimTime,
    pub(super) copies: u32,
    delivered: bool,
}

/// The send records of a world, indexed by packet id. Ids are handed out in
/// sequence, so the records sit in a window `base..base + slots.len()` over
/// the id space instead of a hash map. A slot is `None` until its id is
/// accounted as sent (scheduled datagrams are minted long before they
/// enter the network), live while `copies > 0`, and dead after; the window
/// slides past dead slots at its front, so a long campaign cannot accrete
/// them, and `live` is exactly the number of packets still in flight.
#[derive(Debug, Clone, Default)]
pub(super) struct SendWindow {
    base: u64,
    slots: VecDeque<Option<SentRecord>>,
    live: usize,
}

impl SendWindow {
    /// Opens the record of packet `id`, sent at `at` as one copy.
    fn open(&mut self, id: u64, at: SimTime) {
        if self.slots.is_empty() {
            self.base = id;
        }
        // A scheduled datagram can enter the network after ones minted
        // later, on either side of the window.
        while id < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let at_slot = (id - self.base) as usize;
        if at_slot >= self.slots.len() {
            self.slots.resize(at_slot + 1, None);
        }
        let record = SentRecord {
            at,
            copies: 1,
            delivered: false,
        };
        let was = self.slots[at_slot].replace(record);
        debug_assert!(was.is_none(), "packet {id} accounted as sent twice");
        self.live += 1;
    }

    /// The record of a packet still in flight.
    pub(super) fn live_mut(&mut self, id: u64) -> Option<&mut SentRecord> {
        let at_slot = usize::try_from(id.checked_sub(self.base)?).ok()?;
        let slot = self.slots.get_mut(at_slot)?.as_mut();
        slot.filter(|rec| rec.copies > 0)
    }

    /// Accounts for one terminal event — delivery or drop — of one copy of
    /// packet `id`; its record dies with the last copy.
    pub(super) fn settle(&mut self, id: u64) {
        let Some(rec) = self.live_mut(id) else {
            return;
        };
        rec.copies -= 1;
        if rec.copies > 0 {
            return;
        }
        self.live -= 1;
        while let Some(Some(SentRecord { copies: 0, .. })) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Forgets every record (copies still in flight settle as no-ops).
    pub(super) fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }
}

/// Why one copy of a datagram left the network undelivered: the counter it
/// lands in and the tag of its `DataDrop` trace record.
#[derive(Clone, Copy)]
pub(super) struct DataDrop(fn(&mut WorldStats) -> &mut u64, &'static str);

impl DataDrop {
    pub(super) const TTL: Self = DataDrop(|s| &mut s.data_dropped_ttl, "ttl");
    pub(super) const LINK: Self = DataDrop(|s| &mut s.data_dropped_link, "link");
    pub(super) const NO_ROUTE: Self = DataDrop(|s| &mut s.data_dropped_link, "no_route");
    pub(super) const BAD_NEXT_HOP: Self = DataDrop(|s| &mut s.data_dropped_link, "bad_next_hop");
    pub(super) const GEO_DEAD_END: Self = DataDrop(|s| &mut s.data_dropped_link, "geo_dead_end");
    pub(super) const MCHECK: Self = DataDrop(|s| &mut s.data_dropped_link, "mcheck_drop");
    pub(super) const CRASH: Self = DataDrop(|s| &mut s.data_dropped_crash, "crash");
    pub(super) const FILTER: Self = DataDrop(|s| &mut s.data_dropped_buffer, "filter");
    pub(super) const BUFFER: Self = DataDrop(|s| &mut s.data_dropped_buffer, "buffer");
    pub(super) const CORRUPT: Self = DataDrop(|s| &mut s.data_corrupted, "corrupt");
    pub(super) const DUPLICATE: Self = DataDrop(|s| &mut s.data_dup_delivered, "duplicate");
}

impl World {
    /// Sends an application datagram now; returns the packet id.
    pub fn send_datagram(&mut self, src: NodeId, dst: Address, payload: Vec<u8>) -> u64 {
        self.send_datagram_at(self.now, src, dst, payload)
    }

    /// Schedules an application datagram for a future time.
    pub fn send_datagram_at(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: Address,
        payload: Vec<u8>,
    ) -> u64 {
        let packet = self.mint_datagram(src, dst, payload);
        let id = packet.id;
        self.schedule(at, EventKind::DataInject { node: src, packet });
        id
    }

    /// Application datagrams sent but not yet settled (delivered or
    /// dropped on every path). Packets parked in netfilter buffers count;
    /// a quiescent world with empty buffers reports zero.
    #[must_use]
    pub fn outstanding_sends(&self) -> usize {
        self.sent_at.live
    }

    /// A fresh datagram from `src` under the next packet id.
    pub(super) fn mint_datagram(
        &mut self,
        src: NodeId,
        dst: Address,
        payload: Vec<u8>,
    ) -> DataPacket {
        self.next_packet_id += 1;
        self.datagram(self.next_packet_id, src, dst, payload)
    }

    /// The datagram `id` from `src`, at the default TTL.
    pub(super) fn datagram(
        &self,
        id: u64,
        src: NodeId,
        dst: Address,
        payload: Vec<u8>,
    ) -> DataPacket {
        DataPacket {
            id,
            src: self.nodes[src.0].os.addr(),
            dst,
            ttl: self.default_ttl,
            payload,
        }
    }

    /// Counts a datagram as sent and opens its send record. The caller
    /// decides *when*: an agent's `send_data` accounts as its action is
    /// flushed, a scheduled datagram when its inject event fires.
    pub(super) fn account_send(&mut self, _node: NodeId, packet: &DataPacket) {
        self.stats.data_sent += 1;
        self.sent_at.open(packet.id, self.now);
        tr!(
            self,
            _node,
            DataSend,
            "data",
            self.node_of(packet.dst).map_or(u64::MAX, |n| n.0 as u64),
            packet.payload.len()
        );
    }

    /// One copy of `packet` dies at `_node`: counted, traced (the node and
    /// the tag feed the flight recorder only), settled.
    pub(super) fn drop_data(&mut self, _node: NodeId, packet: &DataPacket, why: DataDrop) {
        let DataDrop(counter, _tag) = why;
        *counter(&mut self.stats) += 1;
        tr!(self, _node, DataDrop, _tag, packet.id, packet.ttl);
        self.sent_at.settle(packet.id);
    }

    /// One data-plane step at `node`: deliver locally, forward via the
    /// kernel route table, or trap to the netfilter hook.
    pub(super) fn data_plane(&mut self, node: NodeId, packet: DataPacket) {
        let local_addr = self.nodes[node.0].os.addr();
        if packet.dst == local_addr {
            // First delivery claims the send record's latency; with
            // duplication active, later copies are counted separately.
            let first = self
                .sent_at
                .live_mut(packet.id)
                .filter(|rec| !rec.delivered)
                .map(|rec| {
                    rec.delivered = true;
                    rec.at
                });
            if self.dedupe_delivery && first.is_none() {
                return self.drop_data(node, &packet, DataDrop::DUPLICATE);
            }
            self.stats.data_delivered += 1;
            if let Some(sent) = first {
                let latency = self.now.since(sent);
                self.stats.delivery_latency_total = self.stats.delivery_latency_total + latency;
                self.stats.delivery_latencies_us.push(latency.as_micros());
            }
            tr!(
                self,
                node,
                DataDeliver,
                "data",
                packet.id,
                first.map_or(0, |sent| self.now.since(sent).as_micros())
            );
            self.sent_at.settle(packet.id);
            return;
        }
        let route = self.nodes[node.0]
            .os
            .route_table()
            .lookup(packet.dst)
            .map(|entry| entry.next_hop);
        match route {
            Some(next_hop) => match self.node_of(next_hop) {
                Some(nb) => self.forward(node, packet, nb),
                None => self.drop_data(node, &packet, DataDrop::BAD_NEXT_HOP),
            },
            None if self.geo_routing => {
                // Agentless greedy geographic forwarding: relay via the
                // neighbour strictly closest to the destination, or drop at
                // a local minimum. An explicit route entry (above) always
                // wins, so agents can override geo decisions per prefix.
                let hop = self
                    .node_of(packet.dst)
                    .and_then(|dst_node| self.geo_next_hop(node, dst_node));
                match hop {
                    Some(nb) => self.forward(node, packet, nb),
                    None => self.drop_data(node, &packet, DataDrop::GEO_DEAD_END),
                }
            }
            None => {
                if packet.src == local_addr {
                    // Locally originated: buffer and raise NO_ROUTE.
                    let dst = packet.dst;
                    let os = &mut self.nodes[node.0].os;
                    let q = os.nf_buffer.entry(dst).or_default();
                    q.push_back(packet);
                    let overflow = if q.len() > os.nf_buffer_cap {
                        q.pop_front()
                    } else {
                        None
                    };
                    if let Some(old) = overflow {
                        self.drop_data(node, &old, DataDrop::BUFFER);
                    }
                    self.filter_event(node, FilterEvent::NoRoute { dst });
                } else {
                    // Transit packet with no route: drop and raise the
                    // route-error trigger.
                    self.drop_data(node, &packet, DataDrop::NO_ROUTE);
                    let (src, dst, next_hop) = (packet.src, packet.dst, packet.dst);
                    self.filter_event(node, FilterEvent::ForwardFailure { dst, src, next_hop });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_slides_past_settled_records() {
        // A long steady flow, at most three packets in flight: the window
        // never holds more than the live span.
        let mut w = SendWindow::default();
        for id in 1..=10_000u64 {
            w.open(id, SimTime::ZERO);
            if id > 3 {
                w.settle(id - 3);
            }
            assert!(w.slots.len() <= 4 && w.live <= 3, "id {id}");
        }
        assert_eq!((w.base, w.live), (9_998, 3));
    }

    #[test]
    fn window_grows_both_ways_and_counts_only_live_records() {
        let mut w = SendWindow::default();
        w.open(50, SimTime::ZERO);
        w.open(47, SimTime::ZERO); // minted earlier, sent later
        w.open(53, SimTime::ZERO);
        assert_eq!((w.base, w.slots.len(), w.live), (47, 7, 3));
        assert!(w.live_mut(48).is_none(), "never opened");
        assert!(w.live_mut(46).is_none() && w.live_mut(54).is_none());

        // A duplicated copy keeps the record alive through one settle.
        w.live_mut(50).expect("in flight").copies += 1;
        w.settle(50);
        assert_eq!(w.live, 3);
        w.settle(50);
        assert_eq!(w.live, 2);
        assert!(w.live_mut(50).is_none(), "dead, though still in the window");
        w.settle(50); // a stray settle of a dead record is a no-op
        assert_eq!(w.live, 2);

        // The front slides over dead slots only: 48 and 49 may yet be sent.
        w.settle(47);
        assert_eq!((w.base, w.live), (48, 1));
        w.open(48, SimTime::ZERO);
        w.open(49, SimTime::ZERO);
        w.settle(49);
        w.settle(48);
        assert_eq!((w.base, w.live), (51, 1), "slid past the dead 50 too");
        w.clear();
        assert_eq!((w.slots.len(), w.live), (0, 0));
        w.settle(53); // in flight at the clear
        w.open(2, SimTime::ZERO);
        assert_eq!((w.base, w.live), (2, 1));
    }
}
