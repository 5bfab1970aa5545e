//! `dymoum`: a deliberately *monolithic* DYMO implementation — the
//! DYMOUM v0.3 comparator of the paper's evaluation.
//!
//! One struct, hard-wired control flow. Same wire format and parameters as
//! the MANETKit composition for fair comparison.

use std::collections::BTreeMap;

use netsim::{FilterEvent, NodeOs, RoutingAgent, SimDuration, SimTime};
use packetbb::registry::{msg_type, tlv_type};
use packetbb::{Address, AddressBlock, AddressTlv, Message, MessageBuilder, Packet, Tlv};

const TIMER_SWEEP: u64 = 1;
const ROUTE_LIFETIME: SimDuration = SimDuration::from_micros(5_000_000);
const RREQ_WAIT: SimDuration = SimDuration::from_micros(1_000_000);
const RREQ_TRIES: u8 = 3;
const HOP_LIMIT: u8 = 10;

#[derive(Debug, Clone, Copy)]
struct Route {
    next_hop: Address,
    seq: u16,
    hop_count: u8,
    expiry: SimTime,
    broken: bool,
}

/// `(target, accumulated path, hop_limit)` of a parsed routing element.
type ParsedRe = (Address, Vec<(Address, u16)>, u8);

#[derive(Debug, Clone, Copy)]
struct Pending {
    attempts: u8,
    next_retry: SimTime,
}

/// The monolithic DYMO daemon.
#[derive(Debug, Default)]
pub struct Dymoum {
    routes: BTreeMap<Address, Route>,
    pending: BTreeMap<Address, Pending>,
    duplicates: BTreeMap<(Address, u16), SimTime>,
    own_seq: u16,
    pkt_seq: u16,
}

impl Dymoum {
    /// A fresh daemon.
    #[must_use]
    pub fn new() -> Self {
        Dymoum::default()
    }

    fn next_seq(&mut self) -> u16 {
        self.own_seq = self.own_seq.wrapping_add(1);
        self.own_seq
    }

    fn send(&mut self, os: &mut NodeOs, msg: Message, dst: Option<Address>) {
        self.pkt_seq = self.pkt_seq.wrapping_add(1);
        let pkt = Packet::builder()
            .seq_num(self.pkt_seq)
            .push_message(msg)
            .build();
        match dst {
            None => os.broadcast_control(pkt.encode_to_vec()),
            Some(a) => os.unicast_control(a, pkt.encode_to_vec()),
        }
    }

    fn build_re(kind: u8, target: Address, path: &[(Address, u16)], hop_limit: u8) -> Message {
        let (orig, orig_seq) = path[0];
        let mut b = MessageBuilder::new(kind)
            .originator(orig)
            .hop_limit(hop_limit)
            .hop_count((path.len() - 1) as u8)
            .seq_num(orig_seq)
            .push_address_block(AddressBlock::new(vec![target]).expect("one target"));
        let addrs: Vec<Address> = path.iter().map(|(a, _)| *a).collect();
        let mut block = AddressBlock::new(addrs).expect("non-empty");
        for (i, (_, s)) in path.iter().enumerate() {
            block.add_tlv(AddressTlv::single(
                Tlv::with_value(tlv_type::ADDR_SEQ_NUM, s.to_be_bytes()),
                i as u8,
            ));
        }
        b = b.push_address_block(block);
        b.build()
    }

    fn parse_re(msg: &Message) -> Option<ParsedRe> {
        let blocks = msg.address_blocks();
        if blocks.len() < 2 {
            return None;
        }
        let target = *blocks[0].addresses().first()?;
        let mut path = Vec::new();
        for (addr, tlvs) in blocks[1].iter_with_tlvs() {
            let seq = tlvs
                .iter()
                .find(|t| t.tlv().tlv_type() == tlv_type::ADDR_SEQ_NUM)
                .and_then(|t| t.tlv().value_u16())
                .unwrap_or(0);
            path.push((addr, seq));
        }
        if path.is_empty() {
            return None;
        }
        Some((target, path, msg.hop_limit().unwrap_or(1)))
    }

    fn offer_route(
        &mut self,
        os: &mut NodeOs,
        dst: Address,
        next_hop: Address,
        seq: u16,
        hop_count: u8,
    ) {
        let now = os.now();
        let expiry = now + ROUTE_LIFETIME;
        let accept = match self.routes.get(&dst) {
            None => true,
            Some(r) => {
                r.broken
                    || newer(seq, r.seq)
                    || (seq == r.seq && hop_count < r.hop_count)
                    || (seq == r.seq && next_hop == r.next_hop)
            }
        };
        if accept {
            self.routes.insert(
                dst,
                Route {
                    next_hop,
                    seq,
                    hop_count,
                    expiry,
                    broken: false,
                },
            );
            os.route_table_mut()
                .add_host_route(dst, next_hop, u32::from(hop_count));
        }
    }

    fn learn_path(&mut self, os: &mut NodeOs, path: &[(Address, u16)], from: Address) {
        let local = os.addr();
        let len = path.len();
        for (i, (addr, seq)) in path.iter().enumerate() {
            if *addr == local {
                continue;
            }
            self.offer_route(os, *addr, from, *seq, (len - i) as u8);
        }
    }

    fn start_discovery(&mut self, os: &mut NodeOs, dst: Address) {
        if self.pending.contains_key(&dst) {
            return;
        }
        let now = os.now();
        self.pending.insert(
            dst,
            Pending {
                attempts: 1,
                next_retry: now + RREQ_WAIT,
            },
        );
        os.bump("route_discovery");
        self.send_rreq(os, dst);
    }

    fn send_rreq(&mut self, os: &mut NodeOs, dst: Address) {
        let local = os.addr();
        let seq = self.next_seq();
        self.duplicates
            .insert((local, seq), os.now() + SimDuration::from_secs(10));
        os.bump("rreq_sent");
        let msg = Self::build_re(msg_type::RREQ, dst, &[(local, seq)], HOP_LIMIT);
        self.send(os, msg, None);
    }

    fn process_re(&mut self, os: &mut NodeOs, msg: &Message, from: Address) {
        let local = os.addr();
        let Some((target, path, hop_limit)) = Self::parse_re(msg) else {
            return;
        };
        let (orig, orig_seq) = path[0];
        if orig == local {
            return;
        }
        let now = os.now();
        self.learn_path(os, &path, from);
        match msg.msg_type() {
            msg_type::RREQ => {
                if self
                    .duplicates
                    .insert((orig, orig_seq), now + SimDuration::from_secs(10))
                    .is_some()
                {
                    return;
                }
                if target == local {
                    let seq = self.next_seq();
                    os.bump("rrep_sent");
                    let rrep = Self::build_re(msg_type::RREP, orig, &[(local, seq)], HOP_LIMIT);
                    let nh = self.routes.get(&orig).map_or(from, |r| r.next_hop);
                    self.send(os, rrep, Some(nh));
                } else if hop_limit > 1 && !path.iter().any(|(a, _)| *a == local) {
                    let mut extended = path.clone();
                    extended.push((local, self.own_seq));
                    os.bump("rreq_relayed");
                    let fwd = Self::build_re(msg_type::RREQ, target, &extended, hop_limit - 1);
                    self.send(os, fwd, None);
                }
            }
            msg_type::RREP => {
                if target == local {
                    self.pending.remove(&orig);
                    os.bump("rrep_received");
                    os.reinject(orig);
                } else if hop_limit > 1 && !path.iter().any(|(a, _)| *a == local) {
                    if let Some(route) = self.routes.get(&target).copied() {
                        if !route.broken {
                            let mut extended = path.clone();
                            extended.push((local, self.own_seq));
                            let fwd =
                                Self::build_re(msg_type::RREP, target, &extended, hop_limit - 1);
                            self.send(os, fwd, Some(route.next_hop));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn process_rerr(&mut self, os: &mut NodeOs, msg: &Message, from: Address) {
        let mut affected = Vec::new();
        for block in msg.address_blocks() {
            for (addr, tlvs) in block.iter_with_tlvs() {
                let seq = tlvs
                    .iter()
                    .find(|t| t.tlv().tlv_type() == tlv_type::ADDR_SEQ_NUM)
                    .and_then(|t| t.tlv().value_u16())
                    .unwrap_or(0);
                if let Some(r) = self.routes.get_mut(&addr) {
                    if r.next_hop == from && !r.broken {
                        r.broken = true;
                        affected.push((addr, seq));
                        os.route_table_mut().remove_host_route(addr);
                    }
                }
            }
        }
        if !affected.is_empty() {
            if let Some(hl) = msg.hop_limit() {
                if hl > 1 {
                    self.send_rerr(os, &affected, hl - 1);
                }
            }
        }
    }

    fn send_rerr(&mut self, os: &mut NodeOs, unreachable: &[(Address, u16)], hop_limit: u8) {
        if unreachable.is_empty() {
            return;
        }
        let local = os.addr();
        let seq = self.next_seq();
        let addrs: Vec<Address> = unreachable.iter().map(|(a, _)| *a).collect();
        let mut block = AddressBlock::new(addrs).expect("non-empty");
        for (i, (_, s)) in unreachable.iter().enumerate() {
            block.add_tlv(AddressTlv::single(
                Tlv::with_value(tlv_type::ADDR_SEQ_NUM, s.to_be_bytes()),
                i as u8,
            ));
        }
        let msg = MessageBuilder::new(msg_type::RERR)
            .originator(local)
            .hop_limit(hop_limit)
            .seq_num(seq)
            .push_address_block(block)
            .build();
        os.bump("rerr_sent");
        self.send(os, msg, None);
    }

    fn invalidate_via(&mut self, os: &mut NodeOs, via: Address) {
        let mut broken = Vec::new();
        for (dst, r) in self.routes.iter_mut() {
            if r.next_hop == via && !r.broken {
                r.broken = true;
                broken.push((*dst, r.seq));
            }
        }
        for (dst, _) in &broken {
            os.route_table_mut().remove_host_route(*dst);
        }
        self.send_rerr(os, &broken, 2);
    }

    fn sweep(&mut self, os: &mut NodeOs) {
        let now = os.now();
        let due: Vec<Address> = self
            .pending
            .iter()
            .filter(|(_, p)| p.next_retry <= now)
            .map(|(d, _)| *d)
            .collect();
        for dst in due {
            let p = self.pending.get(&dst).copied().expect("listed");
            if p.attempts >= RREQ_TRIES {
                self.pending.remove(&dst);
                os.bump("route_discovery_failed");
                os.drop_buffered(dst);
            } else {
                self.pending.insert(
                    dst,
                    Pending {
                        attempts: p.attempts + 1,
                        next_retry: now + RREQ_WAIT.mul_f64(f64::from(1 << p.attempts)),
                    },
                );
                os.bump("rreq_retry");
                self.send_rreq(os, dst);
            }
        }
        let mut lapsed = Vec::new();
        self.routes.retain(|dst, r| {
            let keep = r.expiry > now || (r.broken && r.expiry + ROUTE_LIFETIME > now);
            if !keep {
                lapsed.push(*dst);
            }
            keep
        });
        for dst in lapsed {
            os.route_table_mut().remove_host_route(dst);
        }
        self.duplicates.retain(|_, exp| *exp > now);
        os.set_timer(SimDuration::from_millis(250), TIMER_SWEEP);
    }
}

fn newer(a: u16, b: u16) -> bool {
    a != b && a.wrapping_sub(b) < 0x8000
}

impl RoutingAgent for Dymoum {
    fn name(&self) -> &str {
        "dymoum"
    }

    fn start(&mut self, os: &mut NodeOs) {
        os.set_timer(SimDuration::from_millis(250), TIMER_SWEEP);
    }

    fn on_frame(&mut self, os: &mut NodeOs, from: Address, bytes: &[u8]) {
        let frame = os.decode_control(bytes);
        let Ok(messages) = frame.get() else {
            return;
        };
        for msg in messages {
            match msg.msg_type() {
                msg_type::RREQ | msg_type::RREP => self.process_re(os, msg, from),
                msg_type::RERR => self.process_rerr(os, msg, from),
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, os: &mut NodeOs, token: u64) {
        if token == TIMER_SWEEP {
            self.sweep(os);
        }
    }

    fn on_filter_event(&mut self, os: &mut NodeOs, event: FilterEvent) {
        match event {
            FilterEvent::NoRoute { dst } => self.start_discovery(os, dst),
            FilterEvent::RouteUsed { dst, next_hop } => {
                let now = os.now();
                for a in [dst, next_hop] {
                    if let Some(r) = self.routes.get_mut(&a) {
                        if !r.broken {
                            r.expiry = now + ROUTE_LIFETIME;
                        }
                    }
                }
            }
            FilterEvent::ForwardFailure { dst, .. } => {
                let seq = self.routes.get(&dst).map_or(0, |r| r.seq);
                if let Some(r) = self.routes.get_mut(&dst) {
                    r.broken = true;
                }
                os.route_table_mut().remove_host_route(dst);
                self.send_rerr(os, &[(dst, seq)], 2);
            }
            FilterEvent::TxFailed { neighbour } => self.invalidate_via(os, neighbour),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{NodeId, Topology, World};

    #[test]
    fn line_discovery_and_delivery() {
        let mut world = World::builder()
            .topology(Topology::line(5))
            .seed(41)
            .build();
        for i in 0..5 {
            world.install_agent(NodeId(i), Box::new(Dymoum::new()));
        }
        world.run_for(SimDuration::from_secs(1));
        let far = world.addr(NodeId(4));
        world.send_datagram(NodeId(0), far, b"x".to_vec());
        world.run_for(SimDuration::from_secs(3));
        let s = world.stats();
        assert_eq!(s.data_delivered, 1, "{s:?}");
        assert_eq!(s.agent_counter("route_discovery"), 1);
    }

    #[test]
    fn unreachable_gives_up_with_retries() {
        let mut world = World::builder()
            .topology(Topology::line(2))
            .seed(42)
            .build();
        for i in 0..2 {
            world.install_agent(NodeId(i), Box::new(Dymoum::new()));
        }
        let ghost = Address::v4([10, 9, 9, 9]);
        world.send_datagram(NodeId(0), ghost, b"x".to_vec());
        world.run_for(SimDuration::from_secs(20));
        let s = world.stats();
        assert_eq!(s.agent_counter("route_discovery_failed"), 1);
        assert!(s.agent_counter("rreq_retry") >= 2);
    }

    #[test]
    fn broken_route_reported() {
        let mut world = World::builder()
            .topology(Topology::line(3))
            .seed(43)
            .build();
        for i in 0..3 {
            world.install_agent(NodeId(i), Box::new(Dymoum::new()));
        }
        world.run_for(SimDuration::from_secs(1));
        let far = world.addr(NodeId(2));
        world.send_datagram(NodeId(0), far, b"x".to_vec());
        world.run_for(SimDuration::from_secs(2));
        assert_eq!(world.stats().data_delivered, 1);
        world.set_link(NodeId(1), NodeId(2), netsim::LinkState::Down);
        world.send_datagram(NodeId(0), far, b"y".to_vec());
        world.run_for(SimDuration::from_secs(5));
        assert!(world.stats().agent_counter("rerr_sent") >= 1);
    }
}
