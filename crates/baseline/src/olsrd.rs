//! `olsrd`: a deliberately *monolithic* OLSR implementation — the
//! Unik-olsrd comparator of the paper's evaluation.
//!
//! One struct, hard-wired control flow, no components, no events, no
//! reconfigurability. Functionally equivalent to the MANETKit composition
//! (same wire format, same intervals, MPR flooding, Dijkstra routes) so the
//! performance and footprint comparisons of Tables 1–2 are fair.

use std::collections::{BTreeMap, BTreeSet};

use netsim::{NodeOs, RoutingAgent, SimDuration, SimTime};
use packetbb::registry::{link_status, msg_type, tlv_type, willingness};
use packetbb::{Address, AddressBlock, AddressTlv, Message, MessageBuilder, Packet, Tlv};

const TIMER_HELLO: u64 = 1;
const TIMER_TC: u64 = 2;
const TIMER_SWEEP: u64 = 3;

/// Configuration of the monolithic OLSR daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OlsrdConfig {
    /// HELLO interval (default 2 s, as on the paper's testbed).
    pub hello_interval: SimDuration,
    /// TC interval (default 5 s).
    pub tc_interval: SimDuration,
    /// Link validity (default 6 s).
    pub link_validity: SimDuration,
    /// Topology validity (default 15 s).
    pub topology_validity: SimDuration,
}

impl Default for OlsrdConfig {
    fn default() -> Self {
        OlsrdConfig {
            hello_interval: SimDuration::from_secs(2),
            tc_interval: SimDuration::from_secs(5),
            link_validity: SimDuration::from_secs(6),
            topology_validity: SimDuration::from_secs(15),
        }
    }
}

#[derive(Debug, Clone)]
struct Link {
    last_heard: SimTime,
    symmetric: bool,
    two_hop: BTreeSet<Address>,
}

/// The monolithic OLSR daemon.
#[derive(Debug)]
pub struct Olsrd {
    config: OlsrdConfig,
    links: BTreeMap<Address, Link>,
    mprs: BTreeSet<Address>,
    selectors: BTreeMap<Address, SimTime>,
    duplicates: BTreeMap<(Address, u16), SimTime>,
    topology: BTreeMap<(Address, Address), (u16, SimTime)>,
    latest_ansn: BTreeMap<Address, u16>,
    ansn: u16,
    installed: BTreeSet<Address>,
    pkt_seq: u16,
}

impl Olsrd {
    /// A fresh daemon.
    #[must_use]
    pub fn new(config: OlsrdConfig) -> Self {
        Olsrd {
            config,
            links: BTreeMap::new(),
            mprs: BTreeSet::new(),
            selectors: BTreeMap::new(),
            duplicates: BTreeMap::new(),
            topology: BTreeMap::new(),
            latest_ansn: BTreeMap::new(),
            ansn: 0,
            installed: BTreeSet::new(),
            pkt_seq: 0,
        }
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

    fn send_hello(&mut self, os: &mut NodeOs) {
        let local = os.addr();
        let seq = os.next_seq();
        let mut b = MessageBuilder::new(msg_type::HELLO)
            .originator(local)
            .hop_limit(1)
            .seq_num(seq)
            .push_tlv(Tlv::with_value(
                tlv_type::WILLINGNESS,
                [willingness::DEFAULT],
            ));
        if !self.links.is_empty() {
            let addrs: Vec<Address> = self.links.keys().copied().collect();
            let mut block = AddressBlock::new(addrs).expect("single family");
            for (i, (addr, link)) in self.links.iter().enumerate() {
                let status = if link.symmetric {
                    link_status::SYMMETRIC
                } else {
                    link_status::ASYMMETRIC
                };
                block.add_tlv(AddressTlv::single(
                    Tlv::with_value(tlv_type::LINK_STATUS, [status]),
                    i as u8,
                ));
                if self.mprs.contains(addr) {
                    block.add_tlv(AddressTlv::single(Tlv::flag(tlv_type::MPR), i as u8));
                }
            }
            b = b.push_address_block(block);
        }
        os.bump("hello_sent");
        let msg = b.build();
        self.send(os, msg, None);
    }

    fn send_tc(&mut self, os: &mut NodeOs) {
        if self.selectors.is_empty() {
            return;
        }
        let local = os.addr();
        let seq = os.next_seq();
        let advertised: Vec<Address> = self.selectors.keys().copied().collect();
        let msg = MessageBuilder::new(msg_type::TC)
            .originator(local)
            .hop_limit(255)
            .hop_count(0)
            .seq_num(seq)
            .push_tlv(Tlv::with_value(
                tlv_type::CONT_SEQ_NUM,
                self.ansn.to_be_bytes(),
            ))
            .push_address_block(AddressBlock::new(advertised).expect("non-empty"))
            .build();
        os.bump("tc_sent");
        self.duplicates
            .insert((local, seq), os.now() + SimDuration::from_secs(30));
        self.send(os, msg, None);
    }

    fn process_hello(&mut self, os: &mut NodeOs, msg: &Message) {
        let local = os.addr();
        let Some(sender) = msg.originator() else {
            return;
        };
        if sender == local {
            return;
        }
        let now = os.now();
        let mut hears_us = false;
        let mut selects_us = false;
        let mut two_hop = BTreeSet::new();
        for block in msg.address_blocks() {
            for (addr, tlvs) in block.iter_with_tlvs() {
                let sym = tlvs.iter().any(|t| {
                    t.tlv().tlv_type() == tlv_type::LINK_STATUS
                        && t.tlv().value_u8() == Some(link_status::SYMMETRIC)
                });
                if addr == local {
                    hears_us = true;
                    if tlvs.iter().any(|t| t.tlv().tlv_type() == tlv_type::MPR) {
                        selects_us = true;
                    }
                } else if sym {
                    two_hop.insert(addr);
                }
            }
        }
        let entry = self.links.entry(sender).or_insert(Link {
            last_heard: now,
            symmetric: false,
            two_hop: BTreeSet::new(),
        });
        entry.last_heard = now;
        entry.symmetric = hears_us;
        entry.two_hop = two_hop;
        if selects_us {
            self.selectors
                .insert(sender, now + self.config.link_validity);
        } else if self.selectors.remove(&sender).is_some() && !self.selectors.is_empty() {
            self.ansn = self.ansn.wrapping_add(1);
        }
        let old_mprs = self.mprs.clone();
        self.recompute_mprs(local);
        if self.mprs != old_mprs || selects_us {
            self.ansn = self.ansn.wrapping_add(1);
            // Triggered TC for faster convergence, as in olsrd.
            self.send_tc(os);
        }
        self.recompute_routes(os);
    }

    fn process_tc(&mut self, os: &mut NodeOs, msg: &Message, from: Address) {
        let local = os.addr();
        let Some(originator) = msg.originator() else {
            return;
        };
        if originator == local {
            return;
        }
        let now = os.now();
        let seq = msg.seq_num().unwrap_or(0);
        let Some(ansn) = msg
            .find_tlv(tlv_type::CONT_SEQ_NUM)
            .and_then(Tlv::value_u16)
        else {
            return;
        };
        let duplicate = self
            .duplicates
            .insert((originator, seq), now + SimDuration::from_secs(30))
            .is_some();
        if !duplicate {
            // MPR forwarding: relay if the sender selected us.
            if self.selectors.contains_key(&from) {
                if let Some(fwd) = msg.forwarded() {
                    os.bump("tc_relayed");
                    self.send(os, fwd, None);
                }
            }
            let stale = self
                .latest_ansn
                .get(&originator)
                .is_some_and(|latest| newer(*latest, ansn));
            if !stale {
                self.latest_ansn.insert(originator, ansn);
                self.topology
                    .retain(|(_, lh), (a, _)| *lh != originator || !newer(ansn, *a));
                for block in msg.address_blocks() {
                    for addr in block.addresses() {
                        self.topology.insert(
                            (*addr, originator),
                            (ansn, now + self.config.topology_validity),
                        );
                    }
                }
                os.bump("tc_processed");
                self.recompute_routes(os);
            }
        }
    }

    fn recompute_mprs(&mut self, local: Address) {
        let sym: BTreeSet<Address> = self
            .links
            .iter()
            .filter(|(_, l)| l.symmetric)
            .map(|(a, _)| *a)
            .collect();
        let mut coverage: BTreeMap<Address, BTreeSet<Address>> = BTreeMap::new();
        for (nb, link) in &self.links {
            if !link.symmetric {
                continue;
            }
            for th in &link.two_hop {
                if *th != local && !sym.contains(th) {
                    coverage.entry(*th).or_default().insert(*nb);
                }
            }
        }
        let mut mprs = BTreeSet::new();
        for covers in coverage.values() {
            if covers.len() == 1 {
                mprs.insert(*covers.iter().next().expect("len 1"));
            }
        }
        let mut uncovered: BTreeSet<Address> = coverage
            .iter()
            .filter(|(_, c)| c.is_disjoint(&mprs))
            .map(|(th, _)| *th)
            .collect();
        while !uncovered.is_empty() {
            let best = sym
                .iter()
                .filter(|a| !mprs.contains(*a))
                .map(|a| {
                    let covers = coverage
                        .iter()
                        .filter(|(th, c)| uncovered.contains(*th) && c.contains(a))
                        .count();
                    (covers, *a)
                })
                .filter(|(c, _)| *c > 0)
                .max_by(|(c1, a1), (c2, a2)| c1.cmp(c2).then_with(|| a2.cmp(a1)));
            let Some((_, chosen)) = best else { break };
            mprs.insert(chosen);
            uncovered.retain(|th| !coverage.get(th).is_some_and(|c| c.contains(&chosen)));
        }
        self.mprs = mprs;
    }

    fn recompute_routes(&mut self, os: &mut NodeOs) {
        let local = os.addr();
        // BFS over direct links, 2-hop info and TC edges (hop metric).
        let mut edges: BTreeMap<Address, BTreeSet<Address>> = BTreeMap::new();
        for (nb, link) in &self.links {
            if link.symmetric {
                edges.entry(local).or_default().insert(*nb);
                for th in &link.two_hop {
                    edges.entry(*nb).or_default().insert(*th);
                }
            }
        }
        for (dst, lh) in self.topology.keys() {
            edges.entry(*lh).or_default().insert(*dst);
        }
        let mut best: BTreeMap<Address, (Address, u32)> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        let mut seen = BTreeSet::new();
        seen.insert(local);
        queue.push_back((local, None::<Address>, 0u32));
        while let Some((node, first, hops)) = queue.pop_front() {
            if let Some(nexts) = edges.get(&node) {
                for next in nexts {
                    if !seen.insert(*next) {
                        continue;
                    }
                    let fh = first.unwrap_or(*next);
                    best.insert(*next, (fh, hops + 1));
                    queue.push_back((*next, Some(fh), hops + 1));
                }
            }
        }
        let stale: Vec<Address> = self
            .installed
            .iter()
            .filter(|d| !best.contains_key(d))
            .copied()
            .collect();
        for d in stale {
            os.route_table_mut().remove_host_route(d);
            self.installed.remove(&d);
        }
        for (dst, (nh, hops)) in &best {
            os.route_table_mut().add_host_route(*dst, *nh, *hops);
            self.installed.insert(*dst);
        }
    }

    fn sweep(&mut self, os: &mut NodeOs) {
        let now = os.now();
        let validity = self.config.link_validity;
        let mut lost = false;
        self.links.retain(|_, l| {
            let alive = now.since(l.last_heard) <= validity;
            lost |= !alive && l.symmetric;
            alive
        });
        self.selectors.retain(|_, exp| *exp > now);
        self.duplicates.retain(|_, exp| *exp > now);
        let topo_before = self.topology.len();
        self.topology.retain(|_, (_, exp)| *exp > now);
        if lost || self.topology.len() != topo_before {
            let local = os.addr();
            self.recompute_mprs(local);
            self.recompute_routes(os);
        }
    }
}

fn newer(a: u16, b: u16) -> bool {
    a != b && a.wrapping_sub(b) < 0x8000
}

impl RoutingAgent for Olsrd {
    fn name(&self) -> &str {
        "olsrd"
    }

    fn start(&mut self, os: &mut NodeOs) {
        os.set_timer(self.config.hello_interval, TIMER_HELLO);
        os.set_timer(self.config.tc_interval, TIMER_TC);
        os.set_timer(SimDuration::from_secs(1), TIMER_SWEEP);
    }

    fn on_frame(&mut self, os: &mut NodeOs, from: Address, bytes: &[u8]) {
        let frame = os.decode_control(bytes);
        let Ok(messages) = frame.get() else {
            return;
        };
        for msg in messages {
            match msg.msg_type() {
                msg_type::HELLO => self.process_hello(os, msg),
                msg_type::TC => self.process_tc(os, msg, from),
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, os: &mut NodeOs, token: u64) {
        match token {
            TIMER_HELLO => {
                self.send_hello(os);
                os.set_timer(self.config.hello_interval, TIMER_HELLO);
            }
            TIMER_TC => {
                self.send_tc(os);
                os.set_timer(self.config.tc_interval, TIMER_TC);
            }
            TIMER_SWEEP => {
                self.sweep(os);
                os.set_timer(SimDuration::from_secs(1), TIMER_SWEEP);
            }
            _ => {}
        }
    }

    fn on_filter_event(&mut self, _os: &mut NodeOs, _event: netsim::FilterEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{NodeId, Topology, World};

    #[test]
    fn line_converges_to_full_routes() {
        let mut world = World::builder()
            .topology(Topology::line(5))
            .seed(31)
            .build();
        for i in 0..5 {
            world.install_agent(NodeId(i), Box::new(Olsrd::new(OlsrdConfig::default())));
        }
        world.run_for(SimDuration::from_secs(40));
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    let dst = world.addr(NodeId(b));
                    assert!(
                        world.os(NodeId(a)).route_table().lookup(dst).is_some(),
                        "route {a} -> {b} missing"
                    );
                }
            }
        }
        // End-to-end data.
        let far = world.addr(NodeId(4));
        world.send_datagram(NodeId(0), far, b"x".to_vec());
        world.run_for(SimDuration::from_secs(1));
        assert_eq!(world.stats().data_delivered, 1);
    }

    #[test]
    fn link_break_repairs_via_ring() {
        let mut topo = Topology::line(4);
        topo.set_link(NodeId(3), NodeId(0), netsim::LinkState::Up);
        let mut world = World::builder().topology(topo).seed(32).build();
        for i in 0..4 {
            world.install_agent(NodeId(i), Box::new(Olsrd::new(OlsrdConfig::default())));
        }
        world.run_for(SimDuration::from_secs(40));
        world.set_link(NodeId(0), NodeId(1), netsim::LinkState::Down);
        world.run_for(SimDuration::from_secs(40));
        let a1 = world.addr(NodeId(1));
        let entry = world
            .os(NodeId(0))
            .route_table()
            .lookup(a1)
            .expect("repaired");
        assert_eq!(entry.next_hop, world.addr(NodeId(3)));
    }
}
