//! Gossip (probabilistic) flooding for DYMO — the epidemic alternative the
//! paper's related-work survey lists among switchable flooding styles
//! (Haas/Halpern/Li, INFOCOM 2002; Bani-Yassein & Ould-Khaoua).
//!
//! A fresh RREQ is re-broadcast with probability `p` instead of always
//! (blind) or by relay-set membership (MPR). The decision is a
//! deterministic hash of `(originator, seq, local address)`, so simulation
//! runs stay reproducible while different nodes decide independently.
//!
//! Like the other variants, gossip is enacted by replacing the RE handler
//! of the *running* DYMO CF.

use manetkit::event::{Event, EventType};
use manetkit::node::ReconfigOp;
use manetkit::protocol::{EventHandler, Plugin, ProtoCtx, StateSlot};
use packetbb::Address;

use crate::handlers::ReHandler;
use crate::messages::{ReKind, RouteElement};
use crate::state::DymoState;
use crate::DYMO_CF;

/// Plug-in name of the gossiping RE handler.
pub const GOSSIP_RE_HANDLER: &str = "gossip-re-handler";

/// Deterministic per-(flood, node) coin flip.
#[must_use]
pub fn gossip_decision(orig: Address, seq: u16, local: Address, p: f64) -> bool {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for b in orig.octets().iter().chain(local.octets()) {
        x ^= u64::from(*b);
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
    }
    x ^= u64::from(seq);
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 33;
    (x as f64 / u64::MAX as f64) < p
}

/// The gossiping RE handler: delegates to the standard logic with relaying
/// allowed or suppressed according to the coin flip.
#[derive(Clone)]
pub struct GossipReHandler {
    p: f64,
    relay: ReHandler<DymoState>,
    suppress: ReHandler<DymoState>,
}

impl GossipReHandler {
    /// A handler relaying fresh RREQs with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not within `[0, 1]`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        GossipReHandler {
            p,
            relay: ReHandler::default(),
            suppress: ReHandler::with_relay_gate(|_, _| false),
        }
    }
}

impl EventHandler for GossipReHandler {
    fn fork(&self) -> Option<Box<dyn EventHandler>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        GOSSIP_RE_HANDLER
    }
    fn subscriptions(&self) -> Vec<EventType> {
        vec![manetkit::event::types::re_in()]
    }
    fn handle(&mut self, event: &Event, state: &mut StateSlot, ctx: &mut ProtoCtx<'_>) {
        let relay = match event.message().and_then(|m| RouteElement::from_message(m)) {
            Some(re) if re.kind == ReKind::Rreq => {
                let orig = re.originator();
                gossip_decision(orig.addr, orig.seq, ctx.local_addr(), self.p)
            }
            // RREPs and malformed input take the standard path.
            _ => true,
        };
        if relay {
            self.relay.handle(event, state, ctx);
        } else {
            ctx.os().bump("gossip_suppressed");
            self.suppress.handle(event, state, ctx);
        }
    }
}

/// Reconfiguration enacting gossip flooding with probability `p`: the
/// standard RE handler gives way to the gossiping one.
#[must_use]
pub fn enable_ops(p: f64) -> Vec<ReconfigOp> {
    vec![ReconfigOp::Recompose {
        protocol: DYMO_CF.to_string(),
        plug: vec![Plugin::Handler(Box::new(GossipReHandler::new(p)))],
        unplug: vec!["re-handler".into()],
        state: None,
    }]
}

/// Reverts to blind flooding.
#[must_use]
pub fn disable_ops() -> Vec<ReconfigOp> {
    vec![crate::standard_recompose(&[GOSSIP_RE_HANDLER], None)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> Address {
        Address::v4([10, 0, 0, n])
    }

    #[test]
    fn decisions_are_deterministic_and_calibrated() {
        // Same inputs, same answer.
        assert_eq!(
            gossip_decision(addr(1), 7, addr(2), 0.6),
            gossip_decision(addr(1), 7, addr(2), 0.6)
        );
        // Empirical rate over many floods approaches p.
        for p in [0.0, 0.3, 0.7, 1.0] {
            let mut hits = 0u32;
            let total = 4_000u32;
            for seq in 0..total {
                if gossip_decision(addr(1), seq as u16, addr((seq % 200) as u8), p) {
                    hits += 1;
                }
            }
            let rate = f64::from(hits) / f64::from(total);
            assert!((rate - p).abs() < 0.05, "rate {rate:.3} too far from p {p}");
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_probability_rejected() {
        let _ = GossipReHandler::new(1.5);
    }
}
