//! The caller's half of the engine's contract in its plainest form: every
//! [`Resched`] becomes an event at its deadline, events fire in time order
//! with ties broken by scheduling order, and nothing is ever cancelled — a
//! superseded deadline fires too and the engine calls it stale. (The netsim
//! world cancels a node's superseded event instead; the `seq` check makes
//! the two equivalent.)

use std::collections::BTreeMap;

use phy::{Resched, TxId};
use simkern::SimTime;

#[derive(Default)]
pub struct Deadlines {
    /// (deadline µs, scheduling order) → (tx, seq).
    events: BTreeMap<(u64, u64), (TxId, u64)>,
    scheduled: u64,
}

impl Deadlines {
    pub fn schedule(&mut self, batch: &[Resched]) {
        for r in batch {
            self.events
                .insert((r.at.as_micros(), self.scheduled), (r.tx, r.seq));
            self.scheduled += 1;
        }
    }

    /// Removes and returns the next event due at or before `horizon_us`.
    pub fn pop_due(&mut self, horizon_us: u64) -> Option<(SimTime, TxId, u64)> {
        let first = self.events.first_entry()?;
        let (at, _) = *first.key();
        if at > horizon_us {
            return None;
        }
        let (tx, seq) = first.remove();
        Some((SimTime::from_micros(at), tx, seq))
    }
}
