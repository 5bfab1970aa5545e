//! Dispatch telemetry for the unified event bus.
//!
//! A [`Deployment`](crate::node::Deployment) tallies, as events flow,
//! per-unit in/out counts, the dispatch-queue high-water mark and the
//! number of dispatch rounds. The counts live in the node's [`NodeOs`]
//! counters: after every callback the tally is added there and zeroed, so
//! they surface in [`WorldStats::agent_counters`](netsim::WorldStats) under
//! `bus.*` names. All of it is deterministic.

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::{Mutex, OnceLock, PoisonError};

use netsim::NodeOs;

use crate::manager::{FrameworkManager, UnitId};

/// Interns an arbitrary name, returning a `&'static str`.
///
/// Each distinct name is leaked at most once process-wide, so repeated
/// deployments (one per simulated node) can stamp per-unit counter names
/// and protocol names without growing memory per deployment.
/// Needed because [`netsim::NodeOs`] counters key on `&'static str`. A
/// name the calling thread has interned before is found in its own copy,
/// without a lock.
#[must_use]
pub fn intern_name(name: &str) -> &'static str {
    thread_local! {
        static LOCAL: RefCell<HashSet<&'static str>> = RefCell::default();
    }
    static NAMES: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    if let Ok(Some(hit)) = LOCAL.try_with(|local| local.borrow().get(name).copied()) {
        return hit;
    }
    let mut set = NAMES
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let interned = match set.get(name) {
        Some(&existing) => existing,
        None => {
            let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
            set.insert(leaked);
            leaked
        }
    };
    drop(set);
    // A thread being torn down simply skips its copy.
    let _ = LOCAL.try_with(|local| local.borrow_mut().insert(interned));
    interned
}

/// The bus counts of one deployment since its last flush: per-unit event
/// counts and dispatch rounds, which a flush adds to the node's OS counters
/// and zeroes, and the queue-depth high-water mark, which a flush raises
/// the OS counter to.
#[derive(Debug, Default)]
pub(crate) struct BusTally {
    units: Vec<UnitTally>,
    rounds: u64,
    hwm: usize,
    flushed_hwm: usize,
}

#[derive(Debug, Default, Clone, Copy)]
struct UnitTally {
    events_in: u64,
    events_out: u64,
    /// Interned `bus.<unit>.events_{in,out}` names, filled on first flush.
    names: Option<(&'static str, &'static str)>,
}

impl BusTally {
    fn unit_mut(&mut self, unit: UnitId) -> &mut UnitTally {
        if self.units.len() <= unit {
            self.units.resize(unit + 1, UnitTally::default());
        }
        &mut self.units[unit]
    }

    /// Records one event delivered to `unit`.
    pub(crate) fn record_in(&mut self, unit: UnitId) {
        self.unit_mut(unit).events_in += 1;
    }

    /// Records one event emitted by `unit`.
    pub(crate) fn record_out(&mut self, unit: UnitId) {
        self.unit_mut(unit).events_out += 1;
    }

    /// Raises the queue-depth high-water mark to `depth` if higher.
    pub(crate) fn observe_queue_depth(&mut self, depth: usize) {
        self.hwm = self.hwm.max(depth);
    }

    /// Accounts one completed dispatch round.
    pub(crate) fn record_round(&mut self) {
        self.rounds += 1;
    }

    /// Adds the tally to `os`'s `bus.*` counters and zeroes it. The round
    /// and high-water-mark counters appear after any flush; a unit appears,
    /// under the name `manager` registered it with (removed or not), once
    /// it has moved an event in either direction.
    pub(crate) fn flush(&mut self, manager: &FrameworkManager, os: &mut NodeOs) {
        os.bump_by("bus.dispatch_rounds", std::mem::take(&mut self.rounds));
        os.bump_by("bus.queue_depth_hwm", (self.hwm - self.flushed_hwm) as u64);
        self.flushed_hwm = self.hwm;
        for (unit, tally) in self.units.iter_mut().enumerate() {
            let events_in = std::mem::take(&mut tally.events_in);
            let events_out = std::mem::take(&mut tally.events_out);
            if events_in == 0 && events_out == 0 {
                continue;
            }
            let (in_name, out_name) = match tally.names {
                Some(names) => names,
                None => {
                    let Some(name) = manager.unit_name(unit) else {
                        continue;
                    };
                    let names = (
                        intern_name(&format!("bus.{name}.events_in")),
                        intern_name(&format!("bus.{name}.events_out")),
                    );
                    tally.names = Some(names);
                    names
                }
            };
            os.bump_by(in_name, events_in);
            os.bump_by(out_name, events_out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let a = intern_name("bus.test.events_in");
        let b = intern_name("bus.test.events_in");
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "bus.test.events_in");
    }

    #[test]
    fn threads_share_one_interned_copy() {
        let names: Vec<String> = (0..32).map(|i| format!("bus.threaded.{i}")).collect();
        let start = std::sync::Barrier::new(4);
        let seen: Vec<Vec<&'static str>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let (names, start) = (&names, &start);
                    s.spawn(move || {
                        start.wait();
                        let mut got: Vec<&'static str> = Vec::new();
                        for round in 0..2 {
                            for i in 0..names.len() {
                                let i = (i + t * 8) % names.len();
                                let interned = intern_name(&names[i]);
                                assert_eq!(interned, names[i]);
                                if round == 0 {
                                    got.push(interned);
                                } else {
                                    assert!(got.iter().any(|g| std::ptr::eq(*g, interned)));
                                }
                            }
                        }
                        got.sort_unstable();
                        got
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker"))
                .collect()
        });
        for got in &seen[1..] {
            for (a, b) in got.iter().zip(&seen[0]) {
                assert!(std::ptr::eq(*a, *b), "one leaked copy per name");
            }
        }
    }

    #[test]
    fn a_flush_adds_the_tally_once() {
        let mut manager = FrameworkManager::new();
        let system = manager.register("system", crate::registry::EventTuple::new());
        let probe = manager.register("probe", crate::registry::EventTuple::new());
        let mut os = NodeOs::standalone(netsim::NodeId(0), packetbb::Address::v4([10, 0, 0, 1]));
        let mut tally = BusTally::default();
        tally.record_in(probe);
        tally.record_in(probe);
        tally.record_out(system);
        tally.observe_queue_depth(3);
        tally.observe_queue_depth(1);
        tally.record_round();
        tally.flush(&manager, &mut os);
        let counters = |os: &NodeOs| {
            let mut c: Vec<(&str, u64)> = os.counters().iter().map(|(k, v)| (*k, *v)).collect();
            c.sort_unstable();
            c
        };
        let first = vec![
            ("bus.dispatch_rounds", 1),
            ("bus.probe.events_in", 2),
            ("bus.probe.events_out", 0),
            ("bus.queue_depth_hwm", 3),
            ("bus.system.events_in", 0),
            ("bus.system.events_out", 1),
        ];
        assert_eq!(counters(&os), first);
        // Nothing moved: a second flush adds nothing.
        tally.flush(&manager, &mut os);
        assert_eq!(counters(&os), first);
        // The high-water mark only ever rises to the deepest queue seen.
        tally.observe_queue_depth(5);
        tally.record_round();
        tally.flush(&manager, &mut os);
        assert_eq!(os.counter("bus.queue_depth_hwm"), 5);
        assert_eq!(os.counter("bus.dispatch_rounds"), 2);
    }
}
