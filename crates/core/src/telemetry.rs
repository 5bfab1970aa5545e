//! Dispatch telemetry for the unified event bus.
//!
//! A [`Deployment`](crate::node::Deployment) keeps one [`BusTelemetry`]
//! updated as events flow: per-unit in/out counters, the dispatch-queue
//! high-water mark and the number of dispatch rounds. All of it is
//! deterministic and is flushed into the node's
//! [`NodeOs`](netsim::NodeOs) counters so it surfaces in
//! [`WorldStats::agent_counters`](netsim::WorldStats) under `bus.*` names.

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::manager::UnitId;

/// Interns an arbitrary name, returning a `&'static str`.
///
/// Each distinct name is leaked at most once process-wide, so repeated
/// deployments (one per simulated node) can stamp per-unit counter names
/// and meta-model interface ids without growing memory per deployment.
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

/// Per-unit event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitCounters {
    /// Events delivered *to* the unit.
    pub events_in: u64,
    /// Events emitted *by* the unit (before fan-out).
    pub events_out: u64,
}

/// Aggregate dispatch telemetry of one deployment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BusTelemetry {
    units: Vec<UnitCounters>,
    /// Highest number of events ever pending in a dispatch queue.
    pub queue_depth_hwm: usize,
    /// Dispatch rounds completed.
    pub dispatch_rounds: u64,
}

impl BusTelemetry {
    /// Fresh, all-zero telemetry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn unit_mut(&mut self, unit: UnitId) -> &mut UnitCounters {
        if self.units.len() <= unit {
            self.units.resize(unit + 1, UnitCounters::default());
        }
        &mut self.units[unit]
    }

    /// Records one event delivered to `unit`.
    pub fn record_in(&mut self, unit: UnitId) {
        self.unit_mut(unit).events_in += 1;
    }

    /// Records one event emitted by `unit`.
    pub fn record_out(&mut self, unit: UnitId) {
        self.unit_mut(unit).events_out += 1;
    }

    /// Raises the queue-depth high-water mark to `depth` if higher.
    pub fn observe_queue_depth(&mut self, depth: usize) {
        if depth > self.queue_depth_hwm {
            self.queue_depth_hwm = depth;
        }
    }

    /// Accounts one completed dispatch round.
    pub fn record_round(&mut self) {
        self.dispatch_rounds += 1;
    }

    /// Overwrites `self` with `other`, reusing the per-unit buffer.
    pub(crate) fn copy_from(&mut self, other: &BusTelemetry) {
        self.units.clone_from(&other.units);
        self.queue_depth_hwm = other.queue_depth_hwm;
        self.dispatch_rounds = other.dispatch_rounds;
    }

    /// Counters of `unit` (zero when the unit never moved an event).
    #[must_use]
    pub fn unit(&self, unit: UnitId) -> UnitCounters {
        self.units.get(unit).copied().unwrap_or_default()
    }

    /// Per-unit counters indexed by [`UnitId`].
    #[must_use]
    pub fn units(&self) -> &[UnitCounters] {
        &self.units
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
    fn counters_accumulate() {
        let mut t = BusTelemetry::new();
        t.record_in(2);
        t.record_in(2);
        t.record_out(0);
        assert_eq!(t.unit(2).events_in, 2);
        assert_eq!(t.unit(0).events_out, 1);
        assert_eq!(t.unit(7), UnitCounters::default());
        assert_eq!(t.units().len(), 3);
    }

    #[test]
    fn hwm_and_rounds() {
        let mut t = BusTelemetry::new();
        t.observe_queue_depth(3);
        t.observe_queue_depth(1);
        assert_eq!(t.queue_depth_hwm, 3);
        t.record_round();
        t.record_round();
        assert_eq!(t.dispatch_rounds, 2);
    }

    #[test]
    fn copy_from_is_a_clone_into_place() {
        let mut t = BusTelemetry::new();
        t.record_in(3);
        t.record_out(1);
        t.observe_queue_depth(5);
        t.record_round();
        let mut copy = BusTelemetry::new();
        copy.record_in(9);
        copy.copy_from(&t);
        assert_eq!(copy, t);
    }
}
