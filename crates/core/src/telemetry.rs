//! Dispatch telemetry for the unified event bus.
//!
//! A [`Deployment`](crate::node::Deployment) counts, as events flow,
//! per-unit in/out events, the dispatch-queue high-water mark and the
//! number of dispatch rounds. Each unit keeps its own counter ids beside
//! it in the deployment. The counts live in the node's [`NodeOs`]
//! counters, bumped in place through ids looked up once, so they surface
//! in [`WorldStats::agent_counters`](netsim::WorldStats) under `bus.*`
//! names and nothing on the reception path hashes a name. All of it is
//! deterministic.

use std::cell::RefCell;
use std::sync::OnceLock;

use netsim::{CounterId, Interner, NameTable, NodeOs};

thread_local! {
    static LOCAL_NAMES: RefCell<NameTable> = RefCell::default();
}
static NAMES: Interner = Interner::new(&LOCAL_NAMES);

/// Interns an arbitrary name, returning a `&'static str`.
///
/// Each distinct name is leaked at most once process-wide, so repeated
/// deployments (one per simulated node) can stamp per-unit counter names
/// and protocol names without growing memory per deployment. A name the
/// calling thread has interned before is found in its own copy, without a
/// lock.
#[must_use]
pub fn intern_name(name: &str) -> &'static str {
    NAMES.name(NAMES.id(name))
}

/// What one deployment keeps to bump its round and high-water-mark counts
/// in place: the deepest dispatch queue it has seen.
#[derive(Debug, Clone, Default)]
pub(crate) struct BusCounters {
    /// How far this deployment has raised `bus.queue_depth_hwm`. A new
    /// deployment over the same OS (a cold boot) starts again from 0, so
    /// its mark lands on top of its predecessor's.
    deepest: usize,
}

/// The ids of one unit's `bus.<name>.events_{in,out}` counters, looked up
/// on the unit's first event. Both counters appear in the OS as soon as
/// either moves.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct UnitCounters(Option<(CounterId, CounterId)>);

impl UnitCounters {
    #[inline]
    fn ids(&mut self, name: &str, os: &mut NodeOs) -> (CounterId, CounterId) {
        match self.0 {
            Some(ids) => ids,
            None => self.first_event(name, os),
        }
    }

    #[cold]
    fn first_event(&mut self, name: &str, os: &mut NodeOs) -> (CounterId, CounterId) {
        let ids = (
            CounterId::intern(&format!("bus.{name}.events_in")),
            CounterId::intern(&format!("bus.{name}.events_out")),
        );
        os.bump_id(ids.0, 0);
        os.bump_id(ids.1, 0);
        self.0 = Some(ids);
        ids
    }

    /// Counts one event delivered to the unit named `name`.
    pub(crate) fn record_in(&mut self, name: &str, os: &mut NodeOs) {
        let (events_in, _) = self.ids(name, os);
        os.bump_id(events_in, 1);
    }

    /// Counts one event the unit named `name` emitted.
    pub(crate) fn record_out(&mut self, name: &str, os: &mut NodeOs) {
        let (_, events_out) = self.ids(name, os);
        os.bump_id(events_out, 1);
    }
}

/// The id of `bus.dispatch_rounds`, looked up once per process.
fn rounds() -> CounterId {
    static ID: OnceLock<CounterId> = OnceLock::new();
    *ID.get_or_init(|| CounterId::named("bus.dispatch_rounds"))
}

/// The id of `bus.queue_depth_hwm`, looked up once per process.
fn hwm() -> CounterId {
    static ID: OnceLock<CounterId> = OnceLock::new();
    *ID.get_or_init(|| CounterId::named("bus.queue_depth_hwm"))
}

impl BusCounters {
    /// Raises the queue-depth high-water mark to `depth` if higher.
    pub(crate) fn observe_queue_depth(&mut self, depth: usize, os: &mut NodeOs) {
        if depth > self.deepest {
            os.bump_id(hwm(), (depth - self.deepest) as u64);
            self.deepest = depth;
        }
    }

    /// Counts one completed dispatch round.
    pub(crate) fn record_round(os: &mut NodeOs) {
        os.bump_id(rounds(), 1);
    }

    /// Makes the round and high-water-mark counters appear, even at 0.
    pub(crate) fn show(os: &mut NodeOs) {
        os.bump_id(rounds(), 0);
        os.bump_id(hwm(), 0);
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
}
