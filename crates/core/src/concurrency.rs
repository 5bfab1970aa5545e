//! Pluggable concurrency models (§4.4).
//!
//! MANETKit keeps concurrency strictly orthogonal to protocol structure:
//! protocols are critical sections, and the *model* decides how events
//! originating from below are shepherded to them.
//!
//! Two artefacts live here:
//!
//! * [`ConcurrencyModel`] + [`DispatchQueue`] — the queue discipline used by
//!   a [`Deployment`](crate::node::Deployment) in the deterministic
//!   simulation: a single global FIFO (single-threaded and
//!   thread-per-message semantics) or per-protocol FIFO queues drained
//!   round-robin (thread-per-ManetProtocol semantics). Both preserve the
//!   paper's per-protocol FIFO ordering guarantee.
//! * [`ThroughputLab`] — a real-thread harness (`std::sync` channels, one
//!   OS thread per worker) that `examples/paper_tables.rs` runs as E9 to
//!   measure the throughput/latency trade-off among the three models
//!   outside the simulator.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::event::Event;
use crate::manager::UnitId;

/// How events from below are shepherded to protocol CFs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConcurrencyModel {
    /// One thread for the whole deployment; lowest overhead, lowest
    /// throughput, zero race conditions.
    #[default]
    SingleThreaded,
    /// A pool thread shepherds each event up the graph; highest throughput
    /// and overhead. FIFO order is still preserved per protocol.
    ThreadPerMessage {
        /// Number of shepherd threads in the pool.
        pool: usize,
    },
    /// Each protocol owns a dedicated thread and FIFO queue; intermediate
    /// overhead and throughput.
    ThreadPerProtocol,
}

/// Deterministic queue discipline for a deployment under a given model.
///
/// Events are queued as `Arc<Event>` so fanning one event out to N
/// subscribers shares a single allocation — [`DispatchQueue::push`] clones
/// the `Arc` (a reference-count bump), never the event.
#[derive(Debug)]
pub enum DispatchQueue {
    /// One global FIFO (single-threaded / thread-per-message semantics).
    Global(VecDeque<(UnitId, Arc<Event>)>),
    /// Per-unit FIFOs drained round-robin (thread-per-protocol semantics).
    PerUnit {
        /// One FIFO per unit id.
        queues: Vec<VecDeque<Arc<Event>>>,
        /// Round-robin cursor.
        cursor: usize,
    },
}

impl DispatchQueue {
    /// An empty queue for the given model.
    #[must_use]
    pub fn for_model(model: ConcurrencyModel) -> Self {
        match model {
            ConcurrencyModel::SingleThreaded | ConcurrencyModel::ThreadPerMessage { .. } => {
                DispatchQueue::Global(VecDeque::new())
            }
            ConcurrencyModel::ThreadPerProtocol => DispatchQueue::PerUnit {
                queues: Vec::new(),
                cursor: 0,
            },
        }
    }

    /// Enqueues an event for a unit (a reference-count bump per subscriber,
    /// not a deep clone).
    pub fn push(&mut self, unit: UnitId, event: Arc<Event>) {
        match self {
            DispatchQueue::Global(q) => q.push_back((unit, event)),
            DispatchQueue::PerUnit { queues, .. } => {
                if queues.len() <= unit {
                    queues.resize_with(unit + 1, VecDeque::new);
                }
                queues[unit].push_back(event);
            }
        }
    }

    /// Dequeues the next `(unit, event)` pair, or `None` when drained.
    pub fn pop(&mut self) -> Option<(UnitId, Arc<Event>)> {
        match self {
            DispatchQueue::Global(q) => q.pop_front(),
            DispatchQueue::PerUnit { queues, cursor } => {
                let n = queues.len();
                for step in 0..n {
                    let i = (*cursor + step) % n;
                    if let Some(ev) = queues[i].pop_front() {
                        *cursor = (i + 1) % n;
                        return Some((i, ev));
                    }
                }
                None
            }
        }
    }

    /// Returns a drained queue to its just-built state, keeping the global
    /// FIFO's buffer. The per-unit discipline forgets its queues and its
    /// cursor: which units a round has seen so far decides its round-robin
    /// order, so nothing of one round may leak into the next.
    pub fn reset(&mut self) {
        match self {
            DispatchQueue::Global(q) => q.clear(),
            DispatchQueue::PerUnit { queues, cursor } => {
                queues.clear();
                *cursor = 0;
            }
        }
    }

    /// Whether any event is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match self {
            DispatchQueue::Global(q) => q.is_empty(),
            DispatchQueue::PerUnit { queues, .. } => queues.iter().all(VecDeque::is_empty),
        }
    }

    /// Number of pending `(unit, event)` deliveries.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            DispatchQueue::Global(q) => q.len(),
            DispatchQueue::PerUnit { queues, .. } => queues.iter().map(VecDeque::len).sum(),
        }
    }
}

/// Result of one [`ThroughputLab`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct LabReport {
    /// Model measured.
    pub model: ConcurrencyModel,
    /// Wall time for the batch.
    pub elapsed: Duration,
    /// Messages per second.
    pub throughput: f64,
    /// Whether per-stage FIFO order was preserved (must always be true).
    pub order_preserved: bool,
    /// OS threads the run used (including the driver).
    pub threads_used: usize,
}

/// A real-thread harness comparing the three concurrency models on a
/// synthetic protocol pipeline.
///
/// Each of `stages` protocols applies `work_per_message` rounds of mixing
/// to a 64-bit token; messages must traverse every stage in FIFO order.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputLab {
    /// Number of protocol stages in the pipeline.
    pub stages: usize,
    /// Number of messages pushed through.
    pub messages: usize,
    /// Synthetic per-stage work (mixing rounds).
    pub work_per_message: u32,
}

impl Default for ThroughputLab {
    fn default() -> Self {
        ThroughputLab {
            stages: 3,
            messages: 10_000,
            work_per_message: 64,
        }
    }
}

fn mix(mut x: u64, rounds: u32) -> u64 {
    for _ in 0..rounds {
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
    }
    x
}

/// Locks `mutex`, recovering the data if a panicking holder poisoned it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Admits waiters strictly in ticket order (blocking, not spinning).
struct Turnstile {
    turn: Mutex<u64>,
    cv: Condvar,
}

impl Turnstile {
    fn new() -> Self {
        Turnstile {
            turn: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn enter(&self, ticket: u64) {
        let turn = lock(&self.turn);
        let _admitted = self
            .cv
            .wait_while(turn, |turn| *turn != ticket)
            .unwrap_or_else(PoisonError::into_inner);
    }

    fn leave(&self) {
        *lock(&self.turn) += 1;
        self.cv.notify_all();
    }
}

/// One synthetic protocol: a critical section over an order log.
struct Stage {
    seen: Mutex<Vec<u64>>,
}

impl Stage {
    fn new() -> Self {
        Stage {
            seen: Mutex::new(Vec::new()),
        }
    }

    fn process(&self, seq: u64, work: u32) -> u64 {
        // The lock models the paper's "protocol is a critical section".
        let mut seen = lock(&self.seen);
        seen.push(seq);
        // black_box keeps the synthetic work from being optimised away.
        std::hint::black_box(mix(std::hint::black_box(seq), work))
    }

    fn in_order(&self) -> bool {
        let seen = lock(&self.seen);
        seen.windows(2).all(|w| w[0] < w[1])
    }
}

impl ThroughputLab {
    /// Runs the lab under one model.
    #[must_use]
    pub fn run(&self, model: ConcurrencyModel) -> LabReport {
        match model {
            ConcurrencyModel::SingleThreaded => self.run_single(),
            ConcurrencyModel::ThreadPerMessage { pool } => self.run_pool(pool.max(1)),
            ConcurrencyModel::ThreadPerProtocol => self.run_per_protocol(),
        }
    }

    fn stages_vec(&self) -> Vec<Stage> {
        (0..self.stages).map(|_| Stage::new()).collect()
    }

    fn report(
        &self,
        model: ConcurrencyModel,
        start: Instant,
        stages: &[Stage],
        threads_used: usize,
    ) -> LabReport {
        let elapsed = start.elapsed();
        LabReport {
            model,
            elapsed,
            throughput: self.messages as f64 / elapsed.as_secs_f64().max(1e-9),
            order_preserved: stages.iter().all(|s| s.in_order()),
            threads_used,
        }
    }

    fn run_single(&self) -> LabReport {
        let stages = self.stages_vec();
        let start = Instant::now();
        for seq in 0..self.messages as u64 {
            for s in &stages {
                s.process(seq, self.work_per_message);
            }
        }
        self.report(ConcurrencyModel::SingleThreaded, start, &stages, 1)
    }

    fn run_pool(&self, pool: usize) -> LabReport {
        let stages = self.stages_vec();
        // FIFO order under a pool requires per-stage sequencing: workers
        // claim messages in order and a turnstile per stage admits them in
        // that order — exactly like shepherd threads queueing on the
        // protocol's critical section in arrival order.
        let next = AtomicU64::new(0);
        let turnstiles: Vec<Turnstile> = (0..self.stages).map(|_| Turnstile::new()).collect();
        let (messages, work) = (self.messages as u64, self.work_per_message);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..pool {
                scope.spawn(|| loop {
                    let seq = next.fetch_add(1, Ordering::Relaxed);
                    if seq >= messages {
                        return;
                    }
                    for (s, turnstile) in stages.iter().zip(&turnstiles) {
                        turnstile.enter(seq);
                        s.process(seq, work);
                        turnstile.leave();
                    }
                });
            }
        });
        self.report(
            ConcurrencyModel::ThreadPerMessage { pool },
            start,
            &stages,
            pool + 1,
        )
    }

    fn run_per_protocol(&self) -> LabReport {
        let stages = self.stages_vec();
        // Chain of channels: driver -> stage0 -> stage1 -> ... Each stage
        // thread owns its FIFO queue, the thread-per-ManetProtocol model.
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for _ in 0..self.stages {
            let (tx, rx) = mpsc::channel::<u64>();
            txs.push(tx);
            rxs.push(rx);
        }
        let start = Instant::now();
        let work = self.work_per_message;
        std::thread::scope(|scope| {
            for (i, (rx, stage)) in rxs.into_iter().zip(&stages).enumerate() {
                let next_tx = txs.get(i + 1).cloned();
                scope.spawn(move || {
                    while let Ok(seq) = rx.recv() {
                        stage.process(seq, work);
                        if let Some(tx) = &next_tx {
                            let _ = tx.send(seq);
                        }
                    }
                });
            }
            let first = txs[0].clone();
            drop(txs);
            for seq in 0..self.messages as u64 {
                first.send(seq).expect("stage thread alive");
            }
            drop(first);
        });
        self.report(
            ConcurrencyModel::ThreadPerProtocol,
            start,
            &stages,
            self.stages + 1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::types;

    #[test]
    fn global_queue_is_fifo() {
        let mut q = DispatchQueue::for_model(ConcurrencyModel::SingleThreaded);
        q.push(1, Arc::new(Event::signal(types::tc_in())));
        q.push(2, Arc::new(Event::signal(types::hello_in())));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().0, 1);
        assert_eq!(q.pop().unwrap().0, 2);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn per_unit_queue_round_robins_but_keeps_per_unit_order() {
        let mut q = DispatchQueue::for_model(ConcurrencyModel::ThreadPerProtocol);
        q.push(0, Arc::new(Event::signal(types::tc_in())));
        q.push(0, Arc::new(Event::signal(types::tc_out())));
        q.push(1, Arc::new(Event::signal(types::hello_in())));
        assert_eq!(q.len(), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order.len(), 3);
        // Per-unit order preserved.
        let unit0: Vec<_> = order.iter().filter(|(u, _)| *u == 0).collect();
        assert_eq!(unit0[0].1.ty, types::tc_in());
        assert_eq!(unit0[1].1.ty, types::tc_out());
    }

    #[test]
    fn fan_out_shares_one_allocation() {
        let mut q = DispatchQueue::for_model(ConcurrencyModel::SingleThreaded);
        let ev = Arc::new(Event::signal(types::nhood_change()));
        for unit in 0..8 {
            q.push(unit, Arc::clone(&ev));
        }
        // One allocation, nine handles (ours + eight queued).
        assert_eq!(Arc::strong_count(&ev), 9);
        while let Some((_, popped)) = q.pop() {
            assert!(Arc::ptr_eq(&popped, &ev));
        }
    }

    #[test]
    fn lab_all_models_preserve_fifo_order() {
        let lab = ThroughputLab {
            stages: 3,
            messages: 2_000,
            work_per_message: 8,
        };
        for model in [
            ConcurrencyModel::SingleThreaded,
            ConcurrencyModel::ThreadPerMessage { pool: 4 },
            ConcurrencyModel::ThreadPerProtocol,
        ] {
            let report = lab.run(model);
            assert!(report.order_preserved, "{model:?} violated FIFO order");
            assert!(report.throughput > 0.0);
        }
    }

    #[test]
    fn lab_thread_counts_match_model() {
        let lab = ThroughputLab {
            stages: 2,
            messages: 100,
            work_per_message: 1,
        };
        assert_eq!(lab.run(ConcurrencyModel::SingleThreaded).threads_used, 1);
        assert_eq!(
            lab.run(ConcurrencyModel::ThreadPerMessage { pool: 3 })
                .threads_used,
            4
        );
        assert_eq!(lab.run(ConcurrencyModel::ThreadPerProtocol).threads_used, 3);
    }
}
