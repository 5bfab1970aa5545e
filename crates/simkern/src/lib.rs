//! # simkern — a reusable discrete-event simulation kernel
//!
//! The kernel is the protocol-agnostic bottom layer of the simulator stack:
//!
//! ```text
//! campaign   — scenario × protocol × fault × seed grids, parallel engine
//!    │
//! netsim     — nodes, links, frames, faults: the network-shaped World
//!    │
//! simkern    — virtual clock + (time, seq)-ordered event queue   ← this crate
//! ```
//!
//! It knows nothing about packets or topologies. It provides exactly three
//! things:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual clock in whole microseconds.
//! * [`EventQueue`] — a hierarchical timing-wheel scheduler with an
//!   arena-backed event store. Events pop in `(time, seq)` order, where
//!   `seq` counts insertions; this total order is the determinism contract
//!   every layer above relies on. Scheduling returns an [`EventHandle`]
//!   (payload index plus generation) that cancels the event in O(1); a
//!   cancelled event is never popped, counted or reported, and the events
//!   that survive keep their order. [`EventQueue::reserve`] takes a
//!   [`SeqBlock`] of seqs now for events scheduled later: a reserved seq
//!   sorts where it was reserved, so a source can stream its events one
//!   at a time in the order it would have scheduled them all at once.
//! * [`HeapQueue`] — the textbook `BinaryHeap` scheduler with the same API
//!   (cancellation by lazy deletion), kept only as the property-test
//!   oracle.
//!
//! Any client that schedules identical events in an identical order gets an
//! identical pop sequence — regardless of which queue implementation runs
//! underneath, how far apart the deadlines are, or how often the clock is
//! advanced. The property tests in `tests/` pin the two implementations to
//! each other over arbitrary interleavings.

mod heap;
mod queue;
mod time;

pub use heap::HeapQueue;
pub use queue::{EventHandle, EventQueue, SeqBlock};
pub use time::{SimDuration, SimTime};
