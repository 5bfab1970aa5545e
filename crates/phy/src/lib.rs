//! Deterministic physical-layer channel model for the MANETKit netsim.
//!
//! The simulator's original delivery path is *ideal*: every frame crosses a
//! link after a flat (possibly jittered) propagation delay, regardless of its
//! size or of how many neighbours are talking at once. That hides the dominant
//! MANET effect — shared-medium saturation — from the routing protocols under
//! test. This crate layers a channel model between the topology and frame
//! delivery:
//!
//! * **Serialization delay** — a frame of `n` bytes occupies its sender's
//!   radio for `8·n / bandwidth` seconds before it can propagate.
//! * **Bounded transmit queues** — each node owns a FIFO transmit queue with a
//!   configurable frame capacity; arrivals beyond the cap are tail-dropped.
//! * **Shared airtime** — concurrent transmitters in the same contention
//!   domain (a spatial neighbourhood) split the channel via max-min fair-share
//!   rates, recomputed event-drivenly on every transmit start and finish (the
//!   dslab-network shared-throughput model: a shared-rate resource driven by
//!   simkern timers, never polled).
//!
//! The crate is deliberately *mechanism only*: it owns no clock and schedules
//! nothing itself. [`Phy::enqueue`] and [`Phy::complete`] return completion
//! deadlines and reschedule directives that the caller (the netsim world)
//! turns into events on its own kernel. Every deadline carries its node and
//! a sequence number. A deadline moves only when its transmission's rate
//! does, and then the new one supersedes the old: the netsim world keeps one
//! event per transmitting node and cancels the superseded one, so it never
//! pops a stale deadline; a caller that does not cancel has the outdated
//! sequence number recognised by [`Phy::complete`] and ignored.
//!
//! The engine is a pure function of its call sequence. Its state is dense
//! (per-node records, per-domain member lists, reused scratch buffers), not
//! ordered maps; what is ordered is what determinism rests on: transmissions
//! are visited, frozen, summed and reported by ascending [`TxId`] (issued in
//! start order), and bottleneck candidates are compared by ascending domain
//! id, ties going to the lowest. A start, finish or abort recomputes rates
//! only in the contention components it touches — the result is bit for bit
//! the one a global recomputation gives — and re-derives the deadline of the
//! frame it started and of each transmission whose rate changed, after
//! settling that one's residual work at its old rate (see [`Resched`]).
//!
//! Composition with fault injection is defined as *drop at dequeue*: the
//! channel model decides only whether and when a frame reaches the air;
//! chance loss (Gilbert–Elliott link loss, frame chaos) is sampled by the
//! world when the transmission completes, never when the frame is queued.
//! Tail drops therefore consume no randomness and fault plans stay replayable
//! under contention.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;

pub use engine::{Completion, Enqueue, Phy, Resched, TxId};

/// Channel parameters shared by the non-ideal models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Channel {
    /// Raw channel capacity in bits per second.
    pub bits_per_sec: u64,
    /// Transmit-queue capacity in frames (excluding the frame on the air).
    pub queue_frames: usize,
}

impl Default for Channel {
    /// An 802.11b-flavoured default: 11 Mb/s with a 64-frame interface queue.
    fn default() -> Self {
        Channel {
            bits_per_sec: 11_000_000,
            queue_frames: 64,
        }
    }
}

/// Which channel model a world runs.
///
/// `Ideal` is the default and preserves the simulator's historical behaviour
/// bit for bit: no serialization delay, no queueing, no contention, and no
/// extra random draws. The other models route every transmission through a
/// [`Phy`] engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PhyModel {
    /// Flat per-link delay only — the historical delivery path.
    #[default]
    Ideal,
    /// Size-proportional serialization at full channel rate per transmitter,
    /// with bounded FIFO transmit queues. Transmitters never contend.
    ConstantBandwidth(Channel),
    /// Like `ConstantBandwidth`, but concurrent transmitters in the same
    /// contention domain share the channel via max-min fair-share rates.
    SharedAirtime(Channel),
}

impl PhyModel {
    /// True for the historical zero-overhead delivery path.
    #[must_use]
    pub fn is_ideal(&self) -> bool {
        matches!(self, PhyModel::Ideal)
    }

    /// The channel parameters, when a channel model is active.
    #[must_use]
    pub fn channel(&self) -> Option<Channel> {
        match self {
            PhyModel::Ideal => None,
            PhyModel::ConstantBandwidth(c) | PhyModel::SharedAirtime(c) => Some(*c),
        }
    }

    /// Short stable label used in campaign grids and reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PhyModel::Ideal => "ideal".to_owned(),
            PhyModel::ConstantBandwidth(c) => format!("cbr{}k", c.bits_per_sec / 1000),
            PhyModel::SharedAirtime(c) => format!("air{}k", c.bits_per_sec / 1000),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ideal() {
        assert!(PhyModel::default().is_ideal());
        assert_eq!(PhyModel::default().channel(), None);
        assert_eq!(Channel::default().bits_per_sec, 11_000_000);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PhyModel::Ideal.label(), "ideal");
        let c = Channel {
            bits_per_sec: 256_000,
            queue_frames: 8,
        };
        assert_eq!(PhyModel::ConstantBandwidth(c).label(), "cbr256k");
        assert_eq!(PhyModel::SharedAirtime(c).label(), "air256k");
    }
}
