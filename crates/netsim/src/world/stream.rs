//! Streams: inputs the world generates as time advances rather than
//! scheduling up front. A stream holds one pending event and the kernel
//! seqs reserved for the rest, so each of its events sorts against every
//! other event exactly where it would have had they all been scheduled at
//! install: the same run, holding one kernel entry instead of one per
//! event. The random-waypoint walk and every CBR flow are streams.

use simkern::SeqBlock;

use super::{EventKind, World};
use crate::mobility::Walk;
use crate::packet::NodeId;
use crate::time::SimTime;
use crate::traffic::CbrFlow;

/// A streamed input and the seqs reserved for its events not yet
/// scheduled.
#[derive(Debug, Clone)]
pub(super) struct Stream {
    source: Source,
    seqs: SeqBlock,
}

#[derive(Debug, Clone)]
enum Source {
    /// One event per step: the step's moves, in node order. Boxed, so a
    /// flow's firing moves a small source.
    Walk(Box<Walk>),
    /// One event per datagram: the `sent`-th goes out under packet id
    /// `first_id + sent`, the ids having been taken at install.
    Cbr {
        flow: CbrFlow,
        sent: u32,
        first_id: u64,
    },
    /// Nothing left to fire (or the source is out firing its event).
    Spent,
}

impl Source {
    /// When the next event falls; `None` once the source is spent.
    fn next_at(&self) -> Option<SimTime> {
        match self {
            Source::Walk(walk) => walk.next_at(),
            Source::Cbr { flow, sent, .. } => (*sent < flow.count).then(|| flow.send_at(*sent)),
            Source::Spent => None,
        }
    }
}

impl World {
    /// Streams a random-waypoint walk: one event per step applies that
    /// step's moves in node order (each with its `NodeMove` trace record)
    /// and schedules the next step. One seq per step is reserved now, so a
    /// step sorts against every other event exactly where its moves would
    /// had they all been scheduled now with
    /// [`MoveSchedule::schedule_into`](crate::mobility::MoveSchedule::schedule_into):
    /// the same run, holding one kernel entry instead of every move. The
    /// walk's starting positions must be the topology's.
    ///
    /// # Panics
    ///
    /// Panics while another walk is streaming.
    pub fn install_walk(&mut self, walk: Walk) {
        let walking = self
            .streams
            .iter()
            .any(|s| matches!(s.source, Source::Walk(_)));
        assert!(!walking, "the world already streams a walk");
        let steps = walk.steps_left();
        self.install_stream(Source::Walk(Box::new(walk)), steps);
    }

    /// Streams `flow` ([`install_cbr`](crate::traffic::install_cbr)): one
    /// seq and one packet id per datagram are taken now, so each datagram
    /// is the one `send_datagram_at` would have scheduled now.
    pub(crate) fn install_cbr(&mut self, flow: &CbrFlow) {
        let first_id = self.next_packet_id + 1;
        self.next_packet_id += u64::from(flow.count);
        let source = Source::Cbr {
            flow: flow.clone(),
            sent: 0,
            first_id,
        };
        self.install_stream(source, u64::from(flow.count));
    }

    /// Reserves `events` seqs and schedules the source's first event under
    /// the first of them.
    fn install_stream(&mut self, source: Source, events: u64) {
        let mut seqs = self.kern.reserve(events);
        let Some(at) = source.next_at() else {
            return;
        };
        let i = u32::try_from(self.streams.len()).expect("fewer than 2³² streams");
        self.kern
            .schedule_reserved(&mut seqs, at.max(self.now), EventKind::Stream(i));
        self.streams.push(Stream { source, seqs });
    }

    /// Fires stream `i`'s pending event: advances the source, schedules its
    /// next event under the next reserved seq, then acts — a walk step has
    /// moved its nodes, a CBR datagram enters the network as a scheduled
    /// one does (sent, then its first data-plane step).
    pub(super) fn fire_stream(&mut self, i: u32) {
        let mut source = std::mem::replace(&mut self.streams[i as usize].source, Source::Spent);
        let send = match &mut source {
            Source::Walk(walk) => {
                walk.step(|node, (x, y)| self.move_node(node, x, y));
                None
            }
            Source::Cbr {
                flow,
                sent,
                first_id,
            } => {
                let k = *sent;
                *sent += 1;
                let id = *first_id + u64::from(k);
                Some((
                    flow.src,
                    self.datagram(id, flow.src, flow.dst, flow.payload(k)),
                ))
            }
            Source::Spent => unreachable!("a spent stream has no pending event"),
        };
        if let Some(at) = source.next_at() {
            let stream = &mut self.streams[i as usize];
            self.kern
                .schedule_reserved(&mut stream.seqs, at, EventKind::Stream(i));
            stream.source = source;
        }
        if let Some((node, packet)) = send {
            self.account_send(node, &packet);
            self.dispatch(EventKind::DataPlane { node, packet });
        }
    }

    /// The streams' events reserved and not yet scheduled.
    pub(super) fn streamed_ahead(&self) -> usize {
        let ahead: u64 = self.streams.iter().map(|s| s.seqs.remaining()).sum();
        ahead as usize
    }

    /// The node a stream's event belongs to: a flow's source; node 0 for
    /// the walk, which moves them all.
    pub(super) fn stream_node(&self, i: u32) -> NodeId {
        match &self.streams[i as usize].source {
            Source::Cbr { flow, .. } => flow.src,
            Source::Walk(_) | Source::Spent => NodeId(0),
        }
    }
}
