//! The traced pass's instruments: an in-memory span recorder for the calls
//! the harness makes into each layer, and [`SpanAgent`], a `RoutingAgent`
//! wrapper that times and counts every crossing from `netsim` into the
//! framework. Spans are kept in memory and written out as JSONL when the
//! run ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use netsim::{ContextSample, DataPacket, FilterEvent, NodeOs, RoutingAgent};
use packetbb::Address;

use crate::alloc;

/// One recorded interval. An *aggregate* span stands for `count` short
/// intervals inside its parent whose durations add up to `end - start`;
/// it starts where its parent starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 1 for a plain span, the number of intervals for an aggregate.
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while a traced pass runs; inert (and allocation-free)
/// when built with [`Tracer::off`], which is what every measured pass uses.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span, from [`Tracer::enter`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer. Room for the spans of a pass is reserved up
    /// front so that recording does not allocate inside measured regions.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            spans: Vec::with_capacity(1 << 14),
            open: Vec::with_capacity(16),
            ..Tracer::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            count: 1,
        });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn exit(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records `count` intervals totalling `busy_ns` inside the innermost
    /// open span.
    pub fn aggregate(&mut self, name: &'static str, count: u64, busy_ns: u64) {
        if !self.on || count == 0 {
            return;
        }
        let parent = self.open.last().copied();
        let start_ns = parent.map_or_else(|| self.now_ns(), |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns + busy_ns,
            count,
        });
    }

    /// Moves what `meter` has accumulated since the last call into
    /// aggregate child spans of the innermost open span. Call it just
    /// before closing the span around a call that runs agents.
    pub fn drain(&mut self, meter: &AgentMeter) {
        for (crossing, name) in CROSSING_SPANS.iter().enumerate() {
            let count = meter.calls[crossing].swap(0, Ordering::Relaxed);
            let busy = meter.nanos[crossing].swap(0, Ordering::Relaxed);
            self.aggregate(name, count, busy);
        }
    }

    /// Total seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self.named(name).map(|(_, s)| s.duration_ns()).sum();
        ns as f64 / 1e9
    }

    /// Number of intervals recorded under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.named(name).map(|(_, s)| s.count).sum()
    }

    /// Total self time of the spans named `name`: each one's duration
    /// minus the part its child spans cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let ns: u64 = self.named(name).map(|(id, _)| self.self_ns(id)).sum();
        ns as f64 / 1e9
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// One JSON object per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.name, s.start_ns, s.end_ns, s.count
            );
        }
        out
    }
}

/// The three crossings from the simulator into a routing agent, as indices
/// into [`AgentMeter`]'s tables.
const ON_FRAME: usize = 0;
const ON_TIMER: usize = 1;
const ON_FILTER: usize = 2;

/// Span names of the aggregate spans [`Tracer::drain`] records.
pub const CROSSING_SPANS: [&str; 3] = [
    "core.agent.on_frame",
    "core.agent.on_timer",
    "core.agent.on_filter",
];

/// Control frames kept for the codec micro-drive.
const FRAME_SAMPLE: usize = 4096;

/// What every [`SpanAgent`] of a world accumulates into. The counters are
/// plain statistics read after the run, so relaxed ordering is enough.
#[derive(Default)]
pub struct AgentMeter {
    calls: [AtomicU64; 3],
    nanos: [AtomicU64; 3],
    /// The first [`FRAME_SAMPLE`] control frames any agent received.
    frames: Mutex<Vec<Vec<u8>>>,
    frames_seen: AtomicU64,
}

impl AgentMeter {
    fn record(&self, crossing: usize, started: Instant) {
        self.calls[crossing].fetch_add(1, Ordering::Relaxed);
        self.nanos[crossing].fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Keeps a copy of an early frame. The copy is the harness's work, not
    /// the program's, so the allocation counter is paused around it.
    fn sample(&self, bytes: &[u8]) {
        if self.frames_seen.fetch_add(1, Ordering::Relaxed) < FRAME_SAMPLE as u64 {
            let counting = alloc::set_counting(false);
            self.frames
                .lock()
                .expect("no agent panics while sampling a frame")
                .push(bytes.to_vec());
            alloc::set_counting(counting);
        }
    }

    /// The sampled control frames, leaving the meter's sample empty.
    pub fn take_frames(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut *self.frames.lock().expect("no agent panics while sampling"))
    }
}

/// Wraps a routing agent: every callback goes straight to the wrapped
/// agent, and the three hot crossings are counted and timed on the way.
pub struct SpanAgent<A> {
    inner: A,
    meter: Arc<AgentMeter>,
}

impl<A: RoutingAgent> SpanAgent<A> {
    pub fn new(inner: A, meter: Arc<AgentMeter>) -> Self {
        SpanAgent { inner, meter }
    }
}

impl<A: RoutingAgent> RoutingAgent for SpanAgent<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn start(&mut self, os: &mut NodeOs) {
        self.inner.start(os);
    }

    fn on_frame(&mut self, os: &mut NodeOs, from: Address, bytes: &[u8]) {
        self.meter.sample(bytes);
        let started = Instant::now();
        self.inner.on_frame(os, from, bytes);
        self.meter.record(ON_FRAME, started);
    }

    fn on_timer(&mut self, os: &mut NodeOs, token: u64) {
        let started = Instant::now();
        self.inner.on_timer(os, token);
        self.meter.record(ON_TIMER, started);
    }

    fn on_filter_event(&mut self, os: &mut NodeOs, event: FilterEvent) {
        let started = Instant::now();
        self.inner.on_filter_event(os, event);
        self.meter.record(ON_FILTER, started);
    }

    fn on_context(&mut self, os: &mut NodeOs, sample: ContextSample) {
        self.inner.on_context(os, sample);
    }

    fn inspect_packet(&mut self, os: &mut NodeOs, packet: &DataPacket) -> bool {
        self.inner.inspect_packet(os, packet)
    }

    fn stop(&mut self, os: &mut NodeOs) {
        self.inner.stop(os);
    }

    fn on_crash(&mut self, os: &mut NodeOs) {
        self.inner.on_crash(os);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer whose spans are placed by hand, so durations are exact.
    fn placed(spans: &[(&'static str, Option<usize>, u64, u64, u64)]) -> Tracer {
        let mut t = Tracer::on();
        for &(name, parent, start_ns, end_ns, count) in spans {
            t.spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns,
                count,
            });
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = placed(&[
            ("run", None, 0, 1_000, 1),
            ("agent", Some(0), 0, 300, 7), // aggregate: 7 calls, 300 ns busy
            ("stats", Some(0), 400, 500, 1),
            ("inner", Some(2), 410, 450, 1), // grandchild: not the run's child
            ("run", None, 2_000, 2_500, 1),  // a second run with no children
        ]);
        assert_eq!(t.total_s("run"), 1_500e-9);
        assert_eq!(t.self_s("run"), (1_000 - 300 - 100 + 500) as f64 / 1e9);
        assert_eq!(t.self_s("stats"), 60e-9);
        assert_eq!(t.count("agent"), 7);
        assert_eq!(t.count("run"), 2);
        assert_eq!(t.total_s("absent"), 0.0);
    }

    #[test]
    fn children_longer_than_the_parent_clamp_self_time_at_zero() {
        let t = placed(&[("run", None, 0, 100, 1), ("agent", Some(0), 0, 150, 3)]);
        assert_eq!(t.self_s("run"), 0.0);
    }

    #[test]
    fn enter_and_exit_nest_and_aggregates_hang_off_the_open_span() {
        let mut t = Tracer::on();
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.aggregate("calls", 5, 40);
        t.aggregate("none", 0, 0); // nothing happened: nothing recorded
        t.exit(inner);
        t.exit(outer);
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [("outer", None), ("inner", Some(0)), ("calls", Some(1))]
        );
        assert_eq!(t.spans[2].duration_ns(), 40);
        assert_eq!(t.spans[2].start_ns, t.spans[1].start_ns);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            crate::json::Json::parse(line).expect("every span line is JSON");
        }
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        let span = t.enter("x");
        t.aggregate("y", 3, 30);
        t.exit(span);
        assert!(t.spans.is_empty() && !t.is_on());
    }

    #[test]
    fn drain_moves_the_meter_into_aggregate_spans() {
        let meter = AgentMeter::default();
        meter.calls[ON_FRAME].store(4, Ordering::Relaxed);
        meter.nanos[ON_FRAME].store(900, Ordering::Relaxed);
        meter.calls[ON_FILTER].store(1, Ordering::Relaxed);
        meter.nanos[ON_FILTER].store(50, Ordering::Relaxed);
        let mut t = Tracer::on();
        let run = t.enter("run");
        t.drain(&meter);
        t.exit(run);
        assert_eq!(t.count("core.agent.on_frame"), 4);
        assert_eq!(t.total_s("core.agent.on_frame"), 900e-9);
        assert_eq!(t.count("core.agent.on_timer"), 0);
        assert_eq!(t.count("core.agent.on_filter"), 1);
        t.drain(&meter); // already drained: nothing more to move
        assert_eq!(t.count("core.agent.on_frame"), 4);
    }
}
