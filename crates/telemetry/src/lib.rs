//! Epoch-resolution telemetry for the MemPod suite.
//!
//! The paper's claims are temporal — per-epoch hot-set churn (§3),
//! migration traffic over time, epoch-boundary remap activity — so the
//! simulator needs more than end-of-run aggregates. This crate provides
//! the observability primitives the rest of the workspace wires in:
//!
//! * [`Log2Histogram`]s, the cheap queue-depth distributions behind the
//!   per-epoch percentiles;
//! * [`EpochSnapshot`]s — derived per-epoch metrics pushed into a bounded
//!   [`SnapshotRing`] and streamed to the sink;
//! * structured [`Event`]s (migration start/complete, remap swaps,
//!   meta-cache miss bursts, refresh stalls, queue-depth high-water marks,
//!   runner job progress) serialized as JSONL through a pluggable
//!   [`EventSink`] ([`NullSink`] / [`FileSink`] / [`MemorySink`] /
//!   [`TeeSink`], plus the Perfetto-loadable [`ChromeTraceSink`]);
//! * deterministic causal [`span`]s ([`SpanRecord`]) over request service,
//!   migration lifecycles and shard batches, sampled by a pure hash of
//!   their stable identities ([`SpanConfig`]).
//!
//! The design is *pull-based*: producers keep cheap cumulative counters and
//! the epoch driver in `mempod-sim` diffs them at epoch boundaries, so the
//! per-access hot path pays nothing beyond the counters it already
//! maintained. With the default [`NullSink`], events are not even
//! serialized ([`EventSink::wants_lines`]), which is what keeps the
//! measured overhead on `bench_sched --smoke` under 2 %.
//!
//! # Examples
//!
//! ```
//! use mempod_telemetry::{EventKind, MemorySink, Telemetry};
//!
//! let sink = MemorySink::new();
//! let lines = sink.handle();
//! let mut tel = Telemetry::with_sink(Box::new(sink));
//! tel.event(1_000, EventKind::MetaMissBurst { len: 12 });
//! tel.flush();
//! assert_eq!(lines.lock().unwrap().len(), 1);
//! ```

// Telemetry rules (DESIGN.md §8): no prints and no interior mutability
// outside tests; the `disallowed_*` lists live in the root clippy.toml.
#![cfg_attr(
    not(test),
    warn(
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::disallowed_types,
        clippy::disallowed_macros
    )
)]

mod chrome;
mod event;
mod metrics;
mod phase;
mod ring;
mod sink;
pub mod span;

pub use chrome::ChromeTraceSink;
pub use event::{Event, EventKind};
pub use metrics::{Log2Histogram, LOG2_BUCKETS};
pub use phase::PhaseClock;
pub use ring::{EpochSnapshot, SnapshotRing};
pub use sink::{DiscardSink, EventSink, FileSink, MemorySink, NullSink, TeeSink};
pub use span::{SpanConfig, SpanName, SpanRecord, SPAN_NONE};

/// Default number of epoch snapshots retained in memory.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// The facade a producer holds: ring + sink behind one enabled flag.
///
/// A disabled `Telemetry` ([`Telemetry::disabled`]) makes every emit a
/// branch on a bool; an enabled one with a [`NullSink`] still skips event
/// serialization. Snapshots are always pushed into the ring when enabled so
/// programmatic consumers (`SimReport::timeline`) work without a sink.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    /// Recent epoch snapshots.
    pub ring: SnapshotRing,
    sink: Box<dyn EventSink>,
    /// Causal span tracing, if switched on ([`Telemetry::with_spans`]).
    spans: Option<SpanConfig>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Telemetry {
    /// Telemetry that records nothing (the zero-cost default).
    pub fn disabled() -> Self {
        Telemetry {
            enabled: false,
            ring: SnapshotRing::new(0),
            sink: Box::new(NullSink),
            spans: None,
        }
    }

    /// Enabled telemetry that counts and snapshots but emits no lines.
    pub fn null() -> Self {
        Self::with_sink(Box::new(NullSink))
    }

    /// Enabled telemetry streaming events to `sink`.
    pub fn with_sink(sink: Box<dyn EventSink>) -> Self {
        Telemetry {
            enabled: true,
            ring: SnapshotRing::new(DEFAULT_RING_CAPACITY),
            sink,
            spans: None,
        }
    }

    /// Switches span tracing on with `cfg` (builder-style).
    #[must_use]
    pub fn with_spans(mut self, cfg: SpanConfig) -> Self {
        self.spans = Some(cfg);
        self
    }

    /// The active span configuration: `None` when span tracing is off or
    /// this telemetry records nothing. Producers fetch this once per run
    /// and derive every sampling decision from it.
    pub fn span_config(&self) -> Option<SpanConfig> {
        if self.wants_events() {
            self.spans
        } else {
            None
        }
    }

    /// Whether this telemetry records anything at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether [`event`](Telemetry::event) actually records anything:
    /// enabled *and* the sink keeps lines. Sharded producers use this to
    /// skip buffering events that a barrier-time merge would only discard.
    #[inline]
    pub fn wants_events(&self) -> bool {
        self.enabled && self.sink.wants_lines()
    }

    /// Emits a structured event (no-op when disabled; serialization is
    /// skipped when the sink discards lines).
    pub fn event(&mut self, t_ps: u64, kind: EventKind) {
        if !self.wants_events() {
            return;
        }
        let ev = Event::new(t_ps, kind);
        self.sink.emit_event(&ev);
    }

    /// Emits a completed span as an [`EventKind::Span`] event, timestamped
    /// at its end. Records whose id is [`SPAN_NONE`] are unsampled markers
    /// and are dropped here — the single gate every emitter must use
    /// (DESIGN.md §13).
    pub fn emit_span(&mut self, rec: SpanRecord) {
        if rec.id == SPAN_NONE {
            return;
        }
        self.event(rec.end_ps, EventKind::Span(rec));
    }

    /// Drains per-shard event buffers (indexed by shard id) and emits them
    /// merged in timestamp-then-shard-id order; ties beyond that keep each
    /// shard's own emission order (the sort is stable). This is the
    /// deterministic barrier-time merge of the sharded event loop: the
    /// resulting stream depends only on simulated time and the shard map,
    /// never on thread scheduling. Buffers are cleared even when the sink
    /// discards lines.
    pub fn emit_merged(&mut self, shard_events: &mut [Vec<(u64, EventKind)>]) {
        if !self.wants_events() {
            for buf in shard_events.iter_mut() {
                buf.clear();
            }
            return;
        }
        let mut all: Vec<(u64, usize, EventKind)> = Vec::new();
        for (shard, buf) in shard_events.iter_mut().enumerate() {
            all.extend(buf.drain(..).map(|(t, kind)| (t, shard, kind)));
        }
        all.sort_by_key(|&(t, shard, _)| (t, shard));
        for (t, _, kind) in all {
            self.event(t, kind);
        }
    }

    /// Records an epoch snapshot: pushes it into the ring and streams it to
    /// the sink as an [`EventKind::Epoch`] line.
    pub fn snapshot(&mut self, snap: EpochSnapshot) {
        if !self.enabled {
            return;
        }
        if self.sink.wants_lines() {
            let ev = Event::new(snap.t_ps, EventKind::Epoch(snap.clone()));
            self.sink.emit_event(&ev);
        }
        self.ring.push(snap);
    }

    /// Flushes the sink.
    pub fn flush(&mut self) {
        self.sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_emits_nothing() {
        let mut tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.event(0, EventKind::MetaMissBurst { len: 99 });
        tel.snapshot(EpochSnapshot::empty(0, 0));
        assert_eq!(tel.ring.total_pushed(), 0);
    }

    #[test]
    fn null_telemetry_snapshots_without_lines() {
        let mut tel = Telemetry::null();
        tel.snapshot(EpochSnapshot::empty(3, 300));
        assert_eq!(tel.ring.total_pushed(), 1);
        assert_eq!(tel.ring.latest().unwrap().epoch, 3);
    }

    #[test]
    fn merged_emission_orders_by_time_then_shard() {
        let sink = MemorySink::new();
        let lines = sink.handle();
        let mut tel = Telemetry::with_sink(Box::new(sink));
        let mut buffers = vec![
            vec![
                (30, EventKind::MetaMissBurst { len: 1 }),
                (10, EventKind::MetaMissBurst { len: 2 }),
            ],
            vec![
                (10, EventKind::MetaMissBurst { len: 3 }),
                (20, EventKind::MetaMissBurst { len: 4 }),
            ],
        ];
        tel.emit_merged(&mut buffers);
        assert!(buffers.iter().all(Vec::is_empty));
        let lines = lines.lock().unwrap();
        let lens: Vec<u64> = lines
            .iter()
            .map(|l| {
                let v: serde_json::Value = serde_json::from_str(l).expect("json");
                v["kind"]["MetaMissBurst"]["len"].as_u64().expect("len")
            })
            .collect();
        // t=10 shard 0 before t=10 shard 1, then t=20, then t=30.
        assert_eq!(lens, vec![2, 3, 4, 1]);
    }

    #[test]
    fn merged_emission_clears_buffers_even_without_a_sink() {
        let mut tel = Telemetry::null();
        assert!(!tel.wants_events());
        let mut buffers = vec![vec![(5, EventKind::MetaMissBurst { len: 9 })]];
        tel.emit_merged(&mut buffers);
        assert!(buffers[0].is_empty());
    }

    #[test]
    fn emit_span_drops_unsampled_markers_and_stamps_end_time() {
        let sink = MemorySink::new();
        let lines = sink.handle();
        let mut tel = Telemetry::with_sink(Box::new(sink)).with_spans(SpanConfig::full());
        assert_eq!(tel.span_config(), Some(SpanConfig::full()));
        let mut rec = SpanRecord {
            id: span::request_span_id(3, 0, 10),
            parent: SPAN_NONE,
            name: SpanName::Request,
            start_ps: 10,
            end_ps: 40,
            pod: None,
            frame: 3,
            shard: 0,
            aux: 0,
        };
        tel.emit_span(rec);
        rec.id = SPAN_NONE;
        tel.emit_span(rec); // unsampled: dropped
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 1);
        let v: serde_json::Value = serde_json::from_str(&lines[0]).expect("json");
        assert_eq!(v["t_ps"].as_u64(), Some(40));
        assert!(lines[0].contains("Span"));
    }

    #[test]
    fn span_config_is_hidden_when_nothing_records() {
        let tel = Telemetry::null().with_spans(SpanConfig::full());
        assert_eq!(tel.span_config(), None); // null sink discards lines
        let tel = Telemetry::disabled().with_spans(SpanConfig::full());
        assert_eq!(tel.span_config(), None);
    }

    #[test]
    fn sink_receives_events_and_snapshots() {
        let sink = MemorySink::new();
        let lines = sink.handle();
        let mut tel = Telemetry::with_sink(Box::new(sink));
        tel.event(
            5,
            EventKind::RemapSwap {
                page_a: 1,
                page_b: 2,
                pod: None,
                frame_a: 1,
                frame_b: 2,
                hotness: 0,
            },
        );
        tel.snapshot(EpochSnapshot::empty(1, 100));
        tel.flush();
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("RemapSwap"));
        assert!(lines[1].contains("Epoch"));
    }
}
