//! Structured events: the sanctioned alternative to ad-hoc printing from
//! hot paths. Each event serializes to one JSONL line through the active
//! [`EventSink`](crate::EventSink).

use serde::Serialize;

use crate::ring::EpochSnapshot;
use crate::span::SpanRecord;

/// What happened.
///
/// `Epoch` dwarfs the other variants, but events are ephemeral — built,
/// serialized to a sink, dropped — never stored in bulk, and the vendored
/// serde shims have no `Box` impls to add indirection through.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum EventKind {
    /// A migration's data movement began (its read phase was launched).
    MigrationStart {
        /// Pod performing the swap (`None` for non-clustered managers;
        /// serialized as null).
        pod: Option<u32>,
        /// One frame of the swap.
        frame_a: u64,
        /// The other frame.
        frame_b: u64,
        /// Lines moved per direction.
        lines: u32,
    },
    /// A migration's last write-back completed; its pages unblocked.
    MigrationComplete {
        /// Pod performing the swap.
        pod: Option<u32>,
        /// One frame of the swap.
        frame_a: u64,
        /// The other frame.
        frame_b: u64,
        /// Wall time from read launch to last write, picoseconds.
        latency_ps: u64,
    },
    /// A manager committed a remap: two pages exchanged frames (data
    /// movement may still be queued behind the pod's migration lane).
    RemapSwap {
        /// One page of the swap.
        page_a: u64,
        /// The other page.
        page_b: u64,
        /// Pod owning the remap entry, if clustered.
        pod: Option<u32>,
        /// Frame `page_a` occupied before the swap.
        frame_a: u64,
        /// Frame `page_b` occupied before the swap.
        frame_b: u64,
        /// Tracker count of the promoted page at decision time (0 when the
        /// mechanism exposes none).
        hotness: u64,
    },
    /// A run of consecutive metadata-cache misses ended, having reached at
    /// least the configured burst threshold.
    MetaMissBurst {
        /// Consecutive misses in the burst.
        len: u64,
    },
    /// An epoch window booked an unusually large number of all-bank
    /// refreshes while work was queued (refresh blackouts stalling demand).
    RefreshStall {
        /// Refreshes booked in the window.
        refreshes: u64,
        /// Epoch index of the window's end.
        epoch: u64,
    },
    /// The per-channel scheduling queue reached a new high-water depth.
    QueueDepthHighWater {
        /// New maximum queue depth.
        depth: u64,
        /// Epoch index in which it was observed.
        epoch: u64,
    },
    /// An epoch boundary's derived metrics (the timeline backbone).
    Epoch(EpochSnapshot),
    /// A migration attempt was abandoned mid-swap (injected fault): its
    /// queued background traffic was cancelled at the end of the read
    /// phase and no data was committed.
    MigrationAbort {
        /// Pod performing the swap.
        pod: Option<u32>,
        /// One frame of the swap.
        frame_a: u64,
        /// The other frame.
        frame_b: u64,
        /// 1-based attempt number that aborted.
        attempt: u32,
        /// Whether a conflicting write was parked on either page when the
        /// abort fired (the classic torn-swap hazard).
        conflicting: bool,
    },
    /// An aborted migration was resubmitted after simulated-time backoff.
    MigrationRetry {
        /// Pod performing the swap.
        pod: Option<u32>,
        /// One frame of the swap.
        frame_a: u64,
        /// The other frame.
        frame_b: u64,
        /// 1-based attempt number being launched.
        attempt: u32,
        /// Simulated backoff applied before this attempt, picoseconds.
        backoff_ps: u64,
    },
    /// A migration exhausted its retry budget; the address map was rolled
    /// back to its pre-swap state and the swap abandoned.
    MigrationRollback {
        /// Pod performing the swap.
        pod: Option<u32>,
        /// One frame of the swap.
        frame_a: u64,
        /// The other frame.
        frame_b: u64,
        /// Total attempts made before giving up.
        attempts: u32,
    },
    /// A completed causal/execution span (see [`SpanRecord`]). The event's
    /// `t_ps` is the span's end time, so the merged stream stays ordered
    /// by when things were *known*, not when they began.
    Span(SpanRecord),
    /// The provenance ledger detected a page ping-ponging between tiers:
    /// it returned to a tier it had left within the detection window.
    PagePingPong {
        /// The page bouncing between tiers.
        page: u64,
        /// Simulated time from leaving the tier to returning to it.
        round_trip_ps: u64,
        /// Round trips observed for this page so far (1-based).
        trips: u32,
    },
}

/// A timestamped event.
///
/// `t_ps` is the simulated time in picoseconds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Event {
    /// Simulated timestamp in picoseconds.
    pub t_ps: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Event {
    /// Creates an event.
    pub fn new(t_ps: u64, kind: EventKind) -> Self {
        Event { t_ps, kind }
    }

    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        // Spans are the only event emitted per *request* (albeit sampled),
        // so they get a hand-rolled serializer: the vendored Value model
        // costs microseconds per line, which alone blows the < 2 % tracing
        // budget. The output is byte-identical to the derive's (pinned by
        // `span_fast_path_matches_derived_serialization`).
        if let EventKind::Span(s) = &self.kind {
            return span_jsonl(self.t_ps, s);
        }
        // Serialization through the vendored Value model is infallible for
        // derived types; an empty line would only signal a shim bug.
        serde_json::to_string(self).unwrap_or_default()
    }
}

/// Hand-rolled rendering of a span line, byte-identical to the serde
/// derive's output for [`Event`] wrapping [`EventKind::Span`].
fn span_jsonl(t_ps: u64, s: &SpanRecord) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(192);
    let _ = write!(
        out,
        "{{\"t_ps\":{t_ps},\"kind\":{{\"Span\":{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ps\":{},\"end_ps\":{},\"pod\":",
        s.id,
        s.parent,
        s.name.as_str(),
        s.start_ps,
        s.end_ps,
    );
    match s.pod {
        Some(p) => {
            let _ = write!(out, "{p}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"frame\":{},\"shard\":{},\"aux\":{}}}}}}}",
        s.frame, s.shard, s.aux
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_the_value_model() {
        let samples = vec![
            Event::new(
                10,
                EventKind::MigrationStart {
                    pod: Some(3),
                    frame_a: 7,
                    frame_b: 4096,
                    lines: 32,
                },
            ),
            Event::new(
                20,
                EventKind::MigrationComplete {
                    pod: None,
                    frame_a: 7,
                    frame_b: 4096,
                    latency_ps: 123_456,
                },
            ),
            Event::new(
                30,
                EventKind::RemapSwap {
                    page_a: 1,
                    page_b: 2,
                    pod: Some(0),
                    frame_a: 17,
                    frame_b: 3,
                    hotness: 64,
                },
            ),
            Event::new(40, EventKind::MetaMissBurst { len: 17 }),
            Event::new(
                50,
                EventKind::RefreshStall {
                    refreshes: 9,
                    epoch: 2,
                },
            ),
            Event::new(
                60,
                EventKind::QueueDepthHighWater {
                    depth: 128,
                    epoch: 2,
                },
            ),
            Event::new(
                80,
                EventKind::MigrationAbort {
                    pod: Some(1),
                    frame_a: 7,
                    frame_b: 4096,
                    attempt: 2,
                    conflicting: true,
                },
            ),
            Event::new(
                90,
                EventKind::MigrationRetry {
                    pod: Some(1),
                    frame_a: 7,
                    frame_b: 4096,
                    attempt: 3,
                    backoff_ps: 2_000_000,
                },
            ),
            Event::new(
                100,
                EventKind::MigrationRollback {
                    pod: None,
                    frame_a: 7,
                    frame_b: 4096,
                    attempts: 4,
                },
            ),
            Event::new(
                140,
                EventKind::Span(SpanRecord {
                    id: crate::span::request_span_id(9, 1, 77),
                    parent: crate::span::SPAN_NONE,
                    name: crate::span::SpanName::Request,
                    start_ps: 77,
                    end_ps: 140,
                    pod: None,
                    frame: 9,
                    shard: 0,
                    aux: 0,
                }),
            ),
            Event::new(
                150,
                EventKind::PagePingPong {
                    page: 42,
                    round_trip_ps: 2_000_000,
                    trips: 3,
                },
            ),
        ];
        for e in samples {
            let v: serde_json::Value = serde_json::from_str(&e.to_jsonl()).expect("valid json");
            assert_eq!(v, e.to_value());
            assert_eq!(v["t_ps"].as_u64(), Some(e.t_ps));
            // Externally tagged: a one-key object named after the variant.
            let kind = v["kind"].as_object().expect("data variant");
            let tag = kind.keys().next().expect("one tag");
            assert_eq!(kind.len(), 1);
            assert!(format!("{:?}", e.kind).starts_with(tag.as_str()), "{tag}");
        }
    }

    #[test]
    fn jsonl_line_parses_back() {
        let e = Event::new(99, EventKind::MetaMissBurst { len: 8 });
        let line = e.to_jsonl();
        assert!(!line.contains('\n'));
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid json");
        assert_eq!(
            v,
            serde_json::json!({ "t_ps": 99, "kind": { "MetaMissBurst": { "len": 8 } } })
        );
    }

    #[test]
    fn span_fast_path_matches_derived_serialization() {
        use crate::span::{SpanName, SpanRecord, SPAN_NONE};
        let names = [
            SpanName::Request,
            SpanName::Gate,
            SpanName::Service,
            SpanName::MetaFetch,
            SpanName::Migration,
            SpanName::MigrationAborted,
            SpanName::MigrationAttempt,
            SpanName::MigrationBackoff,
            SpanName::ShardBatch,
            SpanName::Barrier,
        ];
        for (i, name) in names.into_iter().enumerate() {
            for pod in [None, Some(0), Some(u32::MAX)] {
                let rec = SpanRecord {
                    id: if i == 0 { u64::MAX } else { i as u64 },
                    parent: if i % 2 == 0 { SPAN_NONE } else { 7 },
                    name,
                    start_ps: 0,
                    end_ps: u64::MAX - 1,
                    pod,
                    frame: 1 << 40,
                    shard: i as u32,
                    aux: u64::from(u32::MAX) + 3,
                };
                let e = Event::new(u64::MAX, EventKind::Span(rec));
                // The fast path must be indistinguishable from the derive:
                // the differential trace tests compare raw lines.
                assert_eq!(
                    e.to_jsonl(),
                    serde_json::to_string(&e).expect("derived serialization"),
                    "fast path diverged for {name:?} pod {pod:?}"
                );
            }
        }
    }
}
