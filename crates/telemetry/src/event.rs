//! Structured events: the sanctioned alternative to ad-hoc printing from
//! hot paths. Each event serializes to one JSONL line through the active
//! [`EventSink`](crate::EventSink); the serde derive writes that line
//! straight into one `String`, so every variant, spans included, renders
//! through the same code.

use serde::Serialize;

use crate::ring::EpochSnapshot;
use crate::span::SpanRecord;

/// What happened.
///
/// Sharded runs buffer events per shard until the barrier merge, so the
/// rare, large `Epoch` payload is boxed to keep every buffered event as
/// small as a span.
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
        /// Simulated time from the first read launch to the last write,
        /// picoseconds (retries extend it).
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
    Epoch(Box<EpochSnapshot>),
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
        // Serialization is infallible for derived types; an empty line
        // would only signal a shim bug.
        serde_json::to_string(self).unwrap_or_default()
    }
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
    fn span_lines_are_pinned_for_every_name() {
        use crate::span::{SpanName, SpanRecord, SPAN_NONE};
        let expected = [
            (
                SpanName::Request,
                r#"{"t_ps":18446744073709551615,"kind":{"Span":{"id":18446744073709551615,"parent":0,"name":"Request","start_ps":0,"end_ps":18446744073709551615,"frame":1099511627776,"shard":0,"aux":4294967298}}}"#,
            ),
            (
                SpanName::Gate,
                r#"{"t_ps":1001,"kind":{"Span":{"id":1,"parent":7,"name":"Gate","start_ps":0,"end_ps":1001,"frame":1099511627776,"shard":1,"aux":4294967298}}}"#,
            ),
            (
                SpanName::Service,
                r#"{"t_ps":1002,"kind":{"Span":{"id":2,"parent":0,"name":"Service","start_ps":0,"end_ps":1002,"frame":1099511627776,"shard":2,"aux":4294967298}}}"#,
            ),
            (
                SpanName::MetaFetch,
                r#"{"t_ps":1003,"kind":{"Span":{"id":3,"parent":7,"name":"MetaFetch","start_ps":0,"end_ps":1003,"frame":1099511627776,"shard":3,"aux":4294967298}}}"#,
            ),
            (
                SpanName::ShardBatch,
                r#"{"t_ps":1004,"kind":{"Span":{"id":4,"parent":0,"name":"ShardBatch","start_ps":0,"end_ps":1004,"frame":1099511627776,"shard":4,"aux":4294967298}}}"#,
            ),
            (
                SpanName::Barrier,
                r#"{"t_ps":1005,"kind":{"Span":{"id":5,"parent":7,"name":"Barrier","start_ps":0,"end_ps":1005,"frame":1099511627776,"shard":5,"aux":4294967298}}}"#,
            ),
        ];
        for (i, (name, line)) in expected.into_iter().enumerate() {
            let end_ps = if i == 0 { u64::MAX } else { 1000 + i as u64 };
            let rec = SpanRecord {
                id: if i == 0 { u64::MAX } else { i as u64 },
                parent: if i % 2 == 0 { SPAN_NONE } else { 7 },
                name,
                start_ps: 0,
                end_ps,
                frame: 1 << 40,
                shard: i as u32,
                aux: u64::from(u32::MAX) + 3,
            };
            assert_eq!(rec.name.as_str(), format!("{name:?}"));
            assert_eq!(Event::new(end_ps, EventKind::Span(rec)).to_jsonl(), line);
        }
    }

    #[test]
    fn a_buffered_event_is_no_larger_than_a_span() {
        // Shards buffer `(t, EventKind)` pairs until the barrier merge;
        // boxing `Epoch` keeps each one at a span's size.
        assert!(std::mem::size_of::<EventKind>() <= std::mem::size_of::<SpanRecord>());
    }
}
