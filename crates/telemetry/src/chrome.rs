//! Chrome trace-event exporter: renders the event stream as a JSON array
//! loadable by Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! The mapping, per the trace-event format:
//!
//! * causal [`SpanRecord`]s for requests render as `"X"` complete events
//!   on the *causal* process;
//! * each migration renders as one `"b"`/`"e"` async slice named
//!   `Migration`: it opens at the swap's `RemapSwap` (pages, frames and
//!   hotness) and closes at its `MigrationComplete` or `MigrationRollback`.
//!   The slice is keyed by the frame pair, so slices that share a pair
//!   nest;
//! * execution spans ([`SpanName::ShardBatch`] / [`SpanName::Barrier`])
//!   render as `"X"` events on the *shards* process, one thread per shard;
//! * epoch snapshots render as `"C"` counter samples (requests,
//!   migrations, fast-service fraction);
//! * migration starts, aborts and retries and page ping-pongs render as
//!   `"i"` instants on the pod's track.
//!
//! A migration or instant record's `args` is the event's JSONL `kind`,
//! e.g. `{"RemapSwap": {"page_a": ..}}`.
//!
//! Timestamps convert from simulated picoseconds to the format's
//! microseconds as `ps / 1e6`, keeping sub-µs resolution as fractions.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use serde::Serialize;
use serde_json::{json, Value};

use crate::event::{Event, EventKind};
use crate::sink::{EventSink, WriteErrors};
use crate::span::{SpanName, SpanRecord};

/// Synthetic process id for causal (simulated-machine) tracks.
const PID_CAUSAL: u64 = 1;
/// Synthetic process id for execution (shard-worker) tracks.
const PID_SHARDS: u64 = 2;

/// Converts simulated picoseconds to trace-format microseconds.
fn us(ps: u64) -> f64 {
    // 2^53 µs of simulated time (~285 years) before any precision loss;
    // runs are many orders of magnitude shorter.
    ps as f64 / 1e6
}

/// The causal-process thread track of a pod (`None`, an unclustered
/// manager, shares pod 0's).
fn pod_tid(pod: Option<u32>) -> u64 {
    u64::from(pod.unwrap_or(0)) + 1
}

/// The async id of a migration slice: its frame pair, `frame_a` in the
/// high half. Frames fit in 32 bits in every simulated geometry; a wider
/// frame would only merge two keys, and a slice still closes under the
/// key it opened with.
fn slice_id(frame_a: u64, frame_b: u64) -> String {
    format!("{:#018x}", (frame_a << 32) | frame_b)
}

/// Streams events as a Chrome trace-event JSON array.
///
/// The array is opened at creation and closed (idempotently) at
/// [`EventSink::flush`]; events arriving after the close are dropped and
/// counted in [`ChromeTraceSink::errors`]. Raw pre-rendered lines
/// ([`EventSink::emit`]) are ignored — this sink only consumes typed
/// events via [`EventSink::emit_event`], which is the path `Telemetry`
/// always uses.
#[derive(Debug)]
pub struct ChromeTraceSink {
    w: BufWriter<File>,
    wrote_any: bool,
    closed: bool,
    errors: WriteErrors,
}

impl ChromeTraceSink {
    /// Creates (truncating) the trace file at `path` and writes the array
    /// opener plus process-name metadata.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut sink = ChromeTraceSink {
            w: BufWriter::new(File::create(path)?),
            wrote_any: false,
            closed: false,
            errors: WriteErrors::default(),
        };
        if sink.w.write_all(b"[").is_err() {
            sink.errors.add();
        }
        sink.record(json!({
            "name": "process_name", "ph": "M", "pid": PID_CAUSAL,
            "args": {"name": "causal (simulated machine)"},
        }));
        sink.record(json!({
            "name": "process_name", "ph": "M", "pid": PID_SHARDS,
            "args": {"name": "shard workers"},
        }));
        Ok(sink)
    }

    /// A shared handle to the count of failed writes (and of events
    /// dropped after the close).
    pub fn errors(&self) -> WriteErrors {
        self.errors.clone()
    }

    /// Appends one trace record to the array.
    fn record(&mut self, v: Value) {
        if self.closed {
            self.errors.add();
            return;
        }
        let sep: &[u8] = if self.wrote_any { b",\n" } else { b"\n" };
        let line = serde_json::to_string(&v).unwrap_or_default();
        if self.w.write_all(sep).is_err() || self.w.write_all(line.as_bytes()).is_err() {
            self.errors.add();
        }
        self.wrote_any = true;
    }

    /// Renders one span as trace records.
    fn span(&mut self, t_ps: u64, s: &SpanRecord) {
        let _ = t_ps; // spans carry their own interval; the event time is the end.
        let name = s.name.as_str();
        match s.name {
            SpanName::ShardBatch | SpanName::Barrier => {
                self.record(json!({
                    "name": name, "ph": "X", "cat": "exec",
                    "pid": PID_SHARDS, "tid": s.shard,
                    "ts": us(s.start_ps), "dur": us(s.dur_ps()),
                    "args": {"id": format!("{:#018x}", s.id), "items": s.aux},
                }));
            }
            SpanName::Request | SpanName::Gate | SpanName::Service | SpanName::MetaFetch => {
                self.record(json!({
                    "name": name, "ph": "X", "cat": "request",
                    "pid": PID_CAUSAL, "tid": pod_tid(None),
                    "ts": us(s.start_ps), "dur": us(s.dur_ps()),
                    "args": {
                        "frame": s.frame,
                        "span": format!("{:#018x}", s.id),
                        "parent": format!("{:#018x}", s.parent),
                    },
                }));
            }
        }
    }

    /// Renders a non-span event, if it has a trace mapping. A mapped
    /// event's `args` is its own JSONL `kind`, `{"<Kind>": {..}}`, so a
    /// reader parses both formats alike.
    fn other(&mut self, e: &Event) {
        let ts = us(e.t_ps);
        let (name, pod, slice) = match &e.kind {
            EventKind::Epoch(s) => {
                self.record(json!({
                    "name": "epoch", "ph": "C", "pid": PID_CAUSAL, "tid": 0, "ts": ts,
                    "args": {
                        "requests_delta": s.requests_delta,
                        "migrations_delta": s.migrations_delta,
                        "fast_service_fraction": s.fast_service_fraction,
                    },
                }));
                return;
            }
            EventKind::RemapSwap {
                pod,
                frame_a,
                frame_b,
                ..
            } => ("Migration", *pod, Some(("b", slice_id(*frame_a, *frame_b)))),
            EventKind::MigrationComplete {
                pod,
                frame_a,
                frame_b,
                ..
            }
            | EventKind::MigrationRollback {
                pod,
                frame_a,
                frame_b,
                ..
            } => ("Migration", *pod, Some(("e", slice_id(*frame_a, *frame_b)))),
            EventKind::MigrationStart { pod, .. } => ("MigrationStart", *pod, None),
            EventKind::MigrationAbort { pod, .. } => ("MigrationAbort", *pod, None),
            EventKind::MigrationRetry { pod, .. } => ("MigrationRetry", *pod, None),
            EventKind::PagePingPong { .. } => ("PagePingPong", None, None),
            // Everything else (bursts, refresh stalls, high-water marks)
            // stays JSONL-only: high-volume and better served by
            // `tracelens` queries than by cluttering the timeline UI.
            _ => return,
        };
        let (tid, args) = (pod_tid(pod), e.kind.to_value());
        self.record(match slice {
            Some((ph, id)) => json!({
                "name": name, "ph": ph, "cat": "migration", "id": id,
                "pid": PID_CAUSAL, "tid": tid, "ts": ts, "args": args,
            }),
            None => json!({
                "name": name, "ph": "i", "s": "t", "cat": "migration",
                "pid": PID_CAUSAL, "tid": tid, "ts": ts, "args": args,
            }),
        });
    }
}

impl EventSink for ChromeTraceSink {
    fn emit(&mut self, _line: &str) {
        // Pre-rendered JSONL has lost the structure this exporter needs;
        // `Telemetry` always routes through `emit_event`.
    }

    fn emit_event(&mut self, event: &Event) {
        match &event.kind {
            EventKind::Span(s) => self.span(event.t_ps, s),
            _ => self.other(event),
        }
    }

    fn flush(&mut self) {
        if !self.closed {
            self.closed = true;
            if self.w.write_all(b"\n]\n").is_err() {
                self.errors.add();
            }
        }
        if self.w.flush().is_err() {
            self.errors.add();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{request_span_id, SPAN_NONE};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mempod-chrome-{}-{name}.json", std::process::id()))
    }

    #[test]
    fn produces_a_loadable_json_array() {
        let path = tmp("array");
        {
            let mut sink = ChromeTraceSink::create(&path).expect("create");
            let req = SpanRecord {
                id: request_span_id(5, 0, 100),
                parent: SPAN_NONE,
                name: SpanName::Request,
                start_ps: 100,
                end_ps: 900,
                frame: 5,
                shard: 0,
                aux: 0,
            };
            sink.emit_event(&Event::new(900, EventKind::Span(req)));
            sink.emit_event(&Event::new(
                50,
                EventKind::RemapSwap {
                    page_a: 1,
                    page_b: 2,
                    pod: Some(0),
                    frame_a: 1,
                    frame_b: 2,
                    hotness: 7,
                },
            ));
            sink.emit_event(&Event::new(
                4_050,
                EventKind::MigrationRollback {
                    pod: Some(0),
                    frame_a: 1,
                    frame_b: 2,
                    attempts: 2,
                },
            ));
            sink.emit_event(&Event::new(
                60,
                EventKind::PagePingPong {
                    page: 9,
                    round_trip_ps: 10,
                    trips: 1,
                },
            ));
            sink.flush();
            assert_eq!(sink.errors().count(), 0);
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        let v: Value = serde_json::from_str(&text).expect("valid JSON");
        let arr = v.as_array().expect("array");
        // 2 metadata + 1 request X + migration b/e pair + 1 instant.
        assert_eq!(arr.len(), 6);
        // The slice opens and closes under one frame-pair key, with the
        // swap's payload at the open and its outcome at the close.
        let (open, close) = (&arr[3], &arr[4]);
        assert_eq!(open["id"], close["id"]);
        assert_eq!(open["args"]["RemapSwap"]["hotness"].as_u64(), Some(7));
        assert_eq!(
            close["args"]["MigrationRollback"]["attempts"].as_u64(),
            Some(2)
        );
        assert!(arr
            .iter()
            .all(|r| r.get("ph").and_then(Value::as_str).is_some()));
        let phases: Vec<&str> = arr
            .iter()
            .filter_map(|r| r.get("ph").and_then(Value::as_str))
            .collect();
        assert_eq!(phases, vec!["M", "M", "X", "b", "e", "i"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_is_idempotent_and_post_close_events_count_as_errors() {
        let path = tmp("close");
        {
            let mut sink = ChromeTraceSink::create(&path).expect("create");
            sink.flush();
            sink.flush();
            sink.emit_event(&Event::new(1, EventKind::MetaMissBurst { len: 9 }));
            assert_eq!(sink.errors().count(), 0); // unmapped kind: silently skipped
            sink.emit_event(&Event::new(
                1,
                EventKind::PagePingPong {
                    page: 1,
                    round_trip_ps: 1,
                    trips: 1,
                },
            ));
            assert_eq!(sink.errors().count(), 1); // mapped kind after close: dropped
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(serde_json::from_str::<Value>(&text).is_ok(), "{text}");
        let _ = std::fs::remove_file(&path);
    }
}
