//! Chrome trace-event exporter: renders the event stream as a JSON array
//! loadable by Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! The mapping, per the trace-event format:
//!
//! * causal [`SpanRecord`]s for requests render as `"X"` complete events
//!   on the *causal* process, one thread track per pod;
//! * migration-lifecycle spans render as `"b"`/`"e"` async pairs keyed by
//!   the span id, so overlapping migrations nest correctly;
//! * execution spans ([`SpanName::ShardBatch`] / [`SpanName::Barrier`])
//!   render as `"X"` events on the *shards* process, one thread per shard;
//! * epoch snapshots render as `"C"` counter samples (requests,
//!   migrations, fast-service fraction);
//! * fault and provenance events (aborts, retries, rollbacks, ping-pongs)
//!   render as `"i"` instants with their payload under `args`.
//!
//! Timestamps convert from simulated picoseconds to the format's
//! microseconds as `ps / 1e6`, keeping sub-µs resolution as fractions.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use serde_json::{json, Value};

use crate::event::{Event, EventKind};
use crate::sink::{EventSink, WriteErrors};
use crate::span::{SpanName, SpanRecord, SPAN_NONE};

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
            SpanName::Migration
            | SpanName::MigrationAborted
            | SpanName::MigrationAttempt
            | SpanName::MigrationBackoff => {
                // Async pair keyed by the lifecycle root: children share
                // the root id so Perfetto nests them on one async track.
                let key = if s.parent == SPAN_NONE {
                    s.id
                } else {
                    s.parent
                };
                let id = format!("{key:#018x}");
                let tid = u64::from(s.pod.unwrap_or(0)) + 1;
                let args = json!({
                    "frame": s.frame, "attempt": s.aux,
                    "span": format!("{:#018x}", s.id),
                });
                self.record(json!({
                    "name": name, "ph": "b", "cat": "migration", "id": id,
                    "pid": PID_CAUSAL, "tid": tid, "ts": us(s.start_ps),
                    "args": args,
                }));
                self.record(json!({
                    "name": name, "ph": "e", "cat": "migration", "id": id,
                    "pid": PID_CAUSAL, "tid": tid, "ts": us(s.end_ps),
                }));
            }
            SpanName::Request | SpanName::Gate | SpanName::Service | SpanName::MetaFetch => {
                let tid = u64::from(s.pod.unwrap_or(0)) + 1;
                self.record(json!({
                    "name": name, "ph": "X", "cat": "request",
                    "pid": PID_CAUSAL, "tid": tid,
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

    /// Renders a non-span event, if it has a trace mapping.
    fn other(&mut self, e: &Event) {
        let t = e.t_ps;
        match &e.kind {
            EventKind::Epoch(s) => {
                self.record(json!({
                    "name": "epoch", "ph": "C", "pid": PID_CAUSAL, "tid": 0,
                    "ts": us(t),
                    "args": {
                        "requests_delta": s.requests_delta,
                        "migrations_delta": s.migrations_delta,
                        "fast_service_fraction": s.fast_service_fraction,
                    },
                }));
            }
            EventKind::MigrationAbort {
                pod,
                frame_a,
                frame_b,
                attempt,
                conflicting,
            } => self.instant(
                t,
                "MigrationAbort",
                *pod,
                json!({
                    "frame_a": *frame_a, "frame_b": *frame_b,
                    "attempt": *attempt, "conflicting": *conflicting,
                }),
            ),
            EventKind::MigrationRetry {
                pod,
                frame_a,
                frame_b,
                attempt,
                backoff_ps,
            } => self.instant(
                t,
                "MigrationRetry",
                *pod,
                json!({
                    "frame_a": *frame_a, "frame_b": *frame_b,
                    "attempt": *attempt, "backoff_ps": *backoff_ps,
                }),
            ),
            EventKind::MigrationRollback {
                pod,
                frame_a,
                frame_b,
                attempts,
            } => self.instant(
                t,
                "MigrationRollback",
                *pod,
                json!({
                    "frame_a": *frame_a, "frame_b": *frame_b,
                    "attempts": *attempts,
                }),
            ),
            EventKind::PagePingPong {
                page,
                round_trip_ps,
                trips,
            } => self.instant(
                t,
                "PagePingPong",
                None,
                json!({
                    "page": *page, "round_trip_ps": *round_trip_ps,
                    "trips": *trips,
                }),
            ),
            // Everything else (remaps, bursts, high-water marks, runner
            // progress) stays JSONL-only: high-volume and better served by
            // `tracelens` queries than by cluttering the timeline UI.
            _ => {}
        }
    }

    /// Appends one `"i"` instant record.
    fn instant(&mut self, t_ps: u64, name: &str, pod: Option<u32>, args: Value) {
        let tid = u64::from(pod.unwrap_or(0)) + 1;
        self.record(json!({
            "name": name, "ph": "i", "s": "t", "cat": "fault",
            "pid": PID_CAUSAL, "tid": tid, "ts": us(t_ps), "args": args,
        }));
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
    use crate::span::{migration_span_id, request_span_id};

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
                pod: Some(2),
                frame: 5,
                shard: 0,
                aux: 0,
            };
            sink.emit_event(&Event::new(900, EventKind::Span(req)));
            let mig = SpanRecord {
                id: migration_span_id(1, 2, 50),
                parent: SPAN_NONE,
                name: SpanName::Migration,
                start_ps: 50,
                end_ps: 4_050,
                pod: Some(0),
                frame: 1,
                shard: 0,
                aux: 2,
            };
            sink.emit_event(&Event::new(4_050, EventKind::Span(mig)));
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
