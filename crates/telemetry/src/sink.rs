//! Pluggable JSONL sinks for the event stream.

use mempod_sync::atomic::{AtomicU64, Ordering};
use mempod_sync::Arc;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::event::Event;

/// Destination for rendered JSONL event lines.
///
/// Implementations receive one line per event, without the trailing
/// newline. `wants_lines` lets the emitter skip serialization entirely for
/// sinks that discard everything (the null sink), which is what keeps
/// always-on telemetry cheap.
pub trait EventSink: fmt::Debug + Send {
    /// Whether this sink will do anything with emitted lines. Emitters may
    /// skip rendering when this is `false`.
    fn wants_lines(&self) -> bool {
        true
    }

    /// Consumes one JSONL line.
    fn emit(&mut self, line: &str);

    /// Consumes one structured event. The default renders the event as a
    /// JSONL line and forwards to [`EventSink::emit`]; structure-aware
    /// sinks (the Chrome trace exporter, tee fan-out) override this to see
    /// the typed event before it is flattened to text.
    fn emit_event(&mut self, event: &Event) {
        self.emit(&event.to_jsonl());
    }

    /// Flushes buffered output (end of run).
    fn flush(&mut self) {}
}

/// Discards every event without rendering it.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn wants_lines(&self) -> bool {
        false
    }

    fn emit(&mut self, _line: &str) {}
}

/// Accepts every event — so emitters render spans and events exactly as
/// they would for a real sink — then drops the rendered line. This is the
/// benchmarking sink: it prices the full produce-and-serialize path without
/// any I/O, unlike [`NullSink`], whose `wants_lines() == false` short-
/// circuits production entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscardSink {
    lines: u64,
}

impl DiscardSink {
    /// A fresh discarding sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lines rendered and dropped so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

impl EventSink for DiscardSink {
    fn emit(&mut self, _line: &str) {
        self.lines += 1;
    }
}

/// A shared count of the writes a file-backed sink failed. The sink counts
/// a failed write instead of panicking mid-run; keep a handle
/// ([`FileSink::errors`], [`ChromeTraceSink::errors`](crate::ChromeTraceSink::errors))
/// before moving the sink into a `Telemetry` and read it after the run.
#[derive(Debug, Clone, Default)]
pub struct WriteErrors(Arc<AtomicU64>);

impl WriteErrors {
    /// Failed writes counted so far. `Relaxed` suffices: the count
    /// publishes no other data, and it is read after the run that wrote it
    /// has returned.
    pub fn count(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub(crate) fn add(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Streams events to a file, one JSON object per line.
#[derive(Debug)]
pub struct FileSink {
    w: BufWriter<File>,
    errors: WriteErrors,
}

impl FileSink {
    /// Creates (truncating) the JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(FileSink {
            w: BufWriter::new(File::create(path)?),
            errors: WriteErrors::default(),
        })
    }

    /// A shared handle to this sink's failed-write count.
    pub fn errors(&self) -> WriteErrors {
        self.errors.clone()
    }
}

impl EventSink for FileSink {
    fn emit(&mut self, line: &str) {
        if writeln!(self.w, "{line}").is_err() {
            self.errors.add();
        }
    }

    fn flush(&mut self) {
        if self.w.flush().is_err() {
            self.errors.add();
        }
    }
}

/// Collects events in memory, for tests.
///
/// The backing vector is shared: keep a [`MemorySink::handle`] before
/// moving the sink into a `Telemetry` and read the lines after the run.
#[derive(Debug, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "a test sink: the run holds the lock only to append, the test only to read after it"
)]
pub struct MemorySink {
    lines: Arc<mempod_sync::Mutex<Vec<String>>>,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared handle to the collected lines.
    #[expect(clippy::disallowed_types, reason = "hands out the test sink's lines")]
    pub fn handle(&self) -> Arc<mempod_sync::Mutex<Vec<String>>> {
        Arc::clone(&self.lines)
    }
}

impl EventSink for MemorySink {
    fn emit(&mut self, line: &str) {
        if let Ok(mut lines) = self.lines.lock() {
            lines.push(line.to_string());
        }
    }
}

/// Fans every event out to two sinks — e.g. a JSONL timeline *and* a
/// Chrome trace from the same run (`simrun --timeline … --trace-out …`).
#[derive(Debug)]
pub struct TeeSink {
    a: Box<dyn EventSink>,
    b: Box<dyn EventSink>,
}

impl TeeSink {
    /// Couples two sinks.
    pub fn new(a: Box<dyn EventSink>, b: Box<dyn EventSink>) -> Self {
        TeeSink { a, b }
    }
}

impl EventSink for TeeSink {
    fn wants_lines(&self) -> bool {
        self.a.wants_lines() || self.b.wants_lines()
    }

    fn emit(&mut self, line: &str) {
        self.a.emit(line);
        self.b.emit(line);
    }

    fn emit_event(&mut self, event: &Event) {
        // Forward the *typed* event so a structure-aware branch (Chrome
        // exporter) keeps its override even behind the tee.
        self.a.emit_event(event);
        self.b.emit_event(event);
    }

    fn flush(&mut self) {
        self.a.flush();
        self.b.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_declines_lines() {
        let mut s = NullSink;
        assert!(!s.wants_lines());
        s.emit("ignored");
        s.flush();
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let mut s = MemorySink::new();
        let handle = s.handle();
        s.emit("one");
        s.emit("two");
        s.flush();
        let lines = handle.lock().unwrap();
        assert_eq!(*lines, vec!["one".to_string(), "two".to_string()]);
    }

    #[test]
    fn file_sink_writes_jsonl() {
        let path = std::env::temp_dir().join(format!(
            "mempod-telemetry-sink-{}.jsonl",
            std::process::id()
        ));
        {
            let mut s = FileSink::create(&path).expect("create");
            s.emit("{\"a\":1}");
            s.emit("{\"b\":2}");
            s.flush();
            assert_eq!(s.errors().count(), 0);
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, "{\"a\":1}\n{\"b\":2}\n");
        let _ = std::fs::remove_file(&path);
    }
}
