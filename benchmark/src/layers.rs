//! The traced pass: host time per layer, timed from outside around calls
//! into each library crate's public API. Spans stay in memory and are
//! written at the end as a Chrome trace-event file (opens in
//! ui.perfetto.dev).
//!
//! The core and DRAM layers are timed by replays: the manager's
//! `on_access` over the trace, and its outcomes fed to a fresh
//! `MemorySystem`. The replays skip the simulator's gating (migration
//! blocking, lane serialization, metadata parking), so the wall time they
//! leave unexplained can be negative.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mempod_core::build_manager;
use mempod_dram::{MemorySystem, Priority};
use mempod_sim::SimReport;
use mempod_telemetry::PhaseClock;
use mempod_types::{AccessKind, MemRequest};
use serde_json::{json, Value};

use crate::workloads::{check, Workload};

const MB: f64 = (1u64 << 20) as f64;
/// Requests per replay batch span.
const BATCH: usize = 1 << 16;
/// Migrating `on_access` calls recorded as spans of their own.
const CALL_SPANS: usize = 512;

/// What the traced pass measured.
#[derive(Debug, Default)]
pub struct LayerResult {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl LayerResult {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn expect(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            eprintln!("check failed: {what}: {e}");
            self.failed += 1;
        }
    }
}

struct Span {
    id: u64,
    parent: u64,
    layer: &'static str,
    name: String,
    start_ns: f64,
    dur_ns: f64,
    args: Vec<(&'static str, f64)>,
}

/// An open span: its id (for children) and start.
struct Open {
    id: u64,
    start: Instant,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: 0,
            spans: Vec::new(),
        }
    }

    fn open(&mut self) -> Open {
        self.next_id += 1;
        Open {
            id: self.next_id,
            start: Instant::now(),
        }
    }

    /// Ends `span` now and returns its duration in nanoseconds.
    fn close(&mut self, span: Open, parent: u64, layer: &'static str, name: &str) -> f64 {
        self.close_with(span, parent, layer, name, Vec::new())
    }

    fn close_with(
        &mut self,
        span: Open,
        parent: u64,
        layer: &'static str,
        name: &str,
        args: Vec<(&'static str, f64)>,
    ) -> f64 {
        let end = Instant::now();
        self.record(span.id, parent, layer, name, span.start, end, args)
    }

    /// Records a span that was timed elsewhere.
    fn child(
        &mut self,
        parent: u64,
        layer: &'static str,
        name: &str,
        start: Instant,
        end: Instant,
    ) {
        self.next_id += 1;
        self.record(self.next_id, parent, layer, name, start, end, Vec::new());
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        id: u64,
        parent: u64,
        layer: &'static str,
        name: &str,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, f64)>,
    ) -> f64 {
        let dur_ns = (end - start).as_nanos() as f64;
        self.spans.push(Span {
            id,
            parent,
            layer,
            name: name.to_string(),
            start_ns: (start - self.origin).as_nanos() as f64,
            dur_ns,
            args,
        });
        dur_ns
    }

    /// Writes the spans as Chrome trace-event JSON ("X" events, one
    /// track; nesting follows from the intervals).
    fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let mut args = serde_json::Map::new();
                args.insert("span_id".into(), json!(s.id));
                args.insert("parent_id".into(), json!(s.parent));
                for (k, v) in &s.args {
                    args.insert((*k).to_string(), json!(*v));
                }
                json!({
                    "name": s.name.as_str(),
                    "cat": s.layer,
                    "ph": "X",
                    "ts": s.start_ns / 1e3,
                    "dur": s.dur_ns / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": Value::Object(args),
                })
            })
            .collect();
        let doc = json!({ "traceEvents": Value::Array(events), "displayTimeUnit": "ns" });
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        // Written aside and renamed, so a concurrent reader never sees half a file.
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, serde_json::to_string(&doc).expect("values serialize"))?;
        std::fs::rename(&tmp, path)
    }
}

fn same(a: &SimReport, b: &SimReport) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err("report differs from the 1-shard run".into())
    }
}

/// Equality of everything but the telemetry-only fields.
fn same_stats(a: &SimReport, b: &SimReport) -> Result<(), String> {
    let strip = |r: &SimReport| SimReport {
        provenance: None,
        timeline: Vec::new(),
        ..r.clone()
    };
    same(&strip(a), &strip(b))
}

fn equal(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {got}, the simulator reported {want}"))
    }
}

/// Runs the traced pass for `w` and writes its spans to `trace_path`.
pub fn traced_pass(w: &Workload, seed: u64, smoke: bool, trace_path: &Path) -> LayerResult {
    let mut out = LayerResult::default();
    let mut t = Tracer::new();
    let root = t.open();
    let r = root.id;

    // trace: generation.
    let span = t.open();
    let trace = w.generate(seed, smoke);
    let gen_ns = t.close(span, r, "trace", "TraceGenerator::take_requests");
    let n = trace.len() as f64;
    out.put("trace.gen_ns_per_req", gen_ns / n);
    out.put(
        "trace.mb",
        n * std::mem::size_of::<MemRequest>() as f64 / MB,
    );

    // sim: set-up, then the workload's own configuration at 1 shard.
    let span = t.open();
    let (sim, own_counts) = w.simulator(smoke, 1, w.observed);
    let new_ns = t.close(span, r, "sim", "Simulator::new");
    out.put("sim.new_ms", new_ns / 1e6);
    let span = t.open();
    let report = sim.run(&trace);
    let wall_ns = t.close(span, r, "sim", "Simulator::run, 1 shard");
    out.expect("1-shard run", check(&report, trace.len()));

    // shard: threaded, then serial with a phase clock.
    let (sim, _) = w.simulator(smoke, 2, w.observed);
    let span = t.open();
    let threaded = sim.run(&trace);
    let wall2_ns = t.close(span, r, "shard", "Simulator::run, 2 shards");
    out.expect("2-shard run", same(&threaded, &report));

    let (sim, _) = w.simulator(smoke, 2, w.observed);
    let effective = sim.effective_shards();
    let clock = Arc::new(PhaseClock::new(effective as usize));
    let sim = sim
        .with_serial_shards(true)
        .with_phase_clock(Arc::clone(&clock));
    let span = t.open();
    let serial = sim.run(&trace);
    let serial_ns = t.close(span, r, "shard", "Simulator::run, 2 serial shards");
    out.expect("serial-shard run", same(&serial, &report));
    out.put("shard.effective", f64::from(effective));
    if effective > 1 {
        let busy = clock.shard_busy_ns();
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        let max = busy.iter().copied().max().unwrap_or(0) as f64;
        out.put("shard.admission_ms", clock.admission_ns() as f64 / 1e6);
        out.put(
            "shard.critical_path_ms",
            clock.critical_path_ns() as f64 / 1e6,
        );
        out.put("shard.imbalance", if mean > 0.0 { max / mean } else { 1.0 });
        out.put("shard.barriers", clock.barriers() as f64);
    } else {
        // One effective shard runs the sequential loop: no barriers, and
        // its critical path is its wall time.
        out.put("shard.admission_ms", serial_ns / 1e6);
        out.put("shard.critical_path_ms", serial_ns / 1e6);
        out.put("shard.imbalance", 1.0);
        out.put("shard.barriers", 0.0);
    }
    out.put("shard.wall_speedup", wall_ns / wall2_ns);

    // telemetry: the same trace with telemetry switched the other way.
    let (sim, other_counts) = w.simulator(smoke, 1, !w.observed);
    let span = t.open();
    let other = sim.run(&trace);
    let other_ns = t.close(span, r, "telemetry", "Simulator::run, telemetry toggled");
    out.expect("telemetry-toggled run", same_stats(&other, &report));
    let (observed_ns, plain_ns, counts) = if w.observed {
        (wall_ns, other_ns, own_counts)
    } else {
        (other_ns, wall_ns, other_counts)
    };
    let lines = counts.lines().max(1) as f64;
    out.put("telemetry.lines", counts.lines() as f64);
    out.put("telemetry.bytes_per_line", counts.bytes() as f64 / lines);
    out.put("telemetry.ns_per_line", (observed_ns - plain_ns) / lines);

    // core: on_access over the trace, timed as one loop.
    let cfg = w.config(smoke);
    let mut mgr = build_manager(cfg.manager, &cfg.mgr);
    let span = t.open();
    for req in trace.requests() {
        black_box(mgr.on_access(black_box(req)));
    }
    let core_ns = t.close(
        span,
        r,
        "core",
        "MemoryManager::on_access, loop-timed replay",
    );
    let migrations = report.migration.migrations;
    out.expect(
        "loop-timed core replay",
        equal(
            "replayed migrations",
            mgr.migration_stats().migrations,
            migrations,
        ),
    );

    // core + dram: on_access, drain_until and submit, each timed per call.
    let mut mgr = build_manager(cfg.manager, &cfg.mgr);
    let mut mem = MemorySystem::new(cfg.layout());
    let replay = t.open();
    let mut batch = t.open();
    let (mut call_ns, mut drain_ns, mut submit_ns) = (0.0, 0.0, 0.0);
    let (mut batch_call, mut batch_drain, mut batch_submit) = (0.0, 0.0, 0.0);
    let (mut migrating_ns, mut migrating_calls, mut submits) = (0.0, 0u64, 0u64);
    for (i, req) in trace.requests().iter().enumerate() {
        let a = Instant::now();
        let o = mgr.on_access(req);
        let b = Instant::now();
        black_box(mem.drain_until(req.arrival));
        let c = Instant::now();
        mem.submit(o.frame, o.line_in_page, req.kind, req.arrival + o.stall);
        submits += 1;
        for m in &o.migrations {
            for line in m.line_start..m.line_start + m.line_count {
                for kind in [AccessKind::Read, AccessKind::Write] {
                    for frame in [m.frame_a, m.frame_b] {
                        mem.submit_with_priority(
                            frame,
                            line,
                            kind,
                            req.arrival,
                            Priority::Background,
                        );
                        submits += 1;
                    }
                }
            }
        }
        let d = Instant::now();
        let call = (b - a).as_nanos() as f64;
        batch_call += call;
        batch_drain += (c - b).as_nanos() as f64;
        batch_submit += (d - c).as_nanos() as f64;
        if !o.migrations.is_empty() {
            migrating_ns += call;
            migrating_calls += 1;
            if (migrating_calls as usize) <= CALL_SPANS {
                t.child(batch.id, "core", "on_access returning migrations", a, b);
            }
        }
        if (i + 1) % BATCH == 0 || i + 1 == trace.len() {
            let args = vec![
                ("on_access_ns", batch_call),
                ("drain_ns", batch_drain),
                ("submit_ns", batch_submit),
            ];
            t.close_with(batch, replay.id, "dram", "replay batch", args);
            call_ns += batch_call;
            drain_ns += batch_drain;
            submit_ns += batch_submit;
            (batch_call, batch_drain, batch_submit) = (0.0, 0.0, 0.0);
            batch = t.open();
        }
    }
    let span = t.open();
    black_box(mem.drain_all());
    drain_ns += t.close(span, replay.id, "dram", "MemorySystem::drain_all");
    t.close(
        replay,
        r,
        "dram",
        "per-call replay: on_access, drain_until, submit",
    );
    out.expect(
        "per-call replay",
        equal(
            "replayed migrations",
            mgr.migration_stats().migrations,
            migrations,
        )
        .and_then(|()| equal("requests left queued", mem.pending() as u64, 0)),
    );

    out.put("core.on_access_ns", core_ns / n);
    // Without migrating calls (bwaves_tlm), the mean of every call.
    out.put(
        "core.migrating_call_us",
        if migrating_calls > 0 {
            migrating_ns / migrating_calls as f64 / 1e3
        } else {
            call_ns / n / 1e3
        },
    );
    out.put("core.migrations", migrations as f64);
    out.put("core.share", core_ns / wall_ns);

    let stats = mem.stats().total();
    let submits = submits as f64;
    out.put("dram.submit_ns", submit_ns / submits);
    out.put("dram.drain_ns_per_req", drain_ns / submits);
    out.put(
        "dram.scans_per_decision",
        stats.sched_scan_ops as f64 / stats.sched_decisions.max(1) as f64,
    );
    out.put("dram.max_queue_depth", stats.max_queue_depth as f64);
    out.put("dram.row_hit_rate", report.row_hit_rate());
    out.put("dram.share", (submit_ns + drain_ns) / wall_ns);

    let injected = (report.injected_migration_requests + report.injected_meta_requests) as f64;
    out.put(
        "sim.host_ns_per_event",
        wall_ns / (report.requests as f64 + injected),
    );
    out.put("sim.injected_per_req", injected / report.requests as f64);
    out.put(
        "sim.unattributed_ms",
        (wall_ns - core_ns - submit_ns - drain_ns) / 1e6,
    );
    out.put(
        "bench.timer_overhead_pct",
        (call_ns - core_ns) / core_ns * 100.0,
    );

    t.close(root, 0, "bench", &format!("traced pass: {}", w.name));
    out.expect(
        "trace file",
        t.write_chrome(trace_path).map_err(|e| e.to_string()),
    );
    out
}
