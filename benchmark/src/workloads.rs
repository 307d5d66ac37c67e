//! The four workloads, one timed simulator sample, and the checks every
//! simulated report must pass.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mempod_core::ManagerKind;
use mempod_sim::{SimConfig, SimReport, Simulator};
use mempod_telemetry::{EventSink, PhaseClock, SpanConfig, Telemetry};
use mempod_trace::{Trace, TraceGenerator, WorkloadSpec};
use mempod_types::SystemConfig;

/// Trace length of every workload under `--smoke`.
pub const SMOKE_REQUESTS: usize = 20_000;

/// One workload: a trace, a manager and a trace length, on the paper's
/// 1 GB HBM + 8 GB DDR4 geometry (the tiny test geometry under `--smoke`).
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Table 3 mix or SPEC benchmark the trace generator imitates.
    trace: &'static str,
    pub manager: ManagerKind,
    requests: usize,
    /// Telemetry on: epoch snapshots, 1 % request spans, every migration.
    pub observed: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mix1_mempod",
        why: "the paper's headline run; loads the MEA epoch sweep, page-swap traffic and the channels in balance; 4 pods allow 2 shards",
        trace: "mix1",
        manager: ManagerKind::MemPod,
        requests: 150_000,
        observed: false,
    },
    Workload {
        name: "mcf_cameo",
        why: "line swaps on most accesses, so on_access and migration start-up dominate; one global remap keeps it at 1 shard",
        trace: "mcf",
        manager: ManagerKind::Cameo,
        requests: 120_000,
        observed: false,
    },
    Workload {
        name: "bwaves_tlm",
        why: "streaming with no migration: admission and DRAM scheduling do the work; the longest trace, so trace generation weighs most in its set-up",
        trace: "bwaves",
        manager: ManagerKind::NoMigration,
        requests: 600_000,
        observed: false,
    },
    Workload {
        name: "mix1_mempod_observed",
        why: "mix1_mempod with telemetry on, the only workload that pays for it; mix1_mempod is its bypass",
        trace: "mix1",
        manager: ManagerKind::MemPod,
        requests: 150_000,
        observed: true,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn requests(&self, smoke: bool) -> usize {
        if smoke {
            SMOKE_REQUESTS
        } else {
            self.requests
        }
    }

    pub fn config(&self, smoke: bool) -> SimConfig {
        let system = if smoke {
            SystemConfig::tiny()
        } else {
            SystemConfig::paper_default()
        };
        SimConfig::new(system, self.manager)
    }

    /// Generates this workload's trace for `seed`.
    pub fn generate(&self, seed: u64, smoke: bool) -> Trace {
        let spec = WorkloadSpec::mix(self.trace)
            .or_else(|| WorkloadSpec::homogeneous(self.trace))
            .expect("workload traces name known generators");
        TraceGenerator::new(spec, seed)
            .take_requests(self.requests(smoke), &self.config(smoke).mgr.geometry)
    }

    /// A simulator for this workload, with telemetry attached when
    /// `observed`; the counter reports the rendered output.
    pub fn simulator(&self, smoke: bool, shards: u32, observed: bool) -> (Simulator, SinkCounts) {
        let sim = Simulator::new(self.config(smoke))
            .expect("workload configurations are valid")
            .with_shards(shards);
        let counts = SinkCounts::default();
        if !observed {
            return (sim, counts);
        }
        let tel = Telemetry::with_sink(Box::new(CountingSink(counts.clone())))
            .with_spans(SpanConfig::default());
        (sim.with_telemetry(tel), counts)
    }
}

/// Lines and bytes a [`CountingSink`] received.
#[derive(Debug, Clone, Default)]
pub struct SinkCounts {
    lines: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
}

impl SinkCounts {
    pub fn lines(&self) -> u64 {
        self.lines.load(Ordering::Relaxed)
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// Renders every event like a real sink, then counts and drops the line,
/// so an observed run pays for telemetry without any I/O.
#[derive(Debug)]
struct CountingSink(SinkCounts);

impl EventSink for CountingSink {
    fn emit(&mut self, line: &str) {
        self.0.lines.fetch_add(1, Ordering::Relaxed);
        self.0.bytes.fetch_add(line.len() as u64, Ordering::Relaxed);
    }
}

/// One timed sample: generate the trace, build the simulator, run it.
#[derive(Debug)]
pub struct Sample {
    /// Trace generation plus `Simulator::new`.
    pub setup_s: f64,
    /// Wall time of `Simulator::run`; for a sharded run, its critical path.
    pub run_s: f64,
    pub report: SimReport,
}

/// Runs one sample.
///
/// With more than one effective shard, the shard phases run one after
/// another on this thread and a [`PhaseClock`] sums admission plus the
/// busiest shard of each barrier interval: the wall time a host with a
/// free core per shard would take. On a host whose other tenants contend
/// for its cores, the threaded wall time varies several times more from
/// run to run than this.
pub fn sample(w: &Workload, seed: u64, smoke: bool, shards: u32) -> Sample {
    let start = Instant::now();
    let trace = w.generate(seed, smoke);
    let (sim, _) = w.simulator(smoke, shards, w.observed);
    let setup_s = start.elapsed().as_secs_f64();
    let effective = sim.effective_shards();
    let clock = Arc::new(PhaseClock::new(effective as usize));
    let sim = if effective > 1 {
        sim.with_serial_shards(true)
            .with_phase_clock(Arc::clone(&clock))
    } else {
        sim
    };
    let start = Instant::now();
    let report = sim.run(&trace);
    let wall_s = start.elapsed().as_secs_f64();
    if let Err(e) = check(&report, trace.len()) {
        panic!("{} at {shards} shard(s): {e}", w.name);
    }
    let run_s = if effective > 1 {
        clock.critical_path_ns() as f64 / 1e9
    } else {
        wall_s
    };
    Sample {
        setup_s,
        run_s,
        report,
    }
}

/// Checks the invariants any correct report satisfies.
pub fn check(r: &SimReport, trace_len: usize) -> Result<(), String> {
    if r.requests != trace_len as u64 {
        return Err(format!(
            "report counts {} requests, trace has {trace_len}",
            r.requests
        ));
    }
    match r.ammat_ns() {
        Some(a) if a.is_finite() && a > 0.0 => {}
        other => return Err(format!("AMMAT is {other:?}")),
    }
    // A page swap injects 128 requests and moves 4 KB; a line swap
    // injects 4 and moves 128 B.
    if r.injected_migration_requests != r.migration.bytes_moved / 32 {
        return Err(format!(
            "{} injected migration requests for {} bytes moved",
            r.injected_migration_requests, r.migration.bytes_moved
        ));
    }
    let served = r.mem_stats.total().requests();
    let issued = r.requests + r.injected_migration_requests + r.injected_meta_requests;
    if served != issued {
        return Err(format!(
            "DRAM served {served} requests, {issued} were issued"
        ));
    }
    let f = &r.faults;
    if f.cancelled || f.degraded_to_sequential || f.shard_panics > 0 {
        return Err(format!("unexpected fault accounting {f:?}"));
    }
    Ok(())
}

/// FNV-1a hash of the serialized report: equal digests mean equal
/// simulated statistics, so a change that only claims speed can show it
/// left the simulation alone.
pub fn digest(r: &SimReport) -> String {
    let text = serde_json::to_string(r).expect("reports serialize");
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}
