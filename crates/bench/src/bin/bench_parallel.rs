//! Sharded-simulator scaling benchmark: wall clock and critical path of
//! the per-pod sharded event loop vs. a one-shard run, on one large MemPod
//! migration-storm run.
//!
//! For each shard count the benchmark runs the same trace twice:
//!
//! * **threads mode** — the real engine (one worker per shard between
//!   barriers), wall-clock timed. Meaningful as a speedup only when the
//!   machine has at least as many cores as shards;
//! * **serial mode** (`Simulator::with_serial_shards`) — shard phases run
//!   back to back on one thread with exact per-shard busy timing, from
//!   which a [`PhaseClock`] accumulates the **critical path**: admission
//!   time plus, per barrier interval, the busiest shard. Critical path /
//!   one-shard wall is the speedup an adequately provisioned machine
//!   would observe, independent of how many cores this one has.
//!
//! Every run's report is asserted bit-identical to the one-shard run
//! before any number is written. Results land in
//! `BENCH_parallel.json` (`--smoke` for a CI-scale pass writing
//! `BENCH_parallel.smoke.json`; `--requests N`, `--shards a,b,c`,
//! `--out PATH` to rescope).
//!
//! Run: `cargo run --release -p mempod-bench --bin bench_parallel`

use std::sync::Arc;
use std::time::Instant;

use mempod_core::ManagerKind;
use mempod_sim::{SimConfig, SimReport, Simulator};
use mempod_telemetry::PhaseClock;
use mempod_trace::{Trace, TraceGenerator, WorkloadSpec};
use mempod_types::SystemConfig;

struct ParallelOpts {
    smoke: bool,
    requests: usize,
    shards: Vec<u32>,
    out: Option<String>,
}

impl ParallelOpts {
    fn from_args() -> Self {
        let mut opts = ParallelOpts {
            smoke: false,
            requests: 0,
            shards: Vec::new(),
            out: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--smoke" => opts.smoke = true,
                "--requests" => {
                    let v = args.next().expect("--requests needs a value");
                    opts.requests = v.parse().expect("--requests must be an integer");
                }
                "--shards" => {
                    let v = args.next().expect("--shards needs a value");
                    opts.shards = v
                        .split(',')
                        .map(|s| s.parse().expect("--shards must be integers"))
                        .collect();
                }
                "--out" => opts.out = Some(args.next().expect("--out needs a path")),
                other => panic!(
                    "unknown argument {other}; expected --smoke, --requests N, \
                     --shards a,b,c, --out PATH"
                ),
            }
        }
        if opts.requests == 0 {
            opts.requests = if opts.smoke { 60_000 } else { 1_500_000 };
        }
        if opts.shards.is_empty() {
            opts.shards = vec![1, 2, 4];
        }
        opts
    }
}

fn build(shards: u32) -> Simulator {
    let cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::MemPod);
    Simulator::new(cfg).expect("valid").with_shards(shards)
}

struct Sample {
    shards: u32,
    wall_ns: u64,
    admission_ns: u64,
    critical_path_ns: u64,
    barriers: u64,
    shard_busy_ns: Vec<u64>,
}

/// Times one sharded run in both modes and checks it against `reference`.
fn sample(shards: u32, trace: &Trace, reference: &SimReport) -> Sample {
    // Threads mode: the real engine, wall-clock timed.
    let start = Instant::now();
    let threaded = build(shards).run(trace);
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    assert_eq!(
        &threaded, reference,
        "sharded run diverged from the reference at {shards} shards"
    );

    if shards <= 1 {
        // One shard has nothing to overlap; its critical path is its wall
        // clock.
        return Sample {
            shards,
            wall_ns,
            admission_ns: wall_ns,
            critical_path_ns: wall_ns,
            barriers: 0,
            shard_busy_ns: vec![wall_ns],
        };
    }

    // Serial mode: exact per-shard busy times for the critical path.
    let clock = Arc::new(PhaseClock::new(shards as usize));
    let serial = build(shards)
        .with_serial_shards(true)
        .with_phase_clock(Arc::clone(&clock))
        .run(trace);
    assert_eq!(
        &serial, reference,
        "serial-shards run diverged from the reference at {shards} shards"
    );
    Sample {
        shards,
        wall_ns,
        admission_ns: clock.admission_ns(),
        critical_path_ns: clock.critical_path_ns(),
        barriers: clock.barriers(),
        shard_busy_ns: clock.shard_busy_ns(),
    }
}

fn main() {
    let opts = ParallelOpts::from_args();
    let sys = SystemConfig::tiny();
    let trace = TraceGenerator::new(WorkloadSpec::hotcold_demo(), 97)
        .take_requests(opts.requests, &sys.geometry);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "Sharded-simulator scaling — MemPod, {} requests, shard counts {:?}, {} cores\n",
        opts.requests, opts.shards, cores
    );

    let reference = build(1).run(&trace);
    assert!(
        reference.migration.migrations > 0,
        "the scaling workload must migrate"
    );

    let samples: Vec<Sample> = opts
        .shards
        .iter()
        .map(|&s| sample(s, &trace, &reference))
        .collect();
    let base = samples
        .iter()
        .find(|s| s.shards == 1)
        .map_or_else(|| samples[0].wall_ns, |s| s.wall_ns) as f64;

    let mut results = Vec::new();
    for s in &samples {
        let crit_speedup = base / s.critical_path_ns.max(1) as f64;
        let wall_speedup = base / s.wall_ns.max(1) as f64;
        println!(
            "  {} shard(s): wall {:>8.1} ms  critical path {:>8.1} ms  \
             (speedup {:.2}x critical, {:.2}x wall, {} barriers)",
            s.shards,
            s.wall_ns as f64 / 1e6,
            s.critical_path_ns as f64 / 1e6,
            crit_speedup,
            wall_speedup,
            s.barriers,
        );
        results.push(serde_json::json!({
            "shards": s.shards,
            "wall_ns": s.wall_ns,
            "admission_ns": s.admission_ns,
            "critical_path_ns": s.critical_path_ns,
            "barriers": s.barriers,
            "shard_busy_ns": s.shard_busy_ns,
            "speedup_critical": crit_speedup,
            "speedup_wall": wall_speedup,
        }));
    }

    let at = |k: u32, f: &dyn Fn(&Sample) -> f64| samples.iter().find(|s| s.shards == k).map(f);
    let speedup_at_4 = at(4, &|s| base / s.critical_path_ns.max(1) as f64);
    let wall_speedup_at_4 = at(4, &|s| base / s.wall_ns.max(1) as f64);

    let json = serde_json::json!({
        "bench": "parallel_shards",
        "smoke": opts.smoke,
        "manager": "MemPod",
        "requests": opts.requests,
        "cores": cores,
        "results": results,
        "speedup_at_4": speedup_at_4,
        "wall_speedup_at_4": wall_speedup_at_4,
        "note": "speedup_critical = one-shard wall / (admission + per-barrier max shard busy), \
                 measured with serial shard phases; it is the end-to-end speedup a machine with \
                 cores >= shards would observe. speedup_wall is this machine's actual wall-clock \
                 ratio and is only meaningful when cores >= shards.",
    });
    let path = opts.out.unwrap_or_else(|| {
        if opts.smoke {
            "BENCH_parallel.smoke.json".into()
        } else {
            "BENCH_parallel.json".into()
        }
    });
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&json).expect("serialize"),
    )
    .expect("write benchmark output");
    if let Some(s) = speedup_at_4 {
        println!("\nCritical-path speedup at 4 shards: {s:.2}x");
    }
    println!("Wrote {path}");
}
