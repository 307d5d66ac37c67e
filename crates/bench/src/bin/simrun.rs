//! General-purpose simulation CLI: run any workload under any manager with
//! parameter overrides, and print the full report.
//!
//! ```text
//! cargo run --release -p mempod-bench --bin simrun -- \
//!     --workload mix9 --manager mempod --requests 4000000 \
//!     --epoch-us 50 --mea-entries 64 --mea-bits 2 [--future] [--cache-kb 32]
//! ```
//!
//! With `--timeline PATH` the run also streams a per-epoch JSONL timeline
//! (plus structured migration/stall events) to `PATH`: one `Epoch` line per
//! 50 µs window carrying per-pod migration counts, MEA evictions, queue
//! depth p50/p99, the fast/slow tier service split, and AMMAT-so-far.
//!
//! With `--trace-out PATH` the same event stream is rendered as a Chrome
//! trace-event JSON array — drag it into <https://ui.perfetto.dev> for the
//! migration/request timeline. `--trace-out` implies causal span tracing
//! at the default 1 % request sample; tune with `--span-ppm N`
//! (1000000 = every request) and add per-shard batch tracks with
//! `--exec-spans`. `--spans` turns span tracing on for a JSONL-only run.
//! Both sinks can run together (`--timeline` + `--trace-out` tees the
//! stream), and `--shards N` drives the sharded engine — the causal trace
//! is bit-identical at any accepted shard count.
//!
//! With `--faults PPM` a deterministic fault plan injects mid-swap
//! migration aborts (and, via `--channel-faults PPM`, channel timing
//! faults) at that rate; aborted migrations retry with simulated-time
//! exponential backoff up to three times, then roll back. `--fault-seed N`
//! varies the plan without touching the trace. Fault outcomes are a pure
//! function of the seed, so reruns — at any shard count — reproduce the
//! report bit for bit.
//!
//! Bad input (an unknown flag, workload or manager, a missing,
//! non-integer or out-of-range flag value) prints `error: ...` and exits
//! with status 2.

use std::process::ExitCode;

use mempod_bench::{int, Opts};
use mempod_core::ManagerKind;
use mempod_sim::Simulator;
use mempod_telemetry::{ChromeTraceSink, EventSink, FileSink, SpanConfig, TeeSink, Telemetry};
use mempod_trace::{TraceGenerator, WorkloadSpec};
use mempod_types::{FaultConfig, Picos};

fn parse_manager(s: &str) -> Result<ManagerKind, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "mempod" => ManagerKind::MemPod,
        "hma" => ManagerKind::Hma,
        "thm" => ManagerKind::Thm,
        "cameo" => ManagerKind::Cameo,
        "tlm" | "nomigration" | "none" => ManagerKind::NoMigration,
        "hbm" | "hbmonly" => ManagerKind::HbmOnly,
        "ddr" | "ddronly" => ManagerKind::DdrOnly,
        _ => {
            return Err(format!(
                "unknown manager {s:?}; try mempod|hma|thm|cameo|tlm|hbm|ddr"
            ))
        }
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    // Manual parsing: keep the offline-dependency footprint minimal.
    let mut workload = "mix1".to_string();
    let mut manager = ManagerKind::MemPod;
    let mut requests = 2_000_000usize;
    let mut seed = 7u64;
    let mut epoch_us: Option<u64> = None;
    let mut mea_entries: Option<usize> = None;
    let mut mea_bits: Option<u32> = None;
    let mut cache_kb: Option<u64> = None;
    let mut future = false;
    let mut smoke = false;
    let mut timeline: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut spans = false;
    let mut span_ppm: Option<u32> = None;
    let mut exec_spans = false;
    let mut shards = 1u32;
    let mut fault_ppm: Option<u32> = None;
    let mut channel_fault_ppm: Option<u32> = None;
    let mut fault_seed = 1u64;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = val()?,
            "--manager" => manager = parse_manager(&val()?)?,
            "--requests" => requests = int(&a, &val()?)?,
            "--seed" => seed = int(&a, &val()?)?,
            "--epoch-us" => epoch_us = Some(int(&a, &val()?)?),
            "--mea-entries" => mea_entries = Some(int(&a, &val()?)?),
            "--mea-bits" => mea_bits = Some(int(&a, &val()?)?),
            "--cache-kb" => cache_kb = Some(int(&a, &val()?)?),
            "--future" => future = true,
            "--smoke" => smoke = true,
            "--timeline" => timeline = Some(val()?),
            "--trace-out" => trace_out = Some(val()?),
            "--spans" => spans = true,
            "--span-ppm" => span_ppm = Some(int(&a, &val()?)?),
            "--exec-spans" => exec_spans = true,
            "--shards" => shards = int(&a, &val()?)?,
            "--faults" => fault_ppm = Some(int(&a, &val()?)?),
            "--channel-faults" => channel_fault_ppm = Some(int(&a, &val()?)?),
            "--fault-seed" => fault_seed = int(&a, &val()?)?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let zeros = [
        ("--requests", requests == 0),
        ("--shards", shards == 0),
        ("--epoch-us", epoch_us == Some(0)),
        ("--mea-entries", mea_entries == Some(0)),
    ];
    if let Some((flag, _)) = zeros.iter().find(|(_, zero)| *zero) {
        return Err(format!("{flag} must be at least 1"));
    }
    if let Some(bits) = mea_bits.filter(|b| !(1..=64).contains(b)) {
        return Err(format!("--mea-bits must be between 1 and 64, got {bits}"));
    }

    let opts = Opts {
        smoke,
        requests: Some(requests),
        workloads: None,
        seed,
    };
    // A metadata cache larger than the whole remap table (8 B per page)
    // buys nothing; the bound also keeps the byte count from wrapping.
    let max_cache_bytes = opts.system().geometry.total_pages() * 8;
    let cache_bytes = match cache_kb.map(|kb| kb.checked_mul(1024)) {
        None => None,
        Some(Some(bytes)) if (1..=max_cache_bytes).contains(&bytes) => Some(bytes),
        Some(_) => {
            let max_kb = max_cache_bytes / 1024;
            return Err(format!("--cache-kb must be between 1 and {max_kb}"));
        }
    };
    let spec = WorkloadSpec::homogeneous(&workload)
        .or_else(|| WorkloadSpec::mix(&workload))
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let trace = TraceGenerator::new(spec, seed).take_requests(requests, &opts.system().geometry);

    let mut cfg = opts.sim_config(manager);
    if let Some(us) = epoch_us {
        cfg.mgr.epoch = Picos::from_us(us);
    }
    if let Some(k) = mea_entries {
        cfg.mgr.mea_entries = k;
    }
    if let Some(b) = mea_bits {
        cfg.mgr.mea_counter_bits = b;
    }
    if let Some(bytes) = cache_bytes {
        cfg.mgr.meta_cache_bytes = Some(bytes);
    }
    if future {
        cfg = cfg.into_future_system();
    }
    if fault_ppm.is_some() || channel_fault_ppm.is_some() {
        let mut f = FaultConfig::quiet(fault_seed);
        f.migration_abort_ppm = fault_ppm.unwrap_or(0);
        f.migration_max_retries = 3;
        f.channel_fault_ppm = channel_fault_ppm.unwrap_or(0);
        cfg = cfg.with_faults(f);
    }

    let mut sim = Simulator::new(cfg).map_err(|e| format!("invalid configuration: {e}"))?;
    let jsonl = match &timeline {
        Some(path) => Some(Box::new(
            FileSink::create(path).map_err(|e| format!("cannot open timeline file {path}: {e}"))?,
        ) as Box<dyn EventSink>),
        None => None,
    };
    let chrome = match &trace_out {
        Some(path) => Some(Box::new(
            ChromeTraceSink::create(path)
                .map_err(|e| format!("cannot open trace file {path}: {e}"))?,
        ) as Box<dyn EventSink>),
        None => None,
    };
    let sink = match (jsonl, chrome) {
        (Some(a), Some(b)) => Some(Box::new(TeeSink::new(a, b)) as Box<dyn EventSink>),
        (Some(a), None) => Some(a),
        (None, Some(b)) => Some(b),
        (None, None) => None,
    };
    if let Some(sink) = sink {
        let mut tel = Telemetry::with_sink(sink);
        // A Chrome trace without spans is nearly empty, so --trace-out
        // implies the default 1 % sample; --span-ppm / --spans refine it.
        if spans || span_ppm.is_some() || trace_out.is_some() {
            tel = tel.with_spans(SpanConfig {
                request_sample_ppm: span_ppm.unwrap_or(SpanConfig::default().request_sample_ppm),
                exec_spans,
            });
        }
        sim = sim.with_telemetry(tel);
    }
    if shards > 1 {
        sim = sim.with_shards(shards);
    }
    let report = sim.run(&trace);
    println!(
        "workload   : {} ({} requests, {})",
        workload, report.requests, report.duration
    );
    println!("manager    : {}", report.manager);
    println!(
        "AMMAT      : {:.2} ns",
        report.ammat_ns().expect("non-empty run")
    );
    println!(
        "fast tier  : {:.1}% of requests",
        report.mem_stats.fast_service_fraction() * 100.0
    );
    println!("row hits   : {:.1}%", report.row_hit_rate() * 100.0);
    println!(
        "migrations : {} swaps, {:.1} MB moved over {} intervals",
        report.migration.migrations,
        report.migrated_mb(),
        report.migration.intervals
    );
    if !report.migration.per_pod_bytes.is_empty() {
        let per: Vec<String> = report
            .migration
            .per_pod_bytes
            .iter()
            .map(|b| format!("{:.1}", *b as f64 / (1 << 20) as f64))
            .collect();
        println!("per-pod MB : [{}]", per.join(", "));
    }
    if let Some(path) = &timeline {
        println!(
            "timeline   : {} epoch snapshots -> {path}",
            report.timeline.len().max(
                std::fs::read_to_string(path)
                    .map(|t| t.lines().filter(|l| l.contains("\"Epoch\"")).count())
                    .unwrap_or(0)
            )
        );
    }
    // Always surfaced: a run without an active fault plan prints all
    // zeros, which is itself the assertion that nothing was injected.
    let mut fault_flags = String::new();
    if report.faults.shard_panics > 0 {
        fault_flags.push_str(&format!(" [{} shard panics]", report.faults.shard_panics));
    }
    if report.faults.degraded_to_sequential {
        fault_flags.push_str(" [degraded to sequential]");
    }
    if report.faults.cancelled {
        fault_flags.push_str(" [cancelled]");
    }
    println!(
        "faults     : {} migrations faulted ({} aborts, {} retries, {} rolled back), {} channel faults{}",
        report.faults.migration_faults,
        report.faults.migration_aborts,
        report.faults.migration_retries,
        report.migration.aborted,
        report.faults.channel_faults,
        fault_flags
    );
    if let Some(p) = &report.provenance {
        let skipped = if p.skipped_moves > 0 {
            format!(" ({} moves untracked)", p.skipped_moves)
        } else {
            String::new()
        };
        println!(
            "provenance : {} pages moved {} times, {} ping-pong trips{}",
            p.tracked_pages, p.total_moves, p.ping_pong_trips, skipped
        );
        if let Some(hot) = p.hottest.first() {
            println!(
                "hottest    : page {} ({} moves, {} trips)",
                hot.page, hot.moves, hot.trips
            );
        }
    }
    if let Some(path) = &trace_out {
        println!("trace      : Chrome trace -> {path} (open in ui.perfetto.dev)");
    }
    if let Some(meta) = report.meta_cache {
        println!(
            "meta cache : {:.2}% miss rate over {} lookups",
            meta.miss_rate() * 100.0,
            meta.lookups
        );
    }
    opts.write_json(
        &format!("simrun_{}_{}", workload, report.manager),
        &serde_json::to_value(&report).expect("serializable"),
    );
    Ok(())
}
