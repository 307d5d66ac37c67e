//! Fault-resilience study: how AMMAT and tail queueing degrade as the
//! deterministic fault plan injects migration contention, for MemPod
//! against the HMA / THM / CAMEO baselines.
//!
//! For each manager and each abort rate in the sweep, the same
//! migration-storm trace runs once with a fault plan whose migration-abort
//! and channel-fault rates are set to that many parts per million (aborted
//! migrations retry with simulated-time exponential backoff, up to three
//! times, then roll back). The study reports:
//!
//! * **AMMAT** and its ratio to the manager's own fault-free baseline —
//!   the paper's headline metric under increasing migration contention;
//! * **queue-depth p99** (worst epoch window) from the telemetry timeline —
//!   a tail-latency proxy for how abort/retry storms pile work up behind
//!   the migration lanes;
//! * the fault ledger: faulted migrations, aborts, retries, rollbacks, and
//!   channel-level timing faults.
//!
//! Fault decisions are pure functions of (seed, frames, arrival), so every
//! cell is reproducible bit for bit; shard counts would not change it.
//!
//! Run: `cargo run --release -p mempod-bench --bin bench_faults`
//! (`--smoke` for the CI-scale pass writing `results/bench_faults.smoke.json`,
//! `--requests N` / `--seed N` to rescope).

use mempod_bench::{Opts, TextTable};
use mempod_core::ManagerKind;
use mempod_sim::{SimReport, Simulator};
use mempod_telemetry::{NullSink, Telemetry};
use mempod_types::FaultConfig;

const MANAGERS: [ManagerKind; 4] = [
    ManagerKind::MemPod,
    ManagerKind::Hma,
    ManagerKind::Thm,
    ManagerKind::Cameo,
];

/// Abort rates swept, in parts per million of decided migrations (and of
/// channel decision windows). 0 is the fault-free baseline; 10⁵ is a
/// migration-storm stress point (one abort draw per ten migrations).
const PPM_SWEEP: [u32; 5] = [0, 100, 1_000, 10_000, 100_000];

fn fault_plan(seed: u64, ppm: u32) -> FaultConfig {
    let mut f = FaultConfig::quiet(seed);
    f.migration_abort_ppm = ppm;
    f.migration_max_retries = 3;
    f.channel_fault_ppm = ppm;
    f
}

/// Worst per-epoch queue-depth p99 seen across the run's timeline.
fn worst_queue_p99(report: &SimReport) -> Option<u64> {
    report
        .timeline
        .iter()
        .filter_map(|s| s.queue_depth_p99)
        .max()
}

fn main() {
    let opts = Opts::from_args();
    let requests = opts.requests_or(400_000);
    let spec = mempod_trace::WorkloadSpec::hotcold_demo();
    let trace = opts.trace(&spec, requests);
    println!(
        "Fault-resilience study — {} requests, abort rates {:?} ppm, managers {:?}\n",
        requests,
        PPM_SWEEP,
        MANAGERS.map(|m| m.to_string()),
    );

    let mut table = TextTable::new(&[
        "manager",
        "ppm",
        "AMMAT ns",
        "vs clean",
        "q p99",
        "faulted",
        "aborts",
        "retries",
        "rolled back",
        "chan faults",
    ]);
    let mut rows = Vec::new();
    for kind in MANAGERS {
        let mut baseline_ammat: Option<f64> = None;
        for ppm in PPM_SWEEP {
            let mut cfg = opts.sim_config(kind);
            if ppm > 0 {
                cfg = cfg.with_faults(fault_plan(opts.seed, ppm));
            }
            let report = Simulator::new(cfg)
                .expect("valid configuration")
                .with_telemetry(Telemetry::with_sink(Box::new(NullSink)))
                .run(&trace);
            let ammat = report.ammat_ns().expect("non-empty run");
            if ppm == 0 {
                baseline_ammat = Some(ammat);
            }
            let vs_clean = baseline_ammat.map(|b| ammat / b);
            let p99 = worst_queue_p99(&report);
            table.row(vec![
                kind.to_string(),
                ppm.to_string(),
                format!("{ammat:.2}"),
                vs_clean.map_or("-".into(), |r| format!("{r:.3}x")),
                p99.map_or("-".into(), |d| d.to_string()),
                report.faults.migration_faults.to_string(),
                report.faults.migration_aborts.to_string(),
                report.faults.migration_retries.to_string(),
                report.migration.aborted.to_string(),
                report.faults.channel_faults.to_string(),
            ]);
            rows.push(serde_json::json!({
                "manager": kind.to_string(),
                "abort_ppm": ppm,
                "ammat_ns": ammat,
                "ammat_vs_clean": vs_clean,
                "queue_depth_p99_worst": p99,
                "migrations": report.migration.migrations,
                "migration_faults": report.faults.migration_faults,
                "migration_aborts": report.faults.migration_aborts,
                "migration_retries": report.faults.migration_retries,
                "migrations_rolled_back": report.migration.aborted,
                "channel_faults": report.faults.channel_faults,
            }));
        }
    }
    println!("{}", table.render());

    let json = serde_json::json!({
        "bench": "faults",
        "smoke": opts.smoke,
        "requests": requests,
        "seed": opts.seed,
        "ppm_sweep": PPM_SWEEP.to_vec(),
        "migration_max_retries": 3,
        "results": rows,
        "note": "ammat_vs_clean is each manager's AMMAT divided by its own fault-free \
                 baseline on the same trace; queue_depth_p99_worst is the maximum \
                 per-epoch queue-depth p99 across the telemetry timeline.",
    });
    opts.write_json("bench_faults", &json);
}
