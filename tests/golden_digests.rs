//! Golden report digests: each run below pins the FNV-1a digest of its
//! serialized [`SimReport`], so any change to a simulated decision,
//! statistic or timing constant shows up here — even one that two event
//! loops or two scheduler paths would reproduce identically (say, a
//! precomputed DRAM latency that rounds differently from the cycle count
//! it replaces).
//!
//! The digests are regenerated only deliberately, by a change that means
//! to alter the simulation: a mismatch prints the whole table as
//! measured, ready to paste over `GOLDEN`.

use mempod_suite::core::ManagerKind;
use mempod_suite::sim::{SimConfig, SimReport, Simulator};
use mempod_suite::trace::{Trace, TraceGenerator, WorkloadSpec};
use mempod_suite::types::{FaultConfig, SystemConfig};

const REQUESTS: usize = 20_000;
/// Requested shard count; each run resolves it to its largest safe count.
const MAX_SHARDS: u32 = 8;

/// FNV-1a over the report's JSON (the benchmark's `report_digest`).
fn digest(r: &SimReport) -> String {
    let text = serde_json::to_string(r).expect("reports serialize");
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

fn trace() -> Trace {
    TraceGenerator::new(WorkloadSpec::hotcold_demo(), 97)
        .take_requests(REQUESTS, &SystemConfig::tiny().geometry)
}

/// The storm fault plan of `tests/sharding.rs`: 10 % of migrations abort
/// mid-swap (up to two retries), 2 % of channel windows are perturbed.
fn storm_faults(seed: u64) -> FaultConfig {
    let mut f = FaultConfig::quiet(seed);
    f.migration_abort_ppm = 100_000;
    f.migration_max_retries = 2;
    f.channel_fault_ppm = 20_000;
    f
}

/// Runs `cfg` at one shard and at its largest effective shard count, and
/// returns the shared digest with that count (the two reports must match).
fn run_both(cfg: &SimConfig, t: &Trace, label: &str) -> (String, u32) {
    let one = Simulator::new(cfg.clone()).expect("valid").run(t);
    let sharded = Simulator::new(cfg.clone())
        .expect("valid")
        .with_shards(MAX_SHARDS);
    let shards = sharded.effective_shards();
    let many = sharded.run(t);
    assert_eq!(one, many, "{label}: 1 vs {shards} shards diverged");
    (digest(&one), shards)
}

/// `(label, expected digest, expected effective shard count)`.
const GOLDEN: &[(&str, &str, u32)] = &[
    ("MemPod", "43d1a7d1fb3a7bb5", 4),
    ("HMA", "36093cd7e85a3874", 1),
    ("THM", "8f6fe915c412cdff", 1),
    ("CAMEO", "e80392aa8c2b9c5e", 1),
    ("TLM", "495a277117770a35", 4),
    ("HBM-only", "691c031bf0731c55", 8),
    ("DDR-only", "1a4dd30f044750bf", 4),
    ("MemPod+faults", "23ca94e5287dbda5", 4),
    ("MemPod+future", "8512b74777ed5c4e", 4),
];

#[test]
fn reports_match_their_golden_digests() {
    let t = trace();
    let sys = SystemConfig::tiny();
    let mut runs: Vec<(String, SimConfig)> = ManagerKind::all()
        .into_iter()
        .map(|kind| (kind.to_string(), SimConfig::new(sys.clone(), kind)))
        .collect();
    runs.push((
        "MemPod+faults".into(),
        SimConfig::new(sys.clone(), ManagerKind::MemPod).with_faults(storm_faults(7)),
    ));
    runs.push((
        "MemPod+future".into(),
        SimConfig::new(sys, ManagerKind::MemPod).into_future_system(),
    ));

    let got: Vec<(String, String, u32)> = runs
        .iter()
        .map(|(label, cfg)| {
            let (d, shards) = run_both(cfg, &t, label);
            (label.clone(), d, shards)
        })
        .collect();
    let matches = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN)
            .all(|((label, d, shards), want)| (label.as_str(), d.as_str(), *shards) == *want);
    let table: String = got
        .iter()
        .map(|(label, d, shards)| format!("    ({label:?}, {d:?}, {shards}),\n"))
        .collect();
    assert!(matches, "report digests changed; measured:\n{table}");
}
