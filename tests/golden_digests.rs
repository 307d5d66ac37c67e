//! Golden report digests: each run below pins the FNV-1a digest of its
//! serialized [`SimReport`], so any change to a simulated decision,
//! statistic or timing constant shows up here — even one that every
//! shard count or both scheduler paths would reproduce identically (say, a
//! precomputed DRAM latency that rounds differently from the cycle count
//! it replaces).
//!
//! Every run is also a shard-count differential: it executes at one shard
//! and at its largest effective shard count, and the two reports (and, for
//! the observed run, the sorted telemetry streams) must match before the
//! digest is compared.
//!
//! The digests are regenerated only deliberately, by a change that means
//! to alter the simulation: a mismatch prints the whole table as
//! measured, ready to paste over the table it came from.

use mempod_suite::core::ManagerKind;
use mempod_suite::sim::{SimConfig, SimReport, Simulator};
use mempod_suite::trace::{Trace, TraceGenerator, WorkloadSpec};
use mempod_suite::types::{FaultConfig, SystemConfig};
use mempod_telemetry::{MemorySink, SpanConfig, Telemetry};

const REQUESTS: usize = 20_000;
/// Requested shard count; each run resolves it to its largest safe count.
const MAX_SHARDS: u32 = 8;

/// FNV-1a over `text` (the benchmark's `report_digest` when `text` is a
/// report's JSON).
fn fnv1a(text: &str) -> String {
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

fn digest(r: &SimReport) -> String {
    fnv1a(&serde_json::to_string(r).expect("reports serialize"))
}

fn workload_trace(spec: WorkloadSpec) -> Trace {
    TraceGenerator::new(spec, 97).take_requests(REQUESTS, &SystemConfig::tiny().geometry)
}

fn trace() -> Trace {
    workload_trace(WorkloadSpec::hotcold_demo())
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
type Golden = [(&'static str, &'static str, u32)];

/// Compares measured rows against `want`, printing the measured table on
/// any mismatch.
fn assert_table(got: &[(String, String, u32)], want: &Golden) {
    let matches = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((label, d, shards), want)| (label.as_str(), d.as_str(), *shards) == *want);
    let table: String = got
        .iter()
        .map(|(label, d, shards)| format!("    ({label:?}, {d:?}, {shards}),\n"))
        .collect();
    assert!(matches, "report digests changed; measured:\n{table}");
}

/// `(label, expected digest, expected effective shard count)`.
const GOLDEN: &Golden = &[
    ("MemPod", "43d1a7d1fb3a7bb5", 4),
    ("HMA", "36093cd7e85a3874", 1),
    ("THM", "8f6fe915c412cdff", 1),
    ("CAMEO", "e80392aa8c2b9c5e", 1),
    ("TLM", "495a277117770a35", 4),
    ("HBM-only", "691c031bf0731c55", 8),
    ("DDR-only", "1a4dd30f044750bf", 4),
    ("MemPod+faults", "a9e3a3acb0397f0e", 4),
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
    assert_table(&got, GOLDEN);
}

/// Workloads beyond hot/cold — a Table 3 mix, a streaming trace and a
/// pointer-chasing one — and the storm fault plan at more seeds.
const GOLDEN_WORKLOADS: &Golden = &[
    ("MemPod on mix1", "12ccebd5ae801752", 4),
    ("MemPod on bwaves", "65ced71febcde82e", 4),
    ("CAMEO on mcf", "70893ffc69f8e83f", 1),
    ("MemPod+faults seed 11", "2237b15b983ee3cf", 4),
    ("MemPod+faults seed 23", "1457a30d715ddf19", 4),
];

#[test]
fn workloads_and_fault_seeds_match_their_golden_digests() {
    let sys = SystemConfig::tiny();
    let hotcold = trace();
    let workload = |name: &str| {
        workload_trace(
            WorkloadSpec::mix(name)
                .or_else(|| WorkloadSpec::homogeneous(name))
                .expect("known workload"),
        )
    };
    let runs: Vec<(&str, SimConfig, Trace)> = vec![
        (
            "MemPod on mix1",
            SimConfig::new(sys.clone(), ManagerKind::MemPod),
            workload("mix1"),
        ),
        (
            "MemPod on bwaves",
            SimConfig::new(sys.clone(), ManagerKind::MemPod),
            workload("bwaves"),
        ),
        (
            "CAMEO on mcf",
            SimConfig::new(sys.clone(), ManagerKind::Cameo),
            workload("mcf"),
        ),
        (
            "MemPod+faults seed 11",
            SimConfig::new(sys.clone(), ManagerKind::MemPod).with_faults(storm_faults(11)),
            hotcold.clone(),
        ),
        (
            "MemPod+faults seed 23",
            SimConfig::new(sys, ManagerKind::MemPod).with_faults(storm_faults(23)),
            hotcold,
        ),
    ];
    let got: Vec<(String, String, u32)> = runs
        .iter()
        .map(|(label, cfg, t)| {
            let (d, shards) = run_both(cfg, t, label);
            ((*label).to_string(), d, shards)
        })
        .collect();
    assert_table(&got, GOLDEN_WORKLOADS);
}

/// A MemPod run with telemetry and full causal span tracing: the report
/// digest (timeline included), the digest of the sorted sink lines, and
/// the digests of the sink stream in the order it was emitted at one shard
/// and at the largest shard count (which pin the barrier merge's order).
const GOLDEN_OBSERVED: &Golden = &[
    ("MemPod observed: report", "8c3995050facca95", 4),
    ("MemPod observed: sorted lines", "49550d154a4c0c6e", 4),
    ("MemPod observed: emitted lines", "b0d4f3074a2f606a", 1),
    ("MemPod observed: emitted lines", "29799d1e4f0b58c0", 4),
];

#[test]
fn observed_run_matches_its_golden_digests() {
    let t = trace();
    let cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::MemPod);
    let run = |shards: u32| {
        let sink = MemorySink::new();
        let lines = sink.handle();
        let sim = Simulator::new(cfg.clone())
            .expect("valid")
            .with_shards(shards)
            .with_telemetry(Telemetry::with_sink(Box::new(sink)).with_spans(SpanConfig::full()));
        let effective = sim.effective_shards();
        let report = sim.run(&t);
        let mut lines = lines.lock().expect("sink mutex").clone();
        let emitted = fnv1a(&lines.join("\n"));
        // Shards merge their events per barrier interval in
        // timestamp-then-shard order, which may permute same-instant lines
        // against a one-shard run: compare them as multisets.
        lines.sort();
        (report, lines, emitted, effective)
    };
    let (one, one_lines, one_emitted, _) = run(1);
    let (many, many_lines, many_emitted, shards) = run(MAX_SHARDS);
    assert!(!one.timeline.is_empty(), "the timeline was recorded");
    assert_eq!(one, many, "1 vs {shards} shards diverged");
    assert_eq!(one_lines, many_lines, "1 vs {shards} shards: sink lines");
    let got = vec![
        ("MemPod observed: report".to_string(), digest(&one), shards),
        (
            "MemPod observed: sorted lines".to_string(),
            fnv1a(&one_lines.join("\n")),
            shards,
        ),
        ("MemPod observed: emitted lines".to_string(), one_emitted, 1),
        (
            "MemPod observed: emitted lines".to_string(),
            many_emitted,
            shards,
        ),
    ];
    assert_table(&got, GOLDEN_OBSERVED);
}
