//! The contracts of the per-shard manager parts that reach beyond one
//! shard. A sharded run builds one part per shard from the configuration
//! (`build_parts`); nothing splits a running manager. A whole manager
//! replayed over a trace migrates what a sharded run reports, and the
//! metadata-miss runs, counted over every shard's requests in trace
//! order, come out the same at every shard count.

use mempod_suite::core::{build_manager, ManagerKind};
use mempod_suite::sim::{SimConfig, SimReport, Simulator};
use mempod_suite::trace::{Trace, TraceGenerator, WorkloadSpec};
use mempod_suite::types::{Picos, SystemConfig};
use mempod_telemetry::{MemorySink, SpanConfig, Telemetry};

/// Requested shard count; each run resolves it to its largest safe count.
const MAX_SHARDS: u32 = 8;

fn mix1_trace(sys: &SystemConfig, n: usize) -> Trace {
    TraceGenerator::new(
        WorkloadSpec::mix("mix1").expect("mix1 is a Table 3 mix"),
        97,
    )
    .take_requests(n, &sys.geometry)
}

/// MemPod with a 16 KB metadata cache (4 KB per pod).
fn cached_mempod() -> SimConfig {
    let mut sys = SystemConfig::tiny();
    sys.metadata_cache_bytes = Some(16 << 10);
    SimConfig::new(sys, ManagerKind::MemPod)
}

/// CAMEO with its Line Location Predictor.
fn cameo_llp() -> SimConfig {
    let mut cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::Cameo);
    cfg.mgr.cameo_llp = true;
    cfg
}

/// HMA on a 100 µs interval with a low hotness bar, so that a short trace
/// crosses intervals and migrates.
fn fast_hma(sys: SystemConfig) -> SimConfig {
    let mut cfg = SimConfig::new(sys, ManagerKind::Hma);
    cfg.mgr.hma_interval = Picos::from_us(100);
    cfg.mgr.hma_sort_penalty = Picos::from_us(10);
    cfg.mgr.hma_hot_threshold = 8;
    cfg
}

/// Runs `cfg` at `shards` requested shards; returns the report and the
/// effective shard count.
fn run_at(cfg: &SimConfig, t: &Trace, shards: u32) -> (SimReport, u32) {
    let sim = Simulator::new(cfg.clone())
        .expect("valid")
        .with_shards(shards);
    let effective = sim.effective_shards();
    (sim.run(t), effective)
}

/// A whole manager from `build_manager`, replayed with `on_access` over a
/// trace, migrates exactly what `Simulator::run` reports, at one shard and
/// at the largest effective shard count. This is the contract the
/// benchmark's traced pass checks ("replayed migrations"): the whole
/// manager's `on_access` fires its own epochs, and the parts a sharded run
/// builds must fire theirs where it does.
#[test]
fn whole_manager_replay_migrates_what_the_simulator_reports() {
    let sys = SystemConfig::tiny();
    let t = mix1_trace(&sys, 40_000);
    let cameo = SimConfig::new(sys.clone(), ManagerKind::Cameo);
    let runs = [
        (
            "MemPod",
            SimConfig::new(sys.clone(), ManagerKind::MemPod),
            4,
        ),
        ("MemPod+cache", cached_mempod(), 4),
        ("CAMEO", cameo, 4),
        ("CAMEO+LLP", cameo_llp(), 4),
        ("THM", SimConfig::new(sys.clone(), ManagerKind::Thm), 1),
        ("HMA", fast_hma(sys), 1),
    ];
    for (label, cfg, max_effective) in runs {
        let mut mgr = build_manager(cfg.manager, &cfg.mgr);
        for req in t.requests() {
            let _ = mgr.on_access(req);
        }
        let replayed = mgr.migration_stats();
        assert!(replayed.migrations > 0, "{label}: the trace must migrate");
        let mut reports = Vec::new();
        for (shards, want) in [(1, 1), (MAX_SHARDS, max_effective)] {
            let (r, effective) = run_at(&cfg, &t, shards);
            assert_eq!(effective, want, "{label}: effective shard count");
            assert_eq!(
                (r.migration.migrations, r.migration.bytes_moved),
                (replayed.migrations, replayed.bytes_moved),
                "{label} at {effective} shards: migrations and bytes vs the replay"
            );
            reports.push(r);
        }
        assert_eq!(reports[0], reports[1], "{label}: 1 vs max shards");
    }
}

/// The metadata-miss run is the one piece of telemetry state that spans
/// shards: it counts consecutive misses over every shard's requests in
/// trace order, and the barrier rebuilds it from each shard's miss ticks.
/// Cached MemPod and CAMEO with its LLP must give the same report and the
/// same (sorted) sink lines, bursts included, at one shard and at the
/// largest effective shard count.
#[test]
fn metadata_miss_bursts_match_across_shard_counts() {
    let t = mix1_trace(&SystemConfig::tiny(), 30_000);
    for (label, cfg) in [
        ("MemPod+cache", cached_mempod()),
        ("CAMEO+LLP", cameo_llp()),
    ] {
        let run = |shards: u32| {
            let sink = MemorySink::new();
            let lines = sink.handle();
            let sim = Simulator::new(cfg.clone())
                .expect("valid")
                .with_shards(shards)
                .with_telemetry(
                    Telemetry::with_sink(Box::new(sink)).with_spans(SpanConfig::full()),
                );
            let effective = sim.effective_shards();
            let report = sim.run(&t);
            let mut lines = lines.lock().expect("sink mutex").clone();
            lines.sort();
            (report, lines, effective)
        };
        let (one, one_lines, _) = run(1);
        let (many, many_lines, shards) = run(MAX_SHARDS);
        assert_eq!(shards, 4, "{label}: runs sharded");
        assert!(one.injected_meta_requests > 0, "{label}: metadata fetches");
        assert!(
            one_lines.iter().any(|l| l.contains("\"MetaMissBurst\"")),
            "{label}: the stream holds a metadata-miss burst"
        );
        assert_eq!(one, many, "{label}: 1 vs {shards} shards: report");
        assert_eq!(
            one_lines, many_lines,
            "{label}: 1 vs {shards} shards: sink lines"
        );
    }
}

/// Every swap any manager commits pairs a fast frame with a slow one, so
/// its two frames never share a channel (the tiers' channels are
/// disjoint). The engine relies on this to submit a swap phase frame by
/// frame: with the frames on different channels, that queues each
/// channel's lines in the order a line-by-line loop alternating between
/// the frames would.
#[test]
fn every_swap_pairs_a_fast_frame_with_a_slow_one() {
    let sys = SystemConfig::tiny();
    let t = mix1_trace(&sys, 40_000);
    let fast_pages = sys.geometry.fast_pages();
    let runs = [
        ("MemPod", SimConfig::new(sys.clone(), ManagerKind::MemPod)),
        ("MemPod+cache", cached_mempod()),
        ("CAMEO", SimConfig::new(sys.clone(), ManagerKind::Cameo)),
        ("CAMEO+LLP", cameo_llp()),
        ("THM", SimConfig::new(sys.clone(), ManagerKind::Thm)),
        ("HMA", fast_hma(sys.clone())),
    ];
    // Every migrating kind is covered.
    for kind in ManagerKind::all().into_iter().filter(|k| k.migrates()) {
        assert!(
            runs.iter().any(|(_, cfg)| cfg.manager == kind),
            "{kind} untested"
        );
    }
    for (label, cfg) in runs {
        let mut mgr = build_manager(cfg.manager, &cfg.mgr);
        let mut swaps = 0u64;
        for req in t.requests() {
            for m in mgr.on_access(req).migrations {
                assert_ne!(
                    m.frame_a.0 < fast_pages,
                    m.frame_b.0 < fast_pages,
                    "{label}: swap {m:?} stays in one tier"
                );
                swaps += 1;
            }
        }
        assert!(swaps > 0, "{label}: the trace must migrate");
    }
}
