//! Exercises the runtime invariant auditor across every migrating manager.
//!
//! Compiled only with `cargo test --features debug-invariants`: the
//! `audit_invariants` overrides and the simulator's epoch-boundary sampling
//! are no-ops (or absent) without the feature.
#![cfg(feature = "debug-invariants")]

use mempod_audit::InvariantAuditor;
use mempod_core::{build_manager, ManagerConfig, ManagerKind};
use mempod_sim::{SimConfig, Simulator};
use mempod_trace::{TraceGenerator, WorkloadSpec};
use mempod_types::{SystemConfig, Tier};

const MIGRATING: [ManagerKind; 4] = [
    ManagerKind::MemPod,
    ManagerKind::Hma,
    ManagerKind::Thm,
    ManagerKind::Cameo,
];

/// Drives each manager directly with a deterministic access storm and asks
/// it to state its invariants; every check must pass and every manager must
/// actually run checks (a silent no-op would hide regressions).
#[test]
fn every_migrating_manager_audits_clean_after_a_storm() {
    let mut cfg = ManagerConfig::tiny();
    // Uniform noise alone never crosses HMA's/THM's hotness thresholds;
    // lower them and skew the storm so every mechanism actually migrates.
    cfg.thm_threshold = 8;
    cfg.hma_hot_threshold = 16;
    let geo = cfg.geometry;
    let hot: Vec<u64> = (0..32u64).map(|i| geo.fast_pages() + i * 7).collect();
    for kind in MIGRATING {
        let mut mgr = build_manager(kind, &cfg);
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut t = mempod_types::Picos::ZERO;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // 3/4 of accesses hammer a small hot set of slow pages.
            let page = if !x.is_multiple_of(4) {
                hot[(x >> 8) as usize % hot.len()]
            } else {
                x % geo.total_pages()
            };
            let req = mempod_types::MemRequest::new(
                mempod_types::Addr(page * mempod_types::PAGE_SIZE as u64 + (x >> 32) % 2048),
                if x & 4 == 0 {
                    mempod_types::AccessKind::Write
                } else {
                    mempod_types::AccessKind::Read
                },
                t,
                mempod_types::CoreId(0),
            );
            let _ = mgr.on_access(&req);
            t += mempod_types::Picos::from_ns(250);
        }
        assert!(
            mgr.migration_stats().migrations > 0,
            "{kind}: storm must trigger migrations for the audit to be meaningful"
        );
        let mut auditor = InvariantAuditor::every_epoch(format!("{kind} storm"));
        assert!(auditor.should_sample());
        mgr.audit_invariants(&mut auditor);
        assert!(
            auditor.checks_run() >= 3,
            "{kind}: expected several invariant checks, ran {}",
            auditor.checks_run()
        );
        auditor.assert_clean();
    }
}

/// End-to-end: `Simulator::run` audits the manager after every 8th request
/// that starts a migration and the shards at every batch barrier, and
/// asserts cleanliness itself — a violated invariant would panic the run.
#[test]
fn simulator_runs_audit_clean_for_all_migrating_managers() {
    let trace = TraceGenerator::new(WorkloadSpec::hotcold_demo(), 7)
        .take_requests(40_000, &SystemConfig::tiny().geometry);
    for kind in MIGRATING {
        let mut cfg = SimConfig::new(SystemConfig::tiny(), kind);
        // Tighten the interval/threshold knobs so the short test trace
        // crosses each mechanism's migration trigger (HMA's default 1 ms
        // interval would otherwise never elapse here).
        cfg.mgr.hma_interval = mempod_types::Picos::from_us(50);
        cfg.mgr.hma_sort_penalty = mempod_types::Picos::from_us(5);
        cfg.mgr.hma_hot_threshold = 16;
        cfg.mgr.thm_threshold = 8;
        let report = Simulator::new(cfg).expect("valid config").run(&trace);
        assert!(report.migration.migrations > 0, "{kind}");
    }
}

/// A migration storm with injected mid-swap aborts (rate far above 1e-3)
/// must complete with zero address-map corruption: under this feature the
/// simulator audits manager invariants after every 8th request that starts
/// a migration (rollbacks included) and panics the run on any violation, so
/// rollbacks that left the RemapTable or SegmentMap torn would fail here.
#[test]
fn faulted_storms_audit_clean_for_all_migrating_managers() {
    use mempod_types::FaultConfig;
    let trace = TraceGenerator::new(WorkloadSpec::hotcold_demo(), 7)
        .take_requests(40_000, &SystemConfig::tiny().geometry);
    let mut faults = FaultConfig::quiet(3);
    faults.migration_abort_ppm = 200_000;
    faults.migration_max_retries = 1;
    faults.channel_fault_ppm = 10_000;
    for kind in MIGRATING {
        let mut cfg = SimConfig::new(SystemConfig::tiny(), kind).with_faults(faults);
        cfg.mgr.hma_interval = mempod_types::Picos::from_us(50);
        cfg.mgr.hma_sort_penalty = mempod_types::Picos::from_us(5);
        cfg.mgr.hma_hot_threshold = 16;
        cfg.mgr.thm_threshold = 8;
        let report = Simulator::new(cfg).expect("valid config").run(&trace);
        assert!(report.migration.migrations > 0, "{kind}");
        assert!(
            report.faults.migration_faults > 0,
            "{kind}: the fault plan must actually fire"
        );
        assert!(
            report.migration.aborted > 0,
            "{kind}: some retry budgets must exhaust into rollbacks"
        );
    }
}

/// The auditor reports broken state: corrupt a remap-style mapping and the
/// bijection check must flag it (guards against the auditor rubber-stamping).
#[test]
fn auditor_detects_a_broken_bijection() {
    let mut auditor = InvariantAuditor::every_epoch("negative control");
    // Frame 1 appears twice; frame 0 never — not a permutation.
    auditor.check_bijection("corrupted remap", [1u64, 1, 2, 3], 4);
    assert!(!auditor.is_clean());
    assert!(auditor.violations()[0].contains("not a bijection"));
}

/// Sanity link between the audit surface and geometry: the tiny config the
/// storm uses really has both tiers, so ownership checks cover fast frames.
#[test]
fn storm_geometry_has_fast_and_slow_tiers() {
    let geo = ManagerConfig::tiny().geometry;
    assert!(geo.fast_pages() > 0);
    assert_eq!(geo.tier_of_page(mempod_types::PageId(0)), Tier::Fast);
    assert_eq!(
        geo.tier_of_page(mempod_types::PageId(geo.fast_pages())),
        Tier::Slow
    );
}
