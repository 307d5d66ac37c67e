//! Differential tests for the sharded event loop: under migration storms,
//! any accepted shard count must reproduce the sequential report bit for
//! bit, for every migrating manager.

use mempod_suite::core::ManagerKind;
use mempod_suite::dram::{DramTiming, Interleave, MemLayout};
use mempod_suite::sim::{SimConfig, SimReport, Simulator};
use mempod_suite::trace::{TraceGenerator, WorkloadSpec};
use mempod_suite::types::{FaultConfig, Geometry, Picos, SystemConfig};

fn storm_run(sys: &SystemConfig, kind: ManagerKind, n: usize, shards: u32) -> SimReport {
    // A hot/cold working set churns enough pages past the trackers to keep
    // every epoch's migration budget busy — the storm the shard barriers
    // have to serialize correctly.
    let t = TraceGenerator::new(WorkloadSpec::hotcold_demo(), 97).take_requests(n, &sys.geometry);
    Simulator::new(SimConfig::new(sys.clone(), kind))
        .expect("valid")
        .with_shards(shards)
        .run(&t)
}

/// A storm fault plan: 10 % of migrations suffer mid-swap aborts (with up
/// to two simulated-time retries) and 2 % of channel windows take a timing
/// perturbation.
fn storm_faults(seed: u64) -> FaultConfig {
    let mut f = FaultConfig::quiet(seed);
    f.migration_abort_ppm = 100_000;
    f.migration_max_retries = 2;
    f.channel_fault_ppm = 20_000;
    f
}

fn faulted_storm_run(sys: &SystemConfig, kind: ManagerKind, n: usize, shards: u32) -> SimReport {
    let t = TraceGenerator::new(WorkloadSpec::hotcold_demo(), 97).take_requests(n, &sys.geometry);
    Simulator::new(SimConfig::new(sys.clone(), kind).with_faults(storm_faults(7)))
        .expect("valid")
        .with_shards(shards)
        .run(&t)
}

/// Fault decisions are a pure function of (seed, frames, arrival), decided
/// at admission — so a faulted run must stay bit-identical across shard
/// counts exactly like a clean one. Fast version over the managers that
/// really shard (MemPod's page swaps, CAMEO's line swaps); the slow-tests
/// variant below covers every migrating manager.
#[test]
fn injected_faults_preserve_shard_equivalence() {
    let sys = SystemConfig::tiny();
    for kind in [ManagerKind::MemPod, ManagerKind::Cameo] {
        let reference = faulted_storm_run(&sys, kind, 20_000, 1);
        assert!(
            reference.faults.migration_faults > 0,
            "{kind}: the plan must actually fault migrations (got {:?})",
            reference.faults
        );
        assert!(reference.faults.migration_aborts >= reference.faults.migration_faults);
        assert!(reference.faults.channel_faults > 0);
        for shards in [2u32, 4, 8] {
            let sharded = faulted_storm_run(&sys, kind, 20_000, shards);
            assert_eq!(
                reference, sharded,
                "{kind}: faulted run diverged at {shards} shards"
            );
        }
    }
}

#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "slow (4 managers x 4 shard counts x 60k faulted requests); run with --features slow-tests"
)]
fn faulted_migration_storms_are_identical_across_shard_counts() {
    let sys = SystemConfig::tiny();
    for kind in [
        ManagerKind::MemPod,
        ManagerKind::Hma,
        ManagerKind::Thm,
        ManagerKind::Cameo,
    ] {
        let reference = faulted_storm_run(&sys, kind, 60_000, 1);
        assert!(
            reference.faults.migration_faults > 0,
            "{kind}: the plan must fault some migrations"
        );
        for shards in [2u32, 4, 8] {
            let sharded = faulted_storm_run(&sys, kind, 60_000, shards);
            assert_eq!(reference, sharded, "{kind} diverged at {shards} shards");
        }
    }
}

/// With every migration doomed (abort rate 100 %, zero retries), every
/// decided swap must be rolled back at admission — the run completes with
/// the address map never holding a committed swap, and the manager's
/// `aborted` count matching its `migrations` count exactly.
#[test]
fn all_permanent_aborts_roll_back_every_migration() {
    let sys = SystemConfig::tiny();
    let mut f = FaultConfig::quiet(11);
    f.migration_abort_ppm = 1_000_000;
    f.migration_max_retries = 0;
    let t =
        TraceGenerator::new(WorkloadSpec::hotcold_demo(), 97).take_requests(20_000, &sys.geometry);
    for kind in [ManagerKind::MemPod, ManagerKind::Thm, ManagerKind::Cameo] {
        for shards in [1u32, 4] {
            let r = Simulator::new(SimConfig::new(sys.clone(), kind).with_faults(f))
                .expect("valid")
                .with_shards(shards)
                .run(&t);
            assert_eq!(r.requests, 20_000, "{kind}@{shards}");
            assert!(
                r.migration.migrations > 0,
                "{kind}@{shards}: storm must migrate"
            );
            assert_eq!(
                r.migration.aborted, r.migration.migrations,
                "{kind}@{shards}: every migration must roll back"
            );
            assert_eq!(r.faults.migration_faults, r.migration.migrations);
            // Aborts: each doomed migration fails its single allowed
            // attempt at least once.
            assert!(r.faults.migration_aborts >= r.migration.migrations);
        }
    }
}

#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "slow (4 managers x 4 shard counts x 60k requests); run with --features slow-tests"
)]
fn migration_storm_reports_are_identical_across_shard_counts() {
    let sys = SystemConfig::tiny();
    for kind in [
        ManagerKind::MemPod,
        ManagerKind::Hma,
        ManagerKind::Thm,
        ManagerKind::Cameo,
    ] {
        let reference = storm_run(&sys, kind, 60_000, 1);
        assert!(
            reference.migration.migrations > 0,
            "{kind}: the storm must actually migrate"
        );
        for shards in [2u32, 4, 8] {
            let sharded = storm_run(&sys, kind, 60_000, shards);
            assert_eq!(reference, sharded, "{kind} diverged at {shards} shards");
        }
    }
}

#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "slow (2 x 50k-request runs on an 8-pod system); run with --features slow-tests"
)]
fn eight_pod_system_shards_eight_ways() {
    // The tiny system caps at 4 shards (4 slow channels, 4 pods); an 8-pod
    // geometry over 8+8 channels exercises the widest split.
    let mut sys = SystemConfig::tiny();
    sys.geometry = Geometry::new(4 << 20, 32 << 20, 8).expect("8 pods divide the tiny capacities");
    let geo = sys.geometry;
    let layout = MemLayout {
        fast_frames: geo.fast_pages(),
        slow_frames: geo.slow_pages(),
        fast_channels: 8,
        slow_channels: 8,
        fast_timing: DramTiming::hbm(),
        slow_timing: DramTiming::ddr4_1600(),
        ctrl_latency: Picos::from_ns(10),
        interleave: Interleave::PageFrame,
    };
    let trace = TraceGenerator::new(WorkloadSpec::hotcold_demo(), 97).take_requests(50_000, &geo);
    let run = |shards: u32| {
        Simulator::with_layout(SimConfig::new(sys.clone(), ManagerKind::MemPod), layout)
            .expect("valid")
            .with_shards(shards)
            .run(&trace)
    };
    let eight = Simulator::with_layout(SimConfig::new(sys.clone(), ManagerKind::MemPod), layout)
        .expect("valid")
        .with_shards(8);
    assert_eq!(eight.effective_shards(), 8, "8 pods over 8+8 channels");
    let reference = run(1);
    assert!(reference.migration.migrations > 0);
    assert_eq!(reference, eight.run(&trace));
}
