//! The [`MemoryManager`] trait, shared configuration, and the factory.

use mempod_types::convert::usize_from_u32;
use mempod_types::{FrameId, Geometry, MemRequest, Picos, TrackerKind};
use serde::Serialize;
use std::fmt;

use crate::cameo::CameoManager;
use crate::hma::HmaManager;
use crate::mempod::MemPodManager;
use crate::meta_cache::MetaCacheStats;
use crate::migration::Migration;
use crate::segment::SegmentLayout;
use crate::statics::StaticManager;
use crate::thm::ThmManager;

/// Which migration mechanism manages the two-level memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ManagerKind {
    /// The paper's contribution (§5).
    MemPod,
    /// HW/SW epoch migration with full counters (Meswani et al.).
    Hma,
    /// Transparent hardware management with segments (Sim et al.).
    Thm,
    /// Line-granularity congruence-group swapping (Chou et al.).
    Cameo,
    /// Two-level memory, static placement, no migration (the "TLM" baseline).
    NoMigration,
    /// All memory is stacked HBM (upper-bound baseline).
    HbmOnly,
    /// All memory is off-chip DDR (Fig. 10's normalization baseline).
    DdrOnly,
}

impl ManagerKind {
    /// All kinds, in the paper's comparison order.
    pub fn all() -> [ManagerKind; 7] {
        [
            ManagerKind::MemPod,
            ManagerKind::Hma,
            ManagerKind::Thm,
            ManagerKind::Cameo,
            ManagerKind::NoMigration,
            ManagerKind::HbmOnly,
            ManagerKind::DdrOnly,
        ]
    }

    /// Whether this kind performs migrations at all.
    pub fn migrates(self) -> bool {
        matches!(
            self,
            ManagerKind::MemPod | ManagerKind::Hma | ManagerKind::Thm | ManagerKind::Cameo
        )
    }
}

impl fmt::Display for ManagerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ManagerKind::MemPod => "MemPod",
            ManagerKind::Hma => "HMA",
            ManagerKind::Thm => "THM",
            ManagerKind::Cameo => "CAMEO",
            ManagerKind::NoMigration => "TLM",
            ManagerKind::HbmOnly => "HBM-only",
            ManagerKind::DdrOnly => "DDR-only",
        };
        write!(f, "{s}")
    }
}

/// Configuration shared by all managers (each reads the fields it needs).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ManagerConfig {
    /// Memory layout.
    pub geometry: Geometry,
    /// MemPod migration interval (the paper's best: 50 µs).
    pub epoch: Picos,
    /// MEA entries per pod (paper: 64).
    pub mea_entries: usize,
    /// MEA counter width in bits (paper: 2).
    pub mea_counter_bits: u32,
    /// HMA migration interval (paper: 100 ms).
    pub hma_interval: Picos,
    /// HMA per-interval counter-sort stall (paper: a "generous" 7 ms).
    pub hma_sort_penalty: Picos,
    /// HMA hotness threshold: pages below it are not migrated.
    pub hma_hot_threshold: u64,
    /// Safety cap on HMA migrations per interval.
    pub hma_max_migrations: usize,
    /// THM competing-counter threshold. High enough that one spatial burst
    /// through a page (a few dozen line accesses) does not by itself force
    /// a swap — THM's trigger is meant to capture *repeated* hotness.
    pub thm_threshold: u32,
    /// Total on-chip metadata cache in bytes (`None` = free metadata, as in
    /// the paper's Fig. 8).
    pub meta_cache_bytes: Option<u64>,
    /// Enable CAMEO's Line Location Predictor: bookkeeping lives in memory
    /// and each LLP misprediction costs one blocking metadata read. With
    /// the predictor disabled (default), CAMEO's bookkeeping is free, as in
    /// the paper's Fig. 8 runs.
    pub cameo_llp: bool,
    /// THM's segment layout. [`SegmentLayout::Strided`] (default) matches
    /// the congruence-group arithmetic used throughout the suite;
    /// [`SegmentLayout::Blocked`] is Sim et al.'s original layout
    /// (consecutive slow pages per segment — contiguous hot regions
    /// conflict over one fast slot). On this suite's physically-scattered
    /// synthetic traces the two behave almost identically; Blocked matters
    /// when replaying traces with real address-space contiguity.
    pub thm_layout: SegmentLayout,
    /// Which per-pod activity tracker MemPod uses. [`TrackerKind::Mea`] is
    /// the paper's design; [`TrackerKind::FullCounters`] is the ablation
    /// that ties the §3 offline study to end-to-end AMMAT (exact per-page
    /// counts, top-K per pod per epoch, same migration budget).
    pub mempod_tracker: TrackerKind,
}

impl ManagerConfig {
    /// The paper's full-scale configuration.
    pub fn paper_default() -> Self {
        ManagerConfig {
            geometry: Geometry::paper_default(),
            epoch: Picos::from_us(50),
            mea_entries: 64,
            mea_counter_bits: 2,
            hma_interval: Picos::from_ms(100),
            hma_sort_penalty: Picos::from_ms(7),
            hma_hot_threshold: 64,
            hma_max_migrations: 8192,
            thm_threshold: 64,
            meta_cache_bytes: None,
            cameo_llp: false,
            thm_layout: SegmentLayout::Strided,
            mempod_tracker: TrackerKind::Mea,
        }
    }

    /// A scaled-down configuration matching [`Geometry::tiny`] for tests.
    pub fn tiny() -> Self {
        ManagerConfig {
            geometry: Geometry::tiny(),
            hma_interval: Picos::from_ms(1),
            hma_sort_penalty: Picos::from_us(70),
            ..ManagerConfig::paper_default()
        }
    }
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig::paper_default()
    }
}

/// What a manager decided about one access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Physical frame to service the access from (post-remap).
    pub frame: FrameId,
    /// Line within the frame (differs from the request's own line only for
    /// line-granularity managers like CAMEO).
    pub line_in_page: u32,
    /// Migrations triggered by this access (epoch boundary crossed, CAMEO
    /// swap, THM threshold, ...), already applied to the manager's mapping;
    /// the simulator executes their timing consequences.
    pub migrations: Vec<Migration>,
    /// Manager-imposed stall before the access may issue (HMA's sort
    /// freeze).
    pub stall: Picos,
    /// Whether a metadata-cache miss occurred (costs one blocking memory
    /// read in the simulator).
    pub meta_miss: bool,
}

impl AccessOutcome {
    /// An outcome with no side effects.
    pub fn plain(frame: FrameId, line_in_page: u32) -> Self {
        AccessOutcome {
            frame,
            line_in_page,
            migrations: Vec::new(),
            stall: Picos::ZERO,
            meta_miss: false,
        }
    }
}

/// Aggregate migration accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MigrationStats {
    /// Number of swaps performed.
    pub migrations: u64,
    /// Bytes moved (both directions of every swap).
    pub bytes_moved: u64,
    /// Bytes moved per pod (empty for non-clustered managers).
    pub per_pod_bytes: Vec<u64>,
    /// Migration intervals elapsed (for per-interval averages).
    pub intervals: u64,
    /// Migrations rolled back after exhausting their fault-retry budget
    /// (0 unless a fault plan injects migration aborts).
    pub aborted: u64,
}

impl MigrationStats {
    /// Records one migration.
    pub fn record(&mut self, m: &Migration) {
        self.migrations += 1;
        self.bytes_moved += m.bytes_moved();
        if let Some(pod) = m.pod {
            let pod = usize_from_u32(pod);
            if self.per_pod_bytes.len() <= pod {
                self.per_pod_bytes.resize(pod + 1, 0);
            }
            self.per_pod_bytes[pod] += m.bytes_moved();
        }
    }

    /// Mean migrations per interval (0 if no interval has elapsed).
    pub fn migrations_per_interval(&self) -> f64 {
        if self.intervals == 0 {
            0.0
        } else {
            self.migrations as f64 / self.intervals as f64
        }
    }
}

/// A flat-address-space migration policy.
///
/// Implementations translate original pages to physical frames, observe the
/// access stream, and emit migrations at their trigger points. They keep
/// their remap state consistent *immediately* (the swap's timing cost is the
/// simulator's job).
pub trait MemoryManager {
    /// Observes and translates one access.
    fn on_access(&mut self, req: &MemRequest) -> AccessOutcome;

    /// Which mechanism this is.
    fn kind(&self) -> ManagerKind;

    /// Migration accounting so far.
    fn migration_stats(&self) -> &MigrationStats;

    /// Metadata-cache statistics, if a cache is configured.
    fn meta_cache_stats(&self) -> Option<MetaCacheStats> {
        None
    }

    /// Where the given original page currently resides (for invariant
    /// checking in tests; implementations must answer without side effects).
    fn frame_of_page(&self, page: mempod_types::PageId) -> FrameId;

    /// Undoes a migration this manager emitted, restoring the address map
    /// to exactly its pre-swap state (the swap is a transposition, so the
    /// rollback is the same transposition applied again). Called by the
    /// simulator when an injected fault aborts the migration permanently,
    /// *immediately* after the triggering batch was emitted and before any
    /// later access consults the map. Returns whether the manager performed
    /// a rollback; the default refuses, which suits the static baselines
    /// (they never migrate, so there is nothing to roll back).
    fn rollback_migration(&mut self, m: &Migration) -> bool {
        let _ = m;
        false
    }

    /// States this manager's structural invariants against `auditor`
    /// (remap bijection, frame-ownership conservation, ...). With the
    /// `debug-invariants` feature on, the simulator calls it after every
    /// 8th access that starts a migration and at the end of the run; the
    /// default states nothing, which suits the static baselines.
    /// Implementations must answer without side effects.
    fn audit_invariants(&self, auditor: &mut mempod_audit::InvariantAuditor) {
        let _ = auditor;
    }

    /// How many independent *migration domains* this manager's decisions
    /// respect. A sharded simulator may partition pages/frames into `d`
    /// residue classes (`index % d`) only when every migration, remap, and
    /// metadata fetch this manager triggers stays inside one class:
    ///
    /// - MemPod swaps strictly within pods and its remap is pod-preserving
    ///   (audited under `debug-invariants`), so it reports the pod count;
    /// - the static baselines never migrate or meta-miss and report
    ///   [`u32::MAX`], meaning "unconstrained — any partition is safe";
    /// - the conservative default of 1 suits managers whose swaps cross
    ///   the whole address space (HMA, THM, CAMEO).
    ///
    /// The answer must be constant for the manager's lifetime; the sharded
    /// event loop reads it once at setup to size its shard plan.
    fn migration_domains(&self) -> u32 {
        1
    }

    /// Appends this manager's *cumulative* telemetry counters as
    /// `(name, value)` pairs (e.g. MEA eviction totals, interval counts).
    /// The epoch snapshot driver polls this at epoch boundaries and diffs
    /// successive values, so implementations must only ever report
    /// monotonically non-decreasing counts, without side effects. The
    /// default reports nothing, which suits the static baselines.
    fn telemetry_counters(&self, out: &mut Vec<(&'static str, u64)>) {
        let _ = out;
    }
}

/// Builds a manager of the requested kind.
pub fn build_manager(kind: ManagerKind, cfg: &ManagerConfig) -> Box<dyn MemoryManager> {
    match kind {
        ManagerKind::MemPod => Box::new(MemPodManager::new(cfg)),
        ManagerKind::Hma => Box::new(HmaManager::new(cfg)),
        ManagerKind::Thm => Box::new(ThmManager::new(cfg)),
        ManagerKind::Cameo => Box::new(CameoManager::new(cfg)),
        ManagerKind::NoMigration | ManagerKind::HbmOnly | ManagerKind::DdrOnly => {
            Box::new(StaticManager::new(kind, cfg))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_display_and_migrate_flags() {
        assert_eq!(ManagerKind::MemPod.to_string(), "MemPod");
        assert_eq!(ManagerKind::NoMigration.to_string(), "TLM");
        assert!(ManagerKind::Cameo.migrates());
        assert!(!ManagerKind::HbmOnly.migrates());
        assert_eq!(ManagerKind::all().len(), 7);
    }

    #[test]
    fn stats_record_per_pod() {
        let mut s = MigrationStats::default();
        let m = Migration::page_swap(
            FrameId(0),
            FrameId(4),
            Default::default(),
            Default::default(),
            Some(2),
        );
        s.record(&m);
        s.record(&m);
        assert_eq!(s.migrations, 2);
        assert_eq!(s.bytes_moved, 2 * 4096);
        assert_eq!(s.per_pod_bytes, vec![0, 0, 2 * 4096]);
        s.intervals = 4;
        assert!((s.migrations_per_interval() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn factory_builds_every_kind() {
        let cfg = ManagerConfig::tiny();
        for kind in ManagerKind::all() {
            let m = build_manager(kind, &cfg);
            assert_eq!(m.kind(), kind);
        }
    }

    #[test]
    fn migration_domains_follow_the_clustering_structure() {
        let cfg = ManagerConfig::tiny();
        for kind in ManagerKind::all() {
            let m = build_manager(kind, &cfg);
            let domains = m.migration_domains();
            match kind {
                ManagerKind::MemPod => assert_eq!(domains, cfg.geometry.pods()),
                ManagerKind::Hma | ManagerKind::Thm | ManagerKind::Cameo => {
                    assert_eq!(domains, 1, "{kind} swaps cross the whole space")
                }
                _ => assert_eq!(domains, u32::MAX, "{kind} is unconstrained"),
            }
        }
    }

    #[test]
    fn telemetry_counters_are_named_and_static_baselines_report_none() {
        let cfg = ManagerConfig::tiny();
        for kind in ManagerKind::all() {
            let m = build_manager(kind, &cfg);
            let mut out = Vec::new();
            m.telemetry_counters(&mut out);
            if kind.migrates() {
                assert!(!out.is_empty(), "{kind} should expose counters");
            } else {
                assert!(out.is_empty(), "{kind} is static, expected none");
            }
            // Polling must be side-effect free and stable.
            let mut again = Vec::new();
            m.telemetry_counters(&mut again);
            assert_eq!(out, again);
        }
    }
}
