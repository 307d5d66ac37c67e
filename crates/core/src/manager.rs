//! The [`MemoryManager`] trait, shared configuration, and the factory.

use mempod_types::convert::usize_from_u32;
use mempod_types::{FrameId, Geometry, MemRequest, Picos, TrackerKind};
use serde::Serialize;
use std::fmt;

use crate::cameo::{CameoManager, LLP_ENTRIES};
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

    /// Adds one part's accounting to this merge of a manager's parts (see
    /// [`build_parts`]). Counts and bytes add up, and the per-pod
    /// breakdowns add element-wise. `intervals` takes the maximum: an
    /// interval is global time, which every part counts.
    pub fn merge(&mut self, part: &MigrationStats) {
        self.migrations += part.migrations;
        self.bytes_moved += part.bytes_moved;
        if self.per_pod_bytes.len() < part.per_pod_bytes.len() {
            self.per_pod_bytes.resize(part.per_pod_bytes.len(), 0);
        }
        for (sum, b) in self.per_pod_bytes.iter_mut().zip(&part.per_pod_bytes) {
            *sum += b;
        }
        self.intervals = self.intervals.max(part.intervals);
        self.aborted += part.aborted;
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
///
/// A manager whose decisions stay inside residue classes can be built as
/// one part per class ([`build_parts`]), so that each simulator shard runs
/// its own part. A part is driven by two calls per trace request:
/// [`advance_to`](MemoryManager::advance_to) at *every* request's arrival,
/// which fires the interval work due by then, and
/// [`on_access`](MemoryManager::on_access) for the requests of its own
/// class only. A whole manager needs only `on_access`, which advances
/// itself.
pub trait MemoryManager: Send {
    /// Observes and translates one access. On a whole manager this first
    /// runs every interval boundary the arrival has reached, as
    /// [`advance_to`](MemoryManager::advance_to) would, and returns those
    /// swaps ahead of the access's own. A part must only be handed the
    /// accesses of its own residue class.
    fn on_access(&mut self, req: &MemRequest) -> AccessOutcome;

    /// Runs the interval work (MemPod's epoch sweep) of every boundary
    /// at or before `now`, appending its swaps to `out` in commit order.
    /// Called at every request's arrival, whatever its class, so each part
    /// fires a boundary at the first arrival at or after it, exactly where
    /// the whole manager does. The default has no interval work.
    fn advance_to(&mut self, now: Picos, out: &mut Vec<Migration>) {
        let _ = (now, out);
    }

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
    /// Implementations may update their own audit bookkeeping (what the
    /// next audit still has to check) but nothing a run can observe.
    fn audit_invariants(&mut self, auditor: &mut mempod_audit::InvariantAuditor) {
        let _ = auditor;
    }

    /// Appends this manager's *cumulative* telemetry counters as
    /// `(name, value)` pairs (e.g. MEA eviction totals, interval counts).
    /// The parts of a manager report counters that sum to the whole's, so
    /// a count of global intervals comes from one part only. The epoch
    /// snapshot driver polls this at epoch boundaries and diffs successive
    /// values, so implementations must only ever report monotonically
    /// non-decreasing counts, without side effects. The default reports
    /// nothing, which suits the static baselines.
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

/// How many independent *migration domains* `kind` has under `cfg`. A
/// sharded simulator may partition pages/frames into `d` residue classes
/// (`index % d`) only when every migration, remap, and metadata fetch the
/// manager triggers stays inside one class:
///
/// - MemPod swaps strictly within pods and keeps one remap slice per pod,
///   so it reports the pod count;
/// - CAMEO's congruence group `g` holds the line units `g + k·F`, where
///   `F` is the fast-line count and `F / 32` the fast-frame count, so
///   member `k` sits in frame and page `⌊g/32⌋ + k·(F/32)`. Whenever a
///   class count divides the fast-frame count, every frame and page of
///   the group lies in class `⌊g/32⌋`, and the LLP's metadata fetch goes
///   to a pod-local backing frame, so CAMEO reports the pod count too.
///   With the LLP on, each predictor counter must also stay in one class:
///   a counter is indexed by the low bits of `g × odd`, which fix
///   `g mod entries` and nothing more, and the class reads bits 5 and up
///   of `g`, so only power-of-two counts of at most `entries / 32` qualify;
/// - HMA and THM report 1: HMA's swaps cross the whole address space and
///   THM's page swaps carry no pod;
/// - the static baselines never migrate or meta-miss and report
///   [`u32::MAX`], meaning "unconstrained: any partition is safe".
///
/// Under `debug-invariants` each simulator shard checks its part's
/// decisions: every access it admits and every swap it commits must lie
/// wholly in the shard's residue class.
pub fn migration_domains(kind: ManagerKind, cfg: &ManagerConfig) -> u32 {
    let pods = cfg.geometry.pods();
    match kind {
        ManagerKind::MemPod => pods,
        ManagerKind::Cameo if cfg.cameo_llp => {
            let pow2 = pods & pods.wrapping_neg();
            pow2.min(u32::try_from(LLP_ENTRIES / 32).unwrap_or(u32::MAX))
        }
        ManagerKind::Cameo => pods,
        ManagerKind::Hma | ManagerKind::Thm => 1,
        ManagerKind::NoMigration | ManagerKind::HbmOnly | ManagerKind::DdrOnly => u32::MAX,
    }
}

/// Builds a manager of the requested kind as `parts` fresh parts, one per
/// residue class: part `s` owns the pages, frames and migration domains
/// whose index is `≡ s (mod parts)`, and nothing of another class. MemPod
/// part `s` holds the pods `p` with `p % parts == s`; CAMEO and the static
/// placements build `parts` copies of the whole manager, each of which
/// only ever sees its own class's accesses. The parts'
/// [`migration_stats`](MemoryManager::migration_stats) merge to a whole
/// manager's through [`MigrationStats::merge`], their
/// [`meta_cache_stats`](MemoryManager::meta_cache_stats) through
/// [`MetaCacheStats::merge`], and their
/// [`telemetry_counters`](MemoryManager::telemetry_counters) by summing
/// same-named values.
///
/// # Panics
///
/// Panics if `parts` is zero, is not 1 for the one-domain managers (HMA,
/// THM), or does not divide [`migration_domains`] for MemPod and CAMEO
/// (any count suits the static placements).
pub fn build_parts(
    kind: ManagerKind,
    cfg: &ManagerConfig,
    parts: u32,
) -> Vec<Box<dyn MemoryManager>> {
    match kind {
        ManagerKind::Hma | ManagerKind::Thm => assert_eq!(
            parts, 1,
            "{kind} is one migration domain and cannot split into {parts} parts"
        ),
        ManagerKind::MemPod | ManagerKind::Cameo => {
            let domains = migration_domains(kind, cfg);
            assert!(
                parts >= 1 && domains.is_multiple_of(parts),
                "{kind}'s {domains} migration domains cannot split into {parts} parts"
            );
        }
        ManagerKind::NoMigration | ManagerKind::HbmOnly | ManagerKind::DdrOnly => {
            assert!(parts >= 1, "a manager needs at least one part");
        }
    }
    match kind {
        ManagerKind::MemPod => (0..parts)
            .map(|s| Box::new(MemPodManager::part(cfg, s, parts)) as Box<dyn MemoryManager>)
            .collect(),
        _ => (0..parts).map(|_| build_manager(kind, cfg)).collect(),
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
            let domains = migration_domains(kind, &cfg);
            match kind {
                ManagerKind::MemPod | ManagerKind::Cameo => {
                    assert_eq!(
                        domains,
                        cfg.geometry.pods(),
                        "{kind} swaps stay pod-aligned"
                    )
                }
                ManagerKind::Hma | ManagerKind::Thm => {
                    assert_eq!(domains, 1, "{kind} swaps cross the whole space")
                }
                _ => assert_eq!(domains, u32::MAX, "{kind} is unconstrained"),
            }
        }
    }

    /// A storm over a small hot set of slow pages plus uniform noise, one
    /// request every 250 ns.
    fn storm(cfg: &ManagerConfig, n: u64) -> Vec<MemRequest> {
        use mempod_types::{AccessKind, Addr, CoreId, PAGE_SIZE};
        let geo = cfg.geometry;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let page = if x.is_multiple_of(4) {
                    x % geo.total_pages()
                } else {
                    geo.fast_pages() + (x >> 8) % 48 * 7
                };
                let addr = Addr(page * PAGE_SIZE as u64 + (x >> 32) % 2048);
                MemRequest::new(addr, AccessKind::Read, Picos::from_ns(250 * i), CoreId(0))
            })
            .collect()
    }

    /// Drives a whole manager and, from the first request on, `parts`
    /// fresh parts: every part advances at every arrival and translates
    /// its own class's accesses (`page % parts`), as a shard does. The
    /// parts must decide what the whole decides, and their accounting must
    /// merge back to the whole's.
    fn parts_match_the_whole(kind: ManagerKind, cfg: &ManagerConfig, parts: u32) {
        let mut whole = build_manager(kind, cfg);
        let mut built = build_parts(kind, cfg, parts);
        assert_eq!(built.len(), usize_from_u32(parts));
        let key = |m: &Migration| (m.pod, m.frame_a, m.frame_b);
        for r in storm(cfg, 40_000) {
            let want = whole.on_access(&r);
            let class = usize::try_from(r.addr.page().0 % u64::from(parts)).unwrap();
            let mut swaps = Vec::new();
            for (s, part) in built.iter_mut().enumerate() {
                if s == class {
                    let got = part.on_access(&r);
                    assert_eq!((got.frame, got.meta_miss), (want.frame, want.meta_miss));
                    swaps.extend(got.migrations);
                } else {
                    part.advance_to(r.arrival, &mut swaps);
                }
            }
            let mut want = want.migrations;
            want.sort_by_key(key);
            swaps.sort_by_key(key);
            assert_eq!(swaps, want, "{kind}: swaps at {:?}", r.arrival);
        }
        let mut stats = MigrationStats::default();
        let mut meta: Option<MetaCacheStats> = None;
        for part in &built {
            stats.merge(part.migration_stats());
            if let Some(m) = part.meta_cache_stats() {
                meta.get_or_insert_with(MetaCacheStats::default).merge(&m);
            }
        }
        let mut counters: Vec<(&'static str, u64)> = Vec::new();
        let mut part_counters = Vec::new();
        for part in &built {
            part.telemetry_counters(&mut part_counters);
            for (name, v) in part_counters.drain(..) {
                match counters.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, sum)) => *sum += v,
                    None => counters.push((name, v)),
                }
            }
        }
        let mut want_counters = Vec::new();
        whole.telemetry_counters(&mut want_counters);
        assert_eq!(counters, want_counters, "{kind}: summed counters");
        assert_eq!(&stats, whole.migration_stats(), "{kind}: merged stats");
        assert_eq!(meta, whole.meta_cache_stats(), "{kind}: merged cache stats");
        assert!(stats.migrations > 0, "{kind}: the storm migrates");
    }

    #[test]
    fn parts_decide_what_the_whole_decides() {
        let mut cfg = ManagerConfig::tiny();
        cfg.meta_cache_bytes = Some(8 << 10);
        parts_match_the_whole(ManagerKind::MemPod, &cfg, 2);
        parts_match_the_whole(ManagerKind::MemPod, &cfg, 4);
        cfg.cameo_llp = true;
        parts_match_the_whole(ManagerKind::Cameo, &cfg, 4);
    }

    #[test]
    #[should_panic(expected = "THM is one migration domain and cannot split into 2 parts")]
    fn a_one_domain_manager_refuses_to_split() {
        let _ = build_parts(ManagerKind::Thm, &ManagerConfig::tiny(), 2);
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
