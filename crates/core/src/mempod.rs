//! The MemPod manager (paper §5): clustered, MEA-driven page migration.
//!
//! Memory controllers are clustered into pods; each pod independently
//! tracks its pages with a small MEA map and, at every interval (50 µs),
//! migrates up to K hot pages into its own fast frames. Key behaviours from
//! the paper implemented here:
//!
//! * migration is **intra-pod only** (pages and frames share a pod by index
//!   residue, so swaps cannot leak across pods);
//! * hot pages already in fast memory are ignored;
//! * the eviction candidate scan is a **clock hand** over the pod's fast
//!   frames: "starts at the very first fast memory location and iterates
//!   sequentially until it detects a page address that is not in the set of
//!   hottest pages. For the next migration \[it\] simply continues where it
//!   left off" (§5.2) — which is also what co-locates simultaneously-hot
//!   pages in the same DRAM row (the libquantum effect, §6.3.2);
//! * an optional per-pod metadata cache holds remap entries (§6.3.3);
//! * each pod keeps its own slice of the remap table, so the pods can be
//!   dealt out to independent parts (one per simulator shard).

use mempod_tracker::{ActivityTracker, FullCounters, MeaTracker};
use mempod_types::convert::{u32_from_u64, u64_from_u32, usize_from_u32};
use mempod_types::{FrameId, Geometry, MemRequest, PageId, Picos, Tier, TrackerKind};

use crate::manager::{AccessOutcome, ManagerConfig, ManagerKind, MemoryManager, MigrationStats};
use crate::meta_cache::{MetaCache, MetaCacheStats};
use crate::migration::Migration;
use crate::remap::RemapTable;

/// A pod's activity tracker: the paper's MEA map, or exact counters for
/// the tracker ablation (same per-epoch migration budget either way).
#[derive(Debug, Clone)]
enum PodTracker {
    Mea(MeaTracker),
    Full(FullCounters, usize),
}

impl PodTracker {
    fn record(&mut self, page: PageId) {
        match self {
            PodTracker::Mea(t) => t.record(page),
            PodTracker::Full(t, _) => t.record(page),
        }
    }

    /// The epoch's migration candidates, hottest first, capped at K.
    fn hot_pages(&self) -> Vec<(PageId, u64)> {
        match self {
            PodTracker::Mea(t) => t.hot_pages(),
            PodTracker::Full(t, k) => t.top_n(*k),
        }
    }

    fn reset(&mut self) {
        match self {
            PodTracker::Mea(t) => t.reset(),
            PodTracker::Full(t, _) => t.reset(),
        }
    }

    /// Cumulative MEA hardware-operation counts (survive `reset`), if this
    /// pod runs an MEA tracker.
    fn mea_op_stats(&self) -> Option<mempod_tracker::MeaOpStats> {
        match self {
            PodTracker::Mea(t) => Some(t.op_stats()),
            PodTracker::Full(..) => None,
        }
    }
}

/// Per-pod migration state: the pod's tracker, its clock hand, its slice
/// of the remap table and its metadata cache.
#[derive(Debug, Clone)]
struct Pod {
    id: u32,
    tracker: PodTracker,
    /// Clock hand over the pod's fast-frame indices.
    hand: u64,
    /// The pod's pages and frames, indexed pod-locally: page `p` is entry
    /// `p / pods`, and local frame `i` is frame `i·pods + id`. Pages and
    /// frames of a pod share its residue, so a swap can never leave it.
    remap: RemapTable,
    /// The pod's metadata cache, if one is configured.
    meta: Option<MetaCache>,
}

impl Pod {
    /// The frame holding this pod's page of pod-local index `local`.
    fn frame_of(&self, local: u64, pods: u64) -> FrameId {
        FrameId(self.remap.frame_of(PageId(local)).0 * pods + u64::from(self.id))
    }

    /// The page held by this pod's `i`-th frame.
    fn page_in(&self, i: u64, pods: u64) -> PageId {
        PageId(self.remap.page_in(FrameId(i)).0 * pods + u64::from(self.id))
    }

    /// Exchanges the contents of two of this pod's frames and invalidates
    /// both pages' cached metadata entries, whose in-memory remap entries
    /// changed.
    fn swap(&mut self, m: &Migration, pods: u64) {
        self.remap
            .swap_frames(FrameId(m.frame_a.0 / pods), FrameId(m.frame_b.0 / pods));
        if let Some(cache) = &mut self.meta {
            cache.invalidate(m.page_a.0);
            cache.invalidate(m.page_b.0);
        }
    }
}

/// The MemPod migration manager.
///
/// The whole manager holds every pod; each part that
/// [`build_parts`](crate::build_parts) builds holds the pods of one
/// residue class (`pod % parts`), each with its tracker, clock hand, remap
/// slice and metadata cache.
///
/// # Examples
///
/// ```
/// use mempod_core::{ManagerConfig, MemoryManager, MemPodManager};
/// use mempod_types::{AccessKind, Addr, CoreId, MemRequest, Picos, PageId};
///
/// let mut mgr = MemPodManager::new(&ManagerConfig::tiny());
/// let hot = Addr(PageId(10_000).base_addr().0); // a slow page
/// // Hammer it for one epoch, then cross the boundary:
/// for i in 0..100u64 {
///     let t = Picos::from_ns(i * 400);
///     mgr.on_access(&MemRequest::new(hot, AccessKind::Read, t, CoreId(0)));
/// }
/// let late = MemRequest::new(hot, AccessKind::Read, Picos::from_us(51), CoreId(0));
/// let out = mgr.on_access(&late);
/// assert!(!out.migrations.is_empty()); // the hot page moved to fast memory
/// ```
#[derive(Debug)]
pub struct MemPodManager {
    geo: Geometry,
    /// The pod count, for the pod-local index arithmetic.
    pod_count: u64,
    /// This part's pods, in id order: pod `p` sits at `p / parts`.
    pods: Vec<Pod>,
    /// The residue class this part owns, and the class count (0 and 1 for
    /// a whole manager).
    part: u32,
    parts: u32,
    epoch: Picos,
    next_epoch: Picos,
    stats: MigrationStats,
}

impl MemPodManager {
    /// Builds a MemPod manager from the shared configuration: part 0 of 1.
    pub fn new(cfg: &ManagerConfig) -> Self {
        Self::part(cfg, 0, 1)
    }

    /// Builds part `part` of `parts`: the pods `p` with
    /// `p % parts == part`, and the epoch clock every part keeps.
    pub(crate) fn part(cfg: &ManagerConfig, part: u32, parts: u32) -> Self {
        let geo = cfg.geometry;
        let meta_per_pod = cfg
            .meta_cache_bytes
            .map(|total| (total / u64_from_u32(geo.pods())).max(64));
        let pods = (part..geo.pods())
            .step_by(usize_from_u32(parts))
            .map(|id| Pod {
                id,
                tracker: match cfg.mempod_tracker {
                    TrackerKind::Mea => {
                        PodTracker::Mea(MeaTracker::new(cfg.mea_entries, cfg.mea_counter_bits))
                    }
                    TrackerKind::FullCounters => {
                        PodTracker::Full(FullCounters::new(geo.total_pages(), 16), cfg.mea_entries)
                    }
                },
                hand: 0,
                remap: RemapTable::identity(geo.pages_per_pod()),
                meta: meta_per_pod.map(|bytes| MetaCache::new(bytes, 8)),
            })
            .collect();
        MemPodManager {
            geo,
            pod_count: u64_from_u32(geo.pods()),
            pods,
            part,
            parts,
            epoch: cfg.epoch,
            next_epoch: cfg.epoch,
            stats: MigrationStats {
                per_pod_bytes: vec![0; usize_from_u32(geo.pods())],
                ..MigrationStats::default()
            },
        }
    }

    /// The migration interval.
    pub fn epoch(&self) -> Picos {
        self.epoch
    }

    /// `page`'s pod and its index among the pod's pages. Pod counts are
    /// powers of two in every configuration the paper uses, which a mask
    /// and a shift serve without a division.
    #[inline]
    fn locate(&self, page: PageId) -> (u32, u64) {
        let pods = self.pod_count;
        if pods.is_power_of_two() {
            (
                u32_from_u64(page.0 & (pods - 1)),
                page.0 >> pods.trailing_zeros(),
            )
        } else {
            (u32_from_u64(page.0 % pods), page.0 / pods)
        }
    }

    /// Position of pod `pod` in this part's `pods`: the part holds every
    /// `parts`-th pod, so pod `p` is its `p / parts`-th.
    #[inline]
    fn slot(&self, pod: u32) -> usize {
        usize_from_u32(if self.parts.is_power_of_two() {
            pod >> self.parts.trailing_zeros()
        } else {
            pod / self.parts
        })
    }

    /// Runs the end-of-interval migration pass for every pod of this part.
    fn run_epoch(&mut self, out: &mut Vec<Migration>) {
        let fast_per_pod = self.geo.fast_pages_per_pod();
        let pods = self.pod_count;
        for pod in &mut self.pods {
            let hot = pod.tracker.hot_pages();
            // At most K pages, sorted once: each clock-hand probe bisects
            // the slice instead of hashing.
            let mut hot_set: Vec<PageId> = hot.iter().map(|&(p, _)| p).collect();
            hot_set.sort_unstable();
            for (page, count) in hot {
                let cur = pod.frame_of(page.0 / pods, pods);
                if self.geo.tier_of_frame(cur) == Tier::Fast {
                    // Already fast: the paper ignores it.
                    continue;
                }
                // Clock-hand scan for a fast frame holding a non-hot page.
                let mut victim = None;
                for _ in 0..fast_per_pod {
                    let i = pod.hand;
                    pod.hand = (pod.hand + 1) % fast_per_pod;
                    let resident = pod.page_in(i, pods);
                    if hot_set.binary_search(&resident).is_err() {
                        victim = Some((self.geo.fast_frame_of_pod(pod.id, i), resident));
                        break;
                    }
                }
                let Some((slot, resident)) = victim else {
                    break; // every fast frame holds a hot page
                };
                let m = Migration::page_swap(cur, slot, page, resident, Some(pod.id))
                    .with_hotness(count);
                pod.swap(&m, pods);
                self.stats.record(&m);
                out.push(m);
            }
            pod.tracker.reset();
        }
        self.stats.intervals += 1;
    }
}

impl MemoryManager for MemPodManager {
    fn on_access(&mut self, req: &MemRequest) -> AccessOutcome {
        let mut migrations = Vec::new();
        self.advance_to(req.arrival, &mut migrations);
        let page = req.addr.page();
        let (pod, local) = self.locate(page);
        let slot = self.slot(pod);
        let pods = self.pod_count;
        let pod = &mut self.pods[slot];
        pod.tracker.record(page);
        let meta_miss = pod.meta.as_mut().is_some_and(|c| !c.access(page.0));
        let frame = pod.frame_of(local, pods);
        AccessOutcome {
            frame,
            line_in_page: u32_from_u64(req.addr.line().index_in_page()),
            migrations,
            stall: Picos::ZERO,
            meta_miss,
        }
    }

    fn advance_to(&mut self, now: Picos, out: &mut Vec<Migration>) {
        while now >= self.next_epoch {
            self.run_epoch(out);
            self.next_epoch += self.epoch;
        }
    }

    fn kind(&self) -> ManagerKind {
        ManagerKind::MemPod
    }

    fn migration_stats(&self) -> &MigrationStats {
        &self.stats
    }

    fn meta_cache_stats(&self) -> Option<MetaCacheStats> {
        let mut caches = self.pods.iter().filter_map(|p| p.meta.as_ref()).peekable();
        caches.peek()?;
        let mut s = MetaCacheStats::default();
        for c in caches {
            s.merge(&c.stats());
        }
        Some(s)
    }

    fn frame_of_page(&self, page: PageId) -> FrameId {
        let (pod, local) = self.locate(page);
        self.pods[self.slot(pod)].frame_of(local, self.pod_count)
    }

    /// Re-applies the swap's transposition in its pod's remap slice
    /// ([`RemapTable::swap_frames`] is self-inverse) and invalidates the
    /// pod's cached metadata entries for both pages — their in-memory
    /// remap entries changed again.
    fn rollback_migration(&mut self, m: &Migration) -> bool {
        let Some(pod) = m.pod else {
            return false;
        };
        let (slot, pods) = (self.slot(pod), self.pod_count);
        self.pods[slot].swap(m, pods);
        self.stats.aborted += 1;
        true
    }

    /// MemPod's structural invariants: each pod's remap slice stays a
    /// bijection with a consistent inverse (a slice covers only its pod's
    /// pages and frames, so a swap cannot cross pods), and the per-pod
    /// traffic breakdown sums to the total.
    #[cfg(feature = "debug-invariants")]
    fn audit_invariants(&mut self, auditor: &mut mempod_audit::InvariantAuditor) {
        use mempod_audit::audit_invariant;
        use mempod_types::convert::usize_from_u64;

        let per_pod = self.geo.pages_per_pod();
        for pod in &self.pods {
            auditor.check_bijection(
                &format!("MemPod pod {} remap page->frame", pod.id),
                (0..per_pod).map(|p| pod.remap.frame_of(PageId(p)).0),
                usize_from_u64(per_pod),
            );
            audit_invariant!(
                auditor,
                "remap-inverse",
                pod.remap.check_invariant(),
                "MemPod pod {}: page->frame and frame->page tables are not mutual inverses",
                pod.id
            );
        }
        auditor.check_conserved(
            "MemPod per-pod bytes vs total",
            self.stats.bytes_moved,
            self.stats.per_pod_bytes.iter().sum::<u64>(),
        );
    }

    /// MemPod's epoch count plus the pods' MEA hardware-operation totals
    /// (cumulative since construction — `MeaTracker::op_stats` survives the
    /// per-epoch reset, which is what lets the epoch driver diff them).
    /// Every part counts every epoch, so only part 0 reports the count.
    fn telemetry_counters(&self, out: &mut Vec<(&'static str, u64)>) {
        if self.part == 0 {
            out.push(("mempod.epochs", self.stats.intervals));
        }
        let mut evictions = 0u64;
        let mut insertions = 0u64;
        let mut increments = 0u64;
        let mut sweeps = 0u64;
        let mut any_mea = false;
        for pod in &self.pods {
            if let Some(s) = pod.tracker.mea_op_stats() {
                any_mea = true;
                evictions += s.evictions;
                insertions += s.insertions;
                increments += s.increments;
                sweeps += s.decrement_sweeps;
            }
        }
        if any_mea {
            out.push(("mea.evictions", evictions));
            out.push(("mea.insertions", insertions));
            out.push(("mea.increments", increments));
            out.push(("mea.decrement_sweeps", sweeps));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempod_types::{AccessKind, Addr, CoreId};

    fn req_at(page: u64, t: Picos) -> MemRequest {
        MemRequest::new(Addr(page * 2048), AccessKind::Read, t, CoreId(0))
    }

    fn hammer(mgr: &mut MemPodManager, page: u64, n: u64, base: Picos) {
        for i in 0..n {
            mgr.on_access(&req_at(page, base + Picos::from_ns(i * 100)));
        }
    }

    #[test]
    fn hot_slow_page_migrates_at_epoch() {
        let cfg = ManagerConfig::tiny();
        let mut mgr = MemPodManager::new(&cfg);
        let geo = cfg.geometry;
        let slow_page = geo.fast_pages() + 4; // pod 0 (both values %4==0)
        hammer(&mut mgr, slow_page, 50, Picos::ZERO);
        let out = mgr.on_access(&req_at(slow_page, Picos::from_us(51)));
        assert_eq!(out.migrations.len(), 1);
        let m = out.migrations[0];
        assert_eq!(m.page_a, PageId(slow_page));
        assert_eq!(m.pod, Some(0));
        // The page now resides in a fast frame of its own pod.
        let new_frame = mgr.frame_of_page(PageId(slow_page));
        assert_eq!(geo.tier_of_frame(new_frame), Tier::Fast);
        assert_eq!(geo.pod_of_frame(new_frame), 0);
        // And the access was serviced from the new location.
        assert_eq!(out.frame, new_frame);
    }

    #[test]
    fn migration_never_crosses_pods() {
        let cfg = ManagerConfig::tiny();
        let mut mgr = MemPodManager::new(&cfg);
        let geo = cfg.geometry;
        // Hot pages in all four pods.
        for pod in 0..4u64 {
            hammer(&mut mgr, geo.fast_pages() + pod, 40, Picos::ZERO);
        }
        let out = mgr.on_access(&req_at(0, Picos::from_us(51)));
        assert!(out.migrations.len() >= 4);
        for m in &out.migrations {
            assert_eq!(
                geo.pod_of_frame(m.frame_a),
                geo.pod_of_frame(m.frame_b),
                "cross-pod migration"
            );
        }
    }

    #[test]
    fn fast_resident_hot_page_is_ignored() {
        let cfg = ManagerConfig::tiny();
        let mut mgr = MemPodManager::new(&cfg);
        hammer(&mut mgr, 0, 50, Picos::ZERO); // page 0 is already fast
        let out = mgr.on_access(&req_at(0, Picos::from_us(51)));
        assert!(out.migrations.is_empty());
    }

    #[test]
    fn clock_hand_skips_hot_residents() {
        let cfg = ManagerConfig::tiny();
        let geo = cfg.geometry;
        let mut mgr = MemPodManager::new(&cfg);
        // Pod 0's first fast frame is frame 0, holding page 0. Make page 0
        // hot AND a slow page hot: the victim scan must skip frame 0.
        hammer(&mut mgr, 0, 50, Picos::ZERO);
        hammer(&mut mgr, geo.fast_pages() + 8, 50, Picos::from_ns(10));
        let out = mgr.on_access(&req_at(0, Picos::from_us(51)));
        assert_eq!(out.migrations.len(), 1);
        assert_ne!(out.migrations[0].frame_b, FrameId(0), "evicted a hot page");
        // Page 0 must still be in its frame.
        assert_eq!(mgr.frame_of_page(PageId(0)), FrameId(0));
    }

    #[test]
    fn multiple_epochs_can_elapse_between_accesses() {
        let cfg = ManagerConfig::tiny();
        let mut mgr = MemPodManager::new(&cfg);
        hammer(&mut mgr, cfg.geometry.fast_pages(), 30, Picos::ZERO);
        // Jump 10 epochs ahead: exactly one migration (later epochs see an
        // empty MEA).
        let out = mgr.on_access(&req_at(0, Picos::from_us(501)));
        assert_eq!(out.migrations.len(), 1);
        assert_eq!(mgr.migration_stats().intervals, 10);
    }

    #[test]
    fn remap_invariant_survives_migration_storm() {
        let cfg = ManagerConfig::tiny();
        let geo = cfg.geometry;
        let mut mgr = MemPodManager::new(&cfg);
        let mut t = Picos::ZERO;
        let mut x = 7u64;
        for _ in 0..40 {
            for _ in 0..200 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                mgr.on_access(&req_at(x % geo.total_pages(), t));
                t += Picos::from_ns(300);
            }
        }
        assert!(mgr.pods.iter().all(|p| p.remap.check_invariant()));
        assert!(mgr.migration_stats().migrations > 0);
    }

    #[test]
    fn per_pod_traffic_is_tracked() {
        let cfg = ManagerConfig::tiny();
        let mut mgr = MemPodManager::new(&cfg);
        hammer(&mut mgr, cfg.geometry.fast_pages() + 1, 50, Picos::ZERO); // pod 1
        let _ = mgr.on_access(&req_at(0, Picos::from_us(51)));
        let s = mgr.migration_stats();
        assert_eq!(s.per_pod_bytes[1], 4096);
        assert_eq!(s.per_pod_bytes[0], 0);
        assert_eq!(s.bytes_moved, 4096);
    }

    #[test]
    fn full_counter_tracker_also_migrates_hot_pages() {
        let mut cfg = ManagerConfig::tiny();
        cfg.mempod_tracker = TrackerKind::FullCounters;
        let geo = cfg.geometry;
        let mut mgr = MemPodManager::new(&cfg);
        hammer(&mut mgr, geo.fast_pages() + 4, 50, Picos::ZERO);
        let out = mgr.on_access(&req_at(geo.fast_pages() + 4, Picos::from_us(51)));
        assert_eq!(out.migrations.len(), 1);
        assert_eq!(
            geo.tier_of_frame(mgr.frame_of_page(PageId(geo.fast_pages() + 4))),
            Tier::Fast
        );
    }

    #[test]
    fn rollback_restores_the_pre_swap_map() {
        let mut cfg = ManagerConfig::tiny();
        cfg.meta_cache_bytes = Some(4 * 1024);
        let geo = cfg.geometry;
        let mut mgr = MemPodManager::new(&cfg);
        let slow_page = geo.fast_pages() + 4;
        hammer(&mut mgr, slow_page, 50, Picos::ZERO);
        let out = mgr.on_access(&req_at(slow_page, Picos::from_us(51)));
        let m = out.migrations[0];
        assert!(mgr.rollback_migration(&m));
        // Both pages are exactly where they were before the swap.
        assert_eq!(mgr.frame_of_page(m.page_a), m.frame_a);
        assert_eq!(mgr.frame_of_page(m.page_b), m.frame_b);
        assert!(mgr.pods.iter().all(|p| p.remap.check_invariant()));
        assert_eq!(mgr.migration_stats().aborted, 1);
    }

    #[test]
    fn meta_cache_reports_misses() {
        let mut cfg = ManagerConfig::tiny();
        cfg.meta_cache_bytes = Some(4 * 1024);
        let mut mgr = MemPodManager::new(&cfg);
        let out = mgr.on_access(&req_at(1234, Picos::ZERO));
        assert!(out.meta_miss, "cold access must miss");
        let out2 = mgr.on_access(&req_at(1234, Picos::from_ns(1)));
        assert!(!out2.meta_miss, "second access must hit");
        let s = mgr.meta_cache_stats().expect("cache configured");
        assert_eq!(s.lookups, 2);
        assert_eq!(s.misses, 1);
    }
}
