//! The THM baseline (Sim et al., MICRO 2014; paper §2, §4).
//!
//! THM restricts migration to segments of one fast page plus `ratio` slow
//! pages and tracks each segment with a single competing counter. A slow
//! page that accumulates `threshold` net accesses over the current fast
//! resident swaps into the segment's fast slot — a threshold (not interval)
//! trigger. The costs and pathologies the paper highlights fall out of the
//! structure: only one hot page per segment can be fast, equally-hot pages
//! in one segment stall each other, and a cold page can win by lucky timing.

use std::collections::HashMap;

use mempod_tracker::{CompetingCounter, CompetingOutcome};
use mempod_types::convert::u32_from_u64;
use mempod_types::{BuildPageHasher, FrameId, MemRequest, PageId, Picos};

use crate::manager::{AccessOutcome, ManagerConfig, ManagerKind, MemoryManager, MigrationStats};
use crate::meta_cache::{MetaCache, MetaCacheStats};
use crate::migration::Migration;
use crate::segment::{slow_members, GroupId, SegmentMap};

/// The THM segmented, threshold-triggered migration manager.
///
/// # Examples
///
/// ```
/// use mempod_core::{ManagerConfig, MemoryManager, ThmManager};
/// use mempod_types::{AccessKind, Addr, CoreId, MemRequest, Picos};
///
/// let mut mgr = ThmManager::new(&ManagerConfig::tiny());
/// let r = MemRequest::new(Addr(0), AccessKind::Read, Picos::ZERO, CoreId(0));
/// assert_eq!(mgr.on_access(&r).frame.0, 0);
/// ```
#[derive(Debug)]
pub struct ThmManager {
    segs: SegmentMap,
    /// Competing counter of every segment that has seen a slow access.
    /// Looked up by key; only order-insensitive counts iterate it.
    counters: HashMap<GroupId, CompetingCounter, BuildPageHasher>,
    threshold: u32,
    stats: MigrationStats,
    meta_cache: Option<MetaCache>,
}

impl ThmManager {
    /// Builds a THM manager from the shared configuration.
    ///
    /// # Panics
    ///
    /// Panics if the slow tier is not a whole multiple of the fast tier
    /// (segments must tile the memory exactly), or if the slow:fast ratio
    /// exceeds 255.
    pub fn new(cfg: &ManagerConfig) -> Self {
        let geo = cfg.geometry;
        let ratio = geo.slow_to_fast_ratio();
        assert!(
            geo.fast_pages() * ratio == geo.slow_pages(),
            "slow tier must be an integer multiple of the fast tier"
        );
        ThmManager {
            segs: SegmentMap::with_layout(geo.fast_pages(), slow_members(ratio), cfg.thm_layout),
            counters: HashMap::default(),
            threshold: cfg.thm_threshold,
            stats: MigrationStats::default(),
            meta_cache: cfg.meta_cache_bytes.map(|b| MetaCache::new(b, 8)),
        }
    }

    /// The competing-counter threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }
}

impl MemoryManager for ThmManager {
    fn on_access(&mut self, req: &MemRequest) -> AccessOutcome {
        let page = req.addr.page();
        let (group, member) = self.segs.group_of(page.0);
        // THM caches segment state (counters + remap, its "SRT") together.
        let meta_miss = match &mut self.meta_cache {
            Some(c) => !c.access(group),
            None => false,
        };

        let slot = self.segs.slot_of(group, member);
        let mut migrations = Vec::new();
        if slot == 0 {
            // Fast resident defends its spot.
            if let Some(c) = self.counters.get_mut(&group) {
                c.on_fast_access();
            }
        } else {
            let threshold = self.threshold;
            let counter = self
                .counters
                .entry(group)
                .or_insert_with(|| CompetingCounter::new(threshold));
            if let CompetingOutcome::Swap { winner } = counter.on_slow_access(page) {
                let (w_group, w_member) = self.segs.group_of(winner.0);
                debug_assert_eq!(w_group, group);
                let old_loc = self.segs.location_of(winner.0);
                if let Some((_, displaced)) = self.segs.swap_into_fast(group, w_member) {
                    let m = Migration::page_swap(
                        FrameId(old_loc),
                        FrameId(group), // the segment's fast frame
                        winner,
                        PageId(self.segs.unit_of(group, displaced)),
                        None,
                    )
                    .with_hotness(u64::from(self.threshold));
                    self.stats.record(&m);
                    migrations.push(m);
                }
            }
        }

        let frame = FrameId(self.segs.location_of(page.0));
        AccessOutcome {
            frame,
            line_in_page: u32_from_u64(req.addr.line().index_in_page()),
            migrations,
            stall: Picos::ZERO,
            meta_miss,
        }
    }

    fn kind(&self) -> ManagerKind {
        ManagerKind::Thm
    }

    fn migration_stats(&self) -> &MigrationStats {
        &self.stats
    }

    fn meta_cache_stats(&self) -> Option<MetaCacheStats> {
        self.meta_cache.as_ref().map(|c| c.stats())
    }

    fn frame_of_page(&self, page: PageId) -> FrameId {
        FrameId(self.segs.location_of(page.0))
    }

    /// Swaps the displaced page (`page_b`) back into its segment's fast
    /// slot. The original swap was the transposition (winner -> slot 0,
    /// displaced -> winner's home), so swapping the displaced member fast
    /// again reverses it exactly: the winner returns to its old slot.
    fn rollback_migration(&mut self, m: &Migration) -> bool {
        let group = m.frame_b.0; // the segment's fast frame == its group id
        let (g, member) = self.segs.group_of(m.page_b.0);
        debug_assert_eq!(g, group, "displaced page must belong to the segment");
        if self.segs.swap_into_fast(group, member).is_none() {
            return false; // already fast: nothing to reverse
        }
        self.stats.aborted += 1;
        true
    }

    /// THM's structural invariants: every diverged segment permutation is
    /// still a bijection over its slots, every competing counter belongs to
    /// a real segment, and byte accounting matches the page-swap cost of
    /// each recorded migration.
    #[cfg(feature = "debug-invariants")]
    fn audit_invariants(&self, auditor: &mut mempod_audit::InvariantAuditor) {
        use mempod_audit::audit_invariant;
        use mempod_types::convert::u64_from_usize;

        audit_invariant!(
            auditor,
            "segment-permutations",
            self.segs.check_invariant(),
            "THM: a segment's slot permutation is no longer a bijection"
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "order-insensitive: counts orphaned counters for an invariant check"
        )]
        let orphans = self
            .counters
            .keys()
            .filter(|&&g| g >= self.segs.groups())
            .count();
        audit_invariant!(
            auditor,
            "counter-segments",
            orphans == 0,
            "THM: {orphans} competing counter(s) track nonexistent segments"
        );
        auditor.check_conserved(
            "THM bytes moved vs migration count",
            self.stats.migrations * 2 * u64_from_usize(mempod_types::PAGE_SIZE),
            self.stats.bytes_moved,
        );
    }

    /// Number of segment groups that have ever armed a competing counter
    /// (the map only grows, so the count is monotone as required).
    fn telemetry_counters(&self, out: &mut Vec<(&'static str, u64)>) {
        out.push((
            "thm.counter_groups",
            mempod_types::convert::u64_from_usize(self.counters.len()),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempod_types::{AccessKind, Addr, CoreId, Tier};

    fn req_at(page: u64, t: u64) -> MemRequest {
        MemRequest::new(Addr(page * 2048), AccessKind::Read, Picos(t), CoreId(0))
    }

    fn cfg() -> ManagerConfig {
        let mut c = ManagerConfig::tiny();
        c.thm_threshold = 4; // small threshold keeps tests compact
        c
    }

    #[test]
    fn slow_page_swaps_in_after_threshold_accesses() {
        let cfg = cfg();
        let geo = cfg.geometry;
        let mut mgr = ThmManager::new(&cfg);
        // Member 1 of group 7: page fast_pages + 7.
        let page = geo.fast_pages() + 7;
        for i in 0..3u64 {
            let out = mgr.on_access(&req_at(page, i));
            assert!(out.migrations.is_empty(), "access {i}");
        }
        let out = mgr.on_access(&req_at(page, 3));
        assert_eq!(out.migrations.len(), 1);
        let m = out.migrations[0];
        assert_eq!(m.frame_b, FrameId(7)); // the segment's fast frame
        assert_eq!(m.page_a, PageId(page));
        assert_eq!(m.page_b, PageId(7)); // the displaced original fast page
                                         // The triggering access is serviced from the new fast location.
        assert_eq!(out.frame, FrameId(7));
        assert_eq!(
            geo.tier_of_frame(mgr.frame_of_page(PageId(page))),
            Tier::Fast
        );
    }

    #[test]
    fn fast_accesses_defend_the_resident() {
        let cfg = cfg();
        let geo = cfg.geometry;
        let mut mgr = ThmManager::new(&cfg);
        let slow = geo.fast_pages() + 7;
        let fast = 7u64;
        // Interleave: slow never accumulates 4 net wins.
        for i in 0..40u64 {
            let out = mgr.on_access(&req_at(if i % 2 == 0 { slow } else { fast }, i));
            assert!(out.migrations.is_empty());
        }
    }

    #[test]
    fn two_hot_pages_in_one_segment_thrash() {
        // The paper's key THM pathology: only one can be fast at a time.
        let cfg = cfg();
        let geo = cfg.geometry;
        let mut mgr = ThmManager::new(&cfg);
        let a = geo.fast_pages() + 3; // member 1 of group 3
        let b = geo.fast_pages() * 2 + 3; // member 2 of group 3
        let mut swaps = 0;
        for i in 0..400u64 {
            // Bursts of 8 so each page does reach the threshold in turn.
            let page = if (i / 8) % 2 == 0 { a } else { b };
            swaps += mgr.on_access(&req_at(page, i)).migrations.len();
        }
        assert!(swaps >= 4, "expected thrashing, got {swaps} swaps");
        // Never both fast.
        let fa = geo.tier_of_frame(mgr.frame_of_page(PageId(a)));
        let fb = geo.tier_of_frame(mgr.frame_of_page(PageId(b)));
        assert!(fa != fb || fa == Tier::Slow);
    }

    #[test]
    fn accesses_in_different_segments_are_independent() {
        let cfg = cfg();
        let geo = cfg.geometry;
        let mut mgr = ThmManager::new(&cfg);
        // Hot slow pages in segments 10 and 11 both make it to fast memory.
        for i in 0..10u64 {
            mgr.on_access(&req_at(geo.fast_pages() + 10, i));
            mgr.on_access(&req_at(geo.fast_pages() + 11, 1000 + i));
        }
        assert_eq!(
            geo.tier_of_frame(mgr.frame_of_page(PageId(geo.fast_pages() + 10))),
            Tier::Fast
        );
        assert_eq!(
            geo.tier_of_frame(mgr.frame_of_page(PageId(geo.fast_pages() + 11))),
            Tier::Fast
        );
        assert_eq!(mgr.migration_stats().migrations, 2);
    }

    #[test]
    fn displaced_page_returns_home_later() {
        let cfg = cfg();
        let geo = cfg.geometry;
        let mut mgr = ThmManager::new(&cfg);
        let slow = geo.fast_pages() + 5;
        for i in 0..4u64 {
            mgr.on_access(&req_at(slow, i));
        }
        // Original fast page 5 now sits in slow's home; hammer it back.
        assert_eq!(geo.tier_of_frame(mgr.frame_of_page(PageId(5))), Tier::Slow);
        for i in 10..20u64 {
            mgr.on_access(&req_at(5, i));
        }
        assert_eq!(geo.tier_of_frame(mgr.frame_of_page(PageId(5))), Tier::Fast);
        assert_eq!(
            geo.tier_of_frame(mgr.frame_of_page(PageId(slow))),
            Tier::Slow
        );
    }

    #[test]
    fn rollback_restores_the_pre_swap_map() {
        let cfg = cfg();
        let geo = cfg.geometry;
        let mut mgr = ThmManager::new(&cfg);
        let page = geo.fast_pages() + 7;
        for i in 0..4u64 {
            mgr.on_access(&req_at(page, i));
        }
        let m = {
            // The 4th access triggered the swap; re-derive its descriptor.
            assert_eq!(mgr.frame_of_page(PageId(page)), FrameId(7));
            Migration::page_swap(FrameId(page), FrameId(7), PageId(page), PageId(7), None)
        };
        assert!(mgr.rollback_migration(&m));
        assert_eq!(mgr.frame_of_page(PageId(page)), FrameId(page));
        assert_eq!(mgr.frame_of_page(PageId(7)), FrameId(7));
        assert_eq!(mgr.migration_stats().aborted, 1);
        // A second rollback of the same swap finds nothing to reverse.
        assert!(!mgr.rollback_migration(&m));
    }

    #[test]
    fn translation_follows_the_permutation() {
        let cfg = cfg();
        let geo = cfg.geometry;
        let mut mgr = ThmManager::new(&cfg);
        let slow = geo.fast_pages() + 9;
        for i in 0..4u64 {
            mgr.on_access(&req_at(slow, i));
        }
        // Accessing the displaced page 9 is serviced from slow's old frame.
        let out = mgr.on_access(&req_at(9, 100));
        assert_eq!(out.frame, FrameId(slow));
    }
}
