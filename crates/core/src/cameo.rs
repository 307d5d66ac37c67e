//! The CAMEO baseline (Chou et al., MICRO 2014; paper §2, §4).
//!
//! CAMEO manages the flat address space at cache-line (64 B) granularity:
//! lines form congruence groups of one fast line plus `ratio` slow lines,
//! and **every access to a slow line immediately swaps it** with the group's
//! fast resident (an event trigger — no activity tracking at all).
//!
//! The pathologies the paper measures fall out directly: at a 1:8
//! fast:slow ratio most accesses hit slow lines, so CAMEO moves more data
//! than anyone (3.9 GB per experiment in the paper) and thrashes whenever
//! two hot lines share a group.

use mempod_types::convert::{u32_from_u64, u64_from_usize};
use mempod_types::{FrameId, MemRequest, PageId, Picos};

use crate::llp::{LineLocationPredictor, LlpStats};
use crate::manager::{AccessOutcome, ManagerConfig, ManagerKind, MemoryManager, MigrationStats};
use crate::migration::Migration;
use crate::segment::{slow_members, SegmentMap};

const LINES_PER_PAGE: u64 = u64_from_usize(mempod_types::LINES_PER_PAGE);

/// Counters in CAMEO's Line Location Predictor, when it is enabled.
pub(crate) const LLP_ENTRIES: usize = 4096;

/// The CAMEO line-granularity, event-triggered migration manager.
///
/// # Examples
///
/// ```
/// use mempod_core::{CameoManager, ManagerConfig, MemoryManager};
/// use mempod_types::{AccessKind, Addr, CoreId, MemRequest, Picos};
///
/// let cfg = ManagerConfig::tiny();
/// let mut mgr = CameoManager::new(&cfg);
/// // An access to a slow line triggers a swap on the spot.
/// let slow = cfg.geometry.fast_bytes();
/// let r = MemRequest::new(Addr(slow), AccessKind::Read, Picos::ZERO, CoreId(0));
/// let out = mgr.on_access(&r);
/// assert_eq!(out.migrations.len(), 1);
/// ```
#[derive(Debug)]
pub struct CameoManager {
    /// Congruence-group permutations. Each touched group's flag bit marks
    /// its fast occupant as swapped in and not yet touched there: the only
    /// line of a group that can be pending is the one in its fast slot.
    segs: SegmentMap,
    stats: MigrationStats,
    /// Lines swapped into fast memory that were never accessed there before
    /// being evicted again ("wasted migrations", §6.3.2).
    wasted: u64,
    /// Optional Line Location Predictor (paper §2): mispredictions cost a
    /// blocking bookkeeping read.
    llp: Option<LineLocationPredictor>,
}

impl CameoManager {
    /// Builds a CAMEO manager from the shared configuration.
    ///
    /// # Panics
    ///
    /// Panics if the slow tier is not an integer multiple of the fast tier,
    /// or if the slow:fast ratio exceeds 255.
    pub fn new(cfg: &ManagerConfig) -> Self {
        let geo = cfg.geometry;
        let ratio = geo.slow_to_fast_ratio();
        assert!(
            geo.fast_pages() * ratio == geo.slow_pages(),
            "slow tier must be an integer multiple of the fast tier"
        );
        CameoManager {
            segs: SegmentMap::new(geo.fast_lines(), slow_members(ratio)),
            stats: MigrationStats::default(),
            wasted: 0,
            llp: cfg
                .cameo_llp
                .then(|| LineLocationPredictor::new(LLP_ENTRIES)),
        }
    }

    /// LLP accuracy statistics, if the predictor is enabled.
    pub fn llp_stats(&self) -> Option<LlpStats> {
        self.llp.as_ref().map(LineLocationPredictor::stats)
    }

    /// Swap-ins that were evicted before being touched in fast memory.
    pub fn wasted_migrations(&self) -> u64 {
        self.wasted
    }

    /// Physical (frame, line-in-page) of a line unit.
    fn frame_line(unit: u64) -> (FrameId, u32) {
        (
            FrameId(unit / LINES_PER_PAGE),
            u32_from_u64(unit % LINES_PER_PAGE),
        )
    }
}

impl MemoryManager for CameoManager {
    fn on_access(&mut self, req: &MemRequest) -> AccessOutcome {
        let line = req.addr.line().0;
        let (group, member) = self.segs.group_of(line);
        // After this access the line is served from its group's fast slot.
        let fast_unit = self.segs.unit_of(group, 0);
        // One index lookup resolves the group; untouched groups are at
        // identity with no line pending.
        let touched = self.segs.touched_mut(group);
        let slot = touched.as_ref().map_or(member, |g| g.slot_of(member));
        // LLP: a misprediction forces a bookkeeping read from memory.
        let meta_miss = match &mut self.llp {
            Some(llp) => !llp.predict_and_train(group, slot == 0),
            None => false,
        };

        let mut migrations = Vec::new();
        if slot == 0 {
            // Fast hit: the line is being used where it lives.
            if let Some(mut g) = touched {
                g.set_flag(false);
            }
        } else {
            // Event trigger: swap this line into the group's fast slot now.
            let mut g = match touched {
                Some(g) => g,
                None => self.segs.touch(group),
            };
            if let Some((old_slot, displaced)) = g.swap_into_fast(member) {
                // Wasted-migration accounting: if the displaced line was
                // never touched while fast, its swap-in was wasted. The
                // incoming line is pending until touched.
                if g.flag() {
                    self.wasted += 1;
                }
                g.set_flag(true);
                let old_unit = self.segs.unit_of(group, old_slot);
                let displaced_line = self.segs.unit_of(group, displaced);
                let (fa, la) = Self::frame_line(old_unit);
                let (fb, lb) = Self::frame_line(fast_unit);
                debug_assert_eq!(la, lb, "group stride preserves line offset");
                let m = Migration::line_swap(
                    fa,
                    fb,
                    la,
                    PageId(line / LINES_PER_PAGE),
                    PageId(displaced_line / LINES_PER_PAGE),
                );
                self.stats.record(&m);
                migrations.push(m);
            }
        }

        let (frame, line_in_page) = Self::frame_line(fast_unit);
        AccessOutcome {
            frame,
            line_in_page,
            migrations,
            stall: Picos::ZERO,
            meta_miss,
        }
    }

    fn kind(&self) -> ManagerKind {
        ManagerKind::Cameo
    }

    fn migration_stats(&self) -> &MigrationStats {
        &self.stats
    }

    fn frame_of_page(&self, page: PageId) -> FrameId {
        // CAMEO has no page-level mapping; report the frame holding the
        // page's first line (used only by coarse invariant checks).
        let (frame, _) = Self::frame_line(self.segs.location_of(page.0 * LINES_PER_PAGE));
        frame
    }

    /// Swaps the displaced line (`page_b`/`line_start`) back into its
    /// congruence group's fast slot, reversing the event-triggered swap,
    /// and clears the group's pending-touch bit. The aborted line is no
    /// longer fast-resident, so it can neither be touched there nor count
    /// as a wasted swap-in; the returning line lost its own pending state
    /// when the swap evicted it, and the engine rolls a swap back right
    /// after the access that committed it.
    fn rollback_migration(&mut self, m: &Migration) -> bool {
        let displaced_line = m.page_b.0 * LINES_PER_PAGE + u64::from(m.line_start);
        let (group, member) = self.segs.group_of(displaced_line);
        let mut g = self.segs.touch(group);
        if g.swap_into_fast(member).is_none() {
            return false; // already fast: nothing to reverse
        }
        g.set_flag(false);
        self.stats.aborted += 1;
        true
    }

    /// CAMEO's structural invariants: every congruence-group permutation
    /// written since the last audit is still a bijection over its slots,
    /// every pending or wasted swap-in traces back to a line swap of its
    /// own, and byte accounting matches the 128 B cost of each line swap.
    /// (A line awaiting its first fast-resident touch is by construction
    /// its group's fast occupant: the pending bit belongs to the group.)
    #[cfg(feature = "debug-invariants")]
    fn audit_invariants(&mut self, auditor: &mut mempod_audit::InvariantAuditor) {
        use mempod_audit::audit_invariant;

        audit_invariant!(
            auditor,
            "group-permutations",
            self.segs.audit_dirty(),
            "CAMEO: a congruence group's slot permutation is no longer a bijection"
        );
        // A swap either sets its group's clear pending bit or finds it set
        // and counts a wasted swap-in; touches and rollbacks only clear.
        let pending = u64_from_usize(self.segs.flagged_groups());
        audit_invariant!(
            auditor,
            "pending-touch-accounting",
            pending + self.wasted <= self.stats.migrations,
            "CAMEO: {pending} pending plus {} wasted swap-ins exceed {} line swaps",
            self.wasted,
            self.stats.migrations
        );
        auditor.check_conserved(
            "CAMEO bytes moved vs line-swap count",
            self.stats.migrations * 2 * u64_from_usize(mempod_types::LINE_SIZE),
            self.stats.bytes_moved,
        );
    }

    /// CAMEO's wasted-migration total (§6.3.2): swap-ins evicted before
    /// ever being touched in fast memory.
    fn telemetry_counters(&self, out: &mut Vec<(&'static str, u64)>) {
        out.push(("cameo.wasted_migrations", self.wasted));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempod_types::{AccessKind, Addr, CoreId, Geometry, Tier};

    fn req_line(line: u64, t: u64) -> MemRequest {
        MemRequest::new(Addr(line * 64), AccessKind::Read, Picos(t), CoreId(0))
    }

    fn cfg() -> ManagerConfig {
        ManagerConfig::tiny()
    }

    #[test]
    fn every_slow_access_triggers_a_swap() {
        let cfg = cfg();
        let geo = cfg.geometry;
        let mut mgr = CameoManager::new(&cfg);
        let slow_line = geo.fast_lines() + 5;
        let out = mgr.on_access(&req_line(slow_line, 0));
        assert_eq!(out.migrations.len(), 1);
        assert_eq!(out.migrations[0].line_count, 1);
        // Serviced from the fast location after the swap.
        assert_eq!(geo.tier_of_frame(out.frame), Tier::Fast);
        // Re-access: now fast, no swap.
        let out2 = mgr.on_access(&req_line(slow_line, 1));
        assert!(out2.migrations.is_empty());
        assert_eq!(geo.tier_of_frame(out2.frame), Tier::Fast);
    }

    #[test]
    fn fast_access_never_migrates() {
        let cfg = cfg();
        let mut mgr = CameoManager::new(&cfg);
        let out = mgr.on_access(&req_line(3, 0));
        assert!(out.migrations.is_empty());
        assert_eq!(out.frame, FrameId(0));
        assert_eq!(out.line_in_page, 3);
    }

    #[test]
    fn two_lines_in_one_group_thrash() {
        let cfg = cfg();
        let geo = cfg.geometry;
        let mut mgr = CameoManager::new(&cfg);
        let a = geo.fast_lines() + 9; // member 1 of group 9
        let b = 2 * geo.fast_lines() + 9; // member 2 of group 9
        let mut swaps = 0;
        for i in 0..100u64 {
            let line = if i % 2 == 0 { a } else { b };
            swaps += mgr.on_access(&req_line(line, i)).migrations.len();
        }
        // Ping-pong: every single access after the first hits a slow line.
        assert_eq!(swaps, 100);
        assert!(mgr.wasted_migrations() > 0);
    }

    #[test]
    fn group_stride_preserves_line_offset_in_page() {
        let cfg = cfg();
        let geo = cfg.geometry;
        let mut mgr = CameoManager::new(&cfg);
        // fast_lines is a multiple of 32, so a line's offset within its
        // page is invariant across slots.
        assert_eq!(geo.fast_lines() % 32, 0);
        let slow_line = geo.fast_lines() + 40; // offset 8 in its page
        let out = mgr.on_access(&req_line(slow_line, 0));
        assert_eq!(out.line_in_page, (slow_line % 32) as u32);
    }

    #[test]
    fn traffic_accounting_counts_both_directions() {
        let cfg = cfg();
        let geo = cfg.geometry;
        let mut mgr = CameoManager::new(&cfg);
        mgr.on_access(&req_line(geo.fast_lines(), 0));
        let s = mgr.migration_stats();
        assert_eq!(s.migrations, 1);
        assert_eq!(s.bytes_moved, 128); // 2 x 64 B
    }

    #[test]
    fn llp_mispredictions_surface_as_meta_misses() {
        let mut cfg = cfg();
        cfg.cameo_llp = true;
        let geo = cfg.geometry;
        let mut mgr = CameoManager::new(&cfg);
        // Slow-biased initial state: a slow access predicts correctly...
        let out = mgr.on_access(&req_line(geo.fast_lines() + 3, 0));
        assert!(!out.meta_miss);
        // ...but the line is now fast, so the next access mispredicts once,
        // then the predictor retrains.
        let out2 = mgr.on_access(&req_line(geo.fast_lines() + 3, 1));
        assert!(out2.meta_miss);
        let s = mgr.llp_stats().expect("enabled");
        assert_eq!(s.predictions, 2);
        assert_eq!(s.correct, 1);
    }

    #[test]
    fn llp_disabled_by_default() {
        let mgr = CameoManager::new(&cfg());
        assert!(mgr.llp_stats().is_none());
    }

    #[test]
    fn rollback_restores_the_pre_swap_map() {
        let cfg = cfg();
        let geo = cfg.geometry;
        let mut mgr = CameoManager::new(&cfg);
        let slow_line = geo.fast_lines() + 5;
        let out = mgr.on_access(&req_line(slow_line, 0));
        let m = out.migrations[0];
        assert!(mgr.rollback_migration(&m));
        // Both lines are home again and the permutation is clean.
        assert_eq!(mgr.segs.location_of(slow_line), slow_line);
        assert!(mgr.segs.is_fast(5));
        assert!(mgr.segs.check_invariant());
        assert!(
            !mgr.segs.touched_mut(5).expect("group 5 swapped").flag(),
            "aborted line is not resident"
        );
        assert_eq!(mgr.migration_stats().aborted, 1);
        assert!(!mgr.rollback_migration(&m), "nothing left to reverse");
    }

    #[test]
    #[should_panic(expected = "slow:fast ratio 256 exceeds the 255 slow members")]
    fn oversized_ratio_panics_with_its_value() {
        // 1:256 used to wrap to ratio 0 and trip the "at least one slow
        // member" assert instead.
        let mut cfg = cfg();
        cfg.geometry = Geometry::new(1 << 20, 256 << 20, 4).expect("valid geometry");
        let _ = CameoManager::new(&cfg);
    }

    #[test]
    fn displaced_line_translation_is_consistent() {
        let cfg = cfg();
        let geo = cfg.geometry;
        let mut mgr = CameoManager::new(&cfg);
        let slow_line = geo.fast_lines() + 2;
        mgr.on_access(&req_line(slow_line, 0));
        // Original fast line 2 was displaced to slow_line's home.
        let out = mgr.on_access(&req_line(2, 1));
        // That access is itself a slow access now -> swaps back.
        assert_eq!(out.migrations.len(), 1);
        assert_eq!(geo.tier_of_frame(out.frame), Tier::Fast);
    }
}
