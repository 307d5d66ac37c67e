//! Property tests for the remap table and segment map under swap storms:
//! arbitrary swap sequences must preserve the bijection invariants the
//! runtime auditor checks at epoch boundaries, and the segment map and
//! CAMEO must decide exactly as naive map-per-group models of them do.

use std::collections::{HashMap, HashSet};

use mempod_core::{
    CameoManager, ManagerConfig, MemoryManager, Migration, RemapTable, SegmentLayout, SegmentMap,
};
use mempod_types::{AccessKind, Addr, CoreId, FrameId, MemRequest, PageId, Picos};
use proptest::prelude::*;

/// The segment map as a `HashMap` of one heap permutation per touched
/// group, `perms[g][member] = slot`: the representation the arena
/// replaced, kept as a test oracle.
struct ModelSegments {
    fast_units: u64,
    ratio: u8,
    layout: SegmentLayout,
    perms: HashMap<u64, Vec<u8>>,
}

impl ModelSegments {
    fn new(fast_units: u64, ratio: u8, layout: SegmentLayout) -> Self {
        ModelSegments {
            fast_units,
            ratio,
            layout,
            perms: HashMap::new(),
        }
    }

    fn total_units(&self) -> u64 {
        self.fast_units * (1 + u64::from(self.ratio))
    }

    fn group_of(&self, unit: u64) -> (u64, u8) {
        let r = u64::from(self.ratio);
        let (g, m) = match self.layout {
            SegmentLayout::Strided => (unit % self.fast_units, unit / self.fast_units),
            SegmentLayout::Blocked if unit < self.fast_units => (unit, 0),
            SegmentLayout::Blocked => {
                let slow = unit - self.fast_units;
                (slow / r, 1 + slow % r)
            }
        };
        (g, u8::try_from(m).expect("member fits"))
    }

    fn unit_of(&self, g: u64, member: u8) -> u64 {
        let m = u64::from(member);
        match self.layout {
            SegmentLayout::Strided => g + m * self.fast_units,
            SegmentLayout::Blocked if m == 0 => g,
            SegmentLayout::Blocked => self.fast_units + g * u64::from(self.ratio) + m - 1,
        }
    }

    fn slot_of(&self, g: u64, member: u8) -> u8 {
        self.perms
            .get(&g)
            .map_or(member, |p| p[usize::from(member)])
    }

    fn occupant_of(&self, g: u64, slot: u8) -> u8 {
        self.perms.get(&g).map_or(slot, |p| {
            let i = p.iter().position(|&s| s == slot).expect("total");
            u8::try_from(i).expect("member fits")
        })
    }

    fn location_of(&self, unit: u64) -> u64 {
        let (g, m) = self.group_of(unit);
        self.unit_of(g, self.slot_of(g, m))
    }

    fn swap_into_fast(&mut self, g: u64, member: u8) -> Option<(u8, u8)> {
        let ratio = self.ratio;
        let perm = self.perms.entry(g).or_insert_with(|| (0..=ratio).collect());
        let my_slot = perm[usize::from(member)];
        if my_slot == 0 {
            return None;
        }
        let displaced = perm.iter().position(|&s| s == 0).expect("fast occupant");
        perm[usize::from(member)] = 0;
        perm[displaced] = my_slot;
        Some((my_slot, u8::try_from(displaced).expect("member fits")))
    }
}

/// CAMEO as it was with a `HashSet` of pending-touch lines over the
/// model segment map: the oracle for the per-group pending bit.
struct ModelCameo {
    segs: ModelSegments,
    pending: HashSet<u64>,
    wasted: u64,
}

const LINES_PER_PAGE: u64 = 32;

impl ModelCameo {
    /// Returns the serving unit and the swap's `(line, displaced line)`.
    fn access(&mut self, line: u64) -> (u64, Option<(u64, u64)>) {
        let (g, m) = self.segs.group_of(line);
        let mut swap = None;
        if self.segs.slot_of(g, m) == 0 {
            self.pending.remove(&line);
        } else {
            let (_, displaced) = self.segs.swap_into_fast(g, m).expect("slow line swaps");
            let displaced_line = self.segs.unit_of(g, displaced);
            if self.pending.remove(&displaced_line) {
                self.wasted += 1;
            }
            self.pending.insert(line);
            swap = Some((line, displaced_line));
        }
        (self.segs.location_of(line), swap)
    }

    fn rollback(&mut self, line: u64, displaced_line: u64) -> bool {
        let (g, m) = self.segs.group_of(displaced_line);
        if self.segs.swap_into_fast(g, m).is_none() {
            return false;
        }
        self.pending.remove(&line);
        true
    }
}

/// Splitmix-style step for deriving an unbounded swap stream from one seed.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A storm of random frame swaps leaves the table a permutation with a
    /// consistent inverse, and swapping back in reverse order restores the
    /// identity (swaps are self-inverse).
    #[test]
    fn swap_storm_preserves_remap_invariant(
        seed in 1u64..u64::MAX,
        n_pages in 2u64..256,
        swaps in 0usize..2000,
    ) {
        let mut t = RemapTable::identity(n_pages);
        let mut x = seed;
        let mut history = Vec::with_capacity(swaps);
        for _ in 0..swaps {
            let a = FrameId(next(&mut x) % n_pages);
            let b = FrameId(next(&mut x) % n_pages);
            t.swap_frames(a, b);
            history.push((a, b));
            prop_assert!(t.check_invariant());
        }
        // Every page is somewhere, and lookups agree both ways.
        for p in 0..n_pages {
            let f = t.frame_of(PageId(p));
            prop_assert_eq!(t.page_in(f), PageId(p));
        }
        // Unwind: the storm reversed restores the identity mapping.
        for (a, b) in history.into_iter().rev() {
            t.swap_frames(a, b);
        }
        prop_assert!((0..n_pages).all(|p| t.is_home(PageId(p))));
    }

    /// A storm of swap-into-fast operations leaves every touched segment
    /// permutation a bijection over its slots, with `occupant_of` the exact
    /// inverse of `slot_of` and unit locations unique within each group.
    #[test]
    fn swap_storm_preserves_segment_invariant(
        seed in 1u64..u64::MAX,
        groups in 1u64..64,
        ratio in 1u8..16,
        swaps in 0usize..1500,
    ) {
        let mut m = SegmentMap::new(groups, ratio);
        let mut x = seed;
        for _ in 0..swaps {
            let g = next(&mut x) % groups;
            let member = (next(&mut x) % (1 + ratio as u64)) as u8;
            let _ = m.swap_into_fast(g, member);
        }
        prop_assert!(m.check_invariant());
        for g in 0..groups {
            for k in 0..=ratio {
                prop_assert_eq!(m.occupant_of(g, m.slot_of(g, k)), k);
            }
            // Exactly one member occupies the fast slot.
            let fast_holders = (0..=ratio)
                .filter(|&k| m.slot_of(g, k) == 0)
                .count();
            prop_assert_eq!(fast_holders, 1);
        }
    }

    /// The arena-backed segment map answers every query exactly as the
    /// map-of-vectors model does, after every swap of a storm, in both
    /// layouts and at every ratio from 1 to 16.
    #[test]
    fn segment_map_matches_the_map_of_vectors_model(
        seed in 1u64..u64::MAX,
        blocked in 0u8..2,
        groups in 1u64..48,
        ratio in 1u8..=16,
        swaps in 0usize..800,
    ) {
        let layout = if blocked == 1 { SegmentLayout::Blocked } else { SegmentLayout::Strided };
        let mut m = SegmentMap::with_layout(groups, ratio, layout);
        let mut r = ModelSegments::new(groups, ratio, layout);
        let mut x = seed;
        for _ in 0..swaps {
            let g = next(&mut x) % groups;
            let member = (next(&mut x) % (1 + u64::from(ratio))) as u8;
            prop_assert_eq!(m.swap_into_fast(g, member), r.swap_into_fast(g, member));
            prop_assert_eq!(m.touched_groups(), r.perms.len());
            for k in 0..=ratio {
                prop_assert_eq!(m.slot_of(g, k), r.slot_of(g, k));
                prop_assert_eq!(m.occupant_of(g, k), r.occupant_of(g, k));
            }
        }
        prop_assert!(m.check_invariant());
        for unit in 0..r.total_units() {
            prop_assert_eq!(m.group_of(unit), r.group_of(unit));
            prop_assert_eq!(m.location_of(unit), r.location_of(unit));
            let (g, k) = r.group_of(unit);
            prop_assert_eq!(m.is_fast(unit), r.slot_of(g, k) == 0);
            prop_assert_eq!(m.occupant_of(g, k), r.occupant_of(g, k));
        }
    }

    /// CAMEO with its per-group pending bit serves every access from the
    /// same frame, commits the same swaps and counts the same wasted
    /// migrations as the `HashSet` pending-touch model, with swaps rolled
    /// back right after the access that committed them (as the engine's
    /// permanent-fault path does), sometimes twice.
    #[test]
    fn cameo_matches_the_pending_set_model(
        seed in 1u64..u64::MAX,
        groups in 1u64..24,
        accesses in 0usize..1500,
        rollback_pct in 0u64..50,
    ) {
        let cfg = ManagerConfig::tiny();
        let geo = cfg.geometry;
        let ratio = u8::try_from(geo.slow_to_fast_ratio()).expect("small ratio");
        let mut mgr = CameoManager::new(&cfg);
        let mut r = ModelCameo {
            segs: ModelSegments::new(geo.fast_lines(), ratio, SegmentLayout::Strided),
            pending: HashSet::new(),
            wasted: 0,
        };
        let mut x = seed;
        for t in 0..accesses {
            // A few groups spread over the line space, so lines collide.
            let g = (next(&mut x) % groups) * 4099 % geo.fast_lines();
            let member = (next(&mut x) % (1 + u64::from(ratio))) as u8;
            let line = r.segs.unit_of(g, member);
            let req = MemRequest::new(Addr(line * 64), AccessKind::Read, Picos(t as u64), CoreId(0));
            let out = mgr.on_access(&req);
            let (unit, swap) = r.access(line);
            prop_assert_eq!(out.frame, FrameId(unit / LINES_PER_PAGE));
            prop_assert_eq!(u64::from(out.line_in_page), unit % LINES_PER_PAGE);
            prop_assert_eq!(out.migrations.len(), usize::from(swap.is_some()));
            if let (Some(m), Some((l, d))) = (out.migrations.first(), swap) {
                let m: Migration = *m;
                prop_assert_eq!(m.page_a, PageId(l / LINES_PER_PAGE));
                prop_assert_eq!(m.page_b, PageId(d / LINES_PER_PAGE));
                prop_assert_eq!(u64::from(m.line_start), l % LINES_PER_PAGE);
                prop_assert_eq!(m.frame_a, FrameId(r.segs.location_of(d) / LINES_PER_PAGE));
                if next(&mut x) % 100 < rollback_pct {
                    prop_assert_eq!(mgr.rollback_migration(&m), r.rollback(l, d));
                    if next(&mut x).is_multiple_of(4) {
                        prop_assert_eq!(mgr.rollback_migration(&m), r.rollback(l, d));
                    }
                }
            }
            prop_assert_eq!(mgr.wasted_migrations(), r.wasted);
        }
    }
}
