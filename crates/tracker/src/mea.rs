//! The Majority Element Algorithm (MEA) tracker — the paper's Algorithm 1.
//!
//! MEA was proposed by Karp, Shenker & Papadimitriou (TODS 2003) and studied
//! by Charikar, Chen & Farach-Colton (TCS 2004) for frequent-element mining
//! in data streams. The paper adapts it to hardware hot-page tracking: a map
//! of K `(page tag, counter)` entries processes each access with one of three
//! single-cycle operations:
//!
//! 1. page present → increment its counter (saturating at the counter width);
//! 2. page absent, map not full → insert with count 1;
//! 3. page absent, map full → decrement *every* counter, evict zeros.
//!
//! The crucial property (paper §3): when the stream does not satisfy the
//! majority condition, MEA fails *towards recency* — a page accessed near the
//! end of an interval knocks out one accessed many times early on. This makes
//! it a better predictor of the next interval than exact counting, at
//! `K × (tag + counter)` bits instead of one counter per page.
//!
//! The map prose in §5.2 says "a map structure of K entries" while
//! Algorithm 1 (Karp's formulation) inserts only while `|T| < K-1`; we follow
//! the prose and admit entries while `len < K`, which subsumes the Karp
//! variant at `K+1`.

use mempod_types::convert::u64_from_usize;
use mempod_types::PageId;
use serde::Serialize;

use crate::{sort_hot, ActivityTracker};

/// Counts of each MEA hardware operation, for micro-benchmarks and the
/// single-cycle-feasibility discussion in the paper's §3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct MeaOpStats {
    /// Operation (1): increment an existing entry.
    pub increments: u64,
    /// Operation (2): insert a new entry.
    pub insertions: u64,
    /// Operation (3): global decrement sweeps.
    pub decrement_sweeps: u64,
    /// Entries evicted at zero during sweeps.
    pub evictions: u64,
}

/// A K-entry MEA activity tracker with saturating counters.
///
/// # Examples
///
/// ```
/// use mempod_tracker::{ActivityTracker, MeaTracker};
/// use mempod_types::PageId;
///
/// // Two entries: a third distinct page triggers a global decrement.
/// let mut t = MeaTracker::new(2, 8);
/// t.record(PageId(1));
/// t.record(PageId(2));
/// t.record(PageId(3)); // decrements 1 and 2 to zero, evicts both
/// assert!(t.hot_pages().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct MeaTracker {
    // A page-sorted array of at most K `(page, counter)` pairs: lookups
    // binary-search it, an insert shifts the tail, the decrement sweep is
    // one `retain_mut` pass, and `hot_pages` reads it in page order, so
    // every iteration is deterministic. Not a tree: a `BTreeMap` here took
    // 10.8% of mix1_mempod's wall time in a sampling profile, while at
    // K = 64 this array spans 16 cache lines.
    entries: Vec<(PageId, u64)>,
    k: usize,
    counter_max: u64,
    counter_bits: u32,
    stats: MeaOpStats,
}

impl MeaTracker {
    /// Creates a tracker with `k` entries and `counter_bits`-wide saturating
    /// counters.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or `counter_bits` is zero.
    pub fn new(k: usize, counter_bits: u32) -> Self {
        assert!(k > 0, "MEA needs at least one entry");
        assert!(
            (1..=64).contains(&counter_bits),
            "counter width must be 1..=64 bits"
        );
        let counter_max = if counter_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << counter_bits) - 1
        };
        MeaTracker {
            entries: Vec::new(),
            k,
            counter_max,
            counter_bits,
            stats: MeaOpStats::default(),
        }
    }

    /// The paper's chosen per-pod configuration: 64 entries, 2-bit counters.
    pub fn paper_default() -> Self {
        MeaTracker::new(64, 2)
    }

    /// Number of entries currently held (≤ K).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry capacity K.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Saturation value of each counter.
    pub fn counter_max(&self) -> u64 {
        self.counter_max
    }

    /// Hardware operation counts since construction (not cleared by
    /// [`reset`](ActivityTracker::reset)).
    pub fn op_stats(&self) -> MeaOpStats {
        self.stats
    }

    /// Whether `page` currently has an entry.
    pub fn contains(&self, page: PageId) -> bool {
        self.find(page).is_ok()
    }

    /// The counter value for `page`, if present.
    pub fn count_of(&self, page: PageId) -> Option<u64> {
        self.find(page).ok().map(|i| self.entries[i].1)
    }

    /// `Ok(index)` of `page`'s entry, or `Err(index)` where it would go.
    fn find(&self, page: PageId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&page, |&(p, _)| p)
    }
}

impl ActivityTracker for MeaTracker {
    fn record(&mut self, page: PageId) {
        match self.find(page) {
            Ok(i) => {
                // Operation (1): saturating increment.
                let c = &mut self.entries[i].1;
                if *c < self.counter_max {
                    *c += 1;
                }
                self.stats.increments += 1;
            }
            Err(i) if self.entries.len() < self.k => {
                // Operation (2): insert, keeping the page order.
                self.entries.insert(i, (page, 1));
                self.stats.insertions += 1;
            }
            Err(_) => {
                // Operation (3): global decrement, evict zeros. The
                // incoming page is NOT inserted (Algorithm 1).
                self.stats.decrement_sweeps += 1;
                self.entries.retain_mut(|(_, c)| {
                    *c -= 1;
                    *c > 0
                });
                let evicted = self.k - self.entries.len();
                self.stats.evictions += u64_from_usize(evicted);
            }
        }
    }

    fn hot_pages(&self) -> Vec<(PageId, u64)> {
        sort_hot(self.entries.clone())
    }

    fn reset(&mut self) {
        self.entries.clear();
    }

    fn storage_bits(&self, tag_bits: u32) -> u64 {
        u64_from_usize(self.k) * (u64::from(tag_bits) + u64::from(self.counter_bits))
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Brute-force re-implementation of Algorithm 1 used as a semantics
    /// oracle in tests (kept deliberately naive and separate): an unsorted
    /// list searched linearly, with its own operation counts.
    #[derive(Debug, Default)]
    struct ReferenceMea {
        entries: Vec<(PageId, u64)>,
        stats: MeaOpStats,
    }

    impl ReferenceMea {
        fn record(&mut self, p: PageId, k: usize, counter_max: u64) {
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == p) {
                e.1 = (e.1 + 1).min(counter_max);
                self.stats.increments += 1;
            } else if self.entries.len() < k {
                self.entries.push((p, 1));
                self.stats.insertions += 1;
            } else {
                self.stats.decrement_sweeps += 1;
                let before = self.entries.len();
                for e in &mut self.entries {
                    e.1 -= 1;
                }
                self.entries.retain(|e| e.1 > 0);
                self.stats.evictions += (before - self.entries.len()) as u64;
            }
        }

        /// Entries in page order.
        fn sorted(&self) -> Vec<(PageId, u64)> {
            let mut v = self.entries.clone();
            v.sort();
            v
        }

        /// Hottest first, ties by page id, computed without `sort_hot`.
        fn hot(&self) -> Vec<(PageId, u64)> {
            let mut v = self.entries.clone();
            v.sort_by_key(|&(p, c)| (std::cmp::Reverse(c), p));
            v
        }
    }

    /// Xorshift step for deriving an access stream from one seed.
    fn next(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After every access the tracker's entries, hot list (exact
        /// order) and operation counts equal the naive oracle's. Page
        /// ranges from a quarter of K to three times K make all three MEA
        /// operations fire.
        #[test]
        fn matches_reference_after_every_access(
            seed in 1u64..u64::MAX,
            k in 1usize..=80,
            bits in 1u32..=16,
            range_pct in 25u64..=300,
            len in 0usize..1500,
        ) {
            let pages = (k as u64 * range_pct / 100).max(1);
            let mut t = MeaTracker::new(k, bits);
            let mut r = ReferenceMea::default();
            let mut x = seed;
            for _ in 0..len {
                let p = PageId(next(&mut x) % pages);
                t.record(p);
                r.record(p, k, t.counter_max());
                prop_assert_eq!(&t.entries, &r.sorted());
                prop_assert_eq!(t.hot_pages(), r.hot());
                prop_assert_eq!(t.op_stats(), r.stats);
            }
        }
    }

    #[test]
    fn finds_majority_element() {
        // 7 appears more than N/(K+1) times: MEA must report it.
        let mut t = MeaTracker::new(2, 16);
        let stream: Vec<PageId> = [7u64, 1, 7, 2, 7, 3, 7, 4, 7]
            .iter()
            .map(|&x| PageId(x))
            .collect();
        for p in &stream {
            t.record(*p);
        }
        assert!(t.contains(PageId(7)));
        assert_eq!(t.hot_pages()[0].0, PageId(7));
    }

    #[test]
    fn favors_recency_over_quantity() {
        // Page 1 hammered early, pages 2..6 cycle late with K=2: the early
        // heavy hitter is ground down by decrement sweeps.
        let mut t = MeaTracker::new(2, 16);
        for _ in 0..10 {
            t.record(PageId(1));
        }
        // Late burst of fresh pages erodes page 1.
        for round in 0..6 {
            t.record(PageId(100 + round));
        }
        assert!(
            t.count_of(PageId(1)).unwrap_or(0) < 10,
            "early heavy hitter must lose weight to late arrivals"
        );
    }

    #[test]
    fn counter_saturates_at_width() {
        let mut t = MeaTracker::new(4, 2);
        for _ in 0..100 {
            t.record(PageId(5));
        }
        assert_eq!(t.count_of(PageId(5)), Some(3)); // 2^2 - 1
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut t = MeaTracker::new(8, 4);
        for i in 0..10_000u64 {
            t.record(PageId(i % 97));
            assert!(t.len() <= 8);
        }
    }

    #[test]
    fn decrement_evicts_zeros_and_skips_insert() {
        let mut t = MeaTracker::new(2, 8);
        t.record(PageId(1));
        t.record(PageId(1)); // count 2
        t.record(PageId(2)); // count 1
        t.record(PageId(3)); // sweep: 1->1, 2->0 evicted; 3 not inserted
        assert_eq!(t.count_of(PageId(1)), Some(1));
        assert!(!t.contains(PageId(2)));
        assert!(!t.contains(PageId(3)));
        assert_eq!(t.len(), 1);
        let s = t.op_stats();
        assert_eq!(s.decrement_sweeps, 1);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.insertions, 2);
        assert_eq!(s.increments, 1);
    }

    #[test]
    fn reset_clears_entries_but_not_stats() {
        let mut t = MeaTracker::new(4, 8);
        t.record(PageId(1));
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.op_stats().insertions, 1);
    }

    #[test]
    fn storage_matches_paper_cost() {
        // 64 entries x (21 tag + 2 counter) bits = 1472 bits = 184 B per pod.
        let t = MeaTracker::paper_default();
        assert_eq!(t.storage_bits(21), 1472);
        assert_eq!(t.storage_bits(21) / 8, 184);
        // Four pods: 736 B total, the paper's headline number.
        assert_eq!(4 * t.storage_bits(21) / 8, 736);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = MeaTracker::new(0, 2);
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn zero_width_panics() {
        let _ = MeaTracker::new(4, 0);
    }
}
