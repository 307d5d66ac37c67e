//! Full-Counters (FC) tracking: one saturating counter per page.
//!
//! This is the scheme HMA uses (paper §2, §4.2): exact per-page access counts
//! within an interval, sorted at the interval boundary to rank pages. It is
//! the accuracy yard-stick for MEA in §3 — perfect at *counting the past*,
//! surprisingly weak at *predicting the future*, and enormously expensive
//! (the paper's 1+8 GB system needs 4.5 M counters ≈ 9 MB at 16 bits each).
//!
//! The simulator stores counts sparsely (only touched pages), but
//! [`storage_bits`](crate::ActivityTracker::storage_bits) reports the cost of
//! the dense hardware table, as the paper does.

use std::collections::HashMap;

use mempod_types::PageId;

use crate::{sort_hot, ActivityTracker};

/// Per-page saturating access counters over a fixed page population.
///
/// # Examples
///
/// ```
/// use mempod_tracker::{ActivityTracker, FullCounters};
/// use mempod_types::PageId;
///
/// let mut fc = FullCounters::new(1 << 20, 16);
/// fc.record(PageId(3));
/// fc.record(PageId(3));
/// fc.record(PageId(9));
/// assert_eq!(fc.top_n(1), vec![(PageId(3), 2)]);
/// ```
#[derive(Debug, Clone)]
pub struct FullCounters {
    counts: HashMap<PageId, u64>,
    total_pages: u64,
    counter_bits: u32,
    counter_max: u64,
}

impl FullCounters {
    /// Creates a counter table for a memory of `total_pages` pages with
    /// `counter_bits`-wide saturating counters.
    ///
    /// # Panics
    ///
    /// Panics if `counter_bits` is not in `1..=64`.
    pub fn new(total_pages: u64, counter_bits: u32) -> Self {
        assert!(
            (1..=64).contains(&counter_bits),
            "counter width must be 1..=64 bits"
        );
        let counter_max = if counter_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << counter_bits) - 1
        };
        FullCounters {
            counts: HashMap::new(),
            total_pages,
            counter_bits,
            counter_max,
        }
    }

    /// HMA's configuration from the paper: 16-bit counters over all pages.
    pub fn paper_default(total_pages: u64) -> Self {
        FullCounters::new(total_pages, 16)
    }

    /// The count for `page` (zero if untouched).
    pub fn count_of(&self, page: PageId) -> u64 {
        self.counts.get(&page).copied().unwrap_or(0)
    }

    /// The `n` most-accessed pages, highest first (deterministic tie-break
    /// by page id). Cheaper than `hot_pages()` when `n` is small because it
    /// avoids sorting the full touched set.
    #[expect(
        clippy::disallowed_methods,
        reason = "order-insensitive: collected vec is fully ordered by select_nth + sort_hot (total tie-break)"
    )]
    pub fn top_n(&self, n: usize) -> Vec<(PageId, u64)> {
        let mut v: Vec<(PageId, u64)> = self.counts.iter().map(|(&p, &c)| (p, c)).collect();
        let n = n.min(v.len());
        if n == 0 {
            return Vec::new();
        }
        // Partial selection: kth by (count desc, id asc), then sort the head.
        v.select_nth_unstable_by(n.saturating_sub(1), |a, b| {
            b.1.cmp(&a.1).then(a.0.cmp(&b.0))
        });
        v.truncate(n);
        sort_hot(v)
    }
}

impl ActivityTracker for FullCounters {
    fn record(&mut self, page: PageId) {
        debug_assert!(
            page.0 < self.total_pages,
            "page {page} outside tracked population"
        );
        let c = self.counts.entry(page).or_insert(0);
        if *c < self.counter_max {
            *c += 1;
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "order-insensitive: sort_hot applies a total order with page-id tie-break"
    )]
    fn hot_pages(&self) -> Vec<(PageId, u64)> {
        sort_hot(self.counts.iter().map(|(&p, &c)| (p, c)).collect())
    }

    fn reset(&mut self) {
        self.counts.clear();
    }

    fn storage_bits(&self, _tag_bits: u32) -> u64 {
        // Dense hardware table: one counter per page, no tags needed.
        self.total_pages * u64::from(self.counter_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_exactly() {
        let mut fc = FullCounters::new(100, 16);
        for i in 0..10u64 {
            for _ in 0..=i {
                fc.record(PageId(i));
            }
        }
        assert_eq!(fc.count_of(PageId(9)), 10);
        assert_eq!(fc.count_of(PageId(0)), 1);
        assert_eq!(fc.count_of(PageId(50)), 0);
    }

    #[test]
    fn top_n_matches_full_sort() {
        let mut fc = FullCounters::new(1000, 16);
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            fc.record(PageId(x % 200));
        }
        let full = fc.hot_pages();
        for n in [0usize, 1, 7, 50, 200, 500] {
            let top = fc.top_n(n);
            assert_eq!(top.len(), n.min(full.len()));
            assert_eq!(&top[..], &full[..top.len()], "n={n}");
        }
    }

    #[test]
    fn top_n_on_empty_table_is_empty() {
        let fc = FullCounters::new(100, 16);
        assert!(fc.top_n(0).is_empty());
        assert!(fc.top_n(64).is_empty());
    }

    #[test]
    fn counters_saturate() {
        let mut fc = FullCounters::new(10, 2);
        for _ in 0..100 {
            fc.record(PageId(1));
        }
        assert_eq!(fc.count_of(PageId(1)), 3);
    }

    #[test]
    fn storage_matches_paper_hma_cost() {
        // 4.5M pages x 16 bits = 9 MB (paper Table 1: "16 bits per page (9MB)").
        let fc = FullCounters::paper_default(4_718_592);
        assert_eq!(fc.storage_bits(0) / 8 / (1 << 20), 9);
    }

    #[test]
    fn reset_clears() {
        let mut fc = FullCounters::new(10, 8);
        fc.record(PageId(1));
        fc.reset();
        assert_eq!(fc.count_of(PageId(1)), 0);
    }

    #[test]
    fn hot_pages_sorted_desc() {
        let mut fc = FullCounters::new(10, 8);
        fc.record(PageId(1));
        fc.record(PageId(2));
        fc.record(PageId(2));
        let hot = fc.hot_pages();
        assert_eq!(hot, vec![(PageId(2), 2), (PageId(1), 1)]);
    }
}
