//! On-chip metadata cache model (paper §6.3.3).
//!
//! Remap tables and counter arrays are megabytes — too large for SRAM — so
//! real implementations cache a subset on chip and keep the full structures
//! in (fast) memory. Each miss injects a blocking memory read to fetch the
//! missing entry; the paper's Fig. 9 measures how 16/32/64 KB of cache
//! affect each mechanism.
//!
//! The model is a set-associative, LRU, 8-way cache of fixed-size entries,
//! keyed by an opaque `u64` (page id for MemPod's remap entries and HMA's
//! counters, segment id for THM).

use mempod_types::convert::usize_from_u64;
use serde::Serialize;

/// Hit/miss counters for a [`MetaCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct MetaCacheStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups that missed (each costs one memory read).
    pub misses: u64,
}

impl MetaCacheStats {
    /// Miss ratio in `0.0..=1.0`.
    pub fn miss_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups as f64
        }
    }

    /// Merges another cache's stats into this one.
    pub fn merge(&mut self, other: &MetaCacheStats) {
        self.lookups += other.lookups;
        self.misses += other.misses;
    }
}

/// A set-associative LRU cache of metadata entries.
///
/// # Examples
///
/// ```
/// use mempod_core::MetaCache;
///
/// let mut c = MetaCache::new(1024, 8); // 1 KB of 8-byte entries
/// assert!(!c.access(42));  // cold miss
/// assert!(c.access(42));   // now cached
/// ```
#[derive(Debug, Clone)]
pub struct MetaCache {
    ways: usize,
    sets: Vec<Vec<(u64, u64)>>, // (key, last-use stamp)
    clock: u64,
    stats: MetaCacheStats,
}

impl MetaCache {
    /// 8-way associativity, as typical for small SRAM lookup structures.
    const WAYS: usize = 8;

    /// Creates a cache of `capacity_bytes` holding `entry_bytes` entries.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(capacity_bytes: u64, entry_bytes: u64) -> Self {
        assert!(capacity_bytes > 0 && entry_bytes > 0);
        let entries = usize_from_u64((capacity_bytes / entry_bytes).max(1));
        let ways = Self::WAYS.min(entries);
        let num_sets = (entries / ways).max(1);
        MetaCache {
            ways,
            sets: vec![Vec::with_capacity(ways); num_sets],
            clock: 0,
            stats: MetaCacheStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MetaCacheStats {
        self.stats
    }

    /// Looks up `key`, installing it on miss (evicting LRU). Returns `true`
    /// on hit.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a residue modulo the set count fits usize"
    )]
    pub fn access(&mut self, key: u64) -> bool {
        self.clock += 1;
        self.stats.lookups += 1;
        // Fibonacci hashing spreads sequential keys across sets.
        let h = key.wrapping_mul(0x9E3779B97F4A7C15);
        let set_idx = (h % self.sets.len() as u64) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(entry) = set.iter_mut().find(|(k, _)| *k == key) {
            entry.1 = self.clock;
            return true;
        }
        self.stats.misses += 1;
        if set.len() >= self.ways {
            #[expect(
                clippy::expect_used,
                reason = "invariant: ways >= 1, so a set this full has an LRU entry"
            )]
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(i, _)| i)
                .expect("set is non-empty");
            set.swap_remove(lru);
        }
        set.push((key, self.clock));
        false
    }

    /// Removes `key` if present (used when an entry is restructured).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a residue modulo the set count fits usize"
    )]
    pub fn invalidate(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E3779B97F4A7C15);
        let set_idx = (h % self.sets.len() as u64) as usize;
        self.sets[set_idx].retain(|(k, _)| *k != key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_install() {
        let mut c = MetaCache::new(64 * 8, 8);
        assert!(!c.access(1));
        assert!(c.access(1));
        assert_eq!(c.stats().lookups, 2);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_oldest_in_set() {
        // One set of 8 ways: fill, touch the first, add a ninth.
        let mut c = MetaCache::new(8 * 8, 8);
        for k in 0..8u64 {
            c.access(k);
        }
        c.access(0); // refresh 0
        c.access(100); // evicts LRU (key 1)
        assert!(c.access(0), "refreshed key must survive");
        assert!(!c.access(1), "LRU key must be gone");
    }

    #[test]
    fn working_set_within_capacity_eventually_all_hits() {
        let mut c = MetaCache::new(4096 * 8, 8);
        for _ in 0..3 {
            for k in 0..1000u64 {
                c.access(k);
            }
        }
        let s = c.stats();
        // Only the first pass misses (sets are large enough at 8 ways).
        assert!(s.miss_rate() < 0.45, "{}", s.miss_rate());
    }

    #[test]
    fn larger_cache_misses_less() {
        let run = |bytes: u64| {
            let mut c = MetaCache::new(bytes, 8);
            let mut x = 1u64;
            for _ in 0..50_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                c.access(x % 4096);
            }
            c.stats().miss_rate()
        };
        let small = run(16 * 1024);
        let large = run(64 * 1024);
        assert!(large < small, "large={large} small={small}");
    }

    #[test]
    fn invalidate_forces_next_miss() {
        let mut c = MetaCache::new(64 * 8, 8);
        c.access(7);
        c.invalidate(7);
        assert!(!c.access(7));
    }

    #[test]
    fn stats_merge() {
        let mut a = MetaCacheStats {
            lookups: 10,
            misses: 2,
        };
        a.merge(&MetaCacheStats {
            lookups: 10,
            misses: 8,
        });
        assert_eq!(a.lookups, 20);
        assert!((a.miss_rate() - 0.5).abs() < 1e-12);
    }
}
