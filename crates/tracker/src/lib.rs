//! Hot-page activity tracking for hybrid memories (paper §3 and §4.2).
//!
//! Migration mechanisms must predict which pages will be hot in the *next*
//! interval. This crate provides the three tracking structures compared in
//! the paper, behind one [`ActivityTracker`] trait:
//!
//! * [`MeaTracker`] — the paper's contribution: a K-entry map driven by the
//!   Majority Element Algorithm (Karp et al. / Charikar et al.), which blends
//!   access counting with recency at ~0.01 % of the cost of full counters.
//! * [`FullCounters`] — one saturating counter per page (what HMA uses).
//! * [`CompetingCounter`] — THM's per-segment competing counter.
//!
//! The [`accuracy`] module is the offline oracle harness behind the paper's
//! Figures 1–3: it replays an interval-chunked page stream and scores each
//! tracker's ability to (a) identify the top pages of the *past* interval and
//! (b) predict the top pages of the *next* interval.
//!
//! # Examples
//!
//! ```
//! use mempod_tracker::{ActivityTracker, MeaTracker};
//! use mempod_types::PageId;
//!
//! let mut mea = MeaTracker::new(4, 8); // 4 entries, 8-bit counters
//! for _ in 0..5 {
//!     mea.record(PageId(7));
//! }
//! mea.record(PageId(9));
//! let hot = mea.hot_pages();
//! assert_eq!(hot[0].0, PageId(7));
//! assert_eq!(hot[0].1, 5);
//! ```

// Pipeline rules (DESIGN.md §8): no panics, prints, lossy casts,
// wall-clock reads, hash-order iteration or interior mutability outside
// tests. The `disallowed_*` lists live in the root clippy.toml.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unimplemented,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::disallowed_macros,
        clippy::iter_over_hash_type
    )
)]

pub mod accuracy;
pub mod competing;
pub mod full_counters;
pub mod mea;

pub use accuracy::{
    prediction_study, split_into_intervals, true_ranking, AccuracyReport, TierScore, TIERS,
    TIER_WIDTH,
};
pub use competing::{CompetingCounter, CompetingOutcome};
pub use full_counters::FullCounters;
pub use mea::{MeaOpStats, MeaTracker};

use mempod_types::PageId;

/// A structure that observes a stream of page accesses and reports a hot set.
///
/// Implementations differ wildly in storage cost (MEA: hundreds of bytes;
/// full counters: megabytes) and in *what* their counts mean — see the
/// paper's §3 for why low "counting accuracy" can coexist with high
/// *prediction* accuracy.
pub trait ActivityTracker {
    /// Observes one access to `page`.
    fn record(&mut self, page: PageId);

    /// The current hot set, highest count first (ties broken by page id for
    /// determinism). Length is implementation-defined: MEA returns at most
    /// its K entries; full counters return every touched page.
    fn hot_pages(&self) -> Vec<(PageId, u64)>;

    /// Clears all state for a new interval.
    fn reset(&mut self);

    /// Storage the hardware implementation would need, in bits, given
    /// `tag_bits` to name a page. Used to regenerate Table 1.
    fn storage_bits(&self, tag_bits: u32) -> u64;
}

/// Sorts a `(page, count)` list by count descending, page id ascending.
///
/// Shared tie-break rule so every tracker reports deterministically.
pub fn sort_hot(mut v: Vec<(PageId, u64)>) -> Vec<(PageId, u64)> {
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_hot_orders_by_count_then_id() {
        let v = vec![
            (PageId(5), 2),
            (PageId(1), 9),
            (PageId(3), 2),
            (PageId(2), 9),
        ];
        let s = sort_hot(v);
        assert_eq!(
            s,
            vec![
                (PageId(1), 9),
                (PageId(2), 9),
                (PageId(3), 2),
                (PageId(5), 2),
            ]
        );
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes(_: &dyn ActivityTracker) {}
    }
}
