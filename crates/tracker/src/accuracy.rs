//! Offline oracle study of MEA vs Full Counters (paper §3, Figures 1–3).
//!
//! The paper evaluates tracking quality *outside* the timing simulator: a
//! recorded page-access stream is chopped into fixed-size intervals (5500
//! requests ≈ one 50 µs epoch) and replayed through MEA and FC side by side
//! with oracle knowledge of the next interval. Two questions are asked per
//! interval, each scored over three tiers of the true ranking (ranks 1–10,
//! 11–20, 21–30):
//!
//! * **Counting accuracy** (Fig. 1) — how many of the *past* interval's top
//!   pages does MEA's table contain? (FC is perfect by construction.)
//! * **Prediction accuracy** (Figs. 2–3) — treating each tracker's
//!   end-of-interval hot set as a prediction, how many of the *next*
//!   interval's top pages does it hit? To compare fairly, FC contributes its
//!   top *N* pages where *N* is however many entries MEA returned.

use std::collections::HashSet;

use mempod_types::PageId;
use serde::Serialize;

use crate::{sort_hot, ActivityTracker, FullCounters, MeaTracker};

/// Number of ranking tiers scored (ranks 1–10, 11–20, 21–30).
pub const TIERS: usize = 3;
/// Pages per tier.
pub const TIER_WIDTH: usize = 10;

/// Hits (or identification counts) on each tier, plus the opportunity count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct TierScore {
    /// Raw hits per tier, summed over intervals.
    pub hits: [u64; TIERS],
    /// Maximum possible hits per tier (tier population summed over
    /// intervals; the last interval of a workload may touch < 30 pages).
    pub possible: [u64; TIERS],
}

impl TierScore {
    /// Fraction of possible hits achieved in `tier` (0-based), in `0.0..=1.0`.
    pub fn fraction(&self, tier: usize) -> f64 {
        if self.possible[tier] == 0 {
            0.0
        } else {
            self.hits[tier] as f64 / self.possible[tier] as f64
        }
    }

    /// Adds another score elementwise (for averaging across workloads).
    pub fn accumulate(&mut self, other: &TierScore) {
        for t in 0..TIERS {
            self.hits[t] += other.hits[t];
            self.possible[t] += other.possible[t];
        }
    }
}

/// The complete §3 study for one workload.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct AccuracyReport {
    /// Fig. 1: MEA's identification of the past interval's top tiers.
    pub mea_counting: TierScore,
    /// Fig. 2–3: MEA's hits on the next interval's top tiers.
    pub mea_prediction: TierScore,
    /// Fig. 2–3: FC's hits on the next interval's top tiers (top-N, N =
    /// MEA's prediction size).
    pub fc_prediction: TierScore,
    /// Number of scored intervals.
    pub intervals: u64,
    /// Mean number of predictions MEA produced per interval.
    pub mean_mea_predictions: f64,
}

/// Splits a page stream into fixed-size intervals (the tail partial interval
/// is kept: the paper's traces do not align to 5500 exactly either).
pub fn split_into_intervals(pages: &[PageId], interval_len: usize) -> Vec<&[PageId]> {
    assert!(interval_len > 0, "interval length must be nonzero");
    pages.chunks(interval_len).collect()
}

/// Exact ranking of an interval's pages: count descending, id ascending.
pub fn true_ranking(interval: &[PageId]) -> Vec<(PageId, u64)> {
    let mut counts = std::collections::HashMap::new();
    for &p in interval {
        *counts.entry(p).or_insert(0u64) += 1;
    }
    sort_hot(counts.into_iter().collect())
}

fn tier_sets(ranking: &[(PageId, u64)]) -> [HashSet<PageId>; TIERS] {
    let mut sets: [HashSet<PageId>; TIERS] = Default::default();
    for (rank, (page, _)) in ranking.iter().take(TIERS * TIER_WIDTH).enumerate() {
        sets[rank / TIER_WIDTH].insert(*page);
    }
    sets
}

#[expect(
    clippy::disallowed_methods,
    reason = "order-insensitive: only the size of the intersection is used"
)]
fn score_against_tiers(
    prediction: &HashSet<PageId>,
    tiers: &[HashSet<PageId>; TIERS],
) -> TierScore {
    let mut s = TierScore::default();
    for (t, tier) in tiers.iter().enumerate() {
        s.possible[t] = tier.len() as u64;
        s.hits[t] = tier.intersection(prediction).count() as u64;
    }
    s
}

/// Runs the full §3 study on one workload's page stream.
///
/// `mea_entries` and `mea_counter_bits` configure the MEA under test (the
/// paper's Fig. 1–3 use 128 entries and wide counters); FC uses exact
/// (sparse) counting as the paper's oracle does.
///
/// # Examples
///
/// ```
/// use mempod_tracker::prediction_study;
/// use mempod_types::PageId;
///
/// // A stable hot set is predictable by both trackers.
/// let stream: Vec<PageId> = (0..10_000u64).map(|i| PageId(i % 10)).collect();
/// let report = prediction_study(&stream, 1000, 128, 16);
/// assert!(report.mea_prediction.fraction(0) > 0.9);
/// assert!(report.fc_prediction.fraction(0) > 0.9);
/// ```
pub fn prediction_study(
    pages: &[PageId],
    interval_len: usize,
    mea_entries: usize,
    mea_counter_bits: u32,
) -> AccuracyReport {
    let intervals = split_into_intervals(pages, interval_len);
    let mut report = AccuracyReport::default();
    if intervals.is_empty() {
        return report;
    }

    let mut mea = MeaTracker::new(mea_entries, mea_counter_bits);
    // Page population bound is irrelevant for sparse FC; use u64::MAX pages.
    let mut fc = FullCounters::new(u64::MAX, 64);

    let mut total_predictions = 0usize;
    for (i, interval) in intervals.iter().enumerate() {
        mea.reset();
        fc.reset();
        for &p in *interval {
            mea.record(p);
            fc.record(p);
        }

        // Fig. 1: counting accuracy against *this* interval's truth.
        let now_tiers = tier_sets(&true_ranking(interval));
        let mea_set: HashSet<PageId> = mea.hot_pages().into_iter().map(|(p, _)| p).collect();
        report
            .mea_counting
            .accumulate(&score_against_tiers(&mea_set, &now_tiers));

        // Figs. 2–3: prediction against the *next* interval's truth.
        if let Some(next) = intervals.get(i + 1) {
            let next_tiers = tier_sets(&true_ranking(next));
            let n = mea_set.len();
            total_predictions += n;
            let fc_set: HashSet<PageId> = fc.top_n(n).into_iter().map(|(p, _)| p).collect();
            report
                .mea_prediction
                .accumulate(&score_against_tiers(&mea_set, &next_tiers));
            report
                .fc_prediction
                .accumulate(&score_against_tiers(&fc_set, &next_tiers));
            report.intervals += 1;
        }
    }
    if report.intervals > 0 {
        report.mean_mea_predictions = total_predictions as f64 / report.intervals as f64;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_of(ids: impl IntoIterator<Item = u64>) -> Vec<PageId> {
        ids.into_iter().map(PageId).collect()
    }

    #[test]
    fn split_keeps_tail() {
        let s = stream_of(0..25);
        let iv = split_into_intervals(&s, 10);
        assert_eq!(iv.len(), 3);
        assert_eq!(iv[2].len(), 5);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn split_zero_interval_panics() {
        let s = stream_of(0..5);
        let _ = split_into_intervals(&s, 0);
    }

    #[test]
    fn true_ranking_counts_and_orders() {
        let s = stream_of([1, 2, 2, 3, 3, 3]);
        let r = true_ranking(&s);
        assert_eq!(r[0], (PageId(3), 3));
        assert_eq!(r[1], (PageId(2), 2));
        assert_eq!(r[2], (PageId(1), 1));
    }

    #[test]
    fn stable_hot_set_predicted_by_both() {
        // 30 pages, page i accessed (31-i) times per interval: stable tiers.
        let mut s = Vec::new();
        for _ in 0..20 {
            for page in 0..30u64 {
                for _ in 0..(31 - page) {
                    s.push(PageId(page));
                }
            }
        }
        let r = prediction_study(&s, 30 * 31, 128, 16);
        for t in 0..TIERS {
            assert!(r.mea_prediction.fraction(t) > 0.9, "tier {t}");
            assert!(r.fc_prediction.fraction(t) > 0.9, "tier {t}");
        }
        assert!(r.mea_counting.fraction(0) > 0.9);
    }

    #[test]
    fn streaming_defeats_fc_more_than_mea() {
        // The paper's bwaves/libquantum case: a stream marches through pages
        // larger than an interval, so past top counts never recur, but the
        // *last* pages of interval i overlap the start of interval i+1 when
        // a page's accesses straddle the boundary. Model: sequential pages,
        // 40 accesses each, interval of 1000 -> 25 pages per interval.
        let mut s = Vec::new();
        for page in 0..1000u64 {
            for _ in 0..40 {
                s.push(PageId(page));
            }
        }
        let r = prediction_study(&s, 1000, 128, 16);
        let mea_total: u64 = r.mea_prediction.hits.iter().sum();
        let fc_total: u64 = r.fc_prediction.hits.iter().sum();
        // Both are low, but MEA's recency bias must not LOSE to FC here.
        assert!(mea_total >= fc_total, "mea={mea_total} fc={fc_total}");
    }

    #[test]
    fn lbm_like_constant_work_favors_mea() {
        // The paper's lbm analysis: FC ranks pages the app is already done
        // with; MEA favors pages still being worked on at the interval's
        // end. Each interval: 100 "dying" pages get 8 accesses each (done
        // forever), then 30 "rising" pages get ~7 accesses each — and the
        // rising set is the next interval's dying (hence top-ranked) set.
        let mut s = Vec::new();
        let dying = 100u64;
        let rising = 30u64;
        for interval in 0..20u64 {
            let d_base = interval * (dying + rising) * 1000;
            let r_base = (interval + 1) * (dying + rising) * 1000;
            // Interleave round-robin so accesses are spread in time.
            for _round in 0..8 {
                for p in 0..dying {
                    s.push(PageId(d_base + p));
                }
            }
            for _round in 0..7 {
                for p in 0..rising {
                    s.push(PageId(r_base + p));
                }
            }
        }
        // Note: interval_len must match one generated block: 100*8 + 30*7.
        let r = prediction_study(&s, 1010, 64, 4);
        let mea_total: u64 = r.mea_prediction.hits.iter().sum();
        let fc_total: u64 = r.fc_prediction.hits.iter().sum();
        assert!(
            mea_total > 2 * fc_total.max(1),
            "recency should beat count here: mea={mea_total} fc={fc_total}"
        );
    }

    #[test]
    fn empty_stream_yields_empty_report() {
        let r = prediction_study(&[], 100, 64, 4);
        assert_eq!(r.intervals, 0);
        assert_eq!(r.mea_prediction.fraction(0), 0.0);
    }

    #[test]
    fn tier_score_fraction_handles_zero_possible() {
        let s = TierScore::default();
        assert_eq!(s.fraction(0), 0.0);
    }

    #[test]
    fn accumulate_adds_elementwise() {
        let mut a = TierScore {
            hits: [1, 2, 3],
            possible: [10, 10, 10],
        };
        let b = TierScore {
            hits: [4, 5, 6],
            possible: [10, 10, 10],
        };
        a.accumulate(&b);
        assert_eq!(a.hits, [5, 7, 9]);
        assert_eq!(a.possible, [20, 20, 20]);
        assert!((a.fraction(0) - 0.25).abs() < 1e-12);
    }
}
