//! THM-style competing counters (paper §2, §5.2).
//!
//! THM (Sim et al., MICRO 2014) restricts migration to *segments*: one fast
//! page plus N slow pages. Each segment has a single small counter and a
//! *challenger* slot. Accesses to the challenger increment the counter;
//! accesses to the fast-resident page (or to a different slow page) push it
//! down. When the counter crosses a threshold, the challenger has "won" and
//! is swapped into the segment's fast slot.
//!
//! This is the mechanism the paper credits with low cost but blames for
//! false-positive migrations ("a cold page can migrate to fast memory if it
//! gets accessed at the right time") and for serializing hot pages that share
//! a segment.

use mempod_types::PageId;
use serde::Serialize;

/// What a [`CompetingCounter`] decided after observing one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CompetingOutcome {
    /// No migration triggered.
    None,
    /// The challenger crossed the threshold: swap it with the fast resident.
    Swap {
        /// The slow page that won the competition.
        winner: PageId,
    },
}

/// One segment's competing counter.
///
/// # Examples
///
/// ```
/// use mempod_tracker::{CompetingCounter, CompetingOutcome};
/// use mempod_types::PageId;
///
/// let mut c = CompetingCounter::new(4);
/// for _ in 0..3 {
///     assert_eq!(c.on_slow_access(PageId(9)), CompetingOutcome::None);
/// }
/// assert_eq!(
///     c.on_slow_access(PageId(9)),
///     CompetingOutcome::Swap { winner: PageId(9) }
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CompetingCounter {
    challenger: Option<PageId>,
    count: u32,
    threshold: u32,
}

impl CompetingCounter {
    /// Creates a counter that triggers a swap once a challenger accumulates
    /// `threshold` net accesses.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(threshold: u32) -> Self {
        assert!(threshold > 0, "threshold must be nonzero");
        CompetingCounter {
            challenger: None,
            count: 0,
            threshold,
        }
    }

    /// The current challenger, if any.
    pub fn challenger(&self) -> Option<PageId> {
        self.challenger
    }

    /// The challenger's current score.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The configured trigger threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Observes an access to slow page `page` within this segment.
    ///
    /// Same-challenger accesses increment; a different slow page erodes the
    /// incumbent challenger and replaces it once the count reaches zero
    /// (classic "competing" behaviour).
    pub fn on_slow_access(&mut self, page: PageId) -> CompetingOutcome {
        match self.challenger {
            Some(c) if c == page => {
                self.count += 1;
                if self.count >= self.threshold {
                    self.challenger = None;
                    self.count = 0;
                    return CompetingOutcome::Swap { winner: page };
                }
            }
            Some(_) => {
                if self.count == 0 {
                    self.challenger = Some(page);
                    self.count = 1;
                } else {
                    self.count -= 1;
                }
            }
            None => {
                self.challenger = Some(page);
                self.count = 1;
                if self.count >= self.threshold {
                    self.challenger = None;
                    self.count = 0;
                    return CompetingOutcome::Swap { winner: page };
                }
            }
        }
        CompetingOutcome::None
    }

    /// Observes an access to the segment's fast-resident page, which defends
    /// its spot by eroding the challenger.
    pub fn on_fast_access(&mut self) {
        if self.count > 0 {
            self.count -= 1;
            if self.count == 0 {
                self.challenger = None;
            }
        }
    }

    /// Clears the competition state (used after a swap or at interval boundaries).
    pub fn reset(&mut self) {
        self.challenger = None;
        self.count = 0;
    }

    /// Hardware cost in bits: counter plus a challenger tag.
    pub fn storage_bits(&self, tag_bits: u32) -> u64 {
        let counter_bits = 32 - self.threshold.leading_zeros().min(31);
        u64::from(counter_bits) + u64::from(tag_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_challenger_wins_at_threshold() {
        let mut c = CompetingCounter::new(3);
        assert_eq!(c.on_slow_access(PageId(5)), CompetingOutcome::None);
        assert_eq!(c.on_slow_access(PageId(5)), CompetingOutcome::None);
        assert_eq!(
            c.on_slow_access(PageId(5)),
            CompetingOutcome::Swap { winner: PageId(5) }
        );
        // State cleared after the win.
        assert_eq!(c.challenger(), None);
        assert_eq!(c.count(), 0);
    }

    #[test]
    fn fast_accesses_defend_the_resident() {
        let mut c = CompetingCounter::new(3);
        c.on_slow_access(PageId(5));
        c.on_slow_access(PageId(5)); // count 2
        c.on_fast_access(); // count 1
        c.on_fast_access(); // count 0, challenger evicted
        assert_eq!(c.challenger(), None);
        // The next slow access starts a fresh competition.
        assert_eq!(c.on_slow_access(PageId(6)), CompetingOutcome::None);
        assert_eq!(c.challenger(), Some(PageId(6)));
    }

    #[test]
    fn rival_slow_pages_erode_then_replace() {
        let mut c = CompetingCounter::new(10);
        c.on_slow_access(PageId(1)); // challenger=1, count 1
        c.on_slow_access(PageId(2)); // erode: count 0 -> wait, erode first
                                     // After erosion to zero the *next* rival takes over.
        assert_eq!(c.count(), 0);
        c.on_slow_access(PageId(2)); // count==0 -> challenger=2, count 1
        assert_eq!(c.challenger(), Some(PageId(2)));
    }

    #[test]
    fn threshold_one_swaps_immediately() {
        let mut c = CompetingCounter::new(1);
        assert_eq!(
            c.on_slow_access(PageId(9)),
            CompetingOutcome::Swap { winner: PageId(9) }
        );
    }

    #[test]
    fn interleaved_hot_pages_can_stall_each_other() {
        // The paper's "ping-pong within a segment" pathology: two equally hot
        // slow pages never let each other reach the threshold.
        let mut c = CompetingCounter::new(4);
        for _ in 0..100 {
            assert_eq!(c.on_slow_access(PageId(1)), CompetingOutcome::None);
            assert_eq!(c.on_slow_access(PageId(2)), CompetingOutcome::None);
        }
    }

    #[test]
    fn storage_cost_is_small() {
        // THM Table 1: 8 bits per fast page of tracking state. With a
        // threshold fitting 4 bits and a 4-bit way tag this is comparable.
        let c = CompetingCounter::new(15);
        assert!(c.storage_bits(4) <= 8);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = CompetingCounter::new(5);
        c.on_slow_access(PageId(3));
        c.reset();
        assert_eq!(c.challenger(), None);
        assert_eq!(c.count(), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_threshold_panics() {
        let _ = CompetingCounter::new(0);
    }
}
