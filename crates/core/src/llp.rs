//! CAMEO's Line Location Predictor (LLP; paper §2).
//!
//! CAMEO keeps its congruence-group bookkeeping *in memory*; consulting it
//! on every access would double memory traffic. The LLP is a small on-chip
//! predictor that guesses whether the requested line currently sits in its
//! group's fast slot, "saving some bookkeeping-related accesses by
//! predicting the location of a line". A correct prediction skips the
//! bookkeeping read; a misprediction pays it (one blocking read).
//!
//! We implement it as a tagless table of 2-bit saturating counters indexed
//! by a hash of the *group* id: groups whose fast slot keeps servicing
//! accesses train toward "fast-resident", thrashing groups train away.

use serde::Serialize;

/// Prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LlpStats {
    /// Total predictions made.
    pub predictions: u64,
    /// Predictions that matched the line's real location class.
    pub correct: u64,
}

impl LlpStats {
    /// Fraction of correct predictions.
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }
}

/// A tagless 2-bit-counter line-location predictor.
///
/// # Examples
///
/// ```
/// use mempod_core::LineLocationPredictor;
///
/// let mut llp = LineLocationPredictor::new(1024);
/// // Train group 7 toward "accessed line is fast-resident".
/// llp.predict_and_train(7, true);
/// llp.predict_and_train(7, true);
/// assert!(llp.predict(7));
/// ```
#[derive(Debug, Clone)]
pub struct LineLocationPredictor {
    counters: Vec<u8>,
    stats: LlpStats,
}

impl LineLocationPredictor {
    /// Creates a predictor with `entries` 2-bit counters (rounded up to a
    /// power of two), initialized weakly toward "not fast" (slow-resident
    /// is the common case at a 1:8 ratio).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "predictor needs at least one entry");
        LineLocationPredictor {
            counters: vec![1; entries.next_power_of_two()],
            stats: LlpStats::default(),
        }
    }

    /// Storage cost in bits (2 bits per entry — Table-1 style accounting).
    pub fn storage_bits(&self) -> u64 {
        2 * self.counters.len() as u64
    }

    /// Accumulated accuracy statistics.
    pub fn stats(&self) -> LlpStats {
        self.stats
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "only the low bits survive the mask by the power-of-two table length"
    )]
    fn index(&self, group: u64) -> usize {
        let h = group.wrapping_mul(0x9E3779B97F4A7C15);
        (h as usize) & (self.counters.len() - 1)
    }

    /// The current prediction for `group`: `true` = the accessed line is in
    /// the fast slot (no side effects).
    pub fn predict(&self, group: u64) -> bool {
        self.counters[self.index(group)] >= 2
    }

    /// Predicts, then trains with the actual outcome; returns whether the
    /// prediction was correct.
    pub fn predict_and_train(&mut self, group: u64, actually_fast: bool) -> bool {
        let idx = self.index(group);
        let predicted_fast = self.counters[idx] >= 2;
        let correct = predicted_fast == actually_fast;
        self.stats.predictions += 1;
        if correct {
            self.stats.correct += 1;
        }
        let c = &mut self.counters[idx];
        if actually_fast {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_bias_is_slow() {
        let llp = LineLocationPredictor::new(64);
        assert!(!llp.predict(0));
        assert!(!llp.predict(42));
    }

    #[test]
    fn trains_to_stable_behaviour() {
        let mut llp = LineLocationPredictor::new(64);
        for _ in 0..4 {
            llp.predict_and_train(9, true);
        }
        assert!(llp.predict(9));
        for _ in 0..4 {
            llp.predict_and_train(9, false);
        }
        assert!(!llp.predict(9));
    }

    #[test]
    fn accuracy_tracks_correctness() {
        let mut llp = LineLocationPredictor::new(64);
        // First prediction (slow-biased) on a slow access: correct.
        assert!(llp.predict_and_train(1, false));
        // Then a fast access: mispredicted.
        assert!(!llp.predict_and_train(1, true));
        let s = llp.stats();
        assert_eq!(s.predictions, 2);
        assert_eq!(s.correct, 1);
        assert!((s.accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counters_saturate_both_ways() {
        let mut llp = LineLocationPredictor::new(2);
        for _ in 0..100 {
            llp.predict_and_train(0, true);
        }
        assert!(llp.predict(0));
        for _ in 0..100 {
            llp.predict_and_train(0, false);
        }
        assert!(!llp.predict(0));
    }

    #[test]
    fn storage_is_small() {
        // The paper's LLP is a small on-chip structure: 4K entries = 1 KB.
        let llp = LineLocationPredictor::new(4096);
        assert_eq!(llp.storage_bits() / 8, 1024);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        let _ = LineLocationPredictor::new(0);
    }
}
