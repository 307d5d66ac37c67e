//! The log2-bucket histogram behind the per-epoch queue-depth
//! percentiles: recording is a leading-zeros count plus an add, and the
//! epoch driver diffs cumulative histograms between epochs.

use serde::Serialize;

/// Number of log2 buckets: bucket `b` holds values whose bit length is `b`
/// (value 0 in bucket 0, 1 in bucket 1, 2–3 in bucket 2, ... up to bucket
/// 64 for values ≥ 2^63).
pub const LOG2_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
///
/// Recording costs one leading-zeros instruction, an array increment and
/// min/max updates. Percentile queries return the upper bound of the bucket
/// the requested rank falls in, clamped to the recorded `[min, max]` range,
/// so for any recorded data: `min() ≤ p50 ≤ p99 ≤ max()`.
///
/// # Examples
///
/// ```
/// use mempod_telemetry::Log2Histogram;
///
/// let mut h = Log2Histogram::new();
/// for v in [1u64, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.min(), Some(1));
/// assert_eq!(h.max(), Some(100));
/// let p50 = h.value_at_quantile(0.50).unwrap();
/// let p99 = h.value_at_quantile(0.99).unwrap();
/// assert!(1 <= p50 && p50 <= p99 && p99 <= 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
    /// Smallest recorded value (`u64::MAX` while empty).
    min: u64,
    /// Largest recorded value (0 while empty).
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index of a value: its bit length.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Upper bound of the values bucket `b` can hold.
fn bucket_upper_bound(b: usize) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded samples (`None` while empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The value at quantile `q` (0.0 ..= 1.0): the upper bound of the
    /// bucket containing the ⌈q·count⌉-th smallest sample, clamped to the
    /// recorded `[min, max]` range. `None` while empty.
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(bucket_upper_bound(b).clamp(self.min, self.max));
            }
        }
        // Unreachable while `count` equals the bucket total; be safe anyway.
        Some(self.max)
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Bucket-wise difference `self − earlier`, for turning a cumulative
    /// histogram into a per-epoch one. `min`/`max` cannot be reconstructed
    /// for the window, so the cumulative bounds carry over (the clamp range
    /// stays an over-approximation of the window's true range).
    pub fn diff(&self, earlier: &Log2Histogram) -> Log2Histogram {
        let mut out = self.clone();
        for (a, b) in out.buckets.iter_mut().zip(earlier.buckets.iter()) {
            *a = a.saturating_sub(*b);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        if out.count == 0 {
            out.min = u64::MAX;
            out.max = 0;
        }
        out
    }

    /// Resets to empty.
    pub fn clear(&mut self) {
        *self = Log2Histogram::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_follow_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn empty_histogram_yields_none() {
        let h = Log2Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.value_at_quantile(0.5), None);
    }

    #[test]
    fn single_value_is_every_percentile() {
        let mut h = Log2Histogram::new();
        h.record(37);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.value_at_quantile(q), Some(37));
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Log2Histogram::new();
        for v in 0..1000u64 {
            h.record(v * 17 % 512);
        }
        let mut last = h.min().unwrap();
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let p = h.value_at_quantile(q).unwrap();
            assert!(p >= last, "q={q}: {p} < {last}");
            assert!(p <= h.max().unwrap());
            last = p;
        }
    }

    #[test]
    fn merge_and_diff_are_inverse_on_counts() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for v in [1u64, 5, 9, 200] {
            a.record(v);
        }
        for v in [3u64, 1024] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 6);
        let back = merged.diff(&a);
        assert_eq!(back.count(), b.count());
        assert_eq!(back.sum(), b.sum());
    }
}
