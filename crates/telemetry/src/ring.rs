//! Per-epoch snapshots and the bounded ring that retains the most recent
//! ones in memory (the full series streams to the event sink as JSONL).

use std::collections::{HashMap, VecDeque};

use serde::Serialize;

/// One epoch's worth of derived metrics.
///
/// Cumulative fields carry their value *as of the epoch boundary*; `_delta`
/// fields cover the window since the previous snapshot (which spans several
/// epochs when the trace was idle — see [`EpochSnapshot::epochs_elapsed`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EpochSnapshot {
    /// Epoch index at this boundary (`floor(t / epoch_len)`).
    pub epoch: u64,
    /// Boundary simulated time, picoseconds.
    pub t_ps: u64,
    /// Epoch boundaries covered by this snapshot (1 in steady state; >1
    /// after an idle gap in the trace).
    pub epochs_elapsed: u64,
    /// Foreground requests admitted so far (cumulative).
    pub requests: u64,
    /// Foreground requests admitted in this window.
    pub requests_delta: u64,
    /// AMMAT over the run so far, picoseconds (`None` before any request
    /// has completed).
    pub ammat_ps_so_far: Option<f64>,
    /// Migrations triggered so far (cumulative).
    pub migrations: u64,
    /// Migrations triggered in this window.
    pub migrations_delta: u64,
    /// Bytes queued for movement in this window.
    pub bytes_moved_delta: u64,
    /// Per-pod bytes moved in this window (empty for non-clustered
    /// managers).
    pub per_pod_bytes_delta: Vec<u64>,
    /// Requests serviced by the fast tier in this window.
    pub fast_requests_delta: u64,
    /// Requests serviced by the slow tier in this window.
    pub slow_requests_delta: u64,
    /// Fast-tier share of serviced requests in this window.
    pub fast_service_fraction: Option<f64>,
    /// Row-buffer hit rate across all channels in this window.
    pub row_hit_rate: Option<f64>,
    /// Queue-depth p50 across scheduling decisions in this window.
    pub queue_depth_p50: Option<u64>,
    /// Queue-depth p99 across scheduling decisions in this window.
    pub queue_depth_p99: Option<u64>,
    /// Largest queue depth observed in this window.
    pub queue_depth_max: Option<u64>,
    /// All-bank refreshes booked in this window.
    pub refreshes_delta: u64,
    /// Metadata-cache misses (injected metadata fetches) in this window.
    pub meta_miss_delta: u64,
    /// Manager-specific per-window deltas (e.g. `mea.evictions`,
    /// `mempod.epochs`): the manager's cumulative
    /// `MemoryManager::telemetry_counters` diffed against the previous
    /// poll, matched by counter name.
    pub manager: HashMap<String, u64>,
}

impl EpochSnapshot {
    /// An all-zero snapshot for epoch `epoch` at time `t_ps`.
    pub fn empty(epoch: u64, t_ps: u64) -> Self {
        EpochSnapshot {
            epoch,
            t_ps,
            epochs_elapsed: 1,
            requests: 0,
            requests_delta: 0,
            ammat_ps_so_far: None,
            migrations: 0,
            migrations_delta: 0,
            bytes_moved_delta: 0,
            per_pod_bytes_delta: Vec::new(),
            fast_requests_delta: 0,
            slow_requests_delta: 0,
            fast_service_fraction: None,
            row_hit_rate: None,
            queue_depth_p50: None,
            queue_depth_p99: None,
            queue_depth_max: None,
            refreshes_delta: 0,
            meta_miss_delta: 0,
            manager: HashMap::new(),
        }
    }
}

/// A bounded ring of the most recent [`EpochSnapshot`]s.
///
/// # Examples
///
/// ```
/// use mempod_telemetry::{EpochSnapshot, SnapshotRing};
///
/// let mut ring = SnapshotRing::new(2);
/// for e in 0..5 {
///     ring.push(EpochSnapshot::empty(e, e * 100));
/// }
/// assert_eq!(ring.len(), 2);
/// assert_eq!(ring.total_pushed(), 5);
/// assert_eq!(ring.latest().unwrap().epoch, 4);
/// assert_eq!(ring.iter().next().unwrap().epoch, 3); // oldest retained
/// ```
#[derive(Debug, Clone, Default)]
pub struct SnapshotRing {
    cap: usize,
    buf: VecDeque<EpochSnapshot>,
    total: u64,
}

impl SnapshotRing {
    /// A ring retaining at most `cap` snapshots (`cap == 0` retains none,
    /// but still counts pushes).
    pub fn new(cap: usize) -> Self {
        SnapshotRing {
            cap,
            buf: VecDeque::with_capacity(cap.min(4096)),
            total: 0,
        }
    }

    /// Appends a snapshot, evicting the oldest when full.
    pub fn push(&mut self, snap: EpochSnapshot) {
        self.total += 1;
        if self.cap == 0 {
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(snap);
    }

    /// Retained snapshots, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &EpochSnapshot> {
        self.buf.iter()
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Retention capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total snapshots ever pushed (including evicted ones).
    pub fn total_pushed(&self) -> u64 {
        self.total
    }

    /// The most recent snapshot, if any.
    pub fn latest(&self) -> Option<&EpochSnapshot> {
        self.buf.back()
    }

    /// Drains the retained snapshots, oldest first.
    pub fn drain(&mut self) -> Vec<EpochSnapshot> {
        self.buf.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_keeps_newest() {
        let mut ring = SnapshotRing::new(3);
        for e in 0..10u64 {
            ring.push(EpochSnapshot::empty(e, e));
        }
        let kept: Vec<u64> = ring.iter().map(|s| s.epoch).collect();
        assert_eq!(kept, vec![7, 8, 9]);
        assert_eq!(ring.total_pushed(), 10);
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn zero_capacity_counts_without_retaining() {
        let mut ring = SnapshotRing::new(0);
        ring.push(EpochSnapshot::empty(0, 0));
        assert!(ring.is_empty());
        assert_eq!(ring.total_pushed(), 1);
        assert!(ring.latest().is_none());
    }

    #[test]
    fn drain_empties_in_order() {
        let mut ring = SnapshotRing::new(4);
        for e in 0..4u64 {
            ring.push(EpochSnapshot::empty(e, e));
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 4);
        assert!(ring.is_empty());
        assert_eq!(drained[0].epoch, 0);
        assert_eq!(drained[3].epoch, 3);
    }
}
