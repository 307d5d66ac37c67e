//! Wall-clock phase accounting for the sharded event loop.
//!
//! The sharded simulator alternates parallel *shard* phases with
//! main-thread time between them: batch cutting and barrier bookkeeping,
//! which the clock counts as *admission* time. On a machine with fewer
//! cores than shards the wall clock cannot show the available
//! parallelism, so the clock also accumulates the *critical path*:
//! admission time plus, per barrier interval, the busiest single shard.
//! `critical path / wall` of a one-shard run gives the speedup an
//! adequately provisioned machine would observe.
//!
//! All counters are wall-clock nanoseconds and strictly observability:
//! nothing simulated ever reads them.

use mempod_sync::atomic::{AtomicU64, Ordering};

/// Shared accounting for one run's phases (attach via `Arc`).
///
/// Writers are the simulator main thread only — per-shard busy times are
/// measured inside the workers but *recorded* after the barrier join — so
/// relaxed ordering is sufficient everywhere.
#[derive(Debug)]
pub struct PhaseClock {
    /// Main-thread time between shard phases: batch cutting and barrier
    /// bookkeeping.
    admission_ns: AtomicU64,
    /// Sum over barrier intervals of the busiest shard's busy time.
    critical_ns: AtomicU64,
    /// Barrier intervals recorded.
    barriers: AtomicU64,
    /// Total busy time per shard.
    busy_ns: Vec<AtomicU64>,
}

impl PhaseClock {
    /// A zeroed clock for a run with `shards` shards.
    pub fn new(shards: usize) -> Self {
        PhaseClock {
            admission_ns: AtomicU64::new(0),
            critical_ns: AtomicU64::new(0),
            barriers: AtomicU64::new(0),
            busy_ns: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Adds main-thread time between shard phases.
    pub fn record_admission(&self, ns: u64) {
        self.admission_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one barrier interval: each shard's busy time for the
    /// interval, indexed by shard id. The busiest shard extends the
    /// critical path.
    pub fn record_interval(&self, shard_busy_ns: &[u64]) {
        for (slot, &ns) in self.busy_ns.iter().zip(shard_busy_ns) {
            slot.fetch_add(ns, Ordering::Relaxed);
        }
        let max = shard_busy_ns.iter().copied().max().unwrap_or(0);
        self.critical_ns.fetch_add(max, Ordering::Relaxed);
        self.barriers.fetch_add(1, Ordering::Relaxed);
    }

    /// Main-thread nanoseconds between shard phases so far.
    pub fn admission_ns(&self) -> u64 {
        self.admission_ns.load(Ordering::Relaxed)
    }

    /// Critical-path nanoseconds so far: admission plus the per-interval
    /// maxima of the shard busy times.
    pub fn critical_path_ns(&self) -> u64 {
        self.admission_ns() + self.critical_ns.load(Ordering::Relaxed)
    }

    /// Barrier intervals recorded.
    pub fn barriers(&self) -> u64 {
        self.barriers.load(Ordering::Relaxed)
    }

    /// Total busy nanoseconds per shard.
    pub fn shard_busy_ns(&self) -> Vec<u64> {
        self.busy_ns
            .iter()
            .map(|slot| slot.load(Ordering::Relaxed))
            .collect()
    }

    /// Shards this clock was sized for.
    pub fn shards(&self) -> usize {
        self.busy_ns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_path_takes_the_busiest_shard_per_interval() {
        let clock = PhaseClock::new(3);
        clock.record_admission(100);
        clock.record_interval(&[10, 40, 20]);
        clock.record_interval(&[30, 5, 25]);
        clock.record_admission(50);
        assert_eq!(clock.admission_ns(), 150);
        assert_eq!(clock.critical_path_ns(), 150 + 40 + 30);
        assert_eq!(clock.barriers(), 2);
        assert_eq!(clock.shard_busy_ns(), vec![40, 45, 45]);
        assert_eq!(clock.shards(), 3);
    }

    #[test]
    fn empty_interval_extends_nothing() {
        let clock = PhaseClock::new(2);
        clock.record_interval(&[]);
        assert_eq!(clock.critical_path_ns(), 0);
        assert_eq!(clock.barriers(), 1);
    }
}
