//! Simulation reports and aggregation helpers.

use mempod_core::{ManagerKind, MetaCacheStats, MigrationStats};
use mempod_dram::SystemStats;
use mempod_telemetry::EpochSnapshot;
use mempod_types::Picos;
use serde::Serialize;

use crate::provenance::ProvenanceSummary;

/// Fault-injection and recovery accounting for one run.
///
/// All zeros / false for a run without an active fault plan, so the
/// summary is free to carry unconditionally on every report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FaultSummary {
    /// Migrations the fault plan selected for at least one mid-swap abort.
    pub migration_faults: u64,
    /// Retry attempts launched after an abort (backoff in simulated time).
    pub migration_retries: u64,
    /// Individual abort events (one per failed attempt).
    pub migration_aborts: u64,
    /// Channel-level timing faults injected (latency spikes, stuck banks,
    /// refresh storms).
    pub channel_faults: u64,
    /// Shard worker panics caught at the epoch barrier.
    pub shard_panics: u64,
    /// Whether the sharded engine abandoned its state and replayed the run
    /// at one shard.
    pub degraded_to_sequential: bool,
    /// Whether the run was cancelled early (watchdog or external token);
    /// a cancelled report covers only the requests admitted before the
    /// cancellation was observed.
    pub cancelled: bool,
}

/// Everything one simulation run measured.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimReport {
    /// Workload name.
    pub workload: String,
    /// Manager simulated.
    pub manager: ManagerKind,
    /// Original trace requests (the fixed AMMAT denominator).
    pub requests: u64,
    /// Total memory stall time across foreground and injected requests.
    pub total_stall: Picos,
    /// Trace duration (last arrival).
    pub duration: Picos,
    /// Migration accounting from the manager.
    pub migration: MigrationStats,
    /// Metadata-cache statistics, if a cache was configured.
    pub meta_cache: Option<MetaCacheStats>,
    /// Migration read/write requests injected into the memory system.
    pub injected_migration_requests: u64,
    /// Metadata-fetch reads injected.
    pub injected_meta_requests: u64,
    /// DRAM-level statistics (row hits, tier service split, ...).
    pub mem_stats: SystemStats,
    /// Fault-injection and recovery accounting (all zeros when no fault
    /// plan was active).
    pub faults: FaultSummary,
    /// Page provenance totals and hottest-page histories (`None` unless
    /// the run had telemetry attached).
    pub provenance: Option<ProvenanceSummary>,
    /// Per-epoch snapshots retained by the telemetry ring (empty unless the
    /// run had telemetry attached; the full series streams to the JSONL
    /// sink). Skipped in serialized reports — the timeline's serialized
    /// form *is* the JSONL stream.
    #[serde(skip)]
    pub timeline: Vec<EpochSnapshot>,
}

impl SimReport {
    /// An empty report for `workload` under `manager`.
    pub fn new(workload: &str, manager: ManagerKind) -> Self {
        SimReport {
            workload: workload.to_string(),
            manager,
            requests: 0,
            total_stall: Picos::ZERO,
            duration: Picos::ZERO,
            migration: MigrationStats::default(),
            meta_cache: None,
            injected_migration_requests: 0,
            injected_meta_requests: 0,
            mem_stats: SystemStats::default(),
            faults: FaultSummary::default(),
            provenance: None,
            timeline: Vec::new(),
        }
    }

    /// Average Main Memory Access Time in picoseconds: total stall divided
    /// by the number of *original* requests (paper §6.2).
    ///
    /// Returns `None` for a report with zero requests — an empty or broken
    /// run has no access time, and a silent `0.0` used to flow into
    /// normalization baselines and geomeans where it *inflated* summaries
    /// instead of failing (same failure mode as the [`normalize_to`] fix).
    pub fn ammat_ps(&self) -> Option<f64> {
        (self.requests > 0).then(|| self.total_stall.as_ps() as f64 / self.requests as f64)
    }

    /// AMMAT in nanoseconds (for human-readable tables); `None` for a
    /// zero-request report like [`ammat_ps`](SimReport::ammat_ps).
    pub fn ammat_ns(&self) -> Option<f64> {
        self.ammat_ps().map(|ps| ps / 1000.0)
    }

    /// Row-buffer hit rate across all channels.
    pub fn row_hit_rate(&self) -> f64 {
        self.mem_stats.total().row_hit_rate()
    }

    /// Data moved by migrations, in megabytes.
    pub fn migrated_mb(&self) -> f64 {
        self.migration.bytes_moved as f64 / (1 << 20) as f64
    }
}

/// `a / b` AMMAT ratio: `normalize_to(&report, &baseline)` below 1.0 means
/// the report beats the baseline.
///
/// Returns `None` when either AMMAT is undefined (zero requests) or the
/// baseline AMMAT is zero (an empty or broken baseline run). Callers must
/// surface that case loudly — a silent `0.0` here used to flow into
/// [`geometric_mean`], which skips non-positive values, so a broken
/// baseline *inflated* summary geomeans instead of failing.
pub fn normalize_to(report: &SimReport, baseline: &SimReport) -> Option<f64> {
    let a = report.ammat_ps()?;
    let b = baseline.ammat_ps()?;
    (b > 0.0).then(|| a / b)
}

/// Geometric mean of a ratio series (the conventional way to average
/// normalized AMMAT across workloads).
pub fn geometric_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0u32;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ammat_divides_by_original_requests() {
        let mut r = SimReport::new("w", ManagerKind::MemPod);
        r.requests = 100;
        r.total_stall = Picos(50_000);
        assert!((r.ammat_ps().expect("has requests") - 500.0).abs() < 1e-9);
        assert!((r.ammat_ns().expect("has requests") - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_report_has_no_ammat() {
        let r = SimReport::new("w", ManagerKind::Hma);
        assert_eq!(r.ammat_ps(), None);
        assert_eq!(r.ammat_ns(), None);
    }

    #[test]
    fn normalization() {
        let mut a = SimReport::new("w", ManagerKind::MemPod);
        a.requests = 10;
        a.total_stall = Picos(1000);
        let mut b = SimReport::new("w", ManagerKind::NoMigration);
        b.requests = 10;
        b.total_stall = Picos(2000);
        let ratio = normalize_to(&a, &b).expect("non-zero baseline");
        assert!((ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_baseline_is_surfaced_not_averaged_away() {
        let mut a = SimReport::new("w", ManagerKind::MemPod);
        a.requests = 10;
        a.total_stall = Picos(1000);
        // A broken (empty) baseline must yield None, not a quiet 0.0 that
        // geometric_mean would skip.
        let broken = SimReport::new("w", ManagerKind::Hma);
        assert_eq!(normalize_to(&a, &broken), None);
        assert_eq!(normalize_to(&broken, &broken), None);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(std::iter::empty()), 0.0);
        // Non-positive values are skipped, not propagated as NaN.
        assert!((geometric_mean([0.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn migrated_mb_converts() {
        let mut r = SimReport::new("w", ManagerKind::Cameo);
        r.migration.bytes_moved = 3 << 20;
        assert!((r.migrated_mb() - 3.0).abs() < 1e-12);
    }
}
