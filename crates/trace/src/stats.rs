//! Trace characterization: the knobs migration mechanisms react to.
//!
//! Used by the `workload_atlas` experiment binary to validate that the
//! synthetic workloads (DESIGN.md §4 substitution) exhibit the properties
//! their SPEC counterparts are known for: footprint relative to the fast
//! tier, access skew, write ratio, spatial locality, and request intensity.

use std::collections::HashMap;

use mempod_types::{Geometry, PAGE_SIZE};
use serde::Serialize;

use crate::trace::Trace;

/// Aggregate characterization of one trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceStats {
    /// Requests analyzed.
    pub requests: u64,
    /// Distinct 2 KB pages touched.
    pub distinct_pages: u64,
    /// Touched footprint in megabytes.
    pub footprint_mb: f64,
    /// Footprint as a fraction of the fast tier (`> 1` = does not fit).
    pub footprint_vs_fast: f64,
    /// Fraction of writes.
    pub write_fraction: f64,
    /// Aggregate request rate (requests per microsecond).
    pub rate_per_us: f64,
    /// Fraction of accesses landing on the hottest 1 % of touched pages.
    pub top1pct_share: f64,
    /// Fraction of accesses landing on the hottest 64 pages.
    pub top64_share: f64,
    /// Fraction of accesses to the same page as the previous access of the
    /// same core (spatial locality proxy).
    pub same_page_run_fraction: f64,
    /// Per-core request share imbalance: max core share / mean share.
    pub core_imbalance: f64,
}

impl TraceStats {
    /// Analyzes a trace against a geometry.
    pub fn analyze(trace: &Trace, geo: &Geometry) -> TraceStats {
        let n = trace.len() as u64;
        let mut counts: HashMap<u64, u64> = HashMap::new();
        let mut writes = 0u64;
        let mut same_page_runs = 0u64;
        let mut last_page_per_core: HashMap<u8, u64> = HashMap::new();
        let mut per_core: HashMap<u8, u64> = HashMap::new();
        for r in trace.requests() {
            let page = r.addr.page().0;
            *counts.entry(page).or_insert(0) += 1;
            if r.kind.is_write() {
                writes += 1;
            }
            if last_page_per_core.insert(r.core.0, page) == Some(page) {
                same_page_runs += 1;
            }
            *per_core.entry(r.core.0).or_insert(0) += 1;
        }
        let mut by_count: Vec<u64> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        let share_of = |k: usize| -> f64 {
            if n == 0 {
                0.0
            } else {
                by_count.iter().take(k).sum::<u64>() as f64 / n as f64
            }
        };
        let distinct = counts.len() as u64;
        let top1pct = ((distinct as usize) / 100).max(1);
        let footprint_bytes = distinct * PAGE_SIZE as u64;
        let max_core = per_core.values().copied().max().unwrap_or(0) as f64;
        let mean_core = if per_core.is_empty() {
            0.0
        } else {
            n as f64 / per_core.len() as f64
        };
        TraceStats {
            requests: n,
            distinct_pages: distinct,
            footprint_mb: footprint_bytes as f64 / (1 << 20) as f64,
            footprint_vs_fast: footprint_bytes as f64 / geo.fast_bytes() as f64,
            write_fraction: if n == 0 {
                0.0
            } else {
                writes as f64 / n as f64
            },
            rate_per_us: trace.mean_rate_per_us(),
            top1pct_share: share_of(top1pct),
            top64_share: share_of(64),
            same_page_run_fraction: if n == 0 {
                0.0
            } else {
                same_page_runs as f64 / n as f64
            },
            core_imbalance: if mean_core == 0.0 {
                0.0
            } else {
                max_core / mean_core
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{TraceGenerator, WorkloadSpec};

    fn stats_for(workload: &str, n: usize) -> TraceStats {
        let geo = Geometry::tiny();
        let spec = WorkloadSpec::homogeneous(workload).expect("known");
        let t = TraceGenerator::new(spec, 5).take_requests(n, &geo);
        TraceStats::analyze(&t, &geo)
    }

    #[test]
    fn libquantum_fits_in_fast_memory() {
        let s = stats_for("libquantum", 200_000);
        assert!(s.footprint_vs_fast < 1.0, "{}", s.footprint_vs_fast);
    }

    #[test]
    fn mcf_exceeds_fast_memory() {
        let s = stats_for("mcf", 300_000);
        assert!(s.footprint_vs_fast > 1.0, "{}", s.footprint_vs_fast);
    }

    #[test]
    fn cactus_is_skewed_bwaves_is_flat() {
        let cactus = stats_for("cactus", 100_000);
        let bwaves = stats_for("bwaves", 100_000);
        assert!(
            cactus.top64_share > 3.0 * bwaves.top64_share,
            "cactus {} vs bwaves {}",
            cactus.top64_share,
            bwaves.top64_share
        );
    }

    #[test]
    fn spatial_locality_orders_streaming_above_pointer_chase() {
        let bwaves = stats_for("bwaves", 60_000); // 16 lines/visit
        let mcf = stats_for("mcf", 60_000); // 1.2 lines/visit
        assert!(bwaves.same_page_run_fraction > mcf.same_page_run_fraction);
    }

    #[test]
    fn write_fractions_track_profiles() {
        let lbm = stats_for("lbm", 60_000); // 40% writes
        assert!(
            (lbm.write_fraction - 0.4).abs() < 0.05,
            "{}",
            lbm.write_fraction
        );
        let libq = stats_for("libquantum", 60_000); // 5% writes
        assert!(libq.write_fraction < 0.1);
    }

    #[test]
    fn cores_are_balanced_in_homogeneous_workloads() {
        let s = stats_for("gcc", 80_000);
        assert!(s.core_imbalance < 1.2, "{}", s.core_imbalance);
    }

    #[test]
    fn empty_trace_is_all_zeroes() {
        let s = TraceStats::analyze(&Trace::new("empty", vec![]), &Geometry::tiny());
        assert_eq!(s.requests, 0);
        assert_eq!(s.distinct_pages, 0);
        assert_eq!(s.top64_share, 0.0);
    }
}
