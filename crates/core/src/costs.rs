//! Analytic storage-cost breakdown — regenerates the paper's Table 1.
//!
//! Each mechanism's remap-table and activity-tracking sizes are computed
//! from the geometry with the same formulas the paper uses, alongside its
//! trigger and driver classification.

use mempod_types::Geometry;
use serde::Serialize;

use crate::manager::ManagerKind;
use crate::remap::RemapTable;

/// One row of the Table 1 comparison.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CostRow {
    /// Mechanism.
    pub mechanism: String,
    /// Migration flexibility description.
    pub flexibility: &'static str,
    /// Remap-table bytes (total across the system).
    pub remap_bytes: u64,
    /// Activity-tracking bytes (total across the system).
    pub tracking_bytes: u64,
    /// Migration trigger class.
    pub trigger: &'static str,
    /// Migration driver.
    pub driver: &'static str,
}

/// Computes the Table 1 rows for a geometry with the paper's parameters
/// (64 MEA entries of 2 bits per pod; 16-bit full counters; 8-bit THM
/// competing counters).
pub fn storage_cost_table(geo: &Geometry) -> Vec<CostRow> {
    let pages = geo.total_pages();
    let fast_pages = geo.fast_pages();
    let fast_lines = geo.fast_lines();
    let pods = geo.pods() as u64;
    let pages_per_pod = geo.pages_per_pod();

    let tag_bits = |n: u64| 64 - (n.max(2) - 1).leading_zeros() as u64;

    vec![
        CostRow {
            mechanism: ManagerKind::Thm.to_string(),
            flexibility: "only 1 candidate (segment)",
            // One entry per fast page naming which of the 1+ratio members
            // is resident: log2(ratio+1) bits.
            remap_bytes: fast_pages * tag_bits(geo.slow_to_fast_ratio() + 1) / 8,
            // 8 bits of competing-counter state per fast page (segment).
            tracking_bytes: fast_pages, // 8 bits each
            trigger: "threshold",
            driver: "CPU",
        },
        CostRow {
            mechanism: ManagerKind::Hma.to_string(),
            flexibility: "no restrictions",
            remap_bytes: 0, // the OS updates page tables instead
            tracking_bytes: pages * 16 / 8,
            trigger: "interval",
            driver: "CPU (OS)",
        },
        CostRow {
            mechanism: ManagerKind::Cameo.to_string(),
            flexibility: "only 1 candidate (group)",
            // One entry per fast line naming the resident member.
            remap_bytes: fast_lines * tag_bits(geo.slow_to_fast_ratio() + 1) / 8,
            tracking_bytes: 0, // event-triggered: no tracking at all
            trigger: "event",
            driver: "MCs",
        },
        CostRow {
            mechanism: ManagerKind::MemPod.to_string(),
            flexibility: "intra-pod, any-to-any",
            // One full entry per page, per pod-partitioned table.
            remap_bytes: pods * RemapTable::storage_bits(pages_per_pod) / 8,
            // 64 MEA entries x (tag + 2) bits per pod.
            tracking_bytes: pods * 64 * (tag_bits(pages_per_pod) + 2) / 8,
            trigger: "interval",
            driver: "Pod",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_costs_match_table1() {
        let rows = storage_cost_table(&Geometry::paper_default());
        let by_name = |n: &str| rows.iter().find(|r| r.mechanism == n).expect("row");

        // HMA: 16 bits per page = 9 MB.
        assert_eq!(by_name("HMA").tracking_bytes, 9 << 20);
        assert_eq!(by_name("HMA").remap_bytes, 0);

        // THM: 8 bits per fast page = 512 KB of tracking.
        assert_eq!(by_name("THM").tracking_bytes, 512 << 10);

        // MemPod: 64 x (21+2) bits x 4 pods = 736 B of tracking.
        assert_eq!(by_name("MemPod").tracking_bytes, 736);

        // CAMEO tracks nothing.
        assert_eq!(by_name("CAMEO").tracking_bytes, 0);
    }

    #[test]
    fn paper_headline_ratios_hold() {
        let rows = storage_cost_table(&Geometry::paper_default());
        let tracking = |n: &str| {
            rows.iter()
                .find(|r| r.mechanism == n)
                .expect("row")
                .tracking_bytes as f64
        };
        // "~712x smaller than THM's" and "~12800x smaller than HMA's".
        let vs_thm = tracking("THM") / tracking("MemPod");
        let vs_hma = tracking("HMA") / tracking("MemPod");
        assert!((700.0..730.0).contains(&vs_thm), "{vs_thm}");
        assert!((12_000.0..13_500.0).contains(&vs_hma), "{vs_hma}");
    }

    #[test]
    fn scaled_geometry_scales_costs() {
        let full = storage_cost_table(&Geometry::paper_default());
        let small = storage_cost_table(&Geometry::paper_default().scaled_down(8).unwrap());
        let hma = |rows: &[CostRow]| {
            rows.iter()
                .find(|r| r.mechanism == "HMA")
                .unwrap()
                .tracking_bytes
        };
        assert_eq!(hma(&full), 8 * hma(&small));
    }
}
