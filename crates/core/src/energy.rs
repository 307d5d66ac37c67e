//! Data-movement energy accounting (paper §5.3).
//!
//! The paper argues that clustering bounds migration *distance*: "migration
//! can only occur within a Pod and between sibling MCs. By limiting
//! migration distance, MemPod imposes a tighter ceiling on data movement
//! energy". This module quantifies that claim with a simple, standard
//! pJ/bit model: DRAM array access energy per byte per tier, plus
//! interconnect energy proportional to the number of on-chip hops a
//! transfer traverses.
//!
//! Hop counts: an intra-pod swap moves data between sibling MCs through the
//! pod's local switch (1 hop each way). A centralized migration controller
//! funnels every swap through the global switch (the paper's §5.3
//! objection), and HMA's OS-driven path additionally crosses the CPU cache
//! hierarchy.

use mempod_types::LINE_SIZE;
use serde::Serialize;

use crate::manager::{ManagerKind, MigrationStats};
use crate::migration::Migration;

/// Energy parameters, in picojoules per byte.
///
/// Defaults are in line with published DRAM energy figures (HBM ≈ 4 pJ/bit
/// access+IO, DDR4 ≈ 15–20 pJ/bit; on-chip link ≈ 1 pJ/bit/hop scaled to
/// bytes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EnergyModel {
    /// Array + IO energy per byte read or written in the fast tier.
    pub fast_pj_per_byte: f64,
    /// Array + IO energy per byte read or written in the slow tier.
    pub slow_pj_per_byte: f64,
    /// Interconnect energy per byte per hop.
    pub link_pj_per_byte_hop: f64,
    /// Hops for an intra-pod transfer (pod-local switch).
    pub intra_pod_hops: u32,
    /// Hops for a transfer through the global switch (centralized designs,
    /// THM/CAMEO-style MC-to-MC traffic).
    pub global_hops: u32,
    /// Hops for an OS/CPU-driven transfer (HMA: through caches and back).
    pub cpu_path_hops: u32,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            fast_pj_per_byte: 32.0,  // 4 pJ/bit
            slow_pj_per_byte: 120.0, // 15 pJ/bit
            link_pj_per_byte_hop: 8.0,
            intra_pod_hops: 1,
            global_hops: 3,
            cpu_path_hops: 5,
        }
    }
}

impl EnergyModel {
    /// Hops a migration of this mechanism traverses.
    pub fn hops_for(&self, kind: ManagerKind) -> u32 {
        match kind {
            ManagerKind::MemPod => self.intra_pod_hops,
            ManagerKind::Hma => self.cpu_path_hops,
            ManagerKind::Thm => self.cpu_path_hops, // Table 1: driver = CPU
            ManagerKind::Cameo => self.global_hops, // MC-to-MC communication
            _ => 0,
        }
    }

    /// Energy of one swap in picojoules, given the mechanism's datapath.
    ///
    /// A swap reads and writes both sides: each line crosses the memory
    /// array twice per side (read + write) and the interconnect twice.
    pub fn migration_pj(&self, m: &Migration, kind: ManagerKind) -> f64 {
        let bytes_per_side = f64::from(m.line_count) * LINE_SIZE as f64;
        let hops = self.hops_for(kind) as f64;
        // frame_a side + frame_b side; tier split is approximated as one
        // fast + one slow side (true for every swap the managers produce:
        // migrations always pair a fast frame with a slow frame).
        let array = 2.0 * bytes_per_side * (self.fast_pj_per_byte + self.slow_pj_per_byte);
        let link = 2.0 * 2.0 * bytes_per_side * hops * self.link_pj_per_byte_hop;
        array + link
    }

    /// Total migration energy in millijoules from aggregate statistics.
    pub fn total_migration_mj(&self, kind: ManagerKind, stats: &MigrationStats) -> f64 {
        // bytes_moved counts both directions; halve for one side's bytes.
        let bytes_per_side = stats.bytes_moved as f64 / 2.0;
        let hops = self.hops_for(kind) as f64;
        let array = 2.0 * bytes_per_side * (self.fast_pj_per_byte + self.slow_pj_per_byte);
        let link = 2.0 * 2.0 * bytes_per_side * hops * self.link_pj_per_byte_hop;
        (array + link) / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempod_types::{FrameId, PageId};

    fn page_swap() -> Migration {
        Migration::page_swap(FrameId(0), FrameId(9), PageId(0), PageId(9), Some(0))
    }

    #[test]
    fn clustered_migration_is_cheapest_per_swap() {
        let e = EnergyModel::default();
        let m = page_swap();
        let pod = e.migration_pj(&m, ManagerKind::MemPod);
        let cameo = e.migration_pj(&m, ManagerKind::Cameo);
        let hma = e.migration_pj(&m, ManagerKind::Hma);
        assert!(pod < cameo, "intra-pod must beat global: {pod} vs {cameo}");
        assert!(cameo < hma, "global must beat CPU path: {cameo} vs {hma}");
    }

    #[test]
    fn energy_scales_with_bytes() {
        let e = EnergyModel::default();
        let page = e.migration_pj(&page_swap(), ManagerKind::MemPod);
        let line = e.migration_pj(
            &Migration::line_swap(FrameId(0), FrameId(9), 0, PageId(0), PageId(9)),
            ManagerKind::Cameo,
        );
        // A page swap moves 32x the data of a line swap; energy must be
        // at least an order of magnitude apart even across datapaths.
        assert!(page > 10.0 * line);
    }

    #[test]
    fn aggregate_matches_per_swap_sum() {
        let e = EnergyModel::default();
        let m = page_swap();
        let mut stats = MigrationStats::default();
        for _ in 0..100 {
            stats.record(&m);
        }
        let total = e.total_migration_mj(ManagerKind::MemPod, &stats);
        let per = e.migration_pj(&m, ManagerKind::MemPod) * 100.0 / 1e9;
        assert!((total - per).abs() / per < 1e-9, "{total} vs {per}");
    }

    #[test]
    fn static_kinds_have_no_hops() {
        let e = EnergyModel::default();
        assert_eq!(e.hops_for(ManagerKind::NoMigration), 0);
        assert_eq!(e.hops_for(ManagerKind::HbmOnly), 0);
    }
}
