//! Simulation configuration: manager choice, manager parameters, memory
//! timings, and the derived memory layout.

use mempod_core::{ManagerConfig, ManagerKind};
use mempod_dram::{DramTiming, MemLayout};
use mempod_types::{FaultConfig, Picos, SystemConfig, TrackerKind};
use serde::Serialize;
use std::error::Error;
use std::fmt;

/// Errors from building a [`Simulator`](crate::Simulator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Segmented managers need the slow tier to tile the fast tier exactly.
    RatioNotIntegral {
        /// Fast pages.
        fast: u64,
        /// Slow pages.
        slow: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RatioNotIntegral { fast, slow } => write!(
                f,
                "segmented managers need slow pages ({slow}) to be an integer multiple of fast pages ({fast})"
            ),
        }
    }
}

impl Error for SimError {}

/// Complete configuration of one simulation run.
///
/// # Examples
///
/// ```
/// use mempod_sim::SimConfig;
/// use mempod_core::ManagerKind;
/// use mempod_types::SystemConfig;
///
/// let cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::Hma);
/// // HMA's 100 ms interval is auto-scaled to the 36 MB test geometry.
/// assert!(cfg.mgr.hma_interval < mempod_types::Picos::from_ms(100));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimConfig {
    /// Which migration mechanism to simulate.
    pub manager: ManagerKind,
    /// Manager parameters (geometry lives here).
    pub mgr: ManagerConfig,
    /// Fast-tier DRAM timing.
    pub fast_timing: DramTiming,
    /// Slow-tier DRAM timing.
    pub slow_timing: DramTiming,
    /// Deterministic fault-injection plan seed and rates (`None`, the
    /// default, runs fault-free).
    pub faults: Option<FaultConfig>,
}

impl SimConfig {
    /// Builds a config from a [`SystemConfig`], with Table 2 timings and
    /// HMA/THM parameters scaled to the geometry.
    ///
    /// Software-cost parameters that the paper expresses in wall-clock terms
    /// (HMA's 100 ms interval and 7 ms sort) scale linearly with memory
    /// capacity so that scaled-down geometries see the same *relative*
    /// adaptivity gap (see `EXPERIMENTS.md`).
    pub fn new(system: SystemConfig, manager: ManagerKind) -> Self {
        let paper_bytes = 9u64 << 30;
        let scale = (paper_bytes / system.geometry.total_bytes().max(1)).max(1);
        let mgr = ManagerConfig {
            geometry: system.geometry,
            epoch: system.epoch,
            mea_entries: system.mea_entries,
            mea_counter_bits: system.mea_counter_bits,
            hma_interval: Picos::from_ms(100) / scale,
            hma_sort_penalty: Picos::from_ms(7) / scale,
            hma_hot_threshold: 64,
            hma_max_migrations: 8192,
            thm_threshold: 64,
            meta_cache_bytes: system.metadata_cache_bytes,
            cameo_llp: false,
            thm_layout: mempod_core::SegmentLayout::Strided,
            mempod_tracker: TrackerKind::Mea,
        };
        SimConfig {
            manager,
            mgr,
            fast_timing: DramTiming::hbm(),
            slow_timing: DramTiming::ddr4_1600(),
            faults: None,
        }
    }

    /// Attaches a fault-injection plan to the run. Fault decisions are a
    /// pure function of the plan's seed and each event's identity, so a
    /// faulted run stays bit-identical across shard counts and replays.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Switches to the Fig. 10 future system: 4 GHz HBM + DDR4-2400, with
    /// HMA's sort penalty reduced 40 % as the paper does.
    pub fn into_future_system(mut self) -> Self {
        self.fast_timing = DramTiming::hbm_4ghz();
        self.slow_timing = DramTiming::ddr4_2400();
        self.mgr.hma_sort_penalty = self.mgr.hma_sort_penalty * 6 / 10;
        self
    }

    /// The memory layout this configuration implies: hybrid for managed
    /// kinds, single-tier for the HBM-only / DDR-only baselines.
    pub fn layout(&self) -> MemLayout {
        let geo = &self.mgr.geometry;
        match self.manager {
            ManagerKind::HbmOnly => MemLayout::hbm_only(geo.total_pages(), self.fast_timing),
            ManagerKind::DdrOnly => MemLayout::ddr_only(geo.total_pages(), self.slow_timing),
            _ => MemLayout {
                fast_frames: geo.fast_pages(),
                slow_frames: geo.slow_pages(),
                fast_channels: 8,
                slow_channels: 4,
                fast_timing: self.fast_timing,
                slow_timing: self.slow_timing,
                ctrl_latency: Picos::from_ns(10),
                interleave: mempod_dram::Interleave::PageFrame,
            },
        }
    }

    /// Validates manager-specific requirements.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RatioNotIntegral`] for THM/CAMEO on a geometry
    /// whose slow tier is not an integer multiple of the fast tier.
    pub fn validate(&self) -> Result<(), SimError> {
        if matches!(self.manager, ManagerKind::Thm | ManagerKind::Cameo) {
            let geo = &self.mgr.geometry;
            if geo.fast_pages() * geo.slow_to_fast_ratio() != geo.slow_pages() {
                return Err(SimError::RatioNotIntegral {
                    fast: geo.fast_pages(),
                    slow: geo.slow_pages(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempod_types::Geometry;

    #[test]
    fn hma_parameters_scale_with_geometry() {
        let full = SimConfig::new(SystemConfig::paper_default(), ManagerKind::Hma);
        assert_eq!(full.mgr.hma_interval, Picos::from_ms(100));
        assert_eq!(full.mgr.hma_sort_penalty, Picos::from_ms(7));

        let tiny = SimConfig::new(SystemConfig::tiny(), ManagerKind::Hma);
        // 9 GB / 36 MB = 256.
        assert_eq!(tiny.mgr.hma_interval, Picos::from_ms(100) / 256);
        assert_eq!(tiny.mgr.hma_sort_penalty, Picos::from_ms(7) / 256);
    }

    #[test]
    fn layouts_follow_manager_kind() {
        let sys = SystemConfig::tiny();
        let hybrid = SimConfig::new(sys.clone(), ManagerKind::MemPod).layout();
        assert_eq!(hybrid.fast_frames, sys.geometry.fast_pages());
        assert_eq!(hybrid.slow_frames, sys.geometry.slow_pages());

        let hbm = SimConfig::new(sys.clone(), ManagerKind::HbmOnly).layout();
        assert_eq!(hbm.fast_frames, sys.geometry.total_pages());
        assert_eq!(hbm.slow_frames, 0);

        let ddr = SimConfig::new(sys, ManagerKind::DdrOnly).layout();
        assert_eq!(ddr.fast_frames, 0);
        assert_eq!(ddr.slow_frames, 4_718_592 / 256);
    }

    #[test]
    fn future_system_swaps_timings_and_discounts_hma() {
        let cfg =
            SimConfig::new(SystemConfig::paper_default(), ManagerKind::Hma).into_future_system();
        assert_eq!(cfg.fast_timing, DramTiming::hbm_4ghz());
        assert_eq!(cfg.slow_timing, DramTiming::ddr4_2400());
        assert_eq!(cfg.mgr.hma_sort_penalty, Picos::from_ms(7) * 6 / 10);
    }

    #[test]
    fn validate_catches_bad_ratio_for_segmented_managers() {
        let mut sys = SystemConfig::tiny();
        // 4 MB fast + 12 MB slow: ratio 3, integral -> fine. Use a
        // non-integral one: 4 MB fast + 10 MB slow.
        sys.geometry = Geometry::new(4 << 20, 10 << 20, 4).unwrap();
        let thm = SimConfig::new(sys.clone(), ManagerKind::Thm);
        assert!(matches!(
            thm.validate(),
            Err(SimError::RatioNotIntegral { .. })
        ));
        let pod = SimConfig::new(sys, ManagerKind::MemPod);
        assert!(pod.validate().is_ok());
    }

    #[test]
    fn error_display_is_useful() {
        let e = SimError::RatioNotIntegral { fast: 10, slow: 25 };
        assert!(e.to_string().contains("25"));
        assert!(e.to_string().contains("10"));
    }
}
