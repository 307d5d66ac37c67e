//! Top-level system configuration (the paper's Table 2 in serializable form).

use serde::Serialize;
use std::fmt;

use crate::geometry::Geometry;
use crate::time::{Clock, Picos};

/// Which activity-tracking structure a manager uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TrackerKind {
    /// Majority Element Algorithm map (the paper's contribution, §3).
    Mea,
    /// One saturating counter per page (HMA-style "Full Counters").
    FullCounters,
    /// One competing counter per segment (THM-style).
    Competing,
}

impl fmt::Display for TrackerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrackerKind::Mea => write!(f, "MEA"),
            TrackerKind::FullCounters => write!(f, "FullCounters"),
            TrackerKind::Competing => write!(f, "Competing"),
        }
    }
}

/// The complete simulated-system configuration.
///
/// Defaults reproduce the paper's Table 2: an 8-core 3.2 GHz CPU in front of
/// 1 GB HBM + 8 GB DDR4-1600, MemPod intervals of 50 µs with 64 two-bit MEA
/// counters per pod.
///
/// # Examples
///
/// ```
/// use mempod_types::SystemConfig;
///
/// let cfg = SystemConfig::paper_default();
/// assert_eq!(cfg.cores, 8);
/// assert_eq!(cfg.epoch.as_us_f64(), 50.0);
/// assert_eq!(cfg.mea_entries, 64);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SystemConfig {
    /// Memory capacity layout.
    pub geometry: Geometry,
    /// Number of CPU cores generating traffic.
    pub cores: u8,
    /// CPU core frequency in MHz (used to scale software penalties).
    pub cpu_mhz: u64,
    /// Migration interval (epoch) length.
    pub epoch: Picos,
    /// MEA entries per pod (also the per-pod migration budget per epoch).
    pub mea_entries: usize,
    /// Width of each MEA counter in bits (counters saturate).
    pub mea_counter_bits: u32,
    /// Total metadata (remap-table / counter) cache capacity in bytes, or
    /// `None` to model free on-chip metadata as in the paper's Fig. 8.
    pub metadata_cache_bytes: Option<u64>,
}

impl SystemConfig {
    /// The paper's Table 2 configuration with the §6.3.1 best parameters.
    pub fn paper_default() -> Self {
        SystemConfig {
            geometry: Geometry::paper_default(),
            cores: 8,
            cpu_mhz: 3200,
            epoch: Picos::from_us(50),
            mea_entries: 64,
            mea_counter_bits: 2,
            metadata_cache_bytes: None,
        }
    }

    /// A scaled-down configuration for fast tests and smoke runs.
    pub fn tiny() -> Self {
        SystemConfig {
            geometry: Geometry::tiny(),
            cores: 8,
            cpu_mhz: 3200,
            epoch: Picos::from_us(50),
            mea_entries: 64,
            mea_counter_bits: 2,
            metadata_cache_bytes: None,
        }
    }

    /// The CPU clock domain.
    pub fn cpu_clock(&self) -> Clock {
        Clock::from_mhz(self.cpu_mhz)
    }

    /// Maximum value an MEA counter can hold.
    pub fn mea_counter_max(&self) -> u64 {
        if self.mea_counter_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.mea_counter_bits) - 1
        }
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table2() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.cpu_mhz, 3200);
        assert_eq!(c.geometry.fast_bytes(), 1 << 30);
        assert_eq!(c.geometry.slow_bytes(), 8 << 30);
        assert_eq!(c.mea_counter_bits, 2);
        assert_eq!(c.mea_counter_max(), 3);
        assert!(c.metadata_cache_bytes.is_none());
    }

    #[test]
    fn counter_max_saturates_at_width() {
        let mut c = SystemConfig::paper_default();
        c.mea_counter_bits = 8;
        assert_eq!(c.mea_counter_max(), 255);
        c.mea_counter_bits = 64;
        assert_eq!(c.mea_counter_max(), u64::MAX);
        c.mea_counter_bits = 1;
        assert_eq!(c.mea_counter_max(), 1);
    }

    #[test]
    fn config_is_serializable() {
        // Experiment configs are persisted as JSON and read back untyped.
        let text = serde_json::to_string(SystemConfig::paper_default()).expect("serialize");
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(v["cores"].as_u64(), Some(8));
        assert_eq!(v["epoch"].as_u64(), Some(50_000_000));
        assert_eq!(v["mea_entries"].as_u64(), Some(64));
        assert!(v["geometry"].as_object().is_some());
        let kind = serde_json::to_string(TrackerKind::FullCounters).expect("serialize");
        assert_eq!(kind, "\"FullCounters\"");
    }

    #[test]
    fn tracker_kind_display() {
        assert_eq!(TrackerKind::Mea.to_string(), "MEA");
        assert_eq!(TrackerKind::FullCounters.to_string(), "FullCounters");
        assert_eq!(TrackerKind::Competing.to_string(), "Competing");
    }
}
