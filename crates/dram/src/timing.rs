//! DRAM timing parameters and the paper's technology presets.
//!
//! Table 2 of the paper gives, for each technology, the bus frequency and
//! the classic `tCAS-tRCD-tRP-tRAS` quadruple in bus cycles:
//!
//! | | HBM | DDR4-1600 |
//! |---|---|---|
//! | bus | 1 GHz, 128-bit | 800 MHz, 64-bit |
//! | tCAS-tRCD-tRP-tRAS | 7-7-7-17 | 11-11-11-28 |
//!
//! Fig. 10's future system overclocks HBM to 4 GHz and upgrades the off-chip
//! memory to DDR4-2400 (1.2 GHz bus, 16-16-16-39 — standard JEDEC bins),
//! widening the fast:slow latency differential.

use mempod_types::{Clock, Picos};
use serde::Serialize;

/// Timing and organization parameters of one DRAM technology.
///
/// All `t*` fields are in bus cycles. The model is deliberately at the
/// granularity the paper reports: ACT→READ (`t_rcd`), READ→data (`t_cas`),
/// PRE→ACT (`t_rp`), ACT→PRE minimum (`t_ras`), a write recovery (`t_wr`)
/// and a serialized data burst per 64 B line.
///
/// # Examples
///
/// ```
/// use mempod_dram::DramTiming;
/// use mempod_types::Picos;
///
/// let hbm = DramTiming::hbm();
/// // Row-miss latency floor: tRCD + tCAS + burst = (7 + 7 + 2) ns at 1 GHz.
/// assert_eq!(hbm.row_miss_floor(), Picos::from_ns(16));
/// let ddr = DramTiming::ddr4_1600();
/// assert!(ddr.row_miss_floor() > hbm.row_miss_floor());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DramTiming {
    /// Human-readable technology name ("HBM", "DDR4-1600", ...). Not
    /// serialized (defaults to "" after deserialization); purely a label.
    #[serde(skip)]
    pub name: &'static str,
    /// Bus clock.
    pub clock: Clock,
    /// CAS latency (READ command to first data), bus cycles.
    pub t_cas: u64,
    /// RAS-to-CAS delay (ACT to READ/WRITE), bus cycles.
    pub t_rcd: u64,
    /// Row precharge time (PRE to ACT), bus cycles.
    pub t_rp: u64,
    /// Minimum row-open time (ACT to PRE), bus cycles.
    pub t_ras: u64,
    /// Write recovery (end of write data to PRE), bus cycles.
    pub t_wr: u64,
    /// Data-bus cycles to transfer one 64 B line (burst).
    pub burst_cycles: u64,
    /// Banks per channel.
    pub banks: u32,
    /// Row-buffer (page) size in bytes.
    pub row_bytes: u64,
    /// Average refresh interval (REF-to-REF), bus cycles (JEDEC tREFI,
    /// 7.8 µs at normal temperature). Zero disables refresh.
    pub t_refi: u64,
    /// Refresh cycle time (all banks blocked), bus cycles (tRFC).
    pub t_rfc: u64,
}

impl DramTiming {
    /// Die-stacked HBM per Table 2: 1 GHz, 128-bit bus, 16 banks, 8 KB rows,
    /// 7-7-7-17. A 128-bit double-data-rate bus moves 32 B/cycle → 2 cycles
    /// per 64 B burst (32 GB/s per channel, 256 GB/s across 8 channels).
    pub fn hbm() -> Self {
        DramTiming {
            name: "HBM",
            clock: Clock::from_mhz(1000),
            t_cas: 7,
            t_rcd: 7,
            t_rp: 7,
            t_ras: 17,
            t_wr: 8,
            burst_cycles: 2,
            banks: 16,
            row_bytes: 8 * 1024,
            t_refi: 7_800, // 7.8 us at 1 GHz
            t_rfc: 350,
        }
    }

    /// Off-chip DDR4-1600 per Table 2: 800 MHz, 64-bit bus, 16 banks,
    /// 8 KB rows, 11-11-11-28.
    pub fn ddr4_1600() -> Self {
        DramTiming {
            name: "DDR4-1600",
            clock: Clock::from_mhz(800),
            t_cas: 11,
            t_rcd: 11,
            t_rp: 11,
            t_ras: 28,
            t_wr: 12,
            burst_cycles: 4,
            banks: 16,
            row_bytes: 8 * 1024,
            t_refi: 6_240, // 7.8 us at 800 MHz
            t_rfc: 280,    // ~350 ns
        }
    }

    /// DDR4-2400 for the Fig. 10 future system (1.2 GHz bus, JEDEC CL16).
    pub fn ddr4_2400() -> Self {
        DramTiming {
            name: "DDR4-2400",
            clock: Clock::from_mhz(1200),
            t_cas: 16,
            t_rcd: 16,
            t_rp: 16,
            t_ras: 39,
            t_wr: 18,
            burst_cycles: 4,
            banks: 16,
            row_bytes: 8 * 1024,
            t_refi: 9_360, // 7.8 us at 1.2 GHz
            t_rfc: 420,
        }
    }

    /// The paper's overclocked 4 GHz HBM ("HBMoc") for Fig. 10: same cycle
    /// counts as HBM but a 4x faster bus, so every latency shrinks 4x.
    pub fn hbm_4ghz() -> Self {
        DramTiming {
            name: "HBM-4GHz",
            clock: Clock::from_mhz(4000),
            ..DramTiming::hbm()
        }
    }

    /// Duration of `cycles` bus cycles.
    pub fn cycles(&self, cycles: u64) -> Picos {
        self.clock.cycles_to_ps(cycles)
    }

    /// Data-burst duration for one 64 B transfer.
    pub fn burst_time(&self) -> Picos {
        self.cycles(self.burst_cycles)
    }

    /// Minimum latency of a row-buffer hit (CAS + burst).
    pub fn row_hit_floor(&self) -> Picos {
        self.cycles(self.t_cas + self.burst_cycles)
    }

    /// Minimum latency of an access to a closed row (RCD + CAS + burst).
    pub fn row_miss_floor(&self) -> Picos {
        self.cycles(self.t_rcd + self.t_cas + self.burst_cycles)
    }

    /// Minimum latency of a row-conflict access (RP + RCD + CAS + burst).
    pub fn row_conflict_floor(&self) -> Picos {
        self.cycles(self.t_rp + self.t_rcd + self.t_cas + self.burst_cycles)
    }

    /// Refresh interval duration (zero = refresh disabled).
    pub fn refresh_interval(&self) -> Picos {
        self.cycles(self.t_refi)
    }

    /// Refresh blackout duration.
    pub fn refresh_time(&self) -> Picos {
        self.cycles(self.t_rfc)
    }

    /// Pages of `page_bytes` that fit in one row buffer.
    pub fn pages_per_row(&self, page_bytes: u64) -> u64 {
        (self.row_bytes / page_bytes).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table2_numbers() {
        let hbm = DramTiming::hbm();
        assert_eq!(hbm.clock, Clock::from_mhz(1000));
        assert_eq!((hbm.t_cas, hbm.t_rcd, hbm.t_rp, hbm.t_ras), (7, 7, 7, 17));
        assert_eq!(hbm.banks, 16);
        assert_eq!(hbm.row_bytes, 8192);

        let ddr = DramTiming::ddr4_1600();
        assert_eq!(ddr.clock, Clock::from_mhz(800));
        assert_eq!(
            (ddr.t_cas, ddr.t_rcd, ddr.t_rp, ddr.t_ras),
            (11, 11, 11, 28)
        );
    }

    #[test]
    fn latency_floors_are_ordered() {
        for t in [
            DramTiming::hbm(),
            DramTiming::ddr4_1600(),
            DramTiming::ddr4_2400(),
            DramTiming::hbm_4ghz(),
        ] {
            assert!(t.row_hit_floor() < t.row_miss_floor(), "{}", t.name);
            assert!(t.row_miss_floor() < t.row_conflict_floor(), "{}", t.name);
        }
    }

    #[test]
    fn ddr_is_slower_than_hbm() {
        let hbm = DramTiming::hbm();
        let ddr = DramTiming::ddr4_1600();
        assert!(ddr.row_hit_floor() > hbm.row_hit_floor());
        assert!(ddr.row_conflict_floor() > hbm.row_conflict_floor());
    }

    #[test]
    fn fig10_widens_the_differential() {
        // ratio(slow/fast) must grow from the 2016 system to the future one.
        let now = DramTiming::ddr4_1600().row_miss_floor().as_ps() as f64
            / DramTiming::hbm().row_miss_floor().as_ps() as f64;
        let future = DramTiming::ddr4_2400().row_miss_floor().as_ps() as f64
            / DramTiming::hbm_4ghz().row_miss_floor().as_ps() as f64;
        assert!(future > now, "future={future:.2} now={now:.2}");
    }

    #[test]
    fn hbm_4ghz_is_4x_faster() {
        let base = DramTiming::hbm();
        let oc = DramTiming::hbm_4ghz();
        assert_eq!(
            oc.row_miss_floor().as_ps() * 4,
            base.row_miss_floor().as_ps()
        );
    }

    #[test]
    fn refresh_parameters_are_roughly_jedec() {
        for t in [
            DramTiming::hbm(),
            DramTiming::ddr4_1600(),
            DramTiming::ddr4_2400(),
        ] {
            // tREFI ~7.8 us, tRFC in the 200-400 ns class.
            let refi = t.refresh_interval().as_ns_f64();
            assert!((7_000.0..9_000.0).contains(&refi), "{}: {refi}", t.name);
            let rfc = t.refresh_time().as_ns_f64();
            assert!((150.0..500.0).contains(&rfc), "{}: {rfc}", t.name);
        }
    }

    #[test]
    fn pages_per_row() {
        assert_eq!(DramTiming::hbm().pages_per_row(2048), 4);
        assert_eq!(DramTiming::hbm().pages_per_row(16384), 1);
    }
}
