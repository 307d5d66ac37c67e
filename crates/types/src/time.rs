//! Simulated time in picoseconds and clock-domain arithmetic.
//!
//! The suite mixes several clock domains: a 3.2 GHz CPU (312.5 ps period), a
//! 1 GHz HBM bus (1000 ps), an 800 MHz DDR4-1600 bus (1250 ps), a 1.2 GHz
//! DDR4-2400 bus (833⅓ ps — note: *not* integral!) and a hypothetical 4 GHz
//! HBM (250 ps). Expressing all events in integer picoseconds keeps the event
//! queue totally ordered without floating-point comparison hazards; each
//! [`Clock`] converts between its own cycle counts and global picoseconds.

use serde::Serialize;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in integer picoseconds.
///
/// `Picos` is used both as an absolute timestamp and as a duration; the
/// arithmetic impls (`Add`, `Sub`, scalar `Mul`/`Div`) cover both usages.
///
/// # Examples
///
/// ```
/// use mempod_types::Picos;
///
/// let t = Picos::from_ns(50) + Picos::from_us(1);
/// assert_eq!(t.as_ps(), 1_050_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct Picos(pub u64);

impl Picos {
    /// The zero timestamp (simulation start).
    pub const ZERO: Picos = Picos(0);
    /// The largest representable timestamp, used as "never".
    pub const MAX: Picos = Picos(u64::MAX);

    /// Creates a timestamp from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Picos(ns * 1_000)
    }

    /// Creates a timestamp from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Picos(us * 1_000_000)
    }

    /// Creates a timestamp from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Picos(ms * 1_000_000_000)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This timestamp expressed in (fractional) nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This timestamp expressed in (fractional) microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction: returns [`Picos::ZERO`] instead of wrapping.
    pub fn saturating_sub(self, rhs: Picos) -> Picos {
        Picos(self.0.saturating_sub(rhs.0))
    }

    /// The later of two timestamps.
    pub fn max(self, rhs: Picos) -> Picos {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// The earlier of two timestamps.
    pub fn min(self, rhs: Picos) -> Picos {
        if self.0 <= rhs.0 {
            self
        } else {
            rhs
        }
    }
}

impl fmt::Display for Picos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

impl Add for Picos {
    type Output = Picos;
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0 + rhs.0)
    }
}

impl AddAssign for Picos {
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl Sub for Picos {
    type Output = Picos;
    fn sub(self, rhs: Picos) -> Picos {
        Picos(self.0 - rhs.0)
    }
}

impl SubAssign for Picos {
    fn sub_assign(&mut self, rhs: Picos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Picos {
    type Output = Picos;
    fn mul(self, rhs: u64) -> Picos {
        Picos(self.0 * rhs)
    }
}

impl Div<u64> for Picos {
    type Output = Picos;
    fn div(self, rhs: u64) -> Picos {
        Picos(self.0 / rhs)
    }
}

impl Sum for Picos {
    fn sum<I: Iterator<Item = Picos>>(iter: I) -> Picos {
        iter.fold(Picos::ZERO, Add::add)
    }
}

/// A clock domain: converts between cycle counts and global picoseconds.
///
/// Frequencies that do not divide 10¹² evenly (e.g. DDR4-2400's 1.2 GHz) are
/// handled by keeping the frequency in kHz and computing cycle boundaries
/// with 128-bit intermediate precision, so long simulations do not drift.
///
/// # Examples
///
/// ```
/// use mempod_types::{Clock, Picos};
///
/// let hbm = Clock::from_mhz(1000);
/// assert_eq!(hbm.cycles_to_ps(7), Picos(7_000));
/// let ddr = Clock::from_mhz(800);
/// assert_eq!(ddr.cycles_to_ps(11), Picos(13_750));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Clock {
    freq_khz: u64,
}

impl Clock {
    /// Creates a clock from a frequency in MHz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero.
    pub const fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0, "clock frequency must be nonzero");
        Clock {
            freq_khz: mhz * 1_000,
        }
    }

    /// Creates a clock from a frequency in kHz.
    ///
    /// # Panics
    ///
    /// Panics if `khz` is zero.
    pub const fn from_khz(khz: u64) -> Self {
        assert!(khz > 0, "clock frequency must be nonzero");
        Clock { freq_khz: khz }
    }

    /// The clock frequency in kHz.
    pub const fn freq_khz(self) -> u64 {
        self.freq_khz
    }

    /// The duration of `cycles` clock cycles.
    ///
    /// Rounds up to the next picosecond so that a timing *constraint* of N
    /// cycles is never shortened by integer truncation.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a u64 picosecond count spans 213 days of simulated time; \
                  the u128 product only guards the intermediate"
    )]
    pub fn cycles_to_ps(self, cycles: u64) -> Picos {
        // cycles * 1e12 / (khz * 1e3) = cycles * 1e9 / khz
        let num = (cycles as u128) * 1_000_000_000u128;
        let den = self.freq_khz as u128;
        Picos(num.div_ceil(den) as u64)
    }

    /// How many *complete* cycles fit in `span`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "below 1 THz a span holds fewer cycles than picoseconds, \
                  so the quotient fits the u64 span it came from"
    )]
    pub fn ps_to_cycles(self, span: Picos) -> u64 {
        let num = (span.0 as u128) * (self.freq_khz as u128);
        (num / 1_000_000_000u128) as u64
    }

    /// One clock period, rounded up to a whole picosecond.
    pub fn period(self) -> Picos {
        self.cycles_to_ps(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(Picos::from_ns(1).as_ps(), 1_000);
        assert_eq!(Picos::from_us(1).as_ps(), 1_000_000);
        assert_eq!(Picos::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(Picos::from_us(50).as_us_f64(), 50.0);
        assert_eq!(Picos::from_ns(3).as_ns_f64(), 3.0);
    }

    #[test]
    fn arithmetic() {
        let a = Picos(100);
        let b = Picos(40);
        assert_eq!(a + b, Picos(140));
        assert_eq!(a - b, Picos(60));
        assert_eq!(a * 3, Picos(300));
        assert_eq!(a / 4, Picos(25));
        assert_eq!(b.saturating_sub(a), Picos::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let mut c = a;
        c += b;
        assert_eq!(c, Picos(140));
        c -= b;
        assert_eq!(c, a);
        let total: Picos = [a, b, Picos(1)].into_iter().sum();
        assert_eq!(total, Picos(141));
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Picos(500).to_string(), "500ps");
        assert_eq!(Picos(1_500).to_string(), "1.500ns");
        assert_eq!(Picos(2_500_000).to_string(), "2.500us");
        assert_eq!(Picos(3_000_000_000).to_string(), "3.000ms");
    }

    #[test]
    fn clock_integral_frequencies() {
        let hbm = Clock::from_mhz(1000);
        assert_eq!(hbm.period(), Picos(1_000));
        assert_eq!(hbm.cycles_to_ps(17), Picos(17_000));
        assert_eq!(hbm.ps_to_cycles(Picos(17_999)), 17);

        let ddr = Clock::from_mhz(800);
        assert_eq!(ddr.period(), Picos(1_250));
        assert_eq!(ddr.cycles_to_ps(28), Picos(35_000));
    }

    #[test]
    fn clock_non_integral_frequency_rounds_up() {
        // DDR4-2400: 1.2 GHz -> 833.33.. ps period.
        let c = Clock::from_mhz(1200);
        assert_eq!(c.period(), Picos(834));
        // 3 cycles = 2500 ps exactly.
        assert_eq!(c.cycles_to_ps(3), Picos(2_500));
        // A constraint is never shortened.
        assert!(c.cycles_to_ps(1) * 3 >= c.cycles_to_ps(3));
    }

    #[test]
    fn clock_no_drift_over_long_spans() {
        let c = Clock::from_mhz(1200);
        // One simulated second = 1.2e9 cycles exactly.
        assert_eq!(c.ps_to_cycles(Picos(1_000_000_000_000)), 1_200_000_000);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_frequency_panics() {
        let _ = Clock::from_mhz(0);
    }
}
