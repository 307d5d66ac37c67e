//! Checked integer conversions for address arithmetic.
//!
//! The pipeline crates turn on clippy's `cast_possible_truncation`,
//! `cast_sign_loss` and `cast_possible_wrap` (DESIGN.md §8): a silent
//! truncation in address arithmetic turns into a wrong bank/row/pod, which
//! the simulator happily models without ever crashing. Every width change
//! instead routes through this module, where each conversion is either
//! provably lossless (widening, with a compile-time guard on platform word
//! size) or explicitly checked. It is the one module that may cast.
//!
//! Two flavors are provided for narrowing:
//!
//! * `try_*` — fallible, for values that come from input (configs, traces);
//! * panicking (`u32_from_u64`, `usize_from_u64`) — for values that are
//!   structurally bounded (e.g. a residue modulo a `u32` channel count),
//!   where overflow is a programming error, and which remain usable in
//!   `const fn` address math.

#![expect(
    clippy::cast_possible_truncation,
    reason = "each narrowing cast here follows its own range check"
)]

use std::fmt;

// The address space is modeled in u64; a usize must fit into it for trace
// buffers and table indices to be addressable. Every platform Rust
// supports satisfies both guards.
const _: () = assert!(usize::BITS <= 64, "usize wider than u64 unsupported");
const _: () = assert!(usize::BITS >= 32, "16-bit targets unsupported");

/// A narrowing conversion failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvertError {
    /// The value that did not fit.
    pub value: u64,
    /// The target type's name.
    pub target: &'static str,
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "value {} does not fit in {}", self.value, self.target)
    }
}

impl std::error::Error for ConvertError {}

/// Widens a `usize` to `u64`. Lossless: the guard above rejects platforms
/// with a wider-than-64-bit word.
#[inline]
#[must_use]
pub const fn u64_from_usize(x: usize) -> u64 {
    x as u64
}

/// Widens a `u32` to `u64`. Always lossless.
#[inline]
#[must_use]
pub const fn u64_from_u32(x: u32) -> u64 {
    x as u64
}

/// Widens a `u32` to `usize`. Lossless: the guard above rejects 16-bit
/// targets.
#[inline]
#[must_use]
pub const fn usize_from_u32(x: u32) -> usize {
    x as usize
}

/// Narrows a `u64` to `u32`, for values structurally bounded below
/// `2^32` (e.g. a residue modulo a `u32` channel or pod count).
///
/// # Panics
///
/// Panics if `x` does not fit — a programming error, not an input error.
#[inline]
#[must_use]
pub const fn u32_from_u64(x: u64) -> u32 {
    match u32_checked(x) {
        Some(v) => v,
        None => panic!("u64 value does not fit in u32"),
    }
}

/// Narrows a `u64` to `u8`, for values structurally bounded below `2^8`
/// (e.g. a member index within a congruence group).
///
/// # Panics
///
/// Panics if `x` does not fit — a programming error, not an input error.
#[inline]
#[must_use]
pub const fn u8_from_u64(x: u64) -> u8 {
    if x <= u8::MAX as u64 {
        x as u8
    } else {
        panic!("u64 value does not fit in u8")
    }
}

/// Narrows a `u32` to `u16`, for values structurally bounded below `2^16`
/// (e.g. a count of lines within one page).
///
/// # Panics
///
/// Panics if `x` does not fit — a programming error, not an input error.
#[inline]
#[must_use]
pub const fn u16_from_u32(x: u32) -> u16 {
    if x <= u16::MAX as u32 {
        x as u16
    } else {
        panic!("u32 value does not fit in u16")
    }
}

/// Narrows a `u64` to `usize`, for structurally bounded values (e.g. an
/// index already compared against a collection length).
///
/// # Panics
///
/// Panics if `x` does not fit — only possible on 32-bit targets.
#[inline]
#[must_use]
pub const fn usize_from_u64(x: u64) -> usize {
    if x <= usize::MAX as u64 {
        x as usize
    } else {
        panic!("u64 value does not fit in usize")
    }
}

/// Fallibly narrows a `u64` to `u32`.
///
/// # Errors
///
/// Returns [`ConvertError`] if `x` exceeds `u32::MAX`.
pub const fn try_u32_from_u64(x: u64) -> Result<u32, ConvertError> {
    match u32_checked(x) {
        Some(v) => Ok(v),
        None => Err(ConvertError {
            value: x,
            target: "u32",
        }),
    }
}

/// Fallibly narrows a `u64` to `usize` (fails only on 32-bit targets).
///
/// # Errors
///
/// Returns [`ConvertError`] if `x` exceeds `usize::MAX`.
pub const fn try_usize_from_u64(x: u64) -> Result<usize, ConvertError> {
    if x <= usize::MAX as u64 {
        Ok(x as usize)
    } else {
        Err(ConvertError {
            value: x,
            target: "usize",
        })
    }
}

const fn u32_checked(x: u64) -> Option<u32> {
    if x <= u32::MAX as u64 {
        Some(x as u32)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widening_is_identity() {
        assert_eq!(u64_from_usize(usize::MAX), usize::MAX as u64);
        assert_eq!(u64_from_u32(u32::MAX), u64::from(u32::MAX));
        assert_eq!(usize_from_u32(7), 7usize);
    }

    #[test]
    fn narrowing_round_trips_in_range() {
        for v in [0u64, 1, 0xffff, u64::from(u32::MAX)] {
            assert_eq!(u64::from(u32_from_u64(v)), v);
            assert_eq!(try_u32_from_u64(v), Ok(u32_from_u64(v)));
            assert_eq!(u64_from_usize(usize_from_u64(v)), v);
        }
    }

    #[test]
    fn narrowing_rejects_out_of_range() {
        let e = try_u32_from_u64(u64::from(u32::MAX) + 1).unwrap_err();
        assert_eq!(e.target, "u32");
        assert!(e.to_string().contains("does not fit in u32"));
    }

    #[test]
    #[should_panic(expected = "does not fit in u8")]
    fn u8_narrowing_panics_out_of_range() {
        assert_eq!(u8_from_u64(255), 255);
        let _ = u8_from_u64(256);
    }

    #[test]
    #[should_panic(expected = "does not fit in u32")]
    fn panicking_narrowing_panics_out_of_range() {
        let _ = u32_from_u64(1 << 40);
    }

    #[test]
    fn const_usable() {
        const PAGE: u64 = u64_from_usize(2048);
        const POD: u32 = u32_from_u64(3);
        assert_eq!(PAGE, 2048);
        assert_eq!(POD, 3);
    }
}
