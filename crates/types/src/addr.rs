//! Address-space newtypes.
//!
//! A migration simulator juggles three distinct address notions that are all
//! "just integers" underneath, and confusing them is the classic bug class:
//!
//! * [`Addr`] — a byte address in the *original* (OS-visible) flat address
//!   space, as issued by the last-level cache.
//! * [`PageId`] / [`LineId`] — the page (2 KB) and cache-line (64 B) a byte
//!   address falls in, still in original address space.
//! * [`FrameId`] — a *physical* page-sized slot in the memory devices. After
//!   a migration, `PageId` 7 may live in `FrameId` 4000000. Remap tables map
//!   pages to frames; the DRAM model only ever sees frames.
//!
//! Keeping these as separate newtypes means a remap table that accidentally
//! returns a page where a frame is required simply does not compile.

use serde::Serialize;
use std::fmt;

use crate::convert::u64_from_usize;
use crate::geometry::{LINE_SIZE, PAGE_SIZE};

/// A byte address in the original flat address space.
///
/// # Examples
///
/// ```
/// use mempod_types::{Addr, LineId, PageId};
///
/// let a = Addr(2 * 2048 + 130);
/// assert_eq!(a.page(), PageId(2));
/// assert_eq!(a.line(), LineId(2 * 32 + 2));
/// assert_eq!(a.page_offset(), 130);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct Addr(pub u64);

impl Addr {
    /// The page this byte address falls in.
    pub const fn page(self) -> PageId {
        PageId(self.0 / u64_from_usize(PAGE_SIZE))
    }

    /// The 64-byte cache line this byte address falls in.
    pub const fn line(self) -> LineId {
        LineId(self.0 / u64_from_usize(LINE_SIZE))
    }

    /// Byte offset within the containing page.
    pub const fn page_offset(self) -> u64 {
        self.0 % u64_from_usize(PAGE_SIZE)
    }

    /// Byte offset within the containing cache line.
    pub const fn line_offset(self) -> u64 {
        self.0 % u64_from_usize(LINE_SIZE)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// A 2 KB page identifier in the original address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct PageId(pub u64);

impl PageId {
    /// The byte address of the first byte of this page.
    pub const fn base_addr(self) -> Addr {
        Addr(self.0 * u64_from_usize(PAGE_SIZE))
    }

    /// The first cache line of this page.
    pub const fn first_line(self) -> LineId {
        LineId(self.0 * u64_from_usize(PAGE_SIZE / LINE_SIZE))
    }

    /// Raw index.
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A 64 B cache-line identifier in the original address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct LineId(pub u64);

impl LineId {
    /// The page containing this line.
    pub const fn page(self) -> PageId {
        PageId(self.0 / u64_from_usize(PAGE_SIZE / LINE_SIZE))
    }

    /// The byte address of the first byte of this line.
    pub const fn base_addr(self) -> Addr {
        Addr(self.0 * u64_from_usize(LINE_SIZE))
    }

    /// Line index within its containing page (0..32 for 2 KB pages).
    pub const fn index_in_page(self) -> u64 {
        self.0 % u64_from_usize(PAGE_SIZE / LINE_SIZE)
    }

    /// Raw index.
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for LineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A physical page-sized frame in the memory devices.
///
/// Frames are numbered over the whole two-level memory: indices below the
/// fast-tier frame count are HBM frames, the rest are off-chip DDR frames
/// (see [`Geometry`](crate::geometry::Geometry) for the split and for
/// pod-local numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct FrameId(pub u64);

impl FrameId {
    /// Raw index.
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_decomposition() {
        let a = Addr(5 * 2048 + 777);
        assert_eq!(a.page(), PageId(5));
        assert_eq!(a.page_offset(), 777);
        assert_eq!(a.line_offset(), 777 % 64);
        assert_eq!(a.line().page(), PageId(5));
    }

    #[test]
    fn page_line_roundtrip() {
        for p in [0u64, 1, 17, 1 << 20] {
            let page = PageId(p);
            assert_eq!(page.base_addr().page(), page);
            assert_eq!(page.first_line().page(), page);
            assert_eq!(page.first_line().index_in_page(), 0);
        }
    }

    #[test]
    fn line_arithmetic() {
        let l = LineId(33);
        assert_eq!(l.page(), PageId(1));
        assert_eq!(l.index_in_page(), 1);
        assert_eq!(l.base_addr(), Addr(33 * 64));
        assert_eq!(l.base_addr().line(), l);
    }

    #[test]
    fn display_forms() {
        assert_eq!(PageId(3).to_string(), "P3");
        assert_eq!(LineId(4).to_string(), "L4");
        assert_eq!(FrameId(5).to_string(), "F5");
        assert_eq!(Addr(255).to_string(), "0xff");
        assert_eq!(format!("{:x}", Addr(255)), "ff");
    }

    #[test]
    fn from_u64() {
        let a: Addr = 42u64.into();
        assert_eq!(a, Addr(42));
    }
}
