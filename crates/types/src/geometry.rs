//! Capacity layout of a two-level (fast + slow) flat-address-space memory.
//!
//! The paper's system (Table 2) is 1 GB of die-stacked HBM plus 8 GB of
//! off-chip DDR4, managed in 2 KB pages and clustered into 4 pods. This
//! module captures that layout and the arithmetic everything else relies on:
//!
//! * **Static mapping** — before any migration, page *p* lives in frame *p*;
//!   frames `< fast_pages` are HBM, the rest are DDR.
//! * **Pod assignment** — pages and frames are interleaved over pods by
//!   `index % pods`. Because the fast-tier frame count is a multiple of the
//!   pod count, a page and all fast frames of its pod share the same residue,
//!   so intra-pod migration never changes a page's pod (the property MemPod's
//!   clustered design depends on).

use serde::Serialize;
use std::fmt;

use crate::addr::{FrameId, LineId, PageId};
use crate::convert::{u32_from_u64, u64_from_u32, u64_from_usize};
use crate::error::GeometryError;

/// Page size in bytes. A page migration moves 32 cache lines (paper §6.2).
pub const PAGE_SIZE: usize = 2048;
/// Cache-line size in bytes.
pub const LINE_SIZE: usize = 64;
/// Cache lines per page.
pub const LINES_PER_PAGE: usize = PAGE_SIZE / LINE_SIZE;

/// Which level of the two-level memory a page or frame belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Tier {
    /// Die-stacked, high-bandwidth, low-latency memory (HBM).
    Fast,
    /// Off-chip commodity memory (DDR4).
    Slow,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tier::Fast => write!(f, "fast"),
            Tier::Slow => write!(f, "slow"),
        }
    }
}

/// The capacity layout of a two-level memory.
///
/// # Examples
///
/// ```
/// use mempod_types::{Geometry, FrameId, PageId, Tier};
///
/// let geo = Geometry::paper_default();
/// assert_eq!(geo.fast_pages(), 524_288);           // 1 GB / 2 KB
/// assert_eq!(geo.slow_pages(), 8 * 524_288);       // 8 GB / 2 KB
/// assert_eq!(geo.slow_to_fast_ratio(), 8);
/// assert_eq!(geo.pod_of_page(PageId(6)), 2);       // 6 % 4
/// assert_eq!(geo.tier_of_frame(FrameId(524_288)), Tier::Slow);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Geometry {
    fast_bytes: u64,
    slow_bytes: u64,
    pods: u32,
}

impl Geometry {
    /// Creates a layout from tier capacities in bytes and a pod count.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if either capacity is zero or not a multiple
    /// of the page size, if `pods` is zero, or if the fast-tier page count is
    /// not a multiple of `pods` (which would break pod-invariant migration).
    pub fn new(fast_bytes: u64, slow_bytes: u64, pods: u32) -> Result<Self, GeometryError> {
        if fast_bytes == 0 || slow_bytes == 0 {
            return Err(GeometryError::ZeroCapacity);
        }
        if !fast_bytes.is_multiple_of(u64_from_usize(PAGE_SIZE))
            || !slow_bytes.is_multiple_of(u64_from_usize(PAGE_SIZE))
        {
            return Err(GeometryError::UnalignedCapacity {
                page_size: u64_from_usize(PAGE_SIZE),
            });
        }
        if pods == 0 {
            return Err(GeometryError::ZeroPods);
        }
        let fast_pages = fast_bytes / u64_from_usize(PAGE_SIZE);
        let slow_pages = slow_bytes / u64_from_usize(PAGE_SIZE);
        if !fast_pages.is_multiple_of(u64_from_u32(pods))
            || !slow_pages.is_multiple_of(u64_from_u32(pods))
        {
            return Err(GeometryError::PodsDoNotDivide {
                pods,
                fast_pages,
                slow_pages,
            });
        }
        Ok(Geometry {
            fast_bytes,
            slow_bytes,
            pods,
        })
    }

    /// The paper's configuration: 1 GB HBM + 8 GB DDR4, 4 pods.
    pub fn paper_default() -> Self {
        Geometry::new(1 << 30, 8 << 30, 4).expect("paper configuration is valid")
    }

    /// A small layout (4 MB + 32 MB, 4 pods) convenient for fast tests.
    pub fn tiny() -> Self {
        Geometry::new(4 << 20, 32 << 20, 4).expect("tiny configuration is valid")
    }

    /// Fast-tier capacity in bytes.
    pub const fn fast_bytes(&self) -> u64 {
        self.fast_bytes
    }

    /// Slow-tier capacity in bytes.
    pub const fn slow_bytes(&self) -> u64 {
        self.slow_bytes
    }

    /// Total capacity in bytes.
    pub const fn total_bytes(&self) -> u64 {
        self.fast_bytes + self.slow_bytes
    }

    /// Number of pods.
    pub const fn pods(&self) -> u32 {
        self.pods
    }

    /// Number of fast-tier page frames.
    pub const fn fast_pages(&self) -> u64 {
        self.fast_bytes / u64_from_usize(PAGE_SIZE)
    }

    /// Number of slow-tier page frames.
    pub const fn slow_pages(&self) -> u64 {
        self.slow_bytes / u64_from_usize(PAGE_SIZE)
    }

    /// Total pages (= total frames) in the flat address space.
    pub const fn total_pages(&self) -> u64 {
        self.fast_pages() + self.slow_pages()
    }

    /// Total cache lines in the flat address space.
    pub const fn total_lines(&self) -> u64 {
        self.total_pages() * u64_from_usize(LINES_PER_PAGE)
    }

    /// Cache lines in the fast tier.
    pub const fn fast_lines(&self) -> u64 {
        self.fast_pages() * u64_from_usize(LINES_PER_PAGE)
    }

    /// Pages handled by each pod.
    pub const fn pages_per_pod(&self) -> u64 {
        self.total_pages() / u64_from_u32(self.pods)
    }

    /// Fast frames owned by each pod.
    pub const fn fast_pages_per_pod(&self) -> u64 {
        self.fast_pages() / u64_from_u32(self.pods)
    }

    /// Slow pages per fast page (the paper's 1:8 configuration ratio).
    pub const fn slow_to_fast_ratio(&self) -> u64 {
        self.slow_pages() / self.fast_pages()
    }

    /// Whether `page` is a valid page of this layout.
    pub const fn contains_page(&self, page: PageId) -> bool {
        page.0 < self.total_pages()
    }

    /// Whether `frame` is a valid frame of this layout.
    pub const fn contains_frame(&self, frame: FrameId) -> bool {
        frame.0 < self.total_pages()
    }

    /// The tier a *frame* physically belongs to.
    pub const fn tier_of_frame(&self, frame: FrameId) -> Tier {
        if frame.0 < self.fast_pages() {
            Tier::Fast
        } else {
            Tier::Slow
        }
    }

    /// The tier a page occupies under the *static* (no-migration) mapping.
    pub const fn tier_of_page(&self, page: PageId) -> Tier {
        self.tier_of_frame(FrameId(page.0))
    }

    /// The tier a line occupies under the static mapping.
    pub const fn tier_of_line(&self, line: LineId) -> Tier {
        if line.0 < self.fast_lines() {
            Tier::Fast
        } else {
            Tier::Slow
        }
    }

    /// The pod that owns `page`.
    pub const fn pod_of_page(&self, page: PageId) -> u32 {
        u32_from_u64(page.0 % u64_from_u32(self.pods))
    }

    /// The pod that owns `frame`.
    pub const fn pod_of_frame(&self, frame: FrameId) -> u32 {
        u32_from_u64(frame.0 % u64_from_u32(self.pods))
    }

    /// The frame page `page` occupies before any migration (identity map).
    pub const fn static_frame_of(&self, page: PageId) -> FrameId {
        FrameId(page.0)
    }

    /// Pod-local index of a page: its position among its pod's pages.
    pub const fn pod_local_page_index(&self, page: PageId) -> u64 {
        page.0 / u64_from_u32(self.pods)
    }

    /// The `i`-th fast frame of pod `pod` (i in `0..fast_pages_per_pod()`).
    ///
    /// # Panics
    ///
    /// Panics if `pod` or `i` is out of range.
    pub fn fast_frame_of_pod(&self, pod: u32, i: u64) -> FrameId {
        assert!(pod < self.pods, "pod {pod} out of range");
        assert!(
            i < self.fast_pages_per_pod(),
            "fast frame index {i} out of range"
        );
        FrameId(i * u64_from_u32(self.pods) + u64_from_u32(pod))
    }

    /// Returns a layout with both tiers scaled down by `factor` (capacities
    /// divided), keeping the pod count — useful for running the paper's
    /// experiments at laptop scale.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if the scaled layout is invalid.
    pub fn scaled_down(&self, factor: u64) -> Result<Self, GeometryError> {
        Geometry::new(
            self.fast_bytes / factor,
            self.slow_bytes / factor,
            self.pods,
        )
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Geometry::paper_default()
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}MB fast + {}MB slow, {} pods",
            self.fast_bytes >> 20,
            self.slow_bytes >> 20,
            self.pods
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_paper_numbers() {
        let g = Geometry::paper_default();
        assert_eq!(g.fast_pages(), 524_288);
        assert_eq!(g.slow_pages(), 4_194_304);
        assert_eq!(g.total_pages(), 4_718_592); // "4.5M counters"
        assert_eq!(g.pages_per_pod(), 1_179_648); // "1.1M pages per Pod"
        assert_eq!(g.slow_to_fast_ratio(), 8);
        // 21 bits address 1.1M pages per pod.
        assert!(g.pages_per_pod() < (1 << 21));
    }

    #[test]
    fn validation_rejects_bad_layouts() {
        assert!(matches!(
            Geometry::new(0, 8 << 30, 4),
            Err(GeometryError::ZeroCapacity)
        ));
        assert!(matches!(
            Geometry::new(1 << 30, 100, 4),
            Err(GeometryError::UnalignedCapacity { .. })
        ));
        assert!(matches!(
            Geometry::new(1 << 30, 8 << 30, 0),
            Err(GeometryError::ZeroPods)
        ));
        // 3 pods do not divide 524288 fast pages.
        assert!(matches!(
            Geometry::new(1 << 30, 8 << 30, 3),
            Err(GeometryError::PodsDoNotDivide { .. })
        ));
    }

    #[test]
    fn tiers_split_at_fast_boundary() {
        let g = Geometry::tiny();
        let boundary = g.fast_pages();
        assert_eq!(g.tier_of_frame(FrameId(boundary - 1)), Tier::Fast);
        assert_eq!(g.tier_of_frame(FrameId(boundary)), Tier::Slow);
        assert_eq!(g.tier_of_page(PageId(boundary - 1)), Tier::Fast);
        assert_eq!(g.tier_of_page(PageId(boundary)), Tier::Slow);
        assert_eq!(g.tier_of_line(LineId(g.fast_lines() - 1)), Tier::Fast);
        assert_eq!(g.tier_of_line(LineId(g.fast_lines())), Tier::Slow);
    }

    #[test]
    fn pod_assignment_is_residue_based_and_migration_safe() {
        let g = Geometry::tiny();
        for p in 0..64u64 {
            assert_eq!(g.pod_of_page(PageId(p)), (p % 4) as u32);
        }
        // Every fast frame of pod i has residue i, so intra-pod migration
        // keeps the pod invariant.
        for pod in 0..g.pods() {
            for i in 0..g.fast_pages_per_pod() {
                let f = g.fast_frame_of_pod(pod, i);
                assert_eq!(g.pod_of_frame(f), pod);
                assert_eq!(g.tier_of_frame(f), Tier::Fast);
            }
        }
    }

    #[test]
    fn fast_frames_of_pod_enumerate_all_fast_frames() {
        let g = Geometry::tiny();
        let mut seen = std::collections::HashSet::new();
        for pod in 0..g.pods() {
            for i in 0..g.fast_pages_per_pod() {
                seen.insert(g.fast_frame_of_pod(pod, i));
            }
        }
        assert_eq!(seen.len() as u64, g.fast_pages());
        assert!(seen.iter().all(|f| f.0 < g.fast_pages()));
    }

    #[test]
    fn scaled_down_keeps_shape() {
        let g = Geometry::paper_default().scaled_down(64).unwrap();
        assert_eq!(g.slow_to_fast_ratio(), 8);
        assert_eq!(g.pods(), 4);
        assert_eq!(g.total_bytes(), (9 << 30) / 64);
    }

    #[test]
    fn display_is_informative() {
        let s = Geometry::paper_default().to_string();
        assert!(s.contains("1024MB fast"));
        assert!(s.contains("4 pods"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fast_frame_of_pod_bounds_checked() {
        let g = Geometry::tiny();
        let _ = g.fast_frame_of_pod(0, g.fast_pages_per_pod());
    }
}
