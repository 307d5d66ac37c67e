//! The [`Migration`] descriptor: one physical swap to execute.

use mempod_types::convert::{self, u64_from_u32, u64_from_usize};
use mempod_types::{FrameId, PageId, LINES_PER_PAGE, LINE_SIZE};
use serde::Serialize;

/// Lines exchanged per direction by a full-page swap.
///
/// This is the single authority for the page/line granularity split:
/// [`Migration::page_swap`] constructs with it and
/// [`Migration::is_page_swap`] tests against it, so consumers (like the
/// simulator's migration-lane routing) cannot drift from the constructor
/// when the geometry changes.
pub const PAGE_SWAP_LINES: u32 = 32;
// One page swap must move exactly one geometry page.
const _: () = assert!(convert::usize_from_u32(PAGE_SWAP_LINES) == LINES_PER_PAGE);

/// One swap between two physical frames, at page or line granularity.
///
/// The two sides exchange `line_count` consecutive 64 B lines starting at
/// `line_start` within each frame. A full 2 KB page swap is
/// `line_start = 0, line_count = 32` — the paper's "32 read requests for
/// each of the two migration candidates and then another set of 32 requests
/// for each of the two write-backs" (§6.2). CAMEO swaps a single line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Migration {
    /// One frame of the swap.
    pub frame_a: FrameId,
    /// The other frame.
    pub frame_b: FrameId,
    /// First line within each frame to move.
    pub line_start: u32,
    /// Number of consecutive lines swapped.
    pub line_count: u32,
    /// Original page whose data sits in `frame_a` (blocked during the swap).
    pub page_a: PageId,
    /// Original page whose data sits in `frame_b` (blocked during the swap).
    pub page_b: PageId,
    /// Pod performing the swap, if the manager is pod-clustered.
    pub pod: Option<u32>,
    /// Tracker hotness (MEA/counter value) of the promoted page at decision
    /// time; `0` when the mechanism is access-driven (CAMEO) or the tracker
    /// does not expose a count. Recorded so provenance ledgers can keep the
    /// "MEA count at decision" without re-querying tracker state that the
    /// epoch boundary may already have reset.
    pub hotness: u64,
}

impl Migration {
    /// A full-page swap.
    pub fn page_swap(
        frame_a: FrameId,
        frame_b: FrameId,
        page_a: PageId,
        page_b: PageId,
        pod: Option<u32>,
    ) -> Self {
        Migration {
            frame_a,
            frame_b,
            line_start: 0,
            line_count: PAGE_SWAP_LINES,
            page_a,
            page_b,
            pod,
            hotness: 0,
        }
    }

    /// Tags the swap with the promoted page's tracker count at decision
    /// time (see [`Migration::hotness`]).
    #[must_use]
    pub fn with_hotness(mut self, hotness: u64) -> Self {
        self.hotness = hotness;
        self
    }

    /// A single-line swap (CAMEO).
    pub fn line_swap(
        frame_a: FrameId,
        frame_b: FrameId,
        line: u32,
        page_a: PageId,
        page_b: PageId,
    ) -> Self {
        Migration {
            frame_a,
            frame_b,
            line_start: line,
            line_count: 1,
            page_a,
            page_b,
            pod: None,
            hotness: 0,
        }
    }

    /// Whether this swap moves a whole page (as opposed to CAMEO's
    /// single-line swaps). Page swaps serialize through their pod's
    /// migration lane; line swaps start immediately.
    pub fn is_page_swap(&self) -> bool {
        self.line_count >= PAGE_SWAP_LINES
    }

    /// Bytes moved by this swap (both directions).
    pub fn bytes_moved(&self) -> u64 {
        2 * u64_from_u32(self.line_count) * u64_from_usize(LINE_SIZE)
    }

    /// Memory requests the swap injects: a read and a write per line per
    /// direction.
    pub fn injected_requests(&self) -> u64 {
        4 * u64_from_u32(self.line_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_swap_moves_4kb_in_128_requests() {
        let m = Migration::page_swap(FrameId(1), FrameId(2), PageId(10), PageId(20), Some(0));
        assert_eq!(m.bytes_moved(), 4096); // 2 x 2 KB
        assert_eq!(m.injected_requests(), 128); // paper §6.2
        assert_eq!(m.line_count, PAGE_SWAP_LINES);
        assert!(m.is_page_swap());
    }

    #[test]
    fn line_swap_moves_128_bytes_in_4_requests() {
        let m = Migration::line_swap(FrameId(1), FrameId(2), 7, PageId(10), PageId(20));
        assert_eq!(m.bytes_moved(), 128);
        assert_eq!(m.injected_requests(), 4);
        assert_eq!(m.line_start, 7);
        assert_eq!(m.pod, None);
        assert!(!m.is_page_swap());
    }
}
