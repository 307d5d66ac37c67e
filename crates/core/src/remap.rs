//! The remap table: pages ↔ frames as a permutation (paper §4.1, §5.2).
//!
//! MemPod needs, per pod, (a) a table giving each page's current frame and
//! (b) an inverted table giving each fast frame's current page (to find
//! eviction candidates). We keep one global permutation — pod
//! partitioning is by index residue, so per-pod views are just strided
//! slices of it.
//!
//! Each direction is stored sparsely, in 64-entry chunks: a directory
//! holds one `u32` per chunk, 0 while the chunk is still the identity,
//! otherwise the chunk's 1-based number in an arena. A chunk is copied
//! into the arena, as identity, on its first write, so host memory follows
//! the pages a run has moved rather than the machine's capacity (a
//! 1+8 GB machine's 4.7 M pages cost two 288 KB directories until they
//! migrate). [`RemapTable::storage_bits`] still prices the dense hardware
//! table of paper Table 1 — one entry per page — which this layout only
//! simulates.
//!
//! The two directions are maintained as mutual inverses at all times;
//! this is the central correctness invariant of a migration simulator (a
//! broken remap silently services requests from the wrong physical
//! location).

use mempod_types::convert::{u32_from_u64, u64_from_usize, usize_from_u32, usize_from_u64};
use mempod_types::{FrameId, PageId};

/// An index's chunk is `index >> CHUNK_SHIFT`.
const CHUNK_SHIFT: u32 = 6;
/// Entries per chunk of a direction's table.
const CHUNK: usize = 1 << CHUNK_SHIFT;
/// An index's offset within its chunk is `index & OFFSET_MASK`.
const OFFSET_MASK: u64 = (1 << CHUNK_SHIFT) - 1;

/// One direction of the permutation over `0..n`, identity except where
/// written. Indices are not bounds-checked against `n` here: the last
/// chunk's padding reads as identity, so [`RemapTable`] checks first.
#[derive(Debug, Clone)]
struct SparseMap {
    /// Per chunk: 0 for an identity chunk, else 1 + its chunk number in
    /// `arena`.
    dir: Vec<u32>,
    /// Materialized chunks, `CHUNK` entries each, in first-write order.
    arena: Vec<u32>,
}

impl SparseMap {
    fn identity(n: u64) -> Self {
        SparseMap {
            dir: vec![0; usize_from_u64(n.div_ceil(u64_from_usize(CHUNK)))],
            arena: Vec::new(),
        }
    }

    /// Arena position of index `i` in materialized chunk `c` (1-based).
    fn slot(c: u32, i: u64) -> usize {
        (usize_from_u32(c) - 1) * CHUNK + usize_from_u64(i & OFFSET_MASK)
    }

    #[inline]
    fn get(&self, i: u64) -> u64 {
        match self.dir[usize_from_u64(i >> CHUNK_SHIFT)] {
            0 => i,
            c => u64::from(self.arena[Self::slot(c, i)]),
        }
    }

    fn set(&mut self, i: u64, v: u64) {
        let chunk = usize_from_u64(i >> CHUNK_SHIFT);
        let mut c = self.dir[chunk];
        if c == 0 {
            // `identity` caps `n` at `u32::MAX`, so even the last chunk's
            // final index fits a `u32`.
            let (first, last) = (i & !OFFSET_MASK, i | OFFSET_MASK);
            self.arena.extend(u32_from_u64(first)..=u32_from_u64(last));
            c = u32_from_u64(u64_from_usize(self.arena.len() / CHUNK));
            self.dir[chunk] = c;
        }
        self.arena[Self::slot(c, i)] = u32_from_u64(v);
    }
}

/// A bijective page → frame mapping with an O(1) inverse.
///
/// # Examples
///
/// ```
/// use mempod_core::RemapTable;
/// use mempod_types::{FrameId, PageId};
///
/// let mut t = RemapTable::identity(8);
/// t.swap_frames(FrameId(0), FrameId(5));
/// assert_eq!(t.frame_of(PageId(0)), FrameId(5));
/// assert_eq!(t.page_in(FrameId(0)), PageId(5));
/// ```
#[derive(Debug, Clone)]
pub struct RemapTable {
    len: u64,
    to_frame: SparseMap,
    to_page: SparseMap,
}

impl RemapTable {
    /// The identity mapping over `n` pages/frames.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX` (4 G pages = 8 TB of 2 KB pages).
    pub fn identity(n: u64) -> Self {
        assert!(n <= u64::from(u32::MAX), "remap table index exceeds u32");
        RemapTable {
            len: n,
            to_frame: SparseMap::identity(n),
            to_page: SparseMap::identity(n),
        }
    }

    /// Number of pages (= frames) tracked.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `i` itself, once checked to be a page or frame of this table: the
    /// sparse directions would read the last chunk's padding as identity.
    #[inline]
    fn checked(&self, i: u64) -> u64 {
        assert!(
            i < self.len,
            "remap index {i} out of range for {} entries",
            self.len
        );
        i
    }

    /// The frame currently holding `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn frame_of(&self, page: PageId) -> FrameId {
        FrameId(self.to_frame.get(self.checked(page.0)))
    }

    /// The page currently held by `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn page_in(&self, frame: FrameId) -> PageId {
        PageId(self.to_page.get(self.checked(frame.0)))
    }

    /// Whether `page` still resides in its original (identity) frame.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn is_home(&self, page: PageId) -> bool {
        self.frame_of(page).0 == page.0
    }

    /// Exchanges the contents of two frames, updating both directions.
    ///
    /// # Panics
    ///
    /// Panics if either frame is out of range.
    pub fn swap_frames(&mut self, a: FrameId, b: FrameId) {
        if a == b {
            return;
        }
        let (pa, pb) = (self.page_in(a).0, self.page_in(b).0);
        self.to_page.set(a.0, pb);
        self.to_page.set(b.0, pa);
        self.to_frame.set(pa, b.0);
        self.to_frame.set(pb, a.0);
    }

    /// Verifies the permutation invariant (O(n); meant for tests).
    pub fn check_invariant(&self) -> bool {
        (0..self.len).all(|p| {
            let f = self.to_frame.get(p);
            f < self.len && self.to_page.get(f) == p
        })
    }

    /// Hardware storage in bits for one direction of the table, given
    /// `entries` entries of `ceil(log2(entries))`-bit frame numbers —
    /// Table 1's "1 entry per page" cost.
    pub fn storage_bits(entries: u64) -> u64 {
        let width = 64 - u64::from((entries.max(2) - 1).leading_zeros());
        entries * width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_maps_home() {
        let t = RemapTable::identity(16);
        for i in 0..16 {
            assert_eq!(t.frame_of(PageId(i)), FrameId(i));
            assert_eq!(t.page_in(FrameId(i)), PageId(i));
            assert!(t.is_home(PageId(i)));
        }
        assert!(t.check_invariant());
        assert_eq!(t.len(), 16);
        assert!(!t.is_empty());
    }

    #[test]
    fn swap_updates_both_directions() {
        let mut t = RemapTable::identity(8);
        t.swap_frames(FrameId(2), FrameId(6));
        assert_eq!(t.frame_of(PageId(2)), FrameId(6));
        assert_eq!(t.frame_of(PageId(6)), FrameId(2));
        assert_eq!(t.page_in(FrameId(2)), PageId(6));
        assert_eq!(t.page_in(FrameId(6)), PageId(2));
        assert!(!t.is_home(PageId(2)));
        assert!(t.check_invariant());
    }

    #[test]
    fn swap_chain_keeps_permutation() {
        let mut t = RemapTable::identity(64);
        // Deterministic pseudo-random swap storm.
        let mut x = 0xDEADBEEFu64;
        for _ in 0..1000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = FrameId(x % 64);
            x ^= x << 13;
            x ^= x >> 7;
            let b = FrameId(x % 64);
            t.swap_frames(a, b);
        }
        assert!(t.check_invariant());
    }

    #[test]
    fn self_swap_is_noop() {
        let mut t = RemapTable::identity(4);
        t.swap_frames(FrameId(1), FrameId(1));
        assert!(t.is_home(PageId(1)));
        assert!(t.check_invariant());
    }

    #[test]
    fn double_swap_restores_identity() {
        let mut t = RemapTable::identity(8);
        t.swap_frames(FrameId(0), FrameId(3));
        t.swap_frames(FrameId(0), FrameId(3));
        assert!((0..8).all(|i| t.is_home(PageId(i))));
    }

    #[test]
    fn storage_cost_matches_table1() {
        // Paper Table 1: MemPod remap table "1 entry per page (2.8 MB / Pod)".
        // 1.1M pages/pod x 21-bit entries ≈ 2.9 MB — the paper's 2.8 MB
        // up to rounding of the page count.
        let bits = RemapTable::storage_bits(1_100_000);
        assert_eq!(bits, 1_100_000 * 21);
        let mb = bits as f64 / 8.0 / 1e6;
        assert!((2.7..3.0).contains(&mb), "{mb}");
    }

    /// The first index past `len` panics in every accessor: whether it
    /// lands in the last chunk's padding (65, 127) or past the directory
    /// (4, 128), and whether that chunk is still identity or materialized.
    #[test]
    fn out_of_range_page_panics() {
        fn panics<R>(f: impl FnOnce() -> R) -> bool {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
        }
        for n in [4u64, 65, 127, 128] {
            let mut t = RemapTable::identity(n);
            for touched in [false, true] {
                if touched {
                    // Materialize the last chunk in both directions.
                    t.swap_frames(FrameId(0), FrameId(n - 1));
                }
                let mut u = t.clone();
                assert!(panics(|| t.frame_of(PageId(n))), "frame_of n={n}");
                assert!(panics(|| t.page_in(FrameId(n))), "page_in n={n}");
                assert!(panics(|| t.is_home(PageId(n))), "is_home n={n}");
                assert!(
                    panics(|| u.swap_frames(FrameId(0), FrameId(n))),
                    "swap n={n}"
                );
                assert!(t.check_invariant());
            }
        }
    }

    #[test]
    fn identity_chunks_take_no_arena() {
        let mut t = RemapTable::identity(1 << 20);
        assert!(t.to_frame.arena.is_empty() && t.to_page.arena.is_empty());
        // Both frames in one chunk: one chunk per direction.
        t.swap_frames(FrameId(2), FrameId(6));
        assert_eq!(t.to_frame.arena.len(), CHUNK);
        assert_eq!(t.to_page.arena.len(), CHUNK);
        // A frame in a new chunk: one more chunk each.
        t.swap_frames(FrameId(3), FrameId(1 << 19));
        assert_eq!(t.to_frame.arena.len(), 2 * CHUNK);
        assert_eq!(t.to_page.arena.len(), 2 * CHUNK);
        assert_eq!(t.frame_of(PageId(1 << 19)), FrameId(3));
        assert!(t.is_home(PageId((1 << 19) + 1)));
        assert!(t.check_invariant());
    }
}
