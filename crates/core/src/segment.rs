//! Segment / congruence-group arithmetic for THM and CAMEO (paper §2).
//!
//! Both baselines restrict migration to fixed sets: one fast slot plus
//! `ratio` slow slots. Two published layouts are supported:
//!
//! * [`SegmentLayout::Strided`] (CAMEO's congruence groups): member `k` of
//!   group `g` is unit `g + k·F`, with `F` fast units — slow members of a
//!   group are far apart in the address space.
//! * [`SegmentLayout::Blocked`] (THM's segments): the slow members of group
//!   `g` are the *consecutive* units `F + g·ratio .. F + (g+1)·ratio` — so
//!   a contiguous hot region lands in one segment and fights over its
//!   single fast slot, the spatial-locality pathology the paper discusses.
//!
//! Each group maintains a small permutation of which member's data sits in
//! which slot; only the fast slot (slot 0) ever exchanges with a member's
//! home slot, exactly the "swap with the fast location" operation both
//! papers describe.
//!
//! State is stored sparsely: groups still at identity occupy no memory,
//! which is what makes CAMEO's 16.7 M line-groups simulable. A touched
//! group's entry — its `1 + ratio`-slot permutation and one flag byte its
//! owner may use — lives in one flat byte arena in first-touch order,
//! found through an index keyed by group id and hashed with the shared
//! [`PageHasher`](mempod_types::PageHasher). The index is never iterated,
//! so its hash order cannot reach a result.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use mempod_types::convert::{u32_from_u64, u64_from_usize, u8_from_u64, usize_from_u32};
use mempod_types::BuildPageHasher;
use serde::Serialize;

/// How units are assigned to groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum SegmentLayout {
    /// CAMEO-style congruence groups: members stride by the fast-unit count.
    #[default]
    Strided,
    /// THM-style segments: a group's slow members are consecutive units.
    Blocked,
}

/// A group id (0..fast_units).
pub type GroupId = u64;
/// A member index within a group (0 = the fast member).
pub type MemberIdx = u8;

/// A slow:fast capacity ratio as the number of slow members per group.
///
/// # Panics
///
/// Panics if `ratio` exceeds [`MemberIdx::MAX`]: a group cannot index
/// more slow members than that.
pub(crate) fn slow_members(ratio: u64) -> MemberIdx {
    assert!(
        ratio <= u64::from(MemberIdx::MAX),
        "slow:fast ratio {ratio} exceeds the {} slow members a group can index",
        MemberIdx::MAX
    );
    u8_from_u64(ratio)
}

/// Sparse per-group slot permutations for a segmented layout.
///
/// # Examples
///
/// ```
/// use mempod_core::SegmentMap;
///
/// // 4 fast units, ratio 1:8 -> units 4..36 are slow.
/// let mut m = SegmentMap::new(4, 8);
/// assert_eq!(m.group_of(6), (2, 1)); // unit 6 = member 1 of group 2
/// assert_eq!(m.unit_of(2, 1), 6);
/// // Swap member 1 of group 2 into the fast slot:
/// m.swap_into_fast(2, 1);
/// assert_eq!(m.slot_of(2, 1), 0);      // member 1 now fast
/// assert_eq!(m.slot_of(2, 0), 1);      // member 0 displaced to 1's home
/// assert_eq!(m.location_of(6), 2);     // unit 6's data lives in unit 2
/// ```
#[derive(Debug, Clone)]
pub struct SegmentMap {
    fast_units: u64,
    ratio: u8,
    layout: SegmentLayout,
    /// Arena entry number of every group whose permutation has diverged
    /// from identity. Only ever looked up by key.
    index: HashMap<GroupId, u32, BuildPageHasher>,
    /// The touched groups' entries, `2 + ratio` bytes each, in first-touch
    /// order. Entry `e` starts at `at = e × (2 + ratio)`:
    /// `arena[at + member] = slot` for `member ≤ ratio`, then the flag
    /// byte (0 or 1) at `arena[at + 1 + ratio]`.
    arena: Vec<MemberIdx>,
    /// What the invariant audit has not seen yet.
    #[cfg(any(test, feature = "debug-invariants"))]
    book: AuditBook,
}

/// Incremental audit state. Every write to a group goes through a
/// [`GroupMut`] from [`SegmentMap::touch`] or [`SegmentMap::touched_mut`],
/// so an entry not handed out since the last [`SegmentMap::audit_dirty`]
/// cannot have changed and needs no second look.
#[cfg(any(test, feature = "debug-invariants"))]
#[derive(Debug, Clone, Default)]
struct AuditBook {
    /// Entries handed out since the last audit, each with its flag byte as
    /// of its first hand-out (that is, as of the last audit).
    dirty: Vec<(u32, u8)>,
    /// Whether each entry is already in `dirty`.
    listed: Vec<bool>,
    /// Groups whose flag was set at the last audit.
    flagged: usize,
}

/// One touched group's permutation and flag, resolved by a single index
/// lookup.
#[derive(Debug)]
pub(crate) struct GroupMut<'a> {
    /// `perm[member] = slot`.
    perm: &'a mut [MemberIdx],
    /// 0 or 1.
    flag: &'a mut u8,
}

impl GroupMut<'_> {
    /// The slot currently holding `member`'s data.
    pub(crate) fn slot_of(&self, member: MemberIdx) -> MemberIdx {
        self.perm[usize::from(member)]
    }

    /// The group's flag bit.
    pub(crate) fn flag(&self) -> bool {
        *self.flag != 0
    }

    /// Sets the group's flag bit.
    pub(crate) fn set_flag(&mut self, on: bool) {
        *self.flag = u8::from(on);
    }

    /// See [`SegmentMap::swap_into_fast`].
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a position in a group of 1 + ratio <= 256 members fits MemberIdx"
    )]
    pub(crate) fn swap_into_fast(&mut self, member: MemberIdx) -> Option<(MemberIdx, MemberIdx)> {
        let my_slot = self.perm[usize::from(member)];
        if my_slot == 0 {
            return None;
        }
        let Some(displaced) = self.perm.iter().position(|&s| s == 0) else {
            // A stored permutation always has a fast-slot occupant; on a
            // broken invariant, leave the table untouched.
            debug_assert!(false, "no member holds the fast slot");
            return None;
        };
        self.perm[usize::from(member)] = 0;
        self.perm[displaced] = my_slot;
        Some((my_slot, displaced as u8))
    }
}

impl SegmentMap {
    /// Creates a map for `fast_units` groups of `1 + ratio` members.
    ///
    /// # Panics
    ///
    /// Panics if `fast_units` is zero or `ratio` is zero.
    pub fn new(fast_units: u64, ratio: u8) -> Self {
        Self::with_layout(fast_units, ratio, SegmentLayout::Strided)
    }

    /// Creates a map with an explicit member layout.
    ///
    /// # Panics
    ///
    /// Panics if `fast_units` is zero or `ratio` is zero.
    pub fn with_layout(fast_units: u64, ratio: u8, layout: SegmentLayout) -> Self {
        assert!(fast_units > 0, "need at least one group");
        assert!(ratio > 0, "need at least one slow member per group");
        SegmentMap {
            fast_units,
            ratio,
            layout,
            index: HashMap::default(),
            arena: Vec::new(),
            #[cfg(any(test, feature = "debug-invariants"))]
            book: AuditBook::default(),
        }
    }

    /// The member layout in use.
    pub fn layout(&self) -> SegmentLayout {
        self.layout
    }

    /// Number of groups.
    pub fn groups(&self) -> u64 {
        self.fast_units
    }

    /// Slow members per group.
    pub fn ratio(&self) -> u8 {
        self.ratio
    }

    /// Total units (fast + slow).
    pub fn total_units(&self) -> u64 {
        self.fast_units * (1 + u64::from(self.ratio))
    }

    /// Number of groups whose permutation has diverged from identity.
    pub fn touched_groups(&self) -> usize {
        self.index.len()
    }

    /// Decomposes a unit id into `(group, member)`.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "unit < fast_units * (1 + ratio), so each member index is at most ratio <= 255"
    )]
    pub fn group_of(&self, unit: u64) -> (GroupId, MemberIdx) {
        assert!(unit < self.total_units(), "unit {unit} out of range");
        match self.layout {
            SegmentLayout::Strided => ((unit % self.fast_units), (unit / self.fast_units) as u8),
            SegmentLayout::Blocked => {
                if unit < self.fast_units {
                    (unit, 0)
                } else {
                    let slow = unit - self.fast_units;
                    (
                        slow / self.ratio as u64,
                        1 + (slow % self.ratio as u64) as u8,
                    )
                }
            }
        }
    }

    /// Recomposes `(group, member)` into a unit id.
    pub fn unit_of(&self, group: GroupId, member: MemberIdx) -> u64 {
        debug_assert!(group < self.fast_units);
        debug_assert!(member <= self.ratio);
        match self.layout {
            SegmentLayout::Strided => group + member as u64 * self.fast_units,
            SegmentLayout::Blocked => {
                if member == 0 {
                    group
                } else {
                    self.fast_units + group * self.ratio as u64 + (member as u64 - 1)
                }
            }
        }
    }

    /// Bytes per arena entry: the permutation's slots plus the flag.
    fn stride(&self) -> usize {
        2 + usize::from(self.ratio)
    }

    /// The stored permutation of arena entry `e`.
    fn perm(&self, e: u32) -> &[MemberIdx] {
        let at = usize_from_u32(e) * self.stride();
        &self.arena[at..at + self.stride() - 1]
    }

    /// Arena entry `e` split into its permutation and flag.
    fn entry_mut(arena: &mut [MemberIdx], e: u32, stride: usize) -> GroupMut<'_> {
        let at = usize_from_u32(e) * stride;
        let (perm, flag) = arena[at..at + stride].split_at_mut(stride - 1);
        GroupMut {
            perm,
            flag: &mut flag[0],
        }
    }

    /// The slot currently holding `member`'s data within `group`.
    pub fn slot_of(&self, group: GroupId, member: MemberIdx) -> MemberIdx {
        self.index
            .get(&group)
            .map_or(member, |&e| self.perm(e)[usize::from(member)])
    }

    /// The member whose data currently occupies `slot` within `group`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a position in a group of 1 + ratio <= 256 members fits MemberIdx"
    )]
    pub fn occupant_of(&self, group: GroupId, slot: MemberIdx) -> MemberIdx {
        match self.index.get(&group) {
            None => slot,
            Some(&e) => {
                let pos = self.perm(e).iter().position(|&s| s == slot);
                debug_assert!(pos.is_some(), "stored permutation must be total");
                pos.map_or(slot, |i| i as u8)
            }
        }
    }

    /// The physical unit currently holding logical `unit`'s data.
    pub fn location_of(&self, unit: u64) -> u64 {
        let (g, m) = self.group_of(unit);
        self.unit_of(g, self.slot_of(g, m))
    }

    /// Whether logical `unit`'s data currently sits in a fast slot.
    pub fn is_fast(&self, unit: u64) -> bool {
        let (g, m) = self.group_of(unit);
        self.slot_of(g, m) == 0
    }

    /// Verifies the structural invariant: the arena holds exactly one
    /// entry per indexed group, each permutation is a bijection over the
    /// slot range `0..=ratio`, and each flag byte is 0 or 1. Groups still
    /// at identity are trivially valid and are not stored, so this is
    /// O(touched groups), not O(total units).
    pub fn check_invariant(&self) -> bool {
        self.arena.len() == self.index.len() * self.stride()
            && self.arena.chunks_exact(self.stride()).all(entry_is_valid)
    }

    /// [`check_invariant`](Self::check_invariant) over only the entries
    /// handed out for writing since the last call, which also brings
    /// [`flagged_groups`](Self::flagged_groups) up to date. A run's audits
    /// together cost O(writes), not O(audits × touched groups).
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn audit_dirty(&mut self) -> bool {
        let stride = self.stride();
        let mut ok = self.arena.len() == self.index.len() * stride;
        for (e, old_flag) in std::mem::take(&mut self.book.dirty) {
            let at = usize_from_u32(e) * stride;
            self.book.listed[usize_from_u32(e)] = false;
            let Some(entry) = self.arena.get(at..at + stride) else {
                ok = false;
                continue;
            };
            ok &= entry_is_valid(entry);
            self.book.flagged = self.book.flagged + usize::from(entry[stride - 1] != 0)
                - usize::from(old_flag != 0);
        }
        ok
    }

    /// Number of touched groups whose flag was set at the last
    /// [`audit_dirty`](Self::audit_dirty).
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn flagged_groups(&self) -> usize {
        self.book.flagged
    }

    /// Lists entry `e` for the next audit, with its flag byte as it is
    /// before the caller's write.
    #[cfg(any(test, feature = "debug-invariants"))]
    fn mark_dirty(&mut self, e: u32) {
        let i = usize_from_u32(e);
        if self.book.listed.len() <= i {
            self.book.listed.resize(i + 1, false);
        }
        if !std::mem::replace(&mut self.book.listed[i], true) {
            let flag = self.arena[(i + 1) * self.stride() - 1];
            self.book.dirty.push((e, flag));
        }
    }

    /// A touched group's permutation and flag, or `None` while the group
    /// is still at identity. Never creates an entry.
    pub(crate) fn touched_mut(&mut self, group: GroupId) -> Option<GroupMut<'_>> {
        let stride = self.stride();
        let e = *self.index.get(&group)?;
        #[cfg(any(test, feature = "debug-invariants"))]
        self.mark_dirty(e);
        Some(Self::entry_mut(&mut self.arena, e, stride))
    }

    /// `group`'s permutation and flag, stored at identity (flag clear) on
    /// first touch.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub(crate) fn touch(&mut self, group: GroupId) -> GroupMut<'_> {
        let stride = self.stride();
        let e = match self.index.entry(group) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => {
                assert!(group < self.fast_units, "group {group} out of range");
                let e = u32_from_u64(u64_from_usize(self.arena.len() / stride));
                self.arena.extend(0..=self.ratio);
                self.arena.push(0);
                *v.insert(e)
            }
        };
        #[cfg(any(test, feature = "debug-invariants"))]
        self.mark_dirty(e);
        Self::entry_mut(&mut self.arena, e, stride)
    }

    /// Swaps `member`'s data with whatever occupies the group's fast slot.
    /// Returns `(member's old slot, the displaced member)`, or `None` if
    /// `member` is already fast.
    pub fn swap_into_fast(
        &mut self,
        group: GroupId,
        member: MemberIdx,
    ) -> Option<(MemberIdx, MemberIdx)> {
        self.touch(group).swap_into_fast(member)
    }
}

/// Whether one arena entry holds a bijection over its slots followed by a
/// 0/1 flag byte.
fn entry_is_valid(entry: &[MemberIdx]) -> bool {
    let (perm, flag) = entry.split_at(entry.len() - 1);
    let mut seen = [false; 1 << MemberIdx::BITS];
    flag[0] <= 1
        && perm.iter().all(|&slot| {
            let s = usize::from(slot);
            s < perm.len() && !std::mem::replace(&mut seen[s], true)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_layout() {
        let m = SegmentMap::new(8, 8);
        assert_eq!(m.total_units(), 72);
        for u in 0..72 {
            assert_eq!(m.location_of(u), u);
        }
        assert!(m.is_fast(3));
        assert!(!m.is_fast(8)); // member 1 of group 0
        assert_eq!(m.touched_groups(), 0);
    }

    #[test]
    fn group_decomposition_roundtrips() {
        let m = SegmentMap::new(8, 8);
        for u in 0..m.total_units() {
            let (g, k) = m.group_of(u);
            assert_eq!(m.unit_of(g, k), u);
            assert!(g < 8);
            assert!(k <= 8);
        }
    }

    #[test]
    fn swap_into_fast_then_back() {
        let mut m = SegmentMap::new(4, 8);
        // Member 3 of group 1 = unit 1 + 3*4 = 13.
        assert_eq!(m.swap_into_fast(1, 3), Some((3, 0)));
        assert!(m.is_fast(13));
        assert_eq!(m.location_of(13), 1); // in the fast slot (unit 1)
        assert_eq!(m.location_of(1), 13); // member 0 displaced to 3's home
                                          // Swapping member 0 back restores identity.
        assert_eq!(m.swap_into_fast(1, 0), Some((3, 3)));
        assert_eq!(m.location_of(1), 1);
        assert_eq!(m.location_of(13), 13);
    }

    #[test]
    fn swap_already_fast_is_none() {
        let mut m = SegmentMap::new(4, 8);
        assert_eq!(m.swap_into_fast(2, 0), None);
        m.swap_into_fast(2, 5);
        assert_eq!(m.swap_into_fast(2, 5), None);
    }

    #[test]
    fn successive_swaps_chain_correctly() {
        // THM pathology: members keep evicting each other; the permutation
        // must stay consistent.
        let mut m = SegmentMap::new(2, 8);
        m.swap_into_fast(0, 1); // 1 fast, 0 at 1's home
        m.swap_into_fast(0, 2); // 2 fast, 1 at 2's home, 0 still at 1's home
        assert_eq!(m.slot_of(0, 2), 0);
        assert_eq!(m.slot_of(0, 1), 2);
        assert_eq!(m.slot_of(0, 0), 1);
        // Every slot occupied exactly once.
        let slots: std::collections::HashSet<u8> = (0..=8).map(|k| m.slot_of(0, k)).collect();
        assert_eq!(slots.len(), 9);
        // occupant_of inverts slot_of.
        for k in 0..=8u8 {
            assert_eq!(m.occupant_of(0, m.slot_of(0, k)), k);
        }
    }

    #[test]
    fn sparse_storage_only_tracks_touched_groups() {
        let mut m = SegmentMap::new(1 << 20, 8);
        m.swap_into_fast(5, 1);
        m.swap_into_fast(99, 2);
        assert_eq!(m.touched_groups(), 2);
    }

    #[test]
    fn blocked_layout_groups_consecutive_slow_units() {
        let m = SegmentMap::with_layout(4, 8, SegmentLayout::Blocked);
        assert_eq!(m.layout(), SegmentLayout::Blocked);
        // Slow units 4..12 all belong to group 0, consecutively.
        for (i, unit) in (4..12u64).enumerate() {
            assert_eq!(m.group_of(unit), (0, (i + 1) as u8));
        }
        assert_eq!(m.group_of(12), (1, 1));
        // Round-trips hold in both layouts.
        for u in 0..m.total_units() {
            let (g, k) = m.group_of(u);
            assert_eq!(m.unit_of(g, k), u);
        }
    }

    #[test]
    fn blocked_swaps_work_like_strided() {
        let mut m = SegmentMap::with_layout(4, 8, SegmentLayout::Blocked);
        // Unit 5 = member 2 of group 0; swap it fast.
        assert_eq!(m.group_of(5), (0, 2));
        m.swap_into_fast(0, 2);
        assert_eq!(m.location_of(5), 0);
        assert_eq!(m.location_of(0), 5);
        assert!(m.is_fast(5));
    }

    #[test]
    fn flag_is_per_group_and_starts_clear() {
        let mut m = SegmentMap::new(4, 8);
        assert!(m.touched_mut(1).is_none(), "untouched groups have no entry");
        m.touch(1).set_flag(true);
        assert!(!m.touch(2).flag());
        assert!(m.touched_mut(1).expect("touched").flag());
        // Touching stores identity, and swaps leave the flag alone.
        assert_eq!(m.slot_of(2, 3), 3);
        assert_eq!(m.swap_into_fast(1, 4), Some((4, 0)));
        assert!(m.touched_mut(1).expect("touched").flag());
        assert_eq!(m.touched_groups(), 2);
        assert!(m.audit_dirty());
        assert_eq!(m.flagged_groups(), 1);
        assert!(m.check_invariant());
    }

    #[test]
    fn audits_see_every_write_since_the_last_one() {
        let mut m = SegmentMap::new(4, 8);
        m.swap_into_fast(1, 3);
        m.touch(2).set_flag(true);
        assert!(m.audit_dirty());
        assert_eq!(m.flagged_groups(), 1);
        assert!(m.book.dirty.is_empty());
        // Flag changes on already-audited groups are counted once each.
        m.touched_mut(2).expect("touched").set_flag(false);
        m.touched_mut(1).expect("touched").set_flag(true);
        m.touched_mut(1).expect("touched").set_flag(true);
        assert_eq!(m.book.dirty.len(), 2);
        assert!(m.audit_dirty());
        assert_eq!(m.flagged_groups(), 1);
        // A torn permutation in an audited group is caught by the next
        // audit: member 3 and member 0 both claim the fast slot.
        m.touched_mut(1).expect("touched").perm[0] = 0;
        assert!(!m.check_invariant());
        assert!(!m.audit_dirty());
        // A bad flag byte is caught too.
        *m.touch(3).flag = 2;
        assert!(!m.audit_dirty());
    }

    #[test]
    fn slow_members_accepts_up_to_255() {
        assert_eq!(slow_members(8), 8);
        assert_eq!(slow_members(255), 255);
    }

    #[test]
    #[should_panic(expected = "slow:fast ratio 256 exceeds the 255 slow members")]
    fn slow_members_rejects_256() {
        let _ = slow_members(256);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unit_out_of_range_panics() {
        let m = SegmentMap::new(4, 8);
        let _ = m.group_of(36);
    }
}
