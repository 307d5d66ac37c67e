//! Physical address layout: frame + line → channel, bank, row, column.
//!
//! The layout follows the co-design the paper assumes (§5.1, §5.3):
//!
//! * **Frames interleave across channels of their tier** at page granularity
//!   (`frame % channels`). With 8 fast channels, 4 slow channels and 4 pods,
//!   pod *i* owns fast channels `{i, i+4}` and slow channel `{i}`, so
//!   intra-pod migration traffic never crosses pods — the property MemPod's
//!   clustered design exploits.
//! * **Within a channel**, consecutive within-channel pages pack into rows
//!   (an 8 KB row holds four 2 KB pages — this is why migrating
//!   simultaneously-hot pages together boosts row-buffer hit rate in the
//!   paper's libquantum analysis), and rows interleave across banks.

use mempod_types::convert::{u32_from_u64, u64_from_u32, u64_from_usize, usize_from_u32};
use mempod_types::{FrameId, Tier, LINE_SIZE, PAGE_SIZE};
use serde::Serialize;

/// How addresses interleave across a tier's channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum Interleave {
    /// Page-frame granularity: a frame's 32 lines share one channel/row.
    /// Keeps pods channel-aligned (the co-design of paper §5.3) and is the
    /// suite's default.
    #[default]
    PageFrame,
    /// Line granularity (Ramulator's default flavor): consecutive lines of
    /// a tier stripe across its channels, so a within-page burst fans out
    /// and per-channel row-buffer hit rates drop sharply — useful for
    /// studying the sensitivity of row-hit statistics to the interleaving
    /// choice. Breaks pod/channel alignment for migration traffic.
    LineStriped,
}

/// A fully decoded physical location of one 64 B line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct PhysLoc {
    /// Global channel index (fast channels first, then slow).
    pub channel: u32,
    /// Bank within the channel.
    pub bank: u32,
    /// Row within the bank.
    pub row: u64,
    /// Column (line slot) within the row.
    pub col: u32,
    /// Which tier the channel belongs to.
    pub tier: Tier,
}

/// Decodes frames/lines into [`PhysLoc`]s for a two-tier channel layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct AddressMapper {
    fast_frames: u64,
    fast_channels: u32,
    slow_channels: u32,
    fast_banks: u32,
    slow_banks: u32,
    fast_pages_per_row: u64,
    slow_pages_per_row: u64,
    interleave: Interleave,
}

impl AddressMapper {
    /// Creates a mapper.
    ///
    /// `fast_frames` is the frame index where the slow tier starts. Either
    /// channel count may be zero if the corresponding tier is absent (e.g.
    /// the HBM-only baseline), in which case no frame may map there.
    ///
    /// # Panics
    ///
    /// Panics if both channel counts are zero or a pages-per-row is zero.
    pub fn new(
        fast_frames: u64,
        fast_channels: u32,
        slow_channels: u32,
        fast_banks: u32,
        slow_banks: u32,
        fast_pages_per_row: u64,
        slow_pages_per_row: u64,
    ) -> Self {
        assert!(
            fast_channels + slow_channels > 0,
            "at least one channel required"
        );
        assert!(fast_pages_per_row > 0 && slow_pages_per_row > 0);
        AddressMapper {
            fast_frames,
            fast_channels,
            slow_channels,
            fast_banks,
            slow_banks,
            fast_pages_per_row,
            slow_pages_per_row,
            interleave: Interleave::PageFrame,
        }
    }

    /// Switches the interleaving mode (builder style).
    pub fn with_interleave(mut self, interleave: Interleave) -> Self {
        self.interleave = interleave;
        self
    }

    /// The interleaving mode in use.
    pub fn interleave(&self) -> Interleave {
        self.interleave
    }

    /// Total number of channels (fast + slow).
    pub fn channels(&self) -> u32 {
        self.fast_channels + self.slow_channels
    }

    /// Number of fast channels.
    pub fn fast_channels(&self) -> u32 {
        self.fast_channels
    }

    /// Frame index where the slow tier begins.
    pub fn fast_frames(&self) -> u64 {
        self.fast_frames
    }

    /// The tier a frame belongs to.
    pub fn tier_of(&self, frame: FrameId) -> Tier {
        if frame.0 < self.fast_frames {
            Tier::Fast
        } else {
            Tier::Slow
        }
    }

    /// Decodes `(frame, line_in_page)` into a physical location.
    ///
    /// # Panics
    ///
    /// Panics if `line_in_page` is out of range or the frame's tier has no
    /// channels.
    pub fn decode(&self, frame: FrameId, line_in_page: u32) -> PhysLoc {
        assert!(
            usize_from_u32(line_in_page) < PAGE_SIZE / LINE_SIZE,
            "line {line_in_page} out of page"
        );
        let (tier, tier_frame, channels, chan_base, banks, pages_per_row) =
            if frame.0 < self.fast_frames {
                assert!(self.fast_channels > 0, "no fast channels configured");
                (
                    Tier::Fast,
                    frame.0,
                    u64_from_u32(self.fast_channels),
                    0u32,
                    u64_from_u32(self.fast_banks),
                    self.fast_pages_per_row,
                )
            } else {
                assert!(self.slow_channels > 0, "no slow channels configured");
                (
                    Tier::Slow,
                    frame.0 - self.fast_frames,
                    u64_from_u32(self.slow_channels),
                    self.fast_channels,
                    u64_from_u32(self.slow_banks),
                    self.slow_pages_per_row,
                )
            };
        match self.interleave {
            Interleave::PageFrame => {
                let channel = u32_from_u64(tier_frame % channels) + chan_base;
                let in_channel = tier_frame / channels; // page index within channel
                let row_seq = in_channel / pages_per_row; // sequential row number
                let slot = in_channel % pages_per_row; // page slot within the row
                let bank = u32_from_u64(row_seq % banks);
                let row = row_seq / banks;
                let col = u32_from_u64(slot * u64_from_usize(PAGE_SIZE / LINE_SIZE)) + line_in_page;
                PhysLoc {
                    channel,
                    bank,
                    row,
                    col,
                    tier,
                }
            }
            Interleave::LineStriped => {
                let lines_per_page = u64_from_usize(PAGE_SIZE / LINE_SIZE);
                let lines_per_row = pages_per_row * lines_per_page;
                let tier_line = tier_frame * lines_per_page + u64_from_u32(line_in_page);
                let channel = u32_from_u64(tier_line % channels) + chan_base;
                let in_channel = tier_line / channels; // line index within channel
                let row_seq = in_channel / lines_per_row;
                let col = u32_from_u64(in_channel % lines_per_row);
                let bank = u32_from_u64(row_seq % banks);
                let row = row_seq / banks;
                PhysLoc {
                    channel,
                    bank,
                    row,
                    col,
                    tier,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_mapper() -> AddressMapper {
        // 1 GB fast / 2 KB pages = 524288 fast frames; 8 fast + 4 slow
        // channels; 16 banks; 8 KB rows hold 4 pages.
        AddressMapper::new(524_288, 8, 4, 16, 16, 4, 4)
    }

    #[test]
    fn fast_slow_split() {
        let m = paper_mapper();
        assert_eq!(m.tier_of(FrameId(0)), Tier::Fast);
        assert_eq!(m.tier_of(FrameId(524_287)), Tier::Fast);
        assert_eq!(m.tier_of(FrameId(524_288)), Tier::Slow);
        assert_eq!(m.decode(FrameId(0), 0).tier, Tier::Fast);
        assert_eq!(m.decode(FrameId(524_288), 0).tier, Tier::Slow);
    }

    #[test]
    fn channel_interleave_respects_pods() {
        let m = paper_mapper();
        // Pod of a frame is frame % 4; its fast channels must be {pod, pod+4}.
        for f in 0..64u64 {
            let loc = m.decode(FrameId(f), 0);
            let pod = (f % 4) as u32;
            assert!(
                loc.channel == pod || loc.channel == pod + 4,
                "frame {f} pod {pod} got channel {}",
                loc.channel
            );
        }
        // Slow frames land on channel 8 + (tier_frame % 4) = 8 + pod
        // (524288 % 4 == 0 keeps residues aligned).
        for f in 524_288..524_288 + 64u64 {
            let loc = m.decode(FrameId(f), 0);
            let pod = (f % 4) as u32;
            assert_eq!(loc.channel, 8 + pod, "frame {f}");
        }
    }

    #[test]
    fn four_pages_share_a_row() {
        let m = paper_mapper();
        // Within one channel, pages with consecutive in-channel indices pack
        // 4-to-a-row: frames 0, 8, 16, 24 are in-channel pages 0..4 of
        // channel 0.
        let locs: Vec<PhysLoc> = (0..4).map(|i| m.decode(FrameId(i * 8), 0)).collect();
        assert!(locs.windows(2).all(|w| w[0].row == w[1].row
            && w[0].bank == w[1].bank
            && w[0].channel == w[1].channel));
        // And their columns are distinct 32-line slots.
        let cols: Vec<u32> = locs.iter().map(|l| l.col).collect();
        assert_eq!(cols, vec![0, 32, 64, 96]);
        // The 5th page starts a new row (on the next bank).
        let next = m.decode(FrameId(4 * 8), 0);
        assert!(next.bank != locs[0].bank || next.row != locs[0].row);
    }

    #[test]
    fn decode_is_injective_over_a_sample() {
        let m = paper_mapper();
        let mut seen = std::collections::HashSet::new();
        for f in (0..2048u64).chain(524_288..526_336) {
            for line in [0u32, 7, 31] {
                assert!(
                    seen.insert(m.decode(FrameId(f), line)),
                    "duplicate location for frame {f} line {line}"
                );
            }
        }
    }

    #[test]
    fn lines_of_a_page_differ_only_in_col() {
        let m = paper_mapper();
        let a = m.decode(FrameId(123), 0);
        let b = m.decode(FrameId(123), 31);
        assert_eq!((a.channel, a.bank, a.row), (b.channel, b.bank, b.row));
        assert_eq!(b.col - a.col, 31);
    }

    #[test]
    fn rows_interleave_across_banks() {
        let m = paper_mapper();
        // Consecutive rows of one channel land on consecutive banks.
        let r0 = m.decode(FrameId(0), 0); // in-channel page 0 -> row_seq 0
        let r1 = m.decode(FrameId(4 * 8), 0); // in-channel page 4 -> row_seq 1
        assert_eq!(r1.bank, (r0.bank + 1) % 16);
    }

    #[test]
    fn line_striped_spreads_a_page_across_channels() {
        let m = paper_mapper().with_interleave(Interleave::LineStriped);
        assert_eq!(m.interleave(), Interleave::LineStriped);
        let channels: std::collections::HashSet<u32> =
            (0..32).map(|l| m.decode(FrameId(0), l).channel).collect();
        assert_eq!(channels.len(), 8, "32 lines must cover all 8 fast channels");
        // Consecutive lines land on consecutive channels.
        assert_ne!(
            m.decode(FrameId(0), 0).channel,
            m.decode(FrameId(0), 1).channel
        );
    }

    #[test]
    fn line_striped_is_injective_too() {
        let m = paper_mapper().with_interleave(Interleave::LineStriped);
        let mut seen = std::collections::HashSet::new();
        for f in (0..512u64).chain(524_288..524_800) {
            for line in 0..32u32 {
                assert!(
                    seen.insert(m.decode(FrameId(f), line)),
                    "duplicate location for frame {f} line {line}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn line_out_of_range_panics() {
        paper_mapper().decode(FrameId(0), 32);
    }

    #[test]
    #[should_panic(expected = "no slow channels")]
    fn slow_frame_without_slow_channels_panics() {
        let m = AddressMapper::new(1024, 8, 0, 16, 16, 4, 4);
        m.decode(FrameId(1024), 0);
    }
}
