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
//!
//! Every submitted request is decoded, so [`AddressMapper::new`] prepares
//! each divisor of the layout (channels per tier, banks, pages and lines
//! per row) once as a `Divisor`: a shift and a mask for a power of two,
//! which every shipped layout's divisors are, and an exact `/` and `%`
//! for any other value. A decode then does no division on those layouts.

use std::ops::Range;

use mempod_types::convert::{
    u16_from_u32, u32_from_u64, u64_from_u32, u64_from_usize, usize_from_u32,
};
use mempod_types::{FrameId, Tier, LINES_PER_PAGE};
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

/// A divisor fixed at construction, with an exact quotient and remainder:
/// a shift and a mask when it is a power of two, the hardware `/` and `%`
/// otherwise. A zero divisor is accepted and panics when used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub(crate) struct Divisor {
    d: u64,
    /// `log2(d)` when `d` is a power of two.
    shift: Option<u32>,
}

impl Divisor {
    pub(crate) const fn new(d: u64) -> Self {
        Divisor {
            d,
            shift: if d.is_power_of_two() {
                Some(d.trailing_zeros())
            } else {
                None
            },
        }
    }

    /// The divisor itself.
    pub(crate) const fn get(self) -> u64 {
        self.d
    }

    /// `(n / d, n % d)`.
    #[inline]
    pub(crate) fn div_rem(self, n: u64) -> (u64, u64) {
        match self.shift {
            Some(s) => (n >> s, n & (self.d - 1)),
            None => (n / self.d, n % self.d),
        }
    }
}

/// One tier's part of the layout, its divisors prepared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
struct TierMap {
    tier: Tier,
    /// Global index of the tier's first channel.
    chan_base: u32,
    channels: Divisor,
    banks: Divisor,
    pages_per_row: Divisor,
    /// `pages_per_row` lines of every page, for line striping.
    lines_per_row: Divisor,
}

impl TierMap {
    fn new(tier: Tier, chan_base: u32, channels: u32, banks: u32, pages_per_row: u64) -> Self {
        TierMap {
            tier,
            chan_base,
            channels: Divisor::new(u64_from_u32(channels)),
            banks: Divisor::new(u64_from_u32(banks)),
            pages_per_row: Divisor::new(pages_per_row),
            lines_per_row: Divisor::new(pages_per_row * u64_from_usize(LINES_PER_PAGE)),
        }
    }

    fn channel_count(&self) -> u32 {
        u32_from_u64(self.channels.get())
    }
}

/// Decodes frames/lines into [`PhysLoc`]s for a two-tier channel layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct AddressMapper {
    fast_frames: u64,
    fast: TierMap,
    slow: TierMap,
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
            fast: TierMap::new(Tier::Fast, 0, fast_channels, fast_banks, fast_pages_per_row),
            slow: TierMap::new(
                Tier::Slow,
                fast_channels,
                slow_channels,
                slow_banks,
                slow_pages_per_row,
            ),
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
        self.fast.channel_count() + self.slow.channel_count()
    }

    /// Number of fast channels.
    pub fn fast_channels(&self) -> u32 {
        self.fast.channel_count()
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
            usize_from_u32(line_in_page) < LINES_PER_PAGE,
            "line {line_in_page} out of page"
        );
        let (t, tier_frame) = if frame.0 < self.fast_frames {
            assert!(self.fast.channels.get() > 0, "no fast channels configured");
            (&self.fast, frame.0)
        } else {
            assert!(self.slow.channels.get() > 0, "no slow channels configured");
            (&self.slow, frame.0 - self.fast_frames)
        };
        let lines_per_page = u64_from_usize(LINES_PER_PAGE);
        let line = u64_from_u32(line_in_page);
        let (channel, row_seq, col) = match self.interleave {
            Interleave::PageFrame => {
                // The page index within its channel, then its row and the
                // page slot within the row.
                let (in_channel, channel) = t.channels.div_rem(tier_frame);
                let (row_seq, slot) = t.pages_per_row.div_rem(in_channel);
                (channel, row_seq, slot * lines_per_page + line)
            }
            Interleave::LineStriped => {
                let tier_line = tier_frame * lines_per_page + line;
                let (in_channel, channel) = t.channels.div_rem(tier_line);
                let (row_seq, col) = t.lines_per_row.div_rem(in_channel);
                (channel, row_seq, col)
            }
        };
        // Sequential rows of a channel interleave across its banks.
        let (row, bank) = t.banks.div_rem(row_seq);
        PhysLoc {
            channel: u32_from_u64(channel) + t.chan_base,
            bank: u32_from_u64(bank),
            row,
            col: u32_from_u64(col),
            tier: t.tier,
        }
    }

    /// Decodes the first line of `lines` in `frame` and counts how many of
    /// `lines`, from the first on, share its channel, bank and row: the
    /// length of the same-row run a submission of those lines starts with.
    /// Under [`Interleave::PageFrame`] a frame's lines all share one row,
    /// so the run is the whole range; under [`Interleave::LineStriped`]
    /// consecutive lines change channel whenever the tier has more than
    /// one, and each line is compared.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is empty or reaches past the page, or the frame's
    /// tier has no channels.
    #[inline]
    pub(crate) fn decode_run(&self, frame: FrameId, lines: Range<u32>) -> (PhysLoc, u16) {
        assert!(
            !lines.is_empty() && usize_from_u32(lines.end) <= LINES_PER_PAGE,
            "lines {lines:?} out of page"
        );
        let loc = self.decode(frame, lines.start);
        let end = match self.interleave {
            Interleave::PageFrame => lines.end,
            Interleave::LineStriped => (lines.start + 1..lines.end)
                .find(|&line| {
                    let next = self.decode(frame, line);
                    (next.channel, next.bank, next.row) != (loc.channel, loc.bank, loc.row)
                })
                .unwrap_or(lines.end),
        };
        (loc, u16_from_u32(end - lines.start))
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

    /// The decode with a plain `/` and `%` for every divisor, from the
    /// layout's raw counts.
    fn reference_decode(
        (fast_frames, fast_channels, slow_channels): (u64, u64, u64),
        (fast_banks, slow_banks, fast_ppr, slow_ppr): (u64, u64, u64, u64),
        interleave: Interleave,
        frame: u64,
        line: u64,
    ) -> PhysLoc {
        let (tier, tier_frame, channels, base, banks, ppr) = if frame < fast_frames {
            (Tier::Fast, frame, fast_channels, 0, fast_banks, fast_ppr)
        } else {
            let f = frame - fast_frames;
            (
                Tier::Slow,
                f,
                slow_channels,
                fast_channels,
                slow_banks,
                slow_ppr,
            )
        };
        let (channel, row_seq, col) = match interleave {
            Interleave::PageFrame => {
                let in_channel = tier_frame / channels;
                (
                    tier_frame % channels,
                    in_channel / ppr,
                    in_channel % ppr * 32 + line,
                )
            }
            Interleave::LineStriped => {
                let tier_line = tier_frame * 32 + line;
                let in_channel = tier_line / channels;
                (
                    tier_line % channels,
                    in_channel / (ppr * 32),
                    in_channel % (ppr * 32),
                )
            }
        };
        PhysLoc {
            channel: (base + channel) as u32,
            bank: (row_seq % banks) as u32,
            row: row_seq / banks,
            col: col as u32,
            tier,
        }
    }

    #[test]
    fn decode_matches_plain_division_on_every_layout() {
        // (fast frames, fast channels, slow channels), then (fast banks,
        // slow banks, fast pages per row, slow pages per row): the paper
        // layout, the tiny test layout, and one whose every divisor is not
        // a power of two.
        let layouts = [
            (
                "paper",
                (524_288u64, 8u64, 4u64),
                (16u64, 16u64, 4u64, 4u64),
            ),
            ("tiny", (2_048, 8, 4), (16, 16, 4, 4)),
            ("odd", (3_000, 3, 5), (12, 12, 3, 6)),
        ];
        for (name, tiers, geometry) in layouts {
            let (fast_frames, fast_channels, slow_channels) = tiers;
            let (fast_banks, slow_banks, fast_ppr, slow_ppr) = geometry;
            for interleave in [Interleave::PageFrame, Interleave::LineStriped] {
                let m = AddressMapper::new(
                    fast_frames,
                    fast_channels as u32,
                    slow_channels as u32,
                    fast_banks as u32,
                    slow_banks as u32,
                    fast_ppr,
                    slow_ppr,
                )
                .with_interleave(interleave);
                let mut x = 0x9E37_79B9_7F4A_7C15u64;
                for k in 0..20_000u64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // Both tiers, both tier edges, and frames far out.
                    let frame = match k % 4 {
                        0 => x % fast_frames,
                        1 => fast_frames + x % (8 * fast_frames),
                        2 => (fast_frames + (x % 64)).saturating_sub(32),
                        _ => fast_frames + (x >> 20),
                    };
                    let line = (x >> 40) % 32;
                    let want = reference_decode(tiers, geometry, interleave, frame, line);
                    assert_eq!(
                        m.decode(FrameId(frame), line as u32),
                        want,
                        "{name} {interleave:?} frame {frame} line {line}"
                    );
                    // The same-row run from `line` to a random end: the
                    // lines whose reference decode keeps the first's
                    // channel, bank and row. Under page-frame interleaving
                    // that is every line of the frame.
                    let shares_row = |l: u64| {
                        let o = reference_decode(tiers, geometry, interleave, frame, l);
                        (o.channel, o.bank, o.row) == (want.channel, want.bank, want.row)
                    };
                    if interleave == Interleave::PageFrame {
                        assert!((0..32).all(shares_row), "{name} frame {frame}");
                    }
                    let end = line + 1 + (x >> 50) % (32 - line);
                    let run = 1 + (line + 1..end).take_while(|&l| shares_row(l)).count();
                    assert_eq!(
                        m.decode_run(FrameId(frame), line as u32..end as u32),
                        (want, run as u16),
                        "{name} {interleave:?} frame {frame} lines {line}..{end}"
                    );
                }
            }
        }
    }

    #[test]
    fn divisors_split_exactly() {
        for d in [1u64, 2, 3, 5, 12, 16, 1 << 40, u64::MAX] {
            let div = Divisor::new(d);
            assert_eq!(div.shift.is_some(), d.is_power_of_two(), "{d}");
            for n in [
                0u64,
                1,
                d - 1,
                d,
                d.saturating_add(1),
                12_345_678_901,
                u64::MAX,
            ] {
                assert_eq!(div.div_rem(n), (n / d, n % d), "{n} / {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn line_out_of_range_panics() {
        paper_mapper().decode(FrameId(0), 32);
    }

    #[test]
    fn runs_cover_a_frame_under_page_frames_and_one_line_when_striped() {
        let m = paper_mapper();
        for frame in [FrameId(0), FrameId(123), FrameId(524_288 + 77)] {
            assert_eq!(m.decode_run(frame, 0..32), (m.decode(frame, 0), 32));
            assert_eq!(m.decode_run(frame, 5..9), (m.decode(frame, 5), 4));
            let striped = m.with_interleave(Interleave::LineStriped);
            assert_eq!(
                striped.decode_run(frame, 0..32),
                (striped.decode(frame, 0), 1)
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn empty_run_panics() {
        paper_mapper().decode_run(FrameId(0), 3..3);
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn run_past_the_page_panics() {
        paper_mapper().decode_run(FrameId(0), 30..33);
    }

    #[test]
    #[should_panic(expected = "no slow channels")]
    fn slow_frame_without_slow_channels_panics() {
        let m = AddressMapper::new(1024, 8, 0, 16, 16, 4, 4);
        m.decode(FrameId(1024), 0);
    }
}
