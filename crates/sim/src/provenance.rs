//! Page provenance ledger: bounded per-page migration histories.
//!
//! The tracing layer answers "what happened to this page?" — which tier
//! moves it made, what the tracker's hotness count was when each swap was
//! decided, and whether any of them were rolled back by an injected fault.
//! The ledger records every migration the manager commits, *on the main
//! thread at decision time*, so its contents (and the ping-pong events it
//! emits) are bit-identical across shard counts by construction: every
//! shard count feeds it the same commit-ordered stream.
//!
//! Ping-pong detection is the load-bearing query (paper §3: a page that
//! bounces between tiers pays two full swaps for one epoch of locality).
//! A *trip* is a pair of consecutive moves of the same page in opposite
//! tier directions within the configured window (4× the epoch length —
//! one epoch to get promoted, one to cool off, with slack); each trip
//! emits a [`PagePingPong`] event and counts toward the page's history.
//!
//! [`PagePingPong`]: mempod_telemetry::EventKind::PagePingPong
//!
//! Memory is bounded on both axes: at most [`MAX_TRACKED_PAGES`] pages are
//! tracked (later pages are counted in `skipped_pages`, never silently
//! dropped) and each page keeps its last [`HISTORY_PER_PAGE`] moves in a
//! ring bounded at that size.
//!
//! A record costs one hash lookup and one ring write, with nothing
//! shifted: pages sit in a `Vec` in first-move order behind a page-keyed
//! index, and the summary selects the [`HOTTEST_PAGES`] most-moved pages
//! in one pass instead of sorting every page.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use mempod_core::Migration;
use mempod_types::convert::{u64_from_usize, usize_from_u64};
use mempod_types::{BuildPageHasher, Picos};
use serde::Serialize;

/// Moves retained per page (older moves fall off the front).
pub const HISTORY_PER_PAGE: usize = 8;
/// Pages tracked before the ledger stops admitting new ones.
pub const MAX_TRACKED_PAGES: usize = 1 << 20;
/// Pages reported in [`ProvenanceSummary::hottest`].
pub const HOTTEST_PAGES: usize = 8;
/// Ping-pong window as a multiple of the epoch length.
const PING_PONG_EPOCHS: u64 = 4;

/// Why a page moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MoveCause {
    /// The tracker selected the page for promotion to the fast tier.
    Promotion,
    /// The page was the resident victim displaced by a promotion.
    Displaced,
    /// A CAMEO-style single-line swap touched the page.
    LineSwap,
}

/// One recorded tier move of a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PageMove {
    /// Simulated time the manager committed the swap.
    pub t_ps: u64,
    /// Frame the page's data left.
    pub from_frame: u64,
    /// Frame the page's data moved to.
    pub to_frame: u64,
    /// Whether the destination frame is in the fast tier.
    pub to_fast: bool,
    /// Tracker hotness (MEA count) of the *promoted* page at decision
    /// time; the displaced victim carries the same value (it is the count
    /// that evicted it).
    pub hotness: u64,
    /// Why the page moved.
    pub cause: MoveCause,
    /// Whether an injected fault permanently rolled the swap back (the
    /// move never took effect; it still cost the doomed attempts' time).
    pub rolled_back: bool,
}

/// One tracked page's bounded history.
#[derive(Debug, Clone)]
struct PageHistory {
    page: u64,
    /// The last [`HISTORY_PER_PAGE`] moves as a ring: the page's move `i`
    /// (counting from 0 over its whole history) sits at
    /// `i % HISTORY_PER_PAGE`. It grows to that bound as the page's first
    /// moves arrive, then each move overwrites the oldest in place; most
    /// pages move only a few times and never fill it.
    ring: Vec<PageMove>,
    /// All moves ever recorded (not bounded by the ring).
    total_moves: u64,
    /// Ping-pong trips detected (direction reversals within the window).
    trips: u32,
}

impl PageHistory {
    /// A history with no moves yet.
    fn new(page: u64) -> Self {
        PageHistory {
            page,
            ring: Vec::new(),
            total_moves: 0,
            trips: 0,
        }
    }

    /// The ring slot of the page's move `i`.
    fn slot(i: u64) -> usize {
        usize_from_u64(i % u64_from_usize(HISTORY_PER_PAGE))
    }

    /// The most recent move, if any.
    fn last(&self) -> Option<PageMove> {
        let i = self.total_moves.checked_sub(1)?;
        Some(self.ring[Self::slot(i)])
    }

    /// Appends a move, overwriting the oldest once the ring is full.
    fn push(&mut self, mv: PageMove) {
        if self.ring.len() < HISTORY_PER_PAGE {
            self.ring.push(mv);
        } else {
            self.ring[Self::slot(self.total_moves)] = mv;
        }
        self.total_moves += 1;
    }

    /// The retained moves, oldest first.
    fn history(&self) -> Vec<PageMove> {
        let kept = u64_from_usize(self.ring.len());
        (self.total_moves - kept..self.total_moves)
            .map(|i| self.ring[Self::slot(i)])
            .collect()
    }

    /// The summary's ranking key: most moves first, then page id.
    fn rank(&self) -> (Reverse<u64>, u64) {
        (Reverse(self.total_moves), self.page)
    }
}

/// A ping-pong detection, returned to the caller for event emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PingPong {
    /// The bouncing page.
    pub page: u64,
    /// Time between the two opposing moves.
    pub round_trip_ps: u64,
    /// This page's cumulative trip count (1-based).
    pub trips: u32,
}

/// One page's provenance in the end-of-run summary.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct PageProvenance {
    /// Page id.
    pub page: u64,
    /// Total moves recorded for the page.
    pub moves: u64,
    /// Ping-pong trips detected for the page.
    pub trips: u32,
    /// The retained tail of the page's history, oldest first.
    pub history: Vec<PageMove>,
}

/// End-of-run provenance totals carried on `SimReport`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ProvenanceSummary {
    /// Distinct pages with at least one recorded move.
    pub tracked_pages: u64,
    /// Total page moves recorded (both sides of every swap).
    pub total_moves: u64,
    /// Total ping-pong trips across all pages.
    pub ping_pong_trips: u64,
    /// Moves not tracked because [`MAX_TRACKED_PAGES`] was reached.
    pub skipped_moves: u64,
    /// The most-moved pages (ties broken by page id), with their retained
    /// histories.
    pub hottest: Vec<PageProvenance>,
}

/// The ledger itself. Build one per run ([`ProvenanceLedger::new`]), feed
/// it every committed migration in commit order ([`record`]), and take the
/// summary at the end ([`summary`]).
///
/// [`record`]: ProvenanceLedger::record
/// [`summary`]: ProvenanceLedger::summary
#[derive(Debug)]
pub struct ProvenanceLedger {
    /// Frames below this index are fast-tier (page-frame interleaved
    /// layouts place the fast tier first in the global frame space).
    fast_frames: u64,
    /// Ping-pong window; `0` disables trip detection (no epoch configured).
    window_ps: u64,
    /// Each tracked page's position in `pages`. Only looked up, never
    /// iterated, so its hash order cannot reach a result.
    index: HashMap<u64, usize, BuildPageHasher>,
    /// Tracked pages in first-move order.
    pages: Vec<PageHistory>,
    skipped_moves: u64,
    ping_pong_trips: u64,
}

impl ProvenanceLedger {
    /// A ledger for a layout whose fast tier spans frames
    /// `[0, fast_frames)`, with the ping-pong window derived from `epoch`.
    pub fn new(fast_frames: u64, epoch: Picos) -> Self {
        ProvenanceLedger {
            fast_frames,
            window_ps: epoch.as_ps().saturating_mul(PING_PONG_EPOCHS),
            index: HashMap::default(),
            pages: Vec::new(),
            skipped_moves: 0,
            ping_pong_trips: 0,
        }
    }

    /// Records both sides of one committed migration and reports the
    /// ping-pong trips it completed: at most one per side, the promoted
    /// page's first.
    ///
    /// `rolled_back` marks swaps whose fault verdict was permanent — the
    /// manager's map was already restored, so the move is recorded as
    /// history that never took effect.
    pub fn record(&mut self, m: &Migration, at: Picos, rolled_back: bool) -> [Option<PingPong>; 2] {
        let (cause_a, cause_b) = if m.is_page_swap() {
            // `page_a` is the promoted page moving into the resident
            // victim's frame; `page_b` is the victim displaced out.
            (MoveCause::Promotion, MoveCause::Displaced)
        } else {
            (MoveCause::LineSwap, MoveCause::LineSwap)
        };
        [
            (m.page_a.0, m.frame_a.0, m.frame_b.0, cause_a),
            (m.page_b.0, m.frame_b.0, m.frame_a.0, cause_b),
        ]
        .map(|(page, from_frame, to_frame, cause)| {
            let mv = PageMove {
                t_ps: at.as_ps(),
                from_frame,
                to_frame,
                to_fast: to_frame < self.fast_frames,
                hotness: m.hotness,
                cause,
                rolled_back,
            };
            self.push(page, mv)
        })
    }

    /// Appends one move to a page's ring, detecting a direction reversal.
    fn push(&mut self, page: u64, mv: PageMove) -> Option<PingPong> {
        let next = self.pages.len();
        let i = match self.index.entry(page) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                if next >= MAX_TRACKED_PAGES {
                    self.skipped_moves += 1;
                    return None;
                }
                e.insert(next);
                self.pages.push(PageHistory::new(page));
                next
            }
        };
        let hist = &mut self.pages[i];
        let pong = match hist.last() {
            Some(prev)
                if prev.to_fast != mv.to_fast
                    && !mv.rolled_back
                    && !prev.rolled_back
                    && self.window_ps > 0
                    && mv.t_ps.saturating_sub(prev.t_ps) <= self.window_ps =>
            {
                hist.trips += 1;
                self.ping_pong_trips += 1;
                Some(PingPong {
                    page,
                    round_trip_ps: mv.t_ps - prev.t_ps,
                    trips: hist.trips,
                })
            }
            _ => None,
        };
        hist.push(mv);
        pong
    }

    /// End-of-run totals plus the [`HOTTEST_PAGES`] most-moved pages.
    /// Ordering is deterministic: moves descending, then page id ascending.
    pub fn summary(&self) -> ProvenanceSummary {
        // One pass keeps the best `HOTTEST_PAGES` in rank order; page ids
        // are unique, so the rank is a total order and the pass's result
        // does not depend on the pages' order.
        let mut hottest: Vec<&PageHistory> = Vec::with_capacity(HOTTEST_PAGES + 1);
        for h in &self.pages {
            if hottest.len() == HOTTEST_PAGES
                && hottest.last().is_some_and(|worst| worst.rank() < h.rank())
            {
                continue;
            }
            let at = hottest.partition_point(|t| t.rank() < h.rank());
            hottest.insert(at, h);
            hottest.truncate(HOTTEST_PAGES);
        }
        ProvenanceSummary {
            tracked_pages: u64_from_usize(self.pages.len()),
            total_moves: self.pages.iter().map(|h| h.total_moves).sum(),
            ping_pong_trips: self.ping_pong_trips,
            skipped_moves: self.skipped_moves,
            hottest: hottest
                .into_iter()
                .map(|h| PageProvenance {
                    page: h.page,
                    moves: h.total_moves,
                    trips: h.trips,
                    history: h.history(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempod_types::{FrameId, PageId};

    fn swap(fast: u64, slow: u64, pa: u64, pb: u64, hot: u64) -> Migration {
        // frame_a = slow-side frame of the promoted page, frame_b = fast
        // slot it moves into (mirrors `MemPod::plan` / `Hma`).
        Migration::page_swap(
            FrameId(slow),
            FrameId(fast),
            PageId(pa),
            PageId(pb),
            Some(0),
        )
        .with_hotness(hot)
    }

    #[test]
    fn records_both_sides_with_tier_direction() {
        let mut ldg = ProvenanceLedger::new(4, Picos::from_us(1));
        let pongs = ldg.record(&swap(2, 9, 100, 200, 7), Picos(10), false);
        assert_eq!(pongs, [None, None]);
        let s = ldg.summary();
        assert_eq!(s.tracked_pages, 2);
        assert_eq!(s.total_moves, 2);
        let promoted = s.hottest.iter().find(|p| p.page == 100).expect("tracked");
        assert_eq!(promoted.history.len(), 1);
        assert!(promoted.history[0].to_fast);
        assert_eq!(promoted.history[0].to_frame, 2);
        assert_eq!(promoted.history[0].from_frame, 9);
        assert_eq!(promoted.history[0].hotness, 7);
        assert_eq!(promoted.history[0].cause, MoveCause::Promotion);
        let victim = s.hottest.iter().find(|p| p.page == 200).expect("tracked");
        assert!(!victim.history[0].to_fast);
        assert_eq!(victim.history[0].cause, MoveCause::Displaced);
    }

    #[test]
    fn detects_ping_pong_within_window_only() {
        let mut ldg = ProvenanceLedger::new(4, Picos(100)); // window = 400 ps
        ldg.record(&swap(1, 8, 50, 60, 3), Picos(0), false);
        // Page 50 bounces back out within the window: one trip.
        let pongs = ldg.record(&swap(1, 8, 61, 50, 5), Picos(300), false);
        let pong = PingPong {
            page: 50,
            round_trip_ps: 300,
            trips: 1,
        };
        assert_eq!(pongs, [None, Some(pong)]);
        // Back in again, but far outside the window: no trip.
        let pongs = ldg.record(&swap(1, 8, 50, 61, 9), Picos(10_000), false);
        assert_eq!(pongs, [None, None]);
        assert_eq!(ldg.summary().ping_pong_trips, 1);
    }

    #[test]
    fn rolled_back_moves_never_pong() {
        let mut ldg = ProvenanceLedger::new(4, Picos(1_000));
        ldg.record(&swap(1, 8, 50, 60, 3), Picos(0), false);
        let pongs = ldg.record(&swap(1, 8, 61, 50, 5), Picos(10), true);
        assert_eq!(pongs, [None, None]);
        let s = ldg.summary();
        let page = s.hottest.iter().find(|p| p.page == 50).expect("tracked");
        assert!(page.history[1].rolled_back);
    }

    #[test]
    fn history_ring_is_bounded() {
        let mut ldg = ProvenanceLedger::new(4, Picos(0));
        for i in 0..(HISTORY_PER_PAGE as u64 + 5) {
            ldg.record(&swap(1, 8, 50, 60 + i, 1), Picos(i * 10), false);
        }
        let s = ldg.summary();
        let page = s.hottest.iter().find(|p| p.page == 50).expect("tracked");
        assert_eq!(page.history.len(), HISTORY_PER_PAGE);
        assert_eq!(page.moves, HISTORY_PER_PAGE as u64 + 5);
        // Oldest retained move is the (total - HISTORY_PER_PAGE)-th.
        assert_eq!(page.history[0].t_ps, 50);
    }

    #[test]
    fn summary_ranking_is_deterministic() {
        let mut ldg = ProvenanceLedger::new(4, Picos(0));
        ldg.record(&swap(1, 8, 5, 6, 1), Picos(0), false);
        ldg.record(&swap(2, 9, 5, 7, 1), Picos(10), false);
        let s = ldg.summary();
        assert_eq!(s.hottest[0].page, 5); // 2 moves
                                          // Equal counts rank by page id.
        assert_eq!(s.hottest[1].page, 6);
        assert_eq!(s.hottest[2].page, 7);
    }

    #[test]
    fn summary_matches_a_sorted_model_of_every_page() {
        // A naive model: every page's full move list, ranked by a sort.
        let mut ldg = ProvenanceLedger::new(64, Picos(2_000));
        let mut model: std::collections::BTreeMap<u64, Vec<PageMove>> = Default::default();
        let mut pongs = 0;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Few pages, skewed, so rings wrap and counts tie.
            let pa = (x % 7) * (x >> 8) % 300;
            let pb = (pa + 1 + (x >> 20) % 299) % 300;
            let m = swap(x % 64, 64 + (x >> 30) % 64, pa, pb, x >> 50);
            let got = ldg.record(&m, Picos(i * 37), x.is_multiple_of(11));
            pongs += got.iter().flatten().count();
            for (page, to_frame) in [(pa, m.frame_b.0), (pb, m.frame_a.0)] {
                let hist = model.entry(page).or_default();
                let mv = ldg.pages[ldg.index[&page]].last().expect("recorded");
                assert_eq!((mv.to_frame, mv.t_ps), (to_frame, i * 37));
                hist.push(mv);
            }
        }
        let mut ranked: Vec<(&u64, &Vec<PageMove>)> = model.iter().collect();
        ranked.sort_by_key(|(page, moves)| (std::cmp::Reverse(moves.len()), **page));
        let want: Vec<PageProvenance> = ranked
            .into_iter()
            .take(HOTTEST_PAGES)
            .map(|(page, moves)| PageProvenance {
                page: *page,
                moves: u64_from_usize(moves.len()),
                trips: ldg.pages[ldg.index[page]].trips,
                history: moves[moves.len().saturating_sub(HISTORY_PER_PAGE)..].to_vec(),
            })
            .collect();
        let s = ldg.summary();
        assert!(want
            .iter()
            .all(|p| p.moves > u64_from_usize(HISTORY_PER_PAGE)));
        assert_eq!(s.hottest, want);
        assert_eq!(s.tracked_pages, u64_from_usize(model.len()));
        assert_eq!(s.total_moves, 10_000);
        assert_eq!(s.ping_pong_trips, u64_from_usize(pongs));
        assert!(pongs > 0);
    }

    #[test]
    fn summary_round_trips_through_serde() {
        let mut ldg = ProvenanceLedger::new(4, Picos(100));
        ldg.record(&swap(1, 8, 50, 60, 3), Picos(0), false);
        ldg.record(&swap(1, 8, 61, 50, 5), Picos(50), false);
        let s = ldg.summary();
        let text = serde_json::to_string(&s).expect("serialize");
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(v, s.to_value());
        assert_eq!(v["tracked_pages"].as_u64(), Some(3));
        assert_eq!(v["ping_pong_trips"].as_u64(), Some(1));
        let page = &v["hottest"][0];
        assert_eq!(page["page"].as_u64(), Some(50));
        assert_eq!(page["history"][0]["cause"].as_str(), Some("Promotion"));
        assert_eq!(page["history"][1]["cause"].as_str(), Some("Displaced"));
        assert_eq!(page["history"][1]["hotness"].as_u64(), Some(5));
    }
}
