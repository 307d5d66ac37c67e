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
//! dropped) and each page keeps its last [`HISTORY_PER_PAGE`] moves.

use std::collections::BTreeMap;

use mempod_core::Migration;
use mempod_types::convert::u64_from_usize;
use mempod_types::Picos;
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
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
struct PageHistory {
    /// Last [`HISTORY_PER_PAGE`] moves, oldest first.
    moves: Vec<PageMove>,
    /// All moves ever recorded (not bounded by the ring).
    total_moves: u64,
    /// Ping-pong trips detected (direction reversals within the window).
    trips: u32,
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
    /// Keyed by page id; a `BTreeMap` so iteration (the summary ranking)
    /// is deterministic without relying on the sort to mask map order.
    pages: BTreeMap<u64, PageHistory>,
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
            pages: BTreeMap::new(),
            skipped_moves: 0,
            ping_pong_trips: 0,
        }
    }

    /// Records both sides of one committed migration and reports any
    /// ping-pong trips it completed (at most one per side).
    ///
    /// `rolled_back` marks swaps whose fault verdict was permanent — the
    /// manager's map was already restored, so the move is recorded as
    /// history that never took effect.
    pub fn record(&mut self, m: &Migration, at: Picos, rolled_back: bool) -> Vec<PingPong> {
        let (cause_a, cause_b) = if m.is_page_swap() {
            // `page_a` is the promoted page moving into the resident
            // victim's frame; `page_b` is the victim displaced out.
            (MoveCause::Promotion, MoveCause::Displaced)
        } else {
            (MoveCause::LineSwap, MoveCause::LineSwap)
        };
        let mut pongs = Vec::new();
        for (page, to_frame, cause) in [
            (m.page_a.0, m.frame_b.0, cause_a),
            (m.page_b.0, m.frame_a.0, cause_b),
        ] {
            let from_frame = if to_frame == m.frame_a.0 {
                m.frame_b.0
            } else {
                m.frame_a.0
            };
            let mv = PageMove {
                t_ps: at.as_ps(),
                from_frame,
                to_frame,
                to_fast: to_frame < self.fast_frames,
                hotness: m.hotness,
                cause,
                rolled_back,
            };
            if let Some(pong) = self.push(page, mv) {
                pongs.push(pong);
            }
        }
        pongs
    }

    /// Appends one move to a page's ring, detecting a direction reversal.
    fn push(&mut self, page: u64, mv: PageMove) -> Option<PingPong> {
        if !self.pages.contains_key(&page) && self.pages.len() >= MAX_TRACKED_PAGES {
            self.skipped_moves += 1;
            return None;
        }
        let hist = self.pages.entry(page).or_default();
        let pong = match hist.moves.last() {
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
        if hist.moves.len() == HISTORY_PER_PAGE {
            hist.moves.remove(0);
        }
        hist.moves.push(mv);
        hist.total_moves += 1;
        pong
    }

    /// End-of-run totals plus the [`HOTTEST_PAGES`] most-moved pages.
    /// Ordering is deterministic: moves descending, then page id ascending.
    pub fn summary(&self) -> ProvenanceSummary {
        let mut ranked: Vec<(&u64, &PageHistory)> = self.pages.iter().collect();
        ranked.sort_by_key(|(page, h)| (std::cmp::Reverse(h.total_moves), **page));
        ProvenanceSummary {
            tracked_pages: u64_from_usize(self.pages.len()),
            total_moves: self.pages.values().map(|h| h.total_moves).sum(),
            ping_pong_trips: self.ping_pong_trips,
            skipped_moves: self.skipped_moves,
            hottest: ranked
                .into_iter()
                .take(HOTTEST_PAGES)
                .map(|(page, h)| PageProvenance {
                    page: *page,
                    moves: h.total_moves,
                    trips: h.trips,
                    history: h.moves.clone(),
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
        assert!(pongs.is_empty());
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
        assert_eq!(pongs.len(), 1);
        assert_eq!(pongs[0].page, 50);
        assert_eq!(pongs[0].round_trip_ps, 300);
        assert_eq!(pongs[0].trips, 1);
        // Back in again, but far outside the window: no trip.
        let pongs = ldg.record(&swap(1, 8, 50, 61, 9), Picos(10_000), false);
        assert!(pongs.is_empty());
        assert_eq!(ldg.summary().ping_pong_trips, 1);
    }

    #[test]
    fn rolled_back_moves_never_pong() {
        let mut ldg = ProvenanceLedger::new(4, Picos(1_000));
        ldg.record(&swap(1, 8, 50, 60, 3), Picos(0), false);
        let pongs = ldg.record(&swap(1, 8, 61, 50, 5), Picos(10), true);
        assert!(pongs.is_empty());
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
