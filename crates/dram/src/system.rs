//! The [`MemorySystem`]: fast + slow channels behind one interface.
//!
//! This is what the rest of the suite talks to. Callers submit requests by
//! *physical frame* (post-remap) and line-in-page; the system decodes the
//! location, routes to the owning channel, and later reports completions.
//! A fixed controller/interconnect latency is added to every access.

use mempod_types::convert::{u32_from_u64, u64_from_usize, usize_from_u32};
use mempod_types::{AccessKind, FrameId, Picos, Tier, LINES_PER_PAGE, PAGE_SIZE};
use serde::Serialize;

use crate::channel::{Channel, ChannelProbe, ChannelStats, Priority, ReqToken};
use crate::mapper::{AddressMapper, Interleave};
use crate::timing::DramTiming;

/// Capacity/channel/timing description of a complete memory system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MemLayout {
    /// Number of fast-tier page frames (frames `0..fast_frames`).
    pub fast_frames: u64,
    /// Number of slow-tier page frames (frames `fast_frames..`).
    pub slow_frames: u64,
    /// Fast-tier channel count (0 if the tier is absent).
    pub fast_channels: u32,
    /// Slow-tier channel count (0 if the tier is absent).
    pub slow_channels: u32,
    /// Fast-tier timing.
    pub fast_timing: DramTiming,
    /// Slow-tier timing.
    pub slow_timing: DramTiming,
    /// Fixed controller + interconnect latency added to each access.
    pub ctrl_latency: Picos,
    /// Channel interleaving granularity.
    pub interleave: Interleave,
}

impl MemLayout {
    /// The paper's Table 2 system: 1 GB HBM over 8 channels + 8 GB
    /// DDR4-1600 over 4 channels.
    pub fn paper_default() -> Self {
        MemLayout {
            fast_frames: (1u64 << 30) / u64_from_usize(PAGE_SIZE),
            slow_frames: (8u64 << 30) / u64_from_usize(PAGE_SIZE),
            fast_channels: 8,
            slow_channels: 4,
            fast_timing: DramTiming::hbm(),
            slow_timing: DramTiming::ddr4_1600(),
            ctrl_latency: Picos::from_ns(10),
            interleave: Interleave::PageFrame,
        }
    }

    /// The Fig. 10 future system: 4 GHz HBM + DDR4-2400.
    pub fn future_default() -> Self {
        MemLayout {
            fast_timing: DramTiming::hbm_4ghz(),
            slow_timing: DramTiming::ddr4_2400(),
            ..MemLayout::paper_default()
        }
    }

    /// An HBM-only system of `total_frames` frames (the paper's "9 GB
    /// on-chip" upper bound baseline).
    pub fn hbm_only(total_frames: u64, timing: DramTiming) -> Self {
        MemLayout {
            fast_frames: total_frames,
            slow_frames: 0,
            fast_channels: 8,
            slow_channels: 0,
            fast_timing: timing,
            slow_timing: timing,
            ctrl_latency: Picos::from_ns(10),
            interleave: Interleave::PageFrame,
        }
    }

    /// A DDR-only system of `total_frames` frames (Fig. 10's normalization
    /// baseline).
    pub fn ddr_only(total_frames: u64, timing: DramTiming) -> Self {
        MemLayout {
            fast_frames: 0,
            slow_frames: total_frames,
            fast_channels: 0,
            slow_channels: 4,
            fast_timing: timing,
            slow_timing: timing,
            ctrl_latency: Picos::from_ns(10),
            interleave: Interleave::PageFrame,
        }
    }

    /// A small system matching [`Geometry::tiny`] for tests: 4 MB + 32 MB.
    ///
    /// [`Geometry::tiny`]: mempod_types::Geometry::tiny
    pub fn tiny() -> Self {
        MemLayout {
            fast_frames: (4u64 << 20) / u64_from_usize(PAGE_SIZE),
            slow_frames: (32u64 << 20) / u64_from_usize(PAGE_SIZE),
            ..MemLayout::paper_default()
        }
    }

    /// Scales both tiers' frame counts down by `factor`, keeping channels.
    pub fn scaled_down(&self, factor: u64) -> Self {
        MemLayout {
            fast_frames: self.fast_frames / factor,
            slow_frames: self.slow_frames / factor,
            ..*self
        }
    }

    /// Total frames across both tiers.
    pub fn total_frames(&self) -> u64 {
        self.fast_frames + self.slow_frames
    }
}

/// A completed memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Completion {
    /// The token returned by [`MemorySystem::submit`].
    pub token: ReqToken,
    /// Absolute completion time (including controller latency).
    pub completion: Picos,
    /// *Global* index of the channel that serviced the request — computed
    /// from the shard view's residue class, so it is identical whichever
    /// shard count drained it (service spans use it as a stable track id).
    pub channel: u32,
}

/// System-wide statistics, split by tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct SystemStats {
    /// Aggregate over fast channels.
    pub fast: ChannelStats,
    /// Aggregate over slow channels.
    pub slow: ChannelStats,
}

impl SystemStats {
    /// Aggregate over all channels.
    pub fn total(&self) -> ChannelStats {
        let mut t = self.fast;
        t.merge(&self.slow);
        t
    }

    /// Folds another system's per-tier statistics into this one (used to
    /// recombine the views of a sharded system; see
    /// [`MemorySystem::into_shards`]). Counter fields add; high-water
    /// fields take the maximum.
    pub fn merge(&mut self, other: &SystemStats) {
        self.fast.merge(&other.fast);
        self.slow.merge(&other.slow);
    }

    /// Fraction of requests serviced by the fast tier.
    pub fn fast_service_fraction(&self) -> f64 {
        let total = self.total().requests();
        if total == 0 {
            0.0
        } else {
            self.fast.requests() as f64 / total as f64
        }
    }
}

/// A two-tier memory system: decode, route, schedule, complete.
///
/// # Examples
///
/// ```
/// use mempod_dram::{MemLayout, MemorySystem};
/// use mempod_types::{AccessKind, FrameId, Picos, Tier};
///
/// let mut mem = MemorySystem::new(MemLayout::tiny());
/// let fast = mem.submit(FrameId(0), 0, AccessKind::Read, Picos::ZERO);
/// let slow_frame = FrameId(mem.layout().fast_frames); // first slow frame
/// let slow = mem.submit(slow_frame, 0, AccessKind::Read, Picos::ZERO);
/// let done = mem.drain_all();
/// let t = |tok| done.iter().find(|c| c.token == tok).unwrap().completion;
/// assert!(t(slow) > t(fast)); // DDR4 is slower than HBM
/// ```
/// A sharded view ([`MemorySystem::into_shards`]) owns the global channels
/// whose index is congruent to its shard id modulo the shard count, stored
/// in ascending global order, so every per-channel decision a shard makes
/// is exactly the decision the unsharded system would have made.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    layout: MemLayout,
    mapper: AddressMapper,
    channels: Vec<Channel>,
    /// The earliest [`Channel::next_decision`] over `channels`
    /// (`Picos::MAX` when nothing is queued): a drain to an earlier
    /// horizon has nothing to do.
    next_decision: Picos,
    next_token: u64,
    /// Number of shards the original system was split into (1 = unsharded).
    shard_count: u32,
    /// This view's residue class among the channels (0 when unsharded).
    shard_id: u32,
}

impl MemorySystem {
    /// Builds an idle system from a layout.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no channels, or frames in a tier with zero
    /// channels would be unreachable (checked lazily at decode time).
    pub fn new(layout: MemLayout) -> Self {
        let mapper = AddressMapper::new(
            layout.fast_frames,
            layout.fast_channels,
            layout.slow_channels,
            layout.fast_timing.banks,
            layout.slow_timing.banks,
            layout.fast_timing.pages_per_row(u64_from_usize(PAGE_SIZE)),
            layout.slow_timing.pages_per_row(u64_from_usize(PAGE_SIZE)),
        )
        .with_interleave(layout.interleave);
        let mut channels = Vec::new();
        for _ in 0..layout.fast_channels {
            channels.push(Channel::new(layout.fast_timing));
        }
        for _ in 0..layout.slow_channels {
            channels.push(Channel::new(layout.slow_timing));
        }
        MemorySystem {
            layout,
            mapper,
            channels,
            next_decision: Picos::MAX,
            next_token: 0,
            shard_count: 1,
            shard_id: 0,
        }
    }

    /// Splits this system into `count` shard views, each owning the global
    /// channels whose index is `shard_id (mod count)` in ascending order.
    /// Channel state (including any attached probes) moves, so the shards
    /// together are exactly the original system; tokens restart per shard
    /// and are only meaningful within the shard that issued them.
    ///
    /// The caller is responsible for only submitting a frame to the shard
    /// that owns its channel — [`submit_with_priority`] checks ownership
    /// under `debug_assertions`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero, exceeds the channel count, or the system
    /// is already sharded.
    ///
    /// [`submit_with_priority`]: MemorySystem::submit_with_priority
    pub fn into_shards(self, count: u32) -> Vec<MemorySystem> {
        assert!(count >= 1, "shard count must be at least 1");
        assert_eq!(self.shard_count, 1, "system is already sharded");
        let total = self.layout.fast_channels + self.layout.slow_channels;
        assert!(
            count <= total,
            "cannot split {total} channels into {count} shards"
        );
        let mut shards: Vec<MemorySystem> = (0..count)
            .map(|id| MemorySystem {
                layout: self.layout,
                mapper: self.mapper,
                channels: Vec::new(),
                next_decision: Picos::MAX,
                next_token: 0,
                shard_count: count,
                shard_id: id,
            })
            .collect();
        for (i, ch) in self.channels.into_iter().enumerate() {
            let global = u32_from_u64(u64_from_usize(i));
            let shard = &mut shards[usize_from_u32(global % count)];
            shard.next_decision = shard.next_decision.min(ch.next_decision());
            shard.channels.push(ch);
        }
        shards
    }

    /// How many shards the original system was split into (1 = unsharded).
    pub fn shard_count(&self) -> u32 {
        self.shard_count
    }

    /// This view's shard id (0 when unsharded).
    pub fn shard_id(&self) -> u32 {
        self.shard_id
    }

    /// The layout this system was built from.
    pub fn layout(&self) -> &MemLayout {
        &self.layout
    }

    /// The address mapper in use.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// The tier of a physical frame.
    pub fn tier_of(&self, frame: FrameId) -> Tier {
        self.mapper.tier_of(frame)
    }

    /// Submits one 64 B access to `(frame, line_in_page)` arriving at `at`.
    /// Returns a token echoed in the eventual [`Completion`].
    ///
    /// # Panics
    ///
    /// Panics if the frame is out of range or `line_in_page >= 32`.
    pub fn submit(
        &mut self,
        frame: FrameId,
        line_in_page: u32,
        kind: AccessKind,
        at: Picos,
    ) -> ReqToken {
        self.submit_with_priority(frame, line_in_page, kind, at, Priority::Demand)
    }

    /// Submits one access in an explicit scheduling class (background for
    /// migration data movement).
    ///
    /// # Panics
    ///
    /// Same conditions as [`submit`](MemorySystem::submit).
    pub fn submit_with_priority(
        &mut self,
        frame: FrameId,
        line_in_page: u32,
        kind: AccessKind,
        at: Picos,
        priority: Priority,
    ) -> ReqToken {
        assert!(
            frame.0 < self.layout.total_frames(),
            "frame {frame} out of range"
        );
        let loc = self.mapper.decode(frame, line_in_page);
        debug_assert_eq!(
            loc.channel % self.shard_count,
            self.shard_id,
            "frame {frame} routed to channel {} owned by another shard",
            loc.channel
        );
        let token = ReqToken(self.next_token);
        self.next_token += 1;
        // Local index of a global channel within this residue class: the
        // owned channels are shard_id, shard_id + count, shard_id + 2*count,
        // ... in order, so integer division by the count recovers the slot.
        let local = usize_from_u32(loc.channel / self.shard_count);
        let ch = &mut self.channels[local];
        ch.enqueue_with_priority(token, loc.bank, loc.row, kind.is_write(), at, priority);
        self.next_decision = self.next_decision.min(ch.next_decision());
        token
    }

    /// Services all requests scheduled before `until`; returns completions
    /// (each already includes the controller latency) in ascending channel
    /// order and, within a channel, in service order.
    pub fn drain_until(&mut self, until: Picos) -> Vec<Completion> {
        let mut out = Vec::new();
        self.drain_until_into(until, &mut out);
        out
    }

    /// Like [`drain_until`](MemorySystem::drain_until), but appends the
    /// completions to `out`, so a caller draining in a loop reuses one
    /// buffer. The order is the same: ascending channel, then service
    /// order — the engine handles completions in this order, so its
    /// results depend on it.
    ///
    /// A channel whose next decision lies past `until` is skipped, and
    /// the whole drain returns at once when the system's cached earliest
    /// decision does. That is exact: such a drain makes no scheduling
    /// decision, and only decisions move a channel's time, statistics and
    /// refresh schedule.
    pub fn drain_until_into(&mut self, until: Picos, out: &mut Vec<Completion>) {
        if self.next_decision > until {
            return;
        }
        let ctrl = self.layout.ctrl_latency;
        let mut next_decision = Picos::MAX;
        for (i, ch) in self.channels.iter_mut().enumerate() {
            if ch.next_decision() <= until {
                let channel = self.shard_id + u32_from_u64(u64_from_usize(i)) * self.shard_count;
                ch.drain_until_with(until, |token, done| {
                    out.push(Completion {
                        token,
                        completion: done + ctrl,
                        channel,
                    });
                });
            }
            next_decision = next_decision.min(ch.next_decision());
        }
        self.next_decision = next_decision;
    }

    /// Services every outstanding request.
    pub fn drain_all(&mut self) -> Vec<Completion> {
        self.drain_until(Picos::MAX)
    }

    /// Number of requests still queued.
    pub fn pending(&self) -> usize {
        self.channels.iter().map(Channel::pending).sum()
    }

    /// Current per-channel queue depths (fast channels first, then slow),
    /// for queue-pressure reporting and the scheduler benchmark.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.channels.iter().map(Channel::pending).collect()
    }

    /// Statistics split by tier. On a shard view the split is computed
    /// from each channel's *global* index, so merging shard stats with
    /// [`SystemStats::merge`] reproduces the unsharded breakdown.
    pub fn stats(&self) -> SystemStats {
        let mut s = SystemStats::default();
        for (i, ch) in self.channels.iter().enumerate() {
            let global = self.shard_id + u32_from_u64(u64_from_usize(i)) * self.shard_count;
            if global < self.layout.fast_channels {
                s.fast.merge(ch.stats());
            } else {
                s.slow.merge(ch.stats());
            }
        }
        s
    }

    /// Lines per page, exposed for migration traffic generation.
    pub fn lines_per_page(&self) -> u32 {
        u32_from_u64(u64_from_usize(LINES_PER_PAGE))
    }

    /// Attaches a telemetry probe to every channel (idempotent). From then
    /// on each scheduling decision records its queue depth and refresh
    /// blackouts that delayed queued work are counted.
    pub fn attach_probes(&mut self) {
        for ch in &mut self.channels {
            ch.attach_probe();
        }
    }

    /// Whether probes are attached.
    pub fn probes_attached(&self) -> bool {
        self.channels.iter().any(|ch| ch.probe().is_some())
    }

    /// Attaches each channel's deterministic fault stream from `plan`
    /// (idempotent). Streams are keyed by *global* channel index, which is
    /// reconstructable on a shard view (`shard_id + i * shard_count`), so a
    /// sharded system draws exactly the faults the unsharded one would.
    pub fn attach_faults(&mut self, plan: &mempod_faults::FaultPlan) {
        for i in 0..self.channels.len() {
            let global = self.shard_id + u32_from_u64(u64_from_usize(i)) * self.shard_count;
            self.channels[i].attach_faults(plan.channel_stream(global));
        }
    }

    /// Whether fault streams are attached.
    pub fn faults_attached(&self) -> bool {
        self.channels.iter().any(Channel::faults_attached)
    }

    /// Cumulative probe observations merged across all channels (`None`
    /// when no probe is attached). Epoch-level consumers diff successive
    /// summaries to derive per-window queue-depth percentiles.
    pub fn probe_summary(&self) -> Option<ChannelProbe> {
        let mut out: Option<ChannelProbe> = None;
        for ch in &self.channels {
            if let Some(p) = ch.probe() {
                out.get_or_insert_with(ChannelProbe::default).merge(p);
            }
        }
        out
    }

    /// States every channel's invariants against `auditor` (monotonic
    /// simulated time, no abandoned work, a true earliest-arrival cache;
    /// [`Channel::audit_time`]) and that the system's cached next decision
    /// is the earliest over its channels.
    #[cfg(feature = "debug-invariants")]
    pub fn audit_invariants(&self, auditor: &mut mempod_audit::InvariantAuditor) {
        for ch in &self.channels {
            ch.audit_time(auditor);
        }
        let (cached, swept) = self.next_decision_cache();
        mempod_audit::audit_invariant!(
            auditor,
            "memory-next-decision",
            cached == swept,
            "memory system caches {} as its next decision, but its channels \
             sweep to {}",
            cached,
            swept
        );
    }

    /// The cached next decision and a fresh minimum of the channels'
    /// [`Channel::next_decision`]; the two must agree.
    #[cfg(any(test, feature = "debug-invariants"))]
    fn next_decision_cache(&self) -> (Picos, Picos) {
        let swept = self.channels.iter().map(Channel::next_decision).min();
        (self.next_decision, swept.unwrap_or(Picos::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layout_shape() {
        let l = MemLayout::paper_default();
        assert_eq!(l.fast_frames, 524_288);
        assert_eq!(l.slow_frames, 4_194_304);
        assert_eq!(l.total_frames(), 4_718_592);
        assert_eq!(l.fast_channels, 8);
        assert_eq!(l.slow_channels, 4);
    }

    #[test]
    fn fast_requests_complete_sooner() {
        let mut mem = MemorySystem::new(MemLayout::tiny());
        let f = mem.submit(FrameId(0), 0, AccessKind::Read, Picos::ZERO);
        let first_slow = mem.layout().fast_frames;
        let s = mem.submit(FrameId(first_slow), 0, AccessKind::Read, Picos::ZERO);
        let done = mem.drain_all();
        let get = |tok| {
            done.iter()
                .find(|c| c.token == tok)
                .expect("completed")
                .completion
        };
        assert!(get(s) > get(f));
        let stats = mem.stats();
        assert_eq!(stats.fast.requests(), 1);
        assert_eq!(stats.slow.requests(), 1);
        assert!((stats.fast_service_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn controller_latency_is_added() {
        let mut layout = MemLayout::tiny();
        layout.ctrl_latency = Picos::from_ns(100);
        let mut mem = MemorySystem::new(layout);
        mem.submit(FrameId(0), 0, AccessKind::Read, Picos::ZERO);
        let done = mem.drain_all();
        assert!(done[0].completion >= Picos::from_ns(100));
    }

    #[test]
    fn hbm_only_routes_everything_fast() {
        let mut mem = MemorySystem::new(MemLayout::hbm_only(1 << 14, DramTiming::hbm()));
        for i in 0..100u64 {
            mem.submit(FrameId(i * 7 % (1 << 14)), 0, AccessKind::Read, Picos::ZERO);
        }
        let _ = mem.drain_all();
        let stats = mem.stats();
        assert_eq!(stats.fast.requests(), 100);
        assert_eq!(stats.slow.requests(), 0);
    }

    #[test]
    fn ddr_only_routes_everything_slow() {
        let mut mem = MemorySystem::new(MemLayout::ddr_only(1 << 14, DramTiming::ddr4_1600()));
        for i in 0..50u64 {
            mem.submit(FrameId(i), 0, AccessKind::Write, Picos::ZERO);
        }
        let _ = mem.drain_all();
        assert_eq!(mem.stats().slow.writes, 50);
    }

    #[test]
    fn channels_run_in_parallel() {
        // 8 simultaneous requests to 8 different fast channels complete at
        // (nearly) the same time; 8 to one channel serialize on its bus.
        let mut mem = MemorySystem::new(MemLayout::tiny());
        let spread: Vec<ReqToken> = (0..8u64)
            .map(|i| mem.submit(FrameId(i), 0, AccessKind::Read, Picos::ZERO))
            .collect();
        let done = mem.drain_all();
        let times: Vec<Picos> = spread
            .iter()
            .map(|t| {
                done.iter()
                    .find(|c| c.token == *t)
                    .expect("completed")
                    .completion
            })
            .collect();
        assert!(times.iter().all(|&t| t == times[0]), "{times:?}");
    }

    #[test]
    fn drain_until_leaves_future_requests_pending() {
        let mut mem = MemorySystem::new(MemLayout::tiny());
        mem.submit(FrameId(0), 0, AccessKind::Read, Picos::from_us(100));
        assert!(mem.drain_until(Picos::from_us(1)).is_empty());
        assert_eq!(mem.pending(), 1);
        assert_eq!(mem.drain_all().len(), 1);
        assert_eq!(mem.pending(), 0);
    }

    #[test]
    fn drains_skip_idle_channels_and_order_by_channel_then_service() {
        let t = DramTiming::hbm();
        let mut mem = MemorySystem::new(MemLayout::tiny());
        let channel_of = |mem: &MemorySystem, frame: FrameId, line: u32| {
            usize_from_u32(mem.mapper().decode(frame, line).channel)
        };
        // Warm one channel, then leave it idle.
        let warm = channel_of(&mem, FrameId(2), 0);
        mem.submit(FrameId(2), 0, AccessKind::Read, Picos::ZERO);
        assert_eq!(mem.drain_all().len(), 1);
        let idle: Vec<(Picos, ChannelStats)> = mem
            .channels
            .iter()
            .map(|ch| (ch.now(), *ch.stats()))
            .collect();
        // Bursts on a slow and two fast frames, submitted out of channel
        // order, some past a refresh boundary.
        let frames = [
            FrameId(mem.layout().fast_frames + 1),
            FrameId(5),
            FrameId(0),
        ];
        let mut busy = Vec::new();
        for k in 0..24u64 {
            let frame = frames[(k % 3) as usize];
            let line = u32_from_u64(k % 32);
            busy.push(channel_of(&mem, frame, line));
            mem.submit(frame, line, AccessKind::Read, t.refresh_interval() / 8 * k);
        }
        assert!(!busy.contains(&warm));
        let mut twin = mem.clone();
        let horizon = t.refresh_interval() * 3;
        let done = mem.drain_until(horizon);
        assert_eq!(done.len(), 24);
        // Ascending channel, then service order (a channel's bursts leave
        // its bus one after another, so completions strictly increase).
        assert!(
            done.windows(2)
                .all(|w| (w[0].channel, w[0].completion) < (w[1].channel, w[1].completion)),
            "{done:?}"
        );
        let mut buffered = vec![done[0]];
        twin.drain_until_into(horizon, &mut buffered);
        assert_eq!(buffered[1..], done[..], "drain_until_into appends");
        for (i, ch) in mem.channels.iter().enumerate() {
            if !busy.contains(&i) {
                assert_eq!((ch.now(), *ch.stats()), idle[i], "idle channel {i} moved");
            }
        }
        assert_eq!(mem.channels[warm].stats().refreshes, 0);
        assert!(
            busy.iter().all(|&i| mem.channels[i].stats().refreshes > 0),
            "busy channels cross refresh boundaries"
        );
    }

    /// Asserts both drain caches against fresh sweeps: every channel's
    /// earliest arrival and the system's next decision.
    fn assert_caches_fresh(mem: &MemorySystem, when: &str) {
        for (i, ch) in mem.channels.iter().enumerate() {
            let (cached, swept) = ch.min_arrival_cache();
            assert_eq!(cached, swept, "channel {i} min arrival {when}");
        }
        let (cached, swept) = mem.next_decision_cache();
        assert_eq!(cached, swept, "next decision {when}");
    }

    #[test]
    fn drain_caches_match_a_fresh_sweep_after_every_operation() {
        let layout = MemLayout::tiny();
        for seed in [3u64, 17, 0x5eed] {
            let mut mem = MemorySystem::new(layout);
            let mut x = seed;
            let mut horizon = Picos::ZERO;
            let mut out = Vec::new();
            for step in 0..3_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 4 == 0 {
                    // Horizons jump ahead or repeat, as the pump re-drains.
                    if x % 3 != 0 {
                        horizon += Picos((x >> 8) % 40_000);
                    }
                    let before: Vec<(Picos, u64)> = mem
                        .channels
                        .iter()
                        .map(|ch| (ch.next_decision(), ch.stats().sched_decisions))
                        .collect();
                    mem.drain_until_into(horizon, &mut out);
                    assert_caches_fresh(&mem, &format!("after drain {step}"));
                    // A channel decides exactly when its next decision is due.
                    for (ch, (next, decisions)) in mem.channels.iter().zip(before) {
                        let decided = ch.stats().sched_decisions > decisions;
                        assert_eq!(decided, next <= horizon, "drain {step} at {horizon}");
                    }
                } else {
                    // Frames cluster so some channels queue deep; arrivals
                    // may precede the last horizon (completion-driven work).
                    let frame = FrameId((x >> 16) % 24 * 37 % layout.total_frames());
                    let at = (horizon + Picos((x >> 32) % 30_000)).saturating_sub(Picos(5_000));
                    let priority = if x & 8 == 0 {
                        Priority::Background
                    } else {
                        Priority::Demand
                    };
                    let kind = if x & 16 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    mem.submit_with_priority(
                        frame,
                        u32_from_u64((x >> 24) % 32),
                        kind,
                        at,
                        priority,
                    );
                    assert_caches_fresh(&mem, &format!("after submit {step}"));
                }
            }
            assert!(out.len() > 1_000, "seed {seed}: {} completions", out.len());
            let _ = mem.drain_all();
            assert_caches_fresh(&mem, "after the final drain");
            assert_eq!(mem.next_decision, Picos::MAX);
        }
    }

    #[test]
    fn a_drain_before_the_next_decision_moves_nothing() {
        let t = DramTiming::hbm();
        let mut mem = MemorySystem::new(MemLayout::tiny());
        // Busy the bus so the next decision is paced by it, then queue one
        // request far out on a slow channel.
        for line in 0..8 {
            mem.submit(FrameId(0), line, AccessKind::Read, Picos::ZERO);
        }
        let slow = FrameId(mem.layout().fast_frames);
        mem.submit(slow, 0, AccessKind::Write, t.refresh_interval() * 2);
        let first = mem.drain_until(Picos::ZERO);
        assert!(!first.is_empty() && mem.pending() > 0);
        let next = mem.next_decision;
        assert!(next > Picos::ZERO && next < Picos::MAX);
        let snapshot = |mem: &MemorySystem| -> Vec<(Picos, ChannelStats)> {
            mem.channels
                .iter()
                .map(|ch| (ch.now(), *ch.stats()))
                .collect()
        };
        let before = snapshot(&mem);
        let mut out = Vec::new();
        for horizon in [Picos::ZERO, next - Picos(1)] {
            mem.drain_until_into(horizon, &mut out);
            assert!(out.is_empty(), "nothing is due before {next}");
            assert_eq!(snapshot(&mem), before, "drain to {horizon} moved a channel");
            assert_eq!(mem.next_decision, next);
        }
        mem.drain_until_into(next, &mut out);
        assert!(!out.is_empty(), "the decision at {next} is due");
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    fn audit_flags_a_stale_next_decision() {
        let audit = |mem: &MemorySystem| {
            let mut auditor = mempod_audit::InvariantAuditor::every_epoch("mem");
            mem.audit_invariants(&mut auditor);
            auditor.violations().to_vec()
        };
        let mut mem = MemorySystem::new(MemLayout::tiny());
        mem.submit(FrameId(0), 0, AccessKind::Read, Picos::from_ns(80));
        assert!(audit(&mem).is_empty());
        // Too late a cache would skip a due drain; too early one only costs
        // a sweep, but still breaks the invariant.
        for stale in [Picos::from_ns(81), Picos::from_ns(79), Picos::MAX] {
            mem.next_decision = stale;
            let found = audit(&mem);
            assert_eq!(found.len(), 1, "{found:?}");
            assert!(found[0].contains("[memory-next-decision]"), "{found:?}");
        }
    }

    #[test]
    fn queue_depths_track_per_channel_backlog() {
        let mut mem = MemorySystem::new(MemLayout::tiny());
        let depths = mem.queue_depths();
        assert_eq!(depths.len(), 12); // 8 fast + 4 slow
        assert!(depths.iter().all(|&d| d == 0));
        for i in 0..16u64 {
            mem.submit(FrameId(i), 0, AccessKind::Read, Picos::ZERO);
        }
        assert_eq!(mem.queue_depths().iter().sum::<usize>(), 16);
        let _ = mem.drain_all();
        assert!(mem.queue_depths().iter().all(|&d| d == 0));
        // Scheduler work counters aggregate through tier stats.
        let s = mem.stats();
        assert_eq!(s.total().sched_decisions, 16);
        assert!(s.total().sched_scan_ops > 0);
    }

    #[test]
    fn probes_sample_every_scheduling_decision() {
        let mut mem = MemorySystem::new(MemLayout::tiny());
        assert!(mem.probe_summary().is_none());
        assert!(!mem.probes_attached());
        mem.attach_probes();
        mem.attach_probes(); // idempotent
        assert!(mem.probes_attached());
        for i in 0..32u64 {
            mem.submit(FrameId(i % 4), 0, AccessKind::Read, Picos::ZERO);
        }
        let _ = mem.drain_all();
        let p = mem.probe_summary().expect("probes attached");
        assert_eq!(p.depth.count(), 32, "one sample per decision");
        assert!(p.depth.max().expect("non-empty") >= 1);
        assert!(p.depth.min().expect("non-empty") >= 1);
        // Clone carries the probe along (runner clones flooded channels).
        let copy = mem.clone();
        assert_eq!(copy.probe_summary().expect("cloned").depth.count(), 32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_frame_panics() {
        let mut mem = MemorySystem::new(MemLayout::tiny());
        mem.submit(
            FrameId(mem.layout().total_frames()),
            0,
            AccessKind::Read,
            Picos::ZERO,
        );
    }

    #[test]
    fn sharded_views_reproduce_the_unsharded_system() {
        let layout = MemLayout::tiny();
        let mut whole = MemorySystem::new(layout);
        let route = *whole.mapper();
        let n = 4u32;
        let mut shards = MemorySystem::new(layout).into_shards(n);
        assert_eq!(shards.len(), 4);
        for (id, s) in shards.iter().enumerate() {
            assert_eq!(s.shard_count(), 4);
            assert_eq!(s.shard_id() as usize, id);
            assert_eq!(s.queue_depths().len(), 3); // 12 channels / 4 shards
        }
        // A deterministic burst across both tiers and all channels, with a
        // partial drain in the middle to exercise interleaved horizons.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut submitted = 0usize;
        for k in 0..400u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let frame = FrameId(x % layout.total_frames());
            let line = u32_from_u64((x >> 32) % 32);
            let at = Picos::from_ns(k * 3);
            whole.submit(frame, line, AccessKind::Read, at);
            let ch = route.decode(frame, line).channel;
            shards[(ch % n) as usize].submit(frame, line, AccessKind::Read, at);
            submitted += 1;
        }
        let horizon = Picos::from_ns(600);
        let mut whole_done = whole.drain_until(horizon);
        whole_done.extend(whole.drain_all());
        let mut shard_done = Vec::new();
        for s in &mut shards {
            shard_done.extend(s.drain_until(horizon));
        }
        for s in &mut shards {
            shard_done.extend(s.drain_all());
        }
        assert_eq!(whole_done.len(), submitted);
        // Tokens restart per shard, so compare the completion-time
        // multiset, which pins every scheduling decision.
        let mut a: Vec<Picos> = whole_done.iter().map(|c| c.completion).collect();
        let mut b: Vec<Picos> = shard_done.iter().map(|c| c.completion).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Merged shard stats reproduce the unsharded tier breakdown.
        let mut merged = SystemStats::default();
        for s in &shards {
            merged.merge(&s.stats());
        }
        assert_eq!(merged, whole.stats());
    }

    #[test]
    #[should_panic(expected = "already sharded")]
    fn resharding_a_shard_panics() {
        let shards = MemorySystem::new(MemLayout::tiny()).into_shards(2);
        let first = shards.into_iter().next().expect("two shards");
        let _ = first.into_shards(2);
    }

    #[test]
    fn scaled_down_divides_frames() {
        let l = MemLayout::paper_default().scaled_down(64);
        assert_eq!(l.fast_frames, 524_288 / 64);
        assert_eq!(l.fast_channels, 8);
    }
}
