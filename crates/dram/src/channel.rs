//! One memory channel: banks, FR-FCFS scheduling, serialized data bus.
//!
//! The channel is the unit of parallelism in the model. It owns:
//!
//! * a set of banks, each with an open-row register and next-ready
//!   timestamps (activation time for `tRAS`, write-recovery for `tWR`);
//! * a request queue scheduled **FR-FCFS** (first-ready: row hits first,
//!   then oldest) with an anti-starvation bound so a stream of row hits
//!   cannot indefinitely bypass an old conflicting request;
//! * a serialized data bus: one 64 B burst at a time.
//!
//! Time advances event-to-event. Each serviced request is classified as a
//! row **hit** (open row matches), **miss** (bank idle) or **conflict**
//! (different row open → precharge + activate), reproducing the latency
//! structure the paper's analyses depend on (e.g. the libquantum row-hit
//! study in §6.3.2).
//!
//! # Scheduler organization
//!
//! Queued requests live in two FIFO `Vec`s, one per scheduling class
//! (demand, background), in enqueue order, so an entry's queue position
//! is its FCFS age. An entry is a run of same-row lines of one kind that
//! share one token and one arrival (`Channel::enqueue_run`); a page
//! swap queues each frame's 32 lines as one entry. Each FR-FCFS candidate
//! (the oldest arrived request of a class, the oldest arrived row hit of
//! a class) is the first matching entry of its queue, so a decision walks
//! each queue from the front and stops as soon as the winner is settled.
//! A decision services one line of the winner; the entry leaves with an
//! order-preserving `Vec::remove` only with its last line, and only then
//! does its token complete. This is exact: the run's lines are identical
//! but for their tokens and would sit back to back as one-line entries,
//! so the pick grants the run's first line whenever it would grant any of
//! them; and one channel's bursts end in strictly increasing order, so
//! the last line carries the run's latest completion (DESIGN.md §9).
//!
//! The channel caches the earliest queued arrival and how many queue
//! entries share it, so its next decision instant
//! ([`Channel::next_decision`]) costs no scan; only a decision that
//! removes the last entry holding that arrival re-sweeps the queues for
//! the next one (a page swap's two read runs share one arrival). Queue
//! depth in the statistics and the probe counts lines
//! ([`Channel::pending`]); live queues stay shallow in entries
//! (DESIGN.md §9), where a flat `Vec` beats any indexed structure.

use mempod_faults::ChannelFaultStream;
use mempod_telemetry::Log2Histogram;
use mempod_types::convert::usize_from_u32;
use mempod_types::{ChannelFaultKind, Picos};
use serde::Serialize;

use crate::timing::DramTiming;

/// Opaque per-request token assigned by the caller, echoed at completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct ReqToken(pub u64);

/// How long a demand request may wait before it overrides row-hit priority.
const DEMAND_STARVATION_BOUND: Picos = Picos::from_ns(500);
/// How long background (migration) traffic may wait before it overrides
/// demand priority — keeps blocked pages from stalling indefinitely under a
/// continuous demand stream.
const BACKGROUND_STARVATION_BOUND: Picos = Picos::from_us(2);

/// Scheduling class of a request.
///
/// Memory controllers service demand (CPU) traffic ahead of background data
/// movement; MemPod's migration driver lives beside the MCs and its swap
/// traffic yields to demand accesses (paper §4.4/§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Priority {
    /// Foreground CPU traffic (and metadata fetches gating it).
    Demand,
    /// Migration reads/writes.
    Background,
}

impl Priority {
    /// The index of this class's queue in [`Channel`]'s `queues`.
    const fn class(self) -> usize {
        match self {
            Priority::Demand => DEMAND,
            Priority::Background => BACKGROUND,
        }
    }
}

/// Queue index of [`Priority::Demand`].
const DEMAND: usize = 0;
/// Queue index of [`Priority::Background`].
const BACKGROUND: usize = 1;

/// A run of same-row 64 B bursts of one kind: `lines` consecutive
/// accesses to `(bank, row)`, all reads or all writes. A page swap moves
/// each frame as one run (paper §5.3: back-to-back bursts to one open row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowRun {
    /// Bank within the channel.
    pub(crate) bank: u32,
    /// Row within the bank.
    pub(crate) row: u64,
    /// Bursts in the run (at least one).
    pub(crate) lines: u16,
    /// Whether the bursts write.
    pub(crate) is_write: bool,
}

/// One queue entry: a run of `lines` same-row bursts that share one
/// token, class and arrival. Its class is the queue it sits in, and its
/// FCFS age is its position there. Each scheduling decision services one
/// line; the entry leaves the queue with its last.
#[derive(Debug, Clone, Copy)]
struct Queued {
    token: ReqToken,
    arrival: Picos,
    row: u64,
    bank: u32,
    /// Lines still to service.
    lines: u16,
    is_write: bool,
}

// The run length fits the entry's padding: an entry stays 32 bytes.
const _: () = assert!(std::mem::size_of::<Queued>() == 32);

/// One line a scheduling decision serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Serviced {
    /// Its entry's token.
    token: ReqToken,
    /// When its burst ends.
    completion: Picos,
    /// Lines its entry has left; at 0 the entry completed.
    left: u16,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest time the bank can accept its next command.
    ready_at: Picos,
    /// When the currently open row was activated (for tRAS).
    act_at: Picos,
    /// When the last write burst to this bank ended (for tWR).
    write_end: Picos,
}

/// The picosecond durations [`Channel::service`] and the drain loop use,
/// converted from bus cycles once at [`Channel::new`] so the per-request
/// path does no 128-bit division. Each field is exactly the
/// [`DramTiming::cycles`] expression it stands for; sums of cycle counts
/// are converted as one sum (`lead`), since `cycles(a + b)` can differ
/// from `cycles(a) + cycles(b)` by the rounding of a non-integral period.
#[derive(Debug, Clone, Copy)]
struct CyclePicos {
    /// `cycles(t_cas)`.
    cas: Picos,
    /// `cycles(t_rcd)`.
    rcd: Picos,
    /// `cycles(t_rp)`.
    rp: Picos,
    /// `cycles(t_ras)`.
    ras: Picos,
    /// `cycles(t_wr)`.
    wr: Picos,
    /// `burst_time()` = `cycles(burst_cycles)`.
    burst: Picos,
    /// One command slot, `cycles(1)`.
    cmd: Picos,
    /// Scheduler pacing lead, `cycles(t_rcd + t_cas)`.
    lead: Picos,
}

impl CyclePicos {
    fn new(t: &DramTiming) -> Self {
        CyclePicos {
            cas: t.cycles(t.t_cas),
            rcd: t.cycles(t.t_rcd),
            rp: t.cycles(t.t_rp),
            ras: t.cycles(t.t_ras),
            wr: t.cycles(t.t_wr),
            burst: t.burst_time(),
            cmd: t.cycles(1),
            lead: t.cycles(t.t_rcd + t.t_cas),
        }
    }
}

/// Row-buffer outcome classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowOutcome {
    Hit,
    Miss,
    Conflict,
}

/// Aggregated channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ChannelStats {
    /// Read requests serviced.
    pub reads: u64,
    /// Write requests serviced.
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Accesses to an idle (closed) bank.
    pub row_misses: u64,
    /// Accesses that required a precharge first.
    pub row_conflicts: u64,
    /// Sum of per-request latency (completion − arrival).
    pub total_latency: Picos,
    /// Total data-bus occupancy.
    pub busy_time: Picos,
    /// High-water mark of the request queue.
    pub max_queue_depth: usize,
    /// All-bank refresh operations performed.
    pub refreshes: u64,
    /// Scheduling decisions taken (one per serviced request).
    pub sched_decisions: u64,
    /// The queue depth (both classes) at each scheduling decision, summed:
    /// the number of requests every decision chose from. The pick stops
    /// early, so this bounds the entries it examines rather than counting
    /// them.
    pub sched_scan_ops: u64,
    /// Injected channel faults applied (at most one per fault window; 0
    /// unless a fault stream is attached).
    pub faults_injected: u64,
}

impl ChannelStats {
    /// Requests serviced.
    pub fn requests(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of accesses that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        let n = self.requests();
        if n == 0 {
            0.0
        } else {
            self.row_hits as f64 / n as f64
        }
    }

    /// Mean queue depth per scheduling decision (`sched_scan_ops` over
    /// `sched_decisions`): how many requests a decision chose from.
    pub fn scans_per_decision(&self) -> f64 {
        if self.sched_decisions == 0 {
            0.0
        } else {
            self.sched_scan_ops as f64 / self.sched_decisions as f64
        }
    }

    /// Merges another channel's statistics into this one.
    pub fn merge(&mut self, other: &ChannelStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.total_latency += other.total_latency;
        self.busy_time += other.busy_time;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.refreshes += other.refreshes;
        self.sched_decisions += other.sched_decisions;
        self.sched_scan_ops += other.sched_scan_ops;
        self.faults_injected += other.faults_injected;
    }
}

/// Per-channel fault-injection state: the deterministic stream plus the
/// last window already applied (each fired window perturbs the channel
/// exactly once, at its first scheduling decision).
#[derive(Debug, Clone)]
struct ChannelFaultState {
    stream: ChannelFaultStream,
    applied_slot: Option<u64>,
}

/// Cumulative telemetry observations for one channel, populated only when
/// a probe is attached ([`Channel::attach_probe`]).
///
/// The histogram is cumulative over the channel's lifetime; epoch-level
/// consumers diff successive copies ([`Log2Histogram::diff`]) to get
/// per-window percentiles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChannelProbe {
    /// Queue depth (including the request being granted) sampled at every
    /// scheduling decision.
    pub depth: Log2Histogram,
    /// All-bank refreshes booked while demand or background work was
    /// queued — refresh blackouts that actually delayed someone.
    pub stalled_refreshes: u64,
}

impl ChannelProbe {
    /// Folds `other`'s observations into `self` (cross-channel aggregate).
    pub fn merge(&mut self, other: &ChannelProbe) {
        self.depth.merge(&other.depth);
        self.stalled_refreshes += other.stalled_refreshes;
    }
}

/// One DRAM channel with FR-FCFS scheduling over its banks.
///
/// # Examples
///
/// ```
/// use mempod_dram::{Channel, DramTiming, ReqToken};
/// use mempod_types::Picos;
///
/// let mut ch = Channel::new(DramTiming::hbm());
/// ch.enqueue(ReqToken(0), 0, 42, false, Picos::ZERO);
/// ch.enqueue(ReqToken(1), 0, 42, false, Picos::ZERO); // same row: hit
/// let done = ch.drain_until(Picos::MAX);
/// assert_eq!(done.len(), 2);
/// assert_eq!(ch.stats().row_hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    timing: DramTiming,
    /// `timing`'s per-request durations, precomputed.
    ps: CyclePicos,
    banks: Vec<Bank>,
    /// Queued (unserviced) entries, one FIFO per scheduling class
    /// (indexed by [`Priority::class`]) in enqueue order: position is the
    /// FCFS age, and an entry whose last line is serviced is removed in
    /// place.
    queues: [Vec<Queued>; 2],
    /// Lines still to service over both queues ([`Channel::pending`]).
    queued_lines: usize,
    /// The earliest arrival in `queues`; `Picos::MAX` when both are empty.
    min_arrival: Picos,
    /// How many queued entries arrive at `min_arrival` (0 when empty).
    min_count: usize,
    bus_free_at: Picos,
    now: Picos,
    next_refresh: Picos,
    stats: ChannelStats,
    /// The last scheduling-decision instant (for the monotonic-time audit;
    /// only maintained when `debug-invariants` is on).
    last_decision: Picos,
    /// Scheduling decisions observed at an earlier instant than their
    /// predecessor — must stay zero; the event loop only moves forward.
    decision_regressions: u64,
    /// Drain iterations that observed an arrived request but failed to
    /// pick one — must stay zero; a non-zero count means the
    /// scheduler abandoned queued work instead of servicing it.
    abandoned_picks: u64,
    /// Optional telemetry probe (queue-depth histogram, refresh stalls).
    /// Boxed so the disabled case costs one pointer in the channel and one
    /// branch per scheduling decision.
    probe: Option<Box<ChannelProbe>>,
    /// Optional fault-injection stream (same boxing rationale as `probe`).
    faults: Option<Box<ChannelFaultState>>,
}

impl Channel {
    /// Creates an idle channel with `timing.banks` banks.
    pub fn new(timing: DramTiming) -> Self {
        Channel {
            banks: vec![Bank::default(); timing.banks as usize],
            next_refresh: if timing.t_refi == 0 {
                Picos::MAX
            } else {
                timing.refresh_interval()
            },
            queues: [Vec::new(), Vec::new()],
            queued_lines: 0,
            min_arrival: Picos::MAX,
            min_count: 0,
            ps: CyclePicos::new(&timing),
            timing,
            bus_free_at: Picos::ZERO,
            now: Picos::ZERO,
            stats: ChannelStats::default(),
            last_decision: Picos::ZERO,
            decision_regressions: 0,
            abandoned_picks: 0,
            probe: None,
            faults: None,
        }
    }

    /// Attaches a telemetry probe (idempotent). Queue depth is recorded at
    /// every scheduling decision from then on.
    pub fn attach_probe(&mut self) {
        if self.probe.is_none() {
            self.probe = Some(Box::default());
        }
    }

    /// The probe's cumulative observations, if one is attached.
    pub fn probe(&self) -> Option<&ChannelProbe> {
        self.probe.as_deref()
    }

    /// Attaches a deterministic fault stream (idempotent: the first stream
    /// wins, so re-attachment cannot reset the applied-window cursor).
    pub fn attach_faults(&mut self, stream: ChannelFaultStream) {
        if self.faults.is_none() {
            self.faults = Some(Box::new(ChannelFaultState {
                stream,
                applied_slot: None,
            }));
        }
    }

    /// Whether a fault stream is attached.
    pub fn faults_attached(&self) -> bool {
        self.faults.is_some()
    }

    /// The channel's timing parameters.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Requests (lines) currently queued, not yet serviced. Queue depth
    /// in every statistic and probe counts these.
    pub fn pending(&self) -> usize {
        self.queued_lines
    }

    /// Queue entries currently held: one per enqueued run, however many
    /// of its lines are left.
    pub(crate) fn entries(&self) -> usize {
        self.queues[DEMAND].len() + self.queues[BACKGROUND].len()
    }

    /// The channel-local current time (end of the last scheduled burst or
    /// the last drain horizon, whichever is later).
    pub fn now(&self) -> Picos {
        self.now
    }

    /// The instant of the channel's next scheduling decision:
    /// `Picos::MAX` when nothing is queued, else the latest of `now`, the
    /// earliest queued arrival and the bus-pacing point
    /// (`bus_free − (tRCD + tCAS)`). A drain to a horizon before it makes
    /// no decision and leaves the channel untouched.
    pub fn next_decision(&self) -> Picos {
        // An empty queue caches `min_arrival == MAX`, which wins the max.
        self.now
            .max(self.min_arrival)
            .max(self.bus_free_at.saturating_sub(self.ps.lead))
    }

    /// Enqueues a request for `(bank, row)` arriving at `arrival`.
    ///
    /// Arrivals need not be monotone in enqueue order (migration write
    /// phases are submitted at completion times), and a request may even be
    /// enqueued after a [`drain_until`](Channel::drain_until) horizon that
    /// its arrival precedes — scheduling clamps it to the channel's local
    /// `now`, so it competes for grants from the next decision onward but
    /// never rewrites already-granted bus slots.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn enqueue(
        &mut self,
        token: ReqToken,
        bank: u32,
        row: u64,
        is_write: bool,
        arrival: Picos,
    ) {
        self.enqueue_with_priority(token, bank, row, is_write, arrival, Priority::Demand);
    }

    /// Like [`enqueue`](Channel::enqueue) with an explicit scheduling class.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn enqueue_with_priority(
        &mut self,
        token: ReqToken,
        bank: u32,
        row: u64,
        is_write: bool,
        arrival: Picos,
        priority: Priority,
    ) {
        let run = RowRun {
            bank,
            row,
            lines: 1,
            is_write,
        };
        self.enqueue_run(token, run, arrival, priority);
    }

    /// Enqueues a run of `run.lines` same-row bursts as one entry under
    /// one token. The scheduler treats it exactly as that many
    /// consecutive one-line entries: each decision services one line, and
    /// the entry completes, handing `token` to the drain, with its last
    /// line, whose burst ends after every other line's.
    ///
    /// # Panics
    ///
    /// Panics if `run.bank` is out of range or the run is empty.
    #[inline]
    pub(crate) fn enqueue_run(
        &mut self,
        token: ReqToken,
        run: RowRun,
        arrival: Picos,
        priority: Priority,
    ) {
        assert!(
            (run.bank as usize) < self.banks.len(),
            "bank {} out of range",
            run.bank
        );
        assert!(run.lines > 0, "a run holds at least one line");
        self.queues[priority.class()].push(Queued {
            token,
            arrival,
            row: run.row,
            bank: run.bank,
            lines: run.lines,
            is_write: run.is_write,
        });
        self.queued_lines += usize::from(run.lines);
        if arrival < self.min_arrival {
            self.min_arrival = arrival;
            self.min_count = 1;
        } else if arrival == self.min_arrival {
            self.min_count += 1;
        }
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queued_lines);
    }

    /// Services queued requests whose schedule fits before `until`, returning
    /// `(token, completion_time)` pairs in service order: one per entry
    /// whose last line was serviced, at that line's completion.
    ///
    /// Scheduling decisions are paced by the data bus: the next pick happens
    /// no earlier than `bus_free - (tRCD + tCAS)`, so bank preparation
    /// overlaps the in-flight burst but the scheduler cannot commit bus
    /// slots arbitrarily far into the future — a request arriving later
    /// (e.g. demand showing up during a migration burst) still competes for
    /// every grant after its arrival.
    pub fn drain_until(&mut self, until: Picos) -> Vec<(ReqToken, Picos)> {
        let mut done = Vec::new();
        self.drain_until_with(until, |token, completion| done.push((token, completion)));
        done
    }

    /// Like [`drain_until`](Channel::drain_until), but hands each
    /// `(token, completion_time)` to `on_done` in service order instead of
    /// collecting them, so a caller can fill a buffer it reuses.
    pub fn drain_until_with(&mut self, until: Picos, mut on_done: impl FnMut(ReqToken, Picos)) {
        while let Some(line) = self.decide(until) {
            if line.left == 0 {
                on_done(line.token, line.completion);
            }
        }
    }

    /// Makes the next scheduling decision if one is due by `until`,
    /// servicing one line of the winning entry; `None` when nothing is
    /// due (or, should the pick invariant break, nothing is pickable).
    #[inline]
    fn decide(&mut self, until: Picos) -> Option<Serviced> {
        // On empty queue, stop and leave `now` untouched: channels are
        // reused across epoch boundaries (drain, migrate, continue) and a
        // poisoned horizon would push later requests into the far future.
        if self.queued_lines == 0 {
            return None;
        }
        let decision = self.next_decision();
        if decision > until {
            return None;
        }
        // All-bank refresh: when the decision point crosses tREFI, every
        // bank loses its open row and is blocked until the blackout ends
        // (enforced through bank.ready_at; the pick below proceeds, its
        // timing pays the blackout).
        if decision >= self.next_refresh {
            self.fast_forward_refresh(decision);
        }
        // Injected channel faults perturb the state once per fired fault
        // window, at the window's first scheduling decision.
        if self.faults.is_some() {
            self.apply_fault_window(decision);
        }
        if cfg!(feature = "debug-invariants") {
            if decision < self.last_decision {
                self.decision_regressions += 1;
            }
            self.last_decision = decision;
        }
        // `min_arrival <= decision` guarantees at least one arrived
        // request, so `pick` finds a candidate; the `else` arm is
        // unreachable, but if the invariant ever breaks it counts the
        // abandoned work (reported through the invariant auditor under
        // `debug-invariants`) instead of dropping it silently.
        let Some((class, pos)) = self.pick(decision) else {
            self.abandoned_picks += 1;
            return None;
        };
        let depth = self.queued_lines as u64;
        self.queued_lines -= 1;
        let entry = &mut self.queues[class][pos];
        entry.lines -= 1;
        let q = *entry;
        if q.lines == 0 {
            self.queues[class].remove(pos);
            // Only the last entry holding the earliest arrival moves it.
            if q.arrival == self.min_arrival {
                self.min_count -= 1;
                if self.min_count == 0 {
                    (self.min_arrival, self.min_count) = self.earliest_arrival();
                }
            }
        }
        self.stats.sched_decisions += 1;
        if let Some(p) = self.probe.as_deref_mut() {
            p.depth.record(depth);
        }
        Some(Serviced {
            token: q.token,
            completion: self.service(&q, decision),
            left: q.lines,
        })
    }

    /// Services every queued request regardless of horizon.
    pub fn drain_all(&mut self) -> Vec<(ReqToken, Picos)> {
        self.drain_until(Picos::MAX)
    }

    /// Books every refresh boundary crossed by `decision` in closed form.
    ///
    /// The boundaries at `next_refresh, next_refresh + tREFI, ...` up to
    /// `decision` each close every row and push bank readiness to their
    /// blackout end; since the blackout ends increase monotonically, the
    /// net bank effect equals that of the **last** crossed boundary alone,
    /// so a long idle gap books `k` refreshes in O(banks) instead of
    /// spinning the catch-up loop `k` times (k can be millions after a
    /// sparse-trace gap or an epoch drain).
    fn fast_forward_refresh(&mut self, decision: Picos) {
        let interval = self.timing.refresh_interval();
        if interval == Picos::ZERO {
            // Refresh disabled (t_refi == 0): `next_refresh` is pinned at
            // the far future; nothing to book.
            self.next_refresh = Picos::MAX;
            return;
        }
        let missed = (decision - self.next_refresh).as_ps() / interval.as_ps();
        let last = self.next_refresh + interval * missed;
        let blackout_end = last + self.timing.refresh_time();
        for bank in &mut self.banks {
            bank.open_row = None;
            bank.ready_at = bank.ready_at.max(blackout_end);
        }
        self.stats.refreshes += missed + 1;
        if self.pending() > 0 {
            if let Some(p) = self.probe.as_deref_mut() {
                p.stalled_refreshes += missed + 1;
            }
        }
        self.next_refresh = last + interval;
    }

    /// Applies the injected fault (if any) for the window containing
    /// `decision`, at most once per window. Every perturbation only pushes
    /// channel state *forward* in time (bus blackout, bank busy-until,
    /// closed rows), so scheduling decisions stay monotone and the
    /// `debug-invariants` time audit holds under any fault plan.
    fn apply_fault_window(&mut self, decision: Picos) {
        let Some(state) = self.faults.as_deref_mut() else {
            return;
        };
        let Some(fault) = state.stream.window_at(decision) else {
            return;
        };
        if state.applied_slot == Some(fault.slot) {
            return; // this window's fault already landed
        }
        state.applied_slot = Some(fault.slot);
        self.stats.faults_injected += 1;
        match fault.kind {
            ChannelFaultKind::LatencySpike(extra) => {
                // Transient link glitch: the data bus blacks out for
                // `extra` beyond whatever burst is in flight.
                self.bus_free_at = self.bus_free_at.max(decision) + extra;
            }
            ChannelFaultKind::StuckBank(raw) => {
                // One bank wedges until the fault window ends: its open
                // row is lost and no command lands before `slot_end`.
                let idx = usize_from_u32(raw) % self.banks.len();
                let bank = &mut self.banks[idx];
                bank.open_row = None;
                bank.ready_at = bank.ready_at.max(fault.slot_end);
            }
            ChannelFaultKind::RefreshStorm(k) => {
                // `k` back-to-back extra all-bank refreshes.
                let blackout_end = decision + self.timing.refresh_time() * u64::from(k);
                for bank in &mut self.banks {
                    bank.open_row = None;
                    bank.ready_at = bank.ready_at.max(blackout_end);
                }
                self.stats.refreshes += u64::from(k);
                if self.pending() > 0 {
                    if let Some(p) = self.probe.as_deref_mut() {
                        p.stalled_refreshes += u64::from(k);
                    }
                }
            }
        }
    }

    /// Scheduling decisions that went backwards in time (must be 0; only
    /// counted when the `debug-invariants` feature is on).
    pub fn decision_regressions(&self) -> u64 {
        self.decision_regressions
    }

    /// Drain iterations that abandoned queued work because no request was
    /// pickable despite an arrived request (must be 0).
    pub fn abandoned_picks(&self) -> u64 {
        self.abandoned_picks
    }

    /// States the channel's time invariants against `auditor`: the event
    /// loop's scheduling decisions never regress, no drain abandons
    /// arrived work, and the cached earliest arrival behind
    /// [`next_decision`](Channel::next_decision), with the count of
    /// requests holding it, matches the queue.
    #[cfg(feature = "debug-invariants")]
    pub fn audit_time(&self, auditor: &mut mempod_audit::InvariantAuditor) {
        let (cached, swept) = self.min_arrival_cache();
        mempod_audit::audit_invariant!(
            auditor,
            "channel-min-arrival",
            cached == swept,
            "channel caches {} as its earliest arrival, held by {} queue entries, \
             but its {} queue entries sweep to {}, held by {}",
            cached.0,
            cached.1,
            self.entries(),
            swept.0,
            swept.1
        );
        mempod_audit::audit_invariant!(
            auditor,
            "channel-monotonic-time",
            self.decision_regressions == 0,
            "channel made {} scheduling decision(s) earlier than a \
             predecessor (last decision at {})",
            self.decision_regressions,
            self.last_decision
        );
        mempod_audit::audit_invariant!(
            auditor,
            "channel-no-abandoned-work",
            self.abandoned_picks == 0,
            "channel abandoned {} drain iteration(s) that had an arrived \
             frontier but no pickable request",
            self.abandoned_picks
        );
    }

    /// The cached earliest arrival with the count of entries holding it,
    /// and a fresh sweep of the queues for both (`(Picos::MAX, 0)` when
    /// empty); the two must agree.
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn min_arrival_cache(&self) -> ((Picos, usize), (Picos, usize)) {
        ((self.min_arrival, self.min_count), self.earliest_arrival())
    }

    /// The earliest arrival over both class queues and how many queued
    /// entries hold it (`(Picos::MAX, 0)` when empty), swept afresh.
    fn earliest_arrival(&self) -> (Picos, usize) {
        self.queues
            .iter()
            .flatten()
            .fold((Picos::MAX, 0), |(min, count), q| {
                if q.arrival < min {
                    (q.arrival, 1)
                } else {
                    (min, count + usize::from(q.arrival == min))
                }
            })
    }

    /// Scheduling pick among requests that have arrived by `decision`, as
    /// a `(class, position)` pair: starving requests first (demand bound
    /// 500 ns, background bound 2 µs), then FR-FCFS within the demand
    /// class, then FR-FCFS among background. `None` only if no queued
    /// request has arrived yet.
    ///
    /// Each class queue is in FCFS order, so every candidate is the first
    /// matching entry of its queue and each walk stops once the winner is
    /// settled: the demand walk at the first arrived row hit (or at the
    /// oldest arrived request if it is starving); the background walk at
    /// its oldest arrived request if that is starving or a demand request
    /// has arrived (demand then wins), else at the first arrived row hit.
    fn pick(&mut self, decision: Picos) -> Option<(usize, usize)> {
        self.stats.sched_scan_ops += self.pending() as u64;
        let banks = &self.banks;
        let is_hit = |q: &Queued| banks[q.bank as usize].open_row == Some(q.row);
        let mut oldest_demand = None;
        let mut hit_demand = None;
        for (pos, q) in self.queues[DEMAND].iter().enumerate() {
            if q.arrival > decision {
                continue;
            }
            if oldest_demand.is_none() {
                if decision.saturating_sub(q.arrival) > DEMAND_STARVATION_BOUND {
                    return Some((DEMAND, pos));
                }
                oldest_demand = Some(pos);
            }
            if is_hit(q) {
                hit_demand = Some(pos);
                break;
            }
        }
        let mut oldest_bg = None;
        for (pos, q) in self.queues[BACKGROUND].iter().enumerate() {
            if q.arrival > decision {
                continue;
            }
            if oldest_bg.is_none() {
                if decision.saturating_sub(q.arrival) > BACKGROUND_STARVATION_BOUND {
                    return Some((BACKGROUND, pos));
                }
                if oldest_demand.is_some() {
                    break;
                }
                oldest_bg = Some(pos);
            }
            if is_hit(q) {
                return Some((BACKGROUND, pos));
            }
        }
        match hit_demand.or(oldest_demand) {
            Some(pos) => Some((DEMAND, pos)),
            None => oldest_bg.map(|pos| (BACKGROUND, pos)),
        }
    }

    /// Issues one request at decision time `now`, updating bank/bus state.
    fn service(&mut self, q: &Queued, now: Picos) -> Picos {
        let t = self.ps;
        let bank = &mut self.banks[q.bank as usize];
        let (data_start, outcome) = match bank.open_row {
            Some(r) if r == q.row => {
                let cmd = now.max(bank.ready_at);
                ((cmd + t.cas).max(self.bus_free_at), RowOutcome::Hit)
            }
            Some(_) => {
                // Precharge must respect tRAS since activation and tWR after
                // the last write burst.
                let pre = now
                    .max(bank.ready_at)
                    .max(bank.act_at + t.ras)
                    .max(bank.write_end + t.wr);
                let act = pre + t.rp;
                let cmd = act + t.rcd;
                bank.act_at = act;
                ((cmd + t.cas).max(self.bus_free_at), RowOutcome::Conflict)
            }
            None => {
                let act = now.max(bank.ready_at);
                let cmd = act + t.rcd;
                bank.act_at = act;
                ((cmd + t.cas).max(self.bus_free_at), RowOutcome::Miss)
            }
        };
        bank.open_row = Some(q.row);
        let data_end = data_start + t.burst;
        // Same-bank column commands pipeline at tCCD (≈ the burst length),
        // so a same-row stream sustains full bus bandwidth; other banks only
        // contend on the bus.
        bank.ready_at = data_start.saturating_sub(t.cas) + t.burst;
        if q.is_write {
            bank.write_end = data_end;
        }
        self.bus_free_at = data_end;
        // Advance only by one command slot: bank preparation of the next
        // request overlaps this one's, and the shared data bus (bus_free_at)
        // provides the real serialization.
        self.now = now + t.cmd;

        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Miss => self.stats.row_misses += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        if q.is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.stats.busy_time += t.burst;
        self.stats.total_latency += data_end - q.arrival;
        data_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempod_types::convert::{u64_from_usize, usize_from_u64};

    fn hbm_channel() -> Channel {
        Channel::new(DramTiming::hbm())
    }

    #[test]
    fn single_request_latency_is_row_miss_floor() {
        let mut ch = hbm_channel();
        ch.enqueue(ReqToken(0), 0, 5, false, Picos::ZERO);
        let done = ch.drain_all();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, ch.timing().row_miss_floor());
        assert_eq!(ch.stats().row_misses, 1);
    }

    #[test]
    fn same_row_back_to_back_hits() {
        let mut ch = hbm_channel();
        for i in 0..4 {
            ch.enqueue(ReqToken(i), 2, 9, false, Picos::ZERO);
        }
        let done = ch.drain_all();
        assert_eq!(ch.stats().row_hits, 3);
        assert_eq!(ch.stats().row_misses, 1);
        // Completions strictly increase (bus serializes bursts).
        assert!(done.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let mut ch = hbm_channel();
        ch.enqueue(ReqToken(0), 0, 1, false, Picos::ZERO);
        ch.enqueue(ReqToken(1), 0, 2, false, Picos::ZERO);
        let done = ch.drain_all();
        assert_eq!(ch.stats().row_conflicts, 1);
        // The conflicting access pays at least tRAS (from first ACT) +
        // tRP + tRCD + tCAS + burst.
        let t = DramTiming::hbm();
        let floor = t.cycles(t.t_ras + t.t_rp + t.t_rcd + t.t_cas) + t.burst_time();
        assert!(done[1].1 >= floor, "{} < {floor}", done[1].1);
    }

    #[test]
    fn fr_fcfs_prefers_row_hit() {
        let mut ch = hbm_channel();
        // Open row 1 on bank 0.
        ch.enqueue(ReqToken(0), 0, 1, false, Picos::ZERO);
        let _ = ch.drain_all();
        // Conflict (row 2) arrives just before a hit (row 1): hit is younger
        // but goes first under FR-FCFS.
        let t0 = ch.now();
        ch.enqueue(ReqToken(1), 0, 2, false, t0);
        ch.enqueue(ReqToken(2), 0, 1, false, t0);
        let done = ch.drain_all();
        assert_eq!(done[0].0, ReqToken(2), "row hit must be served first");
        assert_eq!(done[1].0, ReqToken(1));
    }

    #[test]
    fn starvation_bound_eventually_wins() {
        let mut ch = hbm_channel();
        ch.enqueue(ReqToken(0), 0, 1, false, Picos::ZERO);
        let _ = ch.drain_all();
        let t0 = ch.now();
        // One old conflict plus a long run of young hits spread over time.
        ch.enqueue(ReqToken(100), 0, 2, false, t0);
        let mut arrivals = t0;
        for i in 0..200u64 {
            arrivals += Picos::from_ns(10);
            ch.enqueue(ReqToken(i), 0, 1, false, arrivals);
        }
        let done = ch.drain_all();
        let pos = done
            .iter()
            .position(|(t, _)| *t == ReqToken(100))
            .expect("served");
        assert!(
            pos < done.len() - 1,
            "starved conflict was served dead last"
        );
    }

    #[test]
    fn banks_overlap_but_bus_serializes() {
        // Two simultaneous requests to different banks: the second's data
        // follows the first's by one burst, not by a full access latency.
        let mut ch = hbm_channel();
        ch.enqueue(ReqToken(0), 0, 1, false, Picos::ZERO);
        ch.enqueue(ReqToken(1), 1, 1, false, Picos::ZERO);
        let done = ch.drain_all();
        let t = DramTiming::hbm();
        assert_eq!(done[1].1 - done[0].1, t.burst_time());
    }

    #[test]
    fn drain_until_respects_horizon() {
        let mut ch = hbm_channel();
        ch.enqueue(ReqToken(0), 0, 1, false, Picos::from_us(10));
        assert!(ch.drain_until(Picos::from_us(5)).is_empty());
        assert_eq!(ch.drain_until(Picos::from_us(20)).len(), 1);
    }

    #[test]
    fn write_recovery_delays_conflict() {
        let t = DramTiming::hbm();
        // Write then conflict: precharge must wait tWR after write data.
        let mut ch = Channel::new(t);
        ch.enqueue(ReqToken(0), 0, 1, true, Picos::ZERO);
        ch.enqueue(ReqToken(1), 0, 2, false, Picos::ZERO);
        let done_w = ch.drain_all();
        let write_end = done_w[0].1;
        let read_done = done_w[1].1;
        let floor = write_end + t.cycles(t.t_wr + t.t_rp + t.t_rcd + t.t_cas) + t.burst_time();
        assert!(read_done >= floor);
        // Same sequence with a read first completes sooner.
        let mut ch2 = Channel::new(t);
        ch2.enqueue(ReqToken(0), 0, 1, false, Picos::ZERO);
        ch2.enqueue(ReqToken(1), 0, 2, false, Picos::ZERO);
        let done_r = ch2.drain_all();
        assert!(done_r[1].1 < read_done);
    }

    #[test]
    fn stats_track_requests_and_latency() {
        let mut ch = hbm_channel();
        ch.enqueue(ReqToken(0), 0, 1, false, Picos::ZERO);
        ch.enqueue(ReqToken(1), 0, 1, true, Picos::ZERO);
        let _ = ch.drain_all();
        let s = ch.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.requests(), 2);
        assert!(s.total_latency > Picos::ZERO);
        assert!(s.row_hit_rate() > 0.0 && s.row_hit_rate() < 1.0);
        assert_eq!(s.busy_time, ch.timing().burst_time() * 2);
        assert_eq!(s.sched_decisions, 2);
        assert!(s.sched_scan_ops > 0);
        assert!(s.scans_per_decision() > 0.0);
    }

    #[test]
    fn precomputed_lead_converts_the_cycle_sum() {
        // DDR4-2400's 833.3 ps period rounds each conversion up, so the
        // pacing lead is one conversion of tRCD + tCAS, not the sum of two.
        let t = DramTiming::ddr4_2400();
        let ps = CyclePicos::new(&t);
        assert_eq!(ps.rcd + ps.cas, Picos(26_668));
        assert_eq!(ps.lead, Picos(26_667));
        assert_eq!(ps.lead, t.cycles(t.t_rcd + t.t_cas));
    }

    #[test]
    fn stats_merge_adds() {
        let mut a = ChannelStats {
            reads: 1,
            row_hits: 1,
            max_queue_depth: 3,
            sched_decisions: 1,
            sched_scan_ops: 4,
            ..Default::default()
        };
        let b = ChannelStats {
            writes: 2,
            row_misses: 2,
            max_queue_depth: 5,
            sched_decisions: 2,
            sched_scan_ops: 6,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.requests(), 3);
        assert_eq!(a.max_queue_depth, 5);
        assert_eq!(a.sched_decisions, 3);
        assert_eq!(a.sched_scan_ops, 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_bank_panics() {
        let mut ch = hbm_channel();
        ch.enqueue(ReqToken(0), 99, 0, false, Picos::ZERO);
    }

    #[test]
    fn refresh_closes_rows_and_blocks_banks() {
        let t = DramTiming::hbm(); // tREFI 7.8us, tRFC 350ns
        let mut ch = Channel::new(t);
        ch.enqueue(ReqToken(0), 0, 5, false, Picos::ZERO);
        let _ = ch.drain_all();
        // A request issued right after tREFI pays the refresh blackout and
        // re-opens its row (miss, not hit).
        let after = t.refresh_interval() + Picos::from_ns(1);
        ch.enqueue(ReqToken(1), 0, 5, false, after);
        let done = ch.drain_all();
        assert_eq!(ch.stats().refreshes, 1);
        assert_eq!(ch.stats().row_hits, 0, "row must be closed by refresh");
        let floor = t.refresh_interval() + t.refresh_time() + t.row_miss_floor();
        assert!(done[0].1 >= floor, "{} < {floor}", done[0].1);
    }

    #[test]
    fn refresh_fires_periodically() {
        let t = DramTiming::hbm();
        let mut ch = Channel::new(t);
        // Requests spread over ~5 refresh intervals.
        for i in 0..50u64 {
            ch.enqueue(ReqToken(i), 0, 1, false, t.refresh_interval() / 10 * i);
        }
        let _ = ch.drain_all();
        assert!(ch.stats().refreshes >= 4, "{}", ch.stats().refreshes);
    }

    #[test]
    fn refresh_catch_up_after_long_idle_gap_is_closed_form() {
        // Regression: the catch-up loop used to iterate once per elapsed
        // tREFI — a multi-second (let alone multi-hour) idle gap spun
        // millions of iterations at one decision point. The closed form
        // books the same refresh count and the same blackout instantly.
        let t = DramTiming::hbm();
        let mut ch = Channel::new(t);
        ch.enqueue(ReqToken(0), 0, 5, false, Picos::ZERO);
        let _ = ch.drain_all();
        // One hour of idle trace: ~461 million elapsed tREFI periods.
        let gap = Picos::from_ms(3_600_000);
        ch.enqueue(ReqToken(1), 0, 5, false, gap);
        let done = ch.drain_all();
        let expected = gap.as_ps() / t.refresh_interval().as_ps();
        assert_eq!(ch.stats().refreshes, expected);
        assert_eq!(ch.stats().row_hits, 0, "row must be closed by refresh");
        // The access pays the blackout of the *last* crossed boundary.
        let last = t.refresh_interval() * expected;
        assert!(done[0].1 >= last + t.refresh_time() + t.row_miss_floor());
        // The schedule resumes on the regular grid after the gap.
        ch.enqueue(ReqToken(2), 0, 5, false, ch.now());
        let _ = ch.drain_all();
        assert_eq!(ch.stats().refreshes, expected, "no spurious extra refresh");
    }

    #[test]
    fn injected_faults_perturb_timing_once_per_window_and_deterministically() {
        use mempod_faults::FaultPlan;
        use mempod_types::FaultConfig;

        let mut cfg = FaultConfig::quiet(123);
        cfg.channel_fault_ppm = 1_000_000; // every window fires
        let plan = FaultPlan::new(cfg);

        let drive = |ch: &mut Channel| {
            for i in 0..64u64 {
                let arrival = Picos::from_ns(200 * i);
                ch.enqueue(ReqToken(i), (i % 16) as u32, i % 4, i % 3 == 0, arrival);
            }
            ch.drain_all()
        };

        let mut clean = hbm_channel();
        let clean_done = drive(&mut clean);

        let mut faulty = hbm_channel();
        faulty.attach_faults(plan.channel_stream(0));
        // Re-attachment is a no-op: it must not reset the window cursor.
        faulty.attach_faults(plan.channel_stream(0));
        let faulty_done = drive(&mut faulty);

        // Faults perturb timing but never drop requests.
        assert_eq!(faulty_done.len(), clean_done.len());
        assert!(faulty.stats().faults_injected >= 1);
        assert!(faulty.stats().total_latency >= clean.stats().total_latency);
        // Each crossed window applies at most once.
        let windows = faulty.now().as_ps() / Picos::from_us(1).as_ps() + 1;
        assert!(faulty.stats().faults_injected <= windows);

        // A second identically-configured channel reproduces the run
        // bit-for-bit: the stream is a pure function of (seed, channel, slot).
        let mut replay = hbm_channel();
        replay.attach_faults(plan.channel_stream(0));
        let replay_done = drive(&mut replay);
        assert_eq!(replay_done, faulty_done);
        assert_eq!(replay.stats(), faulty.stats());
    }

    #[test]
    fn queue_order_independence_for_disjoint_banks() {
        // Service of equal-priority requests follows FCFS (seq order).
        let mut ch = hbm_channel();
        ch.enqueue(ReqToken(0), 3, 7, false, Picos::ZERO);
        ch.enqueue(ReqToken(1), 4, 7, false, Picos::ZERO);
        let done = ch.drain_all();
        assert_eq!(done[0].0, ReqToken(0));
    }

    /// A channel with row 1 open on bank 0 (bank 1 stays idle), and the
    /// instant it went idle.
    fn channel_with_open_row() -> (Channel, Picos) {
        let mut ch = hbm_channel();
        ch.enqueue(ReqToken(99), 0, 1, false, Picos::ZERO);
        let _ = ch.drain_all();
        let t0 = ch.now();
        (ch, t0)
    }

    /// The request `pick` grants at `decision` (left queued).
    fn granted(ch: &mut Channel, decision: Picos) -> Option<ReqToken> {
        ch.pick(decision)
            .map(|(class, pos)| ch.queues[class][pos].token)
    }

    #[test]
    fn a_starving_demand_miss_beats_older_and_younger_row_hits() {
        let (mut ch, t0) = channel_with_open_row();
        let ns = Picos::from_ns;
        ch.enqueue_with_priority(ReqToken(0), 0, 1, false, t0, Priority::Background);
        ch.enqueue(ReqToken(1), 1, 5, false, t0 + ns(1));
        ch.enqueue(ReqToken(2), 0, 1, false, t0 + ns(2));
        // Within the bound, the younger demand row hit goes first.
        assert_eq!(granted(&mut ch, t0 + ns(400)), Some(ReqToken(2)));
        // Past it, the oldest demand request wins outright.
        assert_eq!(granted(&mut ch, t0 + ns(502)), Some(ReqToken(1)));
    }

    #[test]
    fn a_starving_background_request_beats_a_demand_row_hit() {
        let (mut ch, t0) = channel_with_open_row();
        ch.enqueue_with_priority(ReqToken(0), 1, 5, false, t0, Priority::Background);
        ch.enqueue(ReqToken(1), 0, 1, false, t0 + Picos::from_us(2));
        assert_eq!(granted(&mut ch, t0 + Picos::from_us(2)), Some(ReqToken(1)));
        let starved = t0 + Picos::from_us(2) + Picos(1);
        assert_eq!(granted(&mut ch, starved), Some(ReqToken(0)));
    }

    #[test]
    fn a_request_that_has_not_arrived_is_skipped_at_the_front() {
        let (mut ch, t0) = channel_with_open_row();
        let ns = Picos::from_ns;
        for priority in [Priority::Background, Priority::Demand] {
            let class = 10 * priority.class() as u64;
            // Enqueued first, so at the front, but arriving last.
            ch.enqueue_with_priority(ReqToken(class), 1, 5, false, t0 + ns(100), priority);
            ch.enqueue_with_priority(ReqToken(class + 1), 1, 6, false, t0, priority);
            ch.enqueue_with_priority(ReqToken(class + 2), 1, 7, false, t0, priority);
            assert_eq!(granted(&mut ch, t0 + ns(50)), Some(ReqToken(class + 1)));
        }
        assert_eq!(granted(&mut ch, t0 + ns(100)), Some(ReqToken(0)));
    }

    #[test]
    fn a_demand_row_hit_behind_an_older_demand_miss_wins() {
        let (mut ch, t0) = channel_with_open_row();
        ch.enqueue(ReqToken(0), 1, 5, false, t0);
        ch.enqueue(ReqToken(1), 1, 6, false, t0);
        ch.enqueue(ReqToken(2), 0, 1, false, t0);
        assert_eq!(granted(&mut ch, t0), Some(ReqToken(2)));
        let done = ch.drain_all();
        let order: Vec<_> = done.iter().map(|&(token, _)| token.0).collect();
        assert_eq!(order, [2, 0, 1]);
    }

    #[test]
    fn a_background_row_hit_wins_only_while_no_demand_has_arrived() {
        let (mut ch, t0) = channel_with_open_row();
        let ns = Picos::from_ns;
        ch.enqueue_with_priority(ReqToken(0), 1, 5, false, t0, Priority::Background);
        ch.enqueue_with_priority(ReqToken(1), 0, 1, false, t0, Priority::Background);
        ch.enqueue(ReqToken(2), 1, 6, false, t0 + ns(100));
        assert_eq!(granted(&mut ch, t0 + ns(50)), Some(ReqToken(1)));
        // Once demand has arrived, even a demand miss outranks it.
        assert_eq!(granted(&mut ch, t0 + ns(100)), Some(ReqToken(2)));
    }

    #[test]
    fn granting_the_earliest_arrival_resweeps_the_cache() {
        let (mut ch, t0) = channel_with_open_row();
        let ns = Picos::from_ns;
        ch.enqueue(ReqToken(0), 1, 5, false, t0 + ns(10));
        ch.enqueue(ReqToken(1), 1, 6, false, t0);
        ch.enqueue(ReqToken(2), 1, 6, false, t0);
        ch.enqueue_with_priority(ReqToken(3), 1, 7, false, t0 + ns(5), Priority::Background);
        // Each drain to the next decision instant grants exactly one.
        let grant = |ch: &mut Channel| {
            let done = ch.drain_until(ch.next_decision());
            assert_eq!(done.len(), 1);
            done[0].0
        };
        assert_eq!(ch.min_arrival_cache(), ((t0, 2), (t0, 2)));
        // The first grant holds the earliest arrival, but shares it: the
        // count drops and nothing is swept.
        assert_eq!(grant(&mut ch), ReqToken(1));
        assert_eq!(ch.min_arrival_cache(), ((t0, 1), (t0, 1)));
        // The second empties it: the next earliest is in the other queue.
        assert_eq!(grant(&mut ch), ReqToken(2));
        assert_eq!(ch.min_arrival_cache(), ((t0 + ns(5), 1), (t0 + ns(5), 1)));
        // A later enqueue at the new earliest arrival joins its count.
        ch.enqueue(ReqToken(4), 1, 8, false, t0 + ns(5));
        assert_eq!(ch.min_arrival_cache(), ((t0 + ns(5), 2), (t0 + ns(5), 2)));
        let _ = ch.drain_all();
        assert_eq!(ch.min_arrival_cache(), ((Picos::MAX, 0), (Picos::MAX, 0)));
    }

    /// A deterministic xorshift stream for building request mixes.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    fn timing_variant(choice: u64) -> DramTiming {
        match choice % 3 {
            0 => DramTiming::hbm(),
            1 => DramTiming::ddr4_1600(),
            // A refresh-heavy variant so drains cross tREFI constantly.
            _ => DramTiming {
                t_refi: 200,
                t_rfc: 40,
                ..DramTiming::hbm()
            },
        }
    }

    fn mixed_priority(r: u64) -> Priority {
        if r & 24 == 0 {
            Priority::Background
        } else {
            Priority::Demand
        }
    }

    /// Batches of random requests, each followed by a drain to a random
    /// horizon, then a final full drain. Arrivals are at or after the last
    /// horizon (the enqueue contract) but deliberately not monotone in seq.
    fn random_schedule(
        ch: &mut Channel,
        seed: u64,
        batches: usize,
        per_batch: usize,
    ) -> Vec<(ReqToken, Picos)> {
        let banks = ch.timing().banks;
        let mut mix = Mix(seed | 1);
        let mut horizon = Picos::ZERO;
        let mut token = 0u64;
        let mut done = Vec::new();
        for _ in 0..batches {
            for _ in 0..per_batch {
                let r = mix.next();
                ch.enqueue_with_priority(
                    ReqToken(token),
                    (r >> 17) as u32 % banks,
                    (r >> 23) % 6,
                    r & 4 == 0,
                    horizon + Picos(r % 50_000),
                    mixed_priority(r),
                );
                token += 1;
            }
            horizon += Picos(mix.next() % 60_000);
            done.extend(ch.drain_until(horizon));
        }
        done.extend(ch.drain_all());
        done
    }

    /// Bursts deeper than `4 · banks` entries, each drained away in short
    /// steps before the next burst lands.
    fn burst_schedule(ch: &mut Channel, seed: u64, bursts: usize) -> Vec<(ReqToken, Picos)> {
        let banks = ch.timing().banks;
        let mut mix = Mix(seed | 1);
        let mut token = 0u64;
        let mut done = Vec::new();
        for _ in 0..bursts {
            let start = ch.now();
            let depth = 4 * usize_from_u32(banks) + 1 + (mix.next() % 96) as usize;
            for _ in 0..depth {
                let r = mix.next();
                ch.enqueue_with_priority(
                    ReqToken(token),
                    (r >> 17) as u32 % banks,
                    (r >> 23) % 6,
                    r & 4 == 0,
                    start + Picos(r % 20_000),
                    mixed_priority(r),
                );
                token += 1;
            }
            let mut horizon = start;
            while ch.pending() > 0 {
                horizon += Picos(5_000 + mix.next() % 20_000);
                done.extend(ch.drain_until(horizon));
            }
        }
        done
    }

    /// A migration storm: 64 page swaps of 64 lines each (two page images
    /// per swap) flood the queue while demand traffic trickles in, ≥ 4k
    /// outstanding at peak.
    fn storm_schedule(ch: &mut Channel) -> Vec<(ReqToken, Picos)> {
        let mut mix = Mix(0xC0FFEE);
        let mut token = 0u64;
        for swap in 0..64u64 {
            let at = Picos::from_ns(swap * 10);
            for line in 0..64u64 {
                let r = mix.next();
                ch.enqueue_with_priority(
                    ReqToken(token),
                    (r % 16) as u32,
                    swap % 7,
                    line % 2 == 0,
                    at,
                    Priority::Background,
                );
                token += 1;
            }
            // Demand showing up during the burst.
            let r = mix.next();
            ch.enqueue_with_priority(
                ReqToken(token),
                (r % 16) as u32,
                r % 5,
                false,
                at,
                Priority::Demand,
            );
            token += 1;
        }
        ch.drain_all()
    }

    /// FNV-1a over the `(token, completion)` stream and the channel
    /// statistics with the scan-work counter zeroed: the digest pins every
    /// scheduling decision but not how much work finding it took.
    fn decision_digest(done: &[(ReqToken, Picos)], stats: &ChannelStats) -> String {
        let stats = ChannelStats {
            sched_scan_ops: 0,
            ..*stats
        };
        let stream = done
            .iter()
            .flat_map(|(token, at)| [token.0, at.as_ps()])
            .flat_map(u64::to_le_bytes);
        let hash = stream
            .chain(format!("{stats:?}").into_bytes())
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        format!("{hash:016x}")
    }

    /// Runs `schedule` on a fresh channel and returns the decision digest
    /// and the channel's statistics.
    fn pinned_run(
        timing: DramTiming,
        schedule: impl Fn(&mut Channel) -> Vec<(ReqToken, Picos)>,
    ) -> (String, ChannelStats) {
        let mut ch = Channel::new(timing);
        let done = schedule(&mut ch);
        assert_eq!(ch.pending(), 0);
        (decision_digest(&done, ch.stats()), *ch.stats())
    }

    /// `(label, decision digest)` for deep-queue schedules. Generated
    /// while an indexed and a reference flat-scan scheduler still agreed
    /// on every decision; any scheduler change must reproduce it exactly.
    const PINNED_DECISIONS: &[(&str, &str)] = &[
        ("storm", "8806916946396739"),
        ("bursts seed 7 hbm", "82597b366093fbf8"),
        ("random seed 1 variant 0", "b73071dfe04fe8d4"),
        ("random seed 2 variant 1", "9de2f4e2d0273ee7"),
        ("random seed 3 variant 2", "c1a6dee7f8405e78"),
        ("random seed 4 variant 0", "aef27efe2a5c349d"),
        ("random seed 5 variant 1", "43891d397f12c0e7"),
        ("random seed 6 variant 2", "41b374a0bb1db4e0"),
    ];

    #[test]
    fn deep_queue_decisions_match_their_pinned_digests() {
        let mut got = Vec::new();
        let (digest, stats) = pinned_run(DramTiming::hbm(), storm_schedule);
        assert!(
            stats.max_queue_depth >= 4096,
            "storm must go ≥4k deep, got {}",
            stats.max_queue_depth
        );
        // The depth probe only observes: with it attached, the storm makes
        // the same decisions.
        let (probed, _) = pinned_run(DramTiming::hbm(), |ch| {
            ch.attach_probe();
            storm_schedule(ch)
        });
        assert_eq!(probed, digest, "the probe must not perturb scheduling");
        got.push(("storm".to_string(), digest));
        let (digest, _) = pinned_run(DramTiming::hbm(), |ch| burst_schedule(ch, 7, 5));
        got.push(("bursts seed 7 hbm".to_string(), digest));
        for (seed, variant, batches, per_batch) in [
            (1, 0, 7, 119),
            (2, 1, 7, 110),
            (3, 2, 6, 100),
            (4, 0, 4, 60),
            (5, 1, 5, 90),
            (6, 2, 3, 40),
        ] {
            let (digest, _) = pinned_run(timing_variant(variant), |ch| {
                random_schedule(ch, seed, batches, per_batch)
            });
            got.push((format!("random seed {seed} variant {variant}"), digest));
        }
        let table: String = got
            .iter()
            .map(|(label, d)| format!("        ({label:?}, {d:?}),\n"))
            .collect();
        let matches = got.len() == PINNED_DECISIONS.len()
            && got
                .iter()
                .zip(PINNED_DECISIONS)
                .all(|((label, d), want)| (label.as_str(), d.as_str()) == *want);
        assert!(matches, "scheduling decisions changed; measured:\n{table}");
    }

    /// How the differential schedule queues a background run and drains.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Way {
        /// `k` one-line entries enqueued back to back, drained decision by
        /// decision.
        Lines,
        /// One `k`-line entry, drained decision by decision.
        Runs,
        /// One `k`-line entry, drained through `drain_until`.
        RunsDrained,
    }

    /// What a differential schedule observed: every serviced line as
    /// `(run, line, completion)` in service order (not kept for
    /// `RunsDrained`), each run's completion as `(run, completion)` in
    /// completion order, the longest arrival-to-completion wait, and the
    /// channel's statistics and probe.
    #[derive(Debug, Default, PartialEq)]
    struct RunLog {
        lines: Vec<(u64, u16, Picos)>,
        done: Vec<(u64, Picos)>,
        longest_wait: Picos,
        stats: ChannelStats,
        probe: ChannelProbe,
    }

    /// Batches of demand requests and background runs of 1–32 same-row
    /// lines (one kind, one arrival), each batch drained to a random
    /// horizon, then a final full drain. The batches outpace the horizons,
    /// so the queue runs deep and both starvation bounds fire.
    fn run_schedule(timing: DramTiming, seed: u64, way: Way) -> RunLog {
        let mut ch = Channel::new(timing);
        ch.attach_probe();
        let banks = timing.banks;
        let mut mix = Mix(seed | 1);
        let mut log = RunLog::default();
        // Each run's length and arrival, by run id.
        let mut runs: Vec<(u16, Picos)> = Vec::new();
        let drain = |ch: &mut Channel, until: Picos, runs: &[(u16, Picos)], log: &mut RunLog| {
            let finish = |log: &mut RunLog, run: u64, at: Picos| {
                log.done.push((run, at));
                let arrival = runs[usize_from_u64(run)].1;
                log.longest_wait = log.longest_wait.max(at - arrival);
            };
            if way == Way::RunsDrained {
                for (token, at) in ch.drain_until(until) {
                    finish(log, token.0, at);
                }
                return;
            }
            while let Some(s) = ch.decide(until) {
                let (run, line) = match way {
                    Way::Lines => (s.token.0 / 64, (s.token.0 % 64) as u16),
                    _ => (s.token.0, runs[usize_from_u64(s.token.0)].0 - 1 - s.left),
                };
                log.lines.push((run, line, s.completion));
                if line == runs[usize_from_u64(run)].0 - 1 {
                    finish(log, run, s.completion);
                }
            }
        };
        let mut horizon = Picos::ZERO;
        for _ in 0..40 {
            for _ in 0..mix.next() % 12 {
                let r = mix.next();
                let (priority, lines) = if r & 3 == 0 {
                    (Priority::Demand, 1)
                } else {
                    (Priority::Background, 1 + (r >> 40) % 32)
                };
                let run = RowRun {
                    bank: (r >> 17) as u32 % banks,
                    row: (r >> 23) % 6,
                    lines: lines as u16,
                    is_write: r & 4 == 0,
                };
                let arrival = horizon + Picos(r % 50_000);
                let id = u64_from_usize(runs.len());
                runs.push((run.lines, arrival));
                if way == Way::Lines {
                    for line in 0..lines {
                        let one = RowRun { lines: 1, ..run };
                        ch.enqueue_run(ReqToken(id * 64 + line), one, arrival, priority);
                    }
                } else {
                    ch.enqueue_run(ReqToken(id), run, arrival, priority);
                }
            }
            horizon += Picos(mix.next() % 80_000);
            drain(&mut ch, horizon, &runs, &mut log);
        }
        drain(&mut ch, Picos::MAX, &runs, &mut log);
        assert_eq!((ch.pending(), ch.entries()), (0, 0));
        assert_eq!(log.done.len(), runs.len(), "every run completes once");
        log.stats = *ch.stats();
        log.probe = ch.probe().cloned().unwrap_or_default();
        log
    }

    #[test]
    fn a_run_schedules_exactly_as_its_lines_queued_one_by_one() {
        for seed in 1..=9u64 {
            let timing = timing_variant(seed);
            let lines = run_schedule(timing, seed, Way::Lines);
            assert!(
                lines.longest_wait > BACKGROUND_STARVATION_BOUND,
                "seed {seed}: the queue must starve someone"
            );
            assert!(
                lines.stats.row_conflicts > 0,
                "seed {seed}: no row conflict"
            );
            assert_eq!(
                run_schedule(timing, seed, Way::Runs),
                lines,
                "seed {seed}: runs vs lines"
            );
            let drained = run_schedule(timing, seed, Way::RunsDrained);
            assert_eq!(
                (&drained.done, drained.stats, &drained.probe),
                (&lines.done, lines.stats, &lines.probe),
                "seed {seed}: drained runs vs lines"
            );
        }
    }

    #[test]
    fn a_run_is_one_entry_until_its_last_line() {
        let mut ch = hbm_channel();
        let run = RowRun {
            bank: 3,
            row: 7,
            lines: 32,
            is_write: false,
        };
        ch.enqueue_run(ReqToken(5), run, Picos::ZERO, Priority::Background);
        assert_eq!((ch.pending(), ch.entries()), (32, 1));
        assert_eq!(ch.stats().max_queue_depth, 32);
        let mut serviced = Vec::new();
        while let Some(s) = ch.decide(Picos::MAX) {
            serviced.push(s);
            assert_eq!(
                (ch.pending(), ch.entries()),
                (usize::from(s.left), usize::from(s.left > 0))
            );
        }
        assert_eq!(serviced.len(), 32);
        assert!(serviced
            .windows(2)
            .all(|w| w[0].completion < w[1].completion));
        assert_eq!(ch.stats().row_hits, 31);
        assert_eq!(ch.min_arrival_cache(), ((Picos::MAX, 0), (Picos::MAX, 0)));
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    fn time_audit_is_clean_on_live_queue() {
        let mut auditor = mempod_audit::InvariantAuditor::every_epoch("sched");
        let mut ch = hbm_channel();
        for i in 0..100u64 {
            ch.enqueue_with_priority(
                ReqToken(i),
                (i % 16) as u32,
                i % 8,
                i % 3 == 0,
                Picos::from_ns(10 * i),
                if i % 4 == 0 {
                    Priority::Background
                } else {
                    Priority::Demand
                },
            );
        }
        let _ = ch.drain_until(Picos::from_ns(400));
        assert!(ch.pending() > 0, "the audit must see a live queue");
        ch.audit_time(&mut auditor);
        auditor.assert_clean();
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    fn time_audit_flags_a_stale_min_arrival() {
        let audit = |ch: &Channel| {
            let mut auditor = mempod_audit::InvariantAuditor::every_epoch("sched");
            ch.audit_time(&mut auditor);
            auditor.violations().to_vec()
        };
        let mut ch = hbm_channel();
        ch.enqueue(ReqToken(0), 0, 1, false, Picos::from_ns(50));
        ch.enqueue(ReqToken(1), 1, 1, false, Picos::from_ns(20));
        assert!(audit(&ch).is_empty());
        // A cache above the true minimum would delay the next decision.
        ch.min_arrival = Picos::from_ns(50);
        let found = audit(&ch);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("[channel-min-arrival]"), "{found:?}");
        // An emptied queue must cache `MAX`, not its last arrival.
        let _ = ch.drain_all();
        assert!(audit(&ch).is_empty());
        ch.min_arrival = Picos::from_ns(20);
        assert!(audit(&ch)[0].contains("[channel-min-arrival]"));
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    fn time_audit_flags_a_stale_min_count_on_a_run() {
        let audit = |ch: &Channel| {
            let mut auditor = mempod_audit::InvariantAuditor::every_epoch("sched");
            ch.audit_time(&mut auditor);
            auditor.violations().to_vec()
        };
        let mut ch = hbm_channel();
        let at = Picos::from_ns(20);
        let run = RowRun {
            bank: 0,
            row: 1,
            lines: 32,
            is_write: false,
        };
        ch.enqueue_run(ReqToken(0), run, at, Priority::Background);
        ch.enqueue(ReqToken(1), 1, 1, false, Picos::from_us(5));
        assert!(audit(&ch).is_empty());
        // The count is of entries: counting the run's lines would never
        // re-sweep once the run leaves, so the cached arrival goes stale.
        ch.min_count = 32;
        let found = audit(&ch);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("[channel-min-arrival]"), "{found:?}");
        assert!(found[0].contains("held by 1"), "{found:?}");
        // Servicing all but the run's last line leaves the cache as it was.
        ch.min_count = 1;
        for _ in 0..31 {
            assert_eq!(
                ch.decide(Picos::from_us(1)).map(|s| s.token),
                Some(ReqToken(0))
            );
        }
        assert_eq!((ch.pending(), ch.entries()), (2, 2));
        assert!(audit(&ch).is_empty());
        ch.min_count = 2;
        assert!(audit(&ch)[0].contains("[channel-min-arrival]"));
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    fn time_audit_flags_a_stale_min_count() {
        let audit = |ch: &Channel| {
            let mut auditor = mempod_audit::InvariantAuditor::every_epoch("sched");
            ch.audit_time(&mut auditor);
            auditor.violations().to_vec()
        };
        let mut ch = hbm_channel();
        let at = Picos::from_ns(20);
        ch.enqueue(ReqToken(0), 0, 1, false, at);
        ch.enqueue_with_priority(ReqToken(1), 1, 1, false, at, Priority::Background);
        ch.enqueue(ReqToken(2), 2, 1, false, Picos::from_ns(50));
        assert!(audit(&ch).is_empty());
        // Too low a count re-sweeps while the arrival is still held; too
        // high a one never re-sweeps, so the cached arrival goes stale.
        for stale in [1, 3] {
            ch.min_count = stale;
            let found = audit(&ch);
            assert_eq!(found.len(), 1, "{found:?}");
            assert!(found[0].contains("[channel-min-arrival]"), "{found:?}");
            assert!(found[0].contains("held by 2"), "{found:?}");
        }
        // An emptied queue must count 0.
        ch.min_count = 2;
        let _ = ch.drain_all();
        assert!(audit(&ch).is_empty());
        ch.min_count = 1;
        assert!(audit(&ch)[0].contains("[channel-min-arrival]"));
    }
}
