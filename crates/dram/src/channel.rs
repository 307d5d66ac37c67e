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
//! Every queued request lives in a dense seq-indexed window (its slot is
//! `seq - window_base`), giving O(1) lookup and removal, and a min-heap
//! over (arrival, seq) caches the **arrival frontier**: the earliest
//! queued arrival, maintained incrementally with lazy deletion instead of
//! re-swept per decision.
//!
//! A decision scans the window flat while it spans at most twice the
//! sub-queue count (`4 · banks` entries; the common case — the simulator's
//! migration lanes keep queues shallower than that in every benchmark
//! workload and committed experiment). Past that it uses **indexed
//! per-(priority, bank) sub-queues** (the Ramulator organization): each
//! keeps its live seqs in an ordered set — iteration order **is** FCFS
//! order — plus a per-row index, so the oldest candidate and the oldest
//! row-hit candidate per bank come from the head region of each structure.
//! With arrivals monotone in seq that is O(banks · log depth) per
//! decision; requests at a sub-queue head that have not arrived yet are
//! stepped over, so the worst case stays O(depth).
//!
//! The index is **lazy**: it is built from the window the first time a
//! decision needs it, kept in step with every enqueue and service while
//! it exists, and dropped once the window shrinks to half the threshold,
//! so shallow queues pay nothing for it and a queue hovering at the
//! threshold does not rebuild on every decision.
//!
//! Decisions are **bit-identical** to the original flat O(depth) scan,
//! which is retained as [`Channel::set_reference_mode`] under
//! `#[cfg(any(test, feature = "reference-sched"))]` and differential-tested
//! against the indexed path (see the `differential` test module and
//! `bench_sched`).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};

use mempod_faults::ChannelFaultStream;
use mempod_telemetry::Log2Histogram;
use mempod_types::convert::usize_from_u32;
use mempod_types::{ChannelFaultKind, Picos};
use serde::{Deserialize, Serialize};

use crate::timing::DramTiming;

/// Opaque per-request token assigned by the caller, echoed at completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// Foreground CPU traffic (and metadata fetches gating it).
    Demand,
    /// Migration reads/writes.
    Background,
}

impl Priority {
    /// Sub-queue class index: demand sub-queues first, then background.
    fn class(self) -> usize {
        match self {
            Priority::Demand => 0,
            Priority::Background => 1,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    token: ReqToken,
    arrival: Picos,
    bank: u32,
    row: u64,
    is_write: bool,
    priority: Priority,
    /// Issue order: FCFS age for the flat-scan pick, and the key the
    /// sub-queue index files the request under.
    seq: u64,
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

/// One (priority, bank) sub-queue: live seqs in issue order plus a per-row
/// index for the FR-FCFS row-hit candidate.
#[derive(Debug, Clone, Default, PartialEq)]
struct SubQueue {
    /// Live sequence numbers; ascending iteration = FCFS order.
    seqs: BTreeSet<u64>,
    /// row → live seqs targeting that row (ascending). Entries are removed
    /// eagerly on service, so no tombstones accumulate.
    by_row: HashMap<u64, BTreeSet<u64>>,
}

/// Row-buffer outcome classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowOutcome {
    Hit,
    Miss,
    Conflict,
}

/// Aggregated channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
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
    #[serde(default)]
    pub sched_decisions: u64,
    /// Queue entries examined across all scheduling decisions — the
    /// scheduler's work metric: the live entries of the window for a flat
    /// scan, O(banks) probes for an indexed decision.
    #[serde(default)]
    pub sched_scan_ops: u64,
    /// Injected channel faults applied (at most one per fault window; 0
    /// unless a fault stream is attached).
    #[serde(default)]
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

    /// Mean request latency in picoseconds.
    pub fn mean_latency_ps(&self) -> f64 {
        let n = self.requests();
        if n == 0 {
            0.0
        } else {
            self.total_latency.as_ps() as f64 / n as f64
        }
    }

    /// Mean queue entries examined per scheduling decision.
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
    banks: Vec<Bank>,
    /// Dense seq-indexed storage: slot `i` holds seq `window_base + i`
    /// (`None` once serviced). The front is trimmed as it empties.
    window: VecDeque<Option<Queued>>,
    /// Seq of `window[0]`.
    window_base: u64,
    /// Live (queued, unserviced) request count.
    queued: usize,
    /// The sub-queue index: `2 * banks` sub-queues, demand per bank, then
    /// background per bank. `None` while the queue is shallow: [`pick`]
    /// builds it from the window when the window first spans more than
    /// twice the sub-queue count, and [`take`] drops it once the window
    /// is back to the sub-queue count or less.
    ///
    /// [`pick`]: Channel::pick
    /// [`take`]: Channel::take
    index: Option<Vec<SubQueue>>,
    /// Arrival frontier: min-heap over (arrival, seq) with lazy deletion —
    /// stale tops (already-serviced seqs) are popped on peek.
    arrival_heap: BinaryHeap<Reverse<(Picos, u64)>>,
    bus_free_at: Picos,
    now: Picos,
    next_refresh: Picos,
    next_seq: u64,
    stats: ChannelStats,
    /// The last scheduling-decision instant (for the monotonic-time audit;
    /// only maintained when `debug-invariants` is on).
    last_decision: Picos,
    /// Scheduling decisions observed at an earlier instant than their
    /// predecessor — must stay zero; the event loop only moves forward.
    decision_regressions: u64,
    /// Drain iterations that observed an arrived frontier but failed to
    /// pick or pop a request — must stay zero; a non-zero count means the
    /// scheduler abandoned queued work instead of servicing it.
    abandoned_picks: u64,
    /// Runtime switch to the retained flat-scan reference scheduler, for
    /// differential tests and the `bench_sched` comparison.
    #[cfg(any(test, feature = "reference-sched"))]
    reference_mode: bool,
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
            window: VecDeque::new(),
            window_base: 0,
            queued: 0,
            index: None,
            arrival_heap: BinaryHeap::new(),
            timing,
            bus_free_at: Picos::ZERO,
            now: Picos::ZERO,
            next_seq: 0,
            stats: ChannelStats::default(),
            last_decision: Picos::ZERO,
            decision_regressions: 0,
            abandoned_picks: 0,
            #[cfg(any(test, feature = "reference-sched"))]
            reference_mode: false,
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

    /// Requests currently queued (not yet serviced).
    pub fn pending(&self) -> usize {
        self.queued
    }

    /// The channel-local current time (end of the last scheduled burst or
    /// the last drain horizon, whichever is later).
    pub fn now(&self) -> Picos {
        self.now
    }

    /// Switches this channel to the retained flat-scan reference scheduler
    /// (the original O(depth²) drain path). Scheduling decisions are
    /// bit-identical in both modes; only the work per decision differs.
    #[cfg(any(test, feature = "reference-sched"))]
    pub fn set_reference_mode(&mut self, on: bool) {
        self.reference_mode = on;
    }

    /// The sub-queue index of a (priority, bank) pair.
    fn sub_index(&self, priority: Priority, bank: u32) -> usize {
        priority.class() * self.banks.len() + bank as usize
    }

    /// Number of (priority, bank) sub-queues.
    fn sub_count(&self) -> usize {
        2 * self.banks.len()
    }

    /// A sub-queue index over the live window, as enqueue and service
    /// would have maintained it. Each set is bulk-built from a sorted run
    /// rather than filled one insert at a time.
    fn build_index(&self) -> Vec<SubQueue> {
        let mut runs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.sub_count()];
        for q in self.window.iter().flatten() {
            runs[self.sub_index(q.priority, q.bank)].push((q.row, q.seq));
        }
        runs.into_iter()
            .map(|mut run| {
                // The window yields ascending seqs, so each run already is.
                let seqs = run.iter().map(|&(_, seq)| seq).collect();
                run.sort_unstable();
                let mut by_row = HashMap::new();
                for group in run.chunk_by(|a, b| a.0 == b.0) {
                    if let Some(&(row, _)) = group.first() {
                        by_row.insert(row, group.iter().map(|&(_, seq)| seq).collect());
                    }
                }
                SubQueue { seqs, by_row }
            })
            .collect()
    }

    /// The queued request with sequence number `seq`, if still live.
    fn peek(&self, seq: u64) -> Option<&Queued> {
        let off = seq.checked_sub(self.window_base)?;
        self.window.get(usize::try_from(off).ok()?)?.as_ref()
    }

    /// Removes and returns request `seq` from every index structure.
    fn take(&mut self, seq: u64) -> Option<Queued> {
        let off = usize::try_from(seq.checked_sub(self.window_base)?).ok()?;
        let q = self.window.get_mut(off)?.take()?;
        self.queued -= 1;
        let idx = self.sub_index(q.priority, q.bank);
        if let Some(subs) = self.index.as_mut() {
            let sub = &mut subs[idx];
            sub.seqs.remove(&seq);
            if let Some(rows) = sub.by_row.get_mut(&q.row) {
                rows.remove(&seq);
                if rows.is_empty() {
                    sub.by_row.remove(&q.row);
                }
            }
        }
        // Trim the serviced prefix so the window tracks the live span.
        while matches!(self.window.front(), Some(None)) {
            self.window.pop_front();
            self.window_base += 1;
        }
        // Half the build threshold: a queue hovering near the threshold
        // keeps its index instead of rebuilding it every decision.
        if self.window.len() <= self.sub_count() {
            self.index = None;
        }
        Some(q)
    }

    /// The cached arrival frontier: the earliest arrival among queued
    /// requests, from the lazy-deletion heap. `None` when the queue is
    /// empty. Amortized O(log depth): every heap entry is popped at most
    /// once over its lifetime.
    fn frontier_arrival(&mut self) -> Option<Picos> {
        while let Some(&Reverse((arrival, seq))) = self.arrival_heap.peek() {
            if self.peek(seq).is_some() {
                return Some(arrival);
            }
            self.arrival_heap.pop();
        }
        None
    }

    /// The earliest queued arrival, per the active scheduler mode. The
    /// reference mode re-sweeps the whole queue like the original
    /// implementation did; the indexed mode consults the frontier heap.
    fn min_arrival(&mut self) -> Option<Picos> {
        #[cfg(any(test, feature = "reference-sched"))]
        if self.reference_mode {
            let mut scan_ops = 0u64;
            let min = self
                .window
                .iter()
                .flatten()
                .map(|q| {
                    scan_ops += 1;
                    q.arrival
                })
                .min();
            self.stats.sched_scan_ops += scan_ops;
            return min;
        }
        self.frontier_arrival()
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
        assert!(
            (bank as usize) < self.banks.len(),
            "bank {bank} out of range"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert_eq!(seq, self.window_base + self.window.len() as u64);
        self.window.push_back(Some(Queued {
            token,
            arrival,
            bank,
            row,
            is_write,
            priority,
            seq,
        }));
        self.queued += 1;
        self.arrival_heap.push(Reverse((arrival, seq)));
        let idx = self.sub_index(priority, bank);
        if let Some(subs) = self.index.as_mut() {
            subs[idx].seqs.insert(seq);
            subs[idx].by_row.entry(row).or_default().insert(seq);
        }
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queued);
    }

    /// Services queued requests whose schedule fits before `until`, returning
    /// `(token, completion_time)` pairs in service order.
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
        let lead = self.timing.cycles(self.timing.t_rcd + self.timing.t_cas);
        // On empty queue, stop and leave `now` untouched: channels are
        // reused across epoch boundaries (drain, migrate, continue) and a
        // poisoned horizon would push later requests into the far future.
        while let Some(min_arrival) = self.min_arrival() {
            let decision = self
                .now
                .max(min_arrival)
                .max(self.bus_free_at.saturating_sub(lead));
            if decision > until {
                break;
            }
            // All-bank refresh: when the decision point crosses tREFI, every
            // bank loses its open row and is blocked until the blackout ends
            // (enforced through bank.ready_at; the pick below proceeds, its
            // timing pays the blackout).
            if decision >= self.next_refresh {
                self.fast_forward_refresh(decision);
            }
            // Injected channel faults perturb the state once per fired
            // fault window, at the window's first scheduling decision —
            // shared by the indexed and reference pick paths, so the two
            // schedulers stay bit-identical under faults too.
            if self.faults.is_some() {
                self.apply_fault_window(decision);
            }
            // `min_arrival <= decision` guarantees at least one arrived
            // request, so `pick` finds a candidate; the `else` arms are
            // unreachable, but if the invariant ever breaks they count the
            // abandoned work (reported through the invariant auditor under
            // `debug-invariants`) instead of dropping it silently.
            if cfg!(feature = "debug-invariants") {
                if decision < self.last_decision {
                    self.decision_regressions += 1;
                }
                self.last_decision = decision;
            }
            let Some(seq) = self.pick_dispatch(decision) else {
                self.abandoned_picks += 1;
                break;
            };
            let Some(q) = self.take(seq) else {
                self.abandoned_picks += 1;
                break;
            };
            self.stats.sched_decisions += 1;
            if let Some(p) = self.probe.as_deref_mut() {
                // `take` already removed the granted request; +1 restores
                // the depth the scheduler actually chose from.
                p.depth.record(self.queued as u64 + 1);
            }
            let completion = self.service(&q, decision);
            on_done(q.token, completion);
        }
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
        if self.queued > 0 {
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
                if self.queued > 0 {
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
    /// pickable despite an arrived frontier (must be 0).
    pub fn abandoned_picks(&self) -> u64 {
        self.abandoned_picks
    }

    /// States the channel's monotonic simulated-time invariant against
    /// `auditor`: the event loop's scheduling decisions never regress.
    #[cfg(feature = "debug-invariants")]
    pub fn audit_time(&self, auditor: &mut mempod_audit::InvariantAuditor) {
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

    /// States the scheduler's structural invariants against `auditor`:
    /// live-count conservation between the window and the counter, an
    /// index (when one exists) that matches a rebuild from the window
    /// exactly, and agreement between the cached arrival frontier and a
    /// full queue sweep.
    #[cfg(feature = "debug-invariants")]
    pub fn audit_sched(&self, auditor: &mut mempod_audit::InvariantAuditor) {
        let live = self.window.iter().flatten().count();
        auditor.check_conserved(
            "channel window live count vs queued counter",
            self.queued as u64,
            live as u64,
        );
        if let Some(subs) = &self.index {
            let rebuilt = self.build_index();
            auditor.check_conserved(
                "channel sub-queue count",
                rebuilt.len() as u64,
                subs.len() as u64,
            );
            for (i, (have, want)) in subs.iter().zip(&rebuilt).enumerate() {
                auditor.observe(have == want, || {
                    format!(
                        "channel sub-queue {i} ({} seqs, {} rows) differs from \
                         a rebuild from the window ({} seqs, {} rows)",
                        have.seqs.len(),
                        have.by_row.len(),
                        want.seqs.len(),
                        want.by_row.len()
                    )
                });
            }
        }
        // Frontier consistency: the heap's best live entry must equal the
        // true minimum arrival, and every live request must be covered.
        let swept = self.window.iter().flatten().map(|q| q.arrival).min();
        let cached = self
            .arrival_heap
            .iter()
            .filter(|Reverse((_, seq))| self.peek(*seq).is_some())
            .map(|Reverse((arrival, _))| *arrival)
            .min();
        auditor.observe(swept == cached, || {
            format!("arrival frontier cache {cached:?} != queue sweep {swept:?}")
        });
    }

    /// Dispatches to the active scheduler implementation.
    fn pick_dispatch(&mut self, decision: Picos) -> Option<u64> {
        #[cfg(any(test, feature = "reference-sched"))]
        if self.reference_mode {
            return self.pick_reference(decision);
        }
        self.pick(decision)
    }

    /// Scheduling pick among requests that have arrived by `decision`:
    /// starving requests first (demand bound 500 ns, background bound
    /// 2 µs), then FR-FCFS within the demand class, then FR-FCFS among
    /// background. `None` only if no queued request has arrived yet.
    ///
    /// While the window spans at most twice the sub-queue count (the
    /// common case), a flat scan is cheaper than touching every
    /// (priority, bank) structure, so the pick is [`pick_flat`]. Deeper
    /// windows use the sub-queue index, built here on first need. The
    /// pick is a scan-order-independent min-seq competition, so both
    /// paths select the same request.
    ///
    /// [`pick_flat`]: Channel::pick_flat
    fn pick(&mut self, decision: Picos) -> Option<u64> {
        if self.window.len() <= 2 * self.sub_count() {
            return self.pick_flat(decision);
        }
        let index = match self.index.take() {
            Some(index) => index,
            None => self.build_index(),
        };
        let picked = self.pick_indexed(&index, decision);
        self.index = Some(index);
        picked
    }

    /// The indexed pick over `subs`. Per class, the FCFS-oldest candidate
    /// is the first arrived seq of each bank's sub-queue (iteration is
    /// seq-ordered, pruned once it passes the best seq found so far), and
    /// the row-hit candidate comes from the open row's per-row index the
    /// same way — O(banks) probes at the head regions in the common
    /// monotone-arrival case, never a full queue scan.
    fn pick_indexed(&mut self, subs: &[SubQueue], decision: Picos) -> Option<u64> {
        let nbanks = self.banks.len();
        let mut scan_ops = 0u64;
        // Per class: (seq, arrival) of the FCFS-oldest arrived request.
        let mut oldest: [Option<(u64, Picos)>; 2] = [None, None];
        // Per class: seq of the FCFS-oldest arrived row hit.
        let mut hit: [Option<u64>; 2] = [None, None];
        for (class, (oldest, hit)) in oldest.iter_mut().zip(hit.iter_mut()).enumerate() {
            for bank in 0..nbanks {
                let sub = &subs[class * nbanks + bank];
                for &seq in &sub.seqs {
                    scan_ops += 1;
                    if oldest.is_some_and(|(best, _)| seq >= best) {
                        break;
                    }
                    if let Some(q) = self.peek(seq) {
                        if q.arrival <= decision {
                            *oldest = Some((seq, q.arrival));
                            break;
                        }
                    }
                }
                let Some(row) = self.banks[bank].open_row else {
                    continue;
                };
                let Some(rows) = sub.by_row.get(&row) else {
                    continue;
                };
                for &seq in rows {
                    scan_ops += 1;
                    if hit.is_some_and(|best| seq >= best) {
                        break;
                    }
                    if let Some(q) = self.peek(seq) {
                        if q.arrival <= decision {
                            *hit = Some(seq);
                            break;
                        }
                    }
                }
            }
        }
        self.stats.sched_scan_ops += scan_ops;
        if let Some((seq, arrival)) = oldest[0] {
            if decision.saturating_sub(arrival) > DEMAND_STARVATION_BOUND {
                return Some(seq);
            }
        }
        if let Some((seq, arrival)) = oldest[1] {
            if decision.saturating_sub(arrival) > BACKGROUND_STARVATION_BOUND {
                return Some(seq);
            }
        }
        hit[0]
            .or(oldest[0].map(|(seq, _)| seq))
            .or(hit[1])
            .or(oldest[1].map(|(seq, _)| seq))
    }

    /// The retained reference scheduler, used for every decision in
    /// reference mode.
    #[cfg(any(test, feature = "reference-sched"))]
    fn pick_reference(&mut self, decision: Picos) -> Option<u64> {
        self.pick_flat(decision)
    }

    /// The original flat scan over every queued request. Selection depends
    /// only on seq comparisons, so its decisions are independent of scan
    /// order: it serves both as the oracle [`pick`](Channel::pick) is
    /// differential-tested against and as its shallow-queue path.
    fn pick_flat(&mut self, decision: Picos) -> Option<u64> {
        let mut oldest_demand: Option<&Queued> = None;
        let mut hit_demand: Option<&Queued> = None;
        let mut oldest_bg: Option<&Queued> = None;
        let mut hit_bg: Option<&Queued> = None;
        let mut scan_ops = 0u64;
        for q in self.window.iter().flatten() {
            scan_ops += 1;
            if q.arrival > decision {
                continue;
            }
            let is_hit = self.banks[q.bank as usize].open_row == Some(q.row);
            let (oldest, hit) = if q.priority == Priority::Demand {
                (&mut oldest_demand, &mut hit_demand)
            } else {
                (&mut oldest_bg, &mut hit_bg)
            };
            if oldest.is_none_or(|o| q.seq < o.seq) {
                *oldest = Some(q);
            }
            if is_hit && hit.is_none_or(|h| q.seq < h.seq) {
                *hit = Some(q);
            }
        }
        let picked = 'sel: {
            if let Some(q) = oldest_demand {
                if decision.saturating_sub(q.arrival) > DEMAND_STARVATION_BOUND {
                    break 'sel Some(q.seq);
                }
            }
            if let Some(q) = oldest_bg {
                if decision.saturating_sub(q.arrival) > BACKGROUND_STARVATION_BOUND {
                    break 'sel Some(q.seq);
                }
            }
            hit_demand
                .or(oldest_demand)
                .or(hit_bg)
                .or(oldest_bg)
                .map(|q| q.seq)
        };
        self.stats.sched_scan_ops += scan_ops;
        picked
    }

    /// Issues one request at decision time `now`, updating bank/bus state.
    fn service(&mut self, q: &Queued, now: Picos) -> Picos {
        let t = self.timing;
        let bank = &mut self.banks[q.bank as usize];
        let (data_start, outcome) = match bank.open_row {
            Some(r) if r == q.row => {
                let cmd = now.max(bank.ready_at);
                (
                    (cmd + t.cycles(t.t_cas)).max(self.bus_free_at),
                    RowOutcome::Hit,
                )
            }
            Some(_) => {
                // Precharge must respect tRAS since activation and tWR after
                // the last write burst.
                let pre = now
                    .max(bank.ready_at)
                    .max(bank.act_at + t.cycles(t.t_ras))
                    .max(bank.write_end + t.cycles(t.t_wr));
                let act = pre + t.cycles(t.t_rp);
                let cmd = act + t.cycles(t.t_rcd);
                bank.act_at = act;
                (
                    (cmd + t.cycles(t.t_cas)).max(self.bus_free_at),
                    RowOutcome::Conflict,
                )
            }
            None => {
                let act = now.max(bank.ready_at);
                let cmd = act + t.cycles(t.t_rcd);
                bank.act_at = act;
                (
                    (cmd + t.cycles(t.t_cas)).max(self.bus_free_at),
                    RowOutcome::Miss,
                )
            }
        };
        bank.open_row = Some(q.row);
        let data_end = data_start + t.burst_time();
        // Same-bank column commands pipeline at tCCD (≈ the burst length),
        // so a same-row stream sustains full bus bandwidth; other banks only
        // contend on the bus.
        bank.ready_at = data_start.saturating_sub(t.cycles(t.t_cas)) + t.burst_time();
        if q.is_write {
            bank.write_end = data_end;
        }
        self.bus_free_at = data_end;
        // Advance only by one command slot: bank preparation of the next
        // request overlaps this one's, and the shared data bus (bus_free_at)
        // provides the real serialization.
        self.now = now + t.cycles(1);

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
        self.stats.busy_time += t.burst_time();
        self.stats.total_latency += data_end - q.arrival;
        data_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(s.mean_latency_ps() > 0.0);
        assert!(s.row_hit_rate() > 0.0 && s.row_hit_rate() < 1.0);
        assert_eq!(s.busy_time, ch.timing().burst_time() * 2);
        assert_eq!(s.sched_decisions, 2);
        assert!(s.sched_scan_ops > 0);
        assert!(s.scans_per_decision() > 0.0);
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
        cfg.channel_window = Picos::from_us(1);
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

    #[test]
    fn window_trims_serviced_prefix() {
        let mut ch = hbm_channel();
        for i in 0..100u64 {
            ch.enqueue(ReqToken(i), (i % 16) as u32, i % 4, false, Picos::ZERO);
        }
        assert!(ch.index.is_none(), "enqueue alone never builds the index");
        // One decision at a 100-entry window builds the index.
        assert_eq!(ch.drain_until(Picos::ZERO).len(), 1);
        assert!(ch.index.is_some(), "a deep window must build the index");
        let _ = ch.drain_all();
        assert_eq!(ch.pending(), 0);
        assert!(ch.window.is_empty(), "serviced prefix must be trimmed");
        assert_eq!(ch.window_base, 100);
        assert!(ch.index.is_none(), "a shallow queue must drop the index");
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    fn sched_audit_is_clean_on_live_queue() {
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
        assert!(ch.index.is_some(), "the audit must see a live index");
        ch.audit_sched(&mut auditor);
        ch.audit_time(&mut auditor);
        auditor.assert_clean();
    }

    #[cfg(feature = "debug-invariants")]
    #[test]
    fn sched_audit_flags_an_index_that_drifts_from_the_window() {
        let mut ch = hbm_channel();
        for i in 0..100u64 {
            ch.enqueue(ReqToken(i), (i % 16) as u32, i % 8, false, Picos::ZERO);
        }
        let _ = ch.drain_until(Picos::ZERO);
        let subs = ch.index.as_mut().expect("deep window builds the index");
        let stale = *subs[3].seqs.first().expect("bank 3 has demand work");
        subs[3].seqs.remove(&stale);
        let mut auditor = mempod_audit::InvariantAuditor::every_epoch("sched");
        ch.audit_sched(&mut auditor);
        assert!(!auditor.is_clean(), "a drifted index must be flagged");
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

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

        /// Drives the same randomized enqueue/drain schedule through an
        /// indexed and a reference-mode channel, asserting identical
        /// (token, completion) sequences and identical statistics (minus
        /// the scan-work counter, which is exactly what differs).
        fn assert_identical_schedules(
            seed: u64,
            timing: DramTiming,
            batches: usize,
            per_batch: usize,
        ) {
            let banks = timing.banks;
            let mut indexed = Channel::new(timing);
            let mut reference = Channel::new(timing);
            reference.set_reference_mode(true);
            let mut mix = Mix(seed | 1);
            let mut horizon = Picos::ZERO;
            let mut token = 0u64;
            for _ in 0..batches {
                for _ in 0..per_batch {
                    let r = mix.next();
                    // Arrivals at or after the last horizon (the enqueue
                    // contract), but deliberately NOT monotone in seq.
                    let arrival = horizon + Picos(r % 50_000);
                    let bank = (r >> 17) as u32 % banks;
                    let row = (r >> 23) % 6;
                    let is_write = r & 4 == 0;
                    let priority = if r & 24 == 0 {
                        Priority::Background
                    } else {
                        Priority::Demand
                    };
                    for ch in [&mut indexed, &mut reference] {
                        ch.enqueue_with_priority(
                            ReqToken(token),
                            bank,
                            row,
                            is_write,
                            arrival,
                            priority,
                        );
                    }
                    token += 1;
                }
                horizon += Picos(mix.next() % 60_000);
                let a = indexed.drain_until(horizon);
                let b = reference.drain_until(horizon);
                assert_eq!(a, b, "divergence draining to {horizon}");
            }
            let a = indexed.drain_all();
            let b = reference.drain_all();
            assert_eq!(a, b, "divergence on final drain");
            assert_eq!(indexed.pending(), 0);
            let mut sa = *indexed.stats();
            let mut sb = *reference.stats();
            // Scan work is the one legitimate difference between modes.
            assert!(
                sa.sched_scan_ops <= sb.sched_scan_ops,
                "indexed scheduler scanned more ({}) than the reference ({})",
                sa.sched_scan_ops,
                sb.sched_scan_ops
            );
            sa.sched_scan_ops = 0;
            sb.sched_scan_ops = 0;
            assert_eq!(sa, sb, "stats diverged");
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The indexed scheduler is decision-identical to the retained
            /// reference scan across random arrival patterns, priorities,
            /// bank counts (HBM vs DDR4 presets), rows, drain horizons and
            /// refresh boundaries.
            #[test]
            fn indexed_scheduler_matches_reference(
                seed in 0u64..100_000,
                timing_choice in 0u64..3,
                batches in 1usize..8,
                per_batch in 1usize..120,
            ) {
                assert_identical_schedules(
                    seed,
                    timing_variant(timing_choice),
                    batches,
                    per_batch,
                );
            }
        }

        /// Drives bursts that push the window past the index threshold
        /// (`4 · banks` entries) and drains each away in short steps, so
        /// the index is built, maintained and dropped once per burst, and
        /// asserts the indexed channel matches reference mode throughout.
        /// Returns how often the index was seen to appear and to vanish
        /// between steps.
        fn assert_lifecycle_matches_reference(
            seed: u64,
            timing: DramTiming,
            bursts: usize,
        ) -> (u32, u32) {
            let banks = timing.banks;
            let threshold = 4 * usize_from_u32(banks);
            let mut indexed = Channel::new(timing);
            let mut reference = Channel::new(timing);
            reference.set_reference_mode(true);
            let mut mix = Mix(seed | 1);
            let mut token = 0u64;
            let (mut builds, mut drops) = (0u32, 0u32);
            let mut had_index = false;
            for _ in 0..bursts {
                let start = indexed.now();
                let depth = threshold + 1 + (mix.next() % 96) as usize;
                for _ in 0..depth {
                    let r = mix.next();
                    let priority = if r & 24 == 0 {
                        Priority::Background
                    } else {
                        Priority::Demand
                    };
                    for ch in [&mut indexed, &mut reference] {
                        ch.enqueue_with_priority(
                            ReqToken(token),
                            (r >> 17) as u32 % banks,
                            (r >> 23) % 6,
                            r & 4 == 0,
                            start + Picos(r % 20_000),
                            priority,
                        );
                    }
                    token += 1;
                }
                let mut horizon = start;
                while indexed.pending() > 0 {
                    horizon += Picos(5_000 + mix.next() % 20_000);
                    let a = indexed.drain_until(horizon);
                    let b = reference.drain_until(horizon);
                    assert_eq!(a, b, "divergence draining to {horizon}");
                    let has_index = indexed.index.is_some();
                    builds += u32::from(has_index && !had_index);
                    drops += u32::from(!has_index && had_index);
                    had_index = has_index;
                }
                assert_eq!(reference.pending(), 0);
                assert!(indexed.index.is_none(), "an empty queue keeps no index");
            }
            let mut sa = *indexed.stats();
            let mut sb = *reference.stats();
            assert!(sa.max_queue_depth > threshold);
            sa.sched_scan_ops = 0;
            sb.sched_scan_ops = 0;
            assert_eq!(sa, sb, "stats diverged");
            (builds, drops)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Decisions and statistics stay identical to reference mode
            /// while the index is repeatedly built, maintained and dropped.
            #[test]
            fn lazy_index_lifecycle_matches_reference(
                seed in 0u64..100_000,
                timing_choice in 0u64..3,
                bursts in 2usize..6,
            ) {
                assert_lifecycle_matches_reference(
                    seed,
                    timing_variant(timing_choice),
                    bursts,
                );
            }
        }

        #[test]
        fn lazy_index_is_built_and_dropped_once_per_burst() {
            let (builds, drops) = assert_lifecycle_matches_reference(7, DramTiming::hbm(), 5);
            assert!(builds >= 3, "index built only {builds} times");
            assert!(drops >= 3, "index dropped only {drops} times");
        }

        #[test]
        fn deep_queue_migration_storm_matches_reference() {
            // A migration storm: 64 page swaps of 64 lines each (two page
            // images per swap → 8192 background requests) flood the queue
            // while demand traffic trickles in — ≥ 4k outstanding at peak.
            let timing = DramTiming::hbm();
            let mut indexed = Channel::new(timing);
            let mut reference = Channel::new(timing);
            reference.set_reference_mode(true);
            let mut token = 0u64;
            let mut enqueue = |bank, row, write, at, prio| {
                for ch in [&mut indexed, &mut reference] {
                    ch.enqueue_with_priority(ReqToken(token), bank, row, write, at, prio);
                }
                token += 1;
            };
            let mut mix = Mix(0xC0FFEE);
            for swap in 0..64u64 {
                let at = Picos::from_ns(swap * 10);
                for line in 0..64u64 {
                    let r = mix.next();
                    enqueue(
                        (r % 16) as u32,
                        swap % 7,
                        line % 2 == 0,
                        at,
                        Priority::Background,
                    );
                }
                // Demand showing up during the burst.
                let r = mix.next();
                enqueue((r % 16) as u32, r % 5, false, at, Priority::Demand);
            }
            let a = indexed.drain_all();
            let b = reference.drain_all();
            assert_eq!(a, b);
            assert!(
                indexed.stats().max_queue_depth >= 4096,
                "storm must go ≥4k deep, got {}",
                indexed.stats().max_queue_depth
            );
            assert!(
                indexed.stats().sched_scan_ops * 20 < reference.stats().sched_scan_ops,
                "indexed path must do far less scan work: {} vs {}",
                indexed.stats().sched_scan_ops,
                reference.stats().sched_scan_ops
            );
        }
    }
}
