//! Per-pod shard state for the event loop.
//!
//! A [`Shard`] owns one residue class of the machine: the channels whose
//! global index is `shard_id (mod shard_count)` (via
//! [`MemorySystem::into_shards`]) and every piece of engine state keyed by
//! a frame or page of that class — outstanding token owners, in-flight
//! migration state machines, blocked-page tracking, and migration lanes.
//! Because a shard count is only ever chosen so that frames, pages, pods,
//! and channels of one residue class never interact with another's (see
//! `Simulator::effective_shards`), shards can tick through the same global
//! arrival grid independently and reproduce a one-shard run's decisions
//! *bit for bit*: each per-channel decision depends only on that channel's
//! queue, and every submission a shard makes lands on a channel it owns.
//!
//! A one-shard run is one `Shard` over the whole memory system, so there
//! is exactly one copy of the migration/blocking/metadata state machine to
//! keep correct.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};

use mempod_core::Migration;
use mempod_dram::{Completion, MemorySystem, Priority, ReqToken};
use mempod_faults::backoff_after;
use mempod_telemetry::span::{child_span_id, migration_span_id};
use mempod_telemetry::{EventKind, SpanName, SpanRecord, SPAN_NONE};
use mempod_types::convert::{u64_from_usize, usize_from_u32};
use mempod_types::{AccessKind, BuildPageHasher, FrameId, MigrationFaultSpec, PageId, Picos};

/// A foreground access waiting to be issued (possibly via a metadata
/// fetch).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Waiter {
    /// Original arrival: the AMMAT accounting base.
    pub(crate) arrival: Picos,
    /// Earliest issue time accumulated so far (stall, blocking, fetch).
    pub(crate) issue: Picos,
    pub(crate) frame: FrameId,
    pub(crate) line: u32,
    pub(crate) kind: AccessKind,
    /// Whether a metadata fetch must complete before the access issues.
    pub(crate) needs_meta: bool,
    /// Page used to spread metadata-fetch addresses.
    pub(crate) page: PageId,
    /// Request-service span id, or [`SPAN_NONE`] when the request is
    /// unsampled (or span tracing is off). Derived on the main thread at
    /// admission from the request's stable identity, so every shard count
    /// samples the same requests.
    pub(crate) span: u64,
}

/// Who a completed token belongs to.
#[derive(Debug, Clone, Copy)]
enum TokenOwner {
    Foreground {
        arrival: Picos,
        /// Request span id ([`SPAN_NONE`] when unsampled).
        span: u64,
        /// Issue time of the foreground access (span phase boundary).
        issue: Picos,
        /// Frame serviced (the span's anchor coordinate).
        frame: FrameId,
    },
    MigrationRead {
        mig: usize,
    },
    MigrationWrite {
        mig: usize,
    },
    MetaFetch {
        waiter: Waiter,
    },
}

/// Outstanding token owners, indexed by token: slot `i` holds the owner
/// of token `base + i`, `None` once it completed. A shard's memory system
/// issues tokens densely and in order, and each is registered the moment
/// it is issued, so registration is a push at the back; completions
/// arrive out of order, so removal empties a slot and trims empty slots
/// off the front (the same window the channels keep over their seqs).
#[derive(Debug, Default)]
struct OwnerTable {
    slots: VecDeque<Option<TokenOwner>>,
    /// Token of `slots[0]`.
    base: u64,
    /// Occupied slots.
    live: usize,
}

impl OwnerTable {
    /// Registers the owner of a just-issued token.
    ///
    /// # Panics
    ///
    /// Panics if `tok` is not the next token in issue order.
    fn insert(&mut self, tok: ReqToken, owner: TokenOwner) {
        assert_eq!(
            tok.0,
            self.base + u64_from_usize(self.slots.len()),
            "owners must be registered in token order"
        );
        self.slots.push_back(Some(owner));
        self.live += 1;
    }

    /// Takes the owner of a completed token; `None` for a token that was
    /// never registered or has already completed.
    fn remove(&mut self, tok: ReqToken) -> Option<TokenOwner> {
        let i = usize::try_from(tok.0.checked_sub(self.base)?).ok()?;
        let owner = self.slots.get_mut(i)?.take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(owner)
    }
}

/// One in-flight migration's execution state.
#[derive(Debug)]
pub(crate) struct MigExec {
    m: Migration,
    pending: usize,
    latest: Picos,
    started: bool,
    reads_done: bool,
    pub(crate) done: bool,
    finish: Picos,
    /// When the *first* read phase launched (for the completion event's
    /// latency — retries extend the latency, they do not reset it).
    t_start: Picos,
    /// Lifecycle span id (0 when span tracing is off; migrations are
    /// always traced when it is on — they are rare and load-bearing).
    span: u64,
    /// When the manager committed the swap (the lifecycle span's start).
    decided: Picos,
    /// When the *current* read-phase attempt launched (attempt spans).
    attempt_start: Picos,
    /// Injected-fault budget: read-phase attempts that must still abort.
    aborts_left: u32,
    /// Whether the abort budget ends in a permanent failure (the manager's
    /// map was already rolled back at admission; the engine only models
    /// the timing of the doomed attempts and never writes data).
    permanent: bool,
    /// Current read-phase attempt number (1-based).
    attempt: u32,
    pub(crate) waiters: Vec<Waiter>,
}

/// Lane key for serializing page swaps: pods migrate their pages one at a
/// time (the pod's migration driver is a single engine), and HMA's OS lane
/// is likewise serial. CAMEO's single-line swaps are not laned — they are
/// driven by the MCs themselves on each access.
fn lane_of(m: &Migration) -> Option<i64> {
    if !m.is_page_swap() {
        None // line swap: event-driven, unserialised
    } else {
        Some(m.pod.map_or(-1, i64::from))
    }
}

/// Why a page cannot be accessed right now.
#[derive(Debug, Clone, Copy)]
enum PageState {
    /// Swap in flight; index into the migration list.
    Migrating(usize),
    /// Swap finished at this time; accesses before it must wait.
    BlockedUntil(Picos),
}

/// One unit of admission-phase work routed to a shard, applied at a tick
/// of the global arrival grid.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WorkItem {
    /// Register a migration the manager committed at this tick, with the
    /// fault plan's admission-time verdict (decided on the main thread so
    /// every shard count sees the same outcome).
    Migrate(Migration, Option<MigrationFaultSpec>),
    /// Admit a foreground access (after the manager translated it).
    Admit { page: PageId, w: Waiter },
}

/// One residue class of the engine: its memory-system view plus all state
/// keyed by its frames and pages. A run keeps its shards in residue-class
/// order: of `n` shards, `shards[s]` owns the channels, frames, and pages
/// whose index is `≡ s (mod n)`, and nothing in one shard is reachable
/// from any other.
#[derive(Debug)]
pub(crate) struct Shard {
    /// Memory channels of this residue class ([`MemorySystem::shard_id`]).
    pub(crate) mem: MemorySystem,
    /// Pod count, for the pod-local metadata backing-store hash.
    pods: u32,
    /// Outstanding token ownership, indexed by token (every DRAM request
    /// this shard has queued and not yet seen complete).
    owners: OwnerTable,
    pub(crate) migs: Vec<MigExec>,
    /// Blocking state of pages with a queued, in-flight or recently
    /// finished swap. Only ever looked up by key — never iterated — so
    /// its hash order cannot reach a result.
    blocked: HashMap<PageId, PageState, BuildPageHasher>,
    /// `(finish, page)` for every `BlockedUntil(finish)` written into
    /// `blocked`, earliest first: [`maybe_prune`](Shard::maybe_prune)
    /// pops the expired ones.
    expiries: BinaryHeap<Reverse<(Picos, PageId)>>,
    /// Per-lane FIFO of migration indices; front = currently running.
    /// `BTreeMap` for deterministic ordering under any future iteration.
    lanes: BTreeMap<i64, VecDeque<usize>>,
    pub(crate) total_stall: Picos,
    pub(crate) injected_migration: u64,
    pub(crate) injected_meta: u64,
    /// Injected migration-fault bookkeeping: exponential-backoff base and
    /// cap for retries (copied from the fault config; identical on every
    /// shard), and counters of aborted attempts and retries.
    pub(crate) backoff_base: Picos,
    pub(crate) backoff_cap: Picos,
    pub(crate) fault_aborts: u64,
    pub(crate) fault_retries: u64,
    /// Whether events are worth buffering (telemetry enabled and the sink
    /// keeps lines).
    events_wanted: bool,
    /// Whether causal span tracing is on (implies `events_wanted`).
    spans_enabled: bool,
    /// Buffered `(t_ps, kind)` events since the last barrier flush, in
    /// emission order. The main thread merges buffers across shards in
    /// timestamp-then-shard-id order (`Telemetry::emit_merged`).
    pub(crate) events: Vec<(u64, EventKind)>,
    /// Reused completion buffer for [`pump`](Shard::pump); empty between
    /// calls.
    completions: Vec<Completion>,
}

impl Shard {
    /// Wraps one memory-system view as a shard. `spans_enabled` switches
    /// causal span emission on (only meaningful with `events_wanted`).
    pub(crate) fn new(
        mem: MemorySystem,
        pods: u32,
        events_wanted: bool,
        spans_enabled: bool,
    ) -> Self {
        Shard {
            mem,
            pods,
            owners: OwnerTable::default(),
            migs: Vec::new(),
            blocked: HashMap::default(),
            expiries: BinaryHeap::new(),
            lanes: BTreeMap::new(),
            total_stall: Picos::ZERO,
            injected_migration: 0,
            injected_meta: 0,
            backoff_base: Picos::from_ns(500),
            backoff_cap: Picos::from_us(8),
            fault_aborts: 0,
            fault_retries: 0,
            events_wanted,
            spans_enabled: spans_enabled && events_wanted,
            events: Vec::new(),
            completions: Vec::new(),
        }
    }

    fn event(&mut self, t: Picos, kind: EventKind) {
        if self.events_wanted {
            self.events.push((t.as_ps(), kind));
        }
    }

    /// Buffers a completed span, timestamped at its end. Records whose id
    /// is [`SPAN_NONE`] are unsampled markers and are dropped here — this
    /// is the shard-side emission gate every tick-phase span must go
    /// through (DESIGN.md §13).
    fn push_span(&mut self, rec: SpanRecord) {
        if rec.id == SPAN_NONE || !self.spans_enabled {
            return;
        }
        self.events.push((rec.end_ps, EventKind::Span(rec)));
    }

    /// A causal-domain span record: `shard` is always 0 so the stream is
    /// identical whichever shard emits it, at any shard count.
    #[allow(clippy::too_many_arguments)]
    fn causal_span(
        id: u64,
        parent: u64,
        name: SpanName,
        start: Picos,
        end: Picos,
        pod: Option<u32>,
        frame: u64,
        aux: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            start_ps: start.as_ps(),
            end_ps: end.as_ps(),
            pod,
            frame,
            shard: 0,
            aux,
        }
    }

    /// Whether every submitted request has completed (end-of-run check).
    pub(crate) fn owners_empty(&self) -> bool {
        self.owners.live == 0
    }

    /// Checks that every queued DRAM request has exactly one owner: the
    /// live owners equal the requests pending in this shard's channels.
    /// Holds between pumps (a pump hands every completion to its owner).
    #[cfg(feature = "debug-invariants")]
    pub(crate) fn audit_owners(&self, auditor: &mut mempod_audit::InvariantAuditor) {
        auditor.check_conserved(
            "owners: queued DRAM requests vs live token owners",
            u64_from_usize(self.mem.pending()),
            u64_from_usize(self.owners.live),
        );
    }

    /// Ticks this shard through a batch of the global arrival grid: for
    /// every tick, service completions up to that arrival, then apply the
    /// admission work routed here for the tick.
    ///
    /// Every shard pumps at *every* global arrival — not just the ticks it
    /// received work for — because an enqueue at an intermediate horizon
    /// changes which requests compete in a channel's later scheduling
    /// decisions. Pumping an unchanged shard to the same horizon again is
    /// a no-op (an empty drain does not advance channel state), which is
    /// what makes the shared grid safe and the result independent of the
    /// batch boundaries.
    pub(crate) fn run_ticks(&mut self, arrivals: &[Picos], work: &[(u32, WorkItem)]) {
        let mut next = 0usize;
        for (tick, &horizon) in arrivals.iter().enumerate() {
            self.pump(horizon);
            while let Some(&(t, item)) = work.get(next) {
                if usize_from_u32(t) != tick {
                    break;
                }
                match item {
                    WorkItem::Migrate(m, spec) => self.enqueue_migration(m, horizon, spec),
                    WorkItem::Admit { page, w } => self.admit(page, w),
                }
                next += 1;
            }
            self.maybe_prune(horizon);
        }
        debug_assert_eq!(next, work.len(), "work items beyond the arrival grid");
    }

    /// Drains up to `horizon` repeatedly until no more completions appear
    /// (completions may submit follow-up work that itself completes within
    /// the horizon).
    ///
    /// Completion-driven submissions (migration write phases, woken parked
    /// accesses) may arrive inside the already-drained slice; the channels
    /// clamp such requests to their local `now`, so re-draining to the same
    /// horizon services them without rewriting granted bus slots. The
    /// channels' time invariants are checked by
    /// `MemorySystem::audit_invariants` at every batch barrier and at end
    /// of run.
    fn pump(&mut self, horizon: Picos) {
        let mut done = std::mem::take(&mut self.completions);
        loop {
            self.mem.drain_until_into(horizon, &mut done);
            if done.is_empty() {
                break;
            }
            for c in done.drain(..) {
                self.handle_completion(c);
            }
        }
        self.completions = done;
    }

    /// Removes every blocked-map entry that expired by `now`: each
    /// `BlockedUntil(t <= now)`, found through the expiry heap in O(log n)
    /// per entry. An expiry whose page has since been rewritten — to
    /// `Migrating` by a later swap, or to a later `BlockedUntil` — leaves
    /// the entry alone; the rewrite brings its own expiry. Removal is
    /// semantically neutral: an expired entry no longer delays anything
    /// (every later admission issues at or after `now`), and a swap
    /// rewrites its `Migrating` entries to `BlockedUntil` the moment it
    /// finishes, so no settled entry is left behind.
    fn maybe_prune(&mut self, now: Picos) {
        while let Some(&Reverse((t, page))) = self.expiries.peek() {
            if t > now {
                break;
            }
            self.expiries.pop();
            if let Some(PageState::BlockedUntil(until)) = self.blocked.get(&page) {
                if *until <= now {
                    self.blocked.remove(&page);
                }
            }
        }
    }

    fn handle_completion(&mut self, c: Completion) {
        #[expect(
            clippy::expect_used,
            reason = "invariant: every channel completion token was issued by this shard and \
                      registered in owners; a miss is a routing bug worth crashing on"
        )]
        let owner = self
            .owners
            .remove(c.token)
            .expect("completion for unknown token");
        match owner {
            TokenOwner::Foreground {
                arrival,
                span,
                issue,
                frame,
            } => {
                self.total_stall += c.completion.saturating_sub(arrival);
                if span != SPAN_NONE {
                    let channel = u64::from(c.channel);
                    // Root: admission to completion (`aux` = global channel).
                    self.push_span(Self::causal_span(
                        span,
                        SPAN_NONE,
                        SpanName::Request,
                        arrival,
                        c.completion,
                        None,
                        frame.0,
                        channel,
                    ));
                    // Gate child: only when admission actually delayed the
                    // request (blocking, stall, metadata fetch).
                    if issue > arrival {
                        self.push_span(Self::causal_span(
                            child_span_id(span, 0),
                            span,
                            SpanName::Gate,
                            arrival,
                            issue,
                            None,
                            frame.0,
                            channel,
                        ));
                    }
                    // Service child: channel queue + DRAM service.
                    self.push_span(Self::causal_span(
                        child_span_id(span, 1),
                        span,
                        SpanName::Service,
                        issue,
                        c.completion,
                        None,
                        frame.0,
                        channel,
                    ));
                }
            }
            TokenOwner::MigrationRead { mig } => {
                /// What a completed read phase leads to.
                enum Next {
                    Wait,
                    Writes(Picos),
                    Abort(Picos),
                }
                let next = {
                    let e = &mut self.migs[mig];
                    e.pending -= 1;
                    e.latest = e.latest.max(c.completion);
                    if e.pending > 0 {
                        Next::Wait
                    } else if e.aborts_left > 0 {
                        Next::Abort(e.latest)
                    } else {
                        e.reads_done = true;
                        Next::Writes(e.latest)
                    }
                };
                match next {
                    Next::Wait => {}
                    Next::Writes(at) => self.submit_writes(mig, at),
                    Next::Abort(at) => self.abort_attempt(mig, at),
                }
            }
            TokenOwner::MigrationWrite { mig } => {
                let finished = {
                    let e = &mut self.migs[mig];
                    e.pending -= 1;
                    e.latest = e.latest.max(c.completion);
                    e.pending == 0
                };
                if finished {
                    let finish = self.migs[mig].latest;
                    self.complete_migration(mig, finish, false);
                }
            }
            TokenOwner::MetaFetch { mut waiter } => {
                if waiter.span != SPAN_NONE {
                    // The fetch ran from the waiter's pre-completion issue
                    // time to this completion.
                    self.push_span(Self::causal_span(
                        child_span_id(waiter.span, 2),
                        waiter.span,
                        SpanName::MetaFetch,
                        waiter.issue,
                        c.completion,
                        None,
                        waiter.frame.0,
                        u64::from(c.channel),
                    ));
                }
                waiter.issue = waiter.issue.max(c.completion);
                waiter.needs_meta = false;
                self.dispatch(waiter);
            }
        }
    }

    /// Launches a migration's 2×N write-back phase at `at` (its read phase
    /// just completed cleanly).
    fn submit_writes(&mut self, mig: usize, at: Picos) {
        let m = self.migs[mig].m;
        let mut n = 0;
        for line in m.line_start..m.line_start + m.line_count {
            for frame in [m.frame_a, m.frame_b] {
                let tok = self.mem.submit_with_priority(
                    frame,
                    line,
                    AccessKind::Write,
                    at,
                    Priority::Background,
                );
                self.owners.insert(tok, TokenOwner::MigrationWrite { mig });
                n += 1;
            }
        }
        self.migs[mig].pending = n;
        self.injected_migration += u64_from_usize(n);
    }

    /// An injected fault aborts the migration's current read phase at `at`:
    /// either retry after exponential backoff (in simulated time) or, when
    /// the budget ends permanently, finish the migration as failed — its
    /// map entries were already rolled back at admission, so releasing its
    /// pages and waiters leaves the address map exactly as before.
    fn abort_attempt(&mut self, mig: usize, at: Picos) {
        let (m, attempt, conflicting, give_up, span, attempt_start) = {
            let e = &mut self.migs[mig];
            e.aborts_left -= 1;
            // Cause labelling: a parked writer means the abort races a
            // conflicting write; otherwise it is a transient datapath fault.
            let conflicting = e.waiters.iter().any(|w| w.kind == AccessKind::Write);
            (
                e.m,
                e.attempt,
                conflicting,
                e.aborts_left == 0 && e.permanent,
                e.span,
                e.attempt_start,
            )
        };
        self.fault_aborts += 1;
        if span != SPAN_NONE {
            // The aborted attempt: launch to the abort point.
            self.push_span(Self::causal_span(
                child_span_id(span, 2 * u64::from(attempt)),
                span,
                SpanName::MigrationAttempt,
                attempt_start,
                at,
                m.pod,
                m.frame_a.0,
                u64::from(attempt),
            ));
        }
        self.event(
            at,
            EventKind::MigrationAbort {
                pod: m.pod,
                frame_a: m.frame_a.0,
                frame_b: m.frame_b.0,
                attempt,
                conflicting,
            },
        );
        if give_up {
            self.event(
                at,
                EventKind::MigrationRollback {
                    pod: m.pod,
                    frame_a: m.frame_a.0,
                    frame_b: m.frame_b.0,
                    attempts: attempt,
                },
            );
            self.complete_migration(mig, at, true);
        } else {
            let backoff = backoff_after(self.backoff_base, self.backoff_cap, attempt);
            self.migs[mig].attempt = attempt + 1;
            self.migs[mig].attempt_start = at + backoff;
            self.fault_retries += 1;
            self.event(
                at,
                EventKind::MigrationRetry {
                    pod: m.pod,
                    frame_a: m.frame_a.0,
                    frame_b: m.frame_b.0,
                    attempt: attempt + 1,
                    backoff_ps: backoff.as_ps(),
                },
            );
            if span != SPAN_NONE {
                // The simulated-time backoff window before the retry.
                self.push_span(Self::causal_span(
                    child_span_id(span, 2 * u64::from(attempt) + 1),
                    span,
                    SpanName::MigrationBackoff,
                    at,
                    at + backoff,
                    m.pod,
                    m.frame_a.0,
                    u64::from(attempt + 1),
                ));
            }
            self.submit_reads(mig, at + backoff);
        }
    }

    /// Finishes a migration at `finish` — successfully (`failed == false`,
    /// after its last write-back) or as a rolled-back permanent abort — and
    /// runs the shared release path: rewrite its pages' blocking state,
    /// dispatch parked waiters, and chain the lane's next migration.
    fn complete_migration(&mut self, mig: usize, finish: Picos, failed: bool) {
        {
            let e = &mut self.migs[mig];
            e.done = true;
            e.finish = finish;
        }
        let m = self.migs[mig].m;
        if !failed && self.events_wanted {
            let latency = finish.saturating_sub(self.migs[mig].t_start);
            self.event(
                finish,
                EventKind::MigrationComplete {
                    pod: m.pod,
                    frame_a: m.frame_a.0,
                    frame_b: m.frame_b.0,
                    latency_ps: latency.as_ps(),
                },
            );
        }
        let (span, decided, attempt, attempt_start) = {
            let e = &self.migs[mig];
            (e.span, e.decided, e.attempt, e.attempt_start)
        };
        if span != SPAN_NONE {
            if !failed {
                // The successful final attempt (aborted lifecycles already
                // closed their last attempt span at the abort point).
                self.push_span(Self::causal_span(
                    child_span_id(span, 2 * u64::from(attempt)),
                    span,
                    SpanName::MigrationAttempt,
                    attempt_start,
                    finish,
                    m.pod,
                    m.frame_a.0,
                    u64::from(attempt),
                ));
            }
            // Lifecycle root: decision to commit (or rollback).
            let name = if failed {
                SpanName::MigrationAborted
            } else {
                SpanName::Migration
            };
            self.push_span(Self::causal_span(
                span,
                SPAN_NONE,
                name,
                decided,
                finish,
                m.pod,
                m.frame_a.0,
                u64::from(attempt),
            ));
        }
        for page in [m.page_a, m.page_b] {
            if let Some(state) = self.blocked.get_mut(&page) {
                if matches!(*state, PageState::Migrating(idx) if idx == mig) {
                    *state = PageState::BlockedUntil(finish);
                    self.expiries.push(Reverse((finish, page)));
                }
            }
        }
        let waiters = std::mem::take(&mut self.migs[mig].waiters);
        for mut w in waiters {
            w.issue = w.issue.max(finish);
            self.dispatch(w);
        }
        // Chain: launch the lane's next queued migration.
        if let Some(lane) = lane_of(&m) {
            let next = {
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: a completing laned migration was enqueued on that lane \
                              at start; a missing queue is a lane-routing bug worth crashing on"
                )]
                let q = self.lanes.get_mut(&lane).expect("lane exists");
                debug_assert_eq!(q.front(), Some(&mig));
                q.pop_front();
                q.front().copied()
            };
            if let Some(next) = next {
                self.start_migration(next, finish);
            }
        }
    }

    /// Issues a waiter: via a metadata fetch if one is still needed,
    /// otherwise as the foreground access itself.
    fn dispatch(&mut self, w: Waiter) {
        if w.needs_meta {
            let meta_frame = meta_backing_frame(w.page, self.mem.layout().fast_frames, self.pods);
            let tok = self.mem.submit(meta_frame, 0, AccessKind::Read, w.issue);
            self.owners.insert(tok, TokenOwner::MetaFetch { waiter: w });
            self.injected_meta += 1;
        } else {
            let tok = self.mem.submit(w.frame, w.line, w.kind, w.issue);
            self.owners.insert(
                tok,
                TokenOwner::Foreground {
                    arrival: w.arrival,
                    span: w.span,
                    issue: w.issue,
                    frame: w.frame,
                },
            );
        }
    }

    /// Registers a migration: its pages block immediately (the remap is
    /// already live, so their data is logically in transit), but the data
    /// movement itself queues behind its lane — a pod migrates one page at
    /// a time.
    fn enqueue_migration(&mut self, m: Migration, at: Picos, spec: Option<MigrationFaultSpec>) {
        let mig = self.migs.len();
        self.event(
            at,
            EventKind::RemapSwap {
                page_a: m.page_a.0,
                page_b: m.page_b.0,
                pod: m.pod,
                frame_a: m.frame_a.0,
                frame_b: m.frame_b.0,
                hotness: m.hotness,
            },
        );
        let (aborts_left, permanent) =
            spec.map_or((0, false), |s| (s.failed_attempts, s.permanent));
        // Lifecycle span identity: pure function of the swap's coordinates
        // and decision time, so every shard count derives the same id.
        // Migrations are always traced when spans are on (no sampling).
        let span = if self.spans_enabled {
            migration_span_id(m.frame_a.0, m.frame_b.0, at.as_ps())
        } else {
            SPAN_NONE
        };
        self.migs.push(MigExec {
            m,
            pending: 0,
            latest: at,
            started: false,
            reads_done: false,
            done: false,
            finish: Picos::MAX,
            t_start: at,
            span,
            decided: at,
            attempt_start: at,
            aborts_left,
            permanent,
            attempt: 1,
            waiters: Vec::new(),
        });
        self.blocked.insert(m.page_a, PageState::Migrating(mig));
        self.blocked.insert(m.page_b, PageState::Migrating(mig));
        match lane_of(&m) {
            None => self.start_migration(mig, at),
            Some(lane) => {
                let q = self.lanes.entry(lane).or_default();
                q.push_back(mig);
                if q.len() == 1 {
                    self.start_migration(mig, at);
                }
            }
        }
    }

    /// Launches a migration's first read phase (emits `MigrationStart`
    /// exactly once; injected retries re-enter via
    /// [`submit_reads`](Shard::submit_reads) alone).
    fn start_migration(&mut self, mig: usize, at: Picos) {
        let m = self.migs[mig].m;
        self.event(
            at,
            EventKind::MigrationStart {
                pod: m.pod,
                frame_a: m.frame_a.0,
                frame_b: m.frame_b.0,
                lines: m.line_count,
            },
        );
        {
            let e = &mut self.migs[mig];
            e.started = true;
            e.t_start = at;
            e.attempt_start = at;
        }
        self.submit_reads(mig, at);
    }

    /// Launches (or, after an injected abort, re-launches) a migration's
    /// 2×N read phase at `at`.
    fn submit_reads(&mut self, mig: usize, at: Picos) {
        let m = self.migs[mig].m;
        let mut pending = 0;
        for line in m.line_start..m.line_start + m.line_count {
            for frame in [m.frame_a, m.frame_b] {
                let tok = self.mem.submit_with_priority(
                    frame,
                    line,
                    AccessKind::Read,
                    at,
                    Priority::Background,
                );
                self.owners.insert(tok, TokenOwner::MigrationRead { mig });
                pending += 1;
            }
        }
        let e = &mut self.migs[mig];
        e.pending = pending;
        e.latest = at;
        self.injected_migration += u64_from_usize(pending);
    }

    /// Routes a foreground access according to its page's blocking state.
    ///
    /// Three regimes per the pod's sequential migration driver:
    /// * swap not yet started (lane-queued): the data still sits at its old
    ///   frame — service from there immediately, no delay;
    /// * swap in flight: delay until it completes (paper §4.3: "requests
    ///   that arrive while migrations are being performed have to be
    ///   delayed to ensure functionally correct memory behavior");
    /// * swap finished: accesses ordered before the finish wait for it.
    fn admit(&mut self, page: PageId, w: Waiter) {
        match self.blocked.get(&page) {
            Some(PageState::Migrating(idx)) if !self.migs[*idx].started => {
                let m = &self.migs[*idx].m;
                let mut w = w;
                w.frame = if page == m.page_a {
                    m.frame_a
                } else {
                    m.frame_b
                };
                self.dispatch(w);
            }
            Some(PageState::Migrating(idx)) if !self.migs[*idx].done => {
                self.migs[*idx].waiters.push(w);
            }
            Some(PageState::Migrating(idx)) => {
                let finish = self.migs[*idx].finish;
                let mut w = w;
                w.issue = w.issue.max(finish);
                self.dispatch(w);
            }
            Some(PageState::BlockedUntil(t)) => {
                let mut w = w;
                w.issue = w.issue.max(*t);
                self.dispatch(w);
            }
            None => self.dispatch(w),
        }
    }
}

/// The backing-store frame holding a page's metadata entry: a slice of
/// fast memory, spread by a multiplicative hash (the paper partitions part
/// of stacked memory as each mechanism's backing store).
///
/// The hash is *pod-local*: a page's entry lives in a fast frame of the
/// page's own pod (`frame % pods == page % pods`), matching the paper's
/// per-pod metadata organization (§6.3.3) — and, structurally, keeping the
/// metadata fetch on the same shard as the access that triggered it. The
/// old global hash was a cross-shard hazard: a pod-0 access could inject
/// a read into pod-3's channels. Layouts with fewer fast frames than pods
/// (no room for a per-pod slice) keep the global hash; such systems never
/// shard.
fn meta_backing_frame(page: PageId, fast_frames: u64, pods: u32) -> FrameId {
    let fast = fast_frames.max(1);
    let pods = u64::from(pods.max(1));
    let hash = page.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let per_pod = fast / pods;
    if per_pod == 0 {
        return FrameId(hash % fast);
    }
    // Fast frames of pod p are exactly {p, p + pods, p + 2*pods, ...}
    // (Geometry::fast_frame_of_pod), so this stays in range and in-pod.
    FrameId(page.0 % pods + pods * (hash % per_pod))
}

/// Greatest common divisor (for the shard-count feasibility computation).
pub(crate) fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempod_dram::MemLayout;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(8, 4), 4);
        assert_eq!(gcd(4, 8), 4);
        assert_eq!(gcd(7, 3), 1);
        assert_eq!(gcd(12, 0), 12);
        assert_eq!(gcd(0, 5), 5);
    }

    #[test]
    fn meta_backing_frame_is_pod_local_and_in_range() {
        let fast = 2048u64;
        let pods = 4u32;
        for p in 0..10_000u64 {
            let f = meta_backing_frame(PageId(p), fast, pods);
            assert!(f.0 < fast);
            assert_eq!(f.0 % u64::from(pods), p % u64::from(pods), "page {p}");
        }
    }

    #[test]
    fn meta_backing_frame_degenerate_layouts_fall_back() {
        // Fewer fast frames than pods: global hash, still in range.
        for p in 0..100u64 {
            assert!(meta_backing_frame(PageId(p), 3, 4).0 < 3);
            // No fast tier at all: frame 0 (the old behavior).
            assert_eq!(meta_backing_frame(PageId(p), 0, 4).0, 0);
        }
    }

    fn read_owner(mig: usize) -> TokenOwner {
        TokenOwner::MigrationRead { mig }
    }

    fn owner_mig(owner: Option<TokenOwner>) -> Option<usize> {
        match owner? {
            TokenOwner::MigrationRead { mig } => Some(mig),
            _ => None,
        }
    }

    #[test]
    fn owner_table_removes_out_of_order_and_trims_its_front() {
        let mut t = OwnerTable::default();
        for i in 0..5 {
            t.insert(ReqToken(i), read_owner(usize::try_from(i).unwrap()));
        }
        assert_eq!(t.live, 5);
        // Out of order: the middle slot empties, the front stays.
        assert_eq!(owner_mig(t.remove(ReqToken(2))), Some(2));
        assert_eq!((t.base, t.slots.len(), t.live), (0, 5, 4));
        // Removing the front trims every empty slot behind it too.
        assert_eq!(owner_mig(t.remove(ReqToken(1))), Some(1));
        assert_eq!(owner_mig(t.remove(ReqToken(0))), Some(0));
        assert_eq!((t.base, t.slots.len(), t.live), (3, 2, 2));
        // Unknown, repeated and trimmed-away tokens have no owner.
        assert!(t.remove(ReqToken(2)).is_none());
        assert!(t.remove(ReqToken(0)).is_none());
        assert!(t.remove(ReqToken(99)).is_none());
        assert_eq!(t.live, 2);
        // Issue continues at the next token after the trim.
        t.insert(ReqToken(5), read_owner(5));
        assert_eq!(owner_mig(t.remove(ReqToken(4))), Some(4));
        assert_eq!(owner_mig(t.remove(ReqToken(5))), Some(5));
        assert_eq!(owner_mig(t.remove(ReqToken(3))), Some(3));
        assert_eq!((t.base, t.slots.len(), t.live), (6, 0, 0));
    }

    #[test]
    fn owner_table_empties_after_interleaved_insert_and_remove() {
        let mut t = OwnerTable::default();
        let mut live: Vec<u64> = Vec::new();
        let mut next = 0u64;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if live.is_empty() || !x.is_multiple_of(3) {
                t.insert(ReqToken(next), read_owner(usize::try_from(next).unwrap()));
                live.push(next);
                next += 1;
            } else {
                let tok = live.swap_remove(usize::try_from(x % live.len() as u64).unwrap());
                assert_eq!(
                    owner_mig(t.remove(ReqToken(tok))),
                    Some(usize::try_from(tok).unwrap())
                );
                assert!(t.remove(ReqToken(tok)).is_none(), "repeat of {tok}");
            }
            assert_eq!(t.live, live.len());
        }
        for tok in live.drain(..).rev() {
            assert!(t.remove(ReqToken(tok)).is_some());
        }
        assert_eq!(t.live, 0);
        assert!(t.slots.is_empty(), "an empty table keeps no slots");
    }

    #[test]
    #[should_panic(expected = "token order")]
    fn owner_table_rejects_out_of_order_registration() {
        let mut t = OwnerTable::default();
        t.insert(ReqToken(1), read_owner(1));
    }

    fn tiny_shard() -> Shard {
        Shard::new(MemorySystem::new(MemLayout::tiny()), 4, false, false)
    }

    /// A swap of fast page `a` (frame `a`) with slow page `b`.
    fn swap(a: u64, b: u64, line: Option<u32>) -> Migration {
        let fast = MemLayout::tiny().fast_frames;
        let (fa, fb) = (FrameId(a % fast), FrameId(fast + b));
        match line {
            Some(l) => Migration::line_swap(fa, fb, l, PageId(a), PageId(b)),
            None => Migration::page_swap(fa, fb, PageId(a), PageId(b), Some(0)),
        }
    }

    /// No `BlockedUntil(t <= now)` entry survives a prune at `now`.
    fn assert_pruned(sh: &Shard, now: Picos) {
        for (page, state) in &sh.blocked {
            if let PageState::BlockedUntil(t) = state {
                assert!(*t > now, "{page:?} expired at {t:?} but kept at {now:?}");
            }
        }
    }

    #[test]
    fn prune_removes_exactly_the_expired_entries() {
        let mut sh = tiny_shard();
        // Three page swaps on one lane finish one after another.
        for (i, a) in [1u64, 2, 3].into_iter().enumerate() {
            sh.enqueue_migration(
                swap(a, 100 + a, None),
                Picos::from_ns(u64_from_usize(i)),
                None,
            );
        }
        sh.pump(Picos::MAX);
        let finishes: Vec<Picos> = sh.migs.iter().map(|e| e.finish).collect();
        assert!(finishes.windows(2).all(|w| w[0] < w[1]), "{finishes:?}");
        assert_eq!(sh.blocked.len(), 6);
        // Between the first and second finish: only the first swap's pages go.
        let now = finishes[0];
        sh.maybe_prune(now);
        assert_pruned(&sh, now);
        assert_eq!(sh.blocked.len(), 4);
        assert!(!sh.blocked.contains_key(&PageId(1)));
        assert!(sh.blocked.contains_key(&PageId(2)));
        sh.maybe_prune(Picos::MAX);
        assert!(sh.blocked.is_empty() && sh.expiries.is_empty());
        assert!(sh.owners_empty());
    }

    #[test]
    fn stale_expiry_keeps_a_page_a_later_swap_rewrote() {
        let mut sh = tiny_shard();
        sh.enqueue_migration(swap(7, 70, Some(0)), Picos::ZERO, None);
        sh.pump(Picos::MAX);
        let first = sh.migs[0].finish;
        assert!(matches!(sh.blocked[&PageId(7)], PageState::BlockedUntil(t) if t == first));
        // A later swap moves page 7 again before the first expiry is popped.
        let later = first + Picos::from_ns(5);
        sh.enqueue_migration(swap(7, 71, Some(1)), later, None);
        sh.maybe_prune(later);
        assert!(matches!(sh.blocked[&PageId(7)], PageState::Migrating(1)));
        assert!(
            !sh.blocked.contains_key(&PageId(70)),
            "first swap's partner expired"
        );
        sh.pump(Picos::MAX);
        assert!(matches!(sh.blocked[&PageId(7)], PageState::BlockedUntil(_)));
        sh.maybe_prune(Picos::MAX);
        assert!(sh.blocked.is_empty() && sh.expiries.is_empty());
    }

    #[test]
    fn line_swap_storm_leaves_nothing_blocked() {
        // CAMEO-style: unlaned single-line swaps hammering a few pages, so
        // pages are re-swapped while earlier swaps are in flight or have
        // just finished.
        let mut sh = tiny_shard();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..3_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let now = Picos::from_ns(3 * i);
            sh.pump(now);
            let line = u32::try_from(x % u64::from(sh.mem.lines_per_page())).unwrap();
            sh.enqueue_migration(swap(x % 16, 16 + (x >> 8) % 32, Some(line)), now, None);
            sh.maybe_prune(now);
            assert_pruned(&sh, now);
            assert_eq!(sh.owners.live, sh.mem.pending(), "owners at step {i}");
        }
        sh.pump(Picos::MAX);
        sh.maybe_prune(Picos::MAX);
        assert!(
            sh.blocked.is_empty(),
            "{} pages left blocked",
            sh.blocked.len()
        );
        assert!(sh.expiries.is_empty());
        assert!(sh.owners_empty());
        assert!(sh.migs.iter().all(|e| e.done));
    }

    #[test]
    fn lane_routing_follows_granularity() {
        let page = Migration::page_swap(FrameId(0), FrameId(4), PageId(0), PageId(4), Some(2));
        assert_eq!(lane_of(&page), Some(2));
        let unpodded = Migration::page_swap(FrameId(0), FrameId(4), PageId(0), PageId(4), None);
        assert_eq!(lane_of(&unpodded), Some(-1));
        let line = Migration::line_swap(FrameId(0), FrameId(4), 3, PageId(0), PageId(4));
        assert_eq!(lane_of(&line), None);
    }
}
