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
//! Each shard also owns its part of the manager, built for its class
//! ([`mempod_core::build_parts`]), and admits its own requests: it walks every
//! request of a batch, pumps its channels to the arrival, fires the
//! part's interval work there, and translates and admits the requests of
//! its own class.
//!
//! A one-shard run is one `Shard` over the whole memory system, so there
//! is exactly one copy of the migration/blocking/metadata state machine to
//! keep correct.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};

use mempod_core::{MemoryManager, Migration};
use mempod_dram::{Completion, MemorySystem, Priority, ReqToken};
use mempod_faults::{backoff_after, FaultPlan};
use mempod_telemetry::span::{child_span_id, request_span_id};
use mempod_telemetry::{EventKind, SpanConfig, SpanName, SpanRecord, SPAN_NONE};
use mempod_types::convert::{u32_from_u64, u64_from_usize};
use mempod_types::{
    AccessKind, BuildPageHasher, FrameId, MemRequest, MigrationFaultSpec, PageId, Picos,
};

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
    /// unsampled (or span tracing is off). Derived at admission from the
    /// request's stable identity, so every shard count samples the same
    /// requests.
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

/// One in-flight migration's execution state. Its slot in
/// [`Shard::migs`] is recycled once the migration completes.
#[derive(Debug)]
pub(crate) struct MigExec {
    m: Migration,
    /// Tokens of the current phase still outstanding.
    pending: usize,
    /// Latest completion of the current phase; once `done`, the finish.
    latest: Picos,
    started: bool,
    done: bool,
    /// When the *first* read phase launched (for the completion event's
    /// latency — retries extend the latency, they do not reset it).
    t_start: Picos,
    /// Injected-fault budget: read-phase attempts that must still abort.
    aborts_left: u32,
    /// Whether the abort budget ends in a permanent failure (the manager's
    /// map was already rolled back at admission; the engine only models
    /// the timing of the doomed attempts and never writes data).
    permanent: bool,
    /// Current read-phase attempt number (1-based).
    attempt: u32,
    waiters: Vec<Waiter>,
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
    /// Swap queued or in flight; its slot in the migration list. A swap
    /// rewrites this to `BlockedUntil` as it completes, before its slot
    /// can be reused.
    Migrating(usize),
    /// Swap finished at this time; accesses before it must wait.
    BlockedUntil(Picos),
}

/// One swap a shard's manager part committed, kept for the barrier's
/// provenance ledger.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Commit {
    /// Position of the committing request in its batch.
    pub(crate) tick: u32,
    pub(crate) m: Migration,
    /// Whether the fault plan dooms the swap (it was rolled back).
    pub(crate) permanent: bool,
}

/// What every shard of a run shares: the plan, the span sampling and
/// which barrier records to keep.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardConfig {
    /// Shard count of the run: shard `s` owns residue class `s`.
    pub(crate) shards: u32,
    /// Pod count, for the pod-local metadata backing-store hash.
    pub(crate) pods: u32,
    /// Whether events are worth buffering (telemetry enabled and the sink
    /// keeps lines).
    pub(crate) events_wanted: bool,
    /// Causal span tracing, if on; `None` unless `events_wanted`.
    pub(crate) spans: Option<SpanConfig>,
    /// The fault plan, if one is active.
    pub(crate) plan: Option<FaultPlan>,
    /// Whether telemetry is on: keep commits for the barrier's ledger.
    pub(crate) observed: bool,
}

/// One residue class of the engine: its memory-system view plus all state
/// keyed by its frames and pages. A run keeps its shards in residue-class
/// order: of `n` shards, `shards[s]` owns the channels, frames, and pages
/// whose index is `≡ s (mod n)`, and nothing in one shard is reachable
/// from any other.
pub(crate) struct Shard {
    /// Memory channels of this residue class ([`MemorySystem::shard_id`]).
    pub(crate) mem: MemorySystem,
    /// This shard's part of the manager.
    pub(crate) mgr: Box<dyn MemoryManager>,
    /// This shard's residue class.
    class: u64,
    cfg: ShardConfig,
    /// Swaps committed at the current arrival (a reused buffer).
    committed: Vec<Migration>,
    /// Swaps the fault plan faulted, doomed or not.
    pub(crate) faulted_migrations: u64,
    /// This batch's commits, in commit order (kept when `observed`).
    pub(crate) commits: Vec<Commit>,
    /// Ticks of this batch whose request missed the metadata cache (kept
    /// when `events_wanted`: they only feed miss-burst events).
    pub(crate) misses: Vec<u32>,
    /// Requests admitted and swaps committed this batch (the execution
    /// span's `aux`).
    pub(crate) items: u64,
    /// This shard's residue and manager audits.
    #[cfg(feature = "debug-invariants")]
    pub(crate) auditor: mempod_audit::InvariantAuditor,
    /// Outstanding token ownership, indexed by token (every DRAM request
    /// this shard has queued and not yet seen complete).
    owners: OwnerTable,
    /// Migration slots: every queued or in-flight migration, plus the
    /// finished ones whose slots wait in `free` for reuse. Bounded by the
    /// peak number in flight, not by the run's migration count.
    migs: Vec<MigExec>,
    /// Slots of finished migrations, reused before `migs` grows.
    free: Vec<usize>,
    /// Migrations ever entered into this shard.
    pub(crate) migs_entered: u64,
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
    /// Injected migration-fault bookkeeping: counters of aborted attempts
    /// and retries.
    pub(crate) fault_aborts: u64,
    pub(crate) fault_retries: u64,
    /// Buffered `(t_ps, kind)` events since the last barrier flush, in
    /// emission order. The main thread merges buffers across shards in
    /// timestamp-then-shard-id order (`Telemetry::emit_merged`).
    pub(crate) events: Vec<(u64, EventKind)>,
    /// Reused completion buffer for [`pump`](Shard::pump); empty between
    /// calls.
    completions: Vec<Completion>,
}

impl Shard {
    /// Wraps one memory-system view and the manager part of the same
    /// residue `class` as a shard.
    pub(crate) fn new(
        class: u32,
        mem: MemorySystem,
        mgr: Box<dyn MemoryManager>,
        cfg: ShardConfig,
    ) -> Self {
        Shard {
            mem,
            mgr,
            class: u64::from(class),
            cfg,
            committed: Vec::new(),
            faulted_migrations: 0,
            commits: Vec::new(),
            misses: Vec::new(),
            items: 0,
            #[cfg(feature = "debug-invariants")]
            auditor: mempod_audit::InvariantAuditor::new(
                format!("shard {class} of {}", cfg.shards),
                8,
            ),
            owners: OwnerTable::default(),
            migs: Vec::new(),
            free: Vec::new(),
            migs_entered: 0,
            blocked: HashMap::default(),
            expiries: BinaryHeap::new(),
            lanes: BTreeMap::new(),
            total_stall: Picos::ZERO,
            injected_migration: 0,
            injected_meta: 0,
            fault_aborts: 0,
            fault_retries: 0,
            events: Vec::new(),
            completions: Vec::new(),
        }
    }

    fn event(&mut self, t: Picos, kind: EventKind) {
        if self.cfg.events_wanted {
            self.events.push((t.as_ps(), kind));
        }
    }

    /// Buffers a completed span, timestamped at its end. Records whose id
    /// is [`SPAN_NONE`] are unsampled markers and are dropped here — this
    /// is the shard-side emission gate every tick-phase span must go
    /// through (DESIGN.md §13).
    fn push_span(&mut self, rec: SpanRecord) {
        if rec.id == SPAN_NONE || self.cfg.spans.is_none() {
            return;
        }
        self.events.push((rec.end_ps, EventKind::Span(rec)));
    }

    /// A causal-domain span record: `shard` is always 0 so the stream is
    /// identical whichever shard emits it, at any shard count.
    fn causal_span(
        id: u64,
        parent: u64,
        name: SpanName,
        start: Picos,
        end: Picos,
        frame: u64,
        aux: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            start_ps: start.as_ps(),
            end_ps: end.as_ps(),
            frame,
            shard: 0,
            aux,
        }
    }

    /// Whether every submitted request has completed (end-of-run check).
    pub(crate) fn owners_empty(&self) -> bool {
        self.owners.live == 0
    }

    /// Migrations queued or in flight (end-of-run check).
    pub(crate) fn migrations_in_flight(&self) -> usize {
        self.migs.len() - self.free.len()
    }

    /// Checks that every queue entry in this shard's channels has exactly
    /// one owner: the live owners equal the queued entries (one per token;
    /// a run of lines is one entry however many lines it has left, so the
    /// owners are not the queued lines). Holds between pumps (a pump hands
    /// every completion to its owner).
    #[cfg(feature = "debug-invariants")]
    fn audit_owners(&mut self) {
        self.auditor.check_conserved(
            "owners: queued DRAM entries vs live token owners",
            u64_from_usize(self.mem.entries()),
            u64_from_usize(self.owners.live),
        );
    }

    /// Runs this shard through one batch of the trace: at every request's
    /// arrival, service completions up to it, then
    /// [`take`](Shard::take) the request; finally pump to `tail`, if
    /// given (a barrier that must see every shard at that time).
    ///
    /// Every shard pumps at *every* arrival — not just its own requests' —
    /// because an enqueue at an intermediate horizon changes which requests
    /// compete in a channel's later scheduling decisions. Pumping an
    /// unchanged shard to the same horizon again is a no-op (an empty
    /// drain does not advance channel state), which is what makes the
    /// shared grid safe and the result independent of the batch
    /// boundaries.
    pub(crate) fn run_batch(&mut self, reqs: &[MemRequest], tail: Option<Picos>) {
        for (tick, req) in reqs.iter().enumerate() {
            self.pump(req.arrival);
            self.take(u32_from_u64(u64_from_usize(tick)), req);
            self.maybe_prune(req.arrival);
        }
        if let Some(horizon) = tail {
            self.pump(horizon);
            self.maybe_prune(horizon);
        }
        #[cfg(feature = "debug-invariants")]
        self.audit_barrier();
    }

    /// The barrier audit: the channels' invariants, one owner per queued
    /// request, and every swap the part committed entered into the engine.
    #[cfg(feature = "debug-invariants")]
    pub(crate) fn audit_barrier(&mut self) {
        self.mem.audit_invariants(&mut self.auditor);
        self.audit_owners();
        self.auditor.check_conserved(
            "migrations: manager part vs engine",
            self.mgr.migration_stats().migrations,
            self.migs_entered,
        );
    }

    /// Admission for one request at batch position `tick`: the manager
    /// part fires the interval work due by the arrival and, if the request
    /// is of this shard's class, translates it. Each committed swap
    /// is registered with the fault plan's verdict (a pure function of
    /// the swap, so every shard count draws the same), the doomed ones are
    /// rolled back out of the part's map in reverse commit order, and the
    /// request is admitted.
    fn take(&mut self, tick: u32, req: &MemRequest) {
        let at = req.arrival;
        let page = req.addr.page();
        // `on_access` advances the part itself, ahead of the access.
        let mut committed = std::mem::take(&mut self.committed);
        let outcome = if self.owns(page.0) {
            Some(self.mgr.on_access(req))
        } else {
            self.mgr.advance_to(at, &mut committed);
            None
        };
        let swaps = outcome
            .as_ref()
            .map_or(&committed[..], |o| &o.migrations[..]);
        let mut doomed = false;
        for &m in swaps {
            let spec = self
                .cfg
                .plan
                .as_ref()
                .and_then(|p| p.migration_spec(m.frame_a, m.frame_b, at));
            self.faulted_migrations += u64::from(spec.is_some());
            let permanent = spec.is_some_and(|s| s.permanent);
            doomed |= permanent;
            if self.cfg.observed {
                self.commits.push(Commit { tick, m, permanent });
            }
            #[cfg(feature = "debug-invariants")]
            self.audit_swap(&m);
            self.enqueue_migration(m, at, spec);
            self.items += 1;
        }
        if let Some(plan) = self.cfg.plan.as_ref().filter(|_| doomed) {
            // The engine still models the doomed attempts' timing but never
            // moves their data. The verdicts are redrawn rather than kept:
            // they are pure, and only a doomed commit walks here.
            for m in swaps.iter().rev() {
                if plan
                    .migration_spec(m.frame_a, m.frame_b, at)
                    .is_some_and(|s| s.permanent)
                {
                    let _ = self.mgr.rollback_migration(m);
                }
            }
        }
        // The part changes request by request, so its remap/segment state
        // is audited here rather than at the barrier: a table torn and
        // repaired within a batch is caught.
        #[cfg(feature = "debug-invariants")]
        if !swaps.is_empty() && self.auditor.should_sample() {
            self.mgr.audit_invariants(&mut self.auditor);
        }
        committed.clear();
        self.committed = committed;
        let Some(o) = outcome else {
            return;
        };
        if self.cfg.events_wanted && o.meta_miss {
            self.misses.push(tick);
        }
        let w = Waiter {
            arrival: at,
            issue: at + o.stall,
            frame: o.frame,
            line: o.line_in_page,
            kind: req.kind,
            needs_meta: o.meta_miss,
            page,
            span: request_span(self.cfg.spans, page.0, o.line_in_page, at),
        };
        #[cfg(feature = "debug-invariants")]
        self.audit_access(&w);
        self.admit(page, w);
        self.items += 1;
    }

    /// Whether `index` (a page's, as every request's class is its page's)
    /// lies in this shard's residue class. Shard counts are powers of two
    /// whenever the pod and channel counts are, which a mask serves
    /// without a division.
    #[inline]
    fn owns(&self, index: u64) -> bool {
        let n = u64::from(self.cfg.shards);
        if n.is_power_of_two() {
            index & (n - 1) == self.class
        } else {
            index % n == self.class
        }
    }

    /// Checks that a swap this shard's part committed lies wholly in the
    /// shard's residue class: its two frames, two pages and, for a page
    /// swap, its migration lane. A miss means
    /// [`build_parts`](mempod_core::build_parts) gave the part state of
    /// another class, or [`migration_domains`](mempod_core::migration_domains)
    /// promised more domains than the manager's decisions respect; the run
    /// stops before the shard acts on the swap.
    #[cfg(feature = "debug-invariants")]
    fn audit_swap(&mut self, m: &Migration) {
        let mut misrouted = false;
        self.check_class("swap", "frame_a", m.frame_a.0, &mut misrouted);
        self.check_class("swap", "frame_b", m.frame_b.0, &mut misrouted);
        self.check_class("swap", "page_a", m.page_a.0, &mut misrouted);
        self.check_class("swap", "page_b", m.page_b.0, &mut misrouted);
        // A page swap queues on its pod's lane; a swap with no pod
        // queues on the one global lane, which only a lone shard owns.
        if m.is_page_swap() {
            match m.pod {
                Some(pod) => self.check_class("swap", "lane pod", u64::from(pod), &mut misrouted),
                None => {
                    let (s, n) = (self.class, self.cfg.shards);
                    self.auditor.observe(n == 1, || {
                        misrouted = true;
                        format!(
                            "residue: swap committed on shard {s} of {n} queues on the global lane"
                        )
                    });
                }
            }
        }
        if misrouted {
            self.auditor.assert_clean();
        }
    }

    /// Checks that an access this shard admits lies wholly in its residue
    /// class: the page, the frame and, when it needs one, the metadata
    /// frame.
    #[cfg(feature = "debug-invariants")]
    fn audit_access(&mut self, w: &Waiter) {
        let mut misrouted = false;
        self.check_class("access", "page", w.page.0, &mut misrouted);
        self.check_class("access", "frame", w.frame.0, &mut misrouted);
        if w.needs_meta {
            let meta = meta_backing_frame(w.page, self.mem.layout().fast_frames, self.cfg.pods);
            self.check_class("access", "metadata frame", meta.0, &mut misrouted);
        }
        if misrouted {
            self.auditor.assert_clean();
        }
    }

    /// One residue check of [`audit_swap`](Shard::audit_swap) or
    /// [`audit_access`](Shard::audit_access).
    #[cfg(feature = "debug-invariants")]
    fn check_class(&mut self, what: &str, name: &str, v: u64, misrouted: &mut bool) {
        let (s, n) = (self.class, u64::from(self.cfg.shards));
        self.auditor.observe(v % n == s, || {
            *misrouted = true;
            format!(
                "residue: {what} on shard {s} of {n} has {name} {v}, in class {}",
                v % n
            )
        });
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
                        Next::Writes(e.latest)
                    }
                };
                match next {
                    Next::Wait => {}
                    Next::Writes(at) => self.submit_phase(mig, AccessKind::Write, at),
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

    /// Launches one 2×N phase of a migration at `at`: its reads (first
    /// launched by [`start_migration`](Shard::start_migration), again after
    /// each injected abort) or, once the reads completed cleanly, its
    /// write-back. Every token of the phase gets the migration as its
    /// owner, and the phase waits for all of them.
    ///
    /// Each frame goes in as one range of lines, not line by line
    /// alternating between the frames. That queues the same requests in
    /// the same per-channel order because the two frames never share a
    /// channel: every manager swaps a fast frame with a slow one, and the
    /// tiers' channels are disjoint. Under page-frame interleaving each
    /// frame's lines are one queue entry, so a phase is two tokens.
    fn submit_phase(&mut self, mig: usize, kind: AccessKind, at: Picos) {
        let m = self.migs[mig].m;
        debug_assert_ne!(
            self.mem.tier_of(m.frame_a),
            self.mem.tier_of(m.frame_b),
            "a swap's frames must lie in different tiers"
        );
        let owner = if kind.is_write() {
            TokenOwner::MigrationWrite { mig }
        } else {
            TokenOwner::MigrationRead { mig }
        };
        let lines = m.line_start..m.line_start + m.line_count;
        let mut tokens = 0;
        for frame in [m.frame_a, m.frame_b] {
            for token in self
                .mem
                .submit_lines(frame, lines.clone(), kind, at, Priority::Background)
            {
                self.owners.insert(ReqToken(token), owner);
                tokens += 1;
            }
        }
        self.injected_migration += 2 * u64::from(m.line_count);
        let e = &mut self.migs[mig];
        e.pending = tokens;
        e.latest = at;
    }

    /// An injected fault aborts the migration's current read phase at `at`:
    /// either retry after exponential backoff (in simulated time) or, when
    /// the budget ends permanently, finish the migration as failed — its
    /// map entries were already rolled back at admission, so releasing its
    /// pages and waiters leaves the address map exactly as before.
    fn abort_attempt(&mut self, mig: usize, at: Picos) {
        let (m, attempt, conflicting, give_up) = {
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
            )
        };
        self.fault_aborts += 1;
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
            let backoff = backoff_after(attempt);
            self.migs[mig].attempt = attempt + 1;
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
            self.submit_phase(mig, AccessKind::Read, at + backoff);
        }
    }

    /// Finishes a migration at `finish` — successfully (`failed == false`,
    /// after its last write-back) or as a rolled-back permanent abort — and
    /// runs the shared release path: rewrite its pages' blocking state,
    /// dispatch parked waiters, and chain the lane's next migration. Then
    /// nothing refers to the slot any more (its tokens have all completed),
    /// so it goes on the free list.
    fn complete_migration(&mut self, mig: usize, finish: Picos, failed: bool) {
        self.migs[mig].done = true;
        let m = self.migs[mig].m;
        if !failed && self.cfg.events_wanted {
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
        for page in [m.page_a, m.page_b] {
            if let Some(state) = self.blocked.get_mut(&page) {
                if matches!(*state, PageState::Migrating(idx) if idx == mig) {
                    *state = PageState::BlockedUntil(finish);
                    self.expiries.push(Reverse((finish, page)));
                }
            }
        }
        // The emptied buffer goes back to the slot for its next migration.
        let mut waiters = std::mem::take(&mut self.migs[mig].waiters);
        for mut w in waiters.drain(..) {
            w.issue = w.issue.max(finish);
            self.dispatch(w);
        }
        self.migs[mig].waiters = waiters;
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
        self.free.push(mig);
    }

    /// Issues a waiter: via a metadata fetch if one is still needed,
    /// otherwise as the foreground access itself.
    fn dispatch(&mut self, w: Waiter) {
        if w.needs_meta {
            let meta_frame =
                meta_backing_frame(w.page, self.mem.layout().fast_frames, self.cfg.pods);
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
        let mut exec = MigExec {
            m,
            pending: 0,
            latest: at,
            started: false,
            done: false,
            t_start: at,
            aborts_left,
            permanent,
            attempt: 1,
            waiters: Vec::new(),
        };
        let mig = match self.free.pop() {
            Some(slot) => {
                // A recycled slot keeps its (empty) waiter buffer.
                exec.waiters = std::mem::take(&mut self.migs[slot].waiters);
                debug_assert!(exec.waiters.is_empty(), "a free slot kept waiters");
                self.migs[slot] = exec;
                slot
            }
            None => {
                self.migs.push(exec);
                self.migs.len() - 1
            }
        };
        self.migs_entered += 1;
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
    /// [`submit_phase`](Shard::submit_phase) alone).
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
        }
        self.submit_phase(mig, AccessKind::Read, at);
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
            Some(PageState::Migrating(idx)) => {
                debug_assert!(
                    !self.migs[*idx].done,
                    "a finished swap left its page migrating"
                );
                self.migs[*idx].waiters.push(w);
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

/// The sampled request-service span id for one admission, or [`SPAN_NONE`]
/// when span tracing is off or the request is unsampled.
///
/// The identity mixes the request's *pre-translation* coordinates (page,
/// line offset, arrival) — values every shard count sees identically
/// before any routing decision — so every shard count derives and samples
/// the same span ids without coordination.
fn request_span(cfg: Option<SpanConfig>, page: u64, line: u32, arrival: Picos) -> u64 {
    match cfg {
        Some(sc) => {
            let id = request_span_id(page, u64::from(line), arrival.as_ps());
            if sc.sample_request(id) {
                id
            } else {
                SPAN_NONE
            }
        }
        None => SPAN_NONE,
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
pub(crate) fn meta_backing_frame(page: PageId, fast_frames: u64, pods: u32) -> FrameId {
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
        // The hash multiplier is 1 mod 4, so at 4 pods even a global
        // `hash % fast` keeps every page in its pod; at 8 it is 5 mod 8,
        // and only a pod-local hash passes.
        for pods in [4u32, 8] {
            for p in 0..10_000u64 {
                let f = meta_backing_frame(PageId(p), fast, pods);
                assert!(f.0 < fast);
                assert_eq!(
                    f.0 % u64::from(pods),
                    p % u64::from(pods),
                    "page {p}, {pods} pods"
                );
            }
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
        shard_over(MemLayout::tiny())
    }

    fn shard_over(layout: MemLayout) -> Shard {
        let cfg = ShardConfig {
            shards: 1,
            pods: 4,
            events_wanted: false,
            spans: None,
            plan: None,
            observed: false,
        };
        let mgr = mempod_core::build_manager(
            mempod_core::ManagerKind::NoMigration,
            &mempod_core::ManagerConfig::tiny(),
        );
        Shard::new(0, MemorySystem::new(layout), mgr, cfg)
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
        let finishes: Vec<Picos> = sh.migs.iter().map(|e| e.latest).collect();
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
        let first = sh.migs[0].latest;
        assert!(matches!(sh.blocked[&PageId(7)], PageState::BlockedUntil(t) if t == first));
        // A later swap moves page 7 again before the first expiry is popped.
        let later = first + Picos::from_ns(5);
        sh.enqueue_migration(swap(7, 71, Some(1)), later, None);
        let second = sh
            .migs
            .iter()
            .position(|e| !e.done)
            .expect("the second swap is in flight");
        assert_eq!(sh.migs[second].m.page_b, PageId(71));
        assert_eq!(sh.migs.len(), 1, "the second swap reused the first's slot");
        sh.maybe_prune(later);
        assert!(matches!(sh.blocked[&PageId(7)], PageState::Migrating(idx) if idx == second));
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
        let mut peak_in_flight = 0;
        for i in 0..3_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let now = Picos::from_ns(3 * i);
            sh.pump(now);
            let line = u32::try_from(x % u64::from(sh.mem.lines_per_page())).unwrap();
            sh.enqueue_migration(swap(x % 16, 16 + (x >> 8) % 32, Some(line)), now, None);
            peak_in_flight = peak_in_flight.max(sh.migrations_in_flight());
            sh.maybe_prune(now);
            assert_pruned(&sh, now);
            assert_eq!(sh.owners.live, sh.mem.entries(), "owners at step {i}");
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
        assert_eq!(sh.migrations_in_flight(), 0);
        assert_eq!(sh.migs_entered, 3_000);
        // Finished slots are reused: the list never outgrows what was in
        // flight at once.
        assert!(
            sh.migs.len() <= peak_in_flight && peak_in_flight < 3_000,
            "{} slots for a peak of {peak_in_flight} in flight",
            sh.migs.len()
        );
    }

    #[test]
    fn a_swap_phase_is_one_token_per_same_row_run() {
        // Page frames: each frame's 32 lines are one run, so a phase is 2
        // tokens for 64 lines; striped lines are one token each.
        let striped = MemLayout {
            interleave: mempod_dram::Interleave::LineStriped,
            ..MemLayout::tiny()
        };
        for (mut sh, tokens) in [(tiny_shard(), 2), (shard_over(striped), 64)] {
            sh.enqueue_migration(swap(1, 101, None), Picos::ZERO, None);
            assert_eq!(sh.migs[0].pending, tokens);
            assert_eq!(sh.owners.live, tokens);
            assert_eq!((sh.mem.entries(), sh.mem.pending()), (tokens, 64));
            assert_eq!(sh.injected_migration, 64);
            // Drain until the read phase completes and the writes queue.
            let mut t = Picos::ZERO;
            while sh.injected_migration == 64 {
                t += Picos::from_ns(1);
                sh.pump(t);
            }
            assert_eq!(sh.migs[0].pending, tokens);
            assert_eq!((sh.owners.live, sh.mem.entries()), (tokens, tokens));
            sh.pump(Picos::MAX);
            assert!(sh.migs[0].done && sh.owners_empty());
            assert_eq!(sh.injected_migration, 128);
            assert_eq!(sh.mem.stats().total().requests(), 128);
        }
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
