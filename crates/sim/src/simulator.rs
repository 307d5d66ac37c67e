//! The simulation event loop.
//!
//! The simulator is event-driven and **never advances the memory system
//! past the trace frontier**: channels drain only up to the current
//! request's arrival, so foreground and injected traffic contend exactly
//! when they would in the machine. Anything that must wait for an unknown
//! completion time is *deferred* and woken by that completion:
//!
//! * a triggered `Migration` becomes a state machine — its 2×N reads are
//!   injected (background priority), the write-backs launch when the last
//!   read completes, and the two involved pages stay blocked until the last
//!   write completes (paper §4.3/§6.2);
//! * a foreground access to a blocked page parks on the migration and is
//!   dispatched at its release;
//! * a metadata-cache miss injects one read to the backing store in fast
//!   memory (paper §6.3.3); the access parks on the fetch.
//!
//! The engine state machine itself lives in the `shard` module; this module
//! drives it through one event loop. The memory system is split into
//! per-pod/per-channel residue classes ([`MemorySystem::into_shards`]),
//! each with a manager part built for its class ([`build_parts`]), and
//! the classes tick independently between deterministic barriers:
//! the main thread only cuts the trace into batches; every shard walks
//! each batch itself, pumping its own channels at every arrival of the
//! shared global grid, firing its part's interval work there, and
//! translating and admitting the requests of its own class; barriers
//! merge telemetry in timestamp-then-shard-id order, replay the shards'
//! commits into the provenance ledger and their metadata misses into
//! runs, and feed the epoch driver. A one-shard run is the single-cluster
//! case of the same loop. Because a shard count is only accepted when frames,
//! pages, channels, and migration domains of one residue class never
//! interact with another's ([`Simulator::effective_shards`]), every
//! per-channel scheduling decision is the one a one-shard run makes, and
//! the report is **bit-identical** at every accepted count.
//!
//! AMMAT = foreground stall (completion − original arrival, including all
//! gating) / original request count — the paper's fixed-denominator
//! formulation (§6.2). Injected traffic contributes through contention and
//! blocking, not through its own queueing time.

use std::time::Instant;

use mempod_core::{build_parts, migration_domains, MigrationStats};
use mempod_dram::{ChannelProbe, ChannelStats, Interleave, MemLayout, MemorySystem, SystemStats};
use mempod_faults::FaultPlan;
use mempod_sync::{thread, Arc};
use mempod_telemetry::span::exec_span_id;
use mempod_telemetry::{
    EpochSnapshot, EventKind, PhaseClock, SpanName, SpanRecord, Telemetry, SPAN_NONE,
};
use mempod_trace::Trace;
use mempod_types::convert::{u32_from_u64, u64_from_usize, usize_from_u32};
use mempod_types::{MemRequest, Picos};

use crate::config::{SimConfig, SimError};
use crate::metrics::SimReport;
use crate::provenance::ProvenanceLedger;
use crate::shard::{gcd, Shard, ShardConfig};

/// Consecutive metadata-cache misses that qualify as a burst event.
const META_MISS_BURST_MIN: u64 = 8;
/// Stalled refreshes per snapshot window that qualify as a refresh-stall
/// event.
const REFRESH_STALL_EVENT_MIN: u64 = 16;
/// Arrival-grid ticks per barrier interval. Large enough to amortize the
/// fork/join cost over thousands of channel decisions, small enough that
/// telemetry merges and the epoch driver stay responsive.
const BATCH_TICKS: usize = 4096;

/// A merged snapshot of engine state for the epoch driver, built at
/// barriers. Keeping the driver off live engine references is what lets
/// one snapshot serve every shard count.
#[derive(Clone, Default)]
struct EngineView {
    total_stall: Picos,
    injected_meta: u64,
    /// Migrations entered into the engine (sum of shard `migs_entered`).
    migrations_entered: u64,
    stats: SystemStats,
    probe: Option<ChannelProbe>,
    /// The manager parts' accounting, merged.
    migration: MigrationStats,
    /// The manager parts' telemetry counters, summed by name.
    counters: Vec<(&'static str, u64)>,
}

/// Merges the observable state of `shards`, manager parts included, into
/// one [`EngineView`].
fn engine_view(shards: &[Shard]) -> EngineView {
    let mut view = EngineView::default();
    let mut part = Vec::new();
    for s in shards {
        view.total_stall += s.total_stall;
        view.migration.merge(s.mgr.migration_stats());
        view.injected_meta += s.injected_meta;
        view.migrations_entered += s.migs_entered;
        view.stats.merge(&s.mem.stats());
        if let Some(p) = s.mem.probe_summary() {
            view.probe
                .get_or_insert_with(ChannelProbe::default)
                .merge(&p);
        }
        s.mgr.telemetry_counters(&mut part);
        for (name, value) in part.drain(..) {
            match view.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, sum)) => *sum += value,
                None => view.counters.push((name, value)),
            }
        }
    }
    view
}

/// Pull-based epoch snapshot driver.
///
/// Keeps the previous snapshot's [`EngineView`] and request count and,
/// whenever the request stream crosses one or more epoch boundaries,
/// diffs the current cumulative values against them to produce one
/// [`EpochSnapshot`] covering the whole gap (sparse traces can skip
/// thousands of epochs at once; emitting one snapshot per gap keeps
/// telemetry O(requests), not O(simulated time)). Nothing here touches the
/// per-access hot path — the driver only ever *reads* counters the
/// simulation already maintained, handed over as an [`EngineView`] built
/// once every shard has been pumped to the crossing arrival (manager parts
/// included).
struct EpochDriver {
    len: Picos,
    next_boundary: Picos,
    prev_requests: u64,
    prev: EngineView,
}

impl EpochDriver {
    /// A driver snapshotting every `len` of simulated time (`None` if the
    /// configured epoch is zero — nothing to key snapshots off).
    fn new(len: Picos) -> Option<Self> {
        (len.as_ps() > 0).then(|| EpochDriver {
            len,
            next_boundary: len,
            prev_requests: 0,
            prev: EngineView::default(),
        })
    }

    /// Whether `now` has reached the next epoch boundary — i.e. whether
    /// [`observe`](EpochDriver::observe) would snapshot. Callers check this
    /// before building an [`EngineView`] so the per-request cost stays one
    /// comparison.
    fn crosses(&self, now: Picos) -> bool {
        now >= self.next_boundary
    }

    /// Emits one snapshot if `now` has crossed the next epoch boundary.
    fn observe(&mut self, now: Picos, requests_so_far: u64, view: EngineView, tel: &mut Telemetry) {
        if !self.crosses(now) {
            return;
        }
        let len = self.len.as_ps();
        let crossed = (now.as_ps() - self.next_boundary.as_ps()) / len + 1;
        let boundary = Picos(self.next_boundary.as_ps() + (crossed - 1) * len);
        self.next_boundary = boundary + self.len;
        // Boundaries are exact multiples of the epoch length.
        let epoch = boundary.as_ps() / len;
        self.snapshot_at(epoch, boundary, crossed, requests_so_far, view, tel);
    }

    /// Emits a final snapshot covering the partial window since the last
    /// boundary, if anything happened in it. The partial window is labelled
    /// with the in-progress epoch index, so epochs stay strictly increasing
    /// even when a full-boundary snapshot fired just before the trace ended.
    fn finalize(
        &mut self,
        end: Picos,
        requests_so_far: u64,
        view: EngineView,
        tel: &mut Telemetry,
    ) {
        if requests_so_far == self.prev_requests
            && view.migrations_entered == self.prev.migrations_entered
        {
            return;
        }
        let epoch = self.next_boundary.as_ps() / self.len.as_ps();
        let last_boundary = self.next_boundary.saturating_sub(self.len);
        self.snapshot_at(epoch, end.max(last_boundary), 1, requests_so_far, view, tel);
    }

    fn snapshot_at(
        &mut self,
        epoch: u64,
        boundary: Picos,
        epochs_elapsed: u64,
        requests_so_far: u64,
        view: EngineView,
        tel: &mut Telemetry,
    ) {
        let prev = &self.prev;
        let mut snap = EpochSnapshot::empty(epoch, boundary.as_ps());
        snap.epochs_elapsed = epochs_elapsed;

        snap.requests = requests_so_far;
        snap.requests_delta = requests_so_far - self.prev_requests;
        snap.ammat_ps_so_far =
            (requests_so_far > 0).then(|| view.total_stall.as_ps() as f64 / requests_so_far as f64);

        let (mig, was) = (&view.migration, &prev.migration);
        snap.migrations = mig.migrations;
        snap.migrations_delta = mig.migrations - was.migrations;
        snap.bytes_moved_delta = mig.bytes_moved - was.bytes_moved;
        snap.per_pod_bytes_delta = mig
            .per_pod_bytes
            .iter()
            .enumerate()
            .map(|(pod, now)| now - was.per_pod_bytes.get(pod).copied().unwrap_or(0))
            .collect();

        let (stats, was) = (view.stats, prev.stats);
        snap.fast_requests_delta = stats.fast.requests() - was.fast.requests();
        snap.slow_requests_delta = stats.slow.requests() - was.slow.requests();
        let served = snap.fast_requests_delta + snap.slow_requests_delta;
        snap.fast_service_fraction =
            (served > 0).then(|| snap.fast_requests_delta as f64 / served as f64);
        let (total, was) = (stats.total(), was.total());
        let row_refs = |t: &ChannelStats| t.row_hits + t.row_misses + t.row_conflicts;
        let ref_delta = row_refs(&total) - row_refs(&was);
        snap.row_hit_rate =
            (ref_delta > 0).then(|| (total.row_hits - was.row_hits) as f64 / ref_delta as f64);
        snap.refreshes_delta = total.refreshes - was.refreshes;

        snap.meta_miss_delta = view.injected_meta - prev.injected_meta;

        // Manager counters are reported as per-window deltas, matched by
        // name against the previous poll.
        for &(name, value) in &view.counters {
            let was = prev
                .counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |&(_, v)| v);
            snap.manager.insert(name.to_string(), value - was);
        }

        if let Some(probe) = &view.probe {
            let empty = ChannelProbe::default();
            let was = prev.probe.as_ref().unwrap_or(&empty);
            let window = probe.depth.diff(&was.depth);
            snap.queue_depth_p50 = window.value_at_quantile(0.50);
            snap.queue_depth_p99 = window.value_at_quantile(0.99);
            snap.queue_depth_max = window.max();

            let stall_delta = probe.stalled_refreshes - was.stalled_refreshes;
            if stall_delta >= REFRESH_STALL_EVENT_MIN {
                tel.event(
                    boundary.as_ps(),
                    EventKind::RefreshStall {
                        refreshes: stall_delta,
                        epoch,
                    },
                );
            }
        }

        // The maximum queue depth never decreases, so the previous view's
        // is the high water so far.
        if total.max_queue_depth > was.max_queue_depth {
            tel.event(
                boundary.as_ps(),
                EventKind::QueueDepthHighWater {
                    depth: u64_from_usize(total.max_queue_depth),
                    epoch,
                },
            );
        }

        tel.snapshot(snap);
        self.prev_requests = requests_so_far;
        self.prev = view;
    }
}

/// A configured simulator, ready to run one trace.
///
/// See the crate-level example. A `Simulator` is single-use: [`run`]
/// consumes it, building the manager parts and memory system for that one
/// trace.
/// Attach telemetry with [`with_telemetry`] to get per-epoch snapshots and
/// a JSONL event stream; request a sharded run with [`with_shards`] (the
/// result is bit-identical to a one-shard run by construction).
///
/// [`run`]: Simulator::run
/// [`with_telemetry`]: Simulator::with_telemetry
/// [`with_shards`]: Simulator::with_shards
pub struct Simulator {
    cfg: SimConfig,
    /// The memory layout; each run builds its memory system from it.
    layout: MemLayout,
    tel: Telemetry,
    /// Requested shard count (clamped by
    /// [`Simulator::effective_shards`]).
    shards: u32,
    /// Run shard phases serially on the calling thread (exact per-shard
    /// busy timing for [`PhaseClock`]; bit-identical results).
    serial_shards: bool,
    phase_clock: Option<Arc<PhaseClock>>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("manager", &self.cfg.manager)
            .field("geometry", &self.cfg.mgr.geometry)
            .field("shards", &self.shards)
            .finish()
    }
}

impl Simulator {
    /// Builds a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is invalid for the chosen
    /// manager (e.g. non-integral fast:slow ratio for THM/CAMEO).
    pub fn new(cfg: SimConfig) -> Result<Self, SimError> {
        let layout = cfg.layout();
        Self::with_layout(cfg, layout)
    }

    /// Builds a simulator over an explicit memory layout (e.g. to override
    /// the channel interleaving); the layout must describe the same frame
    /// counts as `cfg.layout()` would.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] under the same conditions as [`Simulator::new`].
    ///
    /// # Panics
    ///
    /// Panics if the layout's frame counts disagree with the configuration.
    pub fn with_layout(cfg: SimConfig, layout: MemLayout) -> Result<Self, SimError> {
        cfg.validate()?;
        assert_eq!(
            layout.total_frames(),
            cfg.layout().total_frames(),
            "layout must cover the configured geometry"
        );
        Ok(Simulator {
            cfg,
            layout,
            tel: Telemetry::disabled(),
            shards: 1,
            serial_shards: false,
            phase_clock: None,
        })
    }

    /// Attaches telemetry: per-epoch snapshots (keyed off the configured
    /// epoch length), structured events and DRAM channel probes. The run's
    /// retained snapshots come back in [`SimReport::timeline`]; the full
    /// stream goes to the telemetry's sink as JSONL.
    #[must_use]
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// Requests a sharded run over (at most) `shards` residue classes.
    ///
    /// The count actually used is [`Simulator::effective_shards`] — the
    /// largest divisor of `shards` for which sharding is provably
    /// transparent; the report is bit-identical to a one-shard run at any
    /// accepted count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn with_shards(mut self, shards: u32) -> Self {
        assert!(shards >= 1, "shard count must be at least 1");
        self.shards = shards;
        self
    }

    /// Runs shard phases serially on the calling thread instead of on
    /// worker threads. Results are bit-identical (shards are disjoint); the
    /// point is measurement: serial phases give [`PhaseClock`] exact
    /// per-shard busy times on machines with fewer cores than shards,
    /// where a worker's wall time would include preemption by its
    /// siblings.
    #[must_use]
    pub fn with_serial_shards(mut self, serial: bool) -> Self {
        self.serial_shards = serial;
        self
    }

    /// Attaches a [`PhaseClock`] that accumulates the main thread's time
    /// between shard phases (batch cutting and barrier bookkeeping, but
    /// not the event merge) as admission time, and per-barrier shard busy
    /// times, at one shard as at many (strictly observability).
    #[must_use]
    pub fn with_phase_clock(mut self, clock: Arc<PhaseClock>) -> Self {
        self.phase_clock = Some(clock);
        self
    }

    /// The active fault plan, if the configuration carries one with any
    /// non-zero rate.
    fn fault_plan(&self) -> Option<FaultPlan> {
        self.cfg
            .faults
            .as_ref()
            .filter(|f| f.is_active())
            .map(|f| FaultPlan::new(*f))
    }

    /// The shard count a [`run`](Simulator::run) will actually use: the
    /// largest divisor of the requested count for which the residue-class
    /// partition is provably transparent.
    ///
    /// `shard_of(frame) = frame % S` is sound iff every interaction stays
    /// within one residue class:
    ///
    /// * channels — with page-frame interleaving, a fast frame `f` maps to
    ///   channel `f % fast_channels`, so `S` must divide `fast_channels`
    ///   (when the fast tier holds frames), and likewise `slow_channels`;
    ///   a slow frame's channel index shifts by `fast_frames`, so when both
    ///   tiers exist `S` must also divide `fast_frames`. Line-striped
    ///   interleaving spreads one page over all channels — never sharded;
    /// * migrations and blocking — a manager's swaps must stay within one
    ///   residue class, which [`migration_domains`] attests:
    ///   `S` must divide the domain count, except for the `u32::MAX`
    ///   "unconstrained" sentinel (static placements that never migrate);
    /// * metadata fetches — the backing-store hash is pod-local, so domain
    ///   divisibility covers it; layouts with fewer fast frames than pods
    ///   fall back to a global hash and are never sharded.
    pub fn effective_shards(&self) -> u32 {
        if self.shards <= 1 {
            return 1;
        }
        let layout = &self.layout;
        if layout.interleave != Interleave::PageFrame {
            return 1;
        }
        let pods = u64::from(self.cfg.mgr.geometry.pods());
        if layout.fast_frames > 0 && layout.fast_frames < pods {
            return 1; // metadata backing store falls back to a global hash
        }
        let mut g = u64::from(self.shards);
        if layout.fast_frames > 0 {
            g = gcd(g, u64::from(layout.fast_channels));
        }
        if layout.slow_frames > 0 {
            g = gcd(g, u64::from(layout.slow_channels));
        }
        if layout.fast_frames > 0 && layout.slow_frames > 0 {
            g = gcd(g, layout.fast_frames);
        }
        let domains = migration_domains(self.cfg.manager, &self.cfg.mgr);
        if domains != u32::MAX {
            g = gcd(g, u64::from(domains));
        }
        u32::try_from(g.max(1)).unwrap_or(1)
    }

    /// Runs the trace to completion and reports metrics.
    ///
    /// The run uses [`effective_shards`](Simulator::effective_shards)
    /// shards: one unless [`with_shards`](Simulator::with_shards) asked for
    /// more and the layout and manager allow them. There is one event loop;
    /// a one-shard run is its single-cluster case, and every accepted
    /// count produces the same report.
    ///
    /// With the `debug-invariants` feature enabled, each shard's
    /// [`InvariantAuditor`](mempod_audit::InvariantAuditor) checks every
    /// access and swap its manager part decides against the shard's
    /// residue class (panicking at once on a miss); the part's
    /// remap/segment invariants after every 8th of the shard's requests
    /// that starts a migration; the DRAM channels' monotonic simulated
    /// time, the shard's token owners and migration-count conservation
    /// between the part and the shard's engine at every batch barrier; and
    /// all of them again at the end of the run, where the run panics if any
    /// invariant was violated.
    pub fn run(self, trace: &Trace) -> SimReport {
        let n = self.effective_shards();
        self.run_sharded(trace, n)
    }

    /// The event loop: this thread cuts the trace into batches; every
    /// shard admits its own requests through its manager part and ticks
    /// its channels; barriers merge what the shards buffered.
    fn run_sharded(self, trace: &Trace, n: u32) -> SimReport {
        let plan = self.fault_plan();
        let Simulator {
            cfg,
            layout,
            tel,
            serial_shards,
            phase_clock,
            ..
        } = self;
        let mut report = SimReport::new(trace.name(), cfg.manager);
        report.requests = trace.len() as u64;

        let telemetry_on = tel.is_enabled();
        let mut driver = if telemetry_on {
            EpochDriver::new(cfg.mgr.epoch)
        } else {
            None
        };
        let span_cfg = tel.span_config();

        let mut mem = MemorySystem::new(layout);
        if telemetry_on {
            mem.attach_probes();
        }
        // Channel fault streams are keyed by global channel index and
        // travel with their channels through `into_shards`, so every shard
        // count draws exactly the same fault windows.
        if let Some(p) = plan.as_ref().filter(|p| p.config().channel_fault_ppm > 0) {
            mem.attach_faults(p);
        }
        let events_wanted = tel.wants_events();
        let shard_cfg = ShardConfig {
            shards: n,
            pods: cfg.mgr.geometry.pods(),
            events_wanted,
            // Spans are events: without a sink that keeps lines, none is
            // drawn.
            spans: span_cfg.filter(|_| events_wanted),
            plan,
            observed: telemetry_on,
        };
        let shards: Vec<Shard> = mem
            .into_shards(n)
            .into_iter()
            .zip(build_parts(cfg.manager, &cfg.mgr, n))
            .zip(0..n)
            .map(|((mem, part), s)| Shard::new(s, mem, part, shard_cfg))
            .collect();
        #[cfg(feature = "debug-invariants")]
        let mut shards = shards;
        #[cfg(feature = "debug-invariants")]
        for (s, sh) in shards.iter_mut().enumerate() {
            sh.auditor = mempod_audit::InvariantAuditor::new(
                format!("{} on {} (shard {s} of {n})", cfg.manager, trace.name()),
                8,
            );
        }

        let mut engine = Engine {
            shards,
            events_wanted,
            tel,
            serial: serial_shards,
            #[expect(
                clippy::disallowed_methods,
                reason = "observability-only: wall-clock main-thread accounting for the \
                          scaling benchmark; never feeds simulated state"
            )]
            main_since: phase_clock.as_ref().map(|_| Instant::now()),
            clock: phase_clock,
            main_events: Vec::new(),
            exec_seq: span_cfg.filter(|sc| sc.exec_spans).map(|_| 0),
            ledger: telemetry_on.then(|| ProvenanceLedger::new(layout.fast_frames, cfg.mgr.epoch)),
            miss_run: 0,
        };

        // Cut the trace into batches of at most `BATCH_TICKS` requests. An
        // epoch snapshot must see every shard at the crossing request's
        // arrival and no shard past it, so a crossing ends its batch with
        // a pump to that arrival (or, when a batch has just ended, runs a
        // pump on its own). The run ends with a pump to the end of time so
        // completions can spawn write phases and parked accesses: a short
        // last batch carries it, a full one is followed by a pump-only
        // batch, which keeps every batch at most `BATCH_TICKS` ticks.
        let reqs = trace.requests();
        let mut lo = 0;
        let mut flushed_to_end = false;
        while lo < reqs.len() {
            if let Some(d) = driver.as_mut() {
                let at = reqs[lo].arrival;
                if d.crosses(at) {
                    if lo > 0 {
                        engine.batch(&[], Some(at));
                    }
                    let view = engine_view(&engine.shards);
                    d.observe(at, u64_from_usize(lo), view, &mut engine.tel);
                }
            }
            let mut hi = (lo + BATCH_TICKS).min(reqs.len());
            let crossing = driver
                .as_ref()
                .and_then(|d| (lo + 1..hi).find(|&k| d.crosses(reqs[k].arrival)));
            let tail = match crossing {
                Some(k) => {
                    hi = k;
                    Some(reqs[k].arrival)
                }
                None if hi == reqs.len() && hi - lo < BATCH_TICKS => {
                    flushed_to_end = true;
                    Some(Picos::MAX)
                }
                None => None,
            };
            engine.batch(&reqs[lo..hi], tail);
            if let (Some(d), Some(k)) = (driver.as_mut(), crossing) {
                let view = engine_view(&engine.shards);
                d.observe(reqs[k].arrival, u64_from_usize(k), view, &mut engine.tel);
            }
            lo = hi;
        }
        if !flushed_to_end {
            engine.batch(&[], Some(Picos::MAX));
        }

        let Engine {
            shards,
            mut tel,
            ledger,
            miss_run,
            ..
        } = engine;
        let requests = u64_from_usize(reqs.len());
        if miss_run >= META_MISS_BURST_MIN {
            tel.event(
                trace.duration().as_ps(),
                EventKind::MetaMissBurst { len: miss_run },
            );
        }
        // One fold of the shards serves the final snapshot and the report.
        let view = engine_view(&shards);
        report.total_stall = view.total_stall;
        report.migration = view.migration.clone();
        report.injected_meta_requests = view.injected_meta;
        report.mem_stats = view.stats;
        if let Some(d) = driver.as_mut() {
            d.finalize(trace.duration(), requests, view, &mut tel);
        }
        for sh in &shards {
            assert!(sh.owners_empty(), "requests lost in the memory system");
        }
        debug_assert!(shards.iter().all(|sh| sh.migrations_in_flight() == 0));
        #[cfg(feature = "debug-invariants")]
        let mut shards = shards;
        #[cfg(feature = "debug-invariants")]
        {
            // End-of-run pass: every invariant is checked at least once even
            // if no batch boundary was sampled.
            let mut auditor = mempod_audit::InvariantAuditor::new(
                format!("{} on {} ({n} shards)", cfg.manager, trace.name()),
                8,
            );
            for sh in &mut shards {
                sh.mgr.audit_invariants(&mut sh.auditor);
                sh.audit_barrier();
                auditor.absorb(&sh.auditor);
            }
            auditor.assert_clean();
        }

        report.duration = trace.duration();
        report.meta_cache = shards
            .iter()
            .filter_map(|sh| sh.mgr.meta_cache_stats())
            .reduce(|mut a, b| {
                a.merge(&b);
                a
            });
        report.injected_migration_requests = shards.iter().map(|sh| sh.injected_migration).sum();
        report.faults.migration_faults = shards.iter().map(|sh| sh.faulted_migrations).sum();
        report.faults.migration_retries = shards.iter().map(|sh| sh.fault_retries).sum();
        report.faults.migration_aborts = shards.iter().map(|sh| sh.fault_aborts).sum();
        report.faults.channel_faults = report.mem_stats.total().faults_injected;
        report.provenance = ledger.as_ref().map(ProvenanceLedger::summary);
        tel.flush();
        report.timeline = tel.ring.drain();
        report
    }
}

/// The main thread's side of the event loop: the shards between their
/// phases, and what the barrier merges from them.
struct Engine {
    shards: Vec<Shard>,
    tel: Telemetry,
    events_wanted: bool,
    /// Run shard phases serially on this thread.
    serial: bool,
    clock: Option<Arc<PhaseClock>>,
    /// Start of the main thread's current stretch (with a clock only).
    main_since: Option<Instant>,
    /// Events the barrier produces — ledger ping-pongs, miss bursts and
    /// execution spans — merged after the shards'.
    main_events: Vec<(u64, EventKind)>,
    /// Execution-span sequence number, when those spans are on.
    exec_seq: Option<u64>,
    ledger: Option<ProvenanceLedger>,
    /// Consecutive metadata-cache misses so far, over every shard's
    /// requests in trace order.
    miss_run: u64,
}

impl Engine {
    /// One barrier interval: every shard runs the batch `reqs` and then
    /// pumps to `tail`, if given; the barrier then merges what they
    /// buffered.
    fn batch(&mut self, reqs: &[MemRequest], tail: Option<Picos>) {
        if let (Some(c), Some(t0)) = (&self.clock, &self.main_since) {
            c.record_admission(elapsed_ns(t0));
        }
        run_shards(
            &mut self.shards,
            reqs,
            tail,
            self.serial,
            self.clock.as_deref(),
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "observability-only: wall-clock origin of the barrier's bookkeeping for \
                      the PhaseClock; never feeds simulated state"
        )]
        if let Some(t0) = self.main_since.as_mut() {
            *t0 = Instant::now();
        }
        self.barrier(reqs, tail);
    }

    /// The barrier: replay the shards' commits into the provenance ledger
    /// and their metadata misses into runs, in trace order; emit the
    /// execution spans; merge the buffered events.
    ///
    /// With execution-span tracing on, the barrier emits one
    /// [`SpanName::ShardBatch`] span per shard covering this batch's
    /// simulated window (aux = requests admitted plus swaps committed on
    /// the shard) plus one [`SpanName::Barrier`] marker, all in *simulated*
    /// time — wall clock never reaches the event stream. A batch that
    /// pumps to the end of time ([`Picos::MAX`]) ends its window at its
    /// last arrival; only the pump-only final flush, which admits nothing,
    /// has no finite window and is skipped.
    fn barrier(&mut self, reqs: &[MemRequest], tail: Option<Picos>) {
        if self.ledger.is_some() {
            self.replay_records(reqs);
        }
        if let Some(seq) = self.exec_seq.as_mut() {
            *seq += 1;
            let start = reqs.first().map(|r| r.arrival).or(tail);
            let end = tail
                .filter(|&t| t != Picos::MAX)
                .or(reqs.last().map(|r| r.arrival));
            if let (Some(start), Some(end)) = (start, end) {
                let (start, end) = (start.as_ps(), end.as_ps());
                let exec_span =
                    |id: u64, name: SpanName, start_ps: u64, shard: u32, aux: u64| SpanRecord {
                        id,
                        parent: SPAN_NONE,
                        name,
                        start_ps,
                        end_ps: end,
                        frame: 0,
                        shard,
                        aux,
                    };
                for (i, sh) in (0u32..).zip(&self.shards) {
                    let rec = exec_span(
                        exec_span_id(u64::from(i), *seq),
                        SpanName::ShardBatch,
                        start,
                        i,
                        sh.items,
                    );
                    self.main_events.push((end, EventKind::Span(rec)));
                }
                let nshards = u64_from_usize(self.shards.len());
                let rec = exec_span(
                    exec_span_id(nshards, *seq),
                    SpanName::Barrier,
                    end,
                    u32_from_u64(nshards),
                    *seq,
                );
                self.main_events.push((end, EventKind::Span(rec)));
            }
        }
        for sh in &mut self.shards {
            sh.items = 0;
        }
        if let (Some(c), Some(t0)) = (&self.clock, &self.main_since) {
            c.record_admission(elapsed_ns(t0));
        }
        if self.events_wanted {
            merge_events(&mut self.tel, &mut self.shards, &mut self.main_events);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "observability-only: wall-clock origin of the next main-thread stretch \
                      for the PhaseClock; never feeds simulated state"
        )]
        if let Some(t0) = self.main_since.as_mut() {
            *t0 = Instant::now();
        }
    }

    /// Replays the batch's records in trace order: the metadata-miss run
    /// from the shards' miss ticks (each request is one shard's, so their
    /// union is the batch's misses), and the provenance ledger from their
    /// commits, merged in (tick, pod) order: the commit order of a whole
    /// manager, whose epoch sweep walks the pods in id order. A burst is
    /// stamped at the arrival of the request that ends its run, ahead of
    /// that request's commits.
    fn replay_records(&mut self, reqs: &[MemRequest]) {
        let idle = |sh: &Shard| sh.commits.is_empty() && sh.misses.is_empty();
        if self.miss_run == 0 && self.shards.iter().all(idle) {
            return;
        }
        let mut misses: Vec<u32> = Vec::new();
        for sh in &mut self.shards {
            misses.append(&mut sh.misses);
        }
        misses.sort_unstable();
        // The bursts that end in this batch: (ending tick, run length).
        let mut bursts: Vec<(u32, u64)> = Vec::new();
        // The tick whose miss would continue the current run.
        let mut next = 0u32;
        for t in misses {
            if self.miss_run > 0 && t != next {
                bursts.push((next, self.miss_run));
                self.miss_run = 0;
            }
            self.miss_run += 1;
            next = t + 1;
        }
        if self.miss_run > 0 && usize_from_u32(next) < reqs.len() {
            bursts.push((next, self.miss_run));
            self.miss_run = 0;
        }
        let mut bursts = bursts
            .into_iter()
            .filter(|&(_, len)| len >= META_MISS_BURST_MIN)
            .peekable();
        let mut heads = vec![0usize; self.shards.len()];
        loop {
            let commit = (0..self.shards.len())
                .filter_map(|s| {
                    let c = self.shards[s].commits.get(heads[s])?;
                    Some(((c.tick, c.m.pod), s))
                })
                .min();
            let until = commit.map_or(u32::MAX, |((tick, _), _)| tick);
            while let Some((tick, len)) = bursts.next_if(|&(tick, _)| tick <= until) {
                let at = reqs[usize_from_u32(tick)].arrival.as_ps();
                self.main_events
                    .push((at, EventKind::MetaMissBurst { len }));
            }
            let (Some((_, s)), Some(ledger)) = (commit, self.ledger.as_mut()) else {
                break;
            };
            let c = self.shards[s].commits[heads[s]];
            heads[s] += 1;
            let at = reqs[usize_from_u32(c.tick)].arrival;
            for pong in ledger.record(&c.m, at, c.permanent).into_iter().flatten() {
                if self.events_wanted {
                    self.main_events.push((
                        at.as_ps(),
                        EventKind::PagePingPong {
                            page: pong.page,
                            round_trip_ps: pong.round_trip_ps,
                            trips: pong.trips,
                        },
                    ));
                }
            }
        }
        for sh in &mut self.shards {
            sh.commits.clear();
        }
    }
}

/// Runs one batch on every shard — on worker threads by default, or
/// serially on the calling thread when there is one shard or exact
/// per-shard busy times are wanted (shards are disjoint, so the results
/// are identical either way).
///
/// A worker panic is a bug, not a fault: it propagates out of the run
/// with its original payload, as any other panic of the run would.
fn run_shards(
    shards: &mut [Shard],
    reqs: &[MemRequest],
    tail: Option<Picos>,
    serial: bool,
    clock: Option<&PhaseClock>,
) {
    let timed = clock.is_some();
    let busys: Vec<u64> = if serial || shards.len() == 1 {
        shards
            .iter_mut()
            .map(|s| {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "observability-only: per-shard busy-time measurement for the \
                              PhaseClock critical path; never feeds simulated state"
                )]
                let t0 = timed.then(Instant::now);
                s.run_batch(reqs, tail);
                t0.as_ref().map_or(0, elapsed_ns)
            })
            .collect()
    } else {
        thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter_mut()
                .map(|s| {
                    scope.spawn(move || {
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "observability-only: per-worker wall-clock busy time \
                                      for the PhaseClock; never feeds simulated state"
                        )]
                        let t0 = timed.then(Instant::now);
                        s.run_batch(reqs, tail);
                        t0.as_ref().map_or(0, elapsed_ns)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };
    if let Some(c) = clock {
        c.record_interval(&busys);
    }
}

/// Nanoseconds elapsed since `t0`, saturating.
fn elapsed_ns(t0: &Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Drains every shard's event buffer (plus the main thread's, merged
/// last) through [`Telemetry::emit_merged`], then hands the emptied
/// buffers back so their capacity is reused.
fn merge_events(
    tel: &mut Telemetry,
    shards: &mut [Shard],
    main_events: &mut Vec<(u64, EventKind)>,
) {
    let mut bufs: Vec<Vec<(u64, EventKind)>> = Vec::with_capacity(shards.len() + 1);
    for s in shards.iter_mut() {
        bufs.push(std::mem::take(&mut s.events));
    }
    bufs.push(std::mem::take(main_events));
    tel.emit_merged(&mut bufs);
    let mut it = bufs.into_iter();
    for s in shards.iter_mut() {
        if let Some(buf) = it.next() {
            s.events = buf;
        }
    }
    if let Some(buf) = it.next() {
        *main_events = buf;
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use mempod_core::ManagerKind;
    use mempod_trace::{TraceGenerator, WorkloadSpec};
    use mempod_types::SystemConfig;

    fn demo_trace(n: usize) -> Trace {
        TraceGenerator::new(WorkloadSpec::hotcold_demo(), 42)
            .take_requests(n, &SystemConfig::tiny().geometry)
    }

    fn run(kind: ManagerKind, n: usize) -> SimReport {
        let cfg = SimConfig::new(SystemConfig::tiny(), kind);
        Simulator::new(cfg).expect("valid").run(&demo_trace(n))
    }

    #[test]
    fn every_manager_completes_a_short_trace() {
        for kind in ManagerKind::all() {
            let r = run(kind, 3_000);
            assert_eq!(r.requests, 3_000, "{kind}");
            assert!(r.ammat_ps().expect("has requests") > 0.0, "{kind}");
        }
    }

    #[test]
    fn hbm_only_beats_ddr_only() {
        let hbm = run(ManagerKind::HbmOnly, 5_000);
        let ddr = run(ManagerKind::DdrOnly, 5_000);
        assert!(
            hbm.ammat_ps() < ddr.ammat_ps(),
            "hbm={:?} ddr={:?}",
            hbm.ammat_ps(),
            ddr.ammat_ps()
        );
    }

    #[test]
    fn mempod_improves_on_no_migration_for_hot_cold() {
        // Long enough to amortize the warm-up epochs in which the hot set
        // migrates up (cumulative AMMAT includes that transient).
        let pod = run(ManagerKind::MemPod, 300_000);
        let tlm = run(ManagerKind::NoMigration, 300_000);
        assert!(pod.migration.migrations > 0);
        assert!(
            pod.ammat_ps() < tlm.ammat_ps(),
            "mempod={:?} tlm={:?}",
            pod.ammat_ps(),
            tlm.ammat_ps()
        );
    }

    #[test]
    fn migration_traffic_is_accounted() {
        let r = run(ManagerKind::MemPod, 40_000);
        assert_eq!(r.injected_migration_requests, r.migration.migrations * 128);
        assert_eq!(r.migration.bytes_moved, r.migration.migrations * 4096);
    }

    #[test]
    fn cameo_moves_most_data() {
        let cameo = run(ManagerKind::Cameo, 20_000);
        let pod = run(ManagerKind::MemPod, 20_000);
        assert!(cameo.migration.migrations > pod.migration.migrations * 2);
    }

    #[test]
    fn fast_service_fraction_grows_under_mempod() {
        let pod = run(ManagerKind::MemPod, 40_000);
        let tlm = run(ManagerKind::NoMigration, 40_000);
        assert!(
            pod.mem_stats.fast_service_fraction() > tlm.mem_stats.fast_service_fraction(),
            "pod={} tlm={}",
            pod.mem_stats.fast_service_fraction(),
            tlm.mem_stats.fast_service_fraction()
        );
    }

    #[test]
    fn meta_cache_adds_overhead() {
        let mut sys = SystemConfig::tiny();
        let free = Simulator::new(SimConfig::new(sys.clone(), ManagerKind::MemPod))
            .unwrap()
            .run(&demo_trace(20_000));
        sys.metadata_cache_bytes = Some(16 << 10);
        let cached = Simulator::new(SimConfig::new(sys, ManagerKind::MemPod))
            .unwrap()
            .run(&demo_trace(20_000));
        assert!(cached.injected_meta_requests > 0);
        assert!(cached.meta_cache.expect("stats").lookups > 0);
        assert!(
            cached.ammat_ps() > free.ammat_ps(),
            "cached={:?} free={:?}",
            cached.ammat_ps(),
            free.ammat_ps()
        );
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let a = run(ManagerKind::Thm, 10_000);
        let b = run(ManagerKind::Thm, 10_000);
        assert_eq!(a.total_stall, b.total_stall);
        assert_eq!(a.migration.migrations, b.migration.migrations);
    }

    fn run_with_memory_sink(kind: ManagerKind, n: usize) -> (SimReport, Vec<String>) {
        let sink = mempod_telemetry::MemorySink::new();
        let lines = sink.handle();
        let cfg = SimConfig::new(SystemConfig::tiny(), kind);
        let report = Simulator::new(cfg)
            .expect("valid")
            .with_telemetry(Telemetry::with_sink(Box::new(sink)))
            .run(&demo_trace(n));
        let lines = lines.lock().expect("sink mutex").clone();
        (report, lines)
    }

    #[test]
    fn telemetry_run_populates_epoch_timeline() {
        let (report, _) = run_with_memory_sink(ManagerKind::MemPod, 40_000);
        assert!(
            !report.timeline.is_empty(),
            "a 40k-request hotcold trace spans multiple 50us epochs"
        );
        let last = report.timeline.last().expect("non-empty");
        // Cumulative fields are consistent with the report.
        assert!(last.requests <= report.requests);
        assert!(last.ammat_ps_so_far.is_some());
        // The probe was attached, so queue-depth percentiles exist in at
        // least one window with traffic.
        assert!(report
            .timeline
            .iter()
            .any(|s| s.queue_depth_p50.is_some() && s.queue_depth_p99.is_some()));
        // Percentile ordering holds wherever both are present.
        for s in &report.timeline {
            if let (Some(p50), Some(p99)) = (s.queue_depth_p50, s.queue_depth_p99) {
                assert!(p50 <= p99, "p50={p50} p99={p99}");
            }
        }
        // Epochs advance strictly.
        for w in report.timeline.windows(2) {
            assert!(w[0].epoch < w[1].epoch);
        }
        // MemPod migrated, and the timeline saw it happen.
        let migs: u64 = report.timeline.iter().map(|s| s.migrations_delta).sum();
        assert_eq!(migs, report.migration.migrations);
        let pod_bytes: u64 = report
            .timeline
            .iter()
            .flat_map(|s| s.per_pod_bytes_delta.iter().copied())
            .sum();
        assert_eq!(pod_bytes, report.migration.bytes_moved);
    }

    #[test]
    fn telemetry_sink_receives_migration_and_epoch_events() {
        let (report, lines) = run_with_memory_sink(ManagerKind::MemPod, 40_000);
        assert!(report.migration.migrations > 0);
        // Events are externally tagged: {"kind":{"MigrationStart":{...}}}.
        let kind_count = |k: &str| {
            lines
                .iter()
                .filter(|l| l.contains(&format!("\"kind\":{{\"{k}\"")))
                .count() as u64
        };
        assert_eq!(kind_count("MigrationStart"), report.migration.migrations);
        assert_eq!(kind_count("MigrationComplete"), report.migration.migrations);
        assert_eq!(kind_count("RemapSwap"), report.migration.migrations);
        assert_eq!(kind_count("Epoch"), report.timeline.len() as u64);
        // Every line is valid JSON (round-trips through the vendored shim).
        for l in lines.iter() {
            let v: serde_json::Value = serde_json::from_str(l).expect("valid JSONL");
            assert!(v.get("t_ps").is_some(), "event carries a timestamp: {l}");
        }
    }

    /// Under injected faults every lifecycle step is one event: the abort,
    /// retry and rollback counts equal the report's, every decided swap
    /// ends in a completion or a rollback, and the stream is the same at
    /// one shard and at four.
    #[test]
    fn lifecycle_events_reconcile_with_the_report_under_faults() {
        let trace = demo_trace(20_000);
        let run = |shards: u32| {
            let sink = mempod_telemetry::MemorySink::new();
            let lines = sink.handle();
            let mut faults = mempod_types::FaultConfig::quiet(1);
            faults.migration_abort_ppm = 200_000;
            faults.migration_max_retries = 3;
            let cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::MemPod).with_faults(faults);
            let report = Simulator::new(cfg)
                .expect("valid")
                .with_telemetry(Telemetry::with_sink(Box::new(sink)))
                .with_shards(shards)
                .run(&trace);
            let mut lines = lines.lock().expect("sink mutex").clone();
            lines.sort();
            (report, lines)
        };
        let (report, lines) = run(1);
        let kind_count = |k: &str| {
            lines
                .iter()
                .filter(|l| l.contains(&format!("\"kind\":{{\"{k}\"")))
                .count() as u64
        };
        assert!(report.migration.aborted > 0, "some swaps rolled back");
        assert_eq!(kind_count("MigrationAbort"), report.faults.migration_aborts);
        assert_eq!(
            kind_count("MigrationRetry"),
            report.faults.migration_retries
        );
        assert_eq!(kind_count("MigrationRollback"), report.migration.aborted);
        assert_eq!(
            kind_count("RemapSwap"),
            kind_count("MigrationComplete") + kind_count("MigrationRollback")
        );
        let (sharded, sharded_lines) = run(4);
        assert_eq!(report, sharded, "1 vs 4 shards: report");
        assert_eq!(lines, sharded_lines, "1 vs 4 shards: sink lines");
    }

    #[test]
    fn telemetry_manager_counters_appear_in_snapshots() {
        let (report, _) = run_with_memory_sink(ManagerKind::MemPod, 40_000);
        let epochs: u64 = report
            .timeline
            .iter()
            .filter_map(|s| s.manager.get("mempod.epochs").copied())
            .sum();
        assert!(epochs > 0, "per-window mempod.epochs deltas sum > 0");
    }

    fn run_sharded_with(kind: ManagerKind, n: usize, shards: u32) -> SimReport {
        let cfg = SimConfig::new(SystemConfig::tiny(), kind);
        Simulator::new(cfg)
            .expect("valid")
            .with_shards(shards)
            .run(&demo_trace(n))
    }

    fn run_one_shard(kind: ManagerKind, n: usize) -> SimReport {
        run_sharded_with(kind, n, 1)
    }

    #[test]
    fn effective_shards_respects_channels_pods_and_domains() {
        let sim = |kind: ManagerKind, req: u32| {
            Simulator::new(SimConfig::new(SystemConfig::tiny(), kind))
                .expect("valid")
                .with_shards(req)
                .effective_shards()
        };
        // MemPod: gcd(requested, 8 fast ch, 4 slow ch, 2048 fast frames,
        // 4 pods) -- capped at 4 by the slow channels and pod count.
        assert_eq!(sim(ManagerKind::MemPod, 1), 1);
        assert_eq!(sim(ManagerKind::MemPod, 2), 2);
        assert_eq!(sim(ManagerKind::MemPod, 4), 4);
        assert_eq!(sim(ManagerKind::MemPod, 8), 4);
        assert_eq!(sim(ManagerKind::MemPod, 3), 1);
        // CAMEO's strided groups are pod-aligned, so it shards like MemPod.
        assert_eq!(sim(ManagerKind::Cameo, 8), 4);
        // Single-domain managers never shard.
        assert_eq!(sim(ManagerKind::Hma, 8), 1);
        assert_eq!(sim(ManagerKind::Thm, 8), 1);
        // Statics are unconstrained by domains: HBM-only has 8 fast
        // channels and no slow tier.
        assert_eq!(sim(ManagerKind::HbmOnly, 8), 8);
        assert_eq!(sim(ManagerKind::DdrOnly, 8), 4);
    }

    #[test]
    fn sharded_runs_match_the_reference_bit_for_bit() {
        for kind in [
            ManagerKind::MemPod,
            ManagerKind::Cameo,
            ManagerKind::NoMigration,
            ManagerKind::HbmOnly,
        ] {
            let reference = run_one_shard(kind, 30_000);
            for shards in [2u32, 4, 8] {
                let sharded = run_sharded_with(kind, 30_000, shards);
                assert_eq!(reference, sharded, "{kind} diverged at {shards} shards");
            }
        }
    }

    /// The LLP's metadata fetches go to pod-local backing frames, so
    /// CAMEO with the predictor on shards as bit-identically as without.
    #[test]
    fn cameo_llp_runs_match_across_shard_counts() {
        let trace = demo_trace(15_000);
        let run = |shards: u32| {
            let mut cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::Cameo);
            cfg.mgr.cameo_llp = true;
            let sim = Simulator::new(cfg).expect("valid").with_shards(shards);
            let effective = sim.effective_shards();
            (sim.run(&trace), effective)
        };
        let (reference, _) = run(1);
        let (sharded, effective) = run(4);
        assert_eq!(effective, 4);
        assert!(
            reference.injected_meta_requests > 0,
            "the LLP must mispredict"
        );
        assert_eq!(reference, sharded, "CAMEO+LLP diverged at 4 shards");
    }

    #[test]
    fn sharded_telemetry_matches_reference_timeline_and_events() {
        let trace = demo_trace(40_000);
        let run = |shards: u32| {
            let sink = mempod_telemetry::MemorySink::new();
            let lines = sink.handle();
            let cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::MemPod);
            let report = Simulator::new(cfg)
                .expect("valid")
                .with_telemetry(Telemetry::with_sink(Box::new(sink)))
                .with_shards(shards)
                .run(&trace);
            let mut lines = lines.lock().expect("sink mutex").clone();
            // Barriers merge the shards' events in timestamp-then-shard
            // order, which may permute same-instant lines relative to a
            // one-shard run -- compare as multisets.
            lines.sort();
            (report, lines)
        };
        let (ref_report, ref_lines) = run(1);
        let (shard_report, shard_lines) = run(4);
        assert_eq!(ref_report, shard_report);
        assert_eq!(ref_report.timeline, shard_report.timeline);
        assert_eq!(ref_lines, shard_lines);
    }

    /// The causal span stream (requests at full sampling, execution spans
    /// off) and the migration lifecycle events are byte-identical — modulo
    /// sink buffering order, hence the sort — between a one-shard run and
    /// every accepted shard count.
    #[test]
    fn traced_runs_are_bit_identical_across_shard_counts() {
        let trace = demo_trace(40_000);
        let run = |shards: u32| {
            let sink = mempod_telemetry::MemorySink::new();
            let lines = sink.handle();
            let cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::MemPod);
            let report = Simulator::new(cfg)
                .expect("valid")
                .with_telemetry(
                    Telemetry::with_sink(Box::new(sink))
                        .with_spans(mempod_telemetry::SpanConfig::full()),
                )
                .with_shards(shards)
                .run(&trace);
            let mut lines = lines.lock().expect("sink mutex").clone();
            lines.sort();
            (report, lines)
        };
        let (ref_report, ref_lines) = run(1);
        assert!(
            ref_lines.iter().any(|l| l.contains("\"Request\"")),
            "request spans were traced"
        );
        assert!(
            ref_lines
                .iter()
                .any(|l| l.contains("\"MigrationComplete\"")),
            "migration lifecycle events were recorded"
        );
        for k in [2, 4, 8] {
            let (shard_report, shard_lines) = run(k);
            assert_eq!(ref_report, shard_report, "{k} shards: report");
            assert_eq!(ref_lines, shard_lines, "{k} shards: span stream");
        }
    }

    /// Execution spans are opt-in, live on their own (per-shard-count)
    /// tracks, and never contaminate the causal stream.
    #[test]
    fn exec_spans_attribute_batches_to_shards() {
        // 2,000 requests fit in one batch, which pumps to the end of time:
        // its window ends at its last arrival.
        for n in [2_000, 20_000] {
            for shards in [1, 4] {
                let trace = demo_trace(n);
                let sink = mempod_telemetry::MemorySink::new();
                let lines = sink.handle();
                let cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::MemPod);
                let report = Simulator::new(cfg)
                    .expect("valid")
                    .with_telemetry(Telemetry::with_sink(Box::new(sink)).with_spans(
                        mempod_telemetry::SpanConfig {
                            request_sample_ppm: 0,
                            exec_spans: true,
                        },
                    ))
                    .with_shards(shards)
                    .run(&trace);
                assert_eq!(report.faults.migration_aborts, 0);
                // The long run swaps pages; the short one ends first.
                assert_eq!(report.migration.migrations > 0, n > 2_000);
                let lines = lines.lock().expect("sink mutex").clone();
                let spans: Vec<serde_json::Value> = lines
                    .iter()
                    .map(|l| serde_json::from_str::<serde_json::Value>(l).expect("JSON line"))
                    .filter_map(|v| v["kind"].get("Span").cloned())
                    .collect();
                let named = |name: &'static str| {
                    spans
                        .iter()
                        .filter(move |sp| sp["name"].as_str() == Some(name))
                };
                let aux: u64 = named("ShardBatch")
                    .map(|sp| sp["aux"].as_u64().expect("aux"))
                    .sum();
                let label = format!("{n} requests on {shards} shard(s)");
                // Every request is admitted on one shard and every swap
                // committed on one, and each batch that did either is drawn.
                assert_eq!(
                    aux,
                    report.requests + report.migration.migrations,
                    "{label}"
                );
                assert!(named("Barrier").count() > 0, "{label}");
                assert!(
                    named("ShardBatch").all(|sp| sp["start_ps"].as_u64() <= sp["end_ps"].as_u64()),
                    "{label}"
                );
                // Requests were sampled out entirely.
                assert!(named("Request").next().is_none(), "{label}");
            }
        }
    }

    #[test]
    fn serial_shards_and_phase_clock_do_not_change_results() {
        let clock = Arc::new(mempod_telemetry::PhaseClock::new(4));
        let cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::MemPod);
        let timed = Simulator::new(cfg)
            .expect("valid")
            .with_shards(4)
            .with_serial_shards(true)
            .with_phase_clock(Arc::clone(&clock))
            .run(&demo_trace(30_000));
        assert_eq!(timed, run_one_shard(ManagerKind::MemPod, 30_000));
        assert!(clock.barriers() > 0, "barriers were recorded");
        assert!(clock.critical_path_ns() > 0);
        assert_eq!(clock.shard_busy_ns().len(), 4);
    }

    mod shard_count_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]
            /// The report is a pure function of the trace and manager --
            /// never of the shard count.
            #[test]
            fn shard_count_never_changes_the_report(
                shards in 1u32..=8,
                n in 2_000usize..6_000,
                kind_idx in 0usize..4,
            ) {
                let kind = [
                    ManagerKind::MemPod,
                    ManagerKind::Cameo,
                    ManagerKind::NoMigration,
                    ManagerKind::HbmOnly,
                ][kind_idx];
                let reference = run_one_shard(kind, n);
                let sharded = run_sharded_with(kind, n, shards);
                prop_assert_eq!(reference, sharded);
            }
        }
    }

    #[test]
    fn disabled_telemetry_leaves_no_timeline_and_matches_enabled_results() {
        let plain = run(ManagerKind::MemPod, 20_000);
        assert!(plain.timeline.is_empty());
        let (telem, _) = run_with_memory_sink(ManagerKind::MemPod, 20_000);
        // Observation must not perturb the simulation.
        assert_eq!(plain.total_stall, telem.total_stall);
        assert_eq!(plain.migration.migrations, telem.migration.migrations);
    }
}
