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
//! per-pod/per-channel residue classes ([`MemorySystem::into_shards`])
//! that tick independently between deterministic barriers: the main
//! thread admits requests and routes work items to shards by frame
//! residue; shards pump their own channels over the shared global arrival
//! grid; barriers merge telemetry in timestamp-then-shard-id order and
//! feed the epoch driver. A one-shard run is the single-cluster case of
//! the same loop. Because a shard count is only accepted when frames,
//! pages, channels, and migration domains of one residue class never
//! interact with another's ([`Simulator::effective_shards`]), every
//! per-channel scheduling decision is the one a one-shard run makes, and
//! the report is **bit-identical** at every accepted count.
//!
//! AMMAT = foreground stall (completion − original arrival, including all
//! gating) / original request count — the paper's fixed-denominator
//! formulation (§6.2). Injected traffic contributes through contention and
//! blocking, not through its own queueing time.

use std::any::Any;
use std::time::Instant;

use mempod_core::{build_manager, MemoryManager, Migration};
use mempod_dram::{ChannelProbe, Interleave, MemLayout, MemorySystem, SystemStats};
use mempod_faults::FaultPlan;
use mempod_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use mempod_sync::{thread, Arc};
use mempod_telemetry::span::{exec_span_id, request_span_id};
use mempod_telemetry::{
    EpochSnapshot, EventKind, Log2Histogram, PhaseClock, SpanName, SpanRecord, Telemetry, SPAN_NONE,
};
use mempod_trace::Trace;
use mempod_types::convert::{u32_from_u64, u64_from_usize, usize_from_u32, usize_from_u64};
use mempod_types::{EngineError, MigrationFaultSpec, Picos};

use crate::config::{SimConfig, SimError};
use crate::metrics::SimReport;
use crate::provenance::ProvenanceLedger;
use crate::shard::{gcd, Shard, ShardSet, Waiter, WorkItem};

/// Consecutive metadata-cache misses that qualify as a burst event.
const META_MISS_BURST_MIN: u64 = 8;
/// Stalled refreshes per snapshot window that qualify as a refresh-stall
/// event.
const REFRESH_STALL_EVENT_MIN: u64 = 16;
/// Arrival-grid ticks per barrier interval. Large enough to amortize the
/// fork/join cost over thousands of channel decisions, small enough that
/// telemetry merges, the epoch driver, progress and cancellation stay
/// responsive.
const BATCH_TICKS: usize = 4096;

/// A merged snapshot of engine state for the epoch driver, built at
/// barriers. Keeping the driver off live engine references is what lets
/// one snapshot serve every shard count.
struct EngineView {
    total_stall: Picos,
    injected_meta: u64,
    /// Migrations entered into the engine (sum of shard `migs` lengths).
    migrations_entered: u64,
    stats: SystemStats,
    probe: Option<ChannelProbe>,
}

/// Merges the observable state of `shards` into one [`EngineView`].
fn engine_view(shards: &[Shard]) -> EngineView {
    let mut view = EngineView {
        total_stall: Picos::ZERO,
        injected_meta: 0,
        migrations_entered: 0,
        stats: SystemStats::default(),
        probe: None,
    };
    for s in shards {
        view.total_stall += s.total_stall;
        view.injected_meta += s.injected_meta;
        view.migrations_entered += u64_from_usize(s.migs.len());
        view.stats.merge(&s.mem.stats());
        if let Some(p) = s.mem.probe_summary() {
            view.probe
                .get_or_insert_with(ChannelProbe::default)
                .merge(&p);
        }
    }
    view
}

/// Pull-based epoch snapshot driver.
///
/// Keeps the previous boundary's cumulative statistics and, whenever the
/// request stream crosses one or more epoch boundaries, diffs the current
/// cumulative values against them to produce one [`EpochSnapshot`]
/// covering the whole gap (sparse traces can skip thousands of epochs at
/// once; emitting one snapshot per gap keeps telemetry O(requests), not
/// O(simulated time)). Nothing here touches the per-access hot path — the
/// driver only ever *reads* counters the simulation already maintained,
/// handed over as an [`EngineView`] built once every shard has been pumped
/// to the crossing arrival.
struct EpochDriver {
    len: Picos,
    next_boundary: Picos,
    prev_requests: u64,
    prev_migrations: u64,
    prev_bytes_moved: u64,
    prev_per_pod_bytes: Vec<u64>,
    prev_fast: u64,
    prev_slow: u64,
    prev_row_hits: u64,
    prev_row_refs: u64,
    prev_refreshes: u64,
    prev_meta: u64,
    prev_manager: Vec<(&'static str, u64)>,
    prev_depth: Log2Histogram,
    prev_stalled_refreshes: u64,
    prev_high_water: u64,
}

impl EpochDriver {
    /// A driver snapshotting every `len` of simulated time (`None` if the
    /// configured epoch is zero — nothing to key snapshots off).
    fn new(len: Picos) -> Option<Self> {
        (len.as_ps() > 0).then(|| EpochDriver {
            len,
            next_boundary: len,
            prev_requests: 0,
            prev_migrations: 0,
            prev_bytes_moved: 0,
            prev_per_pod_bytes: Vec::new(),
            prev_fast: 0,
            prev_slow: 0,
            prev_row_hits: 0,
            prev_row_refs: 0,
            prev_refreshes: 0,
            prev_meta: 0,
            prev_manager: Vec::new(),
            prev_depth: Log2Histogram::new(),
            prev_stalled_refreshes: 0,
            prev_high_water: 0,
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
    fn observe(
        &mut self,
        now: Picos,
        requests_so_far: u64,
        mgr: &dyn MemoryManager,
        view: &mut EngineView,
        tel: &mut Telemetry,
    ) {
        if !self.crosses(now) {
            return;
        }
        let len = self.len.as_ps();
        let crossed = (now.as_ps() - self.next_boundary.as_ps()) / len + 1;
        let boundary = Picos(self.next_boundary.as_ps() + (crossed - 1) * len);
        self.next_boundary = boundary + self.len;
        // Boundaries are exact multiples of the epoch length.
        let epoch = boundary.as_ps() / len;
        self.snapshot_at(epoch, boundary, crossed, requests_so_far, mgr, view, tel);
    }

    /// Emits a final snapshot covering the partial window since the last
    /// boundary, if anything happened in it. The partial window is labelled
    /// with the in-progress epoch index, so epochs stay strictly increasing
    /// even when a full-boundary snapshot fired just before the trace ended.
    fn finalize(
        &mut self,
        end: Picos,
        requests_so_far: u64,
        mgr: &dyn MemoryManager,
        view: &mut EngineView,
        tel: &mut Telemetry,
    ) {
        if requests_so_far == self.prev_requests && view.migrations_entered == self.prev_migrations
        {
            return;
        }
        let epoch = self.next_boundary.as_ps() / self.len.as_ps();
        let last_boundary = self.next_boundary.saturating_sub(self.len);
        self.snapshot_at(
            epoch,
            end.max(last_boundary),
            1,
            requests_so_far,
            mgr,
            view,
            tel,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn snapshot_at(
        &mut self,
        epoch: u64,
        boundary: Picos,
        epochs_elapsed: u64,
        requests_so_far: u64,
        mgr: &dyn MemoryManager,
        view: &mut EngineView,
        tel: &mut Telemetry,
    ) {
        let mut snap = EpochSnapshot::empty(epoch, boundary.as_ps());
        snap.epochs_elapsed = epochs_elapsed;

        snap.requests = requests_so_far;
        snap.requests_delta = requests_so_far - self.prev_requests;
        self.prev_requests = requests_so_far;
        snap.ammat_ps_so_far =
            (requests_so_far > 0).then(|| view.total_stall.as_ps() as f64 / requests_so_far as f64);

        let mig = mgr.migration_stats();
        snap.migrations = mig.migrations;
        snap.migrations_delta = mig.migrations - self.prev_migrations;
        self.prev_migrations = mig.migrations;
        snap.bytes_moved_delta = mig.bytes_moved - self.prev_bytes_moved;
        self.prev_bytes_moved = mig.bytes_moved;
        self.prev_per_pod_bytes.resize(mig.per_pod_bytes.len(), 0);
        snap.per_pod_bytes_delta = mig
            .per_pod_bytes
            .iter()
            .zip(self.prev_per_pod_bytes.iter())
            .map(|(now, prev)| now - prev)
            .collect();
        self.prev_per_pod_bytes.copy_from_slice(&mig.per_pod_bytes);

        let stats = view.stats;
        let total = stats.total();
        snap.fast_requests_delta = stats.fast.requests() - self.prev_fast;
        snap.slow_requests_delta = stats.slow.requests() - self.prev_slow;
        self.prev_fast = stats.fast.requests();
        self.prev_slow = stats.slow.requests();
        let served = snap.fast_requests_delta + snap.slow_requests_delta;
        snap.fast_service_fraction =
            (served > 0).then(|| snap.fast_requests_delta as f64 / served as f64);
        let row_refs = total.row_hits + total.row_misses + total.row_conflicts;
        let ref_delta = row_refs - self.prev_row_refs;
        snap.row_hit_rate = (ref_delta > 0)
            .then(|| (total.row_hits - self.prev_row_hits) as f64 / ref_delta as f64);
        self.prev_row_hits = total.row_hits;
        self.prev_row_refs = row_refs;
        snap.refreshes_delta = total.refreshes - self.prev_refreshes;
        self.prev_refreshes = total.refreshes;

        snap.meta_miss_delta = view.injected_meta - self.prev_meta;
        self.prev_meta = view.injected_meta;

        // Manager counters are reported as per-window deltas, matched by
        // name against the previous poll.
        let mut mc = Vec::new();
        mgr.telemetry_counters(&mut mc);
        for &(name, value) in &mc {
            let prev = self
                .prev_manager
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |&(_, v)| v);
            snap.manager.insert(name.to_string(), value - prev);
        }
        self.prev_manager = mc;

        if let Some(probe) = view.probe.take() {
            let window = probe.depth.diff(&self.prev_depth);
            snap.queue_depth_p50 = window.value_at_quantile(0.50);
            snap.queue_depth_p99 = window.value_at_quantile(0.99);
            snap.queue_depth_max = window.max();
            self.prev_depth = probe.depth;

            let stall_delta = probe.stalled_refreshes - self.prev_stalled_refreshes;
            self.prev_stalled_refreshes = probe.stalled_refreshes;
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

        let high_water = u64_from_usize(total.max_queue_depth);
        if high_water > self.prev_high_water {
            self.prev_high_water = high_water;
            tel.event(
                boundary.as_ps(),
                EventKind::QueueDepthHighWater {
                    depth: high_water,
                    epoch,
                },
            );
        }

        tel.snapshot(snap);
    }
}

/// A configured simulator, ready to run one trace.
///
/// See the crate-level example. A `Simulator` is single-use: [`run`]
/// consumes it (manager and memory state are not reusable across traces).
/// Attach telemetry with [`with_telemetry`] to get per-epoch snapshots and
/// a JSONL event stream; attach a progress counter with [`with_progress`]
/// for live sweep monitoring; request a sharded run with [`with_shards`]
/// (the result is bit-identical to a one-shard run by construction).
///
/// [`run`]: Simulator::run
/// [`with_telemetry`]: Simulator::with_telemetry
/// [`with_progress`]: Simulator::with_progress
/// [`with_shards`]: Simulator::with_shards
pub struct Simulator {
    cfg: SimConfig,
    mgr: Box<dyn MemoryManager>,
    /// The memory layout; each run builds its memory system from it.
    layout: MemLayout,
    tel: Telemetry,
    progress: Option<Arc<AtomicU64>>,
    /// Requested shard count (clamped by
    /// [`Simulator::effective_shards`]).
    shards: u32,
    /// Run shard phases serially on the calling thread (exact per-shard
    /// busy timing for [`PhaseClock`]; bit-identical results).
    serial_shards: bool,
    phase_clock: Option<Arc<PhaseClock>>,
    /// Cooperative cancellation token (the runner watchdog's hard-timeout
    /// lever): when set, admission stops, in-flight work drains, and the
    /// partial report comes back flagged `faults.cancelled`.
    cancel: Option<Arc<AtomicBool>>,
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
        let mgr = build_manager(cfg.manager, &cfg.mgr);
        Ok(Simulator {
            cfg,
            mgr,
            layout,
            tel: Telemetry::disabled(),
            progress: None,
            shards: 1,
            serial_shards: false,
            phase_clock: None,
            cancel: None,
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

    /// Attaches a live progress counter, incremented at every barrier by
    /// the trace requests admitted since the last one. Another thread may read it at any time — this
    /// is what the parallel runner's per-job heartbeat polls.
    #[must_use]
    pub fn with_progress(mut self, counter: Arc<AtomicU64>) -> Self {
        self.progress = Some(counter);
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

    /// Attaches a [`PhaseClock`] that accumulates admission time and
    /// per-barrier shard busy times, at one shard as at many (strictly
    /// observability).
    #[must_use]
    pub fn with_phase_clock(mut self, clock: Arc<PhaseClock>) -> Self {
        self.phase_clock = Some(clock);
        self
    }

    /// Attaches a cooperative cancellation token. When another thread sets
    /// it, the run stops admitting trace requests at the next barrier,
    /// drains everything already in flight (so no request is lost), and
    /// returns a partial report with `faults.cancelled` set and `requests`
    /// reduced to the admitted count. This is the lever behind the parallel
    /// runner's hard per-job timeout
    /// ([`try_run_jobs_with_watchdog`](crate::try_run_jobs_with_watchdog)).
    #[must_use]
    pub fn with_cancel(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The active fault plan, if the configuration carries one with any
    /// non-zero rate or injected panic.
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
    ///   residue class, which [`MemoryManager::migration_domains`] attests:
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
        let domains = self.mgr.migration_domains();
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
    /// With the `debug-invariants` feature enabled, an
    /// [`InvariantAuditor`](mempod_audit::InvariantAuditor) checks the
    /// manager's remap/segment invariants after every 8th request that
    /// starts a migration; the DRAM channels' monotonic simulated time,
    /// each shard's token owners and migration-count conservation between
    /// the manager's tracker and this engine at every batch barrier; and
    /// all of them again at the end of the run, where it panics if any
    /// invariant was violated.
    pub fn run(self, trace: &Trace) -> SimReport {
        let n = self.effective_shards();
        self.run_sharded(trace, n)
    }

    /// The event loop: admission on this thread, shard phases between
    /// barriers, telemetry merged deterministically at each barrier.
    fn run_sharded(mut self, trace: &Trace, n: u32) -> SimReport {
        let mut report = SimReport::new(trace.name(), self.cfg.manager);
        report.requests = trace.len() as u64;
        #[cfg(feature = "debug-invariants")]
        let mut auditor = mempod_audit::InvariantAuditor::new(
            format!("{} on {} ({n} shards)", self.cfg.manager, trace.name()),
            8,
        );

        let telemetry_on = self.tel.is_enabled();
        let events_wanted = self.tel.wants_events();
        let mut driver = if telemetry_on {
            EpochDriver::new(self.cfg.mgr.epoch)
        } else {
            None
        };
        let mut requests_so_far = 0u64;
        // Requests already added to the progress counter.
        let mut flushed = 0u64;
        let mut miss_run = 0u64;

        let plan = self.fault_plan();
        let mut faulted_migrations = 0u64;
        let mut cancelled = false;

        let span_cfg = self.tel.span_config();
        let mut ledger = telemetry_on
            .then(|| ProvenanceLedger::new(self.layout.fast_frames, self.cfg.mgr.epoch));

        let mut mem = MemorySystem::new(self.layout);
        if telemetry_on {
            mem.attach_probes();
        }
        // Channel fault streams are keyed by global channel index and
        // travel with their channels through `into_shards`, so every shard
        // count draws exactly the same fault windows.
        if let Some(p) = plan.as_ref().filter(|p| p.config().channel_fault_ppm > 0) {
            mem.attach_faults(p);
        }
        let pods = self.cfg.mgr.geometry.pods();
        let nu = u64::from(n);
        let mut set = ShardSet {
            shards: mem
                .into_shards(n)
                .into_iter()
                .map(|mem| Shard::new(mem, pods, events_wanted, span_cfg.is_some()))
                .collect(),
        };
        if let Some(p) = &plan {
            for sh in &mut set.shards {
                sh.backoff_base = p.config().migration_backoff;
                sh.backoff_cap = p.config().migration_backoff_cap;
            }
            // A worker panic needs a sibling shard to degrade to, so only a
            // sharded run injects it; the one-shard replay after a panic
            // therefore cannot re-trigger it.
            if let Some(wp) = p.config().worker_panic.filter(|_| n > 1) {
                set.shards[usize_from_u32(wp.shard % n)].panic_at_batch = Some(wp.batch);
            }
        }
        let shards = &mut set.shards;

        let serial = self.serial_shards;
        let clock = self.phase_clock.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "observability-only: wall-clock admission accounting for the scaling \
                      benchmark; never feeds simulated state"
        )]
        let mut admit_start = clock.as_ref().map(|_| Instant::now());

        let mut arrivals: Vec<Picos> = Vec::with_capacity(BATCH_TICKS + 1);
        let mut work: Vec<Vec<(u32, WorkItem)>> = (0..n).map(|_| Vec::new()).collect();
        let mut main_events: Vec<(u64, EventKind)> = Vec::new();
        let exec_spans = span_cfg.is_some_and(|sc| sc.exec_spans);
        let mut exec_seq = 0u64;

        for req in trace.requests() {
            // Barrier boundaries (no batch open) are the one quantum for
            // progress and cancellation: the counter is flushed and the
            // token polled only here, so a cancelled run stops between
            // whole barrier intervals wherever the watchdog's store lands,
            // and the counter equals the partial request count exactly.
            if arrivals.is_empty() {
                if let Some(p) = &self.progress {
                    p.fetch_add(requests_so_far - flushed, Ordering::Relaxed);
                    flushed = requests_so_far;
                }
                if self
                    .cancel
                    .as_ref()
                    .is_some_and(|cancel| cancel.load(Ordering::Acquire))
                {
                    cancelled = true;
                    break;
                }
            }
            let crossing = driver.as_ref().is_some_and(|d| d.crosses(req.arrival));
            if crossing && !(arrivals.is_empty() && requests_so_far == 0) {
                // Pre-pump round: bring every shard to this arrival so the
                // epoch snapshot observes the same state whatever the
                // batch boundaries. The next batch re-pumps to the same
                // horizon, which is a no-op.
                arrivals.push(req.arrival);
                if let Err(shard) = advance_shards(
                    shards,
                    &mut arrivals,
                    &mut work,
                    serial,
                    clock.as_deref(),
                    &mut admit_start,
                    &mut self.tel,
                    &mut main_events,
                    events_wanted,
                    exec_spans.then_some(&mut exec_seq),
                ) {
                    return self.degrade(trace, shard, flushed, req.arrival);
                }
            }
            if let Some(d) = driver.as_mut().filter(|_| crossing) {
                let mut view = engine_view(shards);
                d.observe(
                    req.arrival,
                    requests_so_far,
                    &*self.mgr,
                    &mut view,
                    &mut self.tel,
                );
            }

            let tick = u32_from_u64(u64_from_usize(arrivals.len()));
            arrivals.push(req.arrival);

            let outcome = self.mgr.on_access(req);
            if telemetry_on {
                if outcome.meta_miss {
                    miss_run += 1;
                } else if miss_run > 0 {
                    if miss_run >= META_MISS_BURST_MIN && events_wanted {
                        main_events.push((
                            req.arrival.as_ps(),
                            EventKind::MetaMissBurst { len: miss_run },
                        ));
                    }
                    miss_run = 0;
                }
            }
            #[cfg(feature = "debug-invariants")]
            let migrated = !outcome.migrations.is_empty();
            for (m, spec) in decide_migration_faults(
                self.mgr.as_mut(),
                plan.as_ref(),
                outcome.migrations,
                req.arrival,
                &mut faulted_migrations,
            ) {
                if let Some(ldg) = ledger.as_mut() {
                    for pong in ldg.record(&m, req.arrival, spec.is_some_and(|s| s.permanent)) {
                        if events_wanted {
                            main_events.push((
                                req.arrival.as_ps(),
                                EventKind::PagePingPong {
                                    page: pong.page,
                                    round_trip_ps: pong.round_trip_ps,
                                    trips: pong.trips,
                                },
                            ));
                        }
                    }
                }
                let s = usize_from_u64(m.frame_a.0 % nu);
                work[s].push((tick, WorkItem::Migrate(m, spec)));
            }
            // The manager changes on this thread, request by request, so
            // its remap/segment state is audited here rather than at the
            // barrier: a table torn and repaired within a batch is caught.
            #[cfg(feature = "debug-invariants")]
            if migrated && auditor.should_sample() {
                self.mgr.audit_invariants(&mut auditor);
            }

            let w = Waiter {
                arrival: req.arrival,
                issue: req.arrival + outcome.stall,
                frame: outcome.frame,
                line: outcome.line_in_page,
                kind: req.kind,
                needs_meta: outcome.meta_miss,
                page: req.addr.page(),
                span: request_span(
                    span_cfg,
                    req.addr.page().0,
                    outcome.line_in_page,
                    req.arrival,
                ),
            };
            let s = usize_from_u64(outcome.frame.0 % nu);
            work[s].push((
                tick,
                WorkItem::Admit {
                    page: req.addr.page(),
                    w,
                },
            ));
            requests_so_far += 1;

            if arrivals.len() >= BATCH_TICKS {
                if let Err(shard) = advance_shards(
                    shards,
                    &mut arrivals,
                    &mut work,
                    serial,
                    clock.as_deref(),
                    &mut admit_start,
                    &mut self.tel,
                    &mut main_events,
                    events_wanted,
                    exec_spans.then_some(&mut exec_seq),
                ) {
                    return self.degrade(trace, shard, flushed, req.arrival);
                }
                // Shard state only changes inside `advance_shards`, and
                // after it every migration the manager decided has reached
                // its shard's ledger, so each barrier is audited.
                #[cfg(feature = "debug-invariants")]
                {
                    for sh in shards.iter() {
                        sh.mem.audit_invariants(&mut auditor);
                        sh.audit_owners(&mut auditor);
                    }
                    auditor.check_conserved(
                        "migrations: manager tracker vs engine",
                        self.mgr.migration_stats().migrations,
                        shards.iter().map(|sh| sh.migs.len() as u64).sum::<u64>(),
                    );
                }
            }
        }

        // Final round: every shard pumps to the end of time so completions
        // can spawn write phases and parked accesses.
        arrivals.push(Picos::MAX);
        if let Err(shard) = advance_shards(
            shards,
            &mut arrivals,
            &mut work,
            serial,
            clock.as_deref(),
            &mut admit_start,
            &mut self.tel,
            &mut main_events,
            events_wanted,
            exec_spans.then_some(&mut exec_seq),
        ) {
            return self.degrade(trace, shard, flushed, trace.duration());
        }

        if let Some(p) = &self.progress {
            p.fetch_add(requests_so_far - flushed, Ordering::Relaxed);
        }
        if telemetry_on && miss_run >= META_MISS_BURST_MIN {
            self.tel.event(
                trace.duration().as_ps(),
                EventKind::MetaMissBurst { len: miss_run },
            );
        }
        if let Some(d) = driver.as_mut() {
            let mut view = engine_view(shards);
            d.finalize(
                trace.duration(),
                requests_so_far,
                &*self.mgr,
                &mut view,
                &mut self.tel,
            );
        }
        for sh in shards.iter() {
            assert!(sh.owners_empty(), "requests lost in the memory system");
        }
        debug_assert!(shards
            .iter()
            .all(|sh| sh.migs.iter().all(|e| e.done && e.waiters.is_empty())));
        #[cfg(feature = "debug-invariants")]
        {
            // End-of-run pass: every invariant is checked at least once even
            // if no batch boundary was sampled.
            self.mgr.audit_invariants(&mut auditor);
            for sh in shards.iter() {
                sh.mem.audit_invariants(&mut auditor);
                sh.audit_owners(&mut auditor);
            }
            auditor.check_conserved(
                "migrations: manager tracker vs engine",
                self.mgr.migration_stats().migrations,
                shards.iter().map(|sh| sh.migs.len() as u64).sum::<u64>(),
            );
            auditor.assert_clean();
        }

        report.total_stall = shards
            .iter()
            .fold(Picos::ZERO, |acc, sh| acc + sh.total_stall);
        report.duration = trace.duration();
        report.migration = self.mgr.migration_stats().clone();
        report.meta_cache = self.mgr.meta_cache_stats();
        report.injected_migration_requests = shards.iter().map(|sh| sh.injected_migration).sum();
        report.injected_meta_requests = shards.iter().map(|sh| sh.injected_meta).sum();
        let mut stats = SystemStats::default();
        for sh in shards.iter() {
            stats.merge(&sh.mem.stats());
        }
        report.mem_stats = stats;
        report.faults.migration_faults = faulted_migrations;
        report.faults.migration_retries = shards.iter().map(|sh| sh.fault_retries).sum();
        report.faults.migration_aborts = shards.iter().map(|sh| sh.fault_aborts).sum();
        report.faults.channel_faults = report.mem_stats.total().faults_injected;
        report.provenance = ledger.as_ref().map(ProvenanceLedger::summary);
        if cancelled {
            report.faults.cancelled = true;
            report.requests = requests_so_far;
        }
        self.tel.flush();
        report.timeline = self.tel.ring.drain();
        report
    }

    /// Recovers from a shard-worker panic by replaying the whole trace at
    /// one shard, where the same loop reproduces the sharded run's report
    /// bit for bit. The panicked run's partial engine state is discarded;
    /// the manager and memory system are rebuilt from the configuration
    /// and layout, so the degraded report is exactly a clean run's,
    /// flagged with the panic.
    ///
    /// Progress already flushed to the live counter is compensated with a
    /// `fetch_sub` before the replay re-counts from zero. Telemetry emitted
    /// before the panic stays in the sink (it faithfully observed the
    /// prefix); the replay's stream follows the [`EventKind::ShardPanic`] /
    /// [`EventKind::DegradedToSequential`] markers.
    #[expect(
        clippy::print_stderr,
        reason = "recovery path: a degraded run warns once on stderr, next to its telemetry markers"
    )]
    fn degrade(mut self, trace: &Trace, shard: u32, flushed_progress: u64, t: Picos) -> SimReport {
        let cause = EngineError::ShardWorkerPanicked { shard };
        eprintln!("warning: {cause}; replaying the run at one shard");
        let t = t.min(trace.duration());
        self.tel.event(t.as_ps(), EventKind::ShardPanic { shard });
        self.tel
            .event(t.as_ps(), EventKind::DegradedToSequential { shard });
        if let Some(p) = &self.progress {
            p.fetch_sub(flushed_progress, Ordering::Relaxed);
        }
        let mut sim = match Simulator::with_layout(self.cfg.clone(), self.layout) {
            Ok(sim) => sim,
            Err(e) => {
                // Unreachable: the config validated when `self` was built.
                // Recovery path, so degrade once more instead of panicking.
                eprintln!("warning: cannot rebuild simulator after shard panic: {e}");
                let mut report = SimReport::new(trace.name(), self.cfg.manager);
                report.faults.shard_panics = 1;
                report.faults.degraded_to_sequential = true;
                return report;
            }
        };
        sim.tel = std::mem::replace(&mut self.tel, Telemetry::disabled());
        sim.progress = self.progress.clone();
        sim.cancel = self.cancel.clone();
        let mut report = sim.run(trace);
        report.faults.shard_panics += 1;
        report.faults.degraded_to_sequential = true;
        report
    }
}

/// The sampled request-service span id for one admission, or [`SPAN_NONE`]
/// when span tracing is off or the request is unsampled.
///
/// The identity mixes the request's *pre-translation* coordinates (page,
/// line offset, arrival) — values every shard count sees identically
/// before any routing decision — so every shard count derives and samples
/// the same span ids without coordination.
fn request_span(
    cfg: Option<mempod_telemetry::SpanConfig>,
    page: u64,
    line: u32,
    arrival: Picos,
) -> u64 {
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

/// Decides fault outcomes for one batch of committed migrations (on the
/// main thread, so every shard count sees identical verdicts) and rolls
/// the permanently-doomed ones back out of the manager's map in reverse
/// commit order. Returns `(migration, spec)` pairs in commit order for the
/// engine, which models the doomed attempts' timing but never moves their
/// data.
fn decide_migration_faults(
    mgr: &mut dyn MemoryManager,
    plan: Option<&FaultPlan>,
    migrations: Vec<Migration>,
    at: Picos,
    faulted: &mut u64,
) -> Vec<(Migration, Option<MigrationFaultSpec>)> {
    if migrations.is_empty() {
        // Most accesses commit nothing: skip the per-request map/collect.
        return Vec::new();
    }
    let decided: Vec<(Migration, Option<MigrationFaultSpec>)> = migrations
        .into_iter()
        .map(|m| {
            let spec = plan.and_then(|p| p.migration_spec(m.frame_a, m.frame_b, at));
            if spec.is_some() {
                *faulted += 1;
            }
            (m, spec)
        })
        .collect();
    for (m, spec) in decided.iter().rev() {
        if spec.is_some_and(|s| s.permanent) {
            let _ = mgr.rollback_migration(m);
        }
    }
    decided
}

/// One barrier interval: the shard phase ([`run_batch`]) on the tick path,
/// then the [`barrier`]'s epoch work. The admission time and, with
/// `exec_seq` set, the work items routed to each shard are taken just
/// before the shard phase.
///
/// # Errors
///
/// Returns the index of the first (lowest-numbered) shard whose worker
/// panicked; the batch state is left as-is for the caller's degrade path
/// to discard.
#[allow(clippy::too_many_arguments)]
fn advance_shards(
    shards: &mut [Shard],
    arrivals: &mut Vec<Picos>,
    work: &mut [Vec<(u32, WorkItem)>],
    serial: bool,
    clock: Option<&PhaseClock>,
    admit_start: &mut Option<Instant>,
    tel: &mut Telemetry,
    main_events: &mut Vec<(u64, EventKind)>,
    events_wanted: bool,
    exec_seq: Option<&mut u64>,
) -> Result<(), u32> {
    if let (Some(c), Some(t0)) = (clock, admit_start.as_ref()) {
        c.record_admission(elapsed_ns(t0));
    }
    let counts = exec_seq
        .is_some()
        .then(|| work.iter().map(Vec::len).collect::<Vec<usize>>());
    run_batch(shards, arrivals, work, serial, clock)?;
    barrier(
        shards,
        arrivals,
        exec_seq.zip(counts),
        admit_start,
        tel,
        main_events,
        events_wanted,
    );
    Ok(())
}

/// The epoch half of a barrier: merge the buffered telemetry
/// deterministically and reset the batch.
///
/// With `exec` set (execution-span tracing on: the span sequence number
/// and the work items each shard ran), the barrier also emits one
/// [`SpanName::ShardBatch`] span per shard covering this batch's simulated
/// window (aux = work items routed to the shard) plus one
/// [`SpanName::Barrier`] marker, all in *simulated* time — wall clock
/// never reaches the event stream. The final flush batch (horizon
/// [`Picos::MAX`]) is skipped: it has no finite window to draw.
fn barrier(
    shards: &mut [Shard],
    arrivals: &mut Vec<Picos>,
    exec: Option<(&mut u64, Vec<usize>)>,
    admit_start: &mut Option<Instant>,
    tel: &mut Telemetry,
    main_events: &mut Vec<(u64, EventKind)>,
    events_wanted: bool,
) {
    let start = arrivals.first().map_or(0, |p| p.as_ps());
    let end = arrivals.last().map_or(0, |p| p.as_ps());
    let window = exec.map(|(seq, counts)| {
        *seq += 1;
        (*seq, counts)
    });
    if let Some((seq, counts)) = window.filter(|_| end != u64::MAX) {
        let exec_span = |id: u64, name: SpanName, start_ps: u64, shard: u32, aux: u64| SpanRecord {
            id,
            parent: SPAN_NONE,
            name,
            start_ps,
            end_ps: end,
            pod: None,
            frame: 0,
            shard,
            aux,
        };
        for (i, count) in counts.into_iter().enumerate() {
            let rec = exec_span(
                exec_span_id(u64_from_usize(i), seq),
                SpanName::ShardBatch,
                start,
                u32_from_u64(u64_from_usize(i)),
                u64_from_usize(count),
            );
            main_events.push((end, EventKind::Span(rec)));
        }
        let nshards = u64_from_usize(shards.len());
        let rec = exec_span(
            exec_span_id(nshards, seq),
            SpanName::Barrier,
            end,
            u32_from_u64(nshards),
            seq,
        );
        main_events.push((end, EventKind::Span(rec)));
    }
    if events_wanted {
        merge_events(tel, shards, main_events);
    }
    arrivals.clear();
    #[expect(
        clippy::disallowed_methods,
        reason = "observability-only: wall-clock origin of the next admission phase for the \
                  PhaseClock; never feeds simulated state"
    )]
    if let Some(t0) = admit_start.as_mut() {
        *t0 = Instant::now();
    }
}

/// Runs one batch of ticks on every shard — on worker threads by default,
/// or serially on the calling thread when there is one shard or exact
/// per-shard busy times are wanted (shards are disjoint, so the results
/// are identical either way).
///
/// # Errors
///
/// A worker panic (injected or real) is contained here — joined on the
/// threaded path, caught on the serial path — and reported as the index of
/// the first affected shard instead of unwinding through the barrier. A
/// one-shard run has no sibling to degrade to, so its panic resumes
/// unwinding with the original payload, as any other panic of the run
/// would.
fn run_batch(
    shards: &mut [Shard],
    arrivals: &[Picos],
    work: &mut [Vec<(u32, WorkItem)>],
    serial: bool,
    clock: Option<&PhaseClock>,
) -> Result<(), u32> {
    let timed = clock.is_some();
    let mut panicked: Option<(u32, Box<dyn Any + Send>)> = None;
    let busys: Vec<u64> = if serial || shards.len() == 1 {
        shards
            .iter_mut()
            .zip(work.iter_mut())
            .enumerate()
            .map(|(i, (s, w))| {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "observability-only: per-shard busy-time measurement for the \
                              PhaseClock critical path; never feeds simulated state"
                )]
                let t0 = timed.then(Instant::now);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    s.run_ticks(arrivals, w);
                }));
                if let Err(payload) = outcome {
                    panicked.get_or_insert((u32_from_u64(u64_from_usize(i)), payload));
                }
                w.clear();
                t0.as_ref().map_or(0, elapsed_ns)
            })
            .collect()
    } else {
        thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter_mut()
                .zip(work.iter_mut())
                .map(|(s, w)| {
                    scope.spawn(move || {
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "observability-only: per-worker wall-clock busy time \
                                      for the PhaseClock; never feeds simulated state"
                        )]
                        let t0 = timed.then(Instant::now);
                        s.run_ticks(arrivals, w);
                        w.clear();
                        t0.as_ref().map_or(0, elapsed_ns)
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(i, h)| match h.join() {
                    Ok(ns) => ns,
                    Err(payload) => {
                        // Explicitly joining captures the unwind, so the
                        // scope does not re-raise it; the barrier reports
                        // the shard instead.
                        panicked.get_or_insert((u32_from_u64(u64_from_usize(i)), payload));
                        0
                    }
                })
                .collect()
        })
    };
    if let Some((shard, payload)) = panicked {
        if shards.len() == 1 {
            std::panic::resume_unwind(payload);
        }
        return Err(shard);
    }
    if let Some(c) = clock {
        c.record_interval(&busys);
    }
    Ok(())
}

/// Nanoseconds elapsed since `t0`, saturating.
fn elapsed_ns(t0: &Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Drains every shard's event buffer (plus the admission thread's, merged
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

    fn run_with_memory_sink(
        kind: ManagerKind,
        n: usize,
    ) -> (SimReport, Arc<mempod_sync::Mutex<Vec<String>>>) {
        let sink = mempod_telemetry::MemorySink::new();
        let lines = sink.handle();
        let cfg = SimConfig::new(SystemConfig::tiny(), kind);
        let report = Simulator::new(cfg)
            .expect("valid")
            .with_telemetry(Telemetry::with_sink(Box::new(sink)))
            .run(&demo_trace(n));
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
        let lines = lines.lock().expect("sink mutex");
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

    #[test]
    fn progress_counter_reaches_request_total() {
        let counter = Arc::new(AtomicU64::new(0));
        let cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::NoMigration);
        let report = Simulator::new(cfg)
            .expect("valid")
            .with_progress(Arc::clone(&counter))
            .run(&demo_trace(10_000));
        assert_eq!(counter.load(Ordering::Relaxed), report.requests);
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
        // Single-domain managers never shard.
        assert_eq!(sim(ManagerKind::Hma, 8), 1);
        assert_eq!(sim(ManagerKind::Thm, 8), 1);
        assert_eq!(sim(ManagerKind::Cameo, 8), 1);
        // Statics are unconstrained by domains: HBM-only has 8 fast
        // channels and no slow tier.
        assert_eq!(sim(ManagerKind::HbmOnly, 8), 8);
        assert_eq!(sim(ManagerKind::DdrOnly, 8), 4);
    }

    #[test]
    fn sharded_runs_match_the_reference_bit_for_bit() {
        for kind in [
            ManagerKind::MemPod,
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

    /// The causal span stream (requests at full sampling + migration
    /// lifecycles, execution spans off) is byte-identical — modulo sink
    /// buffering order, hence the sort — between a one-shard run and every
    /// accepted shard count.
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
            ref_lines.iter().any(|l| l.contains("\"Migration\"")),
            "migration lifecycle spans were traced"
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
        let trace = demo_trace(20_000);
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
            .with_shards(4)
            .run(&trace);
        assert!(report.requests > 0);
        let lines = lines.lock().expect("sink mutex").clone();
        assert!(
            lines.iter().any(|l| l.contains("\"ShardBatch\"")),
            "shard batch windows were traced"
        );
        assert!(
            lines.iter().any(|l| l.contains("\"Barrier\"")),
            "barrier crossings were traced"
        );
        // Requests were sampled out entirely.
        assert!(!lines.iter().any(|l| l.contains("\"Request\"")));
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
                kind_idx in 0usize..3,
            ) {
                let kind = [
                    ManagerKind::MemPod,
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

    #[test]
    fn forced_worker_panic_degrades_to_sequential_and_matches_reference() {
        use mempod_types::{FaultConfig, WorkerPanic};
        let mut cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::MemPod);
        let mut f = FaultConfig::quiet(5);
        f.worker_panic = Some(WorkerPanic { shard: 1, batch: 2 });
        cfg.faults = Some(f);
        let mut degraded = Simulator::new(cfg)
            .expect("valid")
            .with_shards(4)
            .run(&demo_trace(20_000));
        assert!(degraded.faults.degraded_to_sequential);
        assert_eq!(degraded.faults.shard_panics, 1);
        // Apart from the recovery accounting, the degraded run must be
        // bit-identical to a clean one-shard run: fault decisions are pure
        // functions, so the replay is the exact same simulation.
        degraded.faults.shard_panics = 0;
        degraded.faults.degraded_to_sequential = false;
        let clean = run_one_shard(ManagerKind::MemPod, 20_000);
        assert_eq!(degraded, clean);
    }

    #[test]
    fn worker_panic_is_ignored_by_a_one_shard_run() {
        use mempod_types::{FaultConfig, WorkerPanic};
        let mut cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::MemPod);
        let mut f = FaultConfig::quiet(5);
        f.worker_panic = Some(WorkerPanic { shard: 0, batch: 1 });
        cfg.faults = Some(f);
        let report = Simulator::new(cfg)
            .expect("valid")
            .with_shards(1)
            .run(&demo_trace(20_000));
        assert!(!report.faults.degraded_to_sequential);
        assert_eq!(report.faults.shard_panics, 0);
        assert_eq!(report, run_one_shard(ManagerKind::MemPod, 20_000));
    }

    #[test]
    fn forced_worker_panic_reaches_telemetry() {
        use mempod_types::{FaultConfig, WorkerPanic};
        let sink = mempod_telemetry::MemorySink::new();
        let lines = sink.handle();
        let mut cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::MemPod);
        let mut f = FaultConfig::quiet(5);
        f.worker_panic = Some(WorkerPanic { shard: 0, batch: 1 });
        cfg.faults = Some(f);
        let report = Simulator::new(cfg)
            .expect("valid")
            .with_shards(4)
            .with_telemetry(Telemetry::with_sink(Box::new(sink)))
            .run(&demo_trace(10_000));
        assert!(report.faults.degraded_to_sequential);
        let lines = lines.lock().expect("sink mutex");
        assert!(lines.iter().any(|l| l.contains("ShardPanic")));
        assert!(lines.iter().any(|l| l.contains("DegradedToSequential")));
    }

    #[test]
    fn pre_cancelled_runs_stop_early_and_say_so() {
        for shards in [1u32, 4] {
            let token = Arc::new(AtomicBool::new(true));
            let cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::MemPod);
            let r = Simulator::new(cfg)
                .expect("valid")
                .with_shards(shards)
                .with_cancel(Arc::clone(&token))
                .run(&demo_trace(5_000));
            assert!(r.faults.cancelled, "{shards} shards");
            assert_eq!(r.requests, 0, "{shards} shards");
        }
    }

    #[test]
    fn mid_run_cancellation_stops_on_a_batch_boundary_with_exact_progress() {
        // Whenever the watchdog's store lands, the loop only honours it at
        // a barrier boundary: without telemetry (no epoch pre-pump rounds)
        // the partial request count is a whole number of batches, and the
        // progress counter, flushed at the same barriers, equals it
        // exactly (no trailing unflushed remainder).
        let token = Arc::new(AtomicBool::new(false));
        let counter = Arc::new(AtomicU64::new(0));
        let cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::MemPod);
        let sim = Simulator::new(cfg)
            .expect("valid")
            .with_cancel(Arc::clone(&token))
            .with_progress(Arc::clone(&counter));
        let trace = demo_trace(300_000);
        let arm = Arc::clone(&token);
        let watchdog = thread::spawn(move || {
            thread::sleep(std::time::Duration::from_millis(2));
            arm.store(true, Ordering::Release);
        });
        let r = sim.run(&trace);
        watchdog.join().expect("watchdog thread");
        if r.faults.cancelled {
            assert!(r.requests < 300_000, "stopped early");
            assert_eq!(
                r.requests % u64_from_usize(BATCH_TICKS),
                0,
                "batch-quantized stop"
            );
        } else {
            // The machine outran the 2ms fuse; the run completed instead.
            assert_eq!(r.requests, 300_000);
        }
        assert_eq!(counter.load(Ordering::Relaxed), r.requests);
    }

    /// Trips a cancel token from the admission loop itself, mid-batch: at
    /// the first epoch snapshot, which the loop emits synchronously between
    /// two requests of an open batch.
    #[derive(Debug)]
    struct CancelAtFirstEpoch {
        token: Arc<AtomicBool>,
        /// Requests admitted when the token was tripped.
        tripped_at: Arc<AtomicU64>,
    }

    impl mempod_telemetry::EventSink for CancelAtFirstEpoch {
        fn emit(&mut self, _line: &str) {}

        fn emit_event(&mut self, event: &mempod_telemetry::Event) {
            if let EventKind::Epoch(snap) = &event.kind {
                if !self.token.swap(true, Ordering::Relaxed) {
                    self.tripped_at.store(snap.requests, Ordering::Relaxed);
                }
            }
        }
    }

    #[test]
    fn cancel_tripped_mid_batch_is_honoured_only_after_the_batch() {
        // Deterministic counterpart of the timed test above: the token
        // trips while a batch is open, and the loop must finish that
        // barrier interval (at least BATCH_TICKS more requests) before it
        // stops, at every shard count.
        for shards in [1u32, 4] {
            let token = Arc::new(AtomicBool::new(false));
            let tripped_at = Arc::new(AtomicU64::new(0));
            let counter = Arc::new(AtomicU64::new(0));
            let sink = CancelAtFirstEpoch {
                token: Arc::clone(&token),
                tripped_at: Arc::clone(&tripped_at),
            };
            let cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::MemPod);
            let r = Simulator::new(cfg)
                .expect("valid")
                .with_shards(shards)
                .with_telemetry(Telemetry::with_sink(Box::new(sink)))
                .with_cancel(Arc::clone(&token))
                .with_progress(Arc::clone(&counter))
                .run(&demo_trace(100_000));
            let tripped = tripped_at.load(Ordering::Relaxed);
            assert!(token.load(Ordering::Relaxed), "{shards} shards: tripped");
            assert!(r.faults.cancelled, "{shards} shards");
            assert!(r.requests < 100_000, "{shards} shards: stopped early");
            assert!(
                r.requests >= tripped + u64_from_usize(BATCH_TICKS),
                "{shards} shards: stopped at {} inside the batch open at {tripped}",
                r.requests
            );
            assert_eq!(
                counter.load(Ordering::Relaxed),
                r.requests,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn progress_board_stays_consistent_across_shard_panic_degradation() {
        // A shard panic mid-run degrades to a one-shard replay; the shared
        // progress counter must roll back the partial sharded credit and
        // land exactly on the final request count — never double-counting
        // replayed work.
        use mempod_types::{FaultConfig, WorkerPanic};
        let counter = Arc::new(AtomicU64::new(0));
        let mut cfg = SimConfig::new(SystemConfig::tiny(), ManagerKind::MemPod);
        let mut f = FaultConfig::quiet(5);
        f.worker_panic = Some(WorkerPanic { shard: 1, batch: 2 });
        cfg.faults = Some(f);
        let r = Simulator::new(cfg)
            .expect("valid")
            .with_shards(4)
            .with_progress(Arc::clone(&counter))
            .run(&demo_trace(20_000));
        assert!(r.faults.degraded_to_sequential);
        assert_eq!(r.requests, 20_000);
        assert_eq!(counter.load(Ordering::Relaxed), r.requests);
    }
}
