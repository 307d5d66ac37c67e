//! Parallel experiment runner.
//!
//! The paper's figures are matrices (workloads × mechanisms × parameters).
//! [`try_run_jobs`] executes a list of independent [`Job`]s across scoped
//! worker threads (`thread::scope`; no external thread-pool crates),
//! preserving job order in the output. Traces are shared by `Arc` so a
//! workload generated once can feed every mechanism.
//!
//! The crate denies `unwrap`/`expect`/`panic!` outside tests (clippy's
//! `unwrap_used`, `expect_used` and `panic`), so every fallible step
//! propagates a [`SimError`].

use std::time::Instant;

use mempod_sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use mempod_sync::{thread, Arc, PoisonError};

use mempod_trace::Trace;

use crate::config::{SimConfig, SimError};
use crate::metrics::SimReport;
use crate::simulator::Simulator;

/// One simulation to run: a configuration plus a shared trace.
#[derive(Debug, Clone)]
pub struct Job {
    /// The simulation configuration.
    pub cfg: SimConfig,
    /// The trace to drive (shared across jobs).
    pub trace: Arc<Trace>,
}

impl Job {
    /// Creates a job.
    pub fn new(cfg: SimConfig, trace: Arc<Trace>) -> Self {
        Job { cfg, trace }
    }
}

/// Lifecycle of one job within a monitored run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Not yet picked up by a worker.
    Pending,
    /// Currently simulating on a worker thread.
    Running,
    /// Finished (successfully or with a config error).
    Done,
}

const STATE_PENDING: u8 = 0;
const STATE_RUNNING: u8 = 1;
const STATE_DONE: u8 = 2;

/// Live view of one job: written by its worker, read by a monitor thread.
///
/// All fields are lock-free; a monitor polling mid-update sees a slightly
/// stale but internally plausible picture (e.g. `Done` with the final
/// request count a poll late), never a torn one.
#[derive(Debug)]
pub struct JobProgress {
    /// Short human label (`workload/manager`).
    label: String,
    /// Foreground requests simulated so far (batched by the simulator, so
    /// this trails the true count by at most the flush granularity).
    requests_done: Arc<AtomicU64>,
    /// Total requests this job will simulate.
    total_requests: u64,
    state: AtomicU8,
    /// Milliseconds after run start when the worker picked the job up.
    started_ms: AtomicU64,
    /// Milliseconds after run start when the job finished.
    finished_ms: AtomicU64,
}

impl JobProgress {
    fn new(label: String, total_requests: u64) -> Self {
        JobProgress {
            label,
            requests_done: Arc::new(AtomicU64::new(0)),
            total_requests,
            state: AtomicU8::new(STATE_PENDING),
            started_ms: AtomicU64::new(0),
            finished_ms: AtomicU64::new(0),
        }
    }

    /// The job's short label (`workload/manager`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Requests simulated so far.
    pub fn requests_done(&self) -> u64 {
        self.requests_done.load(Ordering::Relaxed)
    }

    /// Requests the job will simulate in total.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        match self.state.load(Ordering::Acquire) {
            STATE_RUNNING => JobState::Running,
            STATE_DONE => JobState::Done,
            _ => JobState::Pending,
        }
    }

    /// Milliseconds after run start when a worker picked the job up
    /// (`None` while pending).
    pub fn started_ms(&self) -> Option<u64> {
        (self.state() != JobState::Pending).then(|| self.started_ms.load(Ordering::Relaxed))
    }

    /// Wall-clock milliseconds the job ran for (`None` until done).
    pub fn wall_ms(&self) -> Option<u64> {
        (self.state() == JobState::Done).then(|| {
            self.finished_ms
                .load(Ordering::Relaxed)
                .saturating_sub(self.started_ms.load(Ordering::Relaxed))
        })
    }

    /// How long the job has been running as of `elapsed_ms` into the run
    /// (`None` unless currently running).
    pub fn running_for_ms(&self, elapsed_ms: u64) -> Option<u64> {
        (self.state() == JobState::Running)
            .then(|| elapsed_ms.saturating_sub(self.started_ms.load(Ordering::Relaxed)))
    }
}

/// Shared live view of a whole [`try_run_jobs_with_progress`] batch.
///
/// Create one with [`RunProgress::for_jobs`], hand a clone of the `Arc` to
/// a monitor thread, and pass it to the runner; the monitor polls
/// [`total_done`](RunProgress::total_done) /
/// [`stragglers`](RunProgress::stragglers) at its own cadence while the
/// workers crunch.
#[derive(Debug)]
pub struct RunProgress {
    origin: Instant,
    jobs: Vec<JobProgress>,
}

impl RunProgress {
    /// A progress board with one slot per job, labelled
    /// `workload/manager`. Clocks start now.
    pub fn for_jobs(jobs: &[Job]) -> Arc<Self> {
        #[expect(
            clippy::disallowed_methods,
            reason = "observability-only: wall-clock origin feeds the progress board, never simulated state"
        )]
        let origin = Instant::now();
        Arc::new(RunProgress {
            origin,
            jobs: jobs
                .iter()
                .map(|j| {
                    JobProgress::new(
                        format!("{}/{}", j.trace.name(), j.cfg.manager),
                        j.trace.len() as u64,
                    )
                })
                .collect(),
        })
    }

    /// Per-job progress slots, in job order.
    pub fn jobs(&self) -> &[JobProgress] {
        &self.jobs
    }

    /// Milliseconds since the board was created.
    pub fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Requests simulated so far across every job.
    pub fn total_done(&self) -> u64 {
        self.jobs.iter().map(JobProgress::requests_done).sum()
    }

    /// Jobs finished so far.
    pub fn jobs_done(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.state() == JobState::Done)
            .count()
    }

    /// Aggregate throughput in requests per second since run start
    /// (`None` in the first millisecond, before the clock can divide).
    pub fn throughput_rps(&self) -> Option<f64> {
        let ms = self.elapsed_ms();
        (ms > 0).then(|| self.total_done() as f64 * 1000.0 / ms as f64)
    }

    /// Indices of *stragglers*: jobs still running after more than
    /// `factor` × the median wall time of completed jobs. Empty until at
    /// least one job has completed (there is no baseline to compare to).
    pub fn stragglers(&self, factor: f64) -> Vec<usize> {
        let mut walls: Vec<u64> = self.jobs.iter().filter_map(JobProgress::wall_ms).collect();
        if walls.is_empty() {
            return Vec::new();
        }
        walls.sort_unstable();
        let median = walls[walls.len() / 2];
        let threshold = (median as f64 * factor).max(1.0);
        let elapsed = self.elapsed_ms();
        self.jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| {
                j.running_for_ms(elapsed)
                    .is_some_and(|ms| ms as f64 > threshold)
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// Hard-timeout policy for a watchdog-monitored run.
///
/// The watchdog escalates beyond [`RunProgress::stragglers`] (report-only):
/// a job running longer than `hard_timeout_ms` is *cancelled* through its
/// simulator's cooperative cancellation token and surfaced as
/// [`SimError::JobTimedOut`] in the partial-results summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// How often the monitor samples job states, in milliseconds
    /// (clamped to at least 1).
    pub poll_ms: u64,
    /// A running job is cancelled once it has been running for more than
    /// this many wall-clock milliseconds.
    pub hard_timeout_ms: u64,
}

/// Runs all jobs on `threads` workers, returning reports in job order.
///
/// # Errors
///
/// Returns the first [`SimError`] (in job order) if any job's configuration
/// is rejected by [`Simulator::new`]. Remaining jobs still run; only the
/// result assembly short-circuits.
pub fn try_run_jobs(jobs: Vec<Job>, threads: usize) -> Result<Vec<SimReport>, SimError> {
    try_run_jobs_with_progress(jobs, threads, None)
}

/// [`try_run_jobs`] with an optional live progress board.
///
/// When `progress` is supplied it must come from [`RunProgress::for_jobs`]
/// on the same job list (slot `i` tracks job `i`; a shorter board simply
/// leaves later jobs untracked). Workers flip each slot to `Running`/`Done`
/// and stream batched request counts into it via
/// [`Simulator::with_progress`].
///
/// # Errors
///
/// Same contract as [`try_run_jobs`].
pub fn try_run_jobs_with_progress(
    jobs: Vec<Job>,
    threads: usize,
    progress: Option<Arc<RunProgress>>,
) -> Result<Vec<SimReport>, SimError> {
    run_jobs_core(jobs, threads, progress, None)
        .into_iter()
        .collect()
}

/// [`try_run_jobs_with_progress`] under a hard-timeout watchdog, returning
/// a *partial-results summary*: per-job `Result`s in job order, where jobs
/// that finished keep their reports and jobs the watchdog cancelled come
/// back as [`SimError::JobTimedOut`] — one slow job no longer forfeits the
/// whole batch.
///
/// A progress board is created automatically when `progress` is `None`
/// (the watchdog needs per-job running times to measure timeouts against).
pub fn try_run_jobs_with_watchdog(
    jobs: Vec<Job>,
    threads: usize,
    progress: Option<Arc<RunProgress>>,
    watchdog: WatchdogConfig,
) -> Vec<Result<SimReport, SimError>> {
    let progress = match progress {
        Some(board) => board,
        None => RunProgress::for_jobs(&jobs),
    };
    run_jobs_core(jobs, threads, Some(progress), Some(watchdog))
}

/// Shared engine behind the `try_run_jobs*` family: scoped workers pull
/// jobs off a shared counter; an optional watchdog thread polls the
/// progress board and trips per-job cancellation tokens.
fn run_jobs_core(
    jobs: Vec<Job>,
    threads: usize,
    progress: Option<Arc<RunProgress>>,
    watchdog: Option<WatchdogConfig>,
) -> Vec<Result<SimReport, SimError>> {
    let threads = threads.max(1).min(jobs.len().max(1));
    let n = jobs.len();
    let jobs = Arc::new(jobs);
    let next = AtomicUsize::new(0);
    let remaining = AtomicUsize::new(n);
    let cancels: Vec<Arc<AtomicBool>> = (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect();
    #[expect(
        clippy::disallowed_types,
        reason = "job results land in index-keyed slots, so lock order cannot affect output"
    )]
    let results: mempod_sync::Mutex<Vec<Option<Result<SimReport, SimError>>>> =
        mempod_sync::Mutex::new((0..n).map(|_| None).collect());

    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = &jobs[i];
                let slot = progress.as_deref().and_then(|p| p.jobs.get(i));
                if let Some(slot) = slot {
                    let now = progress.as_deref().map_or(0, |p| p.elapsed_ms());
                    slot.started_ms.store(now, Ordering::Relaxed);
                    slot.state.store(STATE_RUNNING, Ordering::Release);
                }
                let outcome = Simulator::new(job.cfg.clone()).map(|sim| {
                    let sim = match slot {
                        Some(slot) => sim.with_progress(Arc::clone(&slot.requests_done)),
                        None => sim,
                    };
                    let sim = match (watchdog.is_some(), cancels.get(i)) {
                        (true, Some(token)) => sim.with_cancel(Arc::clone(token)),
                        _ => sim,
                    };
                    sim.run(&job.trace)
                });
                if let Some(slot) = slot {
                    let now = progress.as_deref().map_or(0, |p| p.elapsed_ms());
                    slot.finished_ms.store(now, Ordering::Relaxed);
                    slot.state.store(STATE_DONE, Ordering::Release);
                }
                // Index-keyed slots are either fully written or absent, so
                // recovering from a poisoned lock here is sound; worker
                // panics still propagate out of the scope.
                results.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(outcome);
                remaining.fetch_sub(1, Ordering::Release);
            });
        }
        if let (Some(w), Some(board)) = (watchdog, progress.as_deref()) {
            // The monitor lives in the same scope, so it can never outlive
            // the tokens; it exits as soon as the last job reports in.
            let remaining = &remaining;
            let cancels = &cancels;
            scope.spawn(move || {
                while remaining.load(Ordering::Acquire) > 0 {
                    thread::sleep(std::time::Duration::from_millis(w.poll_ms.max(1)));
                    let elapsed = board.elapsed_ms();
                    for (slot, cancel) in board.jobs.iter().zip(cancels) {
                        if slot
                            .running_for_ms(elapsed)
                            .is_some_and(|ms| ms > w.hard_timeout_ms)
                        {
                            // Release pairs with the simulator's Acquire
                            // poll at the batch boundary.
                            cancel.store(true, Ordering::Release);
                        }
                    }
                }
            });
        }
        // Leaving the scope joins every worker; a worker panic (a bug, not
        // a config error) re-raises here without any explicit join code.
    });

    let slots = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let outcome = slot.unwrap_or(Err(SimError::WorkerLost { job: i }));
            match outcome {
                // A report flagged `cancelled` after its token tripped is
                // the watchdog's doing: convert it to the timeout error so
                // a truncated run is never mistaken for a complete one.
                Ok(r)
                    if r.faults.cancelled
                        && cancels.get(i).is_some_and(|c| c.load(Ordering::Relaxed)) =>
                {
                    Err(SimError::JobTimedOut { job: i })
                }
                other => other,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempod_core::ManagerKind;
    use mempod_trace::{TraceGenerator, WorkloadSpec};
    use mempod_types::SystemConfig;

    #[test]
    fn parallel_matches_job_order_and_serial_results() {
        let sys = SystemConfig::tiny();
        let trace = Arc::new(
            TraceGenerator::new(WorkloadSpec::hotcold_demo(), 1)
                .take_requests(5_000, &sys.geometry),
        );
        let kinds = [
            ManagerKind::MemPod,
            ManagerKind::NoMigration,
            ManagerKind::Thm,
            ManagerKind::HbmOnly,
        ];
        let jobs: Vec<Job> = kinds
            .iter()
            .map(|&k| Job::new(SimConfig::new(sys.clone(), k), trace.clone()))
            .collect();
        let parallel = try_run_jobs(jobs.clone(), 4).expect("all configs valid");
        let serial: Vec<SimReport> = jobs
            .into_iter()
            .map(|j| Simulator::new(j.cfg).unwrap().run(&j.trace))
            .collect();
        assert_eq!(parallel.len(), 4);
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.manager, s.manager);
            assert_eq!(p.total_stall, s.total_stall);
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(try_run_jobs(Vec::new(), 8)
            .expect("empty is valid")
            .is_empty());
    }

    #[test]
    fn progress_board_tracks_every_job_to_done() {
        let sys = SystemConfig::tiny();
        let trace = Arc::new(
            TraceGenerator::new(WorkloadSpec::hotcold_demo(), 1)
                .take_requests(5_000, &sys.geometry),
        );
        let jobs: Vec<Job> = [ManagerKind::MemPod, ManagerKind::NoMigration]
            .iter()
            .map(|&k| Job::new(SimConfig::new(sys.clone(), k), trace.clone()))
            .collect();
        let progress = RunProgress::for_jobs(&jobs);
        assert_eq!(progress.jobs().len(), 2);
        assert_eq!(progress.jobs()[0].state(), JobState::Pending);
        assert_eq!(progress.jobs()[0].total_requests(), 5_000);
        assert!(progress.jobs()[0].label().contains("MemPod"));

        let reports = try_run_jobs_with_progress(jobs, 2, Some(Arc::clone(&progress)))
            .expect("valid configs");
        assert_eq!(reports.len(), 2);
        for (slot, report) in progress.jobs().iter().zip(&reports) {
            assert_eq!(slot.state(), JobState::Done);
            assert_eq!(slot.requests_done(), report.requests);
            assert!(slot.wall_ms().is_some());
            assert!(slot.started_ms().is_some());
        }
        assert_eq!(progress.total_done(), 10_000);
        assert_eq!(progress.jobs_done(), 2);
        // Nothing is still running, so nothing can be a straggler.
        assert!(progress.stragglers(2.0).is_empty());
    }

    #[test]
    fn stragglers_need_a_completed_baseline() {
        let sys = SystemConfig::tiny();
        let trace = Arc::new(
            TraceGenerator::new(WorkloadSpec::hotcold_demo(), 1).take_requests(100, &sys.geometry),
        );
        let jobs = vec![Job::new(
            SimConfig::new(sys, ManagerKind::NoMigration),
            trace,
        )];
        let progress = RunProgress::for_jobs(&jobs);
        // No job has completed yet: no baseline, no stragglers.
        assert!(progress.stragglers(1.0).is_empty());
        assert_eq!(progress.total_done(), 0);
    }

    #[test]
    fn watchdog_cancels_a_job_past_its_hard_timeout() {
        let sys = SystemConfig::tiny();
        let trace = Arc::new(
            TraceGenerator::new(WorkloadSpec::hotcold_demo(), 1)
                .take_requests(200_000, &sys.geometry),
        );
        let jobs = vec![Job::new(SimConfig::new(sys, ManagerKind::MemPod), trace)];
        let outcomes = try_run_jobs_with_watchdog(
            jobs,
            1,
            None,
            WatchdogConfig {
                poll_ms: 1,
                hard_timeout_ms: 0,
            },
        );
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(outcomes[0], Err(SimError::JobTimedOut { job: 0 })));
    }

    #[test]
    fn watchdog_leaves_prompt_jobs_alone() {
        let sys = SystemConfig::tiny();
        let trace = Arc::new(
            TraceGenerator::new(WorkloadSpec::hotcold_demo(), 1)
                .take_requests(2_000, &sys.geometry),
        );
        let jobs: Vec<Job> = [ManagerKind::MemPod, ManagerKind::NoMigration]
            .iter()
            .map(|&k| Job::new(SimConfig::new(sys.clone(), k), trace.clone()))
            .collect();
        let plain = try_run_jobs(jobs.clone(), 2).expect("valid configs");
        let outcomes = try_run_jobs_with_watchdog(
            jobs,
            2,
            None,
            WatchdogConfig {
                poll_ms: 1,
                hard_timeout_ms: 600_000,
            },
        );
        assert_eq!(outcomes.len(), 2);
        for (outcome, baseline) in outcomes.iter().zip(&plain) {
            let r = outcome.as_ref().expect("finished well inside timeout");
            assert_eq!(r.total_stall, baseline.total_stall);
            assert!(!r.faults.cancelled);
        }
    }

    #[test]
    fn partial_results_keep_job_order_under_mixed_outcomes() {
        let sys = SystemConfig::tiny();
        let small = Arc::new(
            TraceGenerator::new(WorkloadSpec::hotcold_demo(), 1)
                .take_requests(2_000, &sys.geometry),
        );
        let huge = Arc::new(
            TraceGenerator::new(WorkloadSpec::hotcold_demo(), 2)
                .take_requests(400_000, &sys.geometry),
        );
        let jobs = vec![
            Job::new(
                SimConfig::new(sys.clone(), ManagerKind::NoMigration),
                Arc::clone(&small),
            ),
            Job::new(SimConfig::new(sys.clone(), ManagerKind::MemPod), huge),
            Job::new(SimConfig::new(sys, ManagerKind::Thm), small),
        ];
        let outcomes = try_run_jobs_with_watchdog(
            jobs,
            3,
            None,
            WatchdogConfig {
                poll_ms: 1,
                hard_timeout_ms: 5,
            },
        );
        assert_eq!(outcomes.len(), 3);
        // Ordering assertion: slot `i` always describes job `i`, whether
        // it finished or timed out — a timeout never shifts later results.
        for (i, outcome) in outcomes.iter().enumerate() {
            match outcome {
                Ok(r) => assert_eq!(r.requests, 2_000, "job {i}"),
                Err(SimError::JobTimedOut { job }) => assert_eq!(*job, i),
                Err(e) => panic!("job {i}: unexpected error {e:?}"),
            }
        }
        // The 400k-request job cannot finish inside a 5ms hard timeout.
        assert!(
            matches!(outcomes[1], Err(SimError::JobTimedOut { job: 1 })),
            "outcome 1 was {:?}",
            outcomes[1].as_ref().map(|r| r.requests)
        );
    }

    #[test]
    fn result_slots_recover_from_a_poisoned_lock_with_consistent_state() {
        // The runner's result board pattern in isolation: a worker dies
        // holding the lock mid-update; survivors recover the poisoned
        // lock and every slot is still either complete or absent.
        use mempod_sync::Mutex;
        let results: Arc<Mutex<Vec<Option<usize>>>> = Arc::new(Mutex::new(vec![None; 3]));
        let r2 = Arc::clone(&results);
        let dead = thread::spawn(move || {
            let mut g = r2.lock().unwrap_or_else(PoisonError::into_inner);
            g[0] = Some(0);
            panic!("worker dies mid-update");
        });
        assert!(dead.join().is_err());
        assert!(results.is_poisoned(), "unwinding guard must poison");
        for i in 1..3 {
            results.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(i);
        }
        let slots = results.lock().unwrap_or_else(PoisonError::into_inner);
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(*slot, Some(i), "slot {i} complete and untorn");
        }
    }

    #[test]
    fn single_thread_works() {
        let sys = SystemConfig::tiny();
        let trace = Arc::new(
            TraceGenerator::new(WorkloadSpec::hotcold_demo(), 1)
                .take_requests(1_000, &sys.geometry),
        );
        let jobs = vec![Job::new(
            SimConfig::new(sys, ManagerKind::NoMigration),
            trace,
        )];
        assert_eq!(try_run_jobs(jobs, 1).expect("valid").len(), 1);
    }
}
