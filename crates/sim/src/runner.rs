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

use mempod_sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use mempod_sync::{thread, Arc};

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

/// Shared live view of a whole [`try_run_jobs`] batch.
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

/// Runs all jobs on `threads` workers, returning reports in job order.
///
/// When `progress` is supplied it must come from [`RunProgress::for_jobs`]
/// on the same job list (slot `i` tracks job `i`; a shorter board simply
/// leaves later jobs untracked). Workers flip each slot to `Running`/`Done`
/// and stream batched request counts into it via
/// [`Simulator::with_progress`].
///
/// Each worker hands its `(index, outcome)` pairs back through its join
/// handle, so no result state is shared; a worker panic (a bug, not a
/// config error) re-raises on the calling thread.
///
/// # Errors
///
/// Returns the first [`SimError`] (in job order) if any job's configuration
/// is rejected by [`Simulator::new`]. Remaining jobs still run; only the
/// result assembly short-circuits.
pub fn try_run_jobs(
    jobs: &[Job],
    threads: usize,
    progress: Option<&RunProgress>,
) -> Result<Vec<SimReport>, SimError> {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut outcomes = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else {
                return outcomes;
            };
            let slot = progress.and_then(|board| Some((board, board.jobs.get(i)?)));
            if let Some((board, slot)) = slot {
                slot.started_ms.store(board.elapsed_ms(), Ordering::Relaxed);
                slot.state.store(STATE_RUNNING, Ordering::Release);
            }
            let outcome = Simulator::new(job.cfg.clone()).map(|sim| {
                let sim = match slot {
                    Some((_, slot)) => sim.with_progress(Arc::clone(&slot.requests_done)),
                    None => sim,
                };
                sim.run(&job.trace)
            });
            if let Some((board, slot)) = slot {
                slot.finished_ms
                    .store(board.elapsed_ms(), Ordering::Relaxed);
                // Release pairs with `JobProgress::state`'s Acquire: a
                // reader that sees `Done` also sees the run's final
                // progress flush and finish time.
                slot.state.store(STATE_DONE, Ordering::Release);
            }
            outcomes.push((i, outcome));
        }
    };
    let mut outcomes: Vec<(usize, Result<SimReport, SimError>)> = thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.clamp(1, jobs.len().max(1)))
            .map(|_| scope.spawn(worker))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    outcomes.sort_unstable_by_key(|&(i, _)| i);
    outcomes.into_iter().map(|(_, outcome)| outcome).collect()
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
        let parallel = try_run_jobs(&jobs, 4, None).expect("all configs valid");
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
        assert!(try_run_jobs(&[], 8, None)
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

        let reports = try_run_jobs(&jobs, 2, Some(&progress)).expect("valid configs");
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
    fn a_slot_reads_done_only_after_its_final_progress_flush() {
        // The worker's Release store of `Done` follows the run's last
        // progress flush, and `state()` loads with Acquire, so a poller
        // that sees `Done` must see the full request count. Polling a
        // long single-worker run catches a slot marked `Done` early.
        let sys = SystemConfig::tiny();
        let trace = Arc::new(
            TraceGenerator::new(WorkloadSpec::hotcold_demo(), 1)
                .take_requests(200_000, &sys.geometry),
        );
        let jobs = vec![Job::new(SimConfig::new(sys, ManagerKind::MemPod), trace)];
        let progress = RunProgress::for_jobs(&jobs);
        let slot = &progress.jobs()[0];
        let reports = thread::scope(|scope| {
            let run = scope.spawn(|| try_run_jobs(&jobs, 1, Some(&progress)));
            loop {
                let done = slot.state() == JobState::Done;
                assert!(slot.requests_done() <= slot.total_requests());
                if done {
                    assert_eq!(slot.requests_done(), slot.total_requests());
                    break;
                }
                if run.is_finished() {
                    // A panicked worker never marks its slot: `join`
                    // re-raises the panic instead of polling forever.
                    break;
                }
                thread::sleep(std::time::Duration::from_millis(1));
            }
            run.join().expect("runner thread")
        })
        .expect("valid config");
        assert_eq!(slot.state(), JobState::Done);
        assert_eq!(reports[0].requests, slot.total_requests());
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
        assert_eq!(try_run_jobs(&jobs, 1, None).expect("valid").len(), 1);
    }
}
