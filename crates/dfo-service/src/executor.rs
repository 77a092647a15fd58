//! The job executor shared by [`crate::Service`] and rank 0 of
//! [`crate::Daemon`]: one job table, one admission loop, one retry rule,
//! one report path.
//!
//! The two front ends differ only in how one admitted attempt runs (an
//! [`AttemptRunner`]: in-process threads, or a fan-out over the resident
//! mesh) and in how job events reach the submitter (a [`JobSink`]: a
//! condvar slot, or a client connection). Everything else lives here:
//!
//! * **submit**: graph in the catalog, algorithm in the registry, edge
//!   payload compatible — a bad spec is a typed error before any rank
//!   runs. The admission footprint is the spec's explicit `mem_estimate`,
//!   else the learned estimate of earlier runs of the same
//!   `(algorithm, graph)`, else the static per-vertex hint;
//! * **admission** ([`Executor::serve`]): the [scheduler](crate::sched)
//!   picks by priority, per-client quota and aging against the live
//!   footprint account — up to `mem_budget` of estimates and
//!   [`MAX_OVERLAP`] jobs at once, a budget-oversized job only alone;
//! * **cancellation**: a queued job is withdrawn on the spot as
//!   `Cancelled`; a running one sees its token at the next `Process` call;
//! * **retry**: an attempt that fails with a
//!   [retryable](DfoError::is_retryable) error, not cancelled, with
//!   attempts left under [`JobSpec::max_retries`], is **requeued** — it
//!   gives up its admission charge and re-runs under a fresh
//!   `job<id>a<attempt>` scratch scope. An attempt that kills its
//!   substrate (the mesh) also stops admission until the running jobs
//!   drain; [`Executor::serve`] then returns so the front end can rebuild
//!   it;
//! * **report**: per-rank outputs and stats, the learned footprint, and
//!   every `dfo_sched_*` / `dfo_job*` series.

use crate::catalog::{Catalog, CatalogEntry};
use crate::estimator::FootprintEstimator;
use crate::job::{Job, JobReport, JobSink};
use crate::sched::JobQueue;
use crate::wire::{clone_error, RankResult};
use dfo_algos::{check_edge_data, Algorithm, JobParams};
use dfo_core::NodeCtx;
use dfo_obs::Registry;
use dfo_storage::ChunkCacheStats;
use dfo_types::{DfoError, EngineConfig, JobPhase, JobSpec, JobStatus, PhaseStats, Result};
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most jobs admitted at once. On the mesh each running job keeps at most
/// one outstanding control fan-out per peer, so this bound keeps the
/// control tag's demux queue ([`dfo_net::DEMUX_QUEUE_DEPTH`] frames per
/// (peer, tag)) clear of head-of-line blocking even when every job's
/// fan-out lands at once.
const MAX_OVERLAP: usize = match dfo_net::DEMUX_QUEUE_DEPTH / 4 {
    0 => 1,
    n => n,
};

/// Fair-share quota: jobs one client may have running while other clients'
/// admissible jobs wait (the scheduler is work-conserving, so the quota
/// never idles free budget — see [`crate::sched`]).
const CLIENT_QUOTA: usize = 2;

/// Finished jobs kept for listings; past this the lowest ids are dropped,
/// so a long-lived daemon's job table and each `list()` stay bounded.
const FINISHED_KEPT: usize = 256;

/// What one attempt produced: every rank's result in rank order, and the
/// shared chunk caches' counter deltas over the attempt (empty when the
/// caches live in other processes).
pub(crate) struct AttemptOutput {
    pub ranks: Vec<RankResult>,
    pub cache_window: Vec<ChunkCacheStats>,
}

/// How one attempt ended.
pub(crate) enum Attempt {
    Done(AttemptOutput),
    /// The job failed; the substrate it ran on is fine.
    Failed(DfoError),
    /// The job failed and took its substrate down with it.
    Dead(DfoError),
}

/// Runs one admitted attempt of a job under a private scratch scope.
pub(crate) trait AttemptRunner: Sync {
    fn run(&self, job: &Job, scope: &str) -> Attempt;
}

/// One rank's share of a job: run the algorithm under the job's cancel
/// token and measure what it left in its scratch scope. The measured peak
/// footprint (vertex arrays, checkpoints, spills) is what the estimator
/// learns; a failed measurement must not fail a finished job.
pub(crate) fn run_algorithm(
    ctx: &mut NodeCtx,
    algo: &dyn Algorithm,
    params: &JobParams,
    token: Arc<AtomicBool>,
) -> Result<RankResult> {
    ctx.set_cancel_token(token);
    let output = algo.run(ctx, params)?;
    let stats = ctx.job_phase_stats().clone();
    let footprint = ctx.scratch().usage_bytes().unwrap_or(0);
    Ok(RankResult { output, stats, footprint })
}

struct Sched {
    queue: JobQueue,
    /// Jobs not yet finished (queued or running).
    live: BTreeMap<u64, Arc<Job>>,
    /// Final status of the [`FINISHED_KEPT`] most recent finished jobs, for
    /// listings. Finished jobs drop their record, which releases the graph
    /// they pinned.
    finished: BTreeMap<u64, JobStatus>,
    next_id: u64,
    /// Admitted attempts, and the estimate bytes / per-client counts they
    /// hold against admission.
    running_jobs: usize,
    running_bytes: u64,
    running_per_client: BTreeMap<String, usize>,
    /// First error that killed the substrate; admission stops until the
    /// running jobs drain and [`Executor::serve`] hands it back.
    dead: Option<DfoError>,
    shutdown: bool,
}

pub(crate) struct Executor {
    pub(crate) catalog: Catalog,
    /// Learned admission footprints per `(algorithm, graph)`.
    estimator: FootprintEstimator,
    sched: Mutex<Sched>,
    /// Signaled on submit, cancel, shutdown and attempt end; the admission
    /// loop waits here.
    work: Condvar,
}

impl Executor {
    pub fn new(catalog: Catalog) -> Self {
        Self {
            catalog,
            estimator: FootprintEstimator::new(),
            sched: Mutex::new(Sched {
                queue: JobQueue::new(CLIENT_QUOTA),
                live: BTreeMap::new(),
                finished: BTreeMap::new(),
                next_id: 0,
                running_jobs: 0,
                running_bytes: 0,
                running_per_client: BTreeMap::new(),
                dead: None,
                shutdown: false,
            }),
            work: Condvar::new(),
        }
    }

    pub fn config(&self) -> &EngineConfig {
        &self.catalog.cfg
    }

    pub fn registry(&self) -> &Arc<Registry> {
        &self.catalog.registry
    }

    /// Validates and enqueues `spec`; its events go to `sink`, starting
    /// with the `Queued` status.
    pub fn submit(&self, spec: JobSpec, sink: Arc<dyn JobSink>) -> Result<Arc<Job>> {
        let entry = self.catalog.get(&spec.graph).ok_or_else(|| {
            DfoError::Config(format!("graph {:?} is not in the catalog", spec.graph))
        })?;
        let algo = dfo_algos::find(&spec.algorithm).ok_or_else(|| {
            DfoError::Config(format!(
                "unknown algorithm {:?} (registered: {})",
                spec.algorithm,
                dfo_algos::registry().iter().map(|a| a.name()).collect::<Vec<_>>().join(", ")
            ))
        })?;
        check_edge_data(algo, entry.plan.edge_data_bytes)?;
        let estimate = spec
            .mem_estimate
            .or_else(|| self.estimator.estimate(&spec.algorithm, &spec.graph))
            .unwrap_or_else(|| default_estimate(algo, &entry, self.config().nodes));
        let job = {
            let mut s = self.sched.lock();
            if s.shutdown {
                return Err(DfoError::NetClosed("shutting down: no new jobs".into()));
            }
            let id = s.next_id;
            s.next_id += 1;
            let job = Arc::new(Job {
                id,
                spec,
                estimate,
                entry,
                algo,
                cancel: Arc::new(AtomicBool::new(false)),
                retries: AtomicU32::new(0),
                phase: Mutex::new(JobPhase::Queued),
                sink,
            });
            s.queue.push(id, &job.spec.client_id, job.spec.priority, estimate);
            s.live.insert(id, job.clone());
            job
        };
        job.sink.status(job.status());
        self.work.notify_all();
        Ok(job)
    }

    /// Cancels job `id`: a queued job is withdrawn as `Cancelled` right
    /// away, a running one unwinds at its next `Process` call. Unknown or
    /// finished jobs are ignored.
    pub fn cancel(&self, id: u64) {
        let mut s = self.sched.lock();
        let Some(job) = s.live.get(&id).cloned() else { return };
        job.cancel.store(true, Ordering::Relaxed);
        if s.queue.remove(id) {
            let result = Err(DfoError::Cancelled("job cancelled while queued".into()));
            self.retire(&mut s, &job, &result);
            drop(s);
            job.sink.finish(id, result);
        }
    }

    /// Stops taking jobs; [`Executor::serve`] returns once the queue has
    /// drained and nothing runs.
    pub fn shutdown(&self) {
        self.sched.lock().shutdown = true;
        self.work.notify_all();
    }

    pub fn is_shutdown(&self) -> bool {
        self.sched.lock().shutdown
    }

    /// Gives up for good after the substrate died past its rebuild budget:
    /// stops taking jobs and fails everything still queued.
    pub fn close(&self, cause: &DfoError) {
        let error = || DfoError::NetClosed(format!("daemon mesh died: {cause}"));
        let queued: Vec<Arc<Job>> = {
            let mut guard = self.sched.lock();
            let s = &mut *guard;
            s.shutdown = true;
            let queued: Vec<Arc<Job>> =
                s.live.values().filter(|j| s.queue.remove(j.id)).cloned().collect();
            for job in &queued {
                self.retire(s, job, &Err(error()));
            }
            queued
        };
        for job in queued {
            job.sink.finish(job.id, Err(error()));
        }
    }

    /// The status of every live job and of the most recent finished ones
    /// (lowest ids evicted first), by id.
    pub fn list(&self) -> Vec<JobStatus> {
        let s = self.sched.lock();
        let mut all = s.finished.clone();
        all.extend(s.live.values().map(|j| (j.id, j.status())));
        all.into_values().collect()
    }

    /// `(running, queued)` job counts.
    pub fn counts(&self) -> (usize, usize) {
        let s = self.sched.lock();
        (s.running_jobs, s.queue.len())
    }

    pub fn learned_estimate(&self, algorithm: &str, graph: &str) -> Option<u64> {
        self.estimator.estimate(algorithm, graph)
    }

    /// The admission loop: admits jobs and runs each attempt on a worker
    /// thread through `runner`. Returns `Ok` on shutdown (queue drained,
    /// nothing running), or the error of an attempt that killed the
    /// substrate — admission stops at once and the call returns when the
    /// running attempts have drained, the retryable ones requeued. Workers
    /// never outlive the call.
    pub fn serve<R: AttemptRunner>(&self, runner: &R) -> Result<()> {
        std::thread::scope(|sc| loop {
            let job = {
                let mut s = self.sched.lock();
                loop {
                    if s.dead.is_some() {
                        if s.running_jobs == 0 {
                            return Err(s.dead.take().expect("checked above"));
                        }
                    } else if s.shutdown && s.queue.is_empty() && s.running_jobs == 0 {
                        return Ok(());
                    } else if let Some(job) = self.admit(&mut s) {
                        break job;
                    }
                    self.gauges(&s);
                    self.work.wait(&mut s);
                }
            };
            let priority = job.spec.priority.to_string();
            self.registry()
                .counter(
                    "dfo_sched_admitted_total",
                    "Jobs admitted by the scheduler, by priority",
                    &[("priority", priority.as_str())],
                )
                .inc();
            job.sink.status(job.status());
            sc.spawn(move || self.attempt(runner, job));
        })
    }

    /// Picks the next admissible job and charges it against the budget.
    fn admit(&self, s: &mut Sched) -> Option<Arc<Job>> {
        if s.running_jobs >= MAX_OVERLAP {
            return None;
        }
        let budget_left = self.config().mem_budget.saturating_sub(s.running_bytes);
        let picked = s.queue.pick(&s.running_per_client, budget_left, s.running_jobs == 0)?;
        let job = s.live.get(&picked.id).expect("queued jobs are live").clone();
        s.running_jobs += 1;
        s.running_bytes += job.estimate;
        *s.running_per_client.entry(picked.client).or_insert(0) += 1;
        *job.phase.lock() = JobPhase::Running;
        Some(job)
    }

    /// Runs one admitted attempt, gives back its admission charge, and
    /// applies the retry rule.
    fn attempt<R: AttemptRunner>(&self, runner: &R, job: Arc<Job>) {
        let scope = format!("job{}a{}", job.id, job.retries.load(Ordering::Relaxed));
        let started = Instant::now();
        // a panicking runner must still resolve the job, not strand its
        // waiter; its substrate is in an unknown state
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner.run(&job, &scope)))
                .unwrap_or_else(|panic| {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<non-string panic>".into());
                    Attempt::Dead(DfoError::Panic(format!("job {} attempt: {msg}", job.id)))
                });
        let (result, dead) = match outcome {
            Attempt::Done(out) => (Ok(self.report(&job, out, started.elapsed())), false),
            Attempt::Failed(e) => (Err(e), false),
            Attempt::Dead(e) => (Err(e), true),
        };
        let mut s = self.sched.lock();
        s.running_jobs -= 1;
        s.running_bytes -= job.estimate;
        let client = &job.spec.client_id;
        if let Some(n) = s.running_per_client.get_mut(client) {
            *n -= 1;
            if *n == 0 {
                s.running_per_client.remove(client);
            }
        }
        if dead && s.dead.is_none() {
            s.dead = result.as_ref().err().map(clone_error);
        }
        let attempts = job.retries.load(Ordering::Relaxed);
        match result {
            Err(e)
                if e.is_retryable()
                    && attempts < job.spec.max_retries
                    && !job.cancel.load(Ordering::Relaxed) =>
            {
                job.retries.store(attempts + 1, Ordering::Relaxed);
                *job.phase.lock() = JobPhase::Queued;
                s.queue.push(job.id, client, job.spec.priority, job.estimate);
                drop(s);
                self.registry()
                    .counter(
                        "dfo_job_retries_total",
                        "Job re-runs after retryable failures, honoring max_retries",
                        &[
                            ("graph", job.spec.graph.as_str()),
                            ("algorithm", job.spec.algorithm.as_str()),
                        ],
                    )
                    .inc();
                eprintln!(
                    "[dfo-service] job {} failed with retryable {e}; requeued (retry {}/{})",
                    job.id,
                    attempts + 1,
                    job.spec.max_retries
                );
                job.sink.status(job.status());
            }
            result => {
                self.retire(&mut s, &job, &result);
                drop(s);
                job.sink.finish(job.id, result);
            }
        }
        self.work.notify_all();
    }

    /// Terminal bookkeeping, under the scheduler lock: final phase, the
    /// outcome counters, and the move from the live table to the finished
    /// listing. The caller hands `result` to the job's sink after
    /// unlocking.
    fn retire(&self, s: &mut Sched, job: &Job, result: &Result<JobReport>) {
        *job.phase.lock() = match result {
            Ok(_) => JobPhase::Done,
            Err(DfoError::Cancelled(_)) => JobPhase::Cancelled,
            Err(_) => JobPhase::Failed,
        };
        let (family, help) = match result {
            Ok(_) => ("dfo_jobs_completed_total", "Jobs that ran to completion"),
            Err(_) => ("dfo_jobs_failed_total", "Jobs that errored or were cancelled"),
        };
        self.registry()
            .counter(
                family,
                help,
                &[("graph", job.spec.graph.as_str()), ("algorithm", job.spec.algorithm.as_str())],
            )
            .inc();
        s.live.remove(&job.id);
        s.finished.insert(job.id, job.status());
        if s.finished.len() > FINISHED_KEPT {
            s.finished.pop_first();
        }
    }

    /// Assembles a successful attempt's report and feeds what it measured
    /// back: the learned footprint and the per-job cache counters.
    fn report(&self, job: &Job, out: AttemptOutput, elapsed: Duration) -> JobReport {
        let labels =
            [("graph", job.spec.graph.as_str()), ("algorithm", job.spec.algorithm.as_str())];
        let mut totals = PhaseStats::default();
        let mut outputs = Vec::with_capacity(out.ranks.len());
        let mut rank_stats = Vec::with_capacity(out.ranks.len());
        let mut peak = 0u64;
        for r in out.ranks {
            totals.merge(&r.stats);
            peak = peak.max(r.footprint);
            outputs.push(r.output);
            rank_stats.push(r.stats);
        }
        // close the admission loop: the busiest rank's measured footprint
        // becomes the learned estimate for the next (algorithm, graph) run
        if peak > 0 {
            self.estimator.record(&job.spec.algorithm, &job.spec.graph, peak);
            self.registry()
                .gauge(
                    "dfo_sched_estimate_error_ratio",
                    "Charged admission estimate over measured peak scratch footprint \
                     (last completed job; >1 = over-estimate)",
                    &labels,
                )
                .set(job.estimate as f64 / peak as f64);
        }
        // cache traffic attributed at the job's own lookup sites; per-job
        // numbers stay in the report, the series aggregate per pair
        self.registry()
            .counter(
                "dfo_job_cache_hits_total",
                "Chunk-cache hits counted at the lookup sites of finished jobs",
                &labels,
            )
            .add(totals.chunk_cache_hits);
        self.registry()
            .counter(
                "dfo_job_cache_misses_total",
                "Chunk-cache misses counted at the lookup sites of finished jobs",
                &labels,
            )
            .add(totals.chunk_cache_misses);
        JobReport {
            id: job.id,
            graph: job.spec.graph.clone(),
            algorithm: job.spec.algorithm.clone(),
            outputs,
            rank_stats,
            totals,
            cache_window: out.cache_window,
            retries: job.retries.load(Ordering::Relaxed),
            elapsed,
        }
    }

    /// Refreshes the scheduler gauges (queue depth, running jobs).
    fn gauges(&self, s: &Sched) {
        self.registry()
            .gauge("dfo_sched_queue_depth", "Jobs waiting for admission", &[])
            .set(s.queue.len() as f64);
        self.registry()
            .gauge("dfo_sched_running_jobs", "Jobs currently admitted and running", &[])
            .set(s.running_jobs as f64);
    }
}

/// Static admission footprint: the algorithm's per-vertex state hint times
/// one node's share of the vertices — the mutable working set the engine
/// will batch through `mem_budget`.
fn default_estimate(algo: &dyn Algorithm, entry: &CatalogEntry, nodes: usize) -> u64 {
    let per_node = entry.plan.n_vertices.div_ceil(nodes.max(1) as u64);
    (algo.state_bytes_per_vertex() * per_node).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobHandle, Slot};
    use std::sync::{mpsc, Weak};
    use tempfile::TempDir;

    /// A scripted attempt runner keyed on the spec's `mode` parameter:
    /// 0 succeeds, 1 fails retryably, 2 kills the substrate, 3 fails
    /// non-retryably, 4 blocks until [`Fake::open`] and then succeeds.
    /// Every attempt reports its scratch scope on the channel as it starts.
    struct Fake {
        started: Mutex<mpsc::Sender<String>>,
        gate: Mutex<bool>,
        opened: Condvar,
    }

    impl Fake {
        fn new() -> (Self, mpsc::Receiver<String>) {
            let (tx, rx) = mpsc::channel();
            (Self { started: Mutex::new(tx), gate: Mutex::new(false), opened: Condvar::new() }, rx)
        }

        fn open(&self) {
            *self.gate.lock() = true;
            self.opened.notify_all();
        }
    }

    impl AttemptRunner for Fake {
        fn run(&self, job: &Job, scope: &str) -> Attempt {
            self.started.lock().send(scope.to_string()).unwrap();
            match job.spec.params.get_or("mode", 0) {
                1 => Attempt::Failed(DfoError::NetClosed("injected".into())),
                2 => Attempt::Dead(DfoError::NetClosed("substrate died".into())),
                3 => Attempt::Failed(DfoError::Config("injected".into())),
                mode => {
                    let mut open = self.gate.lock();
                    while mode == 4 && !*open {
                        self.opened.wait(&mut open);
                    }
                    Attempt::Done(AttemptOutput { ranks: Vec::new(), cache_window: Vec::new() })
                }
            }
        }
    }

    fn executor(td: &TempDir) -> Executor {
        let catalog = Catalog::new(EngineConfig::for_test(2), td.path().to_path_buf());
        catalog.add("g", |c| c.preprocess(&dfo_graph::gen::uniform(64, 256, 1))).unwrap();
        Executor::new(catalog)
    }

    fn spec(mode: u64) -> JobSpec {
        JobSpec::new("g", "degree").with_param("mode", mode).with_mem_estimate(1)
    }

    fn submit(exec: &Executor, spec: JobSpec) -> JobHandle {
        let slot = Arc::new(Slot::default());
        let job = exec.submit(spec, slot.clone()).unwrap();
        JobHandle { job, slot, exec: Weak::new() }
    }

    fn counter(exec: &Executor, family: &str) -> u64 {
        exec.registry().snapshot().series(family).iter().filter_map(|s| s.value.as_counter()).sum()
    }

    #[test]
    fn retryable_failure_requeues_then_surfaces_typed() {
        let td = TempDir::new().unwrap();
        let exec = executor(&td);
        let (fake, started) = Fake::new();
        std::thread::scope(|sc| {
            let served = sc.spawn(|| exec.serve(&fake));
            let h = submit(&exec, spec(1).with_max_retries(2));
            let job = h.job.clone();
            assert!(matches!(h.wait(), Err(DfoError::NetClosed(_))));
            assert_eq!(job.status().retries, 2);
            assert_eq!(job.status().phase, JobPhase::Failed);
            exec.shutdown();
            assert!(served.join().unwrap().is_ok());
        });
        // each retry re-ran under a fresh per-attempt scratch scope
        let scopes: Vec<String> = started.try_iter().collect();
        assert_eq!(scopes, ["job0a0", "job0a1", "job0a2"]);
        assert_eq!(counter(&exec, "dfo_job_retries_total"), 2);
    }

    #[test]
    fn failed_counter_counts_terminal_failures_not_attempts() {
        let td = TempDir::new().unwrap();
        let exec = executor(&td);
        let (fake, started) = Fake::new();
        std::thread::scope(|sc| {
            let served = sc.spawn(|| exec.serve(&fake));
            // three attempts, one terminal failure
            assert!(submit(&exec, spec(1).with_max_retries(2)).wait().is_err());
            // non-retryable: the retry budget is not spent
            let h = submit(&exec, spec(3).with_max_retries(3));
            let job = h.job.clone();
            assert!(matches!(h.wait(), Err(DfoError::Config(_))));
            assert_eq!(job.status().retries, 0);
            let report = submit(&exec, spec(0)).wait().unwrap();
            assert_eq!(report.retries, 0);
            exec.shutdown();
            assert!(served.join().unwrap().is_ok());
        });
        assert_eq!(started.try_iter().count(), 5);
        assert_eq!(counter(&exec, "dfo_jobs_failed_total"), 2);
        assert_eq!(counter(&exec, "dfo_jobs_completed_total"), 1);
        assert_eq!(counter(&exec, "dfo_job_retries_total"), 2);
    }

    #[test]
    fn cancel_while_queued_withdraws_as_cancelled() {
        let td = TempDir::new().unwrap();
        let exec = executor(&td);
        let budget = exec.config().mem_budget;
        let (fake, started) = Fake::new();
        std::thread::scope(|sc| {
            let served = sc.spawn(|| exec.serve(&fake));
            let hog = submit(&exec, spec(4).with_mem_estimate(budget));
            assert_eq!(started.recv().unwrap(), "job0a0");
            // the budget is full: the second job stays queued
            let queued = submit(&exec, spec(0));
            assert_eq!(exec.counts(), (1, 1));
            exec.cancel(queued.id());
            assert_eq!(queued.stats().phase, JobPhase::Cancelled);
            assert!(matches!(queued.wait(), Err(DfoError::Cancelled(_))));
            assert_eq!(exec.counts(), (1, 0));
            fake.open();
            hog.wait().unwrap();
            exec.shutdown();
            assert!(served.join().unwrap().is_ok());
        });
        assert_eq!(started.try_iter().count(), 0, "the withdrawn job never ran");
        let phases: Vec<JobPhase> = exec.list().iter().map(|s| s.phase).collect();
        assert_eq!(phases, [JobPhase::Done, JobPhase::Cancelled]);
    }

    #[test]
    fn dead_attempt_stops_admission_until_running_jobs_drain() {
        let td = TempDir::new().unwrap();
        let exec = executor(&td);
        let (fake, started) = Fake::new();
        let late = std::thread::scope(|sc| {
            let served = sc.spawn(|| exec.serve(&fake));
            let running = submit(&exec, spec(4));
            assert_eq!(started.recv().unwrap(), "job0a0");
            assert!(matches!(submit(&exec, spec(2)).wait(), Err(DfoError::NetClosed(_))));
            assert_eq!(started.recv().unwrap(), "job1a0");
            // the substrate is dead: nothing new is admitted while the
            // job still running on it drains
            let late = submit(&exec, spec(0));
            assert_eq!(exec.counts(), (1, 1));
            fake.open();
            running.wait().unwrap();
            assert!(matches!(served.join().unwrap(), Err(DfoError::NetClosed(_))));
            late
        });
        assert_eq!(late.stats().phase, JobPhase::Queued);
        assert!(started.try_recv().is_err(), "no attempt started after the death");
        // the next serve (the rebuilt substrate) runs the queued job
        std::thread::scope(|sc| {
            let served = sc.spawn(|| exec.serve(&fake));
            late.wait().unwrap();
            exec.shutdown();
            assert!(served.join().unwrap().is_ok());
        });
        assert_eq!(started.try_iter().collect::<Vec<_>>(), ["job2a0"]);
    }

    #[test]
    fn finished_listing_keeps_only_the_most_recent_jobs() {
        let td = TempDir::new().unwrap();
        let exec = executor(&td);
        let (fake, _started) = Fake::new();
        std::thread::scope(|sc| {
            let served = sc.spawn(|| exec.serve(&fake));
            let handles: Vec<JobHandle> =
                (0..=FINISHED_KEPT).map(|_| submit(&exec, spec(0))).collect();
            for h in handles {
                h.wait().unwrap();
            }
            exec.shutdown();
            assert!(served.join().unwrap().is_ok());
        });
        let ids: Vec<u64> = exec.list().iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), FINISHED_KEPT);
        assert_eq!(ids.first(), Some(&1), "the oldest finished job is evicted");
        assert_eq!(ids.last(), Some(&(FINISHED_KEPT as u64)));
    }
}
