//! Job model: the job record, event sinks, handles, and the finished-job
//! report.
//!
//! The spec/status vocabulary ([`JobSpec`], [`JobPhase`], [`JobStatus`])
//! lives in `dfo_types::jobspec` since the remote protocol made it a wire
//! format; this crate re-exports it, so `dfo_service::JobSpec` keeps
//! working. What remains here is the process-local side: the [`Job`]
//! record the executor tracks, the [`JobSink`] its events go to, and the
//! [`JobHandle`] an in-process submitter holds.

use crate::catalog::CatalogEntry;
use crate::executor::Executor;
use dfo_algos::{AlgoOutput, Algorithm};
use dfo_storage::ChunkCacheStats;
use dfo_types::{JobPhase, JobSpec, JobStatus, PhaseStats, Pod, Result};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Everything a finished job produced.
#[derive(Clone, Debug)]
pub struct JobReport {
    pub id: u64,
    pub graph: String,
    pub algorithm: String,
    /// Per-rank local outputs in rank order; concatenated they cover the
    /// whole vertex set ([`JobReport::assemble`]).
    pub outputs: Vec<AlgoOutput>,
    /// Per-rank per-job [`PhaseStats`] totals. Chunk-cache hits/misses are
    /// counted at this job's own lookup sites, so they are attributable to
    /// this job even when others ran concurrently on the same caches.
    pub rank_stats: Vec<PhaseStats>,
    /// Sum of `rank_stats` — the job's cluster-wide totals.
    pub totals: PhaseStats,
    /// Per-rank **shared** chunk-cache counter deltas over this job's
    /// wall-clock window. Unlike `totals`, these include every concurrent
    /// job's traffic on the graph's caches — they describe the device, not
    /// the job; eviction pressure in particular only exists at cache level.
    pub cache_window: Vec<ChunkCacheStats>,
    /// Retryable failures absorbed before this report was produced
    /// ([`JobSpec::max_retries`]); 0 for a first-try success.
    pub retries: u32,
    pub elapsed: Duration,
}

impl JobReport {
    /// Concatenates the per-rank outputs into one typed vector over the
    /// whole vertex set (ranks own contiguous ascending vertex ranges).
    pub fn assemble<T: Pod>(&self) -> Result<Vec<T>> {
        let mut all = Vec::new();
        for out in &self.outputs {
            all.extend(out.values_as::<T>()?);
        }
        Ok(all)
    }
}

/// Where a job's events go: a condvar slot for an in-process
/// [`JobHandle`], a client connection for the daemon.
pub(crate) trait JobSink: Send + Sync {
    /// A phase transition of a job that has not finished (queued,
    /// running, requeued after a retryable failure).
    fn status(&self, _status: JobStatus) {}

    /// The job's single terminal event.
    fn finish(&self, job_id: u64, result: Result<JobReport>);
}

/// One job as the executor tracks it: the spec with everything resolved at
/// submit time — the catalog entry `Arc` (pinning the graph for the job's
/// lifetime) and the registry algorithm — plus its live state.
pub(crate) struct Job {
    pub(crate) id: u64,
    pub(crate) spec: JobSpec,
    /// Admission footprint in bytes, charged against `mem_budget` while
    /// an attempt runs.
    pub(crate) estimate: u64,
    pub(crate) entry: Arc<CatalogEntry>,
    pub(crate) algo: &'static dyn Algorithm,
    /// The cooperative token rank 0's `NodeCtx` checks at `Process`-call
    /// boundaries; the collective check spreads it to every rank.
    pub(crate) cancel: Arc<AtomicBool>,
    /// Retryable failures absorbed so far, bounded by
    /// [`JobSpec::max_retries`].
    pub(crate) retries: AtomicU32,
    pub(crate) phase: Mutex<JobPhase>,
    pub(crate) sink: Arc<dyn JobSink>,
}

impl Job {
    pub(crate) fn status(&self) -> JobStatus {
        JobStatus {
            id: self.id,
            phase: *self.phase.lock(),
            graph: self.spec.graph.clone(),
            algorithm: self.spec.algorithm.clone(),
            mem_estimate: self.estimate,
            retries: self.retries.load(Ordering::Relaxed),
            priority: self.spec.priority,
            client_id: self.spec.client_id.clone(),
        }
    }
}

/// The in-process sink: holds the terminal result until
/// [`JobHandle::wait`] takes it.
#[derive(Default)]
pub(crate) struct Slot {
    result: Mutex<Option<Result<JobReport>>>,
    done: Condvar,
}

impl JobSink for Slot {
    fn finish(&self, _job_id: u64, result: Result<JobReport>) {
        *self.result.lock() = Some(result);
        self.done.notify_all();
    }
}

/// Tracks one submitted job. Not cloneable: [`JobHandle::wait`] consumes
/// the handle and hands over the job's single [`JobReport`].
pub struct JobHandle {
    pub(crate) job: Arc<Job>,
    pub(crate) slot: Arc<Slot>,
    pub(crate) exec: Weak<Executor>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.stats();
        f.debug_struct("JobHandle")
            .field("id", &st.id)
            .field("phase", &st.phase)
            .field("graph", &st.graph)
            .field("algorithm", &st.algorithm)
            .finish()
    }
}

impl JobHandle {
    pub fn id(&self) -> u64 {
        self.job.id
    }

    /// Blocks until the job finishes and returns its report — or the error
    /// it failed with ([`DfoError::Cancelled`](dfo_types::DfoError) if it
    /// was cancelled).
    pub fn wait(self) -> Result<JobReport> {
        let mut result = self.slot.result.lock();
        loop {
            if let Some(r) = result.take() {
                return r;
            }
            self.slot.done.wait(&mut result);
        }
    }

    /// Like [`JobHandle::wait`], but gives up after `timeout`. On timeout
    /// the handle comes back in the `Err` arm, still valid — poll again,
    /// [`JobHandle::cancel`], or [`JobHandle::wait`] for good.
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> std::result::Result<Result<JobReport>, JobHandle> {
        let deadline = Instant::now() + timeout;
        {
            let mut result = self.slot.result.lock();
            loop {
                if let Some(r) = result.take() {
                    return Ok(r);
                }
                let Some(left) =
                    deadline.checked_duration_since(Instant::now()).filter(|d| !d.is_zero())
                else {
                    break;
                };
                self.slot.done.wait_for(&mut result, left);
            }
        }
        Err(self)
    }

    /// Requests cooperative cancellation. A queued job is withdrawn without
    /// running; a running job's ranks observe the token at their next
    /// `Process`-call boundary, agree collectively, and unwind together —
    /// freeing the job's admission budget. [`JobHandle::wait`] then returns
    /// [`DfoError::Cancelled`](dfo_types::DfoError). Idempotent; a job that
    /// already finished is unaffected.
    pub fn cancel(&self) {
        // the executor outlives every job it has not finished
        if let Some(exec) = self.exec.upgrade() {
            exec.cancel(self.job.id);
        }
    }

    /// Point-in-time snapshot of the job's phase and admission footprint.
    pub fn stats(&self) -> JobStatus {
        self.job.status()
    }
}
