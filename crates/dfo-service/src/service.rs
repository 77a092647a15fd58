//! The in-process front end: a graph catalog and the job executor, with
//! every attempt running as one thread per rank in this process.

use crate::catalog::{Catalog, CatalogEntry};
use crate::executor::{run_algorithm, Attempt, AttemptOutput, AttemptRunner, Executor};
use crate::job::{Job, JobHandle, Slot};
use crate::metrics::MetricsServer;
use dfo_graph::EdgeList;
use dfo_obs::Registry;
use dfo_types::{DfoError, EngineConfig, JobSpec, Pod, Result};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

/// A resident engine owning a graph [catalog](CatalogEntry) and a job
/// queue. See the crate docs for the model; in short:
///
/// ```no_run
/// # use dfo_service::{Service, JobSpec};
/// # use dfo_types::EngineConfig;
/// # fn demo(g: &dfo_graph::EdgeList<()>) -> dfo_types::Result<()> {
/// let svc = Service::new(EngineConfig::for_test(2), "/tmp/dfo")?;
/// svc.load_graph("web", g)?;                       // preprocess once
/// let a = svc.submit(JobSpec::new("web", "pagerank").with_param("iters", 10))?;
/// let b = svc.submit(JobSpec::new("web", "bfs").with_param("root", 0))?;
/// let ranks = a.wait()?.assemble::<f64>()?;        // jobs ran concurrently
/// let depths = b.wait()?.assemble::<u32>()?;
/// # Ok(()) }
/// ```
///
/// `Service` is cheap to share behind an `Arc`; all methods take `&self`.
/// Dropping it stops new submissions; jobs already submitted still run to
/// the end.
pub struct Service {
    exec: Arc<Executor>,
    /// Scrape endpoint; present when `cfg.metrics_addr` is set.
    metrics: Option<MetricsServer>,
}

/// The in-process attempt runner: every rank is a thread over the job's
/// graph cluster, under the attempt's private scratch scope.
struct InProcess;

impl AttemptRunner for InProcess {
    fn run(&self, job: &Job, scope: &str) -> Attempt {
        let cluster = &job.entry.cluster;
        let cache0 = cluster.chunk_cache_stats();
        let ran = cluster.run_scoped(scope, |ctx| {
            run_algorithm(ctx, job.algo, &job.spec.params, job.cancel.clone())
        });
        // scratch cleanup happens even when the job failed or was cancelled
        let cleaned = cluster.remove_scratch(scope);
        match ran.and_then(|ranks| cleaned.map(|()| ranks)) {
            Ok(ranks) => Attempt::Done(AttemptOutput {
                ranks,
                cache_window: cluster
                    .chunk_cache_stats()
                    .iter()
                    .zip(&cache0)
                    .map(|(now, then)| now.delta_since(then))
                    .collect(),
            }),
            Err(e) => Attempt::Failed(e),
        }
    }
}

impl Service {
    /// Creates a resident engine rooted at `base`. Graph `g` loaded under
    /// name `n` lives at `<base>/graphs/<n>/`; per-job scratch under each
    /// graph's node directories. The config is shared by every graph and
    /// job; `cfg.mem_budget` doubles as the admission-control budget.
    pub fn new(cfg: EngineConfig, base: impl Into<PathBuf>) -> Result<Self> {
        cfg.validate().map_err(DfoError::Config)?;
        let exec = Arc::new(Executor::new(Catalog::new(cfg, base.into())));
        let metrics = match &exec.config().metrics_addr {
            Some(addr) => Some(MetricsServer::spawn(addr, exec.registry().clone())?),
            None => None,
        };
        let bg = exec.clone();
        std::thread::Builder::new()
            .name("dfo-executor".into())
            .spawn(move || {
                // in-process attempts rebuild their threads every run, so a
                // dead attempt only needs the drain before admission resumes
                while let Err(e) = bg.serve(&InProcess) {
                    eprintln!("[dfo-service] attempt died ({e}); resuming admission");
                }
            })
            .map_err(|e| DfoError::io("spawning the executor thread", e))?;
        Ok(Self { exec, metrics })
    }

    pub fn config(&self) -> &EngineConfig {
        self.exec.config()
    }

    /// The registry every graph cluster and per-job counter feeds; what the
    /// scrape endpoint serves.
    pub fn registry(&self) -> &Arc<Registry> {
        self.exec.registry()
    }

    /// The bound scrape-endpoint address (`cfg.metrics_addr` with port 0
    /// resolved), or `None` when the endpoint is off.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|m| m.addr())
    }

    /// Preprocesses `g` once under `name` and adds it to the catalog. Every
    /// subsequent job over `name` reuses the preprocessed chunks and the
    /// graph's per-rank chunk caches — loading is the expensive step, jobs
    /// are not. Errors if the name is taken or not filesystem-safe.
    pub fn load_graph<E: Pod + PartialEq>(
        &self,
        name: &str,
        g: &EdgeList<E>,
    ) -> Result<Arc<CatalogEntry>> {
        self.exec.catalog.add(name, |cluster| cluster.preprocess(g))
    }

    /// Attaches a graph that is **already preprocessed** under
    /// `<base>/graphs/<name>` — plan reload only, no preprocessing. This is
    /// how a restarted service (or a [`crate::Daemon`] rank) reopens its
    /// catalog, and how a process that didn't do the preprocessing itself
    /// serves a shipped graph directory.
    pub fn open_graph(&self, name: &str) -> Result<Arc<CatalogEntry>> {
        self.exec.catalog.open(name)
    }

    /// Removes `name` from the catalog. Jobs already submitted over it keep
    /// their reference-counted entry (and finish normally); new submissions
    /// no longer resolve the name.
    pub fn unload_graph(&self, name: &str) -> Result<()> {
        self.exec.catalog.remove(name)
    }

    /// Loaded graph names, sorted.
    pub fn graphs(&self) -> Vec<String> {
        self.exec.catalog.names()
    }

    /// The catalog entry for `name`, if loaded.
    pub fn graph(&self, name: &str) -> Option<Arc<CatalogEntry>> {
        self.exec.catalog.get(name)
    }

    /// Submits a job. Resolution (graph in catalog, algorithm in registry,
    /// edge-payload compatibility) happens **here**, so a bad spec is a
    /// typed error at submit time, not a mid-run failure. The job starts
    /// when the scheduler admits it: higher
    /// [`JobSpec::priority`] first, per-client fair share on ties, aging
    /// against starvation, all gated by the admission budget. Its footprint
    /// charge is, in order: the spec's explicit `mem_estimate`; the learned
    /// estimate from earlier completed runs of the same
    /// `(algorithm, graph)`; the static per-vertex hint. The returned
    /// handle is the only way to get the job's [`crate::JobReport`].
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle> {
        let slot = Arc::new(Slot::default());
        let job = self.exec.submit(spec, slot.clone())?;
        Ok(JobHandle { job, slot, exec: Arc::downgrade(&self.exec) })
    }

    /// Jobs currently charged against the admission budget / waiting in the
    /// queue — `(running, queued)`.
    pub fn job_counts(&self) -> (usize, usize) {
        self.exec.counts()
    }

    /// The learned admission footprint for `(algorithm, graph)` — present
    /// once at least one job of that pair has completed and reported its
    /// measured peak scratch usage. What [`Service::submit`] charges when
    /// the spec has no explicit `mem_estimate`.
    pub fn learned_estimate(&self, algorithm: &str, graph: &str) -> Option<u64> {
        self.exec.learned_estimate(algorithm, graph)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // the executor thread exits once the submitted jobs have drained
        self.exec.shutdown();
    }
}
