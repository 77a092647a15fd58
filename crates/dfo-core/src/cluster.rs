//! Cluster lifecycle: builds the per-node disks and network, preprocesses
//! graphs, and runs SPMD node programs.

use crate::node::NodeCtx;
use crate::resident::ResidentMesh;
use dfo_graph::edge::EdgeList;
use dfo_net::{Endpoint, NetStats, NetTotals, SimCluster};
use dfo_obs::{FlightRecorder, Registry, SpanRecord, Telemetry};
use dfo_part::plan::Plan;
use dfo_part::preprocess::preprocess;
use dfo_storage::{ChunkCache, ChunkCacheStats, NodeDisk};
use dfo_types::{DfoError, EngineConfig, Pod, Rank, RecoveryStats, Result};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .or_else(|| panic.downcast_ref::<DfoError>().map(|e| e.to_string()))
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// Classifies a caught node-program panic. The network endpoint panics
/// collective failures with the [`DfoError`] itself as the payload, so a
/// mesh failure comes back out as the typed error (retryable by supervised
/// recovery); anything else is a deterministic bug in the program and maps
/// to the non-retryable [`DfoError::Panic`].
pub(crate) fn panic_to_error(panic: Box<dyn std::any::Any + Send>, rank: Rank) -> DfoError {
    match panic.downcast::<DfoError>() {
        Ok(e) => *e,
        Err(panic) => DfoError::Panic(format!("rank {rank}: {}", panic_message(panic))),
    }
}

/// A simulated DFOGraph cluster rooted at a base directory; node `i`'s disk
/// lives under `<base>/n<i>/`.
pub struct Cluster {
    cfg: EngineConfig,
    base: PathBuf,
    disks: Vec<NodeDisk>,
    /// Per-rank decoded-chunk caches, shared across `run` calls so iterative
    /// jobs keep their warm chunks between runs. Empty when
    /// `chunk_cache_bytes == 0` (nothing is allocated).
    chunk_caches: Vec<Arc<ChunkCache>>,
    last_net: Mutex<Vec<Arc<NetStats>>>,
    /// Checkpoint-restart counters of the most recent supervised run.
    recovery: Mutex<RecoveryStats>,
    /// Ahead-rank rollbacks across every run on this cluster, shared into
    /// each [`NodeCtx`] so the count survives per-attempt context rebuilds.
    rollbacks: Arc<AtomicU64>,
    /// Metrics registry every run on this cluster feeds; shareable across
    /// clusters via [`Cluster::create_with_registry`].
    registry: Arc<Registry>,
    /// Extra base labels (e.g. `graph`) on every series this cluster emits.
    labels: Vec<(String, String)>,
    /// Per-rank network totals, folded in at the end of **every** run and
    /// batch mesh job. Endpoints live one run (a supervised restart
    /// builds a fresh one), so these accumulators — not
    /// [`Cluster::net_stats`] — are what survives endpoint churn.
    net_accum: Arc<Mutex<Vec<NetTotals>>>,
}

impl Cluster {
    /// Creates (or reopens) a cluster. Disk bandwidth throttles and traffic
    /// recording follow the config. The cluster gets its own private
    /// metrics registry; use [`Cluster::create_with_registry`] to share one.
    pub fn create(cfg: EngineConfig, base: impl Into<PathBuf>) -> Result<Self> {
        Self::create_with_registry(cfg, base, Registry::new(), &[])
    }

    /// Like [`Cluster::create`] but feeding an externally owned metrics
    /// [`Registry`], with `labels` (e.g. `[("graph", "wiki")]`) attached to
    /// every series — how a service scrapes several resident graphs from
    /// one endpoint. Registers pull sources for the per-rank disk,
    /// chunk-cache and accumulated network counters; run-time telemetry
    /// (phase histograms, collective latencies) lands in the same registry.
    pub fn create_with_registry(
        cfg: EngineConfig,
        base: impl Into<PathBuf>,
        registry: Arc<Registry>,
        labels: &[(&str, &str)],
    ) -> Result<Self> {
        cfg.validate().map_err(DfoError::Config)?;
        let base = base.into();
        let disks = (0..cfg.nodes)
            .map(|i| NodeDisk::new(base.join(format!("n{i}")), cfg.disk_bw, cfg.record_traffic))
            .collect::<Result<Vec<_>>>()?;
        let chunk_caches: Vec<Arc<ChunkCache>> = if cfg.chunk_cache_bytes > 0 {
            (0..cfg.nodes).map(|_| Arc::new(ChunkCache::new(cfg.chunk_cache_bytes))).collect()
        } else {
            Vec::new()
        };
        let net_accum = Arc::new(Mutex::new(vec![NetTotals::default(); cfg.nodes]));
        let this = Self {
            cfg,
            base,
            disks,
            chunk_caches,
            last_net: Mutex::new(Vec::new()),
            recovery: Mutex::new(RecoveryStats::default()),
            rollbacks: Arc::new(AtomicU64::new(0)),
            registry,
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            net_accum,
        };
        this.register_sources();
        Ok(this)
    }

    /// Registers the pull-model sources that expose the cluster's existing
    /// atomic stats surfaces through the registry: sampled only at scrape
    /// time, so the engine's hot paths pay nothing.
    fn register_sources(&self) {
        let disks = self.disks.clone();
        let caches = self.chunk_caches.clone();
        let accum = self.net_accum.clone();
        let rollbacks = self.rollbacks.clone();
        let base = self.labels.clone();
        self.registry.register_source(Box::new(move |buf| {
            let with_rank = |rank: &str| -> Vec<(String, String)> {
                let mut l = base.clone();
                l.push(("rank".into(), rank.into()));
                l
            };
            for (rank, d) in disks.iter().enumerate() {
                let rank = rank.to_string();
                let owned = with_rank(&rank);
                let l: Vec<(&str, &str)> =
                    owned.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                let s = d.stats();
                buf.counter(
                    "dfo_disk_read_bytes_total",
                    "Physical disk bytes read",
                    &l,
                    s.read_bytes.get(),
                );
                buf.counter(
                    "dfo_disk_write_bytes_total",
                    "Physical disk bytes written",
                    &l,
                    s.write_bytes.get(),
                );
                buf.counter(
                    "dfo_disk_read_nanos_total",
                    "Wall nanoseconds inside disk reads (op + throttle)",
                    &l,
                    s.read_nanos.get(),
                );
                buf.counter(
                    "dfo_disk_write_nanos_total",
                    "Wall nanoseconds inside disk writes (op + throttle)",
                    &l,
                    s.write_nanos.get(),
                );
                buf.counter(
                    "dfo_chunk_encode_nanos_total",
                    "Wall nanoseconds LZ4-encoding chunk frames",
                    &l,
                    s.encode_nanos.get(),
                );
                buf.counter(
                    "dfo_chunk_decode_nanos_total",
                    "Wall nanoseconds decoding/checksumming chunk frames",
                    &l,
                    s.decode_nanos.get(),
                );
            }
            for (rank, c) in caches.iter().enumerate() {
                let rank = rank.to_string();
                let owned = with_rank(&rank);
                let l: Vec<(&str, &str)> =
                    owned.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                let s = c.stats();
                buf.counter("dfo_chunk_cache_hits_total", "Decoded-chunk cache hits", &l, s.hits);
                buf.counter(
                    "dfo_chunk_cache_misses_total",
                    "Decoded-chunk cache misses",
                    &l,
                    s.misses,
                );
                buf.counter(
                    "dfo_chunk_cache_evicted_bytes_total",
                    "Decoded bytes evicted to stay in budget",
                    &l,
                    s.evicted_bytes,
                );
                buf.gauge(
                    "dfo_chunk_cache_resident_bytes",
                    "Decoded bytes currently resident",
                    &l,
                    s.resident_bytes as f64,
                );
            }
            {
                let l: Vec<(&str, &str)> =
                    base.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                buf.counter(
                    "dfo_rollbacks_total",
                    "Ahead-rank one-checkpoint rollbacks across this cluster's runs",
                    &l,
                    rollbacks.load(Ordering::Relaxed),
                );
            }
            for (rank, t) in accum.lock().iter().enumerate() {
                let rank = rank.to_string();
                let owned = with_rank(&rank);
                let l: Vec<(&str, &str)> =
                    owned.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                buf.counter(
                    "dfo_net_sent_bytes_total",
                    "Wire bytes sent, accumulated across runs and restarts",
                    &l,
                    t.sent_bytes,
                );
                buf.counter(
                    "dfo_net_recv_bytes_total",
                    "Wire bytes received, accumulated across runs and restarts",
                    &l,
                    t.recv_bytes,
                );
                buf.counter(
                    "dfo_net_sent_frames_total",
                    "Frames sent, accumulated across runs and restarts",
                    &l,
                    t.sent_frames,
                );
            }
        }));
    }

    /// Builds the telemetry context one rank's [`NodeCtx`] runs under.
    pub(crate) fn rank_telemetry(
        &self,
        rank: Rank,
        recorder: Option<&Arc<FlightRecorder>>,
    ) -> Telemetry {
        let mut tele = Telemetry::new(self.registry.clone());
        for (k, v) in &self.labels {
            tele = tele.with_label(k, v);
        }
        tele = tele.with_label("rank", &rank.to_string());
        if let Some(rec) = recorder {
            tele = tele.with_tracer(rec.clone());
        }
        tele
    }

    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    pub fn base(&self) -> &PathBuf {
        &self.base
    }

    /// This rank's shared decoded-chunk cache, if caching is on.
    pub(crate) fn chunk_cache(&self, rank: Rank) -> Option<Arc<ChunkCache>> {
        self.chunk_caches.get(rank).cloned()
    }

    pub fn disks(&self) -> &[NodeDisk] {
        &self.disks
    }

    /// Runs DFOGraph preprocessing for `g` onto the node disks (§2.2, §4).
    /// Any chunks cached from a previous graph are dropped: the cache keys
    /// on `(partition, batch, repr)` and re-preprocessing rewrites those
    /// files in place.
    pub fn preprocess<E: Pod + PartialEq>(&self, g: &EdgeList<E>) -> Result<Plan> {
        for c in &self.chunk_caches {
            c.clear();
        }
        Ok(preprocess(g, &self.cfg, &self.disks)?.plan)
    }

    /// Runs `f` once per node, SPMD-style, each on its own OS thread with
    /// its own [`NodeCtx`]. Returns the per-node results in rank order.
    ///
    /// A panicking node drops its endpoint, which surfaces as
    /// `DfoError::NetClosed` on peers — the failure model the checkpointing
    /// tests exercise.
    pub fn run<T, F>(&self, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&mut NodeCtx) -> Result<T> + Sync,
    {
        self.run_inner(None, f)
    }

    /// Like [`Cluster::run`], but every rank's *mutable* state — vertex
    /// arrays, checkpoints, `ProcessEdges` message spills — lives under the
    /// private subdirectory `<base>/n<i>/<sub>/` instead of directly in the
    /// node root, while read-only graph data (plan, chunks, dispatch/filter/
    /// pull lists) is still read from the node root. Scoped runs with
    /// distinct `sub` names therefore never collide on files, which is what
    /// lets a service multiplex **concurrent jobs** over one preprocessed
    /// graph; they still share the per-rank chunk caches and the disk
    /// bandwidth throttle (the scoped disk shares the node disk's throttle
    /// and counters). Call [`Cluster::remove_scratch`] when the job's
    /// results have been read out.
    pub fn run_scoped<T, F>(&self, sub: &str, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&mut NodeCtx) -> Result<T> + Sync,
    {
        self.run_inner(Some(sub), f)
    }

    fn run_inner<T, F>(&self, scratch_sub: Option<&str>, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&mut NodeCtx) -> Result<T> + Sync,
    {
        let endpoints = SimCluster::build(self.cfg.nodes, self.cfg.net_bw, self.cfg.record_traffic);
        *self.last_net.lock() = endpoints.iter().map(|e| e.stats_arc()).collect();
        // one flight recorder per rank when tracing; merged into one
        // timeline file after the run
        let recorders: Option<Vec<Arc<FlightRecorder>>> = self.cfg.trace_path.as_ref().map(|_| {
            (0..self.cfg.nodes).map(|_| FlightRecorder::new(self.cfg.trace_capacity)).collect()
        });
        let mut results: Vec<Option<Result<T>>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .enumerate()
                .map(|(rank, ep)| {
                    let recorder = recorders.as_ref().map(|r| &r[rank]);
                    let f = &f;
                    s.spawn(move || -> Result<T> {
                        let disk = &self.disks[rank];
                        let scratch = match scratch_sub {
                            Some(sub) => disk.scoped(sub)?,
                            None => disk.clone(),
                        };
                        self.run_rank(rank, self.cfg.clone(), scratch, ep, recorder, false, f)
                    })
                })
                .collect();
            for h in handles {
                results.push(Some(h.join().unwrap_or_else(|panic| {
                    let msg = panic_message(panic);
                    Err(DfoError::NetClosed(format!("node thread panicked: {msg}")))
                })));
            }
        });
        // satellite telemetry work happens after the run and never fails it
        {
            let stats = self.last_net.lock();
            let mut acc = self.net_accum.lock();
            for (rank, s) in stats.iter().enumerate() {
                acc[rank].add_stats(s);
            }
        }
        if let (Some(path), Some(recs)) = (self.cfg.trace_path.as_deref(), recorders.as_ref()) {
            let ranks: Vec<(usize, Vec<SpanRecord>)> =
                recs.iter().enumerate().map(|(r, fr)| (r, fr.snapshot())).collect();
            if let Err(e) = dfo_obs::write_trace_file(std::path::Path::new(path), &ranks) {
                eprintln!("[dfo] warning: writing trace file {path}: {e}");
            }
        }
        results.into_iter().map(|r| r.unwrap()).collect()
    }

    /// Runs `f` as **one rank of a multi-process cluster**: joins the TCP
    /// mesh described by `cfg.peers` (every rank must run this with the
    /// same config and a disk holding the same preprocessed plan) and runs
    /// `f` as the mesh's one job, scratch in the node root.
    ///
    /// This is the single-rank sibling of [`Cluster::run`]: the same engine
    /// code runs unchanged, only the transport differs. A rank that fails
    /// (error or panic) poisons the mesh so survivors get
    /// [`DfoError::NetClosed`] from their next collective instead of
    /// hanging; a rank whose peer process dies mid-run gets the same.
    pub fn run_distributed<T>(
        &self,
        rank: Rank,
        f: impl FnOnce(&mut NodeCtx) -> Result<T>,
    ) -> Result<T> {
        self.batch_job(&ResidentMesh::connect(&self.cfg, rank)?, f)
    }

    /// Runs `f` as one rank of a multi-process cluster **with
    /// checkpoint-restart**: like [`Cluster::run_distributed`], but inside
    /// [`ResidentMesh::relaunching`], so a mesh failure (a peer process
    /// died, or the bootstrap handshake failed) does not abort the job.
    /// Instead the rank quiesces its transport, moves to the next mesh
    /// *epoch*, re-bootstraps the TCP mesh — stale-epoch connections are
    /// rejected in the handshake — and re-executes `f` from scratch, up to
    /// `cfg.max_restarts` times.
    ///
    /// Pair it with a [`crate::Supervisor`] in the parent process: the
    /// supervisor relaunches the dead rank under the incremented epoch
    /// (`DFO_EPOCH`) while the survivors loop here in place. `f` must be
    /// written recovery-style (§3.2): open its arrays with
    /// [`NodeCtx::vertex_array`] (which recovers the last committed
    /// checkpoint), agree on the global resume point — e.g. via
    /// [`NodeCtx::committed_round`] — and re-execute deterministically
    /// from there, so the {crash, no-crash} results stay bit-identical and
    /// at most one `Process` call is lost.
    ///
    /// Only `NetClosed` and `Handshake` count as a mesh death. Other errors
    /// stay fatal: I/O, corruption, configuration — and panics in `f`
    /// itself, which come back as the non-retryable [`DfoError::Panic`]
    /// (the endpoint panics *collective* failures with the typed
    /// `NetClosed` payload, so only genuine mesh failures are retried). An
    /// exhausted restart budget surfaces as [`DfoError::RestartsExhausted`].
    pub fn run_supervised<T>(
        &self,
        rank: Rank,
        mut f: impl FnMut(&mut NodeCtx) -> Result<T>,
    ) -> Result<T> {
        let rollback_base = self.rollbacks.load(Ordering::Relaxed);
        let mut recovery = RecoveryStats::default();
        let tele = self.rank_telemetry(rank, None);
        let out =
            ResidentMesh::relaunching(&self.cfg, rank, &tele, &mut recovery, |mesh| {
                match self.batch_job(mesh, &mut f) {
                    Err(e @ (DfoError::NetClosed(_) | DfoError::Handshake(_))) => Err(e),
                    out => Ok(out),
                }
            });
        recovery.rollbacks = self.rollbacks.load(Ordering::Relaxed) - rollback_base;
        *self.recovery.lock() = recovery;
        out
    }

    /// Runs `f` as the one job of a batch mesh, scratch in the node root.
    /// When tracing, every rank then ships its spans to rank 0, which
    /// writes the merged timeline; the mesh's traffic is folded into the
    /// per-rank totals afterwards, so the gather's frames count too.
    fn batch_job<T>(
        &self,
        mesh: &ResidentMesh,
        f: impl FnOnce(&mut NodeCtx) -> Result<T>,
    ) -> Result<T> {
        let stats = mesh.net_stats();
        *self.last_net.lock() = vec![stats.clone()];
        let recorder =
            self.cfg.trace_path.as_ref().map(|_| FlightRecorder::new(self.cfg.trace_capacity));
        let out = mesh.run_job_with(0, self, None, recorder.as_ref(), |ctx| {
            let v = f(ctx)?;
            // collective: cfg.trace_path is part of the replicated config,
            // so either all ranks enter or none do
            if let Some(rec) = &recorder {
                self.flush_distributed_trace(ctx, rec);
            }
            Ok(v)
        });
        self.net_accum.lock()[mesh.rank()].add_stats(&stats);
        out
    }

    /// Runs one rank's node program — the one place that turns an endpoint
    /// into a [`NodeCtx`] and a program outcome into a result, for the
    /// in-process threads and every TCP mesh job (batch or daemon) alike.
    /// The context reads graph data from the rank's node disk and
    /// writes mutable state to `scratch`; `crash_abort` is set when the
    /// rank is its own OS process, so an injected crash kills the process.
    ///
    /// An error or panic poisons the collective so peers fail instead of
    /// hanging — except [`DfoError::Cancelled`]: a cooperative cancel is
    /// agreed collectively at a `Process`-call boundary, every rank unwinds
    /// together, and the substrate stays healthy.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_rank<T>(
        &self,
        rank: Rank,
        cfg: EngineConfig,
        scratch: NodeDisk,
        net: Endpoint,
        recorder: Option<&Arc<FlightRecorder>>,
        crash_abort: bool,
        f: impl FnOnce(&mut NodeCtx) -> Result<T>,
    ) -> Result<T> {
        let disk = self.disks[rank].clone();
        let mut ctx = NodeCtx::with_disks(rank, cfg, disk, scratch, net, self.chunk_cache(rank))?;
        ctx.rollbacks = self.rollbacks.clone();
        ctx.set_telemetry(self.rank_telemetry(rank, recorder));
        ctx.crash_abort = crash_abort;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut ctx))) {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e @ DfoError::Cancelled(_))) => Err(e),
            Ok(Err(e)) => {
                // a failed node can't serve its peers: abort the
                // collectives so they error out too
                ctx.net().poison_collective();
                Err(e)
            }
            Err(panic) => {
                ctx.net().poison_collective();
                Err(panic_to_error(panic, rank))
            }
        }
    }

    /// Gathers every rank's trace spans to rank 0 over the mesh and writes
    /// the merged timeline. Telemetry never fails the job: every error path
    /// warns on stderr and returns.
    fn flush_distributed_trace(&self, ctx: &mut NodeCtx, recorder: &Arc<FlightRecorder>) {
        let Some(path) = self.cfg.trace_path.as_deref() else { return };
        let mut out = vec![Vec::new(); self.cfg.nodes];
        out[0] = dfo_obs::encode_spans(&recorder.snapshot());
        match ctx.exchange_bytes(out) {
            Ok(incoming) => {
                if ctx.rank() != 0 {
                    return;
                }
                let mut ranks: Vec<(usize, Vec<SpanRecord>)> = Vec::new();
                for (r, bytes) in incoming.into_iter().enumerate() {
                    if bytes.is_empty() {
                        continue;
                    }
                    match dfo_obs::decode_spans(&bytes) {
                        Ok(spans) => ranks.push((r, spans)),
                        Err(e) => {
                            eprintln!("[dfo] warning: rank {r} trace spans undecodable: {e}")
                        }
                    }
                }
                if let Err(e) = dfo_obs::write_trace_file(std::path::Path::new(path), &ranks) {
                    eprintln!("[dfo] warning: writing trace file {path}: {e}");
                }
            }
            Err(e) => eprintln!("[dfo] warning: gathering trace spans: {e}"),
        }
    }

    /// Checkpoint-restart counters of the most recent
    /// [`Cluster::run_supervised`] call on this handle (zeroes if it never
    /// had to recover).
    pub fn recovery_stats(&self) -> RecoveryStats {
        *self.recovery.lock()
    }

    /// Aggregate disk bytes (read + written) across all nodes.
    pub fn total_disk_bytes(&self) -> u64 {
        self.disks.iter().map(|d| d.stats().total_bytes()).sum()
    }

    pub fn total_disk_read(&self) -> u64 {
        self.disks.iter().map(|d| d.stats().read_bytes.get()).sum()
    }

    pub fn total_disk_written(&self) -> u64 {
        self.disks.iter().map(|d| d.stats().write_bytes.get()).sum()
    }

    /// Aggregate bytes sent on the wire during the most recent `run`.
    pub fn total_net_sent(&self) -> u64 {
        self.last_net.lock().iter().map(|s| s.sent_bytes.get()).sum()
    }

    /// Per-node network stats of the **most recent** `run` (or batch mesh
    /// job — one entry, this rank's). Endpoints live one run, so these
    /// zero at every run/restart boundary; use [`Cluster::net_totals`] for
    /// telemetry that survives endpoint churn.
    pub fn net_stats(&self) -> Vec<Arc<NetStats>> {
        self.last_net.lock().clone()
    }

    /// Per-rank network totals accumulated at the end of every run and
    /// every batch mesh job (supervised restarts included). In
    /// distributed mode only this process's own rank entry moves.
    pub fn net_totals(&self) -> Vec<NetTotals> {
        self.net_accum.lock().clone()
    }

    /// The metrics registry every run on this cluster feeds (shared with
    /// the owner when built via [`Cluster::create_with_registry`]).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Per-rank chunk-cache counters; empty when the cache is disabled
    /// (`chunk_cache_bytes == 0` allocates nothing).
    ///
    /// These are **cumulative over the cluster's lifetime** (the caches are
    /// shared across `run` calls on purpose, so iterative jobs keep warm
    /// chunks). To attribute counters to one window, snapshot before and
    /// diff with [`ChunkCacheStats::delta_since`]; per-job attribution under
    /// *concurrent* jobs needs the per-call counters in
    /// [`dfo_types::PhaseStats`] instead, which are counted at each job's
    /// own lookup sites.
    pub fn chunk_cache_stats(&self) -> Vec<ChunkCacheStats> {
        self.chunk_caches.iter().map(|c| c.stats()).collect()
    }

    /// Deletes the per-rank scratch subdirectories a [`Cluster::run_scoped`]
    /// call left behind (`<base>/n<i>/<sub>/`). Missing directories are
    /// fine — cleanup is idempotent.
    pub fn remove_scratch(&self, sub: &str) -> Result<()> {
        for d in &self.disks {
            let dir = d.root().join(sub);
            if dir.exists() {
                std::fs::remove_dir_all(&dir).map_err(|e| {
                    DfoError::io(format!("removing scratch dir {}", dir.display()), e)
                })?;
            }
        }
        Ok(())
    }

    /// Zeroes disk counters (between preprocessing and timed runs).
    pub fn reset_disk_stats(&self) {
        for d in &self.disks {
            d.stats().reset();
        }
    }
}
