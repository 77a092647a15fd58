//! The TCP mesh: bootstrap once, serve a stream of **concurrent** jobs,
//! and relaunch in place when the mesh dies.
//!
//! [`ResidentMesh`] is the one way a `dfo-core` rank joins a TCP mesh. A
//! resident service daemon calls [`ResidentMesh::connect`] **once** and
//! then runs any number of jobs over the same established endpoint with
//! [`ResidentMesh::run_job_as`], interleaved with control-plane messages
//! ([`ResidentMesh::ctrl_send`] / [`ResidentMesh::ctrl_recv`]) on the
//! reserved control tag-space ([`dfo_net::CTRL_TAG_BIT`]) that can never
//! contend with engine streams. A batch run
//! ([`Cluster::run_distributed`], [`Cluster::run_supervised`]) is the
//! one-job case: one mesh, one job, scratch in the node root.
//!
//! ## The tag-namespace invariant: why concurrent jobs are safe
//!
//! Each job runs over a **job view** of the mesh endpoint
//! ([`dfo_net::Endpoint::job_view`]): every stream and collective tag the
//! job emits carries the job's namespace base
//! ([`dfo_net::job_tag_base`]) in bits 44..61 of the tag. Engine stream
//! tags still restart at 0 per job and each job counts its own collective
//! sequence from 0 — but two jobs' tags can no longer collide, because
//! their namespace fields differ, and neither can collide with the mesh's
//! *master* namespace (field 0: out-of-job barriers, control fan-out
//! acknowledgement), which [`job_tag_base`](dfo_net::job_tag_base)
//! deliberately skips. The TCP demux routes by full tag, and collectives
//! relay through rank 0 keyed by full tag, so any number of jobs may
//! overlap on one mesh with their traffic pairwise isolated.
//!
//! Three rules keep the invariant airtight:
//!
//! 1. **Equal job ids across ranks.** All ranks must enter a job under the
//!    same id ([`ResidentMesh::run_job_as`]; a coordinator assigns ids and
//!    fans them out).
//! 2. **One collective sequence per job.** The job's collective counter
//!    lives on the mesh (not the view), so a post-job
//!    [`ResidentMesh::job_barrier`] continues the job's sequence in
//!    lockstep instead of restarting it.
//! 3. **Reclamation on every exit path.** [`ResidentMesh::end_job`] drops
//!    the job's demux queues and marks the namespace dead, so a job that
//!    died mid-stream can neither leak queues nor head-of-line-block an
//!    overlapping job.
//!
//! Concurrent jobs are a property of the **TCP** backend: the in-process
//! simulation's shared-memory collective ignores tags (see
//! [`dfo_net::Transport`]), and a resident mesh is always TCP.
//!
//! ## Failure model: one relaunch loop
//!
//! * **Cooperative cancellation** is a clean collective unwind — every rank
//!   agrees at the same `Process`-call boundary — so a cancelled job
//!   returns [`DfoError::Cancelled`] and the mesh stays healthy for the
//!   jobs overlapping it and the next ones.
//! * Any **other** job failure (error or panic) poisons the mesh:
//!   survivors' collectives fail with `NetClosed` instead of hanging —
//!   including every overlapping job, which unwinds with a retryable
//!   error. The mesh is then dead.
//!
//! [`ResidentMesh::relaunching`] is the one place a dead mesh is rebuilt,
//! for batch runs and both daemon roles alike (paper §3.2's
//! checkpoint-restart, layered over an in-place relaunch): the caller's
//! *round* runs on each mesh incarnation and decides whether the mesh
//! died; the loop then drops the dead mesh, moves to the next epoch —
//! the one published in `cfg.epoch_file` when a [`crate::Supervisor`]
//! publishes one, else one more — re-bootstraps (stale-epoch sockets are
//! rejected in the handshake) and runs the round again, up to
//! `cfg.max_restarts` times. It records `dfo_restarts_total`,
//! `dfo_mesh_epoch` and `dfo_recovery_seconds`.

use crate::cluster::Cluster;
use crate::node::NodeCtx;
use bytes::Bytes;
use dfo_net::{Endpoint, NetStats, TcpCluster, TcpOpts, CTRL_TAG_BIT};
use dfo_obs::{FlightRecorder, Telemetry};
use dfo_types::{DfoError, EngineConfig, Rank, RecoveryStats, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One rank's resident mesh endpoint. See the module docs.
pub struct ResidentMesh {
    rank: Rank,
    nodes: usize,
    /// The epoch this mesh incarnation bootstrapped at.
    epoch: u64,
    /// The master view (tag namespace 0). Job views are derived per job
    /// and dropped when the job ends; the master never leaves the mesh.
    ep: Endpoint,
    /// Live jobs' collective sequence counters, so successive views of one
    /// job (the run, then [`ResidentMesh::job_barrier`]) share a sequence.
    coll_counters: Mutex<HashMap<u64, Arc<AtomicU64>>>,
}

impl ResidentMesh {
    /// Joins the TCP mesh described by `cfg.peers` as `rank` at epoch
    /// `cfg.epoch`, blocking until every pairwise connection is up and
    /// epoch-handshaken.
    pub fn connect(cfg: &EngineConfig, rank: Rank) -> Result<Self> {
        let peers = cfg.peers.clone().ok_or_else(|| {
            DfoError::Config("a TCP mesh needs cfg.peers (the rank address list)".into())
        })?;
        if rank >= cfg.nodes {
            return Err(DfoError::Config(format!(
                "rank {rank} outside cluster of {} nodes",
                cfg.nodes
            )));
        }
        let ep = TcpCluster::connect(
            rank,
            &peers,
            cfg.net_bw,
            cfg.record_traffic,
            TcpOpts {
                connect_timeout: Duration::from_secs(cfg.connect_timeout_secs),
                epoch: cfg.epoch,
            },
        )?;
        Ok(Self {
            rank,
            nodes: cfg.nodes,
            epoch: cfg.epoch,
            ep,
            coll_counters: Mutex::new(HashMap::new()),
        })
    }

    /// Runs `round` on a mesh incarnation, relaunching the mesh in place
    /// each time it dies — the one relaunch loop (see the module docs).
    ///
    /// `round` returns `Err` when the mesh died under it; `Ok(result)`
    /// ends the loop with `result`. A bootstrap that fails with `NetClosed`
    /// or `Handshake` is a mesh death too. Each death costs one restart of
    /// the `cfg.max_restarts` budget; past it the loop fails with
    /// [`DfoError::RestartsExhausted`] carrying the last death. `recovery`
    /// tracks the restarts and the current epoch on every exit path, and
    /// the recovery metric families are recorded under `tele`.
    pub fn relaunching<T>(
        cfg: &EngineConfig,
        rank: Rank,
        tele: &Telemetry,
        recovery: &mut RecoveryStats,
        mut round: impl FnMut(&ResidentMesh) -> Result<Result<T>>,
    ) -> Result<T> {
        let restarts_total = tele.counter(
            "dfo_restarts_total",
            "Mesh relaunches after a mesh death (batch re-bootstraps and daemon relaunches)",
            &[],
        );
        let mesh_epoch =
            tele.gauge("dfo_mesh_epoch", "Epoch of the most recent successful mesh bootstrap", &[]);
        let recovery_seconds = tele.duration_histogram(
            "dfo_recovery_seconds",
            "Time from failure detection to a rebuilt mesh (one relaunch)",
            &[],
        );
        // the published epoch file, when present, is the single authority:
        // a rank relaunched with a stale DFO_EPOCH (its death overlapped
        // another failure) starts straight at the published one
        let mut cfg = cfg.clone();
        cfg.epoch = cfg.epoch.max(cfg.epoch_file.as_deref().and_then(read_epoch_file).unwrap_or(0));
        let mut restarts: u32 = 0;
        let mut failed_at: Option<Instant> = None;
        loop {
            recovery.restarts = restarts as u64;
            recovery.mesh_epoch = cfg.epoch;
            // the dead mesh is dropped at the end of this block: transport
            // quiesced (codec threads joined, sockets closed) and the
            // listen port released before the next bootstrap rebinds it
            let death = match ResidentMesh::connect(&cfg, rank) {
                Ok(mesh) => {
                    mesh_epoch.set(cfg.epoch as f64);
                    if let Some(t0) = failed_at.take() {
                        recovery_seconds.observe_duration(t0.elapsed());
                    }
                    match round(&mesh) {
                        Ok(out) => return out,
                        Err(e) => e,
                    }
                }
                Err(e @ (DfoError::NetClosed(_) | DfoError::Handshake(_))) => e,
                Err(e) => return Err(e),
            };
            if restarts >= cfg.max_restarts {
                return Err(DfoError::RestartsExhausted {
                    attempts: restarts,
                    last: Box::new(death),
                });
            }
            restarts += 1;
            restarts_total.inc();
            failed_at = Some(Instant::now());
            cfg.epoch = next_epoch(&cfg);
            eprintln!(
                "[dfo] rank {rank}: mesh died ({death}); relaunching at epoch {} \
                 (restart {restarts}/{})",
                cfg.epoch, cfg.max_restarts
            );
        }
    }

    pub fn rank(&self) -> Rank {
        self.rank
    }

    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Byte and frame counters of this mesh incarnation, shared by every
    /// job view.
    pub fn net_stats(&self) -> Arc<NetStats> {
        self.ep.stats_arc()
    }

    /// Sends one control-plane message to `dst` as a complete stream on the
    /// reserved control tag. Concurrent control senders must serialize
    /// whole messages per peer (a message spans several frames and the
    /// demux queue is FIFO per (peer, tag)) and keep the outstanding
    /// control-frame count within the demux head-of-line budget
    /// ([`dfo_net::DEMUX_QUEUE_DEPTH`]) — the daemon does both.
    pub fn ctrl_send(&self, dst: Rank, payload: Vec<u8>) -> Result<()> {
        self.ep.send_stream(dst, CTRL_TAG_BIT, Bytes::from(payload))
    }

    /// Receives one complete control-plane message from `src` (blocking).
    pub fn ctrl_recv(&self, src: Rank) -> Result<Vec<u8>> {
        self.ep.recv_all(src, CTRL_TAG_BIT)
    }

    /// Mesh-wide barrier outside any job (e.g. a coordinated shutdown), in
    /// the master namespace. Every rank must call out-of-job barriers in
    /// the same order — the usual SPMD discipline, now scoped to the
    /// master namespace only.
    pub fn barrier(&self) -> Result<()> {
        self.ep.try_barrier()
    }

    /// Poisons the mesh: every blocked collective and stream on every rank
    /// fails with `NetClosed` instead of hanging. Idempotent. A daemon
    /// calls this before tearing down a mesh it has judged dead for a
    /// *local* reason (say, a scratch I/O failure after a job), so peers
    /// observe the death instead of waiting forever.
    pub fn poison(&self) {
        self.ep.poison_collective();
    }

    /// Runs one job over the resident mesh under the caller-assigned
    /// `job_id`, SPMD-style: every rank of the mesh must call this with
    /// the same `job_id`, `cluster` graph, `scope` and an equivalent `f`
    /// — over a job view of the already-established endpoint, with no
    /// re-dial, no re-handshake and no re-preprocess. Jobs with distinct
    /// ids may overlap freely (worker threads of one process each calling
    /// this); see the module docs for the namespace invariant.
    ///
    /// The job's mutable state (vertex arrays, checkpoints, spills) lives
    /// under the private scratch scope `scope` of this rank's node disk;
    /// graph data is read from the node root. Afterwards the caller runs
    /// [`ResidentMesh::job_barrier`], removes the scratch, and calls
    /// [`ResidentMesh::end_job`].
    ///
    /// A [`DfoError::Cancelled`] return leaves the mesh healthy (see the
    /// module docs); any other failure poisons it — taking every
    /// overlapping job down with a retryable `NetClosed`.
    pub fn run_job_as<T>(
        &self,
        job_id: u64,
        cluster: &Cluster,
        scope: &str,
        f: impl FnOnce(&mut NodeCtx) -> Result<T>,
    ) -> Result<T> {
        self.run_job_with(job_id, cluster, Some(scope), None, f)
    }

    /// [`ResidentMesh::run_job_as`] with the scratch scope optional — a
    /// batch run keeps its scratch in the node root, where a relaunched
    /// process finds the checkpoints its previous incarnation wrote — and
    /// an optional flight recorder for the rank's spans.
    pub(crate) fn run_job_with<T>(
        &self,
        job_id: u64,
        cluster: &Cluster,
        scope: Option<&str>,
        recorder: Option<&Arc<FlightRecorder>>,
        f: impl FnOnce(&mut NodeCtx) -> Result<T>,
    ) -> Result<T> {
        // the ctx sees the mesh's epoch (it may have advanced past
        // cfg.epoch across relaunches), so `@epoch` crash qualifiers and
        // diagnostics refer to the incarnation actually running
        let mut cfg = cluster.config().clone();
        if cfg.nodes != self.nodes {
            return Err(DfoError::Config(format!(
                "graph cluster spans {} nodes but the resident mesh has {}",
                cfg.nodes, self.nodes
            )));
        }
        cfg.epoch = self.epoch;
        let disk = &cluster.disks()[self.rank];
        let scratch = match scope {
            Some(scope) => disk.scoped(scope)?,
            None => disk.clone(),
        };
        let view = self.ep.job_view(job_id, self.coll_counter(job_id));
        // a failed context build (say, an unreadable plan) drops only the
        // view; the master endpoint (and with it the mesh) survives.
        // One-rank-per-process deployment: injected crashes kill the process
        cluster.run_rank(self.rank, cfg, scratch, view, recorder, true, f)
    }

    /// Barrier inside job `job_id`'s namespace, continuing the job's
    /// collective sequence — the post-job settle before scratch removal
    /// ("no rank deletes scratch another rank still reads"). Every rank
    /// that ran the job must call it, and only once per run, like any
    /// collective.
    pub fn job_barrier(&self, job_id: u64) -> Result<()> {
        self.ep.job_view(job_id, self.coll_counter(job_id)).try_barrier()
    }

    /// Retires job `job_id` on this rank: forgets its collective counter
    /// and reclaims its receive-side demux state, dropping any frames of
    /// the job still in flight. Call on **every** exit path — success,
    /// cancellation, or failure — after the job's views are gone.
    pub fn end_job(&self, job_id: u64) {
        self.coll_counters.lock().remove(&job_id);
        self.ep.reclaim_job(job_id);
    }

    fn coll_counter(&self, job_id: u64) -> Arc<AtomicU64> {
        self.coll_counters.lock().entry(job_id).or_default().clone()
    }
}

/// Reads a supervisor-published epoch file: trimmed decimal text, written
/// atomically (temp + rename) by [`crate::Supervisor`]. Absent, unreadable,
/// or unparsable files all read as "nothing published yet".
fn read_epoch_file(path: &str) -> Option<u64> {
    std::fs::read_to_string(path).ok()?.trim().parse().ok()
}

/// The epoch to relaunch at after the mesh at `cfg.epoch` died. Without an
/// epoch file each rank bumps locally by one (correct while failures never
/// overlap a recovery window). With one, the rank waits — bounded — for
/// the supervisor to publish an epoch above the dead mesh's, so every
/// survivor and relaunch converges on the same number no matter how many
/// ranks died; on timeout it falls back to the local bump rather than
/// hanging (a wrong guess just costs another failed bootstrap).
fn next_epoch(cfg: &EngineConfig) -> u64 {
    let current = cfg.epoch;
    let Some(path) = cfg.epoch_file.as_deref() else { return current + 1 };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(e) = read_epoch_file(path) {
            if e > current {
                return e;
            }
        }
        if Instant::now() >= deadline {
            eprintln!(
                "[dfo] warning: epoch file {path} did not advance past {current} within 10s; \
                 bumping locally to {}",
                current + 1
            );
            return current + 1;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
