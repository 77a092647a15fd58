//! The resident daemon: one process per rank, serving **concurrent** jobs
//! over the mesh.
//!
//! [`Daemon::run`] is the per-rank entry point of service phase 2. Every
//! rank process opens the preprocessed graphs under `<base>/graphs/`,
//! connects the [`ResidentMesh`] **once** (paying mesh bootstrap at
//! startup, not per job) and then splits by role:
//!
//! * **Rank 0** is a front end to the same [executor](crate::executor) the
//!   in-process [`crate::Service`] uses: it binds the job-control listener
//!   (`cfg.control_addr` / `DFO_CONTROL_ADDR`), and client handler threads
//!   submit, cancel and list jobs through the executor, whose events stream
//!   back to the submitting [`crate::DfoClient`] connection. What is
//!   daemon-specific is how one admitted attempt runs: fan the spec to the
//!   peer ranks as a [`PeerCmd::Run`] over the reserved control tag, run
//!   rank 0's share under the job's tag namespace, and settle.
//! * **Peer ranks** sit in a follower loop: block on the next control
//!   message from rank 0 and spawn a worker per [`PeerCmd::Run`], so the
//!   peer enters every overlapping job that rank 0's workers fan out.
//!
//! Jobs may overlap because every job runs in its own tag namespace over
//! the shared endpoint (see [`ResidentMesh`] — rank 0 assigns the job id
//! and every rank enters the job under it), and because the executor keeps
//! the in-flight control fan-outs within the demux head-of-line budget
//! (a small cap derived from [`dfo_net::DEMUX_QUEUE_DEPTH`]). Control fan-outs are serialized
//! under a mutex so a multi-frame control message is never interleaved
//! with another on a peer's FIFO (peer, tag) queue.
//!
//! Job results travel **in-band**: every rank encodes its output slice,
//! [`dfo_types::PhaseStats`] and measured scratch footprint as a
//! [`RankResult`] and the job closure gathers them to rank 0 with
//! `exchange_bytes` — no side channel, no shared filesystem assumption.
//!
//! ## Failure model: relaunch in place, honor retries
//!
//! Cooperative cancellation unwinds all ranks of that job together and
//! leaves the mesh healthy — overlapping jobs never notice. Any other job
//! failure poisons the mesh, taking every overlapping job down with a
//! retryable `NetClosed`. The executor requeues each failed job that has
//! attempts left under [`JobSpec::max_retries`] (the same retry rule as
//! in-process), fails the rest to their clients with the typed error, and
//! stops admitting until the running jobs drain. Both roles run inside
//! [`ResidentMesh::relaunching`], the relaunch loop batch runs use too:
//! any error out of a role's round (the executor's `serve`, the peer's
//! follower loop) is a mesh death, and the loop rebuilds the mesh **in
//! place** under the next epoch (every rank counts one relaunch per mesh
//! death, so epochs agree) and serves again: requeued jobs re-run on the
//! fresh mesh under a fresh scratch scope.
//!
//! Relaunches are bounded by `cfg.max_restarts`; past the bound the daemon
//! fails everything still queued and exits with
//! [`DfoError::RestartsExhausted`].

use crate::catalog::{Catalog, CatalogEntry};
use crate::executor::{run_algorithm, Attempt, AttemptOutput, AttemptRunner, Executor};
use crate::job::{Job, JobReport, JobSink};
use crate::metrics::MetricsServer;
use crate::wire::{self, ClientMsg, DaemonMsg, PeerCmd, RankResult, MAX_CLIENT_MSG, PROTO_VERSION};
use dfo_algos::Algorithm;
use dfo_core::ResidentMesh;
use dfo_obs::Telemetry;
use dfo_types::{DfoError, EngineConfig, JobSpec, JobStatus, RecoveryStats, Result};
use parking_lot::Mutex;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The write half of one client connection, shared by the handler thread
/// (replies) and the executor (job events). Send failures mark the sink
/// dead and are otherwise ignored: a vanished client must never take the
/// daemon down with it.
struct ClientSink {
    w: Mutex<TcpStream>,
    dead: AtomicBool,
}

impl ClientSink {
    fn send(&self, msg: &DaemonMsg) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let mut w = self.w.lock();
        if wire::send_msg(&mut *w, msg.encode()).is_err() {
            self.dead.store(true, Ordering::Relaxed);
        }
    }
}

impl JobSink for ClientSink {
    fn status(&self, status: JobStatus) {
        self.send(&DaemonMsg::Status { status });
    }

    fn finish(&self, job_id: u64, result: Result<JobReport>) {
        self.send(&match result {
            Ok(report) => DaemonMsg::Report { report },
            Err(error) => DaemonMsg::JobError { job_id, error },
        });
    }
}

/// Rank 0's state shared by the accept loop and the client handlers.
struct Rank0 {
    exec: Executor,
    /// The connection that requested shutdown, owed a `ShutdownOk`.
    shutdown_ack: Mutex<Option<Arc<ClientSink>>>,
}

/// The resident per-rank daemon. See the module docs; in short, each rank
/// process of the deployment calls [`Daemon::run`] with its rank and the
/// shared engine config, and rank 0's `control_addr` is what
/// [`crate::DfoClient::connect`] dials.
pub struct Daemon;

impl Daemon {
    /// Runs one rank of the daemon mesh until a client requests shutdown
    /// (clean `Ok`) or the mesh dies past its `cfg.max_restarts` relaunch
    /// budget ([`DfoError::RestartsExhausted`]). Graphs are discovered under
    /// `<base>/graphs/` — preprocess them first with
    /// [`crate::Service::load_graph`] (or ship the directories); the daemon
    /// never preprocesses.
    pub fn run(cfg: EngineConfig, rank: usize, base: impl Into<PathBuf>) -> Result<()> {
        cfg.validate().map_err(DfoError::Config)?;
        let base = base.into();
        let catalog = Catalog::new(cfg.clone(), base.clone());
        if catalog.open_all()? == 0 {
            return Err(DfoError::Config(format!(
                "no preprocessed graphs under {}/graphs",
                base.display()
            )));
        }
        if rank == 0 {
            return run_rank0(Executor::new(catalog));
        }
        let tele = Telemetry::new(catalog.registry.clone());
        ResidentMesh::relaunching(&cfg, rank, &tele, &mut RecoveryStats::default(), |mesh| {
            peer_round(&catalog, mesh)?;
            Ok(mesh.barrier())
        })
    }
}

/// Runs the SPMD body of one job on this rank over the resident mesh under
/// the coordinator-assigned job id, gathers every rank's [`RankResult`] to
/// rank 0 in-band, and settles. The outer `Err` means the mesh is dead;
/// the inner result is the job's own outcome (success, or a cooperative
/// cancel that left the mesh healthy), `Some` results on rank 0 only.
fn mesh_job(
    mesh: &ResidentMesh,
    entry: &CatalogEntry,
    algo: &dyn Algorithm,
    spec: &JobSpec,
    job_id: u64,
    scope: &str,
    token: Arc<AtomicBool>,
) -> Result<Result<Option<Vec<RankResult>>>> {
    let nodes = mesh.nodes();
    let rank = mesh.rank();
    let ran = mesh.run_job_as(job_id, &entry.cluster, scope, |ctx| {
        let mut outgoing = vec![Vec::new(); nodes];
        outgoing[0] = run_algorithm(ctx, algo, &spec.params, token)?.encode();
        let gathered = ctx.exchange_bytes(outgoing)?;
        if rank != 0 {
            return Ok(None);
        }
        gathered.iter().map(|bytes| RankResult::decode(bytes)).collect::<Result<_>>().map(Some)
    });
    let dir = entry.cluster.disks()[rank].root().join(scope);
    let settled = match ran {
        // healthy path: a barrier in the job's namespace so no rank deletes
        // scratch another rank still touches, then each rank removes its
        // **own** scratch directory — correct whether the deployment shares
        // a filesystem or not
        Ok(_) | Err(DfoError::Cancelled(_)) => mesh.job_barrier(job_id).and_then(|()| {
            if dir.exists() {
                std::fs::remove_dir_all(&dir).map_err(|e| {
                    DfoError::io(format!("removing scratch dir {}", dir.display()), e)
                })?;
            }
            Ok(ran)
        }),
        Err(e) => Err(e),
    };
    mesh.end_job(job_id);
    if settled.is_err() {
        // mesh-dead path: no barrier is possible; best-effort removal is
        // race-free because a retry re-runs under a fresh scope
        let _ = std::fs::remove_dir_all(dir);
    }
    settled
}

// ---------------------------------------------------------------------------
// peer ranks: the follower loop

/// One peer mesh generation: receive control commands from rank 0 and run
/// a worker thread per job, so jobs overlap on the peer exactly as rank 0
/// overlaps them. Returns `Ok` on a coordinated shutdown; `Err` when the
/// mesh died (every spawned worker is joined either way — the
/// generation's threads never outlive it).
fn peer_round(catalog: &Catalog, mesh: &ResidentMesh) -> Result<()> {
    // the first *job* error this generation, preferred over the follower
    // loop's own (usually derived NetClosed) error as the reported cause
    let first_fail: Mutex<Option<DfoError>> = Mutex::new(None);
    let out: Result<()> = std::thread::scope(|sc| loop {
        let msg = mesh.ctrl_recv(0)?;
        let (job_id, scope, spec) = match PeerCmd::decode(&msg) {
            Ok(PeerCmd::Shutdown) => return Ok(()),
            Ok(PeerCmd::Run { job_id, scope, spec }) => (job_id, scope, spec),
            Err(e) => {
                mesh.poison(); // make rank 0 observe the death too
                return Err(e);
            }
        };
        let (Some(entry), Some(algo)) =
            (catalog.get(&spec.graph), dfo_algos::find(&spec.algorithm))
        else {
            mesh.poison();
            return Err(DfoError::Protocol(format!(
                "coordinator fanned out unknown graph {:?} or algorithm {:?}",
                spec.graph, spec.algorithm
            )));
        };
        let fail = &first_fail;
        sc.spawn(move || {
            // rank 0's token cancels everyone through the collective
            // cancel agreement; this rank never flips its own
            let token = Arc::new(AtomicBool::new(false));
            if let Err(e) = mesh_job(mesh, &entry, algo, &spec, job_id, &scope, token) {
                // the mesh is dead; every rank must observe it
                mesh.poison();
                fail.lock().get_or_insert(e);
            }
        });
    });
    out.map_err(|e| first_fail.into_inner().unwrap_or(e))
}

// ---------------------------------------------------------------------------
// rank 0: client listener, handlers, and the mesh attempt runner

/// Rank 0's attempt runner: fan the job out to the peers (whole messages,
/// serialized), run rank 0's share, settle. Any failure but a cooperative
/// cancel poisons the mesh so every rank and every overlapping job
/// observes the death.
struct MeshAttempts<'a> {
    mesh: &'a ResidentMesh,
    /// Serializes whole control fan-outs: a control message spans several
    /// frames and the demux queue is FIFO per (peer, tag).
    ctrl: Mutex<()>,
}

impl AttemptRunner for MeshAttempts<'_> {
    fn run(&self, job: &Job, scope: &str) -> Attempt {
        let cmd = PeerCmd::Run { job_id: job.id, scope: scope.to_string(), spec: job.spec.clone() };
        let encoded = cmd.encode();
        let fanout = {
            let _fanout = self.ctrl.lock();
            (1..self.mesh.nodes()).try_for_each(|peer| self.mesh.ctrl_send(peer, encoded.clone()))
        };
        let token = job.cancel.clone();
        let ran = fanout.and_then(|()| {
            mesh_job(self.mesh, &job.entry, job.algo, &job.spec, job.id, scope, token)
        });
        match ran {
            Ok(Ok(ranks)) => Attempt::Done(AttemptOutput {
                ranks: ranks.expect("rank 0 gathers results"),
                cache_window: Vec::new(),
            }),
            Ok(Err(e)) => Attempt::Failed(e),
            Err(e) => {
                self.mesh.poison();
                Attempt::Dead(e)
            }
        }
    }
}

fn run_rank0(exec: Executor) -> Result<()> {
    let cfg = exec.config().clone();
    let control_addr = cfg.control_addr.clone().ok_or_else(|| {
        DfoError::Config(
            "daemon rank 0 needs cfg.control_addr (or DFO_CONTROL_ADDR) for the client listener"
                .into(),
        )
    })?;
    let tele = Telemetry::new(exec.registry().clone());
    let front = Arc::new(Rank0 { exec, shutdown_ack: Mutex::new(None) });
    let mut opened: Option<(Option<MetricsServer>, std::thread::JoinHandle<()>)> = None;
    let out = ResidentMesh::relaunching(&cfg, 0, &tele, &mut RecoveryStats::default(), |mesh| {
        if opened.is_none() {
            // the first mesh is up: open the scrape endpoint and the client
            // listener, which then stay open across relaunches
            match open_front(&front, &control_addr) {
                Ok(front_door) => opened = Some(front_door),
                Err(e) => return Ok(Err(e)),
            }
        }
        front.exec.serve(&MeshAttempts { mesh, ctrl: Mutex::new(()) })?;
        // coordinated shutdown: stop the peers, settle the mesh
        let cmd = PeerCmd::Shutdown.encode();
        let stopped = (1..mesh.nodes()).try_for_each(|peer| mesh.ctrl_send(peer, cmd.clone()));
        Ok(stopped.and_then(|()| mesh.barrier()))
    });
    if let Err(e) = &out {
        // give up: fail everything still queued and release the accept loop
        front.exec.close(e);
    }
    if let Some(sink) = front.shutdown_ack.lock().take() {
        sink.send(&DaemonMsg::ShutdownOk);
    }
    if let Some((_metrics, accept)) = opened {
        let _ = accept.join();
    }
    out
}

/// Opens rank 0's front door: the scrape endpoint (when configured) and the
/// client listener, whose accept loop runs until the executor shuts down.
fn open_front(
    front: &Arc<Rank0>,
    control_addr: &str,
) -> Result<(Option<MetricsServer>, std::thread::JoinHandle<()>)> {
    let exec = &front.exec;
    let metrics = match &exec.config().metrics_addr {
        Some(addr) => Some(MetricsServer::spawn(addr, exec.registry().clone())?),
        None => None,
    };
    let listener = TcpListener::bind(control_addr)
        .map_err(|e| DfoError::io(format!("binding control listener on {control_addr}"), e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| DfoError::io("setting control listener non-blocking", e))?;
    eprintln!(
        "[dfo-daemon] rank 0 serving {} graph(s) on {}",
        exec.catalog.names().len(),
        listener.local_addr().map(|a| a.to_string()).unwrap_or(control_addr.to_string()),
    );
    // non-blocking poll so the loop can observe shutdown and release the
    // port even when Daemon::run is hosted in a long-lived process
    let front = front.clone();
    let accept = std::thread::spawn(move || loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let front = front.clone();
                std::thread::spawn(move || handle_client(front, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if front.exec.is_shutdown() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => return,
        }
    });
    Ok((metrics, accept))
}

/// One client connection: handshake, then a request loop. Protocol
/// violations — including a frame announcing more than
/// [`MAX_CLIENT_MSG`] bytes, refused before anything is allocated — answer
/// with a typed error and close the connection; a bad job *spec* is a
/// per-request [`DaemonMsg::Error`], not a disconnect.
fn handle_client(front: Arc<Rank0>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let sink = Arc::new(ClientSink { w: Mutex::new(write_half), dead: AtomicBool::new(false) });
    let mut reader = stream;

    // handshake: Hello must come first and the version must match
    let refuse = |e: DfoError| sink.send(&DaemonMsg::Error { message: e.to_string() });
    let hello_client_id = match wire::recv_msg(&mut reader, MAX_CLIENT_MSG) {
        Ok(Some(bytes)) => match ClientMsg::decode(&bytes) {
            Ok(ClientMsg::Hello { version, client_id }) if version == PROTO_VERSION => client_id,
            Ok(ClientMsg::Hello { version, .. }) => {
                sink.send(&DaemonMsg::Error {
                    message: format!(
                        "unsupported protocol version {version} (daemon speaks {PROTO_VERSION})"
                    ),
                });
                return;
            }
            _ => {
                sink.send(&DaemonMsg::Error { message: "expected Hello first".into() });
                return;
            }
        },
        Ok(None) => return,
        Err(e) => return refuse(e),
    };
    sink.send(&DaemonMsg::HelloOk {
        version: PROTO_VERSION,
        nodes: front.exec.config().nodes as u32,
    });

    loop {
        let bytes = match wire::recv_msg(&mut reader, MAX_CLIENT_MSG) {
            Ok(Some(b)) => b,
            Ok(None) => return, // client left
            Err(e) => return refuse(e),
        };
        let msg = match ClientMsg::decode(&bytes) {
            Ok(m) => m,
            Err(e) => return refuse(e),
        };
        match msg {
            ClientMsg::Hello { .. } => {
                sink.send(&DaemonMsg::Error { message: "duplicate Hello".into() });
                return;
            }
            ClientMsg::Submit { mut spec } => {
                if spec.client_id.is_empty() {
                    spec.client_id = hello_client_id.clone();
                }
                match front.exec.submit(spec, sink.clone()) {
                    Ok(job) => sink.send(&DaemonMsg::Submitted { job_id: job.id }),
                    Err(e) => sink.send(&DaemonMsg::Error { message: e.to_string() }),
                }
            }
            ClientMsg::Cancel { job_id } => front.exec.cancel(job_id),
            ClientMsg::ListJobs => sink.send(&DaemonMsg::Jobs { jobs: front.exec.list() }),
            ClientMsg::Shutdown => {
                // ack first: ShutdownOk arrives once the mesh is down, which
                // may be as soon as the executor sees the request
                *front.shutdown_ack.lock() = Some(sink.clone());
                front.exec.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfoClient;
    use dfo_net::MAX_FRAME_PAYLOAD;
    use std::io::Write;
    use std::time::Instant;
    use tempfile::TempDir;

    fn free_addr() -> String {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        format!("127.0.0.1:{}", l.local_addr().unwrap().port())
    }

    #[test]
    fn oversized_control_frame_is_refused_and_the_daemon_keeps_serving() {
        let td = TempDir::new().unwrap();
        let mut cfg = EngineConfig::for_test(1);
        Catalog::new(cfg.clone(), td.path().to_path_buf())
            .add("g", |c| c.preprocess(&dfo_graph::gen::uniform(64, 256, 1)))
            .unwrap();
        let ctrl = free_addr();
        cfg.peers = Some(vec![free_addr()]);
        cfg.control_addr = Some(ctrl.clone());
        let base = td.path().to_path_buf();
        let daemon = std::thread::spawn(move || Daemon::run(cfg, 0, base));

        // in place of Hello, a bare header announcing a 1 GiB payload
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut raw = loop {
            match TcpStream::connect(&ctrl) {
                Ok(s) => break s,
                Err(e) => assert!(Instant::now() < deadline, "daemon never came up: {e}"),
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        raw.write_all(&wire::forged_header(MAX_FRAME_PAYLOAD)).unwrap();
        let reply = wire::recv_msg(&mut raw, MAX_FRAME_PAYLOAD).unwrap().expect("an error reply");
        match DaemonMsg::decode(&reply).unwrap() {
            DaemonMsg::Error { message } => {
                assert!(message.contains("limit"), "unexpected message: {message}")
            }
            other => panic!("want a typed Error reply, got {other:?}"),
        }
        assert!(
            wire::recv_msg(&mut raw, MAX_FRAME_PAYLOAD).unwrap().is_none(),
            "the daemon must close the connection"
        );

        // the daemon still serves well-behaved clients
        let client = DfoClient::connect_as(&ctrl, "after").unwrap();
        let report = client.submit(JobSpec::new("g", "degree")).unwrap().wait().unwrap();
        assert_eq!(report.outputs.len(), 1);
        client.shutdown().unwrap();
        daemon.join().unwrap().unwrap();
    }
}
