//! Parent-side process supervision for distributed checkpoint-restart
//! (paper §3.2 layered over process relaunch).
//!
//! A [`Supervisor`] launches one OS process per rank and babysits them:
//! a rank that exits cleanly is done; a rank that dies (non-zero exit,
//! SIGKILL, SIGABRT from the fault-injection hook…) is **relaunched**
//! under the next mesh *epoch*. Inside each rank process,
//! [`crate::Cluster::run_supervised`] is the other half of the protocol: it
//! runs the rank's program as one job on a [`crate::ResidentMesh`] inside
//! [`crate::ResidentMesh::relaunching`], the relaunch loop the service
//! daemon uses too. Survivors observe the failure as `NetClosed`, drop the
//! dead mesh, learn the next epoch, and bootstrap a new one — where they
//! meet the relaunched process, which received the same epoch via
//! `DFO_EPOCH`.
//! Stale-epoch connections are rejected by the handshake, so sockets of
//! the dead incarnation can never rejoin.
//!
//! ## Epoch authority
//!
//! Who decides the next epoch? Without coordination each survivor bumps
//! locally by one per observed failure — correct only while failures never
//! overlap a recovery window (two deaths observed as one collective
//! failure by a late joiner, but as two by a long-lived survivor, skews
//! the counts apart and the mesh never rebuilds). The supervisor closes
//! this hole by *publishing* the epoch: [`Supervisor::with_epoch_file`]
//! names a file the supervisor rewrites atomically (temp + rename) each
//! time it bumps, bumping **once per reap pass** no matter how many ranks
//! died in it; relaunches get the published epoch via `DFO_EPOCH`, and
//! survivors (told the file via `DFO_EPOCH_FILE`) wait for the published
//! value to pass their failed attempt's instead of guessing. Every party
//! therefore converges on the same number under arbitrarily overlapping
//! failures; a wrong guess is still safe (the handshake rejects it and
//! the rank retries), it just costs another recovery attempt.
//!
//! Ranks that already *finished* are respawned alongside a relaunch: the
//! rebuilt mesh needs all ranks, and re-running a completed rank program
//! is idempotent — it recovers its final checkpoint, finds nothing left
//! to do, and rewrites identical output. Without this, a survivor that
//! finishes and exits while a peer is still relaunching would leave the
//! mesh forever one rank short.
//!
//! ## Failure model
//!
//! Fail-stop process crashes, including several per recovery window (see
//! above). Byzantine behaviour and network partitions are out of scope
//! (as in the paper, which targets small trusted clusters). Child deaths
//! are noticed via a `SIGCHLD` self-pipe on Linux (a bounded safety
//! timeout guards against missed signals) and by sleep-polling elsewhere.

use dfo_types::{DfoError, Rank, Result};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus};
use std::time::{Duration, Instant};

/// What a rank process must be launched (or relaunched) as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankSpec {
    /// The rank to run.
    pub rank: Rank,
    /// Mesh epoch the process must bootstrap at (`DFO_EPOCH`).
    pub epoch: u64,
    /// 0 for the initial launch, incremented per relaunch of this rank.
    pub attempt: u32,
}

impl RankSpec {
    /// Applies the conventional environment to a [`Command`]: `DFO_RANK`,
    /// `DFO_PEERS`, `DFO_EPOCH`, `DFO_MAX_RESTARTS` and — when the
    /// supervisor publishes its epoch — `DFO_EPOCH_FILE` (all consumed by
    /// [`dfo_types::EngineConfig::apply_env_overrides`]). Relaunches also
    /// scrub any inherited `DFO_CRASH_AT` so a deterministic kill test
    /// crashes once, not on every incarnation (chaos harnesses that *want*
    /// repeated kills re-set the variable after this call and qualify
    /// their crash points with `@<epoch>`).
    pub fn configure(
        &self,
        cmd: &mut Command,
        peers: &[String],
        max_restarts: u32,
        epoch_file: Option<&str>,
    ) {
        cmd.env("DFO_RANK", self.rank.to_string())
            .env("DFO_PEERS", peers.join(","))
            .env("DFO_EPOCH", self.epoch.to_string())
            .env("DFO_MAX_RESTARTS", max_restarts.to_string());
        match epoch_file {
            Some(path) => cmd.env("DFO_EPOCH_FILE", path),
            None => cmd.env_remove("DFO_EPOCH_FILE"),
        };
        if self.attempt > 0 {
            cmd.env_remove("DFO_CRASH_AT");
        }
    }
}

/// What a completed supervision run looked like.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SuperviseReport {
    /// Total relaunches of *crashed* ranks across the run.
    pub restarts: u32,
    /// Every crash relaunch performed, as `(rank, epoch relaunched at)`.
    pub relaunches: Vec<(Rank, u64)>,
    /// Cleanly-finished ranks respawned so a recovering mesh could
    /// rebuild, as `(rank, epoch respawned at)`. These do not consume
    /// restart budget — the rank did not fail.
    pub respawns: Vec<(Rank, u64)>,
}

/// Relaunching process supervisor for a multi-process cluster; see the
/// module docs for the protocol it shares with
/// [`crate::Cluster::run_supervised`].
pub struct Supervisor {
    peers: Vec<String>,
    max_restarts: u32,
    /// Upper bound on one child-event wait; SIGCHLD usually wakes the
    /// supervisor far sooner on Linux.
    poll: Duration,
    deadline: Duration,
    epoch_file: Option<PathBuf>,
}

impl Supervisor {
    /// A supervisor for the mesh `peers` (one `host:port` per rank),
    /// allowing `max_restarts` relaunches in total before giving up.
    pub fn new(peers: Vec<String>, max_restarts: u32) -> Self {
        Self {
            peers,
            max_restarts,
            poll: Duration::from_millis(500),
            deadline: Duration::from_secs(300),
            epoch_file: None,
        }
    }

    /// Caps the whole supervised job's wall-clock time (default 300 s); on
    /// expiry every child is killed and the run fails.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Publishes the mesh epoch to `path` (atomically rewritten decimal
    /// text), making this supervisor the epoch authority — required for
    /// recovery to converge when failures overlap. Pass the same path to
    /// the ranks via [`RankSpec::configure`] (it becomes `DFO_EPOCH_FILE`).
    pub fn with_epoch_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.epoch_file = Some(path.into());
        self
    }

    pub fn peers(&self) -> &[String] {
        &self.peers
    }

    pub fn max_restarts(&self) -> u32 {
        self.max_restarts
    }

    /// The published-epoch path as a string, in the shape
    /// [`RankSpec::configure`] wants.
    pub fn epoch_file(&self) -> Option<&str> {
        self.epoch_file.as_deref().and_then(|p| p.to_str())
    }

    /// Launches every rank via `spawn` and supervises until all exit
    /// cleanly, relaunching crashed ranks under incremented epochs.
    /// `spawn` builds and starts the process for a [`RankSpec`] — typically
    /// `Command::new(exe)` plus [`RankSpec::configure`] plus whatever
    /// job-specific environment the workers need.
    pub fn run(
        &self,
        mut spawn: impl FnMut(&RankSpec) -> std::io::Result<Child>,
    ) -> Result<SuperviseReport> {
        let p = self.peers.len();
        let mut epoch = 0u64;
        self.publish_epoch(epoch)?;
        let mut report = SuperviseReport::default();
        let mut attempts = vec![0u32; p];
        // a rank is in exactly one state: Some(child) running, or None —
        // finished cleanly (done[rank]) until a recovery respawns it
        let mut children: Vec<Option<Child>> = Vec::with_capacity(p);
        let mut done = vec![false; p];
        for rank in 0..p {
            let spec = RankSpec { rank, epoch, attempt: 0 };
            match spawn(&spec) {
                Ok(c) => children.push(Some(c)),
                Err(e) => {
                    Self::kill_all(&mut children);
                    return Err(DfoError::io(format!("launching rank {rank}"), e));
                }
            }
        }
        let deadline = Instant::now() + self.deadline;
        loop {
            // one reap pass: sweep every child, collecting all deaths
            // before deciding anything, so simultaneous deaths share one
            // epoch bump
            let mut dead: Vec<(Rank, ExitStatus)> = Vec::new();
            let mut running = false;
            for rank in 0..p {
                let Some(child) = children[rank].as_mut() else { continue };
                let status = match child.try_wait() {
                    Ok(s) => s,
                    Err(e) => {
                        Self::kill_all(&mut children);
                        return Err(DfoError::io(format!("waiting on rank {rank}"), e));
                    }
                };
                match status {
                    None => running = true,
                    Some(st) if st.success() => {
                        children[rank] = None;
                        done[rank] = true;
                    }
                    Some(st) => {
                        children[rank] = None;
                        dead.push((rank, st));
                    }
                }
            }
            if !dead.is_empty() {
                if report.restarts + dead.len() as u32 > self.max_restarts {
                    let names: Vec<String> =
                        dead.iter().map(|(r, st)| format!("rank {r} ({st})")).collect();
                    Self::kill_all(&mut children);
                    return Err(DfoError::RestartsExhausted {
                        attempts: report.restarts,
                        last: Box::new(DfoError::NetClosed(format!(
                            "{} died with no restart budget left",
                            names.join(", ")
                        ))),
                    });
                }
                // one bump per pass, however many ranks died in it; the
                // published file is what survivors re-bootstrap against
                epoch += 1;
                self.publish_epoch(epoch)?;
                for (rank, st) in &dead {
                    report.restarts += 1;
                    attempts[*rank] += 1;
                    report.relaunches.push((*rank, epoch));
                    eprintln!(
                        "[dfo] supervisor: rank {rank} died ({st}); relaunching at epoch \
                         {epoch} (restart {}/{})",
                        report.restarts, self.max_restarts
                    );
                    let spec = RankSpec { rank: *rank, epoch, attempt: attempts[*rank] };
                    match spawn(&spec) {
                        Ok(c) => children[*rank] = Some(c),
                        Err(e) => {
                            Self::kill_all(&mut children);
                            return Err(DfoError::io(format!("relaunching rank {rank}"), e));
                        }
                    }
                }
                // liveness: the rebuilt mesh needs every rank, including
                // those that already finished and exited — re-running a
                // completed rank is idempotent (module docs)
                for rank in 0..p {
                    if !done[rank] {
                        continue;
                    }
                    done[rank] = false;
                    attempts[rank] += 1;
                    report.respawns.push((rank, epoch));
                    eprintln!(
                        "[dfo] supervisor: respawning finished rank {rank} at epoch {epoch} \
                         so the mesh can rebuild"
                    );
                    let spec = RankSpec { rank, epoch, attempt: attempts[rank] };
                    match spawn(&spec) {
                        Ok(c) => children[rank] = Some(c),
                        Err(e) => {
                            Self::kill_all(&mut children);
                            return Err(DfoError::io(format!("respawning rank {rank}"), e));
                        }
                    }
                }
                running = true;
            }
            if !running {
                return Ok(report);
            }
            if Instant::now() >= deadline {
                Self::kill_all(&mut children);
                return Err(DfoError::NetClosed(format!(
                    "supervision deadline ({:?}) passed with ranks still running",
                    self.deadline
                )));
            }
            reap_signal::wait_for_child_event(self.poll);
        }
    }

    /// Atomically rewrites the published-epoch file (when configured):
    /// decimal text via temp + rename, so ranks never read a torn value.
    fn publish_epoch(&self, epoch: u64) -> Result<()> {
        let Some(path) = &self.epoch_file else { return Ok(()) };
        let tmp = path.with_extension("epoch-tmp");
        std::fs::write(&tmp, format!("{epoch}\n"))
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| DfoError::io(format!("publishing epoch {epoch} to {path:?}"), e))
    }

    fn kill_all(children: &mut [Option<Child>]) {
        for c in children.iter_mut().filter_map(Option::take) {
            let mut c = c;
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// SIGCHLD-driven child-event waiting (Linux): a process-global self-pipe
/// whose write end is fed one byte per `SIGCHLD` by an async-signal-safe
/// handler, so the supervisor sleeps in `poll(2)` and wakes the moment a
/// child changes state instead of burning a fixed-interval `try_wait`
/// loop. The raw syscall declarations keep the crate dependency-free.
///
/// The pipe is shared by every supervisor in the process (signal
/// dispositions are process-global), so a concurrent instance may drain a
/// byte meant for another; the caller's bounded timeout makes that a
/// latency blip, never a hang — and callers re-`try_wait` every child on
/// every wakeup regardless.
#[cfg(target_os = "linux")]
mod reap_signal {
    use std::sync::atomic::{AtomicI32, Ordering};
    use std::sync::Once;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn pipe2(fds: *mut i32, flags: i32) -> i32;
        fn signal(signum: i32, handler: usize) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    }

    const SIGCHLD: i32 = 17;
    const O_NONBLOCK: i32 = 0o4000;
    const O_CLOEXEC: i32 = 0o2000000;
    const POLLIN: i16 = 1;
    const SIG_ERR: usize = usize::MAX;

    static WRITE_FD: AtomicI32 = AtomicI32::new(-1);
    static READ_FD: AtomicI32 = AtomicI32::new(-1);
    static INIT: Once = Once::new();

    extern "C" fn on_sigchld(_sig: i32) {
        // write(2) is async-signal-safe; the pipe is non-blocking so a
        // full pipe (wakeup already pending many times over) is dropped
        let fd = WRITE_FD.load(Ordering::Relaxed);
        if fd >= 0 {
            unsafe { write(fd, b"c".as_ptr(), 1) };
        }
    }

    fn install() -> bool {
        INIT.call_once(|| {
            let mut fds = [-1i32; 2];
            if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } != 0 {
                return;
            }
            WRITE_FD.store(fds[1], Ordering::Relaxed);
            if unsafe { signal(SIGCHLD, on_sigchld as *const () as usize) } == SIG_ERR {
                WRITE_FD.store(-1, Ordering::Relaxed);
                return;
            }
            READ_FD.store(fds[0], Ordering::Relaxed);
        });
        READ_FD.load(Ordering::Relaxed) >= 0
    }

    /// Blocks until a child *may* need reaping, or `timeout` elapses.
    /// Spurious wakeups are fine; the pipe is drained before returning so
    /// a signal arriving after the drain leaves a byte for the next call
    /// (no lost-wakeup window as long as callers `try_wait` after this
    /// returns, which they do).
    pub fn wait_for_child_event(timeout: Duration) {
        if !install() {
            std::thread::sleep(timeout.min(Duration::from_millis(25)));
            return;
        }
        let fd = READ_FD.load(Ordering::Relaxed);
        let mut pfd = PollFd { fd, events: POLLIN, revents: 0 };
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        let n = unsafe { poll(&mut pfd, 1, ms) };
        if n > 0 {
            let mut buf = [0u8; 64];
            while unsafe { read(fd, buf.as_mut_ptr(), buf.len()) } > 0 {}
        }
    }
}

/// Portable fallback: fixed-interval sleep between reap passes.
#[cfg(not(target_os = "linux"))]
mod reap_signal {
    use std::time::Duration;

    pub fn wait_for_child_event(timeout: Duration) {
        std::thread::sleep(timeout.min(Duration::from_millis(25)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(script);
        cmd
    }

    #[test]
    fn all_ranks_exit_clean_no_restarts() {
        let sup = Supervisor::new(vec!["a:1".into(), "b:2".into()], 3)
            .with_deadline(Duration::from_secs(30));
        let report = sup.run(|_spec| sh("exit 0").spawn()).unwrap();
        assert_eq!(report, SuperviseReport::default());
    }

    #[test]
    fn crashed_rank_is_relaunched_under_next_epoch() {
        let sup = Supervisor::new(vec!["a:1".into(), "b:2".into()], 3)
            .with_deadline(Duration::from_secs(30));
        // rank 1's first attempt dies; its relaunch succeeds. Rank 0 runs
        // long enough to still be alive at the relaunch, so no respawn.
        let report = sup
            .run(|spec| {
                if spec.rank == 1 && spec.attempt == 0 {
                    sh("exit 7").spawn()
                } else if spec.rank == 0 {
                    sh("sleep 0.4; exit 0").spawn()
                } else {
                    sh("exit 0").spawn()
                }
            })
            .unwrap();
        assert_eq!(report.restarts, 1);
        assert_eq!(report.relaunches, vec![(1, 1)]);
        assert_eq!(report.respawns, vec![]);
    }

    #[test]
    fn restart_budget_exhaustion_is_fatal() {
        let sup = Supervisor::new(vec!["a:1".into()], 2).with_deadline(Duration::from_secs(30));
        let err = sup.run(|_spec| sh("exit 3").spawn()).unwrap_err();
        match err {
            DfoError::RestartsExhausted { attempts, .. } => assert_eq!(attempts, 2),
            other => panic!("want RestartsExhausted, got {other:?}"),
        }
    }

    #[test]
    fn finished_rank_is_respawned_when_a_peer_dies() {
        // rank 0 finishes immediately; rank 1 dies ~200 ms later. The
        // recovery must bring rank 0 back at the same published epoch or
        // a real mesh could never rebuild.
        let sup = Supervisor::new(vec!["a:1".into(), "b:2".into()], 3)
            .with_deadline(Duration::from_secs(30));
        let report = sup
            .run(|spec| {
                if spec.rank == 1 && spec.attempt == 0 {
                    sh("sleep 0.2; exit 7").spawn()
                } else {
                    sh("exit 0").spawn()
                }
            })
            .unwrap();
        assert_eq!(report.restarts, 1);
        assert_eq!(report.relaunches, vec![(1, 1)]);
        assert_eq!(report.respawns, vec![(0, 1)]);
    }

    #[test]
    fn epoch_file_tracks_the_published_epoch() {
        let dir = std::env::temp_dir().join(format!("dfo-sup-epoch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("EPOCH");
        let sup = Supervisor::new(vec!["a:1".into()], 3)
            .with_deadline(Duration::from_secs(30))
            .with_epoch_file(&path);
        // launch publishes 0 before any child runs
        let mut seen0 = None;
        let report = sup
            .run(|spec| {
                if spec.attempt == 0 {
                    seen0 = std::fs::read_to_string(&path).ok();
                    sh("exit 7").spawn()
                } else {
                    sh("exit 0").spawn()
                }
            })
            .unwrap();
        assert_eq!(seen0.as_deref().map(str::trim), Some("0"));
        assert_eq!(report.restarts, 1);
        let after = std::fs::read_to_string(&path).unwrap();
        assert_eq!(after.trim(), "1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rank_spec_configures_the_conventional_env() {
        let spec = RankSpec { rank: 1, epoch: 4, attempt: 2 };
        let mut cmd = Command::new("true");
        spec.configure(&mut cmd, &["h:1".into(), "h:2".into()], 9, Some("/tmp/EPOCH"));
        let envs: Vec<(String, Option<String>)> = cmd
            .get_envs()
            .map(|(k, v)| {
                (k.to_string_lossy().into_owned(), v.map(|v| v.to_string_lossy().into_owned()))
            })
            .collect();
        assert!(envs.contains(&("DFO_RANK".into(), Some("1".into()))));
        assert!(envs.contains(&("DFO_PEERS".into(), Some("h:1,h:2".into()))));
        assert!(envs.contains(&("DFO_EPOCH".into(), Some("4".into()))));
        assert!(envs.contains(&("DFO_MAX_RESTARTS".into(), Some("9".into()))));
        assert!(envs.contains(&("DFO_EPOCH_FILE".into(), Some("/tmp/EPOCH".into()))));
        // relaunches scrub the crash hook
        assert!(envs.contains(&("DFO_CRASH_AT".into(), None)));
    }
}
