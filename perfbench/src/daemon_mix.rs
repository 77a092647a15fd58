//! The `daemon_mix` workload: two `Daemon` rank processes (this binary,
//! re-executed with `daemon`) on loopback TCP serve one preloaded graph
//! with the chunk cache on, and two closed-loop `DfoClient`s, one thread
//! each with its own `client_id`, submit a seeded mix of short `bfs`,
//! `pagerank` and `wcc` jobs. Every report is assembled and checked against
//! the oracles.
//!
//! The daemon children are tracked in one process-wide list: a clean run
//! stops them with `DfoClient::shutdown` and reaps them; any failure (a
//! panic in the load generator included) kills and reaps them, so repeated
//! runs leave no orphan processes or bound ports behind.

use crate::batch::{check_ranks, counter_layers, phase_layers, preprocess_reps};
use crate::config::{engine_config, Rng, Size, DAEMON_CACHE_BYTES, DISK_BW, NET_BW, RANKS};
use crate::counters::{scrape, Counters};
use crate::host::{cpu_jiffies, steal_between};
use crate::report::{
    digest, least_stolen, mean, median, peak_rss_mb, quantile, ratio, results_file, InputRecord,
    Report,
};
use crate::spans::Spans;
use crate::RunOpts;
use dfo_graph::gen::{rmat, GenConfig};
use dfo_service::{Daemon, DfoClient, JobReport, JobSpec};
use dfo_types::PhaseStats;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The graph's name in the daemons' catalog.
const GRAPH: &str = "rmat";
/// Daemon bring-ups behind `setup_s` (the median is reported).
const BRINGUP_REPS: usize = 5;
const CLIENTS: usize = 2;
/// Throughput is counted per slice of a window, so that seconds caught in a
/// steal burst are left out as slow jobs are.
const SLICE: Duration = Duration::from_secs(1);
/// BFS roots per run, drawn from the seed among vertices with edges.
const ROOTS: usize = 8;
/// PageRank iterations per job, as in `examples/remote_jobs.rs`.
const PAGERANK_ITERS: u64 = 5;
/// One shuffled cycle of the job mix: one job of each kind. No measured
/// traffic stands behind any other proportion, so none is assumed.
const CYCLE: [Kind; 3] = [Kind::Bfs, Kind::PageRank, Kind::Wcc];

static CHILDREN: Mutex<Vec<Child>> = Mutex::new(Vec::new());

fn children() -> std::sync::MutexGuard<'static, Vec<Child>> {
    // a panic while holding the list leaves it valid: kill what is there
    CHILDREN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Kills and reaps every daemon child still running.
pub fn kill_all_children() {
    for mut child in children().drain(..) {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Entry point of a re-executed daemon rank.
pub fn daemon_child(args: &[String]) -> Result<(), String> {
    let pairs = crate::parse_pairs(args, &["rank", "peers", "base", "control", "metrics"])?;
    let get = |k: &str| pairs.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone());
    let rank: usize = get("rank").ok_or("missing --rank")?.parse().map_err(|e| format!("{e}"))?;
    let base = get("base").ok_or("missing --base")?;
    let mut cfg = engine_config(DAEMON_CACHE_BYTES);
    cfg.peers = Some(get("peers").ok_or("missing --peers")?.split(',').map(String::from).collect());
    cfg.control_addr = get("control");
    cfg.metrics_addr = get("metrics");
    Daemon::run(cfg, rank, base).map_err(|e| e.to_string())
}

fn free_addr() -> Result<String, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("probing a port: {e}"))?;
    Ok(format!("127.0.0.1:{}", l.local_addr().map_err(|e| e.to_string())?.port()))
}

/// A running daemon mesh, its children registered in [`CHILDREN`].
struct Fleet {
    pids: Vec<u32>,
    control: String,
    metrics: String,
}

impl Fleet {
    /// Starts the rank processes and returns once a client has completed
    /// the handshake (the client is returned with the fleet).
    fn start(base: &Path) -> Result<(Fleet, DfoClient), String> {
        let peers = (0..RANKS).map(|_| free_addr()).collect::<Result<Vec<_>, _>>()?.join(",");
        let (control, metrics) = (free_addr()?, free_addr()?);
        let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
        let mut pids = Vec::new();
        for rank in 0..RANKS {
            let mut cmd = Command::new(&exe);
            cmd.arg("daemon").args(["--rank", &rank.to_string(), "--peers", &peers]);
            cmd.arg("--base").arg(base);
            if rank == 0 {
                cmd.args(["--control", &control, "--metrics", &metrics]);
            }
            let child = cmd
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawning daemon rank {rank}: {e}"))?;
            pids.push(child.id());
            children().push(child);
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match DfoClient::connect_as(&control, "setup") {
                Ok(client) => return Ok((Fleet { pids, control, metrics }, client)),
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("daemon never accepted a client: {e}"))
                }
                Err(_) => {
                    for c in children().iter_mut() {
                        if let Ok(Some(st)) = c.try_wait() {
                            return Err(format!("daemon exited during bring-up: {st}"));
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    /// Summed peak RSS of the rank processes, MiB.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        self.pids.iter().map(|p| peak_rss_mb(&p.to_string())).sum()
    }

    /// Clean stop: the client asks the mesh to shut down, then every rank
    /// must exit 0.
    fn shutdown(self, client: DfoClient) -> Result<(), String> {
        client.shutdown().map_err(|e| format!("DfoClient::shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut kids = children();
        for child in kids.iter_mut() {
            loop {
                match child.try_wait().map_err(|e| e.to_string())? {
                    Some(st) if st.success() => break,
                    Some(st) => return Err(format!("daemon exited with {st}")),
                    None if Instant::now() >= deadline => {
                        return Err("daemon did not exit after shutdown".into())
                    }
                    None => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        }
        kids.clear();
        Ok(())
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Bfs,
    PageRank,
    Wcc,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Bfs => "bfs",
            Kind::PageRank => "pagerank",
            Kind::Wcc => "wcc",
        }
    }
}

/// Expected results, computed before anything is timed.
struct Oracles {
    roots: Vec<u64>,
    levels: Vec<Vec<u32>>,
    ranks: Vec<f64>,
    labels: Vec<u64>,
}

/// One job of the mix: its kind and, for BFS, the root's index.
#[derive(Clone, Copy)]
struct Job {
    kind: Kind,
    root: usize,
}

impl Job {
    fn spec(self, o: &Oracles) -> JobSpec {
        let spec = JobSpec::new(GRAPH, self.kind.name());
        match self.kind {
            Kind::Bfs => spec.with_param("root", o.roots[self.root]),
            Kind::PageRank => spec.with_param("iters", PAGERANK_ITERS),
            Kind::Wcc => spec,
        }
    }

    /// Checks the assembled report; returns the job's rounds if it has any.
    fn check(self, o: &Oracles, r: &JobReport) -> Result<Option<u64>, String> {
        let fail = |what: &str| Err(format!("{} job {}: {what}", self.kind.name(), r.id));
        if r.retries > 0 {
            return fail(&format!("{} retries", r.retries));
        }
        let asm = |e: dfo_types::DfoError| format!("assembling report {}: {e}", r.id);
        match self.kind {
            Kind::Bfs => {
                let got = r.assemble::<u32>().map_err(asm)?;
                if got != o.levels[self.root] {
                    return fail("levels differ from bfs_oracle");
                }
                let deepest = got.iter().filter(|&&d| d != u32::MAX).max().copied();
                Ok(Some(deepest.map_or(1, |d| d as u64 + 1)))
            }
            Kind::PageRank => {
                check_ranks(&o.ranks, &r.assemble::<f64>().map_err(asm)?)?;
                Ok(r.outputs.first().and_then(|out| out.iterations))
            }
            Kind::Wcc => {
                if r.assemble::<u64>().map_err(asm)? != o.labels {
                    return fail("labels differ from wcc_oracle");
                }
                Ok(None)
            }
        }
    }
}

/// One completed job as the client saw it.
struct JobRec {
    job: Job,
    latency: f64,
    /// When the client had the report.
    done: Instant,
    elapsed: f64,
    /// Host CPU steal share from submit to report.
    steal: f64,
    retries: u32,
    rounds: Option<u64>,
    stats: Vec<PhaseStats>,
    totals: PhaseStats,
}

/// A job as checked: its record, or why it failed.
type Outcome = Result<JobRec, String>;

/// Submits one job and waits for it, recording client spans when tracing.
fn one_job(client: &DfoClient, job: Job, o: &Oracles, spans: &Spans) -> Outcome {
    let trace = spans.new_id();
    let root = spans.new_id();
    let cpu0 = cpu_jiffies();
    let t0 = Instant::now();
    let handle = client.submit(job.spec(o));
    let t1 = Instant::now();
    spans.record(trace, Some(root), "DfoClient::submit", t0, t1);
    let report = handle.and_then(|h| h.wait());
    let t2 = Instant::now();
    let steal = steal_between(cpu0, cpu_jiffies());
    spans.record(trace, Some(root), "RemoteJobHandle::wait", t1, t2);
    let out = match report {
        Err(e) => Err(format!("{} job failed: {e}", job.kind.name())),
        Ok(r) => job.check(o, &r).map(|rounds| JobRec {
            job,
            latency: (t2 - t0).as_secs_f64(),
            done: t2,
            elapsed: r.elapsed.as_secs_f64(),
            steal,
            retries: r.retries,
            rounds,
            stats: r.rank_stats.clone(),
            totals: r.totals.clone(),
        }),
    };
    spans.record(trace, Some(root), "oracle_check", t2, Instant::now());
    spans.record_as(root, trace, None, "job", t0, Instant::now());
    out
}

/// What one closed-loop window produced.
struct Window {
    outcomes: Vec<Outcome>,
    /// Consecutive [`SLICE`]s of the window: start, end, host CPU steal
    /// share.
    slices: Vec<(Instant, Instant, f64)>,
    /// Rank-0 scrape counters' change over the window. No job is in flight
    /// at either end, so this is exactly what the window's jobs moved.
    delta: Counters,
}

/// A closed-loop window: each client submits its next job as soon as the
/// previous one is reported, until `seconds` have passed. Meanwhile this
/// thread cuts the window into [`SLICE`]s and records each one's steal.
fn window(
    fleet: &Fleet,
    o: &Oracles,
    seed: u64,
    seconds: f64,
    spans: &Spans,
) -> Result<Window, String> {
    let before = scrape(&fleet.metrics)?;
    let clients = (0..CLIENTS)
        .map(|c| {
            DfoClient::connect_as(&fleet.control, &format!("client-{c}"))
                .map_err(|e| format!("client {c} connect: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let mut marks = vec![(start, cpu_jiffies())];
    let per_client: Vec<Vec<Outcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(c as u64));
                    let mut queue: Vec<Job> = Vec::new();
                    let mut out = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        if queue.is_empty() {
                            queue = CYCLE
                                .iter()
                                .map(|&kind| Job { kind, root: rng.below(ROOTS as u64) as usize })
                                .collect();
                            rng.shuffle(&mut queue);
                        }
                        let job = queue.pop().expect("refilled above");
                        let rec = one_job(&client, job, o, spans);
                        // the run is already wrong; a dead mesh would
                        // otherwise fail submissions in a tight loop
                        let failed = rec.is_err();
                        out.push(rec);
                        if failed {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        // whole slices only: the last partial one holds the clients' drain
        while (marks.len() as f64) * SLICE.as_secs_f64() <= seconds
            && !handles.iter().all(|h| h.is_finished())
        {
            let due = start + SLICE * marks.len() as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            marks.push((Instant::now(), cpu_jiffies()));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| vec![Err("a client thread panicked".into())]))
            .collect()
    });
    if marks.len() < 2 {
        // a window shorter than one slice is one slice
        marks.push((Instant::now(), cpu_jiffies()));
    }
    let slices =
        marks.windows(2).map(|w| (w[0].0, w[1].0, steal_between(w[0].1, w[1].1))).collect();
    let delta = scrape(&fleet.metrics)?.delta(&before);
    Ok(Window { outcomes: per_client.into_iter().flatten().collect(), slices, delta })
}

/// Completed jobs per second over the window's [`least_stolen`] slices.
fn throughput(recs: &[JobRec], slices: &[(Instant, Instant, f64)]) -> f64 {
    let kept = least_stolen(slices, |s| s.2);
    let jobs = recs.iter().filter(|r| kept.iter().any(|s| s.0 <= r.done && r.done < s.1)).count();
    ratio(jobs as f64, kept.iter().map(|s| (s.1 - s.0).as_secs_f64()).sum())
}

fn oracles(g: &dfo_graph::EdgeList<()>, seed: u64) -> Oracles {
    let mut degree = vec![0u32; g.n_vertices as usize];
    for e in &g.edges {
        degree[e.src as usize] += 1;
    }
    let mut rng = Rng::new(seed);
    let mut roots = Vec::new();
    while roots.len() < ROOTS {
        let v = rng.below(g.n_vertices);
        if degree[v as usize] > 0 {
            roots.push(v);
        }
    }
    Oracles {
        levels: roots.iter().map(|&r| dfo_algos::bfs::bfs_oracle(g, r)).collect(),
        roots,
        ranks: dfo_algos::pagerank::pagerank_oracle(g, PAGERANK_ITERS as usize),
        labels: dfo_algos::wcc::wcc_oracle(g),
    }
}

pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let spans = Spans::new(opts.trace);
    let (scale, ef) = if opts.size == Size::Tiny { (9, 4) } else { (14, 8) };
    // WCC needs a symmetric graph; BFS and PageRank run on the same one
    let graph = dfo_algos::wcc::symmetrize(&rmat(GenConfig::new(scale, ef, opts.seed)));
    let o = oracles(&graph, opts.seed);
    let mut report = Report::new(
        InputRecord {
            workload: opts.workload.name(),
            why: opts.workload.why(),
            seed: opts.seed,
            vertices: graph.n_vertices,
            edges: graph.n_edges(),
            ..InputRecord::default()
        },
        opts.trace,
    );

    // set-up 1: preprocess, the last copy into the daemons' catalog
    let base = opts.work.join("daemon");
    let (prep_times, prep_write) = preprocess_reps(
        &engine_config(DAEMON_CACHE_BYTES),
        &graph,
        &opts.work,
        &base.join("graphs").join(GRAPH),
        &spans,
    )?;
    drop(graph);

    // set-up 2: daemon mesh bring-up until the first client handshake
    let mut bringups = Vec::new();
    let mut live = None;
    for i in 0..BRINGUP_REPS {
        let t0 = Instant::now();
        let (fleet, client) = Fleet::start(&base)?;
        spans.record(spans.new_id(), None, "daemon_bringup", t0, Instant::now());
        bringups.push(t0.elapsed().as_secs_f64());
        if i + 1 < BRINGUP_REPS {
            fleet.shutdown(client)?;
        } else {
            live = Some((fleet, client));
        }
    }
    let (fleet, client) = live.expect("BRINGUP_REPS > 0");

    // warm-up: one job of each kind fills the chunk cache and the
    // scheduler's learned footprints; checked, not timed
    for kind in [Kind::Bfs, Kind::PageRank, Kind::Wcc] {
        let rec = one_job(&client, Job { kind, root: 0 }, &o, &Spans::new(false));
        report.check(rec.map(|_| ()));
    }
    // solo jobs: each kind (BFS from every root) once more, one at a time,
    // so that a job's PhaseStats bytes are its own and not also those of an
    // overlapping job; checked, not timed
    let mut solo = Vec::new();
    for job in (0..ROOTS)
        .map(|root| Job { kind: Kind::Bfs, root })
        .chain([Kind::PageRank, Kind::Wcc].map(|kind| Job { kind, root: 0 }))
    {
        match one_job(&client, job, &o, &Spans::new(false)) {
            Ok(rec) => {
                report.check(Ok(()));
                solo.push(rec);
            }
            Err(e) => report.check(Err(e)),
        }
    }

    let plain_secs = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let plain = window(&fleet, &o, opts.seed, plain_secs, &Spans::new(false))?;
    let traced = if opts.trace {
        Some(window(&fleet, &o, opts.seed ^ 1, opts.seconds / 2.0, &spans)?)
    } else {
        None
    };
    let rss = fleet.peak_rss_mb()?;
    fleet.shutdown(client)?;

    let plain_slices = plain.slices;
    let plain = settle(plain.outcomes, &mut report);
    let mut mix: BTreeMap<&str, u64> = BTreeMap::new();
    for r in &plain {
        *mix.entry(r.job.kind.name()).or_default() += 1;
    }
    report.input.job_mix = mix.into_iter().map(|(k, n)| (k.to_string(), n)).collect();
    report.input.samples = plain.len() as u64;
    report.input.latencies = plain.iter().map(|r| r.latency).collect();
    let rounds: Vec<f64> = plain.iter().filter_map(|r| r.rounds.map(|x| x as f64)).collect();
    report.input.rounds = mean(&rounds);
    report.input.exact_digest = exact_per_job(&solo, &plain, &mut report);
    if plain.is_empty() {
        return Err("no job completed in the window".into());
    }

    let run_s = kind_quantile(&plain, |r| r.elapsed, 0.5);
    let setup = median(&prep_times) + median(&bringups);
    if !opts.trace {
        report.set("run_s", run_s);
        report.set("setup_s", setup);
        let solo_bytes = |f: fn(&PhaseStats) -> u64| kind_mean(&solo, |r| f(&r.totals) as f64);
        report.set(
            "disk_read_bytes",
            solo_bytes(|s| {
                s.generate_disk_read + s.pass_disk_read + s.dispatch_disk_read + s.process_disk_read
            }),
        );
        report.set(
            "disk_write_bytes",
            solo_bytes(|s| s.generate_disk_write + s.dispatch_disk_write + s.process_disk_write),
        );
        report.set("net_sent_bytes", solo_bytes(|s| s.pass_net_sent));
        report.set("peak_rss_mb", rss);
        report.set("job_p50_s", kind_quantile(&plain, |r| r.latency, 0.5));
        report.set("job_p90_s", kind_quantile(&plain, |r| r.latency, 0.9));
        report.set("jobs_per_s", throughput(&plain, &plain_slices));
        return Ok(report);
    }

    let traced = traced.expect("traced window runs when tracing");
    let delta = traced.delta;
    let traced = settle(traced.outcomes, &mut report);
    if traced.is_empty() {
        return Err("no job completed in the traced window".into());
    }
    let n = traced.len() as f64;
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in &traced {
        for (name, v) in phase_layers(&r.stats) {
            layers.entry(name).or_default().push(v);
        }
        let net_modeled =
            r.stats.iter().map(|s| s.pass_net_sent as f64).fold(0.0, f64::max) / NET_BW as f64;
        let disk_modeled =
            r.stats.iter().map(|s| s.total_disk() as f64).fold(0.0, f64::max) / DISK_BW as f64;
        let eff = ratio(net_modeled.max(disk_modeled), r.elapsed);
        layers.entry("core.model_efficiency").or_default().push(eff);
        layers.entry("net.modeled_s").or_default().push(net_modeled);
        layers.entry("storage.modeled_s").or_default().push(disk_modeled);
    }
    for (name, values) in &layers {
        report.set(name, mean(values));
    }
    // the rest from the rank-0 scrape over the traced window, per job
    for (name, v) in counter_layers(&delta) {
        if !layers.contains_key(name) {
            report.set(name, v / n);
        }
    }
    let traced_run_s = kind_quantile(&traced, |r| r.elapsed, 0.5);
    let wait = |r: &JobRec| (r.latency - r.elapsed).max(0.0);
    let traced_rounds: Vec<f64> =
        traced.iter().filter_map(|r| r.rounds.map(|x| x as f64)).collect();
    report.set("part.preprocess_s", median(&prep_times));
    report.set("part.prep_write_bytes", prep_write as f64);
    // daemon jobs record no engine spans
    report.set("core.vertices_s", 0.0);
    report.set("core.edges_self_s", 0.0);
    report.set("algos.rounds", mean(&traced_rounds));
    report.set("service.exec_p50_s", traced_run_s);
    report.set("service.wait_p50_s", kind_quantile(&traced, wait, 0.5));
    report.set("service.wait_p90_s", kind_quantile(&traced, wait, 0.9));
    report.set("service.retries", traced.iter().map(|r| r.retries as f64).sum());
    report.set("obs.trace_overhead", traced_run_s / run_s);
    spans.write_jsonl(&results_file(opts, "spans.jsonl")?)?;
    Ok(report)
}

/// `stat` of each job kind's records, averaged over the kinds that have
/// any. Job kinds take different times, so a quantile over all jobs can sit
/// in the gap between two kinds and jump across it when one more job of
/// either kind completes; the per-kind average cannot.
fn per_kind(recs: &[JobRec], stat: impl Fn(&[&JobRec]) -> f64) -> f64 {
    let per_kind: Vec<f64> = CYCLE
        .iter()
        .map(|&kind| recs.iter().filter(|r| r.job.kind == kind).collect::<Vec<_>>())
        .filter(|of_kind| !of_kind.is_empty())
        .map(|of_kind| stat(&of_kind))
        .collect();
    mean(&per_kind)
}

/// The per-kind `q`-quantile of `f` over each kind's [`least_stolen`] jobs.
fn kind_quantile(recs: &[JobRec], f: fn(&JobRec) -> f64, q: f64) -> f64 {
    per_kind(recs, |of_kind| {
        quantile(&least_stolen(of_kind, |r| r.steal).iter().map(|r| f(r)).collect::<Vec<_>>(), q)
    })
}

/// The per-kind mean of `f`.
fn kind_mean(recs: &[JobRec], f: impl Fn(&JobRec) -> f64) -> f64 {
    per_kind(recs, |of_kind| mean(&of_kind.iter().map(|r| f(r)).collect::<Vec<_>>()))
}

/// Counts every outcome against the report and keeps the good ones.
fn settle(outcomes: Vec<Outcome>, report: &mut Report) -> Vec<JobRec> {
    let mut ok = Vec::new();
    for o in outcomes {
        match o {
            Ok(rec) => {
                report.check(Ok(()));
                ok.push(rec);
            }
            Err(e) => report.check(Err(e)),
        }
    }
    ok
}

/// Checks that every repeat of the same job produced the same exact counts
/// (messages generated and sent, rounds) and returns a digest of them and
/// of the solo jobs' byte counts. Byte counts of the other jobs are left
/// out: a job's `PhaseStats` bytes are read off counters an overlapping job
/// also moves.
fn exact_per_job(solo: &[JobRec], recs: &[JobRec], report: &mut Report) -> u64 {
    let mut seen: BTreeMap<(Kind, usize), Vec<u64>> = BTreeMap::new();
    for r in solo.iter().chain(recs) {
        let key = (r.job.kind, if r.job.kind == Kind::Bfs { r.job.root } else { 0 });
        let t = &r.totals;
        let exact = vec![t.messages_generated, t.messages_sent, r.rounds.unwrap_or(0)];
        match seen.get(&key) {
            Some(prev) if *prev != exact => report.problems.push(format!(
                "{} job counts did not repeat: {exact:?} after {prev:?}",
                r.job.kind.name()
            )),
            Some(_) => {}
            None => {
                seen.insert(key, exact);
            }
        }
    }
    let bytes = solo.iter().flat_map(|r| [r.totals.total_disk(), r.totals.pass_net_sent]);
    digest(seen.into_values().flatten().chain(bytes))
}
