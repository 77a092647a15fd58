//! The batch workloads: one `Cluster` in this process, the algorithm timed
//! around `Cluster::run`, preprocessing around `Cluster::preprocess`.
//!
//! * `pagerank_rmat`: fixed-iteration PageRank on an R-MAT power-law graph.
//! * `bfs_webchain`: BFS from vertex 0 on a `web_chain` of communities.
//!
//! Both run with the chunk cache off. Every run is checked against the
//! oracle, and every exact count must repeat run after run.

use crate::config::{engine_config, Size, Workload, DISK_BW, NET_BW};
use crate::counters::Counters;
use crate::host::{cpu_jiffies, steal_between};
use crate::report::{
    digest, least_stolen, mean, median, peak_rss_mb, quantile, ratio, reset_peak_rss, results_file,
    InputRecord, Report,
};
use crate::spans::{engine_trace, Spans};
use crate::RunOpts;
use dfo_core::Cluster;
use dfo_graph::gen::{rmat, web_chain, GenConfig};
use dfo_graph::EdgeList;
use dfo_types::{EngineConfig, PhaseStats};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Preprocessing repetitions behind `setup_s` (the median is reported).
const PREP_REPS: usize = 15;
/// Fewest measured runs, however short `--seconds` is.
const MIN_OPS: usize = 3;
/// PageRank agreement with `pagerank_oracle`: `|x − oracle| ≤ REL·|oracle| + ABS`.
pub const PR_REL_TOL: f64 = 1e-9;
pub const PR_ABS_TOL: f64 = 1e-15;

#[derive(Clone, Copy)]
enum Algo {
    PageRank { iters: usize },
    Bfs { root: u64 },
}

enum Expected {
    Ranks(Vec<f64>),
    Levels(Vec<u32>),
}

/// One rank's share of a run's result.
enum Local {
    Ranks(Vec<f64>),
    Levels(Vec<u32>),
}

fn generate(opts: &RunOpts) -> (EdgeList<()>, Algo) {
    let tiny = opts.size == Size::Tiny;
    match opts.workload {
        Workload::PagerankRmat => {
            let (scale, ef, iters) = if tiny { (10, 8, 3) } else { (16, 16, 10) };
            (rmat(GenConfig::new(scale, ef, opts.seed)), Algo::PageRank { iters })
        }
        _ => {
            let (comms, size) = if tiny { (8, 16) } else { (200, 80) };
            (web_chain(comms, size, 4, 3, opts.seed), Algo::Bfs { root: 0 })
        }
    }
}

/// Compares a run's assembled result with the oracle: PageRank within the
/// stated tolerance, BFS levels exactly.
fn check(expected: &Expected, got: &[Local]) -> Result<(), String> {
    match expected {
        Expected::Ranks(want) => {
            let got: Vec<f64> = got
                .iter()
                .flat_map(|l| match l {
                    Local::Ranks(v) => v.clone(),
                    Local::Levels(_) => Vec::new(),
                })
                .collect();
            check_ranks(want, &got)
        }
        Expected::Levels(want) => {
            let got: Vec<u32> = got
                .iter()
                .flat_map(|l| match l {
                    Local::Levels(v) => v.clone(),
                    Local::Ranks(_) => Vec::new(),
                })
                .collect();
            (&got == want).then_some(()).ok_or_else(|| "BFS levels differ from bfs_oracle".into())
        }
    }
}

pub fn check_ranks(want: &[f64], got: &[f64]) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!("PageRank: {} values, oracle has {}", got.len(), want.len()));
    }
    for (v, (a, b)) in got.iter().zip(want).enumerate() {
        if (a - b).abs() > PR_REL_TOL * b.abs() + PR_ABS_TOL {
            return Err(format!("PageRank vertex {v}: {a} vs oracle {b}"));
        }
    }
    Ok(())
}

/// Rounds of one run: PageRank iterations, or BFS levels (one
/// `process_edges` call per level, the last one finding nothing new).
fn rounds(algo: Algo, expected: &Expected) -> u64 {
    match (algo, expected) {
        (Algo::PageRank { iters }, _) => iters as u64,
        (Algo::Bfs { .. }, Expected::Levels(l)) => {
            l.iter().filter(|&&d| d != u32::MAX).max().map_or(1, |&d| d as u64 + 1)
        }
        (Algo::Bfs { .. }, Expected::Ranks(_)) => 0,
    }
}

/// Per-layer figures from the per-rank `PhaseStats` of one operation:
/// times are the maximum over ranks, counts the sum.
pub fn phase_layers(stats: &[PhaseStats]) -> Vec<(&'static str, f64)> {
    let max_s =
        |f: fn(&PhaseStats) -> u64| stats.iter().map(|s| f(s) as f64 / 1e9).fold(0.0, f64::max);
    let sum = |f: fn(&PhaseStats) -> u64| stats.iter().map(|s| f(s) as f64).sum::<f64>();
    let physical = sum(|s| {
        s.generate_disk_read + s.pass_disk_read + s.dispatch_disk_read + s.process_disk_read
    });
    let logical = sum(|s| s.logical_disk_read);
    let hits = sum(|s| s.chunk_cache_hits);
    let lookups = hits + sum(|s| s.chunk_cache_misses);
    let generated = sum(|s| s.messages_generated);
    let sent = sum(|s| s.messages_sent);
    vec![
        ("storage.edges_physical_read_bytes", physical),
        ("storage.edges_logical_read_bytes", logical),
        ("storage.compress_ratio", ratio(physical, logical)),
        ("storage.cache_lookups", lookups),
        ("storage.cache_hit_ratio", ratio(hits, lookups)),
        ("net.messages_generated", generated),
        ("net.messages_sent", sent),
        ("net.filter_ratio", ratio(sent, generated)),
        ("core.generate_s", max_s(|s| s.generate_nanos)),
        ("core.pass_s", max_s(|s| s.pass_nanos)),
        ("core.dispatch_s", max_s(|s| s.dispatch_nanos)),
        ("core.process_s", max_s(|s| s.process_nanos)),
    ]
}

/// Per-layer figures from the registry counters' change over a window.
pub fn counter_layers(d: &Counters) -> Vec<(&'static str, f64)> {
    let per_rank_sum = |a: &str, b: &str| {
        let mut m = d.per_rank(a);
        for (r, v) in d.per_rank(b) {
            *m.entry(r).or_insert(0.0) += v;
        }
        m
    };
    let disk_modeled = per_rank_sum("dfo_disk_read_bytes_total", "dfo_disk_write_bytes_total")
        .into_values()
        .fold(0.0, f64::max)
        / DISK_BW as f64;
    let (sent, recv) =
        (d.per_rank("dfo_net_sent_bytes_total"), d.per_rank("dfo_net_recv_bytes_total"));
    let net_modeled =
        sent.iter().map(|(r, s)| s.max(recv.get(r).copied().unwrap_or(0.0))).fold(0.0, f64::max)
            / NET_BW as f64;
    vec![
        ("storage.read_s", d.max_rank("dfo_disk_read_nanos_total") / 1e9),
        ("storage.decode_s", d.max_rank("dfo_chunk_decode_nanos_total") / 1e9),
        ("storage.write_s", d.max_rank("dfo_disk_write_nanos_total") / 1e9),
        ("storage.modeled_s", disk_modeled),
        ("net.frames_sent", d.sum("dfo_net_sent_frames_total", &[])),
        ("net.collectives", d.count("dfo_net_collective_seconds")),
        ("net.collective_s", d.max_rank("dfo_net_collective_seconds")),
        ("net.modeled_s", net_modeled),
        ("core.edges_calls", d.sum("dfo_process_calls_total", &[("kind", "edges")])),
        ("core.vertices_calls", d.sum("dfo_process_calls_total", &[("kind", "vertices")])),
    ]
}

/// One measured `Cluster::run`.
struct Op {
    wall: f64,
    /// This process's peak RSS over the run, MiB.
    peak_rss: f64,
    /// Host CPU steal share while the run ran.
    steal: f64,
    disk_read: u64,
    disk_write: u64,
    net_sent: u64,
    /// Every per-layer figure of this run.
    layers: Vec<(&'static str, f64)>,
    /// Counts that must repeat exactly from run to run.
    exact: Vec<u64>,
}

fn run_op(
    cluster: &Cluster,
    algo: Algo,
    expected: &Expected,
    spans: &Spans,
    report: &mut Report,
) -> Result<Op, String> {
    let net_sent = |c: &Cluster| c.net_totals().iter().map(|t| t.sent_bytes).sum::<u64>();
    let before = Counters::from_snapshot(&cluster.registry().snapshot());
    let (r0, w0, n0) = (cluster.total_disk_read(), cluster.total_disk_written(), net_sent(cluster));
    let trace = spans.new_id();
    let op_span = spans.new_id();
    reset_peak_rss()?;
    let cpu0 = cpu_jiffies();
    let t0 = Instant::now();
    let out = cluster
        .run(|ctx| {
            let local = match algo {
                Algo::PageRank { iters } => {
                    let r = dfo_algos::pagerank(ctx, iters)?;
                    Local::Ranks(dfo_algos::read_local(ctx, &r)?)
                }
                Algo::Bfs { root } => {
                    let l = dfo_algos::bfs(ctx, root)?;
                    Local::Levels(dfo_algos::read_local(ctx, &l)?)
                }
            };
            Ok((local, ctx.job_phase_stats().clone()))
        })
        .map_err(|e| format!("Cluster::run: {e}"))?;
    let t1 = Instant::now();
    let steal = steal_between(cpu0, cpu_jiffies());
    let peak_rss = peak_rss_mb("self")?;
    spans.record(trace, Some(op_span), "Cluster::run", t0, t1);
    let (locals, stats): (Vec<Local>, Vec<PhaseStats>) = out.into_iter().unzip();
    report.check(check(expected, &locals));
    spans.record(trace, Some(op_span), "oracle_check", t1, Instant::now());
    spans.record_as(op_span, trace, None, "operation", t0, Instant::now());

    let delta = Counters::from_snapshot(&cluster.registry().snapshot()).delta(&before);
    let wall = (t1 - t0).as_secs_f64();
    let (disk_read, disk_write, net) =
        (cluster.total_disk_read() - r0, cluster.total_disk_written() - w0, net_sent(cluster) - n0);
    let mut layers = phase_layers(&stats);
    layers.extend(counter_layers(&delta));
    let get = |name: &str| layers.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
    let model = get("storage.modeled_s").max(get("net.modeled_s"));
    let rounds = rounds(algo, expected);
    let exact = vec![
        disk_read,
        disk_write,
        net,
        get("net.frames_sent") as u64,
        get("net.collectives") as u64,
        get("core.edges_calls") as u64,
        get("core.vertices_calls") as u64,
        get("net.messages_generated") as u64,
        get("net.messages_sent") as u64,
        rounds,
    ];
    layers.push(("core.model_efficiency", ratio(model, wall)));
    layers.push(("algos.rounds", rounds as f64));
    if let Some(path) = &cluster.config().trace_path {
        let t = engine_trace(Path::new(path))?;
        layers.push(("core.vertices_s", t.vertices_s));
        layers.push(("core.edges_self_s", t.edges_self_s));
    }
    Ok(Op { wall, peak_rss, steal, disk_read, disk_write, net_sent: net, layers, exact })
}

/// Runs operations back to back until `seconds` have passed (at least
/// [`MIN_OPS`]), checking each exact count against `reference`.
fn measure(
    cluster: &Cluster,
    algo: Algo,
    expected: &Expected,
    seconds: f64,
    spans: &Spans,
    reference: &mut Option<Vec<u64>>,
    report: &mut Report,
) -> Result<Vec<Op>, String> {
    let start = Instant::now();
    let mut ops = Vec::new();
    while ops.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        let op = run_op(cluster, algo, expected, spans, report)?;
        match reference {
            None => *reference = Some(op.exact.clone()),
            Some(r) if *r != op.exact => report
                .problems
                .push(format!("exact counts did not repeat: {:?} after {:?}", op.exact, r)),
            Some(_) => {}
        }
        ops.push(op);
    }
    Ok(ops)
}

/// Preprocesses `graph` [`PREP_REPS`] times, each into a fresh directory
/// under `work`, and moves the last copy to `keep`. Returns the time of
/// every `Cluster::preprocess` call and the bytes one call wrote.
pub fn preprocess_reps(
    cfg: &EngineConfig,
    graph: &EdgeList<()>,
    work: &Path,
    keep: &Path,
    spans: &Spans,
) -> Result<(Vec<f64>, u64), String> {
    let mut times = Vec::new();
    let mut written = 0;
    for i in 0..PREP_REPS {
        let dir = work.join(format!("prep{i}"));
        let cluster = cluster_at(cfg.clone(), &dir)?;
        let t0 = Instant::now();
        cluster.preprocess(graph).map_err(|e| format!("Cluster::preprocess: {e}"))?;
        spans.record(spans.new_id(), None, "Cluster::preprocess", t0, Instant::now());
        times.push(t0.elapsed().as_secs_f64());
        written = cluster.total_disk_written();
        drop(cluster);
        if i + 1 < PREP_REPS {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    if let Some(parent) = keep.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("creating {parent:?}: {e}"))?;
    }
    let last = work.join(format!("prep{}", PREP_REPS - 1));
    std::fs::rename(last, keep).map_err(|e| format!("keeping graph: {e}"))?;
    Ok((times, written))
}

fn cluster_at(cfg: EngineConfig, dir: &Path) -> Result<Cluster, String> {
    Cluster::create(cfg, dir).map_err(|e| format!("Cluster::create: {e}"))
}

pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let spans = Spans::new(opts.trace);
    let (graph, algo) = generate(opts);
    let expected = match algo {
        Algo::PageRank { iters } => {
            Expected::Ranks(dfo_algos::pagerank::pagerank_oracle(&graph, iters))
        }
        Algo::Bfs { root } => Expected::Levels(dfo_algos::bfs::bfs_oracle(&graph, root)),
    };
    let mut report = Report::new(
        InputRecord {
            workload: opts.workload.name(),
            why: opts.workload.why(),
            seed: opts.seed,
            vertices: graph.n_vertices,
            edges: graph.n_edges(),
            rounds: rounds(algo, &expected) as f64,
            ..InputRecord::default()
        },
        opts.trace,
    );

    let base = opts.work.join("graph");
    let (prep_times, prep_write) =
        preprocess_reps(&engine_config(0), &graph, &opts.work, &base, &spans)?;
    drop(graph); // the oracle result is all that is kept of the edge list

    let cluster = cluster_at(engine_config(0), &base)?;
    let untraced = Spans::new(false);
    // warm-up: the first run creates the vertex arrays on disk
    run_op(&cluster, algo, &expected, &untraced, &mut report)?;
    let untraced_secs = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let mut reference = None;
    let plain =
        measure(&cluster, algo, &expected, untraced_secs, &untraced, &mut reference, &mut report)?;
    drop(cluster);

    report.input.samples = plain.len() as u64;
    report.input.latencies = plain.iter().map(|o| o.wall).collect();
    report.input.job_mix = vec![(
        match algo {
            Algo::PageRank { .. } => "pagerank",
            Algo::Bfs { .. } => "bfs",
        }
        .to_string(),
        plain.len() as u64,
    )];
    report.input.exact_digest = digest(reference.clone().unwrap_or_default());

    if !opts.trace {
        let clean = least_stolen(&plain, |o| o.steal);
        let med = |f: fn(&Op) -> f64| median(&clean.iter().map(|o| f(o)).collect::<Vec<_>>());
        let clean_walls: Vec<f64> = clean.iter().map(|o| o.wall).collect();
        report.set("run_s", median(&clean_walls));
        report.set("setup_s", median(&prep_times));
        report.set("disk_read_bytes", med(|o| o.disk_read as f64));
        report.set("disk_write_bytes", med(|o| o.disk_write as f64));
        report.set("net_sent_bytes", med(|o| o.net_sent as f64));
        report.set("peak_rss_mb", med(|o| o.peak_rss));
        report.set("job_p50_s", median(&clean_walls));
        report.set("job_p90_s", quantile(&clean_walls, 0.9));
        // runs are back to back, so this is 1 / mean run time
        report.set("jobs_per_s", clean_walls.len() as f64 / clean_walls.iter().sum::<f64>());
        return Ok(report);
    }

    // traced run: the engine writes its span file after every run
    let mut cfg = engine_config(0);
    cfg.trace_path = Some(opts.work.join("engine_trace.jsonl").to_string_lossy().into_owned());
    let traced_cluster = cluster_at(cfg, &base)?;
    let traced = measure(
        &traced_cluster,
        algo,
        &expected,
        opts.seconds / 2.0,
        &spans,
        &mut reference,
        &mut report,
    )?;
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for op in &traced {
        for (name, v) in &op.layers {
            layers.entry(name).or_default().push(*v);
        }
    }
    for (name, values) in layers {
        report.set(name, mean(&values));
    }
    let clean_wall = |ops: &[Op]| {
        median(&least_stolen(ops, |o| o.steal).iter().map(|o| o.wall).collect::<Vec<_>>())
    };
    report.set("part.preprocess_s", median(&prep_times));
    report.set("part.prep_write_bytes", prep_write as f64);
    for name in ["service.exec_p50_s", "service.wait_p50_s", "service.wait_p90_s"] {
        report.set(name, 0.0);
    }
    report.set("service.retries", 0.0);
    report.set("obs.trace_overhead", clean_wall(&traced) / clean_wall(&plain));
    spans.write_jsonl(&results_file(opts, "spans.jsonl")?)?;
    Ok(report)
}
