//! The DFOGraph benchmark: three workloads driven from one load-generating
//! process, every result checked against the in-memory oracles of
//! `dfo-algos`, end-to-end metrics from untraced runs and per-layer metrics
//! (named after the workspace crates) from a separate traced run.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pagerank_rmat --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it are
//! the host and input records, which are also written with the metrics to
//! `perfbench/results/`. See `perfbench/METRICS.md` for every metric's
//! definition on every workload.

mod batch;
mod config;
mod counters;
mod daemon_mix;
mod host;
mod report;
mod spans;

use config::{Size, Workload};
use report::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The run is abandoned (children killed and reaped, non-zero exit) if it
/// has not finished by then, so a hung daemon can never outlive the run.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Options of one benchmark run, parsed from the command line.
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Private directory for graphs, arrays and traces; removed at exit.
    pub work: PathBuf,
}

fn usage() -> String {
    "usage: dfo-perfbench --workload <pagerank_rmat|bfs_webchain|daemon_mix> --seed <n> \
     --seconds <s> --trace <0|1> [--size full|tiny]\n       \
     dfo-perfbench daemon --rank <r> --peers <a,b> --base <dir> [--control <addr>] \
     [--metrics <addr>]"
        .to_string()
}

/// Parses `--key value` pairs; every key must be one of `allowed`.
fn parse_pairs(args: &[String], allowed: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k.strip_prefix("--").filter(|k| allowed.contains(k));
        let Some(key) = key else { return Err(format!("unexpected argument {k:?}")) };
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.push((key.to_string(), v.clone()));
    }
    Ok(out)
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let pairs = parse_pairs(args, &["workload", "seed", "seconds", "trace", "size"])?;
    let get = |k: &str| pairs.iter().rev().find(|(key, _)| key == k).map(|(_, v)| v.as_str());
    let need = |k: &str| get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = Workload::parse(need("workload")?)?;
    let seed = need("seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = need("seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match need("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    let size = Size::parse(get("size").unwrap_or("full"))?;
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work").join(format!(
        "{}-{}",
        workload.name(),
        std::process::id()
    ));
    Ok(RunOpts { workload, seed, seconds, trace, size, work })
}

/// Removes every `DFO_*` variable from this process's environment (and so
/// from every child it spawns): the engine reads its overrides from there,
/// and a stray shell variable must not change what is measured. Runs before
/// any thread starts. Returns the names removed.
fn scrub_dfo_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DFO_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

fn run(opts: &RunOpts, scrubbed: Vec<String>) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.work).map_err(|e| format!("creating work dir: {e}"))?;
    let host = host::HostRecord::collect(scrubbed);
    let report = match opts.workload {
        Workload::PagerankRmat | Workload::BfsWebchain => batch::run(opts)?,
        Workload::DaemonMix => daemon_mix::run(opts)?,
    };
    println!("host {}", host.to_json());
    println!("input {}", report.input.to_json());
    report.save(opts, &host)?;
    Ok(report)
}

fn main() {
    let scrubbed = scrub_dfo_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        if let Err(e) = daemon_mix::daemon_child(&args[1..]) {
            eprintln!("dfo-perfbench daemon: {e}");
            std::process::exit(1);
        }
        return;
    }
    let opts = match parse_run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dfo-perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let work = opts.work.clone();
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG.saturating_sub(started.elapsed()));
        eprintln!("dfo-perfbench: watchdog fired after {WATCHDOG:?}; killing children");
        daemon_mix::kill_all_children();
        let _ = std::fs::remove_dir_all(work);
        std::process::exit(3);
    });
    let out = std::panic::catch_unwind(|| run(&opts, scrubbed));
    daemon_mix::kill_all_children();
    let _ = std::fs::remove_dir_all(&opts.work);
    match out {
        Ok(Ok(report)) => println!("{}", report.result_line()),
        Ok(Err(e)) => {
            eprintln!("dfo-perfbench: {e}");
            std::process::exit(1);
        }
        Err(_) => {
            eprintln!("dfo-perfbench: the load generator panicked");
            std::process::exit(1);
        }
    }
}
