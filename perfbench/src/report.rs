//! The result of one run: the input record, the checked operation counts
//! and the metrics, rendered as the final JSON line and saved with the host
//! record under `perfbench/results/`.

use crate::host::HostRecord;
use crate::RunOpts;
use std::path::PathBuf;

/// End-to-end metrics (untraced runs): name, unit. Definitions per workload
/// are in `METRICS.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("run_s", "s"),
    ("setup_s", "s"),
    ("disk_read_bytes", "B"),
    ("disk_write_bytes", "B"),
    ("net_sent_bytes", "B"),
    ("peak_rss_mb", "MiB"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics (traced runs), named `<crate>.<metric>`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("part.preprocess_s", "s"),
    ("part.prep_write_bytes", "B"),
    ("storage.read_s", "s"),
    ("storage.decode_s", "s"),
    ("storage.write_s", "s"),
    ("storage.edges_physical_read_bytes", "B"),
    ("storage.edges_logical_read_bytes", "B"),
    ("storage.compress_ratio", "ratio"),
    ("storage.cache_lookups", "count"),
    ("storage.cache_hit_ratio", "ratio"),
    ("storage.modeled_s", "s"),
    ("net.messages_generated", "count"),
    ("net.messages_sent", "count"),
    ("net.filter_ratio", "ratio"),
    ("net.frames_sent", "count"),
    ("net.collectives", "count"),
    ("net.collective_s", "s"),
    ("net.modeled_s", "s"),
    ("core.generate_s", "s"),
    ("core.pass_s", "s"),
    ("core.dispatch_s", "s"),
    ("core.process_s", "s"),
    ("core.edges_calls", "count"),
    ("core.vertices_calls", "count"),
    ("core.vertices_s", "s"),
    ("core.edges_self_s", "s"),
    ("core.model_efficiency", "ratio"),
    ("algos.rounds", "count"),
    ("service.exec_p50_s", "s"),
    ("service.wait_p50_s", "s"),
    ("service.wait_p90_s", "s"),
    ("service.retries", "count"),
    ("obs.trace_overhead", "ratio"),
];

/// What a run measured on, recorded beside its result.
#[derive(Default)]
pub struct InputRecord {
    pub workload: &'static str,
    pub why: &'static str,
    pub seed: u64,
    pub vertices: u64,
    pub edges: u64,
    /// Rounds of one operation (PageRank iterations, BFS levels), or the
    /// mean over daemon jobs.
    pub rounds: f64,
    /// Operations measured per kind (`pagerank`, `bfs`, `wcc`).
    pub job_mix: Vec<(String, u64)>,
    /// Samples behind the latency percentiles.
    pub samples: u64,
    /// The latency samples themselves, seconds (saved, not printed).
    pub latencies: Vec<f64>,
    /// Hash of every exact count (bytes, calls, messages, rounds); equal
    /// seeds must print equal digests.
    pub exact_digest: u64,
}

impl InputRecord {
    pub fn to_json(&self) -> String {
        let mix: Vec<String> =
            self.job_mix.iter().map(|(k, n)| format!("{}:{n}", json_str(k))).collect();
        format!(
            "{{\"workload\":{},\"why\":{},\"seed\":{},\"vertices\":{},\"edges\":{},\
             \"rounds\":{},\"job_mix\":{{{}}},\"samples\":{},\"exact_digest\":\"{:016x}\"}}",
            json_str(self.workload),
            json_str(self.why),
            self.seed,
            self.vertices,
            self.edges,
            num(self.rounds),
            mix.join(","),
            self.samples,
            self.exact_digest
        )
    }
}

pub struct Report {
    pub input: InputRecord,
    pub attempted: u64,
    pub failed: u64,
    /// Everything else that makes the run wrong (a count that did not
    /// repeat, a missing metric), one line each.
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub trace: bool,
}

impl Report {
    pub fn new(input: InputRecord, trace: bool) -> Self {
        Self { input, attempted: 0, failed: 0, problems: vec![], metrics: vec![], trace }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Counts one checked operation; `Err` explains a wrong result.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(e);
            }
        }
    }

    fn catalogue(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The final stdout line: exactly the catalogue's metrics, in order.
    pub fn result_line(&self) -> String {
        let mut metrics = Vec::new();
        let mut missing = Vec::new();
        for (name, unit) in self.catalogue() {
            match self.metrics.iter().rev().find(|(n, _)| n == name) {
                Some((_, v)) => metrics.push(format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(name),
                    num(*v),
                    json_str(unit)
                )),
                None => missing.push(*name),
            }
        }
        let correct = self.correct() && missing.is_empty();
        for p in &self.problems {
            eprintln!("dfo-perfbench: check failed: {p}");
        }
        if !missing.is_empty() {
            eprintln!("dfo-perfbench: metrics not produced: {missing:?}");
        }
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Saves host record, input record and result line under
    /// `perfbench/results/`.
    pub fn save(&self, opts: &RunOpts, host: &HostRecord) -> Result<(), String> {
        let latencies: Vec<String> = self.input.latencies.iter().map(|v| num(*v)).collect();
        let body = format!(
            "{{\"host\":{},\"input\":{},\"latencies_s\":[{}],\"result\":{}}}\n",
            host.to_json(),
            self.input.to_json(),
            latencies.join(","),
            self.result_line()
        );
        std::fs::write(results_file(opts, "json")?, body)
            .map_err(|e| format!("writing result: {e}"))
    }
}

/// `perfbench/results/<workload>-seed<seed>-trace<t>.<ext>`.
pub fn results_file(opts: &RunOpts, ext: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating results dir: {e}"))?;
    let name =
        format!("{}-seed{}-trace{}.{ext}", opts.workload.name(), opts.seed, u8::from(opts.trace));
    Ok(dir.join(name))
}

/// A JSON number with all its digits (non-finite values, which only a
/// ratio over an empty base can produce, print as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Linear-interpolated `q`-quantile of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Steal share that counts as none. `/proc/stat` counts steal in 10 ms
/// jiffies, so a single jiffy already reads as 0.4% of a 1.3 s run on 2 CPUs.
pub const STEAL_NOISE: f64 = 0.01;

/// The operations that ran under the least host CPU steal, in their
/// original order: every one whose steal share is at most the larger of the
/// median share and [`STEAL_NOISE`]. Other guests on the host take CPU time
/// in bursts of a few seconds; operations caught in a burst slow down by
/// what was stolen, which says nothing about the program. Ties are kept, so
/// a run without steal keeps every operation, and one with steal in every
/// operation keeps at least half. Timings are taken over these operations.
pub fn least_stolen<T>(items: &[T], steal: impl Fn(&T) -> f64) -> Vec<&T> {
    let shares: Vec<f64> = items.iter().map(&steal).collect();
    let limit = median(&shares).max(STEAL_NOISE);
    items.iter().zip(&shares).filter(|(_, &s)| s <= limit).map(|(item, _)| item).collect()
}

/// `a / b`, 0 when the base is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// FNV-1a over a sequence of exact counts.
pub fn digest(counts: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in counts {
        for b in c.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Peak resident set (`VmHWM`) of a process, MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
    Ok(kb / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: returns free heap memory (of every arena) to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Resets this process's `VmHWM` to its current RSS, so the peak read later
/// covers only what runs after this call. Free heap memory is handed back
/// to the kernel first: otherwise the baseline includes whatever the
/// allocator happened to keep from earlier runs, which differs from process
/// to process by more than the run's own footprint does.
pub fn reset_peak_rss() -> Result<(), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim has no preconditions; it only releases free
    // memory and is safe to call at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn least_stolen_keeps_every_tie() {
        let v = [(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)];
        assert_eq!(least_stolen(&v, |x| x.1).len(), 4);
        let v = [(0, 0.2), (1, 0.2), (2, 0.2)];
        assert_eq!(least_stolen(&v, |x| x.1).len(), 3);
    }

    #[test]
    fn least_stolen_drops_bursts_in_order() {
        // mostly steal-free: only the burst and the above-noise run go
        let v = [(0, 0.0), (1, 0.3), (2, 0.005), (3, 0.0), (4, 0.02)];
        let kept: Vec<i32> = least_stolen(&v, |x| x.1).iter().map(|x| x.0).collect();
        assert_eq!(kept, vec![0, 2, 3]);
        // steal everywhere: the lower half by median
        let v = [(0, 0.3), (1, 0.05), (2, 0.1), (3, 0.04), (4, 0.5)];
        let kept: Vec<i32> = least_stolen(&v, |x| x.1).iter().map(|x| x.0).collect();
        assert_eq!(kept, vec![1, 2, 3]);
    }

    #[test]
    fn result_line_lists_the_catalogue() {
        let mut r = Report::new(InputRecord::default(), false);
        r.check(Ok(()));
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.result_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        assert!(line.contains("\"jobs_per_s\":{\"value\":1.5,\"unit\":\"1/s\"}"));
        assert!(dfo_obs::json::parse(&line).is_ok());
    }
}
