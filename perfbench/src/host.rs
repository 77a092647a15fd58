//! The host record written beside every result, so wall-time figures are
//! only ever compared with figures from the same kind of machine.

use crate::report::json_str;
use std::process::Command;

pub struct HostRecord {
    nproc: usize,
    cpu_model: String,
    kernel: String,
    rustc: String,
    git_commit: String,
    /// `DFO_*` variables removed from the environment before the run.
    scrubbed_env: Vec<String>,
    /// Steal and total CPU jiffies when the run started.
    cpu_at_start: Option<(u64, u64)>,
}

/// Host-wide (steal, total) CPU jiffies from the first line of `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of the host's CPU time between two [`cpu_jiffies`] samples that
/// the hypervisor gave to other guests (0 when unknown).
pub fn steal_between(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> f64 {
    match (a, b) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

impl HostRecord {
    pub fn collect(scrubbed_env: Vec<String>) -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, m)| m.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model,
            kernel,
            rustc: command_line("rustc", &["--version"]),
            // a source checkout without git history records `unknown`
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            scrubbed_env,
            cpu_at_start: cpu_jiffies(),
        }
    }

    /// Share of the host's CPU time since [`HostRecord::collect`] that the
    /// hypervisor gave to other guests (`steal`). Wall times of runs with a
    /// high share are not comparable with those of runs without.
    fn steal_share(&self) -> f64 {
        steal_between(self.cpu_at_start, cpu_jiffies())
    }

    pub fn to_json(&self) -> String {
        let scrubbed: Vec<String> = self.scrubbed_env.iter().map(|s| json_str(s)).collect();
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"kernel\":{},\"rustc\":{},\"git_commit\":{},\
             \"scrubbed_env\":[{}],\"cpu_steal_share\":{:.4}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.kernel),
            json_str(&self.rustc),
            json_str(&self.git_commit),
            scrubbed.join(","),
            self.steal_share()
        )
    }
}
