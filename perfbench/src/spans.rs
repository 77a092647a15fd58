//! Tracing for the traced run: the benchmark's own spans around every call
//! it makes into the program, and the read-back of the engine's span file.
//!
//! A span has a name, a start, an end and a parent; the spans of one run or
//! one job share a trace id. A span's self time is its duration minus the
//! part of it that its child spans cover.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub trace: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log, written out when the run ends. Disabled logs record
/// nothing, so untraced runs pay one branch per call.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    next: AtomicU64,
    recs: Mutex<Vec<SpanRec>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self { origin: Instant::now(), enabled, next: AtomicU64::new(1), recs: Mutex::new(vec![]) }
    }

    /// A fresh id, for a span or a trace.
    pub fn new_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span under a pre-allocated `id`.
    pub fn record_as(
        &self,
        id: u64,
        trace: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let rec =
            SpanRec { id, trace, parent, name, start_ns: self.ns(start), end_ns: self.ns(end) };
        self.recs.lock().expect("span log poisoned by a panicking recorder").push(rec);
    }

    /// Records a finished span with a fresh id.
    pub fn record(
        &self,
        trace: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.record_as(self.new_id(), trace, parent, name, start, end);
        }
    }

    /// Every span with its self time, in recording order.
    pub fn with_self_times(&self) -> Vec<(SpanRec, u64)> {
        let recs = self.recs.lock().expect("span log poisoned by a panicking recorder").clone();
        recs.iter()
            .map(|s| {
                let children =
                    recs.iter().filter(|c| c.parent == Some(s.id)).map(|c| (c.start_ns, c.end_ns));
                let covered = covered_ns(s.start_ns, s.end_ns, children);
                (s.clone(), (s.end_ns - s.start_ns).saturating_sub(covered))
            })
            .collect()
    }

    /// Writes one JSON object per span (with its self time) to `path`.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (s, self_ns) in self.with_self_times() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{self_ns}}}\n",
                s.id, s.trace, s.name, s.start_ns, s.end_ns
            ));
        }
        let mut f = std::fs::File::create(path).map_err(|e| format!("creating span file: {e}"))?;
        f.write_all(out.as_bytes()).map_err(|e| format!("writing span file: {e}"))
    }
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        intervals.map(|(a, b)| (a.max(start), b.min(end))).filter(|(a, b)| a < b).collect();
    iv.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per-layer times read back from one engine span file, each the maximum
/// over ranks (the slowest rank sets the run's time).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineTrace {
    /// Summed `process_vertices` call spans.
    pub vertices_s: f64,
    /// Summed `process_edges` self time: the call's duration outside its
    /// four pipeline-phase spans.
    pub edges_self_s: f64,
}

/// Reads the engine's span file (`EngineConfig::trace_path`) with
/// `dfo_obs::parse_trace`.
pub fn engine_trace(path: &Path) -> Result<EngineTrace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading engine trace: {e}"))?;
    let events = dfo_obs::parse_trace(&text).map_err(|e| format!("parsing engine trace: {e}"))?;
    let mut pids: Vec<u64> = events.iter().map(|e| e.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    let mut out = EngineTrace::default();
    for pid in pids {
        let mine: Vec<_> = events.iter().filter(|e| e.pid == pid).collect();
        let vertices: u64 =
            mine.iter().filter(|e| e.name == "process_vertices").map(|e| e.dur_ns).sum();
        let edges_self: u64 = mine
            .iter()
            .filter(|e| e.name == "process_edges")
            .map(|call| {
                let phases = mine
                    .iter()
                    .filter(|e| e.cat == "phase" && e.name.starts_with("phase"))
                    .map(|e| (e.ts_ns, e.end_ns()));
                call.dur_ns.saturating_sub(covered_ns(call.ts_ns, call.end_ns(), phases))
            })
            .sum();
        out.vertices_s = out.vertices_s.max(vertices as f64 / 1e9);
        out.edges_self_s = out.edges_self_s.max(edges_self as f64 / 1e9);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let iv = [(0, 10), (5, 15), (20, 30), (28, 40)].into_iter();
        assert_eq!(covered_ns(2, 35, iv), 13 + 15);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let log = Spans::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        let root = log.new_id();
        log.record(7, Some(root), "child", at(10), at(30));
        log.record(7, Some(root), "child", at(20), at(40));
        log.record_as(root, 7, None, "root", at(0), at(100));
        let root_self = log.with_self_times().into_iter().find(|(s, _)| s.id == root).unwrap().1;
        assert_eq!(root_self, 70_000_000);
    }
}
