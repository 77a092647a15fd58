//! Self-test: at a tiny size every workload runs once untraced and once
//! traced, passes every oracle check, and prints every metric that
//! `BENCHMARK.json` names, with a stray `DFO_*` environment scrubbed away.

use dfo_obs::json::{self, JsonValue};
use std::process::Command;

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let list = doc.get(section).and_then(JsonValue::as_array).expect("section is a list");
    list.iter()
        .map(|m| m.get("name").and_then(JsonValue::as_str).expect("metric name").to_string())
        .collect()
}

struct Run {
    host: JsonValue,
    input: JsonValue,
    result: JsonValue,
}

fn run(workload: &str, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_dfo-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        // must not reach the engine: caching and uncompressed chunks would
        // both show in the counters checked below
        .env("DFO_CHUNK_CACHE", "1G")
        .env("DFO_COMPRESS", "0")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = |prefix: &str| {
        let l = stdout.lines().find_map(|l| l.strip_prefix(prefix)).expect("record line");
        json::parse(l).expect("record parses")
    };
    let last = stdout.lines().last().expect("a result line");
    Run {
        host: line("host "),
        input: line("input "),
        result: json::parse(last).expect("result line parses"),
    }
}

fn metric(r: &Run, name: &str) -> f64 {
    let m = r.result.get("metrics").and_then(|m| m.get(name));
    m.and_then(|m| m.get("value")).and_then(JsonValue::as_f64).expect("metric value")
}

fn check_workload(workload: &str) -> (Run, Run) {
    let runs = (run(workload, 0), run(workload, 1));
    for (r, section) in [(&runs.0, "end_to_end"), (&runs.1, "per_layer")] {
        assert_eq!(r.result.get("correct"), Some(&JsonValue::Bool(true)), "{workload}");
        assert_eq!(r.result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
        assert!(r.result.get("attempted").and_then(JsonValue::as_f64).unwrap_or(0.0) >= 1.0);
        for name in declared(section) {
            let v = metric(r, &name);
            assert!(v.is_finite(), "{workload}: {name} = {v}");
            if section == "end_to_end" {
                assert!(v > 0.0, "{workload}: {name} must never be 0");
            }
        }
        let scrubbed = r.host.get("scrubbed_env").and_then(JsonValue::as_array).unwrap();
        assert!(scrubbed.iter().any(|s| s.as_str() == Some("DFO_CHUNK_CACHE")));
        assert!(r.input.get("seed").and_then(JsonValue::as_f64) == Some(7.0));
    }
    (runs.0, runs.1)
}

#[test]
fn pagerank_rmat_runs_checks_and_reports() {
    let (plain, traced) = check_workload("pagerank_rmat");
    // chunk cache stayed off and compression on despite the environment
    assert_eq!(metric(&traced, "storage.cache_lookups"), 0.0);
    assert!(metric(&traced, "storage.compress_ratio") < 1.0);
    // the same seed repeats every exact count, traced or not
    assert_eq!(plain.input.get("exact_digest"), traced.input.get("exact_digest"));
}

#[test]
fn bfs_webchain_runs_checks_and_reports() {
    let (plain, traced) = check_workload("bfs_webchain");
    assert!(metric(&traced, "algos.rounds") > 2.0);
    assert!(metric(&traced, "core.vertices_s") > 0.0);
    assert_eq!(plain.input.get("exact_digest"), traced.input.get("exact_digest"));
}

#[test]
fn daemon_mix_runs_checks_and_reports() {
    let (_, traced) = check_workload("daemon_mix");
    assert!(metric(&traced, "storage.cache_hit_ratio") > 0.0);
    assert!(metric(&traced, "service.exec_p50_s") > 0.0);
    assert_eq!(metric(&traced, "service.retries"), 0.0);
}
