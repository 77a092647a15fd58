//! Workloads, input sizes, and the one engine configuration every workload
//! builds explicitly (no `EngineConfig::for_test` defaults, no environment
//! overrides).

use dfo_types::{BatchPolicy, EngineConfig};

/// Simulated per-rank disk bandwidth, bytes/s (the bench harness's 96 MiB/s).
pub const DISK_BW: u64 = 96 << 20;
/// Simulated per-rank network bandwidth each way, bytes/s (128 MiB/s).
pub const NET_BW: u64 = 128 << 20;
/// Ranks of every workload.
pub const RANKS: usize = 2;
/// Decoded-chunk cache per rank for the daemon's resident graph; holds the
/// whole graph, so after warm-up every chunk lookup hits.
pub const DAEMON_CACHE_BYTES: u64 = 64 << 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PagerankRmat,
    BfsWebchain,
    DaemonMix,
}

impl Workload {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "pagerank_rmat" => Ok(Self::PagerankRmat),
            "bfs_webchain" => Ok(Self::BfsWebchain),
            "daemon_mix" => Ok(Self::DaemonMix),
            _ => Err(format!("unknown workload {s:?}")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::PagerankRmat => "pagerank_rmat",
            Self::BfsWebchain => "bfs_webchain",
            Self::DaemonMix => "daemon_mix",
        }
    }

    /// The one-sentence reason the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Self::PagerankRmat => {
                "every vertex active every iteration on a power-law graph: time goes to the four \
                 ProcessEdges phases, chunk reads and LZ4 decode, and message passing/filtering"
            }
            Self::BfsWebchain => {
                "hundreds of near-empty BFS levels on a high-diameter chain: time goes to \
                 per-call fixed cost (process_vertices, array round trips, collectives)"
            }
            Self::DaemonMix => {
                "the production path: resident daemon ranks on loopback TCP serving a closed-loop \
                 job mix from two clients out of a warm chunk cache"
            }
        }
    }
}

/// Input scale: `full` for measurements, `tiny` for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "full" => Ok(Self::Full),
            "tiny" => Ok(Self::Tiny),
            _ => Err(format!("--size must be full or tiny, got {s:?}")),
        }
    }
}

/// The engine configuration of every workload, each field set here.
/// `chunk_cache_bytes` is the only field the workloads vary; the daemon
/// children additionally fill in their mesh addresses.
pub fn engine_config(chunk_cache_bytes: u64) -> EngineConfig {
    EngineConfig {
        nodes: RANKS,
        // one compute thread per rank: 2 ranks use the host's 2 cores
        threads_per_node: 1,
        mem_budget: 64 << 20,
        batch_policy: BatchPolicy::SemiOutOfCore,
        csr_inflate_ratio: 32.0,
        gamma: 16,
        filter_skip_ratio: 2.0,
        alpha: None,
        disk_bw: Some(DISK_BW),
        net_bw: Some(NET_BW),
        page_size: 4096,
        checkpointing: false,
        checkpoints_kept: 1,
        batching_enabled: true,
        filtering_enabled: true,
        dispatch_override: None,
        repr_override: None,
        record_traffic: false,
        chunk_cache_bytes,
        prefetch_depth: if chunk_cache_bytes > 0 { 2 } else { 0 },
        compress_chunks: true,
        peers: None,
        connect_timeout_secs: 30,
        epoch: 0,
        max_restarts: 0,
        crash_schedule: Vec::new(),
        epoch_file: None,
        trace_path: None,
        trace_capacity: 1 << 18,
        metrics_addr: None,
        control_addr: None,
    }
}

/// SplitMix64: the benchmark's own seeded stream for roots and job mixes
/// (the graph generators take the seed directly).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}
