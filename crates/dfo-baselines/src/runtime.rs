//! Minimal SPMD runtime shared by the distributed baselines, mirroring the
//! substrate DFOGraph runs on (throttled disks + simulated network) so that
//! byte counts and wall times are comparable across engines.

use dfo_net::{Endpoint, SimCluster};
use dfo_storage::NodeDisk;
use dfo_types::{DfoError, Rank, Result};
use parking_lot::Mutex;
use std::path::PathBuf;

/// Per-node handle given to baseline node programs.
pub struct BaselineNode {
    pub rank: Rank,
    pub disk: NodeDisk,
    pub net: Endpoint,
    tag: std::sync::atomic::AtomicU64,
}

impl BaselineNode {
    pub fn nodes(&self) -> usize {
        self.net.nodes()
    }

    fn next_tag(&self) -> u64 {
        self.tag.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// All-to-all byte exchange ([`Endpoint::exchange`]) on the next tag;
    /// `result[rank] == outgoing[rank]`.
    pub fn exchange(&self, outgoing: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
        self.net.exchange(self.next_tag(), outgoing)
    }
}

/// A baseline cluster: throttled per-node disks under `<base>/n<i>`.
pub struct BaselineCluster {
    disks: Vec<NodeDisk>,
    nodes: usize,
    net_bw: Option<u64>,
    record_traffic: bool,
    last_net: Mutex<Vec<std::sync::Arc<dfo_net::NetStats>>>,
}

impl BaselineCluster {
    pub fn create(
        nodes: usize,
        base: impl Into<PathBuf>,
        disk_bw: Option<u64>,
        net_bw: Option<u64>,
        record_traffic: bool,
    ) -> Result<Self> {
        let base = base.into();
        let disks = (0..nodes)
            .map(|i| NodeDisk::new(base.join(format!("n{i}")), disk_bw, record_traffic))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { disks, nodes, net_bw, record_traffic, last_net: Mutex::new(Vec::new()) })
    }

    pub fn disks(&self) -> &[NodeDisk] {
        &self.disks
    }

    pub fn nodes(&self) -> usize {
        self.nodes
    }

    pub fn total_disk_bytes(&self) -> u64 {
        self.disks.iter().map(|d| d.stats().total_bytes()).sum()
    }

    pub fn total_net_sent(&self) -> u64 {
        self.last_net.lock().iter().map(|s| s.sent_bytes.get()).sum()
    }

    pub fn net_stats(&self) -> Vec<std::sync::Arc<dfo_net::NetStats>> {
        self.last_net.lock().clone()
    }

    pub fn reset_disk_stats(&self) {
        for d in &self.disks {
            d.stats().reset();
        }
    }

    /// SPMD run; panics/errors poison the collective like the main engine.
    pub fn run<T, F>(&self, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&mut BaselineNode) -> Result<T> + Sync,
    {
        let endpoints = SimCluster::build(self.nodes, self.net_bw, self.record_traffic);
        *self.last_net.lock() = endpoints.iter().map(|e| e.stats_arc()).collect();
        let mut results: Vec<Option<Result<T>>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .enumerate()
                .map(|(rank, ep)| {
                    let disk = self.disks[rank].clone();
                    let f = &f;
                    s.spawn(move || -> Result<T> {
                        let mut node = BaselineNode {
                            rank,
                            disk,
                            net: ep,
                            tag: std::sync::atomic::AtomicU64::new(0),
                        };
                        let res =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut node)));
                        match res {
                            Ok(Ok(v)) => Ok(v),
                            Ok(Err(e)) => {
                                node.net.poison_collective();
                                Err(e)
                            }
                            Err(panic) => {
                                node.net.poison_collective();
                                let msg = panic
                                    .downcast_ref::<&str>()
                                    .map(|s| s.to_string())
                                    .or_else(|| panic.downcast_ref::<String>().cloned())
                                    .unwrap_or_else(|| "<non-string panic>".into());
                                Err(DfoError::NetClosed(format!("node {rank} panicked: {msg}")))
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                results.push(Some(h.join().expect("node thread join")));
            }
        });
        results.into_iter().map(|r| r.unwrap()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::TempDir;

    #[test]
    fn exchange_all_to_all() {
        let td = TempDir::new().unwrap();
        let c = BaselineCluster::create(3, td.path(), None, None, false).unwrap();
        let outs = c
            .run(|node| {
                let outgoing: Vec<Vec<u8>> =
                    (0..3).map(|j| vec![node.rank as u8 * 10 + j as u8; 4]).collect();
                node.exchange(outgoing)
            })
            .unwrap();
        for (rank, incoming) in outs.iter().enumerate() {
            for (src, bytes) in incoming.iter().enumerate() {
                assert_eq!(bytes, &vec![src as u8 * 10 + rank as u8; 4]);
            }
        }
    }
}
