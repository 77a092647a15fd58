//! Resident DFOGraph engine service: one engine per rank group, many jobs.
//!
//! Batch mode ([`dfo_core::Cluster::run`]) ties one graph, one algorithm and
//! one process lifetime together — every run pays preprocessing or at least
//! plan reload, and two workloads over the same graph serialize. This crate
//! turns the engine into a **resident service**:
//!
//! * a [`Service`] owns the engine configuration and a **catalog** of loaded
//!   graphs — each graph preprocessed once into its own [`dfo_core::Cluster`]
//!   (own disks and per-rank chunk caches) and then shared, reference-
//!   counted, by every job over it;
//! * jobs are submitted as transport-agnostic [`JobSpec`]s — graph name,
//!   algorithm name (resolved in the [`dfo_algos::registry`]), integer
//!   [`dfo_algos::JobParams`] — and tracked through [`JobHandle`]s with
//!   [`JobHandle::wait`], [`JobHandle::cancel`] and [`JobHandle::stats`];
//! * **admission control** queues a job while the running jobs' estimated
//!   footprints would push past `mem_budget`; the scheduler admits by
//!   [`JobSpec::priority`] with per-client fair share and aging against
//!   starvation, and its footprint estimates are **learned**: each
//!   completed job's measured peak scratch usage feeds an EWMA per
//!   `(algorithm, graph)` that replaces the static per-vertex hint on the
//!   next submission;
//! * a **retryable** failure requeues the job (up to
//!   [`JobSpec::max_retries`]) under a fresh per-attempt scratch scope;
//! * concurrent jobs over one graph are isolated by per-attempt scratch
//!   directories ([`dfo_core::Cluster::run_scoped`]) while sharing the
//!   graph's chunk caches and disk/network throttles, and a cooperative
//!   cancellation token is checked collectively at every `Process`-call
//!   boundary;
//! * each finished job yields a [`JobReport`]: per-rank outputs, per-job
//!   [`dfo_types::PhaseStats`] totals (chunk-cache hits and misses counted
//!   at the job's own lookup sites, so concurrent jobs cannot pollute each
//!   other's numbers), and the shared caches' counter deltas over the job's
//!   wall-clock window.
//!
//! * observability: every graph's cluster feeds one shared
//!   [`dfo_obs::Registry`] (series labeled `graph`/`rank`), finished jobs
//!   add cache and outcome counters per `(graph, algorithm)`, and
//!   `cfg.metrics_addr` (or `DFO_METRICS_ADDR`) exposes it all through a
//!   [`MetricsServer`] scrape endpoint — `GET /metrics` for Prometheus
//!   text, `GET /metrics.json` for a JSON snapshot.
//!
//! The in-process [`Service`] and rank 0 of the remote [`Daemon`] are two
//! front ends to one job executor (submit-time validation, admission,
//! cancellation, the retry rule, reports and metrics). They differ only in
//! how an admitted attempt runs — threads in this process, or a fan-out
//! over the resident TCP mesh — and in how job events reach the submitter:
//! a [`JobHandle`], or a [`DfoClient`] connection.

mod catalog;
mod client;
mod daemon;
mod estimator;
mod executor;
mod job;
mod metrics;
mod sched;
mod service;
mod wire;

pub use catalog::CatalogEntry;
pub use client::{DfoClient, RemoteJobHandle};
pub use daemon::Daemon;
pub use job::{JobHandle, JobReport};
pub use metrics::MetricsServer;
pub use service::Service;
pub use wire::PROTO_VERSION;

// The job vocabulary ([`JobSpec`], [`JobPhase`], [`JobStatus`]) moved to
// `dfo_types::jobspec` when the remote protocol made it a wire format.
// These re-exports keep every pre-existing `dfo_service::JobSpec` import
// path compiling unchanged — new code may import from either crate.
pub use dfo_types::{JobPhase, JobSpec, JobStatus};

// The vocabulary types a service caller needs, so `dfo_service` (or the
// facade's `service::*`) is a self-sufficient import.
pub use dfo_algos::{AlgoOutput, EdgeDataKind, JobParams, OutputKind};
pub use dfo_types::{DfoError, EngineConfig, PhaseStats, Result};
