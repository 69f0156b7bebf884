//! # cpm-cluster — multi-node CPM behind a routing coordinator
//!
//! The engine parallelizes maintenance over threads inside one process; this
//! crate is the next scale step: the workspace is partitioned into
//! rectangular tiles over the grid geometry, each tile owned by a
//! **worker** running its own [`cpm_core::CpmServer`], and a
//! **coordinator** routes update batches, installs queries, and merges
//! the epoch-numbered per-cycle delta batches the workers ship back over
//! `cpm-wire` frames.
//!
//! * [`partition`] — tiles, coverage regions and the influence-region
//!   certificate behind the single-node-equivalence guarantee.
//! * [`transport`] / [`tcp`] — the [`Transport`] boundary: a
//!   deterministic in-process duplex channel and a `std::net::TcpStream`
//!   loopback backend (no extra dependencies).
//! * [`worker`] — the serve loop: validate, run the cycle, ship deltas;
//!   every refusal is a typed [`ClusterError`], never a silent drop.
//! * [`merge`] — the coordinator's epoch-aligned barrier and canonical
//!   ascending-query-id merge, decoded in place from the received frames.
//! * [`coordinator`] — query installation, object routing with
//!   boundary-overlap replication, worker restart via snapshot
//!   transfer, and the merged delta stream (which feeds the `cpm-sub`
//!   fan-out unchanged) — a cycle at a time through `process_cycle`, or
//!   one epoch in flight through `submit_cycle`.
//!
//! The correctness bar is the house one: the merged cross-node delta
//! stream and changed lists are **bit-identical** to a single-node
//! server across worker counts, transports, both cycle calls and a
//! mid-run worker restart (`cpm_sim::verify` over cluster lanes, and
//! `tests/cluster.rs`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coordinator;
pub mod error;
pub mod merge;
pub mod partition;
pub mod tcp;
pub mod transport;
pub mod worker;

pub use coordinator::{
    ClusterConfig, ClusterCoordinator, CoordinatorMetrics, CycleTimings, WorkerHandle,
};
pub use error::ClusterError;
pub use merge::MergeBuffer;
pub use partition::{anchor_of, influence_bbox, Partition};
pub use tcp::TcpTransport;
pub use transport::{duplex, ChannelTransport, Transport, TransportError};
pub use worker::{run_worker, ClusterWorker};
