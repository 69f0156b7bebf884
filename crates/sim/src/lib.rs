//! Simulation driver, ground-truth oracle, metrics collection, experiment
//! parameterization and the conformance harness of the CPM reproduction
//! suite.
//!
//! * [`algo`] — the [`KnnMonitorAlgo`] trait unifying CPM, YPK-CNN,
//!   SEA-CNN and the oracle behind one driving surface.
//! * [`oracle`] — brute-force ground truth ([`brute_force`] for any query
//!   geometry, [`OracleMonitor`] for k-NN streams).
//! * [`params`] — Table 6.1 parameters with paper defaults and scaling.
//! * [`stream`] — pre-generated update streams so every contender replays
//!   the identical workload.
//! * [`runner`] — timed replay, per-run reports, and
//!   [`verify_against_oracle`], the check of the YPK-CNN and SEA-CNN
//!   baselines.
//! * [`ops`], [`lane`], [`verify`](mod@verify) — the conformance harness:
//!   one seeded [`OpStream`] (the mixed-kind churn generator or a paper
//!   k-NN stream, plus crash / re-grid / snapshot / restart controls),
//!   replayed into the reference server and into every [`LaneConfig`]
//!   (threads × re-grid policy × single / durable / cluster) by
//!   [`verify()`], which asserts bit-identical delta batches,
//!   replicas and results, brute-force agreement and thread-invariant
//!   counters after every cycle.
//! * [`viz`] — ASCII rendering of a query's book-keeping.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algo;
pub mod lane;
pub mod ops;
pub mod oracle;
pub mod params;
pub mod runner;
pub mod stream;
pub mod verify;
pub mod viz;

pub use algo::{AlgoKind, KnnMonitorAlgo};
pub use lane::{auto_regrid_policy, Deploy, LaneConfig, Regrid};
pub use ops::{Anchors, Control, CycleOps, OpStream};
pub use oracle::{brute_force, brute_rnn, OracleMonitor};
pub use params::{SimParams, WorkloadKind};
pub use runner::{run, run_boxed, run_contenders, verify_against_oracle, RunReport};
pub use stream::SimulationInput;
pub use verify::{verify, Verified};
