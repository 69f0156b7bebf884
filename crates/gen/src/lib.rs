//! Network-based moving-object workload generator for continuous spatial
//! query benchmarks — the Brinkhoff \[B02\] substitute of this suite: the
//! paper's Oldenburg road map is not redistributable, so [`network`]
//! synthesizes road networks with the statistics that matter here.
//!
//! * [`network`] — synthetic road networks (perturbed street grid and
//!   random geometric graph), connectivity-repaired.
//! * [`path`] — Dijkstra shortest paths and the [`Traveler`] polyline
//!   walker.
//! * [`workload`] — the object/query life cycle of Section 6: appear →
//!   shortest path → disappear for objects; persistent re-targeting
//!   queries; agility (`f_obj`, `f_qry`) and speed classes per Table 6.1.
//! * [`uniform`] — the uniform random-displacement model assumed by the
//!   Section 4.1 analysis.
//! * [`skewed`] — Gaussian-hotspot data with drifting centers, the skewed
//!   regime the paper points at hierarchical grids for.
//! * [`faults`] — seeded crash/corruption schedules ([`FaultPlan`]) for
//!   the conformance harness's durable lanes (`cpm_sim::Control::Crash`).
//! * [`drift`] — a single hotspot whose center moves **every** tick while
//!   the population breathes between a base and a peak count: the stream
//!   whose cost-model-optimal grid resolution changes mid-run, built as
//!   the adversary for online re-gridding.
//!
//! All generators are deterministic given their seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod drift;
pub mod faults;
pub mod network;
pub mod path;
pub mod skewed;
pub mod speed;
pub mod uniform;
pub mod workload;

pub use drift::{DriftConfig, DriftingHotspotWorkload};
pub use faults::{Corruption, FaultPlan};
pub use network::{NodeId, RoadNetwork};
pub use path::{path_length, shortest_path, Traveler};
pub use skewed::{SkewConfig, SkewedWorkload};
pub use speed::SpeedClass;
pub use uniform::UniformWorkload;
pub use workload::{NetworkWorkload, TickEvents, WorkloadConfig};
