//! # cpm-suite
//!
//! A complete, from-scratch reproduction of *"Conceptual Partitioning: An
//! Efficient Method for Continuous Nearest Neighbor Monitoring"*
//! (Mouratidis, Hadjieleftheriou, Papadias — SIGMOD 2005).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`geom`] — geometry & utility substrate ([`cpm_geom`]).
//! * [`grid`] — the main-memory object index: the paper's regular grid,
//!   built through [`GridBuilder`] and re-gridded online ([`cpm_grid`]).
//! * [`core`] — CPM itself, behind one front end: [`core::CpmServer`],
//!   every query kind (k-NN, aggregate-NN, constrained-NN, range,
//!   reverse-NN) on one grid with one ingest pass per cycle, each call
//!   and batch validated before any state changes, plus per-cycle result
//!   deltas ([`cpm_core`]).
//! * [`sub`] — the delta-streaming subscription layer: the
//!   epoch-numbered delta fan-out with per-subscription mailboxes, and
//!   client-side replicas ([`cpm_sub`]).
//! * [`wire`] — the versioned, checksummed binary codec under the
//!   durability layer: framing, the append-only journal, typed decode
//!   errors ([`cpm_wire`]); snapshots and crash recovery live in
//!   [`core::snapshot`].
//! * [`cluster`] — multi-node operation: workspace-partitioned workers
//!   behind a routing coordinator, merged delta streams bit-identical to
//!   a single node ([`cpm_cluster`]).
//! * [`baselines`] — YPK-CNN and SEA-CNN ([`cpm_baselines`]).
//! * [`gen`] — Brinkhoff-style network workloads ([`cpm_gen`]).
//! * [`sim`] — simulation driver, oracle and experiment harness
//!   ([`cpm_sim`]).
//!
//! ## Quickstart
//!
//! ```
//! use std::num::NonZeroUsize;
//!
//! use cpm_suite::core::{CpmError, CpmServerBuilder, PointQuery};
//! use cpm_suite::geom::{ObjectId, Point, QueryId};
//! use cpm_suite::grid::ObjectEvent;
//!
//! // A 128×128 grid over the unit square, maintained on one thread (the
//! // default is every hardware thread; results are identical).
//! let mut server = CpmServerBuilder::new(128)
//!     .threads(NonZeroUsize::MIN)
//!     .build();
//! server.populate([
//!     (ObjectId(0), Point::new(0.21, 0.35)),
//!     (ObjectId(1), Point::new(0.57, 0.60)),
//!     (ObjectId(2), Point::new(0.80, 0.10)),
//! ])?;
//! server.install_spec(QueryId(0), PointQuery(Point::new(0.5, 0.5)), 2)?;
//!
//! // Taxi 2 drives next to the query point.
//! let update = [ObjectEvent::Move { id: ObjectId(2), to: Point::new(0.52, 0.48) }];
//! server.process_cycle(&update, &[])?;
//! assert_eq!(server.result(QueryId(0)).unwrap()[0].id, ObjectId(2));
//!
//! // One event per object per batch, and only a live object moves: a
//! // malformed batch is a typed refusal, and nothing changes.
//! let lost = [ObjectEvent::Move { id: ObjectId(9), to: Point::new(0.5, 0.5) }];
//! assert_eq!(
//!     server.process_cycle(&lost, &[]),
//!     Err(CpmError::Liveness { id: ObjectId(9), live: false })
//! );
//! # Ok::<(), CpmError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use cpm_baselines as baselines;
pub use cpm_cluster as cluster;
pub use cpm_core as core;
pub use cpm_gen as gen;
pub use cpm_geom as geom;
pub use cpm_grid as grid;
pub use cpm_sim as sim;
pub use cpm_sub as sub;
pub use cpm_wire as wire;

// Re-exported flat: embedders build a standalone grid and read its
// occupancy without importing `cpm_grid`.
pub use cpm_grid::{GridBuilder, GridStats};
