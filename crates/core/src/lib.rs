//! Conceptual Partitioning Monitoring (CPM) — the primary contribution of
//! *"Conceptual Partitioning: An Efficient Method for Continuous Nearest
//! Neighbor Monitoring"* (Mouratidis, Hadjieleftheriou, Papadias; SIGMOD
//! 2005), implemented in full:
//!
//! * [`partition`] — the conceptual space partitioning into direction/level
//!   rectangles around a query (Section 3.1, Lemma 3.1), generalized to
//!   rectangular bases for aggregate queries (Section 5).
//! * [`engine`] — the **one** implementation of the maintenance
//!   algorithm: NN computation (Fig. 3.4), re-computation (Fig. 3.6),
//!   batched update handling with the incoming/outgoing optimization
//!   (Fig. 3.8) and the monitoring cycle (Fig. 3.9), written once over
//!   one query type, [`AnyQuerySpec`], which dispatches to each kind's
//!   [`QuerySpec`]. The paper's k-NN query is the [`PointQuery`] spec.
//! * [`server`] — [`CpmServer`] (via [`CpmServerBuilder`]), the one front
//!   end: every query kind on one shared grid with a single per-cycle
//!   ingest, queries addressed by id and described by an
//!   [`AnyQuerySpec`], and a [`CpmError`]-based registry that rejects
//!   malformed calls and batches before any state changes. Behind it, a
//!   crate-private engine (a grid plus one query core) runs the resolve
//!   step, query events and re-grids on `T ≥ 1` threads, bit-identical
//!   for every `T`; `T = 1` spawns no thread.
//! * [`ann`], [`constrained`], [`range`], [`rnn`] — the Section 5 query
//!   geometries ([`AnnQuery`] for `sum`/`min`/`max` aggregates,
//!   [`ConstrainedQuery`], [`RangeQuery`], and the reverse-NN sector
//!   candidates [`RnnQuery`]), each a [`QuerySpec`] of the same engine.
//! * [`any`] — [`AnyQuerySpec`], the enum over every query geometry: the
//!   one query type of the engine.
//! * [`error`] — the typed error surface ([`CpmError`]).
//! * [`rules`] — [`BatchRules`], the one rule set every event batch is
//!   checked with before anything changes: the server's, and the cluster
//!   coordinator's.
//! * [`delta`] — per-cycle result deltas ([`NeighborDelta`]), extracted
//!   inside the maintenance phase and concatenated deterministically
//!   across threads; the wire format of the [`cpm-sub`] subscription
//!   layer.
//! * [`analysis`] — the closed-form cost model of Section 4.1.
//! * [`snapshot`] — crash-consistent durability: logical snapshots, an
//!   append-only operation journal (over the [`cpm_wire`] codec), and the
//!   [`DurableCpmServer`] checkpoint/replay recovery wrapper.
//! * [`regrid`] — cost-model-driven **online re-gridding**: the server
//!   re-evaluates its grid resolution against the observed workload at
//!   cycle boundaries ([`RegridPolicy`]), migrating the cell index and
//!   re-registering queries in one deterministic pass while results,
//!   changed lists and delta streams stay bit-identical to a from-scratch
//!   build at the new δ.
//!
//! [`cpm-sub`]: ../cpm_sub/index.html
//!
//! The substrate (grid index, influence lists, metrics) lives in
//! [`cpm_grid`]; geometry primitives in [`cpm_geom`].
//!
//! Start from the example on [`CpmServer`]: algorithms, figures, tests
//! and production all drive CPM through it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod ann;
pub mod any;
pub mod codec;
pub mod constrained;
pub mod delta;
pub mod engine;
pub mod error;
pub mod heap;
pub mod neighbors;
pub mod partition;
pub mod range;
pub mod regrid;
pub mod rnn;
pub mod rules;
pub mod server;
mod shard;
pub mod snapshot;

pub use analysis::CostModel;
pub use ann::{AggregateFn, AnnQuery};
pub use any::AnyQuerySpec;
pub use constrained::ConstrainedQuery;
pub use delta::{CycleDeltas, DeltaScratch, NeighborDelta};
pub use engine::{PointQuery, QuerySpec, SpecEvent, SpecQueryState};
pub use error::CpmError;
pub use neighbors::{Neighbor, NeighborList};
pub use partition::{Direction, Pinwheel, Strip};
pub use range::{RangeQuery, Region};
pub use regrid::RegridPolicy;
pub use rnn::RnnQuery;
pub use rules::BatchRules;
pub use server::{CpmServer, CpmServerBuilder};
pub use snapshot::{
    DurableCpmServer, EngineSnapshot, JournalRecord, RecoveryError, RecoveryReport, Snapshot,
};
