//! Main-memory conceptual-grid index over moving objects.
//!
//! This is the object index `G` of Section 3: a regular grid of `dim × dim`
//! cells with side `δ = 1/dim` over the unit-square workspace. Cell `c_{i,j}`
//! (column `i`, row `j`, counted from the lower-left corner) contains every
//! object with `x ∈ [i·δ, (i+1)·δ)` and `y ∈ [j·δ, (j+1)·δ)`; conversely an
//! object at `(x, y)` belongs to cell `(⌊x/δ⌋, ⌊y/δ⌋)`.
//!
//! The same grid instance is shared by CPM and by the YPK-CNN / SEA-CNN
//! baselines — all three assume exactly this index (the paper compares the
//! algorithms, not the indexes).
//!
//! # Three-layer storage: [`ObjectStore`] + [`CellIndex`] + [`GridGeom`]
//!
//! [`Grid`] is a thin facade composing layers with disjoint concerns:
//!
//! * [`ObjectStore`] — the **δ-independent** object table: one position
//!   slot per object id (`s_obj = 3·N` memory units of the space
//!   analysis), and the live ids in ascending order, which the index's
//!   sort walks.
//! * [`CellIndex`] — the **cell→objects** index at one δ: every live
//!   object's `(id, x, y)` in columns ordered by cell, over the per-cell
//!   offsets of a [`CellRuns`] (the CSR layout), rebuilt by one counting
//!   sort per batch. A cell scan is one contiguous [`CellRun`].
//! * [`GridGeom`] — the `Copy` conceptual cell geometry (point→cell
//!   mapping, cell extents, `mindist`, allocation-free region covers).
//!   The search algorithms only consume geometry plus per-cell runs.
//!
//! [`apply_events`] is the one mutator: a batch's events are position
//! writes into the store, followed by one sort of the index. The
//! store/index split is what makes **online re-gridding** cheap and
//! safe: [`Grid::regrid`] is the same sort at the new resolution, so its
//! layout is identical to a fresh build, while the object table — and
//! every `oid → position` answer read through it — is untouched.
//! Re-gridding is also the one answer to skew: δ moves, the structure
//! does not.
//!
//! Grids are constructed through [`GridBuilder`], which validates the
//! dimension ([`GridGeom::check_dim`]) at build time.
//!
//! [`CellRuns`] is the one by-cell layout and the one sort that builds
//! it. The query side keeps its per-cell *influence lists* outside the
//! grid, over the shared object index: the CPM engine reads each query's
//! influence cells from the query's own visit list against the cycle's
//! moves sorted by cell, and SEA-CNN sorts its answer regions' marks by
//! cell. Both sorts are a [`CellRuns`], as the index's is.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod coord;
pub mod events;
mod geom;
mod grid;
mod index;
pub mod kernels;
mod metrics;
mod runs;
mod store;

pub use coord::CellCoord;
pub use events::{apply_events, ObjectEvent, QueryEvent, UpdateRecord};
pub use geom::{GridConfigError, GridGeom};
pub use grid::{Grid, GridBuilder, GridStats};
pub use index::CellIndex;
pub use kernels::{CellRun, Coords};
pub use metrics::{KindMetrics, Metrics, QueryKind};
pub use runs::CellRuns;
pub use store::ObjectStore;
