//! The pluggable spatial-index layer behind the [`crate::Grid`] facade.
//!
//! CPM's maintenance algorithms are deliberately index-agnostic: they only
//! ever ask *"which objects fall in this conceptual cell / region?"*.
//! [`SpatialIndex`] captures exactly that contract. Every backend answers
//! over the **same conceptual cell space** ([`GridGeom`]: `dim × dim`
//! cells of side `δ = 1/dim`), so query results are a function of the
//! object population and the geometry alone — switching backends can
//! change *how fast* a cell scan is, never *what it returns*. The
//! conformance harness (`cpm_sim::verify`, whose lanes vary the backend)
//! asserts precisely this: bit-identical results, changed-lists and delta
//! streams across backends.
//!
//! Backends:
//!
//! * [`crate::CellIndex`] — the paper-exact uniform grid (default): one
//!   dense bucket per occupied cell behind a `dim²` directory.
//! * [`crate::QuadtreeIndex`] — an adaptive region quadtree for skewed
//!   populations: sparse regions collapse into shallow leaves while
//!   hotspots split down to single-cell leaves, bounding storage by
//!   occupancy instead of resolution.
//! * [`DynIndex`] — a runtime-selected enum over the above, used by
//!   `CpmServerBuilder::index` so one server type serves every backend.
//!
//! Selection is by [`IndexKind`], a small plain-data description that
//! snapshots record so recovery rebuilds the same structure.

use std::fmt;

use cpm_geom::{ObjectId, Point, Rect};

use crate::{CellCoord, CellIndex, GridGeom, ObjectStore, QuadtreeIndex};

/// A pluggable object index over the conceptual `dim × dim` cell space.
///
/// The trait is the concrete [`CellIndex`] surface abstracted: per-cell
/// dense-bucket reads, allocation-free region covers, the insert/remove
/// mutators (which keep the [`ObjectStore`] back-pointers in lock step),
/// occupancy statistics, and whole-index rebuild at a new resolution.
///
/// # Contract
///
/// * [`SpatialIndex::objects_in`] returns **exactly** the live objects in
///   the queried conceptual cell — never a superset (a coarser node's
///   population), never a subset.
/// * The region covers ([`SpatialIndex::cells_in_rect`] /
///   [`SpatialIndex::cells_in_circle`]) enumerate every intersecting
///   conceptual cell, **occupied or not**: the monitors register empty
///   cells in their influence regions so objects moving *into* them are
///   noticed.
/// * Mutators maintain the store's back-pointers so that
///   `detach(attach(x)) = x` is O(occupancy-bounded) and never searches.
///
/// Implementing this trait outside `cpm-grid` is not currently supported:
/// the back-pointer channel through [`ObjectStore`] is crate-internal.
pub trait SpatialIndex: fmt::Debug + Send + Sync {
    /// The backend's kind + parameters (what snapshots record so recovery
    /// rebuilds the same structure).
    fn kind(&self) -> IndexKind;

    /// The conceptual cell geometry (dimension, `δ`) this index answers
    /// at.
    fn geom(&self) -> GridGeom;

    /// Number of non-empty conceptual cells.
    fn occupied_count(&self) -> usize;

    /// Population of the fullest conceptual cell (0 when empty) —
    /// maintained incrementally (O(1) per update), so per-cycle occupancy
    /// polling by the re-grid controller is free.
    fn hot_cell_max(&self) -> usize;

    /// The objects currently inside conceptual cell `c`, as a contiguous
    /// slice (empty if the cell is unoccupied).
    ///
    /// A full scan of the returned slice is what the experiments count as
    /// one *cell access* (Section 6, Figure 6.3b).
    fn objects_in(&self, c: CellCoord) -> &[ObjectId];

    /// The coordinates of all non-empty conceptual cells, in unspecified
    /// order.
    fn occupied_cells(&self) -> Vec<CellCoord>;

    /// Bucket a live object at `p` (already clamped by the store) and
    /// write its back-pointer. Returns the conceptual cell it was placed
    /// in. Called by [`crate::Grid::insert`] only.
    fn attach(&mut self, store: &mut ObjectStore, oid: ObjectId, p: Point) -> CellCoord;

    /// Unbucket a live object through its back-pointer (no search, no
    /// object-id hashing). Returns the conceptual cell it left. Called by
    /// [`crate::Grid::remove`] only.
    fn detach(&mut self, store: &mut ObjectStore, oid: ObjectId) -> CellCoord;

    /// Rebuild this index at a new resolution from the store's positions,
    /// re-attaching objects in ascending id order (so the resulting layout
    /// is identical to a fresh populate — the property that makes
    /// engine-level re-grids bit-reproducible against a from-scratch
    /// build).
    ///
    /// # Panics
    /// Panics if [`IndexKind::check_dim`] rejects `new_dim` for this
    /// backend's kind; engine-level `regrid_to` validates first and
    /// returns a typed error instead.
    fn rebuild(&mut self, store: &mut ObjectStore, new_dim: u32);

    /// Verify the backend's internal invariants against the store
    /// (test helper; O(total state)).
    #[doc(hidden)]
    fn check_integrity(&self, store: &ObjectStore);

    /// Iterate, in row-major order and without allocating, over all cells
    /// (occupied or not) whose extent intersects `region`. See
    /// [`GridGeom::cells_in_rect`].
    fn cells_in_rect(&self, region: &Rect) -> impl Iterator<Item = CellCoord>
    where
        Self: Sized,
    {
        self.geom().cells_in_rect(region)
    }

    /// Iterate, without allocating, over all cells whose extent intersects
    /// the closed disk `(center, radius)`. See
    /// [`GridGeom::cells_in_circle`].
    fn cells_in_circle(&self, center: Point, radius: f64) -> impl Iterator<Item = CellCoord>
    where
        Self: Sized,
    {
        self.geom().cells_in_circle(center, radius)
    }
}

/// Default per-leaf occupancy threshold above which a quadtree leaf
/// splits.
pub const DEFAULT_SPLIT_THRESHOLD: u32 = 32;

/// Which [`SpatialIndex`] backend a grid (or server) uses, plus its
/// parameters. Plain data: snapshots record it so recovery rebuilds the
/// same structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// The paper-exact uniform grid ([`CellIndex`]): one dense bucket per
    /// occupied cell behind a `dim²` directory. The default.
    #[default]
    Uniform,
    /// An adaptive region quadtree ([`QuadtreeIndex`]) over the same
    /// conceptual cells. Requires a power-of-two dimension (tree levels
    /// must align with the conceptual cell boundaries).
    Quadtree {
        /// Leaves holding more than this many objects split (until they
        /// cover a single conceptual cell). Must be ≥ 1.
        split_threshold: u32,
    },
}

impl IndexKind {
    /// The quadtree kind with the default split threshold
    /// ([`DEFAULT_SPLIT_THRESHOLD`]).
    pub const fn quadtree() -> Self {
        IndexKind::Quadtree {
            split_threshold: DEFAULT_SPLIT_THRESHOLD,
        }
    }

    /// Short stable name for display and recorded artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Uniform => "uniform",
            IndexKind::Quadtree { .. } => "quadtree",
        }
    }

    /// Validate this kind's own parameters and its compatibility with a
    /// `dim × dim` conceptual grid. This is the single source of truth
    /// behind both the panicking constructors and the `Result`-returning
    /// builder/engine surfaces.
    pub fn check_dim(&self, dim: u32) -> Result<(), GridConfigError> {
        let fail = |reason| {
            Err(GridConfigError {
                kind: *self,
                dim,
                reason,
            })
        };
        if dim == 0 || dim > 4096 {
            return fail("grid dimension must lie in 1..=4096");
        }
        match *self {
            IndexKind::Uniform => Ok(()),
            IndexKind::Quadtree { split_threshold } => {
                if split_threshold == 0 {
                    return fail("quadtree split threshold must be at least 1");
                }
                if !dim.is_power_of_two() {
                    return fail("quadtree dimension must be a power of two");
                }
                Ok(())
            }
        }
    }

    /// Build an empty [`DynIndex`] of this kind at `dim`.
    ///
    /// # Errors
    /// Returns the [`IndexKind::check_dim`] error on an invalid
    /// kind/dimension combination.
    pub fn build_index(&self, dim: u32) -> Result<DynIndex, GridConfigError> {
        self.check_dim(dim)?;
        Ok(match *self {
            IndexKind::Uniform => DynIndex::Uniform(CellIndex::new(dim)),
            IndexKind::Quadtree { split_threshold } => {
                DynIndex::Quadtree(QuadtreeIndex::new(dim, split_threshold))
            }
        })
    }
}

impl fmt::Display for IndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            IndexKind::Uniform => f.write_str("uniform"),
            IndexKind::Quadtree { split_threshold } => {
                write!(f, "quadtree(split_threshold={split_threshold})")
            }
        }
    }
}

/// An invalid index-kind / grid-dimension configuration, reported at
/// build time by [`crate::GridBuilder::try_build`] and
/// [`IndexKind::build_index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridConfigError {
    /// The requested backend kind.
    pub kind: IndexKind,
    /// The requested grid dimension.
    pub dim: u32,
    /// Why the combination was rejected.
    pub reason: &'static str,
}

impl fmt::Display for GridConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid grid config (kind {}, dim {}): {}",
            self.kind, self.dim, self.reason
        )
    }
}

impl std::error::Error for GridConfigError {}

/// Exact count-of-counts histogram over bucket (conceptual-cell)
/// populations: `counts[l]` = number of cells currently holding `l`
/// objects (`l ≥ 1`). Both backends drive it from their mutators, making
/// [`SpatialIndex::hot_cell_max`] and
/// [`SpatialIndex::occupied_count`] O(1) reads with O(1) update cost —
/// every event changes exactly one cell's population by one.
#[derive(Debug, Clone, Default)]
pub(crate) struct OccupancyHistogram {
    /// `counts[l]` = number of cells with population `l`; index 0 unused.
    counts: Vec<usize>,
    /// Largest `l` with `counts[l] > 0` (0 when nothing is occupied).
    max: usize,
    /// Number of cells with population ≥ 1.
    occupied: usize,
}

impl OccupancyHistogram {
    /// A cell's population grew from `new_len - 1` to `new_len`.
    #[inline]
    pub(crate) fn on_attach(&mut self, new_len: usize) {
        debug_assert!(new_len >= 1);
        if new_len == 1 {
            self.occupied += 1;
        } else {
            self.counts[new_len - 1] -= 1;
        }
        if self.counts.len() <= new_len {
            self.counts.resize(new_len + 1, 0);
        }
        self.counts[new_len] += 1;
        if new_len > self.max {
            self.max = new_len;
        }
    }

    /// A cell's population shrank from `old_len` to `old_len - 1`.
    #[inline]
    pub(crate) fn on_detach(&mut self, old_len: usize) {
        debug_assert!(old_len >= 1);
        self.counts[old_len] -= 1;
        let new_len = old_len - 1;
        if new_len == 0 {
            self.occupied -= 1;
        } else {
            self.counts[new_len] += 1;
        }
        // Only one cell changed size, and it shrank by exactly one — so
        // if the old maximum emptied out, the shrunken cell itself (at
        // `old_len - 1`) is the new maximum (or nothing is occupied).
        if old_len == self.max && self.counts[old_len] == 0 {
            self.max = new_len;
        }
    }

    /// Population of the fullest cell (0 when empty).
    #[inline]
    pub(crate) fn max(&self) -> usize {
        self.max
    }

    /// Number of occupied cells.
    #[inline]
    pub(crate) fn occupied(&self) -> usize {
        self.occupied
    }

    /// Assert the histogram matches a brute-force recount of `sizes` (the
    /// non-empty bucket populations, in any order).
    #[doc(hidden)]
    pub(crate) fn check_against(&self, sizes: impl Iterator<Item = usize>) {
        let mut counts: Vec<usize> = Vec::new();
        let mut occupied = 0usize;
        let mut max = 0usize;
        for len in sizes {
            assert!(len >= 1, "empty bucket reported to histogram check");
            if counts.len() <= len {
                counts.resize(len + 1, 0);
            }
            counts[len] += 1;
            occupied += 1;
            max = max.max(len);
        }
        assert_eq!(self.occupied, occupied, "histogram occupied-cell drift");
        assert_eq!(self.max, max, "histogram hot-cell max drift");
        for (len, &n) in counts.iter().enumerate() {
            assert_eq!(
                self.counts.get(len).copied().unwrap_or(0),
                n,
                "histogram count drift at population {len}"
            );
        }
        for (len, &n) in self.counts.iter().enumerate() {
            assert_eq!(
                counts.get(len).copied().unwrap_or(0),
                n,
                "histogram phantom count at population {len}"
            );
        }
    }
}

/// The runtime-selected [`SpatialIndex`]: a closed enum over the built-in
/// backends, dispatching every call with an inlined `match`. This is what
/// `CpmServerBuilder::index` threads through the unified server so one
/// server type serves every backend without boxing.
#[derive(Debug, Clone)]
pub enum DynIndex {
    /// The paper-exact uniform grid.
    Uniform(CellIndex),
    /// The adaptive region quadtree.
    Quadtree(QuadtreeIndex),
}

impl DynIndex {
    /// An empty backend of `kind` at `dim` (panicking counterpart of
    /// [`IndexKind::build_index`], for contexts that validated already).
    ///
    /// # Panics
    /// Panics if [`IndexKind::check_dim`] rejects the combination.
    pub fn new(kind: IndexKind, dim: u32) -> Self {
        kind.build_index(dim).unwrap_or_else(|e| panic!("{e}"))
    }
}

macro_rules! dyn_dispatch {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            DynIndex::Uniform($inner) => $body,
            DynIndex::Quadtree($inner) => $body,
        }
    };
}

impl SpatialIndex for DynIndex {
    #[inline]
    fn kind(&self) -> IndexKind {
        dyn_dispatch!(self, i => i.kind())
    }

    #[inline]
    fn geom(&self) -> GridGeom {
        dyn_dispatch!(self, i => i.geom())
    }

    #[inline]
    fn occupied_count(&self) -> usize {
        dyn_dispatch!(self, i => i.occupied_count())
    }

    #[inline]
    fn hot_cell_max(&self) -> usize {
        dyn_dispatch!(self, i => i.hot_cell_max())
    }

    #[inline]
    fn objects_in(&self, c: CellCoord) -> &[ObjectId] {
        dyn_dispatch!(self, i => i.objects_in(c))
    }

    fn occupied_cells(&self) -> Vec<CellCoord> {
        dyn_dispatch!(self, i => SpatialIndex::occupied_cells(i))
    }

    #[inline]
    fn attach(&mut self, store: &mut ObjectStore, oid: ObjectId, p: Point) -> CellCoord {
        dyn_dispatch!(self, i => i.attach(store, oid, p))
    }

    #[inline]
    fn detach(&mut self, store: &mut ObjectStore, oid: ObjectId) -> CellCoord {
        dyn_dispatch!(self, i => i.detach(store, oid))
    }

    fn rebuild(&mut self, store: &mut ObjectStore, new_dim: u32) {
        dyn_dispatch!(self, i => i.rebuild(store, new_dim))
    }

    fn check_integrity(&self, store: &ObjectStore) {
        dyn_dispatch!(self, i => i.check_integrity(store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_validation_names_the_reason() {
        assert!(IndexKind::Uniform.check_dim(100).is_ok());
        assert!(IndexKind::quadtree().check_dim(64).is_ok());
        let e = IndexKind::quadtree().check_dim(100).unwrap_err();
        assert!(e.to_string().contains("power of two"), "{e}");
        let e = IndexKind::Quadtree { split_threshold: 0 }
            .check_dim(64)
            .unwrap_err();
        assert!(e.to_string().contains("split threshold"), "{e}");
        let e = IndexKind::Uniform.check_dim(0).unwrap_err();
        assert!(e.to_string().contains("1..=4096"), "{e}");
        assert!(IndexKind::Uniform.check_dim(5000).is_err());
    }

    #[test]
    fn kind_display_and_names_are_stable() {
        assert_eq!(IndexKind::Uniform.to_string(), "uniform");
        assert_eq!(IndexKind::Uniform.name(), "uniform");
        assert_eq!(IndexKind::quadtree().name(), "quadtree");
        assert_eq!(
            IndexKind::Quadtree { split_threshold: 8 }.to_string(),
            "quadtree(split_threshold=8)"
        );
        assert_eq!(IndexKind::default(), IndexKind::Uniform);
    }

    #[test]
    fn histogram_tracks_exact_max_under_churn() {
        let mut h = OccupancyHistogram::default();
        // Two cells: a grows to 3, b grows to 2.
        h.on_attach(1); // a: 1
        h.on_attach(2); // a: 2
        h.on_attach(3); // a: 3
        h.on_attach(1); // b: 1
        h.on_attach(2); // b: 2
        assert_eq!(h.max(), 3);
        assert_eq!(h.occupied(), 2);
        // a shrinks 3 → 2: the max must fall to 2 (b also sits at 2).
        h.on_detach(3);
        assert_eq!(h.max(), 2);
        // a 2 → 1, b 2 → 1 → max 1; then drain both.
        h.on_detach(2);
        h.on_detach(2);
        assert_eq!(h.max(), 1);
        h.on_detach(1);
        h.on_detach(1);
        assert_eq!(h.max(), 0);
        assert_eq!(h.occupied(), 0);
        h.check_against(std::iter::empty());
    }
}
