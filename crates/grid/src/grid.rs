//! The uniform cell-index backend and the composed grid facade.
//!
//! [`CellIndex`] is the paper-exact backend of the [`SpatialIndex`]
//! layer: dense per-cell buckets behind a `dim²` directory of `u32`
//! slots, addressed by the conceptual cell geometry ([`GridGeom`]) — a
//! cell access is an array read, never a hash probe. [`Grid`] composes **any**
//! backend with the δ-independent [`ObjectStore`] (positions +
//! back-pointers) and presents the classic single-type index surface the
//! monitors were written against — plus [`Grid::regrid`], which rebuilds
//! the index at a different resolution **without ever touching the
//! object tables**. New code constructs grids through [`GridBuilder`],
//! which validates the dimension / [`IndexKind`] combination at build
//! time.

use cpm_geom::{ObjectId, Point, Rect};

use crate::directory::CellDirectory;
use crate::index::OccupancyHistogram;
use crate::store::BackRef;
use crate::{CellCoord, DynIndex, GridConfigError, GridGeom, IndexKind, ObjectStore, SpatialIndex};

/// The uniform-grid [`SpatialIndex`] backend: cell buckets plus the
/// conceptual cell geometry. The paper-exact default.
///
/// # Storage layout (directory + dense slot-based buckets)
///
/// `cell.id(dim)` is row-major and dense, so the per-cell lookup is a
/// **directory**: one `u32` per conceptual cell, `0` for an empty cell,
/// `s + 1` for a cell whose objects live in slot `s` of a bucket slab.
/// It costs 4 bytes per cell whatever the occupancy — 64 KiB at 128²,
/// 1 MiB at 512², 4 MiB at the paper's largest granularity of 1024²
/// (where ~10 % of the cells are occupied by the default 100K objects),
/// 64 MiB at the 4096² ceiling — and is allocated zeroed, so the pages of
/// never-occupied regions are not resident. A workspace far too sparse
/// for that trade belongs on [`crate::QuadtreeIndex`]. Only occupied
/// cells own storage beyond their directory entry, a **contiguous
/// `Vec<ObjectId>` bucket** rather than a hash set:
///
/// * a cell scan — the unit the experiments count as one *cell access*
///   (Section 6, Figure 6.3b) — is one directory read and a linear sweep
///   over contiguous memory;
/// * the per-object back-pointer table (`oid → (cell_id, slot)`, stored in
///   [`ObjectStore`] because its shape is δ-independent) makes removal
///   O(1) via *swap-remove*: the last bucket element is moved into the
///   vacated slot and its back-pointer is patched. Nothing is hashed on
///   the update path, and `Time_ind = 2` of the Section 4.1 cost model —
///   one deletion plus one insertion per location update — is preserved
///   exactly;
/// * a bucket that empties leaves its slab slot vacant with its
///   allocation in place (up to a pool cap), so steady-state update churn
///   is allocation-free.
///
/// Swap-remove reorders bucket contents, which is invisible to the
/// monitoring algorithms: the paper treats cell object lists as unordered
/// sets, and every consumer scans whole buckets.
///
/// All mutation goes through the composed [`Grid`]; the
/// [`SpatialIndex`] mutators keep bucket membership, the store's
/// back-pointers, and the occupancy histogram in lock step.
#[derive(Debug, Clone)]
pub struct CellIndex {
    geom: GridGeom,
    /// Packed cell id → dense bucket of the objects in the cell.
    /// Invariant: every stored bucket is non-empty.
    cells: CellDirectory<ObjectId>,
    /// Incremental occupancy statistics (occupied cells, hot-cell max).
    hist: OccupancyHistogram,
}

impl CellIndex {
    /// An empty index with `dim × dim` cells over the unit square.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `dim > 4096` (the packed-coordinate and
    /// clamping assumptions hold for `δ ≥ 1/4096`; the paper uses at most
    /// 1024).
    pub fn new(dim: u32) -> Self {
        let geom = GridGeom::new(dim);
        Self {
            geom,
            cells: CellDirectory::new(geom.total_cells()),
            hist: OccupancyHistogram::default(),
        }
    }

    /// Grid dimension (cells per axis).
    #[inline]
    pub fn dim(&self) -> u32 {
        self.geom.dim()
    }

    /// Cell side length `δ`.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.geom.delta()
    }

    /// Number of non-empty cells.
    #[inline]
    pub fn occupied_count(&self) -> usize {
        self.cells.occupied()
    }

    /// The cell containing point `p` (see [`GridGeom::cell_of`]).
    #[inline]
    pub fn cell_of(&self, p: Point) -> CellCoord {
        self.geom.cell_of(p)
    }

    /// The spatial extent of cell `c`.
    #[inline]
    pub fn cell_rect(&self, c: CellCoord) -> Rect {
        self.geom.cell_rect(c)
    }

    /// `mindist(c, q)`: minimum distance between cell `c` and point `q`
    /// (Table 3.1).
    #[inline]
    pub fn mindist(&self, c: CellCoord, q: Point) -> f64 {
        self.geom.mindist(c, q)
    }

    /// Squared `mindist(c, q)`, for comparison-only call sites.
    #[inline]
    pub fn mindist_sq(&self, c: CellCoord, q: Point) -> f64 {
        self.geom.mindist_sq(c, q)
    }

    /// The objects currently inside cell `c`, as a contiguous slice (empty
    /// if the cell is unoccupied).
    #[inline]
    pub fn objects_in(&self, c: CellCoord) -> &[ObjectId] {
        self.cells.get(c.id(self.geom.dim()))
    }

    /// Iterate over the coordinates of all non-empty cells, in
    /// unspecified order.
    pub fn occupied_cells(&self) -> impl Iterator<Item = CellCoord> + '_ {
        let geom = self.geom;
        self.cells.iter().map(move |(id, _)| geom.cell_from_id(id))
    }

    /// Iterate, in row-major order and without allocating, over all cells
    /// (occupied or not) whose extent intersects `region`. See
    /// [`GridGeom::cells_in_rect`].
    pub fn cells_in_rect(&self, region: &Rect) -> impl Iterator<Item = CellCoord> {
        self.geom.cells_in_rect(region)
    }

    /// Iterate, without allocating, over all cells whose extent intersects
    /// the closed disk `(center, radius)`. See
    /// [`GridGeom::cells_in_circle`].
    pub fn cells_in_circle(&self, center: Point, radius: f64) -> impl Iterator<Item = CellCoord> {
        self.geom.cells_in_circle(center, radius)
    }

    /// Collecting wrapper around [`CellIndex::cells_in_rect`] for callers
    /// that need an owned list; the hot paths use the iterator directly.
    pub fn cells_intersecting_rect(&self, region: &Rect) -> Vec<CellCoord> {
        self.geom.cells_intersecting_rect(region)
    }

    /// Shared attach body: back-references are written through the raw
    /// slice so the regrid rebuild can drive it while iterating the
    /// store's positions.
    fn attach_inner(&mut self, backrefs: &mut [BackRef], oid: ObjectId, p: Point) -> CellCoord {
        let cell = self.geom.cell_of(p);
        let cell_id = cell.id(self.geom.dim());
        let bucket = self.cells.occupy(cell_id);
        bucket.push(oid);
        let len = bucket.len();
        backrefs[oid.index()] = BackRef {
            cell_id,
            slot: (len - 1) as u32,
        };
        self.hist.on_attach(len);
        cell
    }
}

impl SpatialIndex for CellIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::Uniform
    }

    #[inline]
    fn geom(&self) -> GridGeom {
        self.geom
    }

    #[inline]
    fn occupied_count(&self) -> usize {
        CellIndex::occupied_count(self)
    }

    #[inline]
    fn hot_cell_max(&self) -> usize {
        self.hist.max()
    }

    #[inline]
    fn objects_in(&self, c: CellCoord) -> &[ObjectId] {
        CellIndex::objects_in(self, c)
    }

    fn occupied_cells(&self) -> Vec<CellCoord> {
        CellIndex::occupied_cells(self).collect()
    }

    #[inline]
    fn attach(&mut self, store: &mut ObjectStore, oid: ObjectId, p: Point) -> CellCoord {
        self.attach_inner(&mut store.backrefs, oid, p)
    }

    #[inline]
    fn detach(&mut self, store: &mut ObjectStore, oid: ObjectId) -> CellCoord {
        let BackRef { cell_id, slot } = store.backrefs[oid.index()];
        let bucket = self
            .cells
            .get_mut(cell_id)
            .expect("indexed object must have a cell entry");
        debug_assert_eq!(bucket.get(slot as usize), Some(&oid), "back-pointer desync");
        let old_len = bucket.len();
        bucket.swap_remove(slot as usize);
        // The previous last element (if any) now sits at `slot`: repoint it.
        if let Some(&moved) = bucket.get(slot as usize) {
            store.backrefs[moved.index()].slot = slot;
        }
        self.cells.release_if_empty(cell_id);
        self.hist.on_detach(old_len);
        self.geom.cell_from_id(cell_id)
    }

    fn rebuild(&mut self, store: &mut ObjectStore, new_dim: u32) {
        // A fresh directory (allocated zeroed, so only the pages the
        // population lands on become resident) and a fresh slab: slots are
        // handed out in ascending object-id order, exactly as in an index
        // populated from scratch at `new_dim`.
        let mut fresh = CellIndex::new(new_dim);
        for i in 0..store.backrefs.len() {
            let oid = ObjectId(i as u32);
            let Some(p) = store.position(oid) else {
                continue;
            };
            fresh.attach_inner(&mut store.backrefs, oid, p);
        }
        *self = fresh;
    }

    fn check_integrity(&self, store: &ObjectStore) {
        self.cells.check_integrity(self.geom.total_cells());
        let mut bucket_total = 0usize;
        for (cell_id, bucket) in self.cells.iter() {
            bucket_total += bucket.len();
            for (slot, &oid) in bucket.iter().enumerate() {
                let p = store
                    .position(oid)
                    .unwrap_or_else(|| panic!("bucket holds off-line object {oid}"));
                let br = store.backrefs[oid.index()];
                assert_eq!(br.cell_id, cell_id, "back-pointer cell desync for {oid}");
                assert_eq!(br.slot as usize, slot, "back-pointer slot desync for {oid}");
                assert_eq!(
                    self.geom.cell_of(p).id(self.geom.dim()),
                    cell_id,
                    "object {oid} bucketed in the wrong cell"
                );
            }
        }
        assert_eq!(bucket_total, store.len(), "bucket population != live count");
        assert_eq!(
            self.hist.occupied(),
            self.occupied_count(),
            "occupied drift"
        );
        let buckets = self.cells.iter();
        self.hist
            .check_against(buckets.map(|(_, bucket)| bucket.len()));
    }
}

/// The main-memory index `G` over the set `P` of moving objects: a
/// δ-independent [`ObjectStore`] composed with a pluggable
/// [`SpatialIndex`] backend (default: the paper-exact [`CellIndex`]).
///
/// All mutation goes through [`Grid::insert`], [`Grid::remove`] and
/// [`Grid::update_position`]; each is O(1) expected on the default
/// backend. [`Grid::regrid`] rebuilds the index at a different resolution
/// in a single deterministic pass over the store.
///
/// Construct through [`GridBuilder`]:
///
/// ```
/// use cpm_grid::{GridBuilder, IndexKind};
///
/// // The paper-exact uniform grid (monomorphic, the default backend).
/// let uniform = GridBuilder::new(64).build_uniform();
/// assert_eq!(uniform.dim(), 64);
///
/// // A runtime-selected backend behind the same facade.
/// let quad = GridBuilder::new(64).index(IndexKind::quadtree()).build();
/// assert_eq!(quad.delta(), 1.0 / 64.0);
/// ```
#[derive(Debug, Clone)]
pub struct Grid<I: SpatialIndex = CellIndex> {
    store: ObjectStore,
    index: I,
}

/// Occupancy statistics, used by the space-accounting experiment and the
/// skew-aware re-grid controller. Every counter is maintained
/// incrementally by the index backends, so reading them each cycle is
/// O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridStats {
    /// Total number of conceptual cells (`dim²`).
    pub total_cells: usize,
    /// Number of non-empty cells.
    pub occupied_cells: usize,
    /// Number of live objects.
    pub live_objects: usize,
    /// Population of the fullest cell (0 when empty) — the concentration
    /// signal the re-grid controller feeds into the cost model.
    pub hot_cell_max: usize,
}

/// Builder for [`Grid`]s, mirroring `CpmServerBuilder`: dimension and
/// [`IndexKind`] are validated together at build time, so an invalid
/// combination (dim out of `1..=4096`, a non-power-of-two quadtree
/// dimension, a zero split threshold) fails where it is written rather
/// than inside a later update.
#[derive(Debug, Clone, Copy)]
pub struct GridBuilder {
    dim: u32,
    kind: IndexKind,
}

impl GridBuilder {
    /// Start a builder for a `dim × dim` conceptual grid with the default
    /// [`IndexKind::Uniform`] backend.
    pub fn new(dim: u32) -> Self {
        Self {
            dim,
            kind: IndexKind::Uniform,
        }
    }

    /// Select the index backend.
    #[must_use]
    pub fn index(mut self, kind: IndexKind) -> Self {
        self.kind = kind;
        self
    }

    /// The configured dimension.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// The configured backend kind.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Build an empty grid over the runtime-selected [`DynIndex`]
    /// backend.
    ///
    /// # Errors
    /// Returns a [`GridConfigError`] describing the invalid
    /// dimension/kind combination.
    pub fn try_build(self) -> Result<Grid<DynIndex>, GridConfigError> {
        Ok(Grid::with_index(self.kind.build_index(self.dim)?))
    }

    /// Build an empty grid over the runtime-selected [`DynIndex`]
    /// backend, panicking on an invalid configuration.
    ///
    /// # Panics
    /// Panics if [`IndexKind::check_dim`] rejects the combination.
    pub fn build(self) -> Grid<DynIndex> {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build an empty grid over the monomorphic [`CellIndex`] backend —
    /// the zero-overhead path for embeddings that never switch backends.
    ///
    /// # Panics
    /// Panics if the configured kind is not [`IndexKind::Uniform`], or if
    /// the dimension is out of range.
    pub fn build_uniform(self) -> Grid<CellIndex> {
        assert_eq!(
            self.kind,
            IndexKind::Uniform,
            "build_uniform on a builder configured for {}",
            self.kind
        );
        self.kind
            .check_dim(self.dim)
            .unwrap_or_else(|e| panic!("{e}"));
        Grid::with_index(CellIndex::new(self.dim))
    }
}

impl<I: SpatialIndex> Grid<I> {
    /// Compose an (empty or pre-built) index backend with a fresh object
    /// store. Most callers go through [`GridBuilder`].
    pub fn with_index(index: I) -> Self {
        Self {
            store: ObjectStore::new(),
            index,
        }
    }

    /// The δ-independent object tables.
    #[inline]
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// The index backend.
    #[inline]
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The conceptual cell geometry (dimension, `δ`).
    #[inline]
    pub fn geom(&self) -> GridGeom {
        self.index.geom()
    }

    /// Grid dimension (cells per axis).
    #[inline]
    pub fn dim(&self) -> u32 {
        self.index.geom().dim()
    }

    /// Cell side length `δ`.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.index.geom().delta()
    }

    /// Number of live objects in the index.
    #[inline]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` if no objects are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The cell containing point `p` (see [`GridGeom::cell_of`]).
    #[inline]
    pub fn cell_of(&self, p: Point) -> CellCoord {
        self.index.geom().cell_of(p)
    }

    /// The spatial extent of cell `c`.
    #[inline]
    pub fn cell_rect(&self, c: CellCoord) -> Rect {
        self.index.geom().cell_rect(c)
    }

    /// `mindist(c, q)`: minimum distance between cell `c` and point `q`
    /// (Table 3.1).
    #[inline]
    pub fn mindist(&self, c: CellCoord, q: Point) -> f64 {
        self.index.geom().mindist(c, q)
    }

    /// Squared `mindist(c, q)`, for comparison-only call sites.
    #[inline]
    pub fn mindist_sq(&self, c: CellCoord, q: Point) -> f64 {
        self.index.geom().mindist_sq(c, q)
    }

    /// Current position of object `oid`, or `None` if it is off-line.
    #[inline]
    pub fn position(&self, oid: ObjectId) -> Option<Point> {
        self.store.position(oid)
    }

    /// The store's raw coordinate columns, for the batched distance
    /// kernels in [`crate::kernels`]. Pair with [`Grid::objects_in`]:
    /// buckets reference only live objects, whose column slots are
    /// guaranteed finite.
    #[inline]
    pub fn coords(&self) -> crate::kernels::Coords<'_> {
        self.store.coords()
    }

    /// Insert a (new or re-appearing) object at `p`.
    ///
    /// Returns the cell it was placed in.
    ///
    /// # Panics
    /// Panics if the object is already indexed — callers must route moves
    /// through [`Grid::update_position`] so old-cell bookkeeping stays
    /// consistent.
    #[inline]
    pub fn insert(&mut self, oid: ObjectId, p: Point) -> CellCoord {
        let p = self.store.activate(oid, p);
        self.index.attach(&mut self.store, oid, p)
    }

    /// Remove object `oid` from the index (it goes off-line).
    ///
    /// O(1) (occupancy-bounded on tree backends) via the back-pointer
    /// table. Returns its last position and cell, or `None` if it was not
    /// indexed.
    #[inline]
    pub fn remove(&mut self, oid: ObjectId) -> Option<(Point, CellCoord)> {
        let p = self.store.deactivate(oid)?;
        let cell = self.index.detach(&mut self.store, oid);
        Some((p, cell))
    }

    /// Apply a location update `<oid, old, new>`: delete from the old cell,
    /// insert into the new one (Section 3.2, first step; `Time_ind = 2`).
    ///
    /// Returns `(old_position, old_cell, new_cell)`.
    ///
    /// # Panics
    /// Panics if the object is not currently indexed; the monitoring
    /// algorithms treat moves of off-line objects as appearances and must
    /// not reach this call.
    pub fn update_position(&mut self, oid: ObjectId, new: Point) -> (Point, CellCoord, CellCoord) {
        let (old, old_cell) = self
            .remove(oid)
            .unwrap_or_else(|| panic!("update for off-line object {oid}"));
        let new_cell = self.insert(oid, new);
        (old, old_cell, new_cell)
    }

    /// Rebuild the index at a new resolution, leaving the object tables
    /// untouched.
    ///
    /// The migration is one deterministic pass: objects are re-bucketed in
    /// ascending id order, so the resulting layout is **identical** to a
    /// fresh grid at `new_dim` populated from [`ObjectStore::iter`] — the
    /// property that makes engine-level re-grids bit-reproducible against
    /// a from-scratch build. Returns the number of objects migrated (0
    /// when `new_dim` equals the current dimension; the call is then a
    /// no-op).
    ///
    /// # Panics
    /// Panics if the backend rejects `new_dim` (out of `1..=4096`, or not
    /// a power of two for [`IndexKind::Quadtree`]); the engines validate
    /// through [`IndexKind::check_dim`] first and return a typed error.
    pub fn regrid(&mut self, new_dim: u32) -> usize {
        if new_dim == self.index.geom().dim() {
            return 0;
        }
        self.index.rebuild(&mut self.store, new_dim);
        self.store.len()
    }

    /// The objects currently inside cell `c`, as a contiguous slice (empty
    /// if the cell is unoccupied). See [`SpatialIndex::objects_in`].
    #[inline]
    pub fn objects_in(&self, c: CellCoord) -> &[ObjectId] {
        self.index.objects_in(c)
    }

    /// Number of objects in cell `c`.
    #[inline]
    pub fn cell_len(&self, c: CellCoord) -> usize {
        self.objects_in(c).len()
    }

    /// Iterate over `(oid, position)` for every live object.
    pub fn iter_objects(&self) -> impl Iterator<Item = (ObjectId, Point)> + '_ {
        self.store.iter()
    }

    /// Iterate over the coordinates of all non-empty cells, in
    /// unspecified order.
    pub fn occupied_cells(&self) -> impl Iterator<Item = CellCoord> {
        self.index.occupied_cells().into_iter()
    }

    /// Iterate, in row-major order and without allocating, over all cells
    /// whose extent intersects `region` (see [`GridGeom::cells_in_rect`]).
    pub fn cells_in_rect(&self, region: &Rect) -> impl Iterator<Item = CellCoord> {
        self.index.geom().cells_in_rect(region)
    }

    /// Iterate, without allocating, over all cells whose extent intersects
    /// the closed disk `(center, radius)` (see
    /// [`GridGeom::cells_in_circle`]).
    pub fn cells_in_circle(&self, center: Point, radius: f64) -> impl Iterator<Item = CellCoord> {
        self.index.geom().cells_in_circle(center, radius)
    }

    /// Collecting wrapper around [`Grid::cells_in_rect`] for callers that
    /// need an owned list; the hot paths use the iterator directly.
    pub fn cells_intersecting_rect(&self, region: &Rect) -> Vec<CellCoord> {
        self.index.geom().cells_intersecting_rect(region)
    }

    /// Occupancy statistics — O(1): every counter is maintained
    /// incrementally by the backend.
    pub fn stats(&self) -> GridStats {
        GridStats {
            total_cells: self.index.geom().total_cells(),
            occupied_cells: self.index.occupied_count(),
            live_objects: self.store.len(),
            hot_cell_max: self.index.hot_cell_max(),
        }
    }

    /// Memory footprint estimate in the paper's "memory units"
    /// (see [`ObjectStore::space_units`]).
    pub fn space_units(&self) -> usize {
        self.store.space_units()
    }

    /// Verify the bucket / back-pointer / position cross-invariants of the
    /// store/index split (test helper; O(total state)).
    #[doc(hidden)]
    pub fn check_integrity(&self) {
        self.store.check_integrity();
        self.index.check_integrity(&self.store);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid8() -> Grid {
        GridBuilder::new(8).build_uniform()
    }

    fn uniform(dim: u32) -> Grid {
        GridBuilder::new(dim).build_uniform()
    }

    #[test]
    fn builder_validates_at_build_time() {
        assert!(GridBuilder::new(0).try_build().is_err());
        assert!(GridBuilder::new(8192).try_build().is_err());
        assert!(GridBuilder::new(100)
            .index(IndexKind::quadtree())
            .try_build()
            .is_err());
        let g = GridBuilder::new(128)
            .index(IndexKind::quadtree())
            .try_build()
            .unwrap();
        assert_eq!(g.dim(), 128);
        assert_eq!(g.index().kind(), IndexKind::quadtree());
        assert_eq!(GridBuilder::new(16).kind(), IndexKind::Uniform);
        assert_eq!(GridBuilder::new(16).dim(), 16);
    }

    #[test]
    #[should_panic(expected = "build_uniform on a builder configured for")]
    fn build_uniform_rejects_other_kinds() {
        let _ = GridBuilder::new(64)
            .index(IndexKind::quadtree())
            .build_uniform();
    }

    #[test]
    fn cell_of_matches_floor_formula() {
        let g = grid8();
        assert_eq!(g.cell_of(Point::new(0.0, 0.0)), CellCoord::new(0, 0));
        assert_eq!(g.cell_of(Point::new(0.124, 0.126)), CellCoord::new(0, 1));
        // Lower-inclusive, upper-exclusive cell boundaries.
        assert_eq!(g.cell_of(Point::new(0.125, 0.5)), CellCoord::new(1, 4));
        // Workspace edge clamps into the last cell.
        assert_eq!(g.cell_of(Point::new(1.0, 1.0)), CellCoord::new(7, 7));
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut g = grid8();
        let p = Point::new(0.3, 0.7);
        let cell = g.insert(ObjectId(4), p);
        assert_eq!(g.len(), 1);
        assert_eq!(g.position(ObjectId(4)), Some(p));
        assert_eq!(g.cell_len(cell), 1);
        assert_eq!(g.stats().hot_cell_max, 1);
        let (old, old_cell) = g.remove(ObjectId(4)).unwrap();
        assert_eq!(old, p);
        assert_eq!(old_cell, cell);
        assert!(g.is_empty());
        assert!(g.remove(ObjectId(4)).is_none());
        assert_eq!(g.stats().occupied_cells, 0);
        assert_eq!(g.stats().hot_cell_max, 0);
        g.check_integrity();
    }

    #[test]
    #[should_panic(expected = "already indexed")]
    fn double_insert_panics() {
        let mut g = grid8();
        g.insert(ObjectId(0), Point::new(0.1, 0.1));
        g.insert(ObjectId(0), Point::new(0.2, 0.2));
    }

    #[test]
    fn update_position_moves_between_cells() {
        let mut g = grid8();
        g.insert(ObjectId(1), Point::new(0.05, 0.05));
        let (old, from, to) = g.update_position(ObjectId(1), Point::new(0.95, 0.95));
        assert_eq!(old, Point::new(0.05, 0.05));
        assert_eq!(from, CellCoord::new(0, 0));
        assert_eq!(to, CellCoord::new(7, 7));
        assert_eq!(g.cell_len(from), 0);
        assert_eq!(g.cell_len(to), 1);
        assert_eq!(g.len(), 1);
        g.check_integrity();
    }

    #[test]
    fn swap_remove_repoints_the_moved_object() {
        // Three objects in one cell; removing the first forces the last to
        // take its slot, which must keep the mover's back-pointer valid.
        let mut g = grid8();
        let p = Point::new(0.3, 0.3);
        let cell = g.insert(ObjectId(0), p);
        g.insert(ObjectId(1), Point::new(0.31, 0.31));
        g.insert(ObjectId(2), Point::new(0.32, 0.32));
        assert_eq!(g.cell_len(cell), 3);
        assert_eq!(g.stats().hot_cell_max, 3);
        g.remove(ObjectId(0)).unwrap();
        g.check_integrity();
        // The repointed object must still be removable in O(1).
        g.remove(ObjectId(2)).unwrap();
        g.check_integrity();
        assert_eq!(g.objects_in(cell), &[ObjectId(1)]);
        assert_eq!(g.stats().hot_cell_max, 1);
    }

    #[test]
    fn emptied_cell_hands_its_slot_to_the_next_occupied_cell() {
        let mut g = grid8();
        let a = g.insert(ObjectId(0), Point::new(0.1, 0.1));
        g.remove(ObjectId(0)).unwrap();
        let b = g.insert(ObjectId(1), Point::new(0.9, 0.9));
        assert!(g.objects_in(a).is_empty());
        assert_eq!(g.objects_in(b), &[ObjectId(1)]);
        assert_eq!(g.stats().occupied_cells, 1);
        g.check_integrity();
        // Re-occupying the first cell must not alias the second.
        g.insert(ObjectId(2), Point::new(0.1, 0.1));
        assert_eq!(g.objects_in(a), &[ObjectId(2)]);
        assert_eq!(g.objects_in(b), &[ObjectId(1)]);
        assert_eq!(g.occupied_cells().count(), 2);
        g.check_integrity();
    }

    #[test]
    fn last_row_and_column_are_addressable() {
        // dim 1 (the only cell is the last one) and an odd dim.
        for dim in [1u32, 7] {
            let mut g = uniform(dim);
            let corner = g.insert(ObjectId(0), Point::new(1.0, 1.0));
            let edge = g.insert(ObjectId(1), Point::new(1.0, 0.0));
            assert_eq!(corner, CellCoord::new(dim - 1, dim - 1));
            assert_eq!(edge, CellCoord::new(dim - 1, 0));
            assert!(g.objects_in(corner).contains(&ObjectId(0)));
            assert!(g.objects_in(edge).contains(&ObjectId(1)));
            g.check_integrity();
            g.update_position(ObjectId(0), Point::new(0.0, 1.0));
            assert!(g
                .objects_in(CellCoord::new(0, dim - 1))
                .contains(&ObjectId(0)));
            g.remove(ObjectId(1)).unwrap();
            g.check_integrity();
            assert_eq!(g.stats().occupied_cells, 1);
        }
    }

    #[test]
    fn objects_in_returns_empty_slice_for_empty_cells() {
        let g = grid8();
        assert!(g.objects_in(CellCoord::new(3, 3)).is_empty());
        assert_eq!(g.cell_len(CellCoord::new(3, 3)), 0);
    }

    #[test]
    fn mindist_zero_for_own_cell() {
        let g = grid8();
        let p = Point::new(0.4, 0.4);
        assert_eq!(g.mindist(g.cell_of(p), p), 0.0);
    }

    #[test]
    fn rect_cover_includes_boundary_cells() {
        let g = grid8();
        let r = Rect::new(Point::new(0.20, 0.20), Point::new(0.30, 0.30));
        let cells = g.cells_intersecting_rect(&r);
        // 0.20 is inside cell 1 ([0.125,0.25)), 0.30 inside cell 2.
        assert!(cells.contains(&CellCoord::new(1, 1)));
        assert!(cells.contains(&CellCoord::new(2, 2)));
        assert_eq!(cells.len(), 4);
        // The iterator sees the identical cells without collecting.
        let streamed: Vec<CellCoord> = g.cells_in_rect(&r).collect();
        assert_eq!(streamed, cells);
    }

    #[test]
    fn full_workspace_rect_cover_does_not_overflow() {
        // Regression: the capacity product overflowed u32 on a 4096² grid.
        let g = uniform(4096);
        let all = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        assert_eq!(g.cells_in_rect(&all).count(), 4096 * 4096);
    }

    #[test]
    fn circle_cover_is_exactly_intersecting_cells() {
        let g = grid8();
        let q = Point::new(0.5, 0.5);
        let cells: Vec<CellCoord> = g.cells_in_circle(q, 0.13).collect();
        for &c in &cells {
            assert!(g.cell_rect(c).intersects_circle(q, 0.13));
        }
        // A radius slightly over one cell reaches the 4-neighborhood.
        assert!(cells.len() >= 5);
        // And no intersecting cell is missed.
        for row in 0..8 {
            for col in 0..8 {
                let c = CellCoord::new(col, row);
                if g.cell_rect(c).intersects_circle(q, 0.13) {
                    assert!(cells.contains(&c), "missing {c}");
                }
            }
        }
    }

    #[test]
    fn iter_objects_sees_everything() {
        let mut g = grid8();
        for i in 0..10u32 {
            g.insert(ObjectId(i), Point::new(i as f64 / 10.0, 0.5));
        }
        g.remove(ObjectId(3)).unwrap();
        let ids: Vec<u32> = g.iter_objects().map(|(o, _)| o.0).collect();
        assert_eq!(ids.len(), 9);
        assert!(!ids.contains(&3));
    }

    #[test]
    fn regrid_rebuilds_only_the_index() {
        let mut g = uniform(8);
        for i in 0..50u32 {
            g.insert(
                ObjectId(i),
                Point::new((i as f64 * 0.37) % 1.0, (i as f64 * 0.61) % 1.0),
            );
        }
        g.remove(ObjectId(7)).unwrap();
        let before: Vec<(ObjectId, Point)> = g.iter_objects().collect();

        let migrated = g.regrid(64);
        assert_eq!(migrated, 49);
        assert_eq!(g.dim(), 64);
        assert_eq!(g.delta(), 1.0 / 64.0);
        g.check_integrity();
        // Store contents are invariant under the re-grid.
        let after: Vec<(ObjectId, Point)> = g.iter_objects().collect();
        assert_eq!(before, after);
        assert_eq!(g.position(ObjectId(7)), None);

        // The migrated layout is identical to a fresh populate in id order.
        let mut fresh = uniform(64);
        for &(oid, p) in &before {
            fresh.insert(oid, p);
        }
        for cell in fresh.occupied_cells() {
            assert_eq!(g.objects_in(cell), fresh.objects_in(cell), "bucket {cell}");
        }
        assert_eq!(g.stats(), fresh.stats());

        // Same-dim regrid is a no-op.
        assert_eq!(g.regrid(64), 0);
        // Updates keep working against the new index.
        g.update_position(ObjectId(0), Point::new(0.99, 0.01));
        g.insert(ObjectId(7), Point::new(0.5, 0.5));
        g.check_integrity();
    }

    #[test]
    fn regrid_coarsens_too() {
        let mut g = uniform(256);
        for i in 0..30u32 {
            g.insert(ObjectId(i), Point::new((i as f64 * 0.13) % 1.0, 0.4));
        }
        g.regrid(4);
        assert_eq!(g.dim(), 4);
        g.check_integrity();
        let total: usize = g.occupied_cells().map(|c| g.cell_len(c)).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn backends_agree_on_membership_and_stats() {
        // The same update stream through both backends: every per-cell
        // read and every stats counter must coincide.
        let mut lanes: Vec<Grid<DynIndex>> = vec![
            GridBuilder::new(32).build(),
            GridBuilder::new(32)
                .index(IndexKind::Quadtree { split_threshold: 4 })
                .build(),
        ];
        for step in 0..200u32 {
            let id = step % 23;
            let t = f64::from(step) * 0.017;
            for g in &mut lanes {
                if step % 11 == 5 && g.position(ObjectId(id)).is_some() {
                    g.remove(ObjectId(id)).unwrap();
                } else if g.position(ObjectId(id)).is_some() {
                    g.update_position(ObjectId(id), Point::new(t % 1.0, (t * 3.1) % 1.0));
                } else {
                    g.insert(ObjectId(id), Point::new(t % 1.0, (t * 3.1) % 1.0));
                }
            }
            let (a, b) = (&lanes[0], &lanes[1]);
            assert_eq!(a.stats(), b.stats());
            for row in 0..32 {
                for col in 0..32 {
                    let c = CellCoord::new(col, row);
                    let mut ua: Vec<ObjectId> = a.objects_in(c).to_vec();
                    let mut ub: Vec<ObjectId> = b.objects_in(c).to_vec();
                    ua.sort_unstable();
                    ub.sort_unstable();
                    assert_eq!(ua, ub, "cell {c} diverged at step {step}");
                }
            }
        }
        for g in &lanes {
            g.check_integrity();
        }
    }

    proptest! {
        #[test]
        fn every_point_maps_to_cell_containing_it(
            x in 0.0..1.0f64, y in 0.0..1.0f64, dim in 1u32..256,
        ) {
            let g = uniform(dim);
            let p = Point::new(x, y);
            let c = g.cell_of(p);
            prop_assert!(g.cell_rect(c).contains(p));
            prop_assert_eq!(g.mindist(c, p), 0.0);
        }

        /// Random insert/move/remove streams against a naive
        /// `HashMap<id, Point>` model: membership, back-pointers, and
        /// counts must agree after every step.
        #[test]
        fn moves_preserve_population(
            steps in proptest::collection::vec(
                (0u32..20, 0.0..1.0f64, 0.0..1.0f64, 0u32..8), 1..200),
        ) {
            let mut g = uniform(16);
            let mut model = std::collections::HashMap::new();
            for (id, x, y, op) in steps {
                let oid = ObjectId(id);
                let p = Point::new(x, y);
                if op == 0 && model.contains_key(&id) {
                    // Remove (object goes off-line).
                    let (old, old_cell) = g.remove(oid).unwrap();
                    prop_assert_eq!(old, model.remove(&id).unwrap());
                    prop_assert_eq!(old_cell, g.cell_of(old));
                    prop_assert_eq!(g.position(oid), None);
                } else if model.insert(id, p).is_some() {
                    g.update_position(oid, p);
                } else {
                    g.insert(oid, p);
                }
                // The grid agrees with the model after every step.
                prop_assert_eq!(g.len(), model.len());
                g.check_integrity();
                for (&mid, &mp) in &model {
                    let moid = ObjectId(mid);
                    prop_assert_eq!(g.position(moid), Some(mp));
                    prop_assert!(
                        g.objects_in(g.cell_of(mp)).contains(&moid),
                        "object {} missing from its cell bucket", mid
                    );
                }
            }
            // Sum of cell populations equals the live count.
            let total: usize = g.occupied_cells().map(|c| g.cell_len(c)).sum();
            prop_assert_eq!(total, model.len());
        }

        /// Random update streams with re-grids interleaved: the object
        /// store must be invariant under every re-grid (same positions,
        /// same membership), and the index must stay consistent at every
        /// resolution.
        #[test]
        fn regrids_preserve_the_store(
            steps in proptest::collection::vec(
                (0u32..24, 0.0..1.0f64, 0.0..1.0f64, 0u32..10), 1..120),
        ) {
            // Grows and shrinks of the directory, dim 1 and an odd dim
            // (whose last row and column the 0..1 coordinates do reach).
            let dims = [1u32, 4, 7, 16, 64, 256];
            let mut g = uniform(16);
            let mut model = std::collections::HashMap::new();
            for (id, x, y, op) in steps {
                let oid = ObjectId(id);
                let p = Point::new(x, y);
                if op == 0 {
                    // Re-grid to a pseudo-random resolution.
                    let before: Vec<(ObjectId, Point)> = g.iter_objects().collect();
                    let migrated = g.regrid(dims[(id as usize + model.len()) % dims.len()]);
                    prop_assert!(migrated == 0 || migrated == model.len());
                    let after: Vec<(ObjectId, Point)> = g.iter_objects().collect();
                    prop_assert_eq!(before, after, "store changed across regrid");
                } else if op == 1 && model.contains_key(&id) {
                    g.remove(oid).unwrap();
                    model.remove(&id);
                } else if model.insert(id, p).is_some() {
                    g.update_position(oid, p);
                } else {
                    g.insert(oid, p);
                }
                g.check_integrity();
                prop_assert_eq!(g.len(), model.len());
                for (&mid, &mp) in &model {
                    let moid = ObjectId(mid);
                    prop_assert_eq!(g.position(moid), Some(mp));
                    prop_assert!(g.objects_in(g.cell_of(mp)).contains(&moid));
                }
            }
        }

        /// Satellite: `GridStats` occupancy counters (occupied cells,
        /// hot-cell max, per-cell sums) must exactly match a brute-force
        /// recount under random event interleavings — on **both** index
        /// backends, including across re-grids.
        #[test]
        fn stats_match_brute_force_recount_on_both_backends(
            steps in proptest::collection::vec(
                (0u32..24, 0.0..1.0f64, 0.0..1.0f64, 0u32..10), 1..120),
        ) {
            let mut lanes: Vec<Grid<DynIndex>> = vec![
                GridBuilder::new(16).build(),
                GridBuilder::new(16)
                    .index(IndexKind::Quadtree { split_threshold: 3 })
                    .build(),
            ];
            let dims = [4u32, 8, 16, 64];
            let mut model: std::collections::HashMap<u32, Point> =
                std::collections::HashMap::new();
            for (id, x, y, op) in steps {
                let oid = ObjectId(id);
                let p = Point::new(x, y);
                let live = model.contains_key(&id);
                for g in &mut lanes {
                    if op == 0 {
                        g.regrid(dims[(id as usize + model.len()) % dims.len()]);
                    } else if op == 1 && live {
                        g.remove(oid).unwrap();
                    } else if live {
                        g.update_position(oid, p);
                    } else {
                        g.insert(oid, p);
                    }
                }
                if op == 1 && live {
                    model.remove(&id);
                } else if op != 0 {
                    model.insert(id, p);
                }
                for g in &lanes {
                    // Brute-force recount from the model.
                    let geom = g.geom();
                    let mut per_cell: std::collections::HashMap<u64, usize> =
                        std::collections::HashMap::new();
                    for (&_, &mp) in &model {
                        *per_cell.entry(geom.cell_of(mp).id(geom.dim())).or_insert(0) += 1;
                    }
                    let expect = GridStats {
                        total_cells: geom.total_cells(),
                        occupied_cells: per_cell.len(),
                        live_objects: model.len(),
                        hot_cell_max: per_cell.values().copied().max().unwrap_or(0),
                    };
                    prop_assert_eq!(g.stats(), expect, "stats drift on {}", g.index().kind());
                    // Per-cell sums: every occupied cell reports exactly
                    // its brute-force population.
                    let mut seen = 0usize;
                    for c in g.occupied_cells() {
                        let n = g.cell_len(c);
                        prop_assert_eq!(
                            per_cell.get(&c.id(geom.dim())).copied().unwrap_or(0), n,
                            "per-cell sum drift at {} on {}", c, g.index().kind()
                        );
                        seen += n;
                    }
                    prop_assert_eq!(seen, model.len());
                    g.check_integrity();
                }
            }
        }

        /// Concurrent read-only scans see exactly what a sequential scan
        /// sees: after a random build, worker threads scanning disjoint row
        /// bands through `&Grid` must reproduce the sequential population
        /// count and id/position checksum. (This is the access pattern of
        /// the sharded engine's parallel maintenance phase.)
        #[test]
        fn concurrent_scans_match_sequential(
            inserts in proptest::collection::vec(
                (0.0..1.0f64, 0.0..1.0f64), 1..150),
        ) {
            let dim = 16u32;
            let mut g = uniform(dim);
            for (i, &(x, y)) in inserts.iter().enumerate() {
                g.insert(ObjectId(i as u32), Point::new(x, y));
            }

            let scan_rows = |g: &Grid, rows: std::ops::Range<u32>| {
                let mut count = 0usize;
                let mut checksum = 0u64;
                for row in rows {
                    for col in 0..dim {
                        for &oid in g.objects_in(CellCoord::new(col, row)) {
                            let p = g.position(oid).expect("live object");
                            count += 1;
                            checksum ^= ((oid.0 as u64) << 32) | (p.x.to_bits() ^ p.y.to_bits());
                        }
                    }
                }
                (count, checksum)
            };

            let (seq_count, seq_checksum) = scan_rows(&g, 0..dim);
            prop_assert_eq!(seq_count, inserts.len());

            let workers = 4u32;
            let band = dim / workers;
            let shared = &g;
            let (par_count, par_checksum) = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let rows = (w * band)..if w + 1 == workers { dim } else { (w + 1) * band };
                        scope.spawn(move || scan_rows(shared, rows))
                    })
                    .collect();
                handles.into_iter().fold((0usize, 0u64), |(c, x), h| {
                    let (hc, hx) = h.join().expect("scan worker panicked");
                    (c + hc, x ^ hx)
                })
            });
            prop_assert_eq!(par_count, seq_count);
            prop_assert_eq!(par_checksum, seq_checksum);
        }
    }
}
