//! The composed grid facade.
//!
//! [`Grid`] composes the [`CellIndex`] (per-cell buckets at one δ) with
//! the δ-independent [`ObjectStore`] (positions + back-pointers) and
//! presents the single-type index surface the monitors were written
//! against — plus [`Grid::regrid`], which rebuilds the index at a
//! different resolution **without ever touching the object tables**.
//! Grids are constructed through [`GridBuilder`], which validates the
//! dimension at build time.

use cpm_geom::{ObjectId, Point, Rect};

use crate::{CellCoord, CellIndex, GridConfigError, GridGeom, ObjectStore};

/// The main-memory index `G` over the set `P` of moving objects: a
/// δ-independent [`ObjectStore`] composed with the [`CellIndex`].
///
/// All mutation goes through [`Grid::insert`], [`Grid::remove`] and
/// [`Grid::update_position`]; each is O(1) expected. [`Grid::regrid`]
/// rebuilds the index at a different resolution in a single
/// deterministic pass over the store.
///
/// Construct through [`GridBuilder`]:
///
/// ```
/// use cpm_grid::GridBuilder;
///
/// let grid = GridBuilder::new(64).build_uniform();
/// assert_eq!(grid.dim(), 64);
/// assert_eq!(grid.delta(), 1.0 / 64.0);
/// assert!(GridBuilder::new(0).try_build().is_err());
/// ```
// The type parameter is vestigial: `CellIndex` is the only index and every
// `impl` is written for `Grid<CellIndex>`. It stays because
// `benchmark/src/twins.rs`, which a change to this crate may not edit,
// spells the type `Grid<CellIndex>`.
#[derive(Debug, Clone)]
pub struct Grid<I = CellIndex> {
    store: ObjectStore,
    index: I,
}

/// Occupancy statistics, used by the space-accounting experiment and the
/// skew-aware re-grid controller. Every counter is maintained
/// incrementally by the index, so reading them each cycle is O(1).
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

/// Builder for [`Grid`]s, mirroring `CpmServerBuilder`: the dimension is
/// validated at build time, so an out-of-range one fails where it is
/// written rather than inside a later update.
#[derive(Debug, Clone, Copy)]
pub struct GridBuilder {
    dim: u32,
}

impl GridBuilder {
    /// Start a builder for a `dim × dim` conceptual grid.
    pub fn new(dim: u32) -> Self {
        Self { dim }
    }

    /// Build an empty grid.
    ///
    /// # Errors
    /// The [`GridGeom::check_dim`] error for a dimension out of
    /// `1..=4096`.
    pub fn try_build(self) -> Result<Grid, GridConfigError> {
        GridGeom::check_dim(self.dim)?;
        Ok(Grid {
            store: ObjectStore::new(),
            index: CellIndex::new(self.dim),
        })
    }

    /// Build an empty grid, panicking on an invalid dimension. (The
    /// suffix dates from when a second index existed; `benchmark/` pins
    /// the name.)
    ///
    /// # Panics
    /// Panics if [`GridGeom::check_dim`] rejects the dimension.
    pub fn build_uniform(self) -> Grid {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

impl Grid<CellIndex> {
    /// The δ-independent object tables.
    #[inline]
    pub fn store(&self) -> &ObjectStore {
        &self.store
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
    /// O(1) via the back-pointer table. Returns its last position and cell, or `None` if it was not
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
    /// Panics if `new_dim` is out of `1..=4096`; the engines validate
    /// through [`GridGeom::check_dim`] first and return a typed error.
    pub fn regrid(&mut self, new_dim: u32) -> usize {
        if new_dim == self.index.geom().dim() {
            return 0;
        }
        self.index.rebuild(&mut self.store, new_dim);
        self.store.len()
    }

    /// The objects currently inside cell `c`, as a contiguous slice (empty
    /// if the cell is unoccupied). See [`CellIndex::objects_in`].
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
    pub fn occupied_cells(&self) -> impl Iterator<Item = CellCoord> + '_ {
        self.index.occupied_cells()
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
    /// incrementally by the index.
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
        // No dimension in range is refused, powers of two or not.
        let g = GridBuilder::new(100).try_build().unwrap();
        assert_eq!(g.dim(), 100);
    }

    #[test]
    #[should_panic(expected = "must lie in 1..=4096")]
    fn build_uniform_panics_where_try_build_errs() {
        let _ = GridBuilder::new(4097).build_uniform();
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

        /// `GridStats` occupancy counters (occupied cells, hot-cell max,
        /// per-cell sums) must exactly match a brute-force recount under
        /// random event interleavings, including across re-grids.
        #[test]
        fn stats_match_brute_force_recount(
            steps in proptest::collection::vec(
                (0u32..24, 0.0..1.0f64, 0.0..1.0f64, 0u32..10), 1..120),
        ) {
            let mut g = uniform(16);
            let dims = [4u32, 8, 16, 64];
            let mut model: std::collections::HashMap<u32, Point> =
                std::collections::HashMap::new();
            for (id, x, y, op) in steps {
                let oid = ObjectId(id);
                let p = Point::new(x, y);
                let live = model.contains_key(&id);
                if op == 0 {
                    g.regrid(dims[(id as usize + model.len()) % dims.len()]);
                } else if op == 1 && live {
                    g.remove(oid).unwrap();
                    model.remove(&id);
                } else {
                    if live {
                        g.update_position(oid, p);
                    } else {
                        g.insert(oid, p);
                    }
                    model.insert(id, p);
                }
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
                prop_assert_eq!(g.stats(), expect);
                // Per-cell sums: every occupied cell reports exactly its
                // brute-force population.
                let mut seen = 0usize;
                for c in g.occupied_cells() {
                    let n = g.cell_len(c);
                    prop_assert_eq!(
                        per_cell.get(&c.id(geom.dim())).copied().unwrap_or(0), n,
                        "per-cell sum drift at {}", c
                    );
                    seen += n;
                }
                prop_assert_eq!(seen, model.len());
                g.check_integrity();
            }
        }

        /// Concurrent read-only scans see exactly what a sequential scan
        /// sees: after a random build, worker threads scanning disjoint row
        /// bands through `&Grid` must reproduce the sequential population
        /// count and id/position checksum. (This is the access pattern of
        /// the engine's parallel resolve step.)
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
