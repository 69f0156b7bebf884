//! The composed grid facade.
//!
//! [`Grid`] composes the [`CellIndex`] (cell-ordered columns at one δ)
//! with the δ-independent [`ObjectStore`] (the by-id position table) and
//! presents the single-type index surface the monitors were written
//! against — plus [`Grid::regrid`], which re-sorts the index at a
//! different resolution **without ever touching the object table**.
//! Grids are constructed through [`GridBuilder`], which validates the
//! dimension at build time.

use cpm_geom::{ObjectId, Point, Rect};

use crate::kernels::CellRun;
use crate::{
    CellCoord, CellIndex, GridConfigError, GridGeom, ObjectEvent, ObjectStore, UpdateRecord,
};

/// The main-memory index `G` over the set `P` of moving objects: a
/// δ-independent [`ObjectStore`] composed with the [`CellIndex`].
///
/// [`crate::apply_events`] is the one mutator: it writes a batch's
/// positions into the store and re-sorts the index once.
/// [`Grid::regrid`] is the same sort at another resolution.
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
/// skew-aware re-grid controller. The index's sort counts them, so
/// reading them each cycle is O(1).
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

    /// The store's by-id coordinate columns, for
    /// [`crate::kernels::dist_into`]. Pair with [`Grid::objects_in`]:
    /// cells hold only live objects, whose column slots are guaranteed
    /// finite. A cell scan reads [`Grid::cell_run`] instead, which needs
    /// no gather.
    #[inline]
    pub fn coords(&self) -> crate::kernels::Coords<'_> {
        self.store.coords()
    }

    /// Apply one batch of object events: write each position into the
    /// store, record the cells it left and entered, then settle the
    /// store's live-id list and re-sort the index once (none of it when
    /// the batch is empty). The body of
    /// [`crate::apply_events`].
    pub(crate) fn apply(&mut self, events: &[ObjectEvent], records: &mut Vec<UpdateRecord>) {
        if events.is_empty() {
            return;
        }
        let geom = self.index.geom();
        records.reserve(events.len());
        for ev in events {
            let (old, new_pos) = match *ev {
                ObjectEvent::Appear { id, pos } => (None, Some(self.store.activate(id, pos))),
                ObjectEvent::Move { id, to } => {
                    let (old, new) = self.store.relocate(id, to).unwrap_or_else(|| off_line(ev));
                    (Some(old), Some(new))
                }
                ObjectEvent::Disappear { id } => (
                    Some(self.store.deactivate(id).unwrap_or_else(|| off_line(ev))),
                    None,
                ),
            };
            records.push(UpdateRecord {
                id: ev.id(),
                old_cell: old.map(|p| geom.cell_of(p)),
                new_cell: new_pos.map(|p| geom.cell_of(p)),
                new_pos,
            });
        }
        self.store.settle();
        self.index.sort(&self.store, geom.dim());
    }

    /// Re-sort the index at a new resolution, leaving the object table
    /// untouched.
    ///
    /// This is the batch sort at `new_dim`, so the resulting layout is
    /// **identical** to a fresh grid at `new_dim` populated from
    /// [`ObjectStore::iter`] — the property that makes engine-level
    /// re-grids bit-reproducible against a from-scratch build. Returns
    /// the number of objects migrated (0 when `new_dim` equals the
    /// current dimension; the call is then a no-op).
    ///
    /// # Panics
    /// Panics if `new_dim` is out of `1..=4096`; the engines validate
    /// through [`GridGeom::check_dim`] first and return a typed error.
    pub fn regrid(&mut self, new_dim: u32) -> usize {
        if new_dim == self.index.geom().dim() {
            return 0;
        }
        self.index.sort(&self.store, new_dim);
        self.store.len()
    }

    /// The objects currently inside cell `c`, ascending (empty if the
    /// cell is unoccupied). See [`CellIndex::objects_in`].
    #[inline]
    pub fn objects_in(&self, c: CellCoord) -> &[ObjectId] {
        self.index.objects_in(c)
    }

    /// Cell `c`'s objects with their coordinates, as one contiguous run:
    /// what every cell scan reads. See [`CellIndex::cell_run`].
    #[inline]
    pub fn cell_run(&self, c: CellCoord) -> CellRun<'_> {
        self.index.cell_run(c)
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

    /// Iterate over the coordinates of all non-empty cells, row-major.
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

    /// Occupancy statistics — O(1): the index's sort counts them.
    pub fn stats(&self) -> GridStats {
        GridStats {
            total_cells: self.index.geom().total_cells(),
            occupied_cells: self.index.runs().occupied_count(),
            live_objects: self.store.len(),
            hot_cell_max: self.index.runs().longest_run(),
        }
    }

    /// Memory footprint estimate in the paper's "memory units"
    /// (see [`ObjectStore::space_units`]).
    pub fn space_units(&self) -> usize {
        self.store.space_units()
    }

    /// Verify the index's layout against the store's positions (test
    /// helper; O(total state)).
    #[doc(hidden)]
    pub fn check_integrity(&self) {
        self.store.check_integrity();
        self.index.check_integrity(&self.store);
    }
}

/// The panic of a move or a disappear of an off-line object.
fn off_line<T>(ev: &ObjectEvent) -> T {
    panic!("{ev:?} of an off-line object")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply_events;
    use proptest::prelude::*;

    fn grid8() -> Grid {
        GridBuilder::new(8).build_uniform()
    }

    fn uniform(dim: u32) -> Grid {
        GridBuilder::new(dim).build_uniform()
    }

    /// Apply one batch, discarding the records.
    fn apply(g: &mut Grid, events: &[ObjectEvent]) {
        apply_events(g, events, &mut Vec::new());
    }

    fn appear(id: u32, x: f64, y: f64) -> ObjectEvent {
        ObjectEvent::Appear {
            id: ObjectId(id),
            pos: Point::new(x, y),
        }
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
    fn appear_and_disappear_round_trip() {
        let mut g = grid8();
        let p = Point::new(0.3, 0.7);
        apply(&mut g, &[appear(4, p.x, p.y)]);
        let cell = g.cell_of(p);
        assert_eq!((g.len(), g.position(ObjectId(4))), (1, Some(p)));
        assert_eq!(g.objects_in(cell), &[ObjectId(4)]);
        assert_eq!(g.stats().hot_cell_max, 1);
        apply(&mut g, &[ObjectEvent::Disappear { id: ObjectId(4) }]);
        assert!(g.is_empty() && g.objects_in(cell).is_empty());
        assert_eq!(g.position(ObjectId(4)), None);
        assert_eq!((g.stats().occupied_cells, g.stats().hot_cell_max), (0, 0));
        g.check_integrity();
    }

    #[test]
    #[should_panic(expected = "already indexed")]
    fn appear_of_a_live_object_panics() {
        let mut g = grid8();
        apply(&mut g, &[appear(0, 0.1, 0.1)]);
        apply(&mut g, &[appear(0, 0.2, 0.2)]);
    }

    #[test]
    #[should_panic(expected = "off-line object")]
    fn move_of_an_off_line_object_panics() {
        let mut g = grid8();
        let to = Point::new(0.2, 0.2);
        apply(
            &mut g,
            &[ObjectEvent::Move {
                id: ObjectId(0),
                to,
            }],
        );
    }

    #[test]
    fn runs_hold_each_cell_in_ascending_id_order() {
        // Appears listed out of id order still sort ascending inside a
        // cell, and the run's coordinates are the stored positions.
        let mut g = grid8();
        apply(
            &mut g,
            &[
                appear(9, 0.31, 0.31),
                appear(2, 0.9, 0.9),
                appear(5, 0.3, 0.3),
                appear(0, 0.32, 0.32),
            ],
        );
        let cell = CellCoord::new(2, 2);
        assert_eq!(g.objects_in(cell), &[ObjectId(0), ObjectId(5), ObjectId(9)]);
        let run = g.cell_run(cell);
        let bits: Vec<(u64, u64)> = run
            .iter()
            .map(|(_, p)| (p.x.to_bits(), p.y.to_bits()))
            .collect();
        let stored = [0.32, 0.3, 0.31].map(|c: f64| (c.to_bits(), c.to_bits()));
        assert_eq!(bits, stored);
        assert_eq!(g.stats().hot_cell_max, 3);
        let occupied: Vec<CellCoord> = g.occupied_cells().collect();
        assert_eq!(occupied, vec![cell, CellCoord::new(7, 7)], "row-major");
        g.check_integrity();
    }

    #[test]
    fn last_row_and_column_are_addressable() {
        // dim 1 (the only cell is the last one) and an odd dim.
        for dim in [1u32, 7] {
            let mut g = uniform(dim);
            apply(&mut g, &[appear(0, 1.0, 1.0), appear(1, 1.0, 0.0)]);
            let corner = CellCoord::new(dim - 1, dim - 1);
            let edge = CellCoord::new(dim - 1, 0);
            assert!(g.objects_in(corner).contains(&ObjectId(0)));
            assert!(g.objects_in(edge).contains(&ObjectId(1)));
            g.check_integrity();
            let to = Point::new(0.0, 1.0);
            apply(
                &mut g,
                &[
                    ObjectEvent::Move {
                        id: ObjectId(0),
                        to,
                    },
                    ObjectEvent::Disappear { id: ObjectId(1) },
                ],
            );
            assert_eq!(g.objects_in(CellCoord::new(0, dim - 1)), &[ObjectId(0)]);
            g.check_integrity();
            assert_eq!(g.stats().occupied_cells, 1);
        }
    }

    #[test]
    fn objects_in_returns_empty_slice_for_empty_cells() {
        let g = grid8();
        assert!(g.objects_in(CellCoord::new(3, 3)).is_empty());
        assert!(g.cell_run(CellCoord::new(3, 3)).is_empty());
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
        let cells: Vec<CellCoord> = g.cells_in_rect(&r).collect();
        // 0.20 is inside cell 1 ([0.125,0.25)), 0.30 inside cell 2.
        assert!(cells.contains(&CellCoord::new(1, 1)));
        assert!(cells.contains(&CellCoord::new(2, 2)));
        assert_eq!(cells.len(), 4);
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
    fn regrid_rebuilds_only_the_index() {
        let mut g = uniform(8);
        let appears: Vec<ObjectEvent> = (0..50u32)
            .map(|i| appear(i, (i as f64 * 0.37) % 1.0, (i as f64 * 0.61) % 1.0))
            .collect();
        apply(&mut g, &appears);
        apply(&mut g, &[ObjectEvent::Disappear { id: ObjectId(7) }]);
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

        // Same-dim regrid is a no-op.
        assert_eq!(g.regrid(64), 0);
        // Updates keep working against the new index.
        let to = Point::new(0.99, 0.01);
        apply(
            &mut g,
            &[
                ObjectEvent::Move {
                    id: ObjectId(0),
                    to,
                },
                appear(7, 0.5, 0.5),
            ],
        );
        g.check_integrity();
        // Coarsening works the same way.
        g.regrid(4);
        g.check_integrity();
        let total: usize = g.occupied_cells().map(|c| g.cell_len(c)).sum();
        assert_eq!(total, 50);
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
            let appears: Vec<ObjectEvent> = inserts
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| appear(i as u32, x, y))
                .collect();
            apply(&mut g, &appears);

            let scan_rows = |g: &Grid, rows: std::ops::Range<u32>| {
                let mut count = 0usize;
                let mut checksum = 0u64;
                for row in rows {
                    for col in 0..dim {
                        for (oid, p) in g.cell_run(CellCoord::new(col, row)).iter() {
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
