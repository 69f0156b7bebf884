//! [`CellIndex`]: the spatial index — the paper's regular grid of cells
//! (Section 3), stored cell-ordered.
//!
//! CPM's maintenance algorithms only ever ask *"which objects fall in
//! this conceptual cell / region?"*. The paper answers with a regular
//! grid because it is the structure that is cheap to maintain under a
//! stream of updates, and tunes it through δ alone (Section 4.1,
//! Fig. 6.1); this crate does the same. Skew is answered by *moving δ*
//! ([`crate::Grid::regrid`], driven by the engines' cost-model policy),
//! not by a second structure (README, "Skew: one answer", has the
//! measurement).
//!
//! Query results are a function of the object population and the
//! geometry ([`GridGeom`]) alone; δ changes *how fast* a cell scan is,
//! never *what it returns*.

use cpm_geom::{ObjectId, Point};

use crate::kernels::CellRun;
use crate::{CellCoord, CellRuns, GridGeom, ObjectStore};

/// The object index over the conceptual `dim × dim` cell space, in the
/// compressed-sparse-row layout: every live object's `(id, x, y)` in
/// three columns ordered by packed cell id, over the per-cell offsets of
/// a [`CellRuns`]. Inside a cell, ids ascend.
///
/// The layout is rebuilt from the [`ObjectStore`]'s by-id positions once
/// per batch ([`crate::apply_events`]) by one [`CellRuns::sort`] over
/// the store's live ids, ascending. It costs O(N + cells) whatever moved
/// — the sort walks the live ids, so sparse or ever-growing ids cost
/// nothing per batch — where Section 4.1's model charges `Time_ind = 2`
/// per moving object; in exchange the layout is a function of the
/// positions and δ alone — the same at every thread count, after a
/// re-grid or a restore, and against a fresh build — and a cell scan
/// (one *cell access*, Section 6, Figure 6.3b) is a contiguous sweep
/// over inline coordinates, with no gather.
#[derive(Debug, Clone)]
pub struct CellIndex {
    geom: GridGeom,
    runs: CellRuns,
    ids: Vec<ObjectId>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl CellIndex {
    /// An empty index with `dim × dim` cells over the unit square.
    ///
    /// # Panics
    /// Panics if [`GridGeom::check_dim`] rejects `dim`.
    pub fn new(dim: u32) -> Self {
        Self {
            geom: GridGeom::new(dim),
            runs: CellRuns::new(dim),
            ids: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
        }
    }

    /// The conceptual cell geometry (dimension, `δ`) this index answers
    /// at.
    #[inline]
    pub fn geom(&self) -> GridGeom {
        self.geom
    }

    /// The per-cell runs of the last sort, with its occupied-cell count
    /// and longest run: the re-grid controller reads them every cycle
    /// for free.
    #[inline]
    pub fn runs(&self) -> &CellRuns {
        &self.runs
    }

    /// The objects currently inside cell `c`, ascending (empty if the
    /// cell is unoccupied): **exactly** the live objects of that cell,
    /// never a superset, never a subset.
    #[inline]
    pub fn objects_in(&self, c: CellCoord) -> &[ObjectId] {
        &self.ids[self.runs.run(c)]
    }

    /// Cell `c`'s objects with their coordinates: the same ids as
    /// [`CellIndex::objects_in`], plus the parallel `x` / `y` columns.
    #[inline]
    pub fn cell_run(&self, c: CellCoord) -> CellRun<'_> {
        let r = self.runs.run(c);
        CellRun::new(&self.ids[r.clone()], &self.xs[r.clone()], &self.ys[r])
    }

    /// Iterate over the coordinates of all non-empty cells, row-major.
    pub fn occupied_cells(&self) -> impl Iterator<Item = CellCoord> + '_ {
        self.runs.occupied_cells()
    }

    /// Re-sort the columns from the store's positions at `dim`.
    ///
    /// # Panics
    /// Panics if [`GridGeom::check_dim`] rejects `dim`; engine-level
    /// `regrid_to` validates first and returns a typed error instead.
    pub(crate) fn sort(&mut self, store: &ObjectStore, dim: u32) {
        let geom = GridGeom::new(dim);
        self.geom = geom;
        let (sx, sy) = store.columns();
        let live = store.live_ids();
        let n = live.len();
        self.ids.resize(n, ObjectId(0));
        self.xs.resize(n, 0.0);
        self.ys.resize(n, 0.0);
        let (ids, xs, ys) = (&mut self.ids, &mut self.xs, &mut self.ys);
        let keys = live.iter().map(|id| {
            let p = Point::new(sx[id.index()], sy[id.index()]);
            geom.cell_of(p).id(dim) as u32
        });
        // Items are the live ids, ascending, so each run ascends.
        self.runs.sort(dim, keys, |item, at| {
            let id = live[item];
            ids[at] = id;
            xs[at] = sx[id.index()];
            ys[at] = sy[id.index()];
        });
        debug_assert_eq!(self.runs.len(), n, "sorted population != live count");
    }

    /// Verify the layout against the store (test helper; O(total state)):
    /// every live object in the run of its cell, at its stored position,
    /// runs ascending by id, and the occupancy statistics recounted.
    pub(crate) fn check_integrity(&self, store: &ObjectStore) {
        assert_eq!(self.runs.dim(), self.geom.dim(), "runs at another dim");
        assert_eq!(self.runs.len(), store.len(), "population");
        assert_eq!(self.ids.len(), store.len(), "column length");
        let (mut listed, mut occupied, mut hot) = (0usize, 0usize, 0usize);
        for c in self.occupied_cells() {
            let run = self.cell_run(c);
            listed += run.len();
            occupied += 1;
            hot = hot.max(run.len());
            assert!(run.ids().windows(2).all(|w| w[0] < w[1]), "run {c} order");
            for (oid, p) in run.iter() {
                assert_eq!(store.position(oid), Some(p), "{oid} stale in run {c}");
                assert_eq!(self.geom.cell_of(p), c, "{oid} sorted into the wrong cell");
            }
        }
        assert_eq!(listed, store.len(), "runs do not cover the population");
        assert_eq!(
            self.runs.occupied_count(),
            occupied,
            "occupied-cell count drift"
        );
        assert_eq!(self.runs.longest_run(), hot, "hot-cell max drift");
    }
}
