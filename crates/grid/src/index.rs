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
use crate::{CellCoord, GridGeom, ObjectStore};

/// The object index over the conceptual `dim × dim` cell space, in the
/// compressed-sparse-row layout: every live object's `(id, x, y)` in
/// three columns ordered by packed cell id ([`CellCoord::id`], row-major),
/// and one start offset per cell plus one at the end, so cell `c`'s
/// objects are the run `starts[c]..starts[c + 1]`. Inside a cell, ids
/// ascend.
///
/// The layout is rebuilt from the [`ObjectStore`]'s by-id positions once
/// per batch ([`crate::apply_events`]) by one counting sort:
///
/// 1. a **count** pass over the store's live ids (ascending), which
///    records each one's cell;
/// 2. a **scan** that turns the counts into offsets, and reads the
///    occupied-cell count and the hot-cell maximum on the way;
/// 3. a **scatter** of `(id, x, y)` into the columns, by descending id,
///    each write taking the last free place of its cell — so a cell
///    fills back to front in ascending id order.
///
/// It costs O(N + cells) whatever moved — the passes walk the live ids,
/// so sparse or ever-growing ids cost nothing per batch — where
/// Section 4.1's model
/// charges `Time_ind = 2` per moving object; in exchange the layout is a
/// function of the positions and δ alone — the same at every thread
/// count, after a re-grid or a restore, and against a fresh build — and
/// a cell scan (one *cell access*, Section 6, Figure 6.3b) is a
/// contiguous sweep over inline coordinates, with no gather.
///
/// `starts` costs 4 bytes per conceptual cell: 64 KiB at 128², 4 MiB at
/// the paper's finest 1024², 64 MiB at the 4096² ceiling. An index that
/// has never sorted keeps it allocated zeroed, so its pages are not
/// resident.
#[derive(Debug, Clone)]
pub struct CellIndex {
    geom: GridGeom,
    /// `total_cells + 1` offsets into the columns.
    starts: Vec<u32>,
    ids: Vec<ObjectId>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Sort scratch, parallel to the store's live ids: each one's packed
    /// cell id.
    cells: Vec<u32>,
    occupied: usize,
    hot_cell_max: usize,
}

impl CellIndex {
    /// An empty index with `dim × dim` cells over the unit square.
    ///
    /// # Panics
    /// Panics if [`GridGeom::check_dim`] rejects `dim`.
    pub fn new(dim: u32) -> Self {
        let geom = GridGeom::new(dim);
        Self {
            geom,
            starts: vec![0; geom.total_cells() + 1],
            ids: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            cells: Vec::new(),
            occupied: 0,
            hot_cell_max: 0,
        }
    }

    /// The conceptual cell geometry (dimension, `δ`) this index answers
    /// at.
    #[inline]
    pub fn geom(&self) -> GridGeom {
        self.geom
    }

    /// Number of non-empty cells, as of the last sort.
    #[inline]
    pub fn occupied_count(&self) -> usize {
        self.occupied
    }

    /// Population of the fullest cell (0 when empty), as of the last
    /// sort: the re-grid controller reads it every cycle for free.
    #[inline]
    pub fn hot_cell_max(&self) -> usize {
        self.hot_cell_max
    }

    /// The run of cell `c` in the columns.
    #[inline]
    fn range(&self, c: CellCoord) -> std::ops::Range<usize> {
        let id = c.id(self.geom.dim()) as usize;
        self.starts[id] as usize..self.starts[id + 1] as usize
    }

    /// The objects currently inside cell `c`, ascending (empty if the
    /// cell is unoccupied): **exactly** the live objects of that cell,
    /// never a superset, never a subset.
    #[inline]
    pub fn objects_in(&self, c: CellCoord) -> &[ObjectId] {
        &self.ids[self.range(c)]
    }

    /// Cell `c`'s objects with their coordinates: the same ids as
    /// [`CellIndex::objects_in`], plus the parallel `x` / `y` columns.
    #[inline]
    pub fn cell_run(&self, c: CellCoord) -> CellRun<'_> {
        let r = self.range(c);
        CellRun::new(&self.ids[r.clone()], &self.xs[r.clone()], &self.ys[r])
    }

    /// Iterate over the coordinates of all non-empty cells, row-major.
    pub fn occupied_cells(&self) -> impl Iterator<Item = CellCoord> + '_ {
        let geom = self.geom;
        let runs = self.starts.windows(2).enumerate();
        runs.filter(|(_, w)| w[0] < w[1])
            .map(move |(id, _)| geom.cell_from_id(id as u64))
    }

    /// Re-sort the columns from the store's positions at `dim`.
    ///
    /// # Panics
    /// Panics if [`GridGeom::check_dim`] rejects `dim`; engine-level
    /// `regrid_to` validates first and returns a typed error instead.
    pub(crate) fn sort(&mut self, store: &ObjectStore, dim: u32) {
        if dim != self.geom.dim() {
            self.geom = GridGeom::new(dim);
            // A table of the new size, so a coarser grid does not keep a
            // finer one's pages resident.
            self.starts = Vec::new();
        }
        let geom = self.geom;
        let cells = geom.total_cells();
        let (sx, sy) = store.columns();
        let live = store.live_ids();

        // Count: each live object's cell, and each cell's population (held
        // in the cell's own `starts` entry until the scan).
        let starts = &mut self.starts;
        starts.clear();
        starts.resize(cells + 1, 0);
        self.cells.clear();
        self.cells.extend(live.iter().map(|id| {
            let p = Point::new(sx[id.index()], sy[id.index()]);
            let cell = geom.cell_of(p).id(geom.dim()) as u32;
            starts[cell as usize] += 1;
            cell
        }));

        // Scan: every entry becomes the end of its cell's run.
        let (mut end, mut occupied, mut hot) = (0u32, 0usize, 0u32);
        for s in &mut starts[..cells] {
            occupied += usize::from(*s > 0);
            hot = hot.max(*s);
            end += *s;
            *s = end;
        }
        starts[cells] = end;
        self.occupied = occupied;
        self.hot_cell_max = hot as usize;

        // Scatter by descending id: each object takes the last free place
        // of its cell, which leaves the cell's entry at its start.
        let n = end as usize;
        debug_assert_eq!(n, store.len(), "sorted population != live count");
        self.ids.resize(n, ObjectId(0));
        self.xs.resize(n, 0.0);
        self.ys.resize(n, 0.0);
        for (&id, &cell) in live.iter().zip(&self.cells).rev() {
            let start = &mut starts[cell as usize];
            *start -= 1;
            let at = *start as usize;
            self.ids[at] = id;
            self.xs[at] = sx[id.index()];
            self.ys[at] = sy[id.index()];
        }
    }

    /// Verify the layout against the store (test helper; O(total state)):
    /// every live object in the run of its cell, at its stored position,
    /// runs ascending by id, and the occupancy statistics recounted.
    pub(crate) fn check_integrity(&self, store: &ObjectStore) {
        let cells = self.geom.total_cells();
        assert_eq!(self.starts.len(), cells + 1, "offset table size");
        assert_eq!(self.starts[0], 0, "first run does not start at 0");
        assert_eq!(self.starts[cells] as usize, store.len(), "population");
        assert!(self.starts.windows(2).all(|w| w[0] <= w[1]), "offsets");
        let (mut occupied, mut hot) = (0usize, 0usize);
        for c in self.occupied_cells() {
            let run = self.cell_run(c);
            occupied += 1;
            hot = hot.max(run.len());
            assert!(run.ids().windows(2).all(|w| w[0] < w[1]), "run {c} order");
            for (oid, p) in run.iter() {
                assert_eq!(store.position(oid), Some(p), "{oid} stale in run {c}");
                assert_eq!(self.geom.cell_of(p), c, "{oid} sorted into the wrong cell");
            }
        }
        assert_eq!(self.occupied, occupied, "occupied-cell count drift");
        assert_eq!(self.hot_cell_max, hot, "hot-cell max drift");
    }
}
