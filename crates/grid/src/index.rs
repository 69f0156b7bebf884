//! [`CellIndex`]: the spatial index — the paper's regular grid of object
//! buckets (Section 3).
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

use crate::directory::CellDirectory;
use crate::store::BackRef;
use crate::{CellCoord, GridGeom, ObjectStore};

/// The object index over the conceptual `dim × dim` cell space: cell
/// buckets plus the cell geometry.
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
/// never-occupied regions are not resident. Only occupied cells own
/// storage beyond their directory entry, a **contiguous `Vec<ObjectId>`
/// bucket** rather than a hash set:
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
/// All mutation goes through the composed [`crate::Grid`]; the mutators
/// keep bucket membership, the store's back-pointers, and the occupancy
/// histogram in lock step.
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
    /// Panics if [`GridGeom::check_dim`] rejects `dim`.
    pub fn new(dim: u32) -> Self {
        let geom = GridGeom::new(dim);
        Self {
            geom,
            cells: CellDirectory::new(geom.total_cells()),
            hist: OccupancyHistogram::default(),
        }
    }

    /// The conceptual cell geometry (dimension, `δ`) this index answers
    /// at.
    #[inline]
    pub fn geom(&self) -> GridGeom {
        self.geom
    }

    /// Number of non-empty cells.
    #[inline]
    pub fn occupied_count(&self) -> usize {
        self.cells.occupied()
    }

    /// Population of the fullest cell (0 when empty) — maintained
    /// incrementally (O(1) per update), so per-cycle occupancy polling by
    /// the re-grid controller is free.
    #[inline]
    pub fn hot_cell_max(&self) -> usize {
        self.hist.max()
    }

    /// The objects currently inside cell `c`, as a contiguous slice (empty
    /// if the cell is unoccupied): **exactly** the live objects of that
    /// cell, never a superset, never a subset.
    ///
    /// A full scan of the returned slice is what the experiments count as
    /// one *cell access* (Section 6, Figure 6.3b).
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

    /// Bucket a live object at `p` (already clamped by the store) and
    /// write its back-pointer. Returns the cell it was placed in.
    #[inline]
    pub(crate) fn attach(&mut self, store: &mut ObjectStore, oid: ObjectId, p: Point) -> CellCoord {
        self.attach_inner(&mut store.backrefs, oid, p)
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

    /// Unbucket a live object through its back-pointer (no search, no
    /// object-id hashing). Returns the cell it left.
    #[inline]
    pub(crate) fn detach(&mut self, store: &mut ObjectStore, oid: ObjectId) -> CellCoord {
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

    /// Rebuild this index at a new resolution from the store's positions,
    /// re-attaching objects in ascending id order (so the resulting layout
    /// is identical to a fresh populate — the property that makes
    /// engine-level re-grids bit-reproducible against a from-scratch
    /// build).
    ///
    /// # Panics
    /// Panics if [`GridGeom::check_dim`] rejects `new_dim`; engine-level
    /// `regrid_to` validates first and returns a typed error instead.
    pub(crate) fn rebuild(&mut self, store: &mut ObjectStore, new_dim: u32) {
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

    /// Verify the index's internal invariants against the store (test
    /// helper; O(total state)).
    pub(crate) fn check_integrity(&self, store: &ObjectStore) {
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

/// Exact count-of-counts histogram over bucket (conceptual-cell)
/// populations: `counts[l]` = number of cells currently holding `l`
/// objects (`l ≥ 1`). [`CellIndex`] drives it from its mutators, making
/// [`CellIndex::hot_cell_max`] an O(1) read with O(1) update cost — every
/// event changes exactly one cell's population by one.
#[derive(Debug, Clone, Default)]
struct OccupancyHistogram {
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
    fn on_attach(&mut self, new_len: usize) {
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
    fn on_detach(&mut self, old_len: usize) {
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
    fn max(&self) -> usize {
        self.max
    }

    /// Number of occupied cells.
    #[inline]
    fn occupied(&self) -> usize {
        self.occupied
    }

    /// Assert the histogram matches a brute-force recount of `sizes` (the
    /// non-empty bucket populations, in any order).
    fn check_against(&self, sizes: impl Iterator<Item = usize>) {
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

#[cfg(test)]
mod tests {
    use super::*;

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
