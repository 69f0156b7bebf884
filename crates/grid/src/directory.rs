//! The per-cell storage of [`crate::InfluenceTable`] (queries influenced
//! by a cell): a `dim²` directory of `u32` slots into a slab of dense
//! per-cell vectors.
//!
//! [`crate::CellCoord::id`] is row-major and dense, so "the vector of
//! this cell" is an array read — `0` for a cell that holds nothing,
//! `s + 1` for a cell whose items live in slot `s` — where a map keyed by
//! the packed id would hash and probe. The directory costs 4 bytes per
//! *conceptual* cell whatever the occupancy (64 KiB at 128², 1 MiB at
//! 512², 4 MiB at the paper's finest 1024², 64 MiB at the 4096² ceiling)
//! and is allocated zeroed, so pages no item ever lands on are never
//! resident. Only cells that hold something own a vector; one that
//! empties leaves its slot vacant with the allocation in place, so
//! steady-state churn allocates nothing.

/// No more than this many vacant slots keep their vector's allocation.
const POOL_CAP: usize = 4096;

/// Largest capacity worth keeping in a vacant slot. A hot cell under
/// skewed data can grow a huge vector; once it empties, handing that
/// allocation to an ordinary few-item cell would pin the memory forever,
/// so oversized spares are dropped instead.
const POOLED_VEC_CAP: usize = 256;

/// One slab slot: the items of cell `cell_id` while live, empty while
/// vacant.
#[derive(Debug, Clone)]
struct Slot<T> {
    /// Packed id of the cell the slot serves; `dim ≤ 4096` keeps it
    /// below 2²⁴.
    cell_id: u32,
    items: Vec<T>,
}

/// Cell id → dense `Vec<T>`, for a fixed number of cells.
///
/// Invariant: a slab slot is either live (non-empty, named by exactly
/// the directory entry of its `cell_id`) or vacant (empty, listed in
/// `vacant`, named by no entry). Callers uphold the "non-empty" half by
/// calling [`CellDirectory::release_if_empty`] after removing items.
#[derive(Debug, Clone)]
pub(crate) struct CellDirectory<T> {
    /// One entry per cell: `0`, or `s + 1` naming `slab[s]`.
    dir: Vec<u32>,
    slab: Vec<Slot<T>>,
    /// Vacant slab slots, reused last-vacated-first.
    vacant: Vec<u32>,
}

impl<T> CellDirectory<T> {
    /// An empty directory over `cells` cells.
    pub(crate) fn new(cells: usize) -> Self {
        Self {
            dir: vec![0; cells],
            slab: Vec::new(),
            vacant: Vec::new(),
        }
    }

    /// Empty the directory and re-size it to `cells` cells, keeping a
    /// pool's worth of vector allocations.
    pub(crate) fn reset(&mut self, cells: usize) {
        // A fresh zeroed allocation rather than a fill: only the pages
        // later written become resident.
        self.dir = vec![0; cells];
        self.slab.truncate(POOL_CAP);
        for slot in &mut self.slab {
            slot.items.clear();
            if slot.items.capacity() > POOLED_VEC_CAP {
                slot.items = Vec::new();
            }
        }
        self.vacant.clear();
        self.vacant.extend((0..self.slab.len() as u32).rev());
    }

    /// The items of `cell_id` (empty if it holds none).
    #[inline]
    pub(crate) fn get(&self, cell_id: u64) -> &[T] {
        match self.dir[cell_id as usize] {
            0 => &[],
            s => &self.slab[s as usize - 1].items,
        }
    }

    /// The vector of `cell_id` if the cell holds anything.
    #[inline]
    pub(crate) fn get_mut(&mut self, cell_id: u64) -> Option<&mut Vec<T>> {
        let slot = self.dir[cell_id as usize].checked_sub(1)?;
        Some(&mut self.slab[slot as usize].items)
    }

    /// The vector of `cell_id`, occupying a slot for it if it has none.
    /// The caller must push at least one item.
    #[inline]
    pub(crate) fn occupy(&mut self, cell_id: u64) -> &mut Vec<T> {
        let entry = &mut self.dir[cell_id as usize];
        if *entry == 0 {
            let slot = self.vacant.pop().unwrap_or_else(|| {
                self.slab.push(Slot {
                    cell_id: 0,
                    items: Vec::new(),
                });
                (self.slab.len() - 1) as u32
            });
            self.slab[slot as usize].cell_id = cell_id as u32;
            *entry = slot + 1;
        }
        &mut self.slab[*entry as usize - 1].items
    }

    /// Vacate the slot of `cell_id` if its vector has become empty.
    #[inline]
    pub(crate) fn release_if_empty(&mut self, cell_id: u64) {
        let Some(slot) = self.dir[cell_id as usize].checked_sub(1) else {
            return;
        };
        let items = &mut self.slab[slot as usize].items;
        if items.is_empty() {
            if self.vacant.len() >= POOL_CAP || items.capacity() > POOLED_VEC_CAP {
                *items = Vec::new();
            }
            self.dir[cell_id as usize] = 0;
            self.vacant.push(slot);
        }
    }

    /// Number of cells that hold something — O(1).
    #[inline]
    pub(crate) fn occupied(&self) -> usize {
        self.slab.len() - self.vacant.len()
    }

    /// `(cell id, items)` of every cell that holds something, in slab
    /// order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &[T])> + Clone {
        let live = self.slab.iter().filter(|slot| !slot.items.is_empty());
        live.map(|slot| (u64::from(slot.cell_id), slot.items.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> CellDirectory<T> {
        /// Verify the directory ↔ slab invariants for `cells` cells
        /// (O(cells)).
        pub(crate) fn check_integrity(&self, cells: usize) {
            assert_eq!(self.dir.len(), cells, "directory size");
            for (slot, Slot { cell_id, items }) in self.slab.iter().enumerate() {
                if !items.is_empty() {
                    assert_eq!(
                        self.dir[*cell_id as usize] as usize,
                        slot + 1,
                        "directory does not name the slot of cell {cell_id}"
                    );
                }
            }
            // Every live slot is named by its own cell's entry (above), so
            // equal counts leave no entry naming a vacant or foreign slot.
            let named = self.dir.iter().filter(|&&e| e != 0).count();
            assert_eq!(named, self.iter().count(), "stale directory entry");
            assert_eq!(named, self.occupied(), "slot leak");
            let is_empty = |&s: &u32| self.slab[s as usize].items.is_empty();
            assert!(self.vacant.iter().all(is_empty), "vacant slot in use");
        }
    }

    #[test]
    fn reset_resizes_and_keeps_small_allocations_only() {
        let mut d = CellDirectory::new(4);
        d.occupy(3).extend(0..POOLED_VEC_CAP + 1);
        d.occupy(0).push(7);
        d.reset(1);
        assert_eq!((d.occupied(), d.get(0)), (0, &[][..]));
        d.check_integrity(1);
        let caps: Vec<usize> = d.slab.iter().map(|s| s.items.capacity()).collect();
        assert!(caps[0] == 0 && caps[1] > 0, "{caps:?}");
        d.reset(16);
        d.occupy(15).push(1);
        assert_eq!(d.get(15), &[1]);
        d.check_integrity(16);
    }
}
