//! [`CellRuns`]: the one by-cell layout and the one sort that builds it.
//!
//! The paper's grid keeps per cell the objects inside it and the queries
//! whose influence region covers it (Section 3.1, Figure 3.3b). Every
//! by-cell table of this suite — the object index ([`crate::CellIndex`]),
//! the CPM engine's moves of a cycle and SEA-CNN's answer regions — is
//! the same compressed-sparse-row layout: payload columns ordered by
//! cell, plus one start offset per cell and one at the end. [`CellRuns`]
//! owns the offsets and the stable counting sort that orders the
//! payload; each table keeps only its payload columns.

use std::ops::Range;

use crate::CellCoord;

/// The offsets of a `dim × dim` grid's runs over a cell-ordered payload:
/// cell `c`'s items are the slots [`CellRuns::run`]`(c)`, in the order
/// the items were given.
///
/// [`CellRuns::sort`] rebuilds them in O(items + cells):
///
/// 1. a **count** pass, the only one over the items, which stores each
///    item's packed cell id ([`CellCoord::id`], row-major, or
///    [`CellRuns::NO_CELL`]) and counts its cell;
/// 2. a **scan** that turns the counts into the ends of the runs, and
///    reads the occupied-cell count and the longest run on the way;
/// 3. a **scatter**, back to front over the stored keys: each item takes
///    the last free slot of its cell, which leaves the cell's offset at
///    its start — so a run holds its items in item order.
///
/// The offsets cost 4 bytes per cell: 64 KiB at 128², 4 MiB at the
/// paper's finest 1024², 64 MiB at the 4096² ceiling. A table that has
/// never sorted keeps them allocated zeroed, so their pages are not
/// resident.
#[derive(Debug, Clone)]
pub struct CellRuns {
    dim: u32,
    /// `dim² + 1` offsets: cell `c`'s run is `starts[c]..starts[c + 1]`.
    starts: Vec<u32>,
    /// Sort scratch: each item's packed cell id, in item order.
    keys: Vec<u32>,
    occupied: usize,
    longest: usize,
}

impl Default for CellRuns {
    fn default() -> Self {
        Self::new(0)
    }
}

impl CellRuns {
    /// The key of an item that lies in no cell: the sort skips it.
    pub const NO_CELL: u32 = u32::MAX;

    /// Empty runs over a `dim × dim` grid.
    pub fn new(dim: u32) -> Self {
        Self {
            dim,
            starts: vec![0; dim as usize * dim as usize + 1],
            keys: Vec::new(),
            occupied: 0,
            longest: 0,
        }
    }

    /// The grid dimension of the last sort.
    #[inline]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Number of items placed by the last sort.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts[self.starts.len() - 1] as usize
    }

    /// Whether the last sort placed no item.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of non-empty runs.
    #[inline]
    pub fn occupied_count(&self) -> usize {
        self.occupied
    }

    /// Length of the longest run (0 when empty).
    #[inline]
    pub fn longest_run(&self) -> usize {
        self.longest
    }

    /// The slots of cell `c`'s items.
    ///
    /// # Panics
    /// Panics if `c` lies outside the grid.
    #[inline]
    pub fn run(&self, c: CellCoord) -> Range<usize> {
        let id = c.id(self.dim) as usize;
        self.starts[id] as usize..self.starts[id + 1] as usize
    }

    /// Iterate over the coordinates of all non-empty cells, row-major.
    pub fn occupied_cells(&self) -> impl Iterator<Item = CellCoord> + '_ {
        let dim = self.dim as usize;
        let runs = self.starts.windows(2).enumerate();
        runs.filter(|(_, w)| w[0] < w[1])
            .map(move |(id, _)| CellCoord::new((id % dim) as u32, (id / dim) as u32))
    }

    /// Re-sort on a `dim × dim` grid: `keys` yields each item's packed
    /// cell id, or [`CellRuns::NO_CELL`], in item order, and
    /// `place(item, slot)` is handed every placed item's slot, items
    /// descending. The caller's payload columns must hold
    /// [`CellRuns::len`] slots after the sort; every slot below it is
    /// handed out once.
    ///
    /// # Panics
    /// Panics if a key is neither a cell of the grid nor `NO_CELL`.
    pub fn sort(
        &mut self,
        dim: u32,
        keys: impl IntoIterator<Item = u32>,
        mut place: impl FnMut(usize, usize),
    ) {
        if dim != self.dim {
            self.dim = dim;
            // A table of the new size, so a coarser grid does not keep a
            // finer one's pages resident.
            self.starts = Vec::new();
        }
        let cells = dim as usize * dim as usize;

        // Count: cell `c`'s population, held in `starts[c]` until the scan.
        let starts = &mut self.starts;
        starts.clear();
        starts.resize(cells + 1, 0);
        self.keys.clear();
        self.keys.extend(keys.into_iter().inspect(|&key| {
            if key != Self::NO_CELL {
                starts[key as usize] += 1;
            }
        }));

        // Scan: every entry becomes the end of its cell's run.
        let (mut end, mut occupied, mut longest) = (0u32, 0usize, 0u32);
        for s in &mut starts[..cells] {
            occupied += usize::from(*s > 0);
            longest = longest.max(*s);
            end += *s;
            *s = end;
        }
        starts[cells] = end;
        self.occupied = occupied;
        self.longest = longest as usize;

        // Scatter back to front.
        for (item, &key) in self.keys.iter().enumerate().rev() {
            if key != Self::NO_CELL {
                let start = &mut starts[key as usize];
                *start -= 1;
                place(item, *start as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Random keys over dims 1–12, sorted by one `CellRuns` that changes
    /// dimension between rounds, against a model: per cell, its items in
    /// item order. About one key in eight is `NO_CELL`, and the corner
    /// cells come up often, so dim 1 and odd dims reach their last row
    /// and column. The occupied count and the longest run are recounted.
    #[test]
    fn sort_matches_a_per_cell_model() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u32| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % u64::from(n)) as u32
        };
        let mut runs = CellRuns::default();
        let mut slots = Vec::new();
        for round in 0..400 {
            let dim = 1 + next(12);
            let cells = dim * dim;
            let keys: Vec<u32> = (0..next(4 * cells + 8))
                .map(|_| match next(16) {
                    0 | 1 => CellRuns::NO_CELL,
                    2 => cells - 1,
                    3 => dim - 1,
                    _ => next(cells),
                })
                .collect();
            slots.clear();
            slots.resize(keys.len(), usize::MAX);
            let mut last = usize::MAX;
            runs.sort(dim, keys.iter().copied(), |item, slot| {
                assert!(item < last, "round {round}: items not handed descending");
                last = item;
                slots[slot] = item;
            });

            let mut model = vec![Vec::new(); cells as usize];
            for (item, &key) in keys.iter().enumerate() {
                if key != CellRuns::NO_CELL {
                    model[key as usize].push(item);
                }
            }
            let placed = model.iter().map(Vec::len).sum::<usize>();
            assert_eq!((runs.dim(), runs.len()), (dim, placed), "round {round}");
            for (id, want) in model.iter().enumerate() {
                let cell = CellCoord::new(id as u32 % dim, id as u32 / dim);
                assert_eq!(slots[runs.run(cell)], want[..], "round {round} {cell}");
            }
            let occupied: Vec<CellCoord> = runs.occupied_cells().collect();
            assert_eq!(
                occupied.len(),
                model.iter().filter(|m| !m.is_empty()).count()
            );
            assert_eq!(runs.occupied_count(), occupied.len(), "round {round}");
            assert!(occupied.iter().all(|&c| !runs.run(c).is_empty()));
            let longest = model.iter().map(Vec::len).max().unwrap_or(0);
            assert_eq!(runs.longest_run(), longest, "round {round}");
        }
    }
}
