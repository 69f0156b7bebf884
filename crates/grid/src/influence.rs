//! Per-cell influence lists (query-side book-keeping).
//!
//! "Each cell `c` of the grid is associated with … (ii) the list of queries
//! whose influence region contains `c`" (Section 3.1, Figure 3.3b). When a
//! location update touches a cell, only the queries in that cell's influence
//! list can be affected — this is the mechanism that lets CPM (and SEA-CNN's
//! answer-region variant) ignore irrelevant updates entirely.
//!
//! The lists are a function of the query states: each query registers
//! the cells of its own influence region (SEA-CNN: its marked cells). So
//! the table keeps no history of its own. The CPM engine evaluates the
//! same lists from the query side instead — each query reads the moves
//! of its own influence cells — and its tests use this table as the
//! reference join. Its owner rebuilds it from the states
//! before each pass that reads it, by the counting sort the object
//! index uses ([`crate::CellIndex`]): one start offset per cell plus one
//! at the end, and the registered queries in one array ordered by cell.
//! The owner's states are walked once per rebuild: the sort's second
//! pass reads a contiguous copy of the pairs, so a state that is cold in
//! cache costs its misses once.
//! A cell's list is a contiguous slice, read twice per object update
//! (old and new cell) whether or not any query is registered there.

use cpm_geom::QueryId;

use crate::CellCoord;

/// A table mapping grid cells to the list of queries whose influence
/// region covers them, in the compressed-sparse-row layout.
///
/// Kept outside [`crate::Grid`] so that a monitor keeps its own lists
/// over the shared object index: SEA-CNN's answer regions, and the
/// reference join the CPM engine's query-side reads are tested against.
#[derive(Debug, Clone)]
pub struct InfluenceTable {
    dim: u32,
    /// `dim² + 1` offsets into `items`: cell `c`'s list is
    /// `items[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    items: Vec<QueryId>,
    /// Rebuild scratch: every registration's packed cell id and query,
    /// in the order they were given.
    pairs: Vec<(u32, QueryId)>,
}

impl Default for InfluenceTable {
    fn default() -> Self {
        Self::new()
    }
}

impl InfluenceTable {
    /// An empty table over no cells; [`InfluenceTable::rebuild`] sizes
    /// it.
    pub fn new() -> Self {
        Self {
            dim: 0,
            starts: vec![0],
            items: Vec::new(),
            pairs: Vec::new(),
        }
    }

    /// The grid dimension of the last rebuild.
    #[inline]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Replace every list with the `(cell, query)` pairs of
    /// `registrations` on a `dim × dim` grid, by one counting sort in
    /// O(pairs + cells):
    ///
    /// 1. a **count** pass, the only one over `registrations`, which
    ///    copies each pair into contiguous scratch with its packed cell
    ///    id — the owner's query states are walked once;
    /// 2. a **scan** that turns the counts into the ends of the lists;
    /// 3. a **scatter** of the scratch, back to front, each query taking
    ///    the last free place of its cell — so a list holds its queries
    ///    in the order `registrations` yields them.
    ///
    /// A pair yielded twice is listed twice: each owner registers a
    /// query's cells once.
    ///
    /// # Panics
    /// Panics if a cell lies outside the grid.
    pub fn rebuild(
        &mut self,
        dim: u32,
        registrations: impl IntoIterator<Item = (CellCoord, QueryId)>,
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
        self.pairs.clear();
        self.pairs
            .extend(registrations.into_iter().map(|(cell, q)| {
                let id = cell.id(dim) as u32;
                starts[id as usize] += 1;
                (id, q)
            }));
        // Scan: every entry becomes the end of its cell's list.
        let mut end = 0u32;
        for s in &mut starts[..cells] {
            end += *s;
            *s = end;
        }
        starts[cells] = end;
        // Scatter back to front: each query takes the last free place of
        // its cell, which leaves the cell's entry at its start.
        self.items.clear();
        if let Some(&(_, q)) = self.pairs.first() {
            self.items.resize(self.pairs.len(), q);
        }
        for &(id, q) in self.pairs.iter().rev() {
            let start = &mut starts[id as usize];
            *start -= 1;
            self.items[*start as usize] = q;
        }
    }

    /// The queries influenced by `cell`, as a contiguous slice (empty if
    /// none are registered).
    ///
    /// # Panics
    /// Panics if `cell` lies outside the grid of the last rebuild.
    #[inline]
    pub fn queries_at(&self, cell: CellCoord) -> &[QueryId] {
        let id = cell.id(self.dim) as usize;
        &self.items[self.starts[id] as usize..self.starts[id + 1] as usize]
    }

    /// Total number of `(cell, query)` registrations — `n · C_inf` in the
    /// space analysis of Section 4.1.
    #[inline]
    pub fn total_entries(&self) -> usize {
        self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Random registrations over dims 1–12, rebuilt into one table that
    /// resizes between rounds, against a model: per cell, the queries in
    /// the order they were registered. Each query registers distinct
    /// cells (the corner cells among them at random, so dim 1 and odd
    /// dims reach their last row and column), queries in ascending
    /// order, as the owners yield them — so every list must ascend.
    #[test]
    fn rebuild_matches_an_ascending_model() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u32| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % u64::from(n)) as u32
        };
        let mut t = InfluenceTable::new();
        for round in 0..400 {
            let dim = 1 + next(12);
            let mut regs: Vec<(CellCoord, QueryId)> = Vec::new();
            for q in 0..next(9) {
                let mut cells = vec![CellCoord::new(dim - 1, dim - 1), CellCoord::new(dim - 1, 0)];
                cells.retain(|_| next(3) == 0);
                for _ in 0..next(dim * dim + 1) {
                    cells.push(CellCoord::new(next(dim), next(dim)));
                }
                cells.sort_unstable();
                cells.dedup();
                // Any order inside a query: an odd multiplier permutes.
                let order = next(1 << 16) | 1;
                cells.sort_by_key(|c| (c.id(dim) as u32).wrapping_mul(order));
                regs.extend(cells.into_iter().map(|c| (c, QueryId(q))));
            }
            t.rebuild(dim, regs.iter().copied());

            let mut model = vec![Vec::new(); (dim * dim) as usize];
            for &(cell, q) in &regs {
                model[cell.id(dim) as usize].push(q);
            }
            assert_eq!((t.dim(), t.total_entries()), (dim, regs.len()));
            for row in 0..dim {
                for col in 0..dim {
                    let cell = CellCoord::new(col, row);
                    let list = t.queries_at(cell);
                    assert_eq!(list, model[cell.id(dim) as usize], "round {round} {cell}");
                    assert!(list.windows(2).all(|w| w[0] < w[1]), "round {round} {cell}");
                }
            }
        }
    }
}
