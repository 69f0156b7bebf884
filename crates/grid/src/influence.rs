//! Per-cell influence lists (query-side book-keeping).
//!
//! "Each cell `c` of the grid is associated with … (ii) the list of queries
//! whose influence region contains `c`" (Section 3.1, Figure 3.3b). When a
//! location update touches a cell, only the queries in that cell's influence
//! list can be affected — this is the mechanism that lets CPM (and SEA-CNN's
//! answer-region variant) ignore irrelevant updates entirely.
//!
//! The lists are dense `Vec`s with dedup-on-insert rather than hash
//! sets, found through a `dim²` directory of `u32` slots rather than a
//! hash map (4 bytes per conceptual cell, like the index's offset table
//! — see [`crate::CellIndex`] for the sizes): the table is
//! read twice per object update (old and new cell) whether or not any
//! query is registered there, and a hit is immediately scanned in full —
//! an array read and a contiguous slice are both smaller and faster than
//! a probe. Per-cell lists are short (`n · C_inf / cells` queries on
//! average, see Section 4.1), so the linear dedup scan on registration is
//! cheap, and removal swap-removes by value.

use cpm_geom::QueryId;

use crate::directory::CellDirectory;
use crate::CellCoord;

/// A table mapping grid cells to the list of queries whose influence
/// region covers them.
///
/// Kept outside [`crate::Grid`] so that independent monitors (k-NN,
/// aggregate-NN, constrained-NN, SEA-CNN) can each maintain their own lists
/// over one shared object index. `Q` is how the owner names a query
/// in the lists: its [`QueryId`] by default, or any small `Copy` handle
/// (the CPM engine registers its dense query-table slots).
#[derive(Debug, Clone)]
pub struct InfluenceTable<Q = QueryId> {
    dim: u32,
    /// Invariant: every stored list is non-empty and duplicate-free.
    lists: CellDirectory<Q>,
}

impl<Q: Copy + PartialEq> InfluenceTable<Q> {
    /// Create an empty table for a `dim × dim` grid.
    pub fn new(dim: u32) -> Self {
        Self {
            dim,
            lists: CellDirectory::new(dim as usize * dim as usize),
        }
    }

    /// The grid dimension this table's packed cell ids are keyed by.
    #[inline]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Drop every registration and re-size the table for a `dim × dim`
    /// grid, keeping a pool's worth of list allocations. Used when the
    /// engine re-grids: packed cell ids from the old resolution are
    /// meaningless at the new one, so the table starts empty and queries
    /// re-register.
    pub fn reset(&mut self, dim: u32) {
        self.dim = dim;
        self.lists.reset(dim as usize * dim as usize);
    }

    /// Register query `q` in the influence list of `cell`.
    /// Idempotent: re-registration is a no-op (the NN re-computation module
    /// re-scans visit-list cells that are already registered).
    #[inline]
    pub fn add(&mut self, cell: CellCoord, q: Q) {
        let list = self.lists.occupy(cell.id(self.dim));
        if !list.contains(&q) {
            list.push(q);
        }
    }

    /// Remove query `q` from the influence list of `cell` (no-op if absent).
    #[inline]
    pub fn remove(&mut self, cell: CellCoord, q: Q) {
        self.remove_at(cell.id(self.dim), q);
    }

    fn remove_at(&mut self, cell_id: u64, q: Q) {
        if let Some(list) = self.lists.get_mut(cell_id) {
            if let Some(at) = list.iter().position(|&x| x == q) {
                list.swap_remove(at);
                self.lists.release_if_empty(cell_id);
            }
        }
    }

    /// The queries influenced by `cell`, as a contiguous slice (empty if
    /// none are registered).
    #[inline]
    pub fn queries_at(&self, cell: CellCoord) -> &[Q] {
        self.lists.get(cell.id(self.dim))
    }

    /// `true` if `q` is registered at `cell`.
    #[inline]
    pub fn contains(&self, cell: CellCoord, q: Q) -> bool {
        self.queries_at(cell).contains(&q)
    }

    /// Total number of `(cell, query)` registrations — `n · C_inf` in the
    /// space analysis of Section 4.1.
    pub fn total_entries(&self) -> usize {
        self.lists.iter().map(|(_, list)| list.len()).sum()
    }

    /// Number of cells with a non-empty influence list.
    pub fn occupied_cells(&self) -> usize {
        self.lists.occupied()
    }

    /// Remove every registration of `q` (used when a query terminates and
    /// the caller does not track its influence region — O(occupied
    /// cells); the monitors prefer targeted [`InfluenceTable::remove`]
    /// calls).
    pub fn purge_query(&mut self, q: Q) {
        let holds_q = |(id, list): (u64, &[Q])| list.contains(&q).then_some(id);
        let cells: Vec<u64> = self.lists.iter().filter_map(holds_q).collect();
        for id in cells {
            self.remove_at(id, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_roundtrip() {
        let mut t = InfluenceTable::new(16);
        let c = CellCoord::new(3, 4);
        t.add(c, QueryId(1));
        t.add(c, QueryId(2));
        t.add(c, QueryId(1)); // idempotent
        assert_eq!(t.queries_at(c).len(), 2);
        assert!(t.contains(c, QueryId(1)));
        t.remove(c, QueryId(1));
        assert!(!t.contains(c, QueryId(1)));
        t.remove(c, QueryId(2));
        assert!(t.queries_at(c).is_empty());
        assert_eq!(t.occupied_cells(), 0);
    }

    #[test]
    fn counts_entries_across_cells() {
        let mut t = InfluenceTable::new(16);
        t.add(CellCoord::new(0, 0), QueryId(1));
        t.add(CellCoord::new(0, 1), QueryId(1));
        t.add(CellCoord::new(0, 1), QueryId(2));
        assert_eq!(t.total_entries(), 3);
        assert_eq!(t.occupied_cells(), 2);
    }

    #[test]
    fn purge_removes_all_traces() {
        let mut t = InfluenceTable::new(16);
        for i in 0..8 {
            t.add(CellCoord::new(i, i), QueryId(7));
            t.add(CellCoord::new(i, i), QueryId(9));
        }
        t.purge_query(QueryId(7));
        assert_eq!(t.total_entries(), 8);
        for i in 0..8 {
            assert!(!t.contains(CellCoord::new(i, i), QueryId(7)));
            assert!(t.contains(CellCoord::new(i, i), QueryId(9)));
        }
    }

    #[test]
    fn distinct_cells_do_not_alias() {
        // Regression guard for the packed-id scheme: (col,row) vs (row,col).
        let mut t = InfluenceTable::new(64);
        t.add(CellCoord::new(2, 5), QueryId(1));
        assert!(!t.contains(CellCoord::new(5, 2), QueryId(1)));
    }

    #[test]
    fn recycled_lists_start_empty() {
        let mut t = InfluenceTable::new(16);
        let a = CellCoord::new(1, 1);
        let b = CellCoord::new(2, 2);
        t.add(a, QueryId(1));
        t.remove(a, QueryId(1)); // the slot falls vacant
        t.add(b, QueryId(2)); // and is handed to another cell
        assert_eq!(t.queries_at(b), &[QueryId(2)]);
        assert!(t.queries_at(a).is_empty());
        assert_eq!(t.total_entries(), 1);
        assert_eq!(t.occupied_cells(), 1);
        // Re-registering at the first cell must not alias the second.
        t.add(a, QueryId(3));
        assert_eq!(t.queries_at(a), &[QueryId(3)]);
        assert_eq!(t.queries_at(b), &[QueryId(2)]);
        assert_eq!(t.occupied_cells(), 2);
    }

    #[test]
    fn last_row_and_column_are_addressable() {
        // dim 1 (the only cell is the last one) and an odd dim.
        for dim in [1u32, 7] {
            let mut t = InfluenceTable::new(dim);
            let corner = CellCoord::new(dim - 1, dim - 1);
            let edge = CellCoord::new(dim - 1, 0);
            t.add(corner, QueryId(1));
            t.add(edge, QueryId(2));
            assert!(t.contains(corner, QueryId(1)));
            assert!(t.contains(edge, QueryId(2)));
            assert_eq!(t.occupied_cells(), if dim == 1 { 1 } else { 2 });
            t.purge_query(QueryId(1));
            t.remove(edge, QueryId(2));
            assert_eq!((t.total_entries(), t.occupied_cells()), (0, 0));
        }
    }

    /// Random add / remove / purge / reset churn keeps the directory ↔
    /// slab invariants and agrees with a model of per-cell sets.
    #[test]
    fn churn_keeps_the_directory_consistent() {
        use std::collections::BTreeSet;
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u32| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % u64::from(n)) as u32
        };
        let mut dim = 8u32;
        let mut t = InfluenceTable::new(dim);
        let mut model: BTreeSet<(u32, u32, u32)> = BTreeSet::new();
        for step in 0..4000 {
            let (cell, q) = (CellCoord::new(next(dim), next(dim)), next(6));
            match next(100) {
                0 => {
                    dim = 1 + next(12);
                    t.reset(dim);
                    model.clear();
                }
                1..=3 => {
                    t.purge_query(QueryId(q));
                    model.retain(|&(.., m)| m != q);
                }
                4..=45 => {
                    t.remove(cell, QueryId(q));
                    model.remove(&(cell.col, cell.row, q));
                }
                _ => {
                    t.add(cell, QueryId(q));
                    model.insert((cell.col, cell.row, q));
                }
            }
            t.lists.check_integrity(dim as usize * dim as usize);
            assert_eq!(t.total_entries(), model.len(), "step {step}");
            let contains =
                |&(col, row, q): &(u32, u32, u32)| t.contains(CellCoord::new(col, row), QueryId(q));
            assert!(model.iter().all(contains), "step {step}");
        }
    }

    #[test]
    fn reset_resizes_the_directory() {
        let mut t = InfluenceTable::new(4);
        for i in 0..4 {
            t.add(CellCoord::new(i, 3 - i), QueryId(i));
        }
        // Grow: cells that did not exist at dim 4 are addressable, and no
        // old registration survives under a re-interpreted id.
        t.reset(9);
        assert_eq!((t.dim(), t.total_entries(), t.occupied_cells()), (9, 0, 0));
        let far = CellCoord::new(8, 8);
        t.add(far, QueryId(5));
        t.add(CellCoord::new(0, 3), QueryId(6));
        assert_eq!(t.queries_at(far), &[QueryId(5)]);
        assert!(t.queries_at(CellCoord::new(3, 0)).is_empty());
        assert_eq!(t.total_entries(), 2);
        // Shrink.
        t.reset(2);
        assert_eq!((t.dim(), t.total_entries()), (2, 0));
        t.add(CellCoord::new(1, 1), QueryId(7));
        assert_eq!(t.queries_at(CellCoord::new(1, 1)), &[QueryId(7)]);
        assert_eq!((t.total_entries(), t.occupied_cells()), (1, 1));
    }
}
