//! Conceptual partitioning of the space around a query (Section 3.1).
//!
//! CPM organizes the cells around the query cell `c_q` into one-cell-thick
//! rectangles ("strips") identified by a [`Direction`] (U/D/L/R) and a level
//! number (the number of rectangles between the strip and `c_q`). The strips
//! of all directions and levels, together with the base, tile the grid
//! exactly — every cell belongs to exactly one of them (property-tested
//! below). Lemma 3.1 gives `mindist(DIR_{j+1}, q) = mindist(DIR_j, q) + δ`,
//! which lets the NN search en-heap a *constant* frontier (the four
//! "boundary boxes") instead of sorting all cells by `mindist`.
//!
//! The same pinwheel generalizes from a single base cell to a cell-aligned
//! base *rectangle*, which is how the aggregate-NN search of Section 5
//! partitions the space around the MBR `M` of the query set `Q`.

use cpm_geom::Point;
use cpm_grid::CellCoord;

/// The four strip directions of the conceptual partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Above the base (`U` in Figure 3.1b).
    Up,
    /// Below the base (`D`).
    Down,
    /// Left of the base (`L`).
    Left,
    /// Right of the base (`R`).
    Right,
}

impl Direction {
    /// All four directions, in the order used for deterministic iteration.
    pub const ALL: [Direction; 4] = [
        Direction::Up,
        Direction::Down,
        Direction::Left,
        Direction::Right,
    ];
}

/// The cells of one conceptual rectangle `DIR_lvl`, clipped to the grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Strip {
    /// Direction of the rectangle.
    pub dir: Direction,
    /// Level number (0 = adjacent to the base).
    pub level: u32,
    /// Fixed coordinate: the strip's single row (for U/D) or column (L/R).
    fixed: u32,
    /// Inclusive cross-axis range (columns for U/D, rows for L/R), clipped.
    cross: (u32, u32),
}

impl Strip {
    /// Iterate over the cells of the strip.
    pub fn cells(&self) -> impl Iterator<Item = CellCoord> + '_ {
        let fixed = self.fixed;
        let horizontal = matches!(self.dir, Direction::Up | Direction::Down);
        (self.cross.0..=self.cross.1).map(move |v| {
            if horizontal {
                CellCoord::new(v, fixed)
            } else {
                CellCoord::new(fixed, v)
            }
        })
    }

    /// Number of cells in the (clipped) strip.
    pub fn len(&self) -> usize {
        (self.cross.1 - self.cross.0 + 1) as usize
    }

    /// Strips are never empty (an off-grid strip is `None` at construction).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The pinwheel partitioning around a cell-aligned base rectangle
/// `[c0, c1] × [r0, r1]` inside a `dim × dim` grid.
///
/// For a plain k-NN query the base is the single query cell `c_q`
/// (`c0 == c1`, `r0 == r1`); for an aggregate query it is the block of cells
/// covering the MBR `M` of the query set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinwheel {
    /// Leftmost base column.
    pub c0: u32,
    /// Rightmost base column.
    pub c1: u32,
    /// Bottom base row.
    pub r0: u32,
    /// Top base row.
    pub r1: u32,
    /// Grid dimension.
    pub dim: u32,
}

impl Pinwheel {
    /// Pinwheel around a single cell.
    pub fn around_cell(c: CellCoord, dim: u32) -> Self {
        Self {
            c0: c.col,
            c1: c.col,
            r0: c.row,
            r1: c.row,
            dim,
        }
    }

    /// Pinwheel around a cell-aligned rectangle (for aggregate queries).
    ///
    /// # Panics
    /// Panics (debug) if the base is empty or exceeds the grid.
    pub fn around_block(lo: CellCoord, hi: CellCoord, dim: u32) -> Self {
        debug_assert!(lo.col <= hi.col && lo.row <= hi.row);
        debug_assert!(hi.col < dim && hi.row < dim);
        Self {
            c0: lo.col,
            c1: hi.col,
            r0: lo.row,
            r1: hi.row,
            dim,
        }
    }

    /// The cells of the base block itself (row-major).
    pub fn base_cells(&self) -> impl Iterator<Item = CellCoord> + '_ {
        let (c0, c1) = (self.c0, self.c1);
        (self.r0..=self.r1).flat_map(move |row| (c0..=c1).map(move |col| CellCoord::new(col, row)))
    }

    /// The strip `DIR_lvl`, or `None` when it lies entirely outside the
    /// grid (that direction is exhausted at and beyond `lvl`).
    ///
    /// Construction (the conceptual rectangles of Section 3.1, around a
    /// base block instead of one query cell): for level `lvl ≥ 0`,
    /// `U_lvl` = row `r1+lvl+1`, cols `[c0−lvl−1, c1+lvl]`;
    /// `R_lvl` = col `c1+lvl+1`, rows `[r0−lvl, r1+lvl+1]`;
    /// `D_lvl` = row `r0−lvl−1`, cols `[c0−lvl, c1+lvl+1]`;
    /// `L_lvl` = col `c0−lvl−1`, rows `[r0−lvl−1, r1+lvl]`.
    /// Each ring tiles the boundary of the base block expanded by `lvl+1`
    /// cells exactly once.
    pub fn strip(&self, dir: Direction, lvl: u32) -> Option<Strip> {
        let dim = self.dim as i64;
        let lvl_i = lvl as i64;
        let (c0, c1, r0, r1) = (
            self.c0 as i64,
            self.c1 as i64,
            self.r0 as i64,
            self.r1 as i64,
        );
        let (fixed, cross_lo, cross_hi) = match dir {
            Direction::Up => (r1 + lvl_i + 1, c0 - lvl_i - 1, c1 + lvl_i),
            Direction::Right => (c1 + lvl_i + 1, r0 - lvl_i, r1 + lvl_i + 1),
            Direction::Down => (r0 - lvl_i - 1, c0 - lvl_i, c1 + lvl_i + 1),
            Direction::Left => (c0 - lvl_i - 1, r0 - lvl_i - 1, r1 + lvl_i),
        };
        if fixed < 0 || fixed >= dim {
            return None;
        }
        let lo = cross_lo.max(0);
        let hi = cross_hi.min(dim - 1);
        debug_assert!(lo <= hi, "clipped strip cannot be empty: {dir:?} {lvl}");
        Some(Strip {
            dir,
            level: lvl,
            fixed: fixed as u32,
            cross: (lo as u32, hi as u32),
        })
    }

    /// `mindist(DIR_lvl, q)` for a query point `q` located inside (or on)
    /// the base block: the pure axis distance from `q` to the strip's near
    /// edge (Lemma 3.1). `δ = 1/dim`.
    ///
    /// For clipped strips this is a (safe) lower bound — cell entries carry
    /// their exact `mindist` anyway.
    #[inline]
    pub fn strip_mindist(&self, dir: Direction, lvl: u32, q: Point) -> f64 {
        let delta = 1.0 / self.dim as f64;
        let d = match dir {
            Direction::Up => (self.r1 + lvl + 1) as f64 * delta - q.y,
            Direction::Down => q.y - (self.r0 as f64 - lvl as f64) * delta,
            Direction::Right => (self.c1 + lvl + 1) as f64 * delta - q.x,
            Direction::Left => q.x - (self.c0 as f64 - lvl as f64) * delta,
        };
        // q on the base boundary can make d marginally negative through
        // rounding; distances are never negative.
        d.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_geom::Rect;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Collect every strip cell for rings 0..max_lvl around the base.
    fn tile(pw: &Pinwheel, max_lvl: u32) -> HashMap<CellCoord, (Direction, u32)> {
        let mut seen = HashMap::new();
        for dir in Direction::ALL {
            for lvl in 0..=max_lvl {
                if let Some(strip) = pw.strip(dir, lvl) {
                    for c in strip.cells() {
                        let prev = seen.insert(c, (dir, lvl));
                        assert!(prev.is_none(), "cell {c} covered twice: {prev:?}");
                    }
                }
            }
        }
        seen
    }

    #[test]
    fn level0_around_center_cell_is_the_eight_neighbors() {
        let pw = Pinwheel::around_cell(CellCoord::new(4, 4), 9);
        let seen = tile(&pw, 0);
        assert_eq!(seen.len(), 8);
        for dc in -1i64..=1 {
            for dr in -1i64..=1 {
                if dc == 0 && dr == 0 {
                    continue;
                }
                let c = CellCoord::new((4 + dc) as u32, (4 + dr) as u32);
                assert!(seen.contains_key(&c), "missing neighbor {c}");
            }
        }
    }

    #[test]
    fn rings_tile_the_whole_grid_exactly_once() {
        let dim = 11u32;
        let pw = Pinwheel::around_cell(CellCoord::new(3, 7), dim);
        // Levels up to dim are guaranteed to cover the full grid.
        let mut seen = tile(&pw, dim);
        for c in pw.base_cells() {
            assert!(seen.insert(c, (Direction::Up, u32::MAX)).is_none());
        }
        assert_eq!(seen.len(), (dim * dim) as usize, "grid fully covered");
    }

    #[test]
    fn block_base_rings_tile_too() {
        let dim = 12u32;
        let pw = Pinwheel::around_block(CellCoord::new(4, 5), CellCoord::new(6, 8), dim);
        let mut seen = tile(&pw, dim);
        let base: Vec<_> = pw.base_cells().collect();
        assert_eq!(base.len(), 3 * 4);
        for c in base {
            assert!(seen.insert(c, (Direction::Up, u32::MAX)).is_none());
        }
        assert_eq!(seen.len(), (dim * dim) as usize);
    }

    #[test]
    fn exhausted_direction_returns_none() {
        // Query cell on the top row: U strips never exist.
        let pw = Pinwheel::around_cell(CellCoord::new(0, 7), 8);
        assert!(pw.strip(Direction::Up, 0).is_none());
        assert!(pw.strip(Direction::Left, 0).is_none());
        assert!(pw.strip(Direction::Down, 0).is_some());
        assert!(pw.strip(Direction::Down, 6).is_some());
        assert!(pw.strip(Direction::Down, 7).is_none());
    }

    #[test]
    fn lemma_3_1_mindist_increment_is_delta() {
        let dim = 16u32;
        let pw = Pinwheel::around_cell(CellCoord::new(5, 5), dim);
        let delta = 1.0 / dim as f64;
        let q = Point::new(5.3 * delta, 5.9 * delta); // inside cell (5,5)
        for dir in Direction::ALL {
            for lvl in 0..3 {
                let d0 = pw.strip_mindist(dir, lvl, q);
                let d1 = pw.strip_mindist(dir, lvl + 1, q);
                assert!(
                    (d1 - d0 - delta).abs() < 1e-12,
                    "{dir:?}: {d0} -> {d1} (δ={delta})"
                );
            }
        }
    }

    #[test]
    fn strip_mindist_lower_bounds_member_cells() {
        let dim = 16u32;
        let delta = 1.0 / dim as f64;
        let pw = Pinwheel::around_cell(CellCoord::new(8, 8), dim);
        let q = Point::new(8.5 * delta, 8.5 * delta);
        for dir in Direction::ALL {
            for lvl in 0..5 {
                let strip = pw.strip(dir, lvl).unwrap();
                let bound = pw.strip_mindist(dir, lvl, q);
                for c in strip.cells() {
                    let lo = Point::new(c.col as f64 * delta, c.row as f64 * delta);
                    let rect = Rect::new(lo, Point::new(lo.x + delta, lo.y + delta));
                    assert!(
                        rect.mindist(q) >= bound - 1e-12,
                        "{dir:?}{lvl} cell {c}: {} < {bound}",
                        rect.mindist(q)
                    );
                }
                // The bound is tight: some cell attains it (the one aligned
                // with q's projection, present while unclipped).
                let attained = strip.cells().any(|c| {
                    let lo = Point::new(c.col as f64 * delta, c.row as f64 * delta);
                    let rect = Rect::new(lo, Point::new(lo.x + delta, lo.y + delta));
                    (rect.mindist(q) - bound).abs() < 1e-12
                });
                assert!(attained, "{dir:?}{lvl}: bound not attained");
            }
        }
    }

    proptest! {
        #[test]
        fn pinwheel_tiles_any_center_any_grid(
            dim in 2u32..24,
            col in 0u32..24,
            row in 0u32..24,
        ) {
            let col = col % dim;
            let row = row % dim;
            let pw = Pinwheel::around_cell(CellCoord::new(col, row), dim);
            let mut seen = tile(&pw, dim);
            for c in pw.base_cells() {
                prop_assert!(seen.insert(c, (Direction::Up, u32::MAX)).is_none());
            }
            prop_assert_eq!(seen.len(), (dim * dim) as usize);
        }

        #[test]
        fn block_pinwheel_tiles(
            dim in 4u32..20,
            a in 0u32..20, b in 0u32..20, c in 0u32..20, d in 0u32..20,
        ) {
            let (c0, c1) = ((a % dim).min(b % dim), (a % dim).max(b % dim));
            let (r0, r1) = ((c % dim).min(d % dim), (c % dim).max(d % dim));
            let pw = Pinwheel::around_block(
                CellCoord::new(c0, r0), CellCoord::new(c1, r1), dim);
            let mut seen = tile(&pw, dim);
            for cell in pw.base_cells() {
                prop_assert!(seen.insert(cell, (Direction::Up, u32::MAX)).is_none());
            }
            prop_assert_eq!(seen.len(), (dim * dim) as usize);
        }
    }
}
