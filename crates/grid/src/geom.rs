//! The conceptual cell geometry.
//!
//! CPM's query side only ever talks about the **conceptual partitioning**:
//! a `dim × dim` grid of cells with side `δ = 1/dim` over the unit square
//! (Section 3.1). This module holds that coordinate math as [`GridGeom`],
//! a tiny `Copy` value [`crate::Grid::geom`] hands out, so query specs,
//! search loops and the cluster's partition map are written against the
//! geometry alone and borrow nothing from the index that stores the
//! objects.

use std::fmt;

use cpm_geom::{clamp_coord, Point, Rect};

use crate::CellCoord;

/// The conceptual `dim × dim` cell space over the unit square: dimension,
/// cell side `δ = 1/dim`, and all coordinate math (point→cell mapping,
/// cell extents, `mindist`, allocation-free region covers).
///
/// `GridGeom` is deliberately `Copy` and self-contained: iterators
/// returned from it borrow nothing, so region covers can be computed
/// while the owning index is mutably borrowed elsewhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridGeom {
    dim: u32,
    delta: f64,
}

/// A grid dimension the conceptual cell space cannot take, reported by
/// [`GridGeom::check_dim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridConfigError {
    /// The requested grid dimension.
    pub dim: u32,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl fmt::Display for GridConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid grid config (dim {}): {}", self.dim, self.reason)
    }
}

impl std::error::Error for GridConfigError {}

impl GridGeom {
    /// The one range check on a grid dimension: the packed-coordinate and
    /// clamping assumptions hold for `δ ≥ 1/4096` (the paper uses at most
    /// 1024). Every constructor, the engines' `regrid_to` and the
    /// snapshot decoder go through it.
    ///
    /// # Errors
    /// A [`GridConfigError`] unless `dim` lies in `1..=4096`.
    pub fn check_dim(dim: u32) -> Result<(), GridConfigError> {
        if (1..=4096).contains(&dim) {
            Ok(())
        } else {
            Err(GridConfigError {
                dim,
                reason: "grid dimension must lie in 1..=4096",
            })
        }
    }

    /// Geometry of a `dim × dim` conceptual grid over the unit square.
    ///
    /// # Panics
    /// Panics if [`GridGeom::check_dim`] rejects `dim`.
    pub fn new(dim: u32) -> Self {
        Self::check_dim(dim).unwrap_or_else(|e| panic!("{e}"));
        Self {
            dim,
            delta: 1.0 / dim as f64,
        }
    }

    /// Grid dimension (cells per axis).
    #[inline]
    pub fn dim(self) -> u32 {
        self.dim
    }

    /// Cell side length `δ`.
    #[inline]
    pub fn delta(self) -> f64 {
        self.delta
    }

    /// Total number of conceptual cells (`dim²`).
    #[inline]
    pub fn total_cells(self) -> usize {
        (self.dim as usize) * (self.dim as usize)
    }

    /// The cell containing point `p` (`i = ⌊x/δ⌋`, `j = ⌊y/δ⌋`), with
    /// coordinates clamped into the workspace first.
    #[inline]
    pub fn cell_of(self, p: Point) -> CellCoord {
        let col = (clamp_coord(p.x) / self.delta) as u32;
        let row = (clamp_coord(p.y) / self.delta) as u32;
        // Guard against floating rounding right at the upper edge.
        CellCoord::new(col.min(self.dim - 1), row.min(self.dim - 1))
    }

    /// Unpack a cell id produced by [`CellCoord::id`] at this dimension.
    #[inline]
    pub fn cell_from_id(self, id: u64) -> CellCoord {
        let dim = self.dim as u64;
        CellCoord::new((id % dim) as u32, (id / dim) as u32)
    }

    /// The spatial extent of cell `c`.
    #[inline]
    pub fn cell_rect(self, c: CellCoord) -> Rect {
        let lo = Point::new(c.col as f64 * self.delta, c.row as f64 * self.delta);
        let hi = Point::new(lo.x + self.delta, lo.y + self.delta);
        Rect::new(lo, hi)
    }

    /// `mindist(c, q)`: minimum distance between cell `c` and point `q`
    /// (Table 3.1).
    #[inline]
    pub fn mindist(self, c: CellCoord, q: Point) -> f64 {
        self.cell_rect(c).mindist(q)
    }

    /// Squared `mindist(c, q)`, for comparison-only call sites.
    #[inline]
    pub fn mindist_sq(self, c: CellCoord, q: Point) -> f64 {
        self.cell_rect(c).mindist_sq(q)
    }

    /// The inclusive `(lo_col, hi_col, lo_row, hi_row)` cell bounds of the
    /// cells intersecting `region` (clamped into the grid).
    #[inline]
    pub(crate) fn rect_cell_bounds(self, region: &Rect) -> (u32, u32, u32, u32) {
        let lo_col = (clamp_coord(region.lo.x) / self.delta) as u32;
        let lo_row = (clamp_coord(region.lo.y) / self.delta) as u32;
        let hi_col = ((clamp_coord(region.hi.x)) / self.delta) as u32;
        let hi_row = ((clamp_coord(region.hi.y)) / self.delta) as u32;
        (
            lo_col.min(self.dim - 1),
            hi_col.min(self.dim - 1),
            lo_row.min(self.dim - 1),
            hi_row.min(self.dim - 1),
        )
    }

    /// Iterate, in row-major order and without allocating, over all cells
    /// (occupied or not) whose extent intersects `region`. Used by the
    /// baselines' square scans (YPK-CNN's `SR` rectangle) and by the
    /// monitors' influence-region registration — which is why the cover
    /// includes **empty** cells: a query must notice objects moving
    /// *into* them.
    pub fn cells_in_rect(self, region: &Rect) -> impl Iterator<Item = CellCoord> {
        let (lo_col, hi_col, lo_row, hi_row) = self.rect_cell_bounds(region);
        (lo_row..=hi_row)
            .flat_map(move |row| (lo_col..=hi_col).map(move |col| CellCoord::new(col, row)))
    }

    /// Iterate, without allocating, over all cells whose extent intersects
    /// the closed disk `(center, radius)` — the circle-cover counterpart of
    /// [`GridGeom::cells_in_rect`]. Callers that store the cover extend a
    /// reused buffer from this iterator (SEA-CNN's answer-region marks).
    pub fn cells_in_circle(self, center: Point, radius: f64) -> impl Iterator<Item = CellCoord> {
        let bbox = Rect::new(
            Point::new(center.x - radius, center.y - radius),
            Point::new(center.x + radius, center.y + radius),
        );
        let r_sq = radius * radius;
        self.cells_in_rect(&bbox)
            .filter(move |&c| self.cell_rect(c).mindist_sq(center) <= r_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_matches_the_floor_formula() {
        let g = GridGeom::new(8);
        assert_eq!(g.dim(), 8);
        assert_eq!(g.delta(), 0.125);
        assert_eq!(g.total_cells(), 64);
        assert_eq!(g.cell_of(Point::new(0.0, 0.0)), CellCoord::new(0, 0));
        assert_eq!(g.cell_of(Point::new(1.0, 1.0)), CellCoord::new(7, 7));
        let c = CellCoord::new(2, 5);
        assert_eq!(g.cell_from_id(c.id(8)), c);
        assert_eq!(g.mindist(c, Point::new(0.3, 0.7)), 0.0);
        assert!(g.mindist_sq(CellCoord::new(0, 0), Point::new(1.0, 1.0)) > 0.0);
    }

    #[test]
    #[should_panic(expected = "must lie in 1..=4096")]
    fn zero_dim_is_rejected() {
        let _ = GridGeom::new(0);
    }

    #[test]
    fn dim_check_names_the_range() {
        assert!(GridGeom::check_dim(1).is_ok() && GridGeom::check_dim(4096).is_ok());
        for dim in [0, 4097, 8192] {
            let e = GridGeom::check_dim(dim).unwrap_err();
            assert_eq!(e.dim, dim);
            assert!(e.to_string().contains("1..=4096"), "{e}");
        }
    }

    #[test]
    fn covers_are_value_iterators() {
        let g = GridGeom::new(8);
        let r = Rect::new(Point::new(0.2, 0.2), Point::new(0.3, 0.3));
        // The iterator is `'static`: it can outlive any index borrow.
        let cover: Vec<CellCoord> = g.cells_in_rect(&r).collect();
        let at = CellCoord::new;
        assert_eq!(cover, [at(1, 1), at(2, 1), at(1, 2), at(2, 2)], "row-major");
        let disk: Vec<CellCoord> = g.cells_in_circle(Point::new(0.5, 0.5), 0.13).collect();
        for &c in &disk {
            assert!(g.cell_rect(c).intersects_circle(Point::new(0.5, 0.5), 0.13));
        }
    }
}
