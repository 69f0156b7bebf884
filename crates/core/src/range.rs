//! Continuous *range* monitoring: report every object inside a query
//! rectangle or circle, maintained incrementally by the CPM machinery.
//!
//! Range queries are the workload of the distributed continuous-query
//! monitors CPM is contrasted with in Table 2.1 (Q-index, MQM, Mobieyes,
//! SINA all monitor ranges), and the natural subscription shape for a
//! location-aware pub/sub front end ([`cpm-sub`]): "notify me about every
//! object inside this region".
//!
//! The adaptation degenerates gracefully from the k-NN case:
//!
//! * **No best-dist bookkeeping.** A range result is never "full", so
//!   `best_dist` stays `+∞`: the initial search drains the heap completely
//!   rather than stopping at a k-th neighbor. [`QuerySpec::admits_cell`]
//!   restricts the drain to cells intersecting the region, so the visit
//!   list is exactly the region's cell cover.
//! * **Influence region = the region itself.** With an infinite
//!   `best_dist` the influence prefix is the whole visit list — precisely
//!   the cells overlapping the query rectangle/circle. An update outside
//!   the region costs nothing, as for k-NN.
//! * **Objects outside the region never qualify**: their distance is `+∞`
//!   (the constrained-query convention of Section 5).
//! * **No re-computation.** Figure 3.8 re-computes only a full list, and
//!   a range result is never full: it already holds every object in the
//!   region, so the members that stay, minus the ones that leave, plus
//!   the incomers are the new result, however many members leave.
//!   Every cycle that touches the region resolves by the merge.
//!
//! Results are ordered ascending by `(distance to the region's anchor
//! point, id)` — the same canonical order every other monitor uses — so
//! deltas, threading and replay behave identically for range and k-NN
//! subscriptions. Install it through [`crate::CpmServer::install_spec`]
//! next to every other kind (its `k` becomes
//! [`RangeQuery::UNBOUNDED_K`]).
//!
//! [`cpm-sub`]: ../../cpm_sub/index.html

use cpm_geom::{Point, Rect};
use cpm_grid::{CellCoord, GridGeom};

use crate::engine::QuerySpec;
use crate::partition::{Direction, Pinwheel};

/// The monitored region of a [`RangeQuery`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Region {
    /// A closed axis-aligned rectangle.
    Rect(Rect),
    /// A closed disk.
    Circle {
        /// Disk center.
        center: Point,
        /// Disk radius (≥ 0).
        radius: f64,
    },
}

impl Region {
    /// `true` if `p` lies inside the closed region.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        match *self {
            Region::Rect(r) => r.contains(p),
            Region::Circle { center, radius } => center.dist_sq(p) <= radius * radius,
        }
    }

    /// The region's bounding rectangle (clamped to the workspace).
    pub fn bbox(&self) -> Rect {
        match *self {
            Region::Rect(r) => r,
            Region::Circle { center, radius } => Rect::new(
                Point::new((center.x - radius).max(0.0), (center.y - radius).max(0.0)),
                Point::new((center.x + radius).min(1.0), (center.y + radius).min(1.0)),
            ),
        }
    }

    /// The anchor point results are ordered around: the rectangle center
    /// or the disk center.
    #[inline]
    pub fn anchor(&self) -> Point {
        match *self {
            Region::Rect(r) => r.center(),
            Region::Circle { center, .. } => center,
        }
    }

    /// `true` if the region intersects `rect`.
    #[inline]
    pub fn intersects_rect(&self, rect: &Rect) -> bool {
        match *self {
            Region::Rect(r) => r.intersects(rect),
            Region::Circle { center, radius } => rect.intersects_circle(center, radius),
        }
    }
}

/// A continuous range query: report every object inside [`Region`],
/// ascending by `(distance to the region anchor, id)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeQuery {
    /// The monitored region.
    pub region: Region,
}

impl RangeQuery {
    /// The `k` a range query is installed with: an unbounded-result
    /// sentinel far above any realistic object population, so the result
    /// list never fills and `best_dist` stays `+∞` (no best-dist
    /// bookkeeping). [`crate::NeighborList`] bounds its allocation hint,
    /// so the sentinel costs nothing.
    pub const UNBOUNDED_K: usize = 1 << 24;

    /// Monitor a rectangle.
    pub fn rect(region: Rect) -> Self {
        Self {
            region: Region::Rect(region),
        }
    }

    /// Monitor a disk.
    pub fn circle(center: Point, radius: f64) -> Self {
        assert!(radius >= 0.0, "negative radius");
        Self {
            region: Region::Circle { center, radius },
        }
    }
}

impl QuerySpec for RangeQuery {
    #[inline]
    fn dist(&self, p: Point) -> f64 {
        if self.region.contains(p) {
            self.region.anchor().dist(p)
        } else {
            f64::INFINITY
        }
    }

    fn base_block(&self, geom: GridGeom) -> (CellCoord, CellCoord) {
        let bbox = self.region.bbox();
        (geom.cell_of(bbox.lo), geom.cell_of(bbox.hi))
    }

    #[inline]
    fn cell_key(&self, geom: GridGeom, cell: CellCoord) -> f64 {
        geom.mindist(cell, self.region.anchor())
    }

    #[inline]
    fn strip_key(&self, pw: &Pinwheel, dir: Direction, lvl: u32) -> f64 {
        pw.strip_mindist(dir, lvl, self.region.anchor())
    }

    #[inline]
    fn strip_increment(&self, delta: f64) -> f64 {
        delta
    }

    #[inline]
    fn admits_cell(&self, geom: GridGeom, cell: CellCoord) -> bool {
        self.region.intersects_rect(&geom.cell_rect(cell))
    }

    #[inline]
    fn kind(&self) -> cpm_grid::QueryKind {
        cpm_grid::QueryKind::Range
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbors::Neighbor;
    use crate::{CpmServer, CpmServerBuilder};
    use cpm_geom::{ObjectId, QueryId};
    use std::num::NonZeroUsize;

    /// A `T = 1` server over a `dim × dim` grid holding `objects` and
    /// range query 0.
    fn server(dim: u32, objects: &[(ObjectId, Point)], q: RangeQuery) -> CpmServer {
        let mut m = CpmServerBuilder::new(dim)
            .threads(NonZeroUsize::MIN)
            .build();
        m.populate(objects.iter().copied()).unwrap();
        m.install_spec(QueryId(0), q, 1).unwrap();
        m
    }

    /// Ground truth: objects inside the region, ascending by
    /// `(anchor distance, id)`.
    fn brute_force(m: &CpmServer, q: &RangeQuery) -> Vec<Neighbor> {
        let anchor = q.region.anchor();
        let mut out: Vec<Neighbor> = m
            .grid()
            .iter_objects()
            .filter(|&(_, p)| q.region.contains(p))
            .map(|(id, p)| Neighbor {
                id,
                dist: anchor.dist(p),
            })
            .collect();
        out.sort_unstable_by(|a, b| {
            (a.dist, a.id)
                .partial_cmp(&(b.dist, b.id))
                .expect("finite distances")
        });
        out
    }

    fn ids(m: &CpmServer) -> Vec<ObjectId> {
        m.result(QueryId(0)).unwrap().iter().map(|n| n.id).collect()
    }

    #[test]
    fn rect_region_reports_exact_membership() {
        let objects = [
            (ObjectId(0), Point::new(0.3, 0.3)),
            (ObjectId(1), Point::new(0.5, 0.5)),
            (ObjectId(2), Point::new(0.74, 0.74)),
            (ObjectId(3), Point::new(0.76, 0.76)), // just outside
        ];
        let q = RangeQuery::rect(Rect::new(Point::new(0.25, 0.25), Point::new(0.75, 0.75)));
        let m = server(16, &objects, q);
        assert_eq!(ids(&m), vec![ObjectId(1), ObjectId(0), ObjectId(2)]);
        // The k the server installs a range with is unbounded.
        assert_eq!(
            m.query_state(QueryId(0)).unwrap().k(),
            RangeQuery::UNBOUNDED_K
        );
        assert_eq!(
            m.result(QueryId(0)).unwrap(),
            brute_force(&m, &q).as_slice()
        );
        m.check_invariants();
    }

    #[test]
    fn circle_region_boundary_is_closed() {
        let objects = [
            (ObjectId(0), Point::new(0.5, 0.7)), // exactly on the boundary
            (ObjectId(1), Point::new(0.5, 0.71)),
        ];
        let m = server(16, &objects, RangeQuery::circle(Point::new(0.5, 0.5), 0.2));
        assert_eq!(ids(&m), vec![ObjectId(0)]);
    }

    #[test]
    fn influence_region_is_the_region_cover() {
        let region = Rect::new(Point::new(0.30, 0.30), Point::new(0.60, 0.60));
        let objects = [(ObjectId(0), Point::new(0.4, 0.4))];
        let m = server(8, &objects, RangeQuery::rect(region));
        let st = m.query_state(QueryId(0)).unwrap();
        // Every visited cell is influence-registered (best_dist = +∞) and
        // intersects the region.
        assert_eq!(st.influence_len, st.visit_list.len());
        for &(cell, _) in &st.visit_list {
            assert!(m.grid().cell_rect(cell).intersects(&region));
        }
        // And the cover is complete: 0.30..0.60 on an 8-grid spans cells
        // 2..=4 per axis.
        assert_eq!(st.visit_list.len(), 9);
        m.check_invariants();
    }

    #[test]
    fn empty_region_yields_empty_result() {
        let objects = [(ObjectId(0), Point::new(0.9, 0.9))];
        let m = server(8, &objects, RangeQuery::circle(Point::new(0.1, 0.1), 0.05));
        assert!(m.result(QueryId(0)).unwrap().is_empty());
        m.check_invariants();
    }
}
