//! Constrained NN monitoring: k nearest neighbors inside a user-specified
//! region (Section 5, after Figure 5.2; the static-data problem is due to
//! Ferhatosmanoglu et al. \[FSAA01\]).
//!
//! "The adaptation of CPM to this problem inserts into the search heap only
//! cells and conceptual rectangles that intersect the constraint region."
//! We filter cells at en-heap time through [`QuerySpec::admits_cell`];
//! rectangle markers are kept (they are four cheap heap entries and their
//! levels may re-enter the region), while objects outside the region are
//! excluded by an infinite distance. Update handling is untouched: an
//! object leaving the region is an outgoing NN, one entering it is an
//! incomer. Install it through [`crate::CpmServer::install_spec`] next
//! to every other kind.

use cpm_geom::{Point, Rect};
use cpm_grid::{CellCoord, GridGeom};

use crate::engine::QuerySpec;
use crate::partition::{Direction, Pinwheel};

/// A point query with a rectangular constraint region: report the k objects
/// inside `region` that lie closest to `q`.
#[derive(Debug, Clone)]
pub struct ConstrainedQuery {
    /// The query point.
    pub q: Point,
    /// The constraint region (objects outside never qualify).
    pub region: Rect,
}

impl ConstrainedQuery {
    /// Build a constrained query.
    pub fn new(q: Point, region: Rect) -> Self {
        Self { q, region }
    }

    /// Convenience: the quadrant of the workspace to the north-east of `q`
    /// (the example of Figure 5.3).
    pub fn northeast_of(q: Point) -> Self {
        Self::new(q, Rect::new(q, Point::new(1.0, 1.0)))
    }
}

impl QuerySpec for ConstrainedQuery {
    #[inline]
    fn dist(&self, p: Point) -> f64 {
        if self.region.contains(p) {
            self.q.dist(p)
        } else {
            f64::INFINITY
        }
    }

    fn base_block(&self, geom: GridGeom) -> (CellCoord, CellCoord) {
        let c = geom.cell_of(self.q);
        (c, c)
    }

    #[inline]
    fn cell_key(&self, geom: GridGeom, cell: CellCoord) -> f64 {
        geom.mindist(cell, self.q)
    }

    #[inline]
    fn strip_key(&self, pw: &Pinwheel, dir: Direction, lvl: u32) -> f64 {
        pw.strip_mindist(dir, lvl, self.q)
    }

    #[inline]
    fn strip_increment(&self, delta: f64) -> f64 {
        delta
    }

    #[inline]
    fn admits_cell(&self, geom: GridGeom, cell: CellCoord) -> bool {
        geom.cell_rect(cell).intersects(&self.region)
    }

    #[inline]
    fn kind(&self) -> cpm_grid::QueryKind {
        cpm_grid::QueryKind::Constrained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::CpmEngine;
    use cpm_geom::{ObjectId, QueryId};
    use cpm_grid::ObjectEvent;
    use std::num::NonZeroUsize;

    fn assert_matches(m: &CpmEngine<ConstrainedQuery>, qid: QueryId) {
        let st = m.query_state(qid).unwrap();
        let mut expect: Vec<f64> = m
            .grid()
            .iter_objects()
            .filter(|&(_, p)| st.spec.region.contains(p))
            .map(|(_, p)| st.spec.q.dist(p))
            .collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        expect.truncate(st.k());
        let got: Vec<f64> = st.result().iter().map(|n| n.dist).collect();
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-9, "{got:?} vs {expect:?}");
        }
    }

    /// Figure 5.3: monitoring the NN to the north-east of q. The
    /// unconstrained NN (west of q) must not be reported.
    #[test]
    fn northeast_constraint_fig_5_3() {
        let mut m = CpmEngine::<ConstrainedQuery>::new(8, NonZeroUsize::MIN);
        m.populate([
            (ObjectId(1), Point::new(0.45, 0.55)), // p1: unconstrained NN, NW
            (ObjectId(2), Point::new(0.58, 0.45)), // p2: east but south
            (ObjectId(3), Point::new(0.70, 0.70)), // p3: the constrained NN
        ]);
        let q = ConstrainedQuery::northeast_of(Point::new(0.52, 0.52));
        m.install(QueryId(0), q, 1);
        assert_eq!(m.result(QueryId(0)).unwrap()[0].id, ObjectId(3));
        assert_matches(&m, QueryId(0));
        m.check_invariants();
    }

    #[test]
    fn object_leaving_region_is_outgoing() {
        let mut m = CpmEngine::<ConstrainedQuery>::new(8, NonZeroUsize::MIN);
        m.populate([
            (ObjectId(1), Point::new(0.6, 0.6)),
            (ObjectId(2), Point::new(0.8, 0.8)),
        ]);
        let q = ConstrainedQuery::northeast_of(Point::new(0.5, 0.5));
        m.install(QueryId(0), q, 1);
        assert_eq!(m.result(QueryId(0)).unwrap()[0].id, ObjectId(1));
        // The NN drifts out of the constraint region (still near q!).
        m.process_cycle(
            &[ObjectEvent::Move {
                id: ObjectId(1),
                to: Point::new(0.45, 0.55),
            }],
            &[],
        );
        assert_eq!(m.result(QueryId(0)).unwrap()[0].id, ObjectId(2));
        assert_matches(&m, QueryId(0));
        m.check_invariants();
    }

    #[test]
    fn object_entering_region_is_incoming() {
        let mut m = CpmEngine::<ConstrainedQuery>::new(8, NonZeroUsize::MIN);
        m.populate([
            (ObjectId(1), Point::new(0.9, 0.9)),
            (ObjectId(2), Point::new(0.45, 0.55)),
        ]);
        let q = ConstrainedQuery::northeast_of(Point::new(0.5, 0.5));
        m.install(QueryId(0), q, 1);
        assert_eq!(m.result(QueryId(0)).unwrap()[0].id, ObjectId(1));
        m.process_cycle(
            &[ObjectEvent::Move {
                id: ObjectId(2),
                to: Point::new(0.55, 0.56),
            }],
            &[],
        );
        assert_eq!(m.result(QueryId(0)).unwrap()[0].id, ObjectId(2));
        assert_matches(&m, QueryId(0));
        m.check_invariants();
    }

    #[test]
    fn region_with_too_few_objects_returns_partial_result() {
        let mut m = CpmEngine::<ConstrainedQuery>::new(8, NonZeroUsize::MIN);
        m.populate([
            (ObjectId(1), Point::new(0.1, 0.1)),
            (ObjectId(2), Point::new(0.7, 0.7)),
        ]);
        let q = ConstrainedQuery::northeast_of(Point::new(0.5, 0.5));
        m.install(QueryId(0), q, 4);
        assert_eq!(m.result(QueryId(0)).unwrap().len(), 1);
        m.check_invariants();
    }
}
