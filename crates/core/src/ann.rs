//! Continuous aggregate nearest neighbor (ANN) monitoring (Section 5).
//!
//! Given a set of query points `Q = {q_1 … q_m}` and a monotone aggregate
//! `f`, an ANN query continuously reports the object(s) minimizing
//! `adist(p, Q) = f(dist(p, q_1), …, dist(p, q_m))`:
//!
//! * `f = sum` — the meeting point minimizing total travel distance;
//! * `f = max` — minimizing the latest arrival time;
//! * `f = min` — the object closest to *any* query point.
//!
//! The search partitions space around the MBR `M` of `Q`; cells and
//! conceptual rectangles are ordered by `amindist` (the aggregate of the
//! per-point `mindist`s, a lower bound of `adist` for any object inside).
//! Corollary 5.1 (`sum`): consecutive rectangles of one direction differ by
//! `m·δ`; Corollary 5.2 (`min`/`max`): by `δ`. Update handling is the
//! machinery of Section 3 with `adist` in place of the Euclidean distance:
//! [`AnnQuery`] is a [`QuerySpec`] of the one engine, installed through
//! [`crate::CpmServer::install_spec`] next to every other kind.

use cpm_geom::Point;
use cpm_grid::{CellCoord, GridGeom};

use crate::engine::QuerySpec;
use crate::partition::{Direction, Pinwheel};

/// The aggregate function of an ANN query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateFn {
    /// Minimize the sum of distances to all query points.
    Sum,
    /// Minimize the smallest distance to any query point.
    Min,
    /// Minimize the largest distance to any query point.
    Max,
}

impl AggregateFn {
    /// Fold an iterator of per-point distances into the aggregate.
    ///
    /// Returns `0.0` for an empty iterator only under `Sum`; ANN queries
    /// always carry at least one point (enforced by [`AnnQuery::new`]).
    #[inline]
    pub fn fold<I: IntoIterator<Item = f64>>(self, dists: I) -> f64 {
        let it = dists.into_iter();
        match self {
            AggregateFn::Sum => it.sum(),
            AggregateFn::Min => it.fold(f64::INFINITY, f64::min),
            AggregateFn::Max => it.fold(0.0, f64::max),
        }
    }
}

/// The geometry of one aggregate query: the point set `Q` plus the
/// aggregate function `f`.
#[derive(Debug, Clone)]
pub struct AnnQuery {
    points: Vec<Point>,
    f: AggregateFn,
    /// Cached MBR `M` of the point set: the conceptual partitioning is
    /// anchored on it, and for `min`/`max` it yields the O(1) strip keys
    /// of Section 5 ("computing amindist(DIR_0, Q) … reduces to
    /// calculating the minimum distance between rectangle DIR_0 and the
    /// closest [min] / opposite [max] edge of M").
    mbr: cpm_geom::Rect,
}

impl AnnQuery {
    /// Build an aggregate query.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn new(points: Vec<Point>, f: AggregateFn) -> Self {
        let mbr = cpm_geom::Rect::mbr_of(points.iter().copied())
            .expect("ANN query needs at least one point");
        Self { points, f, mbr }
    }

    /// The MBR `M` of the query set.
    pub fn mbr(&self) -> cpm_geom::Rect {
        self.mbr
    }

    /// The query points `Q`.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The aggregate function.
    pub fn aggregate(&self) -> AggregateFn {
        self.f
    }

    /// `adist(p, Q)`: the aggregate distance from `p` to the query set.
    #[inline]
    pub fn adist(&self, p: Point) -> f64 {
        self.f.fold(self.points.iter().map(|&q| p.dist(q)))
    }
}

impl QuerySpec for AnnQuery {
    #[inline]
    fn dist(&self, p: Point) -> f64 {
        self.adist(p)
    }

    fn base_block(&self, geom: GridGeom) -> (CellCoord, CellCoord) {
        (geom.cell_of(self.mbr.lo), geom.cell_of(self.mbr.hi))
    }

    #[inline]
    fn cell_key(&self, geom: GridGeom, cell: CellCoord) -> f64 {
        let rect = geom.cell_rect(cell);
        self.f.fold(self.points.iter().map(|&q| rect.mindist(q)))
    }

    /// Strip keys: O(m) fold for `sum`; O(1) through the MBR edges for
    /// `min` and `max` (Section 5). The per-point strip distance is the
    /// axis distance to the strip's near edge, so its min/max over `Q` is
    /// attained at the corresponding MBR edge.
    #[inline]
    fn strip_key(&self, pw: &Pinwheel, dir: Direction, lvl: u32) -> f64 {
        match self.f {
            AggregateFn::Sum => self
                .f
                .fold(self.points.iter().map(|&q| pw.strip_mindist(dir, lvl, q))),
            AggregateFn::Min => {
                // Nearest edge of M in the strip's direction.
                let anchor = match dir {
                    Direction::Up => Point::new(self.mbr.lo.x, self.mbr.hi.y),
                    Direction::Down => self.mbr.lo,
                    Direction::Right => Point::new(self.mbr.hi.x, self.mbr.lo.y),
                    Direction::Left => self.mbr.lo,
                };
                pw.strip_mindist(dir, lvl, anchor)
            }
            AggregateFn::Max => {
                // Opposite edge of M.
                let anchor = match dir {
                    Direction::Up => self.mbr.lo,
                    Direction::Down => self.mbr.hi,
                    Direction::Right => Point::new(self.mbr.lo.x, self.mbr.lo.y),
                    Direction::Left => self.mbr.hi,
                };
                pw.strip_mindist(dir, lvl, anchor)
            }
        }
    }

    #[inline]
    fn strip_increment(&self, delta: f64) -> f64 {
        match self.f {
            // Corollary 5.1: amindist grows by m·δ per level for sum.
            AggregateFn::Sum => self.points.len() as f64 * delta,
            // Corollary 5.2: by δ for min and max.
            AggregateFn::Min | AggregateFn::Max => delta,
        }
    }

    #[inline]
    fn kind(&self) -> cpm_grid::QueryKind {
        cpm_grid::QueryKind::Ann
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpmServer, CpmServerBuilder};
    use cpm_geom::{ObjectId, QueryId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::num::NonZeroUsize;

    fn server(dim: u32) -> CpmServer {
        CpmServerBuilder::new(dim)
            .threads(NonZeroUsize::MIN)
            .build()
    }

    fn assert_matches(m: &CpmServer, qid: QueryId, q: &AnnQuery) {
        let st = m.query_state(qid).unwrap();
        let mut expect: Vec<f64> = m.grid().iter_objects().map(|(_, p)| q.adist(p)).collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        expect.truncate(st.k());
        let got: Vec<f64> = st.result().iter().map(|n| n.dist).collect();
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-9, "{got:?} vs {expect:?}");
        }
    }

    #[test]
    fn aggregate_fold_semantics() {
        let d = [3.0, 1.0, 2.0];
        assert_eq!(AggregateFn::Sum.fold(d), 6.0);
        assert_eq!(AggregateFn::Min.fold(d), 1.0);
        assert_eq!(AggregateFn::Max.fold(d), 3.0);
    }

    #[test]
    fn sum_ann_finds_meeting_object_fig_5_1() {
        let mut m = server(16);
        m.populate([
            (ObjectId(1), Point::new(0.15, 0.85)),
            (ObjectId(2), Point::new(0.42, 0.48)), // near the centroid
            (ObjectId(3), Point::new(0.85, 0.15)),
            (ObjectId(4), Point::new(0.9, 0.9)),
            (ObjectId(5), Point::new(0.55, 0.60)),
        ])
        .unwrap();
        let q = AnnQuery::new(
            vec![
                Point::new(0.3, 0.4),
                Point::new(0.6, 0.45),
                Point::new(0.45, 0.7),
            ],
            AggregateFn::Sum,
        );
        m.install_spec(QueryId(0), q.clone(), 1).unwrap();
        assert_eq!(m.result(QueryId(0)).unwrap()[0].id, ObjectId(2));
        assert_matches(&m, QueryId(0), &q);
        m.check_invariants();
    }

    #[test]
    fn min_and_max_agree_with_brute_force() {
        let mut rng = StdRng::seed_from_u64(42);
        for f in [AggregateFn::Min, AggregateFn::Max, AggregateFn::Sum] {
            let mut m = server(32);
            m.populate((0..50u32).map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen()))))
                .unwrap();
            let pts = (0..4).map(|_| Point::new(rng.gen(), rng.gen())).collect();
            let q = AnnQuery::new(pts, f);
            m.install_spec(QueryId(0), q.clone(), 3).unwrap();
            assert_matches(&m, QueryId(0), &q);
            m.check_invariants();
        }
    }

    #[test]
    fn o1_strip_keys_equal_the_explicit_fold() {
        // Section 5's O(1) min/max amindist(DIR_lvl) through the MBR edges
        // must equal the O(m) per-point fold exactly.
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;
        let mut runner = TestRunner::default();
        runner
            .run(
                &(
                    proptest::collection::vec((0.05..0.95f64, 0.05..0.95f64), 1..7),
                    0u32..3,
                ),
                |(raw, lvl)| {
                    let pts: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
                    let grid = cpm_grid::GridBuilder::new(32).build_uniform();
                    for f in [AggregateFn::Min, AggregateFn::Max] {
                        let q = AnnQuery::new(pts.clone(), f);
                        let (lo, hi) = q.base_block(grid.geom());
                        let pw = Pinwheel::around_block(lo, hi, grid.dim());
                        for dir in Direction::ALL {
                            let fast = q.strip_key(&pw, dir, lvl);
                            let slow = f.fold(pts.iter().map(|&p| pw.strip_mindist(dir, lvl, p)));
                            prop_assert!(
                                (fast - slow).abs() < 1e-12,
                                "{f:?} {dir:?} lvl {lvl}: {fast} vs {slow}"
                            );
                        }
                    }
                    Ok(())
                },
            )
            .unwrap();
    }

    #[test]
    fn corollary_increments_hold_in_engine_keys() {
        // Sum: m·δ; min/max: δ — exercised through QuerySpec directly.
        let grid = cpm_grid::GridBuilder::new(16).build_uniform();
        let pts = vec![
            Point::new(0.40, 0.40),
            Point::new(0.45, 0.50),
            Point::new(0.55, 0.45),
        ];
        for (f, factor) in [
            (AggregateFn::Sum, 3.0),
            (AggregateFn::Min, 1.0),
            (AggregateFn::Max, 1.0),
        ] {
            let q = AnnQuery::new(pts.clone(), f);
            let (lo, hi) = q.base_block(grid.geom());
            let pw = Pinwheel::around_block(lo, hi, grid.dim());
            for dir in Direction::ALL {
                for lvl in 0..3 {
                    let a = q.strip_key(&pw, dir, lvl);
                    let b = q.strip_key(&pw, dir, lvl + 1);
                    assert!(
                        (b - a - factor * grid.delta()).abs() < 1e-12,
                        "{f:?} {dir:?} {lvl}: {a} -> {b}"
                    );
                }
            }
        }
    }
}
