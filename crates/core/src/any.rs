//! [`AnyQuerySpec`]: every query geometry of the suite behind one
//! [`QuerySpec`], so a single engine — and therefore a single grid and a
//! single per-cycle ingest — can host a heterogeneous continuous-query
//! population.
//!
//! The paper's framework never required one index per query *type*: the
//! book-keeping of Section 3 is per query, and Section 5 derives every
//! variant from the same machinery. `AnyQuerySpec` makes that explicit as
//! an enum whose [`QuerySpec`] implementation dispatches to the concrete
//! geometry, which is exactly what the [`crate::CpmServer`] facade and the
//! mixed-kind subscription hub run on; it is the engine's one query
//! type. Dispatch only forwards — every arithmetic path is the concrete
//! spec's own — so a query's result does not depend on which other kinds
//! share the server (asserted by `tests/unified_server.rs`).

use cpm_geom::{Point, Rect};
use cpm_grid::{CellCoord, CellRun, GridGeom, QueryKind};

use crate::ann::AnnQuery;
use crate::constrained::ConstrainedQuery;
use crate::engine::{PointQuery, QuerySpec};
use crate::partition::{Direction, Pinwheel};
use crate::range::{RangeQuery, Region};
use crate::rnn::RnnQuery;

/// A query geometry of any supported kind; implements [`QuerySpec`] by
/// dispatching to the wrapped concrete spec.
#[derive(Debug, Clone)]
pub enum AnyQuerySpec {
    /// Plain point k-NN ([`PointQuery`], Section 3).
    Knn(PointQuery),
    /// Range membership ([`RangeQuery`]).
    Range(RangeQuery),
    /// Aggregate NN ([`AnnQuery`], Section 5).
    Ann(AnnQuery),
    /// Constrained NN ([`ConstrainedQuery`], Section 5).
    Constrained(ConstrainedQuery),
    /// One reverse-NN sector candidate ([`RnnQuery`]); server-level RNN
    /// registrations expand into six of these.
    Rnn(RnnQuery),
}

impl AnyQuerySpec {
    /// The concrete [`RangeQuery`], if this is a range spec.
    #[must_use]
    pub fn as_range(&self) -> Option<&RangeQuery> {
        match self {
            AnyQuerySpec::Range(q) => Some(q),
            _ => None,
        }
    }

    /// The concrete [`AnnQuery`], if this is an aggregate spec.
    #[must_use]
    pub fn as_ann(&self) -> Option<&AnnQuery> {
        match self {
            AnyQuerySpec::Ann(q) => Some(q),
            _ => None,
        }
    }

    /// The concrete [`ConstrainedQuery`], if this is a constrained spec.
    #[must_use]
    pub fn as_constrained(&self) -> Option<&ConstrainedQuery> {
        match self {
            AnyQuerySpec::Constrained(q) => Some(q),
            _ => None,
        }
    }

    /// The k-NN query point, if this is a point spec.
    #[must_use]
    pub fn as_knn(&self) -> Option<Point> {
        match self {
            AnyQuerySpec::Knn(q) => Some(q.0),
            _ => None,
        }
    }

    /// The reverse-NN sector candidate, if this is one.
    #[must_use]
    pub fn as_rnn(&self) -> Option<&RnnQuery> {
        match self {
            AnyQuerySpec::Rnn(q) => Some(q),
            _ => None,
        }
    }

    /// `true` when every point, rectangle corner and circle centre of the
    /// geometry is finite and a circle's radius is finite and
    /// non-negative (the rule the codec applies to a decoded radius).
    /// [`crate::CpmServer`] refuses any other spec as
    /// [`crate::CpmError::NonFiniteQuery`]: a NaN or infinite query finds
    /// no object anywhere, so its search would scan every cell and enter
    /// every cell's influence list.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        let rect = |r: &Rect| r.lo.is_finite() && r.hi.is_finite();
        match self {
            AnyQuerySpec::Knn(q) => q.0.is_finite(),
            AnyQuerySpec::Range(q) => match &q.region {
                Region::Rect(r) => rect(r),
                Region::Circle { center, radius } => {
                    center.is_finite() && radius.is_finite() && *radius >= 0.0
                }
            },
            AnyQuerySpec::Ann(q) => q.points().iter().all(Point::is_finite),
            AnyQuerySpec::Constrained(q) => q.q.is_finite() && rect(&q.region),
            AnyQuerySpec::Rnn(q) => q.q().is_finite(),
        }
    }
}

impl From<PointQuery> for AnyQuerySpec {
    fn from(q: PointQuery) -> Self {
        AnyQuerySpec::Knn(q)
    }
}

impl From<RangeQuery> for AnyQuerySpec {
    fn from(q: RangeQuery) -> Self {
        AnyQuerySpec::Range(q)
    }
}

impl From<AnnQuery> for AnyQuerySpec {
    fn from(q: AnnQuery) -> Self {
        AnyQuerySpec::Ann(q)
    }
}

impl From<ConstrainedQuery> for AnyQuerySpec {
    fn from(q: ConstrainedQuery) -> Self {
        AnyQuerySpec::Constrained(q)
    }
}

impl From<RnnQuery> for AnyQuerySpec {
    fn from(q: RnnQuery) -> Self {
        AnyQuerySpec::Rnn(q)
    }
}

/// Forward one [`QuerySpec`] method to the wrapped concrete spec.
macro_rules! dispatch {
    ($self:expr, $q:ident => $body:expr) => {
        match $self {
            AnyQuerySpec::Knn($q) => $body,
            AnyQuerySpec::Range($q) => $body,
            AnyQuerySpec::Ann($q) => $body,
            AnyQuerySpec::Constrained($q) => $body,
            AnyQuerySpec::Rnn($q) => $body,
        }
    };
}

impl QuerySpec for AnyQuerySpec {
    #[inline]
    fn dist(&self, p: Point) -> f64 {
        dispatch!(self, q => q.dist(p))
    }

    // Forwarded explicitly (not left to the trait default) so the point
    // variant reaches `PointQuery`'s vectorized kernel override.
    #[inline]
    fn dist_batch(&self, run: CellRun<'_>, out: &mut Vec<f64>) {
        dispatch!(self, q => q.dist_batch(run, out))
    }

    fn base_block(&self, geom: GridGeom) -> (CellCoord, CellCoord) {
        dispatch!(self, q => q.base_block(geom))
    }

    #[inline]
    fn cell_key(&self, geom: GridGeom, cell: CellCoord) -> f64 {
        dispatch!(self, q => q.cell_key(geom, cell))
    }

    #[inline]
    fn strip_key(&self, pw: &Pinwheel, dir: Direction, lvl: u32) -> f64 {
        dispatch!(self, q => q.strip_key(pw, dir, lvl))
    }

    #[inline]
    fn strip_increment(&self, delta: f64) -> f64 {
        dispatch!(self, q => q.strip_increment(delta))
    }

    #[inline]
    fn admits_cell(&self, geom: GridGeom, cell: CellCoord) -> bool {
        dispatch!(self, q => q.admits_cell(geom, cell))
    }

    #[inline]
    fn kind(&self) -> QueryKind {
        dispatch!(self, q => q.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_geom::ObjectId;

    #[test]
    fn non_finite_geometry_is_named_in_every_kind() {
        let (p, nan, inf) = (Point::new(0.5, 0.5), f64::NAN, f64::INFINITY);
        let bad = Point::new(nan, 0.5);
        let unit = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let circle = |center, radius| RangeQuery {
            region: Region::Circle { center, radius },
        };
        let finite: [AnyQuerySpec; 6] = [
            PointQuery(p).into(),
            RangeQuery::rect(unit).into(),
            circle(p, 0.0).into(),
            AnnQuery::new(vec![p, Point::new(0.1, 0.9)], crate::AggregateFn::Max).into(),
            ConstrainedQuery::new(p, unit).into(),
            RnnQuery::new(p, 3).into(),
        ];
        assert!(finite.iter().all(AnyQuerySpec::is_finite));
        let non_finite: [AnyQuerySpec; 9] = [
            PointQuery(Point::new(0.5, inf)).into(),
            RangeQuery::rect(Rect {
                lo: Point::new(0.0, 0.0),
                hi: Point::new(1.0, nan),
            })
            .into(),
            circle(bad, 0.1).into(),
            circle(p, inf).into(),
            circle(p, -0.1).into(),
            circle(p, nan).into(),
            AnnQuery::new(vec![p, bad], crate::AggregateFn::Sum).into(),
            ConstrainedQuery::new(bad, unit).into(),
            RnnQuery::new(Point::new(-inf, 0.5), 0).into(),
        ];
        for spec in &non_finite {
            assert!(!spec.is_finite(), "{spec:?}");
        }
        assert!(
            !AnyQuerySpec::from(ConstrainedQuery::new(p, Rect::new(p, Point::new(inf, 1.0))))
                .is_finite()
        );
    }

    /// Dispatch must agree with the wrapped spec on every trait method —
    /// this is what makes unified-engine results bit-identical to the
    /// single-kind engines.
    #[test]
    fn dispatch_forwards_every_method_exactly() {
        let grid = cpm_grid::GridBuilder::new(32).build_uniform();
        let geom = grid.geom();
        let range = RangeQuery::circle(Point::new(0.4, 0.6), 0.2);
        let any = AnyQuerySpec::from(range);
        let (lo, hi) = range.base_block(geom);
        assert_eq!(any.base_block(geom), (lo, hi));
        let pw = Pinwheel::around_block(lo, hi, grid.dim());
        for p in [Point::new(0.41, 0.61), Point::new(0.9, 0.9)] {
            assert!(any.dist(p).to_bits() == range.dist(p).to_bits());
        }
        let (xs, ys) = ([0.41, 0.9, 0.2], [0.61, 0.9, 0.7]);
        let oids = [ObjectId(0), ObjectId(1), ObjectId(2)];
        let run = CellRun::new(&oids, &xs, &ys);
        let mut batched = Vec::new();
        any.dist_batch(run, &mut batched);
        assert_eq!(batched.len(), run.len());
        for ((_, p), &d) in run.iter().zip(&batched) {
            assert_eq!(d.to_bits(), range.dist(p).to_bits());
        }
        // The point variant reaches `PointQuery`'s kernel override.
        let knn = PointQuery(Point::new(0.4, 0.6));
        AnyQuerySpec::from(knn).dist_batch(run, &mut batched);
        for ((_, p), &d) in run.iter().zip(&batched) {
            assert_eq!(d.to_bits(), knn.dist(p).to_bits());
        }
        for cell in [CellCoord::new(3, 3), CellCoord::new(20, 12)] {
            assert_eq!(
                any.cell_key(geom, cell).to_bits(),
                range.cell_key(geom, cell).to_bits()
            );
            assert_eq!(any.admits_cell(geom, cell), range.admits_cell(geom, cell));
        }
        for dir in Direction::ALL {
            assert_eq!(
                any.strip_key(&pw, dir, 1).to_bits(),
                range.strip_key(&pw, dir, 1).to_bits()
            );
        }
        assert_eq!(
            any.strip_increment(grid.delta()).to_bits(),
            range.strip_increment(grid.delta()).to_bits()
        );
        assert_eq!(any.kind(), QueryKind::Range);
    }

    #[test]
    fn kind_and_projections_match_the_variant() {
        let specs: Vec<(AnyQuerySpec, QueryKind)> = vec![
            (PointQuery(Point::new(0.1, 0.2)).into(), QueryKind::Knn),
            (
                RangeQuery::rect(Rect::new(Point::new(0.0, 0.0), Point::new(0.5, 0.5))).into(),
                QueryKind::Range,
            ),
            (
                AnnQuery::new(vec![Point::new(0.3, 0.3)], crate::AggregateFn::Sum).into(),
                QueryKind::Ann,
            ),
            (
                ConstrainedQuery::northeast_of(Point::new(0.5, 0.5)).into(),
                QueryKind::Constrained,
            ),
            (
                RnnQuery::new(Point::new(0.5, 0.5), 2).into(),
                QueryKind::Rnn,
            ),
        ];
        for (spec, kind) in &specs {
            assert_eq!(spec.kind(), *kind);
        }
        assert!(specs[0].0.as_knn().is_some() && specs[0].0.as_range().is_none());
        assert!(specs[1].0.as_range().is_some());
        assert!(specs[2].0.as_ann().is_some());
        assert!(specs[3].0.as_constrained().is_some());
        assert!(specs[4].0.as_rnn().is_some() && specs[4].0.as_knn().is_none());
    }
}
