//! Workspace partitioning: disjoint rectangular tiles over [`GridGeom`],
//! plus the boundary-overlap coverage regions and the influence-region
//! certificate that together make partitioned results *provably* equal
//! to a single-node engine's.
//!
//! # The single-node-equivalence contract
//!
//! Each worker owns one tile (here: a vertical strip of grid columns —
//! the workspace is a unit square, so strips of a `dim × dim` grid) and
//! ingests every object inside its *coverage*, the tile expanded by the
//! overlap margin. Queries are owned by the worker whose **tile**
//! contains their anchor point; objects are replicated to every worker
//! whose **coverage** contains them.
//!
//! The certificate ([`influence_bbox`]): after a cycle, if a query's
//! influence region — the circle of radius `best_dist` around a k-NN
//! anchor, a range query's region, an ANN query set's MBR expanded by
//! the aggregate bound — lies inside its worker's coverage, then every
//! object that could possibly qualify was ingested by that worker, so
//! the local result *is* the global result (same entries, same `f64`
//! bits, same order). Workers re-check the certificate every cycle and
//! refuse with a typed `CoverageExceeded` the moment it stops holding —
//! the cluster degrades to an error, never to silently wrong results.

use cpm_core::AnyQuerySpec;
use cpm_geom::{Point, Rect};
use cpm_grid::GridGeom;
use cpm_wire::cluster::TileRect;

use crate::error::ClusterError;

/// The cluster's static partition map: `workers` vertical strips over a
/// `dim × dim` [`GridGeom`], each with a coverage region `overlap` cells
/// wider on both sides.
#[derive(Debug, Clone)]
pub struct Partition {
    geom: GridGeom,
    tiles: Vec<TileRect>,
    coverages: Vec<TileRect>,
}

impl Partition {
    /// Split a `dim × dim` grid into `workers` column strips.
    ///
    /// # Errors
    /// [`ClusterError::InvalidConfig`] if `workers == 0`, `dim < workers`
    /// (a worker needs at least one column) or
    /// [`GridGeom::check_dim`] rejects `dim`.
    pub fn new(dim: u32, workers: u32, overlap: u32) -> Result<Self, ClusterError> {
        let invalid = |what| Err(ClusterError::InvalidConfig { what });
        if workers == 0 {
            return invalid("a cluster needs at least one worker");
        }
        if dim < workers {
            return invalid("need at least one grid column per worker");
        }
        if let Err(e) = GridGeom::check_dim(dim) {
            return invalid(e.reason);
        }
        let geom = GridGeom::new(dim);
        let base = dim / workers;
        let extra = dim % workers;
        let mut tiles = Vec::with_capacity(workers as usize);
        let mut c0 = 0;
        for w in 0..workers {
            let width = base + u32::from(w < extra);
            tiles.push(TileRect::new(c0, 0, c0 + width - 1, dim - 1));
            c0 += width;
        }
        let coverages = tiles.iter().map(|t| t.expanded(overlap, dim)).collect();
        Ok(Self {
            geom,
            tiles,
            coverages,
        })
    }

    /// The grid geometry the tiles are defined over.
    pub fn geom(&self) -> GridGeom {
        self.geom
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.tiles.len()
    }

    /// Worker `w`'s ownership tile.
    pub fn tile(&self, w: usize) -> TileRect {
        self.tiles[w]
    }

    /// Worker `w`'s coverage region (tile plus overlap margin).
    pub fn coverage(&self, w: usize) -> TileRect {
        self.coverages[w]
    }

    /// The worker whose tile contains `p` (tiles partition the
    /// workspace, so exactly one does).
    pub fn owner_of(&self, p: Point) -> usize {
        let col = self.geom.cell_of(p).col;
        self.tiles
            .iter()
            .position(|t| t.c0 <= col && col <= t.c1)
            .expect("tiles cover every column")
    }

    /// `true` if worker `w`'s coverage contains all of `rect`
    /// (intersected with the workspace).
    pub fn rect_within_coverage(&self, w: usize, rect: &Rect) -> bool {
        let cov = self.coverages[w];
        cov.contains_cell(self.geom.cell_of(rect.lo)) && {
            let hi = self.geom.cell_of(rect.hi);
            cov.contains(hi.col, hi.row)
        }
    }
}

/// The anchor point that decides which tile owns a query: the k-NN query
/// point, a range region's anchor, an ANN point set's MBR center, or a
/// constrained query's point. RNN specs have no single anchor — the
/// server facade already rejects composite specs on the batched event
/// surface, so they never reach the partition layer.
pub fn anchor_of(spec: &AnyQuerySpec) -> Option<Point> {
    match spec {
        AnyQuerySpec::Knn(q) => Some(q.0),
        AnyQuerySpec::Range(q) => Some(q.region.anchor()),
        AnyQuerySpec::Ann(q) => Some(q.mbr().center()),
        AnyQuerySpec::Constrained(q) => Some(q.q),
        AnyQuerySpec::Rnn(_) => None,
    }
}

/// The bounding box of a query's influence region, given its current
/// result size and `best_dist` — the region every qualifying object must
/// lie in. `None` means unbounded: the result has not filled to `k` (or
/// `best_dist` is infinite), so an object *anywhere* could enter it and
/// only whole-workspace coverage can certify the result.
pub fn influence_bbox(
    spec: &AnyQuerySpec,
    k: usize,
    result_len: usize,
    best_dist: f64,
) -> Option<Rect> {
    fn grown(base: Rect, r: f64) -> Rect {
        Rect::new(
            Point::new((base.lo.x - r).max(0.0), (base.lo.y - r).max(0.0)),
            Point::new((base.hi.x + r).min(1.0), (base.hi.y + r).min(1.0)),
        )
    }
    match spec {
        AnyQuerySpec::Knn(q) => {
            if result_len < k || !best_dist.is_finite() {
                return None;
            }
            Some(grown(Rect::new(q.0, q.0), best_dist))
        }
        AnyQuerySpec::Range(q) => Some(q.region.bbox()),
        AnyQuerySpec::Ann(q) => {
            // For Sum/Min/Max alike, an object with aggregate distance
            // ≤ best_dist is within best_dist of at least one query
            // point, so the MBR grown by best_dist bounds the influence
            // region.
            if result_len < k || !best_dist.is_finite() {
                return None;
            }
            Some(grown(q.mbr(), best_dist))
        }
        // The constraint region statically bounds the influence region
        // regardless of fill level.
        AnyQuerySpec::Constrained(q) => Some(q.region),
        AnyQuerySpec::Rnn(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_core::{AggregateFn, AnnQuery, ConstrainedQuery, PointQuery, RangeQuery};

    #[test]
    fn strips_partition_every_column_disjointly() {
        for (dim, workers) in [(16, 1), (16, 2), (16, 4), (17, 4), (7, 3)] {
            let p = Partition::new(dim, workers, 2).unwrap();
            let mut owned = vec![0u32; dim as usize];
            for w in 0..p.workers() {
                let t = p.tile(w);
                assert_eq!((t.r0, t.r1), (0, dim - 1));
                for c in t.c0..=t.c1 {
                    owned[c as usize] += 1;
                }
                assert!(p.coverage(w).contains_rect(&t));
            }
            assert!(owned.iter().all(|&n| n == 1), "dim {dim} workers {workers}");
        }
    }

    #[test]
    fn unpartitionable_configs_are_typed_and_huge_overlaps_saturate() {
        for (dim, workers) in [(2, 4), (16, 0), (5000, 2), (0, 0)] {
            assert!(
                matches!(
                    Partition::new(dim, workers, 2),
                    Err(ClusterError::InvalidConfig { .. })
                ),
                "dim {dim} workers {workers}"
            );
        }
        let p = Partition::new(16, 2, u32::MAX).unwrap();
        assert_eq!(p.coverage(0), TileRect::new(0, 0, 15, 15));
        assert_eq!(p.coverage(1), TileRect::new(0, 0, 15, 15));
    }

    #[test]
    fn owner_and_coverage_agree_with_the_tiles() {
        let p = Partition::new(16, 4, 2).unwrap();
        let covers = |w: usize, at: Point| p.coverage(w).contains_cell(p.geom().cell_of(at));
        // Cell width is 1/16; worker 1 owns columns 4..=7.
        let inside = Point::new(5.5 / 16.0, 0.5);
        assert_eq!(p.owner_of(inside), 1);
        assert!(covers(1, inside));
        // Two columns past the tile edge: covered (overlap 2), not owned.
        let margin = Point::new(9.5 / 16.0, 0.5);
        assert_eq!(p.owner_of(margin), 2);
        assert!(covers(1, margin));
        // Three columns past: outside coverage.
        let outside = Point::new(10.5 / 16.0, 0.5);
        assert!(!covers(1, outside));
    }

    #[test]
    fn anchors_follow_the_query_geometry() {
        let q = Point::new(0.3, 0.7);
        assert_eq!(anchor_of(&AnyQuerySpec::Knn(PointQuery(q))), Some(q));
        let r = RangeQuery::circle(q, 0.1);
        assert_eq!(anchor_of(&AnyQuerySpec::Range(r)), Some(q));
        let c = ConstrainedQuery::new(q, Rect::WORKSPACE);
        assert_eq!(anchor_of(&AnyQuerySpec::Constrained(c)), Some(q));
        let a = AnnQuery::new(
            vec![Point::new(0.2, 0.2), Point::new(0.4, 0.4)],
            AggregateFn::Sum,
        );
        let center = a.mbr().center();
        assert_eq!(anchor_of(&AnyQuerySpec::Ann(a)), Some(center));
    }

    #[test]
    fn influence_bbox_is_conservative_and_detects_unfilled_results() {
        let q = Point::new(0.5, 0.5);
        let spec = AnyQuerySpec::Knn(PointQuery(q));
        // Unfilled result: unbounded.
        assert!(influence_bbox(&spec, 4, 3, f64::INFINITY).is_none());
        // Filled: the circle's bbox, clamped to the workspace.
        let b = influence_bbox(&spec, 4, 4, 0.1).unwrap();
        assert!((b.lo.x - 0.4).abs() < 1e-12 && (b.hi.y - 0.6).abs() < 1e-12);
        let edge = AnyQuerySpec::Knn(PointQuery(Point::new(0.05, 0.5)));
        let b = influence_bbox(&edge, 1, 1, 0.2).unwrap();
        assert_eq!(b.lo.x, 0.0);
        // Range regions are static bounds even when unfilled.
        let r = AnyQuerySpec::Range(RangeQuery::circle(q, 0.2));
        let b = influence_bbox(&r, RangeQuery::UNBOUNDED_K, 0, f64::INFINITY).unwrap();
        assert!((b.lo.x - 0.3).abs() < 1e-12);
        // Constrained: the constraint rect.
        let region = Rect::new(Point::new(0.4, 0.4), Point::new(0.6, 0.6));
        let c = AnyQuerySpec::Constrained(ConstrainedQuery::new(q, region));
        assert_eq!(influence_bbox(&c, 2, 0, f64::INFINITY), Some(region));
    }

    #[test]
    fn rect_within_coverage_uses_cell_resolution() {
        let p = Partition::new(16, 4, 2).unwrap();
        // Worker 1 coverage: columns 2..=9.
        let inside = Rect::new(Point::new(2.5 / 16.0, 0.1), Point::new(9.5 / 16.0, 0.9));
        assert!(p.rect_within_coverage(1, &inside));
        let spill = Rect::new(Point::new(2.5 / 16.0, 0.1), Point::new(10.5 / 16.0, 0.9));
        assert!(!p.rect_within_coverage(1, &spill));
    }
}
