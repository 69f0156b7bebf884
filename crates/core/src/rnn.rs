//! Continuous *reverse* nearest neighbor (RNN) monitoring — the future
//! work named in the paper's conclusion ("we intend to explore … the
//! continuous monitoring for variations of NN search, such as reverse
//! NNs"), built entirely from the CPM machinery of this crate.
//!
//! An object `p` is a reverse nearest neighbor of the query `q` when `q`
//! lies closer to `p` than any other object does:
//! `p ∈ RNN(q) ⇔ ∄ p′ ≠ p : dist(p, p′) < dist(p, q)`.
//!
//! The implementation uses the classic *six-region* observation (Stanoi
//! et al. \[SRAA01\]): partition the space around `q` into six 60° wedges;
//! within one wedge, only the object nearest to `q` can possibly be an
//! RNN (any two objects with angular separation < 60° are closer to each
//! other than the farther one is to `q`). So:
//!
//! 1. **Candidates** — six sector-constrained continuous 1-NN queries,
//!    each a [`QuerySpec`] of the one engine ([`RnnQuery`]) whose
//!    admission test is wedge/cell intersection.
//!    All CPM book-keeping (influence lists, visit lists, in/out merge)
//!    applies unchanged, so candidate maintenance touches only relevant
//!    updates.
//! 2. **Verification** — each candidate `c` is accepted iff the circle
//!    centered at `c` with radius `dist(c, q)` contains no other object,
//!    checked by a grid range scan (at most six tiny scans per query per
//!    cycle).
//!
//! The composition (six candidates on reserved ids + verification) is
//! owned by [`crate::CpmServer::install_rnn`]; this module holds the
//! sector geometry.

use std::f64::consts::TAU;

use cpm_geom::{Point, Rect};
use cpm_grid::{CellCoord, GridGeom};

use crate::engine::QuerySpec;
use crate::partition::{Direction, Pinwheel};

/// Number of wedges (and candidate queries per reverse-NN registration);
/// 60° each makes the candidate lemma hold.
pub(crate) const SECTORS: u32 = 6;

/// Angle of `p` as seen from `origin`, normalized to `[0, 2π)`.
#[inline]
fn angle_from(origin: Point, p: Point) -> f64 {
    let a = (p.y - origin.y).atan2(p.x - origin.x);
    if a < 0.0 {
        a + TAU
    } else {
        a
    }
}

/// The wedge index of `p` around `origin` (half-open 60° ranges, so every
/// point belongs to exactly one sector; `p == origin` maps to sector 0).
#[inline]
pub fn sector_of(origin: Point, p: Point) -> u32 {
    let a = angle_from(origin, p);
    let s = (a / (TAU / SECTORS as f64)) as u32;
    s.min(SECTORS - 1)
}

/// Does the ray from `origin` with direction `(dx, dy)` hit `rect`?
/// (Slab method; touching an edge counts.)
fn ray_hits_rect(origin: Point, dx: f64, dy: f64, rect: &Rect) -> bool {
    let mut t_min = 0.0f64;
    let mut t_max = f64::INFINITY;
    for (o, d, lo, hi) in [
        (origin.x, dx, rect.lo.x, rect.hi.x),
        (origin.y, dy, rect.lo.y, rect.hi.y),
    ] {
        if d.abs() < 1e-15 {
            if o < lo || o > hi {
                return false;
            }
        } else {
            let (mut t0, mut t1) = ((lo - o) / d, (hi - o) / d);
            if t0 > t1 {
                std::mem::swap(&mut t0, &mut t1);
            }
            t_min = t_min.max(t0);
            t_max = t_max.min(t1);
            if t_min > t_max {
                return false;
            }
        }
    }
    true
}

/// Does the 60° wedge `sector` around `origin` intersect `rect`?
///
/// Exact for convex rectangles and wedges narrower than 180°: they
/// intersect iff the apex is inside, a rectangle corner lies in the
/// wedge, or one of the wedge's boundary rays crosses the rectangle.
pub fn sector_intersects_rect(origin: Point, sector: u32, rect: &Rect) -> bool {
    if rect.contains(origin) {
        return true;
    }
    let corners = [
        rect.lo,
        Point::new(rect.hi.x, rect.lo.y),
        rect.hi,
        Point::new(rect.lo.x, rect.hi.y),
    ];
    if corners.iter().any(|&c| sector_of(origin, c) == sector) {
        return true;
    }
    let step = TAU / SECTORS as f64;
    for angle in [sector as f64 * step, (sector as f64 + 1.0) * step] {
        if ray_hits_rect(origin, angle.cos(), angle.sin(), rect) {
            return true;
        }
    }
    false
}

/// One 60° wedge of a reverse-NN registration: a sector-constrained
/// continuous 1-NN query on `q`, the candidate-generation unit of the
/// six-region method. A server-level RNN query
/// ([`crate::CpmServer::install_rnn`]) expands into six of these on
/// reserved internal ids; their winners are then filtered by circle
/// verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RnnQuery {
    q: Point,
    sector: u32,
}

impl RnnQuery {
    /// The wedge `sector ∈ 0..6` around query point `q`.
    ///
    /// # Panics
    /// Panics if `sector >= 6`.
    pub fn new(q: Point, sector: u32) -> Self {
        assert!(sector < SECTORS, "sector out of range");
        Self { q, sector }
    }

    /// The query point.
    #[must_use]
    pub fn q(&self) -> Point {
        self.q
    }

    /// The wedge index (`0..6`).
    #[must_use]
    pub fn sector(&self) -> u32 {
        self.sector
    }
}

impl QuerySpec for RnnQuery {
    #[inline]
    fn dist(&self, p: Point) -> f64 {
        if sector_of(self.q, p) == self.sector {
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
        sector_intersects_rect(self.q, self.sector, &geom.cell_rect(cell))
    }

    #[inline]
    fn kind(&self) -> cpm_grid::QueryKind {
        cpm_grid::QueryKind::Rnn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sector_assignment_partitions_the_plane() {
        let origin = Point::new(0.5, 0.5);
        for i in 0..360 {
            let a = i as f64 * TAU / 360.0;
            let p = Point::new(0.5 + 0.2 * a.cos(), 0.5 + 0.2 * a.sin());
            let s = sector_of(origin, p);
            assert!(s < SECTORS);
            let expected = ((i as f64 / 60.0).floor() as u32).min(5);
            if i % 60 == 0 {
                // Exact sector boundaries land on either side after the
                // cos/sin/atan2 round trip; only consistency matters (the
                // same sector_of decides candidates and membership).
                let alt = (expected + SECTORS - 1) % SECTORS;
                assert!(s == expected || s == alt, "angle {i}°: got {s}");
            } else {
                assert_eq!(s, expected, "angle {i}°");
            }
        }
    }

    #[test]
    fn wedge_rect_intersection_basics() {
        let q = Point::new(0.5, 0.5);
        // A rect due east intersects sector 0 ([0°, 60°)) and 5 but not 2-4.
        let east = Rect::new(Point::new(0.8, 0.48), Point::new(0.9, 0.52));
        assert!(sector_intersects_rect(q, 0, &east));
        assert!(sector_intersects_rect(q, 5, &east));
        assert!(!sector_intersects_rect(q, 2, &east));
        assert!(!sector_intersects_rect(q, 3, &east));
        // The apex cell intersects every sector.
        let home = Rect::new(Point::new(0.45, 0.45), Point::new(0.55, 0.55));
        for s in 0..SECTORS {
            assert!(sector_intersects_rect(q, s, &home));
        }
        // A narrow wedge passing *between* two corners: rect far north,
        // sector 1 covers [60°, 120°), its rays cross the rect body.
        let north = Rect::new(Point::new(0.3, 0.9), Point::new(0.7, 0.95));
        assert!(sector_intersects_rect(q, 1, &north));
    }

    proptest! {
        /// If the test says "no intersection", no sampled point of the
        /// rect may fall inside the wedge.
        #[test]
        fn non_intersection_is_sound(
            qx in 0.05..0.95f64, qy in 0.05..0.95f64,
            ax in 0.0..1.0f64, ay in 0.0..1.0f64,
            w in 0.01..0.3f64, h in 0.01..0.3f64,
            sector in 0u32..6,
        ) {
            let q = Point::new(qx, qy);
            let lo = Point::new(ax.min(0.99), ay.min(0.99));
            let rect = Rect::new(lo, Point::new((lo.x + w).min(1.0), (lo.y + h).min(1.0)));
            if !sector_intersects_rect(q, sector, &rect) {
                for i in 0..12 {
                    for j in 0..12 {
                        let p = Point::new(
                            rect.lo.x + rect.width() * i as f64 / 11.0,
                            rect.lo.y + rect.height() * j as f64 / 11.0,
                        );
                        if p != q {
                            prop_assert_ne!(
                                sector_of(q, p), sector,
                                "claimed disjoint but {:?} is inside", p
                            );
                        }
                    }
                }
            }
        }
    }
}
