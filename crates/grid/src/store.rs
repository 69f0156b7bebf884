//! The δ-independent half of the grid index: the central object tables.
//!
//! [`ObjectStore`] owns the per-object state that does **not** depend on
//! the cell side `δ`: the dense position table and the parallel
//! back-pointer table that makes bucket removal O(1). Everything keyed by
//! `δ` — cell buckets, coordinate math, packed cell ids — lives in
//! [`crate::CellIndex`]; the composed [`crate::Grid`] orchestrates the two.
//!
//! The split exists so that **changing resolution never touches the
//! object tables**: [`crate::Grid::regrid`] rebuilds the cell index from
//! the store's positions and rewrites back-pointer *values* in place,
//! while the tables themselves (their allocations, their `oid → slot`
//! addressing, the live population) are carried over untouched. The
//! regrid property suite asserts exactly this invariance.
//!
//! # Struct-of-arrays layout
//!
//! Positions are stored as two parallel `Vec<f64>` columns (`xs`, `ys`)
//! rather than a `Vec<Option<Point>>`. An off-line slot holds `NaN` in
//! both columns — a safe sentinel because [`ObjectStore::activate`]
//! rejects non-finite coordinates with a hard (release-mode) assert, so
//! no *live* object can ever carry a `NaN` coordinate. The columnar
//! layout is what the batched distance kernels in [`crate::kernels`]
//! consume: a bucket scan reads two contiguous gather streams instead of
//! decoding an `Option<Point>` per object, and the per-bucket loops
//! auto-vectorize. The public API is unchanged: `position(oid)` still
//! answers `Option<Point>`.

use crate::kernels::Coords;
use cpm_geom::{clamp_coord, ObjectId, Point};

/// Back-pointer of one indexed object: which bucket it lives in and at
/// which slot. Valid only while the object's position slot is live.
///
/// The *table* is δ-independent (one entry per object id); the stored
/// `cell_id` values are in the current index's packed-id space and are
/// rewritten by [`crate::Grid::regrid`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BackRef {
    /// Packed id of the cell whose bucket holds the object.
    pub(crate) cell_id: u64,
    /// Index of the object inside that bucket.
    pub(crate) slot: u32,
}

/// The central object tables: positions and back-pointers, one dense slot
/// per object id. This is the δ-independent half of the store/index
/// split: [`crate::Grid::regrid`] rebuilds the [`crate::CellIndex`]
/// around it while these tables — and every `oid → position` answer read
/// through them — are carried over untouched.
///
/// Positions live in two parallel `f64` columns (struct-of-arrays) with
/// `NaN` marking off-line slots; see the module docs for why that is
/// safe and what the layout buys the distance kernels.
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    /// X column of the position table, one slot per object id.
    /// `NaN` = off-line.
    xs: Vec<f64>,
    /// Y column, parallel to `xs`. `NaN` = off-line.
    ys: Vec<f64>,
    /// Back-pointer table, parallel to the columns: `oid → (cell, slot)`.
    pub(crate) backrefs: Vec<BackRef>,
    /// Number of live (indexed) objects.
    live: usize,
}

impl ObjectStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live (indexed) objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no objects are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Current position of object `oid`, or `None` if it is off-line.
    #[inline]
    pub fn position(&self, oid: ObjectId) -> Option<Point> {
        let idx = oid.index();
        let x = *self.xs.get(idx)?;
        if x.is_nan() {
            None
        } else {
            Some(Point::new(x, self.ys[idx]))
        }
    }

    /// Borrow the raw coordinate columns for the batched distance
    /// kernels. Live slots hold finite coordinates; off-line slots hold
    /// `NaN`. Cell buckets only ever reference live objects, so a kernel
    /// gathering through a bucket's `&[ObjectId]` never reads a `NaN`.
    #[inline]
    pub fn coords(&self) -> Coords<'_> {
        Coords::from_columns(&self.xs, &self.ys)
    }

    /// Iterate over `(oid, position)` for every live object, ascending by
    /// object id.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, Point)> + '_ {
        self.xs
            .iter()
            .zip(&self.ys)
            .enumerate()
            .filter(|(_, (x, _))| !x.is_nan())
            .map(|(i, (&x, &y))| (ObjectId(i as u32), Point::new(x, y)))
    }

    /// Memory footprint estimate in the paper's "memory units" (one unit =
    /// one number; Section 4.1 charges `s_obj = 3·N` for the object data).
    pub fn space_units(&self) -> usize {
        3 * self.live
    }

    /// Mark `oid` live at `p` (clamped into the workspace), growing the
    /// tables as needed. Returns the stored (clamped) position. The caller
    /// ([`crate::Grid::insert`]) is responsible for bucketing the object
    /// and writing its back-pointer.
    ///
    /// # Panics
    /// Panics if the object is already live, if `p` is not finite, or if
    /// `oid` is at or above [`ObjectId::LIMIT`]. The last two are **hard
    /// asserts even in release builds**: finiteness is the ingest boundary
    /// that lets `NaN` serve as the off-line sentinel in the coordinate
    /// columns and lets every distance key downstream satisfy
    /// [`cpm_geom::TotalF64`]'s no-NaN contract, and the id ceiling keeps
    /// a stray id from sizing the tables (the validating surfaces refuse
    /// such ids with a typed error before they get here).
    #[inline]
    pub(crate) fn activate(&mut self, oid: ObjectId, p: Point) -> Point {
        assert!(p.is_finite(), "object position must be finite");
        assert!(
            oid.0 < ObjectId::LIMIT,
            "object id {oid} is past the id ceiling"
        );
        let idx = oid.index();
        if idx >= self.xs.len() {
            self.xs.resize(idx + 1, f64::NAN);
            self.ys.resize(idx + 1, f64::NAN);
            self.backrefs.resize(idx + 1, BackRef::default());
        }
        assert!(self.xs[idx].is_nan(), "object {oid} is already indexed");
        let p = Point::new(clamp_coord(p.x), clamp_coord(p.y));
        self.xs[idx] = p.x;
        self.ys[idx] = p.y;
        self.live += 1;
        p
    }

    /// Mark `oid` off-line, returning its last position (`None` if it was
    /// not live). The caller is responsible for unbucketing the object
    /// first (its back-pointer is only meaningful while live).
    #[inline]
    pub(crate) fn deactivate(&mut self, oid: ObjectId) -> Option<Point> {
        let idx = oid.index();
        let x = *self.xs.get(idx)?;
        if x.is_nan() {
            return None;
        }
        let p = Point::new(x, self.ys[idx]);
        self.xs[idx] = f64::NAN;
        self.ys[idx] = f64::NAN;
        self.live -= 1;
        Some(p)
    }

    /// Verify the store's own invariants (test helper; the cross-checks
    /// against the cell index live in [`crate::Grid::check_integrity`]).
    #[doc(hidden)]
    pub fn check_integrity(&self) {
        let live_positions = self.xs.iter().filter(|x| !x.is_nan()).count();
        assert_eq!(live_positions, self.live, "position table != live count");
        assert_eq!(self.xs.len(), self.ys.len(), "coordinate columns diverge");
        for (i, (x, y)) in self.xs.iter().zip(&self.ys).enumerate() {
            assert_eq!(
                x.is_nan(),
                y.is_nan(),
                "slot {i}: x/y off-line sentinels out of sync"
            );
            if !x.is_nan() {
                assert!(x.is_finite() && y.is_finite(), "slot {i}: non-finite live");
            }
        }
        assert_eq!(
            self.xs.len(),
            self.backrefs.len(),
            "back-pointer table not parallel to positions"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activate_deactivate_roundtrip() {
        let mut s = ObjectStore::new();
        assert!(s.is_empty());
        let p = s.activate(ObjectId(3), Point::new(0.25, 0.75));
        assert_eq!(p, Point::new(0.25, 0.75));
        assert_eq!(s.len(), 1);
        assert_eq!(s.position(ObjectId(3)), Some(p));
        assert_eq!(s.position(ObjectId(2)), None);
        assert_eq!(s.space_units(), 3);
        assert_eq!(s.deactivate(ObjectId(3)), Some(p));
        assert_eq!(s.deactivate(ObjectId(3)), None);
        assert!(s.is_empty());
        s.check_integrity();
    }

    #[test]
    fn activate_clamps_into_workspace() {
        let mut s = ObjectStore::new();
        let p = s.activate(ObjectId(0), Point::new(2.0, -1.0));
        assert!(p.x < 1.0 && p.y == 0.0);
    }

    #[test]
    fn iter_is_ascending_by_id() {
        let mut s = ObjectStore::new();
        for id in [5u32, 1, 9, 3] {
            s.activate(ObjectId(id), Point::new(0.5, 0.5));
        }
        s.deactivate(ObjectId(9)).unwrap();
        let ids: Vec<u32> = s.iter().map(|(o, _)| o.0).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "already indexed")]
    fn double_activate_panics() {
        let mut s = ObjectStore::new();
        s.activate(ObjectId(0), Point::new(0.1, 0.1));
        s.activate(ObjectId(0), Point::new(0.2, 0.2));
    }

    #[test]
    #[should_panic(expected = "past the id ceiling")]
    fn ids_past_the_ceiling_never_size_the_tables() {
        let mut s = ObjectStore::new();
        s.activate(ObjectId(ObjectId::LIMIT), Point::new(0.5, 0.5));
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_position_is_rejected_at_the_ingest_boundary() {
        let mut s = ObjectStore::new();
        s.activate(ObjectId(0), Point::new(f64::NAN, 0.5));
    }

    #[test]
    fn coords_expose_live_slots_and_nan_sentinels() {
        let mut s = ObjectStore::new();
        s.activate(ObjectId(2), Point::new(0.25, 0.75));
        let c = s.coords();
        assert_eq!(c.slots(), 3);
        assert_eq!(c.point(ObjectId(2)), Point::new(0.25, 0.75));
        s.deactivate(ObjectId(2)).unwrap();
        let c = s.coords();
        assert!(c.point(ObjectId(2)).x.is_nan());
    }
}
