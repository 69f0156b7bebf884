//! The δ-independent half of the grid: the by-id position table.
//!
//! [`ObjectStore`] owns the per-object state that does **not** depend on
//! the cell side `δ`: one dense position slot per object id, and the
//! list of live ids, ascending, which the index's sort walks so that its
//! cost follows the live population rather than the id range. Everything
//! keyed by `δ` — the cell-ordered columns, coordinate math, packed cell
//! ids — lives in [`crate::CellIndex`], which is re-sorted from this
//! table once per batch; the composed [`crate::Grid`] orchestrates the
//! two.
//!
//! The split exists so that **changing resolution never touches the
//! object table**: [`crate::Grid::regrid`] re-sorts the cell index from
//! the store's positions at another `dim`, while the table itself (its
//! allocation, its `oid → slot` addressing, the live population) is
//! carried over untouched.
//!
//! # Struct-of-arrays layout
//!
//! Positions are stored as two parallel `Vec<f64>` columns (`xs`, `ys`)
//! rather than a `Vec<Option<Point>>`. An off-line slot holds `NaN` in
//! both columns — a safe sentinel because [`ObjectStore::activate`]
//! rejects non-finite coordinates with a hard (release-mode) assert, so
//! no *live* object can ever carry a `NaN` coordinate. The public API
//! answers `position(oid)` as `Option<Point>`.

use crate::kernels::Coords;
use cpm_geom::{clamp_coord, ObjectId, Point};

/// The central object table: one dense position slot per object id.
/// This is the δ-independent half of the store/index split:
/// [`crate::Grid::regrid`] re-sorts the [`crate::CellIndex`] from it
/// while the table — and every `oid → position` answer read through
/// it — is carried over untouched.
///
/// Positions live in two parallel `f64` columns (struct-of-arrays) with
/// `NaN` marking off-line slots; see the module docs for why that is
/// safe.
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    /// X column of the position table, one slot per object id.
    /// `NaN` = off-line.
    xs: Vec<f64>,
    /// Y column, parallel to `xs`. `NaN` = off-line.
    ys: Vec<f64>,
    /// The live ids, ascending, as of the last [`ObjectStore::settle`].
    ids: Vec<ObjectId>,
    /// Ids activated since the last settle.
    arrivals: Vec<ObjectId>,
    /// Whether an object went off-line since the last settle.
    departed: bool,
}

impl ObjectStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live (indexed) objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if no objects are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
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

    /// Borrow the raw by-id coordinate columns for
    /// [`crate::kernels::dist_into`]. Live slots hold finite coordinates;
    /// off-line slots hold `NaN`. Cells only ever hold live objects, so a
    /// kernel gathering through [`crate::Grid::objects_in`] never reads a
    /// `NaN`.
    #[inline]
    pub fn coords(&self) -> Coords<'_> {
        Coords::from_columns(&self.xs, &self.ys)
    }

    /// The raw `(xs, ys)` columns the index sorts from.
    #[inline]
    pub(crate) fn columns(&self) -> (&[f64], &[f64]) {
        (&self.xs, &self.ys)
    }

    /// The live ids, ascending. Every batch ends with a
    /// [`ObjectStore::settle`], so outside one this is the live set.
    #[inline]
    pub(crate) fn live_ids(&self) -> &[ObjectId] {
        &self.ids
    }

    /// Iterate over `(oid, position)` for every live object, ascending by
    /// object id.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, Point)> + '_ {
        let at = |&id: &ObjectId| (id, Point::new(self.xs[id.index()], self.ys[id.index()]));
        self.ids.iter().map(at)
    }

    /// Memory footprint estimate in the paper's "memory units" (one unit =
    /// one number; Section 4.1 charges `s_obj = 3·N` for the object data).
    pub fn space_units(&self) -> usize {
        3 * self.len()
    }

    /// Mark `oid` live at `p` (clamped into the workspace), growing the
    /// table as needed. Returns the stored (clamped) position. The caller
    /// ([`crate::apply_events`]) settles the store and re-sorts the index
    /// after the batch.
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
        }
        assert!(self.xs[idx].is_nan(), "object {oid} is already indexed");
        self.arrivals.push(oid);
        self.write(idx, p)
    }

    /// Move live `oid` to `p` (clamped into the workspace), returning its
    /// old and its stored new position, or `None` if it is off-line.
    ///
    /// # Panics
    /// Panics (in release builds too) if `p` is not finite, as
    /// [`ObjectStore::activate`] does.
    #[inline]
    pub(crate) fn relocate(&mut self, oid: ObjectId, p: Point) -> Option<(Point, Point)> {
        assert!(p.is_finite(), "object position must be finite");
        let old = self.position(oid)?;
        Some((old, self.write(oid.index(), p)))
    }

    /// Store `p`, clamped into the workspace, at slot `idx`.
    #[inline]
    fn write(&mut self, idx: usize, p: Point) -> Point {
        let p = Point::new(clamp_coord(p.x), clamp_coord(p.y));
        self.xs[idx] = p.x;
        self.ys[idx] = p.y;
        p
    }

    /// Mark `oid` off-line, returning its last position (`None` if it was
    /// not live).
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
        self.departed = true;
        Some(p)
    }

    /// Bring the live-id list up to date after a batch: drop the ids that
    /// went off-line and merge in the arrivals. O(N + a log a) for `a`
    /// arrivals; nothing after a batch of moves alone.
    pub(crate) fn settle(&mut self) {
        if self.arrivals.is_empty() && !self.departed {
            return;
        }
        let (xs, ids) = (&self.xs, &mut self.ids);
        let live = |id: &ObjectId| !xs[id.index()].is_nan();
        // An arrival that left again, or that left and came back (so is
        // still listed), adds nothing.
        let arrivals = &mut self.arrivals;
        arrivals.sort_unstable();
        arrivals.dedup();
        arrivals.retain(|id| live(id) && ids.binary_search(id).is_err());
        ids.retain(live);
        // Merge the two ascending, disjoint lists in place, from the back.
        let (mut a, mut b) = (ids.len(), arrivals.len());
        ids.resize(a + b, ObjectId(0));
        while b > 0 {
            if a > 0 && ids[a - 1] > arrivals[b - 1] {
                ids[a + b - 1] = ids[a - 1];
                a -= 1;
            } else {
                ids[a + b - 1] = arrivals[b - 1];
                b -= 1;
            }
        }
        arrivals.clear();
        self.departed = false;
    }

    /// Verify the store's own invariants (test helper; the cross-checks
    /// against the cell index live in [`crate::Grid::check_integrity`]).
    #[doc(hidden)]
    pub fn check_integrity(&self) {
        assert!(self.arrivals.is_empty() && !self.departed, "unsettled");
        let live_slots = (0..self.xs.len() as u32).filter(|&i| !self.xs[i as usize].is_nan());
        assert!(
            self.ids.iter().map(|id| id.0).eq(live_slots),
            "live-id list"
        );
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
        s.settle();
        assert_eq!(s.len(), 1);
        assert_eq!(s.position(ObjectId(3)), Some(p));
        assert_eq!(s.position(ObjectId(2)), None);
        assert_eq!(s.space_units(), 3);
        assert_eq!(s.relocate(ObjectId(2), p), None);
        let q = Point::new(0.5, 0.5);
        assert_eq!(s.relocate(ObjectId(3), q), Some((p, q)));
        assert_eq!(s.deactivate(ObjectId(3)), Some(q));
        assert_eq!(s.deactivate(ObjectId(3)), None);
        s.settle();
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
        s.settle();
        let ids: Vec<u32> = s.iter().map(|(o, _)| o.0).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn settle_merges_arrivals_and_drops_departures() {
        let mut s = ObjectStore::new();
        let p = Point::new(0.5, 0.5);
        for id in [2u32, 4, 6, 8] {
            s.activate(ObjectId(id), p);
        }
        s.settle();
        s.check_integrity();
        // One batch: 4 leaves and comes back, 6 leaves, 5 comes and goes,
        // 7 comes twice around a departure, 1 and 9 come.
        s.deactivate(ObjectId(4)).unwrap();
        s.activate(ObjectId(4), p);
        s.deactivate(ObjectId(6)).unwrap();
        s.activate(ObjectId(5), p);
        s.deactivate(ObjectId(5)).unwrap();
        s.activate(ObjectId(7), p);
        s.deactivate(ObjectId(7)).unwrap();
        s.activate(ObjectId(7), p);
        s.activate(ObjectId(9), p);
        s.activate(ObjectId(1), p);
        s.settle();
        s.check_integrity();
        let ids: Vec<u32> = s.iter().map(|(o, _)| o.0).collect();
        assert_eq!(ids, vec![1, 2, 4, 7, 8, 9]);
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
        assert_eq!(c.point(ObjectId(2)), Point::new(0.25, 0.75));
        assert!(
            c.point(ObjectId(0)).x.is_nan(),
            "slots below a live id exist"
        );
        s.deactivate(ObjectId(2)).unwrap();
        let c = s.coords();
        assert!(c.point(ObjectId(2)).x.is_nan());
    }
}
