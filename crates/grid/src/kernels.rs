//! Column views of object positions, and the one gathered distance
//! kernel.
//!
//! The index keeps each cell's objects as one contiguous run of
//! `(id, x, y)` columns ([`CellRun`], from [`crate::Grid::cell_run`]).
//! Every monitor visits a cell with one loop over [`CellRun::iter`]:
//! compute each object's distance and offer it to the result as it goes
//! (Figures 3.4 and 3.6). A batched kernel over the run once wrote the
//! distances to a buffer first; it bought 1.03–1.07× at runs of 1–8
//! objects and nothing from 16 up, so the run is scanned in place.
//!
//! [`dist_into`] is the distance arithmetic over ids gathered from the
//! by-id [`Coords`] columns, for callers that hold ids rather than a
//! run: the cycle benchmark's traced pass times it over every bucket
//! (`grid.kernel_ns_per_obj`). It
//! writes each squared distance, then takes the `sqrt`s in a second pass
//! over a contiguous slice, and is **bit-identical** to the scalar
//! reference (`Point::dist` per object): the same
//! `sub → mul → add → sqrt` sequence per element, no fast-math
//! reassociation or FMA contraction, and packed `sqrt` rounds exactly
//! like scalar `sqrt`. The `kernel_conformance` suite asserts equality
//! down to the bit pattern for every bucket size.

use cpm_geom::{ObjectId, Point};

/// A borrowed view of the struct-of-arrays coordinate columns: `xs[i]` /
/// `ys[i]` are the position of `ObjectId(i)`, `NaN` in both columns
/// means the slot is off-line. Obtain one from
/// [`crate::Grid::coords`] / [`crate::ObjectStore::coords`] (or from raw
/// columns via [`Coords::from_columns`] in tests and benches).
#[derive(Debug, Clone, Copy)]
pub struct Coords<'a> {
    xs: &'a [f64],
    ys: &'a [f64],
}

impl<'a> Coords<'a> {
    /// View two parallel coordinate columns as a [`Coords`].
    ///
    /// # Panics
    /// Panics if the columns differ in length.
    #[inline]
    pub fn from_columns(xs: &'a [f64], ys: &'a [f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "coordinate columns must be parallel");
        Self { xs, ys }
    }

    /// Position stored in `oid`'s slot. For a live object this is its
    /// finite position; for an off-line slot both coordinates are `NaN`.
    ///
    /// # Panics
    /// Panics if `oid` is outside the allocated slot range.
    #[inline]
    pub fn point(&self, oid: ObjectId) -> Point {
        let idx = oid.index();
        Point::new(self.xs[idx], self.ys[idx])
    }
}

/// One cell's objects in the index's cell-ordered columns: `ids()[i]`
/// is at `(xs()[i], ys()[i])`, ids ascending. Obtain one from
/// [`crate::Grid::cell_run`] (or from raw columns via [`CellRun::new`]
/// in tests and benches).
#[derive(Debug, Clone, Copy)]
pub struct CellRun<'a> {
    ids: &'a [ObjectId],
    xs: &'a [f64],
    ys: &'a [f64],
}

impl<'a> CellRun<'a> {
    /// View three parallel columns as a run.
    ///
    /// # Panics
    /// Panics if the columns differ in length.
    #[inline]
    pub fn new(ids: &'a [ObjectId], xs: &'a [f64], ys: &'a [f64]) -> Self {
        assert!(
            ids.len() == xs.len() && xs.len() == ys.len(),
            "run columns must be parallel"
        );
        Self { ids, xs, ys }
    }

    /// Number of objects in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if the run holds no object.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The objects of the run, ascending.
    #[inline]
    pub fn ids(&self) -> &'a [ObjectId] {
        self.ids
    }

    /// `(id, position)` of every object of the run, in run order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, Point)> + 'a {
        let (xs, ys) = (self.xs, self.ys);
        (self.ids.iter().zip(xs).zip(ys)).map(|((&oid, &x), &y)| (oid, Point::new(x, y)))
    }
}

/// Fill `out` with the Euclidean distance from `q` to every object of
/// `oids`, gathering positions from the by-id columns:
/// `out[i] = q.dist(position(oids[i]))`, bit-exact. `out` is cleared
/// and resized; keep one buffer and reuse it so the loop never
/// allocates.
///
/// # Panics
/// Panics if any id in `oids` is outside the coordinate columns.
#[inline]
pub fn dist_into(coords: Coords<'_>, q: Point, oids: &[ObjectId], out: &mut Vec<f64>) {
    out.clear();
    out.resize(oids.len(), 0.0);
    for (d, &oid) in out.iter_mut().zip(oids) {
        let idx = oid.index();
        let dx = coords.xs[idx] - q.x;
        let dy = coords.ys[idx] - q.y;
        *d = dx * dx + dy * dy;
    }
    // Second vertical pass: a pure slice traversal the compiler turns
    // into packed sqrt, instead of a serial sqrt per gathered element.
    for d in out.iter_mut() {
        *d = d.sqrt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn columns(n: usize) -> (Vec<f64>, Vec<f64>) {
        (0..n)
            .map(|i| {
                let t = i as f64 / n.max(1) as f64;
                (t, (1.0 - t) * 0.7)
            })
            .unzip()
    }

    #[test]
    fn gathered_kernel_matches_scalar_bitwise() {
        let (xs, ys) = columns(64);
        let coords = Coords::from_columns(&xs, &ys);
        let q = Point::new(0.3, 0.6);
        // An odd length, so no pairing of elements can hide a remainder.
        let oids: Vec<ObjectId> = (0..33).map(|i| ObjectId((i * 7 % 64) as u32)).collect();
        let mut out = Vec::new();
        dist_into(coords, q, &oids, &mut out);
        for (&oid, &d) in oids.iter().zip(&out) {
            assert_eq!(d.to_bits(), q.dist(coords.point(oid)).to_bits());
        }
    }

    #[test]
    fn buffer_is_reused_and_resized() {
        let (xs, ys) = columns(8);
        let coords = Coords::from_columns(&xs, &ys);
        let mut out = vec![999.0; 100];
        dist_into(coords, Point::new(0.5, 0.5), &[ObjectId(1)], &mut out);
        assert_eq!(out.len(), 1);
        dist_into(coords, Point::ORIGIN, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn unequal_columns_are_rejected() {
        let _ = Coords::from_columns(&[0.0], &[]);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn unequal_run_columns_are_rejected() {
        let _ = CellRun::new(&[ObjectId(0)], &[0.0], &[]);
    }
}
