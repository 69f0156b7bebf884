//! Batched distance kernels over the store's struct-of-arrays columns.
//!
//! The maintenance inner loop of every monitor — CPM recompute/visit,
//! the unified server's candidate scans, the SEA/YPK baselines — is
//! "given a query point and one cell bucket, compute the distance to
//! every object in the bucket". This module is that loop, written once:
//! gather the bucket's coordinates from the [`Coords`] columns and fill
//! a caller-reused output buffer in a single pass.
//!
//! The loops are plain and indexed, shaped for auto-vectorization: no
//! `Option` decode per object, and a bulk `sqrt` over a contiguous
//! slice.
//!
//! The kernels are **bit-identical** to the scalar reference
//! (`Point::dist_sq` / `Point::dist` per object): they perform the same
//! `sub → mul → add → sqrt` sequence per element, rustc emits no
//! fast-math reassociation or FMA contraction, and packed `sqrt` rounds
//! exactly like scalar `sqrt`. The `kernel_conformance` suite asserts
//! equality down to the bit pattern for every table/bucket size.

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

    /// Number of slots in the columns (allocated ids, not live objects).
    #[inline]
    pub fn slots(&self) -> usize {
        self.xs.len()
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

/// Fill `out` with the **squared** distance from `q` to every object of
/// `oids`, in order: `out[i] = q.dist_sq(position(oids[i]))`, bit-exact.
/// `out` is cleared and resized; keep one buffer per query state and
/// reuse it so the hot path never allocates.
///
/// # Panics
/// Panics if any id in `oids` is outside the coordinate columns.
#[inline]
pub fn dist_sq_into(coords: Coords<'_>, q: Point, oids: &[ObjectId], out: &mut Vec<f64>) {
    out.clear();
    out.resize(oids.len(), 0.0);
    dist_sq_gather(coords.xs, coords.ys, q, oids, out);
}

/// Fill `out` with the **Euclidean** distance from `q` to every object
/// of `oids`: `out[i] = q.dist(position(oids[i]))`, bit-exact. Same
/// buffer contract as [`dist_sq_into`].
///
/// # Panics
/// Panics if any id in `oids` is outside the coordinate columns.
#[inline]
pub fn dist_into(coords: Coords<'_>, q: Point, oids: &[ObjectId], out: &mut Vec<f64>) {
    dist_sq_into(coords, q, oids, out);
    // Second vertical pass: a pure slice traversal the compiler turns
    // into packed sqrt, instead of a serial sqrt per gathered element.
    for d in out.iter_mut() {
        *d = d.sqrt();
    }
}

/// Gather + arithmetic in one plain indexed loop. Writing through
/// `out.iter_mut().zip(oids)` keeps the loop free of bounds checks on
/// the output side; the column reads stay checked (ids are
/// caller-supplied) which LLVM hoists per iteration.
fn dist_sq_gather(xs: &[f64], ys: &[f64], q: Point, oids: &[ObjectId], out: &mut [f64]) {
    for (d, &oid) in out.iter_mut().zip(oids) {
        let idx = oid.index();
        let dx = xs[idx] - q.x;
        let dy = ys[idx] - q.y;
        *d = dx * dx + dy * dy;
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
    fn batched_dist_sq_matches_scalar_bitwise() {
        let (xs, ys) = columns(64);
        let coords = Coords::from_columns(&xs, &ys);
        let q = Point::new(0.3, 0.6);
        // An odd length, so no pairing of elements can hide a remainder.
        let oids: Vec<ObjectId> = (0..33).map(|i| ObjectId((i * 7 % 64) as u32)).collect();
        let mut out = Vec::new();
        dist_sq_into(coords, q, &oids, &mut out);
        for (&oid, &d) in oids.iter().zip(&out) {
            assert_eq!(d.to_bits(), q.dist_sq(coords.point(oid)).to_bits());
        }
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
        dist_sq_into(coords, Point::new(0.5, 0.5), &[ObjectId(1)], &mut out);
        assert_eq!(out.len(), 1);
        dist_sq_into(coords, Point::new(0.5, 0.5), &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn unequal_columns_are_rejected() {
        let _ = Coords::from_columns(&[0.0], &[]);
    }
}
