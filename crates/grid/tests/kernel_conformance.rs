//! Kernel conformance: the batched distance kernels must be
//! **bit-identical** — not ε-close — to the scalar reference
//! (`Point::dist_sq` / `Point::dist` per object) for every table size and
//! bucket size, odd and even. Bit-identicality is what lets every engine
//! share the kernel without perturbing `total_cmp` orderings, results,
//! changed lists or delta streams.

use cpm_geom::{ObjectId, Point};
use cpm_grid::kernels::{self, Coords};
use proptest::prelude::*;

/// Deterministic coordinates in `[0, 1)` (no external RNG needed).
fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 11) as f64) / ((1u64 << 53) as f64)
}

fn columns(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut s = seed;
    (0..n).map(|_| (lcg(&mut s), lcg(&mut s))).unzip()
}

fn assert_bucket_bit_identical(coords: Coords<'_>, q: Point, oids: &[ObjectId], ctx: &str) {
    let mut out = Vec::new();
    kernels::dist_sq_into(coords, q, oids, &mut out);
    assert_eq!(out.len(), oids.len(), "{ctx}: dist_sq output length");
    for (i, (&oid, &d)) in oids.iter().zip(&out).enumerate() {
        let want = q.dist_sq(coords.point(oid));
        assert_eq!(
            d.to_bits(),
            want.to_bits(),
            "{ctx}: dist_sq[{i}] {d} != scalar {want}"
        );
    }
    kernels::dist_into(coords, q, oids, &mut out);
    assert_eq!(out.len(), oids.len(), "{ctx}: dist output length");
    for (i, (&oid, &d)) in oids.iter().zip(&out).enumerate() {
        let want = q.dist(coords.point(oid));
        assert_eq!(
            d.to_bits(),
            want.to_bits(),
            "{ctx}: dist[{i}] {d} != scalar {want}"
        );
    }
}

/// Exhaustive sweep over the benchmarked position-table sizes and *every*
/// bucket size 0..=256: odd sizes leave a remainder to any pairing the
/// compiler vectorizes with, even sizes none, and 0/1 are the degenerate
/// edges.
#[test]
fn batched_kernels_bit_identical_for_every_dim_and_bucket_size() {
    for &dim in &[64usize, 256, 1024] {
        let (xs, ys) = columns(dim, 0x5EED ^ dim as u64);
        let coords = Coords::from_columns(&xs, &ys);
        let mut s = 0xABCDEF ^ dim as u64;
        let q = Point::new(lcg(&mut s), lcg(&mut s));
        for bucket in 0..=256usize {
            // Pseudo-random gather pattern, duplicates allowed.
            let oids: Vec<ObjectId> = (0..bucket)
                .map(|_| ObjectId((lcg(&mut s) * dim as f64) as u32))
                .collect();
            assert_bucket_bit_identical(coords, q, &oids, &format!("dim {dim}, bucket {bucket}"));
        }
    }
}

/// Extreme-but-legal coordinates must round-trip bit-exactly too: the
/// kernel may not assume unit-square inputs (benches and tests feed raw
/// columns).
#[test]
fn batched_kernels_bit_identical_on_extreme_values() {
    let xs = [0.0, -0.0, 1e-300, 1e300, f64::MIN_POSITIVE, 5e-324, -3.5];
    let ys = [1.0, -1.0, -1e300, 1e-300, 0.25, -5e-324, 7.75];
    let coords = Coords::from_columns(&xs, &ys);
    let oids: Vec<ObjectId> = (0..xs.len() as u32).map(ObjectId).collect();
    for q in [
        Point::new(0.0, 0.0),
        Point::new(-1e300, 1e300),
        Point::new(1e-308, -1e-308),
    ] {
        assert_bucket_bit_identical(coords, q, &oids, "extreme values");
    }
}

proptest! {
    /// Random table sizes, random gather patterns (duplicates and
    /// out-of-order ids included), random query points: batched output is
    /// always bit-identical to the scalar reference.
    #[test]
    fn batched_matches_scalar_bitwise(
        dim in 1usize..300,
        seed in any::<u64>(),
        bucket in 0usize..300,
        qx in -2.0..2.0f64,
        qy in -2.0..2.0f64,
    ) {
        let (xs, ys) = columns(dim, seed);
        let coords = Coords::from_columns(&xs, &ys);
        let mut s = seed ^ 0x9E3779B97F4A7C15;
        let oids: Vec<ObjectId> = (0..bucket)
            .map(|_| ObjectId((lcg(&mut s) * dim as f64) as u32))
            .collect();
        let q = Point::new(qx, qy);
        let mut out = Vec::new();
        kernels::dist_sq_into(coords, q, &oids, &mut out);
        for (&oid, &d) in oids.iter().zip(&out) {
            prop_assert_eq!(d.to_bits(), q.dist_sq(coords.point(oid)).to_bits());
        }
        kernels::dist_into(coords, q, &oids, &mut out);
        for (&oid, &d) in oids.iter().zip(&out) {
            prop_assert_eq!(d.to_bits(), q.dist(coords.point(oid)).to_bits());
        }
    }
}
