//! Kernel conformance: the batched distance kernels must be
//! **bit-identical** — not ε-close — to the scalar reference
//! (`Point::dist` per object) for every run, table and bucket size, odd
//! and even. Bit-identicality is what lets every engine share the kernel
//! without perturbing `total_cmp` orderings, results, changed lists or
//! delta streams.

use cpm_geom::{ObjectId, Point};
use cpm_grid::kernels::{self, CellRun, Coords};
use cpm_grid::{apply_events, CellCoord, GridBuilder, ObjectEvent};
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

fn assert_run_bit_identical(run: CellRun<'_>, q: Point, ctx: &str) {
    let mut out = vec![f64::NAN; 3];
    kernels::run_dist_into(run, q, &mut out);
    assert_eq!(out.len(), run.len(), "{ctx}: output length");
    for (i, ((oid, p), &d)) in run.iter().zip(&out).enumerate() {
        let want = q.dist(p);
        assert_eq!(
            d.to_bits(),
            want.to_bits(),
            "{ctx}: {oid} at run[{i}]: {d} != scalar {want}"
        );
    }
}

/// Every run length 0..=70 the index can hand out, read through a real
/// grid: one cell of a 4 × 4 grid filled with `n` objects, a third of
/// them piled on the same point (exact distance ties) and some asked
/// for past the workspace edge, so they sit on the clamped edge.
#[test]
fn run_kernel_bit_identical_for_every_run_length() {
    let corner = CellCoord::new(3, 3);
    let mut s = 0xC5E1u64;
    for n in 0..=70u32 {
        let mut g = GridBuilder::new(4).build_uniform();
        let appears: Vec<ObjectEvent> = (0..n)
            .map(|i| {
                let pos = match i % 3 {
                    0 => Point::new(0.8, 0.8),
                    1 => Point::new(1.0 + lcg(&mut s), 1.0),
                    _ => Point::new(0.75 + 0.25 * lcg(&mut s), 0.75 + 0.25 * lcg(&mut s)),
                };
                ObjectEvent::Appear {
                    id: ObjectId(i),
                    pos,
                }
            })
            .collect();
        apply_events(&mut g, &appears, &mut Vec::new());
        let run = g.cell_run(corner);
        assert_eq!(run.len(), n as usize);
        for (oid, p) in run.iter() {
            assert_eq!(
                g.position(oid),
                Some(p),
                "run {n}: {oid} not at its position"
            );
        }
        for q in [
            Point::new(0.8, 0.8),
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.0),
            Point::new(lcg(&mut s), lcg(&mut s)),
        ] {
            assert_run_bit_identical(run, q, &format!("run length {n}, q {q:?}"));
        }
    }
}

/// The run kernel does not assume unit-square inputs either.
#[test]
fn run_kernel_bit_identical_on_extreme_values() {
    let xs = [0.0, -0.0, 1e-300, 1e300, f64::MIN_POSITIVE, 5e-324, -3.5];
    let ys = [1.0, -1.0, -1e300, 1e-300, 0.25, -5e-324, 7.75];
    let ids: Vec<ObjectId> = (0..xs.len() as u32).map(ObjectId).collect();
    for q in [Point::new(-1e300, 1e300), Point::new(1e-308, -1e-308)] {
        for n in 0..=xs.len() {
            let run = CellRun::new(&ids[..n], &xs[..n], &ys[..n]);
            assert_run_bit_identical(run, q, &format!("extreme values, {n} long"));
        }
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
        kernels::dist_into(coords, q, &oids, &mut out);
        for (&oid, &d) in oids.iter().zip(&out) {
            prop_assert_eq!(d.to_bits(), q.dist(coords.point(oid)).to_bits());
        }
    }
}
