//! Shared search primitives of the baseline algorithms.
//!
//! YPK-CNN's two-step NN search (Figure 2.1a) is used by YPK-CNN for
//! first-time evaluation and — following the paper's experimental setup —
//! by SEA-CNN to compute initial results and to recover when current NNs
//! disappear ("in the implementation of SEA-CNN, we use the NN search
//! algorithm of YPK-CNN", Section 6).

use cpm_geom::{Point, Rect};
use cpm_grid::{CellCoord, Grid, Metrics};

use cpm_core::neighbors::NeighborList;

/// Scan one cell into `best` (a *cell access* in the experiment metrics):
/// offer every object of its run as its distance to `q` is computed —
/// the loop of CPM's engine, so equal inputs give bit-identical lists.
#[inline]
pub(crate) fn scan_cell(
    grid: &Grid,
    q: Point,
    cell: CellCoord,
    best: &mut NeighborList,
    metrics: &mut Metrics,
) {
    let run = grid.cell_run(cell);
    metrics.cell_accesses += 1;
    metrics.objects_processed += run.len() as u64;
    for (oid, p) in run.iter() {
        best.offer(oid, q.dist(p));
    }
}

/// Step 1 of YPK-CNN's first-time evaluation: visit the cells of expanding
/// square rings around `c_q` until at least `k` objects have been found
/// (or the grid is exhausted). Returns the candidates found and the last
/// ring radius scanned.
pub(crate) fn expanding_square_candidates(
    grid: &Grid,
    q: Point,
    k: usize,
    metrics: &mut Metrics,
) -> (NeighborList, u32) {
    let dim = grid.dim();
    let cq = grid.cell_of(q);
    let mut best = NeighborList::new(k);
    let mut found = 0usize;
    let mut radius = 0u32;
    loop {
        let mut any_cell = false;
        for cell in chebyshev_ring(cq, radius, dim) {
            any_cell = true;
            found += grid.cell_len(cell);
            scan_cell(grid, q, cell, &mut best, metrics);
        }
        // A ring is empty only once it lies entirely outside the grid, at
        // which point every farther ring is empty too: the grid is
        // exhausted.
        if found >= k || !any_cell {
            break;
        }
        radius += 1;
    }
    (best, radius)
}

/// The cells at exactly Chebyshev distance `radius` from `center`
/// (the whole square block for `radius == 0`).
pub(crate) fn chebyshev_ring(
    center: CellCoord,
    radius: u32,
    dim: u32,
) -> impl Iterator<Item = CellCoord> {
    let r = radius as i64;
    let mut out = Vec::new();
    if r == 0 {
        out.push(center);
    } else {
        for dc in -r..=r {
            for &dr in &[-r, r] {
                if let Some(c) = center.offset(dc, dr, dim) {
                    out.push(c);
                }
            }
        }
        for dr in (-r + 1)..r {
            for &dc in &[-r, r] {
                if let Some(c) = center.offset(dc, dr, dim) {
                    out.push(c);
                }
            }
        }
    }
    out.into_iter()
}

/// Step 2 of YPK-CNN (also its re-evaluation step): scan every cell
/// intersecting the square `SR` centered at the *cell* `c_q` with side
/// `2·d + δ`, skipping cells already scanned in step 1 (those within
/// Chebyshev radius `skip_within` of `c_q`).
pub(crate) fn scan_square(
    grid: &Grid,
    q: Point,
    d: f64,
    best: &mut NeighborList,
    skip_within: Option<u32>,
    metrics: &mut Metrics,
) {
    let cq = grid.cell_of(q);
    let center = grid.cell_rect(cq).center();
    let half = d + grid.delta() / 2.0;
    let sr = Rect::new(
        Point::new(center.x - half, center.y - half),
        Point::new(center.x + half, center.y + half),
    );
    for cell in grid.cells_in_rect(&sr) {
        if let Some(skip) = skip_within {
            if cq.chebyshev(cell) <= skip {
                continue; // already contributed its objects in step 1
            }
        }
        scan_cell(grid, q, cell, best, metrics);
    }
}

/// YPK-CNN's complete two-step first-time NN computation (Figure 2.1a).
pub(crate) fn two_step_search(
    grid: &Grid,
    q: Point,
    k: usize,
    metrics: &mut Metrics,
) -> NeighborList {
    let (mut best, radius) = expanding_square_candidates(grid, q, k, metrics);
    metrics.computations += 1;
    let d = if best.is_full() {
        best.best_dist()
    } else {
        match best.neighbors().last() {
            Some(n) => n.dist,
            None => return best, // empty grid
        }
    };
    scan_square(grid, q, d, &mut best, Some(radius), metrics);
    best
}

/// Scan every cell intersecting the circle `(center, r)` and collect the
/// k best objects by distance to `q` (SEA-CNN's search-region scan).
pub(crate) fn scan_circle(
    grid: &Grid,
    q: Point,
    center: Point,
    r: f64,
    k: usize,
    metrics: &mut Metrics,
) -> NeighborList {
    let mut best = NeighborList::new(k);
    for cell in grid.cells_in_circle(center, r) {
        scan_cell(grid, q, cell, &mut best, metrics);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_geom::ObjectId;
    use cpm_grid::ObjectEvent;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_with(objects: &[(u32, f64, f64)]) -> Grid {
        let mut g = cpm_grid::GridBuilder::new(16).build_uniform();
        let appears: Vec<ObjectEvent> = (objects.iter())
            .map(|&(id, x, y)| ObjectEvent::Appear {
                id: ObjectId(id),
                pos: Point::new(x, y),
            })
            .collect();
        cpm_grid::apply_events(&mut g, &appears, &mut Vec::new());
        g
    }

    fn random_grid(rng: &mut StdRng, n: u32) -> Grid {
        let objects: Vec<(u32, f64, f64)> = (0..n).map(|i| (i, rng.gen(), rng.gen())).collect();
        grid_with(&objects)
    }

    fn brute(grid: &Grid, q: Point, k: usize) -> Vec<f64> {
        let mut d: Vec<f64> = grid.iter_objects().map(|(_, p)| q.dist(p)).collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        d.truncate(k);
        d
    }

    #[test]
    fn chebyshev_rings_partition_the_grid() {
        let dim = 8;
        let center = CellCoord::new(2, 5);
        let mut seen = std::collections::HashSet::new();
        for r in 0..dim {
            for c in chebyshev_ring(center, r, dim) {
                assert_eq!(center.chebyshev(c), r);
                assert!(seen.insert(c), "duplicate {c}");
            }
        }
        assert_eq!(seen.len(), (dim * dim) as usize);
    }

    #[test]
    fn two_step_matches_brute_force_on_random_data() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let n = rng.gen_range(1..80);
            let g = random_grid(&mut rng, n);
            let q = Point::new(rng.gen(), rng.gen());
            let k = rng.gen_range(1..8);
            let mut m = Metrics::default();
            let best = two_step_search(&g, q, k, &mut m);
            let expect = brute(&g, q, k);
            let got: Vec<f64> = best.neighbors().iter().map(|n| n.dist).collect();
            assert_eq!(got.len(), expect.len());
            for (g_, e) in got.iter().zip(&expect) {
                assert!((g_ - e).abs() < 1e-9);
            }
            assert!(m.cell_accesses > 0);
        }
    }

    #[test]
    fn two_step_on_empty_grid_returns_empty() {
        let g = cpm_grid::GridBuilder::new(8).build_uniform();
        let mut m = Metrics::default();
        let best = two_step_search(&g, Point::new(0.5, 0.5), 3, &mut m);
        assert!(best.is_empty());
    }

    #[test]
    fn figure_2_1a_cell_access_shape() {
        // A single NN found in ring 1 at distance d < δ means SR spans
        // 3 cells per axis: step 1 scans 9 cells, step 2 adds none beyond
        // the skip radius unless d pushes SR outside the 3×3 block.
        let g = grid_with(&[(1, 0.53, 0.53), (2, 0.40, 0.40)]);
        let q = Point::new(0.47, 0.47); // in cell (7,7) of a 16-grid
        let mut m = Metrics::default();
        let best = two_step_search(&g, q, 1, &mut m);
        assert_eq!(best.neighbors()[0].id, ObjectId(1)); // dist ≈ 0.085 < 0.099
                                                         // Never more than the 5×5 square around cq.
        assert!(m.cell_accesses <= 25, "accesses {}", m.cell_accesses);
    }

    #[test]
    fn scan_circle_matches_filtered_brute_force() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_grid(&mut rng, 60);
        let q = Point::new(0.5, 0.5);
        let mut m = Metrics::default();
        let best = scan_circle(&g, q, q, 0.3, 4, &mut m);
        // Everything within 0.3 of q must be considered; the 4 best overall
        // within that radius equal the global 4 best if they are ≤ 0.3.
        let expect: Vec<f64> = brute(&g, q, 4).into_iter().filter(|d| *d <= 0.3).collect();
        let got: Vec<f64> = best
            .neighbors()
            .iter()
            .map(|n| n.dist)
            .take(expect.len())
            .collect();
        for (g_, e) in got.iter().zip(&expect) {
            assert!((g_ - e).abs() < 1e-9);
        }
    }
}
