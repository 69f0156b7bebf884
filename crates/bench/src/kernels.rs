//! Distance-kernel micro-benchmark: the run kernel every cell scan
//! calls (`cpm_grid::kernels::run_dist_into` over `Grid::cell_run`) vs
//! the scalar loop it replaces (one `Point::dist` per object of the run,
//! pushed — `QuerySpec::dist_batch`'s trait default, which `PointQuery`
//! overrides with the kernel).
//!
//! Both lanes replay identical scans of a real grid's cell runs under
//! the paired protocol — one paired cycle is a block of scans over every
//! cell of the grid, lanes alternating per block — and their outputs
//! are folded into checksums that must match **bit-for-bit** before
//! anything is timed: the bench doubles as an end-to-end smoke test of
//! the kernel-conformance guarantee.
//!
//! The sweep covers bucket sizes (objects per cell) 1–256, including an
//! odd size. The gated statistic is the worst speedup over buckets of
//! ≥ 32 objects.

use cpm_geom::{ObjectId, Point};
use cpm_grid::{apply_events, kernels, CellCoord, Grid, GridBuilder, ObjectEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::paired::{quiet_tenth, timed, Paired, Stat, REPS};
use crate::record::BenchRecord;
use crate::workload::bench_config;

bench_config! {
    /// Workload parameters for one kernel run. `bench_check` runs this
    /// very configuration, so the checked-in curve binds. The run is
    /// long on purpose (~3 s of 90 blocks per size): it has to outlast
    /// the host's disturbed phases to see the undisturbed state at all.
    Config {
        /// Grid dimension: each of the `dim²` cells is one scanned run.
        dim: u32 = 8,
        /// Bucket sizes measured (objects per cell, so per scan).
        buckets: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 33, 64, 128, 256],
        /// Target distance evaluations per lane per timed block (scans
        /// per block are derived from this so small buckets are not
        /// under-sampled).
        block_ops: usize = 100_000,
        /// Timed blocks per bucket size per lane per repetition.
        blocks: usize = 90,
        /// RNG seed.
        seed: u64 = 2005,
    }
}

impl Config {
    /// What `bench_check` runs: the acceptance configuration itself.
    pub fn gate() -> Self {
        Self::default()
    }
}

/// One bucket size's inputs, identical for both lanes: a grid whose
/// every cell holds `bucket` objects, and one query per cell.
struct Cell {
    bucket: usize,
    grid: Grid,
    queries: Vec<(CellCoord, Point)>,
}

fn build_cell(rng: &mut StdRng, dim: u32, bucket: usize) -> Cell {
    let mut grid = GridBuilder::new(dim).build_uniform();
    let delta = grid.delta();
    let cells: Vec<CellCoord> = (0..dim)
        .flat_map(|row| (0..dim).map(move |col| CellCoord::new(col, row)))
        .collect();
    let mut appears = Vec::with_capacity(cells.len() * bucket);
    for c in &cells {
        for _ in 0..bucket {
            let id = ObjectId(appears.len() as u32);
            let x = (f64::from(c.col) + rng.gen::<f64>()) * delta;
            let y = (f64::from(c.row) + rng.gen::<f64>()) * delta;
            appears.push(ObjectEvent::Appear {
                id,
                pos: Point::new(x, y),
            });
        }
    }
    apply_events(&mut grid, &appears, &mut Vec::new());
    let queries = cells
        .into_iter()
        .map(|c| (c, Point::new(rng.gen(), rng.gen())))
        .collect();
    Cell {
        bucket,
        grid,
        queries,
    }
}

/// The scalar loop over a run: one `Point::dist` per object, pushed.
#[inline(never)]
fn scalar_scan(grid: &Grid, c: CellCoord, q: Point, out: &mut Vec<f64>) {
    out.clear();
    out.extend(grid.cell_run(c).iter().map(|(_, p)| q.dist(p)));
}

/// The run kernel, as a cell scan calls it.
#[inline(never)]
fn kernel_scan(grid: &Grid, c: CellCoord, q: Point, out: &mut Vec<f64>) {
    kernels::run_dist_into(grid.cell_run(c), q, out);
}

fn fold(checksum: &mut u64, out: &[f64]) {
    for d in out {
        *checksum ^= d.to_bits();
    }
}

/// Run the sweep under the paired protocol, every bucket size sampled
/// across the whole run.
///
/// # Panics
/// If the lanes' outputs ever differ bitwise.
pub fn measure(cfg: &Config) -> BenchRecord {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let cells: Vec<Cell> = (cfg.buckets.iter())
        .map(|&bucket| build_cell(&mut rng, cfg.dim, bucket))
        .collect();
    // Conformance first (outside timing): every run's outputs must match
    // bit-for-bit between the lanes. The inputs never change, so
    // checking once covers every timed scan below.
    let mut out = Vec::new();
    for cell in &cells {
        let (mut scalar_sum, mut batched_sum) = (0u64, 0u64);
        for &(c, q) in &cell.queries {
            assert_eq!(cell.grid.cell_len(c), cell.bucket);
            scalar_scan(&cell.grid, c, q, &mut out);
            fold(&mut scalar_sum, &out);
            kernel_scan(&cell.grid, c, q, &mut out);
            fold(&mut batched_sum, &out);
        }
        assert_eq!(
            scalar_sum, batched_sum,
            "lanes diverged bitwise at bucket {}",
            cell.bucket
        );
    }

    // Timed blocks: the scans alone, with `black_box` keeping each
    // bucket's output live (folding checksums inside the timed region
    // would add a constant per-object cost to both lanes and compress
    // the measured ratio). One paired cycle is one block of one bucket
    // size and consecutive cycles walk the sizes, so every size is
    // sampled over the whole run; each block follows one untimed pass
    // that brings the grid back into cache after the other sizes' blocks.
    let n = cells.len();
    let scans: Vec<usize> = cells
        .iter()
        .map(|cell| (cfg.block_ops / (cell.queries.len() * cell.bucket)).max(1))
        .collect();
    let mut paired = Paired::default();
    // Per repetition, per lane, per cell: the quiet tenth of the cell's
    // block times (cell `c` sits at stream positions `c + k·n`).
    let mut quiets: Vec<[Vec<f64>; 2]> = Vec::new();
    for _ in 0..REPS {
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        let mut scalar = |i: usize| {
            let cell = &cells[i % n];
            let mut pass = |scans: usize| {
                for _ in 0..scans {
                    for &(c, q) in &cell.queries {
                        scalar_scan(&cell.grid, c, q, &mut out_a);
                        std::hint::black_box(&mut out_a);
                    }
                }
            };
            pass(1);
            timed(|| pass(scans[i % n]))
        };
        let mut batched = |i: usize| {
            let cell = &cells[i % n];
            let mut pass = |scans: usize| {
                for _ in 0..scans {
                    for &(c, q) in &cell.queries {
                        kernel_scan(&cell.grid, c, q, &mut out_b);
                        std::hint::black_box(&mut out_b);
                    }
                }
            };
            pass(1);
            timed(|| pass(scans[i % n]))
        };
        let lanes = &mut [("scalar", &mut scalar as _), ("batched", &mut batched as _)];
        paired.repetition(n, n * cfg.blocks, false, lanes);
        quiets.push(["scalar", "batched"].map(|lane| {
            let of_cell = |c| paired.last(lane).iter().skip(c).step_by(n).copied();
            (0..n)
                .map(|c| quiet_tenth(&of_cell(c).collect::<Vec<_>>()))
                .collect()
        }));
    }

    // The host alternates, for seconds at a time, between an
    // undisturbed state and states where the sibling hardware thread is
    // busy, which cost the two lanes unequally. The reproducible number is the undisturbed one: per
    // lane the quiet tenth of each repetition's blocks, of the quietest
    // repetition (`Stat::quietest`, as `Paired::quiet_ms`); the MAD of
    // the per-repetition ratios says how far the host moved it.
    let mut record = BenchRecord::new("kernels", cfg.fields());
    let mut worst: Option<Stat> = None;
    for (c, cell) in cells.iter().enumerate() {
        let per_rep = |lane: usize| -> Vec<f64> { quiets.iter().map(|rep| rep[lane][c]).collect() };
        let (scalar, batched) = (per_rep(0), per_rep(1));
        let ratios: Vec<f64> = scalar.iter().zip(&batched).map(|(s, b)| s / b).collect();
        let (scalar, batched) = (
            Stat::quietest(&scalar).median,
            Stat::quietest(&batched).median,
        );
        let speedup = Stat {
            median: scalar / batched,
            mad: Stat::of(&ratios).mad,
        };
        let ops = (scans[c] * cell.queries.len() * cell.bucket) as f64;
        record.rows.push(crate::fields! {
            "bucket" => cell.bucket,
            "scalar_ns_per_obj" => scalar * 1e6 / ops,
            "batched_ns_per_obj" => batched * 1e6 / ops,
            "speedup" => speedup.median,
            "speedup_mad" => speedup.mad,
        });
        let gated = cell.bucket >= 32;
        if gated && worst.is_none_or(|w| speedup.median < w.median) {
            worst = Some(speedup);
        }
    }
    if let Some(worst) = worst {
        record.put("speedup_bucket32plus", worst);
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_is_consistent_and_gates_the_worst_cell() {
        let cfg = Config {
            dim: 2,
            buckets: vec![3, 32, 64],
            block_ops: 500,
            blocks: 3,
            ..Config::default()
        };
        let record = measure(&cfg);
        assert_eq!(record.rows.len(), 3);
        let speedup = |row: usize| match &record.rows[row][3] {
            (_, crate::record::Value::Num(x)) => *x,
            _ => panic!("speedup is numeric"),
        };
        // The gate statistic is the minimum over the bucket >= 32 cells.
        let gated = record.median("speedup_bucket32plus");
        assert_eq!(gated, speedup(1).min(speedup(2)));
        // No gated cell measured → no metric (the gate row then fails).
        let ungated = measure(&Config {
            buckets: vec![3],
            ..cfg
        });
        assert!(ungated.metric("speedup_bucket32plus").is_none());
    }
}
