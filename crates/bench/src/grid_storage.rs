//! Grid-storage micro-benchmark: dense slot-based cell buckets (the
//! `cpm_grid::Grid` storage layer) vs the seed's hash-set-per-cell layout.
//!
//! Measures the two hot paths of the Section 4.1 cost model on uniform
//! data at the paper's scale (100K objects, 10% of objects moving per
//! cycle at medium speed), per grid granularity:
//!
//! * **update** — `Time_ind = 2` location updates (delete from the old
//!   cell, insert into the new one), one paired cycle per move batch;
//! * **scan** — full scans of cell object lists (the unit Figure 6.3b
//!   counts) over the 5×5 neighborhoods of random query points, one
//!   paired cycle per block of 50 queries. Every block's
//!   `(checksum, count)` must be equal between the layouts.
//!
//! The gated statistics are the dense / hash-set cost ratios: the
//! hash-set layout is the in-run, machine-independent control.

use cpm_geom::{clamp_coord, FastHashMap, FastHashSet, ObjectId, Point};
use cpm_grid::CellCoord;

use crate::paired::{timed, Paired, Stat, REPS};
use crate::record::BenchRecord;
use crate::workload::{bench_config, random_walk_cycles, uniform_points};

bench_config! {
    /// Workload parameters for one grid-storage run.
    Config {
        /// Object population `N`.
        n_objects: usize = 100_000,
        /// Fraction of objects moving per cycle.
        move_fraction: f64 = 0.10,
        /// Update cycles measured.
        cycles: usize = 20,
        /// Query points whose neighborhoods are scanned.
        queries: usize = 2_000,
        /// Cells per axis either side of the query cell in the scanned
        /// block (2 → the typical 5×5 influence-region footprint).
        scan_half: u32 = 2,
        /// Grid granularities measured.
        dims: Vec<u32> = vec![64, 256, 1024],
        /// RNG seed.
        seed: u64 = 2005,
    }
}

impl Config {
    /// What `bench_check` runs: the full object population (per-cell
    /// occupancy, and so every ratio, depends on it) without the 1024²
    /// grid.
    pub fn gate() -> Self {
        Self {
            dims: vec![64, 256],
            ..Self::default()
        }
    }
}

/// Queries per paired scan cycle.
const SCAN_CHUNK: usize = 50;

/// The seed's storage layout, kept verbatim as the control: one
/// `FastHashSet<ObjectId>` per occupied cell, updates via hashed
/// remove/insert of the object id.
struct HashSetGrid {
    dim: u32,
    delta: f64,
    cells: FastHashMap<u64, FastHashSet<ObjectId>>,
    positions: Vec<Option<Point>>,
}

impl HashSetGrid {
    fn new(dim: u32) -> Self {
        Self {
            dim,
            delta: 1.0 / dim as f64,
            cells: FastHashMap::default(),
            positions: Vec::new(),
        }
    }

    #[inline]
    fn cell_of(&self, p: Point) -> CellCoord {
        let col = (clamp_coord(p.x) / self.delta) as u32;
        let row = (clamp_coord(p.y) / self.delta) as u32;
        CellCoord::new(col.min(self.dim - 1), row.min(self.dim - 1))
    }

    fn insert(&mut self, oid: ObjectId, p: Point) {
        let idx = oid.index();
        if idx >= self.positions.len() {
            self.positions.resize(idx + 1, None);
        }
        let p = Point::new(clamp_coord(p.x), clamp_coord(p.y));
        self.positions[idx] = Some(p);
        let cell = self.cell_of(p);
        self.cells.entry(cell.id(self.dim)).or_default().insert(oid);
    }

    fn update_position(&mut self, oid: ObjectId, new: Point) {
        let old = self.positions[oid.index()].take().expect("live object");
        let id = self.cell_of(old).id(self.dim);
        let occupants = self.cells.get_mut(&id).expect("cell entry");
        occupants.remove(&oid);
        if occupants.is_empty() {
            self.cells.remove(&id);
        }
        self.insert(oid, new);
    }

    #[inline]
    fn objects_in(&self, c: CellCoord) -> Option<&FastHashSet<ObjectId>> {
        self.cells.get(&c.id(self.dim))
    }
}

/// Cells of the (clipped) `(2·scan_half+1)²` block around `center`.
fn scan_block(center: CellCoord, dim: u32, scan_half: u32) -> impl Iterator<Item = CellCoord> {
    let scan_half = i64::from(scan_half);
    (-scan_half..=scan_half).flat_map(move |dr| {
        (-scan_half..=scan_half).filter_map(move |dc| center.offset(dc, dr, dim))
    })
}

/// Fold one scanned id into a block's `(xor checksum, count)`.
fn fold(acc: &mut (u64, u64), oid: ObjectId) {
    acc.0 ^= u64::from(oid.0);
    acc.1 += 1;
}

/// Run the benchmark: per granularity, both layouts replay the identical
/// pre-generated moves and scans under the paired protocol.
///
/// # Panics
/// If the layouts ever scan different object sets.
pub fn measure(cfg: &Config) -> BenchRecord {
    let mut rng = rand::SeedableRng::seed_from_u64(cfg.seed);
    let mut positions = uniform_points(&mut rng, cfg.n_objects);
    let initial: Vec<(ObjectId, Point)> = (0..).map(ObjectId).zip(positions.clone()).collect();
    let movers = ((cfg.n_objects as f64 * cfg.move_fraction) as usize).max(1);
    let moves = random_walk_cycles(&mut rng, &mut positions, cfg.cycles, movers);
    let queries = uniform_points(&mut rng, cfg.queries);
    let blocks: Vec<&[Point]> = queries.chunks(SCAN_CHUNK).collect();

    let mut record = BenchRecord::new("grid", cfg.fields());
    let mut worst = [Stat::exact(0.0); 2];
    for &dim in &cfg.dims {
        let (mut updates, mut scans) = (Paired::default(), Paired::default());
        let mut scanned = 0u64;
        for _ in 0..REPS {
            let mut dense = cpm_grid::GridBuilder::new(dim).build_uniform();
            let mut hash = HashSetGrid::new(dim);
            for &(oid, p) in &initial {
                dense.insert(oid, p);
                hash.insert(oid, p);
            }
            let mut dense_update = |i: usize| {
                timed(|| {
                    for &(oid, to) in &moves[i] {
                        dense.update_position(oid, to);
                    }
                })
            };
            let mut hash_update = |i: usize| {
                timed(|| {
                    for &(oid, to) in &moves[i] {
                        hash.update_position(oid, to);
                    }
                })
            };
            updates.repetition(
                0,
                moves.len(),
                false,
                &mut [
                    ("dense", &mut dense_update),
                    ("hash-sets", &mut hash_update),
                ],
            );
            scanned = 0;
            let mut dense_scan = |i: usize| {
                timed(|| {
                    let mut acc = (0, 0);
                    for &q in blocks[i] {
                        for cell in scan_block(dense.cell_of(q), dim, cfg.scan_half) {
                            dense
                                .objects_in(cell)
                                .iter()
                                .for_each(|&o| fold(&mut acc, o));
                        }
                    }
                    acc
                })
            };
            let mut hash_scan = |i: usize| {
                let (spent, acc) = timed(|| {
                    let mut acc = (0, 0);
                    for &q in blocks[i] {
                        for cell in scan_block(hash.cell_of(q), dim, cfg.scan_half) {
                            let objects = hash.objects_in(cell);
                            objects
                                .into_iter()
                                .flatten()
                                .for_each(|&o| fold(&mut acc, o));
                        }
                    }
                    acc
                });
                scanned += acc.1;
                (spent, acc)
            };
            // `check`: both layouts must scan identical object sets.
            scans.repetition(
                0,
                blocks.len(),
                true,
                &mut [("dense", &mut dense_scan), ("hash-sets", &mut hash_scan)],
            );
        }
        let ratios = [
            updates.ratio("dense", "hash-sets"),
            scans.ratio("dense", "hash-sets"),
        ];
        for (w, r) in worst.iter_mut().zip(ratios) {
            if r.median > w.median {
                *w = r;
            }
        }
        let per_block = scanned as f64 / blocks.len() as f64;
        for layout in ["dense", "hash-sets"] {
            record.rows.push(crate::fields! {
                "dim" => dim,
                "layout" => layout,
                "update_ns_per_op" => updates.quiet_ms(layout).median * 1e6 / movers as f64,
                "scan_ns_per_object" => scans.quiet_ms(layout).median * 1e6 / per_block.max(1.0),
                "objects_scanned" => scanned,
            });
        }
        record.rows.push(crate::fields! {
            "dim" => dim,
            "layout" => "dense / hash-sets",
            "update_ratio" => ratios[0].median,
            "update_ratio_mad" => ratios[0].mad,
            "scan_ratio" => ratios[1].median,
            "scan_ratio_mad" => ratios[1].mad,
        });
    }
    record.put("update_vs_hashset", worst[0]);
    record.put("scan_vs_hashset", worst[1]);
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_consistent_measurements() {
        let cfg = Config {
            n_objects: 500,
            cycles: 2,
            queries: 120,
            dims: vec![16],
            ..Config::default()
        };
        // `measure` itself asserts per-block scan equality.
        let record = measure(&cfg);
        assert_eq!(record.rows.len(), 3);
        assert!(record.median("update_vs_hashset") > 0.0);
        assert!(record.median("scan_vs_hashset") > 0.0);
        assert!(record.render().contains("\"layout\": \"dense\""));
    }
}
