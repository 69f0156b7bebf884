//! Benchmark harness reproducing every table and figure of the CPM paper
//! (SIGMOD 2005), plus the extension studies of this suite.
//!
//! * [`figures`] — one function per paper figure (6.1–6.6), the space
//!   footnote, the Section 4.1 analysis validation and the Section 5
//!   extensions. Each returns a printable [`Table`].
//! * [`table`] — the plain-text table type experiment output uses.
//! * [`BENCHES`] — the nine micro-benchmarks behind the `BENCH_*.json`
//!   files at the repository root. Each module is a `Config`, its lanes
//!   with their in-run conformance assertions, and one
//!   `measure(&Config) -> BenchRecord`; how a benchmark is executed,
//!   serialized and judged lives once, in [`paired`], [`record`] and
//!   [`gates`].
//!
//! Three binaries consume this library: `experiments` prints the
//! paper-style series, `bench_record <name>…|all` re-records the
//! `BENCH_*.json` files at acceptance scale, and `bench_check` is the
//! regression gate CI runs on every PR.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod deltas;
pub mod figures;
pub mod gates;
pub mod grid_storage;
pub mod kernels;
pub mod paired;
pub mod pipeline;
pub mod record;
pub mod recovery;
pub mod regrid;
pub mod server;
pub mod shards;
pub mod table;
pub mod workload;

pub use record::BenchRecord;
pub use table::Table;

/// The default scale for interactive runs: keeps every sweep's shape while
/// finishing in minutes on a laptop. `--paper` (1.0) reproduces Table 6.1.
pub const DEFAULT_SCALE: f64 = 0.1;

/// One registered micro-benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    /// Name: the gate table's `bench` column and `BENCH_<name>.json`.
    pub name: &'static str,
    /// Measure at the scale `bench_check` gates.
    pub gate: fn() -> BenchRecord,
    /// Measure at the acceptance scale `bench_record` writes.
    pub record: fn() -> BenchRecord,
}

impl Bench {
    /// Path of this benchmark's checked-in record.
    pub fn path(&self) -> String {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        format!("{root}/BENCH_{}.json", self.name)
    }
}

macro_rules! bench {
    ($name:literal, $module:ident) => {
        Bench {
            name: $name,
            gate: || $module::measure(&$module::Config::gate()),
            record: || $module::measure(&$module::Config::default()),
        }
    };
}

/// Every micro-benchmark, in the order `bench_check` runs them.
pub const BENCHES: [Bench; 9] = [
    bench!("grid", grid_storage),
    bench!("shards", shards),
    bench!("deltas", deltas),
    bench!("server", server),
    bench!("regrid", regrid),
    bench!("recovery", recovery),
    bench!("kernels", kernels),
    bench!("cluster", cluster),
    bench!("pipeline", pipeline),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-test the cheap figures end to end at a very small scale; the
    /// expensive ones run in the experiments binary.
    #[test]
    fn figures_produce_well_formed_tables() {
        let t = figures::space(0.005);
        assert_eq!(t.rows.len(), 3);
        assert!(t.cell(0, 0) > 0.0);

        let t = figures::analysis(0.005);
        assert_eq!(t.rows.len(), 4);
        // C_inf prediction grows as the grid refines.
        let c_pred = t.col_index("C_inf pred");
        assert!(t.cell(3, c_pred) > t.cell(0, c_pred));
    }

    #[test]
    fn fig6_1_has_paper_axis() {
        // A short dim list: the full 1024² sweep is an `experiments` run
        // (YPK-CNN's ring search is pathological on near-empty fine grids).
        let t = figures::fig6_1_dims(0.005, &[32, 64]);
        let labels: Vec<&str> = t.rows.iter().map(|(x, _)| x.as_str()).collect();
        assert_eq!(labels, vec!["32^2", "64^2"]);
        assert_eq!(t.columns, vec!["CPM", "YPK-CNN", "SEA-CNN"]);
    }
}
