//! Benchmark harness reproducing every table and figure of the CPM paper
//! (SIGMOD 2005), plus the extension studies of this suite.
//!
//! * [`figures`] — one function per paper figure (6.1–6.6), the space
//!   footnote, the Section 4.1 analysis validation and the Section 5
//!   extensions. Each returns a printable [`Table`].
//! * [`table`] — the plain-text table type experiment output uses.
//! * [`grid_storage`] / [`shards`] / [`deltas`] / [`server`] / [`regrid`]
//!   / [`recovery`] / [`index`] / [`kernels`] / [`cluster`] /
//!   [`pipeline`] — the micro-benchmarks behind the `BENCH_grid.json` /
//!   `BENCH_shards.json` / `BENCH_deltas.json` / `BENCH_server.json` /
//!   `BENCH_regrid.json` / `BENCH_recovery.json` / `BENCH_index.json` /
//!   `BENCH_kernels.json` / `BENCH_cluster.json` / `BENCH_pipeline.json`
//!   baselines.
//! * [`check`] — the benchmark-regression gate (`bench_check`) CI runs on
//!   every PR against those baselines.
//!
//! Two front ends consume this library: the `experiments` binary
//! (`cargo run --release -p cpm-bench --bin experiments -- all`) prints
//! the paper-style series; the Criterion benches (`cargo bench`) measure
//! the same configurations at micro scale with statistical rigor.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod cluster;
pub mod deltas;
pub mod figures;
pub mod grid_storage;
pub mod index;
pub mod kernels;
mod movers;
pub mod pipeline;
pub mod recovery;
pub mod regrid;
pub mod server;
pub mod shards;
pub mod table;

pub use table::Table;

/// The default scale for interactive runs: keeps every sweep's shape while
/// finishing in minutes on a laptop. `--paper` (1.0) reproduces Table 6.1.
pub const DEFAULT_SCALE: f64 = 0.1;

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-test the cheap figures end to end at a very small scale; the
    /// expensive ones run in the experiments binary / benches.
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
