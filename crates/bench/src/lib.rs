//! Benchmark harness of the CPM reproduction (SIGMOD 2005): every
//! measurement in the workspace is a [`BenchRecord`] judged by
//! [`gates::GATES`].
//!
//! * [`BENCHES`] — the eight benchmarks behind the `BENCH_*.json` files
//!   at the repository root. Each module is a `Config`, its lanes with
//!   their in-run conformance assertions, and one
//!   `measure(&Config) -> BenchRecord`; how a benchmark is executed,
//!   serialized and judged lives once, in [`paired`], [`record`] and
//!   [`gates`].
//! * [`figures`] — the eighth: the paper's Section 6 figures, the space
//!   footnote, the Section 4.1 model validation and the Section 5
//!   studies as the rows of one table, [`figures::SWEEPS`].
//!
//! Three binaries consume this library: `bench_record <name>…|all`
//! re-records the `BENCH_*.json` files at acceptance scale,
//! `bench_check` is the regression gate CI runs on every PR, and
//! `experiments <name>…` prints a fresh record of any benchmark or
//! figure without writing it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod deltas;
pub mod figures;
pub mod gates;
pub mod kernels;
pub mod monitor;
pub mod paired;
pub mod record;
pub mod recovery;
pub mod regrid;
pub mod server;
pub mod threads;
pub mod workload;

pub use record::BenchRecord;

/// The default scale of `experiments`: minutes on a laptop. `--paper`
/// (1.0) is Table 6.1 itself.
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
pub const BENCHES: [Bench; 8] = [
    bench!("threads", threads),
    bench!("deltas", deltas),
    bench!("server", server),
    bench!("regrid", regrid),
    bench!("recovery", recovery),
    bench!("kernels", kernels),
    bench!("cluster", cluster),
    // ≈ 1 minute for the gate, 13 for the record on the recording host
    // (0.4 took 53); `experiments --paper figures` is Table 6.1 itself,
    // in hours.
    Bench {
        name: "figures",
        gate: || figures::measure(0.05, None),
        record: || figures::measure(0.25, None),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use figures::{num, points_of, SWEEPS};

    /// Every sweep at a tiny scale: one point per axis value, one row
    /// per contender, and the record survives its own format.
    #[test]
    fn every_sweep_yields_one_well_formed_row_per_point_and_lane() {
        let record = figures::measure(0.003, None);
        assert_eq!(BenchRecord::parse(&record.render()), Ok(record.clone()));
        for sweep in SWEEPS {
            let axis = (sweep.points)(0.003);
            let points: Vec<_> = points_of(&record, |f| f == sweep.name).collect();
            assert_eq!(points.len(), axis.len(), "{}", sweep.name);
            for (rows, (x, params)) in points.iter().zip(&axis) {
                assert_eq!(rows.len(), sweep.contenders.len(), "{} {x}", sweep.name);
                for (row, c) in rows.iter().zip(sweep.contenders) {
                    assert_eq!(row[1], ("x".to_string(), x.as_str().into()));
                    assert_eq!(row[2], ("lane".to_string(), c.name().into()));
                    assert_eq!(num(row, "dim"), Some(f64::from(params.grid_dim)));
                    assert!(num(row, "ms_quiet").is_some_and(|ms| ms > 0.0));
                }
            }
        }
    }

    /// At the default `--scale` the first (smallest-N) points of Figures
    /// 6.2a and 6.6a keep Table 6.1's occupancy regime: CPM scans no
    /// more cells than either baseline (it scanned several times more
    /// when scaled runs kept the 128² grid).
    #[test]
    fn scaled_sweeps_stay_in_the_papers_regime() {
        for figure in ["fig6_2a", "fig6_6a"] {
            let sweep = SWEEPS.iter().find(|s| s.name == figure).expect("listed");
            let (_, mut params) = (sweep.points)(DEFAULT_SCALE).swap_remove(0);
            params.timestamps = 10;
            let input = cpm_sim::SimulationInput::generate(&params);
            let cells = |algo| cpm_sim::run(algo, &input).metrics.cell_accesses;
            let cpm = cells(cpm_sim::AlgoKind::Cpm);
            assert!(cpm <= cells(cpm_sim::AlgoKind::Ypk), "{figure}");
            assert!(cpm <= cells(cpm_sim::AlgoKind::Sea), "{figure}");
        }
    }
}
