//! Cluster-merge benchmark: wall time per cycle of a coordinator-routed
//! multi-worker cluster versus a single-node [`cpm_core::CpmServer`] on
//! the identical workload.
//!
//! The distributed path pays for routing (per-worker event translation),
//! wire framing (every batch and delta crosses a `cpm-wire` frame with a
//! CRC), worker scheduling and the epoch-aligned merge — in exchange for
//! spreading query maintenance over worker threads. Two ratios come out
//! of a run:
//!
//! * **`merge_over_single`** — the coordinator-side merge cost (payload
//!   reassembly + delta decode + canonical interleave, the `merge` slice
//!   of [`ClusterCoordinator::last_cycle_timings`]) over the single-node
//!   cycle. The merge is the only part of the distributed cycle that is
//!   *serial on the coordinator no matter how many cores the workers
//!   get* — a merge that outweighs the cycle it merges caps scale-out at
//!   `W = 1` on any hardware — so this is the machine-independent
//!   statistic the gate bounds at `W = 4`.
//! * **`cluster_over_single`** — the full cluster cycle over the
//!   single-node cycle. Recorded as honest diagnostics next to the
//!   host's thread count, **not** gated: on an under-threaded host the
//!   workers time-slice the cores, so routing + wakeup costs show with
//!   no parallel payback, while a `≥ W`-core host can push this below 1.
//!
//! Every cycle doubles as a conformance check: the merged cluster deltas
//! must be **bit-identical** to the single-node batch.

use cpm_cluster::{ChannelTransport, ClusterConfig, ClusterCoordinator, WorkerHandle};
use cpm_core::{CpmServerBuilder, CycleDeltas};

use crate::paired::{timed, Paired, Stat, REPS};
use crate::record::BenchRecord;
use crate::workload::{bench_config, cluster_stream};

bench_config! {
    /// Workload parameters for one cluster-vs-single-node run.
    Config {
        /// Object population `N`.
        n_objects: usize = 10_000,
        /// Installed k-NN queries (anchors uniform over the workspace).
        n_queries: usize = 96,
        /// Neighbors per query.
        k: usize = 16,
        /// Fraction of objects moving per cycle.
        move_fraction: f64 = 0.10,
        /// Measured processing cycles.
        cycles: usize = 40,
        /// Unmeasured warm-up cycles (after the two bootstrap
        /// populate/install cycles, which are also unmeasured).
        warmup_cycles: usize = 2,
        /// Grid granularity per axis.
        grid_dim: u32 = 32,
        /// In-process cluster workers.
        workers: u32 = 4,
        /// Boundary-overlap margin in cells.
        overlap: u32 = 4,
        /// RNG seed.
        seed: u64 = 2005,
    }
}

impl Config {
    /// The reduced scale `bench_check` runs.
    pub fn gate() -> Self {
        Self {
            n_objects: 4_000,
            n_queries: 48,
            cycles: 24,
            ..Self::default()
        }
    }
}

/// Shut a coordinator's workers down and join them.
///
/// # Panics
/// If a worker already hung up or exits with an error.
pub(crate) fn stop(coord: ClusterCoordinator<ChannelTransport>, handles: Vec<WorkerHandle>) {
    coord.shutdown().expect("clean shutdown");
    for h in handles {
        h.join().expect("worker thread").expect("worker exit");
    }
}

/// Run both lanes over the identical stream under the paired protocol.
///
/// # Panics
/// On any cluster protocol error, or if the merged deltas ever diverge
/// from the single-node reference.
pub fn measure(cfg: &Config) -> BenchRecord {
    let warmup = 2 + cfg.warmup_cycles;
    let stream = cluster_stream(
        cfg.seed,
        cfg.n_objects,
        cfg.n_queries,
        cfg.k,
        cfg.move_fraction,
        cfg.warmup_cycles + cfg.cycles,
    );

    let mut paired = Paired::default();
    let mut changes = 0;
    for _ in 0..REPS {
        let mut single = CpmServerBuilder::new(cfg.grid_dim)
            .deltas(true)
            .try_build()
            .expect("single-node server");
        let cluster_cfg = ClusterConfig::new(cfg.grid_dim, cfg.workers).overlap(cfg.overlap);
        let (mut coord, handles) =
            ClusterCoordinator::spawn_in_process(cluster_cfg).expect("spawn workers");

        changes = 0;
        let mut single_out = CycleDeltas::default();
        let mut single_lane = |i: usize| {
            let (objects, queries) = &stream[i];
            let (spent, result) =
                timed(|| single.process_cycle_with_deltas_into(objects, queries, &mut single_out));
            result.expect("single-node cycle");
            changes += if i >= warmup {
                single_out.changed.len()
            } else {
                0
            };
            (spent, single_out.clone())
        };
        let (mut route, mut wait, mut merge) = (vec![], vec![], vec![]);
        let mut cluster_lane = |i: usize| {
            let (objects, queries) = &stream[i];
            let (spent, merged) = timed(|| coord.process_cycle(objects, queries));
            if i >= warmup {
                let stage = coord.last_cycle_timings();
                route.push(stage.route.as_secs_f64() * 1e3);
                wait.push(stage.worker_wait.as_secs_f64() * 1e3);
                merge.push(stage.merge.as_secs_f64() * 1e3);
            }
            (spent, merged.expect("cluster cycle"))
        };
        // `check`: every merged batch, bootstrap and warm-up included, is
        // bit-identical to the single-node one.
        paired.repetition(
            warmup,
            cfg.cycles,
            true,
            &mut [
                ("single-node", &mut single_lane),
                ("cluster", &mut cluster_lane),
            ],
        );
        paired.derive("route", route);
        paired.derive("worker-wait", wait);
        paired.derive("merge", merge);
        stop(coord, handles);
    }

    let mut record = BenchRecord::new("cluster", cfg.fields());
    record.lane_rows(&paired, |_| Vec::new());
    record.put("result_changes", Stat::exact(changes as f64));
    record.put("merge_over_single", paired.ratio("merge", "single-node"));
    record.put(
        "cluster_over_single",
        paired.ratio("cluster", "single-node"),
    );
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_measures_both_lanes_consistently() {
        let cfg = Config {
            n_objects: 400,
            n_queries: 12,
            k: 3,
            cycles: 3,
            warmup_cycles: 1,
            grid_dim: 16,
            workers: 2,
            ..Config::default()
        };
        // `measure` itself asserts per-cycle bit-identical merged deltas.
        let record = measure(&cfg);
        assert_eq!(record.rows.len(), 5);
        assert!(record.median("result_changes") > 0.0);
        // The merge is one slice of the cluster cycle, so its ratio is
        // positive and can't exceed the whole cycle's.
        assert!(record.median("merge_over_single") > 0.0);
        assert!(record.median("merge_over_single") <= record.median("cluster_over_single"));
        assert!(record.lane_num("route", "ms_quiet") > 0.0);
    }
}
