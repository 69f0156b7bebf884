//! The cluster benchmark: a coordinator-routed cluster of `W` workers,
//! through both of its calls, against a single-node
//! [`cpm_core::CpmServer`] on the identical stream.
//!
//! Three lanes: `single-node`; `process_cycle`, three strictly
//! sequential slices (route, wait for workers, merge); and
//! `submit_cycle` + `flush`, which overlaps them across epochs (while
//! the workers compute epoch *e*, the coordinator routes *e+1*). Since
//! overlapping per-cycle times leave only whole-pass wall time
//! meaningful, one paired position is a **chunk** of [`Config::chunk`]
//! stream cycles per lane, charged per stream cycle. The `route`,
//! `worker-wait` and `merge` lanes are the `process_cycle` lane's
//! [`ClusterCoordinator::last_cycle_timings`] over the same chunk. The
//! summary:
//!
//! * **`result_changes`** — result changes over the measured cycles, so
//!   every ratio below divides cycles that did work.
//! * **`merge_over_single`** — the merge slice over the single-node
//!   cycle. The merge is serial on the coordinator however many cores
//!   the workers get, so a merge that outweighs the cycle it merges caps
//!   scale-out on any hardware.
//! * **`route_over_single`** — the routing slice over the single-node
//!   cycle: what `submit_cycle` hides behind worker compute, which no
//!   overlap can hide once it outweighs the cycle it routes.
//! * **`cluster_over_single`** — the whole `process_cycle` cycle over the
//!   single-node cycle, the (N, W) crossover; diagnostics, since it
//!   depends on whether the host has a core per worker.
//! * **`submit_over_process`** — `submit_cycle`'s speedup over
//!   `process_cycle` (chunk time of the latter over the former's). The
//!   overlap only pays on separate cores.
//!
//! Every chunk doubles as a conformance check: the batches all three
//! lanes yield must be **bit-identical**, so a completed run proves the
//! cluster equals the single node and the call changes *when* batches
//! surface, never their bytes.

use std::time::Duration;

use cpm_cluster::{ChannelTransport, ClusterConfig, ClusterCoordinator, WorkerHandle};
use cpm_core::{CpmServerBuilder, CycleDeltas};

use crate::paired::{timed, Paired, Stat, REPS};
use crate::record::BenchRecord;
use crate::workload::{bench_config, cluster_stream, ClusterCycle};

bench_config! {
    /// Workload parameters for one cluster run.
    Config {
        /// Object population `N`.
        n_objects: usize = 10_000,
        /// Installed k-NN queries (anchors uniform over the workspace).
        n_queries: usize = 96,
        /// Neighbors per query.
        k: usize = 16,
        /// Fraction of objects moving per cycle.
        move_fraction: f64 = 0.10,
        /// Measured processing cycles (split into chunks of `chunk`).
        cycles: usize = 48,
        /// Stream cycles per paired chunk.
        chunk: usize = 8,
        /// Unmeasured warm-up cycles (one chunk, after the two bootstrap
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
            chunk: 6,
            ..Self::default()
        }
    }
}

/// Per-cycle share of `total` over a chunk of `len` cycles.
fn per_cycle(total: Duration, len: usize) -> Duration {
    total / len.max(1) as u32
}

/// Shut a coordinator's workers down and join them.
///
/// # Panics
/// If a worker already hung up or exits with an error.
fn stop(coord: ClusterCoordinator<ChannelTransport>, handles: Vec<WorkerHandle>) {
    coord.shutdown().expect("clean shutdown");
    for h in handles {
        h.join().expect("worker thread").expect("worker exit");
    }
}

/// Run the three lanes over the identical stream under the paired
/// protocol, chunk by chunk.
///
/// # Panics
/// On any cluster protocol error, or if any lane's deltas diverge.
pub fn measure(cfg: &Config) -> BenchRecord {
    let stream = cluster_stream(
        cfg.seed,
        cfg.n_objects,
        cfg.n_queries,
        cfg.k,
        cfg.move_fraction,
        cfg.warmup_cycles + cfg.cycles,
    );
    // Bootstrap cycles are chunks of their own (queries install only
    // once every object appeared), then one warm-up chunk.
    let (bootstrap, moves) = stream.split_at(2);
    let (warm, measured) = moves.split_at(cfg.warmup_cycles);
    let mut chunks: Vec<&[ClusterCycle]> = bootstrap.chunks(1).collect();
    chunks.extend((!warm.is_empty()).then_some(warm));
    let warmup = chunks.len();
    chunks.extend(measured.chunks(cfg.chunk.max(1)));

    let mut paired = Paired::default();
    let mut changes = 0;
    for _ in 0..REPS {
        let mut single = CpmServerBuilder::new(cfg.grid_dim)
            .deltas(true)
            .try_build()
            .expect("single-node server");
        let cluster = ClusterConfig::new(cfg.grid_dim, cfg.workers).overlap(cfg.overlap);
        let (mut process, process_handles) =
            ClusterCoordinator::spawn_in_process(cluster).expect("spawn process_cycle workers");
        let (mut submit, submit_handles) =
            ClusterCoordinator::spawn_in_process(cluster).expect("spawn submit_cycle workers");

        changes = 0;
        let mut single_lane = |i: usize| {
            let (mut spent, mut outputs) = (Duration::ZERO, Vec::new());
            let mut out = CycleDeltas::default();
            for (objects, queries) in chunks[i] {
                let (t, result) =
                    timed(|| single.process_cycle_with_deltas_into(objects, queries, &mut out));
                result.expect("single-node cycle");
                spent += t;
                changes += if i >= warmup { out.changed.len() } else { 0 };
                outputs.push(out.clone());
            }
            (per_cycle(spent, chunks[i].len()), outputs)
        };
        // Per measured chunk, the `[route, worker-wait, merge]` ms.
        let mut stages: [Vec<f64>; 3] = Default::default();
        let mut process_lane = |i: usize| {
            let (mut spent, mut staged, mut outputs) =
                (Duration::ZERO, [Duration::ZERO; 3], vec![]);
            for (objects, queries) in chunks[i] {
                let (t, merged) = timed(|| process.process_cycle(objects, queries));
                spent += t;
                let s = process.last_cycle_timings();
                for (sum, d) in staged.iter_mut().zip([s.route, s.worker_wait, s.merge]) {
                    *sum += d;
                }
                outputs.push(merged.expect("process_cycle"));
            }
            if i >= warmup {
                for (lane, d) in stages.iter_mut().zip(staged) {
                    lane.push(per_cycle(d, chunks[i].len()).as_secs_f64() * 1e3);
                }
            }
            (per_cycle(spent, chunks[i].len()), outputs)
        };
        let mut submit_lane = |i: usize| {
            let (spent, outputs) = timed(|| {
                let mut outputs = Vec::with_capacity(chunks[i].len());
                for (objects, queries) in chunks[i] {
                    let merged = submit.submit_cycle(objects, queries);
                    outputs.extend(merged.expect("submit_cycle"));
                }
                outputs.extend(submit.flush().expect("flush"));
                outputs
            });
            (per_cycle(spent, chunks[i].len()), outputs)
        };
        // `check`: every chunk's batches, bootstrap and warm-up included,
        // are bit-identical across the single node and the two calls.
        paired.repetition(
            warmup,
            chunks.len() - warmup,
            true,
            &mut [
                ("single-node", &mut single_lane),
                ("process_cycle", &mut process_lane),
                ("submit_cycle", &mut submit_lane),
            ],
        );
        for (name, samples) in ["route", "worker-wait", "merge"].into_iter().zip(stages) {
            paired.derive(name, samples);
        }
        stop(process, process_handles);
        stop(submit, submit_handles);
    }

    let mut record = BenchRecord::new("cluster", cfg.fields());
    record.lane_rows(&paired, |_| Vec::new());
    record.put("result_changes", Stat::exact(changes as f64));
    record.put("merge_over_single", paired.ratio("merge", "single-node"));
    record.put("route_over_single", paired.ratio("route", "single-node"));
    record.put(
        "cluster_over_single",
        paired.ratio("process_cycle", "single-node"),
    );
    record.put(
        "submit_over_process",
        paired.ratio("process_cycle", "submit_cycle"),
    );
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_measures_every_lane_and_metric_consistently() {
        let cfg = Config {
            n_objects: 400,
            n_queries: 12,
            k: 3,
            cycles: 6,
            chunk: 3,
            warmup_cycles: 1,
            grid_dim: 16,
            workers: 2,
            ..Config::default()
        };
        // `measure` itself asserts bit-identical batches across all
        // three lanes, chunk by chunk.
        let record = measure(&cfg);
        let lanes = [
            "single-node",
            "process_cycle",
            "submit_cycle",
            "route",
            "worker-wait",
            "merge",
        ];
        assert_eq!(record.rows.len(), lanes.len());
        for lane in lanes {
            assert!(record.lane_num(lane, "ms_quiet") > 0.0, "{lane}");
        }
        for metric in [
            "result_changes",
            "merge_over_single",
            "route_over_single",
            "cluster_over_single",
            "submit_over_process",
        ] {
            assert!(record.median(metric) > 0.0, "{metric}");
        }
        // The merge and the route are slices of the `process_cycle` call,
        // so neither ratio can exceed the whole call's.
        let whole = record.median("cluster_over_single");
        assert!(record.median("merge_over_single") <= whole);
        assert!(record.median("route_over_single") <= whole);
    }
}
