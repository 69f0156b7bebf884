//! The two cluster calls on the identical workload: the `serial` lane
//! drives [`ClusterCoordinator::process_cycle`], the `pipelined` lane
//! [`ClusterCoordinator::submit_cycle`] + `flush`; plus the routing slice
//! against the single-node cycle it amortizes.
//!
//! A `process_cycle` call is three strictly sequential slices — route,
//! wait for workers, merge — so its wall time is their sum. A
//! `submit_cycle` loop overlaps them across epochs: while the workers
//! compute epoch *e*, the coordinator routes *e+1*, so route time hides
//! behind worker compute and only the merge stays exposed. Overlapping
//! per-cycle times leave only whole-pass wall time meaningful, so one
//! paired cycle here is a **chunk** of [`Config::chunk`] stream cycles
//! processed by each of three lanes (single node and the two calls, on
//! two coordinators built from one [`ClusterConfig`]), charged per stream
//! cycle. Two ratios come out of a run:
//!
//! * **`route_over_single`** — the `process_cycle` routing slice
//!   (per-worker event translation + framing, the `route` field of
//!   [`ClusterCoordinator::last_cycle_timings`]) over the single-node
//!   cycle. Routing is the slice `submit_cycle` hides behind worker
//!   compute — a route that outweighs the cycle it routes cannot be
//!   hidden by any overlap — and the ratio is machine-independent.
//! * **`pipelined_over_serial`** — `process_cycle` over `submit_cycle`
//!   chunk time, i.e. the overlap's throughput speedup. The overlap only
//!   pays when the coordinator and workers run on different cores, so its
//!   bar binds on ≥ 4-thread hosts only.
//!
//! Every chunk doubles as a conformance check: the batches all three
//! lanes yield must be **bit-identical**, so a completed run proves the
//! call changes *when* batches surface, never their bytes.

use std::time::Duration;

use cpm_cluster::{ClusterConfig, ClusterCoordinator, CoordinatorMetrics};
use cpm_core::{CpmServerBuilder, CycleDeltas};

use crate::paired::{timed, Paired, Stat, REPS};
use crate::record::BenchRecord;
use crate::workload::{bench_config, cluster_stream, ClusterCycle};

bench_config! {
    /// Workload parameters for one `process_cycle`-vs-`submit_cycle` run.
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
            cycles: 48,
            chunk: 6,
            ..Self::default()
        }
    }
}

/// Per-cycle share of `total` over a chunk of `len` cycles.
fn per_cycle(total: Duration, len: usize) -> Duration {
    total / len.max(1) as u32
}

/// Mean per-cycle `[route, wait, merge]` ms of a coordinator's
/// accumulators.
fn stage_ms(m: &CoordinatorMetrics) -> [f64; 3] {
    [m.route, m.worker_wait, m.merge].map(|d| d.as_secs_f64() * 1e3 / m.cycles.max(1) as f64)
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
    let (mut serial_stages, mut pipelined_stages) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let mut single = CpmServerBuilder::new(cfg.grid_dim)
            .deltas(true)
            .try_build()
            .expect("single-node server");
        let cluster = ClusterConfig::new(cfg.grid_dim, cfg.workers).overlap(cfg.overlap);
        let (mut serial, serial_handles) =
            ClusterCoordinator::spawn_in_process(cluster).expect("spawn serial workers");
        let (mut pipelined, pipelined_handles) =
            ClusterCoordinator::spawn_in_process(cluster).expect("spawn pipelined workers");

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
        let mut route = Vec::new();
        let mut serial_lane = |i: usize| {
            if i == warmup {
                // The stage accumulators average measured cycles only.
                serial.take_metrics();
            }
            let (mut spent, mut routed, mut outputs) = (Duration::ZERO, Duration::ZERO, vec![]);
            for (objects, queries) in chunks[i] {
                let (t, merged) = timed(|| serial.process_cycle(objects, queries));
                spent += t;
                routed += serial.last_cycle_timings().route;
                outputs.push(merged.expect("serial cycle"));
            }
            if i >= warmup {
                route.push(per_cycle(routed, chunks[i].len()).as_secs_f64() * 1e3);
            }
            (per_cycle(spent, chunks[i].len()), outputs)
        };
        let mut pipelined_lane = |i: usize| {
            if i == warmup {
                pipelined.take_metrics();
            }
            let (spent, outputs) = timed(|| {
                let mut outputs = Vec::with_capacity(chunks[i].len());
                for (objects, queries) in chunks[i] {
                    let merged = pipelined.submit_cycle(objects, queries);
                    outputs.extend(merged.expect("pipelined cycle"));
                }
                outputs.extend(pipelined.flush().expect("pipelined flush"));
                outputs
            });
            (per_cycle(spent, chunks[i].len()), outputs)
        };
        // `check`: every chunk's batches are bit-identical across the
        // single node and the two calls.
        paired.repetition(
            warmup,
            chunks.len() - warmup,
            true,
            &mut [
                ("single-node", &mut single_lane),
                ("serial", &mut serial_lane),
                ("pipelined", &mut pipelined_lane),
            ],
        );
        paired.derive("serial-route", route);
        serial_stages.push(stage_ms(&serial.take_metrics()));
        pipelined_stages.push(stage_ms(&pipelined.take_metrics()));
        crate::cluster::stop(serial, serial_handles);
        crate::cluster::stop(pipelined, pipelined_handles);
    }

    let mut record = BenchRecord::new("pipeline", cfg.fields());
    record.lane_rows(&paired, |_| Vec::new());
    record.put("result_changes", Stat::exact(changes as f64));
    for (lane, stages) in [("serial", &serial_stages), ("pipelined", &pipelined_stages)] {
        for (s, stage) in ["route", "wait", "merge"].into_iter().enumerate() {
            let per_rep: Vec<f64> = stages.iter().map(|ms| ms[s]).collect();
            record.put(&format!("{lane}_{stage}_ms"), Stat::of(&per_rep));
        }
    }
    record.put(
        "route_over_single",
        paired.ratio("serial-route", "single-node"),
    );
    record.put("pipelined_over_serial", paired.ratio("serial", "pipelined"));
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_measures_all_three_lanes_consistently() {
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
        assert_eq!(record.rows.len(), 4);
        assert!(record.median("result_changes") > 0.0);
        assert!(record.median("route_over_single") > 0.0);
        assert!(record.median("pipelined_over_serial") > 0.0);
        assert!(record.median("serial_route_ms") > 0.0);
        assert!(record.median("serial_merge_ms") > 0.0);
    }
}
