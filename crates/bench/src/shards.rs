//! Shard-scaling benchmark: cycle throughput of the sharded parallel
//! engine ([`cpm_core::ShardedCpmEngine`]) versus the sequential engine
//! (1 shard), on the paper's default workload shape (100K uniform objects,
//! 5K queries, k = 16, 128² grid, 10% of objects moving per cycle).
//!
//! The `bench_shards` binary runs [`ShardBenchConfig::default`] and
//! records `BENCH_shards.json` (with host thread-count metadata — scaling
//! curves are meaningless without it). The CI regression gate
//! (`bench_check`) runs [`ShardBenchConfig::reduced`] and checks the
//! scaling *property*: ≥ 1.5× at 4 shards on ≥ 4-thread hosts (plus the
//! checked-in curve when the baseline host could scale), bounded
//! coordination overhead elsewhere — see [`crate::check`] for the exact
//! rules. Absolute ms/cycle is scale- and machine-dependent and is
//! recorded for trajectory, not gated.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cpm_core::{PointQuery, ShardedCpmEngine};
use cpm_geom::{ObjectId, Point, QueryId};
use cpm_grid::ObjectEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Workload parameters for one shard-scaling run.
#[derive(Debug, Clone)]
pub struct ShardBenchConfig {
    /// Object population `N`.
    pub n_objects: usize,
    /// Installed queries `n`.
    pub n_queries: usize,
    /// Neighbors per query.
    pub k: usize,
    /// Fraction of objects moving per cycle.
    pub move_fraction: f64,
    /// Measured processing cycles.
    pub cycles: usize,
    /// Unmeasured cycles replayed first per shard count (cache/allocator
    /// warmup — the CI gate turns single-run ratios into hard failures,
    /// so cold-start noise must not reach the measurement).
    pub warmup_cycles: usize,
    /// Grid granularity per axis.
    pub grid_dim: u32,
    /// Shard counts to measure; the first entry is the speedup baseline
    /// (conventionally 1 = sequential).
    pub shard_counts: Vec<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ShardBenchConfig {
    /// The paper-scale configuration recorded in `BENCH_shards.json`.
    fn default() -> Self {
        Self {
            n_objects: 100_000,
            n_queries: 5_000,
            k: 16,
            move_fraction: 0.10,
            cycles: 10,
            warmup_cycles: 2,
            grid_dim: 128,
            shard_counts: vec![1, 2, 4, 8],
            seed: 2005,
        }
    }
}

impl ShardBenchConfig {
    /// The reduced-scale configuration the CI bench gate runs on every PR.
    pub fn reduced() -> Self {
        Self {
            n_objects: 10_000,
            n_queries: 500,
            cycles: 5,
            shard_counts: vec![1, 4],
            ..Self::default()
        }
    }
}

/// Pre-generated input: initial state plus per-cycle move batches,
/// identical for every shard count.
struct Workload {
    objects: Vec<(ObjectId, Point)>,
    queries: Vec<(QueryId, Point)>,
    cycles: Vec<Vec<ObjectEvent>>,
}

fn build_workload(cfg: &ShardBenchConfig) -> Workload {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut positions = crate::movers::uniform_points(&mut rng, cfg.n_objects);
    let objects: Vec<(ObjectId, Point)> = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| (ObjectId(i as u32), p))
        .collect();
    let queries: Vec<(QueryId, Point)> = crate::movers::uniform_points(&mut rng, cfg.n_queries)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (QueryId(i as u32), p))
        .collect();
    let movers = ((cfg.n_objects as f64 * cfg.move_fraction) as usize).max(1);
    let total_cycles = cfg.warmup_cycles + cfg.cycles;
    let cycles = crate::movers::random_walk_cycles(&mut rng, &mut positions, total_cycles, movers)
        .into_iter()
        .map(|batch| {
            batch
                .into_iter()
                .map(|(i, to)| ObjectEvent::Move {
                    id: ObjectId(i as u32),
                    to,
                })
                .collect()
        })
        .collect();
    Workload {
        objects,
        queries,
        cycles,
    }
}

/// Timings for one shard count.
#[derive(Debug, Clone, Copy)]
pub struct ShardMeasurement {
    /// Query shards (1 = sequential, no worker threads).
    pub shards: usize,
    /// **Median** wall time per measured processing cycle (warmup cycles
    /// excluded), in milliseconds — the statistic the CI gate's speedup
    /// ratios are built from, chosen over the mean so one noisy-neighbor
    /// stall cannot flip the gate.
    pub ms_per_cycle: f64,
    /// Cycle throughput relative to the first measured shard count.
    pub speedup: f64,
    /// Slowest single cycle, in milliseconds.
    pub max_cycle_ms: f64,
    /// Total result changes reported (identical across shard counts —
    /// asserted by [`run`], recorded as evidence the runs did equal work).
    pub result_changes: usize,
}

/// Run the scaling sweep. Every shard count replays the identical
/// pre-generated workload: `warmup_cycles` unmeasured batches first, then
/// the measured cycles whose **median** wall time produces the speedup
/// ratios. The total result-change counts over the measured cycles are
/// asserted identical across shard counts (work moved between threads,
/// not skipped).
pub fn run(cfg: &ShardBenchConfig) -> Vec<ShardMeasurement> {
    let w = build_workload(cfg);
    let mut out: Vec<ShardMeasurement> = Vec::new();
    for &shards in &cfg.shard_counts {
        let mut monitor = ShardedCpmEngine::new(cfg.grid_dim, shards);
        monitor.populate(w.objects.iter().copied());
        for &(qid, pos) in &w.queries {
            monitor
                .install(qid, PointQuery(pos), cfg.k)
                .expect("fresh query id");
        }
        let (warmup, measured) = w.cycles.split_at(cfg.warmup_cycles.min(w.cycles.len()));
        for events in warmup {
            monitor.process_cycle(events, &[]);
        }
        let mut cycle_times: Vec<Duration> = Vec::with_capacity(measured.len());
        let mut result_changes = 0usize;
        for events in measured {
            let start = Instant::now();
            let changed = monitor.process_cycle(events, &[]);
            cycle_times.push(start.elapsed());
            result_changes += changed.len();
        }
        if let Some(first) = out.first() {
            assert_eq!(
                first.result_changes, result_changes,
                "shard count {shards} did different work than the baseline"
            );
        }
        cycle_times.sort_unstable();
        let median = cycle_times
            .get(cycle_times.len() / 2)
            .copied()
            .unwrap_or(Duration::ZERO);
        let max_cycle = cycle_times.last().copied().unwrap_or(Duration::ZERO);
        let ms_per_cycle = median.as_secs_f64() * 1e3;
        let speedup = out
            .first()
            .map_or(1.0, |first| first.ms_per_cycle / ms_per_cycle);
        out.push(ShardMeasurement {
            shards,
            ms_per_cycle,
            speedup,
            max_cycle_ms: max_cycle.as_secs_f64() * 1e3,
            result_changes,
        });
    }
    out
}

/// Host threads visible to the process (scaling curves are meaningless
/// without this recorded next to them).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Render the `BENCH_shards.json` document for a run.
pub fn render_json(cfg: &ShardBenchConfig, results: &[ShardMeasurement]) -> String {
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"bench_shards\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"n_objects\": {}, \"n_queries\": {}, \"k\": {}, \
         \"move_fraction\": {}, \"cycles\": {}, \"warmup_cycles\": {}, \"grid_dim\": {}}},",
        cfg.n_objects,
        cfg.n_queries,
        cfg.k,
        cfg.move_fraction,
        cfg.cycles,
        cfg.warmup_cycles,
        cfg.grid_dim
    );
    let _ = writeln!(
        json,
        "  \"machine\": {{\"threads_available\": {}, \"os\": \"{}\", \"arch\": \"{}\"}},",
        available_threads(),
        std::env::consts::OS,
        std::env::consts::ARCH
    );
    json.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"shards\": {}, \"ms_per_cycle\": {:.3}, \"speedup\": {:.2}, \
             \"max_cycle_ms\": {:.3}, \"result_changes\": {}}}",
            m.shards, m.ms_per_cycle, m.speedup, m.max_cycle_ms, m.result_changes
        );
        json.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_is_consistent_across_shard_counts() {
        let cfg = ShardBenchConfig {
            n_objects: 400,
            n_queries: 20,
            k: 4,
            cycles: 3,
            grid_dim: 32,
            shard_counts: vec![1, 2, 4],
            ..ShardBenchConfig::default()
        };
        let results = run(&cfg);
        assert_eq!(results.len(), 3);
        assert!((results[0].speedup - 1.0).abs() < 1e-12);
        // run() asserts equal result_changes internally; spot-check here too.
        assert_eq!(results[0].result_changes, results[2].result_changes);
        let json = render_json(&cfg, &results);
        assert!(json.contains("\"shards\": 4"));
        assert!(json.contains("threads_available"));
    }
}
