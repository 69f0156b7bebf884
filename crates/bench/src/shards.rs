//! Shard-scaling benchmark: cycle throughput of the sharded parallel
//! engine ([`cpm_core::ShardedCpmEngine`]) versus the sequential engine
//! (1 shard), on the paper's default workload shape (100K uniform
//! objects, 5K queries, k = 16, 128² grid, 10% of objects moving per
//! cycle).
//!
//! One lane per shard count, all paired per cycle over the identical
//! stream; every cycle's changed-query list must be equal across shard
//! counts (work moved between threads, not skipped). The record carries
//! the host's thread count — a scaling curve is meaningless without it —
//! and each row says whether its speedup is distinguishable from 1 at
//! all: no speedup can appear beyond the host's parallelism, and a ratio
//! inside the repetitions' noise is not one.

use cpm_core::{PointQuery, ShardedCpmEngine};

use crate::paired::{timed, Lane, Paired, REPS};
use crate::record::BenchRecord;
use crate::workload::{bench_config, uniform_stream};

bench_config! {
    /// Workload parameters for one shard-scaling run.
    Config {
        /// Object population `N`.
        n_objects: usize = 100_000,
        /// Installed queries `n`.
        n_queries: usize = 5_000,
        /// Neighbors per query.
        k: usize = 16,
        /// Fraction of objects moving per cycle.
        move_fraction: f64 = 0.10,
        /// Measured processing cycles.
        cycles: usize = 10,
        /// Unmeasured warm-up cycles (cache/allocator warm-up).
        warmup_cycles: usize = 2,
        /// Grid granularity per axis.
        grid_dim: u32 = 128,
        /// Shard counts measured; the first entry is the speedup
        /// baseline (conventionally 1 = sequential).
        shard_counts: Vec<usize> = vec![1, 2, 4, 8],
        /// RNG seed.
        seed: u64 = 2005,
    }
}

impl Config {
    /// The reduced scale `bench_check` runs.
    pub fn gate() -> Self {
        Self {
            n_objects: 10_000,
            n_queries: 500,
            cycles: 20,
            shard_counts: vec![1, 4],
            ..Self::default()
        }
    }
}

/// Run the sweep under the paired protocol.
///
/// # Panics
/// If any shard count reports a different changed list than the first.
pub fn measure(cfg: &Config) -> BenchRecord {
    let w = uniform_stream(
        cfg.seed,
        cfg.n_objects,
        cfg.n_queries,
        cfg.move_fraction,
        cfg.warmup_cycles + cfg.cycles,
    );
    let names: Vec<String> = cfg.shard_counts.iter().map(usize::to_string).collect();
    let mut paired = Paired::default();
    for _ in 0..REPS {
        let mut engines: Vec<_> = cfg
            .shard_counts
            .iter()
            .map(|&shards| {
                let mut engine = ShardedCpmEngine::new(cfg.grid_dim, shards);
                engine.populate(w.objects.iter().copied());
                for &(qid, pos) in &w.queries {
                    engine
                        .install(qid, PointQuery(pos), cfg.k)
                        .expect("fresh query id");
                }
                engine
            })
            .collect();
        let cycles = &w.cycles;
        let mut steps: Vec<_> = engines
            .iter_mut()
            .map(|engine| move |i: usize| timed(|| engine.process_cycle(&cycles[i], &[])))
            .collect();
        let mut lanes: Vec<Lane<'_, _>> = names
            .iter()
            .zip(&mut steps)
            .map(|(name, step)| (name.as_str(), step as _))
            .collect();
        paired.repetition(cfg.warmup_cycles, cfg.cycles, true, &mut lanes);
    }

    let base = &names[0];
    let mut record = BenchRecord::new("shards", cfg.fields());
    for (&shards, lane) in cfg.shard_counts.iter().zip(&names) {
        let quiet = paired.quiet_ms(lane);
        let speedup = paired.ratio(base, lane);
        record.rows.push(crate::fields! {
            "shards" => shards,
            "ms_quiet" => quiet.median,
            "ms_quiet_mad" => quiet.mad,
            "max_ms" => paired.max_ms(lane),
            "speedup" => speedup.median,
            "speedup_mad" => speedup.mad,
            "speedup_inside_noise" => lane == base || speedup.inside_noise_of(1.0),
        });
        if shards == 4 {
            record.put("speedup_4_shards", speedup);
        }
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_is_consistent_across_shard_counts() {
        let cfg = Config {
            n_objects: 400,
            n_queries: 20,
            k: 4,
            cycles: 3,
            grid_dim: 32,
            shard_counts: vec![1, 2, 4],
            ..Config::default()
        };
        // `measure` itself asserts per-cycle changed-list equality.
        let record = measure(&cfg);
        assert_eq!(record.rows.len(), 3);
        assert!(record.median("speedup_4_shards") > 0.0);
        assert_eq!(record.machine, crate::record::Machine::this_host());
    }
}
