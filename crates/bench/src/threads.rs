//! Thread-scaling benchmark: cycle time of a [`cpm_core::CpmServer`] on
//! `T` threads against `T = 1`, at
//! `paper_default`'s shape — Table 6.1's operating point: 100K objects
//! and 5K k = 16 queries on the network-free uniform generator,
//! `f_obj` = 0.5, `f_qry` = 0.3, medium speed, a 128² grid, delta
//! capture on.
//!
//! One lane per thread count, all paired per cycle over the identical
//! stream; every cycle's delta batch must be equal across thread counts
//! (work moved between threads, not skipped or reordered). The record
//! carries the host's thread count — a scaling curve is meaningless
//! without it — and each row says whether its speedup is distinguishable
//! from 1 at all: no speedup can appear beyond the host's parallelism,
//! and a ratio inside the repetitions' noise is not one.

use cpm_core::{AnyQuerySpec, CpmServerBuilder, CycleDeltas, PointQuery, SpecEvent};
use cpm_gen::{SpeedClass, UniformWorkload, WorkloadConfig};
use cpm_grid::ObjectEvent;

use crate::paired::{timed, Lane, Paired, REPS};
use crate::record::BenchRecord;
use crate::workload::{self, bench_config};

bench_config! {
    /// Workload parameters for one thread-scaling run.
    Config {
        /// Object population `N`.
        n_objects: usize = 100_000,
        /// Installed queries `n`.
        n_queries: usize = 5_000,
        /// Neighbors per query.
        k: usize = 16,
        /// Object agility `f_obj`.
        f_obj: f64 = 0.5,
        /// Query agility `f_qry`.
        f_qry: f64 = 0.3,
        /// Measured processing cycles.
        cycles: usize = 10,
        /// Unmeasured warm-up cycles (cache/allocator warm-up).
        warmup_cycles: usize = 2,
        /// Grid granularity per axis.
        grid_dim: u32 = 128,
        /// Thread counts measured; the first entry is the speedup
        /// baseline (conventionally 1).
        thread_counts: Vec<usize> = vec![1, 2, 4],
        /// RNG seed.
        seed: u64 = 2005,
    }
}

impl Config {
    /// The reduced scale `bench_check` runs: half the population on a
    /// grid of the same occupancy.
    pub fn gate() -> Self {
        Self {
            n_objects: 50_000,
            n_queries: 2_500,
            grid_dim: 90,
            ..Self::default()
        }
    }
}

/// Run the sweep under the paired protocol.
///
/// # Panics
/// If any thread count reports a different delta batch than the first.
pub fn measure(cfg: &Config) -> BenchRecord {
    let mut workload = UniformWorkload::new(WorkloadConfig {
        n_objects: cfg.n_objects,
        n_queries: cfg.n_queries,
        k: cfg.k,
        object_speed: SpeedClass::Medium,
        query_speed: SpeedClass::Medium,
        f_obj: cfg.f_obj,
        f_qry: cfg.f_qry,
        seed: cfg.seed,
    });
    let objects: Vec<_> = workload.initial_objects().collect();
    let queries: Vec<_> = workload.initial_queries().collect();
    let cycles: Vec<(Vec<ObjectEvent>, Vec<SpecEvent<AnyQuerySpec>>)> = (0..cfg.warmup_cycles
        + cfg.cycles)
        .map(|_| {
            let tick = workload.tick();
            let query_events = tick.query_events.iter().map(|&ev| ev.into()).collect();
            (tick.object_events, query_events)
        })
        .collect();

    let names: Vec<String> = cfg.thread_counts.iter().map(usize::to_string).collect();
    let mut paired = Paired::default();
    for _ in 0..REPS {
        let mut servers: Vec<_> = cfg
            .thread_counts
            .iter()
            .map(|&threads| {
                let mut server = CpmServerBuilder::new(cfg.grid_dim)
                    .threads(workload::threads(threads))
                    .deltas(true)
                    .build();
                server
                    .populate(objects.iter().copied())
                    .expect("a valid initial population");
                for &(qid, pos, k) in &queries {
                    let _ = server
                        .install_spec(qid, PointQuery(pos), k)
                        .expect("fresh query id");
                }
                (server, CycleDeltas::default())
            })
            .collect();
        let cycles = &cycles;
        let mut steps: Vec<_> = servers
            .iter_mut()
            .map(|(server, out)| {
                move |i: usize| {
                    let (objects, queries) = &cycles[i];
                    let (spent, result) =
                        timed(|| server.process_cycle_with_deltas_into(objects, queries, out));
                    result.expect("generated batches are well-formed");
                    (spent, out.clone())
                }
            })
            .collect();
        let mut lanes: Vec<Lane<'_, _>> = names
            .iter()
            .zip(&mut steps)
            .map(|(name, step)| (name.as_str(), step as _))
            .collect();
        paired.repetition(cfg.warmup_cycles, cfg.cycles, true, &mut lanes);
    }

    let base = &names[0];
    let mut record = BenchRecord::new("threads", cfg.fields());
    for (&threads, lane) in cfg.thread_counts.iter().zip(&names) {
        let quiet = paired.quiet_ms(lane);
        let speedup = paired.ratio(base, lane);
        record.rows.push(crate::fields! {
            "threads" => threads,
            "ms_quiet" => quiet.median,
            "ms_quiet_mad" => quiet.mad,
            "max_ms" => paired.max_ms(lane),
            "speedup" => speedup.median,
            "speedup_mad" => speedup.mad,
            "speedup_inside_noise" => lane == base || speedup.inside_noise_of(1.0),
        });
        if threads > 1 {
            record.put(&format!("speedup_{threads}_threads"), speedup);
        }
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_is_consistent_across_thread_counts() {
        let cfg = Config {
            n_objects: 4_000,
            n_queries: 200,
            k: 4,
            cycles: 3,
            grid_dim: 32,
            ..Config::default()
        };
        // `measure` itself asserts per-cycle delta-batch equality.
        let record = measure(&cfg);
        assert_eq!(record.rows.len(), 3);
        assert!(record.median("speedup_2_threads") > 0.0);
        assert!(record.median("speedup_4_threads") > 0.0);
        assert_eq!(record.machine, crate::record::Machine::this_host());
    }
}
