//! Unified-server benchmark: cycle cost of one [`cpm_core::CpmServer`]
//! hosting a mixed continuous-query workload (k-NN + range + constrained)
//! versus three single-kind servers over three separate grids — an
//! in-run control: the shape a deployment that split its queries by kind
//! would take, kept only to be measured against. The record also
//! attributes the server's work to each query class
//! ([`cpm_grid::Metrics::by_kind`]).
//!
//! The workload is deliberately **update-ingest-bound** (100K uniform
//! objects, 10% movers per cycle, 60 queries per kind, k = 8 — the
//! pub/sub shape: a large moving population, a comparatively small
//! continuous-query set): the per-cycle grid ingest is the cost the
//! server collapses from three passes to one, while query maintenance is
//! identical work on both sides. Every cycle's result-change count must
//! be equal between the lanes.

use cpm_core::{CpmServer, CpmServerBuilder, PointQuery, RangeQuery};

use crate::paired::{timed, Paired, REPS};
use crate::record::BenchRecord;
use crate::workload::{bench_config, mixed_queries, threads, uniform_stream};

bench_config! {
    /// Workload parameters for one unified-vs-split run.
    Config {
        /// Object population `N`.
        n_objects: usize = 100_000,
        /// Installed k-NN queries.
        knn_queries: usize = 60,
        /// Installed range queries.
        range_queries: usize = 60,
        /// Installed constrained queries.
        constrained_queries: usize = 60,
        /// Neighbors per k-NN / constrained query.
        k: usize = 8,
        /// Fraction of objects moving per cycle.
        move_fraction: f64 = 0.10,
        /// Measured processing cycles.
        cycles: usize = 30,
        /// Unmeasured warm-up cycles.
        warmup_cycles: usize = 2,
        /// Grid granularity per axis.
        grid_dim: u32 = 128,
        /// Maintenance threads, applied to the unified server and to
        /// each single-kind server alike.
        threads: usize = 1,
        /// RNG seed.
        seed: u64 = 2005,
    }
}

impl Config {
    /// What `bench_check` runs: the acceptance scale itself (a cycle is
    /// a few ms), so the checked-in curve binds.
    pub fn gate() -> Self {
        Self::default()
    }
}

/// Run both deployment shapes over the identical stream under the
/// paired protocol.
///
/// # Panics
/// If the shapes ever report different result-change counts for a cycle.
pub fn measure(cfg: &Config) -> BenchRecord {
    let mut w = uniform_stream(
        cfg.seed,
        cfg.n_objects,
        cfg.knn_queries,
        cfg.move_fraction,
        cfg.warmup_cycles + cfg.cycles,
    );
    let (ranges, constrained) =
        mixed_queries(&mut w.rng, cfg.range_queries, cfg.constrained_queries);

    let mut paired = Paired::default();
    let mut changes = 0;
    let mut work = cpm_grid::Metrics::default();
    let build = || {
        let mut server = CpmServerBuilder::new(cfg.grid_dim)
            .threads(threads(cfg.threads))
            .build();
        server.populate(w.objects.iter().copied());
        server
    };
    for _ in 0..REPS {
        let [mut server, mut knn_server, mut range_server, mut constrained_server]: [CpmServer; 4] =
            std::array::from_fn(|_| build());
        for &(qid, pos) in &w.queries {
            for s in [&mut server, &mut knn_server] {
                let _ = s
                    .install_spec(qid, PointQuery(pos), cfg.k)
                    .expect("fresh id");
            }
        }
        for &(qid, q) in &ranges {
            for s in [&mut server, &mut range_server] {
                let _ = s
                    .install_spec(qid, q, RangeQuery::UNBOUNDED_K)
                    .expect("fresh id");
            }
        }
        for (qid, q) in &constrained {
            for s in [&mut server, &mut constrained_server] {
                let _ = s.install_spec(*qid, q.clone(), cfg.k).expect("fresh id");
            }
        }
        server.take_metrics();

        changes = 0;
        let mut unified = |i: usize| {
            let run = || {
                server
                    .process_cycle(&w.cycles[i], &[])
                    .expect("no query events")
            };
            let (spent, changed) = timed(run);
            changes += if i >= cfg.warmup_cycles {
                changed.len()
            } else {
                0
            };
            (spent, changed.len())
        };
        let mut split = |i: usize| {
            let events = &w.cycles[i];
            timed(|| {
                [&mut knn_server, &mut range_server, &mut constrained_server]
                    .into_iter()
                    .map(|s| s.process_cycle(events, &[]).expect("no query events").len())
                    .sum::<usize>()
            })
        };
        // `check`: both shapes report the same number of result changes.
        paired.repetition(
            cfg.warmup_cycles,
            cfg.cycles,
            true,
            &mut [("unified", &mut unified), ("split", &mut split)],
        );
        work = server.take_metrics();
    }

    let mut record = BenchRecord::new("server", cfg.fields());
    record.lane_rows(&paired, |_| crate::fields! { "result_changes" => changes });
    // What each query class cost the server, per cycle (warm-up included).
    let per_cycle = |count: u64| count as f64 / (cfg.warmup_cycles + cfg.cycles) as f64;
    use cpm_grid::QueryKind::{Constrained, Knn, Range};
    for kind in [Knn, Range, Constrained] {
        let k = work.for_kind(kind);
        record.rows.push(crate::fields! {
            "kind" => kind.label(),
            "cells_per_cycle" => per_cycle(k.cell_accesses),
            "objects_per_cycle" => per_cycle(k.objects_processed),
            "computations_per_cycle" => per_cycle(k.computations + k.recomputations),
            "merges_per_cycle" => per_cycle(k.merge_resolutions),
        });
    }
    record.put("unified_speedup", paired.ratio("split", "unified"));
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_measures_both_modes_consistently() {
        let cfg = Config {
            n_objects: 400,
            knn_queries: 6,
            range_queries: 6,
            constrained_queries: 6,
            k: 3,
            cycles: 3,
            warmup_cycles: 1,
            grid_dim: 16,
            ..Config::default()
        };
        // `measure` itself asserts equal per-cycle change counts.
        let record = measure(&cfg);
        assert_eq!(record.rows.len(), 2 + 3);
        assert!(record.lane_num("unified", "ms_quiet") > 0.0);
        assert!(record.median("unified_speedup") > 0.0);
    }
}
