//! Spatial-index backend benchmark: uniform `CellIndex` vs adaptive
//! `QuadtreeIndex` behind the [`cpm_grid::SpatialIndex`] facade, on the
//! drifting-hotspot stream ([`crate::workload::DriftBench`], the re-grid
//! benchmark's stream, so the two records are comparable).
//!
//! Three lanes replay the identical stream:
//!
//! * **uniform-mono** — [`cpm_core::ShardedCpmEngine`] on the
//!   monomorphic [`cpm_grid::CellIndex`] grid at the resolution a
//!   capacity plan provisions for the *base* population. This is the
//!   pre-trait fast path and the baseline both ratios divide against.
//! * **uniform-dyn** — the same uniform backend at the same resolution,
//!   but routed through the runtime-selected [`cpm_grid::DynIndex`]
//!   dispatch. Its only difference from uniform-mono is the enum
//!   indirection, so the `dyn / mono` ratio *is* the cost of the
//!   pluggable-index layer, which must be provably (near-)free.
//! * **quadtree** — [`cpm_grid::IndexKind::quadtree`] at the (power-of-
//!   two) resolution provisioned for the *peak* population. A uniform
//!   grid at that δ would pay for `dim²` mostly-empty cells; the
//!   quadtree keeps unsplit regions as single buckets, so it can afford
//!   the fine conceptual δ the hotspot wants while the empty space
//!   costs nothing.
//!
//! Every cycle's changed-query list must be equal across all three
//! lanes: the backend is an implementation detail results cannot
//! observe.

use cpm_core::{PointQuery, ShardedCpmEngine};
use cpm_grid::{DynIndex, GridBuilder, IndexKind};

use crate::paired::{timed, Paired, Stat, REPS};
use crate::record::BenchRecord;

/// Workload parameters: the drift stream itself (`Config::gate()` is the
/// reduced scale `bench_check` runs).
pub type Config = crate::workload::DriftBench;

/// Run all three lanes over the identical drift stream under the paired
/// protocol.
///
/// # Panics
/// If the per-cycle changed-query lists ever differ between the lanes.
pub fn measure(cfg: &Config) -> BenchRecord {
    let drift = cfg.stream();
    let uniform_dim = cfg.provisioned_dim(cfg.n_base);
    let quadtree_dim = cfg.provisioned_dim(cfg.n_peak());
    let build_dyn = |kind: IndexKind, dim: u32| {
        let grid = GridBuilder::new(dim).index(kind).build();
        ShardedCpmEngine::<PointQuery, DynIndex>::with_grid(grid, cfg.shards)
    };

    let mut paired = Paired::default();
    let mut changes = 0;
    for _ in 0..REPS {
        let mut mono = ShardedCpmEngine::<PointQuery>::new(uniform_dim, cfg.shards);
        let mut dynamic = build_dyn(IndexKind::Uniform, uniform_dim);
        let mut quad = build_dyn(IndexKind::quadtree(), quadtree_dim);
        mono.populate(drift.objects.iter().copied());
        dynamic.populate(drift.objects.iter().copied());
        quad.populate(drift.objects.iter().copied());
        for &(qid, pos, k) in &drift.queries {
            mono.install(qid, PointQuery(pos), k).expect("fresh id");
            dynamic.install(qid, PointQuery(pos), k).expect("fresh id");
            quad.install(qid, PointQuery(pos), k).expect("fresh id");
        }
        changes = 0;
        let mut mono_lane = |i: usize| {
            let (tick, query_events) = &drift.ticks[i];
            let (spent, changed) = timed(|| mono.process_cycle(&tick.object_events, query_events));
            changes += if i >= cfg.warmup_cycles {
                changed.len()
            } else {
                0
            };
            (spent, changed)
        };
        let mut dyn_lane = |i: usize| {
            let (tick, query_events) = &drift.ticks[i];
            timed(|| dynamic.process_cycle(&tick.object_events, query_events))
        };
        let mut quad_lane = |i: usize| {
            let (tick, query_events) = &drift.ticks[i];
            timed(|| quad.process_cycle(&tick.object_events, query_events))
        };
        paired.repetition(
            cfg.warmup_cycles,
            cfg.cycles,
            true,
            &mut [
                ("uniform-mono", &mut mono_lane),
                ("uniform-dyn", &mut dyn_lane),
                ("quadtree", &mut quad_lane),
            ],
        );
    }

    let mut record = BenchRecord::new("index", cfg.fields());
    record.lane_rows(&paired, |lane| {
        let dim = if lane == "quadtree" {
            quadtree_dim
        } else {
            uniform_dim
        };
        crate::fields! { "dim" => dim, "result_changes" => changes }
    });
    // Below 2 the quadtree lane is no finer than the uniform lanes and
    // the run compares a backend with itself.
    let finer = f64::from(quadtree_dim) / f64::from(uniform_dim);
    record.put("quadtree_dim_over_uniform", Stat::exact(finer));
    record.put("quadtree_speedup", paired.ratio("uniform-mono", "quadtree"));
    record.put("dyn_overhead", paired.ratio("uniform-dyn", "uniform-mono"));
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_is_conformant_across_backends() {
        let cfg = Config {
            n_base: 300,
            peak_factor: 8.0,
            n_queries: 100,
            k: 4,
            cycles: 12,
            ..Config::default()
        };
        assert!(cfg.provisioned_dim(cfg.n_peak()).is_power_of_two());
        // `measure` itself asserts per-cycle changed-list equality.
        let record = measure(&cfg);
        assert_eq!(record.rows.len(), 3);
        assert!(record.median("quadtree_dim_over_uniform") >= 2.0);
        assert!(record.median("quadtree_speedup") > 0.0);
        assert!(record.median("dyn_overhead") > 0.0);
    }
}
