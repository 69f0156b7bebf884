//! Delta-emission benchmark: cycle cost of the delta-streaming result
//! path ([`cpm_core::ShardedCpmEngine::process_cycle_with_deltas`]) versus
//! handing callers full result lists, on the subscription workload the
//! `cpm-sub` front end serves (default: 100K uniform objects, 1K k-NN
//! subscriptions, k = 16, 128² grid, 10% movers per cycle).
//!
//! Both modes replay the identical pre-generated workload on
//! [`cpm_core::ShardedCpmEngine`]:
//!
//! * **full-list** — delta capture off; after each cycle every changed
//!   query's complete result is materialized as an owned message (what a
//!   non-delta subscription service ships every cycle);
//! * **delta** — delta capture on; the cycle refills a recycled
//!   [`cpm_core::CycleDeltas`] batch with the materialized
//!   [`cpm_core::NeighborDelta`]s (exactly how the `cpm-sub` hub consumes
//!   the engine).
//!
//! The `bench_deltas` binary runs [`DeltaBenchConfig::default`] and
//! records `BENCH_deltas.json`; the CI regression gate (`bench_check`)
//! re-runs [`DeltaBenchConfig::reduced`] and enforces the overhead bound
//! (see [`crate::check::check_deltas`]). The entry counts recorded next
//! to the timings show *why* the delta path exists: it ships orders of
//! magnitude fewer entries per cycle.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cpm_core::{Neighbor, PointQuery, ShardedCpmEngine};
use cpm_geom::{ObjectId, Point, QueryId};
use cpm_grid::ObjectEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Workload parameters for one delta-vs-full-list run.
#[derive(Debug, Clone)]
pub struct DeltaBenchConfig {
    /// Object population `N`.
    pub n_objects: usize,
    /// Installed k-NN subscriptions.
    pub n_subscriptions: usize,
    /// Neighbors per subscription.
    pub k: usize,
    /// Fraction of objects moving per cycle.
    pub move_fraction: f64,
    /// Measured processing cycles.
    pub cycles: usize,
    /// Unmeasured warmup cycles replayed first per mode.
    pub warmup_cycles: usize,
    /// Grid granularity per axis.
    pub grid_dim: u32,
    /// Query shards (1 = sequential maintenance).
    pub shards: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DeltaBenchConfig {
    /// The acceptance-scale configuration recorded in `BENCH_deltas.json`
    /// (100K objects / 1K subscriptions).
    fn default() -> Self {
        Self {
            n_objects: 100_000,
            n_subscriptions: 1_000,
            k: 16,
            move_fraction: 0.10,
            cycles: 40,
            warmup_cycles: 2,
            grid_dim: 128,
            shards: 1,
            seed: 2005,
        }
    }
}

impl DeltaBenchConfig {
    /// The reduced-scale configuration the CI bench gate runs on every PR.
    pub fn reduced() -> Self {
        Self {
            n_objects: 10_000,
            n_subscriptions: 200,
            cycles: 30,
            ..Self::default()
        }
    }
}

/// Timings and shipped-data volume for one result-delivery mode.
#[derive(Debug, Clone, Copy)]
pub struct DeltaMeasurement {
    /// `"full-list"` or `"delta"`.
    pub mode: &'static str,
    /// **Median** wall time per measured cycle (warmup excluded), in
    /// milliseconds — medians so one noisy-neighbor stall cannot flip the
    /// CI gate.
    pub ms_per_cycle: f64,
    /// Slowest single measured cycle, in milliseconds.
    pub max_cycle_ms: f64,
    /// Result entries shipped to subscribers over the measured cycles
    /// (full lists for `full-list`; delta adds + removes + reorders for
    /// `delta`).
    pub entries_shipped: usize,
    /// Total result changes reported over the measured cycles (identical
    /// across modes — asserted by [`run`], evidence of equal work).
    pub result_changes: usize,
}

/// Outcome of one delta-vs-full-list run.
#[derive(Debug, Clone)]
pub struct DeltaBenchRun {
    /// Per-mode measurements: `[full-list, delta]`.
    pub modes: [DeltaMeasurement; 2],
    /// Median per-cycle-pair `delta ms / full-list ms − 1`: the relative
    /// cycle-time cost of emitting deltas instead of copying full lists.
    /// The PR acceptance bar is `< 0.10` at the default scale.
    pub overhead_vs_full: f64,
}

struct Workload {
    objects: Vec<(ObjectId, Point)>,
    queries: Vec<(QueryId, Point)>,
    cycles: Vec<Vec<ObjectEvent>>,
}

fn build_workload(cfg: &DeltaBenchConfig) -> Workload {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut positions = crate::movers::uniform_points(&mut rng, cfg.n_objects);
    let objects: Vec<(ObjectId, Point)> = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| (ObjectId(i as u32), p))
        .collect();
    let queries: Vec<(QueryId, Point)> =
        crate::movers::uniform_points(&mut rng, cfg.n_subscriptions)
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

fn median_ms(mut times: Vec<Duration>) -> (f64, f64) {
    times.sort_unstable();
    let median = times
        .get(times.len() / 2)
        .copied()
        .unwrap_or(Duration::ZERO);
    let max = times.last().copied().unwrap_or(Duration::ZERO);
    (median.as_secs_f64() * 1e3, max.as_secs_f64() * 1e3)
}

/// Run both modes over the identical pre-generated workload and report
/// the overhead ratio.
///
/// The two engines are measured **interleaved, cycle by cycle** — each
/// event batch is processed by both engines back to back, in an order
/// that alternates every cycle — so every cycle pair shares allocator,
/// cache and CPU conditions and the second-slot cache tailwind cancels
/// out. Measuring the modes in separate sequential phases (the obvious
/// protocol) was observed to swing the ratio by ±15 percentage points on
/// a shared 1-CPU host, and coarser block-wise alternation re-admits
/// several points of drift; per-cycle pairing keeps run-to-run spread
/// the tightest of the three. The overhead is the **median of the
/// per-cycle-pair ratios**: both sides of a pair see the same transient
/// stalls, which then cancel in the ratio.
///
/// Panics if the two modes report different result-change counts (they
/// replayed the same stream, so differing counts would mean the
/// comparison is broken).
pub fn run(cfg: &DeltaBenchConfig) -> DeltaBenchRun {
    let w = build_workload(cfg);
    let warmup_n = cfg.warmup_cycles.min(w.cycles.len());

    let build_engine = |deltas: bool| {
        let mut engine: ShardedCpmEngine<PointQuery> =
            ShardedCpmEngine::new(cfg.grid_dim, cfg.shards);
        if deltas {
            engine.enable_deltas();
        }
        engine.populate(w.objects.iter().copied());
        for &(qid, pos) in &w.queries {
            engine
                .install(qid, PointQuery(pos), cfg.k)
                .expect("fresh benchmark query id");
        }
        engine
    };
    let mut full_engine = build_engine(false);
    let mut delta_engine = build_engine(true);

    let (warmup, measured) = w.cycles.split_at(warmup_n);
    for events in warmup {
        full_engine.process_cycle(events, &[]);
        delta_engine.process_cycle_with_deltas(events, &[]);
    }

    // Both modes produce one owned, shippable message per changed
    // subscription per cycle — a `(QueryId, Vec<Neighbor>)` carrying the
    // complete result in full-list mode, a `(QueryId, NeighborDelta)`
    // carrying only the churn in delta mode. Materializing owned messages
    // on both sides is what makes the ratio meaningful: a subscription
    // service cannot ship a borrowed scratch buffer. Message batches are
    // dropped *outside* the timed section on both sides.
    let mut full_entries = 0usize;
    let mut full_changes = 0usize;
    let mut full_times = Vec::with_capacity(measured.len());
    let mut delta_entries = 0usize;
    let mut delta_changes = 0usize;
    let mut delta_times = Vec::with_capacity(measured.len());
    let mut measure_full = |events: &[ObjectEvent], engine: &mut ShardedCpmEngine<PointQuery>| {
        let start = Instant::now();
        let changed = engine.process_cycle(events, &[]);
        let messages: Vec<(QueryId, Vec<Neighbor>)> = changed
            .iter()
            .map(|&qid| (qid, engine.result(qid).expect("installed").to_vec()))
            .collect();
        full_times.push(start.elapsed());
        // Accounting (not shipping) stays outside the timed section.
        full_entries += messages.iter().map(|(_, m)| m.len()).sum::<usize>();
        full_changes += changed.len();
        drop(messages);
    };
    // The delta consumer recycles one `CycleDeltas` batch across cycles —
    // exactly how the subscription hub drives the engine.
    let mut out = cpm_core::CycleDeltas::default();
    let mut measure_delta = |events: &[ObjectEvent], engine: &mut ShardedCpmEngine<PointQuery>| {
        let start = Instant::now();
        engine.process_cycle_with_deltas_into(events, &[], &mut out);
        delta_times.push(start.elapsed());
        // Accounting (not shipping) stays outside the timed section.
        delta_entries += out.deltas.iter().map(|(_, d)| d.len()).sum::<usize>();
        delta_changes += out.changed.len();
    };
    for (i, events) in measured.iter().enumerate() {
        if i % 2 == 0 {
            measure_full(events, &mut full_engine);
            measure_delta(events, &mut delta_engine);
        } else {
            measure_delta(events, &mut delta_engine);
            measure_full(events, &mut full_engine);
        }
    }
    // Overhead estimator: the median of *per-cycle-pair* ratios. Each
    // pair runs back to back under the same transient host conditions, so
    // a noisy-neighbor stall inflates both sides of its pair and cancels
    // in the ratio — where a ratio of independent per-mode medians soaks
    // up the full cross-cycle variance.
    let mut ratios: Vec<f64> = full_times
        .iter()
        .zip(&delta_times)
        .map(|(f, d)| d.as_secs_f64() / f.as_secs_f64())
        .collect();
    ratios.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let overhead_vs_full = ratios[ratios.len() / 2] - 1.0;

    let (full_ms, full_max) = median_ms(full_times);
    let full = DeltaMeasurement {
        mode: "full-list",
        ms_per_cycle: full_ms,
        max_cycle_ms: full_max,
        entries_shipped: full_entries,
        result_changes: full_changes,
    };
    let (delta_ms, delta_max) = median_ms(delta_times);
    let delta = DeltaMeasurement {
        mode: "delta",
        ms_per_cycle: delta_ms,
        max_cycle_ms: delta_max,
        entries_shipped: delta_entries,
        result_changes: delta_changes,
    };

    assert_eq!(
        full.result_changes, delta.result_changes,
        "modes did different work on the same stream"
    );
    DeltaBenchRun {
        modes: [full, delta],
        overhead_vs_full,
    }
}

/// Render the `BENCH_deltas.json` document for a run.
pub fn render_json(cfg: &DeltaBenchConfig, run: &DeltaBenchRun) -> String {
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"bench_deltas\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"n_objects\": {}, \"n_subscriptions\": {}, \"k\": {}, \
         \"move_fraction\": {}, \"cycles\": {}, \"warmup_cycles\": {}, \"grid_dim\": {}, \
         \"shards\": {}}},",
        cfg.n_objects,
        cfg.n_subscriptions,
        cfg.k,
        cfg.move_fraction,
        cfg.cycles,
        cfg.warmup_cycles,
        cfg.grid_dim,
        cfg.shards
    );
    let _ = writeln!(
        json,
        "  \"machine\": {{\"threads_available\": {}, \"os\": \"{}\", \"arch\": \"{}\"}},",
        crate::shards::available_threads(),
        std::env::consts::OS,
        std::env::consts::ARCH
    );
    json.push_str("  \"results\": [\n");
    for (i, m) in run.modes.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"mode\": \"{}\", \"ms_per_cycle\": {:.3}, \"max_cycle_ms\": {:.3}, \
             \"entries_shipped\": {}, \"result_changes\": {}}}",
            m.mode, m.ms_per_cycle, m.max_cycle_ms, m.entries_shipped, m.result_changes
        );
        json.push_str(if i + 1 == run.modes.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"overhead_vs_full\": {:.4}", run.overhead_vs_full);
    json.push_str("}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_measures_both_modes_consistently() {
        let cfg = DeltaBenchConfig {
            n_objects: 400,
            n_subscriptions: 20,
            k: 4,
            cycles: 3,
            warmup_cycles: 1,
            grid_dim: 32,
            ..DeltaBenchConfig::default()
        };
        let run = run(&cfg);
        assert_eq!(run.modes[0].mode, "full-list");
        assert_eq!(run.modes[1].mode, "delta");
        assert_eq!(run.modes[0].result_changes, run.modes[1].result_changes);
        // Both modes shipped something on a churning workload.
        assert!(run.modes[0].entries_shipped > 0);
        assert!(run.modes[1].entries_shipped > 0);
        let json = render_json(&cfg, &run);
        assert!(json.contains("\"mode\": \"delta\""));
        assert!(json.contains("overhead_vs_full"));
    }
}
