//! Delta-emission benchmark: cycle cost of the delta-streaming result
//! path ([`cpm_core::CpmServer::process_cycle_with_deltas_into`])
//! versus handing callers full result lists, on the subscription
//! workload the `cpm-sub` front end serves (100K uniform objects, 1K
//! k-NN subscriptions, k = 16, 128² grid, 10% movers per cycle).
//!
//! Both lanes produce one owned, shippable message per changed
//! subscription per cycle — a `(QueryId, Vec<Neighbor>)` carrying the
//! complete result in **full-list** mode (delta capture off), a
//! `NeighborDelta` carrying only the churn in **delta** mode (capture
//! on, one recycled [`cpm_core::CycleDeltas`] batch, exactly how the
//! subscription hub drives the server). Materializing owned messages on
//! both sides is what makes the ratio meaningful: a subscription service
//! cannot ship a borrowed scratch buffer. Message batches are dropped
//! outside the timed section on both sides. The entry counts recorded
//! next to the timings show *why* the delta path exists: it ships far
//! fewer entries per cycle.

use cpm_core::{CpmServerBuilder, CycleDeltas, Neighbor, PointQuery};
use cpm_geom::QueryId;

use crate::paired::{timed, Paired, REPS};
use crate::record::BenchRecord;
use crate::workload::{bench_config, threads, uniform_stream};

bench_config! {
    /// Workload parameters for one delta-vs-full-list run.
    Config {
        /// Object population `N`.
        n_objects: usize = 100_000,
        /// Installed k-NN subscriptions.
        n_subscriptions: usize = 1_000,
        /// Neighbors per subscription.
        k: usize = 16,
        /// Fraction of objects moving per cycle.
        move_fraction: f64 = 0.10,
        /// Measured processing cycles.
        cycles: usize = 40,
        /// Unmeasured warm-up cycles.
        warmup_cycles: usize = 2,
        /// Grid granularity per axis.
        grid_dim: u32 = 128,
        /// Maintenance threads.
        threads: usize = 1,
        /// RNG seed.
        seed: u64 = 2005,
    }
}

impl Config {
    /// The reduced scale `bench_check` runs.
    pub fn gate() -> Self {
        Self {
            n_objects: 10_000,
            n_subscriptions: 200,
            cycles: 30,
            ..Self::default()
        }
    }
}

/// Run both modes over the identical stream under the paired protocol.
///
/// # Panics
/// If the modes ever report different changed-query counts for a cycle.
pub fn measure(cfg: &Config) -> BenchRecord {
    let w = uniform_stream(
        cfg.seed,
        cfg.n_objects,
        cfg.n_subscriptions,
        cfg.move_fraction,
        cfg.warmup_cycles + cfg.cycles,
    );
    let build = |deltas: bool| {
        let mut server = CpmServerBuilder::new(cfg.grid_dim)
            .threads(threads(cfg.threads))
            .deltas(deltas)
            .build();
        server.populate(w.objects.iter().copied());
        for &(qid, pos) in &w.queries {
            let _ = server
                .install_spec(qid, PointQuery(pos), cfg.k)
                .expect("fresh benchmark query id");
        }
        server
    };

    let mut paired = Paired::default();
    // Entries shipped and result changes over one repetition's measured
    // cycles (identical in every repetition: same stream).
    let (mut full_entries, mut delta_entries, mut changes) = (0, 0, 0);
    for _ in 0..REPS {
        let (mut full_server, mut delta_server) = (build(false), build(true));
        (full_entries, delta_entries, changes) = (0, 0, 0);
        let mut full = |i: usize| {
            let (spent, messages) = timed(|| {
                let changed = full_server
                    .process_cycle(&w.cycles[i], &[])
                    .expect("uniform batches are well-formed");
                let result = |&qid| (qid, full_server.result(qid).expect("installed").to_vec());
                changed
                    .iter()
                    .map(result)
                    .collect::<Vec<(QueryId, Vec<Neighbor>)>>()
            });
            if i >= cfg.warmup_cycles {
                full_entries += messages.iter().map(|(_, m)| m.len()).sum::<usize>();
                changes += messages.len();
            }
            (spent, messages.len())
        };
        let mut out = CycleDeltas::default();
        let mut delta = |i: usize| {
            let (spent, result) =
                timed(|| delta_server.process_cycle_with_deltas_into(&w.cycles[i], &[], &mut out));
            result.expect("uniform batches are well-formed");
            if i >= cfg.warmup_cycles {
                delta_entries += out.deltas.iter().map(|(_, d)| d.len()).sum::<usize>();
            }
            (spent, out.changed.len())
        };
        // `check`: both modes report the same number of changed queries.
        paired.repetition(
            cfg.warmup_cycles,
            cfg.cycles,
            true,
            &mut [("full-list", &mut full), ("delta", &mut delta)],
        );
    }

    let mut record = BenchRecord::new("deltas", cfg.fields());
    record.lane_rows(&paired, |lane| {
        let entries = if lane == "delta" {
            delta_entries
        } else {
            full_entries
        };
        crate::fields! { "entries_shipped" => entries, "result_changes" => changes }
    });
    record.put("delta_over_full", paired.ratio("delta", "full-list"));
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_measures_both_modes_consistently() {
        let cfg = Config {
            n_objects: 400,
            n_subscriptions: 20,
            k: 4,
            cycles: 3,
            warmup_cycles: 1,
            grid_dim: 32,
            ..Config::default()
        };
        // `measure` itself asserts equal per-cycle change counts.
        let record = measure(&cfg);
        // Both modes shipped something on a churning workload.
        assert!(record.lane_num("full-list", "entries_shipped") > 0.0);
        assert!(record.lane_num("delta", "entries_shipped") > 0.0);
        assert!(record.median("delta_over_full") > 0.0);
    }
}
