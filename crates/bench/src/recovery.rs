//! Crash-recovery benchmark: full [`cpm_core::DurableCpmServer::recover`]
//! wall time versus the steady-state cycle cost it interrupts.
//!
//! The workload mirrors [`crate::server`]'s pub/sub shape (100K uniform
//! objects, 10% movers per cycle, a mixed k-NN + range + constrained +
//! RNN query set). Every repetition journals its cycles under the
//! default checkpoint policy, so at the crash point the artifacts have
//! the shape a real deployment recovers from: a recent checkpoint plus a
//! bounded journal tail. Recovery then does the full work — decode +
//! cross-validate the snapshot, rebuild the grid and every influence
//! table from scratch, replay the tail.
//!
//! Recovery is a restart pause, so the gated number is relative: the
//! recovery time in units of the median cycle of the same repetition. A
//! monitoring server that takes longer than about one checkpoint
//! interval of cycles to come back has effectively lost the stream it
//! was monitoring.
//!
//! Each repetition doubles as an at-scale conformance check: the
//! recovered server must agree with the crashed one on epoch, every
//! tracked result and every RNN set.

use cpm_core::{CpmServerBuilder, DurableCpmServer, PointQuery, RangeQuery};
use cpm_geom::{Point, QueryId};
use rand::Rng;

use crate::paired::{median, timed, Paired, Stat, REPS};
use crate::record::BenchRecord;
use crate::workload::{bench_config, mixed_queries, threads, uniform_stream};

bench_config! {
    /// Workload parameters for one journal-then-recover run.
    Config {
        /// Object population `N`.
        n_objects: usize = 100_000,
        /// Installed k-NN queries.
        knn_queries: usize = 60,
        /// Installed range queries.
        range_queries: usize = 60,
        /// Installed constrained queries.
        constrained_queries: usize = 60,
        /// Installed reverse-NN registrations.
        rnn_queries: usize = 4,
        /// Neighbors per k-NN / constrained query.
        k: usize = 8,
        /// Fraction of objects moving per cycle.
        move_fraction: f64 = 0.10,
        /// Timed processing cycles before the simulated crash.
        cycles: usize = 30,
        /// Checkpoint interval in cycles; the journal tail recovery
        /// replays is `cycles` modulo this. Must not divide `cycles`
        /// evenly (an empty tail would measure snapshot restore only).
        checkpoint_every: u64 = 8,
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
            knn_queries: 20,
            range_queries: 20,
            constrained_queries: 20,
            cycles: 20,
            ..Self::default()
        }
    }
}

/// Per repetition: journal `cfg.cycles` cycles against a post-install
/// checkpoint, then time one full recovery from the captured artifacts.
///
/// # Panics
/// If a recovered server disagrees with the crashed one.
pub fn measure(cfg: &Config) -> BenchRecord {
    let mut w = uniform_stream(
        cfg.seed,
        cfg.n_objects,
        cfg.knn_queries,
        cfg.move_fraction,
        cfg.cycles,
    );
    let (ranges, constrained) =
        mixed_queries(&mut w.rng, cfg.range_queries, cfg.constrained_queries);
    let rnn: Vec<(QueryId, Point)> = (0..cfg.rnn_queries)
        .map(|i| {
            let pos = Point::new(w.rng.gen(), w.rng.gen());
            (QueryId(3_000_000 + i as u32), pos)
        })
        .collect();

    let mut paired = Paired::default();
    let (mut recovery_ms, mut pauses) = (Vec::new(), Vec::new());
    let (mut replayed, mut snapshot_bytes, mut journal_bytes, mut changes) = (0, 0, 0, 0);
    for _ in 0..REPS {
        let mut server = CpmServerBuilder::new(cfg.grid_dim)
            .threads(threads(cfg.threads))
            .build();
        server
            .populate(w.objects.iter().copied())
            .expect("a valid initial population");
        let mut durable = DurableCpmServer::new(server, cfg.checkpoint_every);
        let mut query_ids = Vec::new();
        for &(id, pos) in &w.queries {
            let _ = durable
                .install_spec(id, PointQuery(pos), cfg.k)
                .expect("fresh id");
            query_ids.push(id);
        }
        for &(id, q) in &ranges {
            let _ = durable
                .install_spec(id, q, RangeQuery::UNBOUNDED_K)
                .expect("fresh id");
            query_ids.push(id);
        }
        for (id, q) in &constrained {
            let _ = durable
                .install_spec(*id, q.clone(), cfg.k)
                .expect("fresh id");
            query_ids.push(*id);
        }
        for &(id, pos) in &rnn {
            let _ = durable.install_rnn(id, pos).expect("fresh id");
        }
        // Fold the installs into the baseline snapshot: from here the
        // journal holds pure cycle traffic, and the auto-checkpoint
        // policy keeps the tail bounded the way a long-running
        // deployment would.
        durable.checkpoint();

        changes = 0;
        let mut cycle = |i: usize| {
            let run = || {
                durable
                    .process_cycle(&w.cycles[i], &[])
                    .expect("valid batch")
            };
            let (spent, changed) = timed(run);
            changes += changed.len();
            (spent, ())
        };
        paired.repetition(0, cfg.cycles, false, &mut [("cycle", &mut cycle)]);

        let (snapshot, journal) = (durable.snapshot_bytes(), durable.journal_bytes());
        let (spent, (recovered, report)) = timed(|| {
            DurableCpmServer::recover(snapshot, journal, cfg.checkpoint_every)
                .expect("intact artifacts")
        });
        assert!(report.tail_error.is_none(), "intact journal has no tail");
        assert_eq!(recovered.server().epoch(), durable.server().epoch());
        for &id in &query_ids {
            assert_eq!(
                recovered.server().result(id),
                durable.server().result(id),
                "recovered result diverged for {id:?}"
            );
        }
        for &(id, _) in &rnn {
            assert_eq!(
                recovered.server().rnn_result(id),
                durable.server().rnn_result(id)
            );
        }
        (replayed, snapshot_bytes, journal_bytes) =
            (report.replayed, snapshot.len(), journal.len());
        recovery_ms.push(spent.as_secs_f64() * 1e3);
        pauses.push(spent.as_secs_f64() * 1e3 / median(paired.last("cycle")));
    }

    let mut record = BenchRecord::new("recovery", cfg.fields());
    record.lane_rows(&paired, |_| crate::fields! { "result_changes" => changes });
    record.rows.push(crate::fields! {
        "lane" => "recovery",
        "snapshot_bytes" => snapshot_bytes,
        "journal_bytes" => journal_bytes,
    });
    record.put("replayed", Stat::exact(replayed as f64));
    record.put("recovery_ms", Stat::of(&recovery_ms));
    record.put("recovery_over_cycle", Stat::of(&pauses));
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_recovers_and_reports() {
        let cfg = Config {
            n_objects: 500,
            knn_queries: 4,
            range_queries: 4,
            constrained_queries: 4,
            rnn_queries: 2,
            k: 3,
            cycles: 5,
            grid_dim: 16,
            ..Config::default()
        };
        // `measure` itself asserts epoch/result/RNN conformance after
        // every recovery.
        let record = measure(&cfg);
        // cycles < checkpoint_every: the whole run is the journal tail.
        assert_eq!(record.median("replayed"), cfg.cycles as f64);
        assert!(record.median("recovery_ms") > 0.0);
        assert!(record.median("recovery_over_cycle") > 0.0);
        assert!(record.render().contains("\"snapshot_bytes\""));
    }
}
