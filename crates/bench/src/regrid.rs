//! Re-grid benchmark: fixed-δ vs cost-model-driven adaptive resolution on
//! the drifting-hotspot stream ([`crate::workload::DriftBench`]).
//!
//! Both lanes replay the identical stream on a [`cpm_core::CpmServer`]
//! over point queries:
//!
//! * **fixed** — the grid resolution a capacity plan would have
//!   provisioned for the *base* population, frozen for the whole run;
//! * **adaptive** — the same starting resolution under
//!   [`cpm_core::RegridPolicy::Auto`], free to re-grid at cycle
//!   boundaries.
//!
//! The headline speedup is the median of per-cycle `fixed / adaptive`
//! ratios — robust to the adaptive lane's re-grid spikes (a handful of
//! outlier pairs cannot move a median). Migration cost is reported
//! separately: the slowest re-grid cycle in units of the adaptive lane's
//! median cycle, which must stay amortizable over the cooldown window (a
//! re-grid migrates every object and recomputes every query, so it is
//! never free — but a pause an order of magnitude above the 8–16 cycle
//! cooldown stops being "online").
//!
//! Every cycle's changed-query list must be **equal between the lanes**:
//! k-NN results are δ-independent, so the adaptive lane must do less
//! work while reporting exactly the same answers.

use std::num::NonZeroU64;

use cpm_core::{CpmServerBuilder, PointQuery, RegridPolicy};

use crate::paired::{median, timed, Paired, Stat, REPS};
use crate::record::BenchRecord;
use crate::workload::{threads, DriftBench};

/// Workload parameters for one fixed-vs-adaptive run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The drift stream.
    pub stream: DriftBench,
    /// How often the adaptive lane evaluates the model, in cycles (its
    /// re-grids are at least twice as many cycles apart).
    pub check_every: NonZeroU64,
}

impl Default for Config {
    /// The acceptance scale: 10K → 100K objects, 500 tracking queries.
    fn default() -> Self {
        Self {
            stream: DriftBench::default(),
            check_every: NonZeroU64::new(4).expect("non-zero"),
        }
    }
}

impl Config {
    /// The reduced scale `bench_check` runs.
    pub fn gate() -> Self {
        Self {
            stream: DriftBench::gate(),
            ..Self::default()
        }
    }
}

/// Run both lanes over the identical drift stream under the paired
/// protocol.
///
/// # Panics
/// If the per-cycle changed-query lists ever differ between the lanes:
/// any divergence means the re-grid machinery broke conformance.
pub fn measure(cfg: &Config) -> BenchRecord {
    let s = &cfg.stream;
    let drift = s.stream();
    let fixed_dim = s.provisioned_dim(s.n_base);
    let build = |policy: RegridPolicy| {
        let mut m = CpmServerBuilder::new(fixed_dim)
            .threads(threads(s.threads))
            .regrid(policy)
            .build();
        m.populate(drift.objects.iter().copied());
        for &(qid, pos, k) in &drift.queries {
            let _ = m
                .install_spec(qid, PointQuery(pos), k)
                .expect("fresh query id");
        }
        m
    };
    let auto = RegridPolicy::Auto {
        check_every: cfg.check_every,
    };

    let mut paired = Paired::default();
    let (mut regrids, mut migrated, mut pauses, mut slowest) = (vec![], vec![], vec![], vec![]);
    let (mut final_dim, mut changes) = (fixed_dim, 0);
    for _ in 0..REPS {
        let (mut fixed, mut adaptive) = (build(RegridPolicy::Manual), build(auto));
        let mut regrids_seen = 0;
        let mut slowest_regrid_ms = 0.0f64;
        changes = 0;
        let mut fixed_lane = |i: usize| {
            let (tick, query_events) = &drift.ticks[i];
            let (spent, changed) = timed(|| fixed.process_cycle(&tick.object_events, query_events));
            (spent, changed.expect("drift batches are well-formed"))
        };
        let mut adaptive_lane = |i: usize| {
            if i == s.warmup_cycles {
                // Warm-up work (including any early re-grid) is not part
                // of the measured migration accounting.
                adaptive.take_metrics();
                regrids_seen = 0;
            }
            let (tick, query_events) = &drift.ticks[i];
            let (spent, changed) =
                timed(|| adaptive.process_cycle(&tick.object_events, query_events));
            let changed = changed.expect("drift batches are well-formed");
            // Metrics snapshots are cheap counter sums; reading them
            // outside the timed section identifies re-grid cycles.
            let regrids_now = adaptive.metrics().regrids;
            if i >= s.warmup_cycles {
                changes += changed.len();
                if regrids_now > regrids_seen {
                    slowest_regrid_ms = slowest_regrid_ms.max(spent.as_secs_f64() * 1e3);
                }
            }
            regrids_seen = regrids_now;
            (spent, changed)
        };
        paired.repetition(
            s.warmup_cycles,
            s.cycles,
            true,
            &mut [("fixed", &mut fixed_lane), ("adaptive", &mut adaptive_lane)],
        );
        let metrics = adaptive.metrics();
        regrids.push(metrics.regrids as f64);
        migrated.push(metrics.regrid_objects_migrated as f64);
        slowest.push(slowest_regrid_ms);
        pauses.push(slowest_regrid_ms / median(paired.last("adaptive")));
        final_dim = adaptive.grid().dim();
    }

    let mut record = BenchRecord::new("regrid", {
        let mut fields = s.fields();
        fields.extend(crate::fields! {
            "check_every" => cfg.check_every.get(),
            "cooldown" => 2 * cfg.check_every.get(),
        });
        fields
    });
    record.lane_rows(&paired, |lane| {
        let dim = if lane == "adaptive" {
            final_dim
        } else {
            fixed_dim
        };
        crate::fields! { "result_changes" => changes, "final_dim" => dim }
    });
    record.put("regrids", Stat::of(&regrids));
    record.put("regrid_objects_migrated", Stat::of(&migrated));
    record.put("slowest_regrid_cycle_ms", Stat::of(&slowest));
    record.put("regrid_pause_cycles", Stat::of(&pauses));
    record.put("adaptive_speedup", paired.ratio("fixed", "adaptive"));
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_adapts_and_stays_conformant() {
        // Query-heavy enough that the model's δ-sensitive term moves the
        // total cycle cost past the hysteresis bar once the population
        // swings (with a dozen queries over thousands of objects, the
        // δ-independent ingest term dominates and staying put is
        // genuinely optimal — also worth knowing, but not this test).
        let cfg = Config {
            stream: DriftBench {
                n_base: 300,
                peak_factor: 8.0,
                n_queries: 100,
                k: 4,
                cycles: 24,
                ..DriftBench::default()
            },
            check_every: NonZeroU64::new(2).unwrap(),
        };
        // `measure` itself asserts per-cycle changed-list equality.
        let record = measure(&cfg);
        assert_eq!(
            record.lane_num("fixed", "result_changes"),
            record.lane_num("adaptive", "result_changes")
        );
        assert!(
            record.median("regrids") >= 1.0,
            "an 8x population swing must trigger a re-grid"
        );
        assert!(record.median("slowest_regrid_cycle_ms") > 0.0);
        assert!(record.median("adaptive_speedup") > 0.0);
    }
}
