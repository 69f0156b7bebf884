//! Re-grid benchmark: fixed-δ vs cost-model-driven adaptive resolution on
//! the drifting-hotspot stream ([`cpm_gen::drift`]).
//!
//! The workload breathes its population between a base count and
//! `peak_factor ×` that base while a single Gaussian hotspot sweeps the
//! workspace — so the Section 4.1 cost-model optimum moves mid-run. Both
//! lanes replay the identical pre-generated stream on
//! [`cpm_core::ShardedCpmEngine`] over point queries:
//!
//! * **fixed** — the grid resolution a capacity plan would have
//!   provisioned for the *base* population
//!   ([`cpm_core::CostModel::optimal_dim`] at `n_base`), frozen for the
//!   whole run;
//! * **adaptive** — the same starting resolution under
//!   [`cpm_core::RegridPolicy::Auto`], free to re-grid at cycle
//!   boundaries.
//!
//! The protocol is the paired order-alternating one of
//! [`crate::deltas`]: each event batch is processed by both lanes back to
//! back in alternating order, and the headline speedup is the **median of
//! per-cycle-pair `fixed ms / adaptive ms` ratios** — robust both to
//! noisy-neighbor stalls (both sides of a pair share them) and to the
//! adaptive lane's re-grid spikes (a handful of outlier pairs cannot move
//! the median). Migration cost is reported separately: the slowest
//! re-grid cycle, which the `check_regrid` gate bounds against the
//! adaptive lane's steady-state cycle time.
//!
//! Every cycle's changed-query list is asserted **equal between the
//! lanes**: k-NN results are δ-independent, so the adaptive lane must do
//! less work while reporting exactly the same answers.
//!
//! The `bench_regrid` binary runs [`RegridBenchConfig::default`] and
//! records `BENCH_regrid.json`; the CI gate (`bench_check`) re-runs
//! [`RegridBenchConfig::reduced`] and enforces the ≥ 1.2× acceptance bar
//! (see [`crate::check::check_regrid`]).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cpm_core::{
    AutoRegridConfig, CostModel, PointQuery, RegridPolicy, ShardedCpmEngine, SpecEvent,
};
use cpm_gen::{DriftConfig, DriftingHotspotWorkload, TickEvents, WorkloadConfig};

/// Workload parameters for one fixed-vs-adaptive run.
#[derive(Debug, Clone)]
pub struct RegridBenchConfig {
    /// Base object population (the stream breathes up to
    /// `n_base × peak_factor`).
    pub n_base: usize,
    /// Peak population as a multiple of `n_base`.
    pub peak_factor: f64,
    /// Installed k-NN queries (they track the hotspot).
    pub n_queries: usize,
    /// Neighbors per query.
    pub k: usize,
    /// Object agility `f_obj`.
    pub f_obj: f64,
    /// Query agility `f_qry`.
    pub f_qry: f64,
    /// Measured processing cycles (the population ramp spans half of
    /// them up, half down).
    pub cycles: usize,
    /// Unmeasured warmup cycles replayed first per lane.
    pub warmup_cycles: usize,
    /// Query shards (1 = sequential maintenance).
    pub shards: usize,
    /// How often the adaptive lane evaluates the model, in cycles.
    pub check_every: u64,
    /// Minimum cycles between the adaptive lane's re-grids.
    pub cooldown: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RegridBenchConfig {
    /// The acceptance-scale configuration recorded in `BENCH_regrid.json`
    /// (10K → 100K objects, 500 tracking queries).
    fn default() -> Self {
        Self {
            n_base: 10_000,
            peak_factor: 10.0,
            n_queries: 500,
            k: 16,
            f_obj: 0.5,
            f_qry: 0.3,
            cycles: 60,
            warmup_cycles: 2,
            shards: 1,
            check_every: 4,
            cooldown: 8,
            seed: 2005,
        }
    }
}

impl RegridBenchConfig {
    /// The reduced-scale configuration the CI bench gate runs on every PR.
    pub fn reduced() -> Self {
        Self {
            n_base: 2_000,
            n_queries: 100,
            cycles: 40,
            ..Self::default()
        }
    }

    /// The resolution a capacity plan would provision for the base
    /// population — the fixed lane's (and the adaptive lane's starting)
    /// grid dimension.
    pub fn provisioned_dim(&self) -> u32 {
        CostModel {
            n_objects: self.n_base,
            n_queries: self.n_queries,
            k: self.k,
            delta: 0.0, // ignored by optimal_dim
            f_obj: self.f_obj,
            f_qry: self.f_qry,
            skew: 1.0,
        }
        .optimal_dim(16, 1024)
    }
}

/// Timings for one lane.
#[derive(Debug, Clone, Copy)]
pub struct RegridMeasurement {
    /// `"fixed"` or `"adaptive"`.
    pub mode: &'static str,
    /// **Median** wall time per measured cycle, in milliseconds.
    pub ms_per_cycle: f64,
    /// Slowest single measured cycle, in milliseconds.
    pub max_cycle_ms: f64,
    /// Total result changes over the measured cycles (asserted identical
    /// across lanes — re-grids are observationally invisible).
    pub result_changes: usize,
}

/// Outcome of one fixed-vs-adaptive run.
#[derive(Debug, Clone)]
pub struct RegridBenchRun {
    /// Per-lane measurements: `[fixed, adaptive]`.
    pub modes: [RegridMeasurement; 2],
    /// Median per-cycle-pair `fixed ms / adaptive ms`: the steady-state
    /// benefit of adapting the resolution. The PR acceptance bar is
    /// ≥ 1.2 on this workload.
    pub adaptive_speedup: f64,
    /// The provisioned (fixed-lane) resolution.
    pub fixed_dim: u32,
    /// The adaptive lane's resolution at the end of the run.
    pub final_dim: u32,
    /// Re-grids the adaptive lane applied during the measured cycles.
    pub regrids: u64,
    /// Objects migrated across those re-grids.
    pub regrid_objects_migrated: u64,
    /// Slowest adaptive cycle that applied a re-grid, in milliseconds
    /// (0 when no re-grid happened). The gate bounds this against the
    /// adaptive lane's median cycle: migration pauses must stay
    /// amortizable.
    pub max_regrid_cycle_ms: f64,
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

/// Run both lanes over the identical pre-generated drift stream and
/// report the speedup plus migration-cost numbers.
///
/// Panics if the per-cycle changed-query lists ever differ between the
/// lanes: results are δ-independent, so any divergence means the re-grid
/// machinery broke conformance.
pub fn run(cfg: &RegridBenchConfig) -> RegridBenchRun {
    let total_cycles = cfg.warmup_cycles + cfg.cycles;
    let mut workload = DriftingHotspotWorkload::new(
        WorkloadConfig {
            n_objects: cfg.n_base,
            n_queries: cfg.n_queries,
            k: cfg.k,
            f_obj: cfg.f_obj,
            f_qry: cfg.f_qry,
            seed: cfg.seed,
            ..WorkloadConfig::default()
        },
        DriftConfig {
            peak_factor: cfg.peak_factor,
            ramp_ticks: (total_cycles / 2).max(1),
            ..DriftConfig::default()
        },
    );
    let initial_objects: Vec<_> = workload.initial_objects().collect();
    let initial_queries: Vec<_> = workload.initial_queries().collect();
    let ticks: Vec<TickEvents> = (0..total_cycles).map(|_| workload.tick()).collect();
    // Each tick's query events in the engine's vocabulary, translated
    // once outside the timed sections and shared by both lanes.
    let cycles: Vec<(&TickEvents, Vec<SpecEvent<PointQuery>>)> = ticks
        .iter()
        .map(|t| (t, t.query_events.iter().map(|&ev| ev.into()).collect()))
        .collect();

    let fixed_dim = cfg.provisioned_dim();
    let build = |adaptive: bool| {
        let mut m = ShardedCpmEngine::<PointQuery>::new(fixed_dim, cfg.shards);
        if adaptive {
            m.set_regrid_policy(RegridPolicy::Auto(AutoRegridConfig {
                check_every: cfg.check_every,
                cooldown: cfg.cooldown,
                ..AutoRegridConfig::default()
            }));
        }
        m.populate(initial_objects.iter().copied());
        for &(qid, pos, k) in &initial_queries {
            m.install(qid, PointQuery(pos), k).expect("fresh query id");
        }
        m
    };
    let mut fixed = build(false);
    let mut adaptive = build(true);

    let (warmup, measured) = cycles.split_at(cfg.warmup_cycles.min(cycles.len()));
    for (tick, query_events) in warmup {
        fixed.process_cycle(&tick.object_events, query_events);
        adaptive.process_cycle(&tick.object_events, query_events);
    }
    // Warmup work (including any early re-grid) is not part of the
    // measured migration accounting.
    fixed.take_metrics();
    adaptive.take_metrics();

    let mut fixed_times = Vec::with_capacity(measured.len());
    let mut adaptive_times = Vec::with_capacity(measured.len());
    let mut fixed_changes = 0usize;
    let mut adaptive_changes = 0usize;
    let mut regrid_cycle_ms: Vec<f64> = Vec::new();
    let mut regrids_seen = 0u64;

    for (i, (tick, query_events)) in measured.iter().enumerate() {
        let mut run_fixed = |fixed: &mut ShardedCpmEngine<PointQuery>| {
            let start = Instant::now();
            let changed = fixed.process_cycle(&tick.object_events, query_events);
            fixed_times.push(start.elapsed());
            fixed_changes += changed.len();
            changed
        };
        let mut run_adaptive = |adaptive: &mut ShardedCpmEngine<PointQuery>| {
            let start = Instant::now();
            let changed = adaptive.process_cycle(&tick.object_events, query_events);
            let elapsed = start.elapsed();
            adaptive_times.push(elapsed);
            adaptive_changes += changed.len();
            // Metrics snapshots are cheap counter sums; reading them here
            // (outside the timed section) identifies re-grid cycles.
            let regrids_now = adaptive.metrics().regrids;
            if regrids_now > regrids_seen {
                regrids_seen = regrids_now;
                regrid_cycle_ms.push(elapsed.as_secs_f64() * 1e3);
            }
            changed
        };
        let (changed_fixed, changed_adaptive) = if i % 2 == 0 {
            let f = run_fixed(&mut fixed);
            let a = run_adaptive(&mut adaptive);
            (f, a)
        } else {
            let a = run_adaptive(&mut adaptive);
            let f = run_fixed(&mut fixed);
            (f, a)
        };
        assert_eq!(
            changed_fixed, changed_adaptive,
            "cycle {i}: changed lists diverged between fixed and adaptive lanes"
        );
    }

    let mut ratios: Vec<f64> = fixed_times
        .iter()
        .zip(&adaptive_times)
        .map(|(f, a)| f.as_secs_f64() / a.as_secs_f64())
        .collect();
    ratios.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let adaptive_speedup = ratios[ratios.len() / 2];

    let metrics = adaptive.metrics();
    let (fixed_ms, fixed_max) = median_ms(fixed_times);
    let (adaptive_ms, adaptive_max) = median_ms(adaptive_times);
    RegridBenchRun {
        modes: [
            RegridMeasurement {
                mode: "fixed",
                ms_per_cycle: fixed_ms,
                max_cycle_ms: fixed_max,
                result_changes: fixed_changes,
            },
            RegridMeasurement {
                mode: "adaptive",
                ms_per_cycle: adaptive_ms,
                max_cycle_ms: adaptive_max,
                result_changes: adaptive_changes,
            },
        ],
        adaptive_speedup,
        fixed_dim,
        final_dim: adaptive.grid().dim(),
        regrids: metrics.regrids,
        regrid_objects_migrated: metrics.regrid_objects_migrated,
        max_regrid_cycle_ms: regrid_cycle_ms.iter().copied().fold(0.0, f64::max),
    }
}

/// Render the `BENCH_regrid.json` document for a run.
pub fn render_json(cfg: &RegridBenchConfig, run: &RegridBenchRun) -> String {
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"bench_regrid\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"n_base\": {}, \"peak_factor\": {}, \"n_queries\": {}, \"k\": {}, \
         \"f_obj\": {}, \"f_qry\": {}, \"cycles\": {}, \"warmup_cycles\": {}, \"shards\": {}, \
         \"check_every\": {}, \"cooldown\": {}}},",
        cfg.n_base,
        cfg.peak_factor,
        cfg.n_queries,
        cfg.k,
        cfg.f_obj,
        cfg.f_qry,
        cfg.cycles,
        cfg.warmup_cycles,
        cfg.shards,
        cfg.check_every,
        cfg.cooldown
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
             \"result_changes\": {}}}",
            m.mode, m.ms_per_cycle, m.max_cycle_ms, m.result_changes
        );
        json.push_str(if i + 1 == run.modes.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"fixed_dim\": {}, \"final_dim\": {}, \"regrids\": {}, \
         \"regrid_objects_migrated\": {}, \"max_regrid_cycle_ms\": {:.3},",
        run.fixed_dim,
        run.final_dim,
        run.regrids,
        run.regrid_objects_migrated,
        run.max_regrid_cycle_ms
    );
    let _ = writeln!(json, "  \"adaptive_speedup\": {:.4}", run.adaptive_speedup);
    json.push_str("}\n");
    json
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
        let cfg = RegridBenchConfig {
            n_base: 300,
            peak_factor: 8.0,
            n_queries: 100,
            k: 4,
            cycles: 24,
            warmup_cycles: 2,
            check_every: 2,
            cooldown: 4,
            ..RegridBenchConfig::default()
        };
        // `run` itself asserts per-cycle changed-list equality.
        let run = run(&cfg);
        assert_eq!(run.modes[0].mode, "fixed");
        assert_eq!(run.modes[1].mode, "adaptive");
        assert_eq!(run.modes[0].result_changes, run.modes[1].result_changes);
        assert!(
            run.regrids >= 1,
            "an 8x population swing must trigger a re-grid"
        );
        assert!(run.final_dim != 0);
        assert!(run.max_regrid_cycle_ms > 0.0);
        let json = render_json(&cfg, &run);
        assert!(json.contains("adaptive_speedup"));
        assert!(json.contains("\"regrids\""));
    }
}
